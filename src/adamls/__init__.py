"""QoS-aware model switching: learned CI adaptation rules driving a MAPE-K
controller over a simulated request-serving system."""

from .controller import (
    AdaptationPlan,
    EventLog,
    Knowledge,
    NaivePolicyConfig,
    PlannerInput,
    SystemState,
)
from .learning import CiEntry, CiMatrix, run_learning_engine
from .metrics import UtilityParams, utility_per_request
from .profiles import KpiRecord, ModelKpiSpec, ModelProfile, ProfilesConfig, generate_profiles
from .simulator import (
    Completions, Requests, SimConfig, SimulationConfig, WorkloadConfig, WorkloadSpec,
    build_requests, run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationPlan",
    "CiEntry",
    "CiMatrix",
    "Completions",
    "EventLog",
    "Knowledge",
    "KpiRecord",
    "ModelKpiSpec",
    "ModelProfile",
    "NaivePolicyConfig",
    "PlannerInput",
    "ProfilesConfig",
    "Requests",
    "SimConfig",
    "SimulationConfig",
    "SystemState",
    "UtilityParams",
    "WorkloadConfig",
    "WorkloadSpec",
    "build_requests",
    "generate_profiles",
    "run_learning_engine",
    "run_simulation",
    "utility_per_request",
]
