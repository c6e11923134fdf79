import math

import hypothesis
import pytest

from adamls import config as cfgmod
from adamls.controller import NaivePolicyConfig
from adamls.profiles import ModelKpiSpec, ProfilesConfig, generate_profiles

hypothesis.settings.register_profile(
    "suite", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("suite")

TINY_MODELS = (
    ModelKpiSpec("fast", 0.05, 0.005, 0.55, 0.05, 20.0, 3.0, s_cpu_std=2.0, b_std=1.0),
    ModelKpiSpec("slow", 0.20, 0.020, 0.75, 0.05, 60.0, 6.0, s_cpu_std=2.0, b_std=1.0),
)


@pytest.fixture
def tiny_profiles():
    return generate_profiles(ProfilesConfig(image_count=120, models=TINY_MODELS), seed=7)


@pytest.fixture(scope="session")
def tiny_config():
    """Small end-to-end experiment: 2 models, ~160 requests, ramped burst."""
    return cfgmod.ExperimentConfig(
        master_seed=3,
        profiles=cfgmod.ProfilesConfig(image_count=120, models=TINY_MODELS),
        learning=cfgmod.LearningConfig(k_max=4),
        workload=cfgmod.WorkloadConfig(
            segments=((10.0, 2.0), (4.0, 8.0), (6.0, 15.0), (12.0, 3.0)),
            max_requests=160,
            arrival_process="poisson",
        ),
        simulation=cfgmod.SimulationConfig(initial_model="slow"),
        naive_thresholds=NaivePolicyConfig(thresholds=((6.0, "slow"), (math.inf, "fast"))),
    )
