"""Experiment configuration: dataclass tree, YAML loading, seed fan-out.

One YAML file describes a whole experiment (profile family, learning
parameters, workload, simulation, policy, utility). Omitted keys fall back to
the built-in defaults below; unknown keys are rejected. The master seed fans
out to per-purpose sub-seeds through a fixed hash, so adding one policy to an
experiment never perturbs another policy's randomness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field

import yaml

from .controller import NaivePolicyConfig
from .errors import ConfigError
from .learning import LearnedModelRules, run_learning_engine
from .metrics import DEFAULT_WEIGHT_GRID, UtilityParams
from .profiles import (
    ModelKpiSpec,
    ModelProfile,
    ProfileFamilySpec,
    generate_profiles,
    load_profiles,
)
from .simulator import PolicySpec, SimConfig, WorkloadSpec

# Five-model synthetic family: system times span 45 ms to 766 ms and
# confidence means 0.50 to 0.75, rising monotonically with model size.
DEFAULT_MODEL_FAMILY = (
    ModelKpiSpec("nano", 0.045, 0.006, 0.50, 0.08, 25.0, 4.0, s_cpu_std=5.0, b_std=1.2, label="nano tier"),
    ModelKpiSpec("small", 0.120, 0.015, 0.57, 0.08, 40.0, 5.0, s_cpu_std=6.0, b_std=1.2, label="small tier"),
    ModelKpiSpec("medium", 0.250, 0.030, 0.63, 0.08, 55.0, 5.0, s_cpu_std=7.0, b_std=1.2, label="medium tier"),
    ModelKpiSpec("large", 0.450, 0.050, 0.69, 0.08, 70.0, 7.0, s_cpu_std=7.0, b_std=1.2, label="large tier"),
    ModelKpiSpec("xlarge", 0.766, 0.080, 0.75, 0.08, 85.0, 8.0, s_cpu_std=8.0, b_std=1.2, label="xlarge tier"),
)

# Bursty base cycle (duration s, rate rps): a low-rate floor with one spike
# per cycle that ramps up to the 28 rps peak and back down, the way flash
# crowds build over seconds rather than stepping instantaneously.
_BURST_CYCLE = (
    (30.0, 2.0),
    (14.0, 4.0),
    (20.0, 3.0),
    (2.0, 10.0),
    (2.0, 18.0),
    (4.0, 28.0),
    (2.0, 12.0),
    (22.0, 4.0),
    (16.0, 2.0),
    (18.0, 3.0),
    (10.0, 4.0),
    (10.0, 1.0),
)
DEFAULT_SEGMENTS = _BURST_CYCLE * 9

DEFAULT_NAIVE_THRESHOLDS = NaivePolicyConfig(
    thresholds=(
        (5.6, "xlarge"),
        (11.2, "large"),
        (16.8, "medium"),
        (22.4, "small"),
        (math.inf, "nano"),
    )
)


@dataclass(frozen=True)
class ProfilesConfig:
    source: str = "generate"  # "generate" | "csv"
    csv_path: str | None = None
    image_count: int = 1000
    models: tuple[ModelKpiSpec, ...] = DEFAULT_MODEL_FAMILY

    def __post_init__(self) -> None:
        if self.source not in ("generate", "csv"):
            raise ConfigError(f"profiles.source must be generate or csv, got {self.source!r}")
        if self.source == "csv" and not self.csv_path:
            raise ConfigError("profiles.source=csv requires profiles.csv_path")


@dataclass(frozen=True)
class LearningConfig:
    k_max: int = 6
    ci_level: float = 0.90


@dataclass(frozen=True)
class WorkloadConfig:
    segments: tuple[tuple[float, float], ...] = DEFAULT_SEGMENTS
    max_requests: int = 5000
    arrival_process: str = "poisson"


@dataclass(frozen=True)
class SimulationConfig:
    worker_count: int = 1
    switch_latency: float = 0.005
    window_size: int = 50
    t_wait: float = 0.25
    tick_interval: float = 0.1
    network_delay: float = 0.0
    initial_model: str = "xlarge"
    blacklist_enabled: bool = False
    blacklist_margin: float = 0.05
    blacklist_consecutive: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 1
    output_dir: str = "out"
    profiles: ProfilesConfig = field(default_factory=ProfilesConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    policy: str = "adamls"
    naive_thresholds: NaivePolicyConfig = DEFAULT_NAIVE_THRESHOLDS
    utility: UtilityParams = field(default_factory=UtilityParams)
    weight_grid: tuple[tuple[float, float], ...] = DEFAULT_WEIGHT_GRID


def derive_seed(master_seed: int, label: str) -> int:
    """Stable sub-seed for one purpose; independent across labels."""
    digest = hashlib.blake2s(f"{master_seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def parse_policy_label(label: str, config: ExperimentConfig) -> PolicySpec:
    """Turn a policy label (adamls, naive, static:<model>) into a PolicySpec."""
    if label == "adamls":
        return PolicySpec(kind="adamls")
    if label == "naive":
        return PolicySpec(kind="naive", naive=config.naive_thresholds)
    if label.startswith("static:"):
        return PolicySpec(kind="static", static_model=label.split(":", 1)[1])
    raise ConfigError(
        f"unknown policy {label!r}; expected adamls, naive, or static:<model>"
    )


def resolve_profiles(config: ExperimentConfig) -> list[ModelProfile]:
    if config.profiles.source == "csv":
        return load_profiles(config.profiles.csv_path)
    family = ProfileFamilySpec(
        models=config.profiles.models,
        image_count=config.profiles.image_count,
        seed=derive_seed(config.master_seed, "profiles"),
    )
    return generate_profiles(family)


def learn_rules(config: ExperimentConfig, profiles) -> dict[str, LearnedModelRules]:
    return run_learning_engine(
        profiles, k_max=config.learning.k_max, level=config.learning.ci_level
    )


def build_workload_spec(config: ExperimentConfig) -> WorkloadSpec:
    return WorkloadSpec(
        segments=config.workload.segments,
        max_requests=config.workload.max_requests,
        arrival_process=config.workload.arrival_process,
        seed=derive_seed(config.master_seed, "workload"),
    )


def build_sim_config(
    config: ExperimentConfig, policy: PolicySpec, profiles
) -> SimConfig:
    sim = config.simulation
    return SimConfig(
        workload=build_workload_spec(config),
        profiles=tuple(profiles),
        policy=policy,
        initial_model=sim.initial_model,
        worker_count=sim.worker_count,
        switch_latency=sim.switch_latency,
        window_size=sim.window_size,
        t_wait=sim.t_wait,
        tick_interval=sim.tick_interval,
        service_seed=derive_seed(config.master_seed, "service"),
        network_delay=sim.network_delay,
        ci_level=config.learning.ci_level,
        blacklist_enabled=sim.blacklist_enabled,
        blacklist_margin=sim.blacklist_margin,
        blacklist_consecutive=sim.blacklist_consecutive,
    )


def compare_policy_labels(config: ExperimentConfig, profiles) -> list[str]:
    """All policies of a comparison run: adamls, naive, one static per model."""
    statics = [f"static:{p.model_id}" for p in sorted(profiles, key=lambda p: p.model_id)]
    return ["adamls", "naive"] + statics


# -- YAML (de)serialization ---------------------------------------------------


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return experiment_config_from_dict(raw, source=str(path))


def experiment_config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    defaults = ExperimentConfig()
    known = {
        "master_seed",
        "output_dir",
        "profiles",
        "learning",
        "workload",
        "simulation",
        "policy",
        "naive_thresholds",
        "utility",
        "weight_grid",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {sorted(unknown)}")
    if "master_seed" in raw:
        _check_int(raw["master_seed"], source, "master_seed")
    try:
        profiles = _merge_section(
            ProfilesConfig, raw.get("profiles"), defaults.profiles, source, "profiles",
            converters={"models": _parse_model_family},
        )
        learning = _merge_section(
            LearningConfig, raw.get("learning"), defaults.learning, source, "learning"
        )
        workload = _merge_section(
            WorkloadConfig, raw.get("workload"), defaults.workload, source, "workload",
            converters={"segments": _parse_segments},
        )
        simulation = _merge_section(
            SimulationConfig, raw.get("simulation"), defaults.simulation, source, "simulation"
        )
        utility = _merge_section(
            UtilityParams, raw.get("utility"), defaults.utility, source, "utility"
        )
        naive = raw.get("naive_thresholds")
        naive_thresholds = (
            _parse_thresholds(naive) if naive is not None else defaults.naive_thresholds
        )
        grid = raw.get("weight_grid")
        weight_grid = (
            tuple((float(w_e), float(w_d)) for w_e, w_d in grid)
            if grid is not None
            else defaults.weight_grid
        )
        return ExperimentConfig(
            master_seed=raw.get("master_seed", defaults.master_seed),
            output_dir=str(raw.get("output_dir", defaults.output_dir)),
            profiles=profiles,
            learning=learning,
            workload=workload,
            simulation=simulation,
            policy=str(raw.get("policy", defaults.policy)),
            naive_thresholds=naive_thresholds,
            utility=utility,
            weight_grid=weight_grid,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{source}: {exc}") from exc


def _merge_section(cls, raw, default, source: str, name: str, converters=None):
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: section {name!r} must be a mapping")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {sorted(unknown)} in section {name!r}")
    kwargs = {}
    converters = converters or {}
    for key, value in raw.items():
        if types[key] in (int, "int"):
            _check_int(value, source, f"{name}.{key}")
        elif types[key] in (float, "float"):
            _check_float(value, source, f"{name}.{key}")
        kwargs[key] = converters[key](value) if key in converters else value
    return dataclasses.replace(default, **kwargs)


def _check_int(value, source: str, key: str) -> None:
    # bool is an int subclass, and YAML reads true/false as bools.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{source}: {key} must be an integer, got {value!r}")


def _check_float(value, source: str, key: str) -> None:
    # An int is valid if it converts to a finite float; a bool is not,
    # though bool is an int subclass.
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise ConfigError(f"{source}: {key} must be a finite number, got {value!r}")


def _parse_model_family(raw) -> tuple[ModelKpiSpec, ...]:
    specs = []
    for entry in raw:
        fields = {f.name for f in dataclasses.fields(ModelKpiSpec)}
        unknown = set(entry) - fields
        if unknown:
            raise ConfigError(f"unknown model spec key(s) {sorted(unknown)}")
        specs.append(ModelKpiSpec(**entry))
    return tuple(specs)


def _parse_segments(raw) -> tuple[tuple[float, float], ...]:
    return tuple((float(d), float(r)) for d, r in raw)


def _parse_thresholds(raw) -> NaivePolicyConfig:
    return NaivePolicyConfig(thresholds=tuple((float(b), str(m)) for b, m in raw))
