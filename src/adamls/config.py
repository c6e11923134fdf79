"""Experiment configuration: dataclass tree, YAML loading, seed fan-out.

One YAML file describes a whole experiment (profile family, learning
parameters, workload, simulation, policy, utility). Each section is one
record, defined beside the code that reads it and checked when it is built
(its integer and float fields with the loader's messages, so the Python API
turns away what the loader does); the loader checks each key's type first.
Omitted keys fall back to the records' defaults; unknown keys are rejected.
The master seed fans out to per-purpose sub-seeds through a fixed hash, so
adding one policy to an experiment never perturbs another policy's
randomness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import chain

import yaml

from .controller import NaivePolicyConfig
from .errors import ConfigError
from .learning import DEFAULT_CI_LEVEL, DEFAULT_K_MAX, LearnedModelRules, run_learning_engine
from .metrics import DEFAULT_WEIGHT_GRID, UtilityParams
from .profiles import (
    ModelKpiSpec,
    ModelProfile,
    ProfilesConfig,
    check_numbers,
    generate_profiles,
    is_finite_number,
    is_integer,
    load_profiles,
)
from .simulator import PolicySpec, SimConfig, SimulationConfig, WorkloadConfig, WorkloadSpec

# learn writes rules/<model id>.csv per model and this report beside them.
CLUSTERING_REPORT = "clustering_report"

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
class LearningConfig:
    """The experiment's `learning` section, range-checked when it is built."""

    k_max: int = DEFAULT_K_MAX
    ci_level: float = DEFAULT_CI_LEVEL

    def __post_init__(self) -> None:
        check_numbers(self, "learning")
        if self.k_max < 1:
            raise ConfigError(f"learning.k_max must be >= 1, got {self.k_max}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"learning.ci_level must be in (0, 1), got {self.ci_level}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole experiment. source names where it was loaded from (no YAML
    key sets it), so checks that run after loading can cite it too."""

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
    source: str = field(default="<config>", compare=False)


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
        f"{config.source}: policy {label!r} is unknown; expected adamls, naive, or static:<model>"
    )


def checked_policy(config: ExperimentConfig, profiles) -> PolicySpec:
    """config.policy (the key --policy overrides) as a PolicySpec whose
    static model, if any, is profiled; simulate checks it before it writes."""
    spec = parse_policy_label(config.policy, config)
    profiled = sorted(p.model_id for p in profiles)
    if spec.kind == "static" and spec.static_model not in profiled:
        raise ConfigError(
            f"{config.source}: policy {config.policy!r} names model {spec.static_model!r}, "
            f"which has no profile; the profiled models are {profiled}"
        )
    return spec


def resolve_profiles(config: ExperimentConfig) -> list[ModelProfile]:
    """The experiment's profiles, loaded or generated.

    Each model id must name its own files (see _check_model_ids), and the
    models the config names (naive_thresholds, simulation.initial_model)
    must be profiled. A csv source knows its models only once it is read, so
    they are checked here, and every command resolves the profiles before it
    writes anything.
    """
    if config.profiles.source == "csv":
        profiles = load_profiles(config.profiles.csv_path)
        _check_model_ids(profiles, f"{config.profiles.csv_path}: model_id")
    else:
        profiles = generate_profiles(config.profiles, derive_seed(config.master_seed, "profiles"))
        _check_model_ids(profiles, f"{config.source}: profiles.models model_id")
    profiled = sorted(p.model_id for p in profiles)
    unknown = sorted(set(config.naive_thresholds.model_ids()) - set(profiled))
    if unknown:
        raise ConfigError(
            f"{config.source}: naive_thresholds names unprofiled model(s) {unknown}; "
            f"the profiled models are {profiled}"
        )
    if config.simulation.initial_model not in profiled:
        raise ConfigError(
            f"{config.source}: simulation.initial_model {config.simulation.initial_model!r} "
            f"has no profile; the profiled models are {profiled}"
        )
    return profiles


def _check_model_ids(profiles, where: str) -> None:
    """Each model id names files of its own: learn's rules/<id>.csv, which
    must not be the clustering report, and compare's and simulate's
    policy_dir_name of static:<id>. where names the source and its key."""
    dirs: dict[str, str] = {}
    for model_id in sorted(p.model_id for p in profiles):
        if model_id == CLUSTERING_REPORT:
            raise ConfigError(
                f"{where} {model_id!r} is reserved: learn writes its clustering report "
                f"to rules/{CLUSTERING_REPORT}.csv"
            )
        if model_id in ("", ".", "..") or any(ch in model_id for ch in "/\\\0"):
            raise ConfigError(
                f"{where} {model_id!r} cannot name a file: an id must not be empty, "
                f"'.' or '..', or hold '/', '\\' or NUL"
            )
        name = policy_dir_name(f"static:{model_id}")
        if name in dirs:
            raise ConfigError(
                f"{where}s {dirs[name]!r} and {model_id!r} would both write compare/{name}/"
            )
        dirs[name] = model_id


def learn_rules(config: ExperimentConfig, profiles) -> dict[str, LearnedModelRules]:
    return run_learning_engine(
        profiles, k_max=config.learning.k_max, level=config.learning.ci_level
    )


def build_workload_spec(config: ExperimentConfig) -> WorkloadSpec:
    return WorkloadSpec(config.workload, seed=derive_seed(config.master_seed, "workload"))


def build_sim_config(
    config: ExperimentConfig, policy: PolicySpec, profiles
) -> SimConfig:
    return SimConfig(
        workload=build_workload_spec(config),
        profiles=tuple(profiles),
        policy=policy,
        simulation=config.simulation,
        service_seed=derive_seed(config.master_seed, "service"),
        ci_level=config.learning.ci_level,
    )


def policy_dir_name(label: str) -> str:
    """The name of a policy's directory under compare/, and of simulate's
    results_<name>.csv."""
    return label.replace(":", "_")


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
    types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig) if f.name != "source"}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {sorted(unknown)}")
    try:
        for key in ("master_seed", "output_dir", "policy"):
            if key in raw:
                _check_scalar(raw[key], types[key], key)
        profiles = _merge_section(
            ProfilesConfig, raw.get("profiles"), defaults.profiles, "profiles",
            converters={"models": _parse_model_family},
        )
        learning = _merge_section(LearningConfig, raw.get("learning"), defaults.learning, "learning")
        workload = _merge_section(
            WorkloadConfig, raw.get("workload"), defaults.workload, "workload",
            converters={"segments": partial(
                _parse_pairs, key="workload.segments", names="[duration, rate]"
            )},
        )
        simulation = _merge_section(
            SimulationConfig, raw.get("simulation"), defaults.simulation, "simulation"
        )
        utility = _merge_section(UtilityParams, raw.get("utility"), defaults.utility, "utility")
        naive = raw.get("naive_thresholds")
        naive_thresholds = (
            _parse_thresholds(naive) if naive is not None else defaults.naive_thresholds
        )
        grid = raw.get("weight_grid")
        weight_grid = defaults.weight_grid if grid is None else _parse_weight_grid(grid)
        return ExperimentConfig(
            master_seed=raw.get("master_seed", defaults.master_seed),
            output_dir=raw.get("output_dir", defaults.output_dir),
            profiles=profiles,
            learning=learning,
            workload=workload,
            simulation=simulation,
            policy=raw.get("policy", defaults.policy),
            naive_thresholds=naive_thresholds,
            utility=utility,
            weight_grid=weight_grid,
            source=source,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _merge_section(cls, raw, default, name: str, converters=None):
    """The default section record with raw's keys replaced, each scalar
    checked against its declared type first; the record checks ranges."""
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section {name!r}")
    kwargs = {}
    converters = converters or {}
    for key, value in raw.items():
        if key in converters:
            kwargs[key] = converters[key](value)
        else:
            _check_scalar(value, types[key], f"{name}.{key}")
            kwargs[key] = value
    return dataclasses.replace(default, **kwargs)


# Declared field type (a string, under `from __future__ import annotations`),
# or "bound" for a naive_thresholds rate bound (the last one is .inf),
# -> (test of a loaded value, what it must be). YAML true/false are bools,
# which isinstance counts as ints.
_SCALAR_TYPES = {
    "int": (is_integer, "an integer"),
    "float": (is_finite_number, "a finite number"),
    "bound": (lambda v: is_finite_number(v) or v == math.inf, "a finite number or .inf"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def _check_scalar(value, declared: str, key: str) -> None:
    test, what = _SCALAR_TYPES[declared]
    if not test(value):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


def _parse_pairs(
    raw, key: str, names: str, declared=("float", "float")
) -> tuple[tuple, ...]:
    """A list of two-entry lists, each entry checked against its declared
    type (see _SCALAR_TYPES); numbers come back as floats."""
    if not isinstance(raw, (list, tuple)) or any(
        not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in raw
    ):
        raise ConfigError(f"{key} must be a list of {names} pairs, got {raw!r}")
    for pair in raw:
        for value, kind in zip(pair, declared):
            _check_scalar(value, kind, key)
    return tuple(
        tuple(value if kind == "str" else float(value) for value, kind in zip(pair, declared))
        for pair in raw
    )


def _parse_weight_grid(raw) -> tuple[tuple[float, float], ...]:
    grid = _parse_pairs(raw, "weight_grid", "[w_e, w_d]")
    for value in chain.from_iterable(grid):
        if value < 0:
            raise ConfigError(f"weight_grid weights must be >= 0, got {value!r}")
    return grid


def _parse_model_family(raw) -> tuple[ModelKpiSpec, ...]:
    if not isinstance(raw, list) or not all(isinstance(entry, dict) for entry in raw):
        raise ConfigError(f"profiles.models must be a list of model mappings, got {raw!r}")
    fields = {f.name for f in dataclasses.fields(ModelKpiSpec)}
    for entry in raw:
        unknown = set(entry) - fields
        if unknown:
            raise ConfigError(f"unknown model spec key(s) {sorted(unknown)}")
    return tuple(ModelKpiSpec(**entry) for entry in raw)


def _parse_thresholds(raw) -> NaivePolicyConfig:
    return NaivePolicyConfig(
        thresholds=_parse_pairs(
            raw, "naive_thresholds", "[rate bound, model]", declared=("bound", "str")
        )
    )
