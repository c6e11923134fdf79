"""Experiment configuration: dataclass tree, YAML loading, seed fan-out.

One YAML file describes a whole experiment (profile family, learning
parameters, workload, simulation, naive thresholds, utility, weight grid).
Each section is one record, defined beside the code that reads it, and each
record checks every value it holds when it is built, so YAML and the Python
API get one check and one message per value. The loader only maps keys onto
records: omitted keys fall back to the records' defaults; unknown keys are
rejected. The master seed fans out to per-purpose sub-seeds through a fixed
hash, so adding one policy to an experiment never perturbs another policy's
randomness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
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
    check_fields,
    check_pairs,
    generate_profiles,
    load_profiles,
)
from .simulator import (
    PolicySpec, Requests, SimConfig, SimulationConfig, WorkloadConfig, WorkloadSpec, build_requests,
)

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
    """The experiment's `learning` section, checked when it is built."""

    k_max: int = DEFAULT_K_MAX
    ci_level: float = DEFAULT_CI_LEVEL

    def __post_init__(self) -> None:
        check_fields(self, "learning")
        if self.k_max < 1:
            raise ConfigError(f"learning.k_max must be >= 1, got {self.k_max}")
        if not 0.0 < self.ci_level < 1.0:
            raise ConfigError(f"learning.ci_level must be in (0, 1), got {self.ci_level}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The whole experiment, checked when it is built. source names where it
    was loaded from (no YAML key sets it), so checks that run after loading
    can cite it too."""

    master_seed: int = 1
    output_dir: str = "out"
    profiles: ProfilesConfig = field(default_factory=ProfilesConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    naive_thresholds: NaivePolicyConfig = DEFAULT_NAIVE_THRESHOLDS
    utility: UtilityParams = field(default_factory=UtilityParams)
    weight_grid: tuple[tuple[float, float], ...] = DEFAULT_WEIGHT_GRID
    source: str = field(default="<config>", compare=False)

    def __post_init__(self) -> None:
        check_fields(self)
        check_pairs(self.weight_grid, ("float", "float"), "weight_grid", "[w_e, w_d]")
        grid = tuple((float(w_e), float(w_d)) for w_e, w_d in self.weight_grid)
        for value in chain.from_iterable(grid):
            if value < 0:
                raise ConfigError(f"weight_grid weights must be >= 0, got {value!r}")
        for i, pair in enumerate(grid):
            if pair in grid[:i]:
                raise ConfigError(f"weight_grid repeats {pair}")
        object.__setattr__(self, "weight_grid", grid)


# Built and checked once: every load starts from it, as does a command run
# without --config.
DEFAULT_CONFIG = ExperimentConfig()


def derive_seed(master_seed: int, label: str) -> int:
    """Stable sub-seed for one purpose; independent across labels."""
    digest = hashlib.blake2s(f"{master_seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def parse_policy_label(label: str, config: ExperimentConfig) -> PolicySpec:
    """Turn a policy label (adamls, naive, static:<model>) into a PolicySpec;
    PolicySpec rejects any other label."""
    if label == "naive":
        return PolicySpec(kind="naive", naive=config.naive_thresholds)
    if label.startswith("static:"):
        return PolicySpec(kind="static", static_model=label.split(":", 1)[1])
    return PolicySpec(kind=label)


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
    must not be the clustering report, and compare's policy_dir_name of
    static:<id>. where names the source and its key."""
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


def build_request_stream(config: ExperimentConfig, profiles) -> Requests:
    """The experiment's one request stream: the workload's arrivals, each
    with an image row of profiles drawn from the service sub-seed. Every run
    of a compare serves it (common random numbers)."""
    return build_requests(
        build_workload_spec(config),
        derive_seed(config.master_seed, "service"),
        len(profiles[0].image_id),
    )


def build_sim_config(
    config: ExperimentConfig, policy: PolicySpec, profiles
) -> SimConfig:
    return SimConfig(
        profiles=tuple(profiles),
        policy=policy,
        simulation=config.simulation,
        ci_level=config.learning.ci_level,
    )


def policy_dir_name(label: str) -> str:
    """The name of a policy's directory under compare/."""
    return label.replace(":", "_")


def compare_policy_labels(config: ExperimentConfig, profiles) -> list[str]:
    """All policies of a comparison run: adamls, naive, one static per model."""
    statics = [f"static:{p.model_id}" for p in sorted(profiles, key=lambda p: p.model_id)]
    return ["adamls", "naive"] + statics


# -- YAML (de)serialization ---------------------------------------------------

_MERGE_TAG = "tag:yaml.org,2002:merge"


class _UniqueKeyLoader(yaml.SafeLoader):
    """yaml.SafeLoader that rejects a key written twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        lines: dict = {}
        for key_node, _ in node.value:  # its own keys, before "<<" keys merge in
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE_TAG:
                key, mark = self.construct_object(key_node, deep=deep), key_node.start_mark
                if key in lines:
                    problem = f"key {key!r} repeats line {lines[key] + 1}"
                    raise yaml.constructor.ConstructorError(None, None, problem, mark)
                lines[key] = mark.line
        return super().construct_mapping(node, deep=deep)


def load_experiment_config(path) -> ExperimentConfig:
    """The experiment in a YAML file; errors name it, and a line if they can."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_UniqueKeyLoader)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except yaml.reader.ReaderError as exc:
        # A control character: its text names the file again on a second line.
        problem = str(exc).partition("\n")[0]
        raise ConfigError(f"{path}: position {exc.position}: {problem}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}, column {mark.column + 1}: " if mark else ""
        raise ConfigError(f"{path}: {where}{getattr(exc, 'problem', None) or exc}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return experiment_config_from_dict(raw, source=str(path))


def experiment_config_from_dict(raw: dict, source: str = "<dict>") -> ExperimentConfig:
    """raw's keys on the default records; each record checks its values."""
    defaults = DEFAULT_CONFIG
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"source"}
    unknown = set(raw) - keys
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {sorted(unknown)}")
    try:
        kwargs = dict(raw)
        kwargs["profiles"] = _merge_section(
            raw.get("profiles"), defaults.profiles, "profiles",
            converters={"models": _parse_model_family},
        )
        for name in ("learning", "workload", "simulation", "utility"):
            kwargs[name] = _merge_section(raw.get(name), getattr(defaults, name), name)
        # A null list, like an omitted one, keeps the default.
        for name in ("naive_thresholds", "weight_grid"):
            if kwargs.get(name) is None:
                kwargs.pop(name, None)
        if "naive_thresholds" in kwargs:
            kwargs["naive_thresholds"] = NaivePolicyConfig(kwargs["naive_thresholds"])
        return dataclasses.replace(defaults, source=source, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _merge_section(raw, default, name: str, converters=None):
    """The default section record with raw's keys replaced; the record
    checks the values when it is built."""
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    unknown = set(raw) - {f.name for f in dataclasses.fields(default)}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in section {name!r}")
    converters = converters or {}
    kwargs = {
        key: converters[key](value) if key in converters else value for key, value in raw.items()
    }
    return dataclasses.replace(default, **kwargs)


def _parse_model_family(raw) -> tuple[ModelKpiSpec, ...]:
    if not isinstance(raw, list) or not all(isinstance(entry, dict) for entry in raw):
        raise ConfigError(f"profiles.models must be a list of model mappings, got {raw!r}")
    fields = {f.name for f in dataclasses.fields(ModelKpiSpec)}
    for entry in raw:
        unknown = set(entry) - fields
        if unknown:
            raise ConfigError(f"unknown model spec key(s) {sorted(unknown)}")
    return tuple(ModelKpiSpec(**entry) for entry in raw)
