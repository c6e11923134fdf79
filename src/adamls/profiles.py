"""Model KPI profiles: synthetic generation and CSV persistence.

A profile is the per-image KPI dataset of one model, obtained by running the
model over an evaluation image set. Here profiles are either synthesized from
a configurable family (truncated-normal draws around per-model means) or
loaded from CSV. A profile keeps each KPI as one array over its images;
KpiRecord, one image's KPIs, is built only where a CSV row is read and when
a profile's records are read. The profiles of one experiment list the same
images in one order, so row i names the same image in each. Downstream, the
learning engine clusters the profiles into adaptation rules and the
simulator samples their rows as service behaviour.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, repeat, zip_longest

import numpy as np

from .csvtext import read_rows, write_rows
from .errors import ConfigError, ProfileLoadError, ValidationError

# KPI columns that exist per record, in canonical order.
KPI_NAMES = ("c", "tau_model", "tau_system", "s_cpu", "b")

PROFILE_CSV_HEADER = ("image_id", "model_id", "c", "tau_model", "tau_system", "s_cpu", "b")

# Floor for generated service times, keeps tau_model strictly positive after
# subtracting the per-model overhead.
_MIN_TAU_MODEL = 1e-6


@dataclass(frozen=True)
class KpiRecord:
    """KPIs of one image processed by one model.

    c is the detection confidence in [0, 1]; tau_model and tau_system are the
    model and whole-system processing times in seconds (tau_system includes a
    fixed non-model overhead, so tau_system >= tau_model); s_cpu is CPU
    consumption in percent; b is the detection-box count.
    """

    image_id: str
    model_id: str
    c: float
    tau_model: float
    tau_system: float
    s_cpu: float
    b: int

    def __post_init__(self) -> None:
        for name in ("tau_model", "tau_system"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(
                    f"{name} must be finite for image {self.image_id!r} "
                    f"model {self.model_id!r}, got {value}"
                )
        if not 0.0 <= self.c <= 1.0:
            raise ValidationError(f"c must be in [0, 1], got {self.c}")
        if self.tau_model <= 0.0:
            raise ValidationError(f"tau_model must be > 0, got {self.tau_model}")
        if self.tau_system < self.tau_model:
            raise ValidationError(
                f"tau_system ({self.tau_system}) must be >= tau_model ({self.tau_model})"
            )
        if not 0.0 <= self.s_cpu <= 100.0:
            raise ValidationError(f"s_cpu must be in [0, 100], got {self.s_cpu}")
        if self.b < 0:
            raise ValidationError(f"b must be >= 0, got {self.b}")


@dataclass(frozen=True, eq=False)
class ModelProfile:
    """All KPIs of one model over an image set, stored as columns.

    Row i of every KPI column belongs to image image_id[i]. The columns are
    read-only float arrays; b holds whole counts (see record). Every row
    meets KpiRecord's invariants, checked on whole columns at once: the
    first bad row raises exactly what building its KpiRecord raises, or a
    ValidationError naming it if its b is not finite.
    """

    model_id: str
    image_id: tuple[str, ...]
    c: np.ndarray
    tau_model: np.ndarray
    tau_system: np.ndarray
    s_cpu: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "image_id", tuple(self.image_id))
        n = len(self.image_id)
        if not n:
            raise ValidationError(f"profile {self.model_id!r} has no records")
        for name in KPI_NAMES:
            column = np.array(getattr(self, name), dtype=float)
            if column.shape != (n,):
                raise ValidationError(
                    f"profile {self.model_id!r}: column {name} has shape "
                    f"{column.shape}, expected ({n},)"
                )
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        bad = _invalid_rows(self)
        if bad.any():
            i = int(bad.argmax())
            if not math.isfinite(b := float(self.b[i])):  # record's int(b) would raise
                raise ValidationError(
                    f"b must be finite for image {self.image_id[i]!r} "
                    f"model {self.model_id!r}, got {b}"
                )
            self.record(i)  # raises KpiRecord's error
        if len(set(self.image_id)) != n:
            raise ValidationError(f"profile {self.model_id!r} has duplicate image ids")

    @classmethod
    def of_records(cls, model_id: str, records) -> ModelProfile:
        """The profile holding the given KpiRecords, in order."""
        records = tuple(records)
        for rec in records:
            if rec.model_id != model_id:
                raise ValidationError(
                    f"record for image {rec.image_id!r} carries model "
                    f"{rec.model_id!r}, expected {model_id!r}"
                )
        columns = {
            name: [getattr(rec, name) for rec in records]
            for name in ("image_id",) + KPI_NAMES
        }
        return cls(model_id=model_id, **columns)

    def column(self, name: str) -> np.ndarray:
        """One KPI column by its canonical name."""
        return getattr(self, name)

    def record(self, i: int) -> KpiRecord:
        """Row i as a KpiRecord; b becomes the Python int of its float."""
        return KpiRecord(self.image_id[i], self.model_id, *_kpi_tuple(self.kpi_table[i].tolist()))

    @property
    def records(self) -> ProfileRecords:
        """The rows as KpiRecords, each built when it is read."""
        return ProfileRecords(self)

    @functools.cached_property
    def kpi_table(self) -> np.ndarray:
        """The KPI columns side by side: row i holds image_id[i]'s KPIs in
        KPI_NAMES order, so one row is one read. Built on first use."""
        table = np.column_stack([self.column(kpi) for kpi in KPI_NAMES])
        table.flags.writeable = False
        return table

    @functools.cached_property
    def kpi_tuples(self) -> list:
        """Per row, once read, its KPI tuple (c, tau_model, tau_system, s_cpu,
        b), b an int, which every run that draws the row shares; else None."""
        return [None] * len(self.image_id)

    def kpi_tuple(self, i: int) -> tuple:
        """Row i's KPI tuple, built and kept in kpi_tuples on its first read."""
        kpis = self.kpi_tuples[i]
        if kpis is None:
            kpis = self.kpi_tuples[i] = _kpi_tuple(self.kpi_table[i].tolist())
        return kpis

    def kpi_tuples_of(self, rows) -> list:
        """The KPI tuple of each of rows, in order; the rows not read yet
        are built in one pass."""
        tuples = self.kpi_tuples
        new = [i for i in set(rows) if tuples[i] is None]
        for i, row in zip(new, self.kpi_table[new].tolist()):
            tuples[i] = _kpi_tuple(row)
        return list(map(tuples.__getitem__, rows))


def _kpi_tuple(row: list) -> tuple:
    """A kpi_table row as a KPI tuple: b becomes the Python int of its float."""
    c, tau_model, tau_system, s_cpu, b = row
    return (c, tau_model, tau_system, s_cpu, int(b))


class ProfileRecords(Sequence):
    """Read-only sequence view of a profile's rows as KpiRecords."""

    __slots__ = ("_profile",)

    def __init__(self, profile: ModelProfile):
        self._profile = profile

    def __len__(self) -> int:
        return len(self._profile.image_id)

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return tuple(map(self._profile.record, rows))
        return self._profile.record(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return tuple(self) == tuple(other)


def _invalid_rows(p: ModelProfile) -> np.ndarray:
    """Rows whose KpiRecord would raise, b included (int() of inf or nan)."""
    return (
        ~np.isfinite(p.tau_model)
        | ~np.isfinite(p.tau_system)
        | ~((0.0 <= p.c) & (p.c <= 1.0))
        | (p.tau_model <= 0.0)
        | (p.tau_system < p.tau_model)
        | ~((0.0 <= p.s_cpu) & (p.s_cpu <= 100.0))
        | ~np.isfinite(p.b)
        | (p.b < 0.0)
    )


@dataclass(frozen=True)
class ModelKpiSpec:
    """Distribution parameters for synthesizing one model's profile.

    overhead is the fixed gap tau_system - tau_model. Only tau_system and c
    get a spread by default; s_cpu and b spreads are optional.
    """

    model_id: str
    tau_system_mean: float
    tau_system_std: float
    c_mean: float
    c_std: float
    s_cpu_mean: float
    b_mean: float
    overhead: float = 0.005
    s_cpu_std: float = 0.0
    b_std: float = 0.0

    def __post_init__(self) -> None:
        _check_scalar(self.model_id, "str", "model_id", ValidationError)
        for f in fields(self):
            value = getattr(self, f.name)
            # Annotations are strings here (from __future__ import annotations).
            if f.type == "float" and not is_finite_number(value):
                raise ValidationError(
                    f"{f.name} must be finite for model {self.model_id!r}, got {value}"
                )
        for attr in ("tau_system_std", "c_std", "s_cpu_std", "b_std"):
            if getattr(self, attr) < 0.0:
                raise ValidationError(f"{attr} must be >= 0 for model {self.model_id!r}")
        if self.overhead < 0.0:
            raise ValidationError(f"overhead must be >= 0 for model {self.model_id!r}")
        if self.tau_system_mean <= self.overhead:
            raise ValidationError(
                f"tau_system_mean must exceed overhead for model {self.model_id!r}"
            )
        if not 0.0 <= self.c_mean <= 1.0:
            raise ValidationError(f"c_mean must be in [0, 1] for model {self.model_id!r}")
        if not 0.0 <= self.s_cpu_mean <= 100.0:
            raise ValidationError(f"s_cpu_mean must be in [0, 100] for model {self.model_id!r}")
        if self.b_mean < 0.0:
            raise ValidationError(f"b_mean must be >= 0 for model {self.model_id!r}")


def is_number(value) -> bool:
    """An int or float, or any value that converts to a float; a bool is not
    one, though bool is an int subclass."""
    try:
        math.isnan(value)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        return False
    return not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A number (see is_number) that is neither infinite nor NaN."""
    return is_number(value) and math.isfinite(value)


def is_integer(value) -> bool:
    """An int that is not a bool, though bool is an int subclass."""
    return isinstance(value, int) and not isinstance(value, bool)


# Declared field type (a string, under `from __future__ import annotations`),
# or the kind of a pair entry, -> (test of a value, what it must be). A
# "segment" entry may be non-finite: WorkloadConfig names it by its index.
# A "bound" is a naive_thresholds rate bound, the last of which is .inf.
SCALAR_TYPES = {
    "int": (is_integer, "an integer"),
    "float": (is_finite_number, "a finite number"),
    "segment": (is_number, "a finite number"),
    "bound": (lambda v: is_finite_number(v) or v == math.inf, "a finite number or .inf"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def _check_scalar(value, declared: str, key: str, error=ConfigError) -> None:
    test, what = SCALAR_TYPES[declared]
    if not test(value):
        raise error(f"{key} must be {what}, got {value!r}")


def check_fields(record, section: str = "", error=ConfigError) -> None:
    """Check each field of a config record whose declared type SCALAR_TYPES
    knows, naming the key section.field (or field, at the top level) as the
    YAML file does. A config record calls it first when it is built, so a
    value gets one check and one message, through YAML or the Python API.
    Tuple fields are left to check_pairs, and record fields to their own
    records."""
    prefix = f"{section}." if section else ""
    for f in fields(record):
        if f.type in SCALAR_TYPES:
            _check_scalar(getattr(record, f.name), f.type, prefix + f.name, error)


def check_pairs(pairs, declared, key: str, names: str, error=ConfigError) -> None:
    """Check a list of two-entry lists, each entry against its declared kind."""
    if not isinstance(pairs, (list, tuple)) or any(
        not isinstance(pair, (list, tuple)) or len(pair) != 2 for pair in pairs
    ):
        raise error(f"{key} must be a list of {names} pairs, got {pairs!r}")
    for pair in pairs:
        for value, kind in zip(pair, declared):
            _check_scalar(value, kind, key, error)


# Five-model synthetic family: system times span 45 ms to 766 ms and
# confidence means 0.50 to 0.75, rising monotonically with model size.
DEFAULT_MODEL_FAMILY = (
    ModelKpiSpec("nano", 0.045, 0.006, 0.50, 0.08, 25.0, 4.0, s_cpu_std=5.0, b_std=1.2),
    ModelKpiSpec("small", 0.120, 0.015, 0.57, 0.08, 40.0, 5.0, s_cpu_std=6.0, b_std=1.2),
    ModelKpiSpec("medium", 0.250, 0.030, 0.63, 0.08, 55.0, 5.0, s_cpu_std=7.0, b_std=1.2),
    ModelKpiSpec("large", 0.450, 0.050, 0.69, 0.08, 70.0, 7.0, s_cpu_std=7.0, b_std=1.2),
    ModelKpiSpec("xlarge", 0.766, 0.080, 0.75, 0.08, 85.0, 8.0, s_cpu_std=8.0, b_std=1.2),
)


@dataclass(frozen=True)
class ProfilesConfig:
    """The experiment's `profiles` section, checked when it is built: the
    profiles are loaded from csv_path if it is set, else image_count images
    per model of models are synthesized."""

    csv_path: str | None = None
    image_count: int = 1000
    models: tuple[ModelKpiSpec, ...] = DEFAULT_MODEL_FAMILY

    def __post_init__(self) -> None:
        check_fields(self, "profiles")
        object.__setattr__(self, "models", tuple(self.models))
        if self.csv_path == "":
            raise ConfigError("profiles.csv_path must name a file, or be null")
        if self.image_count < 1:
            raise ConfigError(f"profiles.image_count must be >= 1, got {self.image_count}")
        if not self.models:
            raise ConfigError("profiles.models needs at least one model")
        ids = [m.model_id for m in self.models]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise ConfigError(f"profiles.models repeats model id(s) {duplicates}")


def generate_profiles(spec: ProfilesConfig, seed: int) -> list[ModelProfile]:
    """Synthesize one profile per model of spec from truncated-normal draws.

    All profiles list the same image ids in one order. Draws are clamped
    rather than rejected (c to [0, 1], times to > 0, s_cpu to [0, 100], b to
    >= 0), so the output is a pure function of the spec and the seed. Each
    profile's columns are the draws themselves; b is each draw rounded to a
    whole number, kept as a float so that no integer cast can wrap.
    """
    image_id = tuple(f"img-{i:05d}" for i in range(spec.image_count))
    children = np.random.SeedSequence(seed).spawn(len(spec.models))
    profiles = []
    for model_spec, child in zip(spec.models, children):
        rng = np.random.default_rng(child)
        n = spec.image_count
        tau_system = rng.normal(model_spec.tau_system_mean, model_spec.tau_system_std, n)
        tau_system = np.maximum(tau_system, model_spec.overhead + _MIN_TAU_MODEL)
        c = np.clip(rng.normal(model_spec.c_mean, model_spec.c_std, n), 0.0, 1.0)
        s_cpu = np.clip(rng.normal(model_spec.s_cpu_mean, model_spec.s_cpu_std, n), 0.0, 100.0)
        b = np.maximum(np.rint(rng.normal(model_spec.b_mean, model_spec.b_std, n)), 0.0)
        profiles.append(
            ModelProfile(
                model_id=model_spec.model_id,
                image_id=image_id,
                c=c,
                tau_model=tau_system - model_spec.overhead,
                tau_system=tau_system,
                s_cpu=s_cpu,
                b=b,
            )
        )
    return profiles


def write_profiles(profiles: list[ModelProfile], path) -> None:
    """Write profiles to CSV with each float as its repr, so loading round-trips."""

    def rows(profile: ModelProfile):
        columns = [profile.column(kpi).tolist() for kpi in KPI_NAMES]
        columns[-1] = map(int, columns[-1])  # b
        return zip(profile.image_id, repeat(profile.model_id), *columns)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, PROFILE_CSV_HEADER, chain.from_iterable(map(rows, profiles)))


def load_profiles(path) -> list[ModelProfile]:
    """Load profiles from CSV, one ModelProfile per distinct model_id.

    csvtext.read_rows checks the text, header, field counts and numbers (b
    whole). ProfileLoadError then names the data row of a broken record
    invariant or a repeated (image, model), or both models and the first
    position where a model does not list the file's first model's images."""
    types = {**dict.fromkeys(KPI_NAMES, float), "b": int}
    by_model: dict[str, list[KpiRecord]] = {}
    first_row: dict[tuple[str, str], int] = {}
    for row_no, row in enumerate(read_rows(path, PROFILE_CSV_HEADER, ProfileLoadError, types), 1):
        try:
            rec = KpiRecord(**row)
        except ValidationError as exc:
            raise ProfileLoadError(f"{path}: row {row_no}: {exc}") from exc
        first = first_row.setdefault((rec.image_id, rec.model_id), row_no)
        if first != row_no:
            raise ProfileLoadError(
                f"{path}: row {row_no}: image {rec.image_id!r} of model "
                f"{rec.model_id!r} repeats row {first}"
            )
        by_model.setdefault(rec.model_id, []).append(rec)
    if not by_model:
        raise ProfileLoadError(f"{path}: no data rows")
    profiles = [ModelProfile.of_records(model_id, recs) for model_id, recs in by_model.items()]
    if mismatch := image_order_mismatch(profiles):
        raise ProfileLoadError(f"{path}: {mismatch}")
    return profiles


def image_order_mismatch(profiles: Sequence[ModelProfile]) -> str | None:
    """Where the first profile whose images differ from the first one's
    departs from them, or None if all share one image order, in which index
    i names the same image in every profile, the join and the drawn row."""
    first = profiles[0]
    for other in profiles[1:]:
        if other.image_id != first.image_id:
            a, b = first.model_id, other.model_id
            listed = zip_longest(map(repr, first.image_id), map(repr, other.image_id))
            i, (x, y) = next((i, pair) for i, pair in enumerate(listed, 1) if pair[0] != pair[1])
            return (
                f"models {a!r} and {b!r} differ at image {i}: {a!r} lists {x or 'no image'}, "
                f"{b!r} lists {y or 'no image'}; every model must list the images of {a!r} "
                "in its order"
            )
    return None
