"""Model KPI profiles: synthetic generation and CSV persistence.

A profile is the per-image KPI dataset of one model, obtained by running the
model over an evaluation image set. Here profiles are either synthesized from
a configurable family (truncated-normal draws around per-model means) or
loaded from CSV. A profile keeps each KPI as one array over its images;
KpiRecord, one image's KPIs, is built only where a CSV row is read and when
a profile's records are read. Downstream, the learning engine clusters the
profiles into adaptation rules and the simulator samples their rows as
service behaviour.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain, repeat

import numpy as np

from .csvtext import write_rows
from .errors import ProfileLoadError, ValidationError

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

    def kpi(self, name: str) -> float:
        """Return one KPI value by its canonical name."""
        return float(getattr(self, name))


@dataclass(frozen=True, eq=False)
class ModelProfile:
    """All KPIs of one model over an image set, stored as columns.

    Row i of every KPI column belongs to image image_id[i]. The columns are
    read-only float arrays; b holds whole counts (see record). Every row
    meets KpiRecord's invariants, checked on whole columns at once: the
    first bad row raises exactly what building its KpiRecord raises.
    """

    model_id: str
    image_id: tuple[str, ...]
    c: np.ndarray
    tau_model: np.ndarray
    tau_system: np.ndarray
    s_cpu: np.ndarray
    b: np.ndarray
    label: str = ""

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
            self.record(int(bad.argmax()))  # raises KpiRecord's error
        if len(set(self.image_id)) != n:
            raise ValidationError(f"profile {self.model_id!r} has duplicate image ids")

    @classmethod
    def of_records(cls, model_id: str, records, label: str = "") -> ModelProfile:
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
        return cls(model_id=model_id, label=label, **columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModelProfile):
            return NotImplemented
        return (self.model_id, self.label, self.image_id) == (
            other.model_id,
            other.label,
            other.image_id,
        ) and all(np.array_equal(self.column(k), other.column(k)) for k in KPI_NAMES)

    def column(self, name: str) -> np.ndarray:
        """One KPI column by its canonical name."""
        return getattr(self, name)

    def image_ids(self) -> frozenset[str]:
        return frozenset(self.image_id)

    def kpi_values(self, name: str) -> list[float]:
        return self.column(name).tolist()

    def record(self, i: int) -> KpiRecord:
        """Row i as a KpiRecord; b becomes the Python int of its float."""
        c, tau_model, tau_system, s_cpu, b = self.kpi_table[i].tolist()
        return KpiRecord(self.image_id[i], self.model_id, c, tau_model, tau_system, s_cpu, int(b))

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
    label: str = ""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # Annotations are strings here (from __future__ import annotations).
            if f.type == "float" and not _is_finite(value):
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


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class ProfileFamilySpec:
    """A family of model KPI specs sharing one image set and RNG seed."""

    models: tuple[ModelKpiSpec, ...]
    image_count: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "models", tuple(self.models))
        if not self.models:
            raise ValidationError("profile family needs at least one model")
        # bool is an int subclass, but not a count.
        if isinstance(self.image_count, bool) or not isinstance(self.image_count, int):
            raise ValidationError(f"image_count must be an integer, got {self.image_count!r}")
        if self.image_count < 1:
            raise ValidationError(f"image_count must be >= 1, got {self.image_count}")
        ids = [m.model_id for m in self.models]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate model ids in profile family")


def generate_profiles(spec: ProfileFamilySpec) -> list[ModelProfile]:
    """Synthesize one profile per model from truncated-normal draws.

    All profiles cover the same image ids. Draws are clamped rather than
    rejected (c to [0, 1], times to > 0, s_cpu to [0, 100], b to >= 0), so the
    output is a pure function of the spec including its seed. Each profile's
    columns are the draws themselves; b is each draw rounded to a whole
    number, kept as a float so that no integer cast can wrap.
    """
    image_id = tuple(f"img-{i:05d}" for i in range(spec.image_count))
    children = np.random.SeedSequence(spec.seed).spawn(len(spec.models))
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
                label=model_spec.label,
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

    Row order within a model is preserved. Any missing column, unparsable
    number, or violated record invariant raises ProfileLoadError naming the
    data row (1-based, excluding the header).
    """
    by_model: dict[str, list[KpiRecord]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [col for col in PROFILE_CSV_HEADER if col not in header]
        if missing:
            raise ProfileLoadError(f"{path}: missing column(s) {', '.join(missing)}")
        for row_no, row in enumerate(reader, start=1):
            try:
                rec = KpiRecord(
                    image_id=row["image_id"],
                    model_id=row["model_id"],
                    c=float(row["c"]),
                    tau_model=float(row["tau_model"]),
                    tau_system=float(row["tau_system"]),
                    s_cpu=float(row["s_cpu"]),
                    b=_parse_count(row["b"]),
                )
            except (TypeError, ValueError) as exc:
                raise ProfileLoadError(f"{path}: row {row_no}: {exc}") from exc
            by_model.setdefault(rec.model_id, []).append(rec)
    if not by_model:
        raise ProfileLoadError(f"{path}: no data rows")
    return [ModelProfile.of_records(model_id, records) for model_id, records in by_model.items()]


def _parse_count(text: str) -> int:
    value = float(text)
    if value != int(value):
        raise ValueError(f"b must be an integer, got {text!r}")
    return int(value)
