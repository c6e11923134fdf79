"""Offline learning engine: clustered KPI profiles and CI adaptation rules.

For each anchor model the pipeline is: pick a cluster count by the elbow rule
on the within-cluster sum of squares, run 1-D k-means on the anchor's
per-image system time, join every model's KPIs per image into a performance
matrix, and compute per-cluster 90% confidence intervals of every KPI of
every model. The resulting CI matrices are the controller's adaptation rules.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable, TypeVar

import numpy as np

from .errors import JoinError, RuleError, ValidationError
from .profiles import KPI_NAMES, ModelProfile

# Two-sided z quantile pinned for the default level; other levels fall back
# to the exact normal quantile.
_Z_BY_LEVEL = {0.90: 1.6449}

_MAX_LLOYD_ITERATIONS = 100

# Below this many samples a CI is the (min, max) envelope, not a normal CI.
MIN_NORMAL_SAMPLES = 5

_T = TypeVar("_T")

CI_CSV_HEADER = ("anchor_model", "cluster", "model", "kpi", "low", "high", "n", "mean")


@dataclass(frozen=True)
class CiEntry:
    """Confidence interval of one KPI: bounds, sample count, and mean."""

    low: float
    high: float
    n: int
    mean: float


@dataclass(frozen=True)
class ClusteredProfile:
    """Cluster assignment of one anchor model's images on tau_system."""

    anchor_model_id: str
    labels: dict[str, int]
    centroids: tuple[float, ...]


@dataclass(frozen=True)
class PerfRow:
    """One image's KPIs under every model, tagged with the anchor's cluster."""

    image_id: str
    label: int
    kpis: dict[str, "KpiRecordLike"]


@dataclass(frozen=True)
class PerfMatrix:
    """Per-image join of all model KPIs, rows sorted by image id."""

    anchor_model_id: str
    model_ids: tuple[str, ...]
    rows: tuple[PerfRow, ...]


@dataclass(frozen=True)
class CiMatrix:
    """Adaptation rules for one anchor: cluster -> model -> KPI -> CiEntry.

    anchor_kpi_std carries the anchor profile's global per-KPI standard
    deviation; the online analyzer needs it to z-normalize cluster matching.
    A matrix is never mutated once built, so facts derived from it can be
    computed once and kept (see derived).
    """

    anchor_model_id: str
    entries: dict[int, dict[str, dict[str, CiEntry]]]
    anchor_kpi_std: dict[str, float] = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def derived(self, build: Callable[["CiMatrix"], _T]) -> _T:
        """build(self), computed on first use and kept for this matrix."""
        try:
            return self._derived[build]
        except KeyError:
            value = self._derived[build] = build(self)
            return value

    def cluster_ids(self) -> list[int]:
        return sorted(self.entries)

    def model_ids(self) -> list[str]:
        first = self.entries[min(self.entries)]
        return sorted(first)

    def entry(self, cluster: int, model_id: str, kpi: str) -> CiEntry:
        try:
            return self.entries[cluster][model_id][kpi]
        except KeyError as exc:
            raise RuleError(
                f"rule matrix of {self.anchor_model_id!r} has no entry "
                f"(cluster={cluster}, model={model_id!r}, kpi={kpi!r})"
            ) from exc


@dataclass(frozen=True)
class LearnedModelRules:
    """Full learning output for one anchor model."""

    clustered: ClusteredProfile
    ci_matrix: CiMatrix
    k: int
    wcss_series: tuple[float, ...]


# The protocol build_performance_matrix actually needs: anything with a
# .kpi(name) accessor, which KpiRecord provides.
KpiRecordLike = object


def kmeans_1d(
    values, k: int, seed: int = 0, restarts: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster 1-D values into k groups by Lloyd's algorithm.

    Runs `restarts` k-means++ initializations from a seeded RNG and keeps the
    lowest-WCSS solution. Because optimal 1-D clusters are contiguous in
    sorted order, each restart's Lloyd fixed point gets a deterministic
    boundary-refinement pass (coordinate descent over the sorted-order cut
    positions) followed by a final Lloyd polish; plain restarted Lloyd's
    occasionally parks in an outlier basin that refinement escapes. Centroids
    come back ascending with labels renumbered to match. Assignment ties go
    to the lowest centroid index; a cluster emptied during iteration is
    reseeded with the point farthest from its current centroid.
    """
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValidationError("kmeans_1d: empty input")
    if k < 1:
        raise ValidationError(f"kmeans_1d: k must be >= 1, got {k}")
    if restarts < 1:
        raise ValidationError(f"kmeans_1d: restarts must be >= 1, got {restarts}")
    distinct = np.unique(x).size
    if k > distinct:
        raise ValidationError(
            f"kmeans_1d: k={k} exceeds the {distinct} distinct value(s)"
        )
    order_idx = np.argsort(x, kind="stable")
    x_sorted = x[order_idx]
    prefix = np.concatenate(([0.0], np.cumsum(x_sorted)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(x_sorted**2)))
    rng = np.random.default_rng(seed)
    best: tuple[float, np.ndarray, np.ndarray] | None = None
    for _ in range(restarts):
        centers = _kmeans_pp_init(x, k, rng)
        labels, centers, wcss = _lloyd(x, centers)
        if k > 1:
            cuts = _cuts_from_labels(x_sorted, centers)
            cuts = _refine_cuts(x_sorted, prefix, prefix_sq, cuts)
            refined_centers = _segment_means(prefix, cuts, x.size)
            labels2, centers2, wcss2 = _lloyd(x, refined_centers)
            if wcss2 < wcss:
                labels, centers, wcss = labels2, centers2, wcss2
        if best is None or wcss < best[0]:
            best = (wcss, labels, centers)
    _, labels, centers = best
    order = np.argsort(centers, kind="stable")
    remap = np.empty(k, dtype=int)
    remap[order] = np.arange(k)
    return remap[labels], centers[order]


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.size
    centers = np.empty(k, dtype=float)
    centers[0] = x[rng.integers(n)]
    d2 = (x - centers[0]) ** 2
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All mass sits on chosen centers; take the lowest-index point
            # with a value not yet used as a center.
            used = set(centers[:j])
            idx = next(i for i in range(n) if x[i] not in used)
        else:
            idx = rng.choice(n, p=d2 / total)
        centers[j] = x[idx]
        d2 = np.minimum(d2, (x - centers[j]) ** 2)
    return centers


def _cuts_from_labels(x_sorted: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Cut positions of the contiguous partition induced by the centers."""
    sorted_centers = np.sort(centers)
    assignment = np.abs(x_sorted[:, None] - sorted_centers[None, :]).argmin(axis=1)
    counts = np.bincount(assignment, minlength=centers.size)
    cuts = np.cumsum(counts)[:-1]
    # Coordinate descent needs every segment non-empty; nudge empty ones.
    n = x_sorted.size
    for i in range(cuts.size):
        lo = 0 if i == 0 else cuts[i - 1]
        cuts[i] = min(max(cuts[i], lo + 1), n - (cuts.size - i))
    return cuts


def _segment_cost(prefix: np.ndarray, prefix_sq: np.ndarray, lo, hi):
    """Within-segment sum of squares of x_sorted[lo:hi], vectorized in lo/hi."""
    total = prefix[hi] - prefix[lo]
    count = hi - lo
    return (prefix_sq[hi] - prefix_sq[lo]) - total * total / count


def _refine_cuts(
    x_sorted: np.ndarray, prefix: np.ndarray, prefix_sq: np.ndarray, cuts: np.ndarray
) -> np.ndarray:
    """Coordinate descent over cut positions until no single cut can improve."""
    n = x_sorted.size
    cuts = cuts.copy()
    for _ in range(_MAX_LLOYD_ITERATIONS):
        changed = False
        for b in range(cuts.size):
            lo = 0 if b == 0 else cuts[b - 1]
            hi = n if b == cuts.size - 1 else cuts[b + 1]
            candidates = np.arange(lo + 1, hi)
            costs = _segment_cost(prefix, prefix_sq, lo, candidates) + _segment_cost(
                prefix, prefix_sq, candidates, hi
            )
            best = candidates[costs.argmin()]
            if best != cuts[b]:
                cuts[b] = best
                changed = True
        if not changed:
            break
    return cuts


def _segment_means(prefix: np.ndarray, cuts: np.ndarray, n: int) -> np.ndarray:
    bounds = np.concatenate(([0], cuts, [n]))
    sums = prefix[bounds[1:]] - prefix[bounds[:-1]]
    return sums / (bounds[1:] - bounds[:-1])


def _lloyd(x: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    k = centers.size
    labels = np.zeros(x.size, dtype=int)
    for _ in range(_MAX_LLOYD_ITERATIONS):
        dists = np.abs(x[:, None] - centers[None, :])
        labels = dists.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            members = x[labels == j]
            if members.size:
                new_centers[j] = members.mean()
            else:
                own = np.abs(x - centers[labels])
                new_centers[j] = x[own.argmax()]
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    wcss = float(((x - centers[labels]) ** 2).sum())
    return labels, centers, wcss


def wcss_series(values, k_max: int, seed: int = 0, restarts: int = 10) -> list[float]:
    """Best-of-restarts WCSS for k = 1..k_max.

    For k beyond the distinct-value count the optimum is exactly 0 (one
    centroid per distinct value), so no clustering run is needed there.
    """
    x = list(values)
    distinct = np.unique(np.asarray(x, dtype=float)).size
    series = []
    for k in range(1, k_max + 1):
        if k > distinct:
            series.append(0.0)
        else:
            labels, centers = kmeans_1d(x, k, seed=seed, restarts=restarts)
            arr = np.asarray(x, dtype=float)
            series.append(float(((arr - centers[labels]) ** 2).sum()))
    return series


def elbow_from_wcss(series) -> int:
    """Pick the elbow of a WCSS-vs-k series (k starting at 1).

    Both axes are min-max normalized; the winner is the k >= 2 with maximal
    perpendicular distance to the chord joining the first and last points,
    ties going to the smallest k.
    """
    w = [float(v) for v in series]
    if len(w) < 2:
        raise ValidationError("elbow_from_wcss: need WCSS for at least k=1..2")
    k_max = len(w)
    xs = [(k - 1) / (k_max - 1) for k in range(1, k_max + 1)]
    w_min, w_max = min(w), max(w)
    if w_max > w_min:
        ys = [(v - w_min) / (w_max - w_min) for v in w]
    else:
        ys = [0.0] * k_max
    a, b = ys[0], ys[-1]
    scale = math.sqrt((b - a) ** 2 + 1.0)
    best_k, best_dist = 2, -1.0
    for k in range(2, k_max + 1):
        dist = abs((b - a) * xs[k - 1] - (ys[k - 1] - a)) / scale
        if dist > best_dist:
            best_k, best_dist = k, dist
    return best_k


def select_k_elbow(values, k_max: int, seed: int = 0, restarts: int = 10) -> int:
    """Choose the cluster count for 1-D values by the elbow rule."""
    x = list(values)
    if k_max < 2:
        raise ValidationError(f"select_k_elbow: k_max must be >= 2, got {k_max}")
    if len(x) < k_max:
        raise ValidationError(
            f"select_k_elbow: need at least k_max={k_max} values, got {len(x)}"
        )
    return elbow_from_wcss(wcss_series(x, k_max, seed=seed, restarts=restarts))


def compute_ci(samples, level: float = 0.90, method: str = "normal") -> CiEntry:
    """Confidence interval of the sample mean.

    The default is the normal approximation mean +/- z * sd / sqrt(n) with the
    sample standard deviation (n-1 denominator). Fewer than 5 samples fall
    back to the (min, max) envelope; a single sample yields a zero-width
    interval. method="percentile" uses empirical quantiles instead.
    """
    data = [float(v) for v in samples]
    n = len(data)
    if n == 0:
        raise ValidationError("compute_ci: empty samples")
    mean = statistics.fmean(data)
    if n == 1:
        return CiEntry(data[0], data[0], 1, data[0])
    if n < MIN_NORMAL_SAMPLES:
        return CiEntry(min(data), max(data), n, mean)
    if method == "percentile":
        lo_q, hi_q = (1.0 - level) / 2.0, (1.0 + level) / 2.0
        low, high = np.quantile(np.asarray(data), [lo_q, hi_q])
        # Heavy skew can push the mean outside the quantile envelope; widen
        # so every entry keeps low <= mean <= high.
        return CiEntry(min(float(low), mean), max(float(high), mean), n, mean)
    if method != "normal":
        raise ValidationError(f"compute_ci: unknown method {method!r}")
    return normal_ci(mean, statistics.stdev(data), n, level)


def normal_ci(mean: float, sd: float, n: int, level: float = 0.90) -> CiEntry:
    """Normal-approximation CI mean +/- z * sd / sqrt(n) from summary stats."""
    half = _z_quantile(level) * sd / math.sqrt(n)
    return CiEntry(mean - half, mean + half, n, mean)


def _z_quantile(level: float) -> float:
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    z = _Z_BY_LEVEL.get(level)
    if z is None:
        z = statistics.NormalDist().inv_cdf((1.0 + level) / 2.0)
    return z


def build_performance_matrix(
    anchor: str, profiles, clustered: ClusteredProfile
) -> PerfMatrix:
    """Join every model's KPI record per image, tagged with the anchor label.

    All profiles must cover the identical image set and the clustering must
    label each of those images; rows come back sorted by image id so the
    result is independent of profile row order.
    """
    indexed = {p.model_id: {rec.image_id: rec for rec in p.records} for p in profiles}
    if anchor not in indexed:
        raise JoinError(f"anchor model {anchor!r} not among the profiles")
    common = indexed[anchor].keys()
    for model_id, records in indexed.items():
        for image_id in common - records.keys():
            raise JoinError(f"image {image_id!r} missing from profile {model_id!r}")
        for image_id in records.keys() - common:
            raise JoinError(f"image {image_id!r} missing from profile {anchor!r}")
    unlabeled = common - clustered.labels.keys()
    if unlabeled:
        raise JoinError(f"image {sorted(unlabeled)[0]!r} has no cluster label")
    model_ids = tuple(sorted(indexed))
    rows = tuple(
        PerfRow(
            image_id=image_id,
            label=clustered.labels[image_id],
            kpis={model_id: indexed[model_id][image_id] for model_id in model_ids},
        )
        for image_id in sorted(common)
    )
    return PerfMatrix(anchor_model_id=anchor, model_ids=model_ids, rows=rows)


def build_ci_matrix(
    anchor: str, perf: PerfMatrix, level: float = 0.90, method: str = "normal"
) -> CiMatrix:
    """Compute per-cluster CIs of every KPI of every model.

    Entry (l, q, kpi) is computed over exactly the rows labeled l by the
    anchor's clustering; its n is therefore the anchor-cluster population.
    """
    by_cluster: dict[int, list[PerfRow]] = {}
    for row in perf.rows:
        by_cluster.setdefault(row.label, []).append(row)
    entries: dict[int, dict[str, dict[str, CiEntry]]] = {}
    for cluster in sorted(by_cluster):
        rows = by_cluster[cluster]
        per_model: dict[str, dict[str, CiEntry]] = {}
        for model_id in perf.model_ids:
            per_model[model_id] = {
                kpi: compute_ci([row.kpis[model_id].kpi(kpi) for row in rows], level, method)
                for kpi in KPI_NAMES
            }
        entries[cluster] = per_model
    anchor_kpi_std = _global_kpi_std(
        {kpi: [row.kpis[anchor].kpi(kpi) for row in perf.rows] for kpi in KPI_NAMES}
    )
    return CiMatrix(anchor_model_id=anchor, entries=entries, anchor_kpi_std=anchor_kpi_std)


def _global_kpi_std(columns: dict[str, list[float]]) -> dict[str, float]:
    return {
        kpi: (statistics.stdev(vals) if len(vals) > 1 else 0.0)
        for kpi, vals in columns.items()
    }


def anchor_stats_from_profile(profile: ModelProfile) -> dict[str, float]:
    """Global per-KPI standard deviation of a profile (for loaded matrices)."""
    return _global_kpi_std({kpi: profile.kpi_values(kpi) for kpi in KPI_NAMES})


def attach_anchor_stats(matrix: CiMatrix, profile: ModelProfile) -> CiMatrix:
    if profile.model_id != matrix.anchor_model_id:
        raise RuleError(
            f"profile {profile.model_id!r} does not match anchor {matrix.anchor_model_id!r}"
        )
    return replace(matrix, anchor_kpi_std=anchor_stats_from_profile(profile))


def run_learning_engine(
    profiles,
    k_max: int = 6,
    seed: int = 0,
    restarts: int = 10,
    level: float = 0.90,
    method: str = "normal",
) -> dict[str, LearnedModelRules]:
    """Run the full pipeline for every model as anchor.

    Per anchor: elbow-select k on its tau_system column, cluster, join the
    performance matrix, and compute the CI matrix. Anchor sub-seeds are
    derived from the model id, so the output is independent of profile order.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("run_learning_engine: no profiles")
    rules: dict[str, LearnedModelRules] = {}
    for profile in profiles:
        anchor = profile.model_id
        anchor_seed = _mix_seed(seed, anchor)
        values = profile.kpi_values("tau_system")
        distinct = np.unique(np.asarray(values)).size
        k_cap = min(k_max, len(values))
        if k_cap >= 2:
            series = tuple(wcss_series(values, k_cap, seed=anchor_seed, restarts=restarts))
            k = elbow_from_wcss(series)
        else:
            k, series = 1, tuple(wcss_series(values, 1, seed=anchor_seed, restarts=restarts))
        # The elbow can nominate more clusters than there are distinct values
        # (degenerate data); clustering itself needs k <= distinct.
        k_eff = min(k, distinct)
        labels, centroids = kmeans_1d(values, k_eff, seed=anchor_seed, restarts=restarts)
        clustered = ClusteredProfile(
            anchor_model_id=anchor,
            labels={rec.image_id: int(lab) for rec, lab in zip(profile.records, labels)},
            centroids=tuple(float(c) for c in centroids),
        )
        perf = build_performance_matrix(anchor, profiles, clustered)
        ci_matrix = build_ci_matrix(anchor, perf, level=level, method=method)
        rules[anchor] = LearnedModelRules(
            clustered=clustered, ci_matrix=ci_matrix, k=k, wcss_series=series
        )
    return rules


def _mix_seed(seed: int, token: str) -> int:
    digest = hashlib.blake2s(f"{seed}:{token}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def write_ci_matrix(matrix: CiMatrix, path) -> None:
    """Export a CI matrix as CSV rows anchor_model,cluster,model,kpi,low,high,n,mean."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CI_CSV_HEADER)
        for cluster in matrix.cluster_ids():
            for model_id in sorted(matrix.entries[cluster]):
                per_kpi = matrix.entries[cluster][model_id]
                for kpi in KPI_NAMES:
                    entry = per_kpi[kpi]
                    writer.writerow(
                        [
                            matrix.anchor_model_id,
                            cluster,
                            model_id,
                            kpi,
                            repr(entry.low),
                            repr(entry.high),
                            entry.n,
                            repr(entry.mean),
                        ]
                    )


def read_ci_matrix(path) -> CiMatrix:
    """Load a CI matrix CSV written by write_ci_matrix.

    The anchor's global KPI stats are not part of the export; attach them via
    attach_anchor_stats before online cluster matching.
    """
    entries: dict[int, dict[str, dict[str, CiEntry]]] = {}
    anchor = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [col for col in CI_CSV_HEADER if col not in header]
        if missing:
            raise RuleError(f"{path}: missing column(s) {', '.join(missing)}")
        for row_no, row in enumerate(reader, start=1):
            try:
                cluster = int(row["cluster"])
                entry = CiEntry(
                    low=float(row["low"]),
                    high=float(row["high"]),
                    n=int(row["n"]),
                    mean=float(row["mean"]),
                )
            except (TypeError, ValueError) as exc:
                raise RuleError(f"{path}: row {row_no}: {exc}") from exc
            if anchor is None:
                anchor = row["anchor_model"]
            elif row["anchor_model"] != anchor:
                raise RuleError(f"{path}: row {row_no}: mixed anchor models")
            entries.setdefault(cluster, {}).setdefault(row["model"], {})[row["kpi"]] = entry
    if anchor is None:
        raise RuleError(f"{path}: no data rows")
    return CiMatrix(anchor_model_id=anchor, entries=entries)
