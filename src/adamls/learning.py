"""Offline learning engine: clustered KPI profiles and CI adaptation rules.

The profiles' KPI columns are first stacked in their shared image order into
one performance matrix, once per learn. One pass of exact 1-D k-means then
clusters every anchor model's per-image system time, all anchors in
lockstep. Then, for each anchor: pick a cluster count by the elbow rule on
the within-cluster sum of squares, take that count's partition, and compute
per-cluster 90% confidence intervals of every KPI of every model from the
matrix. The resulting CI matrices are the controller's adaptation rules.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, TypeVar

import numpy as np

from .csvtext import read_rows, write_rows
from .errors import JoinError, RuleError, ValidationError
from .profiles import KPI_NAMES, ModelProfile, image_order_mismatch

# Defaults of the experiment's `learning` section. The two-sided z quantile
# is pinned for the default level; other levels fall back to the exact
# normal quantile.
DEFAULT_K_MAX = 6
DEFAULT_CI_LEVEL = 0.90
_Z_BY_LEVEL = {DEFAULT_CI_LEVEL: 1.6449}

# Below this many samples a CI is the (min, max) envelope, not a normal CI.
MIN_NORMAL_SAMPLES = 5

_T = TypeVar("_T")

CI_CSV_HEADER = ("anchor_model", "cluster", "model", "kpi", "low", "high", "n", "mean")
_CI_CSV_TYPES = {"cluster": int, "low": float, "high": float, "n": int, "mean": float}


class CiEntry(NamedTuple):
    """Confidence interval of one KPI: bounds, sample count, and mean."""

    low: float
    high: float
    n: int
    mean: float


@dataclass(frozen=True, eq=False)
class PerfMatrix:
    """Every model's KPIs per image, joined once: values[model, kpi, image].

    The axes follow model_ids (sorted), KPI_NAMES and image_ids, the
    profiles' shared order, so image i is every model's drawn row i. Each
    column's exact form (see _ExactColumn) is built once for every anchor.
    """

    model_ids: tuple[str, ...]
    image_ids: tuple[str, ...]
    values: np.ndarray
    _exact: dict = field(default_factory=dict, init=False, repr=False)

    def exact(self, m: int, q: int) -> _ExactColumn:
        """Column values[m, q] in exact form, built on first use and kept."""
        column = self._exact.get((m, q))
        if column is None:
            column = self._exact[m, q] = _exact_column(self.values[m, q])
        return column


@dataclass(frozen=True)
class CiMatrix:
    """Adaptation rules for one anchor: cluster -> model -> KPI -> CiEntry.

    anchor_kpi_std carries the anchor profile's global per-KPI standard
    deviation; the online analyzer needs it to z-normalize cluster matching.
    A matrix is checked once, when it is built, whether it was learned or
    loaded: it has at least one cluster; every cluster holds the same models,
    the anchor included, each with every KPI and no other; and every entry
    has finite low, high and mean, low <= high and n >= 1. low <= mean <=
    high is not required: the (min, max) envelope of equal values can put
    their fmean one ulp outside. A matrix is never mutated once built, so
    facts derived from it can be computed once and kept (see derived).
    """

    anchor_model_id: str
    entries: dict[int, dict[str, dict[str, CiEntry]]]
    anchor_kpi_std: dict[str, float] = field(default_factory=dict)
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        anchor = self.anchor_model_id
        if not self.entries:
            raise RuleError(f"rule matrix of {anchor!r} has no clusters")
        models = sorted({anchor}.union(*self.entries.values()))
        for cluster in sorted(self.entries):
            for model_id in models:
                per_kpi = self.entries[cluster].get(model_id, {})
                for kpi in (*KPI_NAMES, *sorted(per_kpi.keys() - set(KPI_NAMES))):
                    entry = per_kpi.get(kpi)
                    if kpi not in KPI_NAMES:
                        problem = f"names no KPI; the KPIs are {', '.join(KPI_NAMES)}"
                    elif entry is None:
                        problem = "is missing"
                    elif not all(map(math.isfinite, (entry.low, entry.high, entry.mean))):
                        problem = "has a non-finite low, high or mean"
                    elif entry.low > entry.high:
                        problem = f"has low {entry.low!r} > high {entry.high!r}"
                    elif entry.n < 1:
                        problem = f"has n {entry.n}; n must be >= 1"
                    else:
                        continue
                    raise RuleError(
                        f"rule matrix of {anchor!r}: entry (cluster={cluster}, "
                        f"model={model_id!r}, kpi={kpi!r}) {problem}"
                    )

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
    """What learn writes for one anchor model: its CI matrix (the rule file),
    the elbow's k and the WCSS series for k = 1..k_max (the clustering
    report)."""

    ci_matrix: CiMatrix
    k: int
    wcss_series: tuple[float, ...]


class _Partitions(NamedTuple):
    """One column's pass of the exact DP: the values as an array and, per
    k, each value's cluster label (partitions[k - 1])."""

    x: np.ndarray
    partitions: list[np.ndarray]


class _ColumnError(ValidationError):
    """A column _optimal_1d cannot cluster; column is its index."""

    def __init__(self, column: int, message: str):
        super().__init__(message)
        self.column = column


# Values of magnitude at most _SQUARE_LIMIT / n keep every sum of the DP on
# n values finite: centred, |u| <= 2 * limit, so the prefix sums of w*u and
# w*u*u, and a segment's sum squared, stay within (2 * n * limit)**2, a
# quarter of the largest float.
_SQUARE_LIMIT = math.sqrt(sys.float_info.max) / 4


def kmeans_1d(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal 1-D k-means: labels and ascending centroids of k clusters.

    The partition is the exact minimum of the within-cluster sum of squares
    (see _optimal_1d); every copy of a value gets the same label, and labels
    are numbered in ascending centroid order. Each centroid is the mean of
    its members. values may also be one column's _Partitions from an earlier
    _optimal_1d call with at least k layers, which is then not run again;
    raw values are one column of a call of their own.
    """
    if k < 1:
        raise ValidationError(f"kmeans_1d: k must be >= 1, got {k}")
    x, partitions = _dp_pass(values, k)
    if k > len(partitions):
        raise ValidationError(
            f"kmeans_1d: k={k} exceeds the {len(partitions)} distinct value(s)"
        )
    labels = partitions[k - 1]
    return labels, _member_means(x, labels, k)


def wcss_series(values, k_max: int) -> list[float]:
    """Optimal WCSS for k = 1..k_max, from one pass of the exact DP.

    For k beyond the distinct-value count the optimum is exactly 0 (one
    centroid per distinct value). values may also be one column's
    _Partitions from an earlier _optimal_1d call with k_max layers, which is
    then not run again; raw values are one column of a call of their own.
    """
    if k_max < 1:
        raise ValidationError(f"wcss_series: k_max must be >= 1, got {k_max}")
    x, partitions = _dp_pass(values, k_max)
    series = []
    for k, labels in enumerate(partitions, start=1):
        centroids = _member_means(x, labels, k)
        series.append(float(((x - centroids[labels]) ** 2).sum()))
    return series + [0.0] * (k_max - len(partitions))


def _member_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    return np.array([x[labels == j].mean() for j in range(k)])


def _dp_pass(values, k_max: int) -> _Partitions:
    return values if isinstance(values, _Partitions) else _optimal_1d([values], k_max)[0]


def _optimal_1d(columns, k_max: int) -> list[_Partitions]:
    """Exact 1-D k-means partitions of each of an iterable of value columns,
    for k = 1..min(k_max, the column's distinct values).

    Returns, per column, its values as an array and, per k, each value's
    cluster label. Optimal 1-D clusters are contiguous in sorted order, so
    the DP runs over cut points of the sorted distinct values, each weighted
    by its count (Wang & Song 2011, Ckmeans.1d.dp). Segment costs come in
    O(1) from prefix sums of w, w*u and w*u^2 of the mean-centred values.
    The optimal cut is monotone in the segment end, so each k is one
    divide-and-conquer layer, with every midpoint of a recursion level
    evaluated at once. Ties go to the smallest cut.

    Each column keeps its own distinct values, weights, centring and prefix
    sums, laid end to end so that one index space serves all columns; a
    range never spans two. Every level runs the pending ranges of all
    columns in one set of array operations, and a column drops out of the
    layers beyond its distinct-value count. A column's partitions are
    exactly those of a call on that column alone. Over all columns' n
    values: time O(k n log n), memory O(k n).
    """
    xs, inverses, sizes, sums = [], [], [], ([], [], [])
    for c, values in enumerate(columns):
        x = np.asarray(list(values), dtype=float)
        if x.size == 0:
            raise _ColumnError(c, "1-D k-means: empty input")
        if not np.isfinite(x).all():
            raise _ColumnError(c, "1-D k-means: non-finite input")
        largest, limit = np.abs(x).max(), _SQUARE_LIMIT / x.size
        if largest > limit:
            raise _ColumnError(
                c,
                f"1-D k-means: a value of magnitude {largest:.6g} is too large; "
                f"the sums of squares of {x.size} value(s) stay finite only up to {limit:.6g}",
            )
        u, inverse, w = np.unique(x, return_inverse=True, return_counts=True)
        u = u - np.dot(w, u) / x.size
        for prefix, t in zip(sums, (w, w * u, w * u * u)):
            prefix += [[0.0], np.cumsum(t)]
        xs.append(x)
        inverses.append(inverse)
        sizes.append(u.size)
    s0, s1, s2 = map(np.concatenate, sums)
    # Column c's prefix sums are [begin[c], end[c]]; m[c] distinct values.
    m = np.array(sizes)
    end = np.cumsum(m + 1) - 1
    begin = end - m

    def cost(i, j, count):
        """s2[j] - s2[i] - seg * seg / (s0[j] - s0[i]), seg = s1[j] - s1[i],
        computed in place, for each end j repeated count times."""
        seg = np.repeat(s1[j], count)
        seg -= s1.take(i)
        seg *= seg
        den = np.repeat(s0[j], count)
        den -= s0.take(i)
        seg /= den
        out = np.repeat(s2[j], count)
        out -= s2.take(i)
        out -= seg
        return np.maximum(out, 0.0, out=out)

    best = np.full(s0.size, np.inf)
    ends = np.delete(np.arange(s0.size), begin)
    best[ends] = cost(np.repeat(begin, m), ends, 1)
    cuts = []  # cuts[k - 2][j]: start of the last of k segments ending at j
    for k in range(2, min(k_max, int(m.max())) + 1):
        layer, cut = np.full(s0.size, np.inf), np.zeros(s0.size, dtype=np.intp)
        # Pending ranges of segment ends [lo, hi] whose optimal cut lies in
        # [c_lo, c_hi]; one pass of the loop is one level of the recursion.
        active = m >= k
        lo, hi = begin[active] + k, end[active]
        c_lo, c_hi = lo - 1, hi - 1
        while lo.size:
            mid = (lo + hi) // 2
            count = np.minimum(c_hi, mid - 1) - c_lo + 1
            first = np.cumsum(count) - count
            i = np.arange(first[-1] + count[-1]) + np.repeat(c_lo - first, count)
            total = cost(i, mid, count)
            total += best.take(i)
            minimum = np.minimum.reduceat(total, first)
            hits = np.flatnonzero(total == np.repeat(minimum, count))
            # Every range has a hit, so its first is the first at or after
            # the range's start.
            arg = i[hits[np.searchsorted(hits, first)]]
            layer[mid], cut[mid] = minimum, arg
            left, right = lo < mid, mid < hi
            lo, hi, c_lo, c_hi = (
                np.concatenate((lo[left], mid[right] + 1)),
                np.concatenate((mid[left] - 1, hi[right])),
                np.concatenate((c_lo[left], arg[right])),
                np.concatenate((arg[left], c_hi[right])),
            )
        best = layer
        cuts.append(cut)
    passes = []
    for x, inverse, b, e in zip(xs, inverses, begin.tolist(), end.tolist()):
        partitions = []
        for k in range(1, min(k_max, e - b) + 1):
            distinct_labels = np.empty(e - b, dtype=np.intp)
            stop = e
            for label in range(k - 1, 0, -1):
                start = int(cuts[label - 1][stop])
                distinct_labels[start - b : stop - b] = label
                stop = start
            distinct_labels[: stop - b] = 0
            partitions.append(distinct_labels[inverse])
        passes.append(_Partitions(x, partitions))
    return passes


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


def compute_ci(samples, level: float = DEFAULT_CI_LEVEL) -> CiEntry:
    """Confidence interval of the sample mean.

    The normal approximation mean +/- z * sd / sqrt(n) with the sample
    standard deviation (n-1 denominator), correctly rounded from exact
    integer moments. Fewer than 5 samples fall back to the (min, max)
    envelope; a single sample yields a zero-width interval.
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
    return normal_ci(mean, _exact_column(data).moments().stdev(n), n, level)


def normal_ci(mean: float, sd: float, n: int, level: float = DEFAULT_CI_LEVEL) -> CiEntry:
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


def build_performance_matrix(profiles) -> PerfMatrix:
    """Stack every model's KPI columns in the profiles' shared image order.

    Every profile must list the same images in the same order, as
    load_profiles and generate_profiles ensure; otherwise JoinError names
    where a profile first departs from the one with the smallest model id.
    """
    profiles = sorted(profiles, key=lambda p: p.model_id)
    if not profiles:
        raise JoinError("no profiles to join")
    if mismatch := image_order_mismatch(profiles):
        raise JoinError(mismatch)
    model_ids = tuple(p.model_id for p in profiles)
    values = np.stack([[p.column(kpi) for kpi in KPI_NAMES] for p in profiles])
    return PerfMatrix(model_ids=model_ids, image_ids=profiles[0].image_id, values=values)


def build_ci_matrix(
    perf: PerfMatrix, anchor: str, labels, level: float = DEFAULT_CI_LEVEL
) -> CiMatrix:
    """Compute per-cluster CIs of every KPI of every model.

    labels holds the anchor's cluster label of each image of the join, in
    the join's order. Entry (l, q, kpi) is compute_ci over exactly the
    images labelled l; its n is therefore the anchor-cluster population.
    The images are grouped by label once, and each (model, KPI) column's
    cluster sums come from one pass over its exact integer form, which the
    matrix keeps for every anchor (PerfMatrix.exact).
    """
    if anchor not in perf.model_ids:
        raise JoinError(f"anchor model {anchor!r} not among the profiles")
    labels, n = np.asarray(labels), len(perf.image_ids)
    if labels.shape != (n,):
        raise JoinError(f"{labels.size} cluster label(s) of {anchor!r} for the join's {n} images")
    order = np.argsort(labels, kind="stable")
    clusters, starts, counts = np.unique(labels[order], return_index=True, return_counts=True)
    runs = list(zip(starts.tolist(), counts.tolist()))
    entries = {int(cluster): {model_id: {} for model_id in perf.model_ids} for cluster in clusters}
    for m, model_id in enumerate(perf.model_ids):
        for q, kpi in enumerate(KPI_NAMES):
            column = perf.values[m, q, order]
            cis = _cluster_cis(column, perf.exact(m, q), order, starts, runs, level)
            for cluster, entry in zip(entries, cis):
                entries[cluster][model_id][kpi] = entry
    a = perf.model_ids.index(anchor)
    anchor_kpi_std = {kpi: _global_std(perf.exact(a, q), n) for q, kpi in enumerate(KPI_NAMES)}
    return CiMatrix(anchor_model_id=anchor, entries=entries, anchor_kpi_std=anchor_kpi_std)


def _cluster_cis(column, exact: _ExactColumn, order, starts, runs, level: float) -> list[CiEntry]:
    """Normal compute_ci of each run (start, count) of column, the values
    of exact taken in order; the runs lie back to back from start 0."""
    cis = []
    for (s, n), moments in zip(runs, exact.run_moments(order, starts)):
        if n < MIN_NORMAL_SAMPLES:
            cis.append(compute_ci(column[s : s + n].tolist(), level))
        else:
            cis.append(normal_ci(moments.mean(n), moments.stdev(n), n, level))
    return cis


def _global_std(exact: _ExactColumn, n: int) -> float:
    """Sample standard deviation of a whole column of n values (0 if n is 1)."""
    return exact.moments().stdev(n) if n > 1 else 0.0


# Bits of the integer square root before the final rounding to a float.
_SQRT_BITS = 2 * 53 + 3


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den), correctly rounded, for integers num >= 0, den > 0.

    The integer root carries _SQRT_BITS bits and is rounded to odd, so the
    one rounding to a float is correct, as in the statistics module's stdev.
    """
    q = (num.bit_length() - den.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        return float(_isqrt_to_odd(num, den << 2 * q) << q)
    return _isqrt_to_odd(num << -2 * q, den) / (1 << -q)


def _isqrt_to_odd(num: int, den: int) -> int:
    root = math.isqrt(num // den)
    return root | (root * root * den != num)


class _ExactMoments:
    """Exact sums of x and x*x over a multiset of finite floats.

    Every finite float is num / 2**k for integers num and k <= 1074, so the
    sums are exact integers in units of 2**-shift. add and slide keep shift
    at the largest k seen so far; a larger k rescales the sums first.
    """

    __slots__ = ("shift", "total", "total_sq")

    def __init__(self, shift: int = 0, total: int = 0, total_sq: int = 0):
        self.shift = shift
        self.total = total
        self.total_sq = total_sq

    def _units(self, x: float) -> int:
        num, den = x.as_integer_ratio()
        k = den.bit_length() - 1
        if k > self.shift:
            grow = k - self.shift
            self.total <<= grow
            self.total_sq <<= 2 * grow
            self.shift = k
        return num << (self.shift - k)

    def add(self, x: float) -> None:
        u = self._units(x)
        self.total += u
        self.total_sq += u * u

    def slide(self, x: float, old: float) -> None:
        """add(x) and take out old, an earlier added value, in one call.

        old's k is at most shift, so only x can rescale the sums, and old's
        units are taken at the shift x leaves.
        """
        u = self._units(x)
        num, den = old.as_integer_ratio()
        o = num << (self.shift - den.bit_length() + 1)
        self.total += u - o
        self.total_sq += u * u - o * o

    def mean(self, n: int) -> float:
        """The correctly rounded sum divided by n, as statistics.fmean gives."""
        return self.total / (1 << self.shift) / n

    def stdev(self, n: int) -> float:
        """The correctly rounded root of the exact sample variance (n - 1)."""
        return _sqrt_of_ratio(
            n * self.total_sq - self.total * self.total, n * (n - 1) << 2 * self.shift
        )


class _ExactColumn(NamedTuple):
    """A float column as exact integers u, each split into int64 digits.

    u = sum(digits[k] << bits * k) over k, in units of 2**-shift; every
    digit is below 2**bits in magnitude and carries the sign of u. bits is
    chosen so that a sum of n digits, or of n products of two digits,
    cannot overflow an int64, so moments come from plain int64 sums.
    """

    digits: np.ndarray  # [k, row]
    shift: int
    bits: int

    def run_moments(self, order, starts) -> list[_ExactMoments]:
        """Exact moments of each run of the rows taken in order; the runs
        begin at starts and each ends where the next begins."""
        digits = self.digits[:, order]
        sums = np.add.reduceat(digits, starts, axis=1).tolist()
        # products[j][i]: sums of digits[j] * digits[j + i] per run.
        products = [
            np.add.reduceat(digits[j] * digits[j:], starts, axis=1).tolist()
            for j in range(len(digits))
        ]
        moments = []
        for run in range(len(starts)):
            total = sum(row[run] << self.bits * k for k, row in enumerate(sums))
            total_sq = sum(
                (row[run] << self.bits * (2 * j + i)) * (2 if i else 1)
                for j, rows in enumerate(products)
                for i, row in enumerate(rows)
            )
            moments.append(_ExactMoments(self.shift, total, total_sq))
        return moments

    def moments(self) -> _ExactMoments:
        """The exact moments of the whole column."""
        return self.run_moments(slice(None), [0])[0]


def _exact_column(column) -> _ExactColumn:
    """Split a float column into exact int64 digits (see _ExactColumn).

    np.frexp turns each value into m * 2**e with an integer |m| < 2**53;
    shift is the largest -e, so u = m << (e + shift) is an integer, and no
    bit is lost. Digit k of |u| is read off m with shifts and a mask.
    """
    x = np.asarray(column, dtype=float)
    mantissa, exponent = np.frexp(x)
    m = (mantissa * 2.0**53).astype(np.int64)
    exponent = exponent - 53
    shift = max(0, -int(exponent.min()))
    position = exponent + shift  # of m's lowest bit in u
    bits = (62 - x.size.bit_length()) // 2
    count = -(-(53 + int(position.max())) // bits)
    magnitude, sign, mask = np.abs(m), np.sign(m), (1 << bits) - 1
    digits = np.empty((count, x.size), dtype=np.int64)
    for k in range(count):
        # Digit k holds bits [bits * k, bits * (k + 1)) of |u|.
        offset = position - bits * k
        up, down = np.clip(offset, 0, bits), np.clip(-offset, 0, 63)
        digits[k] = sign * (((magnitude >> down) & (mask >> up)) << up)
    return _ExactColumn(digits, shift, bits)


def anchor_stats_from_profile(profile: ModelProfile) -> dict[str, float]:
    """Global per-KPI standard deviation of a profile (for loaded matrices)."""
    n = len(profile.image_id)
    return {kpi: _global_std(_exact_column(profile.column(kpi)), n) for kpi in KPI_NAMES}


def attach_anchor_stats(matrix: CiMatrix, profile: ModelProfile) -> CiMatrix:
    if profile.model_id != matrix.anchor_model_id:
        raise RuleError(
            f"profile {profile.model_id!r} does not match anchor {matrix.anchor_model_id!r}"
        )
    return replace(matrix, anchor_kpi_std=anchor_stats_from_profile(profile))


def run_learning_engine(
    profiles, k_max: int = DEFAULT_K_MAX, level: float = DEFAULT_CI_LEVEL
) -> dict[str, LearnedModelRules]:
    """Run the full pipeline for every model as anchor.

    The profiles are joined into one performance matrix first. One call of
    the exact DP then clusters every anchor's tau_system row of the join in
    lockstep, and each anchor's pass serves both its WCSS series and its
    clustering: elbow-select k, take that k's partition, and compute the CI
    matrix from the join. Layer k of the DP does not depend on how many
    layers run, nor on the other rows, so the partition is the one kmeans_1d
    finds for the anchor's row and k alone. Every step is deterministic, so
    the output is independent of profile order.
    """
    if k_max < 1:
        raise ValidationError(f"run_learning_engine: k_max must be >= 1, got {k_max}")
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("run_learning_engine: no profiles")
    perf = build_performance_matrix(profiles)
    tau = perf.values[:, KPI_NAMES.index("tau_system")]
    k_cap = min(k_max, len(perf.image_ids))
    try:
        # One row's list at a time: the DP keeps each column as an array.
        passes = _optimal_1d((row.tolist() for row in tau), k_cap)
    except _ColumnError as exc:
        raise ValidationError(f"anchor model {perf.model_ids[exc.column]!r}: {exc}") from None
    rules: dict[str, LearnedModelRules] = {}
    for anchor, dp in zip(perf.model_ids, passes):
        series = tuple(wcss_series(dp, k_cap))
        k = elbow_from_wcss(series) if k_cap >= 2 else 1
        # The elbow can nominate more clusters than there are distinct values
        # (degenerate data); the DP has a layer only for k <= distinct.
        labels, _ = kmeans_1d(dp, min(k, len(dp.partitions)))
        rules[anchor] = LearnedModelRules(
            ci_matrix=build_ci_matrix(perf, anchor, labels, level=level), k=k, wcss_series=series
        )
    return rules


def write_ci_matrix(matrix: CiMatrix, path) -> None:
    """Export a CI matrix as CSV rows anchor_model,cluster,model,kpi,low,high,n,mean."""

    def rows():
        for cluster in matrix.cluster_ids():
            for model_id in sorted(matrix.entries[cluster]):
                per_kpi = matrix.entries[cluster][model_id]
                for kpi in KPI_NAMES:
                    entry = per_kpi[kpi]
                    yield (
                        matrix.anchor_model_id, cluster, model_id, kpi,
                        entry.low, entry.high, entry.n, entry.mean,
                    )

    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, CI_CSV_HEADER, rows())


def read_ci_matrix(path) -> CiMatrix:
    """Load a CI matrix CSV written by write_ci_matrix.

    csvtext.read_rows checks the text, header, field counts and numbers
    (cluster and n whole). The file must then have a data row, one anchor
    model throughout and no repeated (cluster, model, kpi), or the error
    names the row. CiMatrix checks the values and completeness; its error is
    given the path. Attach the anchor's global KPI stats, which the export
    lacks, via attach_anchor_stats before online cluster matching."""
    rows = read_rows(path, CI_CSV_HEADER, RuleError, _CI_CSV_TYPES)
    if not rows:
        raise RuleError(f"{path}: no data rows")
    anchor = rows[0]["anchor_model"]
    entries: dict[int, dict[str, dict[str, CiEntry]]] = {}
    for row_no, (anchor_model, cluster, model, kpi, *ci) in enumerate(map(dict.values, rows), 1):
        if anchor_model != anchor:
            raise RuleError(f"{path}: row {row_no}: mixed anchor models")
        per_kpi = entries.setdefault(cluster, {}).setdefault(model, {})
        if kpi in per_kpi:
            raise RuleError(
                f"{path}: row {row_no}: duplicate entry (cluster={cluster}, "
                f"model={model!r}, kpi={kpi!r})"
            )
        per_kpi[kpi] = CiEntry(*ci)
    try:
        return CiMatrix(anchor_model_id=anchor, entries=entries)
    except RuleError as exc:
        raise RuleError(f"{path}: {exc}") from None
