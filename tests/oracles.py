"""Independent oracles used by the test suite.

These deliberately re-derive expected results by brute force or textbook
formulas, sharing no code path with the implementations they check.
"""

import csv
import math
import statistics
from itertools import combinations
from typing import NamedTuple

import numpy as np

from adamls.controller import DEFAULT_WINDOW_SIZE, SystemState, _KpiWindow
from adamls.errors import ValidationError
from adamls.learning import MIN_NORMAL_SAMPLES, CiEntry, normal_ci
from adamls.metrics import utility_per_request
from adamls.profiles import KPI_NAMES, KpiRecord
from adamls.simulator import Completions, Requests


def optimal_1d_wcss(values, k):
    """Globally optimal k-means WCSS by brute force over contiguous partitions.

    Optimal 1-D clusters are contiguous in sorted order, so trying every way
    to cut the sorted sequence into k runs is exhaustive.
    """
    xs = sorted(values)
    n = len(xs)
    best = math.inf
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0, *cuts, n)
        total = 0.0
        feasible = True
        for lo, hi in zip(bounds, bounds[1:]):
            group = xs[lo:hi]
            if not group:
                feasible = False
                break
            mu = sum(group) / len(group)
            total += sum((x - mu) ** 2 for x in group)
        if feasible and total < best:
            best = total
    return best


def normal_mean_ci(samples, z=1.6449):
    """Textbook normal-approximation CI of the mean (n >= 2)."""
    n = len(samples)
    mean = sum(samples) / n
    sd = statistics.stdev(samples)
    half = z * sd / math.sqrt(n)
    return mean - half, mean + half


def reference_ci(samples, level=0.90):
    """compute_ci (normal method) through statistics.fmean and statistics.stdev.

    Both are exact until their one final rounding, so the implementation's
    integer-moment path must match this bit for bit.
    """
    data = [float(v) for v in samples]
    n = len(data)
    mean = statistics.fmean(data)
    if n == 1:
        return CiEntry(data[0], data[0], 1, data[0])
    if n < MIN_NORMAL_SAMPLES:
        return CiEntry(min(data), max(data), n, mean)
    return normal_ci(mean, statistics.stdev(data), n, level)


def brute_force_plan(cluster_entries, m_prime, v_adj, live=None):
    """Reference planner: filter by rate capacity, argmax low(c), fixed ties.

    cluster_entries: model -> {"tau": (low, high), "c": (low, high)} from the
    rule matrix. live, when given, carries the current model's live-window
    (low, high) pairs and overrides its matrix entries. Returns the chosen
    model id, or None when the planner must persist.
    """
    candidates = []
    for model, entry in cluster_entries.items():
        if model == m_prime and live is not None:
            tau_low, tau_high = live["tau"]
            c_low, _ = live["c"]
        else:
            tau_low, tau_high = entry["tau"]
            c_low, _ = entry["c"]
        capacity = math.inf if tau_low <= 0 else 1.0 / tau_low
        if v_adj <= capacity:
            candidates.append((model, c_low, tau_high))
    if not candidates:
        return None
    ranked = sorted(
        candidates,
        key=lambda t: (-t[1], 0 if t[0] == m_prime else 1, t[2], t[0]),
    )
    winner = ranked[0][0]
    return None if winner == m_prime else winner


class Served(NamedTuple):
    """One served request, field by field: its results.csv row, then the
    index of the profile row it drew."""

    request_id: int
    arrival_t: float
    start_t: float
    finish_t: float
    model_id: str
    c: float
    tau_model: float
    tau_system: float
    s_cpu: float
    b: int
    r: float
    row: int = 0

    @property
    def kpis(self) -> tuple:
        return (self.c, self.tau_model, self.tau_system, self.s_cpu, self.b)


def served_rows(completions, requests):
    """Each request of a Completions as a Served row, in the log's order,
    its arrival_t and drawn row read from the run's request stream."""
    columns = zip(
        completions.request_id, completions.start_t, completions.finish_t,
        completions.model_id, completions.kpis, completions.r,
    )
    return [
        Served(j, requests.arrival_t[j], s, f, m, *kpis, r, requests.row[j])
        for j, s, f, m, kpis, r in columns
    ]


class EventRow(NamedTuple):
    """One row of an EventLog, field by field: its events.csv row."""

    sim_time: float
    event: str
    detail: str


def event_rows(log):
    """Each row of an EventLog as an EventRow, in the log's order."""
    return [EventRow(*row) for row in zip(log.sim_time, log.event, log.detail)]


def completions_of(rows):
    """The Completions holding the given Served rows, in their order; their
    arrival_t and drawn row belong to the stream (stream_of)."""
    return Completions(*map(list, zip(*(
        (s.request_id, s.start_t, s.finish_t, s.model_id, s.kpis, s.r) for s in rows
    ))))


def stream_of(rows):
    """The request stream the Served rows are of: request j arrives at the
    arrival_t of the row with id j and draws its row. An id that no row
    names arrives with the id before it (at 0.0 if it is the first) and
    draws row 0, so the rows' arrivals must not decrease with their ids."""
    by_id = {s.request_id: s for s in rows}
    arrival_t, drawn = [], []
    for j in range(max(by_id, default=-1) + 1):
        s = by_id.get(j)
        arrival_t.append(s.arrival_t if s else arrival_t[-1] if arrival_t else 0.0)
        drawn.append(s.row if s else 0)
    return Requests(arrival_t, drawn)


def window_of(rows) -> _KpiWindow:
    """A controller window holding exactly the given KPI rows, in order."""
    rows = tuple(rows)
    window = _KpiWindow(max(len(rows), 1))
    for kpis in rows:
        window.add(kpis)
    return window


def same_profiles(a, b) -> bool:
    """Whether two sequences of ModelProfiles match pair by pair: one model
    id, one image order, and equal values in each KPI column."""
    return len(a) == len(b) and all(
        (p.model_id, p.image_id) == (q.model_id, q.image_id)
        and all(np.array_equal(p.column(kpi), q.column(kpi)) for kpi in KPI_NAMES)
        for p, q in zip(a, b)
    )


def monitor_snapshot(
    sim_time, completions, arrival_times, queue_depth, active_model,
    window_size=DEFAULT_WINDOW_SIZE,
):
    """Reference monitor: rescan the completion log for the active model's window.

    completions are Served rows ordered by finish time. The window is the
    active model's last window_size completions, v counts the arrivals in
    the trailing second (sim_time - 1, sim_time], and an empty window yields
    empty means. Returns the state and the window's per-KPI means, summed
    afresh from the rows rather than read from the window's running sums.
    """
    window = [rec for rec in completions if rec.model_id == active_model][-window_size:]
    means = {}
    if window:
        means = {
            kpi: sum(getattr(rec, kpi) for rec in window) / len(window) for kpi in KPI_NAMES
        }
    state = SystemState(
        m_prime=active_model,
        window=window_of(rec.kpis for rec in window),
        v=float(sum(sim_time - 1.0 < t <= sim_time for t in arrival_times)),
        i_w=queue_depth,
    )
    return state, means


def repr_per_field_csv(path, header, rows):
    """Write rows the long way: every float field through an explicit repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def scalar_utility_series(records, params):
    """Per-request utilities and their running totals by a sequential loop.

    utility_per_request is the scalar definition of a utility, and the loop
    adds from 0.0 in record order: the rounding every array path must match.
    """
    utilities, totals = [], []
    total = 0.0
    for rec in records:
        utility = utility_per_request(rec.c, rec.r, params)
        total += utility
        utilities.append(utility)
        totals.append(total)
    return utilities, totals


def records_one_by_one(spec, seed):
    """Each model's KpiRecords, drawn as generate_profiles draws them.

    Every record is built and checked on its own, in image order and model
    by model, so the first bad draw raises what its KpiRecord raises, or a
    ValidationError for a b that int() cannot hold.
    """
    image_ids = [f"img-{i:05d}" for i in range(spec.image_count)]
    children = np.random.SeedSequence(seed).spawn(len(spec.models))
    out = {}
    for model_spec, child in zip(spec.models, children):
        rng = np.random.default_rng(child)
        n = spec.image_count
        tau_system = rng.normal(model_spec.tau_system_mean, model_spec.tau_system_std, n)
        tau_system = np.maximum(tau_system, model_spec.overhead + 1e-6)
        c = np.clip(rng.normal(model_spec.c_mean, model_spec.c_std, n), 0.0, 1.0)
        s_cpu = np.clip(rng.normal(model_spec.s_cpu_mean, model_spec.s_cpu_std, n), 0.0, 100.0)
        b = np.maximum(np.rint(rng.normal(model_spec.b_mean, model_spec.b_std, n)), 0.0)
        records = []
        for i in range(n):
            if not math.isfinite(b[i]):
                raise ValidationError(
                    f"b must be finite for image {image_ids[i]!r} "
                    f"model {model_spec.model_id!r}, got {float(b[i])}"
                )
            records.append(
                KpiRecord(
                    image_id=image_ids[i],
                    model_id=model_spec.model_id,
                    c=float(c[i]),
                    tau_model=float(tau_system[i] - model_spec.overhead),
                    tau_system=float(tau_system[i]),
                    s_cpu=float(s_cpu[i]),
                    b=int(b[i]),
                )
            )
        out[model_spec.model_id] = tuple(records)
    return out
