"""Independent oracles used by the test suite.

These deliberately re-derive expected results by brute force or textbook
formulas, sharing no code path with the implementations they check.
"""

import csv
import math
import statistics
from itertools import combinations

import numpy as np

from adamls.controller import DEFAULT_WINDOW_SIZE, WINDOW_KPIS, SystemState, _KpiWindow
from adamls.learning import MIN_NORMAL_SAMPLES, CiEntry, normal_ci
from adamls.metrics import utility_per_request
from adamls.profiles import KpiRecord


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


def brute_force_plan(cluster_entries, m_prime, v_adj, live=None, blacklist=frozenset()):
    """Reference planner: filter by rate capacity, argmax low(c), fixed ties.

    cluster_entries: model -> {"tau": (low, high), "c": (low, high)} from the
    rule matrix. live, when given, carries the current model's live-window
    (low, high) pairs and overrides its matrix entries. Returns the chosen
    model id, or None when the planner must persist.
    """
    candidates = []
    for model, entry in cluster_entries.items():
        if model in blacklist:
            continue
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


def monitor_snapshot(
    sim_time, completions, arrival_times, queue_depth, active_model,
    window_size=DEFAULT_WINDOW_SIZE,
):
    """Reference monitor: rescan the completion log for the active model's window.

    completions must be ordered by finish time. The window is the active
    model's last window_size completions, v counts the arrivals in the
    trailing second (sim_time - 1, sim_time], and an empty window yields
    empty means.
    """
    window = [rec for rec in completions if rec.model_id == active_model][-window_size:]
    means = {}
    if window:
        means = {
            kpi: sum(getattr(rec, kpi) for rec in window) / len(window) for kpi in WINDOW_KPIS
        }
    return SystemState(
        m_prime=active_model,
        window=_KpiWindow.of(window),
        window_means=means,
        v=float(sum(sim_time - 1.0 < t <= sim_time for t in arrival_times)),
        i_w=queue_depth,
        sim_time=sim_time,
    )


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


def records_one_by_one(spec):
    """Each model's KpiRecords, drawn as generate_profiles draws them.

    Every record is built and checked on its own, in image order and model
    by model, so the first bad draw raises what its KpiRecord raises (or
    what int() of its b raises).
    """
    image_ids = [f"img-{i:05d}" for i in range(spec.image_count)]
    children = np.random.SeedSequence(spec.seed).spawn(len(spec.models))
    out = {}
    for model_spec, child in zip(spec.models, children):
        rng = np.random.default_rng(child)
        n = spec.image_count
        tau_system = rng.normal(model_spec.tau_system_mean, model_spec.tau_system_std, n)
        tau_system = np.maximum(tau_system, model_spec.overhead + 1e-6)
        c = np.clip(rng.normal(model_spec.c_mean, model_spec.c_std, n), 0.0, 1.0)
        s_cpu = np.clip(rng.normal(model_spec.s_cpu_mean, model_spec.s_cpu_std, n), 0.0, 100.0)
        b = np.maximum(np.rint(rng.normal(model_spec.b_mean, model_spec.b_std, n)), 0.0)
        out[model_spec.model_id] = tuple(
            KpiRecord(
                image_id=image_ids[i],
                model_id=model_spec.model_id,
                c=float(c[i]),
                tau_model=float(tau_system[i] - model_spec.overhead),
                tau_system=float(tau_system[i]),
                s_cpu=float(s_cpu[i]),
                b=int(b[i]),
            )
            for i in range(n)
        )
    return out
