"""Static runs against queueing theory: they are M/G/W queues.

A static policy never switches, so intake is never paused, and its service
times are i.i.d. draws of one model's tau_system. With Poisson arrivals a
static run is then an M/G/1 queue (one worker) or an M/G/W queue (W workers).
The one-worker mean wait must match Pollaczek-Khinchine (Harchol-Balter
2013, *Performance Modeling and Design of Computer Systems*, ch. 23); with W
workers every sample path must be a FIFO, work-conserving W-server queue.

run_simulation serves a static run by the queue recursion, never the event
engine. The engine_ tests serve the same queue through the engine, under a
naive policy with one threshold, which never switches, so the engine too is
held to Pollaczek-Khinchine and to the W-server sample path.
"""
import math
from operator import attrgetter

import numpy as np
import pytest

from adamls import config as cfgmod
from adamls.controller import NaivePolicyConfig
from adamls.simulator import (
    PolicySpec,
    SimConfig,
    SimulationConfig,
    WorkloadConfig,
    WorkloadSpec,
    build_requests,
    run_simulation,
)

from .oracles import served_rows

# Student t quantile t(0.995; 19): a two-sided 99% band over 20 batch means.
T_99_19 = 2.861


@pytest.fixture(scope="module")
def default_profiles():
    return tuple(cfgmod.resolve_profiles(cfgmod.ExperimentConfig()))


def static_run(profiles, model, rate, requests, workers=1, seed=1, engine=False):
    """Static model on Poisson arrivals at rate; records in arrival order.
    With engine, the run goes through the event engine instead: naive with
    the one threshold [.inf, model] serves model alone and never switches."""
    workload = WorkloadSpec(
        WorkloadConfig(
            segments=((10.0 * requests / rate, rate),),
            max_requests=requests,
            arrival_process="poisson",
        ),
        seed=seed,
    )
    if engine:
        naive = NaivePolicyConfig(thresholds=((math.inf, model),))
        policy = PolicySpec("naive", naive=naive)
    else:
        policy = PolicySpec("static", static_model=model)
    config = SimConfig(
        profiles=profiles,
        policy=policy,
        simulation=SimulationConfig(initial_model=model, worker_count=workers),
    )
    stream = build_requests(workload, seed + 1, len(profiles[0].image_id))
    completions, events = run_simulation(config, stream)
    assert len(events) == 0  # no switch, so intake never pauses
    assert len(completions) == requests
    return sorted(served_rows(completions, stream), key=attrgetter("request_id"))


def service_moments(profiles, model):
    tau = next(p for p in profiles if p.model_id == model).column("tau_system")
    return float(np.mean(tau)), float(np.mean(tau * tau))


def assert_pollaczek_khinchine(profiles, engine):
    mean_s, second_s = service_moments(profiles, "small")
    assert round(mean_s, 4) == 0.1196
    rate = 0.5 / mean_s  # rho = 0.5
    # P-K: E[W_q] = lambda E[S^2] / (2 (1 - rho)).
    expected = rate * second_s / (2 * (1 - 0.5))
    assert round(expected, 4) == 0.0608
    records = static_run(profiles, "small", rate, requests=20_000, engine=engine)
    waits = np.array([rec.start_t - rec.arrival_t for rec in records])
    batches = waits[2_000:].reshape(20, -1).mean(axis=1)  # first 10% is warm-up
    half_width = T_99_19 * batches.std(ddof=1) / math.sqrt(batches.size)
    assert half_width < 0.1 * expected  # the band is narrow enough to mean something
    assert abs(batches.mean() - expected) <= half_width


def test_mg1_mean_wait_matches_pollaczek_khinchine(default_profiles):
    assert_pollaczek_khinchine(default_profiles, engine=False)


def test_engine_mg1_mean_wait_matches_pollaczek_khinchine(default_profiles):
    assert_pollaczek_khinchine(default_profiles, engine=True)


def erlang_c(workers, offered):
    """Probability that an arrival waits in an M/M/W queue (offered = lambda E[S])."""
    terms = [offered**k / math.factorial(k) for k in range(workers)]
    tail = offered**workers / math.factorial(workers) * workers / (workers - offered)
    return tail / (sum(terms) + tail)


def test_mgc_mean_wait_within_allen_cunneen_band(default_profiles):
    mean_s, second_s = service_moments(default_profiles, "small")
    workers, rho = 4, 0.8
    rate = rho * workers / mean_s
    # Allen-Cunneen: the M/M/W wait scaled by (1 + C_s^2) / 2. It is an
    # approximation, so the engine must land in a band around it, +-20%,
    # fixed before any run, not an exact value.
    scv = second_s / mean_s**2 - 1.0
    expected = erlang_c(workers, rate * mean_s) / (workers / mean_s - rate) * (1 + scv) / 2
    assert round(expected, 4) == 0.0453
    records = static_run(default_profiles, "small", rate, requests=80_000, workers=workers)
    waits = np.array([rec.start_t - rec.arrival_t for rec in records])
    batches = waits[8_000:].reshape(20, -1).mean(axis=1)  # first 10% is warm-up
    half_width = T_99_19 * batches.std(ddof=1) / math.sqrt(batches.size)
    assert half_width < 0.1 * expected  # well inside the band's 20% half-width
    assert 0.8 * expected <= batches.mean() - half_width
    assert batches.mean() + half_width <= 1.2 * expected


def sample_path(records):
    arrival, start, finish = (
        np.array(column) for column in zip(*((r.arrival_t, r.start_t, r.finish_t) for r in records))
    )
    times = np.unique(np.concatenate((arrival, start, finish)))

    def count(values):  # how many of values are <= each event time
        return np.searchsorted(np.sort(values), times, side="right")

    arrived, started, finished = count(arrival), count(start), count(finish)
    return start, started - finished, arrived - started


def assert_w_server_sample_path(profiles, workers, engine):
    mean_s, _ = service_moments(profiles, "small")
    records = static_run(profiles, "small", 0.9 * workers / mean_s, 3_000, workers, engine=engine)
    start, busy, waiting = sample_path(records)
    assert busy.max() == workers  # at most W in service, and all W at some time
    # Work conservation: whenever a request waits, every worker is busy.
    assert waiting.max() > 0
    assert np.all(busy[waiting > 0] == workers)
    # Requests start in arrival (request id) order.
    assert np.all(np.diff(start) >= 0.0)


@pytest.mark.parametrize("workers", [2, 4])
def test_multi_worker_sample_path_invariants(default_profiles, workers):
    assert_w_server_sample_path(default_profiles, workers, engine=False)


@pytest.mark.parametrize("workers", [2, 4])
def test_engine_multi_worker_sample_path_invariants(default_profiles, workers):
    assert_w_server_sample_path(default_profiles, workers, engine=True)


@pytest.mark.parametrize("workers", [2, 4])
def test_saturated_throughput_is_workers_over_mean_service(default_profiles, workers):
    mean_s, _ = service_moments(default_profiles, "small")
    records = static_run(default_profiles, "small", 100.0 * workers / mean_s, 2_000, workers)
    throughput = len(records) / (max(r.finish_t for r in records) - records[0].arrival_t)
    assert throughput == pytest.approx(workers / mean_s, rel=0.02)
