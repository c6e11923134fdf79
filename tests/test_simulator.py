import contextlib
import csv
import gc
import hashlib
import io
import itertools
import math
import random
import statistics

import hypothesis
import pytest
from hypothesis import strategies as st

from adamls import cli, simulator
from adamls import config as cfgmod
from adamls.controller import EventLog, Knowledge, NaivePolicyConfig, observed_rate
from adamls.csvtext import BLOCK_ROWS
from adamls.errors import ConfigError, ValidationError
from adamls.profiles import ModelKpiSpec, ModelProfile, ProfilesConfig, generate_profiles
from adamls.simulator import (
    RESULTS_CSV_HEADER,
    Completions,
    PolicySpec,
    ResultTexts,
    SimConfig,
    SimulationConfig,
    WorkloadConfig,
    WorkloadSpec,
    build_requests,
    generate_workload,
    run_simulation,
    write_event_log_csv,
    write_results_csv,
)

from .oracles import (
    Served, completions_of, event_rows, repr_per_field_csv, served_rows, stream_of
)
from .test_cli import write_config


def constant_profile(model_id, tau_system, c=0.6, overhead=0.005):
    spec = ProfilesConfig(
        models=(ModelKpiSpec(model_id, tau_system, 0.0, c, 0.0, 50.0, 3.0, overhead=overhead),),
        image_count=5,
    )
    return generate_profiles(spec, seed=0)[0]


def static_config(profile, **settings):
    return SimConfig(
        profiles=(profile,),
        policy=PolicySpec(kind="static", static_model=profile.model_id),
        simulation=SimulationConfig(initial_model=profile.model_id, **settings),
    )


def engine_config(profile, **settings):
    """A config whose run goes through the engine while it serves profile's
    model alone: naive with one threshold, whose policy never switches and
    which a test may replace through simulator._build_policy."""
    thresholds = NaivePolicyConfig(thresholds=((math.inf, profile.model_id),))
    return SimConfig(
        profiles=(profile,),
        policy=PolicySpec(kind="naive", naive=thresholds),
        simulation=SimulationConfig(initial_model=profile.model_id, **settings),
    )


def stream(workload, profile, service_seed=0):
    """workload's request stream, its rows drawn from profile's images (the
    profiles of one run share them)."""
    return build_requests(workload, service_seed, len(profile.image_id))


class TestWorkload:
    def test_deterministic_even_spacing(self):
        spec = WorkloadSpec(
            WorkloadConfig(
                segments=((10.0, 5.0),),
                max_requests=100,
                arrival_process="deterministic",
            ),
        )
        arrivals = generate_workload(spec)
        assert len(arrivals) == 50
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert gaps == pytest.approx([0.2] * 49)
        assert arrivals[0] == pytest.approx(0.2)
        assert arrivals[-1] == pytest.approx(10.0)

    def test_zero_rate_segment_contributes_nothing(self):
        spec = WorkloadSpec(
            WorkloadConfig(
                segments=((5.0, 0.0), (2.0, 1.0)),
                max_requests=100,
                arrival_process="deterministic",
            ),
        )
        arrivals = generate_workload(spec)
        assert len(arrivals) == 2
        assert all(t > 5.0 for t in arrivals)

    def test_poisson_statistics(self):
        spec = WorkloadSpec(
            WorkloadConfig(segments=((100.0, 10.0),), max_requests=10_000),
            seed=123,
        )
        arrivals = generate_workload(spec)
        # Poisson(1000): 4 sigma is about 126.
        assert 800 <= len(arrivals) <= 1200
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        assert statistics.fmean(gaps) == pytest.approx(0.1, rel=0.15)

    def test_deterministic_segment_past_the_float_range_stops_at_the_cap(self):
        """duration * rate overflows to inf; the cap still bounds the count."""
        spec = WorkloadSpec(
            WorkloadConfig(
                segments=((1.0e200, 1.0e200),), max_requests=10, arrival_process="deterministic"
            ),
        )
        assert generate_workload(spec) == [1.0e-200 * (i + 1) for i in range(10)]

    def test_cap_truncates(self):
        spec = WorkloadSpec(WorkloadConfig(segments=((100.0, 10.0),), max_requests=50), seed=1)
        assert len(generate_workload(spec)) == 50

    @pytest.mark.parametrize("process", ["poisson", "deterministic"])
    @pytest.mark.parametrize("max_requests", [1, 7, 30, 31, 40, 51, 10_000])
    def test_cap_returns_the_first_arrivals_of_the_whole_workload(self, process, max_requests):
        # Deterministically 30 + 0 + 15 + 6 = 51 arrivals: caps fall inside a
        # segment, on a segment end, on the total and above it.
        segments = ((10.0, 3.0), (5.0, 0.0), (3.0, 5.0), (4.0, 1.5))
        spec = WorkloadSpec(
            WorkloadConfig(segments=segments, max_requests=max_requests, arrival_process=process),
            seed=11,
        )
        assert generate_workload(spec) == _all_arrivals_then_truncate(spec)

    def test_all_zero_rates_rejected(self):
        spec = WorkloadSpec(WorkloadConfig(segments=((5.0, 0.0),), max_requests=10))
        with pytest.raises(ValidationError, match="no arrivals"):
            generate_workload(spec)

    def test_deterministic_given_seed_and_strictly_increasing(self):
        spec = WorkloadSpec(
            WorkloadConfig(segments=((10.0, 3.0), (5.0, 20.0), (10.0, 1.0)), max_requests=500),
            seed=42,
        )
        a = generate_workload(spec)
        b = generate_workload(spec)
        assert a == b
        assert all(t1 < t2 for t1, t2 in zip(a, a[1:]))

    @pytest.mark.parametrize(
        "settings, message",
        [
            ({"segments": ()}, "workload.segments needs at least one segment"),
            ({"segments": ((0.0, 1.0),)}, r"workload.segments\[0\] needs .*, got \(0.0, 1.0\)"),
            ({"segments": ((1.0, -2.0),)}, r"workload.segments\[0\] needs .*, got \(1.0, -2.0\)"),
            ({"max_requests": 0}, "workload.max_requests must be >= 1, got 0"),
            ({"arrival_process": "uniform"}, "workload.arrival_process must be one of"),
        ],
    )
    def test_workload_section_validation(self, settings, message):
        with pytest.raises(ConfigError, match=message):
            WorkloadConfig(**{"segments": ((1.0, 1.0),), "max_requests": 10, **settings})

    @pytest.mark.parametrize(
        "segment", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_non_finite_segment_rejected(self, segment):
        # Only the section is built: generating arrivals from such a segment
        # would never return.
        with pytest.raises(
            ConfigError, match=r"workload.segments\[1\] needs a finite duration > 0 and a finite"
        ):
            WorkloadConfig(segments=((1.0, 1.0), segment), max_requests=10)


def _all_arrivals_then_truncate(spec):
    """Reference generator: every segment in full, then the first max_requests."""
    workload = spec.workload
    rng = random.Random(spec.seed)
    arrivals, t0 = [], 0.0
    for duration, rate in workload.segments:
        end = t0 + duration
        if rate > 0.0 and workload.arrival_process == "deterministic":
            gap = 1.0 / rate
            count = int(math.floor(duration * rate + 1e-9))
            arrivals.extend(t0 + gap * (i + 1) for i in range(count))
        elif rate > 0.0:
            t = t0 + rng.expovariate(rate)
            while t <= end:
                arrivals.append(t)
                t += rng.expovariate(rate)
        t0 = end
    return arrivals[: workload.max_requests]


def profile_of_rows(model_id, *rows):
    """A profile whose rows are the given (c, tau_system) pairs, tau_model = tau_system."""
    return ModelProfile(
        model_id=model_id,
        image_id=tuple(f"img{i}" for i in range(len(rows))),
        c=[c for c, _ in rows],
        tau_model=[tau for _, tau in rows],
        tau_system=[tau for _, tau in rows],
        s_cpu=[50.0] * len(rows),
        b=[3.0] * len(rows),
    )


def deterministic_workload(duration, rate, max_requests=100_000):
    return WorkloadSpec(
        WorkloadConfig(
            segments=((duration, rate),),
            max_requests=max_requests,
            arrival_process="deterministic",
        ),
    )


def profile_kpis(rec):
    return (rec.c, rec.tau_model, rec.tau_system, rec.s_cpu, rec.b)


class TestSampling:
    """Each dispatch draws the row it serves uniformly from the active profile."""

    def test_single_record_profile_is_forced(self):
        profile = constant_profile("m", 0.1)
        single = ModelProfile.of_records("m", profile.records[:1])
        requests = stream(deterministic_workload(10.0, 1.0), single)
        completions, _ = run_simulation(static_config(single), requests)
        assert len(completions) == 10
        assert set(completions.kpis) == {profile_kpis(single.records[0])}
        assert set(requests.row) == {0}

    def test_seeded_reproducibility(self, tiny_profiles):
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        workload = deterministic_workload(25.0, 2.0)

        def rows(service_seed):
            completions, _ = run_simulation(
                static_config(profile), stream(workload, profile, service_seed)
            )
            return completions.kpis

        assert rows(9) == rows(9)
        assert rows(9) != rows(10)

    def test_two_record_frequency(self):
        two = profile_of_rows("m", (0.6, 0.05), (0.7, 0.05))
        completions, _ = run_simulation(
            static_config(two), stream(deterministic_workload(1000.0, 10.0), two, service_seed=31)
        )
        assert len(completions) == 10_000
        share = sum(1 for kpis in completions.kpis if kpis[0] == 0.6) / 10_000
        assert abs(share - 0.5) <= 0.02

    @pytest.mark.parametrize(
        "arrival_t, rows, message",
        [
            (
                [1.0, 2.0, 3.0], [0, 5, 1],
                r"draws from 6 images \(rows 0 to 5\), but the profiles hold 5",
            ),
            (
                [1.0, 2.0, 3.0], [0, -1, 1],
                r"draws from 2 images \(rows -1 to 1\), but the profiles hold 5",
            ),
            ([1.0, 2.0, 3.0], [0, 1], r"has 3 arrivals but 2 image rows"),
            (
                [3.0, 1.0, 2.0], [0, 1, 2],
                r"arrival_t\[1\] is 1.0, before arrival_t\[0\] = 3.0; arrivals must be in "
                "time order",
            ),
            ([-5.0, 1.0], [0, 1], r"arrival_t\[0\] is -5.0; it must be finite and >= 0"),
            ([1.0, math.nan, 2.0], [0, 1, 2], r"arrival_t\[1\] is nan; it must be finite"),
            ([1.0, math.inf], [0, 1], r"arrival_t\[1\] is inf; it must be finite"),
            ([math.nan], [0], r"arrival_t\[0\] is nan; it must be finite"),
            ([1.0, 2.0], [1.0, 2.0], r"row\[0\] is 1\.0; it must be an integer"),
            ([1.0, 2.0], [True, 2], r"row\[0\] is True; it must be an integer"),
            ([1.0, 2.0], [0, "1"], r"row\[1\] is '1'; it must be an integer"),
            (["a"], [0], r"arrival_t\[0\] is 'a'; it must be a number"),
            ([1.0, None], [0, 1], r"arrival_t\[1\] is None; it must be a number"),
            ([True, 2.0], [0, 1], r"arrival_t\[0\] is True; it must be a number"),
            ([10**400], [0], r"arrival_t\[0\] is an int of 1329 bits; it has no float value"),
            (
                [1.0, 10**5000], [0, 1],
                r"arrival_t\[1\] is an int of 16610 bits; it has no float value",
            ),
        ],
        ids=[
            "row-past-the-end", "negative-row", "short-rows",
            "unsorted", "negative-time", "nan-time", "inf-time", "lone-nan-time",
            "float-row", "bool-row", "str-row", "str-time", "none-time", "bool-time",
            "float-overflowing-int-time", "str-refusing-int-time",
        ],
    )
    def test_a_passed_stream_must_fit_the_profiles(self, monkeypatch, arrival_t, rows, message):
        """A stream is checked before the first event: its rows against the
        profiles' image count, not found out by an IndexError inside a
        dispatch, and its times and row types when it is built, so the clock
        never runs backwards, no request arrives at a NaN or infinite time,
        at a time that is no number (a bool is none) or at an int with no
        float value, and no row is read as a float index or a numpy boolean
        mask. That holds for a static run, served without the engine, as for
        one through it."""
        profile = constant_profile("m", 0.1)

        def no_run(*args):
            pytest.fail("a stream that does not fit reached a run")

        monkeypatch.setattr(simulator._Engine, "run", no_run)
        monkeypatch.setattr(simulator, "_serve_static", no_run)
        for config in (static_config(profile), engine_config(profile)):
            with pytest.raises(ConfigError, match=message):
                run_simulation(config, requests=simulator.Requests(arrival_t, rows))

    def test_simultaneous_arrivals_are_a_stream(self):
        """Arrival times need only not decrease: equal times are served in
        request order."""
        profile = constant_profile("m", 0.1)
        config = static_config(profile)
        requests = simulator.Requests([0.0, 1.0, 1.0], [0, 1, 2])
        completions, _ = run_simulation(config, requests=requests)
        assert completions.request_id == [0, 1, 2]
        assert completions.start_t == pytest.approx([0.0, 1.0, 1.1])

    def test_each_request_holds_the_row_it_drew(self, tiny_profiles):
        """A request's kpis are the shared tuple of the profile row that the
        stream drew for it."""
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        requests = stream(deterministic_workload(50.0, 2.0), profile)
        completions, _ = run_simulation(static_config(profile), requests)
        rows = [requests.row[j] for j in completions.request_id]
        assert len(set(rows)) > 1
        shared = {}
        for row, kpis in zip(rows, completions.kpis):
            assert kpis == profile_kpis(profile.records[row])
            assert shared.setdefault(row, kpis) is kpis


class Recorder:
    """A policy that records, at each call, which event it ran at and what
    the system had seen by then; it can ask for one switch at a given time."""

    def __init__(self, switch_at=None, pause=0.0, calls=None):
        self.switch_at = switch_at
        self.pause = pause
        self.calls = [] if calls is None else calls
        self._completed = False

    def note_completion(self, model_id, kpis) -> None:
        self._completed = True

    def on_event(self, system) -> None:
        kind = "completion" if self._completed else "tick"
        self._completed = False
        seen = system.arrived
        v = observed_rate(system.arrival_times, system.now, seen)
        self.calls.append((system.now, kind, seen, v))
        if system.now == self.switch_at:
            system.switch_model(system.active_model, self.pause)


class TestEventOrder:
    """At one instant a completion runs before an arrival, and an arrival
    before a tick or the end of a switch pause. Deterministic arrivals come
    at 1, 2 and 3 s; every request takes exactly 1 s, so each completion
    lands on the next arrival's instant; ticks every 0.5 s land on them too."""

    def run(self, monkeypatch, recorder):
        profile = profile_of_rows("m", (0.6, 1.0))
        config = engine_config(profile, tick_interval=0.5)
        monkeypatch.setattr(simulator, "_build_policy", lambda config, knowledge: recorder)
        completions, _ = run_simulation(config, stream(deterministic_workload(3.0, 1.0), profile))
        return completions

    def test_completion_runs_before_an_arrival_at_its_instant(self, monkeypatch):
        recorder = Recorder()
        completions = self.run(monkeypatch, recorder)
        assert completions.finish_t == [2.0, 3.0, 4.0]
        # The arrival at 2 s is not seen yet, so the trailing rate is 0.
        assert [call for call in recorder.calls if call[1] == "completion"] == [
            (2.0, "completion", 1, 0.0),
            (3.0, "completion", 2, 0.0),
            (4.0, "completion", 3, 0.0),
        ]

    def test_arrival_runs_before_a_tick_at_its_instant(self, monkeypatch):
        recorder = Recorder()
        self.run(monkeypatch, recorder)
        at_whole_seconds = [call for call in recorder.calls if call[0] in (1.0, 2.0, 3.0)]
        assert at_whole_seconds == [
            (1.0, "tick", 1, 1.0),
            (2.0, "completion", 1, 0.0),
            (2.0, "tick", 2, 1.0),
            (3.0, "completion", 2, 0.0),
            (3.0, "tick", 3, 1.0),
        ]

    def test_arrival_runs_before_a_resume_at_its_instant(self, monkeypatch):
        # The tick at 0.5 s switches with a 0.5 s pause, so intake resumes
        # at 1 s, the first arrival's instant.
        dispatches = []
        dispatch = simulator._Engine._dispatch

        def recording_dispatch(self):
            dispatches.append((self.now, self.arrived))
            dispatch(self)

        monkeypatch.setattr(simulator._Engine, "_dispatch", recording_dispatch)
        recorder = Recorder(switch_at=0.5, pause=0.5)
        completions = self.run(monkeypatch, recorder)
        # The arrival's dispatch, then the resume's; both see the arrival.
        assert [d for d in dispatches if d[0] == 1.0] == [(1.0, 1), (1.0, 1)]
        assert completions.start_t[0] == 1.0

    def test_completion_arrival_tick_then_resume_at_one_instant(self, monkeypatch):
        # The tick at 1.5 s switches with a 0.5 s pause, so intake resumes at
        # 2 s, when the first request completes, the second arrives and a
        # tick falls due.
        trace = []
        dispatch = simulator._Engine._dispatch

        def recording_dispatch(self):
            trace.append((self.now, "dispatch", self.arrived))
            dispatch(self)

        monkeypatch.setattr(simulator._Engine, "_dispatch", recording_dispatch)
        recorder = Recorder(switch_at=1.5, pause=0.5, calls=trace)
        self.run(monkeypatch, recorder)
        # The completion's dispatch and policy call see one arrival; the
        # arrival's dispatch, the tick and the resume's dispatch see two.
        assert [call[:3] for call in trace if call[0] == 2.0] == [
            (2.0, "dispatch", 1),
            (2.0, "completion", 1),
            (2.0, "dispatch", 2),
            (2.0, "tick", 2),
            (2.0, "dispatch", 2),
        ]


def test_queue_depth_counts_the_requests_in_service(monkeypatch):
    """i_w, the backlog in v_adj = v + i_w, counts the requests in service
    as well as the waiting ones: three requests at 0 s on W = 2 workers, each
    taking 1 s, leave two in service and one waiting at the tick at 0.5 s."""
    depths = []

    class DepthRecorder:
        def note_completion(self, model_id, kpis):
            pass

        def on_event(self, system):
            depths.append((system.now, system.queue_depth))

    profile = profile_of_rows("m", (0.6, 1.0))
    config = engine_config(profile, worker_count=2, tick_interval=0.5)
    monkeypatch.setattr(simulator, "_build_policy", lambda config, knowledge: DepthRecorder())
    run_simulation(config, simulator.Requests([0.0, 0.0, 0.0], [0, 0, 0]))
    assert depths[0] == (0.5, 3)


class TestRunSimulation:
    def test_underload_every_response_equals_service_time(self):
        profile = constant_profile("m", 0.1)
        workload = WorkloadSpec(
            WorkloadConfig(
                segments=((10.0, 1.0),),
                max_requests=10,
                arrival_process="deterministic",
            ),
        )
        completions, _ = run_simulation(static_config(profile), stream(workload, profile))
        assert len(completions) == 10
        assert completions.r == pytest.approx([0.1] * 10)

    def test_fifo_arithmetic_under_contention(self):
        profile = constant_profile("m", 1.0, overhead=0.1)
        # Two arrivals 0.5 s apart, each needing 1.0 s on one worker: the
        # second waits half a second in the queue.
        workload = WorkloadSpec(
            WorkloadConfig(
                segments=((1.0, 2.0),),
                max_requests=2,
                arrival_process="deterministic",
            ),
        )
        completions, _ = run_simulation(static_config(profile), stream(workload, profile))
        assert completions.r == pytest.approx([1.0, 1.5])
        assert completions.start_t[1] == pytest.approx(completions.finish_t[0])

    def test_sustained_overload_grows_response_time_by_quarter(self):
        profile = constant_profile("m", 0.5)
        workload = WorkloadSpec(
            WorkloadConfig(
                segments=((40.0, 4.0),),
                max_requests=160,
                arrival_process="deterministic",
            ),
        )
        completions, _ = run_simulation(static_config(profile), stream(workload, profile))
        quarters = [completions.r[i : i + 40] for i in range(0, 160, 40)]
        means = [statistics.fmean(q) for q in quarters]
        assert all(m1 < m2 for m1, m2 in zip(means, means[1:]))

    def test_conservation_and_order_invariants(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((10.0, 4.0), (5.0, 20.0), (10.0, 2.0)), max_requests=2000),
            seed=5,
        )
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        requests = stream(workload, profile)
        completions, _ = run_simulation(static_config(profile), requests)
        arrivals = generate_workload(workload)
        assert len(completions) == len(arrivals)
        assert sorted(completions.request_id) == list(range(len(arrivals)))
        rows = served_rows(completions, requests)
        # Single worker: service order equals arrival order.
        by_start = sorted(rows, key=lambda rec: rec.start_t)
        assert [rec.request_id for rec in by_start] == sorted(completions.request_id)
        for rec in rows:
            assert rec.arrival_t <= rec.start_t <= rec.finish_t
            assert rec.r >= rec.tau_system - 1e-12
            assert rec.finish_t - rec.start_t == pytest.approx(rec.tau_system)
        assert completions.finish_t == sorted(completions.finish_t)

    def test_static_policy_uses_one_model(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((20.0, 3.0),), max_requests=50), seed=2)
        profile = next(p for p in tiny_profiles if p.model_id == "slow")
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="static", static_model="slow"),
            simulation=SimulationConfig(initial_model="fast"),
        )
        completions, events = run_simulation(config, stream(workload, profile))
        assert set(completions.model_id) == {"slow"}
        assert "SWITCH" not in events.event

    def test_naive_switches_at_threshold_crossings(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((8.0, 2.0), (8.0, 12.0), (8.0, 2.0)), max_requests=400),
            seed=3,
        )
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(
                kind="naive",
                naive=NaivePolicyConfig(thresholds=((6.0, "slow"), (math.inf, "fast"))),
            ),
            simulation=SimulationConfig(initial_model="slow"),
        )
        completions, events = run_simulation(config, stream(workload, tiny_profiles[0]))
        switches = events.event.count("SWITCH")
        assert switches >= 2  # up at the ramp, back down after it
        models = completions.model_id
        assert set(models) <= {"slow", "fast"}
        # The model in use changes only across a switch boundary.
        changes = sum(1 for a, b in zip(models, models[1:]) if a != b)
        assert changes <= 2 * switches

    def test_switch_pauses_intake(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((8.0, 2.0), (8.0, 12.0), (8.0, 2.0)), max_requests=400),
            seed=3,
        )
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(
                kind="naive",
                naive=NaivePolicyConfig(thresholds=((6.0, "slow"), (math.inf, "fast"))),
            ),
            simulation=SimulationConfig(initial_model="slow", switch_latency=0.05),
        )
        completions, events = run_simulation(config, stream(workload, tiny_profiles[0]))
        switch_times = [ev.sim_time for ev in event_rows(events) if ev.event == "SWITCH"]
        assert switch_times
        for t in switch_times:
            for start in completions.start_t:
                assert not (t < start < t + 0.05), start

    def test_determinism_identical_csv_hashes(self, tmp_path, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((10.0, 5.0), (4.0, 25.0), (10.0, 2.0)), max_requests=2000),
            seed=11,
        )
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        digests = []
        for run in range(2):
            requests = stream(workload, profile, service_seed=17)
            completions, _ = run_simulation(static_config(profile), requests)
            path = tmp_path / f"run{run}.csv"
            write_results_csv(completions, path, ResultTexts(requests))
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_multi_worker_conservation(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((10.0, 8.0),), max_requests=200), seed=6)
        profile = next(p for p in tiny_profiles if p.model_id == "slow")
        completions, _ = run_simulation(
            static_config(profile, worker_count=3), stream(workload, profile)
        )
        assert len(completions) == len(generate_workload(workload))
        # Three workers at most in flight at any completion boundary.
        in_flight_peak = 0
        events = sorted(
            [(start, 1) for start in completions.start_t]
            + [(finish, -1) for finish in completions.finish_t]
        )
        depth = 0
        for _, delta in events:
            depth += delta
            in_flight_peak = max(in_flight_peak, depth)
        assert in_flight_peak <= 3

    def test_adamls_requires_rules(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((5.0, 2.0),), max_requests=10), seed=1)
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="adamls"),
            simulation=SimulationConfig(initial_model="fast"),
        )
        with pytest.raises(ConfigError, match="learning engine"):
            run_simulation(config, stream(workload, tiny_profiles[0]), Knowledge())

    def test_adamls_loop_runs_and_logs(self, tiny_profiles):
        rules = cfgmod.learn_rules(
            cfgmod.ExperimentConfig(), tiny_profiles
        )
        knowledge = Knowledge(
            adaptation_rule_repository={m: r.ci_matrix for m, r in rules.items()}
        )
        workload = WorkloadSpec(
            WorkloadConfig(segments=((10.0, 2.0), (4.0, 15.0), (10.0, 2.0)), max_requests=300),
            seed=8,
        )
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="adamls"),
            simulation=SimulationConfig(initial_model="slow"),
        )
        completions, events = run_simulation(config, stream(workload, tiny_profiles[0]), knowledge)
        assert len(completions) == len(generate_workload(workload))
        kinds = set(events.event)
        assert kinds >= {"ANALYZE_TRIGGER", "PLAN"}
        assert "MONITOR" not in kinds
        assert "SWITCH" in kinds  # the 15 rps ramp forces a downgrade
        assert completions.finish_t == sorted(completions.finish_t)

    def test_config_validation(self, tiny_profiles):
        with pytest.raises(ConfigError):
            SimConfig(
                profiles=tuple(tiny_profiles),
                policy=PolicySpec(kind="static", static_model="ghost"),
                simulation=SimulationConfig(initial_model="fast"),
            )
        with pytest.raises(ConfigError):
            SimConfig(
                profiles=tuple(tiny_profiles),
                policy=PolicySpec(kind="adamls"),
                simulation=SimulationConfig(initial_model="ghost"),
            )
        with pytest.raises(ConfigError):
            SimConfig(
                profiles=(),
                policy=PolicySpec(kind="adamls"),
                simulation=SimulationConfig(initial_model="fast"),
            )
        with pytest.raises(ConfigError):
            PolicySpec(kind="static")
        with pytest.raises(ConfigError):
            PolicySpec(kind="warp")

    def test_profiles_must_share_one_image_order(self):
        """A drawn row must name one image whichever model serves it, so a
        10-image nano next to 50-image models is rejected when the config
        is built, naming both models."""
        specs = ProfilesConfig(image_count=50).models
        profiles = generate_profiles(ProfilesConfig(image_count=50, models=specs), seed=1)
        nano = generate_profiles(
            ProfilesConfig(image_count=10, models=[s for s in specs if s.model_id == "nano"]),
            seed=1,
        )[0]
        mixed = tuple(nano if p.model_id == "nano" else p for p in profiles)
        with pytest.raises(ConfigError, match="models 'nano' and 'small' differ at image 11"):
            SimConfig(
                profiles=mixed,
                policy=PolicySpec(kind="static", static_model="nano"),
                simulation=SimulationConfig(initial_model="nano"),
            )


class TestCompletionsLog:
    def test_held_run_keeps_no_object_per_request(self, tiny_profiles):
        """A run's completions are a few columns: holding a run of 2,000
        requests leaves about as many new GC-tracked objects as holding one
        of 1,000, where an object per request would leave 1,000 more."""
        profile = next(p for p in tiny_profiles if p.model_id == "fast")

        def tracked_growth(requests):
            config = static_config(profile)
            arrivals = stream(deterministic_workload(requests / 10.0, 10.0), profile)
            gc.collect()
            before = len(gc.get_objects())
            completions, events = run_simulation(config, arrivals)
            gc.collect()
            grown = len(gc.get_objects()) - before
            assert isinstance(completions, Completions) and len(completions) == requests
            return grown

        tracked_growth(100)  # one-time allocations of a first run
        assert abs(tracked_growth(2000) - tracked_growth(1000)) < 100


class TestEventLog:
    @pytest.fixture
    def adamls_run(self, tiny_profiles):
        """run(requests) runs adamls on deterministic arrivals at 3 rps; it
        returns the knowledge it used, its Completions and its EventLog."""
        rules = cfgmod.learn_rules(cfgmod.ExperimentConfig(), tiny_profiles)
        matrices = {m: r.ci_matrix for m, r in rules.items()}

        def run(requests):
            config = SimConfig(
                profiles=tuple(tiny_profiles),
                policy=PolicySpec(kind="adamls"),
                simulation=SimulationConfig(initial_model="slow"),
            )
            arrivals = stream(deterministic_workload(requests / 3.0, 3.0), tiny_profiles[0])
            knowledge = Knowledge(adaptation_rule_repository=dict(matrices))
            return knowledge, *run_simulation(config, arrivals, knowledge)

        return run

    def test_held_adamls_run_keeps_no_object_per_event_row(self, adamls_run):
        """An event log is three columns: holding an adamls run of 3,000
        requests leaves about as many new GC-tracked objects as holding one
        of 1,000, where an object per row would leave thousands more."""

        def tracked_growth(requests):
            gc.collect()
            before = len(gc.get_objects())
            knowledge, completions, events = adamls_run(requests)
            gc.collect()
            grown = len(gc.get_objects()) - before
            assert len(completions) == requests and events is knowledge.event_log
            return grown, len(events)

        tracked_growth(100)  # one-time allocations of a first run
        grown_short, rows_short = tracked_growth(1000)
        grown_long, rows_long = tracked_growth(3000)
        assert rows_long - rows_short > 3000
        assert abs(grown_long - grown_short) < 100

    def test_len_counts_the_rows_written(self, adamls_run, tmp_path):
        _, _, events = adamls_run(300)
        assert len(events) == len(events.sim_time) == len(events.event) == len(events.detail)
        write_event_log_csv(events, tmp_path / "events.csv")
        with open(tmp_path / "events.csv", encoding="utf-8", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1 + len(events)
        assert len(EventLog()) == 0


class TickingNoop:
    """A policy that does nothing at every completion and tick."""

    def __init__(self):
        self.calls = 0

    def note_completion(self, model_id, kpis) -> None:
        pass

    def on_event(self, system) -> None:
        self.calls += 1


class TestTicks:
    def bursty_stream(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((5.0, 3.0), (3.0, 40.0), (6.0, 2.0)), max_requests=300),
            seed=9,
        )
        profile = next(p for p in tiny_profiles if p.model_id == "slow")
        return profile, stream(workload, profile, 4)

    def record_pushes(self, monkeypatch):
        """Spy on the engine's heap: each push's class and the classes the
        heap holds right after it."""
        pushes = []
        push = simulator._Engine._push

        def recording_push(self, time, klass, payload):
            push(self, time, klass, payload)
            pushes.append((klass, [event[1] for event in self._heap]))

        monkeypatch.setattr(simulator._Engine, "_push", recording_push)
        return pushes

    @pytest.mark.parametrize("worker_count", [1, 3])
    def test_static_run_pushes_nothing_onto_the_engine_heap(
        self, tiny_profiles, monkeypatch, worker_count
    ):
        """No policy acts on a static run, so it is served without the
        engine: no completion, tick or resume is ever pushed."""
        pushes = self.record_pushes(monkeypatch)
        profile, requests = self.bursty_stream(tiny_profiles)
        completions, events = run_simulation(
            static_config(profile, worker_count=worker_count), requests
        )
        assert len(completions) == len(requests.arrival_t)
        assert pushes == []
        assert len(events) == 0

    @pytest.mark.parametrize("worker_count", [1, 3])
    def test_switching_run_heap_holds_no_arrival(self, tiny_profiles, monkeypatch, worker_count):
        """Arrivals and ticks stream past the heap: it holds only the
        completions in flight and the pending resumes."""
        pushes = self.record_pushes(monkeypatch)
        workload = WorkloadSpec(
            WorkloadConfig(segments=((8.0, 2.0), (8.0, 30.0), (8.0, 2.0)), max_requests=400),
            seed=3,
        )
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(
                kind="naive",
                naive=NaivePolicyConfig(thresholds=((6.0, "slow"), (math.inf, "fast"))),
            ),
            simulation=SimulationConfig(
                initial_model="slow", worker_count=worker_count, switch_latency=0.05
            ),
        )
        completions, events = run_simulation(config, stream(workload, tiny_profiles[0]))
        assert "SWITCH" in events.event
        pushed = [klass for klass, _ in pushes]
        assert simulator._EV_ARRIVAL not in pushed
        assert simulator._EV_TICK not in pushed
        assert pushed.count(simulator._EV_COMPLETION) == len(completions)
        assert simulator._EV_RESUME in pushed
        for _, heap in pushes:
            assert heap.count(simulator._EV_COMPLETION) <= worker_count
            assert len(heap) == (
                heap.count(simulator._EV_COMPLETION) + heap.count(simulator._EV_RESUME)
            )

    @pytest.mark.parametrize("worker_count", [1, 3])
    def test_ticks_step_by_the_interval_until_nothing_remains(
        self, tiny_profiles, monkeypatch, worker_count
    ):
        """Tick k is at tick k-1 plus tick_interval, the first at
        tick_interval. A request remains after a tick exactly when it
        finishes later (a completion at the tick's instant runs first), so
        the last tick is the first one at or after the last finish."""
        profile, requests = self.bursty_stream(tiny_profiles)
        config = engine_config(profile, worker_count=worker_count)
        recorder = Recorder()
        monkeypatch.setattr(simulator, "_build_policy", lambda config, knowledge: recorder)
        completions, _ = run_simulation(config, requests)
        interval = config.simulation.tick_interval
        last_finish = max(completions.finish_t)
        expected = [interval]
        while expected[-1] < last_finish:
            expected.append(expected[-1] + interval)
        assert [call[0] for call in recorder.calls if call[1] == "tick"] == expected
        # The system empties for longer than a tick before some arrival, and
        # the ticks go on through it while arrivals are due.
        drained, idle = 0.0, 0.0
        for rec in sorted(served_rows(completions, requests), key=lambda rec: rec.arrival_t):
            idle = max(idle, rec.arrival_t - drained)
            drained = max(drained, rec.finish_t)
        assert idle > interval


# Service times whose sums are exact in binary, and two that round, so that
# arrivals land on finish instants exactly, and also next to them.
_TIE_TAUS = (0.25, 0.5, 1.0, 0.1, 0.3)


@st.composite
def tie_heavy_runs(draw):
    """(worker_count, profile, stream): arrivals that share instants or come
    a service time apart, served from a profile of 1-3 rows whose
    tau_systems may be equal; whole times are ints in some streams, so a
    start at an arrival must keep its type."""
    taus = draw(st.lists(st.sampled_from(_TIE_TAUS), min_size=1, max_size=3))
    gaps = draw(st.lists(st.sampled_from((0.0, 0.0, 0.125, 2.0, *taus)), min_size=1, max_size=40))
    arrival_t = list(itertools.accumulate(gaps))
    if draw(st.booleans()):
        arrival_t = [int(t) if t == int(t) else t for t in arrival_t]
    rows = draw(
        st.lists(
            st.integers(0, len(taus) - 1), min_size=len(arrival_t), max_size=len(arrival_t)
        )
    )
    profile = profile_of_rows("m", *((0.5 + 0.1 * i, tau) for i, tau in enumerate(taus)))
    return draw(st.integers(1, 4)), profile, simulator.Requests(arrival_t, rows)


class TestStaticRuns:
    @hypothesis.settings(max_examples=300)
    @hypothesis.given(tie_heavy_runs())
    def test_static_completions_match_an_engine_run(self, run):
        """The queue recursion gives every Completions column of an engine
        run of the same stream under a policy that never acts, types and
        order of ties included, with one KPI tuple per drawn row."""
        worker_count, profile, requests = run
        static, events = run_simulation(static_config(profile, worker_count=worker_count), requests)
        noop = TickingNoop()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_build_policy", lambda config, knowledge: noop)
            reference, _ = run_simulation(
                engine_config(profile, worker_count=worker_count), requests
            )
        assert noop.calls > len(reference)  # the ticks did run
        assert static == reference
        for name in Completions.__slots__:
            assert list(map(repr, getattr(static, name))) == list(
                map(repr, getattr(reference, name))
            ), name
        assert len(events) == 0
        shared = {}
        for j, kpis in zip(static.request_id, static.kpis):
            assert shared.setdefault(requests.row[j], kpis) is kpis


class TestCompletionOrder:
    """Both run paths log completions by finish_t, ties by request_id; the
    expected order is computed here from each request's own finish time."""

    @staticmethod
    def expected_order(completions):
        finish_of = dict(zip(completions.request_id, completions.finish_t))
        return sorted(range(len(finish_of)), key=lambda j: (finish_of[j], j))

    @pytest.mark.parametrize("build", [static_config, engine_config], ids=["static", "engine"])
    def test_a_tie_in_finish_time_goes_to_the_lower_request_id(self, build):
        # Two workers start both requests at 0 s on one row, so both finish at 1 s.
        profile = profile_of_rows("m", (0.6, 1.0))
        requests = simulator.Requests([0.0, 0.0], [0, 0])
        completions, _ = run_simulation(build(profile, worker_count=2), requests)
        assert completions.finish_t == [1.0, 1.0]
        assert completions.request_id == [0, 1]

    @hypothesis.settings(max_examples=150)
    @hypothesis.given(tie_heavy_runs())
    def test_completions_come_by_finish_time_then_request_id(self, run):
        worker_count, profile, requests = run
        for build in (static_config, engine_config):
            completions, _ = run_simulation(build(profile, worker_count=worker_count), requests)
            assert completions.request_id == self.expected_order(completions), build.__name__


class TestCsvWriters:
    """Each writer's bytes against a repr-per-field oracle."""

    RECORDS = [
        Served(0, 5e-324, 0.1, 1e16, "nano", -0.0, 0.015, 0.02, 33.25, 3, 1e16, 4),
        Served(1, 0.30000000000000004, 2.5, 2.75, "x,l", 1.0, 1e-07, 0.25, 0.0, 0, -0.0, 0),
        Served(12, 1.0, 1.0, 1.5, 'q"m', 0.5, 123456789.125, 0.5, 100.0, 17, 0.5, 2**40),
    ]
    EVENTS = EventLog(
        [5e-324, -0.0, 1e16],
        ["SWITCH", "PLAN", "NOOP"],
        ["nano->small effective 0.105000", 'current model, "already" best', ""],
    )

    def test_results_csv_matches_oracle(self, tmp_path):
        texts = ResultTexts(stream_of(self.RECORDS))
        write_results_csv(completions_of(self.RECORDS), tmp_path / "fast.csv", texts)
        repr_per_field_csv(tmp_path / "oracle.csv", RESULTS_CSV_HEADER, results_rows(self.RECORDS))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_empty_event_log_csv_is_the_header_alone(self, tmp_path):
        write_event_log_csv(EventLog(), tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_bytes() == b"sim_time,event,detail\r\n"

    def test_event_log_csv_matches_oracle(self, tmp_path):
        write_event_log_csv(self.EVENTS, tmp_path / "fast.csv")
        rows = event_rows(self.EVENTS)
        repr_per_field_csv(tmp_path / "oracle.csv", ("sim_time", "event", "detail"), rows)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


# Numbers a value-keyed text memo could mix up: zeros of both signs, equal
# numbers of other types (0 == 0.0 == False, 1 == 1.0 == True), and NaN.
_TRICKY_NUMBERS = (0.0, -0.0, 0, False, 1, 1.0, True, math.nan, math.inf, -math.inf, 0.5, 5e-324)
NUMBERS = st.one_of(st.sampled_from(_TRICKY_NUMBERS), st.floats())


# Arrival times a stream may hold that a value-keyed memo could mix up:
# zeros of both signs and equal numbers of both types.
_TRICKY_TIMES = (0.0, -0.0, 0, 1, 1.0, 0.5, 5e-324)
TIMES = st.one_of(st.sampled_from(_TRICKY_TIMES), st.floats(min_value=0.0, allow_infinity=False))


def results_rows(records):
    """The results.csv rows of Served records: every field but the drawn row."""
    return [rec[:-1] for rec in records]


@st.composite
def results_files(draw):
    """A request stream and two or three files of it. Its arrival times come
    in runs from a small sorted pool, so arrival values repeat at different
    ids; KPI tuples and model ids come from pools shared by all files, so
    values repeat within and across files; a drawn start_t may be the
    finish_t of the row before. Request i draws row i % len(kpis) and the
    KPI tuple is picked by that row alone, so a (model, row) names one
    tuple."""
    arrivals = sorted(draw(st.lists(TIMES, min_size=1, max_size=6)))
    kpis = draw(st.lists(st.tuples(*[NUMBERS] * 5), min_size=1, max_size=6))
    models = draw(st.lists(st.sampled_from(["nano", "x,l", 'q"m', ""]), min_size=1, max_size=3))
    counts = [draw(st.sampled_from((1, 2, 9, BLOCK_ROWS + 1))) for _ in range(draw(st.integers(2, 3)))]
    n = max(counts)
    stream = simulator.Requests(
        [arrivals[i * len(arrivals) // n] for i in range(n)], [i % len(kpis) for i in range(n)]
    )
    files = []
    for count in counts:
        rows = draw(st.lists(st.tuples(NUMBERS, NUMBERS, NUMBERS, st.booleans()), min_size=1,
                             max_size=8))
        records = []
        for i in range(count):
            start, finish, r, after_previous = rows[i % len(rows)]
            if after_previous and records:
                start = records[-1].finish_t
            row = stream.row[i]
            model = models[i % len(models)]
            records.append(Served(i, stream.arrival_t[i], start, finish, model, *kpis[row], r, row))
        files.append(records)
    return stream, files


def _records(stream, requests, kpis, model="a,b"):
    """One Served row per (request_id, start_t, finish_t), arriving at the
    stream's arrival_t, drawn from the stream's row and holding kpis[row]."""
    return [
        Served(j, stream.arrival_t[j], start, finish, model, *kpis[stream.row[j]], 1.5,
               stream.row[j])
        for j, start, finish in requests
    ]


# Zeros of both signs and equal arrivals of both types, at different ids.
_MIXED_STREAM = simulator.Requests([-0.0, 0, 0.0, 1.0, 1], [0, 1, 0, 1, 1])
_FLOAT_STREAM = simulator.Requests([-0.0, 0.5, 1.0], [0, 0, 0])
# By row: KPIs of other types and zero signs.
_KPIS = [(0.5, 0.25, 0.0, 50.0, 1), (0.5, 0.25, 0.25, 50.0, True)]


class TestSharedResultTexts:
    """Files written through one stream's ResultTexts are what csv.writer
    writes, and a file of another stream is rejected before it is written."""

    @hypothesis.given(drawn=results_files())
    @hypothesis.example(drawn=(_MIXED_STREAM, [
        # The zero starts equal a kept finish_t or arrival of the other
        # sign; the last row starts when the one before finishes.
        _records(_MIXED_STREAM, [(2, 0.0, -0.0), (4, -0.0, 3.0), (0, 3.0, 4.0)], _KPIS),
        # int starts equal to float finishes; the second starts when the
        # first finishes.
        _records(_MIXED_STREAM, [(1, 1, 3.0), (3, 3, 4.0)], [(0.5, 0.25, -0.0, 50.0, 1.0)] * 2,
                 model='q"m'),
        _records(_MIXED_STREAM, [(4, 0.0, 3), (2, 3, -0.0)], _KPIS),
    ]))
    @hypothesis.example(drawn=(_FLOAT_STREAM, [
        # int starts equal to the stream's float arrivals, and zeros of the
        # other sign.
        _records(_FLOAT_STREAM, [(2, 1, 2), (0, 0, 3)], _KPIS),
        _records(_FLOAT_STREAM, [(0, 0.0, 1.0), (1, 1.0, -0.0), (2, -0.0, 2.0)], _KPIS),
    ]))
    def test_each_file_is_what_csv_writer_writes(self, drawn, tmp_path_factory):
        stream, files = drawn
        root = tmp_path_factory.mktemp("shared")
        for order in (files, files[::-1]):
            texts = ResultTexts(stream)
            for records in order:
                write_results_csv(completions_of(records), root / "shared.csv", texts)
                repr_per_field_csv(root / "oracle.csv", RESULTS_CSV_HEADER, results_rows(records))
                assert (root / "shared.csv").read_bytes() == (root / "oracle.csv").read_bytes()

    STREAM = simulator.Requests([0.5, 1.0, 1.0, 2.5], [0, 0, 0, 0])

    @pytest.mark.parametrize(
        "request_id, message",
        [
            pytest.param(4, r"request_id 4 does not index the request stream of 4 requests",
                         id="id-past-the-end"),
            pytest.param(-1, r"request_id -1 does not index", id="id-negative"),
            pytest.param(1.0, r"request_id 1\.0 does not index", id="id-not-an-int"),
        ],
    )
    def test_a_file_of_another_stream_is_rejected_before_writing(
        self, tmp_path, request_id, message
    ):
        stream = self.STREAM
        good = [Served(j, stream.arrival_t[j], 3.0, 4.0, "nano", 0.5, 0.1, 1.0, 50.0, 1, 3.0, 0)
                for j in (1, 0)]
        bad = good + [good[0]._replace(request_id=request_id)]
        texts = ResultTexts(stream)
        with pytest.raises(ValueError, match=message):
            write_results_csv(completions_of(bad), tmp_path / "results.csv", texts)
        assert not (tmp_path / "results.csv").exists()
        # The texts still serve the stream's own files.
        write_results_csv(completions_of(good), tmp_path / "results.csv", texts)
        repr_per_field_csv(tmp_path / "oracle.csv", RESULTS_CSV_HEADER, results_rows(good))
        assert (tmp_path / "results.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_one_compare_builds_one_head_per_request(self, tmp_path, tiny_config, monkeypatch):
        """A work count, not a timing: the request_id,arrival_t text of each
        request is built once per compare, not once per policy's file."""
        built, streams = [], []
        request_heads = simulator.request_heads

        def counting(arrival_texts):
            built.extend(arrival_texts)
            return request_heads(arrival_texts)

        run = cli.run_simulation

        def recording(sim_config, requests, knowledge):
            streams.append(requests)
            return run(sim_config, requests, knowledge)

        path = write_config(tmp_path, tiny_config, output_dir=str(tmp_path / "out"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["learn", "--config", str(path)]) == 0
            monkeypatch.setattr(simulator, "request_heads", counting)
            monkeypatch.setattr(cli, "run_simulation", recording)
            assert cli.main(["compare", "--config", str(path)]) == 0
        assert len(streams) == 4  # adamls, naive and two statics
        assert all(stream is streams[0] for stream in streams)
        assert len(built) == len(streams[0].arrival_t) > 0


# Values equal to a time whose texts differ from its text.
_EQUAL_TO = {0.0: st.sampled_from([0.0, -0.0, 0, False]), 1.0: st.sampled_from([1.0, 1, True])}
DETAILS = st.one_of(
    st.sampled_from(["", "a,b", 'say "no"', "x\r\ny", "\n", "\r", "v=1.5 m'=small"]),
    st.text(),
)


@st.composite
def event_logs(draw):
    """An EventLog whose times repeat in runs of 1-3 rows, as the rows of
    one decision do: a run is either one object or equal values of other
    types and zero signs."""
    log = EventLog()
    for _ in range(draw(st.sampled_from((0, 1, 5, BLOCK_ROWS // 2 + 1)))):
        t = draw(NUMBERS)
        same_object = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            log.sim_time.append(t if same_object else draw(_EQUAL_TO.get(t, st.just(t))))
            log.event.append(draw(st.sampled_from(["ANALYZE_TRIGGER", "PLAN", "SWITCH", "NOOP"])))
            log.detail.append(draw(DETAILS))
    return log


@hypothesis.given(events=event_logs())
def test_event_log_csv_is_what_csv_writer_writes(events, tmp_path_factory):
    root = tmp_path_factory.mktemp("events")
    write_event_log_csv(events, root / "events.csv")
    repr_per_field_csv(root / "oracle.csv", ("sim_time", "event", "detail"), event_rows(events))
    assert (root / "events.csv").read_bytes() == (root / "oracle.csv").read_bytes()
