import hashlib
import math
import random
import statistics

import pytest

from adamls import config as cfgmod
from adamls import simulator
from adamls.controller import Knowledge, LogEvent, NaivePolicyConfig
from adamls.errors import ConfigError, ValidationError
from adamls.profiles import ModelKpiSpec, ModelProfile, ProfilesConfig, generate_profiles
from adamls.simulator import (
    RESULTS_CSV_HEADER,
    CompletionRecord,
    PolicySpec,
    SimConfig,
    SimulationConfig,
    WorkloadConfig,
    WorkloadSpec,
    generate_workload,
    run_simulation,
    sample_kpis,
    write_event_log_csv,
    write_results_csv,
)

from .oracles import repr_per_field_csv


def constant_profile(model_id, tau_system, c=0.6, overhead=0.005):
    spec = ProfilesConfig(
        models=(ModelKpiSpec(model_id, tau_system, 0.0, c, 0.0, 50.0, 3.0, overhead=overhead),),
        image_count=5,
    )
    return generate_profiles(spec, seed=0)[0]


def static_config(profile, workload, service_seed=0, **settings):
    return SimConfig(
        workload=workload,
        profiles=(profile,),
        policy=PolicySpec(kind="static", static_model=profile.model_id),
        simulation=SimulationConfig(initial_model=profile.model_id, **settings),
        service_seed=service_seed,
    )


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


class TestSampling:
    def test_single_record_profile_is_forced(self):
        profile = constant_profile("m", 0.1)
        single = ModelProfile.of_records("m", profile.records[:1])
        rng = random.Random(0)
        for _ in range(10):
            assert sample_kpis("m", {"m": single}, rng) == 0

    def test_seeded_reproducibility(self, tiny_profiles):
        profiles = {p.model_id: p for p in tiny_profiles}
        draws_a = [sample_kpis("fast", profiles, random.Random(9)) for _ in range(1)]
        rng1, rng2 = random.Random(9), random.Random(9)
        seq1 = [sample_kpis("fast", profiles, rng1) for _ in range(50)]
        seq2 = [sample_kpis("fast", profiles, rng2) for _ in range(50)]
        assert seq1 == seq2

    def test_two_record_frequency(self):
        profile = constant_profile("m", 0.1)
        two = ModelProfile.of_records("m", profile.records[:2])
        rng = random.Random(31)
        draws = [sample_kpis("m", {"m": two}, rng) for _ in range(10_000)]
        share = sum(1 for d in draws if d == 0) / 10_000
        assert abs(share - 0.5) <= 0.02

    def test_unknown_model_rejected(self, tiny_profiles):
        with pytest.raises(ConfigError):
            sample_kpis("ghost", {p.model_id: p for p in tiny_profiles}, random.Random(0))


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
        completions, _ = run_simulation(static_config(profile, workload))
        assert len(completions) == 10
        assert all(rec.r == pytest.approx(0.1) for rec in completions)

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
        completions, _ = run_simulation(static_config(profile, workload))
        assert [rec.r for rec in completions] == pytest.approx([1.0, 1.5])
        assert completions[1].start_t == pytest.approx(completions[0].finish_t)

    def test_sustained_overload_grows_response_time_by_quarter(self):
        profile = constant_profile("m", 0.5)
        workload = WorkloadSpec(
            WorkloadConfig(
                segments=((40.0, 4.0),),
                max_requests=160,
                arrival_process="deterministic",
            ),
        )
        completions, _ = run_simulation(static_config(profile, workload))
        quarters = [completions[i : i + 40] for i in range(0, 160, 40)]
        means = [statistics.fmean(rec.r for rec in q) for q in quarters]
        assert all(m1 < m2 for m1, m2 in zip(means, means[1:]))

    def test_conservation_and_order_invariants(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((10.0, 4.0), (5.0, 20.0), (10.0, 2.0)), max_requests=2000),
            seed=5,
        )
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        completions, _ = run_simulation(static_config(profile, workload))
        arrivals = generate_workload(workload)
        assert len(completions) == len(arrivals)
        assert sorted(rec.request_id for rec in completions) == list(range(len(arrivals)))
        # Single worker: service order equals arrival order.
        by_start = sorted(completions, key=lambda rec: rec.start_t)
        assert [rec.request_id for rec in by_start] == sorted(
            rec.request_id for rec in completions
        )
        for rec in completions:
            assert rec.arrival_t <= rec.start_t <= rec.finish_t
            assert rec.r >= rec.tau_system - 1e-12
            assert rec.finish_t - rec.start_t == pytest.approx(rec.tau_system)
        assert [rec.finish_t for rec in completions] == sorted(
            rec.finish_t for rec in completions
        )

    def test_static_policy_uses_one_model(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((20.0, 3.0),), max_requests=50), seed=2)
        profile = next(p for p in tiny_profiles if p.model_id == "slow")
        config = SimConfig(
            workload=workload,
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="static", static_model="slow"),
            simulation=SimulationConfig(initial_model="fast"),
        )
        completions, events = run_simulation(config)
        assert {rec.model_id for rec in completions} == {"slow"}
        assert not any(ev.event == "SWITCH" for ev in events)

    def test_naive_switches_at_threshold_crossings(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((8.0, 2.0), (8.0, 12.0), (8.0, 2.0)), max_requests=400),
            seed=3,
        )
        config = SimConfig(
            workload=workload,
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(
                kind="naive",
                naive=NaivePolicyConfig(thresholds=((6.0, "slow"), (math.inf, "fast"))),
            ),
            simulation=SimulationConfig(initial_model="slow"),
        )
        completions, events = run_simulation(config)
        switches = [ev for ev in events if ev.event == "SWITCH"]
        assert len(switches) >= 2  # up at the ramp, back down after it
        assert {rec.model_id for rec in completions} <= {"slow", "fast"}
        # The model in use changes only across a switch boundary.
        changes = sum(
            1 for a, b in zip(completions, completions[1:]) if a.model_id != b.model_id
        )
        assert changes <= 2 * len(switches)

    def test_switch_pauses_intake(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((8.0, 2.0), (8.0, 12.0), (8.0, 2.0)), max_requests=400),
            seed=3,
        )
        config = SimConfig(
            workload=workload,
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(
                kind="naive",
                naive=NaivePolicyConfig(thresholds=((6.0, "slow"), (math.inf, "fast"))),
            ),
            simulation=SimulationConfig(initial_model="slow", switch_latency=0.05),
        )
        completions, events = run_simulation(config)
        switch_times = [ev.sim_time for ev in events if ev.event == "SWITCH"]
        assert switch_times
        for t in switch_times:
            for rec in completions:
                assert not (t < rec.start_t < t + 0.05),rec

    def test_determinism_identical_csv_hashes(self, tmp_path, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((10.0, 5.0), (4.0, 25.0), (10.0, 2.0)), max_requests=2000),
            seed=11,
        )
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        digests = []
        for run in range(2):
            completions, _ = run_simulation(
                static_config(profile, workload, service_seed=17)
            )
            path = tmp_path / f"run{run}.csv"
            write_results_csv(completions, path)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_multi_worker_conservation(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((10.0, 8.0),), max_requests=200), seed=6)
        profile = next(p for p in tiny_profiles if p.model_id == "slow")
        completions, _ = run_simulation(
            static_config(profile, workload, worker_count=3)
        )
        assert len(completions) == len(generate_workload(workload))
        # Three workers at most in flight at any completion boundary.
        in_flight_peak = 0
        events = sorted(
            [(rec.start_t, 1) for rec in completions] + [(rec.finish_t, -1) for rec in completions]
        )
        depth = 0
        for _, delta in events:
            depth += delta
            in_flight_peak = max(in_flight_peak, depth)
        assert in_flight_peak <= 3

    def test_network_delay_adds_to_response_only(self, tiny_profiles):
        workload = WorkloadSpec(
            WorkloadConfig(
                segments=((10.0, 1.0),),
                max_requests=5,
                arrival_process="deterministic",
            ),
        )
        profile = next(p for p in tiny_profiles if p.model_id == "fast")
        completions, _ = run_simulation(
            static_config(profile, workload, network_delay=0.2)
        )
        for rec in completions:
            assert rec.r == pytest.approx(rec.finish_t - rec.arrival_t + 0.2)
            assert rec.finish_t - rec.start_t == pytest.approx(rec.tau_system)

    def test_adamls_requires_rules(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((5.0, 2.0),), max_requests=10), seed=1)
        config = SimConfig(
            workload=workload,
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="adamls"),
            simulation=SimulationConfig(initial_model="fast"),
        )
        with pytest.raises(ConfigError, match="learning engine"):
            run_simulation(config, Knowledge())

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
            workload=workload,
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="adamls"),
            simulation=SimulationConfig(initial_model="slow"),
        )
        completions, events = run_simulation(config, knowledge)
        assert len(completions) == len(generate_workload(workload))
        kinds = {ev.event for ev in events}
        assert "MONITOR" in kinds
        assert "SWITCH" in kinds  # the 15 rps ramp forces a downgrade
        finish_times = [rec.finish_t for rec in completions]
        assert finish_times == sorted(finish_times)

    def test_config_validation(self, tiny_profiles):
        workload = WorkloadSpec(WorkloadConfig(segments=((5.0, 2.0),), max_requests=10))
        with pytest.raises(ConfigError):
            SimConfig(
                workload=workload,
                profiles=tuple(tiny_profiles),
                policy=PolicySpec(kind="static", static_model="ghost"),
                simulation=SimulationConfig(initial_model="fast"),
            )
        with pytest.raises(ConfigError):
            SimConfig(
                workload=workload,
                profiles=tuple(tiny_profiles),
                policy=PolicySpec(kind="adamls"),
                simulation=SimulationConfig(initial_model="ghost"),
            )
        with pytest.raises(ConfigError):
            SimConfig(
                workload=workload,
                profiles=(),
                policy=PolicySpec(kind="adamls"),
                simulation=SimulationConfig(initial_model="fast"),
            )
        with pytest.raises(ConfigError):
            PolicySpec(kind="static")
        with pytest.raises(ConfigError):
            PolicySpec(kind="warp")


class TickingNoop:
    """A policy that does nothing but asks for every tick."""

    needs_ticks = True

    def __init__(self):
        self.calls = 0

    def note_completion(self, rec) -> None:
        pass

    def on_event(self, system) -> None:
        self.calls += 1


class TestTicks:
    def bursty_static(self, tiny_profiles, worker_count):
        workload = WorkloadSpec(
            WorkloadConfig(segments=((5.0, 3.0), (3.0, 40.0), (6.0, 2.0)), max_requests=300),
            seed=9,
        )
        profile = next(p for p in tiny_profiles if p.model_id == "slow")
        return static_config(profile, workload, worker_count=worker_count, service_seed=4)

    def test_static_run_pushes_no_tick(self, tiny_profiles, monkeypatch):
        pushed = []
        push = simulator._Engine._push

        def recording_push(self, time, klass, payload):
            pushed.append(klass)
            push(self, time, klass, payload)

        monkeypatch.setattr(simulator._Engine, "_push", recording_push)
        completions, _ = run_simulation(self.bursty_static(tiny_profiles, 1))
        assert completions
        assert simulator._EV_TICK not in pushed
        assert pushed.count(simulator._EV_ARRIVAL) == len(completions)

    @pytest.mark.parametrize("worker_count", [1, 3])
    def test_static_completions_match_a_ticking_noop_run(
        self, tiny_profiles, monkeypatch, worker_count
    ):
        config = self.bursty_static(tiny_profiles, worker_count)
        static_completions, _ = run_simulation(config)
        noop = TickingNoop()
        monkeypatch.setattr(simulator, "_build_policy", lambda config, knowledge: noop)
        ticking_completions, events = run_simulation(config)
        assert noop.calls > len(ticking_completions)  # the ticks did run
        assert ticking_completions == static_completions
        assert events == []


class TestCsvWriters:
    """Each writer's bytes against a repr-per-field oracle."""

    RECORDS = [
        CompletionRecord(0, 5e-324, 0.1, 1e16, "nano", -0.0, 0.015, 0.02, 33.25, 3, 1e16),
        CompletionRecord(1, 0.30000000000000004, 2.5, 2.75, "x,l", 1.0, 1e-07, 0.25, 0.0, 0, -0.0),
        CompletionRecord(12, 1.0, 1.0, 1.5, 'q"m', 0.5, 123456789.125, 0.5, 100.0, 17, 0.5),
    ]
    EVENTS = [
        LogEvent(5e-324, "SWITCH", "nano->small effective 0.105000"),
        LogEvent(-0.0, "PLAN", 'current model, "already" best'),
        LogEvent(1e16, "NOOP", ""),
    ]

    def test_results_csv_matches_oracle(self, tmp_path):
        write_results_csv(self.RECORDS, tmp_path / "fast.csv")
        repr_per_field_csv(tmp_path / "oracle.csv", RESULTS_CSV_HEADER, self.RECORDS)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_event_log_csv_matches_oracle(self, tmp_path):
        write_event_log_csv(self.EVENTS, tmp_path / "fast.csv")
        repr_per_field_csv(tmp_path / "oracle.csv", ("sim_time", "event", "detail"), self.EVENTS)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
