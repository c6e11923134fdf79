"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamls import config as cfgmod
from adamls.controller import (
    Analyzer,
    Knowledge,
    PlannerInput,
    SystemState,
    execute,
    feasible_rate_range,
    plan,
)
from adamls.learning import compute_ci, kmeans_1d
from adamls.metrics import UtilityParams, summarize, utility_per_request
from adamls.simulator import ResultTexts, generate_workload, run_simulation, write_results_csv

from .oracles import (
    brute_force_plan, normal_mean_ci, optimal_1d_wcss, served_rows, window_of
)
from .test_controller import FakeSystem, completion, matrix_of


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_utility_unit_suite():
    with criterion(1, "utility unit suite"):
        params = UtilityParams()  # the experiment defaults
        assert utility_per_request(0.7, 0.5, params) == pytest.approx(0.6)
        assert utility_per_request(0.4, 1.5, params) == pytest.approx(-0.3)
        # Boundary values take the in-range branch.
        assert utility_per_request(params.c_min, 0.5, params) == pytest.approx(
            0.5 * params.c_min + 0.25
        )
        assert utility_per_request(0.7, params.r_max, params) == pytest.approx(
            0.35 + 0.5 * params.r_max
        )
        assert utility_per_request(params.c_max, params.r_min, params) == pytest.approx(
            0.5 * params.c_max + 0.5 * params.r_min
        )


def test_criterion_2_ci_coverage():
    with criterion(2, "CI coverage 87-93%"):
        rng = random.Random(2024)
        hits = 0
        trials = 1000
        for _ in range(trials):
            sample = [rng.gauss(0.0, 1.0) for _ in range(50)]
            entry = compute_ci(sample, level=0.90)
            hits += entry.low <= 0.0 <= entry.high
        coverage = hits / trials
        assert 0.87 <= coverage <= 0.93, coverage


def test_criterion_3_kmeans_matches_dp_oracle():
    with criterion(3, "1-D clustering vs DP oracle"):
        rng = random.Random(314)
        instances = 0
        while instances < 100:
            n = rng.randint(3, 12)
            k = rng.randint(1, 3)
            values = [round(rng.uniform(0.0, 10.0), 4) for _ in range(n)]
            if len(set(values)) < k:
                continue
            rng.randint(0, 10_000)  # one draw per instance fixes the instance sequence
            labels, centroids = kmeans_1d(values, k)
            wcss = sum((x - centroids[l]) ** 2 for x, l in zip(values, labels))
            assert abs(wcss - optimal_1d_wcss(values, k)) <= 1e-9
            instances += 1


def test_criterion_4_planner_matches_enumeration_oracle():
    with criterion(4, "planner vs brute-force oracle"):
        rng = random.Random(4096)
        for case in range(200):
            models = [f"m{i}" for i in range(rng.randint(2, 5))]
            clusters = {}
            for cluster_id in range(rng.randint(1, 4)):
                clusters[cluster_id] = {}
                for m in models:
                    low_tau = round(rng.uniform(0.02, 0.6), 2)
                    high_tau = round(low_tau + rng.uniform(0.0, 0.3), 2)
                    low_c = rng.choice([0.4, 0.5, 0.6, 0.7, 0.8])
                    clusters[cluster_id][m] = {
                        "tau": (low_tau, high_tau),
                        "c": (low_c, min(1.0, low_c + 0.15)),
                    }
            m_prime = rng.choice(models)
            matrix = matrix_of(m_prime, clusters)
            knowledge = Knowledge(adaptation_rule_repository={m_prime: matrix})
            cluster_id = rng.randrange(len(clusters))
            v_adj = round(rng.uniform(0.5, 60.0), 1)
            use_live = case % 2 == 1
            live_window = window_of(())
            live = None
            if use_live:
                taus = [round(rng.uniform(0.03, 0.5), 3) for _ in range(12)]
                cs = [round(rng.uniform(0.3, 0.95), 3) for _ in range(12)]
                live_window = window_of(
                    completion(i, model=m_prime, c=c, tau=tau + 0.005).kpis
                    for i, (c, tau) in enumerate(zip(cs, taus))
                )
                live = {"tau": normal_mean_ci(taus), "c": normal_mean_ci(cs)}
            result = plan(
                PlannerInput(v_adj, m_prime, cluster_id), knowledge, live_window=live_window
            )
            oracle_entries = {
                m: {
                    "tau": (e["tau_model"].low, e["tau_model"].high),
                    "c": (e["c"].low, e["c"].high),
                }
                for m, e in matrix.entries[cluster_id].items()
            }
            expected = brute_force_plan(oracle_entries, m_prime, v_adj, live=live)
            assert result.target == expected, (case, result, expected)


def test_criterion_5_des_invariant_suite(tmp_path, tiny_profiles):
    with criterion(5, "DES invariants on 2000-request bursty workload"):
        from adamls.simulator import (
            PolicySpec,
            SimConfig,
            SimulationConfig,
            WorkloadConfig,
            WorkloadSpec,
            build_requests,
        )

        # Offered load (~2240) clearly exceeds the cap, so the run always
        # serves exactly 2000 requests.
        workload = WorkloadSpec(
            WorkloadConfig(
                segments=((60.0, 4.0), (10.0, 25.0), (60.0, 4.0), (10.0, 25.0), (120.0, 10.5)),
                max_requests=2000,
            ),
            seed=77,
        )
        config = SimConfig(
            profiles=tuple(tiny_profiles),
            policy=PolicySpec(kind="static", static_model="fast"),
            simulation=SimulationConfig(initial_model="fast"),
        )
        digests = []
        for attempt in range(2):
            requests = build_requests(workload, 5, len(tiny_profiles[0].image_id))
            completions, _ = run_simulation(config, requests)
            arrivals = generate_workload(workload)
            # Conservation: every arrival completes exactly once.
            assert len(completions) == len(arrivals) == 2000
            rows = served_rows(completions, requests)
            assert sorted(r.request_id for r in rows) == list(range(2000))
            # FIFO on a single worker.
            by_start = sorted(rows, key=lambda r: r.start_t)
            assert [r.request_id for r in by_start] == list(range(2000))
            for rec in rows:
                assert rec.r >= rec.tau_system - 1e-12
                assert rec.arrival_t <= rec.start_t <= rec.finish_t
            path = tmp_path / f"run{attempt}.csv"
            write_results_csv(completions, path, ResultTexts(requests))
            digests.append(path.read_bytes())
        assert digests[0] == digests[1]


def _fastest_and_most_accurate(models):
    fastest = min(models, key=lambda m: m.tau_system_mean)
    most_accurate = max(models, key=lambda m: m.c_mean)
    return fastest.model_id, most_accurate.model_id


def _run_seed(master_seed):
    config = cfgmod.ExperimentConfig(master_seed=master_seed)
    profiles = cfgmod.resolve_profiles(config)
    rules = cfgmod.learn_rules(config, profiles)
    matrices = {m: r.ci_matrix for m, r in rules.items()}
    requests = cfgmod.build_request_stream(config, profiles)
    summaries = {}
    for label in cfgmod.compare_policy_labels(config, profiles):
        spec = cfgmod.parse_policy_label(label, config)
        knowledge = Knowledge(adaptation_rule_repository=dict(matrices))
        completions, events = run_simulation(
            cfgmod.build_sim_config(config, spec, profiles), requests, knowledge
        )
        summaries[label] = summarize(
            completions, events, weight_grid=config.weight_grid, params=config.utility,
            policy=label,
        )
    return config, summaries


def _utility_at(summary, weights):
    for w_e, w_d, total in summary.utilities:
        if (w_e, w_d) == weights:
            return total
    raise KeyError(weights)


def test_criterion_6_qualitative_policy_orderings():
    with criterion(6, "policy comparison orderings, 4 of 5 seeds"):
        hits = {"equal_weights": 0, "accuracy_only": 0, "penalty_ratio": 0, "switches": 0}
        seeds = (1, 2, 3, 4, 5)
        for master_seed in seeds:
            config, summaries = _run_seed(master_seed)
            assert len(summaries) == 7  # adamls + naive + five statics
            assert sum(len(s.utilities) for s in summaries.values()) == 35
            fastest, most_accurate = _fastest_and_most_accurate(config.profiles.models)
            adamls = summaries["adamls"]
            naive = summaries["naive"]
            at_equal = {label: _utility_at(s, (0.5, 0.5)) for label, s in summaries.items()}
            at_conf = {label: _utility_at(s, (1.0, 0.0)) for label, s in summaries.items()}
            if (
                at_equal["adamls"] > at_equal["naive"]
                and at_equal["adamls"] > at_equal[f"static:{fastest}"]
            ):
                hits["equal_weights"] += 1
            if max(at_conf, key=at_conf.get) == f"static:{most_accurate}":
                hits["accuracy_only"] += 1
            if adamls.r_penalties <= 0.25 * naive.r_penalties:
                hits["penalty_ratio"] += 1
            if adamls.switch_count > naive.switch_count:
                hits["switches"] += 1
        for name, count in hits.items():
            assert count >= 4, (name, count, hits)


def test_criterion_7_analyzer_debounce():
    with criterion(7, "analyzer debounce"):
        matrix = matrix_of(
            "m", {0: {"m": {"tau": (0.09, 0.11), "c": (0.5, 0.7)}}}
        )
        knowledge = Knowledge(adaptation_rule_repository={"m": matrix})

        def state(v):
            window = window_of(completion(i, model="m", tau=0.1).kpis for i in range(8))
            return SystemState("m", window, v=v, i_w=0)

        # A violation that clears within t_wait produces no plan, hence no
        # SWITCH event, even with the planner and executor wired up.
        analyzer = Analyzer(t_wait=0.25)
        system = FakeSystem(model_ids=("m",), active="m")
        for now, v in ((1.0, 20.0), (1.1, 20.0), (1.2, 10.0), (1.3, 10.0), (1.6, 10.0)):
            system.now = now
            planner_input = analyzer.analyze(state(v), knowledge, now)
            if planner_input is not None:
                execute(plan(planner_input, knowledge, ()), system, knowledge)
        assert "SWITCH" not in knowledge.event_log.event

        # A persistent violation emits exactly once per armed window.
        analyzer = Analyzer(t_wait=0.25)
        emissions = []
        now = 1.0
        while now <= 2.05:
            if analyzer.analyze(state(20.0), knowledge, round(now, 2)) is not None:
                emissions.append(round(now, 2))
            now += 0.1
        assert emissions == [1.3, 1.7]  # windows armed at 1.0, 1.4, (1.8 still open)


@settings(max_examples=300, deadline=None)
@given(
    low=st.floats(min_value=1e-9, max_value=1e6),
    width=st.floats(min_value=0.0, max_value=1e6),
)
def _rate_range_reciprocal_property(low, width):
    high = low + width
    matrix = matrix_of("m", {0: {"m": {"tau": (low, high)}}})
    v_min, v_max = feasible_rate_range(matrix, "m", 0)
    assert abs(v_min * high - 1.0) <= 1e-12
    assert abs(v_max * low - 1.0) <= 1e-12


def test_criterion_8_rate_range_exactness():
    with criterion(8, "rate-range reciprocal exactness"):
        _rate_range_reciprocal_property()
