import dataclasses
import math
import random
from typing import NamedTuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adamls import config as cfgmod
from adamls import controller as ctrl
from adamls.controller import (
    CI_KPIS,
    AdamlsController,
    AdaptationPlan,
    Analyzer,
    Knowledge,
    NaivePolicyConfig,
    PlannerInput,
    SystemState,
    compute_adjusted_rate,
    discriminating_kpis,
    execute,
    feasible_rate_range,
    find_closest_cluster,
    naive_policy,
    observed_rate,
    plan,
    _KpiWindow,
)
from adamls.errors import ExecutionError, RuleError, ValidationError
from adamls.learning import CiEntry, CiMatrix
from adamls.profiles import KPI_NAMES
from adamls.simulator import run_simulation

from .oracles import Served, brute_force_plan, monitor_snapshot, reference_ci, window_of


def completion(i, model="m", c=0.6, tau=0.05, finish=None, arrival=None, r=None):
    arrival = i * 1.0 if arrival is None else arrival
    finish = arrival + tau if finish is None else finish
    return Served(
        request_id=i,
        arrival_t=arrival,
        start_t=arrival,
        finish_t=finish,
        model_id=model,
        c=c,
        tau_model=tau - 0.005,
        tau_system=tau,
        s_cpu=50.0,
        b=3,
        r=finish - arrival if r is None else r,
    )


def ci(low, high, n=10, mean=None):
    return CiEntry(low, high, n, (low + high) / 2 if mean is None else mean)


def matrix_of(anchor, clusters, stds=None):
    """clusters: {cluster: {model: {"tau": (lo, hi), "c": (lo, hi), ...}}}."""
    entries = {}
    for cluster, models in clusters.items():
        entries[cluster] = {}
        for model, kpis in models.items():
            per = {}
            for kpi_name, pair in kpis.items():
                name = {"tau": "tau_model", "tau_sys": "tau_system"}.get(kpi_name, kpi_name)
                per[name] = ci(*pair)
            for name in ("c", "tau_model", "tau_system", "s_cpu", "b"):
                per.setdefault(name, ci(0.0, 1.0))
            entries[cluster][model] = per
    stds = stds or {"c": 0.1, "tau_model": 0.05, "tau_system": 0.05, "s_cpu": 5.0, "b": 1.0}
    return CiMatrix(anchor_model_id=anchor, entries=entries, anchor_kpi_std=stds)


class FakeSystem:
    def __init__(self, model_ids=("a", "b"), active="a", now=0.0):
        self.model_ids = frozenset(model_ids)
        self.active_model = active
        self.now = now
        self.arrival_times = []
        self.queue_depth = 0
        self.switches = []

    def switch_model(self, target, pause):
        self.switches.append((self.now, target, pause))
        self.active_model = target


class TestMonitor:
    def test_window_keeps_last_fifty_of_active_model(self):
        completions = [completion(i, model="m", c=i / 100) for i in range(60)]
        state, _ = monitor_snapshot(100.0, completions, [], 0, "m")
        assert list(state.window.rows) == [rec.kpis for rec in completions[10:]]

    def test_window_filters_by_model(self):
        completions = [
            completion(i, model=("m" if i % 2 else "other"), c=i / 100) for i in range(20)
        ]
        state, _ = monitor_snapshot(100.0, completions, [], 0, "m", window_size=5)
        assert list(state.window.rows) == [completions[i].kpis for i in (11, 13, 15, 17, 19)]

    def test_empty_window_suppresses_means(self):
        state, means = monitor_snapshot(1.0, [], [], 3, "m")
        assert list(state.window.rows) == []
        assert means == state.window.means() == {}
        assert state.i_w == 3

    def test_rate_counts_trailing_second(self):
        arrivals = [0.5, 4.05, 4.2, 4.4, 4.6, 4.8, 4.9, 5.0]
        assert observed_rate(arrivals, 5.0) == 7.0
        # Boundary: an arrival exactly at now - 1 is excluded.
        assert observed_rate([4.0, 4.5], 5.0) == 1.0
        state, _ = monitor_snapshot(5.0, [], arrivals, 0, "m")
        assert state.v == 7.0

    def test_controller_window_tracker_matches_reference(self):
        """Every event's window, means, live CIs, cluster and range equal a
        from-scratch match on the reference monitor's state."""
        rng = random.Random(4)
        models = ("a", "b", "c")
        knowledge = Knowledge(
            adaptation_rule_repository={m: tracker_rules(m, models) for m in models}
        )
        controller = AdamlsController(knowledge, window_size=7)
        completions = []
        arrivals = []
        active = "a"
        t = 0.0
        for i in range(200):
            t += rng.uniform(0.01, 0.4)
            arrivals.append(t)
            model = rng.choice(models)
            rec = completion(i, model=model, c=rng.uniform(0, 1), tau=rng.uniform(0.01, 0.3), arrival=t)
            completions.append(rec)
            controller.note_completion(rec.model_id, rec.kpis)
            # A completion's event, then ticks without one; the active model
            # changes between events.
            for tick in range(rng.randint(1, 4)):
                if tick:
                    t += 0.1
                if rng.random() < 0.3:
                    active = rng.choice(models)
                system = FakeSystem(model_ids=models, active=active, now=t)
                system.arrival_times = arrivals
                system.queue_depth = rng.randint(0, 5)
                state = controller.monitor(system)
                reference, reference_means = monitor_snapshot(
                    t, completions, arrivals, system.queue_depth, active, window_size=7
                )
                assert list(state.window.rows) == list(reference.window.rows)
                assert state.window.means() == pytest.approx(reference_means)
                assert (state.v, state.i_w) == (reference.v, reference.i_w)
                controller.analyzer.analyze(state, knowledge, t)
                if not reference.window:
                    continue
                for level in (controller.ci_level, 0.95, controller.ci_level):
                    for kpi in CI_KPIS:
                        index = KPI_NAMES.index(kpi)
                        expected = reference_ci(
                            [kpis[index] for kpis in reference.window.rows], level
                        )
                        assert state.window.ci(kpi, level) == expected
                matrix = knowledge.rules_for(active)
                cluster = find_closest_cluster(reference, matrix)
                expected_match = (cluster, *feasible_rate_range(matrix, active, cluster))
                assert controller.analyzer.last_match == expected_match

    def test_caller_built_states_are_matched_afresh(self):
        """Different windows of one version are matched afresh, so the
        analyzer's memo is not keyed on the version alone."""
        matrix = tracker_rules("a", ("a",))
        knowledge = Knowledge(adaptation_rule_repository={"a": matrix})
        analyzer = Analyzer()
        clusters = []
        for tau in (0.08, 0.22, 0.08):
            window = one_row_window(c=0.5, tau_model=tau, tau_system=tau, s_cpu=50.0, b=3.0)
            state = SystemState("a", window, v=1.0, i_w=0)
            analyzer.analyze(state, knowledge, 1.0)
            cluster = find_closest_cluster(state, matrix)
            assert analyzer.last_match == (cluster, *feasible_rate_range(matrix, "a", cluster))
            clusters.append(cluster)
        assert clusters == [0, 1, 0]


def one_row_window(**means):
    """A window of one KPI row, so its means are the given values (0 for a
    KPI not given)."""
    return window_of([tuple(means.get(kpi, 0.0) for kpi in KPI_NAMES)])


def tracker_rules(anchor, models):
    """Two clusters split on tau and c; each anchor's rows are offset, so
    models differ in their match and their feasible range."""
    shift = 0.01 * (ord(anchor) - ord("a"))
    clusters = {
        0: {m: {"tau": (0.05 + shift, 0.10 + shift), "tau_sys": (0.055 + shift, 0.105 + shift),
                "c": (0.3, 0.5)} for m in models},
        1: {m: {"tau": (0.15 + shift, 0.25 + shift), "tau_sys": (0.155 + shift, 0.255 + shift),
                "c": (0.6, 0.8)} for m in models},
    }
    return matrix_of(anchor, clusters)


def test_adamls_run_matches_only_when_window_or_model_changes(tiny_config, monkeypatch):
    """A work count, not a timing: the cluster match reruns only after a
    completion enters the active window or a switch changes the model."""
    profiles = cfgmod.resolve_profiles(tiny_config)
    rules = cfgmod.learn_rules(tiny_config, profiles)
    knowledge = Knowledge(adaptation_rule_repository={m: r.ci_matrix for m, r in rules.items()})
    calls = []

    def counting(state, matrix):
        calls.append(state.m_prime)
        return find_closest_cluster(state, matrix)

    monkeypatch.setattr(ctrl, "find_closest_cluster", counting)
    sim_config = cfgmod.build_sim_config(
        tiny_config, cfgmod.parse_policy_label("adamls", tiny_config), profiles
    )
    requests = cfgmod.build_request_stream(tiny_config, profiles)
    completions, events = run_simulation(sim_config, requests, knowledge)
    switches = events.event.count("SWITCH")
    assert switches > 0
    assert 0 < len(calls) <= len(completions) + switches + 1


def test_adamls_run_reads_live_c_only_when_covered_and_plans_like_the_oracle(
    tiny_config, monkeypatch
):
    """A work count, not a timing: a plan reads the incumbent's live c CI
    only when the live capacity 1 / low(tau) covers v_adj. Every plan picks
    what the brute-force oracle picks from the same rule rows and live CIs."""
    profiles = cfgmod.resolve_profiles(tiny_config)
    rules = cfgmod.learn_rules(tiny_config, profiles)
    knowledge = Knowledge(adaptation_rule_repository={m: r.ci_matrix for m, r in rules.items()})
    reads = []
    window_ci = _KpiWindow.ci

    def counting_ci(self, kpi, level):
        reads.append(kpi)
        return window_ci(self, kpi, level)

    covered = []

    def checked_plan(planner_input, knowledge, live_window, level):
        reads.clear()
        result = plan(planner_input, knowledge, live_window, level=level)
        v_adj, m_prime = planner_input.v_adj, planner_input.m_prime
        models = knowledge.rules_for(m_prime).entries[planner_input.cluster]
        entries = {
            model: {"tau": (kpis["tau_model"].low, kpis["tau_model"].high),
                    "c": (kpis["c"].low, kpis["c"].high)}
            for model, kpis in models.items()
        }
        live = None
        if live_window:
            live = {}
            for key, kpi in (("tau", "tau_model"), ("c", "c")):
                index = KPI_NAMES.index(kpi)
                entry = reference_ci([kpis[index] for kpis in live_window.rows], level)
                live[key] = (entry.low, entry.high)
            tau_low = live["tau"][0]
            covered.append(v_adj <= (math.inf if tau_low <= 0 else 1.0 / tau_low))
            assert reads.count("c") == covered[-1]
        assert result.target == brute_force_plan(entries, m_prime, v_adj, live)
        return result

    monkeypatch.setattr(_KpiWindow, "ci", counting_ci)
    monkeypatch.setattr(ctrl, "plan", checked_plan)
    sim_config = cfgmod.build_sim_config(
        tiny_config, cfgmod.parse_policy_label("adamls", tiny_config), profiles
    )
    run_simulation(sim_config, cfgmod.build_request_stream(tiny_config, profiles), knowledge)
    assert True in covered and False in covered


# The tiny config and the three-worker and overload variants that
# tests/test_golden.py pins.
DECISION_LOG_CONFIGS = {
    "tiny": lambda config: config,
    "three-workers": lambda config: dataclasses.replace(
        config, simulation=dataclasses.replace(config.simulation, worker_count=3)
    ),
    "overload": lambda config: dataclasses.replace(
        config,
        workload=cfgmod.WorkloadConfig(segments=((4.0, 100.0),), max_requests=1000),
        simulation=dataclasses.replace(config.simulation, worker_count=4),
    ),
}


@pytest.mark.parametrize("variant", DECISION_LOG_CONFIGS)
def test_decision_rows_replay_from_the_log_alone(tiny_config, variant):
    """The event log holds one (trigger, plan, switch-or-noop) triple per
    plan and no per-tick row. Each trigger row alone replays v_adj = v + i_w
    and its range check, and each switch plan names the switch that follows."""
    config = DECISION_LOG_CONFIGS[variant](tiny_config)
    profiles = cfgmod.resolve_profiles(config)
    rules = cfgmod.learn_rules(config, profiles)
    knowledge = Knowledge(adaptation_rule_repository={m: r.ci_matrix for m, r in rules.items()})
    sim_config = cfgmod.build_sim_config(
        config, cfgmod.parse_policy_label("adamls", config), profiles
    )
    _, events = run_simulation(
        sim_config, cfgmod.build_request_stream(config, profiles), knowledge
    )
    kinds = events.event
    assert "MONITOR" not in kinds
    plans = kinds.count("PLAN")
    assert plans > 0 and len(events) == 3 * plans
    assert kinds.count("ANALYZE_TRIGGER") == plans == kinds.count("SWITCH") + kinds.count("NOOP")
    rows = list(zip(events.sim_time, kinds, events.detail))
    for trigger, planned, outcome in zip(rows[0::3], rows[1::3], rows[2::3]):
        assert trigger[0] == planned[0] == outcome[0]
        assert (trigger[1], planned[1]) == ("ANALYZE_TRIGGER", "PLAN")
        fields = dict(token.split("=", 1) for token in trigger[2].split(" "))
        v_adj = float(fields["v_adj"])
        assert float(fields["v"]) + int(fields["i_w"]) == v_adj
        assert not float(fields["v_min"]) <= v_adj <= float(fields["v_max"])
        if outcome[1] == "SWITCH":
            switch = planned[2].split(" ")
            assert switch[0] == "switch" and switch[1].split("->")[0] == fields["m'"]
            assert outcome[2].split(" ")[0] == switch[1]
        else:
            assert outcome[1] == "NOOP" and outcome[2] == planned[2]


@pytest.mark.parametrize("variant", DECISION_LOG_CONFIGS)
def test_naive_switches_replay_from_their_plan_rows(tiny_config, variant):
    """The naive log holds one (plan, switch) pair per switch, at one time.
    Each PLAN row alone replays its switch: naive_policy of its v is the
    SWITCH's target."""
    config = DECISION_LOG_CONFIGS[variant](tiny_config)
    profiles = cfgmod.resolve_profiles(config)
    sim_config = cfgmod.build_sim_config(
        config, cfgmod.parse_policy_label("naive", config), profiles
    )
    _, events = run_simulation(sim_config, cfgmod.build_request_stream(config, profiles))
    kinds = events.event
    switches = kinds.count("SWITCH")
    assert switches > 0 and kinds.count("PLAN") == switches and len(events) == 2 * switches
    rows = list(zip(events.sim_time, kinds, events.detail))
    for planned, switched in zip(rows[0::2], rows[1::2]):
        assert (planned[1], switched[1]) == ("PLAN", "SWITCH")
        assert planned[0] == switched[0]
        prefix = "threshold crossing at v="
        assert planned[2].startswith(prefix)
        v = float(planned[2].removeprefix(prefix))
        target = switched[2].split(" ")[0].split("->")[1]
        assert naive_policy(v, config.naive_thresholds) == target


class KpiRow(NamedTuple):
    c: float
    tau_model: float
    tau_system: float = 0.0
    s_cpu: float = 0.0
    b: int = 0


@given(
    maxlen=st.integers(min_value=1, max_value=9),
    values=st.lists(
        st.tuples(
            st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1e-6, max_value=1e3)
        ),
        min_size=1,
        max_size=30,
    ),
    level=st.sampled_from([0.90, 0.95]),
)
@example(maxlen=6, values=[(1e-6, 1e3), (1e3, 1e-6), (0.3, 512.25), (2.5e-5, 7.0)] * 3, level=0.90)
@example(maxlen=5, values=[(5e-324, 1e300), (1.0, 3.0), (2.5e-7, 1e-300), (7.0, 0.5)] * 2, level=0.90)
def test_kpi_window_ci_equals_compute_ci(maxlen, values, level):
    """The O(1) live CI is the reference CI over the window's records, exactly."""
    window = _KpiWindow(maxlen)
    rows = [KpiRow(c=c, tau_model=tau) for c, tau in values]
    for end, row in enumerate(rows, start=1):
        window.add(row)
        kept = rows[max(0, end - maxlen) : end]
        assert list(window.rows) == kept
        for kpi in CI_KPIS:
            expected = reference_ci([getattr(rec, kpi) for rec in kept], level)
            assert window.ci(kpi, level) == expected


class TestClusterMatching:
    def two_cluster_matrix(self):
        return matrix_of(
            "a",
            {
                0: {"a": {"tau": (0.040, 0.050), "tau_sys": (0.045, 0.055), "c": (0.55, 0.65)}},
                1: {"a": {"tau": (0.190, 0.200), "tau_sys": (0.195, 0.205), "c": (0.55, 0.65)}},
            },
            stds={"c": 0.05, "tau_model": 0.07, "tau_system": 0.07, "s_cpu": 0.0, "b": 0.0},
        )

    def state_with_means(self, means):
        return SystemState("a", one_row_window(**means), v=1.0, i_w=0)

    def test_single_cluster_is_forced(self):
        matrix = matrix_of("a", {0: {"a": {"tau": (0.1, 0.2)}}})
        assert find_closest_cluster(self.state_with_means({"tau_model": 9.9}), matrix) == 0

    def test_discriminating_kpis_prefer_spread_axes(self):
        assert set(discriminating_kpis(self.two_cluster_matrix())) == {
            "tau_model",
            "tau_system",
        }

    def test_window_near_fast_cluster(self):
        means = {"tau_model": 0.055, "tau_system": 0.06, "c": 0.6, "s_cpu": 50.0, "b": 3.0}
        assert find_closest_cluster(self.state_with_means(means), self.two_cluster_matrix()) == 0

    def test_window_equal_to_cluster_one_means(self):
        matrix = self.two_cluster_matrix()
        means = {
            "tau_model": matrix.entry(1, "a", "tau_model").mean,
            "tau_system": matrix.entry(1, "a", "tau_system").mean,
            "c": 0.6,
            "s_cpu": 50.0,
            "b": 3.0,
        }
        assert find_closest_cluster(self.state_with_means(means), matrix) == 1

    def test_missing_anchor_stats_rejected(self):
        entries = matrix_of("a", {0: {"a": {"tau": (0.1, 0.2)}}}).entries
        matrix = CiMatrix("a", entries, anchor_kpi_std={})
        with pytest.raises(RuleError, match="anchor KPI stats"):
            AdamlsController(Knowledge(adaptation_rule_repository={"a": matrix}))
        with pytest.raises(RuleError, match="anchor KPI stats"):
            discriminating_kpis(matrix)


class TestRateRange:
    def test_reciprocal_bounds(self):
        matrix = matrix_of("m", {0: {"m": {"tau": (0.045, 0.055)}}})
        v_min, v_max = feasible_rate_range(matrix, "m", 0)
        assert v_min == pytest.approx(18.1818, rel=1e-4)
        assert v_max == pytest.approx(22.2222, rel=1e-4)

    def test_zero_width(self):
        matrix = matrix_of("m", {0: {"m": {"tau": (0.1, 0.1)}}})
        assert feasible_rate_range(matrix, "m", 0) == (10.0, 10.0)

    def test_slow_model_range(self):
        matrix = matrix_of("m", {0: {"m": {"tau": (0.72, 0.81)}}})
        v_min, v_max = feasible_rate_range(matrix, "m", 0)
        assert v_min == pytest.approx(1.2345679, rel=1e-6)
        assert v_max == pytest.approx(1.3888889, rel=1e-6)

    def test_nonpositive_low_is_rule_corruption(self):
        matrix = matrix_of("m", {0: {"m": {"tau": (0.0, 0.1)}}})
        with pytest.raises(RuleError):
            feasible_rate_range(matrix, "m", 0)

    def test_missing_entry_is_rule_corruption(self):
        matrix = matrix_of("m", {0: {"m": {"tau": (0.1, 0.2)}}})
        with pytest.raises(RuleError):
            feasible_rate_range(matrix, "other", 0)

    @given(
        low=st.floats(min_value=1e-6, max_value=1e3),
        width=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_reciprocal_exactness(self, low, width):
        high = low + width
        matrix = matrix_of("m", {0: {"m": {"tau": (low, high)}}})
        v_min, v_max = feasible_rate_range(matrix, "m", 0)
        assert v_min * high == pytest.approx(1.0, rel=1e-12)
        assert v_max * low == pytest.approx(1.0, rel=1e-12)


class TestAdjustedRate:
    def test_examples(self):
        assert compute_adjusted_rate(10.0, 5) == 15.0
        assert compute_adjusted_rate(7.0, 0) == 7.0
        assert compute_adjusted_rate(0.0, 12) == 12.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            compute_adjusted_rate(-1.0, 0)


def analyzer_fixture():
    # One cluster, tau CI (0.09, 0.11): feasible range (9.09.., 11.11..).
    matrix = matrix_of("m", {0: {"m": {"tau": (0.09, 0.11), "c": (0.5, 0.7)}}})
    knowledge = Knowledge(adaptation_rule_repository={"m": matrix})
    return Analyzer(t_wait=0.25), knowledge


def state_at(v, i_w=0):
    window = one_row_window(c=0.6, tau_model=0.095, tau_system=0.1, s_cpu=50.0, b=3.0)
    return SystemState("m", window, v=v, i_w=i_w)


class TestAnalyzer:
    def test_in_range_emits_nothing(self):
        analyzer, knowledge = analyzer_fixture()
        assert analyzer.analyze(state_at(10.0), knowledge, 1.0) is None
        assert analyzer._armed_at is None

    def test_persistent_violation_emits_after_t_wait(self):
        analyzer, knowledge = analyzer_fixture()
        assert analyzer.analyze(state_at(20.0), knowledge, 1.00) is None  # arms
        assert analyzer.analyze(state_at(20.0), knowledge, 1.10) is None  # within t_wait
        result = analyzer.analyze(state_at(21.0, i_w=2), knowledge, 1.30)
        assert result == PlannerInput(v_adj=23.0, m_prime="m", cluster=0)

    def test_violation_cleared_within_t_wait_never_plans(self):
        analyzer, knowledge = analyzer_fixture()
        assert analyzer.analyze(state_at(20.0), knowledge, 1.00) is None
        assert analyzer.analyze(state_at(10.0), knowledge, 1.20) is None  # cleared, disarms
        assert analyzer.analyze(state_at(20.0), knowledge, 1.30) is None  # re-arms fresh
        assert analyzer.analyze(state_at(20.0), knowledge, 1.40) is None
        assert analyzer.analyze(state_at(20.0), knowledge, 1.56) is not None

    def test_one_emission_per_armed_window(self):
        analyzer, knowledge = analyzer_fixture()
        emitted = []
        for t in (1.0, 1.1, 1.3, 1.4, 1.5, 1.6):
            result = analyzer.analyze(state_at(20.0), knowledge, t)
            if result is not None:
                emitted.append(t)
        # First window arms at 1.0 and fires at 1.3; the second arms at 1.4
        # and fires once 0.25 s later.
        assert emitted == [1.3]

    def test_empty_window_suppresses_analysis(self):
        analyzer, knowledge = analyzer_fixture()
        state = SystemState("m", window_of(()), v=50.0, i_w=0)
        assert analyzer.analyze(state, knowledge, 1.0) is None

    def test_below_range_is_also_a_violation(self):
        analyzer, knowledge = analyzer_fixture()
        assert analyzer.analyze(state_at(2.0), knowledge, 1.0) is None
        assert analyzer.analyze(state_at(2.0), knowledge, 1.3) is not None


def plan_fixture():
    # Model A: capacity 1/0.02 = 50 rps, low(c) = 0.5.
    # Model B: capacity 1/0.10 = 10 rps, low(c) = 0.8.
    clusters = {
        0: {
            "A": {"tau": (0.02, 0.03), "c": (0.5, 0.6)},
            "B": {"tau": (0.10, 0.12), "c": (0.8, 0.9)},
        }
    }
    matrix_a = matrix_of("A", clusters)
    matrix_b = matrix_of("B", clusters)
    return Knowledge(adaptation_rule_repository={"A": matrix_a, "B": matrix_b})


class TestPlan:
    def test_only_fast_model_compatible_at_high_rate(self):
        knowledge = plan_fixture()
        result = plan(PlannerInput(30.0, "B", 0), knowledge, live_window=window_of(()))
        assert result.target == "A"

    def test_most_accurate_wins_when_both_compatible(self):
        knowledge = plan_fixture()
        result = plan(PlannerInput(8.0, "A", 0), knowledge, live_window=window_of(()))
        assert result.target == "B"

    def test_incumbent_best_is_noop(self):
        knowledge = plan_fixture()
        result = plan(PlannerInput(8.0, "B", 0), knowledge, live_window=window_of(()))
        assert not result.is_switch

    def test_empty_candidate_set_persists(self):
        knowledge = plan_fixture()
        result = plan(PlannerInput(500.0, "A", 0), knowledge, live_window=window_of(()))
        assert not result.is_switch
        assert "no suitable" in result.reason

    def test_live_window_overrides_matrix_for_current_model(self):
        knowledge = plan_fixture()
        # Live window of B shows tau ~0.02: its live capacity is ~50, so B
        # stays compatible at v_adj=30 and wins on confidence.
        window = window_of(completion(i, model="B", c=0.85, tau=0.025).kpis for i in range(30))
        result = plan(PlannerInput(30.0, "B", 0), knowledge, live_window=window)
        assert not result.is_switch

    def test_corrupt_row_raises_when_controller_is_built(self):
        clusters = {
            0: {
                "A": {"tau": (0.02, 0.03), "c": (0.5, 0.6)},
                "B": {"tau": (0.0, 0.12), "c": (0.8, 0.9)},
            }
        }
        knowledge = Knowledge(adaptation_rule_repository={"A": matrix_of("A", clusters)})
        with pytest.raises(RuleError, match="model 'B' cluster 0"):
            AdamlsController(knowledge)

    def test_missing_cluster_is_rule_corruption(self):
        knowledge = plan_fixture()
        with pytest.raises(RuleError):
            plan(PlannerInput(8.0, "A", 5), knowledge, live_window=window_of(()))

    def test_matches_brute_force_oracle_on_random_fixtures(self):
        rng = random.Random(99)
        checked = 0
        for _ in range(300):
            models = [f"m{i}" for i in range(rng.randint(2, 5))]
            clusters = {}
            for cluster in range(rng.randint(1, 4)):
                clusters[cluster] = {}
                for m in models:
                    low_tau = round(rng.uniform(0.02, 0.5), 2)
                    high_tau = round(low_tau + rng.uniform(0, 0.2), 2)
                    low_c = rng.choice([0.4, 0.5, 0.6, 0.7])  # coarse grid forces ties
                    clusters[cluster][m] = {"tau": (low_tau, high_tau), "c": (low_c, low_c + 0.1)}
            m_prime = rng.choice(models)
            matrix = matrix_of(m_prime, clusters)
            knowledge = Knowledge(adaptation_rule_repository={m_prime: matrix})
            cluster = rng.randrange(len(clusters))
            v_adj = round(rng.uniform(0.5, 60.0), 1)
            result = plan(
                PlannerInput(v_adj, m_prime, cluster), knowledge, live_window=window_of(())
            )
            oracle_entries = {
                m: {
                    "tau": (e["tau_model"].low, e["tau_model"].high),
                    "c": (e["c"].low, e["c"].high),
                }
                for m, e in matrix.entries[cluster].items()
            }
            expected = brute_force_plan(oracle_entries, m_prime, v_adj)
            assert result.target == expected
            if result.is_switch:
                # A chosen model always really accommodates v_adj.
                assert v_adj <= 1.0 / matrix.entry(cluster, result.target, "tau_model").low
            checked += 1
        assert checked == 300

    def test_rescaling_tau_rescales_range_and_keeps_choice(self):
        rng = random.Random(5)
        for _ in range(50):
            alpha = rng.choice([0.25, 0.5, 2.0, 4.0])
            low_taus = {m: rng.uniform(0.05, 0.4) for m in ("A", "B", "C")}
            clusters = {
                0: {
                    m: {"tau": (low, low * 1.2), "c": (rng.uniform(0.4, 0.9), 0.95)}
                    for m, low in low_taus.items()
                }
            }
            scaled = {
                0: {
                    m: {
                        "tau": (entry["tau"][0] * alpha, entry["tau"][1] * alpha),
                        "c": entry["c"],
                    }
                    for m, entry in clusters[0].items()
                }
            }
            v_adj = rng.uniform(1.0, 25.0)
            if any(abs(v_adj * low - 1.0) < 1e-6 for low in low_taus.values()):
                continue
            base_matrix = matrix_of("A", clusters)
            scaled_matrix = matrix_of("A", scaled)
            v_min, v_max = feasible_rate_range(base_matrix, "A", 0)
            s_min, s_max = feasible_rate_range(scaled_matrix, "A", 0)
            assert s_min == pytest.approx(v_min / alpha, rel=1e-12)
            assert s_max == pytest.approx(v_max / alpha, rel=1e-12)
            base_plan = plan(
                PlannerInput(v_adj, "A", 0),
                Knowledge(adaptation_rule_repository={"A": base_matrix}),
                live_window=window_of(()),
            )
            scaled_plan = plan(
                PlannerInput(v_adj / alpha, "A", 0),
                Knowledge(adaptation_rule_repository={"A": scaled_matrix}),
                live_window=window_of(()),
            )
            assert base_plan.target == scaled_plan.target


class TestExecute:
    def test_switch_pauses_and_flips_model(self):
        system = FakeSystem(active="a", now=5.0)
        knowledge = Knowledge()
        execute(AdaptationPlan("b", "upgrade"), system, knowledge, switch_latency=0.005)
        assert system.switches == [(5.0, "b", 0.005)]
        assert knowledge.event_log.event[-1] == "SWITCH"
        assert "a->b" in knowledge.event_log.detail[-1]
        assert "5.005" in knowledge.event_log.detail[-1]

    def test_noop_logs_without_touching_system(self):
        system = FakeSystem(active="a", now=5.0)
        knowledge = Knowledge()
        execute(AdaptationPlan(None, "stay"), system, knowledge)
        assert system.switches == []
        assert knowledge.event_log.event[-1] == "NOOP"

    def test_unknown_model_rejected(self):
        system = FakeSystem(model_ids=("a",), active="a")
        with pytest.raises(ExecutionError):
            execute(AdaptationPlan("ghost", ""), system, Knowledge())

    def test_zero_latency(self):
        system = FakeSystem(active="a", now=1.0)
        execute(AdaptationPlan("b", ""), system, Knowledge(), switch_latency=0.0)
        assert system.switches == [(1.0, "b", 0.0)]


class TestNaivePolicy:
    CONFIG = NaivePolicyConfig(thresholds=((5.0, "E"), (15.0, "C"), (math.inf, "A")))

    def test_table_lookup(self):
        assert naive_policy(10.0, self.CONFIG) == "C"

    def test_boundaries(self):
        assert naive_policy(0.0, self.CONFIG) == "E"
        assert naive_policy(5.0, self.CONFIG) == "E"
        assert naive_policy(1e6, self.CONFIG) == "A"

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            NaivePolicyConfig(thresholds=((5.0, "a"), (5.0, "b"), (math.inf, "c")))
        with pytest.raises(ValidationError):
            NaivePolicyConfig(thresholds=((5.0, "a"), (10.0, "b")))
        with pytest.raises(ValidationError):
            NaivePolicyConfig(thresholds=())
