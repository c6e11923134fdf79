"""MAPE-K control loop over the serving system, plus baseline policies.

The loop monitors a sliding window of recent completions, matches it to the
closest offline cluster, derives the feasible request-rate range from the
cluster's tau CI, and, when the adjusted rate leaves that range persistently,
plans a switch to the most accurate model whose rate capacity covers the
load. The fixed-threshold naive baseline lives behind the same
drive-on-event interface, so the simulator drives both policies alike, at
every completion and at the periodic ticks at or after each policy's
wake_at, the earliest time at which it can act: adamls can act at every
event, naive only at its checks, and at none once its load is gone. A
static model is no policy here: nothing ever acts on its run, which the
simulator serves without its engine.

An event does only its decision work: monitor builds one slotted
SystemState; the analyzer reads the cluster match from the window's memo
and runs the debounce; and only a trigger builds a PlannerInput, plans in
one pass over the rule rows and executes. The records passed between the
phases are named tuples, and the planner's no-op plans are constants.

The event log records decisions, not events: each trigger writes an
ANALYZE_TRIGGER row (v, i_w, v_adj, the feasible range [v_min, v_max] that
v_adj left, the cluster and m'), a PLAN row (the plan's reason) and a SWITCH
or NOOP row, and each naive switch a PLAN row (the threshold crossing and
its v) and a SWITCH row, each detail enough to explain its step by itself.
The log is one EventLog, a list per column, and every writer appends its
row's time, event and detail straight to the columns of Knowledge.event_log,
so a row is no object of its own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ExecutionError, RuleError, ValidationError
from .learning import (
    DEFAULT_CI_LEVEL,
    MIN_NORMAL_SAMPLES,
    CiEntry,
    CiMatrix,
    _ExactMoments,
    compute_ci,
    normal_ci,
)
from .profiles import KPI_NAMES, check_pairs

# Event types written to the event log.
EVENT_ANALYZE_TRIGGER = "ANALYZE_TRIGGER"
EVENT_PLAN = "PLAN"
EVENT_SWITCH = "SWITCH"
EVENT_NOOP = "NOOP"

DEFAULT_WINDOW_SIZE = 50
DEFAULT_T_WAIT = 0.25
DEFAULT_SWITCH_LATENCY = 0.005
RATE_HORIZON = 1.0  # seconds of trailing arrivals that define v
NAIVE_CHECK_INTERVAL = 1.0  # seconds between the naive policy's threshold checks


@dataclass(frozen=True, slots=True)
class EventLog:
    """A run's MAPE-K steps, in the order they ran, one list per column.

    Item i of each column belongs to the i-th row: its simulated time, its
    event type (one of the EVENT_ constants) and its free-text detail, the
    columns of events.csv. len() counts rows."""

    sim_time: list = field(default_factory=list)
    event: list = field(default_factory=list)
    detail: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.sim_time)


@dataclass
class Knowledge:
    """Shared knowledge base: adaptation rules and the controller's event log.

    Every writer appends its rows to the columns of event_log directly.
    """

    adaptation_rule_repository: dict[str, CiMatrix] = field(default_factory=dict)
    event_log: EventLog = field(default_factory=EventLog)

    def rules_for(self, model_id: str) -> CiMatrix:
        matrix = self.adaptation_rule_repository.get(model_id)
        if matrix is None:
            raise RuleError(f"no adaptation rules for model {model_id!r}")
        return matrix


@dataclass(slots=True)
class SystemState:
    """Monitor snapshot: live window of the active model plus load figures.

    The controller passes its rolling window of the active model itself, not
    a copy, so monitoring stays O(1) in the window size; the state is read
    within the event that made it, before the window changes. A model with
    no completions yet has an empty window.
    """

    m_prime: str
    window: _KpiWindow
    v: float
    i_w: int


class PlannerInput(NamedTuple):
    v_adj: float
    m_prime: str
    cluster: int


class AdaptationPlan(NamedTuple):
    """Either a switch to `target` or, with target None, no operation."""

    target: str | None
    reason: str

    @property
    def is_switch(self) -> bool:
        return self.target is not None


# The planner's two no-op outcomes; they carry no per-call data.
_PERSIST = AdaptationPlan(None, "no suitable model; persisting")
_INCUMBENT_BEST = AdaptationPlan(None, "current model already best")


@dataclass(frozen=True)
class NaivePolicyConfig:
    """Ascending (v upper bound, model) thresholds; the last bound is +inf."""

    thresholds: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        check_pairs(
            self.thresholds, ("bound", "str"), "naive_thresholds", "[rate bound, model]",
            ValidationError,
        )
        object.__setattr__(
            self, "thresholds", tuple((float(b), m) for b, m in self.thresholds)
        )
        if not self.thresholds:
            raise ValidationError("naive_thresholds needs at least one [rate bound, model] pair")
        bounds = [b for b, _ in self.thresholds]
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(
                f"naive_thresholds bounds must be strictly increasing, got {bounds}"
            )
        if bounds[-1] != math.inf:
            raise ValidationError(
                f"the last naive_thresholds bound must be .inf, got {bounds[-1]}"
            )

    def model_ids(self) -> list[str]:
        return [m for _, m in self.thresholds]


def observed_rate(arrival_times, now: float, arrived: int) -> float:
    """Arrivals per second over the trailing (now - RATE_HORIZON, now]
    window, among the first `arrived` of arrival_times: a request stream's
    times, of which the engine has taken in that many. An arrival at a
    completion's instant is taken in after it, so the completion does not
    count it; a tick at that instant does."""
    hi = bisect_right(arrival_times, now, 0, arrived)
    lo = bisect_right(arrival_times, now - RATE_HORIZON, 0, hi)
    return float(hi - lo)


def discriminating_kpis(matrix: CiMatrix, count: int = 2) -> tuple[str, ...]:
    """KPIs with the highest between-cluster variance of z-normalized means.

    Cluster means come from the anchor's own entries; normalization uses the
    anchor profile's global per-KPI standard deviation. A KPI with zero global
    spread cannot discriminate and scores 0. Ties resolve in canonical KPI
    order. The ranking is computed once per matrix.
    """
    return matrix.derived(_rank_kpis)[:count]


def _rank_kpis(matrix: CiMatrix) -> tuple[str, ...]:
    if not matrix.anchor_kpi_std:
        raise RuleError(
            f"rule matrix of {matrix.anchor_model_id!r} lacks anchor KPI stats; "
            "attach them from the anchor profile before cluster matching"
        )
    clusters = matrix.cluster_ids()
    scores: list[tuple[float, int, str]] = []
    for idx, kpi in enumerate(KPI_NAMES):
        sd = matrix.anchor_kpi_std.get(kpi, 0.0)
        if sd <= 0.0:
            scores.append((0.0, idx, kpi))
            continue
        means = [matrix.entry(l, matrix.anchor_model_id, kpi).mean / sd for l in clusters]
        grand = sum(means) / len(means)
        var = sum((m - grand) ** 2 for m in means) / len(means)
        scores.append((var, idx, kpi))
    scores.sort(key=lambda t: (-t[0], t[1]))
    return tuple(kpi for _, _, kpi in scores)


def _cluster_anchors(matrix: CiMatrix) -> tuple[tuple[int, tuple], ...]:
    """Per cluster, ascending: its (kpi, offline mean, anchor sd) triples.

    Only discriminating KPIs with a global spread take part in matching.
    """
    kpis = discriminating_kpis(matrix)
    anchors = []
    for cluster in matrix.cluster_ids():
        anchor = []
        for kpi in kpis:
            sd = matrix.anchor_kpi_std.get(kpi, 0.0)
            if sd <= 0.0:
                continue
            anchor.append((kpi, matrix.entry(cluster, matrix.anchor_model_id, kpi).mean, sd))
        anchors.append((cluster, tuple(anchor)))
    return tuple(anchors)


def find_closest_cluster(state: SystemState, matrix: CiMatrix) -> int:
    """Match the live window to the nearest offline cluster.

    Distance is Euclidean over the two most discriminating KPIs in z-space
    (values divided by the anchor's global per-KPI standard deviation); ties
    go to the lower cluster index.
    """
    if len(matrix.entries) == 1:
        return next(iter(matrix.entries))
    means = state.window.means()
    if not means:
        raise ValidationError("find_closest_cluster: empty monitoring window")
    anchors = matrix.derived(_cluster_anchors)
    best_cluster, best_dist = anchors[0][0], math.inf
    for cluster, anchor in anchors:
        dist = 0.0
        for kpi, offline, sd in anchor:
            delta = (means[kpi] - offline) / sd
            dist += delta * delta
        if dist < best_dist:
            best_cluster, best_dist = cluster, dist
    return best_cluster


def feasible_rate_range(matrix: CiMatrix, m_prime: str, cluster: int) -> tuple[float, float]:
    """Feasible request-rate range: reciprocals of the tau CI bounds."""
    try:
        _, high_tau, capacity = matrix.derived(rule_rows)[cluster][m_prime]
    except KeyError:
        raise RuleError(
            f"rule matrix of {matrix.anchor_model_id!r} has no rule for model "
            f"{m_prime!r} in cluster {cluster}"
        ) from None
    return 1.0 / high_tau, capacity


def rule_rows(matrix: CiMatrix) -> dict[int, dict[str, tuple[float, float, float]]]:
    """Per cluster, in model-id order: model -> (low_c, high_tau, capacity).

    capacity is 1 / low(tau), so the planner needs every tau CI lower bound
    to be > 0; that precondition is the planner's, not the CI's, and is
    checked here.
    """
    rows = {}
    for cluster, models in matrix.entries.items():
        rows[cluster] = {}
        for model_id in sorted(models):
            tau_ci, c_ci = models[model_id]["tau_model"], models[model_id]["c"]
            if tau_ci.low <= 0.0:
                raise RuleError(
                    f"rule matrix of {matrix.anchor_model_id!r}: tau CI lower bound must "
                    f"be > 0 for model {model_id!r} cluster {cluster} (got {tau_ci.low})"
                )
            rows[cluster][model_id] = (c_ci.low, tau_ci.high, 1.0 / tau_ci.low)
    return rows


def compute_adjusted_rate(v: float, i_w: int) -> float:
    """Adjusted rate: observed arrivals plus the backlog to clear within 1 s."""
    if v < 0 or i_w < 0:
        raise ValidationError("compute_adjusted_rate: v and i_w must be >= 0")
    return v + i_w


class Analyzer:
    """Debounced QoS-violation detector.

    A violation (v_adj outside the feasible range) arms a timer; only if some
    later check still sees a violation at least t_wait after arming does the
    analyzer emit a PlannerInput, built from the current state. An in-range
    check disarms the timer, and each armed window emits at most once.

    The matched cluster and feasible range depend only on the window's rows
    and the rules of the model it is read under, so the match (cluster,
    v_min, v_max) is kept in the window's memo under that model until its
    next add; last_match holds that of the last analyzed state. v_adj, the
    range check and the debounce run on every call.
    """

    def __init__(self, t_wait: float = DEFAULT_T_WAIT):
        self.t_wait = t_wait
        self._armed_at: float | None = None
        self.last_match: tuple[int, float, float] | None = None

    def analyze(self, state: SystemState, knowledge: Knowledge, now: float) -> PlannerInput | None:
        m_prime, window = state.m_prime, state.window
        if not window.rows:
            return None
        match = window.memo.get(m_prime)
        if match is None:
            matrix = knowledge.rules_for(m_prime)
            cluster = find_closest_cluster(state, matrix)
            match = (cluster, *feasible_rate_range(matrix, m_prime, cluster))
            window.memo[m_prime] = match
        self.last_match = match
        cluster, v_min, v_max = match
        v_adj = compute_adjusted_rate(state.v, state.i_w)
        if v_min <= v_adj <= v_max:
            self._armed_at = None
            return None
        if self._armed_at is None:
            self._armed_at = now
            return None
        if now - self._armed_at >= self.t_wait:
            self._armed_at = None
            return PlannerInput(v_adj, m_prime, cluster)
        return None


def plan(
    planner_input: PlannerInput,
    knowledge: Knowledge,
    live_window: _KpiWindow,
    level: float = DEFAULT_CI_LEVEL,
) -> AdaptationPlan:
    """Pick the most accurate model whose rate capacity covers v_adj.

    Every model with a rule row in the matched cluster is a candidate. A
    model q is compatible when v_adj <= 1 / low(tau of q); the current
    model's tau and c CIs come from its live window (falling back to the rule
    matrix when the window is empty), every other model's from the current
    model's CI matrix. Among compatible models the winner maximizes low(c),
    ties broken by incumbent first, then smaller high(tau), then model id.

    One pass over the rows, which come in model-id order, keeps the winner
    so far; the live c CI is read only when the live capacity covers v_adj.
    """
    v_adj, m_prime, cluster = planner_input
    matrix = knowledge.rules_for(m_prime)
    rows = matrix.derived(rule_rows).get(cluster)
    if rows is None:
        raise RuleError(f"rule matrix of {m_prime!r} has no cluster {cluster}")
    live_model = m_prime if live_window else None
    best = best_c = best_tau = None
    # `not v_adj <= capacity` is written so that a NaN capacity is not
    # compatible.
    for model_id, (low_c, high_tau, capacity) in rows.items():
        if model_id == live_model:
            tau_ci = live_window.ci("tau_model", level)
            # A live CI can dip to a non-positive lower bound under extreme
            # variance; that reads as an unbounded nominal capacity.
            capacity = math.inf if tau_ci.low <= 0.0 else 1.0 / tau_ci.low
            if not v_adj <= capacity:
                continue
            low_c, high_tau = live_window.ci("c", level).low, tau_ci.high
        elif not v_adj <= capacity:
            continue
        # An equal key keeps the earlier model: the model-id tie-break.
        if best is None or low_c > best_c or (
            low_c == best_c
            and (model_id == m_prime or (best != m_prime and high_tau < best_tau))
        ):
            best, best_c, best_tau = model_id, low_c, high_tau
    if best is None:
        return _PERSIST
    if best == m_prime:
        return _INCUMBENT_BEST
    return AdaptationPlan(
        best, f"switch {m_prime}->{best} (low_c={best_c:.4f}, v_adj={v_adj:.3f})"
    )


def execute(
    adaptation: AdaptationPlan,
    system,
    knowledge: Knowledge,
    switch_latency: float = DEFAULT_SWITCH_LATENCY,
) -> None:
    """Carry out a plan on the serving system and log the outcome.

    A switch pauses service intake for switch_latency, after which the target
    model (preloaded, so no load cost) is active. The system object must
    expose now, active_model, model_ids, and switch_model(target, pause).
    """
    log = knowledge.event_log
    if not adaptation.is_switch:
        log.sim_time.append(system.now)
        log.event.append(EVENT_NOOP)
        log.detail.append(adaptation.reason)
        return
    target = adaptation.target
    if target not in system.model_ids:
        raise ExecutionError(f"cannot switch to unknown model {target!r}")
    previous = system.active_model
    system.switch_model(target, switch_latency)
    now = system.now
    log.sim_time.append(now)
    log.event.append(EVENT_SWITCH)
    log.detail.append(f"{previous}->{target} effective {now + switch_latency:.6f}")


def naive_policy(v: float, config: NaivePolicyConfig) -> str:
    """Model of the first threshold whose bound covers v."""
    for bound, model_id in config.thresholds:
        if v <= bound:
            return model_id
    return config.thresholds[-1][1]


# KPIs whose live CI the planner reads, kept as exact integer moments.
CI_KPIS = ("tau_model", "c")


class _KpiWindow:
    """Rolling window of one model's completions with running KPI sums.

    It holds each completion's KPI row, in KPI_NAMES order. means() reads
    float running sums of the KPIs, whose rounding cluster matching has
    always used. ci() reads exact ones: for each CI KPI the window keeps the
    sums of x and x*x as integers (see _ExactMoments), so the sample mean
    and variance are exact rationals and ci() equals compute_ci over the
    same rows, bit for bit, at O(1) per read. Windows of fewer than
    MIN_NORMAL_SAMPLES rows keep compute_ci's (min, max) envelope.

    memo holds what derives from the rows alone until add empties it: each
    ci(kpi, level) under (kpi, level), and the analyzer's cluster match
    under the id of the model it was read under (see Analyzer). means()
    builds a fresh dict at every call, which the analyzer makes once per
    cluster match.
    """

    __slots__ = (
        "rows", "memo", "_maxlen", "_sum_c", "_sum_tau_model", "_sum_tau_system",
        "_sum_s_cpu", "_sum_b", "_moments",
    )

    def __init__(self, maxlen: int):
        self.rows: deque = deque()
        self.memo: dict = {}
        self._maxlen = maxlen
        # One float running sum per KPI_NAMES field.
        self._sum_c = self._sum_tau_model = self._sum_tau_system = 0.0
        self._sum_s_cpu = self._sum_b = 0.0
        self._moments = {kpi: _ExactMoments() for kpi in CI_KPIS}

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, kpis: tuple) -> None:
        rows = self.rows
        moments = self._moments
        c, tau_model, tau_system, s_cpu, b = kpis
        if len(rows) == self._maxlen:
            old_c, old_tau_model, old_tau_system, old_s_cpu, old_b = rows.popleft()
            # Each sum drops the old value, then takes the new one.
            self._sum_c = self._sum_c - old_c + c
            self._sum_tau_model = self._sum_tau_model - old_tau_model + tau_model
            self._sum_tau_system = self._sum_tau_system - old_tau_system + tau_system
            self._sum_s_cpu = self._sum_s_cpu - old_s_cpu + s_cpu
            self._sum_b = self._sum_b - old_b + b
            moments["tau_model"].slide(tau_model, old_tau_model)
            moments["c"].slide(c, old_c)
        else:
            self._sum_c += c
            self._sum_tau_model += tau_model
            self._sum_tau_system += tau_system
            self._sum_s_cpu += s_cpu
            self._sum_b += b
            moments["tau_model"].add(tau_model)
            moments["c"].add(c)
        rows.append(kpis)
        if self.memo:
            self.memo.clear()

    def means(self) -> dict[str, float]:
        """Per-KPI means of the rows from the running sums; {} when empty."""
        n = len(self.rows)
        if n == 0:
            return {}
        return {
            "c": self._sum_c / n,
            "tau_model": self._sum_tau_model / n,
            "tau_system": self._sum_tau_system / n,
            "s_cpu": self._sum_s_cpu / n,
            "b": self._sum_b / n,
        }

    def ci(self, kpi: str, level: float = DEFAULT_CI_LEVEL) -> CiEntry:
        """compute_ci of one CI KPI over the window's rows."""
        entry = self.memo.get((kpi, level))
        if entry is None:
            n = len(self.rows)
            if n < MIN_NORMAL_SAMPLES:
                index = KPI_NAMES.index(kpi)
                entry = compute_ci([kpis[index] for kpis in self.rows], level)
            else:
                moments = self._moments[kpi]
                entry = normal_ci(moments.mean(n), moments.stdev(n), n, level)
            self.memo[kpi, level] = entry
        return entry


class AdamlsController:
    """The adaptive policy: full MAPE-K loop bound to a Knowledge base.

    Driven by the simulator at every completion and periodic tick; each
    event costs O(1) in the window size and in the number of rule matrices.
    Per-model rolling windows keep running sums, so monitoring needs no pass
    over the window (the test suite's reference monitor, which rescans the
    completion log, is the behaviour it must match), and the live tau and c
    CIs come from exact integer moments (see _KpiWindow). What depends only
    on a rule matrix is built once per matrix, when the controller is
    created: the discriminating KPI pair, each cluster's anchor (mean, sd)
    on it, and each cluster's rule rows (model -> low_c, high_tau,
    capacity), from which the feasible rate range is read too. So a rule
    the planner cannot use (a tau CI lower bound <= 0) or a matrix without
    anchor KPI stats raises its RuleError before the first event.

    Every event reads v and i_w and runs v_adj, the range check and the
    debounce, and writes no row. The rest runs only when its inputs change:
    the window's means, the cluster match, the feasible range and the live
    CIs once per content of a model's window, which keeps them until its
    next completion, even across switches (see Analyzer and _KpiWindow),
    and the incumbent's live c CI only in a plan where its live capacity
    covers v_adj (see plan). Only a trigger writes to the event
    log: its ANALYZE_TRIGGER row, formatted from the state and the
    analyzer's last_match, its PLAN row (the plan's reason, which for a
    switch names low_c and v_adj) and execute's SWITCH or NOOP row.

    window_size, t_wait and switch_latency are the experiment's `simulation`
    settings; ci_level is the level the rules were learned at.
    """

    # Any event may trigger a plan, so the engine wakes it at every tick.
    wake_at = -math.inf

    def __init__(
        self,
        knowledge: Knowledge,
        window_size: int = DEFAULT_WINDOW_SIZE,
        t_wait: float = DEFAULT_T_WAIT,
        switch_latency: float = DEFAULT_SWITCH_LATENCY,
        ci_level: float = DEFAULT_CI_LEVEL,
    ):
        self.knowledge = knowledge
        self.switch_latency = switch_latency
        self.ci_level = ci_level
        self.analyzer = Analyzer(t_wait=t_wait)
        for matrix in knowledge.adaptation_rule_repository.values():
            matrix.derived(rule_rows)
            matrix.derived(_cluster_anchors)
        # One rolling window per model, empty until its first completion.
        self._windows: defaultdict[str, _KpiWindow] = defaultdict(
            lambda: _KpiWindow(window_size)
        )

    def note_completion(self, model_id: str, kpis: tuple) -> None:
        self._windows[model_id].add(kpis)

    def monitor(self, system) -> SystemState:
        """The active model's window, v read from the system's request
        stream up to the arrivals it has taken in (observed_rate), and i_w,
        the requests waiting or in service."""
        active = system.active_model
        v = observed_rate(system.arrival_times, system.now, system.arrived)
        return SystemState(active, self._windows[active], v, system.queue_depth)

    def on_event(self, system) -> None:
        state = self.monitor(system)
        planner_input = self.analyzer.analyze(state, self.knowledge, system.now)
        if planner_input is None:
            return
        v_adj, m_prime, cluster = planner_input
        _, v_min, v_max = self.analyzer.last_match
        now = system.now
        log = self.knowledge.event_log
        log.sim_time.append(now)
        log.event.append(EVENT_ANALYZE_TRIGGER)
        # repr round-trips, so the range check replays from the row alone.
        log.detail.append(
            f"v={state.v!r} i_w={state.i_w} v_adj={v_adj!r} v_min={v_min!r} "
            f"v_max={v_max!r} cluster={cluster} m'={m_prime}"
        )
        adaptation = plan(planner_input, self.knowledge, state.window, level=self.ci_level)
        log.sim_time.append(now)
        log.event.append(EVENT_PLAN)
        log.detail.append(adaptation.reason)
        execute(adaptation, system, self.knowledge, self.switch_latency)


class NaiveSwitcher:
    """Threshold baseline: switch whenever the rate crosses a preset bound.

    v is a per-second rate, so the thresholds are re-evaluated once per
    NAIVE_CHECK_INTERVAL; sub-second checks would only chase arrival noise.
    Each switch writes a PLAN row (the threshold crossing and its v) and
    execute's SWITCH row; a check that keeps the model writes nothing.

    It acts only at its checks, so wake_at, the earliest time the engine
    need wake it at a tick, is the next check's time. Once every arrival is
    in and a check reads v = 0, every later check reads 0 too and keeps the
    model naive_policy(0.0) that this one made active, so wake_at is inf:
    the engine serves what is left of the run without it.
    """

    def __init__(
        self,
        knowledge: Knowledge,
        config: NaivePolicyConfig,
        switch_latency: float = DEFAULT_SWITCH_LATENCY,
    ):
        self.knowledge = knowledge
        self.config = config
        self.switch_latency = switch_latency
        self._next_check = 0.0
        self.wake_at = 0.0

    def note_completion(self, model_id: str, kpis: tuple) -> None:
        pass

    def on_event(self, system) -> None:
        if system.now < self._next_check:
            return
        self._next_check = system.now + NAIVE_CHECK_INTERVAL
        v = observed_rate(system.arrival_times, system.now, system.arrived)
        idle = v == 0.0 and system.arrived == len(system.arrival_times)
        self.wake_at = math.inf if idle else self._next_check
        target = naive_policy(v, self.config)
        if target != system.active_model:
            # repr round-trips, so the switch replays from the PLAN row alone.
            adaptation = AdaptationPlan(target=target, reason=f"threshold crossing at v={v!r}")
            log = self.knowledge.event_log
            log.sim_time.append(system.now)
            log.event.append(EVENT_PLAN)
            log.detail.append(adaptation.reason)
            execute(adaptation, system, self.knowledge, self.switch_latency)
