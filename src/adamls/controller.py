"""MAPE-K control loop over the serving system, plus baseline policies.

The loop monitors a sliding window of recent completions, matches it to the
closest offline cluster, derives the feasible request-rate range from the
cluster's tau CI, and, when the adjusted rate leaves that range persistently,
plans a switch to the most accurate model whose rate capacity covers the
load. Baseline policies (fixed-threshold naive switching and static models)
live behind the same drive-on-event interface so the simulator treats every
policy uniformly; a policy's needs_ticks says whether the simulator should
also drive it at periodic ticks.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ExecutionError, RuleError, ValidationError
from .learning import (
    MIN_NORMAL_SAMPLES,
    CiEntry,
    CiMatrix,
    _ExactMoments,
    compute_ci,
    normal_ci,
)
from .profiles import KPI_NAMES

# Event types written to the event log.
EVENT_MONITOR = "MONITOR"
EVENT_ANALYZE_TRIGGER = "ANALYZE_TRIGGER"
EVENT_PLAN = "PLAN"
EVENT_SWITCH = "SWITCH"
EVENT_NOOP = "NOOP"

# KPIs tracked in the monitoring window: the profile KPIs plus response time.
WINDOW_KPIS = KPI_NAMES + ("r",)

DEFAULT_WINDOW_SIZE = 50
DEFAULT_T_WAIT = 0.25
DEFAULT_SWITCH_LATENCY = 0.005
RATE_HORIZON = 1.0  # seconds of trailing arrivals that define v


class LogEvent(NamedTuple):
    sim_time: float
    event: str
    detail: str


@dataclass
class Knowledge:
    """Shared knowledge base: adaptation rules and the controller's event log."""

    adaptation_rule_repository: dict[str, CiMatrix] = field(default_factory=dict)
    event_log: list[LogEvent] = field(default_factory=list)

    def log_event(self, sim_time: float, event: str, detail: str) -> None:
        self.event_log.append(LogEvent(sim_time, event, detail))

    def rules_for(self, model_id: str) -> CiMatrix:
        matrix = self.adaptation_rule_repository.get(model_id)
        if matrix is None:
            raise RuleError(f"no adaptation rules for model {model_id!r}")
        return matrix


@dataclass
class SystemState:
    """Monitor snapshot: live window of the active model plus load figures.

    The controller passes its rolling window of the active model itself, not
    a copy, so monitoring stays O(1) in the window size; the state is read
    within the event that made it, before the window changes. A model with
    no completions yet has an empty window.
    """

    m_prime: str
    window: _KpiWindow
    window_means: dict[str, float]
    v: float
    i_w: int
    sim_time: float


@dataclass(frozen=True)
class PlannerInput:
    v_adj: float
    m_prime: str
    cluster: int


@dataclass(frozen=True)
class AdaptationPlan:
    """Either a switch to `target` or, with target None, no operation."""

    target: str | None
    reason: str

    @property
    def is_switch(self) -> bool:
        return self.target is not None


@dataclass(frozen=True)
class NaivePolicyConfig:
    """Ascending (v upper bound, model) thresholds; the last bound is +inf."""

    thresholds: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "thresholds", tuple((float(b), m) for b, m in self.thresholds)
        )
        if not self.thresholds:
            raise ValidationError("naive policy needs at least one threshold")
        bounds = [b for b, _ in self.thresholds]
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError("naive thresholds must be strictly increasing")
        if bounds[-1] != math.inf:
            raise ValidationError("last naive threshold bound must be +inf")

    def model_ids(self) -> list[str]:
        return [m for _, m in self.thresholds]


def observed_rate(arrival_times, now: float, horizon: float = RATE_HORIZON) -> float:
    """Arrivals per second over the trailing (now - horizon, now] window."""
    hi = bisect_right(arrival_times, now)
    lo = bisect_right(arrival_times, now - horizon, 0, hi)
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
    if not state.window_means:
        raise ValidationError("find_closest_cluster: empty monitoring window")
    means = state.window_means
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
        _, high_tau, capacity = matrix.derived(_rule_rows)[cluster][m_prime]
    except KeyError:
        raise RuleError(
            f"rule matrix of {matrix.anchor_model_id!r} has no rule for model "
            f"{m_prime!r} in cluster {cluster}"
        ) from None
    return 1.0 / high_tau, capacity


def _rule_rows(matrix: CiMatrix) -> dict[int, dict[str, tuple[float, float, float]]]:
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
    """

    def __init__(self, t_wait: float = DEFAULT_T_WAIT):
        self.t_wait = t_wait
        self.last_cluster: int | None = None
        self._armed_at: float | None = None

    def analyze(self, state: SystemState, knowledge: Knowledge, now: float) -> PlannerInput | None:
        if not state.window_means:
            return None
        matrix = knowledge.rules_for(state.m_prime)
        cluster = find_closest_cluster(state, matrix)
        self.last_cluster = cluster
        v_min, v_max = feasible_rate_range(matrix, state.m_prime, cluster)
        v_adj = compute_adjusted_rate(state.v, state.i_w)
        if v_min <= v_adj <= v_max:
            self._armed_at = None
            return None
        if self._armed_at is None:
            self._armed_at = now
            return None
        if now - self._armed_at >= self.t_wait:
            self._armed_at = None
            return PlannerInput(v_adj=v_adj, m_prime=state.m_prime, cluster=cluster)
        return None


def plan(
    planner_input: PlannerInput,
    knowledge: Knowledge,
    live_window: _KpiWindow,
    blacklist: frozenset[str] = frozenset(),
    level: float = 0.90,
) -> AdaptationPlan:
    """Pick the most accurate model whose rate capacity covers v_adj.

    A model q is compatible when v_adj <= 1 / low(tau of q); the current
    model's tau and c CIs come from its live window (falling back to the rule
    matrix when the window is empty), every other model's from the current
    model's CI matrix. Among compatible models the winner maximizes low(c),
    ties broken by incumbent first, then smaller high(tau), then model id.
    """
    matrix = knowledge.rules_for(planner_input.m_prime)
    m_prime = planner_input.m_prime
    cluster = planner_input.cluster
    v_adj = planner_input.v_adj
    rows = matrix.derived(_rule_rows).get(cluster)
    if rows is None:
        raise RuleError(f"rule matrix of {m_prime!r} has no cluster {cluster}")
    candidates: list[tuple[str, float, float]] = []  # (model, low_c, high_tau)
    for model_id, row in rows.items():
        if model_id in blacklist:
            continue
        if model_id == m_prime and live_window:
            tau_ci = live_window.ci("tau_model", level)
            c_ci = live_window.ci("c", level)
            # A live CI can dip to a non-positive lower bound under extreme
            # variance; that reads as an unbounded nominal capacity.
            capacity = math.inf if tau_ci.low <= 0.0 else 1.0 / tau_ci.low
            row = (c_ci.low, tau_ci.high, capacity)
        low_c, high_tau, capacity = row
        if v_adj <= capacity:
            candidates.append((model_id, low_c, high_tau))
    if not candidates:
        return AdaptationPlan(target=None, reason="no suitable model; persisting")
    best = min(
        candidates,
        key=lambda t: (-t[1], 0 if t[0] == m_prime else 1, t[2], t[0]),
    )
    if best[0] == m_prime:
        return AdaptationPlan(target=None, reason="current model already best")
    return AdaptationPlan(
        target=best[0],
        reason=f"switch {m_prime}->{best[0]} (low_c={best[1]:.4f}, v_adj={v_adj:.3f})",
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
    if not adaptation.is_switch:
        knowledge.log_event(system.now, EVENT_NOOP, adaptation.reason)
        return
    target = adaptation.target
    if target not in system.model_ids:
        raise ExecutionError(f"cannot switch to unknown model {target!r}")
    previous = system.active_model
    system.switch_model(target, switch_latency)
    knowledge.log_event(
        system.now,
        EVENT_SWITCH,
        f"{previous}->{target} effective {system.now + switch_latency:.6f}",
    )


def naive_policy(v: float, config: NaivePolicyConfig) -> str:
    """Model of the first threshold whose bound covers v."""
    for bound, model_id in config.thresholds:
        if v <= bound:
            return model_id
    return config.thresholds[-1][1]


class DegradedModelTracker:
    """Optional blacklist of models whose live confidence degraded.

    A model is listed after `consecutive` analyses in a row where its live
    window-mean c sits below its rule-matrix low(c) minus `margin`. The list
    clears on the next learning batch (reset()). Disabled by default.
    """

    def __init__(self, margin: float = 0.05, consecutive: int = 3, enabled: bool = False):
        self.margin = margin
        self.consecutive = consecutive
        self.enabled = enabled
        self._streaks: dict[str, int] = {}
        self._listed: set[str] = set()

    def observe(self, model_id: str, window_mean_c: float, rule_low_c: float) -> None:
        if not self.enabled:
            return
        if window_mean_c < rule_low_c - self.margin:
            streak = self._streaks.get(model_id, 0) + 1
            self._streaks[model_id] = streak
            if streak >= self.consecutive:
                self._listed.add(model_id)
        else:
            self._streaks[model_id] = 0

    @property
    def blacklist(self) -> frozenset[str]:
        return frozenset(self._listed) if self.enabled else frozenset()

    def reset(self) -> None:
        self._streaks.clear()
        self._listed.clear()


# KPIs whose live CI the planner reads, kept as exact integer moments.
CI_KPIS = ("tau_model", "c")


class _KpiWindow:
    """Rolling window of one model's completions with running KPI sums.

    means() reads float running sums, whose rounding cluster matching has
    always used. ci() reads exact ones: for each CI KPI the window keeps the
    sums of x and x*x as integers (see _ExactMoments), so the sample mean
    and variance are exact rationals and ci() equals compute_ci over the
    same records, bit for bit, at O(1) per read. Windows of fewer than
    MIN_NORMAL_SAMPLES records keep compute_ci's (min, max) envelope.
    """

    __slots__ = ("records", "_sums", "_moments", "_maxlen")

    def __init__(self, maxlen: int):
        self.records: deque = deque()
        self._sums = {kpi: 0.0 for kpi in WINDOW_KPIS}
        self._moments = {kpi: _ExactMoments() for kpi in CI_KPIS}
        self._maxlen = maxlen

    @classmethod
    def of(cls, records) -> _KpiWindow:
        """A window holding exactly the given records."""
        records = tuple(records)
        window = cls(max(len(records), 1))
        for rec in records:
            window.add(rec)
        return window

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def add(self, rec) -> None:
        if len(self.records) == self._maxlen:
            old = self.records.popleft()
            for kpi in WINDOW_KPIS:
                self._sums[kpi] -= getattr(old, kpi)
            for kpi, moments in self._moments.items():
                moments.remove(getattr(old, kpi))
        self.records.append(rec)
        for kpi in WINDOW_KPIS:
            self._sums[kpi] += getattr(rec, kpi)
        for kpi, moments in self._moments.items():
            moments.add(getattr(rec, kpi))

    def means(self) -> dict[str, float]:
        n = len(self.records)
        if n == 0:
            return {}
        return {kpi: total / n for kpi, total in self._sums.items()}

    def ci(self, kpi: str, level: float = 0.90) -> CiEntry:
        """compute_ci of one CI KPI over the window's records."""
        n = len(self.records)
        if n < MIN_NORMAL_SAMPLES:
            return compute_ci([getattr(rec, kpi) for rec in self.records], level)
        moments = self._moments[kpi]
        return normal_ci(moments.mean(n), moments.stdev(n), n, level)


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
    """

    name = "adamls"
    needs_ticks = True

    def __init__(
        self,
        knowledge: Knowledge,
        window_size: int = DEFAULT_WINDOW_SIZE,
        t_wait: float = DEFAULT_T_WAIT,
        switch_latency: float = DEFAULT_SWITCH_LATENCY,
        ci_level: float = 0.90,
        degraded_tracker: DegradedModelTracker | None = None,
    ):
        self.knowledge = knowledge
        self.window_size = window_size
        self.switch_latency = switch_latency
        self.ci_level = ci_level
        self.analyzer = Analyzer(t_wait=t_wait)
        self.degraded = degraded_tracker or DegradedModelTracker(enabled=False)
        for matrix in knowledge.adaptation_rule_repository.values():
            matrix.derived(_rule_rows)
            matrix.derived(_cluster_anchors)
        # One rolling window per model, empty until its first completion.
        self._windows: defaultdict[str, _KpiWindow] = defaultdict(
            lambda: _KpiWindow(window_size)
        )

    def note_completion(self, rec) -> None:
        self._windows[rec.model_id].add(rec)

    def monitor(self, system) -> SystemState:
        active = system.active_model
        window = self._windows[active]
        state = SystemState(
            m_prime=active,
            window=window,
            window_means=window.means(),
            v=observed_rate(system.arrival_times, system.now),
            i_w=system.queue_depth,
            sim_time=system.now,
        )
        self.knowledge.log_event(
            system.now, EVENT_MONITOR, f"m'={active} v={state.v:g} i_w={state.i_w}"
        )
        return state

    def on_event(self, system) -> None:
        state = self.monitor(system)
        planner_input = self.analyzer.analyze(state, self.knowledge, system.now)
        if self.degraded.enabled and state.window_means and self.analyzer.last_cluster is not None:
            matrix = self.knowledge.rules_for(state.m_prime)
            self.degraded.observe(
                state.m_prime,
                state.window_means["c"],
                matrix.entry(self.analyzer.last_cluster, state.m_prime, "c").low,
            )
        if planner_input is None:
            return
        self.knowledge.log_event(
            system.now,
            EVENT_ANALYZE_TRIGGER,
            f"v_adj={planner_input.v_adj:g} cluster={planner_input.cluster} "
            f"m'={planner_input.m_prime}",
        )
        adaptation = plan(
            planner_input,
            self.knowledge,
            state.window,
            blacklist=self.degraded.blacklist,
            level=self.ci_level,
        )
        self.knowledge.log_event(
            system.now,
            EVENT_PLAN,
            adaptation.reason if not adaptation.is_switch else f"-> {adaptation.target}",
        )
        execute(adaptation, system, self.knowledge, self.switch_latency)


class NaiveSwitcher:
    """Threshold baseline: switch whenever the rate crosses a preset bound.

    v is a per-second rate, so the thresholds are re-evaluated once per
    second (check_interval); sub-second checks would only chase arrival noise
    inside one measurement window.
    """

    name = "naive"
    # The tick times decide when a check falls due.
    needs_ticks = True

    def __init__(
        self,
        knowledge: Knowledge,
        config: NaivePolicyConfig,
        switch_latency: float = DEFAULT_SWITCH_LATENCY,
        check_interval: float = 1.0,
    ):
        self.knowledge = knowledge
        self.config = config
        self.switch_latency = switch_latency
        self.check_interval = check_interval
        self._next_check = 0.0

    def note_completion(self, rec) -> None:
        pass

    def on_event(self, system) -> None:
        if system.now < self._next_check:
            return
        self._next_check = system.now + self.check_interval
        v = observed_rate(system.arrival_times, system.now)
        target = naive_policy(v, self.config)
        if target != system.active_model:
            adaptation = AdaptationPlan(target=target, reason=f"threshold crossing at v={v:g}")
            execute(adaptation, system, self.knowledge, self.switch_latency)


class StaticPolicy:
    """Baseline that never switches, so it needs no ticks."""

    needs_ticks = False

    def __init__(self, model_id: str):
        self.model_id = model_id
        self.name = f"static:{model_id}"

    def note_completion(self, rec) -> None:
        pass

    def on_event(self, system) -> None:
        pass
