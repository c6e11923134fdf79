"""Deterministic discrete-event simulation of the request-serving system.

Requests arrive per a segmented bursty workload, wait in an unbounded FIFO
queue, and are served by interchangeable workers. Service duration and KPIs
of each request are one record sampled uniformly (with replacement) from the
active model's profile. The switching policy runs at every completion and,
if it asks for them (needs_ticks), at a periodic tick; a model switch pauses
service intake for the switch latency.
Everything is driven by seeded RNGs, so runs are exactly reproducible.
"""

from __future__ import annotations

import csv
import heapq
import math
import random
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

from . import controller as ctrl
from .errors import ConfigError, ValidationError
from .profiles import KpiRecord, ModelProfile

RESULTS_CSV_HEADER = (
    "request_id",
    "arrival_t",
    "start_t",
    "finish_t",
    "model",
    "c",
    "tau_model",
    "tau_system",
    "s_cpu",
    "b",
    "r",
)

# Heap tie-break classes: completions before arrivals before ticks; resume
# events (end of a switch pause) run last at their timestamp.
_EV_COMPLETION = 0
_EV_ARRIVAL = 1
_EV_TICK = 2
_EV_RESUME = 3

ARRIVAL_PROCESSES = ("deterministic", "poisson")


class CompletionRecord(NamedTuple):
    """One served request: timing, the model used, and its sampled KPIs."""

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


@dataclass(frozen=True)
class WorkloadSpec:
    """Piecewise-constant arrival rate segments with a total request cap."""

    segments: tuple[tuple[float, float], ...]
    max_requests: int
    arrival_process: str = "poisson"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "segments", tuple((float(d), float(r)) for d, r in self.segments)
        )
        if not self.segments:
            raise ValidationError("workload needs at least one segment")
        for index, (duration, rate) in enumerate(self.segments):
            if not (math.isfinite(duration) and math.isfinite(rate)):
                raise ValidationError(
                    f"segment {index} (duration {duration}, rate {rate}): "
                    "duration and rate must be finite"
                )
            if duration <= 0.0:
                raise ValidationError(f"segment duration must be > 0, got {duration}")
            if rate < 0.0:
                raise ValidationError(f"segment rate must be >= 0, got {rate}")
        if self.max_requests < 1:
            raise ValidationError(f"max_requests must be >= 1, got {self.max_requests}")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ValidationError(
                f"arrival_process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrival_process!r}"
            )


@dataclass(frozen=True)
class PolicySpec:
    """Which switching policy drives the run."""

    kind: str  # "adamls" | "naive" | "static"
    static_model: str | None = None
    naive: ctrl.NaivePolicyConfig | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("adamls", "naive", "static"):
            raise ConfigError(f"unknown policy kind {self.kind!r}")
        if self.kind == "static" and not self.static_model:
            raise ConfigError("static policy needs static_model")
        if self.kind == "naive" and self.naive is None:
            raise ConfigError("naive policy needs thresholds")

    @property
    def label(self) -> str:
        return f"static:{self.static_model}" if self.kind == "static" else self.kind


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on, seeds included."""

    workload: WorkloadSpec
    profiles: tuple[ModelProfile, ...]
    policy: PolicySpec
    initial_model: str
    worker_count: int = 1
    switch_latency: float = ctrl.DEFAULT_SWITCH_LATENCY
    window_size: int = ctrl.DEFAULT_WINDOW_SIZE
    t_wait: float = ctrl.DEFAULT_T_WAIT
    tick_interval: float = 0.1
    service_seed: int = 0
    network_delay: float = 0.0
    ci_level: float = 0.90
    blacklist_enabled: bool = False
    blacklist_margin: float = 0.05
    blacklist_consecutive: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ConfigError("simulation needs at least one model profile")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")
        if self.tick_interval <= 0.0:
            raise ConfigError("tick_interval must be > 0")
        if self.switch_latency < 0.0 or self.t_wait < 0.0 or self.network_delay < 0.0:
            raise ConfigError("latencies and delays must be >= 0")
        if self.window_size < 1:
            raise ConfigError("window_size must be >= 1")
        model_ids = {p.model_id for p in self.profiles}
        if self.initial_model not in model_ids:
            raise ConfigError(f"initial_model {self.initial_model!r} has no profile")
        if self.policy.kind == "static" and self.policy.static_model not in model_ids:
            raise ConfigError(
                f"static model {self.policy.static_model!r} has no profile"
            )
        if self.policy.kind == "naive":
            unknown = set(self.policy.naive.model_ids()) - model_ids
            if unknown:
                raise ConfigError(f"naive thresholds name unknown models {sorted(unknown)}")


def generate_workload(spec: WorkloadSpec) -> list[float]:
    """Strictly increasing arrival times, at most max_requests of them.

    Deterministic mode spaces arrivals evenly within each segment; Poisson
    mode draws exponential inter-arrival gaps at the segment rate.
    Generation stops once max_requests arrivals exist; the generator draws
    in order, so they are the first max_requests of the whole workload.
    """
    rng = random.Random(spec.seed)
    cap = spec.max_requests
    arrivals: list[float] = []
    t0 = 0.0
    for duration, rate in spec.segments:
        end = t0 + duration
        if rate > 0.0:
            if spec.arrival_process == "deterministic":
                gap = 1.0 / rate
                count = min(int(math.floor(duration * rate + 1e-9)), cap - len(arrivals))
                arrivals.extend(t0 + gap * (i + 1) for i in range(count))
            else:
                t = t0
                while len(arrivals) < cap:
                    t += rng.expovariate(rate)
                    if t > end:
                        break
                    arrivals.append(t)
        t0 = end
    if not arrivals:
        raise ValidationError("workload produces no arrivals")
    return arrivals


def sample_kpis(
    model_id: str, profiles: Mapping[str, ModelProfile], rng: random.Random
) -> KpiRecord:
    """Uniform-with-replacement draw of one KPI record from a model profile."""
    profile = profiles.get(model_id)
    if profile is None:
        raise ConfigError(f"no profile for model {model_id!r}")
    records = profile.records
    return records[rng.randrange(len(records))]


class _Engine:
    """Event loop and serving state; doubles as the controller's system view."""

    def __init__(self, config: SimConfig, knowledge: ctrl.Knowledge):
        self.config = config
        self.knowledge = knowledge
        self.profiles = {p.model_id: p for p in config.profiles}
        self.model_ids = frozenset(self.profiles)
        self.now = 0.0
        self.active_model = _resolve_initial_model(config)
        self.arrival_times: list[float] = []
        self.completions: list[CompletionRecord] = []
        self._queue: deque[tuple[int, float]] = deque()
        self._free_workers = config.worker_count
        self._in_flight = 0
        self._intake_paused_until = 0.0
        self._rng = random.Random(config.service_seed)
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._pending_arrivals = 0
        self._policy = _build_policy(config, knowledge)

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + self._in_flight

    def switch_model(self, target: str, pause: float) -> None:
        # Intake stays paused through the switch, so no request can start on
        # the new model before now + pause; the model flips immediately.
        if target not in self.model_ids:
            raise ConfigError(f"no profile for model {target!r}")
        self.active_model = target
        if pause > 0.0:
            self._intake_paused_until = max(self._intake_paused_until, self.now + pause)
            self._push(self._intake_paused_until, _EV_RESUME, None)

    def run(self) -> list[CompletionRecord]:
        arrivals = generate_workload(self.config.workload)
        self._pending_arrivals = len(arrivals)
        for req_id, t in enumerate(arrivals):
            self._push(t, _EV_ARRIVAL, (req_id, t))
        # Each tick schedules the next; a policy that ignores ticks gets none.
        # Events of equal (time, class) still pop in push order.
        if self._policy.needs_ticks:
            self._push(self.config.tick_interval, _EV_TICK, None)
        while self._heap:
            self.now, klass, _, payload = heapq.heappop(self._heap)
            if klass == _EV_COMPLETION:
                self._on_completion(payload)
            elif klass == _EV_ARRIVAL:
                self._on_arrival(payload)
            elif klass == _EV_TICK:
                self._on_tick()
            else:
                self._dispatch()
        return self.completions

    def _push(self, time: float, klass: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, klass, self._seq, payload))

    def _on_arrival(self, payload: tuple[int, float]) -> None:
        self.arrival_times.append(payload[1])
        self._pending_arrivals -= 1
        self._queue.append(payload)
        self._dispatch()

    def _on_completion(self, rec: CompletionRecord) -> None:
        self.completions.append(rec)
        self._policy.note_completion(rec)
        self._in_flight -= 1
        self._free_workers += 1
        self._dispatch()
        self._policy.on_event(self)

    def _on_tick(self) -> None:
        self._policy.on_event(self)
        if self._pending_arrivals or self._queue or self._in_flight:
            self._push(self.now + self.config.tick_interval, _EV_TICK, None)

    def _dispatch(self) -> None:
        if self.now < self._intake_paused_until:
            return
        while self._free_workers and self._queue:
            req_id, arrival_t = self._queue.popleft()
            kpis = sample_kpis(self.active_model, self.profiles, self._rng)
            start = self.now
            finish = start + kpis.tau_system
            rec = CompletionRecord(
                request_id=req_id,
                arrival_t=arrival_t,
                start_t=start,
                finish_t=finish,
                model_id=self.active_model,
                c=kpis.c,
                tau_model=kpis.tau_model,
                tau_system=kpis.tau_system,
                s_cpu=kpis.s_cpu,
                b=kpis.b,
                r=finish - arrival_t + self.config.network_delay,
            )
            self._free_workers -= 1
            self._in_flight += 1
            self._push(finish, _EV_COMPLETION, rec)


def _resolve_initial_model(config: SimConfig) -> str:
    if config.policy.kind == "static":
        return config.policy.static_model
    if config.policy.kind == "naive":
        return ctrl.naive_policy(0.0, config.policy.naive)
    return config.initial_model


def _build_policy(config: SimConfig, knowledge: ctrl.Knowledge):
    if config.policy.kind == "static":
        return ctrl.StaticPolicy(config.policy.static_model)
    if config.policy.kind == "naive":
        return ctrl.NaiveSwitcher(knowledge, config.policy.naive, config.switch_latency)
    for model_id in sorted(p.model_id for p in config.profiles):
        matrix = knowledge.adaptation_rule_repository.get(model_id)
        if matrix is None:
            raise ConfigError(
                f"adamls policy requires adaptation rules for model {model_id!r}; "
                "run the learning engine first"
            )
        if not matrix.anchor_kpi_std:
            raise ConfigError(
                f"adaptation rules for model {model_id!r} lack anchor KPI stats; "
                "attach them from the profile"
            )
    tracker = ctrl.DegradedModelTracker(
        margin=config.blacklist_margin,
        consecutive=config.blacklist_consecutive,
        enabled=config.blacklist_enabled,
    )
    return ctrl.AdamlsController(
        knowledge,
        window_size=config.window_size,
        t_wait=config.t_wait,
        switch_latency=config.switch_latency,
        ci_level=config.ci_level,
        degraded_tracker=tracker,
    )


def run_simulation(
    config: SimConfig, knowledge: ctrl.Knowledge | None = None
) -> tuple[list[CompletionRecord], list[ctrl.LogEvent]]:
    """Run one full simulation; returns completions (by finish time) and events."""
    if knowledge is None:
        knowledge = ctrl.Knowledge()
    engine = _Engine(config, knowledge)
    completions = engine.run()
    return completions, knowledge.event_log


def write_results_csv(records, path) -> None:
    # A CompletionRecord's fields are in header order, and csv.writer writes
    # each float as its repr.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_CSV_HEADER)
        writer.writerows(records)


def write_event_log_csv(events, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sim_time", "event", "detail"))
        writer.writerows(events)
