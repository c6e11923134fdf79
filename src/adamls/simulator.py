"""Deterministic discrete-event simulation of the request-serving system.

A run serves one request stream (Requests): request j arrives at
arrival_t[j] and is served from image row[j], whichever model serves it.
build_requests draws both from seeded RNGs, so runs are exactly
reproducible, and the runs of one compare share one stream (common random
numbers). Requests wait in an unbounded FIFO queue and are served by
interchangeable workers; a request's service duration and KPIs come from
its row of the active model's profile, read the first time a run serves
that row and cached for the rest of the run. The switching policy runs at
every completion and, if it asks for them (needs_ticks), at a periodic
tick; a model switch pauses service intake for the switch latency.

The stream is in time order, and a tick falls due a fixed interval after the
one before, so both stream past the event heap instead of going through it:
the engine ranks the next arrival and the next tick against the heap's top,
and the heap holds only the completions in flight (at most one per worker)
and the pending resumes.

A run appends each completion to one Completions, a list per column, each
request's drawn row index and shared KPI row among them, and its policy
writes its steps to one EventLog, a list per column too (see controller).
write_results_csv and write_event_log_csv write them with the bytes
csv.writer gives. The files of one compare share a ResultTexts, so a value
that repeats across them (an arrival time, the KPIs of one profile row) is
formatted once per compare rather than once per row.
"""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from dataclasses import dataclass, field

from . import controller as ctrl
from .csvtext import TextMemo, column_texts, joined_texts, write_columns
from .errors import ConfigError, ValidationError
from .learning import DEFAULT_CI_LEVEL
from .profiles import ModelProfile, check_numbers, image_order_mismatch

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

# Event classes, the tie-break at one timestamp: completions before arrivals
# before ticks; resume events (end of a switch pause) run last. Arrivals and
# ticks never enter the heap; the next of each is ranked against the heap's
# top by the key (time, class), which sorts exactly where the heap would have
# put it, since the heap's events of equal (time, class) run in push order
# and neither stream has two events pending at once.
_EV_COMPLETION = 0
_EV_ARRIVAL = 1
_EV_TICK = 2
_EV_RESUME = 3

# The tick key while no tick is pending: it sorts after every finite event.
_NO_TICK = (math.inf, _EV_TICK)
# The last arrival key: once the arrivals are in, everything else runs.
_END = (math.inf, _EV_ARRIVAL)

ARRIVAL_PROCESSES = ("deterministic", "poisson")


@dataclass(frozen=True, slots=True)
class Completions:
    """A run's served requests, by finish time, one list per column.

    Item i of each column belongs to the i-th request served. row is the
    image index it drew, the same in every profile and in learning's join;
    kpis is that row's (c, tau_model, tau_system, s_cpu, b), a tuple shared
    by every request that drew it. len() counts requests."""

    request_id: list = field(default_factory=list)
    arrival_t: list = field(default_factory=list)
    start_t: list = field(default_factory=list)
    finish_t: list = field(default_factory=list)
    model_id: list = field(default_factory=list)
    row: list = field(default_factory=list)
    kpis: list = field(default_factory=list)
    r: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.request_id)


# Bursty base cycle (duration s, rate rps): a low-rate floor with one spike
# per cycle that ramps up to the 28 rps peak and back down, the way flash
# crowds build over seconds rather than stepping instantaneously.
_BURST_CYCLE = (
    (30.0, 2.0), (14.0, 4.0), (20.0, 3.0), (2.0, 10.0), (2.0, 18.0), (4.0, 28.0),
    (2.0, 12.0), (22.0, 4.0), (16.0, 2.0), (18.0, 3.0), (10.0, 4.0), (10.0, 1.0),
)
DEFAULT_SEGMENTS = _BURST_CYCLE * 9


@dataclass(frozen=True)
class WorkloadConfig:
    """The experiment's `workload` section, range-checked when it is built:
    (duration s, rate rps) segments, played in order, and a cap on arrivals."""

    segments: tuple[tuple[float, float], ...] = DEFAULT_SEGMENTS
    max_requests: int = 5000
    arrival_process: str = "poisson"

    def __post_init__(self) -> None:
        check_numbers(self, "workload")
        object.__setattr__(self, "segments", tuple((float(d), float(r)) for d, r in self.segments))
        if not self.segments:
            raise ConfigError("workload.segments needs at least one segment")
        for index, (duration, rate) in enumerate(self.segments):
            # Written so that a NaN fails it too.
            if not (0.0 < duration < math.inf and 0.0 <= rate < math.inf):
                raise ConfigError(
                    f"workload.segments[{index}] needs a finite duration > 0 and a finite "
                    f"rate >= 0, got ({duration}, {rate})"
                )
        if self.max_requests < 1:
            raise ConfigError(f"workload.max_requests must be >= 1, got {self.max_requests}")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise ConfigError(
                f"workload.arrival_process must be one of {ARRIVAL_PROCESSES}, "
                f"got {self.arrival_process!r}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """The `workload` section and the seed of its arrival draws."""

    workload: WorkloadConfig
    seed: int = 0


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
class SimulationConfig:
    """The experiment's `simulation` section, checked when it is built.

    Whether initial_model has a profile is checked by SimConfig.
    """

    worker_count: int = 1
    switch_latency: float = ctrl.DEFAULT_SWITCH_LATENCY
    window_size: int = ctrl.DEFAULT_WINDOW_SIZE
    t_wait: float = ctrl.DEFAULT_T_WAIT
    tick_interval: float = 0.1
    network_delay: float = 0.0
    initial_model: str = "xlarge"

    def __post_init__(self) -> None:
        check_numbers(self, "simulation")
        if self.worker_count < 1:
            raise ConfigError(f"simulation.worker_count must be >= 1, got {self.worker_count}")
        if self.tick_interval <= 0.0:
            raise ConfigError(f"simulation.tick_interval must be > 0, got {self.tick_interval}")
        for key in ("switch_latency", "t_wait", "network_delay"):
            if getattr(self, key) < 0.0:
                raise ConfigError(f"simulation.{key} must be >= 0, got {getattr(self, key)}")
        if self.window_size < 1:
            raise ConfigError(f"simulation.window_size must be >= 1, got {self.window_size}")


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on, seeds included.

    The profiles must share one image order (see
    profiles.image_order_mismatch), so that a drawn row index names one image
    whichever model serves it. ci_level is the level the rules were learned
    at; the live CIs use it too.
    """

    workload: WorkloadSpec
    profiles: tuple[ModelProfile, ...]
    policy: PolicySpec
    simulation: SimulationConfig
    service_seed: int = 0
    ci_level: float = DEFAULT_CI_LEVEL

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ConfigError("simulation needs at least one model profile")
        if mismatch := image_order_mismatch(self.profiles):
            raise ConfigError(mismatch)
        model_ids = {p.model_id for p in self.profiles}
        initial_model = self.simulation.initial_model
        if initial_model not in model_ids:
            raise ConfigError(f"initial_model {initial_model!r} has no profile")
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
    workload = spec.workload
    rng = random.Random(spec.seed)
    cap = workload.max_requests
    arrivals: list[float] = []
    t0 = 0.0
    for duration, rate in workload.segments:
        end = t0 + duration
        if rate > 0.0:
            if workload.arrival_process == "deterministic":
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


@dataclass(frozen=True, slots=True)
class Requests:
    """A request stream, one list per column: request j arrives at
    arrival_t[j] and is served from image row[j] under whichever model
    serves it. len() counts requests."""

    arrival_t: list
    row: list

    def __len__(self) -> int:
        return len(self.arrival_t)


def build_requests(spec: WorkloadSpec, service_seed: int, image_count: int) -> Requests:
    """The workload's arrivals, each paired with an image index drawn
    uniformly from image_count by random.Random(service_seed), in request
    order. This is the only place a request's image is decided."""
    arrival_t = generate_workload(spec)
    rng = random.Random(service_seed)
    return Requests(arrival_t, [rng.randrange(image_count) for _ in arrival_t])


class _Engine:
    """Event loop and serving state; doubles as the controller's system view."""

    def __init__(self, config: SimConfig, knowledge: ctrl.Knowledge):
        self.knowledge = knowledge
        self.profiles = {p.model_id: p for p in config.profiles}
        # Per model, row i as (c, tau_model, tau_system, s_cpu, b) once drawn.
        self._rows = {p.model_id: [None] * len(p.image_id) for p in config.profiles}
        self.model_ids = frozenset(self.profiles)
        self.now = 0.0
        self.active_model = _resolve_initial_model(config)
        self.arrival_times: list[float] = []
        self.completions = Completions()
        # (request id, arrival time, image row) of each waiting request.
        self._queue: deque[tuple[int, float, int]] = deque()
        self._free_workers = config.simulation.worker_count
        # Read on every dispatch and every tick.
        self._network_delay = config.simulation.network_delay
        self._tick_interval = config.simulation.tick_interval
        self._in_flight = 0
        self._intake_paused_until = 0.0
        # Completions in flight and pending resumes; see _run_until.
        self._heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._next_tick = _NO_TICK
        self._pending_arrivals = 0
        self._policy = _build_policy(config, knowledge)

    @property
    def queue_depth(self) -> int:
        return len(self._queue) + self._in_flight

    def switch_model(self, target: str, pause: float) -> None:
        # Intake stays paused through the switch, so no request can start on
        # the new model before now + pause; the model flips immediately.
        # controller.execute has already rejected a target without a profile.
        self.active_model = target
        if pause > 0.0:
            self._intake_paused_until = max(self._intake_paused_until, self.now + pause)
            self._push(self._intake_paused_until, _EV_RESUME, None)

    def run(self, requests: Requests) -> Completions:
        self._pending_arrivals = len(requests)
        # Each tick schedules the next; a policy that ignores ticks gets none.
        if self._policy.needs_ticks:
            self._next_tick = (self._tick_interval, _EV_TICK)
        for req_id, (t, row) in enumerate(zip(requests.arrival_t, requests.row)):
            self._run_until((t, _EV_ARRIVAL))
            self.now = t
            self.arrival_times.append(t)
            self._pending_arrivals -= 1
            self._queue.append((req_id, t, row))
            self._dispatch()
        self._run_until(_END)
        return self.completions

    def _run_until(self, key: tuple[float, int]) -> None:
        """Run the heap events and ticks that sort before key, in order."""
        heap = self._heap
        while True:
            tick = self._next_tick
            if heap and heap[0] < key and heap[0] < tick:
                self.now, klass, _, payload = heapq.heappop(heap)
                if klass == _EV_COMPLETION:
                    self._on_completion(payload)
                else:
                    self._dispatch()
            elif tick < key:
                self._on_tick()
            else:
                return

    def _push(self, time: float, klass: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, klass, self._seq, payload))

    def _on_completion(self, served: tuple) -> None:
        request_id, arrival_t, start_t, finish_t, model_id, row, kpis, r = served
        log = self.completions
        log.request_id.append(request_id)
        log.arrival_t.append(arrival_t)
        log.start_t.append(start_t)
        log.finish_t.append(finish_t)
        log.model_id.append(model_id)
        log.row.append(row)
        log.kpis.append(kpis)
        log.r.append(r)
        self._policy.note_completion(model_id, kpis)
        self._in_flight -= 1
        self._free_workers += 1
        self._dispatch()
        self._policy.on_event(self)

    def _on_tick(self) -> None:
        self.now = self._next_tick[0]
        self._policy.on_event(self)
        if self._pending_arrivals or self._queue or self._in_flight:
            self._next_tick = (self.now + self._tick_interval, _EV_TICK)
        else:
            self._next_tick = _NO_TICK

    def _dispatch(self) -> None:
        if self.now < self._intake_paused_until:
            return
        while self._free_workers and self._queue:
            req_id, arrival_t, i = self._queue.popleft()
            model = self.active_model
            rows = self._rows[model]
            kpis = rows[i]
            if kpis is None:
                c, tau_model, tau_system, s_cpu, b = self.profiles[model].kpi_table[i].tolist()
                kpis = rows[i] = (c, tau_model, tau_system, s_cpu, int(b))
            start = self.now
            finish = start + kpis[2]  # tau_system
            served = (
                req_id, arrival_t, start, finish, model, i, kpis,
                finish - arrival_t + self._network_delay,
            )
            self._free_workers -= 1
            self._in_flight += 1
            self._push(finish, _EV_COMPLETION, served)


def _resolve_initial_model(config: SimConfig) -> str:
    if config.policy.kind == "static":
        return config.policy.static_model
    if config.policy.kind == "naive":
        return ctrl.naive_policy(0.0, config.policy.naive)
    return config.simulation.initial_model


def _build_policy(config: SimConfig, knowledge: ctrl.Knowledge):
    sim = config.simulation
    if config.policy.kind == "static":
        return ctrl.StaticPolicy()
    if config.policy.kind == "naive":
        return ctrl.NaiveSwitcher(knowledge, config.policy.naive, sim.switch_latency)
    model_ids = sorted(p.model_id for p in config.profiles)
    for model_id in model_ids:
        matrix = knowledge.adaptation_rule_repository.get(model_id)
        if matrix is None:
            raise ConfigError(
                f"adamls policy requires adaptation rules for model {model_id!r}; "
                "run the learning engine first"
            )
        if matrix.model_ids() != model_ids:
            raise ConfigError(
                f"rules of anchor model {matrix.anchor_model_id!r} cover models "
                f"{matrix.model_ids()}, but the profiled models are {model_ids}"
            )
    return ctrl.AdamlsController(
        knowledge,
        window_size=sim.window_size,
        t_wait=sim.t_wait,
        switch_latency=sim.switch_latency,
        ci_level=config.ci_level,
    )


def run_simulation(
    config: SimConfig, knowledge: ctrl.Knowledge | None = None, requests: Requests | None = None
) -> tuple[Completions, ctrl.EventLog]:
    """Run one full simulation; returns its Completions (by finish time) and
    the EventLog its policy wrote to the knowledge's event_log.

    The run serves requests, or without it the stream of config's own
    workload and service_seed; a passed stream must draw only rows that the
    profiles hold."""
    image_count = len(config.profiles[0].image_id)
    if requests is None:
        requests = build_requests(config.workload, config.service_seed, image_count)
    elif len(requests.row) != len(requests):
        raise ConfigError(
            f"the request stream has {len(requests)} arrivals but {len(requests.row)} image rows"
        )
    elif requests.row and not 0 <= min(requests.row) <= max(requests.row) < image_count:
        raise ConfigError(
            f"the request stream draws from {max(requests.row) + 1} images (rows "
            f"{min(requests.row)} to {max(requests.row)}), but the profiles hold {image_count}"
        )
    if knowledge is None:
        knowledge = ctrl.Knowledge()
    engine = _Engine(config, knowledge)
    completions = engine.run(requests)
    return completions, knowledge.event_log


class ResultTexts:
    """The results.csv field texts that the files of one compare share.

    The runs of one compare serve one request stream, so arrival_t repeats
    in every file, and draw from the same profiles, so the joined c..b text
    of each drawn row is kept by its (model, row). A request starts when it
    arrives, when an earlier one finishes or when a switch pause ends, so
    each file looks its start_t up among the arrival texts and its own
    finish texts. finish_t and r are new in every row and are formatted as
    they come. Any Completions may go through it, in any order, if a
    (model, row) names one KPI tuple in all of them: a kept text is the one
    csv.writer gives, and sharing only saves work where values repeat.
    """

    def __init__(self):
        self._arrivals = TextMemo()
        self._kpis: dict[tuple[str, int], str] = {}

    def file_texts(self):
        """The csvtext.write_columns texts function of one results file."""
        times = self._arrivals.copy()

        def texts(columns):
            request_id, arrival_t, start_t, finish_t, model, row, kpis, r = columns
            finish_texts = list(column_texts(finish_t))
            times.keep(finish_t, finish_texts)
            return (
                column_texts(request_id),
                self._arrivals.texts(arrival_t),
                times.texts(start_t),
                finish_texts,
                column_texts(model),
                self._kpi_texts(model, row, kpis),
                column_texts(r),
            )

        return texts

    def _kpi_texts(self, model, row, kpis) -> list[str]:
        """The kept texts; a block's new rows are formatted together."""
        kept = self._kpis
        texts = list(map(kept.get, zip(model, row)))
        if None in texts:
            new = {(model[j], row[j]): kpis[j] for j, text in enumerate(texts) if text is None}
            kept.update(zip(new, joined_texts(new.values())))
            texts = list(map(kept.__getitem__, zip(model, row)))
        return texts


def write_results_csv(completions: Completions, path, texts: ResultTexts | None = None) -> None:
    """Write completions to path, a row per request in RESULTS_CSV_HEADER's order.

    The files of one compare share texts; without it the file gets its own.
    """
    texts = ResultTexts() if texts is None else texts
    columns = [getattr(completions, name) for name in Completions.__slots__]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_columns(fh, RESULTS_CSV_HEADER, columns, texts.file_texts())


def write_event_log_csv(events: ctrl.EventLog, path) -> None:
    """Write an EventLog to path, a row per event: sim_time, event, detail."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        columns = (events.sim_time, events.event, events.detail)
        write_columns(fh, ("sim_time", "event", "detail"), columns)
