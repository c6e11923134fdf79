"""Deterministic discrete-event simulation of the request-serving system.

A run serves one request stream (Requests): request j arrives at
arrival_t[j] and is served from image row[j], whichever model serves it.
build_requests draws both from seeded RNGs, so runs are exactly
reproducible, and the runs of one compare share one stream (common random
numbers). run_simulation takes its stream as given and builds none of its
own; config.build_request_stream derives an experiment's one stream from its
master seed. Requests wait in an unbounded FIFO queue and are served by
interchangeable workers; a request's service duration and KPIs come from
its row of the active model's profile, the one tuple the profile keeps for
that row (ModelProfile.kpi_tuples), which every run shares.

Only an adamls or naive run goes through the event engine: its policy runs
at every completion and at a periodic tick, and a model switch pauses
service intake for the switch latency. Nothing ever acts on a static run, so
it is a plain FIFO queue whose completions follow from the stream alone, and
run_simulation serves it by the queue recursion (_serve_static), with the
very columns the engine would give.

A policy's wake_at is the earliest time at which it can act. adamls can act
at every event; naive acts only at its once-a-second checks, so the engine
runs only the ticks at or after its next check, on the same tick grid. Once
every arrival is in and a naive check reads no load, no later check can
act (wake_at is inf), so the engine hands the requests not yet started to
the queue recursion, starting from its workers' state, and stops.

The stream is in time order, and a tick falls due a fixed interval after the
one before, so both stream past the event heap instead of going through it:
the engine ranks the next arrival and the next tick against the heap's top,
and the heap holds only the completions in flight (at most one per worker)
and the pending resumes.

The stream is the only record of a request. Requests start in id order, so
the engine holds no queue, only counts (arrived, started, completed), and
the policies read v from the stream's first arrived times. Both run paths
keep request j's start_t, finish_t, model and KPI tuple at index j, and
_completions turns them into the run's Completions, a list per column by
finish time with ties by request_id. Its policy writes its steps to one
EventLog (see controller). write_results_csv and write_event_log_csv write
them with the bytes csv.writer gives. A results file goes through a
ResultTexts of its stream, shared by the files of one compare, so a text
that repeats across them (a request's request_id,arrival_t, the KPIs of one
profile row) is formatted once per compare and looked up by request_id.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from collections import defaultdict
from dataclasses import dataclass, field

from . import controller as ctrl
from .csvtext import TextMemo, column_texts, joined_texts, write_columns
from .errors import ConfigError, ValidationError
from .learning import DEFAULT_CI_LEVEL
from .profiles import ModelProfile, check_fields, check_pairs, image_order_mismatch, is_integer

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
# put it, since neither stream has two events pending at once. Completions
# at one instant run by request id, the third item of a heap entry.
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

    Item i of each column belongs to the i-th request served. request_id
    names it in the run's request stream, which alone holds its arrival_t
    and the image row it drew; kpis is that row's (c, tau_model,
    tau_system, s_cpu, b) under model_id, a tuple shared by every request
    that drew it. len() counts requests."""

    request_id: list = field(default_factory=list)
    start_t: list = field(default_factory=list)
    finish_t: list = field(default_factory=list)
    model_id: list = field(default_factory=list)
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
    """The experiment's `workload` section, checked when it is built:
    (duration s, rate rps) segments, played in order, and a cap on arrivals."""

    segments: tuple[tuple[float, float], ...] = DEFAULT_SEGMENTS
    max_requests: int = 5000
    arrival_process: str = "poisson"

    def __post_init__(self) -> None:
        check_fields(self, "workload")
        check_pairs(self.segments, ("segment", "segment"), "workload.segments", "[duration, rate]")
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
    initial_model: str = "xlarge"

    def __post_init__(self) -> None:
        check_fields(self, "simulation")
        if self.worker_count < 1:
            raise ConfigError(f"simulation.worker_count must be >= 1, got {self.worker_count}")
        if self.tick_interval <= 0.0:
            raise ConfigError(f"simulation.tick_interval must be > 0, got {self.tick_interval}")
        for key in ("switch_latency", "t_wait"):
            if getattr(self, key) < 0.0:
                raise ConfigError(f"simulation.{key} must be >= 0, got {getattr(self, key)}")
        if self.window_size < 1:
            raise ConfigError(f"simulation.window_size must be >= 1, got {self.window_size}")


@dataclass(frozen=True)
class SimConfig:
    """Everything one simulation run depends on but its request stream,
    which run_simulation takes as given.

    The profiles must share one image order (see
    profiles.image_order_mismatch), so that a drawn row index names one image
    whichever model serves it. ci_level is the level the rules were learned
    at; the live CIs use it too.
    """

    profiles: tuple[ModelProfile, ...]
    policy: PolicySpec
    simulation: SimulationConfig
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
                # Capped before the floor, which an overflow to inf would fail.
                count = int(min(duration * rate + 1e-9, cap - len(arrivals)))
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


_TIME_TYPES = frozenset((float, int))
# The least int that float() overflows on; every finite float is below it.
_FLOAT_LIMIT = 2**1024 - 2**970


@dataclass(frozen=True, slots=True)
class Requests:
    """A request stream, one list per column: request j arrives at
    arrival_t[j] and is served from image row[j] under whichever model
    serves it. It is the only record of a request's arrival time and row.
    The stream runs forward in time: its arrival times are floats or ints
    (a bool is neither), finite, >= 0 and in non-decreasing order, and its
    rows are ints, checked once when it is built."""

    arrival_t: list
    row: list

    def __post_init__(self) -> None:
        times = self.arrival_t
        if len(self.row) != len(times):
            raise ConfigError(
                f"the request stream has {len(times)} arrivals but {len(self.row)} image rows"
            )
        if not all(map(is_integer, self.row)):
            j, row = next((j, row) for j, row in enumerate(self.row) if not is_integer(row))
            raise ConfigError(f"the request stream's row[{j}] is {row!r}; it must be an integer")
        # In C when every time is a float or an int (a bool is neither); a
        # NaN anywhere fails the order test or a bound, and so does an int
        # with no float value, since the last time is the largest.
        if set(map(type, times)) <= _TIME_TYPES and times and 0.0 <= times[0] and (
            times[-1] < _FLOAT_LIMIT and all(map(operator.le, times, times[1:]))
        ):
            return
        previous = 0.0
        for j, t in enumerate(times):
            if type(t) not in _TIME_TYPES:
                raise ConfigError(
                    f"the request stream's arrival_t[{j}] is {t!r}; it must be a number"
                )
            # Its size, not its digits: str() refuses an int of over 4300.
            if type(t) is int and not -_FLOAT_LIMIT < t < _FLOAT_LIMIT:
                raise ConfigError(
                    f"the request stream's arrival_t[{j}] is an int of {t.bit_length()} bits; "
                    "it has no float value"
                )
            if not 0.0 <= t < math.inf:
                raise ConfigError(
                    f"the request stream's arrival_t[{j}] is {t}; it must be finite and >= 0"
                )
            if t < previous:
                raise ConfigError(
                    f"the request stream's arrival_t[{j}] is {t}, before arrival_t[{j - 1}] = "
                    f"{previous}; arrivals must be in time order"
                )
            previous = t


def build_requests(spec: WorkloadSpec, service_seed: int, image_count: int) -> Requests:
    """The workload's arrivals, each paired with an image index drawn
    uniformly from image_count by random.Random(service_seed), in request
    order. This is the only place a request's image is decided."""
    arrival_t = generate_workload(spec)
    rng = random.Random(service_seed)
    return Requests(arrival_t, [rng.randrange(image_count) for _ in arrival_t])


class _Engine:
    """Event loop and serving state; doubles as the controller's system view.

    Requests arrive and start in id order, so counts stand for the queue:
    it holds the ids _started to arrived - 1. Request j's start_t, finish_t,
    model and KPI tuple (its profile's, see ModelProfile.kpi_tuples) go to
    index j of the columns when it starts.

    The policy runs at every completion, and at a tick only from its
    wake_at on: each tick is the one before plus tick_interval, as floats,
    but the engine runs the first tick of that grid at or after wake_at and
    skips the ones before it, which would call a policy that cannot act.
    The run ends at the first tick at or after the last completion; if that
    tick was skipped, it ends there with no policy call. Once wake_at is
    inf, the policy can never act again, so the engine serves the requests
    not yet started by the queue recursion (_serve_static) from the
    workers' state and empties its heap."""

    def __init__(self, config: SimConfig, knowledge: ctrl.Knowledge):
        self.profiles = {p.model_id: p for p in config.profiles}
        self.model_ids = frozenset(self.profiles)
        self.now = 0.0
        self.active_model = _resolve_initial_model(config)
        # The stream's arrival times and rows, of which the first `arrived` are in.
        self.arrival_times: list = []
        self._image_rows: list = []
        self.arrived = self._started = self._completed = self._request_count = 0
        self._start_t, self._finish_t, self._model_id, self._kpis = [], [], [], []
        self._worker_count = config.simulation.worker_count
        # Read on every tick.
        self._tick_interval = config.simulation.tick_interval
        self._intake_paused_until = 0.0
        # Completions in flight (finish, class, request id) and pending resumes; see _run_until.
        self._heap: list[tuple[float, int, int | None]] = []
        # Each tick schedules the next, the first of the grid at or after
        # the policy's wake_at; the last tick skipped on the way, if any.
        self._next_tick = (self._tick_interval, _EV_TICK)
        self._last_skipped = -math.inf
        self._policy = _build_policy(config, knowledge)

    @property
    def queue_depth(self) -> int:
        """i_w: the requests taken in and not yet completed, waiting or in service."""
        return self.arrived - self._completed

    def switch_model(self, target: str, pause: float) -> None:
        # Intake stays paused through the switch, so no request can start on
        # the new model before now + pause; the model flips immediately.
        # controller.execute has already rejected a target without a profile.
        self.active_model = target
        if pause > 0.0:
            self._intake_paused_until = max(self._intake_paused_until, self.now + pause)
            self._push(self._intake_paused_until, _EV_RESUME, None)

    def run(self, requests: Requests) -> Completions:
        self.arrival_times = requests.arrival_t
        self._image_rows = requests.row
        self._request_count = len(requests.arrival_t)
        for t in requests.arrival_t:
            self._run_until((t, _EV_ARRIVAL))
            self.now = t
            self.arrived += 1
            self._dispatch()
        self._run_until(_END)
        return _completions(
            requests.arrival_t, self._start_t, self._finish_t, self._model_id, self._kpis
        )

    def _run_until(self, key: tuple[float, int]) -> None:
        """Run the heap events and ticks that sort before key, in order."""
        heap = self._heap
        while True:
            tick = self._next_tick
            if heap and heap[0] < key and heap[0] < tick:
                self.now, klass, request_id = heapq.heappop(heap)
                if klass == _EV_COMPLETION:
                    self._on_completion(request_id)
                else:
                    self._dispatch()
            elif tick < key:
                self._on_tick()
            else:
                return

    def _push(self, time: float, klass: int, payload) -> None:
        heapq.heappush(self._heap, (time, klass, payload))

    def _on_completion(self, request_id: int) -> None:
        self._completed += 1
        self._policy.note_completion(self._model_id[request_id], self._kpis[request_id])
        self._dispatch()
        self._policy.on_event(self)

    def _on_tick(self) -> None:
        self.now = now = self._next_tick[0]
        policy = self._policy
        if self._completed == self._request_count:
            # The first tick at or after the last completion ends the run,
            # with no policy call if it was skipped.
            self._next_tick = _NO_TICK
            if not self._finish_t or self._last_skipped < max(self._finish_t):
                policy.on_event(self)
            return
        policy.on_event(self)
        tick = now + self._tick_interval
        wake = policy.wake_at
        if tick < wake:
            if wake == math.inf:
                self._serve_idle_tail()
                return
            interval = self._tick_interval
            while tick < wake:
                skipped = tick
                tick += interval
            self._last_skipped = skipped
        self._next_tick = (tick, _EV_TICK)

    def _serve_idle_tail(self) -> None:
        """No policy call can act any more: serve the requests not yet
        started by the queue recursion and end the event loop.

        Each worker is free at its request's finish, or now if it is idle,
        but no request starts before a pending switch pause ends."""
        self._next_tick = _NO_TICK
        heap = self._heap
        resume = self._intake_paused_until
        busy = [max(finish, resume) for finish, klass, _ in heap if klass == _EV_COMPLETION]
        first, model = self._started, self.active_model
        start_t, finish_t, kpis = _serve_static(
            self.profiles[model],
            self.arrival_times[first:],
            self._image_rows[first:],
            self._worker_count,
            busy,
            max(resume, self.now),
        )
        self._start_t += start_t
        self._finish_t += finish_t
        self._model_id += [model] * len(kpis)
        self._kpis += kpis
        self._started = self._request_count
        heap.clear()

    def _dispatch(self) -> None:
        """Start the waiting requests, in id order, while a worker is free."""
        if self.now < self._intake_paused_until:
            return
        while self._started < self.arrived and self._started - self._completed < self._worker_count:
            request_id = self._started
            model = self.active_model
            kpis = self.profiles[model].kpi_tuple(self._image_rows[request_id])
            finish = self.now + kpis[2]  # tau_system
            self._start_t.append(self.now)
            self._finish_t.append(finish)
            self._model_id.append(model)
            self._kpis.append(kpis)
            self._started += 1
            self._push(finish, _EV_COMPLETION, request_id)


def _resolve_initial_model(config: SimConfig) -> str:
    if config.policy.kind == "naive":
        return ctrl.naive_policy(0.0, config.policy.naive)
    return config.simulation.initial_model


def _build_policy(config: SimConfig, knowledge: ctrl.Knowledge):
    sim = config.simulation
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


def _completions(arrival_t, start_t, finish_t, model_id, kpis) -> Completions:
    """A run's Completions from its columns in request order, request j's
    at index j: by finish_t, ties in request order (a stable sort), with
    r = finish_t - arrival_t. Both run paths order their completions here."""
    request_id = sorted(range(len(finish_t)), key=finish_t.__getitem__)
    columns = (start_t, finish_t, model_id, kpis, list(map(operator.sub, finish_t, arrival_t)))
    return Completions(request_id, *(list(map(col.__getitem__, request_id)) for col in columns))


def _serve_static(
    profile: ModelProfile, arrival_t, rows, worker_count: int, busy: list, idle_at: float
) -> tuple[list, list, list]:
    """Requests served under profile's model alone, a FIFO queue whose
    starts follow from the stream and the workers' state with no event
    loop: the start_t, finish_t and KPI tuple of each, in request order.

    Request j arrives at arrival_t[j] and draws image rows[j], whose KPI
    tuple the profile keeps. Of the worker_count workers, those in busy are
    free at the times it lists, the others at idle_at. Request j starts at
    the later of arrival_t[j] and the earliest time a worker is free
    (Lindley's recursion at one worker, Kiefer and Wolfowitz's at more), at
    the very value the engine would dispatch it, the arrival's on a tie, and
    holds the worker for its row's tau_system. n requests never occupy more
    than n workers, so the heap of free times holds at most n idle ones.

    It has two callers: run_simulation serves a static run from idle
    workers (none busy, idle_at -inf), and the engine the idle tail of a run
    from its workers' state."""
    kpis = profile.kpi_tuples_of(rows)
    free_at = busy + [idle_at] * min(worker_count - len(busy), len(kpis))
    heapq.heapify(free_at)
    start_t, finish_t = [], []
    for t, tau in zip(arrival_t, map(operator.itemgetter(2), kpis)):
        free = free_at[0]
        start = free if free > t else t
        finish = start + tau
        heapq.heapreplace(free_at, finish)
        start_t.append(start)
        finish_t.append(finish)
    return start_t, finish_t, kpis


def run_simulation(
    config: SimConfig, requests: Requests, knowledge: ctrl.Knowledge | None = None
) -> tuple[Completions, ctrl.EventLog]:
    """Serve requests under config; returns the run's Completions (by
    finish time) and the EventLog its policy wrote to the knowledge's
    event_log.

    A static policy never acts, so its run is a plain FIFO queue served
    without the engine (_serve_static) and writes no event; adamls and
    naive runs go through the engine, which wakes naive only at its checks
    and serves its idle tail (every arrival in, no load left to read) by the
    same recursion. The stream must draw only rows that the profiles hold,
    checked before either serves it (Requests checks its own times and row
    types when it is built). An engine run's ticks must be able to pass the
    last arrival, or the run could never end: a tick_interval that adds
    nothing to it is a ConfigError."""
    image_count = len(config.profiles[0].image_id)
    if requests.row and not 0 <= min(requests.row) <= max(requests.row) < image_count:
        raise ConfigError(
            f"the request stream draws from {max(requests.row) + 1} images (rows "
            f"{min(requests.row)} to {max(requests.row)}), but the profiles hold {image_count}"
        )
    if knowledge is None:
        knowledge = ctrl.Knowledge()
    arrival_t = requests.arrival_t
    if config.policy.kind == "static":
        profile = next(p for p in config.profiles if p.model_id == config.policy.static_model)
        start_t, finish_t, kpis = _serve_static(
            profile, arrival_t, requests.row, config.simulation.worker_count, [], -math.inf
        )
        completions = _completions(
            arrival_t, start_t, finish_t, [profile.model_id] * len(kpis), kpis
        )
    else:
        interval = config.simulation.tick_interval
        if arrival_t and float(arrival_t[-1]) + interval == float(arrival_t[-1]):
            raise ConfigError(
                f"simulation.tick_interval {interval!r} adds nothing to the last arrival "
                f"time {arrival_t[-1]!r}, so the ticks could never pass it and the run "
                "could never end"
            )
        completions = _Engine(config, knowledge).run(requests)
    return completions, knowledge.event_log


def request_heads(arrival_texts: list[str]) -> list[str]:
    """The request_id,arrival_t text of each request of a stream, from the
    texts of its arrival_t column; request j's at index j."""
    return list(map(",".join, zip(map(str, range(len(arrival_texts))), arrival_texts)))


class ResultTexts:
    """The results.csv field texts that the files of one request stream share.

    It is built from the stream, and every file written through it must be
    of that stream: each completion's request_id is an int that indexes it.
    write_results_csv checks that before it opens the file. A row's
    arrival_t and drawn image row are the stream's for its request_id, so a
    text that repeats in every file is looked up by position, not by value:

    - each request's head, its request_id,arrival_t text, is formatted once
      per stream (request_heads);
    - the joined model,c,tau_model,tau_system,s_cpu,b text of each drawn
      (model, row) is formatted the first time a file draws it and then
      looked up by model and row; a (model, row) must name one KPI tuple in
      every file.

    A request starts when it arrives, when an earlier one finishes or when a
    switch pause ends, so each file looks its start_t up by value in a
    TextMemo of the stream's arrival texts and its own finish texts.
    finish_t and r are new in every row and are formatted as they come.
    """

    def __init__(self, requests: Requests):
        arrival_texts = list(column_texts(requests.arrival_t))
        self._rows = requests.row
        self._heads = request_heads(arrival_texts)
        self._times = TextMemo()
        self._times.keep(requests.arrival_t, arrival_texts)
        # model -> {row: joined text}
        self._kpis: defaultdict[str, dict[int, str]] = defaultdict(dict)

    def file_texts(self, completions: Completions):
        """The csvtext.write_columns texts function of one results file,
        whose columns are completions'. Raises ValueError, naming the first
        request_id at fault, unless every request_id indexes the stream."""
        self._check(completions.request_id)
        heads = self._heads
        times = TextMemo(self._times)

        def texts(columns):
            request_id, start_t, finish_t, model, kpis, r = columns
            finish_texts = list(column_texts(finish_t))
            times.keep(finish_t, finish_texts)
            return (
                map(heads.__getitem__, request_id),
                times.texts(start_t),
                finish_texts,
                self._kpi_texts(model, request_id, kpis),
                column_texts(r),
            )

        return texts

    def _check(self, request_id) -> None:
        count = len(self._heads)
        # In C when every request_id indexes the stream.
        if not request_id or (
            set(map(type, request_id)) == {int}
            and 0 <= min(request_id)
            and max(request_id) < count
        ):
            return
        j = next(j for j in request_id if type(j) is not int or not 0 <= j < count)
        raise ValueError(
            f"request_id {j!r} does not index the request stream of {count} requests"
        )

    def _kpi_texts(self, model, request_id, kpis) -> list[str]:
        """The kept texts of each request's drawn row under its model; a
        block's new rows are formatted together."""
        row = list(map(self._rows.__getitem__, request_id))
        by_model = list(map(self._kpis.__getitem__, model))
        texts = list(map(dict.get, by_model, row))
        if None in texts:
            new = {
                (model[j], row[j]): (model[j], *kpis[j]) for j, text in enumerate(texts) if text is None
            }
            for (m, i), text in zip(new, joined_texts(new.values())):
                self._kpis[m][i] = text
            texts = list(map(dict.__getitem__, by_model, row))
        return texts


def write_results_csv(completions: Completions, path, texts: ResultTexts) -> None:
    """Write completions to path, a row per request in RESULTS_CSV_HEADER's order.

    texts is built from the run's request stream, which gives each row its
    arrival_t and drawn image row by request_id; the files of one stream
    share it. Completions whose request_ids do not index the stream are
    rejected with a ValueError before the file is opened.
    """
    file_texts = texts.file_texts(completions)
    columns = [getattr(completions, name) for name in Completions.__slots__]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_columns(fh, RESULTS_CSV_HEADER, columns, file_texts)


def write_event_log_csv(events: ctrl.EventLog, path) -> None:
    """Write an EventLog to path, a row per event: sim_time, event, detail.

    A decision's rows share one time, so the times go through a TextMemo
    and each is formatted once."""
    times = TextMemo()

    def texts(columns):
        sim_time, event, detail = columns
        return times.texts(sim_time), column_texts(event), column_texts(detail)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        columns = (events.sim_time, events.event, events.detail)
        write_columns(fh, ("sim_time", "event", "detail"), columns, texts)
