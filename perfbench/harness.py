"""Runs one workload: set-up probes, a warm-up, timed passes, checks.

One iteration is ``cli.run_learn`` followed by ``cli.run_compare`` on one
generated config, in this process, with the program's stdout discarded. A
pass runs one iteration for each master seed of the workload's panel. A
learn and compare on the small smoke config warms the process up first.
Each seed's first iteration is checked in full, and every later one must
reproduce its output digest byte for byte. Every host time is rescaled to
the machine's usual speed (see calibration.py). A host time is the median
over the panel of each seed's median; set-up time is the median over fresh
probe processes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter
from typing import NamedTuple

import numpy

from adamls import cli
from adamls import config as cfgmod
from adamls import simulator

import bench_env
import calibration
import checks
import tracing
from workloads import WORKLOADS

SETUP_PROBES = 5
# One traced and one untraced iteration, to measure the tracing overhead.
MIN_TRACED_ITERATIONS = 2
# No new iteration starts this long after the run began, whatever the
# minimum, so one run stays well inside its time limit on a slow machine.
HARD_CAP_S = 120.0

# name -> unit; the smoke test checks these against BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "learn_s": "s",
    "compare_s": "s",
    "adamls_req_per_s": "req/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "profiles.generate_s": "s",
    "profiles.records": "count",
    "learning.wcss_s": "s",
    "learning.kmeans_s": "s",
    "learning.kmeans_calls": "count",
    "learning.join_s": "s",
    "learning.ci_s": "s",
    "learning.rules_load_s": "s",
    "controller.events": "count",
    "controller.event_us_p50": "us",
    "controller.event_us_tail": "us",
    "controller.event_tail_pct": "%",
    "controller.monitor_s": "s",
    "controller.analyze_s": "s",
    "controller.match_s": "s",
    "controller.plan_s": "s",
    "controller.execute_s": "s",
    "controller.window_s": "s",
    "controller.loop_s": "s",
    "controller.share": "1",
    "controller.triggers": "count",
    "controller.plans": "count",
    "controller.switches": "count",
    "controller.noops": "count",
    "controller.switch_yield": "1",
    "controller.pingpongs": "count",
    "simulator.workload_s": "s",
    "simulator.events": "count",
    "simulator.engine_s": "s",
    "simulator.host_us_per_event": "us",
    "simulator.static_floor_s": "s",
    "metrics.summarize_s": "s",
    "cli.write_s": "s",
    "cli.event_rows": "count",
    "cli.bytes_written": "B",
    "trace.overhead_share": "1",
    "trace.compare_s": "s",
    "trace.untraced_compare_s": "s",
    "sim.adamls_requests": "count",
    "sim.adamls_utility_per_req": "1",
    "sim.adamls_r_p50_s": "sim_s",
    "sim.adamls_r_tail_s": "sim_s",
    "sim.adamls_r_tail_pct": "%",
    "sim.adamls_r_tail_beyond": "count",
}

LEARN_SPAN = "bench.learn"
COMPARE_SPAN = "bench.compare"
RUN_SIM = "adamls.cli.run_simulation"
ON_EVENT = "adamls.controller.AdamlsController.on_event"
NOTE = "adamls.controller.AdamlsController.note_completion"

# Child process for set-up time: import the program and build the config.
# It prints the monotonic clock (shared by all processes) once that is done.
_SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import adamls.cli
from adamls import config
config.experiment_config_from_dict(json.loads(sys.argv[2]), source="setup probe")
print(repr(time.monotonic()))
"""


def measure_setup(raw: dict, probes: int = SETUP_PROBES) -> list[tuple[float, float]]:
    """(seconds, mean reference job time) from process start to a built
    config, in fresh processes.

    One extra probe runs first and is dropped: it writes bytecode caches. The
    reference job runs back to back before each probe and after the last,
    while no probe runs; a probe's job time is the mean of those around it.
    """
    times = []
    jobs = [calibration.idle_job_s()]
    for _ in range(probes + 1):
        t0 = monotonic()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(bench_env.SRC), json.dumps(raw)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
        jobs.append(calibration.idle_job_s())
    return [(t, (before + after) / 2)
            for t, before, after in zip(times[1:], jobs[1:], jobs[2:])]


def machine_facts() -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {var: os.environ.get(var) for var in bench_env.THREAD_VARS},
        "loadavg_start": os.getloadavg(),
    }


class SimTimer:
    """Times every run_simulation call compare makes; two clock reads each."""

    def __init__(self):
        self.calls: list[tuple[str, float, float, int]] = []  # (policy, start, end, completions)
        self._original = None

    def install(self) -> None:
        self._original = cli.run_simulation
        cli.run_simulation = self._timed

    def uninstall(self) -> None:
        cli.run_simulation = self._original

    def _timed(self, sim_config, *args, **kwargs):
        t0 = perf_counter()
        completions, events = self._original(sim_config, *args, **kwargs)
        self.calls.append((sim_config.policy.label, t0, perf_counter(), len(completions)))
        return completions, events


class Compare(NamedTuple):
    seconds: float
    job_s: float
    # Host seconds of the adamls simulation inside compare, and the mean
    # reference job time while it ran.
    adamls_s: float
    adamls_job_s: float


@dataclass
class Iteration:
    """One learn and one or more compares of one config.

    Host seconds leave out the speed probe's interruptions; the *_job_s
    fields are the mean reference job time during the step.
    """

    traced: bool
    learn_s: float = 0.0
    learn_job_s: float = calibration.NOMINAL_JOB_S
    compares: list[Compare] = field(default_factory=list)
    adamls_requests: int = 0
    digest: str = ""
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)


def run_iteration(config, out_dir: Path, timer: SimTimer, log: checks.CheckLog,
                  expected_policies: list[str], tracer: tracing.Tracer | None = None,
                  probe: calibration.SpeedProbe | None = None,
                  compares: int = 1) -> Iteration | None:
    """learn, then compare `compares` times.

    Returns None when a step failed; the failures are in the log.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    it = Iteration(traced=tracer is not None)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            learn = _timed_step(cli.run_learn, config, "learn", log, tracer, LEARN_SPAN, probe)
            if learn is None:
                log.check(False, "compare: skipped, learn failed")
                return None
            it.learn_s, it.learn_job_s = learn
            for _ in range(compares):
                timer.calls = []
                compare = _timed_step(cli.run_compare, config, "compare", log, tracer,
                                      COMPARE_SPAN, probe)
                done = {call[0] for call in timer.calls}
                for label in expected_policies:
                    log.check(label in done, f"policy {label}: run did not complete")
                adamls = [call for call in timer.calls if call[0] == "adamls"]
                if compare is None or not adamls:
                    return None
                _, t0, t1, it.adamls_requests = adamls[0]
                paused, job_s = (probe.window(t0, t1, default=compare[1]) if probe is not None
                                 else (0.0, compare[1]))
                it.compares.append(Compare(*compare, t1 - t0 - paused, job_s))
    finally:
        if tracer is not None:
            tracer.uninstall()
    it.digest = checks.digest_outputs(out_dir)
    if tracer is not None:
        it.spans, it.counters = tracer.spans, tracer.counters
    return it


def _timed_step(step, config, what, log, tracer, span_name, probe):
    """(host seconds, mean reference job time), or None when the step failed."""
    idx = tracer.begin(span_name) if tracer is not None else None
    t0 = perf_counter()
    try:
        code = step(config)
    except Exception:  # the benchmark reports any failure and carries on
        traceback.print_exc(file=sys.stderr)
        code = None
    t1 = perf_counter()
    if idx is not None:
        tracer.end(idx)
    paused, job_s = probe.window(t0, t1) if probe is not None else (0.0, calibration.NOMINAL_JOB_S)
    if not log.check(code == 0, f"{what}: exited with {code!r}"):
        return None
    return t1 - t0 - paused, job_s

def layer_metrics(it: Iteration, stats: dict, qos: dict) -> dict[str, float]:
    """Per-layer figures of one traced iteration."""
    spans = it.spans
    own = tracing.self_times(spans)
    step = [""] * len(spans)
    policy = [""] * len(spans)
    dur = defaultdict(float)
    calls = Counter()
    adamls_dur = defaultdict(float)
    adamls_self = defaultdict(float)
    sim_dur: dict[str, float] = {}
    event_us = []
    write_s = 0.0
    bytes_written = 0
    for i, s in enumerate(spans):
        name, parent = s[tracing.NAME], s[tracing.PARENT]
        d = s[tracing.END] - s[tracing.START]
        step[i] = name if parent < 0 else step[parent]
        policy[i] = s[tracing.TAG] if name == RUN_SIM else (policy[parent] if parent >= 0 else "")
        dur[name] += d
        calls[name] += 1
        if name == RUN_SIM:
            sim_dur[policy[i]] = d
        if policy[i] == "adamls":
            adamls_dur[name] += d
            adamls_self[name] += own[i]
            if name == ON_EVENT:
                event_us.append(d * 1e6)
        if name == tracing.FILE_SPAN and step[i] == COMPARE_SPAN:
            write_s += d
            bytes_written += s[tracing.TAG]
    ad = stats["adamls"]
    n = ad["requests"]
    plans = ad["events"].get("PLAN", 0)
    controller_s = adamls_dur[ON_EVENT] + adamls_dur[NOTE]
    adamls_sim_s = sim_dur.get("adamls", 0.0)
    engine_s = adamls_sim_s - controller_s
    # arrivals + completions + ticks + resumes: the policy runs once per
    # completion and once per tick, and every switch schedules one resume.
    sim_events = n + len(event_us) + ad["switches"]
    event_tail, event_pct, _ = checks.tail(event_us) if event_us else (0.0, 0.0, 0)
    statics = [d for label, d in sim_dur.items() if label.startswith("static:")]
    ctl = "adamls.controller."
    return {
        "profiles.generate_s": dur["adamls.config.generate_profiles"],
        "profiles.records": it.counters["profiles.records"],
        "learning.wcss_s": dur["adamls.learning.wcss_series"],
        "learning.kmeans_s": dur["adamls.learning.kmeans_1d"],
        "learning.kmeans_calls": calls["adamls.learning.kmeans_1d"],
        "learning.join_s": dur["adamls.learning.build_performance_matrix"],
        "learning.ci_s": dur["adamls.learning.build_ci_matrix"],
        "learning.rules_load_s": dur["adamls.cli.read_ci_matrix"]
        + dur["adamls.cli.attach_anchor_stats"],
        "controller.events": len(event_us),
        "controller.event_us_p50": _median(event_us),
        "controller.event_us_tail": event_tail,
        "controller.event_tail_pct": event_pct,
        "controller.monitor_s": adamls_self[ctl + "AdamlsController.monitor"],
        "controller.analyze_s": adamls_self[ctl + "Analyzer.analyze"],
        "controller.match_s": adamls_self[ctl + "find_closest_cluster"],
        "controller.plan_s": adamls_self[ctl + "plan"],
        "controller.execute_s": adamls_self[ctl + "execute"],
        "controller.window_s": adamls_self[NOTE],
        "controller.loop_s": adamls_self[ON_EVENT],
        "controller.share": controller_s / adamls_sim_s if adamls_sim_s else 0.0,
        "controller.triggers": ad["events"].get("ANALYZE_TRIGGER", 0),
        "controller.plans": plans,
        "controller.switches": ad["switches"],
        "controller.noops": ad["events"].get("NOOP", 0),
        "controller.switch_yield": ad["switches"] / plans if plans else 0.0,
        "controller.pingpongs": ad["pingpongs"],
        "simulator.workload_s": dur["adamls.simulator.generate_workload"],
        "simulator.events": sim_events,
        "simulator.engine_s": engine_s,
        "simulator.host_us_per_event": engine_s / sim_events * 1e6,
        "simulator.static_floor_s": statistics.median(statics) if statics else 0.0,
        "metrics.summarize_s": dur["adamls.cli.summarize"],
        "cli.write_s": write_s,
        "cli.event_rows": it.counters["cli.event_rows"],
        "cli.bytes_written": bytes_written,
        "sim.adamls_requests": qos["requests"],
        "sim.adamls_utility_per_req": qos["utility_per_req"],
        "sim.adamls_r_p50_s": qos["r_p50_s"],
        "sim.adamls_r_tail_s": qos["r_tail_s"],
        "sim.adamls_r_tail_pct": qos["r_tail_pct"],
        "sim.adamls_r_tail_beyond": qos["r_tail_beyond"],
    }


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = perf_counter()
    wl = WORKLOADS[workload]
    run_dir = bench_env.ROOT / ".bench_out" / f"{workload}-seed{seed}"
    # The traced run describes the run's own seed only; the plain run times
    # the whole panel.
    seeds = [seed] if trace else wl.panel_seeds(seed)
    panel = [Member(s, run_dir / "outputs" / f"seed{s}") for s in seeds]
    raws = [wl.config_dict(m.seed, str(m.out_dir)) for m in panel]
    facts = machine_facts()
    setup = measure_setup(raws[0])
    for m, raw in zip(panel, raws):
        m.config = cfgmod.experiment_config_from_dict(raw, source=f"workload {workload}")
    log = checks.CheckLog()
    timer = SimTimer()
    tracer = tracing.Tracer() if trace else None
    # Per-layer figures are plain host times; only the plain run is rescaled.
    probe = None if trace else calibration.SpeedProbe()
    timer.install()
    try:
        _warm_up(run_dir / "warm-up", timer)
        if probe is not None:
            probe.install()
        try:
            _measure(panel, timer, log, wl, tracer, probe, seconds, started)
        finally:
            if probe is not None:
                probe.uninstall()
    finally:
        timer.uninstall()
    shutil.rmtree(run_dir / "outputs", ignore_errors=True)
    log.check(all(m.runs for m in panel), "not every panel seed completed an iteration")
    facts["loadavg_end"] = os.getloadavg()

    first = panel[0]
    if trace:
        traced = [it for it in first.runs if it.traced]
        plain = [it for it in first.runs if not it.traced]
        per_iter = ([layer_metrics(it, first.stats, first.qos) for it in traced]
                    if first.stats else [])
        values = {name: _median([m[name] for m in per_iter]) for name in PER_LAYER
                  if not name.startswith("trace.")}
        traced_compare = _median([c.seconds for it in traced for c in it.compares])
        plain_compare = _median([c.seconds for it in plain for c in it.compares])
        values["trace.compare_s"] = traced_compare
        values["trace.untraced_compare_s"] = plain_compare
        values["trace.overhead_share"] = (
            traced_compare / plain_compare - 1.0 if plain_compare else 0.0
        )
        units = PER_LAYER
    else:
        values = _end_to_end(panel, setup, calibration.scaled)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
        detail_raw = _end_to_end(panel, setup, lambda seconds, job_s: seconds)
    detail = {
        "workload": workload,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "config": raws[0],
        "machine": facts,
        "setup_s_samples": setup,
        # The host-time metrics before rescaling, and the reference job.
        "unscaled": {} if trace else detail_raw,
        "job_s": {"nominal": calibration.NOMINAL_JOB_S,
                  "median": _median([d for _, d in probe.samples]) if probe else None,
                  "samples": len(probe.samples) if probe else 0},
        "panel": [
            {
                "seed": m.seed,
                "digest_sha256": m.runs[0].digest if m.runs else None,
                "iterations": [
                    {"traced": it.traced, "learn_s": it.learn_s, "learn_job_s": it.learn_job_s,
                     "compares": [c._asdict() for c in it.compares],
                     "adamls_requests": it.adamls_requests}
                    for it in m.runs
                ],
                "exact_stats": m.stats,
                "adamls_qos": m.qos,
            }
            for m in panel
        ],
        "digest_sha256": _panel_digest(panel),
        "attempted": log.attempted,
        "failures": log.failures,
        "missing_hooks": tracer.missing_hooks if tracer is not None else [],
        "wall_s": perf_counter() - started,
    }
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    suffix = "trace" if trace else "plain"
    (run_dir / f"result-{suffix}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=1) + "\n", encoding="utf-8"
    )
    if trace and any(it.traced for it in first.runs):
        _write_spans(next(it for it in first.runs if it.traced), run_dir / "spans.csv")
    _report(detail, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _end_to_end(panel: list[Member], setup, scale) -> dict[str, float]:
    """The host-time metrics, each sample scaled by scale(seconds, job_s).

    Each is the median over the panel of one figure per seed. A median,
    because a few seeds behave apart: on `overload` about one in ten lets
    adamls leave xlarge, and its simulation then runs twice as fast.
    """
    done = [m for m in panel if m.runs]
    per_seed = {"learn_s": [], "compare_s": [], "adamls_req_per_s": []}
    for m in done:
        compares = [c for it in m.runs for c in it.compares]
        per_seed["learn_s"].append(_median([scale(it.learn_s, it.learn_job_s) for it in m.runs]))
        per_seed["compare_s"].append(_median([scale(c.seconds, c.job_s) for c in compares]))
        adamls_s = _median([scale(c.adamls_s, c.adamls_job_s) for c in compares])
        per_seed["adamls_req_per_s"].append(m.runs[0].adamls_requests / adamls_s)
    values = {name: _median(seeds) for name, seeds in per_seed.items()}
    values["setup_s"] = _median([scale(t, job_s) for t, job_s in setup])
    return values


@dataclass
class Member:
    """One master seed of the panel: its config, outputs, iterations and checks."""

    seed: int
    out_dir: Path
    config: object = None
    runs: list[Iteration] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    qos: dict = field(default_factory=dict)


def _panel_digest(panel: list[Member]) -> str | None:
    """sha256 over the panel's per-seed digests, in panel order."""
    if not all(m.runs for m in panel):
        return None
    return hashlib.sha256(" ".join(m.runs[0].digest for m in panel).encode()).hexdigest()


def _warm_up(warm_dir: Path, timer: SimTimer) -> None:
    """One learn and compare on the small smoke config: loads every code path
    and lazy import without spending the measuring time on a full iteration."""
    raw = WORKLOADS["smoke"].config_dict(1, str(warm_dir))
    config = cfgmod.experiment_config_from_dict(raw, source="warm-up")
    expected = cfgmod.compare_policy_labels(config, config.profiles.models)
    run_iteration(config, warm_dir, timer, checks.CheckLog(), expected)
    shutil.rmtree(warm_dir, ignore_errors=True)


def _measure(panel: list[Member], timer, log, wl, tracer, probe, seconds,
             started) -> None:
    """Whole passes over the panel that fit in `seconds`.

    A pass runs one iteration per seed; in the plain run an iteration runs
    compare `wl.compare_repeats` times. The plain run makes at least one
    pass. With a tracer, traced and untraced iterations alternate, traced
    first, so both see the same machine conditions, and there are at least
    MIN_TRACED_ITERATIONS. Each seed's first iteration is checked in full
    before the next seed runs; every later one must reproduce its digest.
    """
    expected = [cfgmod.compare_policy_labels(m.config, m.config.profiles.models) for m in panel]
    minimum = MIN_TRACED_ITERATIONS if tracer is not None else 1
    walls: list[float] = []
    begin = perf_counter()
    while True:
        now = perf_counter()
        if len(walls) >= minimum and (now - started > HARD_CAP_S
                                      or now - begin + _median(walls) > seconds):
            return
        t0 = perf_counter()
        for m, policies in zip(panel, expected):
            traced = tracer is not None and len(m.runs) % 2 == 0
            it = run_iteration(m.config, m.out_dir, timer, log, policies,
                               tracer=tracer if traced else None, probe=probe,
                               compares=1 if tracer is not None else wl.compare_repeats)
            if it is None:
                return
            if m.runs:
                log.check(it.digest == m.runs[0].digest,
                          f"seed {m.seed}: outputs differ from its first iteration's")
            else:
                _check_outputs(m, wl.name, log)
            m.runs.append(it)
        walls.append(perf_counter() - t0)


def _check_outputs(m: Member, workload: str, log: checks.CheckLog) -> None:
    """Full checks of the outputs one seed's iteration left on disk."""
    config = m.config
    arrivals = simulator.generate_workload(cfgmod.build_workload_spec(config))
    checks.check_outputs(m.out_dir, arrivals, config, log)
    m.stats = checks.exact_stats(m.out_dir)
    m.qos = checks.adamls_qos(m.out_dir, config)
    checks.check_golden(workload, m.seed, m.stats, log)


def _write_spans(it: Iteration, path: Path) -> None:
    """One traced iteration's spans; times are seconds from its first span."""
    origin = it.spans[0][tracing.START] if it.spans else 0.0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("span", "name", "parent", "start_s", "end_s", "tag"))
        for idx, s in enumerate(it.spans):
            writer.writerow((idx, s[tracing.NAME], s[tracing.PARENT],
                             repr(s[tracing.START] - origin), repr(s[tracing.END] - origin),
                             "" if s[tracing.TAG] is None else s[tracing.TAG]))


def _report(detail: dict, result: dict) -> None:
    """Human-readable summary; everything in it is also in the result JSON file."""
    m = detail["machine"]
    panel = detail["panel"]
    passes = min(len(member["iterations"]) for member in panel)
    print(f"workload {detail['workload']} seed {detail['seed']}: {len(panel)} master seed(s), "
          f"{passes} timed pass(es) after a warm-up, trace {'on' if detail['trace'] else 'off'}, "
          f"wall {detail['wall_s']:.1f} s")
    print(f"machine: {m['nproc']} cpus ({m['usable_cpus']} usable), {m['cpu_model']}, "
          f"python {m['python']}, numpy {m['numpy']}, load {m['loadavg_start'][0]:.2f} -> "
          f"{m['loadavg_end'][0]:.2f}")
    for name, metric in result["metrics"].items():
        unscaled = detail["unscaled"].get(name)
        note = "" if unscaled is None else f"   ({unscaled:.6g} before rescaling)"
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}{note}")
    job = detail["job_s"]
    if job["samples"]:
        print(f"  reference job: median {job['median'] * 1e3:.4g} ms over {job['samples']} "
              f"samples, nominal {job['nominal'] * 1e3:.4g} ms")
    # Deterministic for a seed, so they are reported here and in the result
    # file rather than as bounded metrics (see README.md).
    q = panel[0]["adamls_qos"]
    if q:
        print(f"  {'adamls_utility_per_req':<28} {q['utility_per_req']:>14.6g} 1")
        print(f"  {'adamls_r_p50_s':<28} {q['r_p50_s']:>14.6g} sim_s")
        print(f"  {'adamls_r_tail_s':<28} {q['r_tail_s']:>14.6g} sim_s "
              f"(p{q['r_tail_pct']:g}, {q['r_tail_beyond']} of {q['requests']} beyond)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_share':<28} {failed / max(attempted, 1):>14.6g} 1 "
          f"({failed} of {attempted} operations)")
    for failure in detail["failures"]:
        print(f"  FAILED: {failure}")
    if detail["missing_hooks"]:
        print(f"  hooks not found: {', '.join(detail['missing_hooks'])}")
    print(f"  exact statistics at seed {panel[0]['seed']}:")
    for label, s in panel[0]["exact_stats"].items():
        events = " ".join(f"{k}={v}" for k, v in s["events"].items())
        print(f"  {label:<14} requests={s['requests']} switches={s['switches']} "
              f"pen_r={s['r_penalties']} pen_c={s['c_penalties']} "
              f"pingpongs={s['pingpongs']} {events}")
    for member in panel:
        print(f"  seed {member['seed']:<10} outputs sha256 {member['digest_sha256']}")
    print(f"  panel sha256 {detail['digest_sha256']}")
