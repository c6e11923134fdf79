"""Smoke tests of the benchmark on its two-model workload (about 160 requests).

Run from the repository root:  python -m pytest perfbench
"""

from __future__ import annotations

import csv
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_env  # noqa: E402

bench_env.use_checkout_src()

from adamls import config as cfgmod  # noqa: E402
from adamls import controller, simulator  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((bench_env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_bench(*args, cwd=bench_env.ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke_config(out_dir: Path):
    raw = WORKLOADS["smoke"].config_dict(3, str(out_dir))
    return cfgmod.experiment_config_from_dict(raw, source="smoke")


def _one_iteration(out_dir: Path, tracer=None):
    config = _smoke_config(out_dir)
    expected = cfgmod.compare_policy_labels(config, config.profiles.models)
    timer = harness.SimTimer()
    log = checks.CheckLog()
    timer.install()
    try:
        t0 = perf_counter()
        it = harness.run_iteration(config, out_dir, timer, log, expected, tracer=tracer)
        wall = perf_counter() - t0
    finally:
        timer.uninstall()
    return config, it, log, wall


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(trace):
    done = _run_bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_share" in done.stdout


def test_traced_self_times_fit_in_the_wall_time(tmp_path):
    original_plan = controller.plan
    tracer = tracing.Tracer()
    _, it, log, wall = _one_iteration(tmp_path / "out", tracer)
    assert it is not None and log.failed == 0, log.failures
    assert tracer.missing_hooks == []
    own = tracing.self_times(it.spans)
    assert min(own) > -1e-9
    assert sum(own) <= wall
    names = {s[tracing.NAME] for s in it.spans}
    for module_name, class_name, attr in tracing.HOOKS:
        assert ".".join(p for p in (module_name, class_name, attr) if p) in names
    assert controller.plan is original_plan
    assert not hasattr(simulator, "open")


def test_checks_catch_a_lost_request(tmp_path):
    out_dir = tmp_path / "out"
    config, it, log, _ = _one_iteration(out_dir)
    arrivals = simulator.generate_workload(cfgmod.build_workload_spec(config))
    checks.check_outputs(out_dir, arrivals, config, log)
    assert log.failed == 0, log.failures

    results = out_dir / "compare" / "naive" / "results.csv"
    with open(results, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    with open(results, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows[:-1])
    assert checks.digest_outputs(out_dir) != it.digest
    broken = checks.CheckLog()
    checks.check_outputs(out_dir, arrivals, config, broken)
    assert any("exactly once" in f for f in broken.failures)
    assert any("summary.csv" in f for f in broken.failures)


def test_panel_starts_at_the_run_seed():
    panel = WORKLOADS["bursty"].panel_seeds(1)
    assert panel[0] == 1
    assert len(set(panel)) == len(panel) == WORKLOADS["bursty"].panel
    assert WORKLOADS["bursty"].panel_seeds(1) == panel
    assert not set(panel) & set(WORKLOADS["bursty"].panel_seeds(2))


def test_speed_probe_leaves_out_its_own_time():
    before = signal.getsignal(signal.SIGALRM)
    probe = calibration.SpeedProbe()
    probe.install()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            sum(range(1000))
        t1 = perf_counter()
    finally:
        probe.uninstall()
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(probe.samples) >= calibration.MIN_SAMPLES
    paused, job_s = probe.window(t0, t1)
    assert 0 < paused < t1 - t0
    assert job_s > 0
    assert calibration.scaled(2.0, calibration.NOMINAL_JOB_S) == 2.0


def test_pingpongs_and_tail():
    events = [
        {"sim_time": "1.0", "event": "SWITCH", "detail": "a->b effective 1.005"},
        {"sim_time": "1.5", "event": "SWITCH", "detail": "b->a effective 1.505"},
        {"sim_time": "3.0", "event": "SWITCH", "detail": "a->b effective 3.005"},
        {"sim_time": "3.1", "event": "NOOP", "detail": "current model already best"},
        {"sim_time": "4.5", "event": "SWITCH", "detail": "b->a effective 4.505"},
    ]
    assert checks.count_pingpongs(events) == 1
    assert checks.tail(range(5000)) == (4949, 99.0, 50)
    assert checks.tail(range(20000)) == (19979, 99.9, 20)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench_env.ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench("--workload", "bursty", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
