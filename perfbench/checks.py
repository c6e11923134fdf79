"""Output checks, the determinism digest and the exact simulated statistics.

Everything here reads the CSV files that ``learn`` and ``compare`` wrote, so
the checks judge what a user of the program gets. The utility check
recomputes the utility with its own code, not the program's.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from pathlib import Path

# adamls at master seed 1 on the default config (the bursty workload), as
# measured when the benchmark was defined. A change that means to alter
# switching behaviour updates these in a benchmark change of its own.
GOLDEN_BURSTY_SEED1 = {"requests": 5000, "switches": 2046, "plans": 3440}

PINGPONG_WINDOW_S = 1.0

# Percentiles a tail is read at, in hundredths of a percent so the ranks are
# exact integers; the highest one with enough samples above it wins.
TAIL_LADDER = (5000, 9000, 9900, 9990, 9999)
TAIL_MIN_BEYOND = 10


class CheckLog:
    """Counts operations and the ones that failed, with a reason for each."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def digest_outputs(out_dir: Path) -> str:
    """sha256 over every CSV below out_dir, in path order, paths included."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*.csv")):
        h.update(path.relative_to(out_dir).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def policy_dirs(out_dir: Path) -> dict[str, Path]:
    """compare/<dir> per policy label, from the labels in summary.csv."""
    labels = [row["policy"] for row in read_rows(out_dir / "summary.csv")]
    return {label: out_dir / "compare" / label.replace(":", "_") for label in labels}


def utility(c: float, r: float, params, w_e: float, w_d: float) -> float:
    """Per-request utility, written independently of adamls.metrics."""
    if params.c_min <= c <= params.c_max:
        conf = c
    else:
        excess = (c - params.c_max) if c > params.c_max else (params.c_min - c)
        conf = excess * params.p_ev if params.raw_violation_signs else -excess * params.p_ev
    if params.r_min <= r <= params.r_max:
        resp = r
    elif r > params.r_max:
        resp = (params.r_max - r) * params.p_dv
    else:
        resp = (r - params.r_min) * params.p_dv
    return w_e * conf + w_d * resp


def check_outputs(out_dir: Path, arrivals: list[float], config, log: CheckLog) -> None:
    """Check every policy's results against the generated arrivals and summaries."""
    summary = {row["policy"]: row for row in read_rows(out_dir / "summary.csv")}
    sweep = {
        (float(row["w_e"]), float(row["w_d"]), row["policy"]): float(row["total_utility"])
        for row in read_rows(out_dir / "utility_sweep.csv")
    }
    n = len(arrivals)
    for label, pdir in policy_dirs(out_dir).items():
        rows = read_rows(pdir / "results.csv")
        ids = [int(row["request_id"]) for row in rows]
        arrival = {int(row["request_id"]): float(row["arrival_t"]) for row in rows}
        log.check(
            sorted(ids) == list(range(n))
            and all(arrival[i] == arrivals[i] for i in range(n)),
            f"{label}: not every generated arrival completed exactly once",
        )
        log.check(
            all(
                float(row["arrival_t"]) <= float(row["start_t"]) <= float(row["finish_t"])
                for row in rows
            ),
            f"{label}: some request breaks arrival <= start <= finish",
        )
        if config.simulation.worker_count == 1:
            starts = sorted((int(row["request_id"]), float(row["start_t"])) for row in rows)
            log.check(
                all(a[1] <= b[1] for a, b in zip(starts, starts[1:])),
                f"{label}: start times are not in FIFO order",
            )
        events = read_rows(pdir / "events.csv")
        log.check(
            _summary_matches(summary[label], rows, events, sweep, label, config),
            f"{label}: summary.csv or utility_sweep.csv disagrees with results.csv",
        )


def _summary_matches(row, results, events, sweep, label, config) -> bool:
    params = config.utility
    cs = [float(r["c"]) for r in results]
    rs = [float(r["r"]) for r in results]
    if int(row["requests"]) != len(results):
        return False
    if int(row["switches"]) != sum(1 for ev in events if ev["event"] == "SWITCH"):
        return False
    if int(row["r_penalties"]) != sum(1 for r in rs if not params.r_min <= r <= params.r_max):
        return False
    if int(row["c_penalties"]) != sum(1 for c in cs if not params.c_min <= c <= params.c_max):
        return False
    for w_e, w_d in config.weight_grid:
        total = sum(utility(c, r, params, w_e, w_d) for c, r in zip(cs, rs))
        reported = sweep.get((w_e, w_d, label))
        if reported is None or not math.isclose(reported, total, rel_tol=1e-9, abs_tol=1e-9):
            return False
    return True


def count_pingpongs(events) -> int:
    """Switches A->B reversed by the very next switch B->A within 1 s of sim time."""
    switches = []
    for ev in events:
        if ev["event"] == "SWITCH":
            source, target = ev["detail"].split(" ", 1)[0].split("->")
            switches.append((float(ev["sim_time"]), source, target))
    return sum(
        1
        for (t1, a, b), (t2, b2, a2) in zip(switches, switches[1:])
        if b2 == b and a2 == a and t2 - t1 <= PINGPONG_WINDOW_S
    )


def exact_stats(out_dir: Path) -> dict[str, dict]:
    """Per policy: request, switch and penalty counts, events by type, ping-pongs."""
    summary = {row["policy"]: row for row in read_rows(out_dir / "summary.csv")}
    stats = {}
    for label, pdir in policy_dirs(out_dir).items():
        events = read_rows(pdir / "events.csv")
        row = summary[label]
        stats[label] = {
            "requests": int(row["requests"]),
            "switches": int(row["switches"]),
            "r_penalties": int(row["r_penalties"]),
            "c_penalties": int(row["c_penalties"]),
            "events": dict(sorted(Counter(ev["event"] for ev in events).items())),
            "pingpongs": count_pingpongs(events),
        }
    return stats


def check_golden(workload: str, seed: int, stats: dict, log: CheckLog) -> None:
    if workload != "bursty" or seed != 1:
        return
    adamls = stats["adamls"]
    seen = {
        "requests": adamls["requests"],
        "switches": adamls["switches"],
        "plans": adamls["events"].get("PLAN", 0),
    }
    log.check(seen == GOLDEN_BURSTY_SEED1, f"bursty seed 1 adamls reads {seen}, "
              f"expected {GOLDEN_BURSTY_SEED1}")


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest ladder percentile
    that leaves at least TAIL_MIN_BEYOND samples above it; nearest rank."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for step in TAIL_LADDER:
        rank = max(1, -(-step * n // 10000))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (ordered[rank - 1], step / 100, n - rank)
    if best is None:
        return ordered[-1], 100.0, 0
    return best


def adamls_qos(out_dir: Path, config) -> dict[str, float]:
    """Simulated QoS of adamls: utility per request at (0.5, 0.5) and response times."""
    rows = read_rows(out_dir / "compare" / "adamls" / "results.csv")
    rs = [float(r["r"]) for r in rows]
    total = sum(utility(float(r["c"]), float(r["r"]), config.utility, 0.5, 0.5) for r in rows)
    r_tail, pct, beyond = tail(rs)
    return {
        "requests": len(rows),
        "utility_per_req": total / len(rows),
        "r_p50_s": sorted(rs)[(len(rs) - 1) // 2],
        "r_tail_s": r_tail,
        "r_tail_pct": pct,
        "r_tail_beyond": beyond,
    }
