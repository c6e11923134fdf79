"""Benchmark workloads: each one is a panel of config dicts generated from the seed.

The program only ever sees these generated dicts, turned into an
ExperimentConfig by ``adamls.config.experiment_config_from_dict``. Every
workload uses the default five-model family unless it says otherwise, and
every run does ``learn`` and then ``compare`` on each config of its panel.

A panel is the run's own seed followed by master seeds derived from it. How
long learn and compare take depends on the seed almost as much as on the
machine (k-means converges in more or fewer rounds, the controller switches
more or less often), so one run averages over several seeds.
"""

from __future__ import annotations

import copy
import hashlib
import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Config sections merged over the built-in defaults of ExperimentConfig.
    overrides: dict = field(default_factory=dict)
    # Master seeds per run, sized so that one pass over them fits in a run
    # of about 30 s on a 2-core Xeon.
    panel: int = 1
    # compare runs per seed and pass, so that a short compare still gives
    # enough samples for a steady median.
    compare_repeats: int = 1

    def config_dict(self, seed: int, output_dir: str) -> dict:
        raw = copy.deepcopy(self.overrides)
        raw["master_seed"] = seed
        raw["output_dir"] = output_dir
        return raw

    def panel_seeds(self, seed: int) -> list[int]:
        """The run's seed first, so seed n reproduces the program's own seed n."""
        return [seed] + [_derive(seed, i) for i in range(1, self.panel)]


def _derive(seed: int, index: int) -> int:
    digest = hashlib.blake2s(f"perfbench:{seed}:{index}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


# Two-model family of the test suite's tiny_config fixture (about 160
# requests); only the benchmark's own smoke test runs it.
_TINY_MODELS = [
    {"model_id": "fast", "tau_system_mean": 0.05, "tau_system_std": 0.005, "c_mean": 0.55,
     "c_std": 0.05, "s_cpu_mean": 20.0, "b_mean": 3.0, "s_cpu_std": 2.0, "b_std": 1.0},
    {"model_id": "slow", "tau_system_mean": 0.20, "tau_system_std": 0.020, "c_mean": 0.75,
     "c_std": 0.05, "s_cpu_mean": 60.0, "b_mean": 6.0, "s_cpu_std": 2.0, "b_std": 1.0},
]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bursty",
            "paper experiment, built-in default config: 5000 Poisson requests in nine "
            "flash crowds peaking at 28 rps, 1 worker; controller-bound",
            panel=6,
        ),
        Workload(
            "wide-profile",
            "5000 images per model and only the first 500 requests; learning-bound "
            "(k-means/WCSS and CI build), the controller barely runs",
            {"profiles": {"image_count": 5000}, "workload": {"max_requests": 500}},
            panel=4,
            compare_repeats=2,
        ),
        Workload(
            "overload",
            "4 workers under a constant 20 rps for 400 s: deep backlog, thousands of "
            "no-op plans and almost no switches; engine- and dispatch-bound",
            {
                # The cap sits far above the ~8000 arrivals, so it never binds.
                "workload": {"segments": [[400.0, 20.0]], "max_requests": 20000},
                "simulation": {"worker_count": 4},
            },
            panel=5,
        ),
        Workload(
            "smoke",
            "two-model family with about 160 requests, for the benchmark's smoke test",
            {
                "profiles": {"image_count": 120, "models": _TINY_MODELS},
                "learning": {"k_max": 4},
                "workload": {
                    "segments": [[10.0, 2.0], [4.0, 8.0], [6.0, 15.0], [12.0, 3.0]],
                    "max_requests": 160,
                },
                "simulation": {"initial_model": "slow"},
                "naive_thresholds": [[6.0, "slow"], [math.inf, "fast"]],
            },
            panel=2,
        ),
    )
}
