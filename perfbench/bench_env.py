"""Process set-up that has to happen before the program or numpy is imported."""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Math-library thread pools; pinned in the benchmark process (and the set-up
# probes it starts) so no library spreads work over cores behind its back.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_src() -> None:
    """Import adamls from this checkout's src/, never an installed copy.

    Raises ImportError when the checkout has no program to measure.
    """
    sys.path.insert(0, str(SRC))
    import adamls

    found = Path(adamls.__file__).resolve().parent
    if found != SRC / "adamls":
        raise ImportError(f"adamls was imported from {found}, not from {SRC}")
