"""Shared fixtures for the benchmark harness.

Scheme generation is the expensive part, so one session-scoped
:class:`~repro.analysis.SchemeCache` (backed by one plan store,
``benchmarks/.scheme_cache/plans.json``) is shared by every figure bench —
the first full run sweeps the search once, replays are second-scale.
Deleting the store forces regeneration.

Environment knobs:

``REPRO_BENCH_MIN_DISKS`` / ``REPRO_BENCH_MAX_DISKS``
    Trim the paper's 7..16 disk range (e.g. on slow machines).
``REPRO_BENCH_STACKS``
    Stacks per simulated recovery (paper: 20).
"""

import os
from pathlib import Path

import pytest

from repro.analysis import SchemeCache

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"

MIN_DISKS = int(os.environ.get("REPRO_BENCH_MIN_DISKS", "7"))
MAX_DISKS = int(os.environ.get("REPRO_BENCH_MAX_DISKS", "16"))
STACKS = int(os.environ.get("REPRO_BENCH_STACKS", "20"))

DISK_RANGE = tuple(range(MIN_DISKS, MAX_DISKS + 1))


@pytest.fixture(scope="session")
def scheme_cache():
    return SchemeCache(depth=1, cache_dir=BENCH_DIR / ".scheme_cache")


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print(f"\n{text}\n")
    (results_dir / f"{name}.txt").write_text(text + "\n")
