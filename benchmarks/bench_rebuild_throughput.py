#!/usr/bin/env python
"""Rebuild-throughput benchmark for the zero-copy stripe pipeline.

Rebuilds a failed physical disk of a rotated array image three ways and
records MB/s for each:

* ``stripe_loop`` — the per-stripe single-process engine the repo shipped
  before :mod:`repro.pipeline` existed (gather one stripe,
  ``execute_scheme``, patch);
* ``batch`` — the single-process chunked
  :class:`~repro.codec.batch.BatchReconstructor` path (``workers=1``);
* ``pipeline`` — the forked multi-process pipeline at each worker
  count in ``--workers``.

Every grid point is verified byte-identical against the original disk
image before its timing is recorded; a mismatch aborts the run.  A second
section times scheme *planning* against a cold and a warm persistent
:class:`~repro.recovery.plancache.SchemePlanCache` and proves — via
:mod:`repro.obs` counters — that the warm run expands zero search states.

Results land in ``BENCH_rebuild.json`` at the repo root::

    {
      "config":   {"grid": [...], "workers": [...], "chunk_stripes": ...,
                   "repeats": ..., "cpu_count": ...},
      "points":   [{"family", "n_disks", "element_size", "n_stripes",
                    "failed_disk", "disk_mb", "stripe_loop_mb_s",
                    "batch_mb_s", "pipeline_mb_s": {"2": ..., "4": ...},
                    "byte_identical": true}, ...],
      "speedup":  {"batch_vs_stripe_loop_geomean": ...,
                   "best_vs_stripe_loop_geomean": ...,
                   "pipeline_vs_batch": {"2": ..., "4": ...}},
      "plan_cache": {"cold_plan_s": ..., "warm_plan_s": ...,
                     "speedup": ..., "warm_expanded_states": 0,
                     "warm_cache_hits": ...}
    }

Parallel speedup is hardware-bound: the worker sweep only beats the
single-process batch path when ``cpu_count`` gives the workers somewhere
to run (the recorded value qualifies every reading).  The speedup floor
asserted by ``--check`` is therefore the single-machine one: the best
rebuild path must be >= 2.5x the per-stripe engine.

Usage::

    PYTHONPATH=src python benchmarks/bench_rebuild_throughput.py          # full grid
    PYTHONPATH=src python benchmarks/bench_rebuild_throughput.py --quick  # CI smoke
    ... --check   # additionally enforce the speedup floor / cache proof
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.codec import ArrayImageCodec  # noqa: E402
from repro.codes import make_code  # noqa: E402
from repro.pipeline import RebuildPipeline  # noqa: E402
from repro.recovery import RecoveryPlanner, SchemePlanCache  # noqa: E402

#: (family, n_disks, element_size, n_stripes, failed_disk)
FULL_GRID = [
    ("rdp", 7, 512, 2100, 0),
    ("rdp", 11, 512, 1100, 3),
    ("evenodd", 7, 512, 2100, 2),
    ("liberation", 7, 1024, 1400, 0),
    ("cauchy_rs", 8, 512, 1600, 1),
]
QUICK_GRID = [
    ("rdp", 7, 256, 420, 0),
    ("evenodd", 7, 256, 420, 2),
]


def _geomean(values: List[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _best_of(fn, repeats: int) -> float:
    """Max MB/s over repeats (rebuilds are deterministic; take the best)."""
    best = 0.0
    for _ in range(repeats):
        best = max(best, fn())
    return best


def measure_point(
    family: str,
    n_disks: int,
    element_size: int,
    n_stripes: int,
    failed_disk: int,
    workers: List[int],
    chunk_stripes: int,
    repeats: int,
    verbose: bool,
) -> Dict:
    code = make_code(family, n_disks)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(7)))
    original = disks[failed_disk].copy()

    planner = RecoveryPlanner(code, algorithm="u", depth=1)
    planner.all_disk_schemes()  # plan once up front; we time the data plane

    def run(w: int, use_batch: bool = True) -> float:
        pipe = RebuildPipeline(
            codec, workers=w, chunk_stripes=chunk_stripes, planner=planner
        )
        result = pipe.rebuild(disks, failed_disk, use_batch=use_batch)
        if not np.array_equal(result.image, original):
            raise AssertionError(
                f"rebuild mismatch: {family}@{n_disks} esz={element_size} "
                f"workers={w} use_batch={use_batch}"
            )
        return result.stats["rebuilt_mb_s"]

    point = {
        "family": family,
        "n_disks": n_disks,
        "element_size": element_size,
        "n_stripes": n_stripes,
        "failed_disk": failed_disk,
        "disk_mb": original.nbytes / 2**20,
        "stripe_loop_mb_s": _best_of(lambda: run(1, use_batch=False), repeats),
        "batch_mb_s": _best_of(lambda: run(1), repeats),
        "pipeline_mb_s": {
            str(w): _best_of(lambda: run(w), repeats) for w in workers
        },
        "byte_identical": True,  # every run above asserted it
    }
    if verbose:
        pipes = " ".join(
            f"{w}w={v:7.1f}" for w, v in point["pipeline_mb_s"].items()
        )
        print(
            f"  {family:10s} n={n_disks:2d} esz={element_size:5d} "
            f"stripe_loop={point['stripe_loop_mb_s']:7.1f} "
            f"batch={point['batch_mb_s']:7.1f} {pipes} MB/s"
        )
    return point


def measure_plan_cache(family: str, n_disks: int, tmp_store: Path) -> Dict:
    """Cold vs warm planning through the persistent plan cache.

    The warm pass runs under a fresh :mod:`repro.obs` recorder so the
    "search skipped" claim is counter-verified, not inferred from timing:
    zero ``search.*`` activity, zero expanded states, one plan-cache hit
    per disk.
    """
    code = make_code(family, n_disks)
    if tmp_store.exists():
        tmp_store.unlink()

    cache = SchemePlanCache(tmp_store)
    t0 = time.perf_counter()
    planner = RecoveryPlanner(code, algorithm="u", depth=1, plan_cache=cache)
    cold_schemes = planner.all_disk_schemes()
    cold_s = time.perf_counter() - t0
    cold_expanded = sum(s.expanded_states for s in cold_schemes)

    # a brand-new cache object over the same store == a process restart
    warm_cache = SchemePlanCache(tmp_store)
    rec = obs.enable(label="plan-cache warm run")
    try:
        t0 = time.perf_counter()
        warm_planner = RecoveryPlanner(
            code, algorithm="u", depth=1, plan_cache=warm_cache
        )
        warm_schemes = warm_planner.all_disk_schemes()
        warm_s = time.perf_counter() - t0
    finally:
        obs.disable()
    counters = {c.name: c.value for c in rec.counters.values()}
    searches_run = counters.get("planner.schemes_generated", 0)
    for cold, warm in zip(cold_schemes, warm_schemes):
        if cold.equations != warm.equations or cold.read_mask != warm.read_mask:
            raise AssertionError("warm plan differs from cold plan")
    return {
        "family": family,
        "n_disks": n_disks,
        "cold_plan_s": cold_s,
        "warm_plan_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "cold_expanded_states": cold_expanded,
        "warm_searches_run": searches_run,
        "warm_expanded_states": int(counters.get("search.expanded", 0)),
        "warm_cache_hits": int(counters.get("plancache.hit", 0)),
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small CI grid")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workers", default="2,4",
                    help="comma-separated pipeline worker counts")
    ap.add_argument("--chunk-stripes", type=int, default=64)
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_rebuild.json"))
    ap.add_argument("--plan-cache-store", default="/tmp/bench_plan_cache.json")
    ap.add_argument("--check", action="store_true",
                    help="enforce the 2.5x floor and the 0-expanded proof")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    workers = [int(w) for w in args.workers.split(",") if w]
    verbose = not args.quiet

    if verbose:
        print(f"rebuild throughput grid ({len(grid)} points, "
              f"cpu_count={os.cpu_count()}):")
    points = [
        measure_point(*spec, workers=workers,
                      chunk_stripes=args.chunk_stripes,
                      repeats=args.repeats, verbose=verbose)
        for spec in grid
    ]

    def best(p: Dict) -> float:
        return max(p["batch_mb_s"], *p["pipeline_mb_s"].values())

    speedup = {
        "batch_vs_stripe_loop_geomean": _geomean(
            [p["batch_mb_s"] / p["stripe_loop_mb_s"] for p in points]
        ),
        "best_vs_stripe_loop_geomean": _geomean(
            [best(p) / p["stripe_loop_mb_s"] for p in points]
        ),
        "pipeline_vs_batch": {
            str(w): _geomean(
                [p["pipeline_mb_s"][str(w)] / p["batch_mb_s"] for p in points]
            )
            for w in workers
        },
    }

    fam, n = grid[0][0], grid[0][1]
    plan_cache = measure_plan_cache(fam, n, Path(args.plan_cache_store))

    payload = {
        "config": {
            "grid": [list(g) for g in grid],
            "workers": workers,
            "chunk_stripes": args.chunk_stripes,
            "repeats": args.repeats,
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
        },
        "points": points,
        "speedup": speedup,
        "plan_cache": plan_cache,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")

    if verbose:
        print("speedup: batch/stripe_loop "
              f"{speedup['batch_vs_stripe_loop_geomean']:.2f}x, "
              f"best/stripe_loop {speedup['best_vs_stripe_loop_geomean']:.2f}x")
        pv = ", ".join(f"{w}w {v:.2f}x"
                       for w, v in speedup["pipeline_vs_batch"].items())
        print(f"         pipeline/batch {pv} (cpu_count={os.cpu_count()})")
        print(f"plan cache: cold {plan_cache['cold_plan_s'] * 1e3:.1f} ms "
              f"({plan_cache['cold_expanded_states']} states) -> warm "
              f"{plan_cache['warm_plan_s'] * 1e3:.1f} ms "
              f"({plan_cache['warm_expanded_states']} states, "
              f"{plan_cache['warm_cache_hits']} hits) = "
              f"{plan_cache['speedup']:.0f}x")
        print(f"results written to {args.output}")

    if args.check:
        failures = []
        if speedup["best_vs_stripe_loop_geomean"] < 2.5:
            failures.append(
                "best rebuild path is only "
                f"{speedup['best_vs_stripe_loop_geomean']:.2f}x the "
                "per-stripe engine (< 2.5x)"
            )
        if plan_cache["warm_searches_run"] != 0:
            failures.append("warm plan-cache run still ran a search")
        if plan_cache["warm_expanded_states"] != 0:
            failures.append("warm plan-cache run expanded search states")
        if plan_cache["warm_cache_hits"] < 1:
            failures.append("warm run recorded no plan-cache hits")
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
        if verbose:
            print("checks passed: >= 2.5x rebuild speedup, warm cache ran "
                  "0 searches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
