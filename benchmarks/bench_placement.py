#!/usr/bin/env python
"""Placement benchmark: declustered rebuild reads across a disk pool.

Kills one disk of a placed pool and rebuilds it under every placement
strategy, recording where the rebuild's element reads land:

* ``flat`` — fixed groups of ``width`` disks; every read of a rebuild
  hits the dead disk's ``width - 1`` group mates (the baseline an array
  deployment gives you);
* ``declustered`` — design-based placement (AG(2,q) lines, cyclic
  translates of a Sidon block, or D3's table); the same reads fan out
  over the whole pool;
* ``d3`` — deterministic coprime-stride distribution (D3-style);
* ``random`` — seeded uniform placement, the spread upper bound.

Every grid point rebuilds through the real
:class:`~repro.pipeline.pool.PoolRebuild` data plane (compiled XOR
batches, read billing through the placement table) and is verified
byte-identical against the store before its numbers are recorded.

Results land in ``BENCH_placement.json`` at the repo root::

    {
      "config": {"grid": [...], "strategies": [...], ...},
      "points": [{"family", "n_disks", "n_pool", "n_stripes",
                  "dead_disk", "per_strategy": {"flat": {...}, ...},
                  "reduction_vs_flat": {"declustered": ..., ...},
                  "byte_identical": true}, ...],
      "summary": {"declustered_reduction_geomean": ...,
                  "declustered_reduction_at_100_disks": ...,
                  "throughput_mb_s": {"flat": ..., ...}}
    }

``--check`` enforces the acceptance bars: on a pool of >= 100 disks the
declustered placement's max-per-disk rebuild read load must be at least
2x lower than flat's; on a design geometry (an AG(2,q) or PG(2,q) layout,
where every pair of disks shares stripes equally) it must be within 1.1x
of the mean survivor load; and every rebuild must be byte-identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_placement.py           # full grid
    PYTHONPATH=src python benchmarks/bench_placement.py --quick   # CI smoke
    ... --check   # additionally enforce the declustering bars
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codes import make_code  # noqa: E402
from repro.pipeline import PoolRebuild  # noqa: E402
from repro.placement import PoolStore, list_placements, make_placement  # noqa: E402

STRATEGIES = list_placements()  # d3, declustered, flat, random

#: (family, n_disks, n_pool, n_stripes, element_size, dead_disk)
FULL_GRID = [
    ("rdp", 8, 64, 4000, 16, 5),
    ("rdp", 8, 120, 8000, 16, 5),
    ("rdp", 8, 240, 16000, 16, 5),
    ("evenodd", 7, 120, 8000, 16, 3),
    ("cauchy_rs", 8, 160, 8000, 16, 1),
]
QUICK_GRID = [
    ("rdp", 8, 64, 1200, 16, 5),
    ("rdp", 8, 120, 1500, 16, 5),
    ("evenodd", 7, 100, 1200, 16, 3),
]


def _geomean(values: List[float]) -> float:
    vals = [v for v in values if v > 0]
    if not vals:
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _is_design(construction: str, n_pool: int, width: int) -> bool:
    """AG(2,q) lines, or a Singer block (a perfect difference set, whose
    translates are the lines of PG(2,q)): every pair of disks shares
    stripes equally."""
    return construction.startswith("ag(") or (
        construction == "sidon" and n_pool == width * (width - 1) + 1
    )


def measure_point(
    family: str,
    n_disks: int,
    n_pool: int,
    n_stripes: int,
    element_size: int,
    dead_disk: int,
    chunk_stripes: int,
    seed: int,
    verbose: bool,
) -> Dict:
    code = make_code(family, n_disks)
    width = code.layout.n_disks
    per_strategy: Dict[str, Dict] = {}
    ok = True
    for name in STRATEGIES:
        pm = make_placement(name, n_pool, n_stripes, width, seed=seed)
        store = PoolStore(code, pm, element_size=element_size)
        store.encode_random(np.random.default_rng(seed))
        engine = PoolRebuild(store, chunk_stripes=chunk_stripes)
        res = engine.rebuild(dead_disk)
        ok = ok and res.ok
        if not res.ok:
            raise AssertionError(
                f"pool rebuild mismatch: {family}@{n_disks} pool={n_pool} "
                f"placement={name} ({res.mismatches} bad rows)"
            )
        load = res.stats["read_load"]
        per_strategy[name] = {
            "construction": pm.construction,
            "affected_stripes": res.stats["affected_stripes"],
            "max_read_load": res.max_read_load,
            "busy_disks": load["busy_disks"],
            "mean_busy": load["mean_busy"],
            "mean_survivor": float(res.reads_per_disk.sum()) / (n_pool - 1),
            "spread": res.read_spread,
            "rebuilt_mb_s": res.stats["rebuilt_mb_s"],
        }
    flat_max = per_strategy["flat"]["max_read_load"]
    reduction = {
        name: (flat_max / per_strategy[name]["max_read_load"]
               if per_strategy[name]["max_read_load"] else float("inf"))
        for name in STRATEGIES
        if name != "flat"
    }
    if verbose:
        row = " ".join(
            f"{name}={per_strategy[name]['max_read_load']:>6d}"
            for name in STRATEGIES
        )
        print(
            f"  {family:9s} n={n_disks:2d} pool={n_pool:4d} "
            f"stripes={n_stripes:6d} max_reads: {row} "
            f"(declustered {reduction['declustered']:.1f}x vs flat)"
        )
    return {
        "family": family,
        "n_disks": n_disks,
        "n_pool": n_pool,
        "n_stripes": n_stripes,
        "element_size": element_size,
        "dead_disk": dead_disk,
        "per_strategy": per_strategy,
        "reduction_vs_flat": reduction,
        "design": _is_design(
            per_strategy["declustered"]["construction"], n_pool, width
        ),
        "byte_identical": ok,
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small CI grid")
    ap.add_argument("--chunk-stripes", type=int, default=256)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--output", default=str(REPO_ROOT / "BENCH_placement.json"))
    ap.add_argument("--check", action="store_true",
                    help="enforce the 2x declustering floor on >= 100 disks "
                    "and the 1.1x survivor-balance bar on design geometries")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    verbose = not args.quiet

    if verbose:
        print(f"placement grid ({len(grid)} points, strategies: "
              f"{', '.join(STRATEGIES)}):")
    points = [
        measure_point(*spec, chunk_stripes=args.chunk_stripes,
                      seed=args.seed, verbose=verbose)
        for spec in grid
    ]

    big = [p for p in points if p["n_pool"] >= 100]
    summary = {
        "declustered_reduction_geomean": _geomean(
            [p["reduction_vs_flat"]["declustered"] for p in points]
        ),
        "declustered_reduction_at_100_disks": _geomean(
            [p["reduction_vs_flat"]["declustered"] for p in big]
        ),
        "throughput_mb_s": {
            name: _geomean(
                [p["per_strategy"][name]["rebuilt_mb_s"] for p in points]
            )
            for name in STRATEGIES
        },
    }

    payload = {
        "config": {
            "grid": [list(g) for g in grid],
            "strategies": STRATEGIES,
            "chunk_stripes": args.chunk_stripes,
            "seed": args.seed,
            "cpu_count": os.cpu_count(),
            "pure_python": bool(int(os.environ.get("REPRO_PURE_PYTHON", "0"))),
            "quick": args.quick,
        },
        "points": points,
        "summary": summary,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")

    if verbose:
        print(
            "summary: declustered max-per-disk load "
            f"{summary['declustered_reduction_geomean']:.1f}x lower than "
            f"flat (geomean), {summary['declustered_reduction_at_100_disks']:.1f}x "
            "on 100+ disk pools"
        )
        tp = ", ".join(f"{k} {v:.0f}" for k, v in
                       summary["throughput_mb_s"].items())
        print(f"         rebuild throughput MB/s (geomean): {tp}")
        print(f"results written to {args.output}")

    if args.check:
        failures = []
        if not big:
            failures.append("no grid point has a pool of >= 100 disks")
        for p in big:
            r = p["reduction_vs_flat"]["declustered"]
            if r < 2.0:
                failures.append(
                    f"declustered only {r:.2f}x lower max-per-disk load "
                    f"than flat on {p['n_pool']} disks (< 2x)"
                )
        design = [p for p in points if p["design"]]
        if not design:
            failures.append("no grid point has a design geometry")
        for p in design:
            dec = p["per_strategy"]["declustered"]
            ratio = dec["max_read_load"] / dec["mean_survivor"]
            if ratio > 1.1:
                failures.append(
                    f"declustered max-per-disk load {ratio:.3f}x the mean "
                    f"survivor load on the {dec['construction']} design "
                    f"over {p['n_pool']} disks (> 1.1x)"
                )
        if not all(p["byte_identical"] for p in points):
            failures.append("a rebuild was not byte-identical")
        if failures:
            for f in failures:
                print(f"CHECK FAILED: {f}", file=sys.stderr)
            return 1
        if verbose:
            print("checks passed: declustered >= 2x lower max-per-disk "
                  "rebuild reads on 100+ disk pools, <= 1.1x the mean "
                  "survivor load on design geometries, all rebuilds "
                  "byte-exact")
    return 0


if __name__ == "__main__":
    sys.exit(main())
