#!/usr/bin/env python
"""Benchmark-tracking harness for the scheme-generation search engine.

Times Khan / C / U scheme generation across the paper's Figure-3 code grid
(five families x n = 7..16 disks, failed disk 0, depth 1 — the E7 running-
time setup of Sec. V-B) and writes a machine-readable ``BENCH_search.json``
at the repository root.  The file is the repo's performance trajectory:
every perf PR re-runs this script and is judged against the recorded
baseline instead of anecdotes.

Usage::

    PYTHONPATH=src python benchmarks/bench_search_perf.py                # full grid
    PYTHONPATH=src python benchmarks/bench_search_perf.py --quick       # CI smoke
    PYTHONPATH=src python benchmarks/bench_search_perf.py --as-baseline # record baseline

``--as-baseline`` stores the measurements under the ``baseline`` key
(preserving any existing ``current``); a default run stores them under
``current`` (preserving the recorded ``baseline``) and reports the
per-point and geomean speedup of current over baseline.

JSON schema (see docs/performance.md)::

    {
      "grid":     {"families": [...], "min_disks": 7, "max_disks": 16,
                   "algorithms": ["khan", "c", "u"], "depth": 1, "repeats": 3},
      "baseline": {"points": [{"family", "n_disks", "algorithm",
                               "wall_ms", "expanded", "total_reads",
                               "max_load"}, ...],
                   "geomean_wall_ms": ...},
      "current":  {... same shape ...},
      "speedup":  {"geomean": ..., "per_algorithm": {...},
                   "min": ..., "max": ...},
      "stages":   {"stages": [...], "counters": {...}, "gauges": {...}}
    }

The ``stages`` key is a :func:`repro.obs.breakdown_dict` stage breakdown
from a separate traced pass (one ``bench.point`` span per family at its
widest grid instance, cold enumeration caches) — the timing measurements
themselves always run with the recorder off so ``wall_ms`` stays clean.
``--trace-out PATH`` additionally writes that pass's full JSONL trace;
``--no-stages`` skips the pass entirely.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.codes import PAPER_FIGURE_FAMILIES, make_code  # noqa: E402
from repro.recovery import scheme_for_disk  # noqa: E402
from repro.recovery.ualgorithm import SEARCHED  # noqa: E402

FULL_GRID = dict(families=list(PAPER_FIGURE_FAMILIES), min_disks=7, max_disks=16)
QUICK_GRID = dict(families=["rdp", "evenodd"], min_disks=7, max_disks=10)


def measure_grid(
    families: List[str],
    min_disks: int,
    max_disks: int,
    depth: int,
    repeats: int,
    verbose: bool = True,
) -> List[Dict]:
    """Time every (family, n, algorithm) point; wall is the min over repeats."""
    points: List[Dict] = []
    for family in families:
        for n in range(min_disks, max_disks + 1):
            try:
                code = make_code(family, n)
            except ValueError:
                continue  # family has no instance at this width
            for alg in SEARCHED:
                best = math.inf
                scheme = None
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    scheme = scheme_for_disk(code, 0, alg, depth=depth)
                    elapsed = time.perf_counter() - t0
                    best = min(best, elapsed)
                point = {
                    "family": family,
                    "n_disks": n,
                    "algorithm": alg,
                    "wall_ms": round(best * 1000, 4),
                    "expanded": scheme.expanded_states,
                    "total_reads": scheme.total_reads,
                    "max_load": scheme.max_load,
                }
                points.append(point)
                if verbose:
                    print(
                        f"{family:12s} n={n:2d} {alg:4s} "
                        f"{point['wall_ms']:9.2f} ms  "
                        f"expanded={point['expanded']}",
                        flush=True,
                    )
    return points


def measure_stages(
    families: List[str],
    min_disks: int,
    max_disks: int,
    depth: int,
    trace_out: Optional[Path] = None,
) -> Dict:
    """One traced scheme-generation pass per family (widest instance).

    Returns the stage breakdown to embed in the JSON payload; optionally
    writes the full JSONL trace.  Enumeration caches are cleared per
    family so the enumeration stages show up instead of hitting the
    cache warmed by the timing pass.
    """
    from repro import obs
    from repro.equations.enumerate import clear_enumeration_caches

    rec = obs.enable(label="bench_search_perf stage pass")
    try:
        for family in families:
            for n in range(max_disks, min_disks - 1, -1):
                try:
                    code = make_code(family, n)
                    break
                except ValueError:
                    continue
            else:
                continue
            clear_enumeration_caches()
            with obs.span("bench.point", family=family, n_disks=n):
                for alg in SEARCHED:
                    scheme_for_disk(code, 0, alg, depth=depth)
        if trace_out is not None:
            n_lines = obs.export_jsonl(rec, trace_out)
            print(f"stage trace: {trace_out} ({n_lines} lines)")
        return obs.breakdown_dict(rec)
    finally:
        obs.disable()


def geomean(values: List[float]) -> float:
    values = [max(v, 1e-9) for v in values]
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(points: List[Dict]) -> Dict:
    return {
        "points": points,
        "geomean_wall_ms": round(geomean([p["wall_ms"] for p in points]), 4),
        "total_wall_ms": round(sum(p["wall_ms"] for p in points), 2),
    }


def compute_speedup(baseline: Dict, current: Dict) -> Optional[Dict]:
    """Per-point speedup of current over baseline (matched on grid keys)."""
    base_by_key = {
        (p["family"], p["n_disks"], p["algorithm"]): p
        for p in baseline.get("points", [])
    }
    ratios: List[float] = []
    per_alg: Dict[str, List[float]] = {}
    for p in current["points"]:
        b = base_by_key.get((p["family"], p["n_disks"], p["algorithm"]))
        if b is None or not b["wall_ms"] or not p["wall_ms"]:
            continue
        r = b["wall_ms"] / p["wall_ms"]
        ratios.append(r)
        per_alg.setdefault(p["algorithm"], []).append(r)
    if not ratios:
        return None
    return {
        "geomean": round(geomean(ratios), 3),
        "min": round(min(ratios), 3),
        "max": round(max(ratios), 3),
        "per_algorithm": {a: round(geomean(rs), 3) for a, rs in per_alg.items()},
        "matched_points": len(ratios),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid (rdp/evenodd, n=7..10) for CI smoke runs",
    )
    parser.add_argument(
        "--as-baseline", action="store_true",
        help="record the measurements as the baseline instead of current",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_search.json"
    )
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="also write the stage pass's full JSONL trace here",
    )
    parser.add_argument(
        "--no-stages", action="store_true",
        help="skip the traced stage-breakdown pass",
    )
    args = parser.parse_args(argv)

    grid = QUICK_GRID if args.quick else FULL_GRID
    points = measure_grid(
        grid["families"], grid["min_disks"], grid["max_disks"],
        args.depth, args.repeats,
    )
    section = summarize(points)

    payload: Dict = {}
    if args.output.exists():
        try:
            payload = json.loads(args.output.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    payload["grid"] = dict(
        grid, algorithms=list(SEARCHED), depth=args.depth,
        repeats=args.repeats, quick=args.quick,
    )
    payload[("baseline" if args.as_baseline else "current")] = section
    if not args.no_stages:
        payload["stages"] = measure_stages(
            grid["families"], grid["min_disks"], grid["max_disks"],
            args.depth, trace_out=args.trace_out,
        )
    if "baseline" in payload and "current" in payload:
        speedup = compute_speedup(payload["baseline"], payload["current"])
        if speedup is not None:
            payload["speedup"] = speedup

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\ngeomean wall: {section['geomean_wall_ms']:.3f} ms "
          f"over {len(points)} points -> {args.output}")
    if payload.get("speedup"):
        sp = payload["speedup"]
        print(f"speedup vs baseline: geomean {sp['geomean']}x "
              f"(min {sp['min']}x, max {sp['max']}x, "
              f"per-alg {sp['per_algorithm']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
