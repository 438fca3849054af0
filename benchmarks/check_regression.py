#!/usr/bin/env python
"""Benchmark regression gate: compare a fresh run against a committed baseline.

The committed ``BENCH_*.json`` files at the repo root record the repo's
performance trajectory.  CI re-runs the benchmarks in ``--quick`` mode and
this script fails the build when a fresh run contradicts the committed
baseline:

* **Deterministic metrics are compared exactly.**  The scheme searches are
  deterministic, so ``expanded`` states, ``total_reads`` and ``max_load``
  for a (family, n_disks, algorithm) point must match the committed value
  bit-for-bit on any machine — a mismatch means the search behaviour
  changed and the baseline file was not regenerated.
* **Throughput ratios get a tolerance band.**  Wall-clock numbers are
  machine-dependent, so the rebuild gate checks relative speedups (batch
  vs the per-stripe loop) against the committed ratio with a wide ``--tolerance``
  band, plus the hard invariants: byte-identical rebuilds and a
  warm plan cache that runs zero searches.

Usage::

    python benchmarks/check_regression.py --kind search \
        --fresh /tmp/fresh_search.json --baseline BENCH_search.json
    python benchmarks/check_regression.py --kind rebuild \
        --fresh /tmp/fresh_rebuild.json --baseline BENCH_rebuild.json
    python benchmarks/check_regression.py --kind codes \
        --fresh /tmp/fresh_codes.json --baseline BENCH_codes.json

Exit status 0 when the fresh run is consistent with the baseline, 1 with a
line per violation on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: deterministic per-point metrics of the search benchmark
SEARCH_METRICS = ("expanded", "total_reads", "max_load")
#: deterministic per-point metrics of the codes benchmark
CODES_METRICS = ("total_reads", "max_load", "balance")


def _load(path: Path) -> Dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"error: benchmark file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path} is not valid JSON: {exc}")


def check_search(fresh: Dict, baseline: Dict, tolerance: float) -> List[str]:
    """Exact-compare deterministic search metrics on overlapping points.

    The committed file's ``current`` section is the latest recorded run of
    the search engine as it exists in the tree; the ``baseline`` section is
    the historical reference predating perf work, so a fresh run is judged
    against ``current``.
    """
    del tolerance  # search comparisons are exact
    fresh_pts = (fresh.get("current") or fresh.get("baseline") or {}).get(
        "points", []
    )
    base_pts = (baseline.get("current") or baseline.get("baseline") or {}).get(
        "points", []
    )
    index = {
        (p["family"], p["n_disks"], p["algorithm"]): p for p in base_pts
    }
    failures: List[str] = []
    overlap = 0
    for p in fresh_pts:
        key = (p["family"], p["n_disks"], p["algorithm"])
        ref = index.get(key)
        if ref is None:
            continue
        overlap += 1
        for metric in SEARCH_METRICS:
            if p[metric] != ref[metric]:
                failures.append(
                    f"search {key[0]}@{key[1]}/{key[2]}: {metric} "
                    f"{p[metric]} != committed {ref[metric]} "
                    "(regenerate BENCH_search.json if intentional)"
                )
    if overlap == 0:
        failures.append(
            "search: fresh run shares no (family, n_disks, algorithm) "
            "point with the committed baseline — nothing was verified"
        )
    return failures


def check_rebuild(fresh: Dict, baseline: Dict, tolerance: float) -> List[str]:
    """Hard invariants exactly; committed speedup ratios within the band."""
    failures: List[str] = []
    for p in fresh.get("points", []):
        if not p.get("byte_identical", False):
            failures.append(
                f"rebuild {p['family']}@{p['n_disks']}: not byte-identical"
            )
    cache = fresh.get("plan_cache")
    if cache is not None:
        if cache.get("warm_searches_run", 0) != 0:
            failures.append(
                f"rebuild plan cache ran {cache['warm_searches_run']} "
                "searches warm (expected 0)"
            )
        if cache.get("warm_cache_hits", 0) <= 0:
            failures.append("rebuild plan cache recorded no warm hits")
    fresh_ratio = (fresh.get("speedup") or {}).get("batch_vs_stripe_loop_geomean")
    base_ratio = (baseline.get("speedup") or {}).get(
        "batch_vs_stripe_loop_geomean"
    )
    if fresh_ratio is None:
        failures.append("rebuild: fresh run has no batch speedup ratio")
    elif base_ratio:
        floor = base_ratio * (1.0 - tolerance)
        if fresh_ratio < floor:
            failures.append(
                f"rebuild: batch speedup {fresh_ratio:.2f}x fell below "
                f"{floor:.2f}x ({base_ratio:.2f}x committed, "
                f"-{tolerance:.0%} band)"
            )
    return failures


def check_codes(fresh: Dict, baseline: Dict, tolerance: float) -> List[str]:
    """Exact-compare the deterministic cross-family table on overlap."""
    del tolerance
    base_index = {
        (p["family"], p["n_disks"]): p for p in baseline.get("points", [])
    }
    fresh_cfg = fresh.get("config", {})
    base_cfg = baseline.get("config", {})
    failures: List[str] = []
    comparable = all(
        fresh_cfg.get(k) == base_cfg.get(k) for k in ("depth", "max_expansions")
    )
    if not comparable:
        failures.append(
            "codes: fresh run used different search settings "
            f"(depth/max_expansions {fresh_cfg.get('depth')}/"
            f"{fresh_cfg.get('max_expansions')}) than the committed baseline"
        )
        return failures
    overlap = 0
    for p in fresh.get("points", []):
        key = (p["family"], p["n_disks"])
        ref = base_index.get(key)
        if ref is None:
            continue
        overlap += 1
        for alg, metrics in p["per_algorithm"].items():
            ref_metrics = ref["per_algorithm"].get(alg)
            if ref_metrics is None:
                failures.append(
                    f"codes {key[0]}@{key[1]}: algorithm {alg} missing "
                    "from committed baseline"
                )
                continue
            for metric in CODES_METRICS:
                if abs(metrics[metric] - ref_metrics[metric]) > 1e-9:
                    failures.append(
                        f"codes {key[0]}@{key[1]}/{alg}: {metric} "
                        f"{metrics[metric]} != committed "
                        f"{ref_metrics[metric]} "
                        "(regenerate BENCH_codes.json if intentional)"
                    )
    if overlap == 0:
        failures.append(
            "codes: fresh run shares no (family, n_disks) point with the "
            "committed baseline — nothing was verified"
        )
    return failures


CHECKS = {
    "search": check_search,
    "rebuild": check_rebuild,
    "codes": check_codes,
}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", required=True, choices=sorted(CHECKS))
    ap.add_argument("--fresh", required=True, type=Path,
                    help="JSON produced by the fresh (smoke) benchmark run")
    ap.add_argument("--baseline", required=True, type=Path,
                    help="committed BENCH_*.json to compare against")
    ap.add_argument("--tolerance", type=float, default=0.6,
                    help="relative band for machine-dependent ratios "
                         "(default 0.6 = fresh may be 60%% below committed)")
    args = ap.parse_args(argv)

    fresh = _load(args.fresh)
    baseline = _load(args.baseline)
    failures = CHECKS[args.kind](fresh, baseline, args.tolerance)
    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    print(f"{args.kind}: fresh run consistent with {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
