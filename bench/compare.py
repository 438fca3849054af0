"""Compare two directories of benchmark runs under the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py --out DIR``.  For
every (workload, end-to-end metric) pair this prints each side's median and
quartiles, the fraction of pairs the new side wins (runs paired in seed
order; ties count for neither) and a verdict:

``improved``
    the new side wins at least 9 in 10 pairs and the medians differ by
    more than the quartile distance of the base side's own runs;
``unresolved``
    either side's spread (quartile distance over median) exceeds the
    bound, unless every new run reads better than every base run;
    ``setup_s`` is exempt and judged by its median alone, as the
    benchmark contract does (a few short builds per run spread widely);
``worse``
    the new median is worse than the base median by more than the bound;
``no-worse``
    otherwise.

Untraced results are compared when a directory has any, traced ones
otherwise, so ``compare.py UNTRACED_DIR TRACED_DIR`` reports the tracing
overhead per metric.  The exit code is 1 when any pair is worse or
unresolved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_runs(directory: Path) -> Dict[str, List[Dict]]:
    """Result records by workload, untraced preferred, in seed order."""
    records = []
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if isinstance(rec, dict) and rec.get("schema") == "repro-bench/1":
            records.append(rec)
    if any(not r["traced"] for r in records):
        records = [r for r in records if not r["traced"]]
    by_workload: Dict[str, List[Dict]] = {}
    for rec in sorted(records, key=lambda r: r["seed"]):
        by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, judge_spread: bool = True) -> Tuple[str, float]:
    """The verdict for one metric and the new side's pair-win fraction."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (b - a) > 0

    pairs = list(zip(base, new))
    wins = sum(beats(n, b) for b, n in pairs) / len(pairs)
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    if wins >= 0.9 and sign * (bmed - nmed) > bq3 - bq1:
        return "improved", wins
    if all(beats(n, b) for n in new for b in base):
        return "no-worse", wins
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if judge_spread and spread > bound:
        return "unresolved", wins
    worse_by = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if worse_by > bound:
        return "worse", wins
    return "no-worse", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    bad = 0
    print(f"{'workload':14s} {'metric':15s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s} {'wins':>5s}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["end_to_end"][name]["value"] for r in base[workload]]
            n = [r["end_to_end"][name]["value"] for r in new[workload]]
            v, wins = verdict(b, n, metric["better"], metric["bound"],
                              judge_spread=name != "setup_s")
            bad += v in ("worse", "unresolved")
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            print(f"{workload:14s} {name:15s} "
                  f"{bq[1]:12.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
                  f"{nq[1]:12.5g} [{nq[0]:9.5g}, {nq[2]:9.5g}] "
                  f"{change:+8.1%} {wins:5.2f}  {v} (bound {metric['bound']:g}, "
                  f"{len(b)} vs {len(n)} runs)")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
