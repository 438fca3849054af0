#!/usr/bin/env python
"""Recovery-time inflation under injected faults, per algorithm.

For each scheme generator (Khan / C / U) and each fault class, this
harness encodes random stripes, runs the
:class:`~repro.recovery.resilient.ResilientExecutor` against a
:class:`~repro.faults.store.FaultyStripeStore`, verifies the recovered
bytes, and prices the rebuild on the
:class:`~repro.disksim.array.DiskArraySimulator`: each stripe costs the
parallel (max-over-disks) read time of the elements *actually* read —
retries, substituted equations and escalated double-failure plans
included — with slow-disk factors applied.  The printout is the ratio of
faulted to fault-free recovery time: what a latent sector error, a silent
corruption, a limping disk or a mid-rebuild second failure costs each
algorithm's schemes.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py
    PYTHONPATH=src python benchmarks/bench_fault_recovery.py \
        --family evenodd --disks 9 --stripes 12 --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs  # noqa: E402
from repro.codec import StripeCodec  # noqa: E402
from repro.codes import make_code  # noqa: E402
from repro.disksim import DiskArraySimulator  # noqa: E402
from repro.faults import (  # noqa: E402
    DiskFailure,
    FaultPlan,
    FaultyStripeStore,
    LatentSectorError,
    SilentCorruption,
    SlowDisk,
)
from repro.recovery import ResilientExecutor, scheme_for_disk  # noqa: E402

ALGORITHMS = ("khan", "c", "u")


def fault_classes(scheme, layout, stripes: int) -> Dict[str, FaultPlan]:
    """One representative plan per fault class, aimed at elements the
    scheme actually reads (a fault nobody reads costs nothing)."""
    read = list(layout.iter_elements(scheme.read_mask))
    d0, r0 = read[0]
    d1, r1 = read[len(read) // 2]
    # the secondary death: a surviving disk the plan leans on
    dead_disk = d1 if d1 != d0 else read[-1][0]
    mid = max(1, stripes // 2)
    return {
        "none": FaultPlan(),
        "lse": FaultPlan([LatentSectorError(d0, r0)]),
        "corrupt": FaultPlan([SilentCorruption(d0, r0)]),
        "slow": FaultPlan([SlowDisk(d0, 4.0)]),
        "second-failure": FaultPlan([DiskFailure(dead_disk, at_stripe=mid)]),
    }


def rebuild_time(
    array: DiskArraySimulator, layout, read_masks: List[int]
) -> float:
    """Total simulated rebuild time: per-stripe parallel read maxima."""
    return sum(
        array.stripe_recovery_time(layout, mask, stripe=s)
        for s, mask in enumerate(read_masks)
    )


def run(args) -> Dict:
    """Run the whole inflation grid with the obs recorder enabled.

    The per-stage wall-clock breakdown and the executor/ disksim counters
    (retries, substitutions, escalations, per-disk busy seconds) land in
    the returned payload under ``stages``; the benchmark's headline
    numbers are simulated times, so tracing does not perturb them.
    """
    code = make_code(args.family, args.disks)
    lay = code.layout
    codec = StripeCodec(code, args.element_size)
    rng = np.random.default_rng(args.seed)
    stripes = [
        codec.encode(codec.random_data(rng)) for _ in range(args.stripes)
    ]
    results: Dict[str, Dict[str, Dict]] = {}
    for alg in ALGORITHMS:
        scheme = scheme_for_disk(
            code, args.failed_disk, algorithm=alg, depth=args.depth
        )
        plans = fault_classes(scheme, lay, args.stripes)
        per_alg: Dict[str, Dict] = {}
        base_time = None
        for name, plan in plans.items():
            store = FaultyStripeStore(lay, stripes, plan)
            executor = ResilientExecutor(
                code,
                scheme,
                store,
                algorithm=alg,
                depth=args.depth,
            )
            with obs.span("bench.fault_case", algorithm=alg, fault=name):
                result = executor.run()
            if not result.verify_against(stripes):
                raise AssertionError(
                    f"{alg}/{name}: recovered bytes differ from originals"
                )
            array = DiskArraySimulator(lay.n_disks, fault_plan=plan)
            t = rebuild_time(array, lay, result.report.per_stripe_read_masks)
            if name == "none":
                base_time = t
            per_alg[name] = {
                "time_s": t,
                "inflation": t / base_time if base_time else 1.0,
                "extra_reads": result.report.extra_elements_read,
                "retries": result.report.total_retries,
                "substitutions": len(result.report.substitutions),
                "escalated": result.report.escalated,
            }
        results[alg] = per_alg
    return {
        "config": {
            "family": args.family,
            "disks": args.disks,
            "failed_disk": args.failed_disk,
            "stripes": args.stripes,
            "element_size": args.element_size,
            "depth": args.depth,
            "seed": args.seed,
        },
        "results": results,
    }


def print_table(payload: Dict) -> None:
    results = payload["results"]
    classes = list(next(iter(results.values())).keys())
    cfg = payload["config"]
    print(
        f"fault-recovery inflation — {cfg['family']}@{cfg['disks']}, "
        f"disk {cfg['failed_disk']} failed, {cfg['stripes']} stripes"
    )
    header = f"{'fault class':16s}" + "".join(f"{a:>12s}" for a in results)
    print(header)
    print("-" * len(header))
    for name in classes:
        row = f"{name:16s}"
        for alg in results:
            cell = results[alg][name]
            row += f"{cell['inflation']:11.2f}x"
        print(row)
    print()
    for alg in results:
        sf = results[alg]["second-failure"]
        print(
            f"{alg}: second-failure escalated={sf['escalated']} "
            f"extra_reads={sf['extra_reads']} "
            f"lse extra_reads={results[alg]['lse']['extra_reads']} "
            f"retries={results[alg]['lse']['retries']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="rdp")
    parser.add_argument("--disks", type=int, default=8)
    parser.add_argument("--failed-disk", type=int, default=0)
    parser.add_argument("--stripes", type=int, default=8)
    parser.add_argument("--element-size", type=int, default=64)
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", default=None, help="also write JSON here")
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="also write the run's full JSONL trace here",
    )
    args = parser.parse_args(argv)
    rec = obs.enable(label=f"bench_fault_recovery {args.family}@{args.disks}")
    try:
        payload = run(args)
        payload["stages"] = obs.breakdown_dict(rec)
        if args.trace_out is not None:
            n_lines = obs.export_jsonl(rec, args.trace_out)
            print(f"trace: {args.trace_out} ({n_lines} lines)")
    finally:
        obs.disable()
    print_table(payload)
    if args.json:
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"\nwritten to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
