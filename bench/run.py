"""Run the repository benchmark (workloads, metrics and layers: bench/README.md).

One workload, in this process::

    python3 bench/run.py --workload array-rebuild --seed 1 --seconds 15 --trace 0

All four, each in a fresh process (``--trace 1`` adds a traced run of each
and prints the tracing overhead)::

    python3 bench/run.py --seed 1 [--trace 1] [--out DIR] [--smoke]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when every operation succeeded and every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOAD_NAMES = ("array-rebuild", "pool-rebuild", "degraded-read", "plan-cold")
PERCENTILES = (10, 25, 50, 75, 90, 99)


def _prepare() -> None:
    """Make the program importable and keep its build cache in the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    # the C kernel compiles into $XDG_CACHE_HOME/repro-ckernel
    os.environ["XDG_CACHE_HOME"] = str(BUILD / "cache")


def _git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> Dict[str, Any]:
    """The block stamped on every result: what the numbers were measured on."""
    import numpy as np
    from repro.recovery import ckernel

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "xor_kernel": ckernel.xor_available(),
        "REPRO_PURE_PYTHON": os.environ.get("REPRO_PURE_PYTHON"),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    Shared memory (the pipeline arena, the serving shards) starts the
    tracker as a process of its own, which would otherwise outlive this
    one.  It ends once every holder of its pipe has closed it, so any
    worker still alive (only on an error path) is ended first.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def _peak_rss_mib() -> float:
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024


def _result_path(out: Path, workload: str, seed: int, traced: bool) -> Path:
    mode = "traced" if traced else "untraced"
    for n in range(10_000):
        path = out / f"{workload}-s{seed}-{mode}-{n}.json"
        if not path.exists():
            return path
    raise RuntimeError(f"too many results in {out}")


def _print_metrics(metrics: Dict[str, Dict[str, Any]]) -> None:
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
def run_one(args) -> int:
    from repro.recovery import ckernel

    ckernel.load()  # compile or load the kernel before any set-up is timed
    import numpy as np
    import tracer as tracing
    import workloads

    env = environment()
    size = workloads.SIZES["smoke" if args.smoke else "full"]
    spool = BUILD / "spool" / str(os.getpid())
    tr = tracing.Tracer(spool) if args.trace else tracing.NullTracer()
    run = workloads.Run(
        seed=args.seed, seconds=args.seconds, size=size, tracer=tr,
        workers=env["nproc"], flip_byte=args.flip_byte,
    )
    print(f"bench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={int(args.trace)} smoke={args.smoke}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        tr.install()
    t0 = time.perf_counter()
    try:
        with tr.span(tracing.ROOT):
            outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        if args.trace:
            tr.uninstall()
    wall_s = time.perf_counter() - t0

    end_to_end = {
        "op_p50_ms": (statistics.median(outcome.op_ms or [float("nan")]), "ms"),
        "max_disk_reads": (outcome.max_disk_reads, "elements"),
        "setup_s": (outcome.setup_s, "s"),
        "peak_rss_mib": (_peak_rss_mib(), "MiB"),
    }
    failed = outcome.failed
    if outcome.op_ms:
        # the tail is reported, not bounded: on a shared host it swings
        # too much between runs to judge a change by (see README)
        qs = np.percentile(outcome.op_ms, PERCENTILES)
        outcome.details["op_ms_percentiles"] = {
            f"p{q}": float(v) for q, v in zip(PERCENTILES, qs)}
    record: Dict[str, Any] = {
        "schema": "repro-bench/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "traced": bool(args.trace),
        "wall_s": wall_s,
        "samples": len(outcome.op_ms),
        "env": env,
        "details": outcome.details,
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
    }
    metrics = record["end_to_end"]
    if args.trace:
        from repro.obs.export import validate_trace_file

        tr.finish()
        shutil.rmtree(spool, ignore_errors=True)
        per_layer = tracing.per_layer_metrics(tr, outcome.load_ratios)
        metrics = record["per_layer"] = {
            k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()
        }
        out_dir = args.out or BUILD / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_path = out_dir / f"{args.workload}-s{args.seed}.trace.jsonl"
        tr.export(trace_path, label=f"bench {args.workload} seed {args.seed}")
        record["trace_file"] = str(trace_path)
        record["layer_totals"] = tr.layer_totals()
        try:
            validate_trace_file(trace_path)
        except ValueError as exc:
            failed += 1
            print(f"FAILED trace validation: {exc}", file=sys.stderr)
        print(f"trace {trace_path}")
        print("end-to-end (traced):")
        _print_metrics(record["end_to_end"])

    result = {
        "correct": failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record["result"] = result
    print("details " + json.dumps(outcome.details, sort_keys=True))
    print(f"ops {outcome.attempted} ops_failed {failed} "
          f"samples {len(outcome.op_ms)}")
    _print_metrics(metrics)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = _result_path(args.out, args.workload, args.seed, bool(args.trace))
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh process
# ----------------------------------------------------------------------
def _spawn(args, workload: str, trace: bool) -> Dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(int(trace)),
           "--out", str(args.out)]
    if args.smoke:
        cmd.append("--smoke")
    before = set(args.out.glob("*.json"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 170)
    sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
    new = sorted(set(args.out.glob("*.json")) - before)
    if proc.returncode not in (0, 1) or not new:
        return {"result": {"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}, "end_to_end": {}}
    return json.loads(new[-1].read_text())


def run_all(args) -> int:
    args.out = args.out or BUILD / "runs" / f"seed{args.seed}"
    args.out.mkdir(parents=True, exist_ok=True)
    combined: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for workload in WORKLOAD_NAMES:
        runs: List[Dict[str, Any]] = [_spawn(args, workload, False)]
        if args.trace:
            runs.append(_spawn(args, workload, True))
        for rec in runs:
            res = rec["result"]
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for name, m in res["metrics"].items():
                combined[f"{workload}:{name}"] = m
        if args.trace and all(r["end_to_end"] for r in runs):
            print(f"tracing overhead on {workload} (traced - untraced):")
            for name, m in runs[0]["end_to_end"].items():
                delta = runs[1]["end_to_end"][name]["value"] - m["value"]
                print(f"  {name:34s} {delta:>+16.6g} {m['unit']}")
    print(f"results in {args.out}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": combined}, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for result files (and traces)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 1 s per workload")
    parser.add_argument("--flip-byte", action="store_true",
                        help="corrupt one survivor byte (array-rebuild), "
                             "to check that the benchmark catches it")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _prepare()
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        _stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
