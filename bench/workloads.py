"""The benchmark's four workloads, driven through public entry points only.

Each workload builds its inputs from the seed, sets up (several times, so
set-up time is a median), then repeats its operation until the time is up.
Every output is checked outside the timed call; a byte mismatch, an
exception, an unserved request or an invalid scheme counts as a failed
operation.  Each workload returns an :class:`Outcome`:

* ``op_ms`` — one latency per operation: a whole-disk rebuild call, a
  pool-disk rebuild call, a served read, or one cold planning pass;
* ``max_disk_reads`` — the paper's quantity, the reads on the most loaded
  disk, which is deterministic for a given size and never 0.
"""

from __future__ import annotations

import itertools
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from repro.codec.image import ArrayImageCodec
from repro.codes.registry import make_code
from repro.equations import clear_enumeration_caches
from repro.pipeline.engine import RebuildPipeline
from repro.pipeline.pool import PoolRebuild
from repro.placement.map import make_placement
from repro.placement.pool import PoolStore
from repro.recovery.planner import RecoveryPlanner
from repro.serving.clients import build_workload_requests
from repro.serving.sharded import ShardedServingEngine, ShardServer

SETUP_REPEATS = 3
SETUP_MIN_S = 2.0

#: sizes per workload; ``smoke`` is a seconds-long sanity pass
SIZES = {
    "full": {
        "array_stripes": 1024,      # 24 MiB per disk, 192 MiB image
        "pool_stripes": 4800,       # 225 MiB store over 64 disks
        "read_stripes": 448,
        "read_rate": 12000.0,       # aggregate req/s
        "read_episode_s": 2.0,
        "plan_widths": tuple(range(7, 17)),
    },
    "smoke": {
        "array_stripes": 64,
        "pool_stripes": 480,
        "read_stripes": 56,
        "read_rate": 2000.0,
        "read_episode_s": 0.3,
        "plan_widths": (7, 8),
    },
}
PLAN_FAMILIES = ("rdp", "evenodd", "blaum_roth", "liberation", "star")


@dataclass
class Run:
    """What one workload invocation was asked to do."""

    seed: int
    seconds: float
    size: Dict[str, Any]
    tracer: Any
    workers: int
    flip_byte: bool = False


@dataclass
class Outcome:
    op_ms: List[float]
    max_disk_reads: float
    setup_s: float
    attempted: int
    failed: int
    details: Dict[str, Any] = field(default_factory=dict)
    load_ratios: Dict[str, float] = field(default_factory=dict)


def _fail(what: str, detail: Any) -> None:
    print(f"FAILED {what}: {detail}", file=sys.stderr)


def _setup(run: Run, build: Callable[[], Any]) -> Tuple[Any, float]:
    """Build the workload state repeatedly and keep the last build.

    At least ``SETUP_REPEATS`` builds, and more while they add up to less
    than ``SETUP_MIN_S``, so a set-up of a few milliseconds still gets a
    steady median.  The enumeration caches are cleared before each build,
    so every repeat plans cold.  Returns the state and the median time.
    """
    times: List[float] = []
    state = None
    for i in itertools.count():
        if i >= SETUP_REPEATS and sum(times) >= SETUP_MIN_S:
            break
        state = None  # free the previous build before timing the next one
        run.tracer.set_trace(f"setup-{i}")
        clear_enumeration_caches()
        with run.tracer.span("bench.setup"):
            t0 = time.perf_counter()
            state = build()
            times.append(time.perf_counter() - t0)
    return state, statistics.median(times)


def _ops_until(deadline: float) -> Iterator[int]:
    """Operation indices until the deadline; always at least one."""
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield i
        i += 1


def _rotated_loads(codec: ArrayImageCodec, planner: RecoveryPlanner,
                   failed: int) -> np.ndarray:
    """Planned reads per physical disk for rebuilding ``failed``.

    Composes the planner's per-role scheme loads with the array's
    per-stripe rotation (stripe ``s`` is rotated by ``s % n``).
    """
    n = codec.code.layout.n_disks
    per_rot = np.bincount(np.arange(codec.n_stripes) % n, minlength=n)
    reads = np.zeros(n, dtype=np.int64)
    for rot in range(n):
        loads = planner.scheme_for_disk((failed - rot) % n).loads
        reads += per_rot[rot] * np.roll(np.asarray(loads, dtype=np.int64), rot)
    return reads


# ----------------------------------------------------------------------
def array_rebuild(run: Run) -> Outcome:
    """Rebuild whole disks of one rotated ``rdp`` array, back to back.

    Why: nearly all the work is the XOR kernel and the pipeline's gather,
    shared-memory arena and worker IPC; planning is warmed in set-up and
    there is no placement or serving.  The image is larger than the L3.
    """
    tr = run.tracer
    code = make_code("rdp", 8)
    n = code.layout.n_disks
    codec = ArrayImageCodec(code, element_size=4096,
                            n_stripes=run.size["array_stripes"])
    with tr.span("bench.inputs"):
        data = codec.random_image(np.random.default_rng(run.seed))

    def build():
        disks = codec.encode_image(data)
        planner = RecoveryPlanner(code, "u", depth=1)
        planner.all_disk_schemes()
        return disks, RebuildPipeline(codec, workers=run.workers,
                                      chunk_stripes=64, planner=planner)

    (disks, pipe), setup_s = _setup(run, build)
    del data
    with tr.span("bench.verify"):
        planned = {d: _rotated_loads(codec, pipe.planner, d) for d in range(n)}
    if run.flip_byte:
        # corrupt one survivor byte the first rebuild is planned to read
        first = run.seed % n
        scheme = pipe.planner.scheme_for_disk(first)  # stripe 0: rotation 0
        ldisk, row = next(iter(code.layout.iter_elements(scheme.read_mask)))
        disks[ldisk, row, 0] ^= 0xFF

    op_ms: List[float] = []
    max_reads: Dict[int, int] = {}
    executed = planned_max = 0
    failed = 0
    modes = set()
    deadline = time.perf_counter() + run.seconds
    for i in _ops_until(deadline):
        d = (run.seed + i) % n
        tr.set_trace(f"rebuild-{i}")
        try:
            t0 = time.perf_counter()
            res = pipe.rebuild(disks, d)
            dt = time.perf_counter() - t0
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            _fail(f"rebuild of disk {d}", repr(exc))
            continue
        with tr.span("bench.verify"):
            same_bytes = np.array_equal(res.image, disks[d])
            same_reads = np.array_equal(res.reads_per_disk, planned[d])
        if not (same_bytes and same_reads):
            failed += 1
            _fail(f"rebuild of disk {d}",
                  f"bytes equal={same_bytes}, reads as planned={same_reads}")
            continue
        op_ms.append(dt * 1e3)
        modes.add(res.stats["mode"])
        max_reads[d] = max(res.reads_per_disk)
        executed += max(res.reads_per_disk)
        planned_max += int(planned[d].max())
    mib = codec.n_stripes * code.layout.k_rows * codec.element_size / 2**20
    return Outcome(
        op_ms=op_ms,
        max_disk_reads=statistics.fmean(max_reads.values()) if max_reads else 0.0,
        setup_s=setup_s,
        attempted=len(op_ms) + failed,
        failed=failed,
        details={
            "rebuilt_mib_per_op": mib,
            "rebuild_mib_s": mib / (statistics.median(op_ms) / 1e3)
            if op_ms else 0.0,
            "modes": sorted(modes),
            "workers": run.workers,
            "disks_rebuilt": len(max_reads),
        },
        load_ratios={"rebuild.load_ratio":
                     executed / planned_max if planned_max else 0.0},
    )


# ----------------------------------------------------------------------
def pool_rebuild(run: Run) -> Outcome:
    """Rebuild dead disks of a 64-disk declustered pool, cycling all 64.

    Why: the same XOR kernel as ``array-rebuild``, but behind placement's
    inverse map, random-order stripe gathers, per-chunk verification and
    per-disk billing.  A 64-disk pool falls back from the Sidon block, so
    a better declustering shows up in ``max_disk_reads``.
    """
    tr = run.tracer
    code = make_code("rdp", 8)
    width = code.layout.n_disks
    n_pool = 64
    k = code.layout.k_rows
    n_stripes = run.size["pool_stripes"]

    def build():
        placement = make_placement("declustered", n_pool, n_stripes, width)
        store = PoolStore(code, placement, element_size=1024)
        store.encode_random(np.random.default_rng(run.seed))
        planner = RecoveryPlanner(code, "u", depth=1)
        planner.all_disk_schemes()
        return store, PoolRebuild(store, chunk_stripes=256, planner=planner)

    (store, engine), setup_s = _setup(run, build)
    table = store.placement.table
    with tr.span("bench.verify"):
        planned = {d: engine.read_loads(d) for d in range(n_pool)}
    order = np.random.default_rng(run.seed).permutation(n_pool)

    op_ms: List[float] = []
    max_reads: Dict[int, int] = {}
    executed = planned_max = 0
    failed = 0
    deadline = time.perf_counter() + run.seconds
    for i in _ops_until(deadline):
        dead = int(order[i % n_pool])
        tr.set_trace(f"pool-rebuild-{i}")
        try:
            t0 = time.perf_counter()
            res = engine.rebuild(dead)
            dt = time.perf_counter() - t0
        except Exception as exc:
            failed += 1
            _fail(f"pool rebuild of disk {dead}", repr(exc))
            continue
        with tr.span("bench.verify"):
            # an oracle of our own, straight from the placement table
            stripes, slots = np.nonzero(table == dead)
            roles = (slots - stripes) % width
            eids = roles[:, None] * k + np.arange(k)
            same_bytes = np.array_equal(
                res.stripe_ids, stripes
            ) and np.array_equal(res.rows, store.stripes[stripes[:, None], eids])
            same_reads = np.array_equal(res.reads_per_disk, planned[dead])
        if res.mismatches or not (same_bytes and same_reads):
            failed += 1
            _fail(f"pool rebuild of disk {dead}",
                  f"mismatches={res.mismatches}, bytes equal={same_bytes}, "
                  f"reads as planned={same_reads}")
            continue
        op_ms.append(dt * 1e3)
        max_reads[dead] = res.max_read_load
        executed += res.max_read_load
        planned_max += int(planned[dead].max())
    mib = (store.placement.stripes_per_disk().mean()
           * k * store.element_size / 2**20)
    return Outcome(
        op_ms=op_ms,
        max_disk_reads=statistics.fmean(max_reads.values()) if max_reads else 0.0,
        setup_s=setup_s,
        attempted=len(op_ms) + failed,
        failed=failed,
        details={
            "rebuilt_mib_per_op": mib,
            "pool_rebuild_mib_s": mib / (statistics.median(op_ms) / 1e3)
            if op_ms else 0.0,
            "store_mib": store.stored_bytes / 2**20,
            "dead_disks": len(max_reads),
        },
        load_ratios={"pool.load_ratio":
                     executed / planned_max if planned_max else 0.0},
    )


# ----------------------------------------------------------------------
@contextmanager
def _keep_shard_latencies() -> Iterator[None]:
    """Keep each shard's per-request latencies in its report.

    The engine reduces them to one episode's p50/p99 and drops the
    samples; the benchmark keeps them for the median over every read of
    the run and the other percentiles.  The wrapper copies one reference
    per shard per episode, in traced and untraced runs alike.
    """
    original = ShardServer.__dict__["serve_trace"]

    def serve_trace(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        res["bench_latencies"] = res["latencies"]
        return res

    ShardServer.serve_trace = serve_trace
    try:
        yield
    finally:
        ShardServer.serve_trace = original


def degraded_read(run: Run) -> Outcome:
    """Open-loop hotspot reads (80% to the failed disk) during rebuilds.

    Why: the only workload through the shard replay loop, batch
    coalescing and degraded-plan lookup.  Reads run at memory speed, so
    latency is the program's time, measured from each request's scheduled
    arrival.  The working set fits every plan cache.
    """
    tr = run.tracer
    code = make_code("rdp", 7)
    lay = code.layout
    n = lay.n_disks
    n_stripes = run.size["read_stripes"]
    rate = run.size["read_rate"]
    episode_s = run.size["read_episode_s"]
    codec = ArrayImageCodec(code, element_size=4096, n_stripes=n_stripes)
    n_shards = min(2, run.workers)
    rebuild_chunk = 16
    # throttle the rebuild so that it spans the whole episode
    rebuild_rate = math.ceil(n_stripes / rebuild_chunk) / episode_s
    rng = np.random.default_rng(run.seed)
    with tr.span("bench.inputs"):
        data = codec.random_image(rng)
    dead_order = [int(d) for d in rng.permutation(n)]

    def build():
        disks = codec.encode_image(data)
        engines = {}
        for dead in range(n):
            engine = ShardedServingEngine(
                codec, disks, dead, n_shards, element_read_ms=None,
                rebuild_rate=rebuild_rate, rebuild_chunk_stripes=rebuild_chunk,
            )
            engine.warm_plans()
            engines[dead] = engine
        return disks, engines

    (disks, engines), setup_s = _setup(run, build)
    del data
    with tr.span("bench.verify"):
        planned_max = {d: int(_rotated_loads(codec, engines[d].planner, d).max())
                       for d in range(n)}

    latencies: List[np.ndarray] = []
    used: Dict[int, int] = {}
    attempted = failed = 0
    keep_up: List[float] = []
    p99: List[float] = []
    count = max(1, int(rate * episode_s))
    deadline = time.perf_counter() + run.seconds
    overhead_s = 0.0
    with _keep_shard_latencies():
        for e in itertools.count():
            # start an episode only if it ends in time; always run one
            if e and time.perf_counter() + episode_s + overhead_s > deadline:
                break
            dead = dead_order[e % n]
            tr.set_trace(f"episode-{e}")
            with tr.span("bench.inputs"):
                requests = build_workload_requests(
                    "hotspot", n, n_stripes * lay.k_rows, dead, count,
                    seed=run.seed * 1000 + e, rate_per_s=rate,
                )
            attempted += len(requests)
            t0 = time.perf_counter()
            try:
                rep = engines[dead].serve_trace(requests, startup_grace_s=0.3)
            except Exception as exc:
                failed += len(requests)
                _fail(f"episode {e} (dead disk {dead})", repr(exc))
                continue
            overhead_s = time.perf_counter() - t0 - episode_s
            bad = (len(requests) - rep.served) + rep.mismatches
            if bad or not rep.ok:
                failed += max(bad, 1)
                _fail(f"episode {e} (dead disk {dead})",
                      f"served {rep.served}/{len(requests)}, "
                      f"mismatches {rep.mismatches}, errors {rep.errors}")
            latencies.extend(s["bench_latencies"] for s in rep.per_shard)
            keep_up.append(rep.throughput_rps / rep.offered_rate_rps)
            p99.append(rep.p99_ms)
            used[dead] = planned_max[dead]
    lat_ms = np.concatenate(latencies) * 1e3 if latencies else np.empty(0)
    return Outcome(
        op_ms=lat_ms.tolist(),
        max_disk_reads=statistics.fmean(used.values()) if used else 0.0,
        setup_s=setup_s,
        attempted=attempted,
        failed=failed,
        details={
            "rate_rps": rate,
            "episodes": len(p99),
            "episode_s": episode_s,
            "shards": n_shards,
            "p99_ms_pooled": float(np.percentile(lat_ms, 99)) if lat_ms.size else 0.0,
            "p99_ms_per_episode": p99,
            "min_throughput_over_offered": min(keep_up) if keep_up else 0.0,
        },
    )


# ----------------------------------------------------------------------
def plan_cold(run: Run) -> Outcome:
    """Plan every disk of the paper's code grid with cold caches.

    Why: the paper's algorithm on its own — equation enumeration plus the
    U-scheme search, no data plane.  The grid's ~575 schemes exceed the
    256-entry enumeration cache, and each pass starts with it cleared.
    One operation is one pass over the whole grid.
    """
    tr = run.tracer
    widths = run.size["plan_widths"]

    def build():
        return [(f"{f}-{w}", make_code(f, w)) for f in PLAN_FAMILIES for w in widths]

    codes, setup_s = _setup(run, build)
    reference: Dict[str, List[Tuple]] = {}
    load_sum = 0
    op_ms: List[float] = []
    failed = 0
    deadline = time.perf_counter() + run.seconds
    for p in _ops_until(deadline):
        tr.set_trace(f"plan-pass-{p}")
        clear_enumeration_caches()
        try:
            t0 = time.perf_counter()
            planned = [RecoveryPlanner(code, "u", depth=1).all_disk_schemes()
                       for _name, code in codes]
            dt = time.perf_counter() - t0
        except Exception as exc:
            failed += 1
            _fail(f"plan pass {p}", repr(exc))
            continue
        with tr.span("bench.verify"):
            problems = [
                f"{name}: {why}"
                for (name, code), schemes in zip(codes, planned)
                for ok, why in [_check_schemes(name, code, schemes, reference)]
                if not ok
            ]
        if problems:
            failed += 1
            _fail(f"plan pass {p}", "; ".join(problems))
            continue
        op_ms.append(dt * 1e3)
        load_sum = sum(s.max_load for schemes in planned for s in schemes)
    return Outcome(
        op_ms=op_ms,
        max_disk_reads=float(load_sum),
        setup_s=setup_s,
        attempted=len(op_ms) + failed,
        failed=failed,
        details={
            "codes": len(codes),
            "schemes_per_pass": sum(len(v) for v in reference.values()),
        },
    )


def _check_schemes(name, code, schemes, reference) -> Tuple[bool, str]:
    """Validate a code's schemes once, then require identical plans.

    ``validate`` costs more than planning, so later passes compare with
    the validated first pass; the search is deterministic.
    """
    sig = [(s.failed_mask, tuple(s.equations), s.read_mask) for s in schemes]
    if name in reference:
        return sig == reference[name], "plans differ from the first pass"
    if len(schemes) != code.layout.n_disks:
        return False, f"{len(schemes)} schemes for {code.layout.n_disks} disks"
    for s in schemes:
        try:
            s.validate(code)
        except AssertionError as exc:
            return False, repr(exc)
    reference[name] = sig
    return True, ""


WORKLOADS = {
    "array-rebuild": array_rebuild,
    "pool-rebuild": pool_rebuild,
    "degraded-read": degraded_read,
    "plan-cold": plan_cold,
}
