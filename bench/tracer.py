"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program (see :data:`LAYERS`),
patching each name where its caller looks it up, and records one span per
call: name, start, end, parent, pid, thread, trace id, wall and CPU time.
Nothing inside ``src/`` changes; the layers are timed at their boundaries.

Self time is a span's duration minus the time its children *in the same
thread* cover.  A child in another thread or process (a pipeline worker, a
serving shard, the serving engine's rebuild thread) still names its parent
span, so the trace shows one tree across processes, but it runs
concurrently and does not reduce the parent's self time: the parent side
of :meth:`RebuildPipeline.rebuild` includes the time it waits for workers.

Per-layer totals are accumulated exactly for every call, while individual
spans are kept only up to ``SPAN_CAP`` per layer and process, so hot
per-request calls cannot fill memory.  Forked children append their spans
and totals to a spool file whenever their outermost span closes (a forked
worker leaves through ``os._exit``, so nothing can wait for process exit);
:meth:`Tracer.finish` folds the spool files back in and
:meth:`Tracer.export` writes one ``repro-trace/1`` JSONL file.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import resource
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: totals kept per layer, in this order
_FIELDS = ("calls", "wall_s", "self_s", "cpu_s", "self_cpu_s", "main_self_s")


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# ----------------------------------------------------------------------
# per-layer hooks: extra counts measured at the same boundary as the span
# ----------------------------------------------------------------------
def _pipeline_hook(tracer: "Tracer", args, kwargs):
    before = _children_cpu_s()

    def done(result) -> None:
        # workers are joined inside rebuild(), so their CPU time has been
        # folded into RUSAGE_CHILDREN by the time the call returns; an
        # inline rebuild has no workers, and other children (serving
        # shards) may be reaped meanwhile
        if result.stats["mode"] == "pipeline":
            tracer.add("pipeline.workers.cpu_s", _children_cpu_s() - before)

    return done


def _kernel_hook(tracer: "Tracer", args, kwargs):
    out = args[2] if len(args) > 2 else kwargs["out"]
    return lambda result: tracer.add("codec.kernel.bytes_out", out.nbytes)


def _search_hook(tracer: "Tracer", args, kwargs):
    return lambda scheme: tracer.add(
        "recovery.search.expanded", scheme.expanded_states
    )


def _shard_hook(tracer: "Tracer", args, kwargs):
    def done(res) -> None:
        for key in ("served", "batches", "degraded", "patched", "direct"):
            tracer.add(f"serving.shard.{key}", res[key])

    return done


def _layer_targets() -> List[Tuple[str, Any, str, Optional[Callable]]]:
    """``(layer, owner, attribute, hook)`` for every wrapped entry point.

    Module-level functions are patched in the module that *calls* them:
    the planner looks ``u_scheme`` up in its own namespace, and the
    U-algorithm looks ``get_recovery_equations`` up in its own.
    """
    import repro.recovery.planner as planner_mod
    import repro.recovery.ualgorithm as ualgorithm_mod
    from repro.codec.batch import BatchReconstructor
    from repro.codec.image import ArrayImageCodec
    from repro.obs.loadmap import DiskLoadMap
    from repro.pipeline.engine import RebuildPipeline
    from repro.pipeline.pool import PoolRebuild
    from repro.placement.map import PlacementMap
    from repro.placement.pool import PoolStore
    from repro.recovery.planner import RecoveryPlanner
    from repro.serving.plans import CompiledPlanCache, DegradedPlanCache
    from repro.serving.sharded import ShardedServingEngine, ShardServer

    return [
        ("pipeline.rebuild", RebuildPipeline, "rebuild", _pipeline_hook),
        ("pipeline.pool", PoolRebuild, "rebuild", None),
        ("placement", PlacementMap, "roles_of_disk", None),
        ("placement", PlacementMap, "disk_of_role", None),
        ("placement", PoolStore, "role_rows", None),
        ("obs.loadmap", DiskLoadMap, "add_many", None),
        ("codec.kernel", BatchReconstructor, "recover_batch_into", _kernel_hook),
        ("codec.encode", ArrayImageCodec, "encode_image", None),
        ("codec.encode", PoolStore, "encode_random", None),
        ("recovery.planner", RecoveryPlanner, "scheme_for_disk", None),
        ("recovery.search", planner_mod, "u_scheme", _search_hook),
        ("equations", ualgorithm_mod, "get_recovery_equations", None),
        ("serving.engine", ShardedServingEngine, "serve_trace", None),
        ("serving.shard", ShardServer, "serve_trace", _shard_hook),
        ("serving.plans", DegradedPlanCache, "plan_for_element", None),
        ("serving.plans", CompiledPlanCache, "reconstructor", None),
    ]


#: program layers, in report order, followed by the benchmark's own spans
LAYERS = (
    "pipeline.rebuild",
    "pipeline.pool",
    "placement",
    "obs.loadmap",
    "codec.kernel",
    "codec.encode",
    "recovery.planner",
    "recovery.search",
    "equations",
    "serving.engine",
    "serving.shard",
    "serving.plans",
    "bench.setup",
    "bench.inputs",
    "bench.verify",
)
ROOT = "bench.run"
#: spans kept per layer and process; the totals count every call
SPAN_CAP = 300


class _Span:
    __slots__ = ("pid", "sid", "parent", "name", "t0", "c0", "child_wall",
                 "child_cpu", "kept", "trace_id")

    def __init__(self, pid, sid, parent, name, t0, c0, kept, trace_id):
        self.pid = pid
        self.sid = sid
        self.parent = parent          # (pid, sid) of the parent, or None
        self.name = name
        self.t0 = t0
        self.c0 = c0
        self.child_wall = 0.0
        self.child_cpu = 0.0
        self.kept = kept
        self.trace_id = trace_id


class Tracer:
    """Span recorder shared by the benchmark process and its forked children.

    Parameters
    ----------
    spool_dir:
        Directory where forked children append their spans.
    clock / cpu_clock:
        Wall and per-thread CPU clocks (tests substitute fakes).
    """

    def __init__(
        self,
        spool_dir: Path,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self._cpu = cpu_clock
        self.t0 = clock()
        self.pid = os.getpid()
        self.trace_id = ""
        self.spans: List[Dict[str, Any]] = []
        self.totals: Dict[str, List[float]] = {}
        self.extras: Dict[str, float] = {}
        self._kept: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._main_stack: List[_Span] = []
        self._tls.stack = self._main_stack
        self._child = False
        self._base_depth = 0
        self._spool = None
        self._patched: List[Tuple[Any, str, Any]] = []
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _after_fork(ref))

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> _Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            # a fresh thread (the serving engine's rebuild thread) hangs
            # off whatever the main thread is doing when it starts
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            n_kept = self._kept.get(name, 0)
            kept = n_kept < SPAN_CAP and (parent is None or parent.kept)
            if kept:
                self._kept[name] = n_kept + 1
        span = _Span(
            self.pid, next(self._ids),
            (parent.pid, parent.sid) if parent is not None else None,
            name, self._clock(), self._cpu(), kept, self.trace_id,
        )
        stack.append(span)
        return span

    def close(self, span: _Span) -> None:
        t1 = self._clock()
        c1 = self._cpu()
        stack = self._stack()
        while stack and stack[-1] is not span:  # exception unwind
            stack.pop()
        if stack:
            stack.pop()
        wall = t1 - span.t0
        cpu = c1 - span.c0
        self_wall = wall - span.child_wall
        self_cpu = cpu - span.child_cpu
        if stack:
            stack[-1].child_wall += wall
            stack[-1].child_cpu += cpu
        on_main = not self._child and stack is self._main_stack
        with self._lock:
            tot = self.totals.setdefault(span.name, [0.0] * len(_FIELDS))
            tot[0] += 1
            tot[1] += wall
            tot[2] += self_wall
            tot[3] += cpu
            tot[4] += self_cpu
            if on_main:
                tot[5] += self_wall
        if span.kept:
            self.spans.append({
                "key": [span.pid, span.sid],
                "parent": list(span.parent) if span.parent else None,
                "name": span.name,
                "t0": span.t0 - self.t0,
                "dur": wall,
                "depth": len(stack),
                "attrs": {"pid": span.pid, "trace_id": span.trace_id,
                          "cpu_s": cpu, "self_s": self_wall},
            })
        if self._child and len(stack) <= self._base_depth:
            self._flush_child()

    @contextmanager
    def span(self, name: str) -> Iterator[_Span]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def add(self, name: str, value: float) -> None:
        """Accumulate a named count measured at a layer boundary."""
        with self._lock:
            self.extras[name] = self.extras.get(name, 0.0) + value

    def set_trace(self, trace_id: str) -> None:
        """Tag the spans opened from now on (one id per op or episode)."""
        self.trace_id = trace_id

    # ------------------------------------------------------------------
    # forked children
    # ------------------------------------------------------------------
    def _reset_after_fork(self) -> None:
        self.pid = os.getpid()
        self._child = True
        self._lock = threading.Lock()
        self.spans = []
        self.totals = {}
        self.extras = {}
        self._kept = {}
        self._spool = None
        self._base_depth = len(self._stack())

    def _flush_child(self) -> None:
        if self._spool is None:
            self._spool = open(self.spool_dir / f"{self.pid}.jsonl", "a")
        lines = [json.dumps({"span": s}) for s in self.spans]
        lines.append(json.dumps({"totals": self.totals, "extras": self.extras}))
        self._spool.write("\n".join(lines) + "\n")
        self._spool.flush()
        self.spans = []
        self.totals = {}
        self.extras = {}

    def finish(self) -> None:
        """Fold every child's spool file into this (parent) tracer."""
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path) as fh:
                for raw in fh:
                    obj = json.loads(raw)
                    if "span" in obj:
                        self.spans.append(obj["span"])
                        continue
                    for name, vals in obj["totals"].items():
                        tot = self.totals.setdefault(name, [0.0] * len(_FIELDS))
                        for i, v in enumerate(vals):
                            tot[i] += v
                    for name, v in obj["extras"].items():
                        self.extras[name] = self.extras.get(name, 0.0) + v
            path.unlink()

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, hook: Optional[Callable]):
        """A traced stand-in for ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            done = hook(tracer, args, kwargs) if hook is not None else None
            span = tracer.open(layer)
            try:
                result = fn(*args, **kwargs)
                # inside the span: a forked child flushes when its
                # outermost span closes, and counts added later are lost
                if done is not None:
                    done(result)
            finally:
                tracer.close(span)
            return result

        return traced

    def install(self) -> None:
        """Patch every entry point in :func:`_layer_targets`."""
        for layer, owner, attr, hook in _layer_targets():
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(layer, original, hook))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        return {
            name: dict(zip(_FIELDS, vals)) for name, vals in self.totals.items()
        }

    def export(self, path: Path, label: str) -> int:
        """Write every kept span as one ``repro-trace/1`` JSONL file.

        Span keys ``(pid, local id)`` are renumbered in start order, so a
        parent always precedes its children; a span whose parent was not
        kept becomes a root.  Layer totals and extras become counters.
        """
        from repro.obs.export import TRACE_SCHEMA

        spans = sorted(self.spans, key=lambda s: (s["t0"], s["depth"]))
        ids: Dict[Tuple[int, int], int] = {}
        lines = [{
            "type": "meta", "schema": TRACE_SCHEMA, "label": label,
            "created_unix_s": time.time(),
        }]
        for i, s in enumerate(spans):
            ids[tuple(s["key"])] = i
            parent = ids.get(tuple(s["parent"])) if s["parent"] else None
            lines.append({
                "type": "span", "id": i, "parent": parent, "name": s["name"],
                "t_start_s": s["t0"], "dur_s": s["dur"], "attrs": s["attrs"],
            })
        for name, vals in sorted(self.totals.items()):
            for field, v in zip(_FIELDS, vals):
                lines.append({"type": "counter", "name": f"layer.{name}.{field}",
                              "value": v})
        for name, v in sorted(self.extras.items()):
            lines.append({"type": "counter", "name": name, "value": v})
        Path(path).write_text(
            "\n".join(json.dumps(obj, sort_keys=True) for obj in lines) + "\n"
        )
        return len(lines)


def _after_fork(ref) -> None:
    tracer = ref()
    if tracer is not None:
        tracer._reset_after_fork()


class NullTracer:
    """The untraced stand-in: same calls, no recording."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield None

    def set_trace(self, trace_id: str) -> None:
        pass


def per_layer_metrics(
    tracer: Tracer, load_ratios: Dict[str, float]
) -> Dict[str, Tuple[float, str]]:
    """Every ``per_layer`` metric of ``BENCHMARK.json`` from one traced run.

    Shares are of the traced wall time (the root span).  Layers that run
    concurrently in workers or shards can together exceed a share of 1;
    ``trace.attributed_share`` counts the main thread of the benchmark
    process only, whose self times partition the wall time exactly.
    ``load_ratios`` holds the workload's executed-over-analytic max-disk
    read ratios; a workload without that rebuild reports 0.
    """
    from repro.equations import enumeration_cache_info

    tot = tracer.layer_totals()
    zero = dict.fromkeys(_FIELDS, 0.0)
    wall = tot[ROOT]["wall_s"]
    ex = tracer.extras
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        t = tot.get(layer, zero)
        out[f"{layer}.calls"] = (int(t["calls"]), "count")
        out[f"{layer}.share"] = (t["self_s"] / wall, "fraction")
        out[f"{layer}.cpu_share"] = (t["self_cpu_s"] / wall, "fraction")

    kernel_s = tot.get("codec.kernel", zero)["self_s"]
    kernel_bytes = ex.get("codec.kernel.bytes_out", 0.0)
    out["codec.kernel.bytes_out"] = (int(kernel_bytes), "B")
    out["codec.kernel.mib_s"] = (
        kernel_bytes / 2**20 / kernel_s if kernel_s else 0.0, "MiB/s")
    out["pipeline.workers.cpu_share"] = (
        ex.get("pipeline.workers.cpu_s", 0.0) / wall, "fraction")
    search_s = tot.get("recovery.search", zero)["self_s"]
    expanded = ex.get("recovery.search.expanded", 0.0)
    out["recovery.search.expanded"] = (int(expanded), "count")
    out["recovery.search.states_per_s"] = (
        expanded / search_s if search_s else 0.0, "1/s")
    out["equations.cache_entries"] = (
        enumeration_cache_info()["enum_entries"], "count")
    for name in ("rebuild.load_ratio", "pool.load_ratio"):
        out[name] = (load_ratios.get(name, 0.0), "ratio")

    shard = tot.get("serving.shard", zero)
    served = ex.get("serving.shard.served", 0.0)
    batches = ex.get("serving.shard.batches", 0.0)
    out["serving.shard.busy_frac"] = (
        shard["cpu_s"] / shard["wall_s"] if shard["wall_s"] else 0.0, "fraction")
    out["serving.shard.batch_mean"] = (
        served / batches if batches else 0.0, "requests")
    out["serving.shard.reqs_per_cpu_s"] = (
        served / shard["cpu_s"] if shard["cpu_s"] else 0.0, "1/s")
    for kind in ("degraded", "patched", "direct"):
        out[f"serving.shard.{kind}_frac"] = (
            ex.get(f"serving.shard.{kind}", 0.0) / served if served else 0.0,
            "fraction")

    main = sum(tot.get(layer, zero)["main_self_s"] for layer in LAYERS)
    out["trace.wall_s"] = (wall, "s")
    out["trace.attributed_share"] = (main / wall, "fraction")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
