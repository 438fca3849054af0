"""Process-wide tracing/metrics recorder.

The observability layer is built around one invariant: **when recording is
off, the instrumented code pays almost nothing**.  Every entry point
(:func:`span`, :func:`count`, :func:`gauge`) starts with a single load of
the module-level recorder reference and returns immediately when it is
``None`` — no allocation, no string formatting, no timestamps.  Hot loops
that want to skip even that call can hoist :func:`enabled` into a local
boolean once per run (the search engine does).

Three primitives, deliberately small:

:class:`Span`
    A nested wall-clock timer.  Spans form a tree via an explicit stack
    (``parent`` ids), so a trace reconstructs *where inside what* the time
    went — enumeration inside scheme generation inside a figure sweep.
:class:`Counter`
    A monotonically accumulated number (int or float): cache hits, states
    expanded, retries, per-disk busy seconds.
:class:`Gauge`
    A last-value-plus-peak measurement: frontier size, queue depth,
    closure size.

Everything lives in a :class:`Recorder`; the process-wide instance is
managed with :func:`enable` / :func:`disable` (or the ``REPRO_TRACE=1``
environment variable, checked on first import of :mod:`repro.obs`).
Counters and gauges are thread-safe (one short lock around the dict
mutation — the planner's kernel threads and the rebuild workers feed them
concurrently).  Spans are lock-free and per-thread: each thread keeps its
own span stack, span ids come from one atomic counter, and a thread's
outermost span is parented to the span open on the recorder's owning
thread (the one that created it) at that moment — so the planner's
worker-thread searches nest under the caller's span and one recording
stays one tree.  Multi-process callers use a private per-shard recorder
folded back with :meth:`Recorder.merge_snapshot` at join time.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    span_id: int
    parent_id: Optional[int]
    name: str
    t_start_s: float          #: seconds since the recorder was enabled
    dur_s: float = 0.0        #: filled in when the span closes
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Counter:
    """A named accumulating value."""

    name: str
    value: float = 0

    def add(self, n: float = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """A named sampled value, remembering its peak."""

    name: str
    value: float = 0
    peak: float = 0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.peak:
            self.peak = v


class _SpanHandle:
    """Context manager for one live span on a recorder."""

    __slots__ = ("_rec", "_span")

    def __init__(self, rec: "Recorder", span: Span) -> None:
        self._rec = rec
        self._span = span

    def set(self, **attrs: Any) -> "_SpanHandle":
        """Attach attributes to the live span."""
        self._span.attrs.update(attrs)
        return self

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> None:
        self._rec._close_span(self._span)


class _NoopSpan:
    """Shared do-nothing span handle used while recording is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


NOOP_SPAN = _NoopSpan()


class _ThreadStack(threading.local):
    """One span stack per thread, created empty on first use."""

    def __init__(self) -> None:
        self.stack: List[Span] = []


class Recorder:
    """Collects spans, counters and gauges for one traced run."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.t0 = time.perf_counter()
        self.spans: List[Span] = []
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self._ids = itertools.count()
        self._local = _ThreadStack()
        #: the owning thread's span stack; other threads' stacks hang off it
        self._owner_stack = self._local.stack
        self._metrics_lock = threading.Lock()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        stack = self._local.stack
        if stack:
            parent = stack[-1].span_id
        else:
            try:  # the owner may close its span meanwhile
                parent = self._owner_stack[-1].span_id
            except IndexError:
                parent = None
        s = Span(
            span_id=next(self._ids),
            parent_id=parent,
            name=name,
            t_start_s=time.perf_counter() - self.t0,
            attrs=dict(attrs) if attrs else {},
        )
        stack.append(s)
        return _SpanHandle(self, s)

    def _close_span(self, span: Span) -> None:
        now = time.perf_counter() - self.t0
        span.dur_s = now - span.t_start_s
        stack = self._local.stack
        # close any abandoned children left open by an exception unwind
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            dangling.dur_s = now - dangling.t_start_s
            self.spans.append(dangling)
        if stack:
            stack.pop()
        self.spans.append(span)

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._metrics_lock:
                c = self.counters.get(name)
                if c is None:
                    c = self.counters[name] = Counter(name)
        return c

    def count(self, name: str, n: float = 1) -> None:
        # += on a float is not atomic under threads; take the lock so
        # concurrent bumps from serving reader threads never lose updates
        c = self.counter(name)
        with self._metrics_lock:
            c.add(n)

    def gauge(self, name: str, value: float) -> None:
        g = self.gauges.get(name)
        if g is None:
            with self._metrics_lock:
                g = self.gauges.get(name)
                if g is None:
                    g = self.gauges[name] = Gauge(name)
        with self._metrics_lock:
            g.set(value)

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Counters accumulate; gauges take the merged-in last value and the
        max of the peaks.  Spans are *not* merged — their ids and clock
        base are recorder-local.  This is how the sharded serving frontend
        reports: each worker runs a private recorder and the parent merges
        the snapshots when the shards join.
        """
        for name, value in snap.get("counters", {}).items():
            self.count(name, value)
        for name, g in snap.get("gauges", {}).items():
            self.gauge(name, g["value"])
            with self._metrics_lock:
                mine = self.gauges[name]
                if g["peak"] > mine.peak:
                    mine.peak = g["peak"]

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of everything recorded so far."""
        return {
            "label": self.label,
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent_id,
                    "name": s.name,
                    "t_start_s": s.t_start_s,
                    "dur_s": s.dur_s,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ],
            "counters": {c.name: c.value for c in self.counters.values()},
            "gauges": {
                g.name: {"value": g.value, "peak": g.peak}
                for g in self.gauges.values()
            },
        }


# ----------------------------------------------------------------------
# process-wide switch
# ----------------------------------------------------------------------
_RECORDER: Optional[Recorder] = None


def enable(label: str = "") -> Recorder:
    """Install (and return) a fresh process-wide recorder."""
    global _RECORDER
    _RECORDER = Recorder(label)
    return _RECORDER


def disable() -> Optional[Recorder]:
    """Stop recording; returns the recorder that was active, if any."""
    global _RECORDER
    rec, _RECORDER = _RECORDER, None
    return rec


def enabled() -> bool:
    """Is a recorder currently installed?"""
    return _RECORDER is not None


def get_recorder() -> Optional[Recorder]:
    """The active recorder, or ``None`` when recording is off."""
    return _RECORDER


def span(name: str, **attrs: Any):
    """Open a span on the active recorder (no-op handle when off)."""
    rec = _RECORDER
    if rec is None:
        return NOOP_SPAN
    return rec.span(name, **attrs)


def count(name: str, n: float = 1) -> None:
    """Bump a counter on the active recorder (no-op when off)."""
    rec = _RECORDER
    if rec is not None:
        rec.count(name, n)


def gauge(name: str, value: float) -> None:
    """Sample a gauge on the active recorder (no-op when off)."""
    rec = _RECORDER
    if rec is not None:
        rec.gauge(name, value)
