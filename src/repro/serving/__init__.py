"""On-line degraded-read serving with QoS-aware rebuild throttling.

The serving layer answers user element reads against an array whose
failed disk is being rebuilt in the background, byte-exactly and with a
latency objective:

* :class:`~repro.serving.sharded.ShardedServingEngine` — the engine:
  stripe-range shard worker processes (``n_shards=1`` is the
  single-shard engine) over shared-memory state
  (:mod:`repro.serving.shm`), open-loop trace replay
  (:mod:`repro.serving.frontend`) and an inline rebuild whose chunk
  admission :class:`~repro.serving.sharded.BoardThrottle` steers on the
  shards' published p99;
* :class:`~repro.serving.sharded.ShardServer` — the in-process core one
  shard runs: direct, patched and batched degraded reads, optionally
  through the resilient executor under a fault plan;
* :class:`~repro.serving.plans.DegradedPlanCache` — search-free
  per-element degraded plans, sliced from the planner's whole-disk
  schemes (persistent through its ``SchemePlanCache``);
* :class:`~repro.serving.iomodel.SimulatedDisksIoModel` — deterministic
  per-spindle disk-time accounting for contention experiments;
* :func:`~repro.serving.clients.build_workload_requests` — hotspot and
  sequential request traces.

See ``docs/serving.md`` for the architecture and the benchmark
methodology behind ``benchmarks/bench_serving.py``.
"""

from repro.serving.clients import build_workload_requests
from repro.serving.frontend import partition_trace, shard_bounds, trace_arrays
from repro.serving.iomodel import NullIoModel, SimulatedDisksIoModel
from repro.serving.plans import CompiledPlanCache, DegradedPlanCache
from repro.serving.qos import TokenBucket, percentile
from repro.serving.sharded import (
    BoardThrottle,
    ShardServer,
    ShardedReport,
    ShardedServingEngine,
)
from repro.serving.shm import SharedServingState, ServingStateSpec

__all__ = [
    "BoardThrottle",
    "CompiledPlanCache",
    "DegradedPlanCache",
    "NullIoModel",
    "ServingStateSpec",
    "ShardServer",
    "ShardedReport",
    "ShardedServingEngine",
    "SharedServingState",
    "SimulatedDisksIoModel",
    "TokenBucket",
    "build_workload_requests",
    "partition_trace",
    "percentile",
    "shard_bounds",
    "trace_arrays",
]
