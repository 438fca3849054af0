"""Open-loop frontend: trace arrays, shard partitioning, replay accounting."""

import time

import numpy as np
import pytest

from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.disksim.workload import Request
from repro.serving import (
    ShardServer,
    SimulatedDisksIoModel,
    partition_trace,
    shard_bounds,
    trace_arrays,
)


class TestTraceArrays:
    def test_sorts_and_shifts_to_zero(self):
        reqs = [
            Request(arrival_s=0.5, disk=1, row=3),
            Request(arrival_s=0.2, disk=0, row=7),
            Request(arrival_s=0.9, disk=2, row=1),
        ]
        arr, disks, rows = trace_arrays(reqs)
        assert arr[0] == 0.0
        assert np.all(np.diff(arr) >= 0)
        assert list(disks) == [0, 1, 2]
        assert list(rows) == [7, 3, 1]

    def test_stable_on_equal_arrivals(self):
        reqs = [Request(arrival_s=1.0, disk=d, row=d) for d in range(5)]
        _, disks, _ = trace_arrays(reqs)
        assert list(disks) == [0, 1, 2, 3, 4]

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            trace_arrays([])


class TestShardBounds:
    def test_bounds_cover_range_contiguously(self):
        for n_stripes in (1, 7, 48, 113):
            for n_shards in (1, 2, 3, n_stripes):
                if n_shards > n_stripes:
                    continue
                b = shard_bounds(n_stripes, n_shards)
                assert b[0] == 0 and b[-1] == n_stripes
                assert np.all(np.diff(b) >= 1)  # every shard owns >= 1 stripe
                assert len(b) == n_shards + 1

    def test_more_shards_than_stripes_yields_empty_shards(self):
        # over-provisioned shard counts are legal: surplus shards own
        # empty ranges, every stripe still lands in exactly one shard
        for n_stripes, n_shards in ((1, 3), (4, 7), (48, 49), (3, 1000)):
            b = shard_bounds(n_stripes, n_shards)
            assert b[0] == 0 and b[-1] == n_stripes
            assert len(b) == n_shards + 1
            assert np.all(np.diff(b) >= 0)
            assert int(np.diff(b).sum()) == n_stripes

    @pytest.mark.parametrize("bad", [0, -1])
    def test_out_of_range_raises(self, bad):
        with pytest.raises(ValueError):
            shard_bounds(48, bad)


class TestPartitionTrace:
    def test_partition_is_exact_and_order_preserving(self):
        k_rows, n_stripes, n_shards = 4, 12, 3
        rng = np.random.default_rng(0)
        rows = rng.integers(0, n_stripes * k_rows, size=200)
        parts = partition_trace(rows, k_rows, n_stripes, n_shards)
        seen = np.concatenate(parts)
        assert sorted(seen.tolist()) == list(range(200))  # exact cover
        bounds = shard_bounds(n_stripes, n_shards)
        for i, idx in enumerate(parts):
            assert np.all(np.diff(idx) > 0)  # global order kept per shard
            stripes = rows[idx] // k_rows
            assert np.all(stripes >= bounds[i])
            assert np.all(stripes < bounds[i + 1])

    def test_single_shard_owns_everything(self):
        rows = np.arange(40)
        (part,) = partition_trace(rows, 4, 10, 1)
        assert np.array_equal(part, np.arange(40))

    def test_oversubscribed_shards_get_empty_parts(self):
        # n_shards > n_stripes: every request still lands in exactly one
        # shard, and the surplus shards get empty index arrays
        k_rows, n_stripes, n_shards = 2, 3, 8
        rows = np.arange(n_stripes * k_rows)
        parts = partition_trace(rows, k_rows, n_stripes, n_shards)
        assert len(parts) == n_shards
        seen = np.concatenate(parts)
        assert sorted(seen.tolist()) == list(range(len(rows)))
        assert sum(1 for p in parts if len(p) == 0) == n_shards - n_stripes

    def test_explicit_bounds_override_even_split(self):
        k_rows, n_stripes = 2, 8
        rows = np.arange(n_stripes * k_rows)
        bounds = np.asarray([0, 6, 8])  # deliberately uneven
        parts = partition_trace(rows, k_rows, n_stripes, 2, bounds=bounds)
        assert np.all(rows[parts[0]] // k_rows < 6)
        assert np.all(rows[parts[1]] // k_rows >= 6)

    @pytest.mark.parametrize(
        "n_shards,bounds",
        [
            (2, [0, 8]),        # wrong length
            (2, [1, 4, 8]),     # does not start at 0
            (2, [0, 4, 7]),     # does not end at n_stripes
            (3, [0, 5, 3, 8]),  # not monotone
        ],
    )
    def test_bad_explicit_bounds_rejected(self, n_shards, bounds):
        rows = np.arange(16)
        with pytest.raises(ValueError):
            partition_trace(rows, 2, 8, n_shards, bounds=np.asarray(bounds))


class TestReplayOpenLoop:
    """Open-loop replay accounting of ``ShardServer.serve_trace``."""

    def _server(self, element_read_ms=None, n_stripes=12):
        codec = ArrayImageCodec(make_code("rdp", 7), element_size=8,
                                n_stripes=n_stripes)
        disks = codec.encode_image(
            codec.random_image(np.random.default_rng(4))
        )
        patched = np.zeros((n_stripes * codec.code.layout.k_rows, 8),
                           dtype=np.uint8)
        io = (
            None if element_read_ms is None
            else SimulatedDisksIoModel(7, element_read_ms=element_read_ms)
        )
        server = ShardServer(codec, disks, patched, 0, 0, n_stripes,
                             io=io, priority=False)
        return server, patched

    def _trace(self, n, rate, disk=0):
        arr = np.arange(n) / rate
        disks = np.full(n, disk, dtype=np.int64)
        rows = np.arange(n, dtype=np.int64)
        return arr, disks, rows

    def test_serves_all_and_verifies(self):
        server, _ = self._server()
        arr, disks, rows = self._trace(50, rate=5000.0)
        res = server.serve_trace(arr, disks, rows, t_start=time.monotonic())
        assert res["served"] == 50
        assert res["degraded"] == 50
        assert res["mismatches"] == 0
        assert res["p99_ms"] >= res["p50_ms"] >= 0.0

    def test_counts_mismatches(self):
        server, patched = self._server()
        server.note_rebuilt(np.arange(12))
        patched[:] = server.disks[0]
        patched[3] ^= 0xFF  # one wrong patched row
        arr, disks, rows = self._trace(10, rate=5000.0)
        res = server.serve_trace(arr, disks, rows, t_start=time.monotonic())
        assert res["served"] == 10
        assert res["mismatches"] == 1

    def test_error_stops_replay_loudly(self, monkeypatch):
        server, _ = self._server()
        served = []
        real = server._serve_batch

        def flaky(disks, rows, want_data=False):
            if 4 in rows.tolist():
                raise RuntimeError("disk on fire")
            served.extend(rows.tolist())
            return real(disks, rows, want_data)

        monkeypatch.setattr(server, "_serve_batch", flaky)
        arr, disks, rows = self._trace(10, rate=1000.0)
        with pytest.raises(RuntimeError, match="disk on fire"):
            server.serve_trace(arr, disks, rows, t_start=time.monotonic())
        assert served == [0, 1, 2, 3]

    def test_latency_includes_queue_wait(self):
        """A slow disk must push later requests' latency up (open loop)."""
        server, _ = self._server(element_read_ms=10.0)
        # direct reads of one disk, 1 ms apart, 10 ms service each
        arr, disks, rows = self._trace(6, rate=1000.0, disk=3)
        res = server.serve_trace(arr, disks, rows, t_start=time.monotonic())
        # the last request queued behind ~5 earlier 10 ms services
        assert res["p99_ms"] > 30.0
