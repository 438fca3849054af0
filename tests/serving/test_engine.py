"""Serving core (ShardServer): byte-exact paths, rebuild frontier, faults."""

import numpy as np
import pytest

from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.faults import FaultPlan
from repro.pipeline.engine import RebuildPipeline
from repro.serving import (
    ShardServer,
    ShardedServingEngine,
    build_workload_requests,
    trace_arrays,
)


def build(family="rdp", n_disks=7, element_size=16, n_stripes=12, seed=7):
    code = make_code(family, n_disks)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks


def hotspot_trace(codec, failed_disk, count, rate):
    lay = codec.code.layout
    return build_workload_requests(
        "hotspot", lay.n_disks, codec.n_stripes * lay.k_rows, failed_disk,
        count, rate_per_s=rate,
    )


def server_for(codec, disks, failed_disk, **kw):
    """A ShardServer owning every stripe, with an all-zero patch map."""
    total_rows = codec.n_stripes * codec.code.layout.k_rows
    patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
    server = ShardServer(
        codec, disks, patched, failed_disk, 0, codec.n_stripes, **kw
    )
    return server, patched


class TestReadPaths:
    def test_every_element_byte_exact_without_rebuild(self):
        codec, disks = build()
        original = disks.copy()
        server, _ = server_for(codec, disks, failed_disk=2)
        lay = codec.code.layout
        for disk in range(lay.n_disks):
            for row in range(codec.n_stripes * lay.k_rows):
                assert np.array_equal(
                    server.read(disk, row), original[disk, row]
                ), (disk, row)
        assert server.n_degraded == codec.n_stripes * lay.k_rows
        assert server.n_patched == 0
        assert server.mismatches == 0

    @pytest.mark.parametrize("family,n", [("evenodd", 7), ("cauchy_rs", 8)])
    def test_other_families(self, family, n):
        codec, disks = build(family, n, n_stripes=6)
        original = disks.copy()
        server, _ = server_for(codec, disks, failed_disk=1)
        lay = codec.code.layout
        for row in range(codec.n_stripes * lay.k_rows):
            assert np.array_equal(server.read(1, row), original[1, row]), row

    def test_rejects_out_of_range(self):
        codec, disks = build()
        server, patched = server_for(codec, disks, failed_disk=0)
        with pytest.raises(IndexError):
            server.read(99, 0)
        with pytest.raises(IndexError):
            server.read(0, 10**6)
        with pytest.raises(IndexError):
            ShardServer(codec, disks, patched, 42, 0, codec.n_stripes)
        with pytest.raises(IndexError):
            ShardedServingEngine(codec, disks, failed_disk=42, n_shards=1)

    def test_rejects_wrong_shape(self):
        codec, disks = build()
        with pytest.raises(ValueError):
            ShardedServingEngine(codec, disks[:, :-1], failed_disk=0, n_shards=1)


def rebuild_with_reads(codec, disks, server, patched, failed, on_step):
    """Rebuild ``failed`` chunk by chunk, advancing the server's frontier.

    Each chunk's rows land in the patch map before ``note_rebuilt`` (the
    engine's write-then-notify order); ``on_step`` runs before every
    notification and once after the last one.
    """
    k = codec.code.layout.k_rows

    def on_chunk(chunk, rows):
        on_step()
        row_idx = (chunk.stripe_ids[:, None] * k + np.arange(k)).reshape(-1)
        patched[row_idx] = rows.reshape(-1, codec.element_size)
        server.note_rebuilt(chunk.stripe_ids)

    pipe = RebuildPipeline(codec, workers=0, chunk_stripes=4, on_chunk=on_chunk)
    result = pipe.rebuild(disks, failed)
    on_step()
    return result


class TestRebuildIntegration:
    def test_reads_race_rebuild_and_stay_exact(self):
        codec, disks = build(n_stripes=24)
        original = disks.copy()
        server, patched = server_for(codec, disks, failed_disk=0)
        total_rows = codec.n_stripes * codec.code.layout.k_rows
        rng = np.random.default_rng(3)

        def reads():
            rows = rng.integers(0, total_rows, size=16)
            _, data = server._serve_batch(
                np.zeros(16, dtype=np.int64), rows, want_data=True
            )
            assert np.array_equal(data, original[0, rows])

        result = rebuild_with_reads(codec, disks, server, patched, 0, reads)
        assert server.mismatches == 0
        assert server.n_degraded > 0 and server.n_patched > 0
        assert np.array_equal(result.image, original[0])

    def test_post_rebuild_reads_served_from_patch(self):
        codec, disks = build()
        original = disks.copy()
        server, patched = server_for(codec, disks, failed_disk=3)
        rebuild_with_reads(codec, disks, server, patched, 3, lambda: None)
        lay = codec.code.layout
        for row in range(codec.n_stripes * lay.k_rows):
            assert np.array_equal(server.read(3, row), original[3, row])
        assert server.n_patched == codec.n_stripes * lay.k_rows
        assert server.n_degraded == 0
        assert server.mismatches == 0


def lse_everywhere(codec):
    """A latent sector error on logical disk 1, row 0, of every stripe."""
    return FaultPlan.parse([f"lse:1:0:{s}" for s in range(codec.n_stripes)])


class TestFaultPath:
    def test_lse_on_surviving_disk_served_resiliently(self):
        codec, disks = build(n_stripes=4)
        original = disks.copy()
        lay = codec.code.layout
        server, _ = server_for(
            codec, disks, failed_disk=0, fault_plan=lse_everywhere(codec)
        )
        for row in range(codec.n_stripes * lay.k_rows):
            assert np.array_equal(server.read(0, row), original[0, row]), row
        assert server.n_resilient == codec.n_stripes * lay.k_rows
        assert server.mismatches == 0
        # the ladder met the faulty element (and worked around it)
        assert server.fault_store.reads_per_disk.get(1, 0) > 0

    def test_lse_batched_group_served_resiliently(self):
        codec, disks = build(n_stripes=14)
        original = disks.copy()
        server, _ = server_for(
            codec, disks, failed_disk=2, fault_plan=lse_everywhere(codec)
        )
        k = codec.code.layout.k_rows
        # one row of every stripe: each rotation's stripes form one group
        rows = np.arange(codec.n_stripes) * k + 1
        _, data = server._serve_batch(
            np.full(len(rows), 2, dtype=np.int64), rows, want_data=True
        )
        assert np.array_equal(data, original[2, rows])
        assert server.n_resilient == len(rows)
        assert server.mismatches == 0

    def test_lse_on_surviving_disk_served_through_two_shards(self):
        codec, disks = build(n_stripes=16)
        engine = ShardedServingEngine(
            codec, disks, failed_disk=1, n_shards=2, rebuild_chunk_stripes=4,
            fault_plan=lse_everywhere(codec),
        )
        reqs = hotspot_trace(codec, failed_disk=1, count=300, rate=3000.0)
        report = engine.serve_trace(reqs, timeout_s=120.0, rebuild=False)
        assert report.ok
        assert report.mismatches == 0
        resilient = sum(int(s["resilient"]) for s in report.per_shard)
        degraded = sum(int(s["degraded"]) for s in report.per_shard)
        assert resilient == degraded > 0
        assert report.fault_counts["latent_errors"] > 0

    @pytest.mark.parametrize("faulty", [True, False])
    def test_shard_result_keeps_group_fault_reports(self, faulty):
        """Each resilient group's FaultReport reaches the shard result: an
        LSE the degraded plans read is counted, a clean store counts 0."""
        codec, disks = build(n_stripes=4)
        plan = lse_everywhere(codec) if faulty else None
        server, _ = server_for(codec, disks, failed_disk=0, fault_plan=plan)
        n_rows = codec.n_stripes * codec.code.layout.k_rows
        res = server.serve_trace(
            np.zeros(n_rows),
            np.zeros(n_rows, dtype=np.int64),
            np.arange(n_rows),
            t_start=0.0,
        )
        assert res["mismatches"] == 0
        assert res["degraded"] == n_rows
        assert (res["faults"]["latent_errors"] >= 1) == faulty
        if not faulty:
            assert set(res["faults"].values()) == {0}

    def test_empty_fault_plan_uses_fast_path(self):
        codec, disks = build(n_stripes=4)
        server, _ = server_for(
            codec, disks, failed_disk=0, fault_plan=FaultPlan.parse([])
        )
        assert server.fault_store is None
        server.read(0, 0)
        assert server.n_resilient == 0


class TestStats:
    def test_stats_shape(self):
        codec, disks = build()
        server, _ = server_for(codec, disks, failed_disk=0)
        arr, dks, rws = trace_arrays(
            hotspot_trace(codec, failed_disk=0, count=20, rate=5000.0)
        )
        res = server.serve_trace(arr, dks, rws, t_start=0.0)
        assert res["served"] == 20
        assert res["direct"] + res["patched"] + res["degraded"] == 20
        assert res["resilient"] == 0
        assert res["mismatches"] == 0
        for key in ("batches", "duration_s", "latencies", "wake_lags",
                    "plans_resident", "p50_ms", "p99_ms"):
            assert key in res
