"""Sharded serving engine: shard core correctness, throttle, full mp runs."""

import json
import multiprocessing as mp
import os
import queue as queue_mod
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from repro import obs
from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.disksim.workload import Request
from repro.pipeline.engine import RebuildPipeline
from repro.recovery import RecoveryPlanner
from repro.recovery.degraded_read import slice_degraded_plan
from repro.recovery.plancache import SchemePlanCache
from repro.serving import qos as qos_mod
from repro.serving import sharded as sharded_mod
from repro.serving import (
    BoardThrottle,
    ShardServer,
    ShardedServingEngine,
)
from repro.serving.shm import (
    BOARD_FIELDS,
    BOARD_P99_MS,
    BOARD_SERVED,
    SharedServingState,
)
from tests.doctored import (
    FixedRowPlans,
    row_plan_reading_dead_row,
    scheme_misstating_loads,
)


def build(family="rdp", n_disks=7, element_size=16, n_stripes=12, seed=7):
    code = make_code(family, n_disks)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks


def hotspot_trace(codec, failed_disk, count, rate, seed=0):
    lay = codec.code.layout
    total_rows = codec.n_stripes * lay.k_rows
    rng = np.random.default_rng(seed)
    reqs = []
    for i in range(count):
        disk = failed_disk if rng.random() < 0.8 else int(
            rng.integers(lay.n_disks)
        )
        reqs.append(
            Request(
                arrival_s=i / rate, disk=disk, row=int(rng.integers(total_rows))
            )
        )
    return reqs


class TestShardServer:
    def test_every_read_path_byte_exact(self):
        codec, disks = build()
        original = disks.copy()
        lay = codec.code.layout
        total_rows = codec.n_stripes * lay.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        server = ShardServer(
            codec, disks, patched, failed_disk=2, stripe_lo=0,
            stripe_hi=codec.n_stripes,
        )
        # degraded (failed disk, frontier behind) + direct (survivors)
        for row in range(total_rows):
            assert np.array_equal(server.read(2, row), original[2, row]), row
            assert np.array_equal(server.read(0, row), original[0, row]), row
        assert server.mismatches == 0
        assert server.n_degraded == total_rows
        assert server.n_direct == total_rows
        assert server.n_patched == 0

    def test_patched_path_after_note_rebuilt(self):
        codec, disks = build(n_stripes=8)
        original = disks.copy()
        lay = codec.code.layout
        k = lay.k_rows
        total_rows = codec.n_stripes * k
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        # pre-patch stripes 0..3 with the true bytes, then notify
        patched[: 4 * k] = original[1, : 4 * k]
        server = ShardServer(
            codec, disks, patched, failed_disk=1, stripe_lo=0,
            stripe_hi=codec.n_stripes,
        )
        server.note_rebuilt(np.arange(4))
        for row in range(total_rows):
            assert np.array_equal(server.read(1, row), original[1, row]), row
        assert server.n_patched == 4 * k
        assert server.n_degraded == 4 * k
        assert server.mismatches == 0

    def test_patched_mismatch_is_counted(self):
        codec, disks = build(n_stripes=4)
        lay = codec.code.layout
        total_rows = codec.n_stripes * lay.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        patched[0] = 0xAB  # wrong bytes for stripe 0
        server = ShardServer(
            codec, disks, patched, failed_disk=0, stripe_lo=0,
            stripe_hi=codec.n_stripes,
        )
        server.note_rebuilt(np.asarray([0]))
        server.read(0, 0)
        assert server.mismatches >= 1

    def test_batched_degraded_reads_group_and_verify(self):
        codec, disks = build(n_stripes=12)
        original = disks.copy()
        lay = codec.code.layout
        k = lay.k_rows
        total_rows = codec.n_stripes * k
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        server = ShardServer(
            codec, disks, patched, failed_disk=3, stripe_lo=0,
            stripe_hi=codec.n_stripes,
        )
        rng = np.random.default_rng(1)
        rows = rng.integers(0, total_rows, size=64)
        dks = np.full(64, 3, dtype=np.int64)
        _, data = server._serve_batch(dks, rows, want_data=True)
        for t in range(64):
            assert np.array_equal(data[t], original[3, rows[t]]), t
        assert server.mismatches == 0
        assert server.n_batches == 1  # one scoop, grouped internally

    def test_rejects_bad_ranges(self):
        codec, disks = build(n_stripes=4)
        total_rows = codec.n_stripes * codec.code.layout.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        with pytest.raises(ValueError):
            ShardServer(codec, disks, patched, 0, stripe_lo=3, stripe_hi=2)
        with pytest.raises(ValueError):
            ShardServer(codec, disks, patched, 0, stripe_lo=0, stripe_hi=99)
        with pytest.raises(IndexError):
            ShardServer(codec, disks, patched, 42, stripe_lo=0, stripe_hi=4)

    def test_empty_range_is_a_legal_idle_shard(self):
        codec, disks = build(n_stripes=4)
        total_rows = codec.n_stripes * codec.code.layout.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        server = ShardServer(codec, disks, patched, 0, stripe_lo=2, stripe_hi=2)
        empty = np.empty(0)
        res = server.serve_trace(
            empty, empty.astype(np.int64), empty.astype(np.int64),
            t_start=0.0,
        )
        assert res["served"] == 0
        assert res["mismatches"] == 0
        assert res["p99_ms"] == 0.0

    def test_serve_trace_open_loop(self):
        codec, disks = build(n_stripes=12)
        lay = codec.code.layout
        total_rows = codec.n_stripes * lay.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        server = ShardServer(
            codec, disks, patched, failed_disk=0, stripe_lo=0,
            stripe_hi=codec.n_stripes,
        )
        import time

        n = 300
        rng = np.random.default_rng(2)
        arr = np.arange(n) / 4000.0
        dks = rng.integers(0, lay.n_disks, size=n)
        rws = rng.integers(0, total_rows, size=n)
        res = server.serve_trace(arr, dks, rws, t_start=time.monotonic() + 0.05)
        assert res["served"] == n
        assert res["mismatches"] == 0
        assert res["direct"] + res["patched"] + res["degraded"] == n
        assert res["p99_ms"] >= res["p50_ms"]
        assert len(res["latencies"]) == n


class TestServedPlanGuard:
    """A served plan passes the same static guard as a rebuild plan: one
    that reads another row of the dead role, or misstates its loads, is
    refused when the shard is constructed, before any read is served.
    (evenodd: unlike rdp's, some of its row plans depend on other rows.)"""

    FAMILY = "evenodd"
    ROLE = 2

    def _server(self, row, plan):
        codec, disks = build(self.FAMILY, n_stripes=8)
        total_rows = codec.n_stripes * codec.code.layout.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        plans = FixedRowPlans(codec.code, self.ROLE, row, plan)
        return ShardServer(codec, disks, patched, failed_disk=3, stripe_lo=0,
                           stripe_hi=codec.n_stripes, plans=plans)

    def _disk_scheme(self, role):
        code = make_code(self.FAMILY, 7)
        return RecoveryPlanner(code, "u", depth=1).scheme_for_disk(role)

    def test_plan_reading_another_dead_row_raises(self):
        plan, row, dead_row = row_plan_reading_dead_row(
            self._disk_scheme(self.ROLE), self.ROLE
        )
        with pytest.raises(
            ValueError, match=f"role {self.ROLE} reads element {dead_row} "
        ):
            self._server(row, plan)

    def test_plan_misstating_its_loads_raises(self):
        real = slice_degraded_plan(self._disk_scheme(self.ROLE), [0])
        plan, logical = scheme_misstating_loads(real)
        with pytest.raises(
            ValueError, match=f"role {self.ROLE} reads .* logical disk {logical}"
        ):
            self._server(0, plan)


class TestWakePath:
    """The replay loop's wait: one ``select`` on the control pipe."""

    def _server(self, n_stripes=8, failed_disk=1):
        codec, disks = build(n_stripes=n_stripes)
        total_rows = codec.n_stripes * codec.code.layout.k_rows
        patched = np.zeros((total_rows, codec.element_size), dtype=np.uint8)
        server = ShardServer(
            codec, disks.copy(), patched, failed_disk=failed_disk,
            stripe_lo=0, stripe_hi=codec.n_stripes,
        )
        return codec, disks, patched, server

    def test_frontier_message_wakes_an_idle_shard(self):
        """A frontier sent during an idle wait is applied at once, before
        the next batch, so the read that follows is served as patched."""
        codec, original, patched, server = self._server()
        k = codec.code.layout.k_rows
        stripe, arrival = 3, 0.6
        reader, writer = mp.Pipe(duplex=False)
        applied, sent = [], []
        note_rebuilt = server.note_rebuilt

        def spy(ids, per_disk=None):
            applied.append(time.monotonic())
            note_rebuilt(ids, per_disk)

        server.note_rebuilt = spy

        def rebuild():
            time.sleep(0.1)
            rows = slice(stripe * k, (stripe + 1) * k)
            patched[rows] = original[1, rows]  # write first, then notify
            sent.append(time.monotonic())
            writer.send(("frontier", np.asarray([stripe]), None))

        t_start = time.monotonic()
        thread = threading.Thread(target=rebuild)
        thread.start()
        try:
            res = server.serve_trace(
                np.asarray([arrival]), np.asarray([1]),
                np.asarray([stripe * k + 2]), t_start, ctrl=reader,
            )
        finally:
            thread.join()
            writer.close()
            reader.close()
        assert (res["patched"], res["degraded"], res["mismatches"]) == (1, 0, 0)
        assert len(applied) == 1
        # woken by the message, well before the read's arrival
        assert applied[0] - sent[0] < 0.25
        assert applied[0] < t_start + arrival

    def test_idle_wait_overshoot_is_sub_millisecond(self):
        """200 waits of 200 us overshoot by well under a millisecond (a
        millisecond-rounded poll overshoots every one by ~0.8 ms)."""
        _, _, _, server = self._server()
        reader, writer = mp.Pipe(duplex=False)
        wait_s = 200e-6
        overshoot = []
        try:
            for _ in range(200):
                t0 = time.monotonic()
                server._idle(reader, wait_s)
                overshoot.append(time.monotonic() - t0 - wait_s)
        finally:
            writer.close()
            reader.close()
        assert np.median(overshoot) < 0.5e-3

    def test_latency_splits_into_wake_lag_and_service(self):
        codec, _, _, server = self._server(n_stripes=12, failed_disk=0)
        n = 300
        rng = np.random.default_rng(2)
        total_rows = codec.n_stripes * codec.code.layout.k_rows
        res = server.serve_trace(
            np.arange(n) / 4000.0, rng.integers(0, 7, size=n),
            rng.integers(0, total_rows, size=n),
            t_start=time.monotonic() + 0.05,
        )
        lat, wake = res["latencies"], res["wake_lags"]
        assert len(wake) == n
        assert np.all(wake >= 0)
        assert np.all(lat - wake >= 0)  # service time
        for part in ("", "wake_", "service_"):
            assert 0 <= res[f"{part}p50_ms"] <= res[f"{part}p99_ms"]


class FakeClock:
    """``monotonic``/``sleep`` stand-in: sleeping advances the clock.

    A sleep advances by at least 1 ns, as a real one does, so a wait
    loop whose rounding asks for a vanishing sleep still makes progress.
    """

    def __init__(self) -> None:
        self.now = 1000.0

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(1e-9, seconds)


class TestBoardThrottle:
    def _board(self, n_shards=2):
        return np.zeros((n_shards, BOARD_FIELDS), dtype=np.float64)

    def _overloaded_board(self):
        board = self._board()
        board[0, BOARD_SERVED] = 100
        board[0, BOARD_P99_MS] = 1e6
        return board

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(qos_mod, "time", clock)
        monkeypatch.setattr(sharded_mod, "time", clock)
        return clock

    def _run_chunks(self, throttle, clock, n, chunk_s):
        """Admit ``n`` chunks of ``chunk_s`` each; returns their waits."""
        waits = []
        for _ in range(n):
            t0 = clock.now
            throttle.before_chunk()
            waits.append(clock.now - t0)
            clock.sleep(chunk_s)
            throttle.after_chunk()
        return waits

    def test_worst_p99_ignores_underreporting_shards(self):
        board = self._board()
        board[0, BOARD_SERVED] = 100
        board[0, BOARD_P99_MS] = 5.0
        board[1, BOARD_SERVED] = 3  # < min_served: not trusted yet
        board[1, BOARD_P99_MS] = 500.0
        throttle = BoardThrottle(board, target_p99_ms=10.0)
        assert throttle.board_p99_ms() == 5.0

    def test_aimd_decreases_over_target_and_recovers(self):
        board = self._board()
        board[0, BOARD_SERVED] = 100
        throttle = BoardThrottle(
            board, target_p99_ms=10.0, rate=64.0, adjust_interval_s=0.0
        )
        board[0, BOARD_P99_MS] = 50.0
        throttle._maybe_adjust()  # no chunk has finished: no floor, no steer
        assert throttle.bucket.rate == 64.0
        throttle._ema_chunk_s = 0.1  # floor = 1 / (0.1 * 1.35) ~ 7.4/s
        throttle._maybe_adjust()  # over target -> halve
        assert throttle.bucket.rate == 32.0
        assert throttle.rate_decreases == 1
        board[0, BOARD_P99_MS] = 2.0  # comfortably under -> ramp
        throttle._maybe_adjust()
        assert throttle.bucket.rate == pytest.approx(32.0 * 1.2)
        assert throttle.rate_increases == 1
        for _ in range(30):  # far past UNCAP_FACTOR x floor: uncapped
            throttle._maybe_adjust()
        assert throttle.bucket.rate is None

    def test_rate_floor_holds(self):
        throttle = BoardThrottle(
            self._overloaded_board(), target_p99_ms=1.0, adjust_interval_s=0.0
        )
        throttle._ema_chunk_s = 0.1
        floor = 1.0 / (0.1 * 1.35)
        assert throttle.floor_rate() == pytest.approx(floor)
        throttle._maybe_adjust()  # uncapped -> straight to the floor
        assert throttle.bucket.rate == pytest.approx(floor)
        throttle.bucket.set_rate(4 * floor)
        for _ in range(10):
            throttle._maybe_adjust()
        assert throttle.bucket.rate == pytest.approx(floor)
        assert throttle.rate_decreases == 3

    def test_floor_bounds_pacing_inflation(self, clock):
        # under permanent overload the rate sits on the floor, and each
        # chunk's pacing wait is at most max_inflation x its duration
        throttle = BoardThrottle(
            self._overloaded_board(), target_p99_ms=5.0, max_inflation=0.5,
            adjust_interval_s=0.0,
        )
        waits = self._run_chunks(throttle, clock, 40, chunk_s=0.004)
        assert throttle.bucket.rate == pytest.approx(throttle.floor_rate())
        assert max(waits) <= 0.5 * 0.004 + 1e-9
        assert waits[-1] == pytest.approx(0.5 * 0.004)  # really paced
        # a stale, too-slow rate is lifted back to the floor by after_chunk
        throttle.bucket.set_rate(1.0)
        self._run_chunks(throttle, clock, 1, chunk_s=0.004)
        assert throttle.bucket.rate == pytest.approx(throttle.floor_rate())

    def test_fixed_rate_below_one_chunk_per_s_is_honoured(self, clock):
        # no target: a user rate of 0.4 chunks/s spaces chunks 2.5 s apart
        # (after the bucket's 2-chunk burst), with no wait cap raising it
        throttle = BoardThrottle(
            self._overloaded_board(), target_p99_ms=None, rate=0.4
        )
        admitted = []
        for _ in range(5):
            throttle.before_chunk()
            admitted.append(clock.now)
            throttle.after_chunk()
        assert np.diff(admitted[1:]) == pytest.approx([2.5, 2.5, 2.5])
        assert throttle.bucket.rate == 0.4

    def test_no_target_means_no_adjustment(self, clock):
        throttle = BoardThrottle(
            self._overloaded_board(), target_p99_ms=None, rate=8.0
        )
        throttle._maybe_adjust()
        assert throttle.bucket.rate == 8.0
        self._run_chunks(throttle, clock, 3, chunk_s=0.001)
        assert throttle.bucket.rate == 8.0  # no floor lift either

    def test_rejects_bad_parameters(self):
        board = self._board()
        for kw in (
            {"target_p99_ms": -1.0},
            {"target_p99_ms": 0.0},
            {"max_inflation": 0.0},
            {"decrease": 1.0},
            {"increase": 1.0},
        ):
            with pytest.raises(ValueError):
                BoardThrottle(board, **kw)

    def test_stats_keys(self, clock):
        throttle = BoardThrottle(self._overloaded_board(), target_p99_ms=5.0)
        self._run_chunks(throttle, clock, 2, chunk_s=0.01)
        stats = throttle.stats()
        assert stats["chunks_admitted"] == 2
        assert stats["ema_chunk_ms"] == pytest.approx(10.0)
        assert stats["floor_rate"] == pytest.approx(1.0 / (0.01 * 1.35))
        for key in (
            "target_p99_ms",
            "rebuild_rate",
            "throttle_wait_s",
            "rate_decreases",
            "rate_increases",
            "board_p99_ms",
        ):
            assert key in stats


class TestSharedServingState:
    def test_roundtrip_through_spec(self):
        state = SharedServingState(3, 8, 4, 2)
        try:
            state.disks[:] = 7
            state.patched[:] = 9
            state.board[1, BOARD_SERVED] = 42.0
            peer = SharedServingState.attach(state.spec)
            try:
                assert np.all(peer.disks == 7)
                assert np.all(peer.patched == 9)
                assert peer.board[1, BOARD_SERVED] == 42.0
                peer.patched[0, 0] = 1  # writable from the attach side
                assert state.patched[0, 0] == 1
            finally:
                peer.close()
        finally:
            state.close()

    @pytest.mark.parametrize("fail_on", [2, 3])
    def test_partial_creation_unlinks_earlier_blocks(self, monkeypatch, fail_on):
        # force the 2nd/3rd allocation to fail: the blocks created before
        # it must be closed AND unlinked (no leaked /dev/shm segments)
        from multiprocessing import shared_memory as shm_mod

        real = shm_mod.SharedMemory
        created = []
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            if kwargs.get("create"):
                calls["n"] += 1
                if calls["n"] == fail_on:
                    raise OSError(28, "No space left on device")
            seg = real(*args, **kwargs)
            if kwargs.get("create"):
                created.append(seg.name)
            return seg

        monkeypatch.setattr("repro.serving.shm.shared_memory.SharedMemory", flaky)
        with pytest.raises(OSError):
            SharedServingState(3, 8, 4, 2)
        assert len(created) == fail_on - 1
        monkeypatch.undo()
        for name in created:  # every earlier block must be gone
            with pytest.raises(FileNotFoundError):
                shm_mod.SharedMemory(name=name)


class TestShardedServingEngine:
    def test_bad_shard_count_raises_immediately(self):
        codec, disks = build(n_stripes=6)
        with pytest.raises(ValueError):
            ShardedServingEngine(codec, disks, failed_disk=0, n_shards=0)
        with pytest.raises(ValueError):
            ShardedServingEngine(codec, disks, failed_disk=0, n_shards=-3)

    def test_more_shards_than_stripes_runs_with_idle_shards(self):
        # n_shards > n_stripes: surplus shards idle with empty ranges;
        # replay must finish byte-exact and the merged percentiles must
        # come only from the shards that actually served
        codec, disks = build(n_stripes=4)
        engine = ShardedServingEngine(codec, disks, failed_disk=1, n_shards=6)
        reqs = hotspot_trace(codec, failed_disk=1, count=120, rate=3000.0)
        report = engine.serve_trace(reqs, timeout_s=120.0, rebuild=False)
        assert report.ok
        assert report.n_shards == 6
        assert report.served == 120
        assert sum(1 for r in report.per_shard if r["served"] == 0) >= 2
        # idle shards publish zeros — the board/report p99 is not dragged
        # to zero by them
        assert report.p99_ms > 0.0

    def test_two_shard_run_byte_exact_with_rebuild(self):
        codec, disks = build(n_stripes=16)
        engine = ShardedServingEngine(
            codec, disks, failed_disk=1, n_shards=2, rebuild_chunk_stripes=4
        )
        reqs = hotspot_trace(codec, failed_disk=1, count=400, rate=3000.0)
        report = engine.serve_trace(reqs, timeout_s=120.0)
        assert report.ok
        assert report.n_shards == 2
        assert report.served == 400
        assert report.mismatches == 0
        assert report.rebuild_wall_s is not None
        assert len(report.per_shard) == 2
        assert sum(r["served"] for r in report.per_shard) == 400

    def test_single_shard_run_without_rebuild(self):
        codec, disks = build(n_stripes=8)
        engine = ShardedServingEngine(codec, disks, failed_disk=0, n_shards=1)
        reqs = hotspot_trace(codec, failed_disk=0, count=150, rate=3000.0)
        report = engine.serve_trace(reqs, timeout_s=60.0, rebuild=False)
        assert report.ok
        assert report.served == 150
        # no rebuild: nothing ever lands on the patched path
        assert all(r["patched"] == 0 for r in report.per_shard)
        assert report.rebuild_wall_s is None

    def test_obs_snapshots_merge_into_parent(self):
        codec, disks = build(n_stripes=8)
        rec = obs.enable("sharded-test")
        try:
            engine = ShardedServingEngine(
                codec, disks, failed_disk=0, n_shards=2
            )
            reqs = hotspot_trace(codec, failed_disk=0, count=200, rate=3000.0)
            report = engine.serve_trace(reqs, timeout_s=60.0)
            assert report.ok
            snap = rec.snapshot()
            assert snap["counters"]["serving.reads"] == 200
        finally:
            obs.disable()

    def test_simulated_io_run_stays_exact(self):
        codec, disks = build(n_stripes=8)
        engine = ShardedServingEngine(
            codec,
            disks,
            failed_disk=2,
            n_shards=2,
            element_read_ms=0.05,
            rebuild_rate=50.0,
            rebuild_chunk_stripes=4,
        )
        reqs = hotspot_trace(codec, failed_disk=2, count=200, rate=2000.0)
        report = engine.serve_trace(reqs, timeout_s=120.0)
        assert report.ok
        assert report.mismatches == 0
        assert report.throttle["chunks_admitted"] >= 1

    def test_worker_failure_raises_runtime_error(self, tmp_path):
        codec, disks = build(n_stripes=8)
        engine = ShardedServingEngine(codec, disks, failed_disk=0, n_shards=2)
        # poison the workers: an out-of-range failed disk makes every
        # ShardServer constructor raise inside its process
        engine.failed_disk = 42
        reqs = hotspot_trace(codec, failed_disk=0, count=50, rate=3000.0)
        with pytest.raises(RuntimeError, match="sharded serving run failed"):
            engine.serve_trace(reqs, timeout_s=60.0, rebuild=False)

    def test_report_carries_the_pooled_latency_ledger(self):
        codec, disks = build(n_stripes=8)
        rec = obs.enable("ledger-test")
        try:
            engine = ShardedServingEngine(codec, disks, failed_disk=2, n_shards=2)
            reqs = hotspot_trace(codec, failed_disk=2, count=200, rate=3000.0)
            report = engine.serve_trace(reqs, timeout_s=60.0)
            gauges = rec.snapshot()["gauges"]
        finally:
            obs.disable()
        assert report.ok
        for part in ("wake", "service"):
            p50 = getattr(report, f"{part}_p50_ms")
            p99 = getattr(report, f"{part}_p99_ms")
            assert 0 <= p50 <= p99
            assert gauges[f"serving.{part}_p99_ms"]["value"] == p99
            for shard in report.per_shard:
                assert shard[f"{part}_p99_ms"] <= gauges[f"serving.{part}_p99_ms"]["peak"]

    def test_wrong_rebuilt_row_is_counted(self, monkeypatch):
        """The rebuild verifies every stripe it writes against the pristine
        disk: a survivor byte flipped under it shows as one stripe in
        rebuild_mismatches and fails ok."""

        class CorruptFirstStripe(RebuildPipeline):
            def rebuild(self, disks, failed_physical, patch=False):
                # stripe 0 has rotation 0: the failed disk plays its own role
                scheme = self.planner.scheme_for_disk(failed_physical)
                lay = self.codec.code.layout
                ldisk, row = next(iter(lay.iter_elements(scheme.read_mask)))
                disks = disks.copy()
                disks[ldisk, row, 0] ^= 0xFF
                return super().rebuild(disks, failed_physical, patch)

        monkeypatch.setattr(sharded_mod, "RebuildPipeline", CorruptFirstStripe)
        codec, disks = build(n_stripes=8)
        engine = ShardedServingEngine(codec, disks, failed_disk=2, n_shards=1)
        reqs = hotspot_trace(codec, failed_disk=2, count=50, rate=3000.0)
        report = engine.serve_trace(reqs, timeout_s=60.0)
        assert report.rebuild_mismatches == 1
        assert not report.ok

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_killed_shard_raises_and_leaks_no_shared_memory(self, monkeypatch):
        """A shard SIGKILLed mid-replay (from the rebuild's on_chunk) makes
        serve_trace raise naming it, and every segment is unlinked."""
        killed = []

        class KillShardOnFirstChunk(RebuildPipeline):
            def __init__(self, *args, on_chunk, **kwargs):
                def kill_then_notify(chunk, rows):
                    if not killed:
                        for proc in mp.active_children():
                            if proc.name == "serve-shard-1":
                                os.kill(proc.pid, signal.SIGKILL)
                                killed.append(proc.pid)
                    on_chunk(chunk, rows)

                super().__init__(*args, on_chunk=kill_then_notify, **kwargs)

        monkeypatch.setattr(sharded_mod, "RebuildPipeline", KillShardOnFirstChunk)
        before = set(os.listdir("/dev/shm"))
        codec, disks = build(n_stripes=16)
        engine = ShardedServingEngine(
            codec, disks, failed_disk=1, n_shards=2,
            rebuild_rate=40.0, rebuild_chunk_stripes=2,
        )
        reqs = hotspot_trace(codec, failed_disk=1, count=3000, rate=3000.0)
        with pytest.raises(
            RuntimeError, match=r"shard 1 produced no result \(exit code -9\)"
        ):
            engine.serve_trace(reqs, timeout_s=60.0, startup_grace_s=0.3)
        assert killed
        assert set(os.listdir("/dev/shm")) - before == set()


class FakeShard:
    """A shard process that reads alive once, then dead (exit code 0)."""

    exitcode = 0

    def __init__(self):
        self.seen_dead = False
        self._alive_reads = 1

    def is_alive(self):
        if self._alive_reads:
            self._alive_reads -= 1
            return True
        self.seen_dead = True
        return False


class LateQueue:
    """A result queue whose item is readable only once its shard has read
    as dead: the shard sent it and exited while a poll was waiting."""

    def __init__(self, shard, item):
        self.shard = shard
        self.items = [item]
        self.polls = []

    def get(self, block=True, timeout=None):
        self.polls.append(block)
        if self.shard.seen_dead and self.items:
            return self.items.pop()
        raise queue_mod.Empty


class TestResultCollection:
    def test_result_sent_just_before_exit_is_collected(self):
        shard = FakeShard()
        q = LateQueue(shard, ("ok", 0, {"served": 3}))
        results, errors = sharded_mod._collect_results(q, [shard], timeout_s=30.0)
        assert errors == []
        assert results == {0: {"served": 3}}
        # one blocking poll while alive, one non-blocking poll once dead
        assert q.polls == [True, False]

    def test_dead_shard_with_nothing_queued_is_resultless(self):
        shard = FakeShard()
        q = LateQueue(shard, None)
        q.items = []
        results, errors = sharded_mod._collect_results(q, [shard], timeout_s=30.0)
        assert results == {}
        assert errors == ["shard 0 produced no result (exit code 0)"]

    def test_failed_shard_reports_its_traceback(self):
        shard = FakeShard()
        q = LateQueue(shard, ("error", 0, "Traceback: boom"))
        results, errors = sharded_mod._collect_results(q, [shard], timeout_s=30.0)
        assert results == {}
        assert errors == ["shard 0 failed:\nTraceback: boom"]


class TestPlanStoreUnderShards:
    """The persistent plan store as the real 2-shard engine uses it."""

    CORRUPT = {
        "not_json": "{not json",
        "malformed_record": json.dumps(
            {"version": 1, "plans": {"deadbeef": {"no": "equations"}}}
        ),
        "not_an_object": "[]",
    }

    def _run(self, store_path, algorithm="u"):
        codec, disks = build(n_stripes=8)
        engine = ShardedServingEngine(
            codec, disks, failed_disk=1, n_shards=2, algorithm=algorithm,
            store_path=store_path, rebuild_chunk_stripes=4,
        )
        reqs = hotspot_trace(codec, failed_disk=1, count=200, rate=3000.0)
        return engine.serve_trace(reqs, timeout_s=120.0)

    @staticmethod
    def _plans(store_path):
        payload = json.loads(store_path.read_text())
        assert payload["version"] == 1
        return payload["plans"]

    @pytest.mark.parametrize("content", sorted(CORRUPT), ids=str)
    def test_corrupt_store_warns_once_and_is_rewritten(self, tmp_path, content):
        store_path = tmp_path / "plans.json"
        store_path.write_text(self.CORRUPT[content])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = self._run(store_path)
        assert report.ok and report.mismatches == 0
        unusable = [w for w in caught if "unusable plan cache" in str(w.message)]
        assert len(unusable) == 1
        assert len(self._plans(store_path)) > 0

    def test_back_to_back_engines_union_their_entries(self, tmp_path):
        shared = tmp_path / "shared.json"
        alone = tmp_path / "c_alone.json"
        assert self._run(shared, "u").ok
        first = set(self._plans(shared))
        assert self._run(alone, "c").ok
        second = set(self._plans(alone))
        assert first and second and not first & second
        assert self._run(shared, "c").ok
        assert set(self._plans(shared)) == first | second
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = SchemePlanCache(shared)
        assert reloaded.stats()["disk_entries"] == len(first | second)

