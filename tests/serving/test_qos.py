"""QoS primitives: percentiles, the token bucket and the rebuild throttle."""

import time

import numpy as np
import pytest

from repro.serving import BoardThrottle, TokenBucket, percentile
from repro.serving.shm import BOARD_FIELDS, BOARD_P99_MS, BOARD_SERVED


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_nearest_rank_known_values(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(data, 0.5) == 5.0
        assert percentile(data, 0.99) == 10.0
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 1.0) == 10.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 1.0) == 3.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestTokenBucket:
    def test_uncapped_never_blocks(self):
        b = TokenBucket(rate=None)
        assert b.acquire() == 0.0
        assert b.acquire(100.0) == 0.0

    def test_capped_rate_paces(self):
        # capacity 1 token, 200 tokens/s: 3 extra tokens need ~15ms
        b = TokenBucket(rate=200.0, capacity=1.0)
        b.acquire()  # drain the initial token
        t0 = time.perf_counter()
        for _ in range(3):
            b.acquire()
        elapsed = time.perf_counter() - t0
        assert elapsed >= 0.010

    def test_max_wait_caps_blocking_and_takes_tokens(self):
        b = TokenBucket(rate=1.0, capacity=1.0)
        b.acquire()
        t0 = time.perf_counter()
        waited = b.acquire(max_wait=0.02)
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5
        assert waited <= 0.02 + 1e-6

    def test_set_rate_validates(self):
        b = TokenBucket(rate=1.0)
        with pytest.raises(ValueError):
            b.set_rate(0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=-1.0)
        with pytest.raises(ValueError):
            TokenBucket(capacity=0.0)


class TestQosController:
    """The AIMD rebuild throttle driven through its chunk hooks."""

    def _throttle(self, p99_ms, **kw):
        board = np.zeros((2, BOARD_FIELDS), dtype=np.float64)
        board[0, BOARD_SERVED] = 100
        board[0, BOARD_P99_MS] = p99_ms
        kw.setdefault("target_p99_ms", 5.0)
        kw.setdefault("adjust_interval_s", 0.0)
        return BoardThrottle(board, **kw)

    def _chunk(self, throttle, seconds):
        throttle.before_chunk()
        time.sleep(seconds)
        throttle.after_chunk()

    def test_overload_throttles_to_floor(self):
        throttle = self._throttle(p99_ms=50.0)  # p99 50ms >> 5ms target
        # one observed chunk of 10ms sets the EMA and hence the floor
        self._chunk(throttle, 0.01)
        assert throttle.bucket.rate is None  # no floor before that chunk
        throttle.before_chunk()
        floor = 1.0 / (throttle._ema_chunk_s * (1.0 + throttle.max_inflation))
        assert throttle.floor_rate() == pytest.approx(floor)
        assert throttle.bucket.rate == pytest.approx(floor)
        assert throttle.rate_decreases == 1
        throttle.after_chunk()

    def test_recovery_reaccelerates(self):
        throttle = self._throttle(p99_ms=50.0)
        self._chunk(throttle, 0.005)
        self._chunk(throttle, 0.005)
        throttled = throttle.bucket.rate
        assert throttled is not None
        # latencies recover well under target: the rate must climb again
        throttle.board[0, BOARD_P99_MS] = 0.1
        for _ in range(3):
            self._chunk(throttle, 0.005)
        assert throttle.rate_increases >= 1
        assert throttle.bucket.rate is None or throttle.bucket.rate > throttled

    def test_constructor_validation(self):
        board = np.zeros((1, BOARD_FIELDS), dtype=np.float64)
        for kw in (
            {"target_p99_ms": 0.0},
            {"target_p99_ms": -5.0},
            {"max_inflation": 0.0},
            {"max_inflation": -0.5},
            {"decrease": 0.0},
            {"decrease": 1.0},
            {"increase": 1.0},
        ):
            with pytest.raises(ValueError):
                BoardThrottle(board, **kw)
