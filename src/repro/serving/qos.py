"""QoS primitives for rebuild-vs-reads contention.

The paper's premise is that recovery shares the array with foreground
traffic; the operational question is *how much* rebuild bandwidth to
admit while user reads stay within their latency target.  The pieces:

* :func:`percentile` — nearest-rank percentiles (what every shard
  publishes its p99 with);
* :class:`TokenBucket` — admission control for rebuild chunk dispatch;
  one token buys one chunk, the refill rate *is* the rebuild rate.

The AIMD loop that steers the bucket's rate on the shards' published
p99 is :class:`~repro.serving.sharded.BoardThrottle`.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Optional, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    data = sorted(values)
    rank = max(1, math.ceil(q * len(data)))
    return data[rank - 1]


class TokenBucket:
    """Token-bucket admission control.

    ``rate=None`` means uncapped: :meth:`acquire` returns immediately.
    Tokens accumulate up to ``capacity`` so short bursts after an idle
    spell are not penalised.
    """

    def __init__(self, rate: Optional[float] = None, capacity: float = 2.0) -> None:
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rate = rate
        self._tokens = capacity
        self._last = time.monotonic()
        self._lock = threading.Lock()

    @property
    def rate(self) -> Optional[float]:
        return self._rate

    def set_rate(self, rate: Optional[float]) -> None:
        """Change the refill rate; accumulated tokens are kept."""
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        with self._lock:
            self._refill()
            self._rate = rate

    def _refill(self) -> None:
        now = time.monotonic()
        if self._rate is not None:
            self._tokens = min(
                self.capacity, self._tokens + (now - self._last) * self._rate
            )
        else:
            self._tokens = self.capacity
        self._last = now

    def acquire(self, tokens: float = 1.0, max_wait: Optional[float] = None) -> float:
        """Block until ``tokens`` are available; returns seconds waited.

        ``max_wait`` caps the blocking time — on timeout the tokens are
        taken anyway (admission control must never wedge the rebuild).
        """
        waited = 0.0
        while True:
            with self._lock:
                self._refill()
                if self._tokens >= tokens or self._rate is None:
                    self._tokens -= tokens
                    return waited
                need = (tokens - self._tokens) / self._rate
            if max_wait is not None and waited + need > max_wait:
                sleep_for = max(0.0, max_wait - waited)
                if sleep_for:
                    time.sleep(sleep_for)
                with self._lock:
                    self._refill()
                    self._tokens -= tokens
                return waited + sleep_for
            time.sleep(need)
            waited += need
