"""The two legs every byte-level executor test runs on.

``kernel`` is the compiled ``xor_batch`` (skipped without a C compiler);
``pure`` is the numpy fold that ``REPRO_PURE_PYTHON=1`` selects, forced
here without re-importing anything, so it also works inside a Hypothesis
example.
"""

from contextlib import contextmanager

import pytest

from repro.recovery import ckernel

kernel = pytest.mark.skipif(
    not ckernel.xor_available(), reason="C kernel unavailable (no compiler?)"
)

LEGS = [
    pytest.param("kernel", marks=kernel),
    pytest.param("pure"),
]


@contextmanager
def pure_python():
    """The ``REPRO_PURE_PYTHON`` leg, inside a Hypothesis example."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_PURE_PYTHON", "1")
        mp.setattr(ckernel, "_lib", None)
        mp.setattr(ckernel, "_load_attempted", True)
        yield


@contextmanager
def leg_context(leg):
    if leg == "pure":
        with pure_python():
            assert not ckernel.xor_available()
            yield
    else:
        yield
