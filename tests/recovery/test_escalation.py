"""Tests for mid-recovery failure escalation.

:class:`TestExecution` runs on the default leg (the compiled kernel when a
C compiler is available) and again, as :class:`TestExecutionPurePython`,
on the numpy fold that ``REPRO_PURE_PYTHON=1`` selects; so does the
randomised shuffled-order case.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import StripeCodec
from repro.codes import RdpCode, StarCode, make_code
from repro.recovery.escalation import escalated_scheme, execute_escalated
from repro.recovery.multifailure import UnrecoverableError, recover_failure
from repro.recovery.scheme import RecoveryScheme

from tests.legs import LEGS, leg_context


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


@pytest.fixture(scope="module")
def stripe(rdp7):
    codec = StripeCodec(rdp7, element_size=64)
    return codec.encode(codec.random_data(np.random.default_rng(17)))


class TestPlanning:
    def test_sentinels_for_recovered_rows(self, rdp7):
        scheme = escalated_scheme(rdp7, 0, recovered_rows=[0, 1, 2],
                                  secondary_disk=3)
        lay = rdp7.layout
        sentinel_eids = {lay.eid(0, r) for r in (0, 1, 2)}
        for f, eq in zip(scheme.failed_eids, scheme.equations):
            if f in sentinel_eids:
                assert eq == 1 << f
            else:
                assert eq != 1 << f

    def test_free_elements_never_read(self, rdp7):
        """The read set excludes both failed disks entirely."""
        scheme = escalated_scheme(rdp7, 0, [0, 1], 4)
        lay = rdp7.layout
        assert scheme.read_mask & (lay.disk_mask(0) | lay.disk_mask(4)) == 0

    def test_progress_reduces_reads(self, rdp7):
        """The more of A is already rebuilt, the less the continuation
        reads."""
        totals = []
        for done in ([], [0, 1], [0, 1, 2, 3]):
            scheme = escalated_scheme(rdp7, 0, done, 3)
            totals.append(scheme.total_reads)
        assert totals[0] >= totals[1] >= totals[2]
        assert totals[2] < totals[0]

    def test_no_progress_matches_plain_double_failure(self, rdp7):
        plain = recover_failure(
            rdp7, rdp7.layout.disk_mask(0) | rdp7.layout.disk_mask(3),
            algorithm="u",
        )
        escalated = escalated_scheme(rdp7, 0, [], 3)
        assert escalated.max_load == plain.max_load
        assert escalated.total_reads == plain.total_reads

    def test_validation(self, rdp7):
        with pytest.raises(ValueError, match="differ"):
            escalated_scheme(rdp7, 0, [], 0)
        with pytest.raises(ValueError, match="out of range"):
            escalated_scheme(rdp7, 0, [99], 1)

    def test_beyond_tolerance_rejected(self):
        code = RdpCode(5)
        with pytest.raises(UnrecoverableError):
            # pretend a third disk also failed by planning against a
            # secondary when the primary mask is already two disks wide —
            # simplest: RAID-6 with primary==two disks is not expressible,
            # so use a 1-fault code instead
            from repro.codes import Raid4Code

            escalated_scheme(Raid4Code(4, 4), 0, [], 1)


class TestExecution:
    def test_byte_exact_continuation(self, rdp7, stripe):
        lay = rdp7.layout
        done_rows = [0, 2, 5]
        scheme = escalated_scheme(rdp7, 0, done_rows, 4)
        in_memory = {
            lay.eid(0, r): stripe[lay.eid(0, r)].copy() for r in done_rows
        }
        out = execute_escalated(scheme, stripe, in_memory)
        for f in scheme.failed_eids:
            assert np.array_equal(out[f], stripe[f])

    def test_missing_memory_raises(self, rdp7, stripe):
        scheme = escalated_scheme(rdp7, 0, [1], 4)
        with pytest.raises(KeyError, match="in-memory"):
            execute_escalated(scheme, stripe, {})

    def test_out_of_order_sentinel_dependency(self, rdp7, stripe):
        """Slots are resolved by dependency, not list position.

        Reverse a real escalated plan so the sentinel slots other equations
        lean on come *last* — a list-order executor KeyErrors on the first
        equation referencing a not-yet-materialised sentinel."""
        lay = rdp7.layout
        done_rows = [0, 1, 2]
        scheme = escalated_scheme(rdp7, 0, done_rows, 4)
        sentinels = {lay.eid(0, r) for r in done_rows}
        sentinel_mask = 0
        for e in sentinels:
            sentinel_mask |= 1 << e
        # the plan genuinely leans on a sentinel from a non-sentinel slot
        assert any(
            eq & sentinel_mask and f not in sentinels
            for f, eq in zip(scheme.failed_eids, scheme.equations)
        )
        shuffled = dataclasses.replace(
            scheme,
            failed_eids=list(reversed(scheme.failed_eids)),
            equations=list(reversed(scheme.equations)),
        )
        in_memory = {e: stripe[e].copy() for e in sentinels}
        out = execute_escalated(shuffled, stripe, in_memory)
        for f in scheme.failed_eids:
            assert np.array_equal(out[f], stripe[f])

    def test_unresolvable_plan_names_the_stuck_elements(self, rdp7, stripe):
        """Two slots waiting on each other is a planning bug; the executor
        reports which elements are stuck instead of a bare KeyError."""
        lay = rdp7.layout
        a, b = lay.eid(0, 0), lay.eid(0, 1)
        surv = 1 << lay.eid(1, 0)
        circular = RecoveryScheme(
            layout=lay,
            failed_mask=(1 << a) | (1 << b),
            failed_eids=[a, b],
            equations=[(1 << a) | (1 << b) | surv,
                       (1 << b) | (1 << a) | surv],
            read_mask=surv,
            algorithm="test",
        )
        with pytest.raises(ValueError, match="not executable") as exc:
            execute_escalated(circular, stripe, {})
        assert str(a) in str(exc.value) and str(b) in str(exc.value)

    def test_star_triple_escalation(self):
        """STAR mid-rebuild of one disk survives two more failures."""
        code = StarCode(5)
        lay = code.layout
        codec = StripeCodec(code, element_size=32)
        stripe = codec.encode(codec.random_data(np.random.default_rng(23)))
        # disk 0 partially rebuilt, disk 2 fails; then plan again with 2's
        # situation when disk 4 also fails is out of scope here — single
        # escalation step:
        scheme = escalated_scheme(code, 0, [0, 1], 2)
        in_memory = {lay.eid(0, r): stripe[lay.eid(0, r)].copy() for r in (0, 1)}
        out = execute_escalated(scheme, stripe, in_memory)
        for f in scheme.failed_eids:
            assert np.array_equal(out[f], stripe[f])


class TestExecutionPurePython(TestExecution):
    """The same cases on the numpy fold, without the C kernel."""

    @pytest.fixture(autouse=True)
    def _pure_python(self):
        with leg_context("pure"):
            yield


@pytest.mark.parametrize("leg", LEGS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_escalations_in_random_slot_order(leg, data):
    """Any primary/secondary pair, any rebuilt rows, any slot order:
    the continuation reproduces the pristine stripe byte for byte, on
    both legs."""
    family, n_disks = data.draw(
        st.sampled_from([("rdp", 8), ("evenodd", 7), ("star", 8)]),
        label="code",
    )
    code = make_code(family, n_disks)
    lay = code.layout
    primary = data.draw(st.integers(0, lay.n_disks - 1), label="primary")
    secondary = data.draw(
        st.integers(0, lay.n_disks - 1).filter(lambda d: d != primary),
        label="secondary",
    )
    done_rows = data.draw(
        st.sets(st.integers(0, lay.k_rows - 1)), label="done_rows"
    )
    scheme = escalated_scheme(code, primary, done_rows, secondary)
    order = data.draw(
        st.permutations(range(len(scheme.failed_eids))), label="order"
    )
    shuffled = dataclasses.replace(
        scheme,
        failed_eids=[scheme.failed_eids[i] for i in order],
        equations=[scheme.equations[i] for i in order],
    )
    codec = StripeCodec(code, element_size=16)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    stripe = codec.encode(codec.random_data(np.random.default_rng(seed)))
    in_memory = {
        lay.eid(primary, r): stripe[lay.eid(primary, r)].copy()
        for r in done_rows
    }
    with leg_context(leg):
        out = execute_escalated(shuffled, stripe, in_memory)
    assert sorted(out) == sorted(scheme.failed_eids)
    for f in scheme.failed_eids:
        assert np.array_equal(out[f], stripe[f])
