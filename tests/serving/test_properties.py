"""Property suite: served degraded reads are byte-identical to direct
plan execution and to the pristine encoding, including reads racing the
rebuild frontier."""

import threading

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec import ArrayImageCodec, execute_scheme
from repro.codes import CauchyRSCode, EvenOddCode, RdpCode
from repro.recovery import degraded_read_scheme
from repro.serving import ServingEngine

small_codes = st.sampled_from(
    [RdpCode(5), RdpCode(7), EvenOddCode(5), CauchyRSCode(4, 2, w=4)]
)

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def build_engine(code, failed_disk, n_stripes=3, seed=5, **kw):
    codec = ArrayImageCodec(code, element_size=8, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks.copy(), ServingEngine(codec, disks, failed_disk, **kw)


@given(code=small_codes, data=st.data())
@settings(**SETTINGS)
def test_engine_matches_pristine_and_direct_plan(code, data):
    """engine.read == pristine bytes == execute_scheme of a dedicated
    degraded-read scheme, for every element of the failed disk."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    row = data.draw(st.integers(0, lay.k_rows - 1), label="row")
    stripe_i = data.draw(st.integers(0, 2), label="stripe")
    codec, original, engine = build_engine(code, failed)

    global_row = stripe_i * lay.k_rows + row
    served = engine.read(failed, global_row)
    assert np.array_equal(served, original[failed, global_row])

    # direct execution of a dedicated (non-sliced) degraded-read scheme
    # over the same stripe must agree byte-for-byte
    logical = codec.logical_role(failed, stripe_i)
    scheme = degraded_read_scheme(code, logical, rows=[row], algorithm="u")
    stripe = codec._logical_stripe(original, stripe_i)
    masked = stripe.copy()
    for _, lrow in lay.iter_elements(lay.disk_mask(logical)):
        masked[lay.eid(logical, lrow)] = 0
    out = execute_scheme(scheme, masked)
    eid = lay.eid(logical, row)
    assert np.array_equal(out[eid], stripe[eid])
    assert np.array_equal(served, stripe[eid])


@given(code=small_codes, data=st.data())
@settings(max_examples=5, deadline=None)
def test_coalesced_multi_row_reads_match_pristine(code, data):
    """A multi-row sliced plan (the coalesced-flight path) answers every
    row byte-exactly."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    rows = data.draw(
        st.sets(st.integers(0, lay.k_rows - 1), min_size=2, max_size=lay.k_rows),
        label="rows",
    )
    codec, original, engine = build_engine(code, failed)
    got = engine._reconstruct_rows(0, sorted(rows))
    for row in rows:
        assert np.array_equal(got[row], original[failed, row]), row


@given(code=small_codes, data=st.data())
@settings(max_examples=5, deadline=None)
def test_reads_racing_the_rebuild_frontier(code, data):
    """Concurrent reads issued while the rebuild frontier advances are
    byte-exact regardless of which side of the frontier they land on."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    codec, original, engine = build_engine(code, failed, n_stripes=8, seed=seed)
    total_rows = codec.n_stripes * lay.k_rows
    mismatches = []

    def reader(rseed):
        rng = np.random.default_rng(rseed)
        while not engine.rebuild_done.is_set():
            row = int(rng.integers(total_rows))
            if not np.array_equal(engine.read(failed, row), original[failed, row]):
                mismatches.append(row)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    engine.start_rebuild(chunk_stripes=2)
    assert engine.wait_rebuild(timeout=60.0)
    for t in threads:
        t.join(timeout=30.0)
    assert not mismatches
    assert np.array_equal(engine.rebuild_result.image, original[failed])
