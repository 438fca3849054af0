"""Property suite: served degraded reads are byte-identical to direct
plan execution and to the pristine encoding, on both sides of the
rebuild frontier."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codec import ArrayImageCodec, execute_scheme
from repro.codes import CauchyRSCode, EvenOddCode, RdpCode
from repro.pipeline.engine import RebuildPipeline
from repro.recovery import degraded_read_scheme
from repro.serving import ShardServer

small_codes = st.sampled_from(
    [RdpCode(5), RdpCode(7), EvenOddCode(5), CauchyRSCode(4, 2, w=4)]
)

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def build_server(code, failed_disk, n_stripes=3, seed=5):
    """(codec, pristine copy, patch map, ShardServer over every stripe)."""
    codec = ArrayImageCodec(code, element_size=8, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    patched = np.zeros(
        (n_stripes * code.layout.k_rows, codec.element_size), dtype=np.uint8
    )
    server = ShardServer(codec, disks, patched, failed_disk, 0, n_stripes)
    return codec, disks.copy(), patched, server


@given(code=small_codes, data=st.data())
@settings(**SETTINGS)
def test_engine_matches_pristine_and_direct_plan(code, data):
    """server.read == pristine bytes == execute_scheme of a dedicated
    degraded-read scheme, for every element of the failed disk."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    row = data.draw(st.integers(0, lay.k_rows - 1), label="row")
    stripe_i = data.draw(st.integers(0, 2), label="stripe")
    codec, original, _, server = build_server(code, failed)

    global_row = stripe_i * lay.k_rows + row
    served = server.read(failed, global_row)
    assert np.array_equal(served, original[failed, global_row])
    assert server.n_degraded == 1 and server.mismatches == 0

    # direct execution of a dedicated (non-sliced) degraded-read scheme
    # over the same stripe must agree byte-for-byte
    stripes, roles = codec.placement.roles_of_disk(failed)
    logical = int(roles[stripes == stripe_i][0])
    scheme = degraded_read_scheme(code, logical, rows=[row], algorithm="u")
    stripe = codec.logical_stripes(original, [stripe_i])[0]
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
    """One batch of reads (repeats included) across stripes and rows is
    grouped by (role, row) and answers every request byte-exactly."""
    lay = code.layout
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    rows = data.draw(
        st.lists(
            st.integers(0, 3 * lay.k_rows - 1), min_size=2, max_size=3 * lay.k_rows
        ),
        label="rows",
    )
    codec, original, _, server = build_server(code, failed)
    rows = np.asarray(rows, dtype=np.int64)
    _, got = server._serve_batch(
        np.full(len(rows), failed, dtype=np.int64), rows, want_data=True
    )
    for t, row in enumerate(rows):
        assert np.array_equal(got[t], original[failed, row]), row
    assert server.n_batches == 1
    assert server.mismatches == 0


@given(code=small_codes, data=st.data())
@settings(max_examples=5, deadline=None)
def test_reads_racing_the_rebuild_frontier(code, data):
    """Reads served between rebuild chunks are byte-exact whichever side
    of the frontier (degraded before ``note_rebuilt``, patched after)
    they land on."""
    lay = code.layout
    k = lay.k_rows
    failed = data.draw(st.integers(0, lay.n_disks - 1), label="failed_disk")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    codec, original, patched, server = build_server(
        code, failed, n_stripes=8, seed=seed
    )
    rng = np.random.default_rng(seed)
    total_rows = codec.n_stripes * k

    def reads():
        rows = rng.integers(0, total_rows, size=8)
        disks = np.where(rng.random(8) < 0.8, failed, rng.integers(0, lay.n_disks, 8))
        _, got = server._serve_batch(disks, rows, want_data=True)
        assert np.array_equal(got, original[disks, rows])

    def on_chunk(chunk, rows):
        reads()
        row_idx = (chunk.stripe_ids[:, None] * k + np.arange(k)).reshape(-1)
        patched[row_idx] = rows.reshape(-1, codec.element_size)
        server.note_rebuilt(chunk.stripe_ids)

    pipe = RebuildPipeline(codec, workers=0, chunk_stripes=2, on_chunk=on_chunk)
    result = pipe.rebuild(original.copy(), failed)
    reads()
    assert server.mismatches == 0
    assert np.array_equal(result.image, original[failed])
    # every stripe is behind the frontier now: the failed disk is patched
    before = server.n_patched
    for row in range(total_rows):
        assert np.array_equal(server.read(failed, row), original[failed, row])
    assert server.n_patched == before + total_rows
