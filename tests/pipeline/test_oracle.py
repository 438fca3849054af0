"""Cross-engine oracle: a rotated array is a one-group flat pool.

An array image goes through :class:`RebuildPipeline`; the same stripes,
copied stripe-major into a :class:`PoolStore` under
``FlatPlacement(n_pool=w)``, go through :class:`PoolRebuild`.  Both must
give identical rows, billing, mismatch counts and chunk sequences, and
both must match the per-stripe oracle
(:meth:`ArrayImageCodec.recover_disk`), on both kernel legs, inline and
threaded.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import ArrayImageCodec
from repro.codes import make_code
from repro.pipeline import PoolRebuild, RebuildPipeline
from repro.placement import FlatPlacement, PoolStore
from repro.recovery import RecoveryPlanner

from tests.legs import LEGS, leg_context

#: family -> widths drawn (star needs three parity disks)
FAMILIES = {"rdp": (5, 9), "evenodd": (5, 9), "liberation": (5, 9), "star": (6, 9)}

_PLANNED = {}


def code_and_planner(family, n_disks):
    """One code and planner per geometry, shared by every example."""
    key = (family, n_disks)
    if key not in _PLANNED:
        code = make_code(family, n_disks)
        _PLANNED[key] = code, RecoveryPlanner(code, "u", depth=1)
    return _PLANNED[key]


@st.composite
def array_case(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n_disks = draw(st.integers(*FAMILIES[family]))
    return {
        "family": family,
        "n_disks": n_disks,
        "n_stripes": draw(st.integers(1, 40)),
        "element_size": draw(st.sampled_from([1, 8, 24])),
        "chunk": draw(st.integers(1, 9)),
        "workers": draw(st.sampled_from([0, 2])),
        "failed": draw(st.integers(0, n_disks - 1)),
        # corrupt one stored byte so the mismatch counts are compared too
        "flip": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def stripe_major(codec, disks):
    """The image's stripes in logical element order, ``(NS, n*k, esz)``."""
    n, k = codec.code.layout.n_disks, codec.code.layout.k_rows
    ns, esz = codec.n_stripes, codec.element_size
    s = np.arange(ns)
    physical = (np.arange(n)[None, :] + s[:, None]) % n  # logical l of stripe s
    disks4 = disks.reshape(n, ns, k, esz)
    return np.ascontiguousarray(
        disks4[physical, s[:, None]].reshape(ns, n * k, esz)
    )


def chunk_sequence(chunks):
    return [(c.chunk_id, c.role, c.stripe_ids.tolist()) for c in chunks]


@pytest.mark.parametrize("leg", LEGS)
@settings(max_examples=40, deadline=None)
@given(case=array_case())
def test_array_rebuild_is_the_flat_pool_rebuild(leg, case):
    code, planner = code_and_planner(case["family"], case["n_disks"])
    n, ns, failed = code.layout.n_disks, case["n_stripes"], case["failed"]
    codec = ArrayImageCodec(code, element_size=case["element_size"],
                            n_stripes=ns)
    rng = np.random.default_rng(case["seed"])
    disks = codec.encode_image(codec.random_image(rng))
    if case["flip"]:
        disks[rng.integers(n), rng.integers(disks.shape[1]), 0] ^= 0xFF
    store = PoolStore(code, FlatPlacement(n, ns, n),
                      element_size=case["element_size"])
    store.stripes = stripe_major(codec, disks)
    array_chunks, pool_chunks = [], []

    with leg_context(leg):
        got = RebuildPipeline(
            codec, workers=case["workers"], chunk_stripes=case["chunk"],
            planner=planner, throttle=array_chunks.append,
        ).rebuild(disks, failed)
        pool = PoolRebuild(
            store, chunk_stripes=case["chunk"], planner=planner,
            workers=case["workers"], throttle=pool_chunks.append,
        ).rebuild(failed)

    assert np.array_equal(got.stripe_ids, np.arange(ns))
    assert np.array_equal(got.stripe_ids, pool.stripe_ids)
    assert np.array_equal(got.rows, pool.rows)
    assert np.array_equal(got.reads_per_disk, pool.reads_per_disk)
    assert got.mismatches == pool.mismatches
    assert chunk_sequence(array_chunks) == chunk_sequence(pool_chunks)
    assert len(array_chunks) == got.stats["chunks"] == pool.stats["chunks"]

    # and both are the per-stripe oracle: same bytes, same billing, and
    # a mismatch exactly where the rebuilt stripe differs from the image
    legacy = codec.recover_disk(disks, failed, planner)
    assert np.array_equal(got.image, legacy["image"])
    assert got.reads_per_disk.tolist() == legacy["reads_per_disk"]
    differs = legacy["image"].reshape(ns, -1) != disks[failed].reshape(ns, -1)
    assert got.mismatches == int(differs.any(axis=1).sum())
