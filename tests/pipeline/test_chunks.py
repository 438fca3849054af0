"""Chunk cover of the rebuild engine's grouping, on an array and a pool.

A rebuild groups the dead disk's stripes by the logical role it plays
(on a rotated array: its rotation classes) and cuts each group into
chunks; the throttle hook sees every chunk as it is admitted.  On both
entry points: every affected stripe exactly once, one role per chunk, at
most ``chunk_stripes`` stripes per chunk, chunk ids dense in emission
order.
"""

import numpy as np
import pytest

from repro.codec import ArrayImageCodec
from repro.codes import RdpCode, make_code
from repro.pipeline import PoolRebuild, RebuildChunk, RebuildPipeline
from repro.placement import FlatPlacement, PoolStore, make_placement


def array_pipe(n_stripes, chunk_stripes=4, seen=None):
    """An ``rdp``-7 image and a pipeline whose throttle collects chunks."""
    codec = ArrayImageCodec(make_code("rdp", 7), element_size=4,
                            n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(0)))
    pipe = RebuildPipeline(
        codec, workers=0, chunk_stripes=chunk_stripes,
        throttle=None if seen is None else seen.append,
    )
    return codec, disks, pipe


def array_chunks(n_stripes, failed, chunk_stripes):
    """``(chunks, result, role of the failed disk per stripe)``."""
    seen = []
    codec, disks, pipe = array_pipe(n_stripes, chunk_stripes, seen)
    result = pipe.rebuild(disks, failed)
    stripes, roles = codec.placement.roles_of_disk(failed)
    return seen, result, dict(zip(stripes.tolist(), roles.tolist()))


def pool_store(placement=None):
    code = RdpCode(5)
    pm = placement or make_placement("declustered", 20, 150, code.layout.n_disks)
    store = PoolStore(code, pm, element_size=4)
    store.encode_random(np.random.default_rng(0))
    return store


def pool_chunks(dead, chunk_stripes):
    """``(chunks, result, role of the dead disk per affected stripe)``."""
    store = pool_store()
    seen = []
    result = PoolRebuild(store, chunk_stripes=chunk_stripes, workers=0,
                         throttle=seen.append).rebuild(dead)
    stripes, roles = store.placement.roles_of_disk(dead)
    return seen, result, dict(zip(stripes.tolist(), roles.tolist()))


def both(chunk_stripes):
    """The chunks of an array rebuild and of a pool rebuild."""
    return [array_chunks(37, 3, chunk_stripes), pool_chunks(4, chunk_stripes)]


class TestRotationClasses:
    """On an array, the engine's groups are the rotation classes."""

    def test_partition_covers_everything(self):
        _, _, pipe = array_pipe(23)
        groups = list(pipe.stripe_groups(5))
        seen = np.concatenate([ids for _, ids, _ in groups])
        assert sorted(seen.tolist()) == list(range(23))
        assert len(groups) == 7

    def test_members_share_rotation(self):
        _, _, pipe = array_pipe(40)
        for role, ids, _ in pipe.stripe_groups(2):
            assert all(s % 7 == (2 - role) % 7 for s in ids.tolist())

    def test_empty_image(self):
        # a flat pool's spare disk holds no stripe: no group, no chunk
        seen = []
        store = pool_store(FlatPlacement(14, 30, 6))
        engine = PoolRebuild(store, chunk_stripes=4, throttle=seen.append)
        assert list(engine.stripe_groups(13)) == []
        result = engine.rebuild(13)
        assert seen == [] and result.stats["chunks"] == 0
        assert result.rows.shape == (0, store.k_rows, 4) and result.ok

    def test_rejects_bad_args(self):
        codec, disks, pipe = array_pipe(10)
        with pytest.raises(IndexError):
            pipe.rebuild(disks, 7)
        with pytest.raises(ValueError):
            RebuildPipeline(codec, chunk_stripes=0)
        with pytest.raises(ValueError):
            RebuildPipeline(codec, workers=-1)


class TestIterChunks:
    def test_every_stripe_exactly_once(self):
        for chunks, result, roles in both(4):
            seen = [s for c in chunks for s in c.stripe_ids.tolist()]
            assert sorted(seen) == sorted(roles)  # no stripe twice
            assert np.array_equal(result.stripe_ids, sorted(roles))

    def test_chunk_ids_dense_and_ordered(self):
        for chunks, result, _ in both(4):
            assert [c.chunk_id for c in chunks] == list(range(len(chunks)))
            assert len(chunks) == result.stats["chunks"]

    def test_chunks_homogeneous(self):
        for chunks, _, roles in both(3):
            for c in chunks:
                assert isinstance(c, RebuildChunk)
                assert 1 <= c.n_stripes <= 3
                assert np.all(np.diff(c.stripe_ids) > 0)
                # one role, hence one compiled plan, per chunk
                assert {roles[s] for s in c.stripe_ids.tolist()} == {c.role}
                scheme = c.plan.recon.scheme
                k = scheme.layout.k_rows
                assert {e // k for e in scheme.failed_eids} == {c.role}

    def test_chunk_size_one(self):
        for chunks, _, roles in both(1):
            assert all(c.n_stripes == 1 for c in chunks)
            assert len(chunks) == len(roles)

    def test_oversized_chunk_is_one_per_class(self):
        for chunks, _, roles in both(999):
            # one chunk per role the dead disk plays
            assert len(chunks) == len(set(roles.values()))

    def test_rejects_bad_args(self):
        store = pool_store()
        with pytest.raises(ValueError):
            PoolRebuild(store, chunk_stripes=0)
        with pytest.raises(ValueError):
            PoolRebuild(store, workers=-1)
        with pytest.raises(IndexError):
            PoolRebuild(store).rebuild(store.placement.n_pool)
