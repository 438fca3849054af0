"""Rebuild-engine correctness: every path byte-identical to the legacy
per-stripe rebuild, reads accounting preserved, failures surfaced."""

import numpy as np
import pytest

from repro.codec import ArrayImageCodec, BatchReconstructor
from repro.codes import make_code
from repro.pipeline import RebuildPipeline
from repro.recovery import RecoveryPlanner, SchemePlanCache

from tests.doctored import (
    FixedPlanner,
    scheme_misstating_loads,
    scheme_reading_dead_row,
)


def build_image(family="rdp", n_disks=7, element_size=32, n_stripes=23, seed=1):
    code = make_code(family, n_disks)
    codec = ArrayImageCodec(code, element_size=element_size, n_stripes=n_stripes)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(seed)))
    return codec, disks


class TestInlinePaths:
    @pytest.mark.parametrize("family,n", [("rdp", 7), ("evenodd", 7),
                                          ("liberation", 7), ("cauchy_rs", 8)])
    def test_inline_batch_matches_original(self, family, n):
        codec, disks = build_image(family, n)
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=4)
        for failed in range(codec.code.layout.n_disks):
            result = pipe.rebuild(disks, failed)
            assert np.array_equal(result.image, disks[failed]), failed

    def test_matches_legacy_recover_disk(self):
        codec, disks = build_image()
        legacy = codec.recover_disk(disks, 2)
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=5)
        result = pipe.rebuild(disks, 2)
        assert np.array_equal(result.image, legacy["image"])
        assert result.reads_per_disk.tolist() == legacy["reads_per_disk"]

    def test_chunk_size_one(self):
        codec, disks = build_image(n_stripes=9)
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=1)
        result = pipe.rebuild(disks, 0)
        assert np.array_equal(result.image, disks[0])

    def test_failed_disk_rows_never_read(self):
        codec, disks = build_image()
        trashed = disks.copy()
        trashed[3] = 0xAB  # simulate a genuinely dead disk
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=4)
        result = pipe.rebuild(trashed, 3)
        assert np.array_equal(result.image, disks[3])

    def test_patch_writes_back_in_place(self):
        codec, disks = build_image()
        trashed = disks.copy()
        trashed[1] = 0
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=4)
        pipe.rebuild(trashed, 1, patch=True)
        assert np.array_equal(trashed[1], disks[1])

    def test_stats_shape(self):
        codec, disks = build_image()
        result = RebuildPipeline(codec, workers=1).rebuild(disks, 0)
        stats = result.stats
        assert stats["mode"] == "inline-batch"
        assert stats["affected_stripes"] == codec.n_stripes
        assert stats["rebuilt_bytes"] == result.image.nbytes
        assert stats["rebuilt_mb_s"] > 0
        assert result.mb_per_s == stats["rebuilt_mb_s"]

    def test_rejects_bad_geometry(self):
        codec, disks = build_image()
        pipe = RebuildPipeline(codec, workers=1)
        with pytest.raises(IndexError):
            pipe.rebuild(disks, 99)
        with pytest.raises(ValueError):
            pipe.rebuild(disks[:, :-1], 0)
        with pytest.raises(ValueError, match="dtype"):
            pipe.rebuild(disks.astype(np.uint16), 0)
        with pytest.raises(ValueError):
            RebuildPipeline(codec, workers=-1)
        with pytest.raises(ValueError):
            RebuildPipeline(codec, chunk_stripes=0)


class TestParallelPipeline:
    """Real threaded runs on small data (failure paths: test_threads.py)."""

    def test_parallel_matches_original(self):
        codec, disks = build_image(element_size=64, n_stripes=29)
        pipe = RebuildPipeline(codec, workers=2, chunk_stripes=3)
        result = pipe.rebuild(disks, 5)
        assert result.stats["mode"] == "pipeline"
        assert np.array_equal(result.image, disks[5])

    def test_parallel_matches_inline_everywhere(self):
        codec, disks = build_image(element_size=16, n_stripes=17)
        par = RebuildPipeline(codec, workers=2, chunk_stripes=2)
        seq = RebuildPipeline(codec, workers=1, chunk_stripes=2)
        for failed in (0, 3, 6):
            a = par.rebuild(disks, failed)
            b = seq.rebuild(disks, failed)
            assert np.array_equal(a.image, b.image)
            assert np.array_equal(a.reads_per_disk, b.reads_per_disk)

    def test_single_chunk_falls_back_inline(self):
        # < 2 chunks cannot pipeline; must degrade, not hang
        codec, disks = build_image(n_stripes=1)
        pipe = RebuildPipeline(codec, workers=4, chunk_stripes=8)
        result = pipe.rebuild(disks, 0)
        assert result.stats["mode"] == "inline-batch"
        assert np.array_equal(result.image, disks[0])

    def test_worker_failure_surfaces(self, monkeypatch):
        codec, disks = build_image(element_size=16, n_stripes=21)
        pipe = RebuildPipeline(codec, workers=2, chunk_stripes=2)

        def broken(self, stripes, out, stripe_ids=None, **kwargs):
            raise ValueError("poisoned plan")

        # patched on the class, so the worker threads run it too
        monkeypatch.setattr(BatchReconstructor, "recover_batch_into", broken)
        with pytest.raises(RuntimeError, match="pipeline worker .*poisoned plan"):
            pipe.rebuild(disks, 0)


class TestDeadRoleGuard:
    """Survivors are read in place, where the dead role's rows are still
    addressable: a plan that reads one, or misstates its loads, is refused
    before any chunk runs, inline and pipelined alike."""

    ROLE = 2

    def _engine(self, codec, doctored, workers):
        planner = FixedPlanner(codec.code, self.ROLE, doctored)
        return RebuildPipeline(codec, workers=workers, chunk_stripes=4,
                               planner=planner)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_equation_reading_a_dead_row_raises(self, workers):
        codec, disks = build_image()
        real = RecoveryPlanner(codec.code, "u", depth=1).scheme_for_disk(self.ROLE)
        doctored, dead_row = scheme_reading_dead_row(real, self.ROLE)
        with pytest.raises(
            ValueError, match=f"role {self.ROLE} reads element {dead_row} "
        ):
            self._engine(codec, doctored, workers).rebuild(disks, 0)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_loads_disagreeing_with_the_plan_raise(self, workers):
        codec, disks = build_image()
        real = RecoveryPlanner(codec.code, "u", depth=1).scheme_for_disk(self.ROLE)
        doctored, logical = scheme_misstating_loads(real)
        with pytest.raises(
            ValueError, match=f"role {self.ROLE} reads .* logical disk {logical}"
        ):
            self._engine(codec, doctored, workers).rebuild(disks, 0)

    def test_plans_are_compiled_once_per_engine(self):
        codec, disks = build_image()
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=4)
        pipe.rebuild(disks, 0)
        n_plans = len(pipe._plans)
        assert n_plans == codec.code.layout.n_disks
        pipe.rebuild(disks, 3)
        assert len(pipe._plans) == n_plans


class TestInPassVerification:
    """Every rebuilt stripe is compared with the failed disk's stored rows
    in the kernel pass that writes it; ``mismatches`` counts stripes."""

    def test_intact_image_verifies_clean(self):
        codec, disks = build_image()
        result = RebuildPipeline(codec, workers=1, chunk_stripes=4).rebuild(disks, 4)
        assert result.ok and result.mismatches == 0

    def test_flipped_survivor_byte_is_one_stripe(self):
        codec, disks = build_image()
        lay = codec.code.layout
        planner = RecoveryPlanner(codec.code, "u", depth=1)
        # stripe 0 has rotation 0: the failed disk plays its own role
        scheme = planner.scheme_for_disk(2)
        ldisk, row = next(iter(lay.iter_elements(scheme.read_mask)))
        disks[ldisk, row, 0] ^= 0xFF
        pipe = RebuildPipeline(codec, workers=1, chunk_stripes=4, planner=planner)
        assert pipe.rebuild(disks, 2).mismatches == 1

    def test_dead_disk_garbage_counts_every_stripe(self):
        codec, disks = build_image()
        trashed = disks.copy()
        trashed[3] = 0xAB
        result = RebuildPipeline(codec, workers=2, chunk_stripes=4).rebuild(trashed, 3)
        assert np.array_equal(result.image, disks[3])
        assert result.mismatches == codec.n_stripes


class TestConvenienceAndPlanCache:
    def test_rebuild_disk_wrapper(self):
        # the one-call form: construct and rebuild in one expression
        codec, disks = build_image()
        result = RebuildPipeline(codec, workers=1, chunk_stripes=4).rebuild(disks, 1)
        assert np.array_equal(result.image, disks[1])

    def test_plan_cache_round_trip(self, tmp_path):
        store = tmp_path / "plans.json"
        codec, disks = build_image()
        r1 = RebuildPipeline(
            codec, workers=1, plan_cache=SchemePlanCache(store)
        ).rebuild(disks, 2)
        cache2 = SchemePlanCache(store)
        r2 = RebuildPipeline(codec, workers=1, plan_cache=cache2).rebuild(disks, 2)
        assert np.array_equal(r1.image, r2.image)
        assert cache2.misses == 0 and cache2.hits > 0
        assert r2.stats["plan_cache"]["hits"] == cache2.hits

    def test_reuses_supplied_planner(self):
        codec, disks = build_image()
        planner = RecoveryPlanner(codec.code, algorithm="u", depth=1)
        planner.all_disk_schemes()
        pipe = RebuildPipeline(codec, workers=1, planner=planner)
        result = pipe.rebuild(disks, 0)
        assert np.array_equal(result.image, disks[0])
