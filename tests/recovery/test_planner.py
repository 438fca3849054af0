"""Tests for the scheme planner / cache."""

import pytest

from repro import obs
from repro.codes import RdpCode
from repro.recovery import RecoveryPlanner, SchemePlanCache
from repro.recovery.ualgorithm import u_scheme


@pytest.fixture
def code():
    return RdpCode(5)


class TestPlanner:
    def test_caches_schemes(self, code):
        planner = RecoveryPlanner(code, algorithm="u")
        a = planner.scheme_for_disk(0)
        b = planner.scheme_for_disk(0)
        assert a is b

    def test_all_data_disk_schemes(self, code):
        planner = RecoveryPlanner(code, algorithm="khan")
        schemes = planner.all_data_disk_schemes()
        assert len(schemes) == code.layout.n_data
        for d, s in enumerate(schemes):
            assert s.failed_mask == code.layout.disk_mask(d)

    def test_all_disk_schemes_includes_parity(self, code):
        planner = RecoveryPlanner(code, algorithm="naive")
        schemes = planner.all_disk_schemes()
        assert len(schemes) == code.layout.n_disks

    def test_unknown_algorithm(self, code):
        with pytest.raises(ValueError):
            RecoveryPlanner(code, algorithm="bogus")

    def test_save_load_roundtrip(self, code, tmp_path):
        path = tmp_path / "plans.json"
        planner = RecoveryPlanner(
            code, algorithm="c", plan_cache=SchemePlanCache(path)
        )
        original = planner.all_data_disk_schemes()

        store = SchemePlanCache(path)
        fresh = RecoveryPlanner(code, algorithm="c", plan_cache=store)
        for d in code.layout.data_disks:
            a, b = original[d], fresh.scheme_for_disk(d)
            assert a.read_mask == b.read_mask
            assert a.equations == b.equations
        assert store.hits == len(original) and store.misses == 0

    @staticmethod
    def _stored_then_fresh(path, stored, other, disk=0):
        """Store ``stored``'s scheme for ``disk``; plan ``other`` over the
        same store.  Returns ``other``'s scheme and its search count."""
        stored.plan_cache = SchemePlanCache(path)
        stored.scheme_for_disk(disk)
        other.plan_cache = SchemePlanCache(path)
        assert other.plan_cache.stats()["disk_entries"] == 1
        rec = obs.enable("fresh")
        try:
            scheme = other.scheme_for_disk(disk)
        finally:
            obs.disable()
        assert other.plan_cache.hits == 0
        assert scheme.metadata.get("plan_cache") != "hit"
        return scheme, rec.counters["planner.schemes_generated"].value

    def test_load_rejects_algorithm_mismatch(self, code, tmp_path):
        """A planner over a store holding another algorithm's scheme plans
        its own, never the stored one."""
        other = RecoveryPlanner(code, algorithm="u")
        scheme, searched = self._stored_then_fresh(
            tmp_path / "plans.json", RecoveryPlanner(code, algorithm="c"), other
        )
        assert searched == 1
        assert scheme.algorithm == "u"
        assert scheme.equations == u_scheme(code, 0, depth=2).equations

    def test_load_rejects_code_mismatch(self, code, tmp_path):
        """A scheme stored for one code must never serve a planner for a
        different geometry — it would silently be wrong."""
        other_code = RdpCode(7)
        other = RecoveryPlanner(other_code, algorithm="u")
        scheme, searched = self._stored_then_fresh(
            tmp_path / "plans.json", RecoveryPlanner(code, algorithm="u"), other
        )
        assert searched == 1
        assert scheme.layout == other_code.layout
        scheme.validate(other_code)

    def test_load_rejects_different_family_same_width(self, tmp_path):
        from repro.codes import EvenOddCode

        b_code = EvenOddCode(7)
        scheme, searched = self._stored_then_fresh(
            tmp_path / "plans.json",
            RecoveryPlanner(RdpCode(7), algorithm="u"),
            RecoveryPlanner(b_code, algorithm="u"),
        )
        assert searched == 1
        assert scheme.equations == u_scheme(b_code, 0, depth=2).equations
        scheme.validate(b_code)

    def test_load_rejects_depth_mismatch(self, code, tmp_path):
        scheme, searched = self._stored_then_fresh(
            tmp_path / "plans.json",
            RecoveryPlanner(code, algorithm="u", depth=1),
            RecoveryPlanner(code, algorithm="u", depth=2),
        )
        assert searched == 1
        assert scheme.equations == u_scheme(code, 0, depth=2).equations

    def test_parallel_generation_matches_sequential(self, code, threaded_runner):
        seq = RecoveryPlanner(code, algorithm="u", depth=1)
        par = RecoveryPlanner(code, algorithm="u", depth=1)
        a = [seq.scheme_for_disk(d) for d in range(code.layout.n_disks)]
        b = par.all_disk_schemes()
        assert [s.read_mask for s in a] == [s.read_mask for s in b]
        assert [s.equations for s in a] == [s.equations for s in b]

    def test_parallel_single_worker_fallback(self, code, monkeypatch):
        """A one-CPU runner plans inline, with the same schemes."""
        from repro.recovery import planner as planner_mod
        from repro.runner import ChunkRunner

        monkeypatch.setattr(
            planner_mod, "_RUNNER", ChunkRunner(1, "planner", per_worker=None)
        )
        planner = RecoveryPlanner(code, algorithm="khan", depth=1)
        schemes = planner.all_data_disk_schemes()
        assert len(schemes) == code.layout.n_data
        ref = RecoveryPlanner(code, algorithm="khan", depth=1)
        assert [s.equations for s in schemes] == [
            ref.scheme_for_disk(d).equations for d in code.layout.data_disks
        ]

    def test_parallel_caps_workers_at_todo(self, code, threaded_runner):
        """Only the uncached disks are searched — one left means one
        search, run inline — and the run still completes correctly."""
        from repro import obs

        planner = RecoveryPlanner(code, algorithm="u", depth=1)
        # pre-fill all but one disk so todo == 1
        for d in range(code.layout.n_disks - 1):
            planner.scheme_for_disk(d)
        rec = obs.enable("caps")
        try:
            schemes = planner.all_disk_schemes()
        finally:
            obs.disable()
        assert len(schemes) == code.layout.n_disks
        assert rec.counters["planner.schemes_generated"].value == 1

    def test_worker_failure_names_the_disk(self, threaded_runner, monkeypatch):
        """A search failing on a kernel thread raises RuntimeError naming
        its disk, and the planner stays usable afterwards."""
        from repro.recovery import planner as planner_mod

        code = RdpCode(7)
        real = planner_mod.u_scheme

        def boom(code_, disk, **kw):
            if disk == 3:
                raise ValueError("search exploded")
            return real(code_, disk, **kw)

        planner = RecoveryPlanner(code, algorithm="u", depth=1)
        monkeypatch.setattr(planner_mod, "u_scheme", boom)
        with pytest.raises(RuntimeError, match="disk 3") as exc:
            planner.all_disk_schemes()
        assert "search exploded" in str(exc.value)
        assert 3 not in planner._cache
        monkeypatch.setattr(planner_mod, "u_scheme", real)
        schemes = planner.all_disk_schemes()
        assert [s.failed_mask for s in schemes] == [
            code.layout.disk_mask(d) for d in range(code.layout.n_disks)
        ]

    def test_loaded_schemes_validate(self, code, tmp_path):
        path = tmp_path / "plans.json"
        RecoveryPlanner(
            code, algorithm="u", plan_cache=SchemePlanCache(path)
        ).all_data_disk_schemes()
        store = SchemePlanCache(path)
        fresh = RecoveryPlanner(code, algorithm="u", plan_cache=store)
        for d in code.layout.data_disks:
            fresh.scheme_for_disk(d).validate(code)
        assert store.hits == code.layout.n_data
