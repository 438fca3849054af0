"""Tests for the scheme planner / cache."""

import pytest

from repro.codes import RdpCode
from repro.recovery import RecoveryPlanner


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
        planner = RecoveryPlanner(code, algorithm="c")
        original = planner.all_data_disk_schemes()
        path = tmp_path / "plans.json"
        planner.save(path)

        fresh = RecoveryPlanner(code, algorithm="c")
        assert fresh.load(path) == len(original)
        for d in code.layout.data_disks:
            a, b = original[d], fresh.scheme_for_disk(d)
            assert a.read_mask == b.read_mask
            assert a.equations == b.equations

    def test_load_rejects_algorithm_mismatch(self, code, tmp_path):
        planner = RecoveryPlanner(code, algorithm="c")
        planner.scheme_for_disk(0)
        path = tmp_path / "plans.json"
        planner.save(path)
        other = RecoveryPlanner(code, algorithm="u")
        with pytest.raises(ValueError, match="algorithm"):
            other.load(path)

    def test_load_rejects_code_mismatch(self, code, tmp_path):
        """A plan file saved for one code must not load into a planner for
        a different geometry — the schemes would silently be wrong."""
        planner = RecoveryPlanner(code, algorithm="u")
        planner.scheme_for_disk(0)
        path = tmp_path / "plans.json"
        planner.save(path)

        other_code = RdpCode(7)
        other = RecoveryPlanner(other_code, algorithm="u")
        with pytest.raises(ValueError) as exc:
            other.load(path)
        # the error names both geometries
        assert code.describe() in str(exc.value)
        assert other_code.describe() in str(exc.value)

    def test_load_rejects_different_family_same_width(self, tmp_path):
        from repro.codes import EvenOddCode

        a = RecoveryPlanner(RdpCode(7), algorithm="u")
        a.scheme_for_disk(0)
        path = tmp_path / "plans.json"
        a.save(path)
        b = RecoveryPlanner(EvenOddCode(7), algorithm="u")
        with pytest.raises(ValueError, match="code"):
            b.load(path)

    def test_load_rejects_depth_mismatch(self, code, tmp_path):
        planner = RecoveryPlanner(code, algorithm="u", depth=1)
        planner.scheme_for_disk(0)
        path = tmp_path / "plans.json"
        planner.save(path)
        other = RecoveryPlanner(code, algorithm="u", depth=2)
        with pytest.raises(ValueError) as exc:
            other.load(path)
        assert "depth 1" in str(exc.value) and "depth 2" in str(exc.value)

    def test_load_accepts_legacy_payload_without_geometry(self, code, tmp_path):
        """Plan files from before the code/depth stamps still load."""
        import json

        planner = RecoveryPlanner(code, algorithm="u")
        planner.scheme_for_disk(0)
        path = tmp_path / "plans.json"
        planner.save(path)
        payload = json.loads(path.read_text())
        del payload["code"], payload["depth"]
        path.write_text(json.dumps(payload))
        fresh = RecoveryPlanner(code, algorithm="u")
        assert fresh.load(path) == 1

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
        planner = RecoveryPlanner(code, algorithm="u")
        planner.all_data_disk_schemes()
        path = tmp_path / "plans.json"
        planner.save(path)
        fresh = RecoveryPlanner(code, algorithm="u")
        fresh.load(path)
        for d in code.layout.data_disks:
            fresh.scheme_for_disk(d).validate(code)
