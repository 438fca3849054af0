"""The compiled kernel must degrade to pure Python without a compiler.

CI runs a ``REPRO_PURE_PYTHON=1`` leg to exercise the interpreter engine;
these tests additionally pin down the *broken-toolchain* path: with
``CC`` pointing at a nonexistent binary and a cold cache, :func:`load`
returns ``None`` quietly, :func:`run` returns ``None`` cleanly, and the
search still produces schemes.  ``REPRO_CKERNEL_DEBUG=1`` turns the
silent skip into a ``RuntimeWarning`` explaining why.
"""

import threading
import warnings

import pytest

from repro.codes import RdpCode
from repro.recovery import ckernel as ck
from repro.recovery import u_scheme


@pytest.fixture
def broken_toolchain(monkeypatch, tmp_path):
    """No compiler, cold cache, fresh load state."""
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_PURE_PYTHON", raising=False)
    monkeypatch.delenv("REPRO_CKERNEL_DEBUG", raising=False)
    monkeypatch.setattr(ck, "_lib", None)
    monkeypatch.setattr(ck, "_load_attempted", False)
    yield
    # do not leak this module-global state into other tests
    ck._lib = None
    ck._load_attempted = False


class TestMissingCompiler:
    def test_load_returns_none(self, broken_toolchain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # silence is part of the contract
            assert ck.load() is None
            assert not ck.available()

    def test_run_returns_none_cleanly(self, broken_toolchain):
        slot_opts = [[(0b110, 0b111)], [(0b011, 0b111), (0b101, 0b111)]]
        assert ck.run(slot_opts, n_disks=3, k_rows=1,
                      kind=ck.KIND_UNCONDITIONAL, max_expansions=None) is None

    def test_search_still_works(self, broken_toolchain):
        scheme = u_scheme(RdpCode(5), 0, depth=1)
        scheme.validate(RdpCode(5))

    def test_debug_env_surfaces_the_reason(self, broken_toolchain, monkeypatch):
        monkeypatch.setenv("REPRO_CKERNEL_DEBUG", "1")
        with pytest.warns(RuntimeWarning, match="pure-Python"):
            assert ck.load() is None

    def test_no_tmp_litter_in_cache(self, broken_toolchain, tmp_path):
        ck.load()
        cache = tmp_path / "repro-ckernel"
        leftovers = list(cache.glob("*.tmp")) if cache.exists() else []
        assert leftovers == []


class TestPurePythonEnv:
    def test_env_var_disables_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        monkeypatch.setattr(ck, "_lib", None)
        monkeypatch.setattr(ck, "_load_attempted", False)
        try:
            assert ck.load() is None
            assert ck.run([[(1, 3)]], 2, 1, ck.KIND_KHAN, None) is None
        finally:
            ck._lib = None
            ck._load_attempted = False


class TestConcurrentLoad:
    """Concurrent first callers wait for the one load (rebuild threads
    reach :func:`load` together); none may see a half-finished load."""

    N_THREADS = 8

    def _load_together(self):
        barrier = threading.Barrier(self.N_THREADS)
        got = [None] * self.N_THREADS

        def call(i):
            barrier.wait()
            got[i] = ck.load()

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(self.N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        return got

    @pytest.mark.parametrize("attempt", range(5))
    def test_all_threads_get_the_same_library(self, monkeypatch, attempt):
        # patched before the first load, so teardown restores this
        # process's own load state (the pure leg keeps its None)
        monkeypatch.setattr(ck, "_lib", None)
        monkeypatch.setattr(ck, "_load_attempted", False)
        monkeypatch.delenv("REPRO_PURE_PYTHON", raising=False)
        got = self._load_together()
        if got == [None] * self.N_THREADS:
            pytest.skip("C kernel unavailable (no compiler?)")
        assert all(lib is not None and lib is got[0] for lib in got)
        assert ck._lib is got[0]

    def test_all_threads_get_none_under_pure_python(self, monkeypatch):
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        monkeypatch.setattr(ck, "_lib", None)
        monkeypatch.setattr(ck, "_load_attempted", False)
        assert self._load_together() == [None] * self.N_THREADS
