"""Tests for Get_Rec_Equ (recovery equation enumeration)."""

import pytest

from repro.codes import EvenOddCode, Raid4Code, RdpCode, StarCode
from repro.equations import (
    exhaustive_recovery_equations,
    get_recovery_equations,
)


class TestBasicEnumeration:
    def test_raid4_single_option_per_element(self):
        code = Raid4Code(3, k_rows=2)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        assert rec.n_failed == 2
        # each failed element has exactly its row equation
        for opts in rec.options:
            assert len(opts) == 1
        rec.validate()

    def test_rdp_two_options_depth1_mostly(self):
        code = RdpCode(5)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        rec.validate()
        assert rec.is_complete()
        # each failed element has a row equation and possibly a diagonal one
        for opts in rec.options:
            assert 1 <= len(opts) <= 2

    def test_failed_eids_sorted(self):
        code = RdpCode(5)
        rec = get_recovery_equations(code, code.layout.disk_mask(1), depth=1)
        assert rec.failed_eids == sorted(rec.failed_eids)

    def test_read_masks_exclude_failed(self):
        code = EvenOddCode(5)
        failed = code.layout.disk_mask(0)
        rec = get_recovery_equations(code, failed, depth=2)
        for opts in rec.options:
            for opt in opts:
                assert opt.read_mask & failed == 0

    def test_iteration_equations_allowed(self):
        """Equations touching earlier failed elements must appear for later
        slots (Greenan's iteration)."""
        code = RdpCode(5)
        failed = code.layout.disk_mask(0)
        rec = get_recovery_equations(code, failed, depth=2)
        touching_earlier = 0
        recovered = 0
        for i, f in enumerate(rec.failed_eids):
            for opt in rec.options[i]:
                if opt.equation & failed & recovered:
                    touching_earlier += 1
            recovered |= 1 << f
        assert touching_earlier > 0

    def test_max_options_cap(self):
        code = StarCode(5)
        rec = get_recovery_equations(
            code, code.layout.disk_mask(0), depth=2, max_options_per_element=2
        )
        assert all(len(opts) <= 2 for opts in rec.options)

    def test_dominated_options_pruned(self):
        code = RdpCode(5)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=3)
        for opts in rec.options:
            for a in opts:
                for b in opts:
                    if a is not b:
                        assert not (
                            a.read_mask & b.read_mask == a.read_mask
                        ), "superset read mask survived pruning"


class TestExhaustive:
    def test_matches_bounded_on_small_code(self):
        """Full row-space enumeration finds nothing cheaper than depth-3 on
        the smallest RDP instance."""
        code = RdpCode(5)
        failed = code.layout.disk_mask(0)
        bounded = get_recovery_equations(code, failed, depth=3)
        full = exhaustive_recovery_equations(code, failed)
        for slot in range(bounded.n_failed):
            best_bounded = min(o.read_mask.bit_count() for o in bounded.options[slot])
            best_full = min(o.read_mask.bit_count() for o in full.options[slot])
            assert best_bounded == best_full

    def test_space_limit_guard(self):
        code = RdpCode(13)
        with pytest.raises(ValueError, match="over the limit"):
            exhaustive_recovery_equations(code, code.layout.disk_mask(0), space_limit=4)

    def test_exhaustive_validates(self):
        code = Raid4Code(3, k_rows=2)
        rec = exhaustive_recovery_equations(code, code.layout.disk_mask(1))
        rec.validate()
        assert rec.is_complete()


class TestMultiElementMasks:
    def test_partial_disk_failure(self):
        """A failure mask smaller than a disk works (latent sector errors)."""
        code = RdpCode(5)
        lay = code.layout
        failed = lay.element_mask([(0, 0), (2, 3)])
        rec = get_recovery_equations(code, failed, depth=2)
        rec.validate()
        assert rec.is_complete()
        assert rec.n_failed == 2

    def test_two_disk_failure_star(self):
        code = StarCode(5)
        failed = code.layout.disk_mask(0) | code.layout.disk_mask(1)
        rec = get_recovery_equations(code, failed, depth=3)
        rec.validate()
        # completeness may require the search; at least some slots have options
        assert any(rec.options)


class TestMemoization:
    """get_recovery_equations is cached; hits must be mutation-safe copies."""

    def test_repeat_call_returns_equal_but_distinct_lists(self):
        from repro.equations import clear_enumeration_caches

        clear_enumeration_caches()
        code = RdpCode(7)
        failed = code.layout.disk_mask(0)
        first = get_recovery_equations(code, failed, depth=1)
        second = get_recovery_equations(code, failed, depth=1)
        assert first.options == second.options
        assert first.options is not second.options
        for a, b in zip(first.options, second.options):
            assert a is not b

    def test_caller_mutation_does_not_poison_cache(self):
        """Degraded reads / escalation rotate and filter option lists in
        place — a later call must still see the full enumeration."""
        code = RdpCode(7)
        failed = code.layout.disk_mask(0)
        rec = get_recovery_equations(code, failed, depth=1)
        pristine = [list(opts) for opts in rec.options]
        rec.options[0].clear()
        rec.options[1].reverse()
        fresh = get_recovery_equations(code, failed, depth=1)
        assert fresh.options == pristine

    def test_clear_enumeration_caches_forces_recompute(self):
        from repro.equations import clear_enumeration_caches
        from repro.equations import enumerate as enum_mod

        code = RdpCode(5)
        failed = code.layout.disk_mask(1)
        get_recovery_equations(code, failed, depth=1)
        assert enum_mod._ENUM_CACHE
        clear_enumeration_caches()
        assert not enum_mod._ENUM_CACHE
        assert not enum_mod._CLOSURE_CACHE
        rec = get_recovery_equations(code, failed, depth=1)
        rec.validate()


class TestCacheBounds:
    """The memoization LRUs are bounded, configurable and observable."""

    def setup_method(self):
        from repro.equations import clear_enumeration_caches

        clear_enumeration_caches()

    def teardown_method(self):
        from repro.equations import (
            clear_enumeration_caches,
            set_enumeration_cache_limits,
        )

        clear_enumeration_caches()
        set_enumeration_cache_limits(enum=256, closure=32)

    def test_enum_cache_never_exceeds_bound(self):
        from repro.equations import enumerate as enum_mod
        from repro.equations import set_enumeration_cache_limits

        set_enumeration_cache_limits(enum=3)
        code = RdpCode(7)
        for disk in range(code.layout.n_disks):
            get_recovery_equations(code, code.layout.disk_mask(disk), depth=1)
            assert len(enum_mod._ENUM_CACHE) <= 3
        assert len(enum_mod._ENUM_CACHE) == 3

    def test_eviction_is_lru_order(self):
        from repro.equations import enumerate as enum_mod
        from repro.equations import set_enumeration_cache_limits

        set_enumeration_cache_limits(enum=2)
        code = RdpCode(7)
        masks = [code.layout.disk_mask(d) for d in range(3)]
        get_recovery_equations(code, masks[0], depth=1)
        get_recovery_equations(code, masks[1], depth=1)
        get_recovery_equations(code, masks[0], depth=1)  # refresh 0
        get_recovery_equations(code, masks[2], depth=1)  # evicts 1
        cached_failed = {key[4] for key in enum_mod._ENUM_CACHE}
        assert cached_failed == {masks[0], masks[2]}

    def test_lowering_limit_evicts_immediately(self):
        from repro.equations import enumerate as enum_mod
        from repro.equations import set_enumeration_cache_limits

        code = RdpCode(7)
        for disk in range(4):
            get_recovery_equations(code, code.layout.disk_mask(disk), depth=1)
        set_enumeration_cache_limits(enum=1, closure=1)
        assert len(enum_mod._ENUM_CACHE) == 1
        assert len(enum_mod._CLOSURE_CACHE) <= 1

    def test_four_threads_share_tiny_lrus(self):
        """Threads racing on LRUs far smaller than their working set see
        no KeyError from a lookup or an eviction, and get exactly what a
        single thread gets."""
        import sys
        import threading

        from repro.codes import make_code
        from repro.equations import (
            clear_enumeration_caches,
            set_enumeration_cache_limits,
        )

        codes = [
            make_code(family, width)
            for family in ("rdp", "evenodd", "blaum_roth", "liberation", "star")
            for width in (7, 8, 9, 10)
        ]
        jobs = [(code, code.layout.disk_mask(d)) for code in codes for d in (0, 1)]

        def signature(rec):
            return rec.failed_eids, [
                [(o.read_mask, o.equation) for o in opts] for opts in rec.options
            ]

        expected = [signature(get_recovery_equations(c, m, depth=1))
                    for c, m in jobs]
        clear_enumeration_caches()
        set_enumeration_cache_limits(enum=2, closure=1)
        n_threads, rounds = 4, 50
        results = [[None] * len(jobs) for _ in range(n_threads)]
        errors = []
        start = threading.Barrier(n_threads)

        def worker(k):
            start.wait()
            try:
                for _ in range(rounds):
                    for i in range(len(jobs)):
                        # neighbours lag by one job: most lookups race an
                        # insert or an eviction of the same few keys
                        j = (i + k // 2) % len(jobs)
                        code, mask = jobs[j]
                        results[k][j] = signature(
                            get_recovery_equations(code, mask, depth=1)
                        )
            except Exception as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a thread hung"
        assert not errors, [repr(e)[:120] for e in errors[:3]]
        for got in results:
            assert got == expected

    def test_rejects_nonpositive_limits(self):
        import pytest

        from repro.equations import set_enumeration_cache_limits

        with pytest.raises(ValueError):
            set_enumeration_cache_limits(enum=0)
        with pytest.raises(ValueError):
            set_enumeration_cache_limits(closure=-1)

    def test_cache_info_reports_sizes(self):
        from repro.equations import enumeration_cache_info

        code = RdpCode(5)
        get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        info = enumeration_cache_info()
        assert info["enum_entries"] == 1
        assert info["closure_entries"] == 1
        assert info["enum_max"] >= 1 and info["closure_max"] >= 1

    def test_sizes_published_as_obs_gauges(self):
        from repro import obs

        rec = obs.enable(label="cache-bounds test")
        try:
            code = RdpCode(5)
            get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        finally:
            obs.disable()
        assert rec.gauges["enum.cache_entries"].value == 1
        assert rec.gauges["enum.closure_cache_entries"].value == 1

    def test_env_limit_parsing(self, monkeypatch):
        from repro.equations.enumerate import _env_limit

        monkeypatch.setenv("X_CACHE", "17")
        assert _env_limit("X_CACHE", 5) == 17
        monkeypatch.setenv("X_CACHE", "bogus")
        assert _env_limit("X_CACHE", 5) == 5
        monkeypatch.setenv("X_CACHE", "0")
        assert _env_limit("X_CACHE", 5) == 5
        monkeypatch.delenv("X_CACHE")
        assert _env_limit("X_CACHE", 5) == 5
