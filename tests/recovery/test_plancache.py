"""SchemePlanCache: hit equivalence, key invalidation, corruption handling."""

import json

import pytest

from repro import obs
from repro.codes import make_code
from repro.recovery import RecoveryPlanner, SchemePlanCache, plan_key
from repro.recovery.ualgorithm import u_scheme


class TestPlanKey:
    def test_deterministic(self):
        code = make_code("rdp", 7)
        assert plan_key(code, 0, "u", 1) == plan_key(code, 0, "u", 1)

    def test_every_component_changes_key(self):
        rdp = make_code("rdp", 7)
        base = plan_key(rdp, 0, "u", 1)
        assert plan_key(rdp, 1, "u", 1) != base           # failed disk
        assert plan_key(rdp, 0, "c", 1) != base           # algorithm
        assert plan_key(rdp, 0, "u", 2) != base           # depth
        assert plan_key(rdp, 0, "u", 1, 1000) != base     # budget
        assert plan_key(make_code("rdp", 8), 0, "u", 1) != base   # geometry
        assert plan_key(make_code("evenodd", 7), 0, "u", 1) != base  # matrix


class TestCacheHitEquivalence:
    def test_hit_equals_fresh_search(self, tmp_path):
        code = make_code("evenodd", 7)
        cache = SchemePlanCache(tmp_path / "plans.json")
        planner = RecoveryPlanner(code, algorithm="u", depth=1,
                                  plan_cache=cache)
        stored = planner.all_disk_schemes()
        # a fresh planner over the same store must serve identical plans
        warm = RecoveryPlanner(
            code, algorithm="u", depth=1,
            plan_cache=SchemePlanCache(tmp_path / "plans.json"),
        )
        for disk, cold in enumerate(stored):
            fresh = u_scheme(code, disk, depth=1)
            hit = warm.scheme_for_disk(disk)
            assert hit.metadata.get("plan_cache") == "hit"
            for scheme in (fresh, hit):
                assert scheme.equations == cold.equations
                assert scheme.read_mask == cold.read_mask
                assert scheme.failed_eids == cold.failed_eids
            hit.validate(code)

    def test_generator_change_invalidates_by_key(self, tmp_path):
        store = tmp_path / "plans.json"
        rdp = RecoveryPlanner(
            make_code("rdp", 7), algorithm="u", depth=1,
            plan_cache=SchemePlanCache(store),
        )
        rdp.all_disk_schemes()
        # same geometry, different generator matrix -> all misses
        cache = SchemePlanCache(store)
        evenodd = RecoveryPlanner(
            make_code("evenodd", 7), algorithm="u", depth=1, plan_cache=cache
        )
        evenodd.all_disk_schemes()
        assert cache.hits == 0
        assert cache.misses == make_code("evenodd", 7).layout.n_disks

    def test_memory_lru_bound(self):
        code = make_code("rdp", 7)
        cache = SchemePlanCache(max_entries=2)
        planner = RecoveryPlanner(code, algorithm="u", depth=1,
                                  plan_cache=cache)
        planner.all_disk_schemes()
        assert len(cache) == 2
        with pytest.raises(ValueError):
            SchemePlanCache(max_entries=0)

    def test_parallel_generation_fills_cache(self, tmp_path, threaded_runner):
        code = make_code("rdp", 7)
        cache = SchemePlanCache(tmp_path / "plans.json")
        planner = RecoveryPlanner(code, algorithm="u", depth=1,
                                  plan_cache=cache)
        planned = planner.all_disk_schemes()
        assert cache.stats()["disk_entries"] == code.layout.n_disks
        assert cache.misses == code.layout.n_disks
        # second threaded pass over a fresh planner is all cache hits
        cache2 = SchemePlanCache(tmp_path / "plans.json")
        planner2 = RecoveryPlanner(code, algorithm="u", depth=1,
                                   plan_cache=cache2)
        assert [s.equations for s in planner2.all_disk_schemes()] == [
            s.equations for s in planned
        ]
        assert cache2.hits == code.layout.n_disks
        assert cache2.misses == 0

    def test_threaded_pass_searches_only_the_misses(self, tmp_path,
                                                    threaded_runner):
        """Disks already in the plan cache never reach the kernel threads."""
        from repro import obs

        code = make_code("rdp", 7)
        cache = SchemePlanCache(tmp_path / "plans.json")
        warm = RecoveryPlanner(code, algorithm="u", depth=1, plan_cache=cache)
        for d in (0, 2, 4):
            warm.scheme_for_disk(d)
        planner = RecoveryPlanner(code, algorithm="u", depth=1,
                                  plan_cache=cache)
        rec = obs.enable("misses")
        try:
            planner.all_disk_schemes()
        finally:
            obs.disable()
        searched = sorted(
            s.attrs["disk"] for s in rec.spans if s.name == "planner.generate"
        )
        assert searched == [1, 3, 5, 6]
        assert cache.stats()["disk_entries"] == code.layout.n_disks


class TestCorruptedStores:
    @pytest.mark.parametrize("content", [
        "{not json",                                      # unparsable
        json.dumps([1, 2, 3]),                            # wrong root type
        json.dumps({"version": 999, "plans": {}}),        # wrong version
        json.dumps({"version": 1}),                       # missing plans
        json.dumps({"version": 1, "plans": {"k": {"x": 1}}}),  # bad record
    ])
    def test_corrupted_store_warns_never_raises(self, tmp_path, content):
        store = tmp_path / "plans.json"
        store.write_text(content)
        with pytest.warns(UserWarning, match="ignoring unusable plan cache"):
            cache = SchemePlanCache(store)
        # degraded to cold but fully functional
        code = make_code("rdp", 7)
        planner = RecoveryPlanner(code, algorithm="u", depth=1,
                                  plan_cache=cache)
        scheme = planner.scheme_for_disk(0)
        scheme.validate(code)
        assert cache.misses == 1 and cache.stores == 1

    def test_corrupt_store_is_rewritten_clean(self, tmp_path):
        store = tmp_path / "plans.json"
        store.write_text("garbage")
        code = make_code("rdp", 7)
        with pytest.warns(UserWarning):
            cache = SchemePlanCache(store)
        RecoveryPlanner(code, algorithm="u", depth=1,
                        plan_cache=cache).scheme_for_disk(0)
        reloaded = json.loads(store.read_text())
        assert reloaded["version"] == 1
        assert len(reloaded["plans"]) == 1

    def test_missing_store_starts_cold_silently(self, tmp_path):
        cache = SchemePlanCache(tmp_path / "absent.json")
        assert cache.stats()["disk_entries"] == 0


class TestObsCounters:
    def test_warm_run_skips_search_entirely(self, tmp_path):
        code = make_code("rdp", 7)
        store = tmp_path / "plans.json"
        RecoveryPlanner(
            code, algorithm="u", depth=1, plan_cache=SchemePlanCache(store)
        ).all_disk_schemes()

        rec = obs.enable(label="warm")
        try:
            planner = RecoveryPlanner(
                code, algorithm="u", depth=1,
                plan_cache=SchemePlanCache(store),
            )
            planner.all_disk_schemes()
        finally:
            obs.disable()
        counters = {c.name: c.value for c in rec.counters.values()}
        assert counters.get("plancache.hit", 0) == code.layout.n_disks
        assert counters.get("planner.schemes_generated", 0) == 0
        assert counters.get("search.expanded", 0) == 0
        assert rec.gauges["plancache.size"].value == code.layout.n_disks


class TestConcurrentWriters:
    """Two processes/instances saving to one store must union, not clobber."""

    def test_two_writer_interleave_preserves_both(self, tmp_path):
        """Regression: before the advisory-lock merge, writer B's save
        (holding a stale in-memory view loaded before A's save) erased
        A's entry from the store."""
        code = make_code("rdp", 7)
        store = tmp_path / "plans.json"
        a = SchemePlanCache(store)   # both load the (empty) store now
        b = SchemePlanCache(store)
        a.put(code, 0, "u", 1, u_scheme(code, 0, depth=1))   # A saves disk 0
        a.save()
        b.put(code, 1, "u", 1, u_scheme(code, 1, depth=1))   # B saves disk 1
        b.save()
        merged = SchemePlanCache(store)
        assert merged.stats()["disk_entries"] == 2
        assert merged.get(code, 0, "u", 1) is not None
        assert merged.get(code, 1, "u", 1) is not None

    def test_threaded_writer_hammer_loses_nothing(self, tmp_path):
        import threading

        code = make_code("rdp", 8)
        store = tmp_path / "plans.json"
        n_disks = code.layout.n_disks
        schemes = {d: u_scheme(code, d, depth=1) for d in range(n_disks)}

        def writer(disk):
            cache = SchemePlanCache(store)
            cache.put(code, disk, "u", 1, schemes[disk])
            cache.save()

        threads = [
            threading.Thread(target=writer, args=(d,)) for d in range(n_disks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        merged = SchemePlanCache(store)
        assert merged.stats()["disk_entries"] == n_disks
        for d in range(n_disks):
            assert merged.get(code, d, "u", 1) is not None

    def test_save_merges_and_local_wins_collisions(self, tmp_path):
        code = make_code("rdp", 7)
        store = tmp_path / "plans.json"
        a = SchemePlanCache(store)
        b = SchemePlanCache(store)
        a.put(code, 0, "u", 1, u_scheme(code, 0, depth=1))
        b.put(code, 0, "u", 1, u_scheme(code, 0, depth=1))  # same key
        b.put(code, 2, "u", 1, u_scheme(code, 2, depth=1))
        a.save()
        b.save()
        merged = SchemePlanCache(store)
        assert merged.stats()["disk_entries"] == 2

    def test_lock_sidecar_does_not_break_reload(self, tmp_path):
        code = make_code("rdp", 7)
        store = tmp_path / "plans.json"
        cache = SchemePlanCache(store)
        cache.put(code, 0, "u", 1, u_scheme(code, 0, depth=1))
        cache.save()
        assert (tmp_path / "plans.json.lock").exists()
        assert SchemePlanCache(store).get(code, 0, "u", 1) is not None


class TestWriteBack:
    """``put`` only marks the store dirty; the planner writes it once per
    planning pass, not once per scheme."""

    def test_put_alone_writes_nothing(self, tmp_path):
        code = make_code("rdp", 7)
        store = tmp_path / "plans.json"
        cache = SchemePlanCache(store)
        cache.put(code, 0, "u", 1, u_scheme(code, 0, depth=1))
        assert not store.exists()
        cache.save()
        assert SchemePlanCache(store).get(code, 0, "u", 1) is not None

    def test_one_planning_pass_writes_the_store_once(
        self, tmp_path, monkeypatch, threaded_runner
    ):
        from repro.recovery import plancache as plancache_mod

        writes = []
        real_lock = plancache_mod._store_lock

        def counting_lock(path):
            writes.append(path)  # every store write runs under the lock
            return real_lock(path)

        monkeypatch.setattr(plancache_mod, "_store_lock", counting_lock)
        code = make_code("rdp", 7)
        store = tmp_path / "plans.json"
        cache = SchemePlanCache(store)
        RecoveryPlanner(
            code, algorithm="u", depth=1, plan_cache=cache
        ).all_disk_schemes()
        assert writes == [store]
        assert cache.stores == code.layout.n_disks
        assert SchemePlanCache(store).stats()["disk_entries"] == code.layout.n_disks
        # a replay of the written store plans nothing and writes nothing
        RecoveryPlanner(
            code, algorithm="u", depth=1, plan_cache=SchemePlanCache(store)
        ).all_disk_schemes()
        assert writes == [store]

    def test_no_store_attached_writes_nothing(self, monkeypatch):
        from repro.recovery import plancache as plancache_mod

        def no_write(path):
            pytest.fail(f"a path-less plan cache wrote {path}")

        monkeypatch.setattr(plancache_mod, "_store_lock", no_write)
        code = make_code("rdp", 7)
        RecoveryPlanner(code, algorithm="u", depth=1).all_disk_schemes()
        RecoveryPlanner(
            code, algorithm="u", depth=1, plan_cache=SchemePlanCache()
        ).all_disk_schemes()
