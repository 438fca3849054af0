"""Degraded plan cache: correctness, memoisation, persistent warm restart."""

import numpy as np
import pytest

from repro import obs
from repro.codec import StripeCodec, execute_scheme
from repro.codes import RdpCode
from repro.recovery import RecoveryPlanner, SchemePlanCache
from repro.serving import DegradedPlanCache


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


class TestPlanCorrectness:
    def test_plans_validate_and_serve_byte_exact(self, rdp7):
        cache = DegradedPlanCache(rdp7)
        codec = StripeCodec(rdp7, element_size=16)
        stripe = codec.encode(codec.random_data(np.random.default_rng(3)))
        lay = rdp7.layout
        for disk in range(lay.n_disks):
            for row in range(lay.k_rows):
                plan = cache.plan_for_element(disk, row)
                plan.validate(rdp7)
                assert plan.read_mask & lay.disk_mask(disk) == 0
                masked = stripe.copy()
                for _, lrow in lay.iter_elements(lay.disk_mask(disk)):
                    masked[lay.eid(disk, lrow)] = 0
                out = execute_scheme(plan, masked)
                eid = lay.eid(disk, row)
                assert np.array_equal(out[eid], stripe[eid])

    def test_memoised_plan_is_same_object(self, rdp7):
        cache = DegradedPlanCache(rdp7)
        a = cache.plan_for_element(1, 2)
        b = cache.plan_for_element(1, 2)
        assert a is b

    def test_warm_counts_all_plans(self, rdp7):
        cache = DegradedPlanCache(rdp7)
        n = cache.warm(range(rdp7.layout.n_disks))
        assert n == rdp7.layout.n_disks * rdp7.layout.k_rows
        assert len(cache) == n


class TestPersistentWarmRestart:
    def test_restart_from_store_does_zero_searches(self, rdp7, tmp_path):
        store_path = tmp_path / "plans.json"

        # first process: populate the store (searches happen here)
        store = SchemePlanCache(store_path)
        planner = RecoveryPlanner(rdp7, algorithm="u", depth=1, plan_cache=store)
        cache = DegradedPlanCache(rdp7, planner=planner)
        cache.warm(range(rdp7.layout.n_disks))

        # second process: same store, fresh planner — warm must be free
        store2 = SchemePlanCache(store_path)
        planner2 = RecoveryPlanner(rdp7, algorithm="u", depth=1, plan_cache=store2)
        cache2 = DegradedPlanCache(rdp7, planner=planner2)
        rec = obs.enable(label="warm restart")
        try:
            cache2.warm(range(rdp7.layout.n_disks))
        finally:
            obs.disable()
        counters = {c.name: c.value for c in rec.counters.values()}
        assert counters.get("planner.schemes_generated", 0) == 0
        assert counters.get("search.expanded", 0) == 0
        assert counters.get("serving.plan_miss", 0) > 0  # memo was cold...
        # ...but every miss was answered from the store, search-free

    def test_sliced_plans_are_not_persisted(self, rdp7, tmp_path):
        store_path = tmp_path / "plans.json"
        planner = RecoveryPlanner(
            rdp7, algorithm="u", depth=1, plan_cache=SchemePlanCache(store_path)
        )
        cache = DegradedPlanCache(rdp7, planner=planner)
        n = rdp7.layout.n_disks
        assert cache.warm(range(n)) == n * rdp7.layout.k_rows
        # the store holds the whole-disk schemes only: a slice needs no
        # search, so it is rederived, never stored
        assert SchemePlanCache(store_path).stats()["disk_entries"] == n

    def test_memo_hits_counted(self, rdp7):
        cache = DegradedPlanCache(rdp7)
        cache.plan_for_element(0, 0)
        rec = obs.enable(label="memo hit")
        try:
            cache.plan_for_element(0, 0)
        finally:
            obs.disable()
        counters = {c.name: c.value for c in rec.counters.values()}
        assert counters.get("serving.plan_hit", 0) == 1
