"""Pool store + pool rebuild: byte-exactness, billing, planning parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import execute_scheme
from repro.codec.encoder import StripeCodec
from repro.codes import CauchyRSCode, EvenOddCode, RdpCode
from repro.pipeline import PoolRebuild, compare_placements, rebuild_pool_disk
from repro.placement import FlatPlacement, PoolStore, make_placement
from repro.recovery import RecoveryPlanner
from repro.topology import Topology, TopologyAwarePlanner

from tests.doctored import (
    FixedPlanner,
    scheme_misstating_loads,
    scheme_reading_dead_row,
)
from tests.legs import LEGS, leg_context


def build_store(name="declustered", code=None, n_pool=40, n_stripes=300,
                element_size=8, seed=0):
    code = code or RdpCode(5)
    pm = make_placement(name, n_pool, n_stripes, code.layout.n_disks, seed=seed)
    store = PoolStore(code, pm, element_size=element_size)
    store.encode_random(np.random.default_rng(seed))
    return store


class TestPoolStore:
    def test_width_mismatch_rejected(self):
        pm = make_placement("flat", 40, 100, 5)
        with pytest.raises(ValueError, match="placement width"):
            PoolStore(RdpCode(7), pm)  # rdp@7 is 8 disks wide, map is 5

    def test_encode_batch_matches_per_stripe_encoder(self):
        code = EvenOddCode(5)
        store = build_store("flat", code=code, n_stripes=12)
        codec = StripeCodec(code, store.element_size)
        rng = np.random.default_rng(0)
        data = rng.integers(
            0, 256, size=(12, codec.n_data_elements, store.element_size),
            dtype=np.uint8,
        )
        batch = codec.encode_batch(data)
        for s in range(12):
            assert np.array_equal(batch[s], codec.encode(data[s]))

    def test_role_rows_are_the_roles_elements(self):
        store = build_store(n_stripes=20)
        k = store.k_rows
        got = store.role_rows(np.asarray([3, 11]), role=2)
        assert np.array_equal(got[0], store.stripes[3, 2 * k : 3 * k])
        assert np.array_equal(got[1], store.stripes[11, 2 * k : 3 * k])

    def test_role_rows_before_encode_raises(self):
        pm = make_placement("flat", 40, 10, 6)
        store = PoolStore(RdpCode(5), pm)
        with pytest.raises(RuntimeError, match="empty"):
            store.role_rows(np.asarray([0]), 0)


class TestPoolRebuild:
    @pytest.mark.parametrize("name", ["flat", "declustered", "d3", "random"])
    def test_rebuild_is_byte_exact(self, name):
        store = build_store(name, n_pool=30, n_stripes=200)
        res = rebuild_pool_disk(store, dead_disk=4, chunk_stripes=32)
        assert res.ok
        assert res.mismatches == 0
        stripes, _ = store.placement.roles_of_disk(4)
        assert len(res.stripe_ids) == len(stripes)
        # the dead disk is never its own rebuild source
        assert res.reads_per_disk[4] == 0
        assert np.array_equal(res.stripe_ids, np.sort(stripes))

    @pytest.mark.parametrize(
        "code", [RdpCode(5), EvenOddCode(5), CauchyRSCode(4, 2, w=4)]
    )
    def test_rebuild_across_codes(self, code):
        store = build_store("d3", code=code, n_pool=25, n_stripes=120)
        res = rebuild_pool_disk(store, dead_disk=7)
        assert res.ok

    def test_planned_loads_equal_executed_loads(self):
        store = build_store("declustered", n_pool=36, n_stripes=250)
        engine = PoolRebuild(store, chunk_stripes=64)
        planned = engine.read_loads(dead_disk=9)
        res = engine.rebuild(dead_disk=9)
        assert np.array_equal(planned, res.reads_per_disk)

    def test_idle_flat_spare_disk_rebuilds_to_nothing(self):
        # 4*6=24 disks in groups, disks 24..27 spare and hold no stripes
        store = build_store("flat", code=RdpCode(5), n_pool=28, n_stripes=96)
        res = rebuild_pool_disk(store, dead_disk=26)
        assert res.ok
        assert len(res.stripe_ids) == 0
        assert res.reads_per_disk.sum() == 0

    def test_declustered_halves_flat_max_load(self):
        # the ISSUE acceptance bar, at test scale: >= 2x reduction in
        # max-per-disk rebuild reads on a 100+ disk pool
        results = compare_placements(
            lambda name: build_store(name, n_pool=120, n_stripes=2000),
            ["flat", "declustered"],
            dead_disk=5,
        )
        assert all(r.ok for r in results.values())
        flat, dec = results["flat"], results["declustered"]
        assert flat.max_read_load >= 2 * dec.max_read_load
        busy_flat = int((flat.reads_per_disk > 0).sum())
        busy_dec = int((dec.reads_per_disk > 0).sum())
        assert busy_dec > busy_flat

    def test_throttle_sees_every_chunk(self):
        store = build_store("d3", n_pool=30, n_stripes=150)
        seen = []
        engine = PoolRebuild(store, chunk_stripes=16, throttle=seen.append)
        res = engine.rebuild(dead_disk=2)
        assert res.ok
        assert sum(len(c) for c in seen) == len(res.stripe_ids)
        assert len(seen) == res.stats["chunks"]

    def test_bad_chunk_size_rejected(self):
        store = build_store()
        with pytest.raises(ValueError):
            PoolRebuild(store, chunk_stripes=0)

    def test_empty_store_rejected(self):
        pm = make_placement("flat", 40, 10, 6)
        store = PoolStore(RdpCode(5), pm)
        with pytest.raises(RuntimeError, match="empty"):
            PoolRebuild(store).rebuild(0)

    def test_stats_shape(self):
        store = build_store("random", n_pool=30, n_stripes=100)
        res = rebuild_pool_disk(store, dead_disk=1)
        for key in ("placement", "n_pool", "affected_stripes", "chunks",
                    "rebuilt_mb_s", "read_load"):
            assert key in res.stats
        assert res.stats["placement"] == "random"
        assert res.stats["read_load"]["max_per_disk"] == res.max_read_load


def _disk_playing(store, role):
    """A pool disk that plays logical ``role`` in some stripe."""
    return next(
        d for d in range(store.placement.n_pool)
        if role in store.placement.roles_of_disk(d)[1]
    )


class TestStaticDeadRowGuard:
    """The rebuild reads the live store, so a plan that reads the dead
    role's rows would verify clean; the guard refuses it up front."""

    def _real(self, store, role):
        return RecoveryPlanner(store.code, "u", depth=1).scheme_for_disk(role)

    def test_equation_reading_a_dead_row_raises(self):
        store = build_store("declustered", n_pool=20, n_stripes=120)
        role = 1
        doctored, dead_row = scheme_reading_dead_row(self._real(store, role), role)
        engine = PoolRebuild(
            store, planner=FixedPlanner(store.code, role, doctored)
        )
        with pytest.raises(
            ValueError, match=f"role {role} reads element {dead_row} "
        ):
            engine.rebuild(_disk_playing(store, role))

    def test_loads_disagreeing_with_the_plan_raise(self):
        store = build_store("d3", n_pool=20, n_stripes=120)
        role = 0
        doctored, logical = scheme_misstating_loads(self._real(store, role))
        engine = PoolRebuild(
            store, planner=FixedPlanner(store.code, role, doctored)
        )
        with pytest.raises(
            ValueError, match=f"role {role} reads .* logical disk {logical}"
        ):
            engine.rebuild(_disk_playing(store, role))

    def test_plans_are_compiled_once_per_engine(self):
        store = build_store("declustered", n_pool=20, n_stripes=120)
        engine = PoolRebuild(store)
        engine.rebuild(3)
        n_plans = len(engine._plans)
        assert n_plans == len(list(engine.stripe_groups(3)))
        engine.rebuild(3)
        assert len(engine._plans) == n_plans


class TestPoolMismatchOracle:
    """The in-pass verification counts exactly the stripes whose stored
    dead rows disagree with what their survivors rebuild, as an
    independent oracle (the per-stripe scalar executor) counts them, on
    both legs, inline and threaded."""

    DEAD = 3

    @staticmethod
    def _bits(mask):
        return [e for e in range(mask.bit_length()) if mask >> e & 1]

    def _target(self, engine, kind):
        """``(stripe, element)`` to corrupt for ``kind``."""
        store = engine.store
        k = store.k_rows
        for role, ids, scheme in engine.stripe_groups(self.DEAD):
            dead = range(role * k, (role + 1) * k)
            read = self._bits(scheme.read_mask)
            unread = [e for e in range(store.code.layout.n_elements)
                      if e not in read and e not in dead]
            pick = {"dead": list(dead), "read": read, "unread": unread}[kind]
            if len(ids) and pick:
                return int(ids[len(ids) // 2]), pick[-1]
        raise AssertionError(f"no {kind} element in any group")

    @staticmethod
    def _oracle(engine, dead_disk):
        """Stripes whose stored dead rows differ from the scalar rebuild."""
        store = engine.store
        k = store.k_rows
        bad = 0
        for role, ids, scheme in engine.stripe_groups(dead_disk):
            for s in ids:
                rec = execute_scheme(scheme, store.stripes[s])
                bad += any(
                    not np.array_equal(rec[role * k + r],
                                       store.stripes[s, role * k + r])
                    for r in range(k)
                )
        return bad

    @pytest.mark.parametrize("leg", LEGS)
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize(
        "kind, expected", [("dead", 1), ("read", 1), ("unread", 0)]
    )
    def test_one_flipped_byte(self, leg, workers, kind, expected):
        store = build_store("declustered", n_pool=20, n_stripes=160,
                            element_size=16)
        pristine = store.stripes.copy()
        engine = PoolRebuild(store, chunk_stripes=8, workers=workers)
        stripe, element = self._target(engine, kind)
        store.stripes[stripe, element, 7] ^= 0x5A
        with leg_context(leg):
            res = engine.rebuild(self.DEAD)
        assert self._oracle(engine, self.DEAD) == expected
        assert res.mismatches == expected
        assert res.stats["chunks"] >= 2
        if kind != "read":
            # the rebuild read only intact survivors: every row is the
            # dead disk's original content
            k = store.k_rows
            stripes, roles = store.placement.roles_of_disk(self.DEAD)
            order = np.argsort(stripes)
            eids = roles[order, None] * k + np.arange(k)
            assert np.array_equal(res.rows,
                                  pristine[stripes[order, None], eids])


#: 3 racks x 2 machines x 2 disks: 12 leaves
_TOPO = Topology(racks=3, machines_per_rack=2, disks_per_machine=2)


@st.composite
def pool_case(draw):
    code = draw(st.sampled_from([RdpCode(5), EvenOddCode(5)]))
    width = code.layout.n_disks
    name = draw(
        st.sampled_from(["flat", "declustered", "d3", "random", "rack_aware"])
    )
    with_topology = name == "rack_aware" or draw(st.booleans())
    n_pool = _TOPO.n_disks if with_topology else draw(st.integers(width, 16))
    return {
        "code": code,
        "name": name,
        "n_pool": n_pool,
        "topology": _TOPO if with_topology else None,
        "aware": with_topology and draw(st.booleans()),
        "n_stripes": draw(st.integers(1, 40)),
        "element_size": draw(st.sampled_from([1, 8, 24])),
        "chunk": draw(st.sampled_from([1, 7, 256])),
        "seed": draw(st.integers(0, 2**16)),
    }


def naive_rows(engine, dead_disk):
    """Per-stripe reference: ``execute_scheme`` on each stored stripe."""
    store = engine.store
    k = store.k_rows
    rows = {}
    for role, ids, scheme in engine.stripe_groups(dead_disk):
        for s in ids:
            rec = execute_scheme(scheme, store.stripes[s])
            rows[int(s)] = np.stack([rec[role * k + r] for r in range(k)])
    return rows


class TestPoolRebuildOracle:
    @settings(max_examples=40, deadline=None)
    @given(pool_case())
    def test_every_dead_disk_matches_the_per_stripe_reference(self, case):
        code = case["code"]
        pm = make_placement(
            case["name"], case["n_pool"], case["n_stripes"], code.layout.n_disks,
            seed=case["seed"], topology=case["topology"],
        )
        store = PoolStore(code, pm, element_size=case["element_size"])
        store.encode_random(np.random.default_rng(case["seed"]))
        seen = []
        engine = PoolRebuild(
            store,
            chunk_stripes=case["chunk"],
            topo_planner=(
                TopologyAwarePlanner(code, case["topology"])
                if case["aware"]
                else None
            ),
            throttle=seen.append,
        )
        for dead in range(pm.n_pool):
            seen.clear()
            res = engine.rebuild(dead)
            ref = naive_rows(engine, dead)
            assert res.mismatches == 0
            assert np.array_equal(res.stripe_ids, sorted(ref))
            for j, s in enumerate(res.stripe_ids):
                assert np.array_equal(res.rows[j], ref[int(s)]), (dead, int(s))
            assert np.array_equal(res.reads_per_disk, engine.read_loads(dead))
            if case["topology"] is not None:
                planned = engine.link_read_loads(dead)
                for level in ("disk_reads", "machine_reads", "rack_reads"):
                    assert np.array_equal(
                        getattr(res.link_loads, level), getattr(planned, level)
                    ), level
            else:
                assert res.link_loads is None
            # the throttle saw every chunk exactly once
            assert len(seen) == res.stats["chunks"]
            assert all(1 <= len(c) <= case["chunk"] for c in seen)
            thrown = np.concatenate(seen) if seen else np.empty(0, np.int64)
            assert np.array_equal(np.sort(thrown), res.stripe_ids)
