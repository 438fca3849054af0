"""Placement-map unit tests: strategies, both lookup directions, bounds."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.placement import (
    D3Placement,
    DeclusteredPlacement,
    FlatPlacement,
    PlacementMap,
    RandomPlacement,
    list_placements,
    make_placement,
    rebuild_read_loads,
)

STRATEGIES = list_placements()


def groups(pm, dead, loads_by_role):
    """``dead``'s execution groups, each read as ``loads_by_role[role]``."""
    return [
        (role, ids, SimpleNamespace(loads=loads_by_role[role]))
        for role, ids in pm.role_groups(dead)
    ]


class TestFactory:
    def test_lists_all_strategies(self):
        assert STRATEGIES == ["d3", "declustered", "flat", "random"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            make_placement("copyset", 60, 100, 6)

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_factory_builds_each(self, name):
        pm = make_placement(name, 60, 100, 6, seed=3)
        assert pm.name == name
        assert pm.n_pool == 60
        assert pm.n_stripes == 100
        assert pm.width == 6

    @pytest.mark.parametrize(
        "n_pool,n_stripes,width", [(5, 10, 6), (60, 0, 6), (60, 10, 1)]
    )
    def test_bad_geometry_rejected(self, n_pool, n_stripes, width):
        for name in STRATEGIES:
            with pytest.raises(ValueError):
                make_placement(name, n_pool, n_stripes, width)


class TestTableValidation:
    def test_duplicate_disk_in_stripe_rejected(self):
        table = np.asarray([[0, 1, 2], [3, 3, 4]])
        with pytest.raises(ValueError, match="stripe 1"):
            PlacementMap(10, table, "bad")

    def test_out_of_pool_disk_rejected(self):
        with pytest.raises(ValueError):
            PlacementMap(4, np.asarray([[0, 1, 7]]), "bad")
        with pytest.raises(ValueError):
            PlacementMap(4, np.asarray([[-1, 1, 2]]), "bad")

    def test_width_beyond_pool_rejected(self):
        with pytest.raises(ValueError):
            PlacementMap(2, np.asarray([[0, 1, 2]]), "bad")


class TestLookups:
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_roles_cover_each_stripe_once(self, name):
        pm = make_placement(name, 40, 50, 5, seed=1)
        for s in (0, 7, 49):
            disks = {int(pm.disk_of_role(s, r)) for r in range(pm.width)}
            assert disks == set(pm.disks_for_stripe(s).tolist())

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_inverse_round_trips(self, name):
        pm = make_placement(name, 40, 60, 5, seed=2)
        for disk in (0, 13, 39):
            stripes, roles = pm.roles_of_disk(disk)
            back = pm.disk_of_role(stripes, roles)
            assert np.all(back == disk)

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_role_groups_partition_the_inverse_map(self, name):
        pm = make_placement(name, 40, 60, 5, seed=2)
        for disk in (0, 13, 39):
            stripes, roles = pm.roles_of_disk(disk)
            groups = list(pm.role_groups(disk))
            assert [r for r, _ in groups] == sorted(set(roles.tolist()))
            for role, ids in groups:
                assert np.all(np.diff(ids) > 0)
                assert np.array_equal(ids, np.sort(stripes[roles == role]))

    def test_array_is_the_one_group_flat_pool(self):
        # role l of stripe s on disk (l + s) mod n: the rotated array
        pm = FlatPlacement(n_pool=7, n_stripes=30, width=7)
        s, l = np.meshgrid(np.arange(30), np.arange(7), indexing="ij")
        assert np.array_equal(pm.disk_of_role(s, l), (l + s) % 7)

    def test_stripes_per_disk_sums_to_placements(self):
        pm = make_placement("declustered", 30, 90, 6)
        counts = pm.stripes_per_disk()
        assert counts.sum() == 90 * 6

    def test_flat_leaves_leftover_disks_idle(self):
        pm = FlatPlacement(n_pool=20, n_stripes=40, width=6)  # 3 groups + 2 spare
        counts = pm.stripes_per_disk()
        assert np.all(counts[18:] == 0)
        assert np.all(counts[:18] > 0)

    def test_rotation_moves_roles_across_group_disks(self):
        # within one flat group, consecutive stripes shift each role by
        # one slot — the paper's rotation, preserved on the pool
        pm = FlatPlacement(n_pool=6, n_stripes=12, width=6)
        hosts = {int(pm.disk_of_role(s, 0)) for s in range(6)}
        assert hosts == set(range(6))


class TestShardBounds:
    def test_flat_bounds_align_to_group_starts(self):
        pm = FlatPlacement(n_pool=24, n_stripes=96, width=6)  # 4 groups
        bounds = pm.shard_bounds(2)
        starts = set(pm.group_starts.tolist()) | {96}
        assert set(bounds.tolist()) <= starts
        assert bounds[0] == 0 and bounds[-1] == 96
        # no shard splits a group: group ids are constant inside a shard
        s = np.arange(96)
        group = s * 4 // 96
        for i in range(2):
            lo, hi = bounds[i], bounds[i + 1]
            if hi > lo:
                d = np.unique(pm.table[lo:hi], axis=0)
                assert len(d) == len(np.unique(group[lo:hi]))

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_bounds_monotone_and_cover(self, name):
        pm = make_placement(name, 30, 45, 5)
        for n_shards in (1, 2, 7, 46):
            b = pm.shard_bounds(n_shards)
            assert b[0] == 0 and b[-1] == 45
            assert np.all(np.diff(b) >= 0)

    def test_bad_shard_count_rejected(self):
        pm = make_placement("flat", 30, 45, 5)
        with pytest.raises(ValueError):
            pm.shard_bounds(0)


class TestRebuildReadLoads:
    def _uniform_loads(self, width):
        # pretend scheme: read one element from every survivor
        return {r: [1] * r + [0] + [1] * (width - r - 1) for r in range(width)}

    def test_dead_disk_never_read(self):
        pm = make_placement("declustered", 50, 200, 5)
        loads = rebuild_read_loads(pm, 7, groups(pm, 7, self._uniform_loads(5)))
        assert loads[7] == 0
        affected, _ = pm.stripes_of_disk(7)
        assert loads.sum() == len(affected) * 4

    def test_flat_concentrates_declustered_spreads(self):
        width, pool = 8, 128
        flat = FlatPlacement(pool, 4000, width)
        dec = DeclusteredPlacement(pool, 4000, width)
        loads = self._uniform_loads(width)
        f = rebuild_read_loads(flat, 3, groups(flat, 3, loads))
        d = rebuild_read_loads(dec, 3, groups(dec, 3, loads))
        # total work is (width - 1) reads per affected stripe either way...
        assert f.sum() == len(flat.stripes_of_disk(3)[0]) * (width - 1)
        assert d.sum() == len(dec.stripes_of_disk(3)[0]) * (width - 1)
        assert f.max() >= 2 * d.max()  # ...but flat piles it on 7 disks

    def test_d3_spreads_like_declustered(self):
        width, pool = 8, 128
        flat = FlatPlacement(pool, 4000, width)
        d3 = D3Placement(pool, 4000, width)
        loads = self._uniform_loads(width)
        f = rebuild_read_loads(flat, 3, groups(flat, 3, loads))
        d = rebuild_read_loads(d3, 3, groups(d3, 3, loads))
        assert f.max() >= 2 * d.max()

    def test_wrong_load_width_rejected(self):
        pm = RandomPlacement(20, 50, 4, seed=0)
        with pytest.raises(ValueError, match="expected 4 loads"):
            rebuild_read_loads(pm, 0, groups(pm, 0, {r: [1, 0, 1] for r in range(4)}))
