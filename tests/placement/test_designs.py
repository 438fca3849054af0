"""Design-based declustering: AG(2,q) lines, Sidon translates, D3 fallback.

A 2-design shares every pair of pool disks equally, so a dead disk's
rebuild reads spread evenly over every survivor (Dau et al., *Parity
Declustering via t-designs*).  These tests pin the three constructions
behind ``DeclusteredPlacement`` and the role rule that lays stripes on
their lines.
"""

import numpy as np
import pytest

from repro.codes import make_code
from repro.pipeline import PoolRebuild
from repro.placement import D3Placement, DeclusteredPlacement, PoolStore, make_placement
from repro.placement import map as placement_map
from repro.recovery.planner import RecoveryPlanner

AG_ORDERS = [2, 3, 4, 5, 7, 8]
#: (n_pool, width) with n_pool = w² - w + 1: Singer difference sets, PG(2, w - 1)
SINGER = [(13, 4), (21, 5), (31, 6), (57, 8)]
#: pools with no AG(2,q) or PG(2,q) geometry for their width
NON_DESIGN = [(20, 5), (24, 5), (24, 8), (30, 6), (36, 6), (40, 6), (60, 8),
              (100, 7), (120, 7), (120, 8), (128, 8)]


def _design(n_pool, width):
    """``(pass length, lines)`` of a design geometry."""
    if n_pool == width * width:
        return width * width + width, placement_map._affine_lines(n_pool, width)
    block = np.asarray(placement_map._sidon_block(n_pool, width))
    lines = (block[None, :] + np.arange(n_pool)[:, None]) % n_pool
    return n_pool, lines


def _pair_counts(pm):
    """``(n_pool, n_pool)`` stripes shared by each pair of disks."""
    inc = np.zeros((pm.n_stripes, pm.n_pool), dtype=np.int64)
    np.put_along_axis(inc, pm.table.astype(np.int64), 1, axis=1)
    return inc.T @ inc


def _differences(block, n_pool):
    return [(a - b) % n_pool for a in block for b in block if a != b]


DESIGNS = [(q * q, q) for q in AG_ORDERS] + SINGER


class TestConstruction:
    @pytest.mark.parametrize("q", AG_ORDERS)
    def test_affine_plane_when_pool_is_width_squared(self, q):
        pm = DeclusteredPlacement(q * q, 50, q)
        assert pm.construction == f"ag(2,{q})"
        assert pm.name == "declustered"

    @pytest.mark.parametrize("n_pool,width", SINGER + [(73, 9)])
    def test_singer_difference_set_on_projective_geometries(self, n_pool, width):
        pm = DeclusteredPlacement(n_pool, 50, width)
        assert pm.construction == "sidon"
        block = placement_map._sidon_block(n_pool, width)
        # perfect: every nonzero residue is a difference exactly once
        assert sorted(_differences(block, n_pool)) == list(range(1, n_pool))

    def test_57_8_block(self):
        assert placement_map._sidon_block(57, 8) == (0, 1, 3, 13, 32, 36, 43, 52)

    def test_other_prime_powers_fall_through(self):
        # q = 9 is neither prime nor a power of two
        assert placement_map._affine_lines(81, 9) is None
        assert DeclusteredPlacement(81, 50, 9).construction in ("sidon", "d3")

    def test_construction_is_read_only_and_defaults_to_name(self):
        pm = make_placement("flat", 24, 30, 4)
        assert pm.construction == "flat"
        assert make_placement("d3", 24, 30, 4).construction == "d3"
        with pytest.raises(AttributeError):
            pm.construction = "sidon"


class TestRoleRule:
    @pytest.mark.parametrize("n_pool,width", [(9, 3), (64, 8), (13, 4), (120, 8)])
    def test_role_l_of_stripe_s_sits_on_its_point(self, n_pool, width):
        n_lines, lines = _design(n_pool, width)
        n_stripes = 3 * n_lines + 5
        pm = DeclusteredPlacement(n_pool, n_stripes, width)
        s = np.arange(n_stripes)
        for role in range(width):
            point = (role + s // n_lines) % width
            assert np.array_equal(
                pm.disk_of_role(s, role), lines[s % n_lines, point]
            )

    @pytest.mark.parametrize("n_pool,width", DESIGNS)
    def test_every_disk_plays_every_role_equally_per_w_passes(self, n_pool, width):
        n_lines, _ = _design(n_pool, width)
        pm = DeclusteredPlacement(n_pool, width * n_lines, width)
        per_pass = n_lines * width // n_pool  # lines through each disk
        for disk in range(n_pool):
            _, roles = pm.roles_of_disk(disk)
            assert np.all(np.bincount(roles, minlength=width) == per_pass)


class TestPairBalance:
    @pytest.mark.parametrize("n_pool,width", DESIGNS)
    def test_every_pair_shares_one_stripe_per_pass(self, n_pool, width):
        n_lines, _ = _design(n_pool, width)
        passes = 3
        pm = DeclusteredPlacement(n_pool, passes * n_lines, width)
        pairs = _pair_counts(pm)
        assert np.all(pairs[~np.eye(n_pool, dtype=bool)] == passes)


class TestNonDesign:
    @pytest.mark.parametrize("n_pool,width", NON_DESIGN)
    def test_sidon_block_or_exactly_d3(self, n_pool, width):
        n_stripes = 2 * n_pool + 7
        pm = DeclusteredPlacement(n_pool, n_stripes, width)
        if pm.construction == "sidon":
            diffs = _differences(placement_map._sidon_block(n_pool, width), n_pool)
            assert len(set(diffs)) == len(diffs)
            # translates of a Sidon block share each pair at most once
            one_pass = DeclusteredPlacement(n_pool, n_pool, width)
            assert _pair_counts(one_pass)[~np.eye(n_pool, dtype=bool)].max() == 1
        else:
            assert pm.construction == "d3"
            assert np.array_equal(
                pm.table, D3Placement(n_pool, n_stripes, width).table
            )

    @pytest.mark.parametrize("n_pool,width", [(20, 5), (24, 8), (30, 6), (60, 8)])
    def test_geometries_without_a_block_take_d3(self, n_pool, width):
        assert placement_map._sidon_block(n_pool, width) is None
        assert DeclusteredPlacement(n_pool, 40, width).construction == "d3"

    def test_search_is_memoised(self, monkeypatch):
        calls = []
        search = placement_map._search_sidon

        def spy(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(placement_map, "_search_sidon", spy)
        placement_map._sidon_block.cache_clear()
        try:
            first = DeclusteredPlacement(57, 100, 8)
            second = DeclusteredPlacement(57, 300, 8)
        finally:
            placement_map._sidon_block.cache_clear()
        assert len(calls) == 1
        assert np.array_equal(first.table, second.table[:100])

    def test_search_gives_up_within_its_budget(self):
        assert placement_map._search_sidon(57, 8, 100) is None
        assert placement_map._search_sidon(57, 8, 10**6) is not None


def _survivor_ratio(family, n_disks, n_pool, n_stripes):
    """Worst over dead disks of max ÷ mean survivor rebuild reads."""
    code = make_code(family, n_disks)
    pm = DeclusteredPlacement(n_pool, n_stripes, code.layout.n_disks)
    engine = PoolRebuild(
        PoolStore(code, pm, element_size=1),
        planner=RecoveryPlanner(code, "u", depth=1),
        workers=1,
    )
    worst = 0.0
    for dead in range(n_pool):
        loads = engine.read_loads(dead)
        worst = max(worst, loads.max() / np.delete(loads, dead).mean())
    return worst


class TestSurvivorLoad:
    @pytest.mark.parametrize(
        "family,n_disks,n_pool,n_stripes",
        [("rdp", 8, 64, 4800), ("rdp", 8, 57, 4560), ("rdp", 7, 49, 2058)],
    )
    def test_max_within_ten_percent_of_mean(self, family, n_disks, n_pool, n_stripes):
        assert _survivor_ratio(family, n_disks, n_pool, n_stripes) <= 1.1


class TestRebuild:
    @pytest.mark.parametrize(
        "n_disks,n_pool,construction",
        [(7, 49, "ag(2,7)"), (8, 57, "sidon"), (8, 60, "d3")],
    )
    def test_rebuilds_byte_exact_and_bills_as_planned(
        self, n_disks, n_pool, construction
    ):
        code = make_code("rdp", n_disks)
        pm = make_placement("declustered", n_pool, 300, code.layout.n_disks)
        store = PoolStore(code, pm, element_size=8)
        store.encode_random(np.random.default_rng(5))
        engine = PoolRebuild(store, chunk_stripes=32, workers=1)
        for dead in (0, n_pool // 2, n_pool - 1):
            res = engine.rebuild(dead)
            assert res.mismatches == 0
            assert res.stats["construction"] == construction
            assert np.array_equal(res.reads_per_disk, engine.read_loads(dead))
