"""Placement invariants under Hypothesis-driven pool geometries.

The ISSUE's property bar: every stripe's disks are distinct, the inverse
map round-trips, and declustered placement's rebuild-read spread beats
flat placement's max-per-disk load on random pools.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.placement import make_placement, rebuild_read_loads

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

strategy_names = st.sampled_from(["flat", "declustered", "d3", "random"])


@st.composite
def pool_geometry(draw):
    width = draw(st.integers(3, 9))
    n_pool = draw(st.integers(width, 200))
    n_stripes = draw(st.integers(1, 800))
    seed = draw(st.integers(0, 2**16))
    return n_pool, n_stripes, width, seed


@given(name=strategy_names, geom=pool_geometry())
@settings(**SETTINGS)
def test_every_stripe_uses_distinct_disks(name, geom):
    n_pool, n_stripes, width, seed = geom
    pm = make_placement(name, n_pool, n_stripes, width, seed=seed)
    table = pm.table
    assert table.shape == (n_stripes, width)
    assert table.min() >= 0 and table.max() < n_pool
    # PlacementMap validates this on construction; re-check from outside
    srt = np.sort(table, axis=1)
    assert not np.any(srt[:, 1:] == srt[:, :-1])


@given(name=strategy_names, geom=pool_geometry())
@settings(**SETTINGS)
def test_inverse_map_round_trips(name, geom):
    n_pool, n_stripes, width, seed = geom
    pm = make_placement(name, n_pool, n_stripes, width, seed=seed)
    total = 0
    for disk in {0, n_pool // 2, n_pool - 1}:
        stripes, roles = pm.roles_of_disk(disk)
        assert np.all(pm.disk_of_role(stripes, roles) == disk)
        total += len(stripes)
    # forward direction agrees: membership count matches bincount
    counts = pm.stripes_per_disk()
    assert total == sum(int(counts[d]) for d in {0, n_pool // 2, n_pool - 1})


@given(name=strategy_names, geom=pool_geometry(), data=st.data())
@settings(**SETTINGS)
def test_slots_and_roles_are_inverse_permutations(name, geom, data):
    n_pool, n_stripes, width, seed = geom
    pm = make_placement(name, n_pool, n_stripes, width, seed=seed)
    s = data.draw(st.integers(0, n_stripes - 1), label="stripe")
    hosts = [int(pm.disk_of_role(s, r)) for r in range(width)]
    # the per-stripe rotation is a bijection role <-> slot
    assert sorted(hosts) == sorted(pm.disks_for_stripe(s).tolist())


@st.composite
def spread_case(draw):
    width = draw(st.integers(4, 8))
    # enough groups and stripes that flat's concentration is unambiguous
    n_pool = draw(st.integers(8 * width, 240))
    n_stripes = draw(st.integers(40 * width, 4000))
    dead = draw(st.integers(0, (n_pool // width) * width - 1))
    return width, n_pool, n_stripes, dead


@given(case=spread_case())
# fewer stripes than pool disks: the cyclic declustered map leaves disk
# 167 without a stripe, while flat's disk 167 still holds some
@example(case=(4, 168, 160, 167))
@settings(**SETTINGS)
def test_declustered_spread_beats_flat_on_random_pools(case):
    width, n_pool, n_stripes, dead = case
    flat = make_placement("flat", n_pool, n_stripes, width)
    dec = make_placement("declustered", n_pool, n_stripes, width)
    loads = {r: [1] * r + [0] + [1] * (width - r - 1) for r in range(width)}
    f, d = (
        rebuild_read_loads(pm, dead, [
            (role, ids, SimpleNamespace(loads=loads[role]))
            for role, ids in pm.role_groups(dead)
        ])
        for pm in (flat, dec)
    )
    if f.max() == 0:
        return  # dead disk held no stripes; nothing to spread
    if dec.stripes_per_disk()[dead] == 0:
        # the same premise on the declustered side: nothing to rebuild
        assert d.sum() == 0
        return
    assert d.max() < f.max()
    # and declustering recruits strictly more survivors
    assert (d > 0).sum() >= (f > 0).sum()
