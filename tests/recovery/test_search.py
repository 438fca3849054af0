"""Tests for the unified UCS engine and cost functions."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import CodeLayout, RdpCode, make_code
from repro.equations import get_recovery_equations
from repro.equations.enumerate import EquationOption, RecoveryEquations
from repro.recovery import ckernel
from repro.recovery.search import (
    SearchStats,
    conditional_cost,
    generate_scheme,
    khan_cost,
    unconditional_cost,
    weighted_cost,
)
from tests.legs import pure_python


def tiny_problem():
    """Two failed elements on a 4-disk, 2-row layout with hand-built options.

    Slot 0: either read disk1 rows {0,1} (2 reads, concentrated) or read
    disk1 row 0 + disk2 row 0 (2 reads, spread).
    Slot 1: read disk3 row 1 (1 read).
    The spread choice yields max load 1; the concentrated one max load 2;
    both read 3 elements in total.
    """
    lay = CodeLayout(3, 1, 2)

    def m(*pairs):
        return lay.element_mask(pairs)

    failed = lay.disk_mask(0)
    # equations carry the failed bit; read mask excludes it
    opt_a = EquationOption(m((1, 0), (1, 1)), m((0, 0), (1, 0), (1, 1)))
    opt_b = EquationOption(m((1, 0), (2, 0)), m((0, 0), (1, 0), (2, 0)))
    opt_c = EquationOption(m((3, 1)), m((0, 1), (3, 1)))
    return lay, RecoveryEquations(
        layout=lay,
        failed_mask=failed,
        failed_eids=[lay.eid(0, 0), lay.eid(0, 1)],
        options=[[opt_a, opt_b], [opt_c]],
        depth=1,
    )


class TestCostFunctions:
    def test_khan_cost_counts_total(self):
        lay = CodeLayout(2, 1, 2)
        assert khan_cost(lay)(0b1011) == (3,)

    def test_conditional_orders_total_first(self):
        lay = CodeLayout(2, 1, 2)
        key = conditional_cost(lay)
        assert key(lay.disk_mask(0)) == (2, 2)

    def test_unconditional_orders_maxload_first(self):
        lay = CodeLayout(2, 1, 2)
        key = unconditional_cost(lay)
        assert key(lay.disk_mask(0)) == (2, 2)
        spread = lay.element_mask([(0, 0), (1, 0)])
        assert key(spread) == (1, 2)

    def test_weighted_cost_validates_length(self):
        lay = CodeLayout(2, 1, 2)
        with pytest.raises(ValueError):
            weighted_cost(lay, [1.0])

    def test_weighted_cost_scales(self):
        lay = CodeLayout(2, 1, 2)  # 3 disks total
        key = weighted_cost(lay, [1.0, 5.0, 1.0])
        mask = lay.element_mask([(1, 0)])
        assert key(mask) == (5.0, 5.0)


class TestEngine:
    def test_khan_picks_min_total(self):
        lay, rec = tiny_problem()
        s = generate_scheme(rec, khan_cost(lay), "khan")
        assert s.total_reads == 3

    def test_unconditional_prefers_spread(self):
        lay, rec = tiny_problem()
        s = generate_scheme(rec, unconditional_cost(lay), "u")
        assert s.max_load == 1
        assert s.loads == [0, 1, 1, 1]

    def test_conditional_total_equals_khan(self):
        lay, rec = tiny_problem()
        k = generate_scheme(rec, khan_cost(lay), "khan")
        c = generate_scheme(rec, conditional_cost(lay), "c")
        assert c.total_reads == k.total_reads
        assert c.max_load <= k.max_load

    def test_missing_options_raises(self):
        lay, rec = tiny_problem()
        rec.options[1] = []
        with pytest.raises(ValueError, match="no recovery equations"):
            generate_scheme(rec, khan_cost(lay), "khan")

    def test_bare_callable_cost_rejected(self):
        lay, rec = tiny_problem()
        with pytest.raises(TypeError, match="CostModel"):
            generate_scheme(rec, lambda mask: (mask.bit_count(),), "khan")

    def test_stats_recorded_on_scheme(self):
        lay, rec = tiny_problem()
        s = generate_scheme(rec, khan_cost(lay), "khan")
        assert s.expanded_states >= 1
        assert s.exact

    def test_budget_triggers_greedy_completion(self):
        code = RdpCode(7)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        s = generate_scheme(rec, khan_cost(code.layout), "khan", max_expansions=2)
        assert not s.exact
        assert len(s.equations) == rec.n_failed
        s.validate(code)

    def test_budget_greedy_not_far_from_exact(self):
        code = RdpCode(7)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        exact = generate_scheme(rec, khan_cost(code.layout), "khan")
        budgeted = generate_scheme(
            rec, khan_cost(code.layout), "khan", max_expansions=5
        )
        assert budgeted.total_reads <= exact.total_reads * 2

    def test_lexicographic_optimality_vs_bruteforce(self):
        """Exhaustively enumerate all option combinations on a small code and
        confirm UCS returns the lexicographic optimum for each cost."""
        import itertools

        code = RdpCode(5)
        lay = code.layout
        rec = get_recovery_equations(code, lay.disk_mask(0), depth=1)
        combos = itertools.product(*rec.options)
        best_khan = None
        best_c = None
        best_u = None
        for combo in combos:
            mask = 0
            for opt in combo:
                mask |= opt.read_mask
            total, maxl = mask.bit_count(), lay.max_load(mask)
            best_khan = min(best_khan, (total,)) if best_khan else (total,)
            best_c = min(best_c, (total, maxl)) if best_c else (total, maxl)
            best_u = min(best_u, (maxl, total)) if best_u else (maxl, total)
        k = generate_scheme(rec, khan_cost(lay), "khan")
        c = generate_scheme(rec, conditional_cost(lay), "c")
        u = generate_scheme(rec, unconditional_cost(lay), "u")
        assert (k.total_reads,) == best_khan
        assert (c.total_reads, c.max_load) == best_c
        assert (u.max_load, u.total_reads) == best_u


class TestIncrementalCostModels:
    """The incremental extend() path must agree with key_of_mask()."""

    @pytest.mark.parametrize(
        "factory", [khan_cost, conditional_cost, unconditional_cost]
    )
    def test_extend_consistent_with_key_of_mask(self, factory):
        lay = CodeLayout(4, 2, 3)
        model = factory(lay)
        masks = [
            0b101,
            0b110001,
            0b111000111,
            lay.disk_mask(3),
            lay.disk_mask(1) | 0b1,
            lay.element_mask([(0, 0), (1, 0), (2, 0), (5, 2)]),
        ]

        def internal_key(mask):
            # fold bit by bit — a different increment order than one shot
            state, key = model.initial()
            seen = 0
            while mask:
                low = mask & -mask
                mask ^= low
                seen |= low
                state, key = model.extend(state, low, seen)
            return key

        # incremental keys must be path-independent...
        for m in masks:
            state0, _ = model.initial()
            _, one_shot = model.extend(state0, m, m)
            assert internal_key(m) == one_shot
        # ...and order masks exactly as the public lexicographic key does
        by_internal = sorted(masks, key=internal_key)
        by_public = sorted(masks, key=model.key_of_mask)
        assert [model.key_of_mask(m) for m in by_internal] == [
            model.key_of_mask(m) for m in by_public
        ]

    def test_weighted_extend_matches_fold(self):
        lay = CodeLayout(3, 1, 2)
        model = weighted_cost(lay, [1.0, 2.0, 0.5, 3.0])
        mask = lay.element_mask([(0, 0), (1, 0), (1, 1), (3, 1)])
        state, key = model.initial()
        state, key = model.extend(state, mask, mask)
        assert key == model.key_of_mask(mask)


class TestSearchStatsMetadata:
    def test_scheme_carries_populated_stats(self):
        code = RdpCode(7)
        rec = get_recovery_equations(code, code.layout.disk_mask(0), depth=1)
        s = generate_scheme(rec, conditional_cost(code.layout), "c")
        stats = s.search_stats
        assert stats is not None
        assert stats["algorithm"] == "c"
        assert stats["expanded"] >= 1
        assert stats["pushed"] >= stats["expanded"]
        assert stats["peak_frontier"] >= 1
        assert stats["wall_time_s"] > 0
        assert s.expanded_states == stats["expanded"]

    def test_stats_summary_renders(self):
        stats = SearchStats(algorithm="u", expanded=10, pushed=20)
        text = stats.summary()
        assert "expanded=10" in text and "pushed=20" in text

    def test_stats_serialise_with_plan(self, tmp_path):
        from repro.recovery.plancache import SchemePlanCache
        from repro.recovery.planner import RecoveryPlanner

        code = RdpCode(5)
        path = tmp_path / "plan.json"
        planner = RecoveryPlanner(
            code, "u", depth=1, plan_cache=SchemePlanCache(path)
        )
        planner.scheme_for_disk(0)
        store = SchemePlanCache(path)
        fresh = RecoveryPlanner(code, "u", depth=1, plan_cache=store)
        assert fresh.scheme_for_disk(0).search_stats is not None
        assert store.hits == 1


#: effort counters the kernel reports and must agree on with the Python engine
COUNTERS = ("expanded", "pushed", "pruned_closed", "pruned_bound", "peak_frontier")

#: (n_disks, k_rows): 63, 64, 65, 128, 129 and 512 elements — mask widths
#: just under, at and just over word boundaries, and the kernel's cap; the
#: 4 x 128 geometry has disk windows wider than a word
GEOMETRIES = [(7, 9), (8, 8), (5, 13), (4, 32), (3, 43), (16, 32), (4, 128)]

KINDS = {
    "khan": (khan_cost, ckernel.KIND_KHAN),
    "c": (conditional_cost, ckernel.KIND_CONDITIONAL),
    "u": (unconditional_cost, ckernel.KIND_UNCONDITIONAL),
}


class TestCompiledKernel:
    """The C kernel must be bit-for-bit equivalent to the Python engine."""

    @pytest.fixture(autouse=True)
    def _require_kernel(self):
        if not ckernel.available():
            pytest.skip("no C compiler available; pure-Python mode")

    @pytest.mark.parametrize("family,n", [("rdp", 9), ("evenodd", 8), ("star", 8)])
    @pytest.mark.parametrize(
        "factory,alg",
        [(khan_cost, "khan"), (conditional_cost, "c"), (unconditional_cost, "u")],
    )
    def test_matches_pure_python(self, monkeypatch, family, n, factory, alg):
        code = make_code(family, n)
        lay = code.layout
        rec = get_recovery_equations(code, lay.disk_mask(0), depth=1)
        compiled = generate_scheme(rec, factory(lay), alg)
        monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
        monkeypatch.setattr(ckernel, "_lib", None)
        monkeypatch.setattr(ckernel, "_load_attempted", True)
        pure = generate_scheme(rec, factory(lay), alg)
        monkeypatch.setattr(ckernel, "_load_attempted", False)
        assert compiled.read_mask == pure.read_mask
        assert compiled.equations == pure.equations
        cs, ps = compiled.search_stats, pure.search_stats
        for field in COUNTERS:
            assert cs[field] == ps[field], field


def reference_search(rec, model, max_expansions):
    """The engine loop as it stood before the incumbent bound.

    A binary heap of ``(key, state id)``, a closed dict keyed by mask that
    remembers the best key pushed, the pop-time stale-entry probe, no
    bound, and the same greedy completion when the budget runs out.
    Returns ``(equations, read_mask, expanded, exact)``.
    """
    n_slots = rec.n_failed
    slot_opts = [[(o.read_mask, o.equation) for o in opts] for opts in rec.options]
    init_state, init_key = model.initial()
    states = [(0, 0, -1, 0, init_state)]
    heap = [(init_key, 0)]
    closed = [dict() for _ in range(n_slots + 1)]
    goal_id = frontier_sid = -1
    best_goal_key = None
    best_goal_sid = -1
    budget_left = float("inf") if max_expansions is None else max_expansions
    expanded = 0
    while heap:
        if best_goal_key is not None and best_goal_key <= heap[0][0]:
            goal_id = best_goal_sid
            break
        key, sid = heappop(heap)
        slot, mask, _, _, cstate = states[sid]
        prev = closed[slot].get(mask)
        if prev is not None and prev < key:
            continue
        if slot == n_slots:
            goal_id = sid
            break
        expanded += 1
        budget_left -= 1
        if budget_left < 0:
            frontier_sid = sid
            break
        cl = closed[slot + 1]
        for rm, eq in slot_opts[slot]:
            add = rm & ~mask
            if add:
                new_mask = mask | add
                new_state, new_key = model.extend(cstate, add, new_mask)
            else:
                new_mask, new_state, new_key = mask, cstate, key
            seen = cl.get(new_mask)
            if seen is not None and seen <= new_key:
                continue
            cl[new_mask] = new_key
            states.append((slot + 1, new_mask, sid, eq, new_state))
            heappush(heap, (new_key, len(states) - 1))
            if slot + 1 == n_slots and (
                best_goal_key is None or new_key < best_goal_key
            ):
                best_goal_key, best_goal_sid = new_key, len(states) - 1
    exact = goal_id >= 0
    if not exact:
        sid = frontier_sid
        while states[sid][0] < n_slots:
            slot, mask = states[sid][0], states[sid][1]
            best = None
            for rm, eq in slot_opts[slot]:
                k = model.key_of_mask(mask | rm)
                if best is None or k < best[0]:
                    best = (k, rm, eq)
            states.append((slot + 1, mask | best[1], sid, best[2], None))
            sid = len(states) - 1
        goal_id = sid
    chain = []
    sid = goal_id
    while states[sid][2] >= 0:
        chain.append(states[sid][3])
        sid = states[sid][2]
    return chain[::-1], states[goal_id][1], expanded, exact


@st.composite
def option_tables(draw):
    """A random search problem: geometry, per-slot read masks, kind, budget.

    Option bits come from a small per-problem pool, biased towards word
    boundaries, so options overlap, revisit masks and add no new bits.
    """
    n_disks, k_rows = draw(st.sampled_from(GEOMETRIES))
    n_el = n_disks * k_rows
    edges = [b for b in (0, 1, 62, 63, 64, 65, 127, 128, 129, 511) if b < n_el]
    bit = st.one_of(st.sampled_from(edges), st.integers(0, n_el - 1))
    pool = draw(st.lists(bit, min_size=1, max_size=16, unique=True))
    option = st.lists(st.sampled_from(pool), max_size=5).map(
        lambda bits: sum(1 << b for b in set(bits))
    )
    n_slots = draw(st.integers(1, 20))
    table = [
        draw(st.lists(option, min_size=1, max_size=4)) for _ in range(n_slots)
    ]
    kind = draw(st.sampled_from(sorted(KINDS)))
    budget = draw(st.one_of(st.just(20_000), st.integers(0, 40)))
    return n_disks, k_rows, table, kind, budget


class TestBoundedSearchIdentity:
    """Bound, plain closed set and bucket queue change no scheme.

    On random option tables the compiled kernel and the Python engine
    agree on the scheme and every counter, and both return the scheme and
    expansion count of the pre-bound reference loop above.
    """

    @settings(max_examples=150, deadline=None)
    @given(option_tables())
    def test_kernel_engine_and_reference_agree(self, problem):
        assert_identical_searches(*problem)

    @pytest.mark.parametrize("n_disks,k_rows", [(16, 32), (3, 43), (4, 128)])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_wide_frontier(self, n_disks, k_rows, kind):
        """Single-bit options, all distinct: 4**6 states at the last slot
        before the goals, enough to grow the kernel's closed table."""
        n_el = n_disks * k_rows
        table = [[1 << ((s * 4 + o) * 37 % n_el) for o in range(4)] for s in range(7)]
        stats = assert_identical_searches(n_disks, k_rows, table, kind, None)
        assert stats["pushed"] > 3000 and stats["pruned_bound"] > 0

    @pytest.mark.parametrize("n_disks,k_rows", [(16, 32), (3, 43)])
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_wide_frontier_with_revisits(self, n_disks, k_rows, kind):
        """Single-bit options from a pool of 20 shared by 12 slots: the
        closed set grows and prunes thousands of revisited masks."""
        n_el = n_disks * k_rows
        pos = [b * 37 % n_el for b in range(20)]
        table = [[1 << pos[(s * 5 + o * 3) % 20] for o in range(4)] for s in range(12)]
        stats = assert_identical_searches(n_disks, k_rows, table, kind, None)
        assert stats["pushed"] > 3000 and stats["pruned_closed"] > 1000


def assert_identical_searches(n_disks, k_rows, table, kind, budget):
    """Run one option table on all three searches and compare them.

    Returns the Python engine's search stats.
    """
    lay = CodeLayout(n_disks - 1, 1, k_rows)
    n_slots = len(table)
    # equation ids name (slot, option) so the chosen options compare
    rec = RecoveryEquations(
        layout=lay,
        failed_mask=(1 << n_slots) - 1,
        failed_eids=list(range(n_slots)),
        options=[
            [EquationOption(rm, slot << 8 | oi) for oi, rm in enumerate(opts)]
            for slot, opts in enumerate(table)
        ],
        depth=1,
    )
    factory, ckind = KINDS[kind]
    with pure_python():
        py = generate_scheme(rec, factory(lay), kind, max_expansions=budget)
    ref_eqs, ref_mask, ref_expanded, ref_exact = reference_search(
        rec, factory(lay), budget
    )
    assert py.equations == ref_eqs
    assert py.read_mask == ref_mask
    assert py.expanded_states == ref_expanded
    assert py.exact == ref_exact

    if ckernel.available():
        slot_opts = [[(o.read_mask, o.equation) for o in opts] for opts in rec.options]
        res = ckernel.run(slot_opts, n_disks, k_rows, ckind, budget)
        if not py.exact:
            assert res is None  # the Python engine owns greedy completion
        else:
            chain, counters = res
            assert [slot << 8 | oi for slot, oi in enumerate(chain)] == ref_eqs
            for field in COUNTERS:
                assert counters[field] == py.search_stats[field], field
    return py.search_stats
