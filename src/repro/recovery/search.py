"""The unified scheme-generation search engine.

All three generators of the paper are uniform-cost searches over the same
state space — ``(slot, read_mask)`` where ``slot`` counts recovered failed
elements and ``read_mask`` accumulates the surviving elements read — and
differ only in the **cost key**:

==============  =============================  ==============================
algorithm       key                            meaning
==============  =============================  ==============================
Khan (FAST'12)  ``(total,)``                   min total read, arbitrary tie
C-Algorithm     ``(total, max_load)``          min total, tie-break balance
U-Algorithm     ``(max_load, total)``          min max load, tie-break total
heterogeneous   ``(max_wload, total_wload)``   Sec. V-D weighted variant
==============  =============================  ==============================

Both coordinates are monotone non-decreasing under set union, so plain UCS
pops goals in optimal lexicographic order: the first complete state popped is
the algorithm's answer.  The U-Algorithm's bucketed ``rec_list[r]`` traversal
(paper Algorithm 1 + the Sec. IV-B tie-break revision) is exactly UCS on
``(max_load, total)``.  This engine keeps its frontier in a binary heap of
``(key, state id)``; the compiled kernel (:mod:`repro.recovery.ckernel`)
keeps the explicit sublists, one FIFO bucket per key, which pop in the
same order.

Cost evaluation is *incremental*: every cost key is a :class:`CostModel`
carrying a per-state summary (total reads, per-disk load vector packed into
one integer, running max) and folding in only the bits an equation *newly*
contributes — ``O(new elements)`` per successor via a precomputed
element-to-disk shift table, instead of the former ``O(n_disks)``
re-popcount of every k-bit disk window of the whole mask.  Integer-valued
models additionally pack their lexicographic key into a single int
(``total << b | max_load``), which makes heap comparisons cheap.

Termination uses an *early-goal cutoff*: the engine tracks the best
``(key, push order)`` goal state pushed so far and stops as soon as no
frontier state has a strictly smaller key.  This returns the **same scheme**
UCS would return by popping the goal — every state that could still lead to
a better or earlier-pushed goal has been expanded — while skipping the
expansion of the optimal-cost plateau behind it, which for tie-rich keys
(Khan totals, U max-loads) is a large fraction of the graph.

Pruning (the paper keeps Khan's pruning and adds none):

* *incumbent bound* — once a goal is pushed, a successor whose key is no
  better than the best goal's is not pushed (``pruned_bound``): the cutoff
  above fires before such a state could be popped, so dropping it changes
  neither the scheme nor the expansions, only the frontier's size;
* *closed set* — a ``read_mask`` revisited at the same slot is dropped.
  Every cost key is a function of the read mask alone, so a revisit can
  never carry a better key than the first visit: the closed set is a plain
  set of the ``(slot, read_mask)`` pairs pushed, each pair is pushed at
  most once, and the frontier never holds a stale entry;
* *state budget* — the problem is NP-hard (Sec. II-B); an optional budget
  bounds worst-case blowup.  When exhausted, the best frontier state is
  completed greedily and the scheme is flagged ``exact=False``.

Search effort is recorded in a :class:`SearchStats` attached to every
returned scheme's ``metadata["search_stats"]`` — expansions, pushes, prune
counters, peak frontier size and wall time — so performance work measures
instead of guessing (``benchmarks/bench_search_perf.py`` tracks the numbers
over time; see docs/performance.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.codes.layout import CodeLayout
from repro.equations.enumerate import RecoveryEquations
from repro.recovery import ckernel
from repro.recovery.scheme import RecoveryScheme

#: a cost key: maps a read mask to a lexicographic tuple (monotone in mask)
CostFn = Callable[[int], Tuple]


class CostModel:
    """A monotone cost key with incremental evaluation.

    Subclasses define three hooks the engine drives:

    * :meth:`initial` — the summary state and internal key of the empty
      read set;
    * :meth:`extend` — fold newly read bits (``add``, disjoint from the
      current mask; ``new_mask`` is the resulting union) into a summary
      state, returning the successor state and its internal key;
    * :meth:`key_of_mask` — the *public* lexicographic key of an arbitrary
      mask, used by the budget-exhausted greedy completion and for backward
      compatibility (instances are callable, like the plain cost functions
      they replaced).

    Internal keys need not be tuples — they only need a total order
    consistent with :meth:`key_of_mask`; the integer models pack both
    lexicographic coordinates into one int.  ``total_only`` marks models
    whose key is exactly the read total; the engine folds those inline
    (one popcount per successor, no method call).
    """

    total_only = False

    def __call__(self, mask: int) -> Tuple:
        return self.key_of_mask(mask)

    def key_of_mask(self, mask: int) -> Tuple:
        raise NotImplementedError

    def initial(self) -> Tuple[object, object]:
        raise NotImplementedError

    def extend(self, state, add: int, new_mask: int) -> Tuple[object, object]:
        raise NotImplementedError


@lru_cache(maxsize=None)
def _window_tables(k: int, n_elements: int) -> Tuple[Tuple[int, ...], ...]:
    """Per-element (disk window, complement) masks at global positions.

    ``win[eid]`` covers every element of ``eid``'s disk, so the disk's load
    in a mask is ``(mask & win[eid]).bit_count()`` — no shifting — and
    ``add &= notwin[eid]`` retires all of a disk's bits at once.  Memoised
    per geometry: a planning pass builds hundreds of cost models over a
    few dozen layouts.
    """
    window = (1 << k) - 1
    win = tuple(window << ((eid // k) * k) for eid in range(n_elements))
    return win, tuple(~w for w in win)


class KhanCost(CostModel):
    """Minimize total read volume only (ties broken by pop order)."""

    total_only = True

    def __init__(self, layout: CodeLayout) -> None:
        self.layout = layout

    def key_of_mask(self, mask: int) -> Tuple:
        return (mask.bit_count(),)

    def initial(self):
        return 0, 0  # state == key == total reads

    def extend(self, state, add, new_mask):
        total = state + add.bit_count()
        return total, total


class ConditionalCost(CostModel):
    """Minimal total read first, then minimal max per-disk load."""

    def __init__(self, layout: CodeLayout) -> None:
        self.layout = layout
        self._win, self._notwin = _window_tables(
            layout.k_rows, layout.n_elements
        )
        self._bits = max(layout.n_elements.bit_length(), 1)

    def key_of_mask(self, mask: int) -> Tuple:
        return (mask.bit_count(), self.layout.max_load(mask))

    def initial(self):
        return (0, 0), 0  # state: (total reads, max per-disk load)

    def extend(self, state, add, new_mask):
        # Untouched disks keep their load <= mx, so the new max only needs
        # the loads of the disks `add` touches — counted straight off
        # new_mask through the per-disk window, one disk per iteration.
        total, mx = state
        total += add.bit_count()
        win = self._win
        notwin = self._notwin
        while add:
            i = add.bit_length() - 1
            c = (new_mask & win[i]).bit_count()
            if c > mx:
                mx = c
            add &= notwin[i]
        return (total, mx), (total << self._bits) | mx


class UnconditionalCost(ConditionalCost):
    """Minimal max per-disk load first, then minimal total read."""

    def key_of_mask(self, mask: int) -> Tuple:
        return (self.layout.max_load(mask), mask.bit_count())

    def extend(self, state, add, new_mask):
        total, mx = state
        total += add.bit_count()
        win = self._win
        notwin = self._notwin
        while add:
            i = add.bit_length() - 1
            c = (new_mask & win[i]).bit_count()
            if c > mx:
                mx = c
            add &= notwin[i]
        return (total, mx), (mx << self._bits) | total


class WeightedCost(CostModel):
    """Heterogeneous U-Algorithm: per-disk read costs (Sec. V-D)."""

    def __init__(self, layout: CodeLayout, weights: Sequence[float]) -> None:
        if len(weights) != layout.n_disks:
            raise ValueError(
                f"need {layout.n_disks} weights, got {len(weights)}"
            )
        self.layout = layout
        self.weights = list(weights)
        k = layout.k_rows
        self._shift8 = [8 * (eid // k) for eid in range(layout.n_elements)]

    def _fold(self, packed: int) -> Tuple[float, float]:
        # ascending-disk accumulation, same float ops as the mask-based key
        best = 0.0
        total = 0.0
        w = self.weights
        d = 0
        while packed:
            c = packed & 255
            if c:
                cost = c * w[d]
                total += cost
                if cost > best:
                    best = cost
            packed >>= 8
            d += 1
        return (best, total)

    def key_of_mask(self, mask: int) -> Tuple:
        packed = 0
        for d, load in enumerate(self.layout.loads(mask)):
            packed |= load << (8 * d)
        return self._fold(packed)

    def initial(self):
        return 0, (0.0, 0.0)  # state: packed per-disk loads

    def extend(self, state, add, new_mask):
        packed = state
        shift8 = self._shift8
        while add:
            low = add & -add
            add ^= low
            packed += 1 << shift8[low.bit_length() - 1]
        return packed, self._fold(packed)


#: exact model types the compiled kernel understands (subclasses excluded:
#: they may override key semantics the kernel would not honour)
_CKERNEL_KINDS = {
    KhanCost: ckernel.KIND_KHAN,
    ConditionalCost: ckernel.KIND_CONDITIONAL,
    UnconditionalCost: ckernel.KIND_UNCONDITIONAL,
}


def khan_cost(layout: CodeLayout) -> CostModel:
    """Minimize total read volume only (ties broken by pop order)."""
    return KhanCost(layout)


def conditional_cost(layout: CodeLayout) -> CostModel:
    """Minimal total read first, then minimal max per-disk load."""
    return ConditionalCost(layout)


def unconditional_cost(layout: CodeLayout) -> CostModel:
    """Minimal max per-disk load first, then minimal total read."""
    return UnconditionalCost(layout)


def weighted_cost(layout: CodeLayout, weights: Sequence[float]) -> CostModel:
    """Heterogeneous U-Algorithm: per-disk read costs (Sec. V-D)."""
    return WeightedCost(layout, weights)


@dataclass
class SearchStats:
    """Effort counters for Sec. V-B style running-time analysis.

    Attached to every generated scheme under ``metadata["search_stats"]``
    (as a plain dict, so plans JSON-serialise) and surfaced by the CLI.
    """

    algorithm: str = ""
    expanded: int = 0            #: states popped and expanded
    pushed: int = 0              #: successor states pushed on the frontier
    pruned_closed: int = 0       #: successors dropped by the closed set
    pruned_bound: int = 0        #: successors no better than the best goal
    peak_frontier: int = 0       #: largest frontier size reached
    bucket_transitions: int = 0  #: frontier-key (rec_list bucket) advances;
                                 #: tracked only while tracing is enabled
    wall_time_s: float = 0.0     #: wall-clock time of the whole search
    budget_exhausted: bool = False

    def publish(self, rec: "obs.Recorder") -> None:
        """Fold these counters into an :mod:`repro.obs` recorder.

        This is the bridge that unifies the engine's ad-hoc counters with
        the process-wide metrics stream: every traced search accumulates
        into the same ``search.*`` counter family.
        """
        rec.count("search.runs")
        rec.count("search.expanded", self.expanded)
        rec.count("search.pushed", self.pushed)
        rec.count("search.pruned_closed", self.pruned_closed)
        rec.count("search.pruned_bound", self.pruned_bound)
        rec.count("search.bucket_transitions", self.bucket_transitions)
        if self.budget_exhausted:
            rec.count("search.budget_exhausted")
        rec.gauge("search.peak_frontier", self.peak_frontier)

    def to_dict(self) -> Dict:
        return dict(vars(self))  # scalar fields only: a shallow copy is a copy

    def summary(self) -> str:
        return (
            f"expanded={self.expanded} pushed={self.pushed} "
            f"pruned_closed={self.pruned_closed} "
            f"pruned_bound={self.pruned_bound} "
            f"peak_frontier={self.peak_frontier} "
            f"wall={self.wall_time_s * 1e3:.2f}ms"
            + (" budget_exhausted" if self.budget_exhausted else "")
        )


def generate_scheme(
    rec_eqs: RecoveryEquations,
    cost_fn: CostModel,
    algorithm: str,
    max_expansions: Optional[int] = 2_000_000,
) -> RecoveryScheme:
    """Run the unified UCS and return the winning scheme.

    Parameters
    ----------
    rec_eqs:
        Output of :func:`repro.equations.get_recovery_equations`.
    cost_fn:
        A :class:`CostModel` (one of the cost factories above), evaluated
        incrementally; anything else raises :class:`TypeError`.
    algorithm:
        Label recorded on the scheme.
    max_expansions:
        State budget; ``None`` for unlimited.

    With an :mod:`repro.obs` recorder enabled, the run is wrapped in a
    ``search.generate`` span, its :class:`SearchStats` accumulate into the
    ``search.*`` counters, and the engine additionally tracks frontier-key
    bucket transitions (the paper's ``rec_list[r]`` sublist advances).
    """
    if not isinstance(cost_fn, CostModel):
        raise TypeError(
            f"cost_fn must be a CostModel, got {type(cost_fn).__name__}"
        )
    recorder = obs.get_recorder()
    if recorder is None:
        return _generate_scheme(rec_eqs, cost_fn, algorithm, max_expansions)
    with recorder.span(
        "search.generate", algorithm=algorithm, n_failed=rec_eqs.n_failed
    ):
        return _generate_scheme(rec_eqs, cost_fn, algorithm, max_expansions)


def _generate_scheme(
    rec_eqs: RecoveryEquations,
    model: CostModel,
    algorithm: str,
    max_expansions: Optional[int],
) -> RecoveryScheme:
    """The engine proper (see :func:`generate_scheme`)."""
    t_start = time.perf_counter()
    trace_on = obs.enabled()
    if not rec_eqs.is_complete():
        missing = [
            rec_eqs.failed_eids[i]
            for i, opts in enumerate(rec_eqs.options)
            if not opts
        ]
        raise ValueError(
            f"no recovery equations for elements {missing}; raise the "
            "enumeration depth or check recoverability"
        )
    n_slots = rec_eqs.n_failed
    stats = SearchStats(algorithm=algorithm)

    # per-slot option pairs (read_mask, equation), engine-local
    slot_opts: List[List[Tuple[int, int]]] = [
        [(opt.read_mask, opt.equation) for opt in opts]
        for opts in rec_eqs.options
    ]

    # integer-key models run on the compiled kernel when one is available; it mirrors the loop below exactly and
    # returns the byte-identical scheme (see _ucs.c), so falling through
    # to the Python engine is always safe.
    ckind = _CKERNEL_KINDS.get(type(model))
    if ckind is not None and n_slots > 0:
        lay = model.layout
        res = ckernel.run(
            slot_opts, lay.n_disks, lay.k_rows, ckind, max_expansions
        )
        if res is not None:
            chain_idx, counters = res
            equations = []
            goal_mask = 0
            for slot, oi in enumerate(chain_idx):
                rm, eq = slot_opts[slot][oi]
                equations.append(eq)
                goal_mask |= rm
            for name, value in counters.items():
                setattr(stats, name, value)
            stats.wall_time_s = time.perf_counter() - t_start
            if trace_on:
                obs.count("search.ckernel_runs")
                stats.publish(obs.get_recorder())
            return RecoveryScheme(
                layout=rec_eqs.layout,
                failed_mask=rec_eqs.failed_mask,
                failed_eids=list(rec_eqs.failed_eids),
                equations=equations,
                read_mask=goal_mask,
                algorithm=algorithm,
                exact=True,
                expanded_states=stats.expanded,
                metadata={"search_stats": stats.to_dict()},
            )

    init_state, init_key = model.initial()
    extend = model.extend

    # one tuple per state id: (slot, mask, parent, equation, cost state)
    states: List[Tuple[int, int, int, int, object]] = [
        (0, 0, -1, 0, init_state)
    ]
    heap: List[Tuple] = [(init_key, 0)]
    closed: List[set] = [set() for _ in range(n_slots + 1)]

    goal_id = -1
    frontier_sid = 0
    best_goal_key = None  # earliest-pushed goal at the smallest key
    best_goal_sid = -1
    budget_left = max_expansions if max_expansions is not None else float("inf")
    expanded = pushed = pruned_closed = pruned_bound = 0
    peak_frontier = 1
    bucket_transitions = 0
    last_popped_key = init_key
    n_states = 1
    total_only = model.total_only
    states_append = states.append

    while heap:
        if best_goal_key is not None and best_goal_key <= heap[0][0]:
            # early-goal cutoff: no frontier state can reach a better key,
            # and later-pushed equal-key goals never outrank this one — this
            # is exactly the goal plain UCS would pop first.
            goal_id = best_goal_sid
            break
        key, sid = heappop(heap)
        if trace_on and key != last_popped_key:
            # the frontier advanced to a new cost bucket — the moment the
            # paper's Algorithm 1 moves to the next rec_list[r] sublist
            bucket_transitions += 1
            last_popped_key = key
        slot, mask, _, _, cstate = states[sid]
        if slot == n_slots:
            goal_id = sid
            break
        expanded += 1
        budget_left -= 1
        if budget_left < 0:
            stats.budget_exhausted = True
            frontier_sid = sid
            break
        nmask = ~mask
        new_slot = slot + 1
        is_goal_slot = new_slot == n_slots
        cl = closed[new_slot]
        for rm, eq in slot_opts[slot]:
            add = rm & nmask
            if add:
                new_mask = mask | add
                if total_only:
                    new_state = new_key = cstate + add.bit_count()
                else:
                    new_state, new_key = extend(cstate, add, new_mask)
            else:
                new_mask = mask
                new_state, new_key = cstate, key
            if best_goal_key is not None and new_key >= best_goal_key:
                pruned_bound += 1  # never popped before the cutoff
                continue
            if new_mask in cl:
                pruned_closed += 1
                continue
            cl.add(new_mask)
            states_append((new_slot, new_mask, sid, eq, new_state))
            heappush(heap, (new_key, n_states))
            if is_goal_slot:  # past the bound: a strictly better goal
                best_goal_key = new_key
                best_goal_sid = n_states
            n_states += 1
            pushed += 1
        lh = len(heap)
        if lh > peak_frontier:
            peak_frontier = lh

    stats.expanded = expanded
    stats.pushed = pushed
    stats.pruned_closed = pruned_closed
    stats.pruned_bound = pruned_bound
    stats.peak_frontier = peak_frontier
    stats.bucket_transitions = bucket_transitions

    exact = True
    if goal_id < 0:
        if not stats.budget_exhausted:
            raise ValueError("search exhausted without covering all failed elements")
        # greedy completion from the best frontier state
        exact = False
        key_of_mask = model.key_of_mask
        sid = frontier_sid
        while states[sid][0] < n_slots:
            slot, mask = states[sid][0], states[sid][1]
            best_key = None
            best_rm = best_eq = 0
            for rm, eq in slot_opts[slot]:
                k = key_of_mask(mask | rm)
                if best_key is None or k < best_key:
                    best_key, best_rm, best_eq = k, rm, eq
            states_append((slot + 1, mask | best_rm, sid, best_eq, None))
            sid = len(states) - 1
        goal_id = sid

    chain: List[int] = []
    sid = goal_id
    goal_mask = states[goal_id][1]
    while states[sid][2] >= 0:
        chain.append(states[sid][3])
        sid = states[sid][2]
    chain.reverse()

    stats.wall_time_s = time.perf_counter() - t_start
    if trace_on:
        stats.publish(obs.get_recorder())
    return RecoveryScheme(
        layout=rec_eqs.layout,
        failed_mask=rec_eqs.failed_mask,
        failed_eids=list(rec_eqs.failed_eids),
        equations=chain,
        read_mask=goal_mask,
        algorithm=algorithm,
        exact=exact,
        expanded_states=stats.expanded,
        metadata={"search_stats": stats.to_dict()},
    )
