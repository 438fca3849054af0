"""``Get_Rec_Equ``: per-failed-element recovery equation enumeration.

A *recovery equation* for failed element ``f`` is any member of the
calculation-equation space (row space of the parity-check matrix) that
contains ``f`` and otherwise touches only surviving elements — or failed
elements that are recovered *earlier* in the recovery order, which is the
iteration algorithm of Greenan et al. [10]: once an element is rebuilt in
memory it can feed later equations at zero read cost.

With failed elements processed in ascending element-id order ("sorted from
top to bottom in a stripe", paper Sec. V-A), an equation whose failed support
is ``{f_a, f_b, ...}`` is usable exactly when recovering its highest-labelled
member — so every combination equation is assigned to exactly one slot.

Preprocessing applied to every slot's candidate list:

* equations with identical surviving support collapse to one;
* dominated equations (surviving support a strict superset of another
  equation recovering the same element) are dropped — they can never beat
  the subset on either total reads or per-disk load;
* survivors are sorted by ``(support size, max disk touch)`` so the search
  pushes cheap, balanced extensions first and the first goal pops earlier.

Both the XOR-combination closure and the finished per-failure enumeration
are memoized (the closure per parity-equation set and depth, the enumeration
additionally per failed set), so repeated scheme generation — the planner's
per-disk fan-out, benchmark sweeps, all three algorithms on one failure —
derives each closure once per process.  Callers receive fresh copies and may
mutate them freely.  Both caches are safe to share between threads (the
planner enumerates on its kernel threads): every lookup and every insert
with its evictions holds one module lock.  The derivation itself runs
outside the lock, so two threads that miss on one key may both derive
it; the results are equal and the later insert wins.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.codes.base import ErasureCode
from repro.codes.layout import CodeLayout
from repro.equations.calc import combination_closure


@dataclass(frozen=True)
class EquationOption:
    """One way to recover one failed element.

    ``read_mask`` is the surviving-element support (what must be read);
    ``equation`` is the full calculation equation (surviving + failed
    members), which the codec needs to actually XOR the element back.
    """

    read_mask: int
    equation: int


@dataclass
class RecoveryEquations:
    """All recovery equations for a failure situation, slot by slot.

    ``failed_eids[i]`` is the i-th failed element (ascending); ``options[i]``
    are its usable equations, deduplicated and pruned of dominated read sets,
    sorted by read cost.
    """

    layout: CodeLayout
    failed_mask: int
    failed_eids: List[int]
    options: List[List[EquationOption]]
    depth: int

    @property
    def n_failed(self) -> int:
        return len(self.failed_eids)

    def is_complete(self) -> bool:
        """True iff every failed element has at least one recovery equation
        (a necessary condition for the search to find a scheme)."""
        return all(self.options)

    def validate(self) -> None:
        """Internal-consistency check used by tests."""
        recovered = 0
        for i, f in enumerate(self.failed_eids):
            fbit = 1 << f
            for opt in self.options[i]:
                if not opt.equation & fbit:
                    raise AssertionError(f"slot {i}: equation misses element {f}")
                illegal = opt.equation & self.failed_mask & ~(recovered | fbit)
                if illegal:
                    raise AssertionError(
                        f"slot {i}: equation touches not-yet-recovered failed "
                        f"elements {illegal:#x}"
                    )
                if opt.read_mask != opt.equation & ~self.failed_mask:
                    raise AssertionError(f"slot {i}: read_mask inconsistent")
            recovered |= fbit


def _dedupe_and_prune(
    raw: Dict[int, int], layout: Optional[CodeLayout] = None
) -> List[EquationOption]:
    """Collapse options by read mask and drop dominated (superset) reads.

    Candidates are processed in ascending support size, so any strict
    superset meets its dominating subset already-kept; the kept masks are
    bucketed by popcount because a strict subset necessarily has strictly
    fewer bits — buckets at or above the candidate's popcount are skipped.
    Survivors come out sorted by ``(support size, max disk touch)``:
    cheapest and most spread-out reads first.
    """
    if layout is not None:
        def sort_key(kv):
            return (kv[0].bit_count(), layout.max_load(kv[0]), kv[0])
    else:
        def sort_key(kv):
            return (kv[0].bit_count(), kv[0])
    ordered = sorted(raw.items(), key=sort_key)
    kept: List[EquationOption] = []
    kept_by_pc: Dict[int, List[int]] = {}
    for read_mask, equation in ordered:
        pc = read_mask.bit_count()
        dominated = False
        for p, masks in kept_by_pc.items():
            if p >= pc:
                continue
            if any(m & read_mask == m for m in masks):
                dominated = True
                break
        if not dominated:
            kept.append(EquationOption(read_mask, equation))
            kept_by_pc.setdefault(pc, []).append(read_mask)
    return kept


# ----------------------------------------------------------------------
# memoization
# ----------------------------------------------------------------------
def _env_limit(name: str, default: int) -> int:
    """Read a cache bound from the environment, falling back on nonsense."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 1 else default


_CLOSURE_CACHE: "OrderedDict[Tuple, List[int]]" = OrderedDict()
_CLOSURE_CACHE_MAX = _env_limit("REPRO_CLOSURE_CACHE_SIZE", 32)

_ENUM_CACHE: "OrderedDict[Tuple, RecoveryEquations]" = OrderedDict()
_ENUM_CACHE_MAX = _env_limit("REPRO_ENUM_CACHE_SIZE", 256)

#: guards both LRUs and their bounds (lookup + touch, insert + evict)
_CACHE_LOCK = threading.Lock()


def _renew_lock_after_fork() -> None:
    # a fork copies the lock in whatever state another thread left it
    global _CACHE_LOCK
    _CACHE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_lock_after_fork)


def _lru_get(cache: OrderedDict, key: Tuple):
    """``cache[key]`` marked most recently used, or ``None``."""
    with _CACHE_LOCK:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value


def _evict(cache: OrderedDict, limit: int) -> None:
    """Drop the oldest entries beyond ``limit`` (caller holds the lock)."""
    while len(cache) > limit:
        cache.popitem(last=False)


def set_enumeration_cache_limits(
    enum: Optional[int] = None, closure: Optional[int] = None
) -> Tuple[int, int]:
    """Re-bound the enumeration/closure LRUs; returns the new limits.

    Long multi-code sessions (benchmark sweeps, the rebuild service) can
    tune these down to cap memory or up to keep more codes warm.  Existing
    entries beyond a lowered bound are evicted oldest-first immediately.
    Defaults come from ``REPRO_ENUM_CACHE_SIZE`` /
    ``REPRO_CLOSURE_CACHE_SIZE`` at import time (256 / 32).
    """
    global _ENUM_CACHE_MAX, _CLOSURE_CACHE_MAX
    if enum is not None and enum < 1:
        raise ValueError(f"enum cache size must be >= 1, got {enum}")
    if closure is not None and closure < 1:
        raise ValueError(f"closure cache size must be >= 1, got {closure}")
    with _CACHE_LOCK:
        if enum is not None:
            _ENUM_CACHE_MAX = enum
            _evict(_ENUM_CACHE, enum)
        if closure is not None:
            _CLOSURE_CACHE_MAX = closure
            _evict(_CLOSURE_CACHE, closure)
    _publish_cache_sizes()
    return _ENUM_CACHE_MAX, _CLOSURE_CACHE_MAX


def enumeration_cache_info() -> Dict[str, int]:
    """Current sizes and bounds of both memoization caches."""
    return {
        "enum_entries": len(_ENUM_CACHE),
        "enum_max": _ENUM_CACHE_MAX,
        "closure_entries": len(_CLOSURE_CACHE),
        "closure_max": _CLOSURE_CACHE_MAX,
    }


def _publish_cache_sizes() -> None:
    obs.gauge("enum.cache_entries", len(_ENUM_CACHE))
    obs.gauge("enum.closure_cache_entries", len(_CLOSURE_CACHE))


def clear_enumeration_caches() -> None:
    """Drop the memoized closures and enumerations (tests, benchmarks)."""
    with _CACHE_LOCK:
        _CLOSURE_CACHE.clear()
        _ENUM_CACHE.clear()
    _publish_cache_sizes()


def _cached_closure(equations: Tuple[int, ...], depth: int) -> List[int]:
    """The XOR-combination closure as a list, memoized per (equations, depth).

    The closure depends only on the parity equations and the depth — not on
    the failed set — so one derivation serves every disk of a code and all
    three generator algorithms.
    """
    key = (equations, depth)
    cached = _lru_get(_CLOSURE_CACHE, key)
    if cached is not None:
        obs.count("enum.closure_cache_hit")
        return cached
    obs.count("enum.closure_cache_miss")
    with obs.span("enum.closure", depth=depth, n_equations=len(equations)):
        closure = list(combination_closure(equations, depth))
    obs.gauge("enum.closure_size", len(closure))
    with _CACHE_LOCK:
        _CLOSURE_CACHE[key] = closure
        _evict(_CLOSURE_CACHE, _CLOSURE_CACHE_MAX)
    _publish_cache_sizes()
    return closure


def _copy_rec_eqs(master: RecoveryEquations) -> RecoveryEquations:
    """A caller-mutable copy of a memoized enumeration.

    Outer and inner option lists are fresh (callers rotate, filter and
    replace them); the :class:`EquationOption` entries are frozen and safely
    shared.
    """
    return RecoveryEquations(
        layout=master.layout,
        failed_mask=master.failed_mask,
        failed_eids=list(master.failed_eids),
        options=[list(opts) for opts in master.options],
        depth=master.depth,
    )


def gaussian_recovery_equations(
    code: ErasureCode, failed_eids: List[int]
) -> List[Optional[int]]:
    """One guaranteed decoding equation per failed element, via elimination.

    For a recoverable failure the parity-check columns of the failed
    elements are independent, so for each failed element ``f_i`` there is a
    row-space combination whose failed support is exactly ``{f_i}`` — the
    classic matrix-method decoder [Hafner et al., FAST'05].  These equations
    may be dense (they ignore read cost), but they make the search's option
    sets complete for *any* recoverable failure, however deep the required
    substitution chain.

    Returns one equation mask per slot, or ``None`` for a slot whose element
    is not isolatable (failure not recoverable).
    """
    from repro.gf2 import BitMatrix
    from repro.gf2.linalg import solve

    h_rows = code.parity_equations()
    # B = transpose of H restricted to failed columns: |F| x mk
    b = BitMatrix(len(h_rows))
    for f in failed_eids:
        col = 0
        for i, row in enumerate(h_rows):
            col |= ((row >> f) & 1) << i
        b.rows.append(col)
    out: List[Optional[int]] = []
    for i in range(len(failed_eids)):
        y = solve(b, 1 << i)
        if y is None:
            out.append(None)
            continue
        eq = 0
        yy = y
        while yy:
            low = yy & -yy
            eq ^= h_rows[low.bit_length() - 1]
            yy ^= low
        out.append(eq)
    return out


def get_recovery_equations(
    code: ErasureCode,
    failed_mask: int,
    depth: int = 2,
    max_options_per_element: Optional[int] = None,
    ensure_complete: bool = False,
) -> RecoveryEquations:
    """Enumerate recovery equations for every failed element.

    Parameters
    ----------
    code:
        Any erasure code.
    failed_mask:
        Bitmask of failed elements (a whole disk via
        :meth:`~repro.codes.layout.CodeLayout.disk_mask`, or any set —
        Sec. V-D's "other failure situations").
    depth:
        Maximum number of original calculation equations XORed together.
        Depth 1 reproduces the direct row/diagonal recovery of classic array
        codes; 2-3 add substituted equations.
    max_options_per_element:
        Optional cap applied *after* dominance pruning, keeping the
        cheapest-read options.  ``None`` keeps everything.
    ensure_complete:
        Append a Gaussian-elimination decoding equation
        (:func:`gaussian_recovery_equations`) to any slot the bounded-depth
        enumeration left empty, so every *recoverable* failure gets a
        complete option set regardless of depth.

    The result is memoized per (parity equations, layout, failed set,
    depth, caps); hits return a fresh copy so callers may mutate options
    in place (degraded reads, escalation, greedy restarts all do).
    """
    lay = code.layout
    parity_eqs = tuple(code.parity_equations())
    cache_key = (
        parity_eqs,
        lay.n_data,
        lay.m_parity,
        lay.k_rows,
        failed_mask,
        depth,
        max_options_per_element,
        ensure_complete,
    )
    cached = _lru_get(_ENUM_CACHE, cache_key)
    if cached is not None:
        obs.count("enum.cache_hit")
        return _copy_rec_eqs(cached)
    obs.count("enum.cache_miss")
    with obs.span("enum.enumerate", depth=depth) as enum_span:
        failed_eids = sorted(
            d * lay.k_rows + r for d, r in lay.iter_elements(failed_mask)
        )
        slot_of = {f: i for i, f in enumerate(failed_eids)}
        per_slot: List[Dict[int, int]] = [dict() for _ in failed_eids]

        for eq in _cached_closure(parity_eqs, depth):
            fs = eq & failed_mask
            if not fs:
                continue
            # usable exactly when recovering the highest-labelled failed member
            slot = slot_of[fs.bit_length() - 1]
            read_mask = eq & ~failed_mask
            bucket = per_slot[slot]
            prev = bucket.get(read_mask)
            if prev is None:
                bucket[read_mask] = eq
        options = [_dedupe_and_prune(bucket, lay) for bucket in per_slot]
        if max_options_per_element is not None:
            options = [opts[:max_options_per_element] for opts in options]
        if ensure_complete and any(not opts for opts in options):
            fallback = gaussian_recovery_equations(code, failed_eids)
            for i, opts in enumerate(options):
                if not opts and fallback[i] is not None:
                    eq = fallback[i]
                    options[i] = [EquationOption(eq & ~failed_mask, eq)]
        enum_span.set(options_kept=sum(len(o) for o in options))
    master = RecoveryEquations(
        layout=lay,
        failed_mask=failed_mask,
        failed_eids=failed_eids,
        options=options,
        depth=depth,
    )
    with _CACHE_LOCK:
        _ENUM_CACHE[cache_key] = master
        _evict(_ENUM_CACHE, _ENUM_CACHE_MAX)
    _publish_cache_sizes()
    return _copy_rec_eqs(master)


def exhaustive_recovery_equations(
    code: ErasureCode,
    failed_mask: int,
    space_limit: int = 1 << 20,
) -> RecoveryEquations:
    """Enumerate the *entire* calculation-equation space (for validation).

    Exponential in ``m*k`` — guarded by ``space_limit`` and meant for the
    small codes in the test suite, where it certifies that the bounded-depth
    enumeration loses nothing that matters.
    """
    originals = code.parity_equations()
    n = len(originals)
    if 1 << n > space_limit:
        raise ValueError(
            f"full closure has 2^{n} members, over the limit {space_limit}"
        )
    lay = code.layout
    failed_eids = sorted(
        d * lay.k_rows + r for d, r in lay.iter_elements(failed_mask)
    )
    slot_of = {f: i for i, f in enumerate(failed_eids)}
    per_slot: List[Dict[int, int]] = [dict() for _ in failed_eids]
    # Gray-code walk of the row space: one XOR per step.
    acc = 0
    for g in range(1, 1 << n):
        acc ^= originals[(g & -g).bit_length() - 1]
        fs = acc & failed_mask
        if not fs:
            continue
        slot = slot_of[fs.bit_length() - 1]
        read_mask = acc & ~failed_mask
        per_slot[slot].setdefault(read_mask, acc)
    options = [_dedupe_and_prune(bucket, lay) for bucket in per_slot]
    return RecoveryEquations(
        layout=lay,
        failed_mask=failed_mask,
        failed_eids=failed_eids,
        options=options,
        depth=n,
    )
