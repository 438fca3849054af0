"""Stress the UCS engine against brute force on random synthetic problems.

The engine's optimality argument (docs/algorithms.md §3) is exercised here
on randomly generated option sets — independent of any erasure code — for
all three cost keys.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import CodeLayout
from repro.equations.enumerate import EquationOption, RecoveryEquations
from repro.recovery.search import (
    conditional_cost,
    generate_scheme,
    khan_cost,
    unconditional_cost,
    weighted_cost,
)


def random_problem(rng: random.Random):
    """A random layout + per-slot option sets with consistent equations."""
    n_data = rng.randrange(2, 5)
    m = rng.randrange(1, 3)
    k = rng.randrange(1, 4)
    lay = CodeLayout(n_data, m, k)
    failed_disk = rng.randrange(n_data)
    failed_mask = lay.disk_mask(failed_disk)
    surviving = [
        e for e in range(lay.n_elements) if not (failed_mask >> e) & 1
    ]
    failed_eids = sorted(
        d * lay.k_rows + r for d, r in lay.iter_elements(failed_mask)
    )
    options = []
    recovered = 0
    for f in failed_eids:
        slot_opts = []
        for _ in range(rng.randrange(1, 4)):
            size = rng.randrange(1, min(6, len(surviving)) + 1)
            reads = rng.sample(surviving, size)
            read_mask = 0
            for e in reads:
                read_mask |= 1 << e
            # equation may consume earlier recovered failed elements
            extra_failed = recovered & rng.getrandbits(lay.n_elements)
            eq = read_mask | (1 << f) | extra_failed
            slot_opts.append(EquationOption(read_mask, eq))
        options.append(slot_opts)
        recovered |= 1 << f
    rec = RecoveryEquations(
        layout=lay,
        failed_mask=failed_mask,
        failed_eids=failed_eids,
        options=options,
        depth=1,
    )
    return lay, rec


def brute_force(lay, rec, key_fn):
    best = None
    for combo in itertools.product(*rec.options):
        mask = 0
        for opt in combo:
            mask |= opt.read_mask
        key = key_fn(mask)
        if best is None or key < best:
            best = key
    return best


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_engine_matches_bruteforce_all_keys(seed):
    rng = random.Random(seed)
    lay, rec = random_problem(rng)
    for factory in (khan_cost, conditional_cost, unconditional_cost):
        key_fn = factory(lay)
        expected = brute_force(lay, rec, key_fn)
        scheme = generate_scheme(rec, key_fn, "test")
        assert key_fn(scheme.read_mask) == expected


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_engine_matches_bruteforce_weighted(seed):
    rng = random.Random(seed)
    lay, rec = random_problem(rng)
    weights = [1.0 + rng.random() * 4 for _ in range(lay.n_disks)]
    key_fn = weighted_cost(lay, weights)
    expected = brute_force(lay, rec, key_fn)
    scheme = generate_scheme(rec, key_fn, "test")
    assert key_fn(scheme.read_mask) == expected
