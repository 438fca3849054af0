"""The one algorithm table: every entry point resolves a name through it.

``repro.recovery.ualgorithm.ALGORITHMS`` is the only place that turns an
algorithm name into a generator and a cost key.  These tests plan every
name through every entry point that takes one, pin the key each searched
path hands the engine, and pin the CLI's ``--algorithm`` choices.
"""

import argparse

import pytest

import repro.recovery.degraded_read as degraded_mod
import repro.recovery.escalation as escalation_mod
from repro.cli import build_parser
from repro.codes import make_code
from repro.recovery import (
    ALGORITHMS,
    RecoveryPlanner,
    degraded_read_scheme,
    escalated_scheme,
    greedy_scheme,
    recover_failure,
    scheme_for_disk,
    scheme_for_mask,
)
from repro.recovery.search import ConditionalCost, KhanCost, UnconditionalCost
from repro.recovery.ualgorithm import SEARCHED

BASELINES = [n for n in ALGORITHMS if n not in SEARCHED]

#: the key each name's searched plans run with; a baseline escalates and
#: serves degraded reads with U's
EXPECTED_COST = {
    "naive": UnconditionalCost,
    "conventional": UnconditionalCost,
    "khan": KhanCost,
    "c": ConditionalCost,
    "u": UnconditionalCost,
}


@pytest.fixture(scope="module")
def rdp7():
    return make_code("rdp", 7)


def test_table_names():
    assert list(ALGORITHMS) == ["naive", "conventional", "khan", "c", "u"]
    assert SEARCHED == ("khan", "c", "u")
    assert BASELINES == ["naive", "conventional"]
    assert set(EXPECTED_COST) == set(ALGORITHMS)


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_every_name_plans_through_planner_disk_and_mask_entries(rdp7, name):
    lay = rdp7.layout
    disk = scheme_for_disk(rdp7, 2, name, depth=1)
    planned = RecoveryPlanner(rdp7, algorithm=name, depth=1).scheme_for_disk(2)
    masked = scheme_for_mask(rdp7, lay.disk_mask(2), name, depth=1)
    assert disk.algorithm == planned.algorithm == masked.algorithm == name
    assert planned.equations == disk.equations
    assert masked.equations == disk.equations
    disk.validate(rdp7)


@pytest.mark.parametrize("name", SEARCHED)
def test_every_searched_name_plans_through_every_search_entry(rdp7, name):
    lay = rdp7.layout
    exact = scheme_for_mask(rdp7, lay.disk_mask(0), name, depth=1)
    multi = recover_failure(rdp7, lay.disk_mask(0), name, depth=1)
    assert multi.algorithm == name
    assert (multi.total_reads, multi.max_load) == (
        exact.total_reads, exact.max_load
    )
    assert greedy_scheme(rdp7, 0, name).algorithm == f"greedy_{name}"
    assert (
        escalated_scheme(rdp7, 0, [0, 1], 3, algorithm=name).algorithm
        == f"escalated_{name}"
    )
    assert (
        degraded_read_scheme(rdp7, 0, [1], algorithm=name).algorithm
        == f"degraded_{name}"
    )


@pytest.mark.parametrize("name", BASELINES)
def test_baselines_do_not_search(rdp7, name):
    with pytest.raises(ValueError, match="does not search"):
        recover_failure(rdp7, rdp7.layout.disk_mask(0), name)
    with pytest.raises(ValueError, match="does not search"):
        greedy_scheme(rdp7, 0, name)
    # ... but their escalations and degraded reads are searched, as U
    assert escalated_scheme(rdp7, 0, [0], 3, algorithm=name).algorithm == (
        "escalated_u"
    )
    assert degraded_read_scheme(rdp7, 0, [1], algorithm=name).algorithm == (
        "degraded_u"
    )


def test_baselines_ignore_depth(rdp7):
    for name in BASELINES:
        assert (
            scheme_for_disk(rdp7, 1, name, depth=3).equations
            == scheme_for_disk(rdp7, 1, name).equations
        )


@pytest.mark.parametrize("name", list(ALGORITHMS))
def test_escalation_and_degraded_read_search_with_the_tables_key(
    rdp7, name, monkeypatch
):
    """C escalations and C degraded reads run C's key, not Khan's."""
    seen = []
    for mod in (escalation_mod, degraded_mod):
        real = mod.generate_scheme

        def spy(rec_eqs, cost_fn, algorithm, max_expansions, _real=real):
            seen.append((type(cost_fn), algorithm))
            return _real(rec_eqs, cost_fn, algorithm, max_expansions)

        monkeypatch.setattr(mod, "generate_scheme", spy)
    escalated_scheme(rdp7, 0, [0], 3, algorithm=name)
    degraded_read_scheme(rdp7, 0, [1], algorithm=name)
    label = name if name in SEARCHED else "u"
    assert seen == [
        (EXPECTED_COST[name], f"escalated_{label}"),
        (EXPECTED_COST[name], f"degraded_{label}"),
    ]


UNKNOWN = "unknown algorithm 'zzz'; choose from " + str(sorted(ALGORITHMS))

ENTRIES = {
    "scheme_for_disk": lambda code: scheme_for_disk(code, 0, "zzz"),
    "scheme_for_mask": lambda code: scheme_for_mask(
        code, code.layout.disk_mask(0), "zzz"
    ),
    "planner": lambda code: RecoveryPlanner(code, algorithm="zzz"),
    "recover_failure": lambda code: recover_failure(
        code, code.layout.disk_mask(0), "zzz"
    ),
    "greedy": lambda code: greedy_scheme(code, 0, "zzz"),
    "escalated": lambda code: escalated_scheme(code, 0, [], 3, algorithm="zzz"),
    "degraded": lambda code: degraded_read_scheme(code, 0, [0], algorithm="zzz"),
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_unknown_name_raises_one_error_listing_the_choices(rdp7, entry):
    with pytest.raises(ValueError) as info:
        ENTRIES[entry](rdp7)
    assert str(info.value) == UNKNOWN


class TestWeights:
    def weights(self, code):
        w = [1.0] * code.layout.n_disks
        w[3] = 10.0
        return w

    @pytest.mark.parametrize("name", ["khan", "c"])
    def test_recover_failure_rejects_weights_outside_u(self, rdp7, name):
        with pytest.raises(ValueError, match="weights apply to algorithm 'u'"):
            recover_failure(
                rdp7, rdp7.layout.disk_mask(0), name, weights=self.weights(rdp7)
            )

    @pytest.mark.parametrize("name", ["naive", "conventional", "khan", "c"])
    def test_entries_reject_weights_outside_u(self, rdp7, name):
        with pytest.raises(ValueError, match="weights apply to algorithm 'u'"):
            scheme_for_mask(
                rdp7, rdp7.layout.disk_mask(0), name, weights=self.weights(rdp7)
            )
        with pytest.raises(ValueError, match="weights apply to algorithm 'u'"):
            scheme_for_disk(rdp7, 0, name, weights=self.weights(rdp7))

    def test_one_label_for_weighted_u(self, rdp7):
        mask = rdp7.layout.disk_mask(0)
        w = self.weights(rdp7)
        via_mask = scheme_for_mask(rdp7, mask, "u", weights=w)
        via_multi = recover_failure(rdp7, mask, "u", weights=w)
        assert via_mask.algorithm == via_multi.algorithm == "u_weighted"
        assert via_mask.equations == via_multi.equations


def _cli_algorithm_choices():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: action.choices
        for name, sp in sub.choices.items()
        for action in sp._actions
        if "--algorithm" in action.option_strings
    }


def test_cli_algorithm_choices_come_from_the_table():
    choices = _cli_algorithm_choices()
    for name, values in choices.items():
        assert set(values) <= set(ALGORITHMS), name
    every = ["naive", "conventional", "khan", "c", "u"]
    assert choices == {
        "scheme": every,
        "degraded": ["khan", "u"],
        "recover": every,
        "rebuild": every,
        "serve": ["khan", "c", "u"],
        "trace": every,
    }
