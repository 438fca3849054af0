"""The planner's kernel threads plan exactly what one thread plans.

``RecoveryPlanner.all_disk_schemes`` / ``all_data_disk_schemes`` search
their uncached disks on the shared :class:`~repro.runner.ChunkRunner`.
These tests pin that the schemes, read masks and search effort equal a
sequential ``scheme_for_disk`` loop on both engines, that a forked child
can plan after its parent did, and that one recording stays one span tree.
"""

import multiprocessing as mp

import pytest

from repro import obs
from repro.codes import make_code
from repro.recovery import RecoveryPlanner
from tests.legs import LEGS, leg_context

#: the families of the repository benchmark's plan-cold workload
FAMILIES = ("rdp", "evenodd", "blaum_roth", "liberation", "star")


def _signature(schemes):
    return [
        (s.failed_mask, s.equations, s.read_mask, s.search_stats["expanded"])
        for s in schemes
    ]


def _widths(leg):
    # the pure-Python engine takes seconds per 15- and 16-disk code
    return range(7, 17) if leg == "kernel" else range(7, 15)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("leg", LEGS)
def test_threaded_planner_equals_sequential(leg, family, threaded_runner):
    with leg_context(leg):
        for width in _widths(leg):
            code = make_code(family, width)
            seq = RecoveryPlanner(code, "u", depth=1)
            expected = [seq.scheme_for_disk(d) for d in range(code.layout.n_disks)]
            threaded = RecoveryPlanner(code, "u", depth=1)
            data = threaded.all_data_disk_schemes()
            assert _signature(data) == _signature(
                [expected[d] for d in code.layout.data_disks]
            ), f"{family}-{width} data disks"
            assert _signature(threaded.all_disk_schemes()) == _signature(
                expected
            ), f"{family}-{width}"


@pytest.mark.parametrize("algorithm", ["khan", "c", "naive", "conventional"])
def test_every_algorithm_plans_on_the_threads(algorithm, threaded_runner):
    code = make_code("rdp", 11)
    seq = RecoveryPlanner(code, algorithm, depth=1)
    expected = [seq.scheme_for_disk(d) for d in range(code.layout.n_disks)]
    threaded = RecoveryPlanner(code, algorithm, depth=1).all_disk_schemes()
    assert [(s.equations, s.read_mask) for s in threaded] == [
        (s.equations, s.read_mask) for s in expected
    ]


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs fork")
def test_forked_child_plans_after_threaded_planning(threaded_runner):
    parent = RecoveryPlanner(make_code("liberation", 12), "u", depth=1)
    parent.all_disk_schemes()  # the runner's threads now exist
    child_code = make_code("rdp", 11)
    expected = _signature(
        RecoveryPlanner(child_code, "u", depth=1).scheme_for_disk(d)
        for d in range(child_code.layout.n_disks)
    )

    def child():
        planned = RecoveryPlanner(child_code, "u", depth=1).all_disk_schemes()
        if _signature(planned) != expected:
            raise SystemExit(3)

    proc = mp.get_context("fork").Process(target=child, daemon=True)
    proc.start()
    proc.join(timeout=120)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("threaded planning hung in a forked child")
    assert proc.exitcode == 0
    # and the parent's threads still plan
    again = RecoveryPlanner(child_code, "u", depth=1).all_disk_schemes()
    assert _signature(again) == expected


def test_threaded_planning_records_one_span_tree(threaded_runner):
    """Searches on the kernel threads nest under the caller's open span."""
    from repro.equations import clear_enumeration_caches

    code = make_code("liberation", 12)
    clear_enumeration_caches()
    rec = obs.enable("threads")
    try:
        with obs.span("root"):
            RecoveryPlanner(code, "u", depth=1).all_disk_schemes()
    finally:
        obs.disable()
    spans = {s.span_id: s for s in rec.spans}
    assert len(spans) == len(rec.spans), "span ids are unique"
    roots = [s for s in rec.spans if s.parent_id is None]
    assert [s.name for s in roots] == ["root"]
    for s in rec.spans:
        if s.parent_id is not None:
            assert s.parent_id in spans, f"{s.name} has a dangling parent"
    generate = [s for s in rec.spans if s.name == "planner.generate"]
    assert sorted(s.attrs["disk"] for s in generate) == list(
        range(code.layout.n_disks)
    )
    assert {spans[s.parent_id].name for s in generate} == {"root"}
    for s in rec.spans:
        if s.name == "search.generate":
            assert spans[s.parent_id].name == "planner.generate"
