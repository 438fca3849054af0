"""Both rebuild entry points on worker threads: threaded == inline, and the
failure paths — a kernel error names its chunk, drains the chunks in
flight and leaves the engine usable, and a forked child gets threads of
its own."""

import multiprocessing as mp
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import ArrayImageCodec, BatchReconstructor
from repro.codes import EvenOddCode, RdpCode, make_code
from repro.pipeline import PoolRebuild, RebuildPipeline
from repro.placement import PoolStore, make_placement
from repro.recovery import RecoveryPlanner
from repro.topology import Topology, TopologyAwarePlanner

from tests.legs import LEGS, leg_context
from tests.strategies import small_codes

#: 3 racks x 2 machines x 2 disks: 12 leaves
_TOPO = Topology(racks=3, machines_per_rack=2, disks_per_machine=2)
#: long enough that a rebuild that hangs fails instead
_TIMEOUT_S = 60


# ----------------------------------------------------------------------
# the two entry points, each with the chunk a kernel call belongs to
# ----------------------------------------------------------------------
def _first_stripes(engine, dead, chunk_stripes):
    """Each chunk's first stripe -> its chunk id (stripes are per group)."""
    firsts = [
        int(ids[lo])
        for _, ids, _ in engine.stripe_groups(dead)
        for lo in range(0, len(ids), chunk_stripes)
    ]
    return {s: i for i, s in enumerate(firsts)}


class ArrayCase:
    """A threaded :class:`RebuildPipeline` over an ``rdp``-7 image."""

    label = "pipeline"
    CHUNK = 2

    def __init__(self):
        code = make_code("rdp", 7)
        self.codec = ArrayImageCodec(code, element_size=16, n_stripes=42)
        self.disks = self.codec.encode_image(
            self.codec.random_image(np.random.default_rng(5))
        )
        self.failed = 3
        self.delivered = []
        self.remake(workers=2, chunk_stripes=self.CHUNK)
        self._chunk_of = _first_stripes(self.engine, self.failed, self.CHUNK)
        self.n_chunks = len(self._chunk_of)

    def chunk_of(self, stripes, out, stripe_ids):
        return self._chunk_of[int(stripe_ids[0])]

    def remake(self, **kwargs):
        self.engine = RebuildPipeline(
            self.codec,
            on_chunk=lambda chunk, rows: self.delivered.append(chunk.chunk_id),
            **kwargs,
        )

    def rebuild(self):
        return self.engine.rebuild(self.disks, self.failed)

    def exact(self, result):
        return (result.stats["mode"] == "pipeline"
                and np.array_equal(result.image, self.disks[self.failed]))


class PoolCase:
    """A threaded :class:`PoolRebuild` over a declustered 24-disk pool."""

    label = "pool rebuild"
    CHUNK = 8

    def __init__(self):
        code = RdpCode(5)
        pm = make_placement("declustered", 24, 400, code.layout.n_disks, seed=1)
        self.store = PoolStore(code, pm, element_size=16)
        self.store.encode_random(np.random.default_rng(1))
        self.dead = 4
        self.delivered = []
        self.remake(workers=2, chunk_stripes=self.CHUNK)
        self._chunk_of = _first_stripes(self.engine, self.dead, self.CHUNK)
        self.n_chunks = len(self._chunk_of)
        self.n_affected = int(self.store.placement.stripes_per_disk()[self.dead])

    def chunk_of(self, stripes, out, stripe_ids):
        return self._chunk_of[int(stripe_ids[0])]

    def remake(self, **kwargs):
        self.engine = PoolRebuild(self.store, **kwargs)

    def rebuild(self):
        return self.engine.rebuild(self.dead)

    def exact(self, result):
        return result.ok and len(result.stripe_ids) == self.n_affected


ENGINES = [pytest.param(ArrayCase, id="array"), pytest.param(PoolCase, id="pool")]


class PoisonedKernel:
    """``recover_batch_into`` that fails on one chunk while armed.

    Every call sleeps a little first, so the chunks around the poisoned
    one are still running when it fails, and the calls in progress are
    counted so a test can see whether any is left running.
    """

    def __init__(self, monkeypatch, case, target, delay_s=0.01):
        real = BatchReconstructor.recover_batch_into
        self.armed = True
        self.lock = threading.Lock()
        self.running = 0
        self.started = 0

        def patched(recon, stripes, out, stripe_ids=None, **kwargs):
            with self.lock:
                self.running += 1
                self.started += 1
            try:
                time.sleep(delay_s)
                if self.armed and case.chunk_of(stripes, out, stripe_ids) == target:
                    raise ValueError("poisoned kernel")
                return real(recon, stripes, out, stripe_ids, **kwargs)
            finally:
                with self.lock:
                    self.running -= 1

        monkeypatch.setattr(BatchReconstructor, "recover_batch_into", patched)


def _run_with_timeout(fn):
    """``fn()``'s result or exception, failing the test if it hangs."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as exc:  # inspected by the caller
            box["error"] = exc

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=_TIMEOUT_S)
    assert not runner.is_alive(), "rebuild hung"
    return box


# ----------------------------------------------------------------------
# failure paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make_case", ENGINES)
class TestWorkerFailure:
    TARGET = 3

    def test_kernel_error_names_the_chunk_and_drains(self, monkeypatch, make_case):
        case = make_case()
        assert case.n_chunks > 2 * self.TARGET
        poison = PoisonedKernel(monkeypatch, case, self.TARGET)
        box = _run_with_timeout(case.rebuild)
        err = box.get("error")
        assert isinstance(err, RuntimeError), box
        assert (f"{case.label} worker failed on chunk {self.TARGET}: "
                f"ValueError('poisoned kernel')") in str(err)
        assert isinstance(err.__cause__, ValueError)
        # drained: nothing was running when the error reached the caller,
        # and nothing starts afterwards
        assert poison.running == 0
        started = poison.started
        assert self.TARGET < started < case.n_chunks
        time.sleep(0.1)
        assert poison.started == started
        if case.delivered:  # the chunks before it were delivered in order
            assert case.delivered == list(range(self.TARGET))

    def test_next_rebuild_is_byte_exact(self, monkeypatch, make_case):
        case = make_case()
        poison = PoisonedKernel(monkeypatch, case, self.TARGET)
        assert isinstance(_run_with_timeout(case.rebuild).get("error"),
                          RuntimeError)
        poison.armed = False
        case.delivered.clear()
        box = _run_with_timeout(case.rebuild)
        assert "error" not in box, box
        assert case.exact(box["result"])


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="needs fork")
@pytest.mark.parametrize("make_case", ENGINES)
def test_forked_child_runs_its_own_threaded_rebuild(make_case):
    case = make_case()
    assert case.exact(case.rebuild())  # the parent's threads now exist

    def child():
        # the same engine: its thread pool came through fork, its
        # threads did not
        if not case.exact(case.rebuild()):
            raise SystemExit(3)

    proc = mp.get_context("fork").Process(target=child, daemon=True)
    proc.start()
    proc.join(timeout=_TIMEOUT_S)
    if proc.is_alive():
        proc.kill()
        proc.join()
        pytest.fail("threaded rebuild hung in a forked child")
    assert proc.exitcode == 0
    assert case.exact(case.rebuild())  # and the parent's pool still works


@pytest.mark.parametrize("make_case", ENGINES)
def test_many_threads_fast_switching_stay_exact(make_case):
    """More threads than cores, one-stripe chunks and a tiny switch
    interval: a lost scatter or billing update would break exactness."""
    case = make_case()
    reference = case.rebuild()
    case.remake(chunk_stripes=1, workers=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        box = _run_with_timeout(lambda: [case.rebuild() for _ in range(3)])
    finally:
        sys.setswitchinterval(interval)
    assert "error" not in box, box
    for result in box["result"]:
        assert case.exact(result)
        assert np.array_equal(result.reads_per_disk, reference.reads_per_disk)


# ----------------------------------------------------------------------
# identity: threaded == inline, on both kernel legs
# ----------------------------------------------------------------------
@st.composite
def array_case(draw):
    code = draw(small_codes)
    return {
        "code": code,
        "n_stripes": draw(st.integers(1, 40)),
        "element_size": draw(st.sampled_from([1, 8, 24])),
        "chunk": draw(st.integers(1, 9)),
        "workers": draw(st.sampled_from([0, 1, 2, 3])),
        "failed": draw(st.integers(0, code.layout.n_disks - 1)),
        "seed": draw(st.integers(0, 2**16)),
    }


def _array_run(case, planner, workers, disks):
    throttled, delivered = [], []
    pipe = RebuildPipeline(
        ArrayImageCodec(case["code"], element_size=case["element_size"],
                        n_stripes=case["n_stripes"]),
        workers=workers, chunk_stripes=case["chunk"], planner=planner,
        throttle=lambda chunk: throttled.append(chunk.chunk_id),
        on_chunk=lambda chunk, rows: delivered.append(
            (chunk.chunk_id, chunk.stripe_ids.tolist(), rows.copy())
        ),
    )
    return pipe.rebuild(disks, case["failed"]), throttled, delivered


@pytest.mark.parametrize("leg", LEGS)
@settings(max_examples=30, deadline=None)
@given(case=array_case())
def test_threaded_pipeline_equals_inline(leg, case):
    codec = ArrayImageCodec(case["code"], element_size=case["element_size"],
                            n_stripes=case["n_stripes"])
    disks = codec.encode_image(
        codec.random_image(np.random.default_rng(case["seed"]))
    )
    planner = RecoveryPlanner(case["code"], "u", depth=1)
    with leg_context(leg):
        ref, ref_throttled, ref_delivered = _array_run(case, planner, 0, disks)
        got, throttled, delivered = _array_run(case, planner, case["workers"],
                                               disks)
    n_chunks = ref.stats["chunks"]
    threaded = case["workers"] >= 2 and n_chunks >= 2
    assert got.stats["mode"] == ("pipeline" if threaded else "inline-batch")
    assert np.array_equal(ref.image, disks[case["failed"]])
    assert np.array_equal(got.image, ref.image)
    assert np.array_equal(got.reads_per_disk, ref.reads_per_disk)
    assert throttled == ref_throttled == list(range(n_chunks))
    assert [d[0] for d in delivered] == list(range(n_chunks))
    assert [d[:2] for d in delivered] == [d[:2] for d in ref_delivered]
    for (_, _, rows), (_, _, ref_rows) in zip(delivered, ref_delivered):
        assert np.array_equal(rows, ref_rows)


@st.composite
def pool_case(draw):
    code = draw(st.sampled_from([RdpCode(5), EvenOddCode(5), RdpCode(7)]))
    width = code.layout.n_disks
    name = draw(st.sampled_from(["flat", "declustered", "random", "rack_aware"]))
    with_topology = name == "rack_aware" or draw(st.booleans())
    n_pool = _TOPO.n_disks if with_topology else draw(st.integers(width, 20))
    return {
        "code": code,
        "name": name,
        "n_pool": n_pool,
        "topology": _TOPO if with_topology else None,
        "aware": with_topology and draw(st.booleans()),
        "n_stripes": draw(st.integers(1, 120)),
        "element_size": draw(st.sampled_from([1, 8, 24])),
        "chunk": draw(st.sampled_from([1, 3, 7, 256])),
        "workers": draw(st.sampled_from([0, 1, 2, 3])),
        "dead": draw(st.integers(0, n_pool - 1)),
        # corrupt one stored byte so the mismatch counts are compared too
        "flip": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


@pytest.mark.parametrize("leg", LEGS)
@settings(max_examples=30, deadline=None)
@given(case=pool_case())
def test_threaded_pool_rebuild_equals_inline(leg, case):
    code = case["code"]
    pm = make_placement(
        case["name"], case["n_pool"], case["n_stripes"], code.layout.n_disks,
        seed=case["seed"], topology=case["topology"],
    )
    store = PoolStore(code, pm, element_size=case["element_size"])
    store.encode_random(np.random.default_rng(case["seed"]))
    if case["flip"]:
        rng = np.random.default_rng(case["seed"] + 1)
        store.stripes[rng.integers(case["n_stripes"]),
                      rng.integers(code.layout.n_elements), 0] ^= 0xFF
    planner = RecoveryPlanner(code, "u", depth=1)
    topo_planner = (TopologyAwarePlanner(code, case["topology"])
                    if case["aware"] else None)

    def run(workers):
        throttled = []
        engine = PoolRebuild(
            store, chunk_stripes=case["chunk"], planner=planner,
            topo_planner=topo_planner,
            throttle=lambda chunk: throttled.append(chunk.stripe_ids),
            workers=workers,
        )
        return engine.rebuild(case["dead"]), throttled

    with leg_context(leg):
        ref, ref_throttled = run(0)
        got, throttled = run(case["workers"])
    assert np.array_equal(got.stripe_ids, ref.stripe_ids)
    assert np.array_equal(got.rows, ref.rows)
    assert np.array_equal(got.reads_per_disk, ref.reads_per_disk)
    assert got.mismatches == ref.mismatches
    assert got.stats["chunks"] == ref.stats["chunks"] == len(ref_throttled)
    assert [t.tolist() for t in throttled] == [t.tolist() for t in ref_throttled]
    if case["topology"] is None:
        assert got.link_loads is None and ref.link_loads is None
    else:
        for level in ("disk_reads", "machine_reads", "rack_reads"):
            assert np.array_equal(getattr(got.link_loads, level),
                                  getattr(ref.link_loads, level)), level
