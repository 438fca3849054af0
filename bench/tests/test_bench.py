"""Self-tests of the benchmark: ``pytest bench/tests -q`` from the repo root."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import tracer as tracing  # noqa: E402


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )


def test_smoke_runs_every_workload_and_emits_every_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t0 = time.perf_counter()
    proc = _run("--smoke", "--trace", "1", "--out", str(tmp_path))
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # every workload twice (untraced, then traced), each in its own process
    assert elapsed < 60, f"smoke took {elapsed:.1f}s"
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    seen = set()
    for path in tmp_path.glob("*.json"):
        rec = json.loads(path.read_text())
        seen.add((rec["workload"], rec["traced"]))
        metrics = rec["result"]["metrics"]
        assert {k: m["unit"] for k, m in metrics.items()} == wanted[rec["traced"]]
        assert rec["result"]["correct"] and rec["result"]["failed"] == 0
        assert set(rec["env"]) >= {"nproc", "python", "numpy", "xor_kernel",
                                   "REPRO_PURE_PYTHON", "git_commit"}
        if rec["traced"]:
            assert metrics["trace.attributed_share"]["value"] > 0.9
    names = {w["name"] for w in spec["workloads"]}
    assert seen == {(w, t) for w in names for t in (False, True)}
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_flipped_survivor_byte_fails_array_rebuild():
    proc = _run("--workload", "array-rebuild", "--smoke", "--seconds", "0.5",
                "--flip-byte")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0 and not result["correct"]
    assert "FAILED rebuild" in proc.stderr


def _session_members(sid: int) -> list:
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[3]) == sid:  # stat field 6, the session id
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_no_process_outlives_a_run():
    # the pipeline's shared memory starts a resource-tracker process
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "array-rebuild",
         "--smoke", "--seconds", "0.5"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_subtracts_only_same_thread_children(tmp_path):
    wall, cpu = _FakeClock(), _FakeClock()
    tr = tracing.Tracer(tmp_path, clock=wall, cpu_clock=cpu)

    def at(t: float) -> None:
        wall.t, cpu.t = t, t / 2

    at(0)
    root = tr.open("root")
    at(1)
    a = tr.open("a")
    at(2)
    leaf = tr.open("leaf")
    at(3)
    tr.close(leaf)
    at(4)
    tr.close(a)
    at(5)
    leaf = tr.open("leaf")
    at(9)
    tr.close(leaf)

    def background() -> None:  # concurrent: linked to root, not subtracted
        at(6)
        s = tr.open("bg")
        at(8)
        tr.close(s)

    th = threading.Thread(target=background)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    at(10)
    tr.close(root)

    tot = tr.layer_totals()
    assert tot["root"]["self_s"] == 3      # 10 - a (3) - leaf (4)
    assert tot["a"]["self_s"] == 2         # 3 - leaf (1)
    assert tot["leaf"]["calls"] == 2 and tot["leaf"]["self_s"] == 5
    assert tot["root"]["self_cpu_s"] == 1.5
    assert tot["bg"]["self_s"] == 2 and tot["bg"]["main_self_s"] == 0
    main = sum(t["main_self_s"] for t in tot.values())
    assert main == tot["root"]["wall_s"] == 10
    by_name = {s["name"]: s for s in tr.spans}
    assert by_name["bg"]["parent"] == by_name["root"]["key"]


def test_spans_from_forked_pipeline_workers_reach_the_trace(tmp_path):
    from repro.codec.image import ArrayImageCodec
    from repro.codes.registry import make_code
    from repro.obs.export import validate_trace_file
    from repro.pipeline.engine import RebuildPipeline

    code = make_code("rdp", 8)
    codec = ArrayImageCodec(code, element_size=64, n_stripes=64)
    disks = codec.encode_image(codec.random_image(np.random.default_rng(0)))
    tr = tracing.Tracer(tmp_path / "spool")
    tr.install()
    try:
        pipe = RebuildPipeline(codec, workers=2, chunk_stripes=8)
        with tr.span(tracing.ROOT):
            res = pipe.rebuild(disks, 3)
    finally:
        tr.uninstall()
    assert res.stats["mode"] == "pipeline"
    assert np.array_equal(res.image, disks[3])
    tr.finish()
    path = tmp_path / "trace.jsonl"
    tr.export(path, label="test")
    validate_trace_file(path)

    spans = {}
    for raw in path.read_text().splitlines():
        obj = json.loads(raw)
        if obj["type"] == "span":
            spans[obj["id"]] = obj
    kernel = [s for s in spans.values() if s["name"] == "codec.kernel"]
    assert len(kernel) == res.stats["chunks"]
    for s in kernel:
        assert s["attrs"]["pid"] != os.getpid()
        parent = spans[s["parent"]]
        assert parent["name"] == "pipeline.rebuild"
        assert parent["attrs"]["pid"] == os.getpid()
    assert tr.layer_totals()["codec.kernel"]["calls"] == res.stats["chunks"]


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.05, 9.95, 10.1, 10.0, 9.9]
    assert compare.verdict(base, [x * 0.8 for x in base], "lower", 0.1)[0] \
        == "improved"
    assert compare.verdict(base, [x * 1.2 for x in base], "lower", 0.1)[0] \
        == "worse"
    assert compare.verdict(base, [x * 1.02 for x in base], "lower", 0.1)[0] \
        == "no-worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([4.0] * 5, [4.0] * 5, "lower", 0.001) \
        == ("no-worse", 0.0)
