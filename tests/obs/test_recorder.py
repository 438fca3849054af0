"""Recorder thread-safety and cross-recorder snapshot merging."""

import sys
import threading

from repro.obs import Recorder


class TestMergeSnapshot:
    def test_counters_add_and_gauges_peak(self):
        parent = Recorder("parent")
        parent.count("serving.reads", 10)
        parent.gauge("queue_depth", 4)  # peak 4

        shard = Recorder("shard0")
        shard.count("serving.reads", 7)
        shard.count("serving.degraded", 3)
        shard.gauge("queue_depth", 9)
        shard.gauge("queue_depth", 2)  # last value 2, peak 9

        parent.merge_snapshot(shard.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["serving.reads"] == 17
        assert snap["counters"]["serving.degraded"] == 3
        assert snap["gauges"]["queue_depth"]["value"] == 2
        assert snap["gauges"]["queue_depth"]["peak"] == 9

    def test_merge_does_not_import_spans(self):
        parent = Recorder()
        shard = Recorder()
        with shard.span("work"):
            pass
        parent.merge_snapshot(shard.snapshot())
        assert parent.spans == []

    def test_merge_many_shards_associative(self):
        """Merging N shard snapshots in any order gives the same totals."""
        shards = []
        for i in range(4):
            r = Recorder(f"shard{i}")
            r.count("x", i + 1)
            r.gauge("g", 10 * (i + 1))
            shards.append(r.snapshot())

        forward, backward = Recorder(), Recorder()
        for s in shards:
            forward.merge_snapshot(s)
        for s in reversed(shards):
            backward.merge_snapshot(s)
        assert forward.snapshot()["counters"]["x"] == 10
        assert backward.snapshot()["counters"]["x"] == 10
        assert forward.snapshot()["gauges"]["g"]["peak"] == 40
        assert backward.snapshot()["gauges"]["g"]["peak"] == 40


class TestThreadSafety:
    def test_concurrent_counts_lose_no_updates(self):
        rec = Recorder()
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                rec.count("hits")

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters["hits"].value == n_threads * per_thread

    def test_concurrent_gauge_tracks_global_peak(self):
        rec = Recorder()

        def worker(base):
            for v in range(200):
                rec.gauge("depth", base + v)

        threads = [threading.Thread(target=worker, args=(b,)) for b in (0, 500)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.gauges["depth"].peak == 699


class TestThreadedSpans:
    def test_spans_from_two_threads_form_one_tree(self):
        """Each thread nests its own spans; a thread's outermost span hangs
        off the span the owning thread has open."""
        rec = Recorder()
        start = threading.Barrier(2)

        def worker(tag):
            start.wait()
            for _ in range(1000):
                with rec.span(f"outer.{tag}"):
                    with rec.span(f"inner.{tag}"):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two threads' spans
        try:
            with rec.span("root"):
                threads = [threading.Thread(target=worker, args=(t,))
                           for t in "ab"]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads), "a thread hung"

        spans = {s.span_id: s for s in rec.spans}
        assert len(spans) == len(rec.spans) == 1 + 2 * 2 * 1000
        root = next(s for s in rec.spans if s.name == "root")
        assert root.parent_id is None
        for s in rec.spans:
            if s.name.startswith("outer."):
                assert s.parent_id == root.span_id
            elif s.name.startswith("inner."):
                # the outer span of the same thread, never the other's
                assert spans[s.parent_id].name == "outer." + s.name[-1]

    def test_worker_span_without_an_owner_span_is_a_root(self):
        rec = Recorder()
        t = threading.Thread(target=lambda: rec.span("alone").__exit__())
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert [(s.name, s.parent_id) for s in rec.spans] == [("alone", None)]
