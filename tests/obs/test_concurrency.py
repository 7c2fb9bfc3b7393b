"""Concurrency hammering: totals must conserve under parallel recording."""

import asyncio
import threading

from repro.obs import MetricsRegistry, span, start_trace

N_THREADS = 8
N_EVENTS = 500


class TestThreadedMetrics:
    def test_counter_and_histogram_totals_conserve(self):
        reg = MetricsRegistry()
        counter = reg.counter("events_total", labelnames=("worker",))
        hist = reg.histogram("lat", buckets=(0.001, 0.01, 0.1))
        barrier = threading.Barrier(N_THREADS)

        def work(wid):
            child = counter.labels(worker=str(wid))
            barrier.wait()
            for i in range(N_EVENTS):
                child.inc()
                hist.observe(0.0005 * (i % 40))

        threads = [threading.Thread(target=work, args=(w,))
                   for w in range(N_THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        total = sum(v["value"] for v in snap["events_total"]["values"])
        assert total == N_THREADS * N_EVENTS
        hsnap = snap["lat"]["values"][0]
        assert hsnap["count"] == N_THREADS * N_EVENTS
        # The +Inf cumulative bucket must equal the total count.
        assert hsnap["buckets"][-1][1] == hsnap["count"]

    def test_trace_records_from_many_threads(self):
        with start_trace("req", max_spans=10_000) as trace:
            barrier = threading.Barrier(N_THREADS)

            def work():
                barrier.wait()
                for _ in range(50):
                    trace.add_span("shard", trace.t0, 0.001)

            threads = [threading.Thread(target=work)
                       for _ in range(N_THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert len(trace.to_dict()["spans"]) == N_THREADS * 50


class TestAsyncIsolation:
    def test_concurrent_tasks_keep_separate_traces(self):
        """Each asyncio task's trace only sees its own spans (contextvars
        isolate the active trace per task)."""

        async def request(i):
            with start_trace("req", trace_id=f"req-{i}") as trace:
                with span("stage", task=i):
                    await asyncio.sleep(0)
                with span("stage", task=i):
                    await asyncio.sleep(0)
            return trace.to_dict()

        async def main():
            return await asyncio.gather(*(request(i) for i in range(20)))

        results = asyncio.run(main())
        for i, d in enumerate(results):
            assert d["trace_id"] == f"req-{i}"
            assert len(d["spans"]) == 2
            assert all(s["meta"] == {"task": i} for s in d["spans"])
