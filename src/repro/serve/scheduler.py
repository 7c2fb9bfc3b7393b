"""Dynamic microbatching: coalesce concurrent requests into large batches.

The batched solve pipeline (PR 1) made one ``(64, rows)`` call ~80x cheaper
than 64 ``(1, rows)`` calls, but a serving front-end receives those 64
vectors as *independent concurrent requests*. The scheduler closes that gap:
requests queue per *key* — one key per (endpoint, programmed crossbar) or
(endpoint, prepared engine) — and a queue is flushed into a single batched
model call when either

* the pending row count reaches ``max_batch_rows`` (*full* flush),
* ``flush_deadline_s`` elapses since the queue became non-empty while the
  key was idle (*deadline* flush), bounding the latency a lone request can
  pay, or
* a batch for the key finishes while requests are queued (*completion*
  flush — continuous batching): arrivals during an in-flight batch
  accumulate instead of being fragmented by a ticking deadline timer, and
  flush as one batch the moment the worker frees up, so the effective
  batch size adapts itself to the offered load.

Per-key isolation is structural: a key's batches only ever contain rows for
that key, so a slow model cannot delay another model's flushes and results
can never be served across keys.

Backpressure: each key bounds its pending rows at ``max_queue_rows``;
beyond it ``submit`` raises :class:`QueueFullError`, which the HTTP layer
maps to 429. The bound is per key so one hot model saturating its queue
does not reject traffic for cold models.

Batch functions run on a small thread-pool executor (default one worker),
keeping the event loop free to accept requests while NumPy works. At most
one batch per key is in flight at any time — tile models, engine stats and
solver factorisations are not thread-safe — so ``max_workers > 1``
parallelises across *different* keys only, and is always safe.

Tracing: ``submit`` captures the caller's active :class:`~repro.obs.Trace`
with each queued request. When a batch flushes, every traced request gets
a ``queue-wait`` span (enqueue → flush) and a ``batch-execute`` span
(flush → result). Because ``run_in_executor`` does not propagate
contextvars, the executor callable activates a private collector trace
around ``batch_fn``; whatever spans the model records (engine-compute,
fused-execute) are grafted as ``batch-execute`` children into *every*
request of the batch — the compute genuinely served them all.
"""

from __future__ import annotations

import asyncio
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

from repro.errors import ConfigError, ReproError
from repro.obs import Trace, activate, current_trace, deactivate
from repro.serve.metrics import ServeMetrics


class QueueFullError(ReproError, RuntimeError):
    """A per-key request queue is at capacity (backpressure)."""


class _KeyQueue:
    """Pending requests of one scheduling key."""

    __slots__ = ("items", "n_rows", "timer", "inflight")

    def __init__(self):
        self.items = deque()     # (rows, batch_fn, future, trace, t_enq)
        self.n_rows = 0
        self.timer = None        # asyncio.TimerHandle for the deadline
        self.inflight = 0        # batches launched but not yet completed


class MicrobatchScheduler:
    """Per-key dynamic microbatching over batched NumPy model calls."""

    def __init__(self, *, max_batch_rows: int = 64,
                 flush_deadline_s: float = 0.002,
                 max_queue_rows: int = 4096,
                 max_workers: int = 1,
                 metrics: ServeMetrics | None = None):
        if max_batch_rows < 1:
            raise ConfigError("max_batch_rows must be >= 1")
        if flush_deadline_s < 0:
            raise ConfigError("flush_deadline_s must be >= 0")
        if max_queue_rows < max_batch_rows:
            raise ConfigError("max_queue_rows must be >= max_batch_rows")
        if max_workers < 1:
            raise ConfigError("max_workers must be >= 1")
        self.max_batch_rows = int(max_batch_rows)
        self.flush_deadline_s = float(flush_deadline_s)
        self.max_queue_rows = int(max_queue_rows)
        self.metrics = metrics or ServeMetrics()
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-serve-batch")
        self._queues: dict = {}
        self._inflight: set = set()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def queue_rows(self) -> int:
        """Total rows currently queued across all keys."""
        return sum(q.n_rows for q in self._queues.values())

    def queue_depths(self) -> dict:
        """Pending rows per key (diagnostic view for ``/metrics``)."""
        return {str(key): q.n_rows for key, q in self._queues.items()
                if q.n_rows}

    # ------------------------------------------------------------------
    async def submit(self, key, rows: np.ndarray, batch_fn) -> np.ndarray:
        """Queue ``rows`` (``(b, n)``) under ``key`` and await the result.

        ``batch_fn`` maps a stacked ``(B, n)`` array to a ``(B, m)`` array;
        all submitters of one key must pass an equivalent function (the
        registry guarantees this by deriving the key from the model
        identity). Returns this request's ``(b, m)`` slice of the batched
        result. Raises :class:`QueueFullError` when the key's queue is full.
        """
        if self._closed:
            raise RuntimeError("scheduler is closed")
        rows = np.atleast_2d(np.asarray(rows))
        n_rows = rows.shape[0]
        if n_rows > self.max_queue_rows:
            # Permanently too large — no amount of retrying can ever fit
            # it, so this must not look like transient backpressure.
            raise ConfigError(
                f"request of {n_rows} rows exceeds the queue capacity "
                f"({self.max_queue_rows}); split it into smaller batches")
        queue = self._queues.get(key)
        pending = queue.n_rows if queue is not None else 0
        if pending + n_rows > self.max_queue_rows:
            # Reject before registering anything: a bounced request on a
            # fresh key must not leave an empty queue entry behind.
            raise QueueFullError(
                f"queue for key {key!r} is full "
                f"({pending} rows pending, limit "
                f"{self.max_queue_rows}); retry later")
        if queue is None:
            queue = self._queues[key] = _KeyQueue()
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        trace = current_trace()
        if trace is not None:
            trace.meta["rows"] = trace.meta.get("rows", 0) + n_rows
        entry = (rows, batch_fn, future, trace, perf_counter())
        queue.items.append(entry)
        queue.n_rows += n_rows
        self.metrics.record_queue_delta(n_rows)
        try:
            if queue.n_rows >= self.max_batch_rows:
                self._drain_key(key, queue, "full")
            elif queue.inflight == 0 and queue.timer is None:
                # Partial batch while the key is idle: start the deadline
                # clock. While a batch is in flight, partial arrivals simply
                # accumulate — they are flushed the moment it completes
                # (continuous batching), so a ticking timer would only
                # fragment them into needlessly small batches.
                queue.timer = loop.call_later(
                    self.flush_deadline_s, self._on_deadline, key)
        except BaseException:
            self._rollback_submit(key, queue, entry, n_rows)
            raise
        return await future

    def _rollback_submit(self, key, queue: _KeyQueue, entry,
                         n_rows: int) -> None:
        """Undo one enqueue after a failed flush trigger.

        Keeps the ``queue_rows`` gauge truthful: the +delta recorded on
        enqueue is reversed iff the entry is still queued (an entry
        already taken into a batch had its delta reversed by the take).
        """
        # Identity scan, not ``in``: entries hold numpy arrays, whose
        # ``==`` is elementwise and would poison tuple comparison.
        for i, item in enumerate(queue.items):
            if item is entry:
                del queue.items[i]
                queue.n_rows -= n_rows
                self.metrics.record_queue_delta(-n_rows)
                break
        future = entry[2]
        if future.done() and not future.cancelled():
            # The failed drain may have parked the error on the future;
            # submit re-raises it directly, so mark it retrieved.
            future.exception()
        if not queue.items and queue.inflight == 0:
            if queue.timer is not None:
                queue.timer.cancel()
                queue.timer = None
            self._queues.pop(key, None)

    # ------------------------------------------------------------------
    def _on_deadline(self, key) -> None:
        queue = self._queues.get(key)
        if queue is None:
            return
        queue.timer = None
        if queue.items:
            self._drain_key(key, queue, "deadline")
        elif queue.inflight == 0:
            del self._queues[key]

    def _drain_key(self, key, queue: _KeyQueue, reason: str) -> None:
        """Launch flush tasks for a key.

        ``full`` flushes while a whole batch is pending; ``deadline``,
        ``completion`` and ``drain`` flush everything, partial tail
        included. Leftover rows after a ``full`` drain (a request
        straddling the batch boundary keeps its rows together) wait for
        more traffic, the in-flight batch's completion, or the deadline.
        """
        if queue.timer is not None:
            queue.timer.cancel()
            queue.timer = None
        loop = asyncio.get_running_loop()
        # At most ONE batch of a key is ever in flight: tile models, engine
        # stats and solver factorisations are not thread-safe, so with
        # ``max_workers > 1`` concurrent flushes of the same key would race
        # on shared state. Surplus full batches launch from the completion
        # cascade instead; different keys still run in parallel.
        while queue.items and queue.inflight == 0:
            if reason == "full" and queue.n_rows < self.max_batch_rows:
                break
            batch, batch_rows = self._take_batch(queue)
            self.metrics.record_queue_delta(-batch_rows)
            try:
                self.metrics.record_batch(batch_rows, len(batch), reason)
                task = loop.create_task(
                    self._run_batch(key, queue, batch, batch_rows, reason))
            except BaseException as exc:
                # The rows already left the queue (and the gauge); the
                # batch can no longer run, so its futures must fail
                # rather than hang, and an emptied queue must not leak.
                for _, _, future, _, _ in batch:
                    if not future.done():
                        future.set_exception(
                            exc if isinstance(exc, Exception)
                            else RuntimeError(f"batch launch failed: {exc}"))
                if not queue.items and queue.inflight == 0:
                    self._queues.pop(key, None)
                raise
            queue.inflight += 1
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        if queue.items:
            if queue.inflight == 0 and queue.timer is None:
                queue.timer = loop.call_later(
                    self.flush_deadline_s, self._on_deadline, key)
        elif queue.inflight == 0:
            del self._queues[key]

    def _take_batch(self, queue: _KeyQueue):
        """Pop whole requests greedily up to ``max_batch_rows``.

        Requests are never split across flushes — a batched result must be
        computed from one contiguous stacked call for the response to be a
        pure slice of it — so a single oversized request (rows >
        ``max_batch_rows``) forms a batch of its own.
        """
        batch = []
        batch_rows = 0
        while queue.items:
            rows = queue.items[0][0].shape[0]
            if batch and batch_rows + rows > self.max_batch_rows:
                break
            batch.append(queue.items.popleft())
            batch_rows += rows
        queue.n_rows -= batch_rows
        return batch, batch_rows

    async def _run_batch(self, key, queue: _KeyQueue, batch,
                         batch_rows: int, reason: str) -> None:
        batch_fn = batch[0][1]
        loop = asyncio.get_running_loop()
        t_flush = perf_counter()
        traced = False
        for _, _, _, trace, t_enq in batch:
            wait_s = t_flush - t_enq
            self.metrics.record_queue_wait(wait_s)
            if trace is not None:
                traced = True
                trace.add_span("queue-wait", t_enq, wait_s)
        collected: list = []
        if traced:
            # contextvars do not cross run_in_executor: activate a fresh
            # collector trace on the worker thread, and graft whatever the
            # model records (engine-compute, fused-execute) into every
            # request.
            def fn(stacked, _fn=batch_fn):
                collector = Trace("batch-execute", max_spans=64)
                token = activate(collector)
                try:
                    return _fn(stacked)
                finally:
                    deactivate(token)
                    collected.extend(collector.spans())
        else:
            fn = batch_fn
        try:
            try:
                # Stacking stays inside the guard: if it fails (e.g.
                # MemoryError) the futures must still resolve and the
                # inflight count must still drop.
                arrays = [rows for rows, _, _, _, _ in batch]
                stacked = arrays[0] if len(arrays) == 1 \
                    else np.concatenate(arrays)
                result = await loop.run_in_executor(self._executor, fn,
                                                    stacked)
                result = np.asarray(result)
                if result.shape[0] != batch_rows:
                    raise RuntimeError(
                        f"batch function returned {result.shape[0]} rows "
                        f"for a {batch_rows}-row batch")
            except Exception as exc:
                for _, _, future, _, _ in batch:
                    if not future.done():
                        future.set_exception(exc)
                return
            offset = 0
            for rows, _, future, _, _ in batch:
                n = rows.shape[0]
                if not future.done():
                    future.set_result(result[offset:offset + n])
                offset += n
        finally:
            t_done = perf_counter()
            self.metrics.record_batch_execute(t_done - t_flush)
            for _, _, _, trace, _ in batch:
                if trace is not None:
                    trace.add_span(
                        "batch-execute", t_flush, t_done - t_flush,
                        children=collected,
                        meta={"rows": batch_rows, "requests": len(batch),
                              "reason": reason})
            queue.inflight -= 1
            if queue.items:
                # Requests that arrived (or were left over) while this
                # batch was computing have waited at least one batch's
                # latency — flush them now at whatever size accumulated.
                # During shutdown the cascade continues as "drain" so
                # close() empties the queue one batch at a time.
                self._drain_key(key, queue,
                                "drain" if self._closed else "completion")
            elif queue.inflight == 0 and queue.timer is None:
                self._queues.pop(key, None)

    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Flush every pending queue, await in-flight batches, shut down."""
        if self._closed:
            return
        self._closed = True
        for key, queue in list(self._queues.items()):
            if queue.timer is not None:
                queue.timer.cancel()
                queue.timer = None
            if queue.items:
                self._drain_key(key, queue, "drain")
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
