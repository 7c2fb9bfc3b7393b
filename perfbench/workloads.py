"""The three benchmark workloads: set-up, timed loop, output checks.

* ``offline-resnet`` — closed loop, one process: fresh seeded 16-image
  batches back to back through ``Session.compile(ResNet)``.
* ``serve-open`` — open loop: seeded arrivals of single-image
  ``/v1/net_predict`` requests against a ``repro serve`` child process,
  at a fixed rate over at most ``nproc`` keep-alive connections.
* ``serve-closed`` — closed loop: ``nproc`` connections each sending
  32-image requests back to back to the same server and net.

Every set-up starts from an empty GENIEx zoo in a fresh directory, so
``setup_s`` covers characterisation (circuit sweep), training and
compile. A run sets up :data:`SETUP_REPS` times and reports the median;
the last set-up is the one measured.

With tracing on, the timed window is split into alternating untraced and
traced segments; per-layer metrics come from the traced ones and
``obs.trace_overhead_pct`` compares the two. Execute-phase per-layer
metrics are per operation (one batch forward or one request), set-up
metrics per set-up.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time

import numpy as np

from server import ServerProcess, ServerStartError
from tracer import Tracer

WORKLOADS = ("offline-resnet", "serve-open", "serve-closed")

#: End-to-end metrics (untraced runs), name -> unit.
END_TO_END = {
    "setup_s": "s",
    "images_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "logits_nf": "ratio",
}

#: Per-layer metrics (traced runs), name -> unit. A metric a workload
#: cannot observe reads 0 there (see README.md).
PER_LAYER = {
    "funcsim.matmul_s": "s",
    "funcsim.matmul_calls": "count",
    "funcsim.matmul_rows": "count",
    "funcsim.quantize_s": "s",
    "funcsim.readout_s": "s",
    "funcsim.cache_s": "s",
    "funcsim.merge_s": "s",
    "funcsim.fused_tile_rows": "count",
    "funcsim.fallback_tile_rows": "count",
    "funcsim.tile_cache_lookups": "count",
    "funcsim.tile_cache_hit_ratio": "ratio",
    "core.emulator_s": "s",
    "core.emulator_calls": "count",
    "core.emulator_rows": "count",
    "nn.self_s": "s",
    "nn.im2col_s": "s",
    "serve.http_p50_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.execute_p50_ms": "ms",
    "serve.client_encode_s": "s",
    "serve.client_decode_s": "s",
    "serve.batches": "count",
    "serve.mean_batch_rows": "count",
    "serve.mean_layer_rows": "count",
    "serve.rejected": "count",
    "core.train_s": "s",
    "core.zoo_trains": "count",
    "core.zoo_loads": "count",
    "circuit.solve_s": "s",
    "circuit.solves": "count",
    "funcsim.compile_s": "s",
    "funcsim.prepare_s": "s",
    "api.open_session_s": "s",
    "serve.upload_s": "s",
    "loadgen.sent": "count",
    "loadgen.late_p99_ms": "ms",
    "failed_frac": "ratio",
    "obs.attributed_pct": "%",
    "obs.trace_overhead_pct": "%",
}

SETUP_REPS = 3
#: Alternating segments of a traced run: untraced, traced, untraced, ...
TRACE_SEGMENTS = 4

#: The tiny geniex recipe shared by ``bench_compiled``/``bench_serve``:
#: 16x16 tiles, 6x10 characterisation sweep, 32 hidden units, 15 epochs,
#: paper-default formats, batch-invariant execution.
SPEC = {
    "engine": "geniex",
    "xbar": {"rows": 16, "cols": 16},
    "emulator": {
        "sampling": {"n_g_matrices": 6, "n_v_per_g": 10, "seed": 0},
        "training": {"hidden": 32, "epochs": 15, "batch_size": 32,
                     "seed": 0},
    },
    "runtime": {"batch_invariant": True},
}

OFFLINE_BATCH = 16
OFFLINE_IMAGE = 12
#: Batches whose logits feed ``logits_nf``: a fixed count, so NF depends
#: on the seed only, never on how much the window fitted. Serve workloads
#: use each distinct request input once (every one is sent in a run of
#: the benchmark's length).
NF_BATCHES = 16

MLP_SIZES = (64, 48, 32, 10)
#: Open-loop arrival rate, well under the ~65 req/s a lone connection
#: sustains on a 2-CPU host.
OPEN_RATE_PER_S = 20.0
#: Shortest gap between two open-loop arrivals, above the ~20 ms p90 of a
#: lone request there: plain Poisson arrivals put about a third of the
#: requests within one service time of another, so their tail measured
#: queueing behind the generator's own requests, which amplifies host
#: noise, rather than the lone-request path this workload is for.
OPEN_DEAD_TIME_S = 0.025
CLOSED_ROWS = 32
CLOSED_POOL = 96
#: Rows per coalesced batch of ``repro serve`` (its ``--max-batch`` default).
SERVER_MAX_BATCH_ROWS = 64
#: A request with no answer by then counts as failed; past the open-loop
#: schedule by ``LATE_LIMIT_S`` the generator stops sending (the rest
#: count as failed), so a wedged server cannot stretch a run unbounded.
REQUEST_TIMEOUT_S = 10.0
LATE_LIMIT_S = 30.0


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (unknown workload, a server
    that would not start)."""


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _spec(**overrides):
    from repro.api import EmulationSpec
    spec = EmulationSpec.from_dict(SPEC)
    return spec.evolve(**overrides) if overrides else spec


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) \
        if len(values) else 0.0


def _weighted_nf(ideal, crossbar) -> float:
    """Mean |NF| of crossbar logits, weighted by the float logit size.

    The plain mean is dominated by logits whose float value is near zero
    (NF divides by it), which swings it several-fold between seeds; the
    magnitude weighting bounds each logit's contribution.
    """
    from repro.core.metrics import nonideality_factor
    ideal = np.asarray(ideal, dtype=np.float64)
    nf = nonideality_factor(ideal, np.asarray(crossbar, dtype=np.float64))
    weight = np.abs(ideal)
    return float((np.abs(nf) * weight).sum() / weight.sum())


def _overhead_pct(lat_off, lat_on) -> float:
    """Median latency of traced operations over untraced ones, in %."""
    if not lat_off or not lat_on:
        return 0.0
    return 100.0 * (statistics.median(lat_on) / statistics.median(lat_off)
                    - 1.0)


class _Segments:
    """Which part of the timed window is traced (traced runs only)."""

    def __init__(self, seconds: float, tracer: Tracer | None):
        self.tracer = tracer
        self.count = TRACE_SEGMENTS if tracer else 1
        self.length = seconds / self.count

    def traced(self, offset_s: float) -> bool:
        return self.tracer is not None \
            and int(offset_s // self.length) % 2 == 1

    def apply(self, offset_s: float) -> None:
        """Install or remove the wrappers for the segment at ``offset_s``."""
        if self.tracer is None:
            return
        if self.traced(offset_s):
            self.tracer.install()
        else:
            self.tracer.remove()

    def drive(self, t_start: float, seconds: float) -> None:
        """Toggle the wrappers at each boundary until the window closes
        (for loops whose work runs on other threads)."""
        for k in range(self.count):
            _sleep_until(t_start + k * self.length)
            self.apply(k * self.length)
        _sleep_until(t_start + seconds)


def _sleep_until(t: float) -> None:
    wait = t - time.perf_counter()
    if wait > 0:
        time.sleep(wait)


class _Snapshot:
    """Tracer aggregates at one instant, for per-phase differences."""

    def __init__(self, tracer: Tracer | None):
        self.self_s = dict(tracer.self_s) if tracer else {}
        self.calls = dict(tracer.calls) if tracer else {}
        self.rows = dict(tracer.rows) if tracer else {}

    def since(self, earlier: "_Snapshot", attr: str, name: str) -> float:
        return getattr(self, attr).get(name, 0) \
            - getattr(earlier, attr).get(name, 0)


def _setup_metrics(before: _Snapshot, after: _Snapshot) -> dict:
    """Set-up-phase per-layer metrics, per set-up."""
    def per(attr, name):
        return after.since(before, attr, name) / SETUP_REPS
    return {
        "core.train_s": per("self_s", "core.train"),
        "circuit.solve_s": per("self_s", "circuit.solve"),
        "circuit.solves": per("rows", "circuit.solve"),
        "funcsim.compile_s": per("self_s", "funcsim.compile"),
        "funcsim.prepare_s": per("self_s", "funcsim.prepare"),
        "api.open_session_s": per("self_s", "api.open_session"),
    }


def _execute_metrics(before: _Snapshot, after: _Snapshot, ops: int) -> dict:
    """Execute-phase per-layer metrics from the wrappers, per operation."""
    ops = max(ops, 1)

    def per(attr, name):
        return after.since(before, attr, name) / ops
    return {
        "funcsim.matmul_s": per("self_s", "funcsim.matmul"),
        "funcsim.matmul_calls": per("calls", "funcsim.matmul"),
        "funcsim.matmul_rows": per("rows", "funcsim.matmul"),
        "funcsim.quantize_s": per("self_s", "funcsim.quantize"),
        "funcsim.readout_s": per("self_s", "funcsim.readout"),
        "funcsim.cache_s": per("self_s", "funcsim.cache"),
        "funcsim.merge_s": per("self_s", "funcsim.merge"),
        "core.emulator_s": per("self_s", "core.emulator"),
        "core.emulator_calls": per("calls", "core.emulator"),
        "core.emulator_rows": per("rows", "core.emulator"),
        "nn.self_s": per("self_s", "nn.forward"),
        "nn.im2col_s": per("self_s", "nn.im2col"),
        "serve.client_encode_s": per("self_s", "serve.client_encode"),
        "serve.client_decode_s": per("self_s", "serve.client_decode"),
    }


class Context:
    """One run: arguments, scratch space inside the checkout, tracer."""

    def __init__(self, root: str, seed: int, seconds: float, trace: bool,
                 perturb: bool):
        self.root = root
        self.seed = seed
        self.seconds = float(seconds)
        self.tracer = Tracer() if trace else None
        self.perturb = perturb
        self.nproc = len(os.sched_getaffinity(0))
        base = os.path.join(root, ".perfbench")
        os.makedirs(base, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=base)
        self.servers = []
        self._dirs = 0

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"zoo-{self._dirs}")
        os.makedirs(path)
        return path

    def close(self) -> None:
        for proc in self.servers:
            proc.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# offline-resnet
# ----------------------------------------------------------------------
def _offline(ctx: Context) -> dict:
    import repro.api
    from repro.core.zoo import GeniexZoo
    from repro.models import ResNet
    from repro.nn.tensor import Tensor, no_grad

    model = ResNet(1, 4, in_channels=1, width=8, seed=0).eval()
    rng = np.random.default_rng(ctx.seed)

    def batch():
        return (rng.normal(size=(OFFLINE_BATCH, 1, OFFLINE_IMAGE,
                                 OFFLINE_IMAGE)) * 0.5).astype(np.float32)

    def forward(net, x):
        with no_grad():
            return net(Tensor(x)).data

    tracer = ctx.tracer
    before_setup = _Snapshot(tracer)
    setups = []
    zoo_counts = {}
    session = None
    for _ in range(SETUP_REPS):
        if session is not None:
            session.close()
            session = net = None
            gc.collect()
        zoo = GeniexZoo(cache_dir=ctx.fresh_dir())
        t0 = time.perf_counter()
        session = repro.api.open_session(_spec(), zoo=zoo)
        net = session.compile(model)
        forward(net, batch())  # lazy per-shape kernel probes run here
        setups.append(time.perf_counter() - t0)
        for key, value in zoo.counters().items():
            zoo_counts[key] = zoo_counts.get(key, 0) + value
    after_setup = _Snapshot(tracer)

    segments = _Segments(ctx.seconds, tracer)
    engine = session.engine
    stats_before = engine.stats.snapshot()
    cache_before = engine.tile_cache.counters()
    latency, traced = [], []
    kept = []   # (x, logits) of the first NF_BATCHES batches
    t_start = time.perf_counter()
    while (offset := time.perf_counter() - t_start) < ctx.seconds:
        segments.apply(offset)
        on = segments.traced(offset)
        x = batch()
        t0 = time.perf_counter()
        if on:
            with tracer.span("nn.forward", rows=len(x)):
                y = forward(net, x)
        else:
            y = forward(net, x)
        latency.append(time.perf_counter() - t0)
        traced.append(on)
        if len(kept) < NF_BATCHES:
            kept.append((x, y))
        last = (x, y)
    wall = time.perf_counter() - t_start
    if tracer:
        tracer.remove()
    after_measure = _Snapshot(tracer)
    stats_after = engine.stats.snapshot()
    cache_after = engine.tile_cache.counters()

    # Output checks, untimed: the first and last timed batches must be
    # bit-identical to the interpreted reference kernel.
    failed = 0
    with repro.api.open_session(_spec(**{"runtime.backend": "interp"}),
                                emulator=session.emulator) as reference:
        ref_net = reference.compile(model)
        for x, y in {id(b): b for b in (kept[0], last)}.values():
            expected = forward(ref_net, x)
            if ctx.perturb:
                expected = np.nextafter(expected, np.inf)
            failed += expected.tobytes() != y.tobytes()
    session.close()
    nf = _weighted_nf(np.concatenate([forward(model, x) for x, _ in kept]),
                      np.concatenate([y for _, y in kept]))

    out = {"attempted": len(latency), "failed": failed}
    if tracer is None:
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "images_per_s": len(latency) * OFFLINE_BATCH / wall,
            "latency_p50_ms": _pct(latency, 50) * 1e3,
            "latency_p90_ms": _pct(latency, 90) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF)
            .ru_maxrss / 1024.0,
            "logits_nf": nf,
        }
        return out

    lat_on = [t for t, on in zip(latency, traced) if on]
    lat_off = [t for t, on in zip(latency, traced) if not on]
    n_ops = len(latency)
    hits = cache_after[0] - cache_before[0]
    lookups = hits + cache_after[1] - cache_before[1]
    attributed_s = sum(after_measure.since(after_setup, "self_s", k)
                       for k in after_measure.self_s
                       if k.startswith(("funcsim.", "core.", "nn.")))
    metrics = _execute_metrics(after_setup, after_measure, len(lat_on))
    metrics.update(_setup_metrics(before_setup, after_setup))
    metrics.update({
        "core.zoo_trains": zoo_counts.get("trains", 0) / SETUP_REPS,
        "core.zoo_loads": zoo_counts.get("disk_loads", 0) / SETUP_REPS,
        "funcsim.fused_tile_rows":
            (stats_after["fused_calls"] - stats_before["fused_calls"])
            / n_ops,
        "funcsim.fallback_tile_rows":
            (stats_after["fallback_calls"] - stats_before["fallback_calls"])
            / n_ops,
        "funcsim.tile_cache_lookups": lookups / n_ops,
        "funcsim.tile_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "loadgen.sent": n_ops,
        "obs.attributed_pct": 100.0 * attributed_s / sum(lat_on)
        if lat_on else 0.0,
        "obs.trace_overhead_pct": _overhead_pct(lat_off, lat_on),
    })
    out["metrics"] = metrics
    return out


# ----------------------------------------------------------------------
# serve-open / serve-closed
# ----------------------------------------------------------------------
def _prometheus(client) -> dict:
    """``/metrics`` text exposition as ``{sample: value}``."""
    out = {}
    for line in client.prometheus_metrics().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


class _TracePoller:
    """Reads ``/v1/debug/traces`` (a bounded ring) often enough that no
    request trace is overwritten before it is collected."""

    def __init__(self, port: int):
        self.port = port
        self.traces = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _poll(self, client) -> None:
        for trace in client.traces():
            if trace.get("name") == "POST /v1/net_predict":
                self.traces[trace["trace_id"]] = trace

    def _run(self) -> None:
        from repro.serve.client import ServeClient
        with ServeClient("127.0.0.1", self.port, timeout=30) as client:
            while not self._stop.wait(0.5):
                self._poll(client)
            self._poll(client)

    def stop(self) -> list:
        self._stop.set()
        self._thread.join(timeout=60)
        return list(self.traces.values())


def _server_span_metrics(traces) -> dict:
    """Server-side stage split from request traces.

    A coalesced batch's spans appear in every member request's trace, so
    batch-level durations are weighted by ``1 / requests`` when summed.
    The server exposes no stage spans inside ``engine-compute``, so its
    whole kernel time lands in ``funcsim.matmul_s``.
    """
    http, queue, execute = [], [], []
    totals = {"engine": 0.0, "layer": 0.0}

    def walk(node, weight):
        name = node["name"]
        children = node.get("children", ())
        if name == "http":
            http.append(node["duration_ms"])
        elif name == "queue-wait":
            queue.append(node["duration_ms"])
        elif name == "batch-execute":
            execute.append(node["duration_ms"])
            weight = 1.0 / max(node.get("meta", {}).get("requests", 1), 1)
        elif name.startswith("layer-execute"):
            inner = sum(c["duration_ms"] for c in children
                        if c["name"] == "engine-compute")
            totals["layer"] += weight * (node["duration_ms"] - inner) / 1e3
        elif name == "engine-compute":
            totals["engine"] += weight * node["duration_ms"] / 1e3
        for child in children:
            walk(child, weight)

    for trace in traces:
        for root in trace.get("spans", ()):
            walk(root, 1.0)
    n = max(len(traces), 1)
    return {
        "serve.http_p50_ms": _pct(http, 50),
        "serve.queue_wait_p50_ms": _pct(queue, 50),
        "serve.execute_p50_ms": _pct(execute, 50),
        "funcsim.matmul_s": totals["engine"] / n,
        "nn.self_s": totals["layer"] / n,
    }


def _serve(ctx: Context, closed: bool) -> dict:
    import repro.api
    from repro.core.zoo import GeniexZoo
    from repro.models.mlp import MLP
    from repro.nn.tensor import Tensor, no_grad
    from repro.serve.client import ServeClient

    spec = _spec()
    model = MLP(list(MLP_SIZES), seed=7)
    rng = np.random.default_rng(ctx.seed)
    if closed:
        pool = rng.normal(size=(CLOSED_POOL, CLOSED_ROWS, MLP_SIZES[0]))
    else:
        n_requests = max(1, round(OPEN_RATE_PER_S * ctx.seconds))
        pool = rng.normal(size=(n_requests, MLP_SIZES[0]))
        due = _arrivals(rng, n_requests, ctx.seconds)

    rows = CLOSED_ROWS if closed else 1
    flat = pool.reshape(-1, MLP_SIZES[0])
    tracer = ctx.tracer
    before_setup = _Snapshot(tracer)
    setups, uploads = [], []
    server = None
    for _ in range(SETUP_REPS):
        if server is not None:
            server.stop()
        zoo_dir = ctx.fresh_dir()
        t0 = time.perf_counter()
        server = ServerProcess(ctx.root, zoo_dir,
                               os.path.join(zoo_dir, "server.log"))
        ctx.servers.append(server)
        server.start()
        with ServeClient("127.0.0.1", server.port, timeout=300) as client:
            t1 = time.perf_counter()
            net_key = client.upload_net(model, spec=spec)["net_key"]
            uploads.append(time.perf_counter() - t1)
            # Warm the path at the largest batch the connections can form,
            # so lazily sized buffers exist before the timed window.
            warm = flat[:min(SERVER_MAX_BATCH_ROWS, ctx.nproc * rows)]
            client.net_predict(warm, net_key=net_key)
        setups.append(time.perf_counter() - t0)
    after_setup = _Snapshot(tracer)
    if tracer:
        tracer.remove()

    # Expected responses, before the timed window: local Session inference
    # of each request's own input, on the artifact the server trained.
    with repro.api.open_session(spec, zoo=GeniexZoo(cache_dir=zoo_dir)) \
            as session, no_grad():
        net = session.compile(model)
        expected = [net(Tensor(np.atleast_2d(x))).data.astype(np.float64)
                    .reshape(np.shape(x)[:-1] + (MLP_SIZES[-1],))
                    for x in pool]
        ideal = [model(Tensor(np.atleast_2d(x))).data.astype(np.float64)
                 for x in pool]
    if ctx.perturb:
        expected = [np.nextafter(e, np.inf) for e in expected]

    with ServeClient("127.0.0.1", server.port, timeout=60) as admin:
        prom_before = _prometheus(admin)
        poller = _TracePoller(server.port) if tracer else None
        segments = _Segments(ctx.seconds, tracer)
        if closed:
            result = _closed_loop(server.port, net_key, pool, expected,
                                  ctx.nproc, ctx.seconds, segments)
        else:
            result = _open_loop(server.port, net_key, pool, expected, due,
                                ctx.nproc, segments)
        if tracer:
            tracer.remove()
        after_measure = _Snapshot(tracer)
        traces = poller.stop() if poller else []
        prom_after = _prometheus(admin)
    rss = server.peak_rss_mb()
    server.stop()

    ok = result["ok"]
    answered = {}   # pool index -> first correct response
    for i, good in enumerate(ok):
        if good:
            answered.setdefault(i % len(pool), result["logits"][i])
    nf = _weighted_nf(
        np.concatenate([ideal[j].ravel() for j in answered]),
        np.concatenate([y.ravel() for y in answered.values()])) \
        if answered else float("nan")
    lat = [t for t, good in zip(result["latency"], ok) if good]
    out = {"attempted": len(ok), "failed": len(ok) - sum(ok)}
    if tracer is None:
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "images_per_s": sum(ok) * rows / result["wall"],
            "latency_p50_ms": _pct(lat, 50) * 1e3,
            "latency_p90_ms": _pct(lat, 90) * 1e3,
            "peak_rss_mb": rss,
            "logits_nf": nf,
        }
        return out

    def delta(sample):
        return prom_after.get(sample, 0.0) - prom_before.get(sample, 0.0)

    on = result["traced"]
    lat_on = [t for t, good, o in zip(result["latency"], ok, on)
              if good and o]
    lat_off = [t for t, good, o in zip(result["latency"], ok, on)
               if good and not o]
    n_req = max(len(ok), 1)
    batches = sum(v - prom_before.get(k, 0.0) for k, v in prom_after.items()
                  if k.startswith("repro_microbatch_batches_total"))
    hits = delta('repro_tile_cache_events{event="hits"}')
    lookups = hits + delta('repro_tile_cache_events{event="misses"}')
    metrics = _execute_metrics(after_setup, after_measure, len(lat_on))
    metrics.update(_setup_metrics(before_setup, after_setup))
    metrics.update(_server_span_metrics(traces))
    metrics.update({
        # The measured server's own set-up (it trained into a fresh zoo).
        "core.zoo_trains":
            prom_after.get('repro_zoo_requests_total{outcome="trains"}', 0),
        "core.zoo_loads": prom_after.get(
            'repro_zoo_requests_total{outcome="disk_loads"}', 0),
        "serve.upload_s": statistics.median(uploads),
        "funcsim.fused_tile_rows":
            delta('repro_engine_events{event="fused_calls"}') / n_req,
        "funcsim.fallback_tile_rows":
            delta('repro_engine_events{event="fallback_calls"}') / n_req,
        "funcsim.tile_cache_lookups": lookups / n_req,
        "funcsim.tile_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.batches": batches / n_req,
        "serve.mean_batch_rows":
            delta("repro_microbatch_rows_total") / batches if batches
            else 0.0,
        "serve.mean_layer_rows": delta("repro_net_layer_rows_sum")
        / max(delta("repro_net_layer_rows_count"), 1),
        "serve.rejected": delta("repro_http_rejected_total"),
        "loadgen.sent": len(ok),
        "obs.trace_overhead_pct": _overhead_pct(lat_off, lat_on),
    })
    if not closed:
        metrics["loadgen.late_p99_ms"] = _pct(result["late"], 99) * 1e3
    out["metrics"] = metrics
    return out


def _arrivals(rng, n: int, seconds: float) -> np.ndarray:
    """Seeded send times of ``n`` open-loop requests over ``seconds``.

    A Poisson process with a dead time: each gap is
    :data:`OPEN_DEAD_TIME_S` plus an exponential part, the exponential
    parts scaled so that the gaps fill the window exactly.
    """
    extra = rng.exponential(size=n)
    free_s = max(seconds - n * OPEN_DEAD_TIME_S, 0.0)
    gaps = OPEN_DEAD_TIME_S + extra * (free_s / extra.sum())
    return np.cumsum(gaps) - gaps[0]


def _request(client, net_key, x, expected):
    """One checked request: ``(ok, logits or None)``. Refusals (429),
    server errors, timeouts and mismatched logits all return not-ok."""
    from repro.errors import ReproError
    try:
        y = client.net_predict(x, net_key=net_key)
    except (ReproError, OSError):
        return False, None
    y = np.asarray(y, dtype=np.float64)
    return y.tobytes() == expected.tobytes(), y


def _open_loop(port, net_key, pool, expected, due, conns, segments) -> dict:
    """Requests sent on a seeded schedule over ``conns`` connections.

    A connection takes the next due request only once it is free, so a
    stall delays later sends; latency is timed from the due time, and
    ``late`` records how far behind schedule each send went out.
    """
    from repro.serve.client import ServeClient

    n = len(due)
    latency, late = [0.0] * n, [0.0] * n
    ok, logits = [False] * n, [None] * n
    lock = threading.Lock()
    order = iter(range(n))
    t_start = time.perf_counter() + 0.05

    def worker():
        with ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as c:
            while True:
                with lock:
                    i = next(order, None)
                if i is None or time.perf_counter() \
                        > t_start + due[-1] + LATE_LIMIT_S:
                    return
                t_due = t_start + due[i]
                _sleep_until(t_due)
                sent = time.perf_counter()
                ok[i], logits[i] = _request(c, net_key, pool[i], expected[i])
                latency[i] = time.perf_counter() - t_due
                late[i] = sent - t_due

    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    segments.drive(t_start, float(due[-1]))
    for t in threads:
        t.join()
    return {"latency": latency, "late": late, "ok": ok, "logits": logits,
            "traced": [segments.traced(d) for d in due],
            "wall": time.perf_counter() - t_start}


def _closed_loop(port, net_key, pool, expected, conns, seconds,
                 segments) -> dict:
    """``conns`` connections, each sending its next request as soon as the
    previous one answered, until the window closes."""
    from repro.serve.client import ServeClient

    records = []   # (sequence, latency, ok, logits, traced)
    lock = threading.Lock()
    sequence = iter(range(1 << 62))
    t_start = time.perf_counter()

    def worker():
        with ServeClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as c:
            while (offset := time.perf_counter() - t_start) < seconds:
                with lock:
                    i = next(sequence)
                j = i % len(pool)
                t0 = time.perf_counter()
                good, y = _request(c, net_key, pool[j], expected[j])
                with lock:
                    records.append((i, time.perf_counter() - t0, good, y,
                                    segments.traced(offset)))

    threads = [threading.Thread(target=worker) for _ in range(conns)]
    for t in threads:
        t.start()
    segments.drive(t_start, seconds)
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    records.sort(key=lambda r: r[0])
    return {"latency": [r[1] for r in records],
            "late": [0.0] * len(records), "ok": [r[2] for r in records],
            "logits": [r[3] for r in records],
            "traced": [r[4] for r in records], "wall": wall}


# ----------------------------------------------------------------------
def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        perturb: bool = False) -> dict:
    """Run one workload; returns ``{correct, attempted, failed, metrics}``
    with ``metrics`` as ``{name: {"value", "unit"}}`` — the end-to-end set
    untraced, the per-layer set traced.

    ``perturb`` nudges every expected output by one ulp, so a correct
    program must then fail every check (the benchmark's own test).
    """
    if workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; expected one "
                             f"of {', '.join(WORKLOADS)}")
    ctx = Context(root, seed, seconds, trace, perturb)
    try:
        if ctx.tracer:
            ctx.tracer.install()
        if workload == "offline-resnet":
            out = _offline(ctx)
        else:
            out = _serve(ctx, closed=workload == "serve-closed")
    except ServerStartError as exc:
        raise BenchmarkError(str(exc)) from exc
    finally:
        if ctx.tracer:
            ctx.tracer.remove()
        ctx.close()
    attempted = max(int(out["attempted"]), 1)
    failed = int(out["failed"])
    schema = PER_LAYER if trace else END_TO_END
    metrics = dict.fromkeys(schema, 0.0)
    metrics.update(out["metrics"])
    if trace:
        metrics["failed_frac"] = failed / attempted
        trace_dir = os.path.join(root, ".perfbench", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        ctx.tracer.dump(os.path.join(trace_dir, f"{workload}-{seed}.json"),
                        {"workload": workload, "seed": seed,
                         "seconds": seconds, "metrics": metrics})
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(metrics[name]),
                               "unit": schema[name]} for name in schema}}
