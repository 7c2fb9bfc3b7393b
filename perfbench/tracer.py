"""In-memory span recorder and the wrappers that time each package layer.

Layers are measured from outside: :class:`Tracer` replaces public
functions and methods of ``repro`` with timing wrappers while it is
installed, and puts the originals back when it is removed. Each wrapper
is installed where its caller looks the function up — a module that did
``from x import f`` holds its own reference, so ``f`` is patched in that
module, not (only) in ``x``.

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
aggregated per name into self time (duration minus the direct child
spans), call count and rows; :meth:`Tracer.dump` writes them out once,
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from collections import defaultdict
from types import SimpleNamespace


def _rows_of_arg(index: int):
    """Row count of positional argument ``index`` (its first axis)."""
    def rows(args, kwargs):
        try:
            return int(args[index].shape[0])
        except (IndexError, AttributeError, TypeError):
            return 0
    return rows


def _patch_table():
    """``(owner, attribute, span name, rows-of-call or None)`` per wrapper.

    Imported lazily: the table names ``repro`` objects, and the benchmark
    must import the package from its own checkout first.
    """
    import repro.api
    import repro.core.zoo as zoo
    import repro.funcsim.compiler as compiler
    import repro.funcsim.engine as engine
    import repro.funcsim.layers as layers
    import repro.funcsim.runtime.kernel as kernel
    import repro.nn.functional as functional
    import repro.serve.client as client
    from repro.circuit.simulator import CrossbarCircuitSimulator
    from repro.core.model import GeniexNet
    from repro.funcsim.quant import FixedPointFormat
    from repro.funcsim.runtime.backends.numpy_backend import NumpyBackend

    return [
        # api: session construction resolves the emulator (train or load)
        # and builds the engine.
        (repro.api, "open_session", "api.open_session", None),
        # core: characterisation + training, and the GENIEx forward that
        # geniex tiles run per read-out.
        (zoo, "build_geniex_dataset", "core.dataset", None),
        (zoo, "train_geniex", "core.train", None),
        (GeniexNet, "forward_hidden", "core.emulator", _rows_of_arg(1)),
        # circuit: batched crossbar solves of the characterisation sweep.
        (CrossbarCircuitSimulator, "solve_batch", "circuit.solve",
         _rows_of_arg(1)),
        # funcsim: weight programming, kernel compile, and the execute
        # stages of one crossbar matmul.
        (engine.CrossbarMvmEngine, "prepare", "funcsim.prepare", None),
        (engine, "compile_program", "funcsim.compile", None),
        (engine.CrossbarMvmEngine, "matmul", "funcsim.matmul",
         _rows_of_arg(1)),
        (engine, "quantize_input", "funcsim.quantize", None),
        (engine, "active_signs", "funcsim.quantize", None),
        (kernel, "gather_streams", "funcsim.quantize", None),
        (compiler, "gather_streams", "funcsim.quantize", None),
        (engine, "run_tile_row", "funcsim.readout", None),
        (kernel, "run_tile_row", "funcsim.readout", None),
        (compiler.CompiledLayer, "_replay_cache", "funcsim.cache", None),
        (NumpyBackend, "decode_contract", "funcsim.merge", None),
        (NumpyBackend, "decode_accumulate", "funcsim.merge", None),
        (FixedPointFormat, "quantize", "funcsim.merge", None),
        # nn: patch extraction of the crossbar conv layers and of pooling.
        (layers, "im2col", "nn.im2col", None),
        (functional, "im2col", "nn.im2col", None),
        # serve (client side): request body encode and response decode.
        (client, "json", None, None),
    ]


class Tracer:
    """Wrapper-based layer timing with nested self time.

    ``install()``/``remove()`` may alternate (the benchmark measures
    tracing overhead that way); aggregates accumulate across installs.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.rows = defaultdict(int)

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, rows: int = 0):
        """Record one span around a block (used around whole calls the
        benchmark makes itself, such as a model forward)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, rows)

    def _enter(self, name: str):
        stack = self._stack()
        frame = [name, time.perf_counter(), 0.0,
                 stack[-1][4] if stack else -1, None]
        with self._lock:
            frame[4] = len(self.spans)
            self.spans.append(None)
        stack.append(frame)
        return frame

    def _exit(self, frame, rows: int) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, child, parent, index = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.spans[index] = (name, start, end, parent)
            self.self_s[name] += duration - child
            self.calls[name] += 1
            self.rows[name] += rows

    def _wrap(self, fn, name: str, rows_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame, rows_of(args, kwargs) if rows_of else 0)
        return wrapper

    def _json_shim(self, module):
        wrap = self._wrap
        return SimpleNamespace(
            dumps=wrap(module.dumps, "serve.client_encode", None),
            loads=wrap(module.loads, "serve.client_decode", None),
            JSONDecodeError=module.JSONDecodeError)

    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, rows_of in _patch_table():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if name is None:
                replacement = self._json_shim(original)
            elif isinstance(original, staticmethod):
                replacement = staticmethod(
                    self._wrap(original.__func__, name, rows_of))
            else:
                replacement = self._wrap(original, name, rows_of)
            setattr(owner, attr, replacement)
            self._saved.append((owner, attr, original))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def dump(self, path: str, meta: dict) -> None:
        """Write every recorded span (times relative to the first);
        ``parent`` is the ``id`` of the enclosing span, -1 at the top."""
        done = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        t0 = min((s[1] for _, s in done), default=0.0)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [
                {"id": i, "name": n, "parent": p,
                 "start_ms": round((a - t0) * 1e3, 4),
                 "duration_ms": round((b - a) * 1e3, 4)}
                for i, (n, a, b, p) in done]}, fh)

