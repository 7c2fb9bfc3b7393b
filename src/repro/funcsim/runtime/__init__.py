"""Execution kernels of the functional simulator.

The planner (:mod:`repro.funcsim.planner`) compiles prepared layers into
static tile programs; :meth:`repro.funcsim.engine.CrossbarMvmEngine.matmul`
executes them one tile-row at a time on the calling thread, each tile-row
through :func:`~repro.funcsim.runtime.kernel.run_tile_row`. That dispatch
runs the compiled fused kernel when the program carries one (see
:mod:`repro.funcsim.compiler`) and the interpreted reference kernel
otherwise — bit-identically either way. The fused kernel's array ops are
the numpy op set of :mod:`~repro.funcsim.runtime.backends`.

Parallelism comes from outside the kernel: OpenBLAS threads inside each
tile read-out, the serving scheduler's per-key workers and fleet worker
processes.
"""

from repro.funcsim.runtime.backends import resolve_backend
from repro.funcsim.runtime.kernel import (
    execute_tile_row,
    quantize_input,
    run_tile_row,
)

__all__ = [
    "execute_tile_row",
    "quantize_input",
    "resolve_backend",
    "run_tile_row",
]
