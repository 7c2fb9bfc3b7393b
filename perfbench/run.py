"""Benchmark of the GENIEx emulator and serving stack (one command).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline-resnet --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``offline-resnet``, ``serve-open``, ``serve-closed`` (see
``perfbench/README.md``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records provenance. The package is imported from ``src/`` of
the checkout; without it the run fails with a non-zero exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_package():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"no package sources under {src}")
    sys.path.insert(0, src)
    import repro
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")


def _git(*args) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None


def provenance() -> dict:
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so every server child is stopped
    # and the scratch directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import workloads

    try:
        result = workloads.run(ROOT, args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except workloads.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("provenance " + json.dumps(provenance()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
