"""A ``python -m repro serve`` child process with a bounded lifetime.

The server runs in its own process so the load generator never shares
its interpreter lock. It is started on a port picked free beforehand,
counted ready only once ``/healthz`` answers, and always terminated:
:meth:`ServerProcess.stop` is idempotent and the class is a context
manager. Its combined output goes to a log file, which failures quote.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time


class ServerStartError(RuntimeError):
    """The server exited or never became ready; carries its output."""


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro serve`` process over a given GENIEx zoo directory."""

    def __init__(self, root: str, cache_dir: str, log_path: str):
        self.root = root
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.port = None
        self.proc = None

    def start(self, timeout_s: float = 60.0) -> "ServerProcess":
        from repro.errors import ReproError
        from repro.serve.client import ServeClient

        self.port = free_port()
        env = dict(os.environ, REPRO_CACHE_DIR=self.cache_dir,
                   PYTHONPATH=os.path.join(self.root, "src"))
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--host", "127.0.0.1", "--port", str(self.port),
                 "--cache-dir", self.cache_dir],
                cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise ServerStartError(
                    f"server exited with code {self.proc.returncode} "
                    f"before becoming ready:\n{self.output()}")
            try:
                with ServeClient("127.0.0.1", self.port, timeout=2) as c:
                    c.health()
                return self
            except (ReproError, OSError):
                pass
            if time.monotonic() > deadline:
                self.stop()
                raise ServerStartError(
                    f"server not ready on port {self.port} after "
                    f"{timeout_s:g} s:\n{self.output()}")
            time.sleep(0.05)

    def output(self) -> str:
        try:
            with open(self.log_path, "rb") as fh:
                return fh.read().decode(errors="replace")[-4000:]
        except OSError:
            return "(no server output)"

    def peak_rss_mb(self) -> float:
        """High-water resident set size of the server process."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
