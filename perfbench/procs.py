"""Child processes of the benchmark and what ``/proc`` says about them."""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def cpu_ms(pid: int) -> float:
    """utime + stime of *pid* in ms, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # fields 14, 15 of stat(5)
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


def rss_peak_mb(pid: int) -> float:
    """``VmHWM`` of *pid* in MiB, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


class Server:
    """One ``repro serve`` process started through ``serve_child.py``."""

    def __init__(self, store: str, market_budget: int, trace_out=None, args=()) -> None:
        self.port = free_port()
        argv = [sys.executable, os.path.join(HERE, "serve_child.py")]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        argv += ["--", "--port", str(self.port), "--store", store,
                 "--market-budget", str(market_budget), *args]
        self.trace_out = trace_out
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL)
        self.setup_s = self._wait_ready(t0)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_ready(self, t0: float) -> float:
        url = f"http://127.0.0.1:{self.port}/health"
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before ready")
            try:
                with urllib.request.urlopen(url, timeout=5.0) as resp:
                    if resp.status == 200:
                        return time.perf_counter() - t0
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server not ready within the timeout")
            time.sleep(0.005)

    def stop(self) -> None:
        """SIGINT (the server shuts down and writes its spans), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class BatchChild:
    """One paper-batch child: ``batch_child.py`` reading a job file."""

    def __init__(self, job: str, out: str, trace_out=None) -> None:
        argv = [sys.executable, os.path.join(HERE, "batch_child.py"), job, out]
        if trace_out is not None:
            argv.append(trace_out)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.wait()
            raise RuntimeError(f"batch child failed to start: {line!r}")
        self.setup_s = time.perf_counter() - t0

    def wait(self) -> int:
        try:
            self.proc.stdout.read()
            return self.proc.wait(timeout=STOP_TIMEOUT_S * 10)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
