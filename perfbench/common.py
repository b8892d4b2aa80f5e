"""Shared pieces: environment pinning, processes, HTTP, statistics."""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import http.client
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every process the benchmark starts runs BLAS single-threaded: on a
#: 2-CPU box a second BLAS thread would contend with the server's event
#: loop and the load generator instead of adding throughput.
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS")}

#: Connections (and at most as many threads) the load generator uses.
CONNECTIONS = os.cpu_count() or 1

#: CPU pinning.  A server and its load generator ping-pong on every
#: request; left to the scheduler, they are sometimes woken onto the same
#: CPU and the closed loop halves its rate for the whole run.  The load
#: generator gets the last CPU, everything else (the benchmark process,
#: the server, in-process workloads) the others.
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPUS = set(_CPUS[-1:])
PROGRAM_CPUS = set(_CPUS[:-1]) or GENERATOR_CPUS


@contextlib.contextmanager
def on_cpu(step: int):
    """Run the body on CPU ``step`` (mod the CPU count), then return to
    :data:`PROGRAM_CPUS`.

    Work measured inside this process alternates CPUs between timed
    steps.  On a shared VM each virtual CPU's speed drifts by a quarter
    or more over seconds, independently of the other; alternating
    averages the two instead of betting a whole run on one."""
    os.sched_setaffinity(0, {_CPUS[step % len(_CPUS)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, PROGRAM_CPUS)


class BenchError(RuntimeError):
    """A run that must not report numbers (bad setup, generator behind)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env.pop("REPRO_SERVE_LOG", None)
    return env


def environment() -> dict:
    """What a result depends on besides the code: recorded with every
    run."""
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_per_process": int(BLAS_THREADS),
            "program_cpus": sorted(PROGRAM_CPUS),
            "generator_cpus": sorted(GENERATOR_CPUS)}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's peak RSS from its current RSS, so that
    :func:`peak_rss_mb` covers only what runs afterwards.  Memory the
    benchmark freed (inputs of earlier set-up reps, references) is first
    handed back to the system, so it does not stay resident under the
    new peak."""
    gc.collect()
    ctypes.CDLL(None).malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")  # 5: reset the peak RSS (VmHWM)


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Server:
    """One server process booted through a module's CLI; stopped with
    SIGTERM (graceful drain) and waited for."""

    def __init__(self, module: str, args: list[str], log_path: Path):
        self._log = open(log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            [sys.executable, "-m", module, *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        os.sched_setaffinity(self.process.pid, PROGRAM_CPUS)
        self.port = None
        self.log_path = log_path

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Parse the port from the banner, then poll ``/healthz`` until it
        answers 200."""
        deadline = time.monotonic() + timeout
        banner = self.process.stdout.readline()
        if "http://" not in banner:
            self.stop()
            raise BenchError(f"server did not start: {banner!r}; see "
                             f"{self.log_path.read_text()[-2000:]}")
        address = banner.split("http://", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        while time.monotonic() < deadline:
            try:
                status, _ = get_json(self.port, "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        self.stop()
        raise BenchError("server never answered /healthz")

    def stop(self) -> int:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        return self.process.returncode


def run_loadgen(spec: dict, workdir: Path, name: str) -> dict:
    """Run the load generator process to completion; returns its output."""
    spec_path = workdir / f"{name}-spec.json"
    out_path = workdir / f"{name}-out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.loadgen", str(spec_path),
         str(out_path)], cwd=ROOT, env=child_env())
    os.sched_setaffinity(process.pid, GENERATOR_CPUS)
    try:
        code = process.wait(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchError(f"load generator exited {code}")
    return json.loads(out_path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# HTTP (set-up, warm-up and the correctness gate; not the load)
# ----------------------------------------------------------------------
def get_json(port: int, path: str) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Client:
    """One keep-alive connection posting single queries."""

    def __init__(self, port: int):
        self.connection = http.client.HTTPConnection("127.0.0.1", port,
                                                     timeout=30)

    def query(self, vector, k: int) -> tuple[int, dict]:
        body = json.dumps({"vector": vector.tolist(), "k": k})
        self.connection.request("POST", "/query", body,
                                {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.connection.close()
