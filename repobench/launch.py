"""Process launch hygiene and /proc readings.

Every process the benchmark starts gets the same pinned environment:
BLAS/OpenMP pools of one thread (numpy's import would otherwise spin up
a pool whose threads burn CPU during set-up), an explicit matrix
backend, a fixed hash seed, and the native-kernel cache and ``TMPDIR``
under the benchmark's scratch directory inside the checkout.

CPU time is read to the nanosecond from ``/proc/<pid>/task/*/schedstat``
(the first field is time on CPU), peak memory from ``VmHWM``, and the
host's steal share from ``/proc/stat``.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".repobench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MATRIX_BACKEND = "bitmask"
#: Marks a process that already runs under :func:`pinned_env`.
MARKER = "REPOBENCH_PINNED"


def pinned_env() -> dict:
    """The environment every benchmark process runs under."""
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    src = str(ROOT / "src")
    env.update({
        "REPRO_MATRIX_BACKEND": MATRIX_BACKEND,
        "REPRO_NATIVE_CACHE": str(SCRATCH / "native"),
        "TMPDIR": str(SCRATCH / "tmp"),
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": src + (os.pathsep + env["PYTHONPATH"]
                             if env.get("PYTHONPATH") else ""),
        MARKER: "1",
    })
    return env


def reexec_pinned() -> None:
    """Re-run this interpreter under :func:`pinned_env` (once)."""
    if os.environ.get(MARKER) == "1":
        return
    env = pinned_env()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


# -- /proc -------------------------------------------------------------------

def cpu_ns(pid: int) -> int:
    """Nanoseconds on CPU summed over every thread of ``pid``."""
    total = 0
    task_dir = f"/proc/{pid}/task"
    for tid in os.listdir(task_dir):
        try:
            with open(f"{task_dir}/{tid}/schedstat") as handle:
                total += int(handle.read().split()[0])
        except FileNotFoundError:
            pass  # the thread ended between listdir and open
    return total


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_ticks() -> tuple:
    """(steal, total) jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(before: tuple, after: tuple) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def provenance(seed: int, side=None) -> dict:
    """What a result needs so a noisy run can be explained later."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    from repro.rag import batch, native

    stamp = {
        "matrix_backend": os.environ.get("REPRO_MATRIX_BACKEND", "bitmask"),
        "native_impl": native.impl_name() or "none",
        "numpy": "yes" if batch.HAS_NUMPY else "no",
    }
    if side is not None:
        stamp["plane_words"] = str(batch.plane_words(side))
    return {"seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "backend_stamp": stamp}


# -- the service process -------------------------------------------------------

SERVER_ARGS = ("--no-processes", "--shards", "2")
#: A service silent this long fails the run instead of hanging it.
REPLY_TIMEOUT_S = 60.0


class Server:
    """One ``repro.service`` process on an ephemeral TCP port."""

    def __init__(self, traced: bool = False) -> None:
        if traced:
            argv = [sys.executable,
                    str(Path(__file__).with_name("traced_server.py")),
                    *SERVER_ARGS]
        else:
            argv = [sys.executable, "-m", "repro.service", *SERVER_ARGS]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=str(ROOT), env=pinned_env(),
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            raise RuntimeError(
                f"service exited before ready (code {self.proc.returncode})")
        self.port = json.loads(line)["port"]
        self.pid = self.proc.pid

    def connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port))
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(REPLY_TIMEOUT_S)
        return sock

    def cpu_ns(self) -> int:
        return cpu_ns(self.pid)

    def vm_hwm_mb(self) -> float:
        return vm_hwm_mb(self.pid)

    def stop(self, conn) -> None:
        """Stop with the ``shutdown`` op (SIGTERM with a connection open
        makes the service print a ``CancelledError`` traceback)."""
        try:
            conn.sendall(b'{"op":"shutdown","id":"stop"}\n')
            conn.settimeout(10)
            while conn.recv(65536):
                pass
        except OSError:
            pass
        finally:
            conn.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self.proc.stdout.close()

    def kill(self) -> None:
        """Last resort on an error path."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self.proc.stdout.close()
