"""Paths, child processes, percentiles and provenance shared by the workloads."""

from __future__ import annotations

import math
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import threading
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"
LAUNCH = BENCH_DIR / "launch.py"

#: At most this many concurrent connections or child processes.
NPROC = os.cpu_count() or 1
WORKERS = min(2, NPROC)

#: Campaign under test, on every workload that builds a store.
CAMPAIGN_DEVICES = "titan-x,tesla-p100"
TITAN_X = "NVIDIA GTX Titan X"


def program_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def import_repro() -> None:
    """Make the checkout's ``src/`` importable in the benchmark process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: One BLAS thread per process: the benchmark already runs up to ``NPROC``
#: processes at once, and threaded BLAS on top of that oversubscribes the
#: cores and makes fit times swing by a third from run to run.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REPRO_QUICK", None)
    return env


def cli_argv(args: list[str], spans: pathlib.Path | None = None, op: str | None = None) -> list[str]:
    """``python -m repro.cli ARGS``, or the traced launcher when ``spans``."""
    if spans is None:
        return [sys.executable, "-m", "repro.cli", *args]
    head = [sys.executable, str(LAUNCH), str(spans)]
    if op is not None:
        head += ["--op", op]
    return [*head, "--", *args]


class Finished:
    """Outcome of one child process run to completion."""

    def __init__(self, wall_s: float, returncode: int, maxrss_kb: int,
                 stdout: str, stderr: str) -> None:
        self.wall_s = wall_s
        self.returncode = returncode
        self.peak_rss_mb = maxrss_kb / 1024.0
        self.stdout = stdout
        self.stderr = stderr


def run_child(argv: list[str], log_dir: pathlib.Path, tag: str, timeout: float = 170.0) -> Finished:
    """Run ``argv`` to completion; wall time and the peak RSS of its tree.

    Output goes to files so the process is reaped with ``os.wait4``, whose
    ``ru_maxrss`` is the largest resident set of the child and of every
    descendant it waited for (campaign worker pools included).
    """
    out_path = log_dir / f"{tag}.out"
    err_path = log_dir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=str(log_dir))
        status, usage = _wait4(proc, timeout)
        end = time.perf_counter()
    return Finished(end - start, status, usage.ru_maxrss,
                    out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def _wait4(proc: subprocess.Popen, timeout: float):
    """Blocking ``wait4`` with a watchdog that kills an overdue child."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def reap(proc: subprocess.Popen, timeout: float = 30.0):
    """Wait for a process started elsewhere; ``(returncode, peak RSS MB)``."""
    code, usage = _wait4(proc, timeout)
    return code, usage.ru_maxrss / 1024.0


#: A fixed job that never touches the program: start-up, a numpy import,
#: dict-heavy Python, small matrix products, JSON and regex work.
REFERENCE_JOB = r"""
import json, re
import numpy as np
table, total = {}, 0
for i in range(100000):
    table[i & 2047] = str(i)
    total += len(table.get((i * 7) & 2047, ""))
a = np.random.default_rng(0).random((200, 200))
for _ in range(10):
    a = (a @ a.T) / 200.0
text = json.dumps([{"k": i, "v": [i] * 8} for i in range(10000)])
json.loads(text)
re.findall(r"\w+", text)
"""
#: The reference job's mean wall time on the host the benchmark was tuned
#: on (2 vCPUs of a 2.1 GHz Xeon): normalized times are times on that host.
REFERENCE_NOMINAL_S = 0.28


class Reference:
    """Host-speed gauge for a shared host whose speed drifts.

    On a shared host the same work runs at one of two speeds about 1.4x
    apart, switching within seconds, and the share of time spent slow
    drifts from minute to minute.  A workload times :data:`REFERENCE_JOB`
    between the operations of each timed phase; :meth:`factor` is
    ``REFERENCE_NOMINAL_S`` over the mean of that phase's samples (the
    mean, because the median of a two-speed sample jumps between the two),
    and a time times that factor is what the phase would have taken at
    the nominal host speed.  The job is the benchmark's own, so a change
    to the program cannot move it.
    """

    def __init__(self, log_dir: pathlib.Path) -> None:
        self.log_dir = log_dir
        self.samples: dict[str, list[float]] = {}

    def sample(self, phase: str) -> None:
        samples = self.samples.setdefault(phase, [])
        tag = f"reference-{phase}-{len(samples)}"
        done = run_child([sys.executable, "-c", REFERENCE_JOB], self.log_dir, tag)
        if done.returncode != 0:
            raise RuntimeError(f"reference job failed: {done.stderr[-400:]}")
        samples.append(done.wall_s)

    def factor(self, phase: str) -> float:
        samples = self.samples[phase]
        return REFERENCE_NOMINAL_S * len(samples) / sum(samples)


def fresh_dir(path: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def tree_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- statistics -------------------------------------------------------------------

def nearest_rank(ordered: list[float], pct: float) -> float:
    index = max(0, min(len(ordered) - 1, math.ceil(pct / 100.0 * len(ordered)) - 1))
    return ordered[index]


def median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest percentile that leaves at
    least ten samples beyond it: the eleventh largest sample, at percentile
    ``100 * (n - 10) / n``.  With ten samples or fewer, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def distribution(values: list[float]) -> dict:
    ordered = sorted(values)
    if not ordered:
        return {"n": 0}
    return {
        "n": len(ordered),
        "min": ordered[0],
        "p50": nearest_rank(ordered, 50),
        "p90": nearest_rank(ordered, 90),
        "p95": nearest_rank(ordered, 95),
        "p99": nearest_rank(ordered, 99),
        "max": ordered[-1],
    }


# -- provenance --------------------------------------------------------------------


def provenance(traced: bool) -> dict:
    import numpy
    import scipy

    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in (SRC / "repro").rglob("*.py")
    )
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "traced": traced,
        "blas_threads": int(PINNED_THREADS["OPENBLAS_NUM_THREADS"]),
        "src_lines": src_lines,
    }
