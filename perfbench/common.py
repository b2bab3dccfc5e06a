"""Shared plumbing: locations, environment hygiene, statistics, children.

The benchmark runs from the root of a source checkout.  It never imports
the program from anywhere but ``<root>/src`` and keeps every file it
writes (the model zoo it trains once, temporary stores, server scratch
directories) under ``<root>/.bench_build``.
"""

from __future__ import annotations

import math
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
#: the zoo every detection workload loads from (trained once, untimed)
CACHE = BUILD / "repro-cache"
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"



class BenchError(Exception):
    """The benchmark cannot run here (missing program, broken child)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program under {SRC} (expected src/repro)")


def scrubbed_env() -> dict[str, str]:
    """The environment every workload and child runs under.

    Every ``REPRO_*`` override (backend, fast path, start method,
    profile, engine test hooks, log level) is removed so the benchmark
    measures the shipped defaults; only the zoo location is set.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(CACHE)
    env["PYTHONPATH"] = str(SRC)
    return env


def adopt_env() -> None:
    """Apply :func:`scrubbed_env` to this process and make ``repro`` importable."""
    env = scrubbed_env()
    for key in [k for k in os.environ if k not in env]:
        del os.environ[key]
    os.environ.update(env)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under ``.bench_build`` (caller removes it)."""
    BUILD.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=BUILD))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics ---------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def latency_metrics(samples: list[float]) -> dict:
    """Median and p80 of a run's latencies (ms, at reference host speed).

    p80 is the highest percentile with at least ten samples beyond it on
    every workload at the declared run length.
    """
    return {
        "latency_p50_ms": metric(percentile(samples, 50), "ms"),
        "latency_p80_ms": metric(percentile(samples, 80), "ms"),
    }


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# -- traced blocks -------------------------------------------------------------

#: traced runs split their window into this many untraced/traced blocks
TRACE_BLOCKS = 4


def block_gaps(done: list[float], start: float, seconds: float, blocks: int) -> list[list[float]]:
    """Gaps between consecutive completions, grouped by the block each ends in.

    ``done`` are completion times in a window that began at ``start`` and
    lasted ``seconds``; completions after the window are left out.
    """
    groups: list[list[float]] = [[] for _ in range(blocks)]
    ordered = sorted(done)
    for prev, now in zip(ordered, ordered[1:]):
        block = int((now - start) * blocks / seconds)
        if 0 <= block < blocks:
            groups[block].append(now - prev)
    return groups


def traced_block(block: int) -> bool:
    """Blocks run untraced, traced, traced, untraced (cancels linear drift)."""
    return 0 < block < TRACE_BLOCKS - 1


def tracing_overhead(windows: list[tuple[list[float], float, float]]) -> float:
    """Mean gap between completions in traced over untraced blocks, minus 1.

    ``windows`` are ``(done, start, seconds)`` triples, each split into
    :data:`TRACE_BLOCKS` blocks traced as :func:`traced_block` says.
    """
    on: list[float] = []
    off: list[float] = []
    for done, start, seconds in windows:
        for block, gaps in enumerate(block_gaps(done, start, seconds, TRACE_BLOCKS)):
            (on if traced_block(block) else off).extend(gaps)
    if not on or not off:
        return 0.0
    return (sum(on) / len(on)) / (sum(off) / len(off)) - 1.0


# -- memory -------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset this process's ``VmHWM`` to its current RSS (Linux >= 4.0).

    Input generation happens before the timed window; resetting the
    high-water mark keeps it out of ``peak_rss_mb``.  Where the kernel
    refuses, the lifetime peak stands.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


# -- child processes ----------------------------------------------------------


def start_child(
    args: list[str], *, cwd: Path | None = None, stderr=None
) -> subprocess.Popen:
    """Start ``python3 <args>`` under the scrubbed environment."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(cwd or ROOT),
        env=scrubbed_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
    )


def read_line(proc: subprocess.Popen, timeout_s: float) -> str:
    """The child's next stdout line, or :class:`BenchError` on timeout/EOF."""
    deadline = time.monotonic() + timeout_s
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"child {proc.args[1:3]} sent nothing in {timeout_s}s")
            if sel.select(left):
                line = proc.stdout.readline()
                if not line:
                    raise BenchError(
                        f"child {proc.args[1:3]} exited with {proc.wait()} before replying"
                    )
                return line.rstrip("\n")


def stop_child(proc: subprocess.Popen, timeout_s: float = 20.0) -> int:
    """Wait for ``proc`` to exit, killing it after ``timeout_s``."""
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def run_child(args: list[str], timeout_s: float) -> str:
    """Run a child to completion and return its last stdout line."""
    proc = start_child(args)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child {args[:2]} timed out after {timeout_s}s") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[:2]} printed nothing")
    return lines[-1]


def timed_setup(args: list[str], timeout_s: float = 120.0) -> float:
    """Seconds from spawning a setup probe to its ``ready`` line."""
    start = time.perf_counter()
    proc = start_child(args)
    try:
        line = read_line(proc, timeout_s)
        elapsed = time.perf_counter() - start
        if line != "ready":
            raise BenchError(f"setup probe {args[:2]} said {line!r}")
    finally:
        stop_child(proc)
    return elapsed
