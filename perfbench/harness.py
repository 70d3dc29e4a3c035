"""Measurement harness shared by the five workloads.

One run = one workload in one fresh process: set up (several times,
the median is ``setup_s``), a measured phase of whole passes with
tracing off, then — with ``--trace 1`` — a traced pass whose spans
give the per-layer numbers.  Everything a run writes lives under one
temp root inside ``--out`` and is removed on success and on failure.
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.trace import NULL, Recorder, self_seconds, self_time_table

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

#: A percentile needs ten samples beyond it, so p90 needs a hundred.
P90_MIN_SAMPLES = 100

#: The artifact cache of ``repro.cache``; every run gets a fresh one.
CACHE_DIR_ENV = "GRANULA_CACHE_DIR"

#: ``setup_s`` is the median of up to this many set-ups, as many as
#: fit the time budget; a set-up of several seconds is done once.
MAX_SETUPS = 3
SETUP_BUDGET_S = 6.0

#: A traced run splits ``--seconds``: an untraced phase (class latencies,
#: and the pass time tracing overhead is measured against), the traced
#: passes, and the rest for the workload's layer probes.
UNTRACED_SHARE = 0.3
TRACED_SHARE = 0.4

#: Two calibration stamps further apart than this flag the run noisy.
NOISY_CALIBRATION_SHARE = 0.10

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_BANNER_URL = re.compile(r"http://([\d.]+):(\d+)")


# -- arithmetic ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p90_or_zero(values: Sequence[float]) -> float:
    """p90 when the sample supports it, else 0 (reported as undefined)."""
    if len(values) < P90_MIN_SAMPLES:
        return 0.0
    return percentile(values, 90)


def calibrate() -> float:
    """Milliseconds for a fixed numpy + pure-Python loop on this box now.

    The fastest of five tries: the minimum is what the box can do, the
    rest is whoever else was running.  The numpy half works in place —
    fresh 1.6 MB arrays would time the allocator's state (page faults
    until malloc stops returning them to the OS), not the box.
    """
    vector = np.arange(200_000, dtype=np.float64)
    scratch = np.empty_like(vector)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(24):
            np.multiply(vector, 1.0001, out=scratch)
            np.sqrt(scratch, out=scratch)
        total = 0
        for i in range(250_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1000.0


# -- process accounting ----------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm may contain spaces and parentheses; fields resume after it.
    return text[text.rindex(")") + 2:].split()


def process_tree(root_pid: int) -> List[int]:
    """``root_pid`` and every live descendant (shard workers are forked)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parents[int(entry)] = int(fields[1])
    tree, frontier = [root_pid], [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent:
                tree.append(pid)
                frontier.append(pid)
    return tree


def cpu_seconds(child_pids: Iterable[int]) -> float:
    """User+system CPU of this process plus the given live children."""
    total = time.process_time()
    for pid in child_pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb(child_pids: Iterable[int]) -> float:
    """Sum of the resident-set high-water marks (``VmHWM``), in MB."""
    total_kb = 0
    for pid in [os.getpid(), *child_pids]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def disk_bytes(directory: Path) -> int:
    """Bytes of every regular file under ``directory``."""
    return sum(
        path.stat().st_size
        for path in directory.rglob("*") if path.is_file()
    )


# -- child servers ---------------------------------------------------------------


class ServerProcess:
    """One ``python -m repro.cli serve`` child on an ephemeral port."""

    def __init__(self, store: Path, extra_args: Sequence[str] = ()):
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        # Own session: if the router has to be SIGKILLed, the group kill
        # still reaches the shard workers it forked.
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", str(store),
             "--port", "0", *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, start_new_session=True,
        )
        try:
            banner = self.process.stdout.readline()
            match = _BANNER_URL.search(banner)
            if match is None:
                raise RuntimeError(f"no serve banner, got {banner!r}")
            self.host, self.port = match.group(1), int(match.group(2))
        except BaseException:
            self.stop()
            raise

    def pids(self) -> List[int]:
        return process_tree(self.process.pid)

    def stop(self) -> Optional[int]:
        """SIGTERM, then SIGKILL the whole group; always reaps."""
        process = self.process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        code = process.wait()
        process.stdout.close()
        return code


# -- workloads -------------------------------------------------------------------


@dataclass
class Op:
    """One measured operation: its class, latency and output check."""

    cls: str
    seconds: float
    ok: bool = True


@dataclass
class RunContext:
    """What a workload needs from the run that hosts it."""

    root: Path
    seed: int
    quick: bool
    trace: bool


class Workload:
    """One named workload; subclasses fill in the five steps."""

    name = ""

    def __init__(self, ctx: RunContext):
        self.ctx = ctx
        #: Output-check failures outside any single op (drain, checksums).
        self.failures: List[str] = []

    def setup(self, rec: Any) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` acquired (servers, directories)."""

    def run_pass(self, rec: Any) -> List[Op]:
        raise NotImplementedError

    def check_pass(self, rec: Any) -> None:
        """Output checks too costly to run inside the timed pass."""

    def finish(self) -> None:
        """Checks after the last pass (e.g. zero acked loss)."""

    def child_pids(self) -> List[int]:
        return []

    def stored(self) -> Tuple[int, int]:
        """(bytes on disk, archived operations) of what the run stored."""
        raise NotImplementedError

    def layer_metrics(self, rec: Recorder) -> Dict[str, float]:
        """Trace-only probes plus the layer numbers read off the spans."""
        raise NotImplementedError


@dataclass
class Phase:
    """Whole passes of one measured phase."""

    ops: List[Op] = field(default_factory=list)
    pass_walls: List[float] = field(default_factory=list)
    cpu_s: float = 0.0

    def latencies_ms(self, classes: Optional[Sequence[str]] = None,
                     ) -> List[float]:
        return [
            op.seconds * 1000.0 for op in self.ops
            if classes is None or op.cls in classes
        ]


def measure(workload: Workload, rec: Any, seconds: float,
            max_passes: Optional[int] = None) -> Phase:
    """Run whole passes until ``seconds`` have gone by (at least one)."""
    phase = Phase()
    deadline = time.perf_counter() + seconds
    while True:
        pids = workload.child_pids()
        cpu0 = cpu_seconds(pids)
        started = time.perf_counter()
        with rec.span("perfbench.pass"):
            ops = workload.run_pass(rec)
        phase.pass_walls.append(time.perf_counter() - started)
        phase.cpu_s += cpu_seconds(pids) - cpu0
        phase.ops.extend(ops)
        workload.check_pass(rec)
        if time.perf_counter() >= deadline or (
                max_passes is not None
                and len(phase.pass_walls) >= max_passes):
            return phase


#: Operation classes behind the class-latency metrics.
READ_CLASSES = ("point_query", "tree_read", "report", "get_job", "query",
                "list")
WRITE_CLASSES = ("ingest", "salvage", "live", "post")
SCAN_CLASSES = ("fleet",)


def class_latency_metrics(phase: Phase) -> Dict[str, float]:
    """Read/write/scan latencies; 0 where the workload has no such op."""
    reads = phase.latencies_ms(READ_CLASSES)
    writes = phase.latencies_ms(WRITE_CLASSES)
    scans = phase.latencies_ms(SCAN_CLASSES)
    return {
        "read_p50_ms": percentile(reads, 50) if reads else 0.0,
        "read_p90_ms": p90_or_zero(reads),
        "write_p50_ms": percentile(writes, 50) if writes else 0.0,
        "write_p90_ms": p90_or_zero(writes),
        "scan_p50_ms": percentile(scans, 50) if scans else 0.0,
        "op_p90_ms": p90_or_zero(phase.latencies_ms()),
    }


def end_to_end_metrics(workload: Workload, phase: Phase,
                       setup_times: List[float]) -> Dict[str, float]:
    ops = len(phase.ops)
    stored_bytes, stored_operations = workload.stored()
    # Throughput from the median whole pass, so one disturbed pass does
    # not move it; passes of one workload all hold the same op count.
    ops_per_pass = ops / len(phase.pass_walls)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_pass / statistics.median(phase.pass_walls),
        "op_p50_ms": percentile(phase.latencies_ms(), 50),
        "cpu_s_per_op": phase.cpu_s / ops,
        "peak_rss_mb": peak_rss_mb(workload.child_pids()),
        "stored_bytes_per_operation": stored_bytes / stored_operations,
    }


def span_coverage(rec: Recorder) -> float:
    """Share of traced pass time that named layer spans account for."""
    own = self_seconds(rec.spans)
    uncovered = total = 0.0
    for span, self_s in zip(rec.spans, own):
        if span.name == "perfbench.pass":
            uncovered += self_s
            total += span.duration
    return 1.0 - uncovered / total if total else 0.0


def environment_stamp(seed: int) -> Dict[str, Any]:
    """Seed, box and code identity for the result document."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, check=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # A plain checkout without git metadata.
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


@dataclass
class RunResult:
    """Everything one run produced; ``metrics`` is what the contract prints."""

    workload: str
    trace: bool
    metrics: Dict[str, float]
    attempted: int
    failed: int
    failures: List[str]
    envelope: Dict[str, Any]
    self_time: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def run_workload(workload_cls: type, seed: int, seconds: float,
                 trace: bool, out: Path, quick: bool) -> RunResult:
    """One hermetic run of one workload."""
    out.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    saved_cache_dir = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(root / "cache")
    workload = workload_cls(RunContext(root, seed, quick, trace))
    rec = Recorder(workload.name) if trace else NULL
    max_passes = 1 if quick else None
    calibration = [calibrate()]
    self_time: Dict[str, Dict[str, float]] = {}
    try:
        setup_times: List[float] = []
        try:
            while True:
                started = time.perf_counter()
                with rec.span("perfbench.setup"):
                    workload.setup(rec)
                setup_times.append(time.perf_counter() - started)
                if quick or len(setup_times) == MAX_SETUPS or (
                        sum(setup_times) + setup_times[-1] > SETUP_BUDGET_S):
                    break
                workload.teardown()
            if trace:
                phase = measure(workload, NULL, seconds * UNTRACED_SHARE,
                                max_passes)
                traced = measure(workload, rec, seconds * TRACED_SHARE,
                                 max_passes)
                metrics = workload.layer_metrics(rec)
                workload.finish()
                metrics.update(class_latency_metrics(phase))
                metrics["perfbench.trace_overhead_share"] = (
                    statistics.median(traced.pass_walls)
                    / statistics.median(phase.pass_walls) - 1.0)
                metrics["perfbench.span_coverage_share"] = span_coverage(rec)
                phase.ops.extend(traced.ops)
                rec.write(out / f"trace-{workload.name}.json")
                self_time = self_time_table(rec.spans)
            else:
                phase = measure(workload, NULL, seconds, max_passes)
                workload.finish()
                metrics = end_to_end_metrics(workload, phase, setup_times)
        finally:
            workload.teardown()
    finally:
        shutil.rmtree(root, ignore_errors=True)
        if saved_cache_dir is None:
            del os.environ[CACHE_DIR_ENV]
        else:
            os.environ[CACHE_DIR_ENV] = saved_cache_dir
    calibration.append(calibrate())
    envelope = dict(
        environment_stamp(seed),
        calibration_ms=calibration,
        noisy=abs(calibration[1] - calibration[0])
        > NOISY_CALIBRATION_SHARE * min(calibration),
        passes=len(phase.pass_walls),
        setup_times_s=setup_times,
        quick=quick,
    )
    return RunResult(
        workload=workload.name, trace=trace, metrics=metrics,
        attempted=len(phase.ops),
        failed=sum(1 for op in phase.ops if not op.ok),
        failures=workload.failures, envelope=envelope,
        self_time=self_time,
    )
