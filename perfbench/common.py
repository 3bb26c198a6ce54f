"""Shared plumbing of the benchmark workloads: run context, statistics, host record."""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class Context:
    """Everything one benchmark run knows about itself.

    ``out`` is the run's scratch area inside the checkout (``.perfbench/``);
    every file the benchmark writes goes there.  ``attempted``/``failed``
    count operations and correctness checks; a failed check fails the run.
    """

    root: Path
    workload: str
    seed: int
    seconds: float
    out: Path
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    # figures printed by their own names next to the gated metrics
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    # per-layer figures a workload measures itself (serve, online, campaign)
    layers: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failure counts against the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def operations(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    def note(self, name: str, value: float, unit: str) -> None:
        self.report[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def python_env(root: Path) -> Dict[str, str]:
    """Environment for child Python processes: the repo's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


#: candidate percentiles for the tail, highest first
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value."""
    data = sorted(values)
    n = len(data)
    for pct in _TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10.0:
            index = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            return pct, float(data[index])
    return 50.0, median(data)


def cpu_s() -> float:
    """CPU seconds of this process and of every child it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def process_cpu_s(pid: int) -> float:
    """CPU seconds of another live process, all its threads (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record(blas_threads: int) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


class Deadline:
    """Measurement window of ``--seconds``: run whole repetitions inside it."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + float(seconds)

    def room_for(self, estimate_s: float) -> bool:
        """True when one more repetition of ``estimate_s`` fits the window."""
        return time.perf_counter() + estimate_s <= self.end


def remember_digest(ctx: Context, key: str, digest: str) -> Optional[str]:
    """Store ``digest`` under ``key`` for later runs; return the earlier one."""
    path = ctx.out / "digests.json"
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is None:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    return previous
