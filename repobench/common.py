"""Shared helpers: repository paths, statistics, memory and the result line."""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TOOLS = ROOT / "tools"
#: Scratch space for server state dirs, logs and span files (git-ignored).
WORK = ROOT / ".repobench_work"


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement (no result line)."""


def require_repo() -> None:
    """Fail unless the system under test is present next to the benchmark."""
    missing = [p for p in (SRC / "repro" / "__init__.py", TOOLS / "serve_smoke.py") if not p.exists()]
    if missing:
        raise BenchError(f"system under test not found: {', '.join(map(str, missing))}")
    for path in (str(SRC), str(TOOLS)):
        if path not in sys.path:
            sys.path.insert(0, path)


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Inclusive quantile ``q`` in (0, 1) of ``values`` (0 when empty)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def growth(*series: list[float], parts: int = 4, center=statistics.median) -> float:
    """``center`` of the last ``1/parts`` of the samples over that of the first.

    The first sample of each series is excluded (warm-up: first block,
    first event). With several series of equal length (repetitions of
    one run), each part pools the same positions of every series.
    """
    length = min(len(s) for s in series) - 1
    if length < parts:
        raise BenchError(f"growth needs at least {parts + 1} samples, got {length + 1}")
    size = length // parts
    first = [x for s in series for x in s[1:1 + size]]
    last = [x for s in series for x in s[length + 1 - size:length + 1]]
    return center(last) / center(first)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    """Print the result object as the last line of standard output."""
    doc: dict[str, Any] = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.flush()
    print(json.dumps(doc), flush=True)
