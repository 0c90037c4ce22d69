"""Tiny-scale self-check of the benchmark: ``python3 repobench/selfcheck.py``.

Runs every workload (the gated ones in ``BENCHMARK.json`` and the
ungated ``batch-catalog``) for one second, untraced and traced, through the
real command, and checks the result line against ``BENCHMARK.json``:
every metric present with its unit, outputs correct, nothing failed.
It also checks that the benchmark refuses to run (non-zero exit, no
result line) in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files. Takes about a minute on two cores; the tier-1
suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import ROOT, WORK  # noqa: E402
from run import WORKLOADS  # noqa: E402
from trace_points import LAYER_UNITS  # noqa: E402


def _result(cwd: Path, workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout + proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layer_spec != LAYER_UNITS:
        failures.append("BENCHMARK.json per_layer differs from trace_points.LAYER_UNITS")
    for workload in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, output = _result(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if code != 0:
                failures.append(f"{label}: exit {code}\n{output[-1500:]}")
                continue
            doc = json.loads(output.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[group]}
            got = {name: m["unit"] for name, m in doc["metrics"].items()}
            if got != expected:
                failures.append(f"{label}: metric names/units differ from BENCHMARK.json")
            if set(doc) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(doc)}")
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                failures.append(f"{label}: correct={doc['correct']} failed={doc['failed']}")
            if trace == 0 and any(m["value"] == 0 for m in doc["metrics"].values()):
                failures.append(f"{label}: an end-to-end metric is 0")
            print(f"ok   {label}", flush=True)
    WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "repobench", ignore=shutil.ignore_patterns("__pycache__"))
        code, output = _result(bare, "batch-catalog", 0)
        if code == 0 or '"metrics"' in output:
            failures.append("benchmark ran without the system under test")
        else:
            print("ok   refuses to run without src/", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
