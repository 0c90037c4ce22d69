"""Repository benchmark: ``python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Runs one workload against the system in ``src/`` (from the repository
root), checks its outputs against a reference, and prints one JSON
object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` the run is made untraced and then traced, and the metrics
are the per-layer ones, including the tracing overhead.

Exit codes: 0 with a result line; 2 when the run is invalid or the
system under test is missing (no result line).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, BenchError, require_repo  # noqa: E402

WORKLOADS = ("batch-catalog", "serve-steady", "serve-history")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Unwind on SIGTERM too, so the servers a run started are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        require_repo()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layer_names = [m["name"] for m in spec["per_layer"]]
        if args.workload == "batch-catalog":
            import batch

            batch.run(args.seed, args.seconds, bool(args.trace), layer_names)
        else:
            import served

            served.run(args.workload, args.seed, args.seconds, bool(args.trace), layer_names)
    except (BenchError, OSError) as exc:
        print(f"repobench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
