#!/usr/bin/env python
"""Benchmark regression gate for CI.

Compares a fresh ``benchmarks/results/summary.json`` (written by any
benchmark run via ``benchmarks.common.record_rows``) against the
committed ``benchmarks/baseline.json``.

Absolute throughput does not transfer between machines (or even between
runs on a loaded CI box), so the gate checks the *mix*: every cell's
current/baseline throughput ratio is normalized by the run's median
ratio, which cancels uniform machine-speed shifts. A cell whose
normalized ratio falls outside the tolerance (default ±30%) regressed
relative to the rest of the suite — the signature of a code change
slowing one operator or optimization — and fails the job. Mismatched
*match counts* on identical input sizes fail immediately: those are
correctness, not noise. The trade-off: a perfectly uniform slowdown of
every cell is indistinguishable from a slower machine and only produces
a warning; ``--absolute`` restores raw-ratio checking for same-machine
comparisons.

Usage::

    python tools/check_bench_regression.py benchmarks/results/summary.json
    python tools/check_bench_regression.py summary.json --tolerance 0.5
    python tools/check_bench_regression.py summary.json --absolute
    python tools/check_bench_regression.py summary.json --update   # rebless
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def iter_cells(summary: dict):
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        for key, cell in sorted(payload.get("cells", {}).items()):
            yield experiment, key, cell


#: Cells where the batched + fused engine must beat the per-event serial
#: reference by at least this factor at full scale (the ISSUE acceptance
#: floor; measured headroom is 3-5.5x). Patterns not listed only need
#: parity: NSEQ1's next-occurrence UDF is order-sensitive, which pins the
#: scheduler to strict arrival-order runs where batching cannot help.
BATCHED_SPEEDUP_FLOORS = {
    "SEQ1": 2.0,
    "ITER3_1": 2.0,
    "traffic-congestion": 2.0,
    "stalled-traffic": 2.0,
}
BATCHED_PARITY_FLOOR = 0.7
#: The speedup floors assume full-scale batches/windows; smoke runs
#: (REPRO_BENCH_EVENTS below this) only check parity.
BATCHED_FULL_SCALE_EVENTS = 20_000


def check_batched_cells(summary: dict) -> list[str]:
    """Intra-summary rule: every ``X+batched`` cell vs its sibling ``X``.

    Unlike the baseline comparison this is machine-independent — both
    cells of a pair come from the same run on the same box, so the ratio
    is a pure engine-overhead measurement and gets a hard floor.
    """
    breaches: list[str] = []
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        cells = payload.get("cells", {})
        full_scale = payload.get("events", 0) >= BATCHED_FULL_SCALE_EVENTS
        for key, cell in sorted(cells.items()):
            pattern, approach, parameter = key.split("|")
            if not approach.endswith("+batched"):
                continue
            sibling_key = f"{pattern}|{approach.removesuffix('+batched')}|{parameter}"
            sibling = cells.get(sibling_key)
            if sibling is None:
                columnar_key = (
                    f"{pattern}|{approach.removesuffix('+batched')}+columnar|{parameter}"
                )
                if columnar_key in cells:
                    # The pair belongs to the columnar gate: the batched
                    # row is the reference there, not the subject here.
                    continue
                breaches.append(
                    f"{experiment}/{key}: no serial sibling cell {sibling_key}"
                )
                continue
            if cell.get("matches") != sibling.get("matches"):
                breaches.append(
                    f"{experiment}/{key}: matches {cell.get('matches')} != "
                    f"serial sibling {sibling.get('matches')} -- batched "
                    "execution changed the output (correctness regression)"
                )
                continue
            serial_tps = sibling.get("throughput_tps") or 0.0
            batched_tps = cell.get("throughput_tps") or 0.0
            if serial_tps <= 0 or batched_tps <= 0:
                continue
            floor = BATCHED_PARITY_FLOOR
            if full_scale:
                floor = BATCHED_SPEEDUP_FLOORS.get(pattern, BATCHED_PARITY_FLOOR)
            ratio = batched_tps / serial_tps
            if ratio < floor:
                breaches.append(
                    f"{experiment}/{key}: batched engine {ratio:.2f}x the "
                    f"serial sibling (floor {floor:.2f}x) -- the batched "
                    "hot path lost its advantage"
                )
    return breaches


#: Cells where the columnar engine must beat the row-batched engine by at
#: least this factor at full scale (the ISSUE acceptance floor; measured
#: headroom is ~3-3.7x). The headline cells are filter-dominated
#: multi-conjunct operating points under the O1 interval join — the
#: regime the vectorized masks and galloping probe target. Patterns not
#: listed (the match-heavy catalog cells, where emission work shared by
#: both modes dominates) only need parity.
COLUMNAR_SPEEDUP_FLOORS = {
    "SEQ1": 2.0,
    "ITER3_1": 2.0,
}
COLUMNAR_PARITY_FLOOR = 0.7
#: The speedup floors assume full-scale batches/windows; smoke runs
#: (REPRO_BENCH_EVENTS below this) only check parity.
COLUMNAR_FULL_SCALE_EVENTS = 20_000


def check_columnar_cells(summary: dict) -> list[str]:
    """Intra-summary rule: every ``X+columnar`` cell vs its ``X+batched``
    sibling.

    Same machine-independence argument as :func:`check_batched_cells`:
    both cells of a pair come from the same run on the same box, so the
    ratio is a pure data-path measurement (row predicate interpretation
    vs vectorized masks) and gets a hard floor. Equal match counts are a
    hard requirement — columnar execution is an engine mode, never a
    semantics change.
    """
    breaches: list[str] = []
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        cells = payload.get("cells", {})
        full_scale = payload.get("events", 0) >= COLUMNAR_FULL_SCALE_EVENTS
        for key, cell in sorted(cells.items()):
            pattern, approach, parameter = key.split("|")
            if not approach.endswith("+columnar"):
                continue
            sibling_key = (
                f"{pattern}|{approach.removesuffix('+columnar')}+batched|{parameter}"
            )
            sibling = cells.get(sibling_key)
            if sibling is None:
                breaches.append(
                    f"{experiment}/{key}: no row-batched sibling cell {sibling_key}"
                )
                continue
            if cell.get("matches") != sibling.get("matches"):
                breaches.append(
                    f"{experiment}/{key}: matches {cell.get('matches')} != "
                    f"batched sibling {sibling.get('matches')} -- columnar "
                    "execution changed the output (correctness regression)"
                )
                continue
            batched_tps = sibling.get("throughput_tps") or 0.0
            columnar_tps = cell.get("throughput_tps") or 0.0
            if batched_tps <= 0 or columnar_tps <= 0:
                continue
            floor = COLUMNAR_PARITY_FLOOR
            if full_scale:
                floor = COLUMNAR_SPEEDUP_FLOORS.get(pattern, COLUMNAR_PARITY_FLOOR)
            ratio = columnar_tps / batched_tps
            if ratio < floor:
                breaches.append(
                    f"{experiment}/{key}: columnar engine {ratio:.2f}x the "
                    f"row-batched sibling (floor {floor:.2f}x) -- the "
                    "columnar hot path lost its advantage"
                )
    return breaches


#: Cells where the plan optimizer must beat the default translation by at
#: least this factor at full scale, keyed by (pattern, parameter). The
#: ISSUE acceptance criterion: a multiway AND cell whose win comes from
#: join reordering under the metrics-fed cost model (measured ~2x; the
#: o1-only sibling is the ablation control showing the interval rule
#: alone declines), plus the static W/slide interval switch (~9x).
OPTIMIZER_SPEEDUP_FLOORS = {
    ("AND-skew", "reorder+o1"): 1.25,
    ("SEQ-wide", "static"): 2.0,
}
#: Every other optimized cell — including the deliberately-declining
#: control — must hold parity: the optimizer never loses beyond noise.
OPTIMIZER_PARITY_FLOOR = 0.7
OPTIMIZER_FULL_SCALE_EVENTS = 20_000


def check_optimizer_cells(summary: dict) -> list[str]:
    """Intra-summary rule: every ``X+opt`` cell vs its sibling ``X``.

    Same machine-independence argument as :func:`check_batched_cells`:
    both cells of a pair come from the same run, so the ratio is a pure
    plan-quality measurement. Equal match counts are a hard requirement —
    an optimized plan that changes output is a correctness bug, not a
    perf regression.
    """
    breaches: list[str] = []
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        cells = payload.get("cells", {})
        full_scale = payload.get("events", 0) >= OPTIMIZER_FULL_SCALE_EVENTS
        for key, cell in sorted(cells.items()):
            pattern, approach, parameter = key.split("|")
            if not approach.endswith("+opt"):
                continue
            sibling_key = f"{pattern}|{approach.removesuffix('+opt')}|{parameter}"
            sibling = cells.get(sibling_key)
            if sibling is None:
                breaches.append(
                    f"{experiment}/{key}: no default-plan sibling cell {sibling_key}"
                )
                continue
            if cell.get("matches") != sibling.get("matches"):
                breaches.append(
                    f"{experiment}/{key}: matches {cell.get('matches')} != "
                    f"default-plan sibling {sibling.get('matches')} -- the "
                    "optimized plan changed the output (correctness regression)"
                )
                continue
            default_tps = sibling.get("throughput_tps") or 0.0
            opt_tps = cell.get("throughput_tps") or 0.0
            if default_tps <= 0 or opt_tps <= 0:
                continue
            floor = OPTIMIZER_PARITY_FLOOR
            if full_scale:
                floor = OPTIMIZER_SPEEDUP_FLOORS.get(
                    (pattern, parameter), OPTIMIZER_PARITY_FLOOR
                )
            ratio = opt_tps / default_tps
            if ratio < floor:
                breaches.append(
                    f"{experiment}/{key}: optimized plan {ratio:.2f}x the "
                    f"default sibling (floor {floor:.2f}x) -- the rewrite "
                    "lost its advantage"
                )
    return breaches


#: The shared tenant-group cell must deliver at least this multiple of
#: the unshared per-tenant capacity (the PR 9 acceptance floor; measured
#: ~2x for 8 co-submitted congestion variants sharing the Q/V scans).
SERVE_SHARED_FLOOR = 1.5
#: The scan-sharing ratio is scale-stable, so the floor applies at the
#: CI smoke scale already; below it only parity is required.
SERVE_FULL_SCALE_EVENTS = 4_000


def check_serve_cells(summary: dict) -> list[str]:
    """Intra-summary rule: every ``X+shared`` cell vs its sibling ``X``.

    Same machine-independence argument as :func:`check_batched_cells`:
    both cells of a tenant-group pair come from the same run, so the
    ratio is a pure scan-sharing measurement. Equal match totals are a
    hard requirement — a merged dataflow that changes any tenant's
    output is a correctness bug, not a capacity regression.
    """
    breaches: list[str] = []
    for experiment, payload in sorted(summary.get("experiments", {}).items()):
        cells = payload.get("cells", {})
        full_scale = payload.get("events", 0) >= SERVE_FULL_SCALE_EVENTS
        for key, cell in sorted(cells.items()):
            pattern, approach, parameter = key.split("|")
            if not approach.endswith("+shared"):
                continue
            sibling_key = f"{pattern}|{approach.removesuffix('+shared')}|{parameter}"
            sibling = cells.get(sibling_key)
            if sibling is None:
                breaches.append(
                    f"{experiment}/{key}: no unshared sibling cell {sibling_key}"
                )
                continue
            if cell.get("matches") != sibling.get("matches"):
                breaches.append(
                    f"{experiment}/{key}: matches {cell.get('matches')} != "
                    f"unshared sibling {sibling.get('matches')} -- the merged "
                    "tenant-group dataflow changed the output (correctness "
                    "regression)"
                )
                continue
            unshared_tps = sibling.get("throughput_tps") or 0.0
            shared_tps = cell.get("throughput_tps") or 0.0
            if unshared_tps <= 0 or shared_tps <= 0:
                continue
            floor = SERVE_SHARED_FLOOR if full_scale else BATCHED_PARITY_FLOOR
            ratio = shared_tps / unshared_tps
            if ratio < floor:
                breaches.append(
                    f"{experiment}/{key}: shared tenant group {ratio:.2f}x the "
                    f"unshared capacity (floor {floor:.2f}x) -- scan sharing "
                    "lost its advantage"
                )
    return breaches


#: Ceilings on a value a cell records itself, as rows of
#: (experiment, approach, cell field, ceiling). The values are ratios of
#: two timings from the same run, so they hold on any machine. ROADMAP
#: item 1: on the 8-round history feed a served job's last round may
#: cost at most 1.5x its second, on the serial and the sharded backend.
CELL_CEILINGS = (
    ("serve_history", "serial", "growth", 1.5),
    ("serve_history", "sharded", "growth", 1.5),
)


def check_cell_ceilings(summary: dict) -> list[str]:
    """Every :data:`CELL_CEILINGS` row against the cells it names.

    Experiments the summary did not run are skipped; a run experiment
    without the named cell or field is a breach.
    """
    breaches: list[str] = []
    experiments = summary.get("experiments", {})
    for experiment, approach, field, ceiling in CELL_CEILINGS:
        if experiment not in experiments:
            continue
        cells = {
            key: cell
            for key, cell in experiments[experiment].get("cells", {}).items()
            if key.split("|")[1] == approach
        }
        if not cells:
            breaches.append(f"{experiment}: no '{approach}' cell to hold to its ceiling")
        for key, cell in sorted(cells.items()):
            value = cell.get(field)
            if value is None:
                breaches.append(f"{experiment}/{key}: no '{field}' recorded")
            elif value > ceiling:
                breaches.append(
                    f"{experiment}/{key}: {field} {value:.2f} above the "
                    f"ceiling {ceiling:.2f}"
                )
    return breaches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("summary", type=Path, help="summary.json produced by the benchmark run")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"committed baseline (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed relative deviation of a cell's normalized throughput ratio (default 0.30)",
    )
    parser.add_argument(
        "--absolute",
        action="store_true",
        help="compare raw throughput ratios without median normalization (same-machine runs)",
    )
    parser.add_argument(
        "--only-slower", action="store_true", help="fail only on slowdowns, not on speedups"
    )
    parser.add_argument(
        "--update", action="store_true", help="overwrite the baseline with the current summary"
    )
    args = parser.parse_args(argv)

    summary = load(args.summary)
    if args.update:
        args.baseline.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    baseline = load(args.baseline)
    baseline_cells = {(exp, key): cell for exp, key, cell in iter_cells(baseline)}

    skipped = 0
    breaches = (
        check_batched_cells(summary)
        + check_columnar_cells(summary)
        + check_optimizer_cells(summary)
        + check_serve_cells(summary)
        + check_cell_ceilings(summary)
    )
    ratios: dict[tuple[str, str], float] = {}
    for experiment, key, cell in iter_cells(summary):
        reference = baseline_cells.get((experiment, key))
        if reference is None:
            skipped += 1
            continue
        if cell.get("failed") != reference.get("failed"):
            breaches.append(
                f"{experiment}/{key}: failed={cell.get('failed')} "
                f"(baseline failed={reference.get('failed')})"
            )
            continue
        same_input = cell.get("events_in") == reference.get("events_in")
        if cell.get("matches") != reference.get("matches") and same_input:
            breaches.append(
                f"{experiment}/{key}: matches {cell.get('matches')} != "
                f"baseline {reference.get('matches')} (same input size -- "
                "correctness regression, not noise)"
            )
            continue
        base_tps = reference.get("throughput_tps") or 0.0
        cur_tps = cell.get("throughput_tps") or 0.0
        if base_tps > 0 and cur_tps > 0:
            ratios[(experiment, key)] = cur_tps / base_tps

    median = statistics.median(ratios.values()) if ratios else 1.0
    scale = 1.0 if args.absolute else median
    lower, upper = 1.0 - args.tolerance, 1.0 + args.tolerance
    for (experiment, key), ratio in sorted(ratios.items()):
        normalized = ratio / scale
        if normalized < lower:
            breaches.append(
                f"{experiment}/{key}: {normalized:.2f}x the suite trend "
                f"(raw {ratio:.2f}x baseline; < {lower:.2f}x) -- this cell "
                "regressed relative to the rest of the run"
            )
        elif normalized > upper and not args.only_slower:
            breaches.append(
                f"{experiment}/{key}: {normalized:.2f}x the suite trend "
                f"(raw {ratio:.2f}x baseline; > {upper:.2f}x; rebless with "
                "--update if this speedup is real)"
            )

    mode = "absolute" if args.absolute else f"normalized by median {median:.2f}x"
    print(
        f"bench regression gate: {len(ratios)} cells checked ({mode}), "
        f"{skipped} not in baseline, tolerance ±{args.tolerance:.0%}"
    )
    if not args.absolute and not (lower <= median <= upper):
        print(
            f"warning: uniform throughput shift vs baseline ({median:.2f}x) "
            "-- machine speed difference, or a global regression the "
            "normalized gate cannot distinguish"
        )
    if breaches:
        print(f"\n{len(breaches)} breach(es):")
        for line in breaches:
            print(f"  - {line}")
        return 1
    if not ratios:
        print("warning: no overlapping cells between summary and baseline")
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
