"""Where the traced runs hook into the system, and the per-layer metric table.

Each patch names the attribute the caller actually looks up, so the
wrapper sits on the real call path:

* module globals bound by ``from x import f`` are patched in the
  importing module (``repro.patterns.parse_pattern``,
  ``repro.runtime.service.server.parse_wire_line``, ...);
* functions imported inside a function body are patched on their home
  module (``repro.mapping.advisor.recommend_options``,
  ``repro.analysis.analyze_query``);
* methods are patched on their class, which every instance reaches.
"""

from __future__ import annotations

from typing import Any

from common import BenchError
from tracer import Tracer, duration_quantile, mean_self

CATALOG_QUERIES = (
    "traffic-congestion", "congestion-cleared", "street-lighting-demand",
    "street-lighting-idle", "vehicle-pollution-alert",
    "pollution-any-particulate", "stalled-traffic",
)
OPERATOR_KINDS = (
    "filter", "interval-join", "map", "sink", "type-filter", "udf", "union",
    "window-aggregate", "window-join", "other",
)

#: Per-layer metric -> unit. Every traced run reports all of them; a
#: layer a workload never enters reports 0.
LAYER_UNITS: dict[str, str] = {
    "sea.parse_ms": "ms",
    "mapping.advise_ms": "ms",
    "analysis.analyze_ms": "ms",
    "mapping.translate_ms": "ms",
    "service.boot_s": "s",
    "service.submit_ms": "ms",
    **{f"asp.execute_s.{q}": "s" for q in CATALOG_QUERIES},
    **{f"asp.busy_s.{k}": "s" for k in OPERATOR_KINDS},
    **{f"asp.events_in.{k}": "count" for k in OPERATOR_KINDS},
    **{f"asp.events_out.{k}": "count" for k in OPERATOR_KINDS},
    "asp.watermark_calls": "count",
    "asp.work_units": "count",
    "asp.peak_state_bytes": "bytes",
    "service.decode_us": "us",
    "service.ingest_us": "us",
    "state.wal_append_us": "us",
    "service.queue_wait_ms.p50": "ms",
    "service.queue_wait_ms.p95": "ms",
    "service.round_ms.p50": "ms",
    "service.round_ms.p95": "ms",
    "service.round_count": "count",
    "fault.restore_ms": "ms",
    "fault.snapshot_ms": "ms",
    "fault.checkpoint_bytes": "bytes",
    "asp.round_run_ms": "ms",
    "asp.extract_shards_ms": "ms",
    "rounds.sharded_round_ms": "ms",
    "bench.probe_ms": "ms",
    "bench.generator_late_p99_ms": "ms",
    "bench.trace_overhead.events_per_s": "ratio",
    "bench.trace_overhead.latency_p50_ms": "ratio",
}

#: Compile-layer metric -> span name (self time per compile of the query set).
COMPILE_METRICS = {
    "sea.parse_ms": "sea.parse",
    "mapping.advise_ms": "mapping.advise",
    "analysis.analyze_ms": "analysis.analyze",
    "mapping.translate_ms": "mapping.translate",
}


def patch_compile(tracer: Tracer, served: bool = False) -> None:
    import repro.analysis
    import repro.mapping.advisor
    import repro.mapping.translator
    import repro.patterns

    tracer.patch(repro.patterns, "parse_pattern", "sea.parse")
    tracer.patch(repro.mapping.advisor, "recommend_options", "mapping.advise")
    tracer.patch(repro.mapping.translator, "translate", "mapping.translate")
    tracer.patch(repro.analysis, "analyze_query", "analysis.analyze")
    if served:
        import repro.runtime.service.jobs as jobs

        tracer.patch(jobs, "parse_pattern", "sea.parse")
        tracer.patch(jobs, "translate", "mapping.translate")
        tracer.patch(jobs, "translate_many", "mapping.translate")


def patch_service(tracer: Tracer) -> None:
    """Hooks inside ``repro serve``: ingest path, rounds, checkpoints."""
    import repro.runtime.service.jobs as jobs
    import repro.runtime.service.rounds as rounds
    import repro.runtime.service.server as server
    from repro.asp.runtime.backends.serial import SerialJob
    from repro.asp.runtime.fault.checkpoint import CheckpointCoordinator
    from repro.runtime.service.state import ServiceState

    tracer.patch(server, "parse_wire_line", "service.decode")
    tracer.patch(jobs.JobManager, "ingest_event", "service.ingest")
    tracer.patch(jobs.JobManager, "submit", "service.submit")
    tracer.patch(jobs.JobManager, "run_round", "service.round", round_scope=True)
    tracer.patch(ServiceState, "append_wal", "state.wal_append")
    tracer.patch(jobs, "run_sharded_round", "rounds.sharded_round")
    tracer.patch(rounds, "extract_shards", "asp.extract_shards")
    tracer.patch(SerialJob, "run", "asp.round_run")
    tracer.patch(CheckpointCoordinator, "restore_into", "fault.restore")
    tracer.patch(CheckpointCoordinator, "take", "fault.snapshot")


def round_layers(summary: dict[str, dict[str, Any]]) -> dict[str, float]:
    """Span-derived service, round and checkpoint metrics."""
    rounds = summary.get("service.round")
    return {
        "service.decode_us": mean_self(summary, "service.decode", 1e6),
        "service.ingest_us": mean_self(summary, "service.ingest", 1e6),
        "state.wal_append_us": mean_self(summary, "state.wal_append", 1e6),
        "service.round_ms.p50": duration_quantile(summary, "service.round", 0.50),
        "service.round_ms.p95": duration_quantile(summary, "service.round", 0.95),
        "service.round_count": float(rounds["count"]) if rounds else 0.0,
        "fault.restore_ms": mean_self(summary, "fault.restore", 1e3),
        "fault.snapshot_ms": mean_self(summary, "fault.snapshot", 1e3),
        "asp.round_run_ms": mean_self(summary, "asp.round_run", 1e3),
        "asp.extract_shards_ms": mean_self(summary, "asp.extract_shards", 1e3),
        "rounds.sharded_round_ms": mean_self(summary, "rounds.sharded_round", 1e3),
    }


def operator_layers(trees: list[dict[str, Any]]) -> dict[str, float]:
    """Sum raw operator metric trees by operator kind."""
    out: dict[str, float] = {}
    for tree in trees:
        for node in tree.values():
            kind = node.get("kind")
            if kind not in OPERATOR_KINDS:
                kind = "other"  # a kind these workloads did not have when the table was made
            for metric in ("events_in", "events_out"):
                key = f"asp.{metric}.{kind}"
                out[key] = out.get(key, 0) + node.get(metric, {}).get("value", 0)
            key = f"asp.busy_s.{kind}"
            out[key] = out.get(key, 0.0) + node.get("latency_s", {}).get("sum", 0.0)
            out["asp.watermark_calls"] = (
                out.get("asp.watermark_calls", 0) + node.get("watermark_calls", {}).get("value", 0)
            )
    return out


def overhead(untraced: dict[str, tuple[float, str]], traced: dict[str, tuple[float, str]]) -> dict[str, float]:
    """Traced over untraced end-to-end value (1.0 = no overhead)."""
    return {
        f"bench.trace_overhead.{name}": traced[name][0] / untraced[name][0]
        for name in ("events_per_s", "latency_p50_ms")
    }


def select(layers: dict[str, float], names: list[str]) -> dict[str, tuple[float, str]]:
    """The named per-layer metrics with units; unknown names are an error."""
    unknown = [n for n in names if n not in LAYER_UNITS]
    if unknown:
        raise BenchError(f"per-layer metrics without a definition: {unknown}")
    extra = sorted(set(layers) - set(LAYER_UNITS))
    if extra:
        raise BenchError(f"per-layer values outside the metric table: {extra}")
    return {n: (float(layers.get(n, 0.0)), LAYER_UNITS[n]) for n in names}

