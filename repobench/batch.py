"""``batch-catalog``: every catalog query one-shot, the way ``repro run`` does it.

One pass compiles all seven ``CATALOG`` queries (``recommend_options``,
then ``translate``) over fresh sources of one seeded QnV+AQ stream and
executes each with the engine settings that ``repro run`` uses by
default. Those settings are read from the CLI parser's defaults, so a
later change of default is what gets measured. Each full pass is
followed by one over the first quarter of the stream; the number of
pass pairs scales with ``--seconds``. The per-event reference path
(``batch_size=1``, no fusion) runs once per input, after the timed
passes.
"""

from __future__ import annotations

import gc
import time
from typing import Any

from common import emit, median, self_peak_rss_mb
import trace_points
from tracer import Tracer, summarize_spans, total_self

#: Input size of one pass: ~0.5 s of engine time per pass on a 2-core
#: x86 box.
EVENTS = 24_000
SENSORS = 16
#: Pass pairs per second of --seconds (12 at 10 s, about 11 s of work on
#: that box). A fixed count, not a deadline, so every run takes its
#: medians and its slowest pass over the same number of passes.
PASSES_PER_SECOND = 1.2
#: Extra compile-only repetitions for the setup_s median.
SETUP_REPEATS = 10


def _engine_settings() -> dict[str, Any]:
    """The engine knobs of ``repro run`` at their CLI defaults."""
    from repro.cli import build_arg_parser

    args = build_arg_parser().parse_args(["run"])
    settings: dict[str, Any] = {
        "backend": args.backend,
        "shards": args.shards,
        "batch_size": args.batch_size,
        "fusion": not args.no_fusion,
        "columnar": args.columnar,
        "checkpoint_interval": args.checkpoint_interval,
        "max_restarts": args.max_restarts,
        "translate": {},
    }
    if args.optimize != "off":
        from repro.asp.datamodel import TypeRegistry

        settings["translate"] = {
            "registry": TypeRegistry.paper_default(),
            "optimize": args.optimize,
            "profile_from": args.profile_from,
        }
    return settings


def _compile_all(streams: dict[str, list], settings: dict[str, Any]) -> dict[str, Any]:
    """Compile every catalog query over fresh sources of ``streams``."""
    from repro import patterns
    from repro.asp.operators.source import ListSource
    from repro.mapping import advisor, translator

    queries = {}
    for name, factory in patterns.CATALOG.items():
        pattern = factory()
        options = advisor.recommend_options(pattern).options
        sources = {
            t: ListSource(streams[t], name=f"src[{t}]", event_type=t)
            for t in pattern.distinct_event_types()
        }
        queries[name] = translator.translate(pattern, sources, options, **settings["translate"])
    return queries


def _execute(query, settings: dict[str, Any]):
    from repro.asp.runtime import resolve_backend

    backend = resolve_backend(
        settings["backend"],
        shards=settings["shards"],
        key_attribute=query.options.partition_attribute or "id",
    )
    return query.execute(
        backend=backend,
        checkpoint_interval=settings["checkpoint_interval"],
        max_restarts=settings["max_restarts"],
        batch_size=settings["batch_size"],
        fusion=settings["fusion"],
        columnar=settings["columnar"],
    )


def _reference_bytes(streams: dict[str, list]) -> dict[str, bytes]:
    """Per-event reference output of every catalog query."""
    from repro.asp.runtime.fault.chaos import canonical_match_bytes

    out = {}
    for name, query in _compile_all(streams, {"translate": {}}).items():
        query.execute()  # batch_size=1, no fusion: the per-event path
        out[name] = canonical_match_bytes(query.matches())
    return out


def _early(streams: dict[str, list]) -> dict[str, list]:
    """The first quarter of the streams' time span."""
    first = min(s[0].ts for s in streams.values() if s)
    last = max(s[-1].ts for s in streams.values() if s)
    cut = first + (last - first) // 4
    return {t: [e for e in s if e.ts < cut] for t, s in streams.items()}


class _Passes:
    """Timed passes over one input, and their outputs and metric trees."""

    def __init__(self) -> None:
        self.pass_s: list[float] = []
        self.consumed: list[int] = []
        self.execute_s: dict[str, list[float]] = {}
        self.first: dict[str, bytes] = {}
        self.runs = self.failed = self.mismatched = 0
        self.trees: list[dict[str, Any]] = []
        self.peak_state = self.work_units = 0

    def run(self, streams: dict[str, list], settings: dict[str, Any], setup: list[float]) -> None:
        from repro.asp.runtime.fault.chaos import canonical_match_bytes

        gc.collect()
        started = time.perf_counter()
        queries = _compile_all(streams, settings)
        setup.append(time.perf_counter() - started)
        results = {}
        gc.collect()
        pass_started = time.perf_counter()
        for name, query in queries.items():
            began = time.perf_counter()
            results[name] = _execute(query, settings)
            self.execute_s.setdefault(name, []).append(time.perf_counter() - began)
        self.pass_s.append(time.perf_counter() - pass_started)
        self.consumed.append(sum(r.events_in for r in results.values()))
        # Output check and accounting, outside the timed region.
        for name, query in queries.items():
            result = results[name]
            self.runs += 1
            self.failed += int(result.failed)
            got = canonical_match_bytes(query.matches())
            if name not in self.first:
                self.first[name] = got
            elif got != self.first[name]:
                self.mismatched += 1
            self.peak_state = max(self.peak_state, result.peak_state_bytes)
            self.work_units += result.work_units
            self.trees.append(result.metrics.get("operators", {}))

    def per_event_s(self, index: int) -> float:
        return self.pass_s[index] / self.consumed[index]


def _measure(streams: dict[str, list], early: dict[str, list], seconds: float) -> dict[str, Any]:
    """Setup repetitions, then PASSES_PER_SECOND * ``seconds`` timed pass pairs.

    Every compile and pass starts from a fully collected heap, as a fresh
    ``repro run`` process does; otherwise when the cyclic collector fires
    depends on garbage left by earlier passes.

    Each full pass is followed by a pass over the first quarter of the
    stream. Their per-event costs, taken back to back, give the growth
    of per-event cost with history length; pairing cancels the drift of
    a shared machine's speed, which a late-over-early ratio of full
    passes would measure instead.
    """
    settings = _engine_settings()
    setup: list[float] = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        _compile_all(streams, settings)
        setup.append(time.perf_counter() - started)
    full, short = _Passes(), _Passes()
    for _ in range(max(5, round(PASSES_PER_SECOND * seconds))):
        full.run(streams, settings, setup)
        short.run(early, settings, setup)
    passes = len(full.pass_s)
    return {
        "setup_s": median(setup),
        "compiles": len(setup),
        "pass_s": full.pass_s,
        "events_per_s": median([c / t for c, t in zip(full.consumed, full.pass_s)]),
        "growth": median([full.per_event_s(i) / short.per_event_s(i) for i in range(passes)]),
        "execute_s": {name: median(v) for name, v in full.execute_s.items()},
        "full": full,
        "short": short,
        "peak_rss_mb": self_peak_rss_mb(),
        "layers": {
            **{k: v / passes for k, v in trace_points.operator_layers(full.trees).items()},
            "asp.work_units": full.work_units / passes,
            "asp.peak_state_bytes": full.peak_state,
        },
    }


def _end_to_end(m: dict[str, Any]) -> dict[str, tuple[float, str]]:
    # Every input event of a pass has its complete result when the pass
    # ends, so each pass contributes one latency sample per event. Passes
    # are equal-sized and each holds far more than 1% of all events, so
    # the event-weighted p50 is the median pass and p99 the slowest pass.
    return {
        "setup_s": (m["setup_s"], "s"),
        "events_per_s": (m["events_per_s"], "events/s"),
        "latency_p50_ms": (median(m["pass_s"]) * 1000.0, "ms"),
        "latency_p99_ms": (max(m["pass_s"]) * 1000.0, "ms"),
        "history_growth": (m["growth"], "ratio"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "delivered_share": (
            1.0 - (m["full"].failed + m["short"].failed) / (m["full"].runs + m["short"].runs),
            "ratio",
        ),
    }


def run(seed: int, seconds: float, trace: bool, layer_names: list[str]) -> None:
    from repro.experiments.common import Scale, qnv_aq_workload

    streams = qnv_aq_workload(Scale(events=EVENTS, sensors=SENSORS, seed=seed))
    early = _early(streams)
    untraced = _measure(streams, early, seconds)
    measured = [untraced]
    layers: dict[str, float] = {}
    if trace:
        tracer = Tracer()
        trace_points.patch_compile(tracer)
        try:
            traced = _measure(streams, early, seconds)
        finally:
            tracer.unpatch()
        measured.append(traced)
        summary = summarize_spans(tracer.spans)
        compiles = traced["compiles"]
        layers.update(traced["layers"])
        for metric, span in trace_points.COMPILE_METRICS.items():
            layers[metric] = total_self(summary, span, 1000.0) / compiles
        for name, value in traced["execute_s"].items():
            layers[f"asp.execute_s.{name}"] = value
        layers.update(trace_points.overhead(_end_to_end(untraced), _end_to_end(traced)))

    problems = []
    for stream, key in ((streams, "full"), (early, "short")):
        reference = _reference_bytes(stream)
        for name, expected in reference.items():
            if not expected:
                problems.append(f"{name}: 0 matches on the {key} stream")
            for m in measured:
                if m[key].first.get(name) != expected:
                    problems.append(f"{name}: {key}-stream output differs from the per-event reference")
        for m in measured:
            if m[key].mismatched:
                problems.append(f"{m[key].mismatched} {key}-stream pass outputs differ from the first")
    for problem in sorted(set(problems)):
        print(f"batch-catalog: {problem}", flush=True)
    if trace:
        metrics = trace_points.select(layers, layer_names)
    else:
        metrics = _end_to_end(untraced)
    attempted = sum(m[k].runs for m in measured for k in ("full", "short"))
    failed = sum(m[k].failed for m in measured for k in ("full", "short"))
    print(
        f"batch-catalog: {len(untraced['pass_s'])} full and quarter passes, "
        f"{sum(len(v) for v in streams.values())} input events per pass",
        flush=True,
    )
    emit(not problems, attempted, failed, metrics)
