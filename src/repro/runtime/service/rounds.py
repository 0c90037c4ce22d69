"""Live rounds: the data plane of ``repro serve``.

Every served job runs on *lanes*. A lane is one long-lived
:class:`SerialJob` plus what it takes to rebuild it: a serial job has
one lane over its whole flow; a sharded job (every plan carries the same
O3 partition attribute and the merged dataflow passes the RA40x
partition-safety proof) has one lane per shard, whose subgraphs are
extracted once, when the job is built. A round:

1. routes the newly logged events to the lanes' substreams — a serial
   lane reads the job log itself; for a sharded job each event is
   hash-routed once, with the stable ``partition_for`` split, to its
   shard's substream;
2. feeds each lane's unconsumed suffix through its live operators,
   withholding the terminal watermark until the drain round, so windows
   stay open across rounds exactly as in one continuous run;
3. takes one round-boundary checkpoint per lane.

No round restores anything. A lane's live job is rebuilt from the lane's
latest checkpoint only when it has none: after an injected crash (the
retry runs under the job's restart budget) and after a ``--state-dir``
resume. Checkpoints hold operator state, watermark progress, the
per-operator counters and each sink's item count — never the items. An
in-process rollback truncates the live sinks to the recorded counts; a
resume reads them back from the lane's output log, which every
checkpoint appends the sinks' new items to first (see
:mod:`repro.runtime.service.state`).

Sharded dispatch is ``inline`` (lanes run one after the other in the
worker thread; ``auto`` resolves to it) or ``process``, an explicit
opt-in: each round ships the pristine flow, the lane's latest checkpoint
and its unconsumed events to a shared spawn-context worker pool, and
gets back the result, the round's new sink items and the next checkpoint
in the same format. Process-mode lanes therefore live in their
checkpoints, not in this process. Jobs with an active fault plan always
run inline — injected crashes must fire exactly once across restarts,
which needs the injector to live here — and any pool failure degrades
the round to inline, against the same checkpoints.

Equivalence argument: sharded-union ≡ serial holds because the hash
split is stable and every stateful operator is key-local (the RA40x
proof); a lane fed its stream over several rounds ≡ one fed it at once,
because a non-final round only withholds the terminal watermark; a
restored lane ≡ the live one by the checkpoint/replay protocol. The
composition is byte-identity of the drained job against a one-shot batch
run, which the service tests and the ``serve-restart`` CI job enforce.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.asp.datamodel import Event
from repro.asp.graph import Dataflow, extract_shards
from repro.asp.operators.keyby import key_by_attribute, partition_for
from repro.asp.operators.sink import CollectSink
from repro.asp.operators.source import Source
from repro.asp.runtime.backends.base import ExecutionSettings
from repro.asp.runtime.backends.serial import SerialJob
from repro.asp.runtime.fault.checkpoint import (
    CheckpointCoordinator,
    capture_job_state,
    restore_job_state,
)
from repro.asp.runtime.fault.injection import FaultInjector, FaultPlan
from repro.asp.runtime.fault.store import (
    CheckpointStore,
    pickle_payload,
    unpickle_payload,
)
from repro.asp.runtime.result import RunResult, merge_shard_results
from repro.errors import ExecutionError, InjectedFaultError
from repro.runtime.service.state import OutputLog, ServiceState

try:  # cloudpickle ships lambdas; the inline mode works without it.
    import cloudpickle
except ImportError:  # pragma: no cover - present in the reference env
    cloudpickle = None

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.service.jobs import Job

SHARD_MODES = ("auto", "process", "inline")

_pool: ProcessPoolExecutor | None = None
_pool_lock = threading.Lock()


class RoundFeed(Source):
    """A live job's source: the events it has not consumed yet.

    Refilled before every run. It never reports itself materialized, so
    the scheduler merges it generically and nothing caches per-source
    arrays across runs.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.pending: list[Event] = []

    def events(self) -> Iterator[Event]:
        return iter(self.pending)


def _collect_sinks(flow: Dataflow) -> Iterator[tuple[int, CollectSink]]:
    for node in flow.sink_nodes():
        if isinstance(node.operator, CollectSink):
            yield node.node_id, node.operator


def _feed_of(flow: Dataflow) -> RoundFeed:
    (node,) = flow.source_nodes()
    assert isinstance(node.source, RoundFeed), "served flows read a RoundFeed"
    return node.source


@dataclass
class Lane:
    """One live :class:`SerialJob` and what rebuilds it: a serial job's
    whole flow, or one shard of a sharded job."""

    flow: Dataflow
    #: The lane's substream in arrival order (a serial lane's is the job
    #: log itself); checkpoint offsets index into it.
    events: list[Event]
    store: CheckpointStore
    injector: FaultInjector
    interval: InitVar[int | None]
    output: OutputLog | None = None
    shard: int | None = None
    live: SerialJob | None = None
    #: Items per sink node already in the output log.
    logged: dict[int, int] = field(default_factory=dict)

    def __post_init__(self, interval: int | None) -> None:
        self.feed = _feed_of(self.flow)
        self.coordinator = CheckpointCoordinator(
            self.store, interval, detach_sinks=True, before_save=self.persist_output
        )

    def sinks(self) -> Iterator[tuple[int, CollectSink]]:
        return _collect_sinks(self.flow)

    def sink(self, node_id: int) -> CollectSink:
        sink = self.flow.nodes[node_id].operator
        assert isinstance(sink, CollectSink), "served queries collect their matches"
        return sink

    def persist_output(self) -> None:
        """Append the sinks' not-yet-logged items to the output log."""
        if self.output is None:
            return
        batches = []
        for node_id, sink in self.sinks():
            start = self.logged.get(node_id, 0)
            batches.append((node_id, start, sink.items[start:]))
            self.logged[node_id] = len(sink.items)
        self.output.append(batches)

    def ensure_live(self, settings: ExecutionSettings) -> SerialJob:
        """The lane's live job, rebuilt from the latest checkpoint only
        when there is none (first round, after a crash, after a resume)."""
        if self.live is not None:
            return self.live
        job = SerialJob(
            self.flow, settings, injector=self.injector, coordinator=self.coordinator
        )
        latest = self.store.latest()
        if latest is None:
            # Checkpoint 0: pristine pre-stream state, so even a crash in
            # the first round can recover.
            self.coordinator.take(job)
        else:
            self.coordinator.restore_into(job, latest)
            job.events_in = latest.offset
            self._refill_sinks()
        self.live = job
        return job

    def _refill_sinks(self) -> None:
        """After a restore the sinks hold at most their recorded counts.

        In-process rollback is complete at that point. A lane's first
        restore in this process (a resume) reads its sinks back from the
        output log instead, which also cuts off a torn tail.
        """
        if self.output is not None and not self.logged:
            logged = self.output.load()
            for node_id, sink in self.sinks():
                items = logged.get(node_id, [])
                if len(items) < sink.count:
                    raise ExecutionError(
                        f"output log of '{self.flow.name}' holds {len(items)} "
                        f"items of sink {node_id}, its checkpoint counts {sink.count}"
                    )
                sink.items[:] = items[: sink.count]
        self.logged = {node_id: sink.count for node_id, sink in self.sinks()}


def build_lanes(
    job_id: str,
    flow: Dataflow,
    log: list[Event],
    *,
    key_attribute: str | None,
    shards: int,
    store: CheckpointStore,
    interval: int | None,
    plan: FaultPlan,
    state: ServiceState | None,
) -> list[Lane]:
    """The lanes of a new job: one over ``flow`` itself, or one per shard
    of it when the job is sharded on ``key_attribute``."""

    def output(shard: int | None) -> OutputLog | None:
        return state.output_log(job_id, shard) if state is not None else None

    if key_attribute is None:
        return [Lane(flow, log, store, FaultInjector(plan), interval, output(None))]
    lanes = []
    shard_flows = extract_shards(flow, shards, key_by_attribute(key_attribute))
    for index, sub in enumerate(shard_flows):
        for node in sub.source_nodes():
            node.payload = RoundFeed(node.source.name)
        lanes.append(Lane(
            sub,
            [],
            store.scoped(f"shard-{index}"),
            FaultInjector(plan.for_shard(index) or FaultPlan()),
            interval,
            output(index),
            shard=index,
        ))
    return lanes


def route_events(job: "Job", events: Iterable[Event]) -> None:
    """Append newly logged events to a sharded job's shard substreams.

    Each event is hash-partitioned exactly once, when it enters the log.
    A serial job's lane reads the job log itself.
    """
    if job.key_attribute is None:
        return
    key = key_by_attribute(job.key_attribute)
    lanes = job.lanes
    for event in events:
        lanes[partition_for(key(event), len(lanes))].events.append(event)


def run_lane_round(job: "Job", lane: Lane, terminal: bool) -> RunResult | None:
    """One lane's round: its unconsumed events through the live operators,
    then the round-boundary checkpoint.

    An injected crash drops the live job; the retry rebuilds it from the
    latest checkpoint, under the job's restart budget. Returns ``None``
    once that budget is exhausted (the job is already marked failed).
    Caller holds the job's ``run_lock``.
    """
    while True:
        live = lane.ensure_live(job.settings)
        lane.feed.pending = lane.events[live.events_in:]
        try:
            result = live.run(terminal_watermark=terminal)
            break
        except InjectedFaultError as exc:
            lane.live = None
            latest = lane.store.latest()
            if not job.record_restart(
                exc, latest.offset if latest else 0, shard=lane.shard
            ):
                return None
        finally:
            lane.feed.pending = []
    lane.coordinator.take(live)
    # Figure-5 samples are not served; a live job must not accumulate them.
    live.instrumentation.samples = []
    return result


def run_sharded_round(job: "Job", terminal: bool) -> RunResult | None:
    """One round across all of a sharded job's lanes, merged.

    Returns ``None`` when a shard exhausted the job's restart budget (the
    job is already marked failed). Caller holds the job's ``run_lock``.
    """
    started = time.perf_counter()
    mode = "inline" if job.shard_mode == "auto" else job.shard_mode
    if mode == "process" and (job.fault_active or cloudpickle is None):
        mode = "inline"
    results: list[RunResult] | None = None
    if mode == "process":
        try:
            results = _round_in_pool(job, terminal)
        except (OSError, BrokenProcessPool):
            # Containers without spawn rights or a poisoned pool: the
            # round still happens, inline, against the same checkpoints.
            shutdown_pool()
    if results is None:
        mode = "inline"
        results = []
        for lane in job.lanes:
            result = run_lane_round(job, lane, terminal)
            if result is None:
                return None
            results.append(result)
    return merge_shard_results(
        job.flow.name,
        results,
        time.perf_counter() - started,
        shards=len(job.lanes),
        mode=mode,
        key_attribute=job.key_attribute or "id",
    )


# -- process dispatch -------------------------------------------------------


def _shared_pool() -> ProcessPoolExecutor:
    """The long-lived spawn-context worker pool, created on first use.

    Spawn (not fork): the serve process runs an asyncio loop plus
    executor threads, and forking under held locks can deadlock a child.
    The pool persists across rounds and jobs, so the spawn cost is paid
    once per server, not once per round.
    """
    global _pool
    with _pool_lock:
        if _pool is None:
            import multiprocessing

            workers = min(4, os.cpu_count() or 1)
            _pool = ProcessPoolExecutor(
                max_workers=max(1, workers),
                mp_context=multiprocessing.get_context("spawn"),
            )
        return _pool


def shutdown_pool() -> None:
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None


def _round_shard_entry(blob: bytes) -> bytes:
    """Worker-process entry: one shard's round, checkpoint in and out.

    Restores the lane's checkpoint into the shipped pristine flow, feeds
    it the lane's unconsumed events and returns the result, the sinks'
    new items and the next checkpoint payload. Cadence checkpoints inside
    the round are skipped — the round boundary is the durable cut.
    """
    flow, settings, payload, offset, events, terminal = cloudpickle.loads(blob)
    _feed_of(flow).pending = events
    job = SerialJob(flow, settings)
    if payload is not None:
        restore_job_state(job, unpickle_payload(payload))
        job.events_in = offset
    result = job.run(terminal_watermark=terminal)
    state = pickle_payload(capture_job_state(job, detach_sinks=True))
    new_items = {node_id: sink.items for node_id, sink in _collect_sinks(flow)}
    return cloudpickle.dumps((result, new_items, state, job.events_in))


def _round_in_pool(job: "Job", terminal: bool) -> list[RunResult]:
    """All lanes' rounds on the worker pool; checkpoints stay parental."""
    shipped: ExecutionSettings = job.settings.without_hooks()
    blobs = []
    for lane in job.lanes:
        latest = lane.store.latest()
        offset = latest.offset if latest is not None else 0
        payload: Any = latest.payload if latest is not None else None
        # job.flow is the never-run template the shards were cut from.
        blobs.append(cloudpickle.dumps(
            (job.flow, shipped, payload, offset, lane.events[offset:], terminal)
        ))
    pool = _shared_pool()
    futures = [pool.submit(_round_shard_entry, blob) for blob in blobs]
    outcomes = [cloudpickle.loads(future.result()) for future in futures]
    results = []
    for lane, (result, new_items, state, events_in) in zip(job.lanes, outcomes):
        lane.live = None  # this lane lives in its checkpoints
        for node_id, items in new_items.items():
            sink = lane.sink(node_id)
            sink.items.extend(items)
            sink.count = len(sink.items)
        lane.persist_output()
        lane.coordinator.save_payload(state, events_in)
        results.append(result)
    return results
