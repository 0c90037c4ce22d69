"""The checkpoint coordinator — when and how snapshots are taken.

The serial run loop is synchronous depth-first push: between two source
events every channel is fully drained and every operator is quiescent.
A checkpoint taken at that point is therefore a *consistent cut* of the
whole dataflow — the simulation analog of an aligned barrier having
passed every operator (Carbone et al., asynchronous barrier
snapshotting). The coordinator triggers on a source-event cadence,
captures every operator's :meth:`~repro.asp.operators.base.Operator
.snapshot_state` plus the watermark generator and the source offset, and
persists the pickled blob to a :class:`~repro.asp.runtime.fault.store
.CheckpointStore`.

Overhead is measured, not guessed: count, total bytes and a duration
histogram (p95) accumulate across recovery attempts and surface in
``RunResult.metrics["checkpoints"]``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.asp.operators.sink import CollectSink
from repro.asp.runtime.clock import RuntimeClock
from repro.asp.runtime.fault.store import (
    Checkpoint,
    CheckpointStore,
    pickle_payload,
    unpickle_payload,
)
from repro.asp.runtime.observability import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.asp.runtime.backends.serial import SerialJob


def capture_job_state(job: "SerialJob", *, detach_sinks: bool = False) -> dict[str, Any]:
    """Everything a restarted job needs: offset, watermark, operators.

    ``detach_sinks`` is the served-job form: each :class:`CollectSink`
    records only its item count (its output lives on in the live sink and
    the job's output log), and the per-operator run counters ride along,
    so a restored job continues them instead of counting from zero.
    """
    operators = {}
    for node in job.flow.operator_nodes():
        op = node.operator
        if detach_sinks and isinstance(op, CollectSink):
            operators[node.node_id] = op.snapshot_counts()
        else:
            operators[node.node_id] = op.snapshot_state()
    data: dict[str, Any] = {
        "offset": job.events_in,
        "items_out": job.items_out,
        "watermark": job.watermarks.snapshot(),
        "operators": operators,
    }
    if detach_sinks:
        data["detached_sinks"] = True
        data["counters"] = dict(job.instrumentation.op_metrics)
    return data


def restore_job_state(job: "SerialJob", data: dict[str, Any]) -> None:
    detached = data.get("detached_sinks", False)
    job.items_out = data["items_out"]
    job.watermarks.restore(data["watermark"])
    for node in job.flow.operator_nodes():
        op, snapshot = node.operator, data["operators"][node.node_id]
        if detached and isinstance(op, CollectSink):
            op.restore_counts(snapshot)
        else:
            op.restore_state(snapshot)
    for node_id, saved in data.get("counters", {}).items():
        job.instrumentation.op_metrics[node_id].restore(saved)


class CheckpointCoordinator:
    """Takes checkpoints on an event cadence and tracks their cost.

    One coordinator lives across all recovery attempts of a run, so the
    reported overhead covers the whole fault-tolerant execution.
    """

    def __init__(
        self,
        store: CheckpointStore,
        interval: int | None,
        clock: RuntimeClock | None = None,
        *,
        detach_sinks: bool = False,
        before_save: Callable[[], None] | None = None,
    ):
        if interval is not None and interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        self.store = store
        self.interval = interval
        self.clock = clock or RuntimeClock()
        #: Capture sinks by item count (see :func:`capture_job_state`).
        self.detach_sinks = detach_sinks
        #: Runs before each capture: a served job makes the output the
        #: checkpoint will count durable first.
        self.before_save = before_save
        self.count = 0
        self.bytes_total = 0
        self.duration = Histogram()
        self._next_id = 0

    def due(self, events_in: int) -> bool:
        return (
            self.interval is not None
            and events_in > 0
            and events_in % self.interval == 0
        )

    def take(self, job: "SerialJob") -> Checkpoint:
        started = self.clock.now()
        if self.before_save is not None:
            self.before_save()
        payload = pickle_payload(
            capture_job_state(job, detach_sinks=self.detach_sinks)
        )
        return self._commit(payload, job.events_in, started)

    def save_payload(self, payload: bytes, offset: int) -> Checkpoint:
        """Persist an externally captured state blob (same accounting).

        The serve data plane's process-mode rounds capture shard state in
        a worker process and ship the pickled payload back; the parent
        coordinator owns ids, retention and the overhead metrics.
        """
        return self._commit(payload, offset, self.clock.now())

    def _commit(self, payload: bytes, offset: int, started: float) -> Checkpoint:
        checkpoint = Checkpoint(self._next_id, offset, payload)
        self.store.save(checkpoint)
        self._next_id += 1
        self.count += 1
        self.bytes_total += checkpoint.size_bytes
        self.duration.observe(self.clock.now() - started)
        return checkpoint

    def restore_into(self, job: "SerialJob", checkpoint: Checkpoint) -> None:
        restore_job_state(job, unpickle_payload(checkpoint.payload))

    def metrics(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "bytes_total": self.bytes_total,
            "interval": self.interval,
            "duration": self.duration.to_dict(),
            "duration_p95_s": self.duration.percentile(95.0),
        }
