"""Durable service state: job manifests, progress, ingestion WAL, output logs.

The checkpoint store (``repro.asp.runtime.fault``) persists *operator*
state per job (or shard) — what a restarted server cannot rebuild from
it is everything around the operators: which jobs existed (their
original submit requests), how far each had processed, the
arrival-ordered ingestion log whose replay offsets the checkpoints point
into, and the output the jobs already produced. Served checkpoints
record only how many items each sink held; the items themselves live in
an append-only output log next to the checkpoints. This module owns that
layout, under the service's ``--state-dir``::

    <state_dir>/
        ingest.wal             service-wide ingestion WAL (NDJSON)
        tracker.json           SourceTracker snapshot (heartbeats, drain)
        <job_id>/
            job.json           the original submit request (immutable)
            state.json         progress: lifecycle state, counters, tenants
            manifest.json ...  the job's checkpoint chain (PR 4 store)
            outputs.log        serial jobs: the sinks' items (see OutputLog)
            shard-<i>/
                manifest.json ...  sharded jobs: one checkpoint chain and
                outputs.log        one output log per shard

**The WAL is service-wide, not per-job.** One admitted event can route
to several jobs; logging it per job would open a window where a kill −9
lands between two appends and the rebuilt dedup horizon silently drops
the producer's re-send for the job that lost it. Each WAL line therefore
records the wire document *and the exact routing set* in one append::

    {"event": {...wire doc...}, "jobs": ["job-1", "job-3"]}

An event is durable for all of its jobs or none of them; a re-send after
restart is deduplicated exactly when every routed job already has it.
Replaying the WAL through the normal routing order rebuilds every job's
arrival-ordered log byte-identically, so per-job (and per-shard)
checkpoint offsets stay valid across the restart.

**The WAL is written ahead of visibility.** The job manager appends an
ingested block's lines in one write and one flush, and only then queues
its events for the jobs, so no round (and no checkpoint offset) ever
covers an event whose WAL line is not on disk. A kill −9 can therefore
tear only lines nobody has read; replay stops at the torn line, and the
first append of the next process cuts it off the file.

**Output logs are written before the checkpoint that counts them.** A
live job appends its sinks' new items just before each checkpoint
capture, so a checkpoint never counts an item its output log lacks;
resume reads each sink back up to the count the restored checkpoint
records and ignores anything after it.

WAL writes are flushed per ingested block, and output-log writes per
append, but nothing is fsynced: the resume guarantee targets process
death (SIGKILL), where the page cache survives.
"""

from __future__ import annotations

import base64
import json
import pickle
import threading
from pathlib import Path
from typing import IO, Any, Iterator

_MANIFEST = "job.json"
_PROGRESS = "state.json"
_WAL = "ingest.wal"
_TRACKER = "tracker.json"
_OUTPUTS = "outputs.log"


class ServiceState:
    """Filesystem layout of one service instance's durable state."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._wal_handle: IO[str] | None = None
        self._wal_lock = threading.Lock()
        #: True once a full replay has cut any torn WAL tail.
        self._wal_clean = False

    # -- job manifests -----------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def write_manifest(self, job_id: str, request: dict[str, Any]) -> None:
        """Persist the original submit request (written once, at submit)."""
        path = self.job_dir(job_id)
        path.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path / _MANIFEST, {"job_id": job_id, "request": request})

    def write_progress(self, job_id: str, progress: dict[str, Any]) -> None:
        """Persist the job's mutable progress record (per round/transition)."""
        path = self.job_dir(job_id)
        path.mkdir(parents=True, exist_ok=True)
        self._write_atomic(path / _PROGRESS, progress)

    def load_jobs(self) -> list[dict[str, Any]]:
        """Every persisted job: ``{"job_id", "request", "progress"}``.

        Sorted by the numeric job-id suffix so resume re-registers jobs
        in their original submission order (WAL routing sets reference
        the ids, not the order, but deterministic iteration keeps the
        rebuilt manager byte-comparable).
        """
        out: list[dict[str, Any]] = []
        for child in self.root.iterdir():
            manifest = child / _MANIFEST
            if not child.is_dir() or not manifest.exists():
                continue
            doc = json.loads(manifest.read_text())
            progress_path = child / _PROGRESS
            doc["progress"] = (
                json.loads(progress_path.read_text()) if progress_path.exists() else {}
            )
            out.append(doc)
        return sorted(out, key=lambda doc: _job_order(doc["job_id"]))

    def max_job_number(self) -> int:
        """The largest ``job-<n>`` suffix on disk (0 when none)."""
        numbers = [_job_order(doc["job_id"]) for doc in self.load_jobs()]
        return max(numbers, default=0)

    # -- the ingestion WAL -------------------------------------------------

    @property
    def wal_path(self) -> Path:
        return self.root / _WAL

    def append_wal(self, entries: list[tuple[dict[str, Any], list[str]]]) -> None:
        """Append ``(wire doc, routed job ids)`` lines in one write and one
        flush; each line covers its event's whole routing set.

        The first append of a process cuts a torn tail (the line a kill −9
        interrupted) off the file, so new lines never glue onto it.
        """
        text = "".join(
            json.dumps({"event": doc, "jobs": job_ids}, sort_keys=True) + "\n"
            for doc, job_ids in entries
        )
        with self._wal_lock:
            if self._wal_handle is None:
                if not self._wal_clean:
                    for _entry in self.replay_wal():
                        pass
                self._wal_handle = self.wal_path.open("a", encoding="utf-8")
            self._wal_handle.write(text)
            self._wal_handle.flush()

    def replay_wal(self) -> Iterator[tuple[dict[str, Any], list[str]]]:
        """Yield ``(wire doc, routed job ids)`` in arrival order.

        A torn or undecodable line (the append a kill −9 interrupted) ends
        the replay — nothing after it was ever published to a job — and,
        once the replay runs to its end, is cut off the file.
        """
        if not self.wal_path.exists():
            self._wal_clean = True
            return
        good = 0
        with self.wal_path.open("rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                if raw.strip():
                    try:
                        doc = json.loads(raw)
                    except ValueError:
                        break
                    if not isinstance(doc, dict) or "event" not in doc:
                        break
                    yield doc["event"], [str(j) for j in doc.get("jobs", [])]
                good += len(raw)
        if good < self.wal_path.stat().st_size:
            with self.wal_path.open("r+b") as handle:
                handle.truncate(good)
        self._wal_clean = True

    # -- output logs -------------------------------------------------------

    def output_log(self, job_id: str, shard: int | None = None) -> "OutputLog":
        """The output log of one job, or of one shard of a sharded job."""
        path = self.job_dir(job_id)
        if shard is not None:
            path = path / f"shard-{shard}"
        return OutputLog(path / _OUTPUTS)

    # -- tracker snapshot --------------------------------------------------

    def write_tracker(self, snapshot: dict[str, Any]) -> None:
        self._write_atomic(self.root / _TRACKER, snapshot)

    def load_tracker(self) -> dict[str, Any] | None:
        path = self.root / _TRACKER
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- plumbing ----------------------------------------------------------

    def close(self) -> None:
        with self._wal_lock:
            if self._wal_handle is not None:
                self._wal_handle.close()
                self._wal_handle = None

    @staticmethod
    def _write_atomic(path: Path, doc: dict[str, Any]) -> None:
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True))
        tmp.replace(path)


class OutputLog:
    """Append-only log of the items one live job's sinks collected.

    One NDJSON line per sink and append: the sink's node id, the index of
    its first item in that sink's output, and the items (pickled, base64)::

        {"sink": 7, "start": 120, "items": "gAWV..."}

    Reading replays the lines in order; a line whose ``start`` falls
    inside what earlier lines hold supersedes the rest (output appended
    after the newest checkpoint of an earlier incarnation, then rolled
    back). Like the ingestion WAL, the first torn or undecodable line ends
    the log; :meth:`load` also cuts it off the file, so later appends
    start on a clean line.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, batches: list[tuple[int, int, list[Any]]]) -> None:
        """Append ``(sink node id, start index, items)`` batches."""
        lines = [
            json.dumps({
                "sink": sink,
                "start": start,
                "items": base64.b64encode(
                    pickle.dumps(items, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii"),
            })
            for sink, start, items in batches
            if items
        ]
        if not lines:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")

    def load(self) -> dict[int, list[Any]]:
        """Every sink's logged items, in output order."""
        out: dict[int, list[Any]] = {}
        if not self.path.exists():
            return out
        good = 0
        with self.path.open("rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break
                try:
                    doc = json.loads(raw)
                    items = pickle.loads(base64.b64decode(doc["items"]))
                    sink, start = int(doc["sink"]), int(doc["start"])
                except (ValueError, KeyError, TypeError, pickle.UnpicklingError, EOFError):
                    break
                collected = out.setdefault(sink, [])
                if start > len(collected):
                    break
                del collected[start:]
                collected.extend(items)
                good += len(raw)
        if good < self.path.stat().st_size:
            with self.path.open("r+b") as handle:
                handle.truncate(good)
        return out


def _job_order(job_id: str) -> int:
    try:
        return int(str(job_id).rsplit("-", 1)[-1])
    except ValueError:
        return 0
