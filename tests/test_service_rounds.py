"""Live served rounds: state transitions of the long-lived lanes.

A fault-free served job keeps one live ``SerialJob`` per lane (the whole
flow, or one per shard) and never restores a checkpoint; an injected
crash, a pool failure or a ``--state-dir`` resume are the only ways back
to a checkpoint. These tests pin each transition to byte-identity with a
one-shot batch run, plus the properties that make rounds cheap: each
logged event is partitioned once, checkpoints carry sink counts instead
of matches, and published counters do not depend on the round count.
"""

import os
import pickle

import pytest

from repro.asp.operators.keyby import key_by_attribute, partition_for
from repro.asp.runtime.fault.checkpoint import CheckpointCoordinator
from repro.asp.runtime.fault.store import unpickle_payload
from repro.runtime.service import JobManager, ServiceConfig, merge_streams_for_wire
from repro.runtime.service import rounds
from repro.runtime.service.state import OutputLog

from tests.test_service_scale import (
    SHARDABLE,
    batch_reference_inline,
    offset_streams,
    served_bytes,
)

NAME = "live"


def submit(manager, backend, **overrides):
    body = {
        "name": NAME,
        "query": {"pattern": SHARDABLE, "name": NAME, "options": {"o3": "id"}},
        "backend": backend,
        "shards": 2,
        "shard_mode": "inline",
    }
    body.update(overrides)
    return manager.submit(body)


def feed(manager, job_id, events, rounds_count, start_seq=1):
    """Ingest ``events`` in ``rounds_count`` equal rounds."""
    job = manager.jobs[job_id]
    per = -(-len(events) // rounds_count)
    seq = start_seq
    for start in range(0, len(events), per):
        for event in events[start:start + per]:
            manager.ingest_event(event, source="t", seq=seq)
            seq += 1
        manager.run_round(job)
    return seq


def counters(tree):
    """The counter values of an operator metric tree (timings excluded)."""
    return {
        (scope, name): metric["value"]
        for scope, metrics in tree.items()
        for name, metric in metrics.items()
        if isinstance(metric, dict) and metric.get("type") == "counter"
    }


def assert_counts_only(lane):
    """The lane's latest checkpoint counts its sinks' items, holds none."""
    payload = unpickle_payload(lane.store.latest().payload)
    assert payload["detached_sinks"]
    for node_id, sink in lane.sinks():
        snapshot = payload["operators"][node_id]
        assert "items" not in snapshot
        assert snapshot["count"] == len(sink.items) > 0
    assert b"ComplexEvent" not in pickle.dumps(payload["operators"])


@pytest.fixture
def workload():
    streams = offset_streams(events=900, seed=11)
    events = list(merge_streams_for_wire(streams))
    return streams, events


@pytest.fixture
def restores(monkeypatch):
    calls = []
    original = CheckpointCoordinator.restore_into

    def counting(self, job, checkpoint):
        calls.append(checkpoint.offset)
        return original(self, job, checkpoint)

    monkeypatch.setattr(CheckpointCoordinator, "restore_into", counting)
    return calls


@pytest.mark.parametrize("backend", ["serial", "sharded"])
class TestLiveRounds:
    def test_counter_trees_do_not_depend_on_the_round_count(self, backend, workload):
        _streams, events = workload
        published = []
        for rounds_count in (1, 8):
            manager = JobManager(ServiceConfig(round_events=10**6))
            info = submit(manager, backend)
            feed(manager, info["id"], events, rounds_count)
            manager.drain()
            job = manager.jobs[info["id"]]
            assert job.rounds == rounds_count + 1
            published.append((counters(job.operator_tree), job.work_units))
        (one_tree, one_work), (many_tree, many_work) = published
        assert one_tree and one_work > 0
        assert many_tree == one_tree
        assert many_work == one_work

    def test_fault_free_job_never_restores(self, backend, workload, restores, monkeypatch):
        streams, events = workload
        partitioned = []
        original = rounds.partition_for

        def counting(key, n):
            partitioned.append(key)
            return original(key, n)

        monkeypatch.setattr(rounds, "partition_for", counting)
        manager = JobManager(ServiceConfig(round_events=10**6, checkpoint_interval=100))
        info = submit(manager, backend)
        feed(manager, info["id"], events, 6)
        manager.drain()
        status = manager.job_status(info["id"])
        assert restores == []
        if backend == "sharded":
            assert len(partitioned) == status["events_logged"] > 0
        else:
            assert partitioned == []
        assert served_bytes(manager, info["id"], NAME) == \
            batch_reference_inline(SHARDABLE, streams, o3="id")
        assert status["matches"][NAME] == len(manager.jobs[info["id"]].match_keys(NAME))

    # A fault plan pins process dispatch inline: the injector must live
    # in the serving process for a crash to fire exactly once.
    @pytest.mark.parametrize("shard_mode", ["inline", "process"])
    def test_crash_in_a_later_round_restores_and_stays_identical(
        self, backend, shard_mode, workload, restores
    ):
        streams, events = workload
        # Crash 20 events into round 2 of the crashing lane's substream.
        first_round = [e for e in events[: -(-len(events) // 4)] if e.event_type in "QV"]
        if backend == "serial":
            plan = f"crash:at={len(first_round) + 20}"
        else:
            key = key_by_attribute("id")
            shard1 = [e for e in first_round if partition_for(key(e), 2) == 1]
            plan = f"crash:at={len(shard1) + 20},shard=1"
        manager = JobManager(ServiceConfig(round_events=10**6, checkpoint_interval=40))
        info = submit(manager, backend, fault_plan=plan, shard_mode=shard_mode)
        feed(manager, info["id"], events, 4)
        manager.drain()
        status = manager.job_status(info["id"])
        assert status["state"] == "drained" and status["restarts"] == 1
        assert manager.jobs[info["id"]].restarts[0]["round"] >= 1
        assert len(restores) == 1
        assert served_bytes(manager, info["id"], NAME) == \
            batch_reference_inline(SHARDABLE, streams, o3="id")

    @pytest.mark.parametrize("tail", ["torn", "rolled-back"])
    def test_resume_rebuilds_sinks_from_the_output_log(
        self, backend, workload, tmp_path, tail
    ):
        streams, events = workload
        config = ServiceConfig(
            state_dir=str(tmp_path), round_events=10**6, checkpoint_interval=100
        )
        first = JobManager(config)
        info = submit(first, backend)
        cut = len(events) * 2 // 3
        feed(first, info["id"], events[:cut], 3)
        before = first.job_status(info["id"])
        assert before["rounds"] >= 2 and before["matches"][NAME] > 0
        # Kill −9: nothing is drained; the process's files just close.
        # Then damage the tail of every output log the way a crash
        # mid-append would.
        first.state.close()
        job_dir = tmp_path / info["id"]
        logs = sorted(job_dir.rglob("outputs.log"))
        assert len(logs) == (2 if backend == "sharded" else 1)
        for path in logs:
            if tail == "rolled-back":
                # Output appended after the newest checkpoint, whose save
                # never happened: resume must ignore it.
                sink, items = next(iter(OutputLog(path).load().items()))
                OutputLog(path).append([(sink, len(items), items[:3])])
            with path.open("a", encoding="utf-8") as handle:
                handle.write('{"sink": 9, "start": 0, "items": "gAWV')

        second = JobManager(config)
        second.resume()
        # The sinks are back at once, before any new round.
        assert second.job_status(info["id"])["matches"] == before["matches"]
        for path in logs:
            assert path.read_bytes().endswith(b"\n")
        # One more round appends after the damaged tail; a second kill
        # and resume must read exactly the checkpointed output back.
        more = len(events) * 5 // 6
        for seq in range(cut, more):
            second.ingest_event(events[seq], source="t", seq=seq + 1)
        second.run_round(second.jobs[info["id"]])
        after = second.job_status(info["id"])["matches"]
        second.state.close()

        third = JobManager(config)
        third.resume()
        assert third.job_status(info["id"])["matches"] == after
        for seq, event in enumerate(events, start=1):
            third.ingest_event(event, source="t", seq=seq)
        third.drain()
        third.state.close()
        assert served_bytes(third, info["id"], NAME) == \
            batch_reference_inline(SHARDABLE, streams, o3="id")

    def test_checkpoints_hold_sink_counts_not_matches(self, backend, workload):
        _streams, events = workload
        manager = JobManager(ServiceConfig(round_events=10**6, checkpoint_interval=None))
        info = submit(manager, backend)
        job = manager.jobs[info["id"]]
        per = len(events) // 8
        sizes, matches = [], []
        for start in range(0, per * 8, per):
            for seq, event in enumerate(events[start:start + per], start=start + 1):
                manager.ingest_event(event, source="t", seq=seq)
            manager.run_round(job)
            sizes.append(sum(lane.store.latest().size_bytes for lane in job.lanes))
            matches.append(manager.job_status(info["id"])["matches"][NAME])
        assert matches[-1] >= 3 * matches[1] > 0
        assert sizes[-1] <= 1.5 * sizes[1]
        for lane in job.lanes:
            assert_counts_only(lane)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="process mode needs >1 cpu")
def test_process_rounds_fall_back_to_restoring_inline(workload, restores, monkeypatch):
    """A pool failure in round 2+ degrades to inline lanes restored from
    the checkpoints the worker processes wrote."""
    pytest.importorskip("cloudpickle")
    streams, events = workload
    manager = JobManager(ServiceConfig(round_events=10**6))
    info = submit(manager, "sharded", shard_mode="process")
    job = manager.jobs[info["id"]]
    half = len(events) // 2
    feed(manager, info["id"], events[:half], 2)
    assert restores == [] and all(lane.live is None for lane in job.lanes)
    for lane in job.lanes:
        assert_counts_only(lane)

    def broken(job, terminal):
        raise rounds.BrokenProcessPool("worker died")

    monkeypatch.setattr(rounds, "_round_in_pool", broken)
    feed(manager, info["id"], events[half:], 2, start_seq=half + 1)
    manager.drain()
    assert len(restores) == len(job.lanes)
    assert served_bytes(manager, info["id"], NAME) == \
        batch_reference_inline(SHARDABLE, streams, o3="id")
