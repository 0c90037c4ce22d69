"""Block-wise NDJSON ingest: framing, block semantics and WAL-ahead order.

Every TCP read and every ``POST /ingest`` body is decoded and applied as
one block (``ReproService._apply_lines``), and each run of events in it
is admitted, logged and queued by ``JobManager.ingest_block``. These
tests pin what must not change with the block size — framing across
segments and reads, line numbering, the ``sync`` barrier, ``bye``, EOF,
dedup and admission — and the durability order that blocks introduce:
an event's WAL line is flushed before any round can read the event, and
a torn WAL tail is cut before the next append.
"""

import json
import socket
import threading
import time

from repro.asp.datamodel import Event
from repro.asp.operators.keyby import key_by_attribute, partition_for
from repro.asp.runtime.fault.store import DirectoryCheckpointStore
from repro.runtime.service import (
    JobManager,
    ServiceClient,
    ServiceConfig,
    ServiceState,
    event_from_wire,
    event_to_wire,
    merge_streams_for_wire,
    start_in_thread,
)
from tests.test_service_scale import (
    SHARDABLE,
    batch_reference,
    batch_reference_inline,
    offset_streams,
    served_bytes,
    sharded_submit,
)

TIMEOUT = 20


def wire_line(event, source="t", seq=None):
    return (json.dumps(event_to_wire(event, source, seq)) + "\n").encode()


def q_events(n, start=1):
    return [Event("Q", ts=60000 * i, id=1, value=50.0) for i in range(start, start + n)]


def connect(handle):
    sock = socket.create_connection((handle.host, handle.tcp_port), timeout=TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rb")


def replies_until_sync(reader):
    """Reply documents up to and including the next sync summary."""
    out = []
    while True:
        doc = json.loads(reader.readline())
        out.append(doc)
        if "sync" in doc:
            return out


def read_to_eof(sock):
    while sock.recv(4096):
        pass


def hang_up(sock):
    """End the session and wait until the server has closed it."""
    sock.sendall(b'{"op": "bye"}\n')
    read_to_eof(sock)


def served(**overrides):
    config = dict(round_events=1000, checkpoint_interval=100)
    config.update(overrides)
    return start_in_thread(ServiceConfig(**config))


class TestTcpFraming:
    def test_lines_split_across_segments(self):
        handle = served()
        try:
            handle.manager.submit({"query": "traffic-congestion"})
            body = b"".join(wire_line(e, seq=i) for i, e in enumerate(q_events(3), 1))
            body += b'{"watermark": 180000, "source": "t"}\n{"op": "sync"}\n'
            sock, reader = connect(handle)
            with sock:
                for byte in body:  # one byte per segment
                    sock.sendall(bytes([byte]))
                (reply,) = replies_until_sync(reader)
                hang_up(sock)
            assert reply["sync"]["accepted"] == 3
            assert reply["sync"]["watermarks"] == 1
            assert reply["sync"]["errors"] == []
        finally:
            handle.stop()

    def test_final_line_without_newline_is_applied_at_eof(self):
        handle = served()
        try:
            info = handle.manager.submit({"query": "traffic-congestion"})
            first, last = q_events(2)
            sock, _reader = connect(handle)
            with sock:
                sock.sendall(wire_line(first, seq=1) + wire_line(last, seq=2).rstrip(b"\n"))
                sock.shutdown(socket.SHUT_WR)
                read_to_eof(sock)  # the server closes once the block is applied
            assert handle.manager.job_status(info["id"])["queue_depth"] == 2
        finally:
            handle.stop()

    def test_lines_after_bye_in_the_same_read_are_not_applied(self):
        handle = served()
        try:
            info = handle.manager.submit({"query": "traffic-congestion"})
            first, second = q_events(2)
            sock, _reader = connect(handle)
            with sock:
                sock.sendall(
                    wire_line(first, seq=1) + b'{"op": "bye"}\n' + wire_line(second, seq=2)
                )
                read_to_eof(sock)
            assert handle.manager.job_status(info["id"])["queue_depth"] == 1
            assert handle.manager.tracker.events == 1
        finally:
            handle.stop()

    def test_error_lines_are_numbered_across_blocks(self):
        handle = served(queue_limit=100_000)
        try:
            handle.manager.submit({"query": "traffic-congestion"})
            sock, reader = connect(handle)
            with sock:
                # Lines 1-3; the sync reply ends the first block for sure.
                sock.sendall(wire_line(q_events(1)[0], seq=1) + b"garbage\n" + b'{"op": "sync"}\n')
                first = replies_until_sync(reader)
                # Lines 4-1003 (well over one 64 KiB read), then errors
                # on lines 1004 and 1006 and the barrier on line 1007.
                bulk = b"".join(
                    wire_line(e, seq=i) for i, e in enumerate(q_events(1000, start=2), 2)
                )
                assert len(bulk) > 64 * 1024
                sock.sendall(
                    bulk + b'{"type": "Q"}\n\n[1]\n{"op": "sync"}\n'
                )
                second = replies_until_sync(reader)
                hang_up(sock)
            assert first[0]["error"]["line"] == 2 and first[0]["error"]["code"] == "bad-json"
            assert [doc["error"]["line"] for doc in second[:-1]] == [1004, 1006]
            summary = second[-1]["sync"]
            assert summary["accepted"] == 1001
            assert [e["line"] for e in summary["errors"]] == [2, 1004, 1006]
        finally:
            handle.stop()

    def test_tcp_and_http_give_the_same_summary(self):
        events = q_events(6) + [Event("PM10", ts=1, value=1.0)]
        lines = [wire_line(e, seq=i) for i, e in enumerate(events, 1)]
        body = b"".join([
            *lines[:3],
            b"not json\n",
            lines[1],  # a retransmit: duplicate
            *lines[3:],
            b'{"type": "V"}\n',
            b'{"watermark": 420000, "source": "t"}\n',
        ])
        summaries = []
        for transport in ("tcp", "http"):
            handle = served(queue_limit=4, round_events=1000)
            try:
                handle.manager.submit({"query": "traffic-congestion"})
                if transport == "http":
                    client = ServiceClient(handle.host, handle.http_port)
                    status, summary = client.request("POST", "/ingest", body)
                    assert status == 400
                else:
                    sock, reader = connect(handle)
                    with sock:
                        sock.sendall(body + b'{"op": "sync"}\n')
                        summary = replies_until_sync(reader)[-1]["sync"]
                        hang_up(sock)
                summaries.append(summary)
            finally:
                handle.stop()
        tcp, http = summaries
        assert tcp == http
        assert tcp["accepted"] == 4 and tcp["rejected"] == 2
        assert tcp["duplicates"] == 1 and tcp["watermarks"] == 1
        assert [e["line"] for e in tcp["errors"]] == [4, 10]


class TestBlockAdmission:
    def test_rejected_events_get_no_wal_line(self, tmp_path):
        events = q_events(8)
        handle = served(
            state_dir=str(tmp_path / "served"), admission="reject", queue_limit=5
        )
        try:
            handle.manager.submit({"query": "traffic-congestion"})
            sock, reader = connect(handle)
            with sock:
                sock.sendall(
                    b"".join(wire_line(e, seq=i) for i, e in enumerate(events, 1))
                    + b'{"op": "sync"}\n'
                )
                summary = replies_until_sync(reader)[-1]["sync"]
                hang_up(sock)
            wal = handle.manager.state.wal_path.read_text().splitlines()
        finally:
            handle.stop()
        per_line = JobManager(ServiceConfig(
            state_dir=str(tmp_path / "per-line"), admission="reject",
            queue_limit=5, round_events=1000,
        ))
        per_line.submit({"query": "traffic-congestion"})
        outcomes = [per_line.ingest_event(e, "t", i) for i, e in enumerate(events, 1)]
        assert summary["accepted"] == sum(o["accepted"] for o in outcomes) == 5
        assert summary["rejected"] == sum(len(o.get("rejections", ())) for o in outcomes) == 3
        assert [json.loads(line)["event"]["seq"] for line in wal] == [1, 2, 3, 4, 5]
        assert wal == per_line.state.wal_path.read_text().splitlines()
        per_line.stop()

    def test_heartbeat_on_a_second_connection_cannot_deadlock(self, tmp_path):
        # The producer parks in a block-mode wait holding the ingestion
        # lock; only a flush (round_events is out of reach) makes room,
        # and the heartbeats that ask for it arrive on another connection.
        handle = served(
            state_dir=str(tmp_path), admission="block", queue_limit=2, round_events=1000
        )
        try:
            info = handle.manager.submit({"query": "traffic-congestion"})
            job = handle.manager.jobs[info["id"]]
            events = q_events(10)
            producer, producer_reader = connect(handle)
            producer.sendall(
                b"".join(wire_line(e, source="p", seq=i) for i, e in enumerate(events, 1))
                + b'{"op": "sync"}\n'
            )
            box = {}
            reader_thread = threading.Thread(
                target=lambda: box.update(replies_until_sync(producer_reader)[-1]),
                daemon=True,
            )
            reader_thread.start()
            deadline = time.monotonic() + TIMEOUT
            while job.blocked.value == 0:
                assert time.monotonic() < deadline, "producer never blocked"
                time.sleep(0.01)
            beater, beater_reader = connect(handle)
            with producer, beater:
                while reader_thread.is_alive():
                    assert time.monotonic() < deadline, "blocked producer never finished"
                    beater.sendall(b'{"watermark": 1, "source": "hb"}\n{"op": "sync"}\n')
                    replies_until_sync(beater_reader)  # times out on a deadlock
                    reader_thread.join(timeout=0.05)
                hang_up(producer)
                hang_up(beater)
            assert box["sync"]["accepted"] == 10 and box["sync"]["rejected"] == 0
        finally:
            handle.manager.cancel(info["id"])  # frees a producer still parked
            handle.stop()


class TestWalAhead:
    def test_no_round_reads_an_event_before_its_wal_line(self, tmp_path, monkeypatch):
        config = ServiceConfig(
            state_dir=str(tmp_path), round_events=10_000, checkpoint_interval=50
        )
        manager = JobManager(config)
        serial = manager.submit({"query": "traffic-congestion"})
        sharded = manager.submit(sharded_submit(name="sharded", shards=2))
        key = key_by_attribute("id")
        checked = []

        def wal_lines(job_id, shard):
            count = 0
            for doc, job_ids in ServiceState(tmp_path).replay_wal():
                if job_id not in job_ids:
                    continue
                if shard is None or partition_for(key(event_from_wire(doc)), 2) == shard:
                    count += 1
            return count

        real_save = DirectoryCheckpointStore.save

        def checked_save(store, checkpoint):
            where = store.path.relative_to(tmp_path).parts
            shard = int(where[1].split("-")[1]) if len(where) > 1 else None
            logged = wal_lines(where[0], shard)
            checked.append((where, checkpoint.offset, logged))
            assert checkpoint.offset <= logged, (where, checkpoint.offset, logged)
            real_save(store, checkpoint)

        monkeypatch.setattr(DirectoryCheckpointStore, "save", checked_save)

        real_append = manager.state.append_wal
        parked, release = threading.Event(), threading.Event()

        def gated_append(entries):
            parked.set()
            assert release.wait(TIMEOUT)
            real_append(entries)

        monkeypatch.setattr(manager.state, "append_wal", gated_append)
        streams = offset_streams(events=600, seed=5)
        wire = list(merge_streams_for_wire(streams))
        block = [(event, "t", seq) for seq, event in enumerate(wire, 1)]
        cut = len(block) // 2
        ingest = threading.Thread(target=manager.ingest_block, args=(block[:cut],))
        ingest.start()
        assert parked.wait(TIMEOUT)
        # The block is admitted but its WAL line is not written yet: no
        # round may see any of it.
        for info in (serial, sharded):
            job = manager.jobs[info["id"]]
            assert job.pending == 0
            assert manager.run_round(job) is None
        release.set()
        ingest.join(TIMEOUT)
        manager.ingest_block(block[cut:])
        manager.drain()
        assert len(checked) >= 6  # both lanes of each job checkpointed
        assert served_bytes(manager, serial["id"], "traffic-congestion") == \
            batch_reference("traffic-congestion", streams)
        assert served_bytes(manager, sharded["id"], "sharded") == \
            batch_reference_inline(SHARDABLE, streams, o3="id")
        manager.stop()


class TestTornWalTail:
    def test_append_cuts_a_torn_tail(self, tmp_path):
        state = ServiceState(tmp_path)
        state.append_wal([({"type": "Q", "ts": 1}, ["job-1"])])
        state.close()
        with state.wal_path.open("a", encoding="utf-8") as handle:
            handle.write('{"event": {"type": "Q", "ts": 2}, "jo')  # torn write
        after = ServiceState(tmp_path)
        after.append_wal([({"type": "Q", "ts": 3}, ["job-1"])])
        after.close()
        assert [doc["ts"] for doc, _jobs in after.replay_wal()] == [1, 3]

    def test_torn_tail_then_two_restarts_replay_everything(self, tmp_path):
        streams = offset_streams(events=900, seed=3)
        wire = list(merge_streams_for_wire(streams))
        config = ServiceConfig(
            state_dir=str(tmp_path), round_events=150, checkpoint_interval=100
        )
        first = JobManager(config)
        info = first.submit({"query": "traffic-congestion"})
        first.ingest_block([(e, "t", seq) for seq, e in enumerate(wire[:300], 1)])
        first.run_round(first.jobs[info["id"]])
        # Kill −9 mid-append: the manager is abandoned, the WAL torn.
        with first.state.wal_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"event": event_to_wire(wire[300], "t", 301)})[:25])

        second = JobManager(config)
        second.resume()
        second.ingest_block([(e, "t", seq) for seq, e in enumerate(wire[:600], 1)])
        second.run_round(second.jobs[info["id"]])
        logged = second.job_status(info["id"])["events_logged"]

        third = JobManager(config)
        third.resume()
        assert third.job_status(info["id"])["events_logged"] == logged
        third.ingest_block([(e, "t", seq) for seq, e in enumerate(wire, 1)])
        third.drain()
        assert served_bytes(third, info["id"], "traffic-congestion") == \
            batch_reference("traffic-congestion", streams)
        for manager in (first, second, third):
            manager.stop()
