"""``serve-steady`` and ``serve-history``: a real ``repro serve`` under load.

The server is a subprocess (``python -m repro serve``, or the traced
entry in ``traced_serve.py``) with default settings plus ``--state-dir``
(WAL on). This process is the only load generator: the main thread
sends over one TCP ingest connection and, on ``serve-steady``, one
prober thread reads progress over HTTP, one request at a time (the
server closes every HTTP connection after its response).

Progress is ``job.events_in`` from ``GET /jobs/{id}/metrics``, which
costs well under a millisecond and waits for a running round to end.
``GET /jobs/{id}`` is avoided on purpose: it sorts every match key on
the server's event loop, which at 10 Hz slows a run several-fold.

An event's latency runs from when it was due to be sent to the return of
the first probe that shows it processed: queue wait included, window
length excluded.
"""

from __future__ import annotations

import gc
import http.client
import json
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

from common import (
    ROOT,
    WORK,
    BenchError,
    emit,
    growth,
    median,
    pid_peak_rss_mb,
    quantile,
    subprocess_env,
)
import trace_points
from tracer import summarize_spans, total_self

#: serve-steady: offered rate, watermark cadence (Flink's default
#: auto-watermark interval) and probe cadence.
RATE = 1000.0
HEARTBEAT_S = 0.2
PROBE_S = 0.05
#: serve-steady: loaded servers, each fed the open loop for an equal
#: share of --seconds.
STEADY_SERVERS = 3
#: serve-history: every loaded server runs the same closed loop of
#: HISTORY_BLOCKS blocks of BLOCK events (the 8-round feed of ROADMAP
#: item 1's gate), and their samples are pooled. Loaded servers per
#: second of --seconds (15 at 15 s, at least 2), and the wait-poll
#: interval. A traced run measures twice, each with half the servers.
BLOCK = 250
HISTORY_BLOCKS = 8
HISTORY_SERVERS_PER_SECOND = 1.0
HISTORY_POLL_S = 0.005
#: Server boots per run at least; setup_s is the median of all boots.
#: The loaded servers are spread evenly among them, so the boots sample
#: the box's drifting speed over the whole run.
BOOTS = 9
#: A run whose generator sent its p99 event later than this is invalid.
LATE_LIMIT_MS = 50.0
#: serve-steady's latency limit on p99 (reported in the log line, not a gate).
LATENCY_LIMIT_MS = 1000.0
SOURCE = "bench"
TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` subprocess and its control endpoints."""

    def __init__(self, workdir: Path, extra_args: list[str], spans: Path | None):
        workdir.mkdir(parents=True)
        ready = workdir / "ready.json"
        if spans is None:
            entry = ["-m", "repro"]
        else:
            entry = [str(ROOT / "repobench" / "traced_serve.py"), str(spans)]
        cmd = [
            sys.executable, *entry, "serve",
            "--http-port", "0", "--tcp-port", "0",
            "--ready-file", str(ready),
            "--state-dir", str(workdir / "state"),
            *extra_args,
        ]
        self.log = open(workdir / "server.log", "w")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, env=subprocess_env(), stdout=self.log, stderr=subprocess.STDOUT, cwd=str(ROOT)
        )
        try:
            ports = self._wait_ready(ready, started + TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - started
        self.host = ports["host"]
        self.http_port = ports["http_port"]
        self.tcp_port = ports["tcp_port"]

    def _wait_ready(self, ready: Path, deadline: float) -> dict[str, Any]:
        """Poll for the ready file; it may exist briefly before its JSON is written."""
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode} during boot")
            if time.perf_counter() > deadline:
                raise BenchError("server not ready in time")
            try:
                return json.loads(ready.read_text())
            except (FileNotFoundError, json.JSONDecodeError):
                time.sleep(0.002)

    def request(self, method: str, path: str, body: dict | None = None) -> dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.http_port, timeout=TIMEOUT_S)
        try:
            payload = json.dumps(body).encode() if body is not None else None
            conn.request(method, path, body=payload, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            doc = json.loads(response.read() or b"{}")
        finally:
            conn.close()
        if response.status >= 400:
            raise BenchError(f"{method} {path} -> {response.status}: {doc}")
        return doc

    def processed(self, job_ids: list[str]) -> int:
        """Events every job has processed (min of ``job.events_in``)."""
        return min(
            self.request("GET", f"/jobs/{job_id}/metrics")["job"]["events_in"]
            for job_id in job_ids
        )

    def stop(self) -> int:
        """Graceful SIGTERM drain; returns the exit code."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=10)
            self.log.close()
        return self.proc.returncode


def _job_requests(history: bool) -> list[dict[str, Any]]:
    import serve_smoke

    requests: list[dict[str, Any]] = [
        {"name": "group", "queries": list(serve_smoke.QUERIES), "backend": "serial"}
    ]
    if history:
        requests.append({
            "name": serve_smoke.SHARDED_NAME,
            "query": {
                "pattern": serve_smoke.SHARDED_PATTERN,
                "name": serve_smoke.SHARDED_NAME,
                "options": {"o3": "id"},
            },
            "shards": 2,
        })
    return requests


def _boot(
    workdir: Path, history: bool, spans: Path | None, servers: list[Server]
) -> tuple[Server, list[str], float]:
    """Boot and submit; returns the server, its job ids and submit seconds."""
    extra = ["--job-shard-mode", "inline"] if history else []
    server = Server(workdir, extra, spans)
    servers.append(server)
    try:
        started = time.perf_counter()
        infos = [server.request("POST", "/jobs", r) for r in _job_requests(history)]
        submit_s = time.perf_counter() - started
        expected = ["serial"] + (["sharded"] if history else [])
        backends = [info["backend"] for info in infos]
        if backends != expected:
            raise BenchError(f"job backends {backends}, expected {expected}")
    except BaseException:
        server.stop()
        raise
    return server, [info["id"] for info in infos], submit_s


def _events(count: int, seed: int) -> tuple[list, dict[str, list]]:
    """The first ``count`` Q/V events of the seeded workload, in wire order."""
    import serve_smoke
    from repro.runtime.service import merge_streams_for_wire

    streams = serve_smoke.build_streams(int(count * 1.6) + 1000, seed)
    wire = list(merge_streams_for_wire({t: streams[t] for t in ("Q", "V")}))[:count]
    if len(wire) < count:
        raise BenchError(f"workload too small: {len(wire)} < {count} events")
    by_type: dict[str, list] = {"Q": [], "V": []}
    for event in wire:
        by_type[event.event_type].append(event)
    return wire, by_type


def _wire_lines(events: list) -> list[bytes]:
    from repro.runtime.service.events import event_to_wire

    return [
        (json.dumps(event_to_wire(e, SOURCE, seq)) + "\n").encode()
        for seq, e in enumerate(events, start=1)
    ]


def _watermark(ts: int) -> bytes:
    return (json.dumps({"watermark": ts, "source": SOURCE}) + "\n").encode()


def _connect(server: Server) -> tuple[socket.socket, Any]:
    """The one TCP ingest connection: a socket and its buffered file."""
    sock = socket.create_connection((server.host, server.tcp_port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock, sock.makefile("rwb")


def _sync(sock_file) -> dict[str, Any]:
    """Send the sync barrier and return the server's ingest summary."""
    sock_file.write(b'{"op": "sync"}\n')
    sock_file.flush()
    while True:
        raw = sock_file.readline()
        if not raw:
            raise BenchError("ingest connection closed before sync")
        doc = json.loads(raw)
        if "sync" in doc:
            return doc["sync"]


def _latencies(due: list[float], probes: list[tuple[float, int]]) -> list[float]:
    """Per event: first probe return showing it processed, minus its due time."""
    out = []
    index = 0
    for probe_t, done in sorted(probes):
        while index < len(due) and index < done:
            out.append(probe_t - due[index])
            index += 1
    return out


def _steady(server: Server, job_ids: list[str], events: list, lines: list[bytes]) -> dict[str, Any]:
    """Open loop at RATE events/s; heartbeat every HEARTBEAT_S; probe every PROBE_S."""
    n = len(events)
    probes: list[tuple[float, int]] = []
    probe_ms: list[float] = []
    stop = threading.Event()
    errors: list[BaseException] = []

    def prober() -> None:
        try:
            next_t = time.perf_counter()
            while not stop.is_set():
                began = time.perf_counter()
                done = server.processed(job_ids)
                ended = time.perf_counter()
                probes.append((ended, done))
                probe_ms.append((ended - began) * 1000.0)
                if done >= n:
                    return
                next_t += PROBE_S
                time.sleep(max(0.0, next_t - time.perf_counter()))
        except Exception as exc:  # surfaced by the main thread
            errors.append(exc)

    sock, sock_file = _connect(server)
    thread = threading.Thread(target=prober, name="prober")
    t0 = time.perf_counter() + 0.1
    due = [t0 + i / RATE for i in range(n)]
    late: list[float] = []
    thread.start()
    try:
        next_heartbeat = t0 + HEARTBEAT_S
        i = 0
        while i < n:
            now = time.perf_counter()
            wake = min(due[i], next_heartbeat)
            if wake > now:
                time.sleep(wake - now)
                now = time.perf_counter()
            chunk = []
            while i < n and due[i] <= now:
                chunk.append(lines[i])
                late.append((now - due[i]) * 1000.0)
                i += 1
            if now >= next_heartbeat:
                chunk.append(_watermark(events[max(i, 1) - 1].ts))
                next_heartbeat += HEARTBEAT_S
            if chunk:
                sock.sendall(b"".join(chunk))
        sock.sendall(_watermark(events[-1].ts))
        summary = _sync(sock_file)
        thread.join(timeout=TIMEOUT_S)
    finally:
        stop.set()
        thread.join(timeout=TIMEOUT_S)
        sock_file.write(b'{"op": "bye"}\n')
        sock_file.close()
        sock.close()
    if errors:
        raise BenchError(f"prober failed: {errors[0]!r}")
    latencies = [x * 1000.0 for x in _latencies(due, probes)]
    processed = max((d for _t, d in probes), default=0)
    end_t = min((t for t, d in probes if d >= n), default=probes[-1][0])
    return {
        "latencies_ms": latencies,
        "events_per_s": processed / (end_t - t0),
        "processed": processed,
        "summary": summary,
        "late_p99_ms": quantile(late, 0.99),
        "probe_ms": median(probe_ms),
    }


def _history(server: Server, job_ids: list[str], events: list, lines: list[bytes]) -> dict[str, Any]:
    """Closed loop: a block, a heartbeat and sync, then wait until processed."""
    n = len(events)
    sock, sock_file = _connect(server)
    block_rtt: list[float] = []
    block_sizes: list[int] = []
    probe_ms: list[float] = []
    summary: dict[str, Any] = {}
    processed = 0
    t0 = time.perf_counter()
    try:
        for start in range(0, n, BLOCK):
            stop = min(n, start + BLOCK)
            began = time.perf_counter()
            sock.sendall(b"".join(lines[start:stop]) + _watermark(events[stop - 1].ts))
            summary = _sync(sock_file)
            deadline = began + TIMEOUT_S
            while True:
                asked = time.perf_counter()
                processed = server.processed(job_ids)
                now = time.perf_counter()
                probe_ms.append((now - asked) * 1000.0)
                if processed >= stop or now > deadline:
                    break
                time.sleep(HISTORY_POLL_S)
            block_rtt.append((now - began) * 1000.0)
            block_sizes.append(stop - start)
            if processed < stop:
                break  # timed out: the rest counts as unprocessed
        end_t = time.perf_counter()
        sock_file.write(b'{"op": "bye"}\n')
        sock_file.flush()
    finally:
        sock_file.close()
        sock.close()
    return {
        "events_per_s": processed / (end_t - t0),
        "processed": processed,
        "summary": summary,
        "probe_ms": median(probe_ms),
        "block_rtt_ms": block_rtt,
        "block_sizes": block_sizes,
    }


def _queue_wait(metrics_docs: list[dict[str, Any]]) -> tuple[float, float]:
    """p50/p95 of the jobs' merged ``rounds.trigger_latency_ms`` histograms."""
    from repro.asp.runtime.observability.registry import percentile_from_buckets

    hists = [doc["service"]["ingress"]["rounds"]["trigger_latency_ms"] for doc in metrics_docs]
    hists = [h for h in hists if h["count"]]
    if not hists:
        return 0.0, 0.0
    counts = [sum(column) for column in zip(*(h["counts"] for h in hists))]
    count = sum(h["count"] for h in hists)
    vmin = min(h["min"] for h in hists)
    vmax = max(h["max"] for h in hists)
    p50, p95 = (
        percentile_from_buckets(hists[0]["bounds"], counts, count, vmin, vmax, q)
        for q in (50.0, 95.0)
    )
    return p50, p95


def _measure(
    workload: str, seed: int, seconds: float, traced: bool, root: Path, servers: list[Server]
) -> dict[str, Any]:
    """At least BOOTS boots for setup_s; ``loaded`` of them, spread evenly, carry the load."""
    history = workload == "serve-history"
    if history:
        count = HISTORY_BLOCKS * BLOCK
        loaded = max(2, round(HISTORY_SERVERS_PER_SECOND * seconds))
    else:
        loaded = STEADY_SERVERS
        count = max(5, round(RATE * seconds / loaded))
    boots_total = max(BOOTS, loaded)
    setup: list[float] = []
    boots: list[float] = []
    submits: list[float] = []
    reps: list[dict[str, Any]] = []
    for attempt in range(boots_total):
        spans = root / f"spans-{attempt}.json" if traced else None
        server, job_ids, submit_s = _boot(root / f"server-{attempt}", history, spans, servers)
        boots.append(server.boot_s)
        submits.append(submit_s)
        setup.append(server.boot_s + submit_s)
        if (attempt + 1) % (boots_total // loaded) or len(reps) == loaded:
            if server.stop() != 0:
                raise BenchError("server did not drain cleanly after setup")
            continue
        # Every loaded server gets its own input, drawn from --seed:
        # serve-history's growth ratio moves with the input by about 5%,
        # and averaging over many inputs keeps that out of the run's figure.
        events, streams = _events(count, seed * 1000 + len(reps))
        lines = _wire_lines(events)
        # The generator's own inputs are fixed from here on: move them out
        # of the collector's way so its pauses cannot make sends late.
        gc.collect()
        gc.freeze()
        rep: dict[str, Any] = {"streams": streams, "spans": spans}
        try:
            run = rep["run"] = (_history if history else _steady)(server, job_ids, events, lines)
            rep["job_metrics"] = [server.request("GET", f"/jobs/{j}/metrics") for j in job_ids]
            server.request("POST", "/drain")
            rep["matches"] = [server.request("GET", f"/jobs/{j}/matches") for j in job_ids]
            rep["final_metrics"] = [server.request("GET", f"/jobs/{j}/metrics") for j in job_ids]
            rep["peak_rss_mb"] = pid_peak_rss_mb(server.proc.pid)
        finally:
            rep["exit_code"] = server.stop()
        summary = run["summary"]
        rep["failed"] = (
            summary.get("rejected", 0) + len(summary.get("errors", [])) + (count - run["processed"])
        )
        reps.append(rep)
    run = (_combine_history if history else _combine_steady)([r["run"] for r in reps])
    if run["late_p99_ms"] > LATE_LIMIT_MS:
        raise BenchError(
            f"invalid run: generator p99 lateness {run['late_p99_ms']:.1f} ms "
            f"exceeds {LATE_LIMIT_MS} ms, so the offered load was not {RATE} events/s"
        )
    last = reps[-1]
    return {
        "setup_s": median(setup),
        "boot_s": median(boots),
        "submit_ms": median(submits) * 1000.0,
        "run": run,
        "count": count * len(reps),
        "failed": sum(r["failed"] for r in reps),
        "reps": reps,
        "job_metrics": last["job_metrics"],
        "final_metrics": last["final_metrics"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "spans": last["spans"],
    }


def _combine_steady(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One open-loop result from several servers: their samples pooled."""
    return {
        "latencies_ms": [x for r in runs for x in r["latencies_ms"]],
        # Event latency late in a run over early in the run: a steady
        # server stays near 1, a growing backlog climbs. Halves, not
        # quarters: the signal is small next to the 200 ms heartbeat
        # wait every event shares, and quarters doubled the run-to-run
        # spread.
        "growth": growth(*(r["latencies_ms"] for r in runs), parts=2),
        "events_per_s": median([r["events_per_s"] for r in runs]),
        "late_p99_ms": max(r["late_p99_ms"] for r in runs),
        "probe_ms": median([r["probe_ms"] for r in runs]),
    }


def _combine_history(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """One closed-loop result from several servers: their samples pooled.

    Pooling keeps one slow block of one server from setting a quantile:
    round trips rise steeply from block to block, so the block at any
    one quantile of a single run is a single noisy sample. Growth is the
    mean round trip of the last block over that of block 2 (block 1 is
    warm-up), each averaged over the servers: the box's speed drifts by
    about 10% over seconds, so many short loops on fresh servers hold
    the ratio steadier than a few long ones.
    """
    blocks = min(len(r["block_rtt_ms"]) for r in runs)
    curves = [r["block_rtt_ms"][:blocks] for r in runs]
    latencies = [
        rtt for curve in curves
        for rtt, size in zip(curve, runs[0]["block_sizes"])
        for _ in range(size)
    ]
    return {
        "latencies_ms": latencies,
        "growth": growth(*curves, parts=HISTORY_BLOCKS - 1, center=statistics.fmean),
        "events_per_s": median([r["events_per_s"] for r in runs]),
        "late_p99_ms": 0.0,  # closed loop: nothing is sent late
        "probe_ms": median([r["probe_ms"] for r in runs]),
    }


def _end_to_end(m: dict[str, Any]) -> dict[str, tuple[float, str]]:
    latencies = m["run"]["latencies_ms"]
    return {
        "setup_s": (m["setup_s"], "s"),
        "events_per_s": (m["run"]["events_per_s"], "events/s"),
        "latency_p50_ms": (median(latencies), "ms"),
        "latency_p99_ms": (quantile(latencies, 0.99), "ms"),
        "history_growth": (m["run"]["growth"], "ratio"),
        "peak_rss_mb": (m["peak_rss_mb"], "MB"),
        "delivered_share": (1.0 - m["failed"] / m["count"], "ratio"),
    }


def _check(m: dict[str, Any]) -> list[str]:
    """Served matches equal the one-shot batch reference, byte for byte."""
    import serve_smoke

    problems = []
    for rep in m["reps"]:
        for doc in rep["matches"]:
            for name, served in doc["queries"].items():
                expected = serve_smoke.batch_reference(name, rep["streams"])
                if "\n".join(served["keys"]).encode("utf-8") != expected:
                    problems.append(f"{name}: served matches differ from the batch reference")
                if not served["keys"]:
                    problems.append(f"{name}: 0 matches")
        if rep["exit_code"] != 0:
            problems.append(f"server exit code {rep['exit_code']} after SIGTERM")
    return problems


def _layers(m: dict[str, Any], untraced_e2e, traced_e2e) -> dict[str, float]:
    doc = json.loads(Path(m["spans"]).read_text())
    summary = summarize_spans(doc["spans"])
    extra = doc["extra"]
    layers: dict[str, float] = {
        "service.boot_s": m["boot_s"],
        "service.submit_ms": m["submit_ms"],
        "bench.probe_ms": m["run"]["probe_ms"],
        "bench.generator_late_p99_ms": m["run"]["late_p99_ms"],
        "asp.work_units": extra["work_units"],
        "asp.peak_state_bytes": extra["peak_state_bytes"],
        "fault.checkpoint_bytes": sum(
            d["service"]["checkpoints"]["bytes_total"] for d in m["final_metrics"]
        ),
    }
    for metric, span in trace_points.COMPILE_METRICS.items():
        layers[metric] = total_self(summary, span, 1000.0)
    layers["service.queue_wait_ms.p50"], layers["service.queue_wait_ms.p95"] = _queue_wait(
        m["job_metrics"]
    )
    layers.update(trace_points.operator_layers(extra["operator_trees"]))
    layers.update(trace_points.round_layers(summary))
    layers.update(trace_points.overhead(untraced_e2e, traced_e2e))
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool, layer_names: list[str]) -> None:
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    servers: list[Server] = []
    if trace and workload == "serve-history":
        seconds /= 2
    try:
        untraced = _measure(workload, seed, seconds, False, root / "untraced", servers)
        measured = [untraced]
        if trace:
            traced = _measure(workload, seed, seconds, True, root / "traced", servers)
            measured.append(traced)
        problems = sorted({p for m in measured for p in _check(m)})
        for problem in problems:
            print(f"{workload}: {problem}", flush=True)
        e2e = _end_to_end(untraced)
        if trace:
            metrics = trace_points.select(
                _layers(traced, e2e, _end_to_end(traced)), layer_names
            )
        else:
            metrics = e2e
        p99 = e2e["latency_p99_ms"][0]
        limit = "" if workload == "serve-history" else (
            f" (limit {LATENCY_LIMIT_MS:.0f} ms: {'met' if p99 <= LATENCY_LIMIT_MS else 'missed'})"
        )
        print(
            f"{workload}: {untraced['count']} events, "
            f"{untraced['final_metrics'][0]['service']['rounds']} rounds on job 1, "
            f"p99 {p99:.1f} ms{limit}, "
            f"generator p99 lateness {untraced['run']['late_p99_ms']:.2f} ms",
            flush=True,
        )
        attempted = sum(m["count"] for m in measured)
        failed = sum(m["failed"] for m in measured)
        emit(not problems, attempted, failed, metrics)
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(root, ignore_errors=True)
