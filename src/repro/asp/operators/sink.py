"""Sinks: terminal consumers of the dataflow.

The paper measures throughput and *detection latency* — the difference
between the wall-clock time a match reaches the sink and the maximum
event (creation) time contributing to it (Section 5.1.3).
:class:`LatencySink` implements exactly that bookkeeping.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Iterable, List, Sequence

from repro.asp.datamodel import ComplexEvent
from repro.asp.operators.base import Item, Operator


class Sink(Operator):
    """Base sink: swallow items, count them."""

    kind = "sink"
    reorder_safe = True

    def __init__(self, name: str | None = None):
        super().__init__(name or "sink")
        self.count = 0

    def process(self, item: Item, port: int = 0) -> Iterable[Item]:
        self.count += 1
        self.accept(item)
        return ()

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.count += len(items)
        accept = self.accept
        for item in items:
            accept(item)
        return []

    def accept(self, item: Item) -> None:  # pragma: no cover - trivial default
        pass

    def collect_metrics(self) -> dict[str, int | float]:
        metrics = super().collect_metrics()
        metrics["items_accepted"] = self.count
        return metrics

    def snapshot_state(self) -> dict[str, Any]:
        # Sinks are part of the checkpoint so a recovered run does not
        # double-emit: replay resumes with the exact sink content the
        # checkpoint observed (effectively-once output).
        snap = super().snapshot_state()
        snap["count"] = self.count
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self.count = snapshot["count"]


class DiscardSink(Sink):
    """Count-only sink for throughput runs (no retention)."""

    def __init__(self, name: str | None = None):
        super().__init__(name or "discard-sink")

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.count += len(items)
        return []


class CollectSink(Sink):
    """Retain every item; used by correctness tests and examples."""

    def __init__(self, name: str | None = None):
        super().__init__(name or "collect-sink")
        self.items: List[Item] = []

    def accept(self, item: Item) -> None:
        self.items.append(item)

    def process_batch(self, items: Sequence[Item], port: int = 0) -> list[Item]:
        self.count += len(items)
        self.items.extend(items)
        return []

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap["items"] = list(self.items)
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self.items = list(snapshot["items"])

    def snapshot_counts(self) -> dict[str, Any]:
        """The snapshot without the items themselves.

        A collect sink keeps every item it counts, so ``count`` is also
        how many items the snapshot covers. Served jobs checkpoint this
        form: their output stays in the live sink (and a durable output
        log) instead of being copied into every checkpoint.
        """
        return super().snapshot_state()

    def restore_counts(self, snapshot: dict[str, Any]) -> None:
        """Roll back to a :meth:`snapshot_counts` snapshot: drop every
        item collected after it was taken."""
        super().restore_state(snapshot)
        del self.items[self.count:]

    def matches(self) -> list[ComplexEvent]:
        return [i for i in self.items if isinstance(i, ComplexEvent)]

    def unique_matches(self) -> set[ComplexEvent]:
        """Matches after duplicate elimination (semantic equivalence is
        defined up to duplicates, after Negri et al. — paper Section 4)."""
        return set(self.matches())


class CallbackSink(Sink):
    """Invoke a user callback per item (used by the examples)."""

    def __init__(self, callback: Callable[[Item], None], name: str | None = None):
        super().__init__(name or "callback-sink")
        self.callback = callback

    def accept(self, item: Item) -> None:
        self.callback(item)


class LatencySink(Sink):
    """Record detection latency per match.

    Latency = (wall-clock arrival at the sink) − (creation wall-clock time
    of the latest contributing event). Sources stamp events with a
    creation wall-clock time in ``attrs['created_wall']``; when absent we
    fall back to the match's ``detection_ts`` bookkeeping.
    """

    def __init__(self, name: str | None = None):
        super().__init__(name or "latency-sink")
        self.latencies_s: list[float] = []
        self._wall_clock: Callable[[], float] | None = None

    def set_wall_clock(self, clock: Callable[[], float]) -> None:
        """Read wall time from the job's shared clock instead of the raw
        counter, so injected slow-operator delays appear in latencies."""
        self._wall_clock = clock

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap["latencies_s"] = list(self.latencies_s)
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self.latencies_s = list(snapshot["latencies_s"])

    def accept(self, item: Item) -> None:
        now = self._wall_clock() if self._wall_clock is not None else _time.perf_counter()
        if isinstance(item, ComplexEvent):
            created = max(
                (e.attrs or {}).get("created_wall", now) for e in item.events
            )
        else:
            created = (getattr(item, "attrs", None) or {}).get("created_wall", now)
        self.latencies_s.append(max(0.0, now - created))

    def mean_latency_s(self) -> float:
        if not self.latencies_s:
            return 0.0
        return sum(self.latencies_s) / len(self.latencies_s)

    def percentile_latency_s(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        idx = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[idx]


class EventTimeLatencySink(Sink):
    """Detection lag in *event time*: how far the stream had progressed
    (max source timestamp) when a match reached the sink, minus the
    match's last contributing event time.

    This isolates the windowing-strategy component of the paper's
    detection latency: eager operators (interval joins, the NFA) emit at
    lag ~0, while sliding windows hold results until the watermark passes
    the window end — an overhead upper-bounded by the slide plus the
    watermark cadence (paper Section 3.1.4). The executor wires
    :meth:`set_event_clock` at setup.
    """

    def __init__(self, name: str | None = None):
        super().__init__(name or "event-time-latency-sink")
        self.lags_ms: list[int] = []
        self._event_clock: Callable[[], int] | None = None

    def set_event_clock(self, clock: Callable[[], int]) -> None:
        self._event_clock = clock

    def snapshot_state(self) -> dict[str, Any]:
        snap = super().snapshot_state()
        snap["lags_ms"] = list(self.lags_ms)
        return snap

    def restore_state(self, snapshot: dict[str, Any]) -> None:
        super().restore_state(snapshot)
        self.lags_ms = list(snapshot["lags_ms"])

    def accept(self, item: Item) -> None:
        if self._event_clock is None:
            return
        now = self._event_clock()
        emitted_at = item.ts_e if isinstance(item, ComplexEvent) else item.ts
        self.lags_ms.append(max(0, now - emitted_at))

    def mean_lag_ms(self) -> float:
        if not self.lags_ms:
            return 0.0
        return sum(self.lags_ms) / len(self.lags_ms)

    def max_lag_ms(self) -> int:
        return max(self.lags_ms, default=0)
