"""In-memory span recorder that wraps public callables of the system.

The benchmark traces from its own files: :meth:`Tracer.patch` replaces a
callable at the attribute its caller looks up (a module global the
caller imported by name, or a class attribute reached through an
instance) with a wrapper that records one span per call. A span is
``(name, start, end, parent, round)``: ``parent`` is the index of the
enclosing span on the same thread, and ``round`` is the id of the
enclosing round span (one opened by a ``round_scope`` patch), so every
span a service round causes carries that round's id.

Self time of a span is its duration minus the durations of its direct
children; children on one thread nest strictly inside their parent.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

from common import quantile


class Tracer:
    """Spans kept in memory until :meth:`dump` or :func:`summarize_spans`."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, round id]
        self.spans: list[list[Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._rounds = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, round_scope: bool = False) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        round_id = getattr(self._local, "round", None)
        with self._lock:
            if round_scope:
                self._rounds += 1
                round_id = self._rounds
            index = len(self.spans)
            record = [name, 0.0, 0.0, parent, round_id]
            self.spans.append(record)
        previous_round = getattr(self._local, "round", None)
        self._local.round = round_id
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()
            self._local.round = previous_round

    def wrap(self, name: str, fn: Callable, round_scope: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, round_scope):
                return fn(*args, **kwargs)

        return traced

    def patch(self, owner: Any, attr: str, name: str, round_scope: bool = False) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by :meth:`unpatch`)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, round_scope))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path: str | Path, extra: dict[str, Any] | None = None) -> None:
        doc = {"spans": self.spans, "extra": extra or {}}
        Path(path).write_text(json.dumps(doc))


def summarize_spans(spans: list[list[Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: call count, inclusive durations and total self time (s)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _round in spans:
        if parent is not None and end > 0.0:
            child_time[parent] += end - start
    out: dict[str, dict[str, Any]] = {}
    for index, (name, start, end, _parent, _round) in enumerate(spans):
        if end <= 0.0:
            continue  # still open when the spans were read
        entry = out.setdefault(name, {"count": 0, "durations": [], "self_s": 0.0})
        entry["count"] += 1
        entry["durations"].append(end - start)
        entry["self_s"] += (end - start) - child_time[index]
    return out


def mean_self(summary: dict[str, dict[str, Any]], name: str, scale: float) -> float:
    """Mean self time per call of ``name`` in units of 1/``scale`` s (0 if never called)."""
    entry = summary.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return entry["self_s"] / entry["count"] * scale


def total_self(summary: dict[str, dict[str, Any]], name: str, scale: float) -> float:
    entry = summary.get(name)
    return entry["self_s"] * scale if entry else 0.0


def duration_quantile(summary: dict[str, dict[str, Any]], name: str, q: float) -> float:
    """Quantile ``q`` (0..1) of the inclusive durations of ``name`` in ms."""
    entry = summary.get(name)
    return quantile(entry["durations"], q) * 1000.0 if entry else 0.0
