"""Hierarchical trace spans with cross-process and cross-host propagation.

A **span** is one timed region of work with a name, a parent, and optional
attributes::

    with obs.span("engine.block", rows=512):
        ...

Spans nest through a :class:`contextvars.ContextVar`, so the hierarchy
follows the actual control flow — through nested calls, through ``asyncio``
tasks, and (explicitly) across process and HTTP boundaries:

* **process pools** — a dispatcher stamps :func:`current_payload` onto the
  task (the engine does this for every task in
  :meth:`~repro.engine.executor.ParallelExecutor.map`); the worker wraps
  execution in :func:`remote_task`, which buffers the spans it opens
  *and* captures the worker registry's metric delta, and ships both back
  with the result for the parent to :func:`absorb`;
* **HTTP** — a traced :class:`~repro.service.client.ServiceClient` sends
  the context as the ``X-Repro-Trace: <trace_id>/<span_id>`` header
  (:func:`format_trace_header`); the server adopts it around the request
  (:func:`parse_trace_header` → :func:`remote_task`) and returns its spans
  in the response envelope, so the client's flame view contains the
  server's — and the server's process workers' — spans under one root.

Recording is **off unless someone is collecting**: with no active
:class:`TraceCollector` (started by :func:`trace` — the CLI's ``--trace
out.json``) and no adopted remote context, :func:`span` returns a shared
no-op context manager.  Span timestamps are wall-clock (`obs.clock.now`
semantics do not apply — traces are real recordings), durations come from
``perf_counter``, and the export is Chrome trace-event JSON: load the file
at ``chrome://tracing`` or https://ui.perfetto.dev for the flame view.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, List, Mapping

from repro.obs import registry as _registry

__all__ = [
    "TRACE_HEADER",
    "TraceCollector",
    "span",
    "record_span",
    "trace",
    "tracing_active",
    "start_collecting",
    "stop_collecting",
    "current_payload",
    "remote_task",
    "absorb",
    "absorb_events",
    "format_trace_header",
    "parse_trace_header",
    "chrome_trace_document",
]

#: The HTTP propagation header: ``X-Repro-Trace: <trace_id>/<span_id>``.
TRACE_HEADER = "X-Repro-Trace"

#: The (trace_id, span_id) pair of the innermost open span in this context.
_CURRENT: "ContextVar[tuple | None]" = ContextVar("repro_obs_current", default=None)

#: Event sink of an adopted remote task (takes precedence over the global
#: collector so worker spans travel back to their dispatcher).
_BUFFER: "ContextVar[list | None]" = ContextVar("repro_obs_buffer", default=None)

_COLLECTOR: "TraceCollector | None" = None
_COLLECTOR_LOCK = threading.Lock()

_ID_LOCK = threading.Lock()
_NEXT_SPAN = 0


def _new_span_id() -> str:
    """Process-unique, cross-process-collision-free span id."""
    global _NEXT_SPAN
    with _ID_LOCK:
        _NEXT_SPAN += 1
        sequence = _NEXT_SPAN
    return f"{os.getpid():x}.{sequence:x}"


def _new_trace_id() -> str:
    return os.urandom(8).hex()


class TraceCollector:
    """An in-memory sink of finished span events (plain dicts)."""

    def __init__(self) -> None:
        self.events: List[dict] = []  # list.append is atomic under the GIL

    def absorb(self, events: "Iterable[Mapping] | None") -> None:
        """Adopt events harvested from a worker or a service response."""
        if events:
            self.events.extend(dict(event) for event in events)

    def spans(self) -> List[dict]:
        return list(self.events)

    def chrome_document(self) -> dict:
        return chrome_trace_document(self.events)

    def export(self, path) -> None:
        """Write the Chrome trace-event JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_document(), handle)


def chrome_trace_document(events: Iterable[Mapping]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto) from the
    internal span-event dicts."""
    trace_events = []
    for event in events:
        args = dict(event.get("args") or {})
        args["span_id"] = event["span_id"]
        if event.get("parent_id") is not None:
            args["parent_id"] = event["parent_id"]
        args["trace_id"] = event["trace_id"]
        trace_events.append(
            {
                "name": event["name"],
                "ph": "X",
                "ts": event["ts"] * 1e6,
                "dur": event["dur"] * 1e6,
                "pid": event["pid"],
                "tid": event["tid"],
                "cat": event["name"].partition(".")[0],
                "args": args,
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# --------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------- #
class _NullSpan:
    """Shared no-op context manager: the disabled-path span."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = (
        "name",
        "attrs",
        "sink",
        "trace_id",
        "span_id",
        "parent_id",
        "_token",
        "_wall",
        "_t0",
    )

    def __enter__(self) -> "_Span":
        parent = _CURRENT.get()
        if parent is None:
            self.trace_id = _new_trace_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = _new_span_id()
        self._token = _CURRENT.set((self.trace_id, self.span_id))
        self._wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        self.sink.append(
            {
                "name": self.name,
                "ts": self._wall,
                "dur": duration,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "args": self.attrs,
            }
        )
        return False


def _sink() -> "list | None":
    buffer = _BUFFER.get()
    if buffer is not None:
        return buffer
    collector = _COLLECTOR
    return collector.events if collector is not None else None


def tracing_active() -> bool:
    """Whether a span opened now would actually be recorded."""
    return _BUFFER.get() is not None or _COLLECTOR is not None


def span(name: str, **attrs):
    """A context manager timing one region (no-op when nobody collects)."""
    sink = _sink()
    if sink is None:
        return _NULL_SPAN
    record = _Span()
    record.name = name
    record.attrs = attrs
    record.sink = sink
    return record


def record_span(name: str, started_wall: float, duration: float, **attrs) -> None:
    """Append one already-finished **leaf** span under the innermost open
    span — the hot-loop form: the caller times itself with two
    ``perf_counter`` reads and only touches the trace machinery afterwards,
    so nothing context-managed sits inside a kernel."""
    sink = _sink()
    if sink is None:
        return
    current = _CURRENT.get()
    if current is None:
        trace_id, parent = _new_trace_id(), None
    else:
        trace_id, parent = current
    sink.append(
        {
            "name": name,
            "ts": started_wall,
            "dur": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "trace_id": trace_id,
            "span_id": _new_span_id(),
            "parent_id": parent,
            "args": attrs,
        }
    )


# --------------------------------------------------------------------- #
# collection sessions
# --------------------------------------------------------------------- #
def start_collecting() -> TraceCollector:
    """Install (and return) a fresh process-global collector."""
    global _COLLECTOR
    with _COLLECTOR_LOCK:
        _COLLECTOR = TraceCollector()
        return _COLLECTOR


def stop_collecting() -> "TraceCollector | None":
    """Remove and return the active collector (``None`` when absent)."""
    global _COLLECTOR
    with _COLLECTOR_LOCK:
        collector, _COLLECTOR = _COLLECTOR, None
        return collector


@contextmanager
def trace(path=None):
    """Collect every span opened inside the block; optionally export the
    Chrome JSON to ``path`` on exit (the CLI's ``--trace out.json``)."""
    collector = start_collecting()
    try:
        yield collector
    finally:
        with _COLLECTOR_LOCK:
            global _COLLECTOR
            if _COLLECTOR is collector:
                _COLLECTOR = None
        if path is not None:
            collector.export(path)


# --------------------------------------------------------------------- #
# cross-process / cross-host propagation
# --------------------------------------------------------------------- #
def current_payload() -> "tuple | None":
    """The picklable context to stamp onto a cross-process task.

    ``None`` when there is nothing to carry (no collection, metrics off) —
    the cue for dispatchers to skip the whole harvest round-trip.  The
    tuple is ``(want_trace, trace_id, parent_span_id, want_metrics, pid)``
    — the origin pid lets :func:`remote_task` recognise a task that never
    actually left the process (a degraded pool) and stand down, so nothing
    is buffered or merged twice.
    """
    want_trace = tracing_active()
    want_metrics = _registry.metrics_enabled()
    if not want_trace and not want_metrics:
        return None
    current = _CURRENT.get() if want_trace else None
    trace_id = parent = None
    if current is not None:
        trace_id, parent = current
    return (want_trace, trace_id, parent, want_metrics, os.getpid())


def format_trace_header(payload: "tuple | None") -> "str | None":
    """``trace_id/span_id`` for :data:`TRACE_HEADER` — ``None`` when the
    payload carries no open trace position."""
    if payload is None or not payload[0] or payload[1] is None:
        return None
    return f"{payload[1]}/{payload[2]}"


def parse_trace_header(value: "str | None") -> "tuple | None":
    """The inbound half: an ``X-Repro-Trace`` header value to a payload."""
    if not value:
        return None
    trace_id, sep, parent = str(value).strip().partition("/")
    if not sep or not trace_id or not parent:
        return None
    # pid None: the far side of an HTTP hop is never "the same process".
    return (True, trace_id, parent, _registry.metrics_enabled(), None)


class _RemoteTask:
    """Adopted remote context: buffers spans, captures the metric delta.

    ``capture_metrics=False`` is for same-process adoption (the service's
    thread workers): their recordings already land in the live registry,
    so shipping a delta back would double-count.  ``skip_same_process=True``
    (pool dispatch sites) makes the whole adoption a no-op when the task
    never left its origin process — a degraded pool runs tasks inline,
    where the ambient context already records everything once.
    """

    __slots__ = (
        "_payload",
        "_capture_metrics",
        "_skip_same_process",
        "_buffer",
        "_before",
        "_tokens",
        "_blob",
    )

    def __init__(
        self,
        payload: "tuple | None",
        capture_metrics: bool = True,
        skip_same_process: bool = False,
    ) -> None:
        self._payload = payload
        self._capture_metrics = capture_metrics
        self._skip_same_process = skip_same_process
        self._buffer = None
        self._before = None
        self._tokens = []
        self._blob = None

    def __enter__(self) -> "_RemoteTask":
        if self._payload is None:
            return self
        want_trace, trace_id, parent, want_metrics = self._payload[:4]
        origin_pid = self._payload[4] if len(self._payload) > 4 else None
        if (
            self._skip_same_process
            and origin_pid is not None
            and origin_pid == os.getpid()
        ):
            return self
        if want_trace:
            self._buffer = []
            self._tokens.append((_BUFFER, _BUFFER.set(self._buffer)))
            if trace_id is not None:
                self._tokens.append((_CURRENT, _CURRENT.set((trace_id, parent))))
        if want_metrics and self._capture_metrics:
            self._before = _registry.snapshot()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for var, token in reversed(self._tokens):
            var.reset(token)
        blob = {}
        if self._buffer:
            blob["events"] = self._buffer
        if self._before is not None:
            delta = _registry.snapshot_delta(_registry.snapshot(), self._before)
            delta.pop("since", None)
            blob["metrics"] = delta
        self._blob = blob or None
        return False

    def harvest(self) -> "dict | None":
        """The ``{"events": ..., "metrics": ...}`` blob to ship back with
        the task result (``None`` when there is nothing to ship)."""
        return self._blob


def remote_task(
    payload: "tuple | None",
    capture_metrics: bool = True,
    skip_same_process: bool = False,
) -> _RemoteTask:
    """Adopt a stamped context around one unit of remote work."""
    return _RemoteTask(payload, capture_metrics, skip_same_process)


def absorb_events(events: "Iterable[Mapping] | None") -> None:
    """Route harvested span events into whatever is collecting here."""
    if not events:
        return
    sink = _sink()
    if sink is not None:
        sink.extend(dict(event) for event in events)


def absorb(blob: "Mapping | None") -> None:
    """Fold one worker's harvest back in: spans to the active sink,
    metric deltas into the live registry."""
    if not blob:
        return
    absorb_events(blob.get("events"))
    _registry.merge_snapshot(blob.get("metrics"))
