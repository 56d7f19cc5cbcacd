"""The asyncio HTTP front-end over :class:`~repro.api.requests.AnalysisRequest`.

This is the "system that serves the envelope": a stdlib-only HTTP/1.1
server (``asyncio.start_server`` + a minimal request parser, no external
dependencies) that accepts ``AnalysisRequest`` JSON documents, routes them
through a shared :class:`~repro.api.Analysis` session per series content
digest, and returns :class:`~repro.api.requests.AnalysisResult` envelopes.

Execution model
---------------
Connection handlers never compute.  A ``POST /analyze`` body is parsed and
enqueued on a **bounded** :class:`asyncio.Queue`; a fixed pool of worker
tasks drains it in FIFO order.  With the default ``worker_kind="thread"``
each computation runs on a thread executor; with ``worker_kind="process"``
the computation itself crosses into an engine
:class:`~repro.engine.executor.ParallelExecutor` process pool — the GIL
leaves the picture, so CPU-bound profile computations genuinely overlap.
Either way a full queue answers ``503`` immediately — real backpressure
instead of unbounded buffering.

The process data plane splits each job in three: the **parent** probes the
pooled session's caches (a hit never pays a process round-trip), a
**worker process** computes on a cache miss, and the parent **adopts** the
returned envelope back into the pooled session (cache tiers + motif
index), so thread and process workers observe identical cache semantics.
Workers never receive pickled value arrays when the service has a store:
the job ships a ~100-byte :class:`~repro.engine.shm.BlobHandle` and the
worker memory-maps the content-addressed blob file directly (zero-copy,
verified once per process).

One request at a time per connection
------------------------------------
A kept-alive connection is served one request at a time: its handler
reads a request, awaits the answer, writes it, and only then reads the
next.  Concurrency comes from more connections — one
:class:`~repro.service.ServiceClient` per thread.  A client that
pipelines requests down one socket still gets every answer, in request
order and cleanly framed: the later requests wait in the socket until
their turn (HTTP/1.1 lets a server process pipelined requests one by
one).

Sessions and caching
--------------------
Series are identified by content digest (:func:`repro.api.cache.series_digest`).
Each digest owns one session in a bounded LRU pool, so repeated traffic
about the same series shares validation, sliding statistics, memoized FFT
products and the session's LRU result cache; with a
:class:`~repro.api.cache.CacheConfig` ``persist_dir`` the envelopes also
spill to disk and survive the process.  Every ``/analyze`` response reports
where its result came from (``"memory"`` / ``"persistent"`` /
``"computed"``) in the ``cache`` field.

Series transport
----------------
Shipping the value array inside every ``/analyze`` document is the cold
path, not the protocol: a submission may carry ``"series_digest"`` instead
of ``"series"``, and the server resolves the digest against its session
pool and (when configured) its content-addressed
:class:`~repro.store.SeriesStore`.  An unresolvable digest answers ``404``
with an ``unknown_digest`` marker; :class:`~repro.service.ServiceClient`
reacts by uploading the series **once** through ``PUT /series/<digest>``
(raw little-endian float64 bytes, streamed chunk-by-chunk into the store's
verifying ingest — the series never exists server-side as one JSON array)
and retrying, so every later request for that series ships ~60 bytes of
digest instead of megabytes of values.

Protocol
--------
======================= ==================================================
``GET /health``         liveness + queue depth, the sweep kernel in effect,
                        the native row routine (``avx2`` / ``scalar``)
                        or why no native kernel loaded
``GET /capabilities``   the algorithm registry's capability table
``GET /stats``          counters, completion order, per-session cache info,
                        latency summaries
``GET /metrics``        per-kind latency histograms (queue wait / execute /
                        total, fixed log-spaced buckets)
``GET /series/<digest>``catalog metadata for one stored series (or 404)
``PUT /series/<digest>``chunked raw-float64 upload, digest-verified
``GET /query``          motif/discord catalog query (percent-encoded
                        ``kind``/``digest``/``name``/``length``/… params)
``POST /analyze``       ``{"series": [...] | "series_digest": "...",``
                        ``"request": {...}}`` → envelope
======================= ==================================================

Connections are **persistent** (HTTP/1.1 keep-alive): a client may issue
any number of requests over one socket; ``Connection: close`` (or HTTP/1.0
without ``keep-alive``) restores the old behaviour, and an idle socket is
dropped after a timeout.

The ``/analyze`` response wraps the envelope:
``{"result": <AnalysisResult.as_dict()>, "cache": "...", "id": ...,
"series_digest": "..."}``.  Errors come back as JSON objects with an
``error`` field: ``400`` for malformed documents, ``404`` for unknown
digests, ``422`` for requests the library rejects (unknown parameters
included), ``503`` when the queue is full or the service is stopping.
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple
from urllib.parse import parse_qsl, unquote

import numpy as np

from repro import obs
from repro.api.cache import CacheConfig, series_digest
from repro.api.registry import capabilities
from repro.api.requests import AnalysisRequest, AnalysisResult
from repro.api.session import Analysis, EngineConfig
from repro.engine.executor import ParallelExecutor
from repro.engine.shm import BlobHandle, attach_blob
from repro.exceptions import (
    InvalidParameterError,
    ReproError,
    SerializationError,
    ServiceError,
    StoreError,
)
from repro.index import MotifIndex, QuerySpec
from repro.matrix_profile import _native
from repro.matrix_profile.kernels import resolve_kernel
from repro.store import DEFAULT_STORE_MAX_BYTES, SeriesStore
from repro.store.series_store import is_series_digest

__all__ = ["ServiceConfig", "AnalysisService", "BackgroundService", "serve_forever"]

#: Hard body cap.  Bounds how long the event loop can stall on json.loads
#: of one submission (~64MB is a ~3.5M-point series as a JSON array) —
#: pure-CPU parsing cannot be usefully offloaded under the GIL, so the cap
#: IS the latency bound; a streaming upload is a listed ROADMAP follow-up.
_MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADER_LINE = 64 * 1024
#: Read timeouts: an idle socket may not pin a handler (or, worse, an
#: intake permit) forever — see _read_head.
_HEADER_TIMEOUT_SECONDS = 30.0
_BODY_TIMEOUT_SECONDS = 120.0
#: How long a kept-alive connection may sit idle between requests before
#: the server drops it (quietly — an expired idle socket is not an error).
_KEEPALIVE_IDLE_SECONDS = 75.0
#: Cap of one streamed series upload.  Far above the JSON body cap — the
#: chunked ingest never materialises the series, so the bound protects the
#: store, not the event loop.
_MAX_SERIES_BYTES = 1024 * 1024 * 1024
#: Socket read granularity of the streaming series upload.
_UPLOAD_CHUNK_BYTES = 256 * 1024
#: Completed-sequence history kept for /stats (enough for the FIFO tests
#: and operational spot checks; unbounded growth would contradict the
#: layer's whole bounded-memory story).
_COMPLETION_HISTORY = 4096

#: Latency histogram bucket upper bounds: 100µs to 100s, four buckets per
#: decade.  Since PR 10 the canonical copy lives in the obs registry
#: (:data:`repro.obs.LATENCY_BUCKET_BOUNDS`); the alias keeps the service's
#: wire shape (`/metrics` ``bounds``) pinned to it by construction.
_LATENCY_BUCKET_BOUNDS = obs.LATENCY_BUCKET_BOUNDS
#: The phases each /analyze job is timed over: queue wait (enqueue to
#: dequeue), execute (dequeue to completion) and total (receipt to
#: completion — what the client experiences minus the socket).
_METRIC_PHASES = ("queue", "execute", "total")

#: How many ``/metrics`` snapshots the service retains for ``?since=``
#: windowing.  A scraper that falls more than this many scrapes behind gets
#: the full (process-lifetime) document back, flagged ``"window": "full"``.
_METRIC_SNAPSHOT_RING = 32

_SERVICE_METRICS = obs.scope("service")
_REQUESTS_RECEIVED = _SERVICE_METRICS.counter("requests_received")
_REQUESTS_COMPLETED = _SERVICE_METRICS.counter("requests_completed")
_REQUESTS_FAILED = _SERVICE_METRICS.counter("requests_failed")
_REQUESTS_REJECTED = _SERVICE_METRICS.counter("requests_rejected")
_PREWARM_GAUGE = _SERVICE_METRICS.gauge("prewarm_seconds")

#: Per-process cap of worker-side Analysis sessions (process workers).  A
#: worker serves many jobs over few distinct series; a handful of slots
#: keeps statistics/caches warm without letting worker memory track the
#: whole catalog.
_WORKER_SESSION_SLOTS = 4


class _ServiceMetrics:
    """Per-request-kind latency histograms behind ``GET /metrics``.

    Since PR 10 each ``(kind, phase)`` slot is a registry histogram named
    ``service.<kind>.<phase>`` — what used to be a private ``server.py``
    structure is just a view over :mod:`repro.obs`, so the same numbers are
    visible to ``repro metrics``, snapshot deltas and cross-process merges.
    The PR 8 wire shape (``bounds`` / ``phases`` / ``kinds``) is preserved
    verbatim; :meth:`AnalysisService._metrics_document` layers the new
    windowed registry view on top.
    """

    def __init__(self) -> None:
        # A private registry (always on) rather than the process default:
        # latency numbers are per-service-instance — two services in one
        # test process must not bleed counts into each other — and they
        # must keep recording even when ``REPRO_OBS=0`` silences the
        # hot-path instrumentation (the PR 8 behaviour).  The /metrics
        # document merges this registry's snapshot with the global one.
        self._registry = obs.MetricsRegistry(enabled=True)
        self._kinds: "Dict[str, Dict[str, obs.Histogram]]" = {}

    def observe(self, kind: str, **phases: float) -> None:
        slot = self._kinds.get(kind)
        if slot is None:
            slot = {
                phase: self._registry.histogram(f"service.{kind}.{phase}")
                for phase in _METRIC_PHASES
            }
            self._kinds[kind] = slot
        for phase, seconds in phases.items():
            slot[phase].observe(max(0.0, float(seconds)))

    def registry_snapshot(self) -> dict:
        """This service's latency histograms as a registry snapshot."""
        return self._registry.snapshot()

    def document(self) -> dict:
        """The full ``/metrics`` payload (bounds shared across histograms)."""
        return {
            "bounds": list(_LATENCY_BUCKET_BOUNDS),
            "phases": list(_METRIC_PHASES),
            "kinds": {
                kind: {phase: hist.as_dict() for phase, hist in slot.items()}
                for kind, slot in self._kinds.items()
            },
        }

    @staticmethod
    def _quantile(hist: "obs.Histogram", q: float) -> float | None:
        if not hist.count:
            return None
        value = hist.quantile(q)
        # The overflow bucket has no upper bound; report the last finite
        # bound (the pre-registry behaviour, and JSON-safe).
        if value == float("inf"):
            return hist.bounds[-1]
        return value

    def _summarise(self, hist: "obs.Histogram") -> dict:
        count = hist.count
        return {
            "count": count,
            "mean": (hist.sum / count) if count else None,
            "p50": self._quantile(hist, 0.5),
            "p95": self._quantile(hist, 0.95),
        }

    def summary(self) -> dict:
        """Compact per-kind summaries (count/mean/p50/p95) for ``/stats``."""
        return {
            kind: {phase: self._summarise(hist) for phase, hist in slot.items()}
            for kind, slot in self._kinds.items()
        }


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to listen and execute.

    Attributes
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (the bound port is
        readable as :attr:`AnalysisService.port` after start — the tests
        rely on this).
    workers:
        Worker tasks draining the request queue (and threads or processes
        executing the computations).  ``1`` gives strict FIFO execution.
    worker_kind:
        ``"thread"`` (default) runs computations on a thread executor;
        ``"process"`` routes them through an engine process pool so
        CPU-bound jobs overlap without the GIL.  An environment that cannot
        host a process pool degrades to threads (with a warning) rather
        than failing to start.
    backlog:
        Bound of the request queue; a submission beyond it is answered
        ``503`` instead of buffered.
    max_sessions:
        Most per-series :class:`~repro.api.Analysis` sessions kept alive
        (LRU eviction beyond it).
    cache:
        Result-cache configuration handed to every session (LRU bounds +
        optional persistent spill directory).
    engine:
        Execution configuration handed to every session.
    store_dir:
        Optional root of a content-addressed
        :class:`~repro.store.SeriesStore`: uploaded series persist there
        and digest-only submissions resolve through it (without a store the
        catalog is the in-memory session pool alone, so uploads survive
        only until LRU eviction).
    store_max_bytes:
        Byte cap of that store (``None`` disables the cap).
    index_dir:
        Optional directory of a :class:`~repro.index.MotifIndex` catalog:
        every computed result is indexed automatically, ``GET /query``
        answers cross-series motif/discord queries over it, and store
        evictions prune its rows.  Without it ``/query`` answers 404.
    prewarm:
        When true and the worker kind is ``"process"``, :meth:`start`
        spawns the pool and round-trips a ping through every worker before
        the socket accepts traffic, so the first request does not pay the
        multi-hundred-millisecond pool spawn.  The measured warm-up time is
        published as the ``service.prewarm_seconds`` gauge.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 1
    worker_kind: str = "thread"
    backlog: int = 32
    max_sessions: int = 8
    cache: CacheConfig = field(default_factory=CacheConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    store_dir: object | None = None
    store_max_bytes: int | None = DEFAULT_STORE_MAX_BYTES
    index_dir: object | None = None
    prewarm: bool = False

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {self.workers}")
        if self.worker_kind not in ("thread", "process"):
            raise InvalidParameterError(
                f"worker_kind must be 'thread' or 'process', got {self.worker_kind!r}"
            )
        if int(self.backlog) < 1:
            raise InvalidParameterError(f"backlog must be >= 1, got {self.backlog}")
        if int(self.max_sessions) < 1:
            raise InvalidParameterError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )


class _SessionPool:
    """Bounded LRU pool of per-digest sessions (thread-safe).

    Each slot carries the session and a lock: worker threads serialise
    computations on the *same* series (the session object is not designed
    for concurrent mutation) while different series proceed independently.
    """

    def __init__(self, config: ServiceConfig, index=None) -> None:
        self._config = config
        self._index = index
        self._sessions: "OrderedDict[str, Tuple[Analysis, threading.Lock]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get_or_create(
        self, digest: str, values: np.ndarray, name: str
    ) -> Tuple[Analysis, threading.Lock]:
        with self._lock:
            slot = self._sessions.get(digest)
            if slot is not None:
                self._sessions.move_to_end(digest)
                return slot
        # Session construction validates the series; do it outside the pool
        # lock so a malformed submission cannot stall other lookups.
        session = Analysis(
            values,
            name=name,
            engine=self._config.engine,
            cache_config=self._config.cache,
            index=self._index,
        )
        slot = (session, threading.Lock())
        with self._lock:
            raced = self._sessions.get(digest)
            if raced is not None:
                self._sessions.move_to_end(digest)
                return raced
            self._sessions[digest] = slot
            # Eviction only forgets the slot: sessions own no resources, so
            # a computation still running on an evicted session finishes
            # undisturbed and nothing here waits on its slot lock.
            while len(self._sessions) > self._config.max_sessions:
                self._sessions.popitem(last=False)
        return slot

    def lookup_values(self, digest: str) -> np.ndarray | None:
        """The values of a pooled session, without creating one.

        The cheap half of digest resolution: a hot series answers straight
        from the pool (promoting the session), the store is only consulted
        on a pool miss.
        """
        with self._lock:
            slot = self._sessions.get(digest)
            if slot is None:
                return None
            self._sessions.move_to_end(digest)
            return slot[0].values

    def stats(self) -> List[dict]:
        with self._lock:
            slots = list(self._sessions.items())
        return [
            {
                "series_digest": digest,
                "series_name": session.name,
                "series_length": len(session),
                "cache": session.cache_info(),
            }
            for digest, (session, _) in slots
        ]


class _DaemonThreadExecutor:
    """A fixed set of daemon threads running the service's blocking work.

    Interpreter exit joins every ``ThreadPoolExecutor`` thread, so a
    computation that ``stop()`` abandoned would hold ``repro serve`` open
    until it finished.  Daemon threads are not joined: the process exits,
    and the abandoned computation with it.  ``loop.run_in_executor`` needs
    only :meth:`submit`.
    """

    def __init__(self, workers: int) -> None:
        self._work: "queue.SimpleQueue" = queue.SimpleQueue()
        self._workers = workers
        for index in range(workers):
            threading.Thread(
                target=self._run, name=f"repro-service_{index}", daemon=True
            ).start()

    def submit(self, fn, /, *args) -> Future:
        future: Future = Future()
        self._work.put((future, fn, args))
        return future

    def close(self) -> None:
        """Stop each thread once the work queued before this call is done;
        waits for nothing."""
        for _ in range(self._workers):
            self._work.put(None)

    def _run(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            future, fn, args = item
            if not future.set_running_or_notify_cancel():
                continue  # the awaiting coroutine was cancelled first
            try:
                result = fn(*args)
            except BaseException as error:  # raised again where it is awaited
                future.set_exception(error)
            else:
                future.set_result(result)


class _CloseAfterResponse(Exception):
    """A request error whose response must be followed by a socket close.

    Raised when the error is detected *before* the request body was
    consumed: the framing of the connection is gone (unread body bytes
    would be parsed as the next request line), so keep-alive must not
    survive the response.
    """

    def __init__(self, status: int, payload: dict) -> None:
        super().__init__(payload.get("error", "request failed"))
        self.status = status
        self.payload = payload


@dataclass
class _Job:
    """One queued ``/analyze`` submission."""

    sequence: int
    request_id: str
    digest: str
    values: np.ndarray
    series_name: str
    request: AnalysisRequest
    future: "asyncio.Future[dict]"
    #: ``time.monotonic()`` at request receipt / enqueue — the worker loop
    #: derives the queue-wait and total latencies from these.
    received_at: float = 0.0
    enqueued_at: float = 0.0
    #: ``time.time()`` at enqueue — trace spans are wall-clock based.
    enqueued_wall: float = 0.0
    #: Parsed ``X-Repro-Trace`` payload (or ``None``): the executing path
    #: adopts it so server-side spans join the client's trace tree.
    trace: object = None


@dataclass(frozen=True)
class _WorkerTask:
    """Picklable description of one computation for a process worker.

    ``series`` is a :class:`~repro.engine.shm.BlobHandle` whenever the
    parent's store has the blob (the zero-copy path) and the raw values
    array otherwise; ``request`` and ``engine`` travel as their JSON dict
    forms — the objects rebuild cheaply and the dicts pickle predictably.
    """

    digest: str
    series: object
    series_name: str
    request: dict
    engine: dict
    #: Parent obs payload (or ``None``): the worker process adopts it,
    #: records its spans/metrics locally and ships the harvest back under
    #: the ``"obs"`` key of its result document.
    trace: object = None


#: Worker-process session LRU, keyed by series digest.  Reusing a session
#: across jobs keeps its sliding statistics, memoized FFT products and
#: result cache warm — the per-process mirror of the parent's session pool.
_WORKER_SESSIONS: "OrderedDict[str, Analysis]" = OrderedDict()


def _worker_session(task: _WorkerTask) -> Analysis:
    """The per-process session for one task's series (created on miss)."""
    session = _WORKER_SESSIONS.get(task.digest)
    if session is not None:
        _WORKER_SESSIONS.move_to_end(task.digest)
        return session
    series = task.series
    if isinstance(series, BlobHandle):
        # Zero-copy attach: the blob is memory-mapped and content-verified
        # once per process (the attach cache in repro.engine.shm).
        series = attach_blob(series)
    session = Analysis(
        series,
        name=task.series_name,
        engine=EngineConfig.from_dict(task.engine),
    )
    while len(_WORKER_SESSIONS) >= _WORKER_SESSION_SLOTS:
        _WORKER_SESSIONS.popitem(last=False)
    _WORKER_SESSIONS[task.digest] = session
    return session


def _execute_worker_task(task: _WorkerTask) -> dict:
    """Run one task inside a worker process (top level: must be picklable).

    Returns the result envelope as a JSON-ready dict — the parent adopts it
    into its pooled session.  :class:`~repro.exceptions.ReproError` crosses
    the pool boundary as-is (the hierarchy pickles), keeping the parent's
    error mapping identical to the thread path.
    """
    if task.trace is None:
        session = _worker_session(task)
        request = AnalysisRequest.from_dict(task.request)
        result, source = session.run_with_info(request)
        return {"cache": source, "result": result.as_dict()}
    with obs.remote_task(task.trace, skip_same_process=True) as remote:
        with obs.span("service.worker", kind=task.request.get("kind")):
            session = _worker_session(task)
            request = AnalysisRequest.from_dict(task.request)
            result, source = session.run_with_info(request)
    document = {"cache": source, "result": result.as_dict()}
    blob = remote.harvest()
    if blob is not None:
        document["obs"] = blob
    return document


class AnalysisService:
    """The service object: start/stop lifecycle plus the request pipeline."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config or ServiceConfig()
        self._index = (
            None
            if self._config.index_dir is None
            else MotifIndex(self._config.index_dir)
        )
        self._pool = _SessionPool(self._config, index=self._index)
        self._store = (
            None
            if self._config.store_dir is None
            else SeriesStore(
                self._config.store_dir, max_bytes=self._config.store_max_bytes
            )
        )
        if self._store is not None and self._index is not None:
            # A series leaving the store takes its catalog rows with it.
            self._store.subscribe_removal(self._index.remove_series)
        self._queue: "asyncio.Queue[_Job]" = asyncio.Queue(
            maxsize=self._config.backlog
        )
        # The queue bounds *accepted* work; this bounds the bodies being
        # buffered/parsed before acceptance, so server memory stays at
        # ~(backlog + workers + slack) x body cap even under a flood of
        # concurrent large POSTs.  Connections beyond it wait in kernel
        # socket buffers, not in Python memory.
        self._intake = asyncio.Semaphore(self._config.backlog + self._config.workers)
        self._server: asyncio.AbstractServer | None = None
        self._workers: List[asyncio.Task] = []
        self._executor = None  # thread executor: offloads + thread workers
        self._compute: ParallelExecutor | None = None  # process workers
        #: Jobs dequeued but not yet resolved — stop() must fail these too,
        #: or their connection handlers hang on futures nobody settles.
        self._inflight: "Dict[int, _Job]" = {}
        #: Open connections: writer -> its handler task, and the subset
        #: waiting for their next request.  ``stop()`` closes the waiting
        #: ones and lets the busy ones answer, so every handler exits
        #: through its own path; a handler left for ``asyncio.run`` to
        #: cancel makes the streams callback log a ``CancelledError``
        #: traceback.
        self._open_connections: "Dict[asyncio.StreamWriter, asyncio.Task]" = {}
        self._waiting_connections: "set[asyncio.StreamWriter]" = set()
        #: Set first thing in ``stop()``: every answer from then on closes
        #: its connection, and no new job is queued.
        self._stopping = False
        self._metrics = _ServiceMetrics()
        #: Retained /metrics snapshots keyed by their opaque window token —
        #: a scraper passing ``?since=<token>`` gets the delta against the
        #: snapshot that token named (the "no windowing" fix: counters no
        #: longer have to be diffed client-side against a process lifetime).
        self._metric_snapshots: "OrderedDict[str, dict]" = OrderedDict()
        self._metric_window_seq = 0
        self._zero_copy = 0
        self._sequence = 0
        self._received = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._connections = 0
        self._uploads = 0
        #: most recent sequence numbers in completion order — with
        #: ``workers=1`` this must equal enqueue order (the queue-ordering
        #: test asserts it); bounded so /stats stays cheap under sustained
        #: traffic.
        self._completion_order: "deque[int]" = deque(maxlen=_COMPLETION_HISTORY)

    @property
    def config(self) -> ServiceConfig:
        """The configuration the service was built with."""
        return self._config

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("the service is not listening")
        return int(self._server.sockets[0].getsockname()[1])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and launch the worker pool.

        A failure after resources were acquired — typically the bind
        raising ``EADDRINUSE`` — unwinds everything already started, so a
        caught start error leaves no leaked executor threads, process pool
        or orphaned worker tasks behind (the bind-conflict regression test
        retries on a fresh port with the same service object's config).
        """
        if self._server is not None:
            raise ServiceError("the service is already running")
        self._executor = _DaemonThreadExecutor(self._config.workers)
        try:
            if self._config.worker_kind == "process":
                candidate = ParallelExecutor(self._config.workers)
                # uses_processes forces pool creation; an environment that
                # cannot host one already warned and degrades to threads.
                if candidate.uses_processes:
                    self._compute = candidate
            if self._config.prewarm and self._compute is not None:
                # Round-trip a ping through every pool worker before the
                # socket accepts traffic: the first request pays neither the
                # pool spawn nor the interpreter start of its worker.  Off
                # the event loop — spawning is hundreds of milliseconds.
                warmed = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._compute.prewarm
                )
                _PREWARM_GAUGE.set(float(warmed))
            self._workers = [
                asyncio.get_running_loop().create_task(self._worker_loop())
                for _ in range(self._config.workers)
            ]
            self._server = await asyncio.start_server(
                self._handle_connection, self._config.host, self._config.port
            )
        except BaseException:
            await self._unwind_start()
            raise

    async def _unwind_start(self) -> None:
        """Roll back a partially-completed :meth:`start` (no leaks)."""
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        self._shutdown_executors()

    def _shutdown_executors(self) -> None:
        """Release both executors without waiting on in-flight work."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self._compute is not None:
            self._compute.close(wait=False, cancel_futures=True)
            self._compute = None

    async def stop(self) -> None:
        """Stop listening, cancel the workers, fail queued **and in-flight**
        jobs, drain the open connections, release the executors.  Every
        unresolved job future gets a ``503`` so its connection handler — and
        client — is released instead of hanging on a future nobody will ever
        settle (cancelling a worker task abandons its ``run_in_executor``
        await without resolving the job it was driving).  Connections
        waiting for a request are closed; a busy one answers with
        ``Connection: close`` and exits.  Nothing here waits on a session: a
        computation still running on an executor thread is abandoned, not
        joined."""
        # Before the first await: an answer written from here on must
        # already carry Connection: close.
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.set_exception(
                    ServiceError("the service is shutting down", status=503)
                )
        self._inflight.clear()
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if not job.future.done():
                job.future.set_exception(
                    ServiceError("the service is shutting down", status=503)
                )
            self._queue.task_done()
        # Closing a transport feeds its reader EOF, so a connection waiting
        # for a request returns on its own; a busy one writes the 503 above
        # and returns.  The wait is bounded, and whatever is still open
        # after it (a body still arriving) is closed too — before
        # Server.wait_closed(), which on Python 3.12+ waits for every open
        # connection.
        for writer in list(self._waiting_connections):
            writer.close()
        handlers = list(self._open_connections.values())
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        for writer in list(self._open_connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self._shutdown_executors()
        if self._index is not None:
            self._index.close()

    # ------------------------------------------------------------------ #
    # the worker pool
    # ------------------------------------------------------------------ #
    async def _worker_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            # Registered before any await so stop() can fail this job's
            # future if the service dies mid-computation.
            self._inflight[job.sequence] = job
            dequeued = time.monotonic()
            try:
                if self._compute is not None:
                    payload = await self._execute_job_process(job, loop)
                else:
                    payload = await loop.run_in_executor(
                        self._executor, self._execute_job, job
                    )
            except asyncio.CancelledError:
                # Only stop()/_unwind_start() cancel workers: the abandoned
                # job must still answer, or its connection (and client)
                # waits on a future nobody will ever settle.
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError("the service is shutting down", status=503)
                    )
                raise
            except ReproError as error:
                self._failed += 1
                _REQUESTS_FAILED.inc()
                if not job.future.done():
                    job.future.set_exception(error)
            except Exception as error:  # defensive: a worker must never die
                self._failed += 1
                _REQUESTS_FAILED.inc()
                if not job.future.done():
                    job.future.set_exception(
                        ServiceError(f"internal error: {error}", status=500)
                    )
            else:
                done = time.monotonic()
                self._completed += 1
                _REQUESTS_COMPLETED.inc()
                self._completion_order.append(job.sequence)
                self._metrics.observe(
                    job.request.kind,
                    queue=dequeued - job.enqueued_at,
                    execute=done - dequeued,
                    total=done - job.received_at,
                )
                if not job.future.done():
                    job.future.set_result(payload)
            finally:
                self._inflight.pop(job.sequence, None)
                self._queue.task_done()

    def _execute_job(self, job: _Job) -> dict:
        """Runs on an executor thread: resolve the session, run, envelope."""
        if job.trace is None:
            return self._execute_job_inner(job)
        # Same-process adoption: metric recordings already land in the live
        # registry, so only span events are captured and shipped back (in
        # the response envelope's "trace" key, for the client to absorb).
        with obs.remote_task(job.trace, capture_metrics=False) as remote:
            with obs.span(
                "service.request", kind=job.request.kind, worker="thread"
            ):
                self._record_queue_span(job)
                payload = self._execute_job_inner(job)
        blob = remote.harvest()
        if blob is not None and blob.get("events"):
            payload["trace"] = {"events": blob["events"]}
        return payload

    def _execute_job_inner(self, job: _Job) -> dict:
        session, lock = self._pool.get_or_create(
            job.digest, job.values, job.series_name
        )
        with lock:
            result, source = session.run_with_info(job.request)
        return {
            "id": job.request_id,
            "series_digest": job.digest,
            "cache": source,
            "result": result.as_dict(),
        }

    @staticmethod
    def _record_queue_span(job: _Job) -> None:
        """One leaf span for the time the job sat in the request queue."""
        if job.enqueued_wall:
            queued = max(0.0, time.time() - job.enqueued_wall)
            obs.record_span("service.queue", job.enqueued_wall, queued)

    # ------------------------------------------------------------------ #
    # the process data plane
    # ------------------------------------------------------------------ #
    async def _execute_job_process(self, job: _Job, loop) -> dict:
        """Adopt the client's trace context around the process data plane.

        The remote-task context lives on this coroutine (ContextVars are
        task-local, so concurrent jobs do not cross-pollinate); the worker
        process's harvested spans are absorbed into the same buffer mid
        flight, and the combined tree travels back in the response
        envelope's ``"trace"`` key.
        """
        if job.trace is None:
            return await self._process_plane(job, loop)
        with obs.remote_task(job.trace, capture_metrics=False) as remote:
            with obs.span(
                "service.request", kind=job.request.kind, worker="process"
            ):
                self._record_queue_span(job)
                payload = await self._process_plane(job, loop)
        blob = remote.harvest()
        if blob is not None and blob.get("events"):
            events = list(blob["events"])
            existing = payload.get("trace")
            if existing and existing.get("events"):
                # The serialization fallback already attached a thread-path
                # tree; keep both sides' spans.
                events.extend(existing["events"])
            payload["trace"] = {"events": events}
        return payload

    async def _process_plane(self, job: _Job, loop) -> dict:
        """Probe in the parent, compute in a worker process, adopt back.

        The cache probe and the adoption run on the thread executor (they
        take session slot locks and may touch the persistent spill); only
        the cache-missing computation crosses the process boundary.  The
        series travels as a store :class:`~repro.engine.shm.BlobHandle`
        whenever possible — the worker maps the blob file directly instead
        of unpickling an O(n) array.
        """
        cached = await loop.run_in_executor(self._executor, self._probe_job, job)
        if cached is not None:
            return cached
        try:
            request_dict = job.request.as_dict()
        except SerializationError:
            # Params that resist JSON resist pickling predictably too; the
            # thread path computes them in-process.  The trace is stripped:
            # the caller already opened the request span, and _execute_job
            # would otherwise start a second tree for the same job.
            return await loop.run_in_executor(
                self._executor, self._execute_job, replace(job, trace=None)
            )
        series_ref: object = job.values
        if self._store is not None:
            handle = await loop.run_in_executor(
                self._executor, self._store.handle, job.digest
            )
            if handle is not None:
                series_ref = handle
                self._zero_copy += 1
        engine = self._config.engine.as_dict()
        # Workers are the parallelism; a nested pool per worker would fork
        # bomb the host.  Kernel/block-size knobs still apply.
        engine["executor"] = None
        engine["n_jobs"] = None
        task = _WorkerTask(
            digest=job.digest,
            series=series_ref,
            series_name=job.series_name,
            request=request_dict,
            engine=engine,
            # Captured *here*, inside the request span when one is open, so
            # the worker's spans parent under it; also non-None whenever
            # metrics are on, which is what ships the worker-process metric
            # delta home even for untraced requests.
            trace=obs.current_payload(),
        )
        try:
            document = await loop.run_in_executor(
                self._compute, _execute_worker_task, task
            )
        except BrokenProcessPool as error:
            # The executor already dropped the broken pool; the next job
            # spawns a fresh one.
            raise ServiceError(
                f"a worker process died during this job: {error}", status=500
            ) from error
        # Spans join the open buffer (or collector), the metric delta folds
        # into the live registry.
        obs.absorb(document.pop("obs", None))
        return await loop.run_in_executor(
            self._executor, self._adopt_computed, job, document
        )

    def _probe_job(self, job: _Job) -> dict | None:
        """Executor thread: cache-only probe of the pooled parent session."""
        session, lock = self._pool.get_or_create(
            job.digest, job.values, job.series_name
        )
        with lock:
            hit = session.probe(job.request)
        if hit is None:
            return None
        result, source = hit
        return {
            "id": job.request_id,
            "series_digest": job.digest,
            "cache": source,
            "result": result.as_dict(),
        }

    def _adopt_computed(self, job: _Job, document: dict) -> dict:
        """Executor thread: fold a worker's envelope into the parent session.

        Adoption feeds the parent's cache tiers and motif index so the next
        identical request hits ``"memory"`` without a process round-trip.
        A result that will not rebuild is still answered — adoption is an
        optimisation, not a correctness gate.
        """
        payload = {
            "id": job.request_id,
            "series_digest": job.digest,
            "cache": document["cache"],
            "result": document["result"],
        }
        try:
            result = AnalysisResult.from_dict(document["result"])
        except (SerializationError, KeyError, TypeError, ValueError):
            return payload
        session, lock = self._pool.get_or_create(
            job.digest, job.values, job.series_name
        )
        with lock:
            session.adopt_result(job.request, result)
        return payload

    # ------------------------------------------------------------------ #
    # HTTP layer
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # One request at a time: read a request, await its answer, write it,
        # read the next.  Keep-alive is what lets a ServiceClient reuse one
        # socket for its digest negotiation; requests a client pipelines
        # down the socket wait in it and are answered one by one, in order
        # (HTTP/1.1 allows exactly that).  Concurrency comes from more
        # connections.
        self._connections += 1
        self._open_connections[writer] = asyncio.current_task()
        try:
            first = True
            while True:
                self._waiting_connections.add(writer)
                try:
                    head = await self._read_head(reader, idle_ok=not first)
                finally:
                    self._waiting_connections.discard(writer)
                if head is None:
                    return  # clean close or idle timeout between requests
                first = False
                method, target, content_length, keep_alive, trace_header = head
                try:
                    status, payload = await self._dispatch(
                        method, target, content_length, reader, trace_header
                    )
                except (
                    asyncio.IncompleteReadError,
                    asyncio.TimeoutError,
                    TimeoutError,
                ):
                    # The body never arrived; the stream position is gone,
                    # so answer and drop the connection.
                    status, payload = 400, {"error": "malformed HTTP request"}
                    keep_alive = False
                except _CloseAfterResponse as error:
                    # The body was (partly) unconsumed: answer, then close
                    # before the leftover bytes masquerade as a request.
                    status, payload, keep_alive = error.status, error.payload, False
                except ServiceError as error:
                    status, payload = error.status or 500, {"error": str(error)}
                except ReproError as error:
                    status, payload = 422, {"error": str(error)}
                keep_alive = keep_alive and not self._stopping
                if not await self._respond(writer, status, payload, keep_alive):
                    return
        except (
            ServiceError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
            ValueError,
        ):
            await self._respond(writer, 400, {"error": "malformed HTTP request"}, False)
        finally:
            # close() schedules the transport teardown; awaiting
            # wait_closed() here would race loop shutdown (handlers for
            # dying connections get cancelled mid-await and spam the
            # loop's exception handler) for no benefit.
            writer.close()
            self._open_connections.pop(writer, None)

    async def _dispatch(
        self,
        method: str,
        target: str,
        content_length: int,
        reader: asyncio.StreamReader,
        trace_header: str | None = None,
    ) -> Tuple[int, dict]:
        """Route one request, deciding how its body is consumed.

        ``PUT /series/<digest>`` streams the body straight into the store's
        chunked ingest (the series never exists in server memory as one
        buffer); everything else buffers the body under an intake permit as
        before.
        """
        path = target.split("?", 1)[0]
        if method == "PUT" and path.startswith("/series/"):
            return await self._handle_series_put(
                path, target, content_length, reader
            )
        body = b""
        if content_length:
            # Only the body buffering holds an intake permit: it is what
            # makes server memory proportional to concurrent uploads.  The
            # permit is released before the request waits for its
            # computation, so it never delays the queue-full 503 answer.
            async with self._intake:
                body = await asyncio.wait_for(
                    reader.readexactly(content_length),
                    timeout=_BODY_TIMEOUT_SECONDS,
                )
        return await self._route(
            method, path, body, target.partition("?")[2], trace_header
        )

    async def _read_head(
        self, reader: asyncio.StreamReader, *, idle_ok: bool
    ) -> Tuple[str, str, int, bool, "str | None"] | None:
        """Read one request line + headers.

        Returns ``(method, path_with_query, content_length, keep_alive,
        trace_header)``,
        or ``None`` for a connection that ended cleanly: EOF before the
        request line, or (between keep-alive requests, ``idle_ok``) an idle
        timeout.  Reading happens WITHOUT an intake permit (an idle socket
        must not starve /health or the 503 path) but under timeouts, so a
        silent connection cannot pin this handler forever.
        """
        timeout = _KEEPALIVE_IDLE_SECONDS if idle_ok else _HEADER_TIMEOUT_SECONDS
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=timeout)
        except (asyncio.TimeoutError, TimeoutError):
            if idle_ok:
                return None  # an expired idle connection is not an error
            raise
        if not request_line:
            if idle_ok:
                return None
            raise ServiceError("empty request", status=400)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError("malformed request line", status=400)
        method, target, version = parts
        # HTTP/1.1 defaults to persistent connections; HTTP/1.0 needs the
        # client to opt in.  A Connection: close header always wins.
        keep_alive = version.upper() == "HTTP/1.1"
        content_length = 0
        trace_header: "str | None" = None
        while True:
            line = await asyncio.wait_for(
                reader.readline(), timeout=_HEADER_TIMEOUT_SECONDS
            )
            if len(line) > _MAX_HEADER_LINE:
                raise ServiceError("header line too long", status=400)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                content_length = int(value.strip())
            elif name == obs.TRACE_HEADER.lower():
                trace_header = value.strip()
            elif name == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
        method = method.upper()
        # Route-aware body cap: a streamed series upload never buffers, so
        # it gets a far larger budget than a JSON body the loop must parse.
        # Violations are raised here — before any body byte is consumed —
        # so the outer handler answers 400 and closes the broken framing.
        cap = (
            _MAX_SERIES_BYTES
            if method == "PUT" and target.split("?", 1)[0].startswith("/series/")
            else _MAX_BODY_BYTES
        )
        if content_length < 0 or content_length > cap:
            raise ServiceError("invalid content length", status=400)
        return method, target, content_length, keep_alive, trace_header

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
    ) -> bool:
        """Write one response; returns whether the connection stays open."""
        reasons = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            409: "Conflict",
            422: "Unprocessable Entity",
            500: "Internal Server Error",
            503: "Service Unavailable",
        }
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {reasons.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            return False  # client went away; the handler closes the socket
        return keep_alive

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        query: str = "",
        trace_header: "str | None" = None,
    ) -> Tuple[int, dict]:
        if method == "GET" and path.startswith("/series/"):
            return self._handle_series_get(path)
        if method == "GET" and path == "/health":
            return 200, {
                "status": "ok",
                "queue_depth": self._queue.qsize(),
                "backlog": self._config.backlog,
                "workers": self._config.workers,
                "kernel": resolve_kernel(self._config.engine.kernel),
                "native_rows": _native.row_path(),
                "native_unavailable": _native.unavailable_reason(),
            }
        if method == "GET" and path == "/capabilities":
            return 200, {"algorithms": capabilities()}
        if method == "GET" and path == "/stats":
            return 200, self.stats()
        if method == "GET" and path == "/metrics":
            return 200, self._metrics_document(query)
        if method == "GET" and path == "/query":
            return await self._handle_query(query)
        if method == "POST" and path == "/analyze":
            return await self._handle_analyze(body, trace_header)
        if path in (
            "/health",
            "/capabilities",
            "/stats",
            "/metrics",
            "/analyze",
            "/query",
        ) or path.startswith("/series/"):
            return 405, {"error": f"method {method} not allowed for {path}"}
        return 404, {"error": f"unknown path {path!r}"}

    def _metrics_document(self, query: str) -> dict:
        """The ``GET /metrics`` document.

        Keeps the PR 8 latency-histogram shape (``bounds``/``phases``/
        ``kinds``) verbatim and extends it with the registry view:

        * ``families`` — every counter/gauge/histogram in the process
          registry *and* this service's latency registry, grouped by the
          name segment before the first dot;
        * ``token`` — an opaque window token naming the snapshot taken for
          this response (a bounded ring of them is retained);
        * ``window`` — ``"full"``, or ``"delta"`` when ``?since=<token>``
          matched a retained snapshot and ``families`` holds the counter/
          histogram *deltas* since it (gauges stay current-value).  An
          expired or unknown token degrades to ``"full"`` — monotonic, so
          the scraper's rate arithmetic stays safe.
        """
        params = dict(parse_qsl(query, keep_blank_values=True))
        current = obs.merge_snapshots(
            obs.snapshot(), self._metrics.registry_snapshot()
        )
        window = "full"
        view = current
        since = params.get("since")
        if since:
            earlier = self._metric_snapshots.get(since)
            if earlier is not None:
                view = obs.snapshot_delta(current, earlier)
                window = "delta"
        self._metric_window_seq += 1
        token = f"w{self._metric_window_seq}"
        self._metric_snapshots[token] = current
        while len(self._metric_snapshots) > _METRIC_SNAPSHOT_RING:
            self._metric_snapshots.popitem(last=False)
        document = self._metrics.document()
        document["at"] = current.get("at")
        document["token"] = token
        document["window"] = window
        document["families"] = obs.group_families(view)
        return document

    async def _handle_query(self, query: str) -> Tuple[int, dict]:
        """Answer one ``GET /query`` over the motif index.

        Parameters arrive percent-encoded (``parse_qsl`` decodes them, so
        URL-unsafe series names travel intact) and map one-to-one onto
        :meth:`repro.index.QuerySpec.from_params`.  The catalog read runs on
        the worker executor — SQLite under the index lock is still blocking
        work the event loop must not absorb.
        """
        if self._index is None:
            return 404, {
                "error": "no motif index is configured "
                "(start the service with --data-dir)"
            }
        params = dict(parse_qsl(query, keep_blank_values=True))
        try:
            spec = QuerySpec.from_params(params)
        except InvalidParameterError as error:
            return 400, {"error": str(error)}
        return 200, await self._offload(self._index.answer, spec)

    # ------------------------------------------------------------------ #
    # the series catalog endpoints
    # ------------------------------------------------------------------ #
    @staticmethod
    def _series_path_digest(path: str) -> str:
        digest = path[len("/series/") :]
        if not is_series_digest(digest):
            raise ServiceError(
                f"not a valid series digest: {digest!r}", status=400
            )
        return digest

    async def _offload(self, fn, *args):
        """Run blocking store/pool work on the worker executor.

        Anything that may take the store lock across real work (blob
        hashing, the eviction pass) or hash a series must not run on the
        event loop — ``/health`` and the 503 answer keep flowing while it
        executes."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _resolve_series(self, digest: str) -> np.ndarray | None:
        """Digest → values via the session pool, then the store.

        The store half runs on the worker executor: a pool-miss ``get``
        sha1-verifies the whole blob, and that must not stall the event
        loop (``/health`` and the 503 answer keep flowing while a large
        series is being mapped and hashed)."""
        values = self._pool.lookup_values(digest)
        if values is not None:
            return values
        if self._store is not None:
            return await self._offload(self._store.get, digest)
        return None

    def _handle_series_get(self, path: str) -> Tuple[int, dict]:
        digest = self._series_path_digest(path)
        # Metadata answers come from the catalog (or the pool), not from a
        # full blob read — verification stays on the value-resolving paths.
        entry = None if self._store is None else self._store.entry(digest)
        if entry is not None:
            return 200, {**entry, "stored": True}
        values = self._pool.lookup_values(digest)
        if values is not None:
            return 200, {
                "digest": digest,
                "length": int(values.size),
                "bytes": int(values.size * 8),
                "name": "series",
                "stored": False,
            }
        return 404, {
            "error": f"unknown series digest {digest}",
            "unknown_digest": digest,
        }

    async def _handle_series_put(
        self,
        path: str,
        target: str,
        content_length: int,
        reader: asyncio.StreamReader,
    ) -> Tuple[int, dict]:
        # Validation happens before a single body byte is consumed, so the
        # error path must close the connection (unread bytes would garble
        # the next request) — hence _CloseAfterResponse, not a plain return.
        try:
            digest = self._series_path_digest(path)
        except ServiceError as error:
            raise _CloseAfterResponse(400, {"error": str(error)}) from error
        query = target.partition("?")[2]
        name = None  # an unnamed upload keeps whatever name the store holds
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "name" and value:
                name = unquote(value)
        if content_length <= 0 or content_length % 8:
            raise _CloseAfterResponse(
                400,
                {
                    "error": "a series upload needs a Content-Length that is "
                    "a non-empty multiple of 8 (raw float64 bytes)"
                },
            )
        if self._store is None and content_length > _MAX_BODY_BYTES:
            raise _CloseAfterResponse(
                400,
                {
                    "error": "series too large for the in-memory catalog "
                    "(the server runs without a store directory)"
                },
            )
        # The intake permit bounds concurrent uploads; the body itself is
        # consumed in chunks, so with a store the series never exists in
        # server memory at once.
        async with self._intake:
            if self._store is not None:
                ingest = self._store.begin(name=name, expected_digest=digest)
                try:
                    await self._stream_body(reader, content_length, ingest.append_bytes)
                    try:
                        # finalize() hashes nothing extra but renames and
                        # runs the eviction pass under the store lock — off
                        # the event loop with the rest of the store work.
                        await self._offload(ingest.finalize)
                    except StoreError as error:
                        # The body is fully consumed: a digest mismatch is an
                        # ordinary, keep-alive-safe 422.
                        return 422, {"error": str(error), "digest": digest}
                except OSError as error:
                    ingest.abort()
                    raise _CloseAfterResponse(
                        500, {"error": f"cannot persist the series: {error}"}
                    ) from error
                except BaseException:
                    ingest.abort()
                    raise
            else:
                chunks: List[bytes] = []
                await self._stream_body(reader, content_length, chunks.append)
                # No store: park the series in the session pool so
                # digest-only requests resolve until LRU pressure evicts it.
                # Off the event loop: the digest check hashes the series.
                error = await self._offload(
                    self._adopt_into_pool, b"".join(chunks), digest, name or "series"
                )
                if error is not None:
                    return error
        self._uploads += 1
        return 200, {
            "digest": digest,
            "length": content_length // 8,
            "stored": self._store is not None,
        }

    def _adopt_into_pool(
        self, data: bytes, digest: str, name: str
    ) -> Tuple[int, dict] | None:
        """Verify and park an uploaded series in the session pool (executor
        thread).  Returns an error response tuple, or ``None`` on success."""
        values = np.frombuffer(data, dtype="<f8")
        if series_digest(values) != digest:
            return 422, {
                "error": f"digest mismatch: the uploaded bytes do not hash to {digest}",
                "digest": digest,
            }
        self._pool.get_or_create(digest, np.array(values), name)
        return None

    async def _stream_body(
        self, reader: asyncio.StreamReader, length: int, sink
    ) -> None:
        """Feed exactly ``length`` body bytes into ``sink`` chunk by chunk."""
        remaining = int(length)
        while remaining > 0:
            chunk = await asyncio.wait_for(
                reader.read(min(_UPLOAD_CHUNK_BYTES, remaining)),
                timeout=_BODY_TIMEOUT_SECONDS,
            )
            if not chunk:
                raise asyncio.IncompleteReadError(b"", remaining)
            sink(chunk)
            remaining -= len(chunk)

    async def _handle_analyze(
        self, body: bytes, trace_header: "str | None" = None
    ) -> Tuple[int, dict]:
        received_at = time.monotonic()
        self._received += 1
        _REQUESTS_RECEIVED.inc()
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"request body is not valid JSON: {error}"}
        if not isinstance(document, dict):
            return 400, {"error": "request body must be a JSON object"}
        raw_series = document.get("series")
        raw_digest = document.get("series_digest")
        if raw_series is not None and raw_digest is not None:
            return 400, {"error": "pass either 'series' or 'series_digest', not both"}
        if raw_digest is not None:
            # The digest-only path: the series must already be known — from
            # the session pool (a prior submission) or the store (a prior
            # PUT /series upload).  The 404 carries a marker the client's
            # negotiation keys on.
            if not isinstance(raw_digest, str):
                return 400, {"error": "'series_digest' must be a string"}
            values = await self._resolve_series(raw_digest)
            if values is None:
                return 404, {
                    "error": f"unknown series digest {raw_digest}; upload the "
                    "series once via PUT /series/<digest>",
                    "unknown_digest": raw_digest,
                }
        else:
            if not isinstance(raw_series, list) or not raw_series:
                return 400, {"error": "'series' must be a non-empty list of numbers"}
            try:
                values = np.asarray(raw_series, dtype=np.float64)
            except (TypeError, ValueError) as error:
                return 400, {"error": f"'series' is not numeric: {error}"}
            if values.ndim != 1:
                return 400, {"error": "'series' must be one-dimensional"}
        raw_request = document.get("request")
        if not isinstance(raw_request, dict):
            return 400, {"error": "'request' must be an AnalysisRequest object"}
        try:
            request = AnalysisRequest.from_dict(raw_request)
        except SerializationError as error:
            return 400, {"error": str(error)}

        series_name = document.get("series_name")
        if series_name is None and raw_digest is not None and self._store is not None:
            entry = await self._offload(self._store.entry, raw_digest)
            series_name = None if entry is None else entry["name"]
        if self._stopping:
            # stop() has already failed the queue; a job queued now would
            # never be answered.
            raise ServiceError("the service is shutting down", status=503)
        self._sequence += 1
        job = _Job(
            sequence=self._sequence,
            request_id=str(document.get("id", self._sequence)),
            # The digest path already knows the identity; hashing megabytes
            # again would defeat the transport's whole point.
            digest=raw_digest if raw_digest is not None else series_digest(values),
            values=values,
            series_name=str(series_name if series_name is not None else "series"),
            request=request,
            future=asyncio.get_running_loop().create_future(),
            received_at=received_at,
            trace=obs.parse_trace_header(trace_header),
        )
        try:
            job.enqueued_at = time.monotonic()
            job.enqueued_wall = time.time()
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self._rejected += 1
            _REQUESTS_REJECTED.inc()
            return 503, {
                "error": f"request queue is full ({self._config.backlog} pending)",
                "id": job.request_id,
            }
        # A failed job raises here; the connection handler maps the error.
        return 200, await job.future

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Counters, completion order, per-session cache and store info."""
        return {
            "received": self._received,
            "completed": self._completed,
            "failed": self._failed,
            "rejected": self._rejected,
            "connections": self._connections,
            "uploads": self._uploads,
            "queue_depth": self._queue.qsize(),
            "worker_kind": "process" if self._compute is not None else "thread",
            "zero_copy_jobs": self._zero_copy,
            "latency": self._metrics.summary(),
            "completion_order": list(self._completion_order),
            "sessions": self._pool.stats(),
            "store": None if self._store is None else self._store.stats(),
            "index": None if self._index is None else self._index.stats(),
        }


def serve_forever(config: ServiceConfig | None = None) -> None:
    """Run a service in the foreground until SIGINT or SIGTERM (the CLI path).

    Either signal runs :meth:`AnalysisService.stop` — queued and in-flight
    jobs answer ``503`` with ``Connection: close``, idle connections are
    closed — and then returns, so ``repro serve`` exits with status 0.  A
    computation still running on a service thread is abandoned, not waited
    for; one running on a process pool is still joined at interpreter exit.
    """

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        service = AnalysisService(config)
        await service.start()
        host = config.host if config else "127.0.0.1"
        print(f"repro analysis service listening on http://{host}:{service.port}")
        try:
            await stop.wait()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass


class BackgroundService:
    """A service running on its own thread/event loop (tests, benchmarks).

    Usage::

        with BackgroundService(ServiceConfig(port=0)) as service:
            client = ServiceClient(port=service.port)
            ...

    The context manager guarantees the loop is up (and the port bound) on
    entry and fully torn down on exit.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self._config = config or ServiceConfig(port=0)
        self._service: AnalysisService | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None

    @property
    def service(self) -> AnalysisService:
        """The underlying service (valid while started)."""
        if self._service is None:
            raise ServiceError("the background service is not running")
        return self._service

    @property
    def port(self) -> int:
        """The bound port."""
        return self.service.port

    @property
    def host(self) -> str:
        """The bind host."""
        return self._config.host

    def __enter__(self) -> "BackgroundService":
        if self._thread is not None:
            raise ServiceError("the background service is already running")
        # Reset per-run state so one BackgroundService object can be
        # entered again after a clean exit (or a failed start).
        self._started = threading.Event()
        self._error = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServiceError("the background service did not start in time")
        if self._error is not None:
            raise ServiceError(f"the background service failed to start: {self._error}")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._service = None
        self._loop = None
        self._thread = None

    def _run(self) -> None:
        async def _main() -> None:
            self._service = AnalysisService(self._config)
            self._stop = asyncio.Event()
            self._loop = asyncio.get_running_loop()
            try:
                await self._service.start()
            except BaseException as error:
                self._error = error
                self._started.set()
                return
            self._started.set()
            try:
                await self._stop.wait()
            finally:
                await self._service.stop()

        asyncio.run(_main())
