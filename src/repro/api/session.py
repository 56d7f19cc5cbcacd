"""The :class:`Analysis` session — one surface over every algorithm.

The flat entry points (``repro.stomp``, ``repro.valmod``, ``repro.skimp``,
...) each validate the series and derive sliding statistics per call.  A
production service answering many questions about the *same* series should
pay those costs once; the session object does exactly that:

* the series is normalised and validated **once** at construction
  (:class:`~repro.series.DataSeries`, numpy array or plain list — all
  accepted uniformly);
* one :class:`~repro.stats.sliding.SlidingStats` (prefix sums + per-window
  mean/std cache) is shared across every computation;
* the base FFT products STOMP needs (``QT[0, j]``) are memoized per window
  length;
* every completed computation is cached under its canonical request key in a
  bounded LRU cache (entry-count **and** byte-size accounting, see
  :class:`~repro.api.cache.LRUResultCache`), so repeating a call is a
  dictionary hit (``benchmarks/test_api_session_cache.py`` measures the
  speedup) while long-lived sessions stay bounded;
* with a :class:`~repro.api.cache.CacheConfig` ``persist_dir``, envelopes
  additionally spill to disk keyed by ``(series_digest, canonical request
  key)`` — a fresh process answering the same series reuses prior work;
* one :class:`EngineConfig` carries the execution knobs for every
  engine-aware algorithm instead of per-call ``engine=`` / ``n_jobs=``
  arguments, and multi-request submissions batch through
  :func:`repro.engine.batch.compute_profiles`.

Typical usage::

    import repro

    session = repro.analyze(series)
    profile = session.matrix_profile(window=64).profile()
    motifs = session.motifs(50, 200, method="valmod").best_motif()
    pan = session.pan_profile(50, 200).value
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.api.cache import (
    CacheConfig,
    LRUResultCache,
    PersistentResultCache,
    series_digest,
)
from repro.api.registry import resolve_algorithm
from repro.api.requests import AnalysisRequest, AnalysisResult, canonical_cache_key
from repro.engine.executor import Executor
from repro.exceptions import InvalidParameterError, SerializationError
from repro.matrix_profile.kernels import validate_kernel
from repro.series.dataseries import DataSeries, as_series
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

__all__ = ["EngineConfig", "CacheConfig", "Analysis", "analyze"]

_ENGINE_NAMES = ("serial", "parallel", "auto")

_CACHE_METRICS = obs.scope("cache")
_CACHE_MEMORY_HITS = _CACHE_METRICS.counter("memory_hits")
_CACHE_PERSISTENT_HITS = _CACHE_METRICS.counter("persistent_hits")
_CACHE_MISSES = _CACHE_METRICS.counter("misses")
_SESSION_METRICS = obs.scope("session")
_SESSION_RUNS = _SESSION_METRICS.counter("runs")
_SESSION_COMPUTE_SECONDS = _SESSION_METRICS.histogram("compute_seconds")


@dataclass(frozen=True)
class EngineConfig:
    """Execution configuration carried by a session.

    Attributes
    ----------
    executor:
        ``None`` (default; plain serial oracle paths), ``"serial"``,
        ``"parallel"``, ``"auto"`` or an
        :class:`~repro.engine.executor.Executor` instance.  Anything but
        ``None`` routes the engine-aware algorithms through
        :mod:`repro.engine`.
    n_jobs:
        Worker processes for ``"parallel"`` / ``"auto"``.
    block_size:
        Row-block size for the partitioned profile computations.
    kernel:
        Sweep kernel for the STOMP-shaped computations — ``None``
        (default; resolves per process via ``REPRO_KERNEL`` / auto),
        ``"auto"``, ``"oracle"``, ``"numpy"`` or ``"native"``; see
        :mod:`repro.matrix_profile.kernels`.  Unlike ``executor``, the
        kernel applies even to the plain serial paths.
    """

    executor: object | None = None
    n_jobs: int | None = None
    block_size: int | None = None
    kernel: str | None = None

    def __post_init__(self) -> None:
        if self.executor is not None and not isinstance(self.executor, Executor):
            if self.executor not in _ENGINE_NAMES:
                raise InvalidParameterError(
                    f"unknown engine executor {self.executor!r}; expected one of "
                    f"{list(_ENGINE_NAMES)} or an Executor instance"
                )
        if self.n_jobs is not None and int(self.n_jobs) < 1:
            raise InvalidParameterError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.block_size is not None and int(self.block_size) < 1:
            raise InvalidParameterError(
                f"block_size must be >= 1, got {self.block_size}"
            )
        validate_kernel(self.kernel)

    @property
    def enabled(self) -> bool:
        """True when the engine-aware algorithms should route through the engine."""
        return self.executor is not None

    def as_dict(self) -> dict:
        """JSON-ready form (executor instances degrade to their name)."""
        executor = self.executor
        if isinstance(executor, Executor):
            executor = executor.name
        return {
            "executor": executor,
            "n_jobs": self.n_jobs,
            "block_size": self.block_size,
            "kernel": self.kernel,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EngineConfig":
        """Rebuild a config from :meth:`as_dict` output."""
        return cls(
            executor=payload.get("executor"),
            n_jobs=payload.get("n_jobs"),
            block_size=payload.get("block_size"),
            kernel=payload.get("kernel"),
        )


class Analysis:
    """An analysis session over one data series.

    Parameters
    ----------
    series:
        :class:`~repro.series.DataSeries`, numpy array, plain list — or a
        content digest string resolved through ``store``.
    name:
        Optional name override (reports, result envelopes).
    engine:
        Session-wide :class:`EngineConfig`; also accepts the shorthand
        strings ``"serial"`` / ``"parallel"`` / ``"auto"`` or an
        :class:`~repro.engine.executor.Executor` instance.
    cache_config:
        Session-wide :class:`~repro.api.cache.CacheConfig`: LRU bounds of
        the in-memory result cache (entries and serialised bytes) and the
        optional cross-session spill directory.  Defaults to a bounded
        in-memory cache with no persistence.
    store:
        Optional :class:`repro.store.SeriesStore` used (only) to resolve a
        digest-string ``series``; the values arrive memory-mapped from the
        catalog blob.
    index:
        Optional :class:`repro.index.MotifIndex`: every **computed** (non
        cache-hit) result is flattened into catalog rows automatically.
        Ingest is best-effort by the index's own contract — a broken catalog
        warns and degrades, it never fails the computation.
    """

    def __init__(
        self,
        series,
        *,
        name: str | None = None,
        engine: "EngineConfig | str | Executor | None" = None,
        cache_config: CacheConfig | None = None,
        store=None,
        index=None,
    ) -> None:
        if isinstance(series, str):
            series = self._resolve_digest(series, store)
        self._series = as_series(series, name=name)
        if engine is None:
            engine = EngineConfig()
        elif not isinstance(engine, EngineConfig):
            engine = EngineConfig(executor=engine)
        self._engine = engine
        if cache_config is None:
            cache_config = CacheConfig()
        self._cache_config = cache_config
        self._stats: SlidingStats | None = None
        self._base_qt: Dict[int, np.ndarray] = {}
        self._results = LRUResultCache(
            cache_config.max_entries, cache_config.max_bytes
        )
        self._persistent = (
            None
            if cache_config.persist_dir is None
            else PersistentResultCache(cache_config.persist_dir)
        )
        self._index = index
        self._digest: str | None = None
        self._closed = False
        self._hits = 0
        self._misses = 0
        self._persistent_hits = 0

    @staticmethod
    def _resolve_digest(digest: str, store) -> DataSeries:
        """Resolve a content digest through a :class:`repro.store.SeriesStore`."""
        if store is None:
            raise InvalidParameterError(
                "a series digest was passed but no store= to resolve it against; "
                "open one with repro.store.SeriesStore(root)"
            )
        series = store.load(digest)
        if series is None:
            raise InvalidParameterError(
                f"series digest {digest!r} is not in the store at {store.root}"
            )
        return series

    # ------------------------------------------------------------------ #
    # shared state
    # ------------------------------------------------------------------ #
    @property
    def series(self) -> DataSeries:
        """The normalised series (validated once at construction)."""
        return self._series

    @property
    def values(self) -> np.ndarray:
        """The validated float64 values (read-only)."""
        return self._series.values

    @property
    def name(self) -> str:
        """The series name used in reports and result envelopes."""
        return self._series.name

    @property
    def engine(self) -> EngineConfig:
        """The session's execution configuration."""
        return self._engine

    @property
    def cache_config(self) -> CacheConfig:
        """The session's result-cache configuration."""
        return self._cache_config

    @property
    def series_digest(self) -> str:
        """Content digest of the series (persistent-cache / service key)."""
        if self._digest is None:
            self._digest = series_digest(self.values)
        return self._digest

    @property
    def stats(self) -> SlidingStats:
        """The shared sliding statistics (created lazily, once)."""
        if self._stats is None:
            self._stats = SlidingStats(self.values)
        return self._stats

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run.

        Purely informational: a closed session remains fully usable,
        because :meth:`close` releases nothing.
        """
        return self._closed

    def close(self) -> None:
        """Mark the session closed (idempotent); this releases nothing.

        A session owns no engine resources: every engine call packs its own
        shared-memory segment and unlinks it before returning, the in-memory
        results die with the object, and the persistent spill exists to
        outlive it.  A closed session stays fully usable.
        """
        self._closed = True

    def __enter__(self) -> "Analysis":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:
        return (
            f"Analysis(name={self.name!r}, length={len(self)}, "
            f"engine={self._engine.as_dict()}, cached_results={len(self._results)})"
        )

    def base_dot_products(self, window: int) -> np.ndarray:
        """Memoized ``QT[0, j]`` sliding dot products for one window length.

        This is the single FFT product a STOMP run needs; caching it means a
        repeated ``matrix_profile`` call at the same window (with caching
        disabled or different options) still skips the FFT.  The products
        are taken on the **mean-centered** series — the form
        :func:`repro.matrix_profile.stomp.stomp` expects for its centered
        recurrence (``centered_first_row_qt=``).
        """
        window = int(window)
        cached = self._base_qt.get(window)
        if cached is None:
            if window < 1 or window > len(self):
                raise InvalidParameterError(
                    f"window {window} out of range [1, {len(self)}]"
                )
            centered = self.stats.centered_values
            cached = sliding_dot_product(centered[:window], centered)
            self._base_qt[window] = cached
        return cached

    def coerce_other(self, other) -> Tuple[np.ndarray, SlidingStats | None]:
        """Normalise the second series of a join/distance computation.

        Accepts another :class:`Analysis` (whose statistics are reused), a
        :class:`~repro.series.DataSeries`, an array, or a list.
        """
        if isinstance(other, Analysis):
            return other.values, other.stats
        return as_series(other).values, None

    # ------------------------------------------------------------------ #
    # cache management
    # ------------------------------------------------------------------ #
    def cache_info(self) -> dict:
        """Hit/miss counters, bounds and occupancy of the result cache."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "persistent_hits": self._persistent_hits,
            **self._results.info(),
            "persist_dir": (
                None if self._persistent is None else str(self._persistent.root)
            ),
        }

    def clear_cache(self) -> None:
        """Drop every in-memory cached result and memoized FFT product.

        The persistent spill directory (when configured) is left intact —
        it exists precisely to outlive sessions; remove the directory itself
        to discard it.
        """
        self._results.clear()
        self._base_qt.clear()
        self._hits = 0
        self._misses = 0
        self._persistent_hits = 0

    def _probe_caches(self, key: str) -> Tuple[AnalysisResult, str] | None:
        """One cache probe: memory first, then the persistent spill.

        Returns ``(result, source)`` with ``source`` ``"memory"`` or
        ``"persistent"`` (a spill hit is promoted into the LRU as a side
        effect), or ``None`` on a full miss.  Shared by :meth:`run_with_info`
        and :meth:`run_many_with_info` so both report identical
        ``cache_source`` semantics.
        """
        cached = self._results.get(key)
        if cached is not None:
            self._hits += 1
            _CACHE_MEMORY_HITS.inc()
            return cached, "memory"
        spilled = self._load_spilled(key)
        if spilled is not None:
            return spilled, "persistent"
        return None

    def _load_spilled(self, key: str) -> AnalysisResult | None:
        """Probe the persistent spill and promote a hit into the LRU cache.

        The spill file's size (already known from the read) feeds the byte
        accounting — no re-serialisation on the hit path.
        """
        if self._persistent is None:
            return None
        spilled = self._persistent.load(self.series_digest, key)
        if spilled is None:
            return None
        result, size = spilled
        self._persistent_hits += 1
        _CACHE_PERSISTENT_HITS.inc()
        self._results.put(key, result, size)
        return result

    def _cache_store(self, key: str, result: AnalysisResult) -> None:
        """Insert one computed envelope into the memory cache and the spill.

        The envelope is encoded exactly once: the JSON text is both the
        byte size the memory cache counts (``json.dumps`` escapes anything
        non-ASCII, so its characters are its bytes) and the spill file's
        content.
        """
        try:
            text = json.dumps(result.as_dict(), sort_keys=True)
        except SerializationError:
            return
        self._results.put(key, result, len(text))
        if self._persistent is not None:
            self._persistent.store(self.series_digest, key, result, result_json=text)

    def _index_computed(self, spec, request: AnalysisRequest, key, result) -> None:
        """Catalog one freshly-computed result in the session's motif index.

        Cache hits never reach here (their rows were catalogued when they
        were first computed — or arrive via ``MotifIndex.backfill``).  The
        row identity is the same canonical key the caches use, so live
        ingest and backfill dedupe against each other; a request whose
        parameters resist canonicalisation is simply not indexed.
        """
        if self._index is None:
            return
        if key is None:
            key = canonical_cache_key(spec, request)
        if key is None:
            return
        self._index.ingest_result(
            result, series_digest=self.series_digest, result_key=key
        )

    def probe(self, request: AnalysisRequest) -> Tuple[AnalysisResult, str] | None:
        """Cache-only lookup of one request: ``(result, source)`` or ``None``.

        The read half of :meth:`run_with_info` — resolves the algorithm,
        derives the canonical key and probes both cache tiers, but never
        computes.  The service's process data plane uses this split: the
        parent probes its pooled session, only misses travel to a worker
        process, and the worker's answer comes back through
        :meth:`adopt_result`.
        """
        if not isinstance(request, AnalysisRequest):
            raise InvalidParameterError(
                f"probe() expects an AnalysisRequest, got {type(request).__name__}"
            )
        spec = resolve_algorithm(request.kind, request.algo)
        key = canonical_cache_key(spec, request)
        if key is None:
            return None
        return self._probe_caches(key)

    def adopt_result(self, request: AnalysisRequest, result: AnalysisResult) -> None:
        """Record a result computed elsewhere as if this session computed it.

        The write half of :meth:`run_with_info`: the envelope enters both
        cache tiers under the request's canonical key and is catalogued in
        the motif index.  ``result`` must answer ``request`` for this series
        — the caller (the service worker loop) guarantees that by
        construction, the session cannot check it.
        """
        if not isinstance(request, AnalysisRequest):
            raise InvalidParameterError(
                f"adopt_result() expects an AnalysisRequest, "
                f"got {type(request).__name__}"
            )
        spec = resolve_algorithm(request.kind, request.algo)
        key = canonical_cache_key(spec, request)
        self._misses += 1
        _CACHE_MISSES.inc()
        if key is not None:
            self._cache_store(key, result)
        self._index_computed(spec, request, key, result)

    # ------------------------------------------------------------------ #
    # the one dispatch path
    # ------------------------------------------------------------------ #
    def run(self, request: AnalysisRequest, *, cache: bool = True) -> AnalysisResult:
        """Execute one :class:`~repro.api.requests.AnalysisRequest`.

        Every public method funnels through here: the request resolves
        against the registry, the result caches (in-memory LRU, then the
        persistent spill when configured) are consulted under the request's
        canonical key, and the computation lands in the common
        :class:`~repro.api.requests.AnalysisResult` envelope.
        """
        return self.run_with_info(request, cache=cache)[0]

    def run_with_info(
        self, request: AnalysisRequest, *, cache: bool = True
    ) -> Tuple[AnalysisResult, str]:
        """Like :meth:`run`, also reporting where the result came from.

        The second element is ``"memory"`` (in-memory cache hit),
        ``"persistent"`` (spill-file hit from an earlier session) or
        ``"computed"``.  The service layer surfaces it to clients and the
        latency benchmark keys its regimes on it.

        Note that a persistent hit returns the envelope as it round-trips
        through JSON: a ``motifs``/``valmod`` payload comes back as the
        cross-algorithm :class:`~repro.baselines.base.RangeDiscoveryResult`
        view, not the full in-process ``ValmodResult``.  Such hits are
        tagged (``result.is_envelope_view`` is true, the payload is an
        :class:`~repro.api.requests.EnvelopeRangeResult`) so reaching for a
        missing ``ValmodResult`` field raises an explanatory error instead
        of a bare ``AttributeError``.
        """
        if not isinstance(request, AnalysisRequest):
            raise InvalidParameterError(
                f"run() expects an AnalysisRequest, got {type(request).__name__}"
            )
        spec = resolve_algorithm(request.kind, request.algo)
        key = canonical_cache_key(spec, request) if cache else None
        if key is not None:
            hit = self._probe_caches(key)
            if hit is not None:
                return hit
        spec.check_params(request.params)
        self._misses += 1
        _CACHE_MISSES.inc()
        _SESSION_RUNS.inc()
        started = time.perf_counter()
        with obs.span("session.run", kind=spec.kind, algo=spec.key):
            payload = spec.runner(self, **request.params)
        elapsed = time.perf_counter() - started
        _SESSION_COMPUTE_SECONDS.observe(elapsed)
        result = AnalysisResult(
            kind=spec.kind,
            algo=spec.key,
            params=request.params,
            series_name=self.name,
            series_length=len(self),
            elapsed_seconds=elapsed,
            payload=payload,
        )
        if key is not None:
            self._cache_store(key, result)
        self._index_computed(spec, request, key, result)
        return result, "computed"

    def run_many(
        self, requests: Iterable[AnalysisRequest], *, cache: bool = True
    ) -> List[AnalysisResult]:
        """Execute several requests, batching profile work through the engine.

        STOMP matrix-profile requests (the service's bread and butter) are
        grouped into one :func:`repro.engine.batch.compute_profiles`
        submission driven by the session's :class:`EngineConfig` — one
        statistics pass, optional process-level parallelism.  Everything
        else runs through :meth:`run` in submission order.  Results come
        back in submission order either way.

        Error semantics match :meth:`run`: the first failing request raises
        (results of requests that already completed are still in the session
        cache, but not returned).  Submit requests individually when partial
        results must survive a failure.
        """
        return [result for result, _ in self.run_many_with_info(requests, cache=cache)]

    def run_many_with_info(
        self, requests: Iterable[AnalysisRequest], *, cache: bool = True
    ) -> List[Tuple[AnalysisResult, str]]:
        """Like :meth:`run_many`, also reporting where each result came from.

        Every entry carries the same ``cache_source`` tag as
        :meth:`run_with_info`: ``"memory"``, ``"persistent"`` or
        ``"computed"``.  Batch-shaped requests probe both cache tiers —
        including the persistent spill, whose hits are promoted into the
        LRU — *before* batching, so work a previous process already
        persisted is never recomputed just because it arrived in a batch.
        """
        request_list = list(requests)
        results: List[Tuple[AnalysisResult, str] | None] = [None] * len(request_list)
        batchable: List[int] = []
        for index, request in enumerate(request_list):
            if not isinstance(request, AnalysisRequest):
                raise InvalidParameterError(
                    f"run_many() expects AnalysisRequest items, "
                    f"got {type(request).__name__}"
                )
            spec = resolve_algorithm(request.kind, request.algo)
            if spec.kind == "matrix_profile" and spec.key == "stomp" and set(
                request.params
            ) <= {"window", "exclusion_radius"}:
                if cache:
                    key = canonical_cache_key(spec, request)
                    hit = None if key is None else self._probe_caches(key)
                    if hit is not None:
                        results[index] = hit
                        continue
                batchable.append(index)
            else:
                results[index] = self.run_with_info(request, cache=cache)
        if batchable:
            self._run_profile_batch(request_list, results, batchable, cache)
        return [result for result in results if result is not None]

    def _run_profile_batch(
        self,
        requests: Sequence[AnalysisRequest],
        results: "List[Tuple[AnalysisResult, str] | None]",
        indices: List[int],
        cache: bool,
    ) -> None:
        """Dispatch plain STOMP requests as one engine batch."""
        from repro.engine.batch import ProfileJob, compute_profiles

        jobs = [
            ProfileJob(
                self.values,
                window=int(requests[index].params["window"]),
                exclusion_radius=requests[index].params.get("exclusion_radius"),
                block_size=self._engine.block_size,
                kernel=self._engine.kernel,
                name=self.name,
            )
            for index in indices
        ]
        executor = self._engine.executor if self._engine.enabled else "serial"
        _SESSION_RUNS.inc(len(indices))
        started = time.perf_counter()
        with obs.span("session.run_batch", jobs=len(jobs)):
            outcomes = compute_profiles(
                jobs, executor=executor, n_jobs=self._engine.n_jobs
            )
        elapsed = time.perf_counter() - started
        _SESSION_COMPUTE_SECONDS.observe(elapsed)
        self._misses += len(indices)
        _CACHE_MISSES.inc(len(indices))
        stomp_spec = resolve_algorithm("matrix_profile", "stomp")
        for index, outcome in zip(indices, outcomes):
            request = requests[index]
            result = AnalysisResult(
                kind="matrix_profile",
                algo="stomp",
                params=request.params,
                series_name=self.name,
                series_length=len(self),
                # Per-job wall clock is not observable inside the pool; the
                # batch total is recorded on every member.
                elapsed_seconds=elapsed,
                payload=outcome.unwrap(),
            )
            results[index] = (result, "computed")
            key = canonical_cache_key(stomp_spec, request)
            if cache and key is not None:
                self._cache_store(key, result)
            self._index_computed(stomp_spec, request, key, result)

    # ------------------------------------------------------------------ #
    # the public computation surface
    # ------------------------------------------------------------------ #
    def matrix_profile(
        self, window: int, *, algo: str = "stomp", cache: bool = True, **options: Any
    ) -> AnalysisResult:
        """Matrix profile at one window length.

        ``algo``: ``"stomp"`` (default), ``"scrimp"``, ``"scrimp++"``,
        ``"stamp"`` or ``"brute"``; extra options forward to the algorithm.
        """
        params = {"window": int(window), **options}
        return self.run(
            AnalysisRequest(kind="matrix_profile", algo=algo, params=params),
            cache=cache,
        )

    def motifs(
        self,
        min_length: int,
        max_length: int,
        *,
        method: str = "valmod",
        cache: bool = True,
        **options: Any,
    ) -> AnalysisResult:
        """Variable-length motif discovery over ``[min_length, max_length]``.

        ``method``: ``"valmod"`` (default), ``"stomp_range"``, ``"moen"``,
        ``"quick_motif"`` or ``"brute"``.
        """
        params = {
            "min_length": int(min_length),
            "max_length": int(max_length),
            **options,
        }
        return self.run(
            AnalysisRequest(kind="motifs", algo=method, params=params), cache=cache
        )

    def discords(
        self,
        min_length: int,
        max_length: int,
        *,
        cache: bool = True,
        **options: Any,
    ) -> AnalysisResult:
        """Variable-length discords (anomalies) over a length range."""
        params = {
            "min_length": int(min_length),
            "max_length": int(max_length),
            **options,
        }
        return self.run(
            AnalysisRequest(kind="discords", params=params), cache=cache
        )

    def pan_profile(
        self,
        min_length: int,
        max_length: int,
        *,
        cache: bool = True,
        **options: Any,
    ) -> AnalysisResult:
        """SKIMP pan matrix profile over a length range."""
        params = {
            "min_length": int(min_length),
            "max_length": int(max_length),
            **options,
        }
        return self.run(
            AnalysisRequest(kind="pan_profile", params=params), cache=cache
        )

    def ab_join(
        self, other, window: int, *, cache: bool = True, **options: Any
    ) -> AnalysisResult:
        """One-sided AB-join of this series against ``other``.

        ``other`` may be another :class:`Analysis` (statistics reused), a
        :class:`~repro.series.DataSeries`, an array, or a list.
        """
        params = {"other": self._other_param(other), "window": int(window), **options}
        return self.run(AnalysisRequest(kind="ab_join", params=params), cache=cache)

    def mpdist(
        self,
        other,
        window: int,
        *,
        percentile: float = 0.05,
        cache: bool = True,
        **options: Any,
    ) -> AnalysisResult:
        """MPdist between this series and ``other`` at one window length.

        Extra keyword arguments (``kernel=``, ``reseed_interval=``, …) are
        forwarded to :func:`~repro.matrix_profile.mpdist.mpdist`; plain calls
        keep their historical cache keys.
        """
        params = {
            "other": self._other_param(other),
            "window": int(window),
            "percentile": float(percentile),
            **options,
        }
        return self.run(AnalysisRequest(kind="mpdist", params=params), cache=cache)

    def _other_param(self, other):
        """Keep Analysis instances intact (stats reuse) — they digest fine."""
        if isinstance(other, Analysis):
            return other
        return as_series(other)


def analyze(
    series,
    *,
    name: str | None = None,
    engine: "EngineConfig | str | Executor | None" = None,
    cache_config: CacheConfig | None = None,
    store=None,
    index=None,
) -> Analysis:
    """Open an :class:`Analysis` session over ``series`` (the main entry point).

    ``series`` may also be a content digest string, resolved through
    ``store`` (a :class:`repro.store.SeriesStore`): the session then runs
    over the memory-mapped catalog blob without the caller ever holding the
    values — the in-process twin of the service's digest-only requests.
    ``index`` (a :class:`repro.index.MotifIndex`) catalogs every computed
    result's motifs and discords for cross-series queries.
    """
    return Analysis(
        series,
        name=name,
        engine=engine,
        cache_config=cache_config,
        store=store,
        index=index,
    )
