"""Bounded and persistent result caches behind the :class:`~repro.api.Analysis` session.

PR 2's session cache was a plain dictionary: safe for a notebook, unsafe for
a long-lived service answering arbitrary traffic (it grows without bound) and
wasteful across processes (results die with the session).  This module
provides the two replacements:

* :class:`LRUResultCache` — an in-memory least-recently-used cache with
  **both** entry-count and byte-size accounting, so a session holds at most
  ``max_entries`` envelopes occupying at most ``max_bytes`` of serialised
  result data;
* :class:`PersistentResultCache` — a cross-session spill directory keyed by
  ``(series_digest, canonical_request_key)``: a fresh process answering the
  same series finds the prior process's envelopes on disk and skips the
  computation.  Spill files travel through :mod:`repro.io.serialization`
  (plain JSON, human-inspectable); a corrupted or stale file is treated as a
  miss, never as an error.

:class:`CacheConfig` bundles the knobs the session (and the service layer on
top of it) exposes.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError, SerializationError

_CACHE_METRICS = obs.scope("cache")
_LRU_EVICTIONS = _CACHE_METRICS.counter("lru_evictions")
_PERSISTENT_LOADS = _CACHE_METRICS.counter("persistent_loads")
_PERSISTENT_STORES = _CACHE_METRICS.counter("persistent_stores")

__all__ = [
    "CacheConfig",
    "LRUResultCache",
    "PersistentResultCache",
    "series_digest",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_BYTES",
]

#: Default entry bound of a session's result cache.  256 envelopes is far
#: beyond any interactive workload while keeping a service session bounded.
DEFAULT_MAX_ENTRIES = 256

#: Default byte bound of a session's result cache (serialised size).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


def series_digest(values) -> str:
    """Content digest (sha1 hex) of a series' float64 values.

    This is the identity the persistent cache and the service layer key
    sessions by: two series with identical values share one digest, whatever
    their name or container type.
    """
    array = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha1(array.tobytes()).hexdigest()


@dataclass(frozen=True)
class CacheConfig:
    """Result-cache configuration carried by a session.

    Attributes
    ----------
    max_entries:
        Most envelopes the in-memory cache retains (LRU eviction beyond it).
    max_bytes:
        Most serialised bytes the in-memory cache retains.  An envelope
        larger than the whole budget is returned to the caller but never
        cached.
    persist_dir:
        Optional spill directory for the cross-session persistent cache;
        ``None`` (default) disables persistence.
    """

    max_entries: int = DEFAULT_MAX_ENTRIES
    max_bytes: int = DEFAULT_MAX_BYTES
    persist_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if int(self.max_entries) < 1:
            raise InvalidParameterError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        if int(self.max_bytes) < 1:
            raise InvalidParameterError(f"max_bytes must be >= 1, got {self.max_bytes}")

    def as_dict(self) -> dict:
        """JSON-ready form (paths degrade to strings)."""
        return {
            "max_entries": int(self.max_entries),
            "max_bytes": int(self.max_bytes),
            "persist_dir": None if self.persist_dir is None else str(self.persist_dir),
        }


class LRUResultCache:
    """Least-recently-used cache of :class:`~repro.api.requests.AnalysisResult`.

    Bounded on two axes — entry count and total serialised bytes — and
    thread-safe (the service layer's worker pool reads and writes sessions
    from executor threads).  ``get`` promotes, ``put`` evicts from the cold
    end until both bounds hold again.
    """

    def __init__(self, max_entries: int, max_bytes: int) -> None:
        if max_entries < 1:
            raise InvalidParameterError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise InvalidParameterError(f"max_bytes must be >= 1, got {max_bytes}")
        self._max_entries = int(max_entries)
        self._max_bytes = int(max_bytes)
        self._entries: "OrderedDict[str, Tuple[object, int]]" = OrderedDict()
        self._total_bytes = 0
        self._evictions = 0
        self._lock = threading.Lock()

    @property
    def max_entries(self) -> int:
        """The entry bound."""
        return self._max_entries

    @property
    def max_bytes(self) -> int:
        """The byte bound."""
        return self._max_bytes

    @property
    def total_bytes(self) -> int:
        """Serialised bytes currently retained."""
        with self._lock:
            return self._total_bytes

    @property
    def evictions(self) -> int:
        """Number of entries evicted so far (bound pressure, not ``clear``)."""
        with self._lock:
            return self._evictions

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        # Membership tests do not promote: `run_many` probes keys it may
        # never execute, which must not perturb the eviction order.
        with self._lock:
            return key in self._entries

    def keys(self) -> list:
        """Cached keys from least- to most-recently used (for tests/stats)."""
        with self._lock:
            return list(self._entries)

    def get(self, key: str):
        """Return the cached result (promoting it) or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: str, result, size_bytes: int) -> bool:
        """Insert ``result`` under ``key``; returns False when it cannot fit.

        An entry larger than the whole byte budget is rejected outright
        (caching it would evict everything else for a single slot).
        """
        size_bytes = int(size_bytes)
        if size_bytes < 0:
            raise InvalidParameterError(f"size_bytes must be >= 0, got {size_bytes}")
        if size_bytes > self._max_bytes:
            return False
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._total_bytes -= previous[1]
            self._entries[key] = (result, size_bytes)
            self._total_bytes += size_bytes
            while len(self._entries) > self._max_entries or (
                self._total_bytes > self._max_bytes
            ):
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._total_bytes -= evicted_size
                self._evictions += 1
                _LRU_EVICTIONS.inc()
            return True

    def clear(self) -> None:
        """Drop every entry (does not count as eviction pressure)."""
        with self._lock:
            self._entries.clear()
            self._total_bytes = 0

    def info(self) -> dict:
        """Bounds and occupancy, for :meth:`repro.api.Analysis.cache_info`."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._total_bytes,
                "max_entries": self._max_entries,
                "max_bytes": self._max_bytes,
                "evictions": self._evictions,
            }


class PersistentResultCache:
    """Cross-session result cache: envelopes spilled to disk as JSON.

    Layout: ``root/<digest[:2]>/<digest>/<sha1(canonical_key)>.json`` — one
    directory per series content digest, one file per canonical request key.
    Every file records the full canonical key alongside the envelope, so a
    (vanishingly unlikely) filename-hash collision or a stale file from an
    older envelope format reads back as a **miss**, never as a wrong result.
    """

    def __init__(self, root: str | Path) -> None:
        self._root = Path(root)
        self._lock = threading.Lock()

    @property
    def root(self) -> Path:
        """The spill directory."""
        return self._root

    def path_for(self, digest: str, key: str) -> Path:
        """Spill path of one ``(series_digest, canonical_request_key)`` slot."""
        key_hash = hashlib.sha1(key.encode("utf-8")).hexdigest()
        return self._root / digest[:2] / digest / f"{key_hash}.json"

    def valmod_sidecar_for(self, digest: str, key: str) -> Path:
        """Sidecar path holding the full ``ValmodResult`` of one slot.

        The envelope only round-trips the cross-algorithm comparable view;
        VALMOD's richer in-process result (VALMAP, checkpoints, pruning
        detail, base profile) spills next to it via
        :func:`repro.io.serialization.save_result` so a hit can rehydrate
        losslessly instead of degrading to an
        :class:`~repro.api.requests.EnvelopeRangeResult`.
        """
        path = self.path_for(digest, key)
        return path.with_name(f"{path.stem}.valmod.json")

    def load(self, digest: str, key: str) -> Optional[Tuple[object, int]]:
        """Return ``(envelope, size_bytes)`` for the slot, or ``None``.

        Missing, unreadable, corrupted and key-mismatched files all count as
        misses; corrupted files are removed best-effort so the slot heals on
        the next store.  The size rides along so callers promoting the
        envelope into an :class:`LRUResultCache` do not have to re-serialise
        a payload that was just parsed from disk: it is the size of the
        result text inside the file, which is what the computed envelope
        was counted at.
        """
        from repro.io.serialization import cache_entry_result_bytes, load_cache_entry

        path = self.path_for(digest, key)
        if not path.is_file():
            return None
        try:
            size = path.stat().st_size
            stored_key, result = load_cache_entry(path)
        except (OSError, SerializationError):
            with self._lock:
                try:
                    path.unlink()
                except OSError:
                    pass
            return None
        if stored_key != key:
            return None
        _PERSISTENT_LOADS.inc()
        size = cache_entry_result_bytes(key, size)
        return self._rehydrate_valmod(digest, key, result), int(size)

    def _rehydrate_valmod(self, digest: str, key: str, result):
        """Swap a VALMOD envelope view for the sidecar's full result.

        Any failure — missing sidecar, corruption, a result that does not
        match the envelope it rides with — degrades to the envelope view
        the caller already has.  A sidecar that is outright corrupt is
        removed best-effort so the slot heals on the next store, but an
        **older-format** sidecar (parseable, carries ``length_results``,
        merely missing optional fields such as ``base_profile``) is kept on
        disk: it still describes the same motifs, and
        :meth:`repro.index.MotifIndex.backfill` can walk it.
        """
        if getattr(result, "kind", None) != "motifs" or getattr(
            result, "algo", None
        ) != "valmod":
            return result
        from dataclasses import replace

        from repro.core.results import ValmodResult
        from repro.io.serialization import load_result

        sidecar = self.valmod_sidecar_for(digest, key)
        if not sidecar.is_file():
            return result
        try:
            payload = load_result(sidecar)
        except SerializationError:
            payload = None
        try:
            full = ValmodResult.from_dict(payload)
        except (SerializationError, KeyError, TypeError, ValueError):
            if isinstance(payload, dict) and "length_results" in payload:
                return result
            with self._lock:
                try:
                    sidecar.unlink()
                except OSError:
                    pass
            return result
        # A sidecar that survived a crash between the two writes could be
        # stale relative to the envelope; the evaluated lengths are a cheap
        # fingerprint of "same run".
        if full.lengths != sorted(result.payload.lengths):
            return result
        return replace(result, payload=full)

    def store(
        self, digest: str, key: str, result, *, result_json: str | None = None
    ) -> Optional[Path]:
        """Spill one envelope; returns the path, or ``None`` when it cannot
        be serialised or written (the cache is best-effort by design).

        ``result_json`` optionally passes the envelope already encoded as
        ``json.dumps(result.as_dict(), sort_keys=True)``, so callers that
        encoded it for size accounting do not pay the encoding twice.
        """
        from repro.core.results import ValmodResult
        from repro.io.serialization import save_cache_entry, save_result

        path = self.path_for(digest, key)
        try:
            with self._lock:
                written = save_cache_entry(result, key, path, result_json=result_json)
                if isinstance(getattr(result, "payload", None), ValmodResult):
                    # The envelope lands first: a crash here leaves a slot
                    # that degrades to the envelope view, never one whose
                    # sidecar disagrees with a newer envelope.
                    try:
                        save_result(
                            result.payload, self.valmod_sidecar_for(digest, key)
                        )
                    except SerializationError:
                        pass
                if written is not None:
                    _PERSISTENT_STORES.inc()
                return written
        except SerializationError:
            return None
