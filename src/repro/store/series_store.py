"""The content-addressed series store.

Every layer above the flat algorithms identifies a series by its content
digest (:func:`repro.api.cache.series_digest` — sha1 of the float64 bytes):
the persistent result cache keys spill files by it, the service keys
sessions by it, the engine's shared-memory segments are reused under it.
What was missing is a place where the digest *resolves back to the values*:
the service re-received the full value array on every request and every
engine call re-packed the same series.  :class:`SeriesStore` is that place —
a content-addressed blob store whose blob directory is its whole catalog:

* one **blob per digest** (``blobs/<digest[:2]>/<digest>.f64``, raw
  little-endian float64) written atomically (unique temp file +
  ``os.replace``), read back memory-mapped so a lookup does not copy the
  series.  A digest is stored exactly when its blob exists, and the file
  size gives its length and bytes;
* the display name in a **name file** beside the blob (``<digest>.name``,
  written the same atomic way, only when a caller gives a name); a blob
  without one reads back as ``"series"``;
* **byte-capped LRU eviction by mtime**: every ``put`` and every verified
  ``get`` stamps the blob's mtime, and after a new blob lands the coldest
  blobs go until ``max_bytes`` holds — never the blob just stored nor the
  hottest, even when either alone exceeds the cap;
* a **chunked ingest path** (:meth:`begin` / :class:`ChunkedIngest`) so a
  large series streams into the store — from a socket, a file, a generator
  — without ever existing as one JSON array, with the digest computed (and
  optionally verified) incrementally;
* **degradation, not errors**: a corrupted, truncated or digest-mismatched
  blob reads back as a *miss* and is removed, so the slot heals on the next
  ``put``.  :meth:`SeriesStore.gc` removes the temp files of crashed or
  abandoned uploads (a live upload holds a lock on its own), name files
  whose blob is gone and blobs that fail verification, then re-applies the
  cap.

The blob format makes verification free of any framing: the sha1 of the
blob's bytes IS the series digest, so :meth:`get` can certify what it
returns by hashing exactly the bytes it mapped.

Sharing a root: one store object is thread-safe, and any number of objects
and processes may share a root.  Every mutation changes one file — an
atomic rename, an unlink or a ``utime`` — so no writer loses another's
entries: every object lists every blob on disk, counts it against its cap
and orders it by the latest ``put`` or ``get`` from any of them.  An older
store's ``manifest.json`` is ignored: its blobs are listed as they are, and
names held only in that file read back as ``"series"``.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError, StoreError
from repro.series.dataseries import DataSeries

_STORE_METRICS = obs.scope("store")
_BLOB_READS = _STORE_METRICS.counter("blob_reads")
_BLOB_MISSES = _STORE_METRICS.counter("blob_misses")
_VERIFY_FAILURES = _STORE_METRICS.counter("verify_failures")
_EVICTIONS = _STORE_METRICS.counter("evictions")
_PUTS = _STORE_METRICS.counter("puts")

__all__ = [
    "SeriesStore",
    "ChunkedIngest",
    "open_data_root",
    "is_series_digest",
    "SERIES_SUBDIR",
    "RESULTS_SUBDIR",
    "DEFAULT_STORE_MAX_BYTES",
]

#: Default byte cap of a store: 256 MiB holds a catalog of ~8 four-million
#: point series — far beyond the test workloads while keeping an unattended
#: service node bounded.
DEFAULT_STORE_MAX_BYTES = 256 * 1024 * 1024

#: Sub-directories a shared data root splits into: the series catalog and
#: the persistent result cache live side by side, keyed by the same series
#: content digest (see :func:`open_data_root`).
SERIES_SUBDIR = "series"
RESULTS_SUBDIR = "results"

_BLOB_SUFFIX = ".f64"
_NAME_SUFFIX = ".name"
_BLOB_NAME_LENGTH = 40 + len(_BLOB_SUFFIX)
_TEMP_PREFIX = ".ingest."
_TEMP_SUFFIX = ".tmp"
_ITEM_SIZE = 8  # float64


def is_series_digest(text: str) -> bool:
    """Whether ``text`` has the shape of a series content digest (sha1 hex).

    The one shape check shared by every digest boundary — the store, the
    service's ``/series/<digest>`` routes, the ingest verification — so a
    future digest-format change has a single definition to update.
    """
    return (
        isinstance(text, str)
        and len(text) == 40
        and all(ch in "0123456789abcdef" for ch in text)
    )


_is_digest = is_series_digest


def _unlink(path) -> bool:
    """Remove one file; returns whether it was there."""
    try:
        os.unlink(path)
    except OSError:
        return False
    return True


def _locked_temp(root) -> Tuple[int, str]:
    """A new ingest temp file in ``root``, open and exclusively ``flock``-ed.

    The writer keeps the lock until the file has its final name, which is
    how :meth:`SeriesStore.gc` tells a live upload from a crash's leftover
    (a lock dies with its process).  A file swept between its creation and
    the lock is replaced.
    """
    while True:
        fd, path = tempfile.mkstemp(dir=root, prefix=_TEMP_PREFIX, suffix=_TEMP_SUFFIX)
        fcntl.flock(fd, fcntl.LOCK_EX)
        if os.fstat(fd).st_nlink:
            return fd, path
        os.close(fd)


def _unlink_unlocked(path) -> bool:
    """Remove one temp file unless a writer holds its lock; returns whether
    it went."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return _unlink(path)
    except OSError:  # held: an upload still streaming
        return False
    finally:
        os.close(fd)


def _stamp(path) -> None:
    """Move one blob to the hot end of the LRU order.

    The clock is set explicitly: a write's own mtime can be as coarse as a
    kernel tick, and back-to-back touches need distinct stamps.
    """
    now = time.time_ns()
    os.utime(path, ns=(now, now))


class ChunkedIngest:
    """One in-flight streaming upload into a :class:`SeriesStore`.

    Created by :meth:`SeriesStore.begin`; feed it with
    :meth:`append_chunk` (float values) or :meth:`append_bytes` (raw
    float64 bytes, e.g. straight off a socket — chunk boundaries need not
    align to 8 bytes), then :meth:`finalize`.  The digest is computed
    incrementally while the chunks stream into a unique temp file inside
    the store root, so the full series never has to be materialised; the
    temp file is renamed into its content address only when the digest is
    known (and verified, when the caller predicted one).  :meth:`abort`
    removes the temp file.  The upload holds an exclusive ``flock`` on it
    until then, so :meth:`SeriesStore.gc` from any store object or process
    leaves it alone.
    """

    def __init__(
        self, store: "SeriesStore", name: str | None, expected_digest: str | None
    ) -> None:
        if expected_digest is not None and not _is_digest(expected_digest):
            raise StoreError(f"not a valid series digest: {expected_digest!r}")
        self._store = store
        self._name = name
        self._expected = expected_digest
        self._sha1 = hashlib.sha1()
        self._bytes = 0
        fd, temp = _locked_temp(store.root)
        self._handle = os.fdopen(fd, "wb")
        self._temp_path = Path(temp)
        self._done = False

    @property
    def bytes_received(self) -> int:
        """Bytes appended so far."""
        return self._bytes

    def append_chunk(self, values) -> None:
        """Append a chunk of float values (anything array-like)."""
        array = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        if array.ndim != 1:
            raise StoreError(
                f"ingest chunks must be one-dimensional, got shape {array.shape}"
            )
        self.append_bytes(array.tobytes())

    def append_bytes(self, chunk: bytes) -> None:
        """Append raw float64 bytes (any chunking, 8-byte alignment not required)."""
        if self._done:
            raise StoreError("this ingest is already finalised or aborted")
        self._handle.write(chunk)
        self._sha1.update(chunk)
        self._bytes += len(chunk)

    def finalize(self, expected_digest: str | None = None) -> str:
        """Close the upload; returns the digest of the ingested series.

        ``expected_digest`` (here or at :meth:`SeriesStore.begin`) makes the
        ingest *verifying*: a mismatch raises :class:`StoreError` and leaves
        no trace in the store — the caller shipped different bytes than it
        announced, and content addressing must never file them under the
        announced identity.
        """
        if self._done:
            raise StoreError("this ingest is already finalised or aborted")
        self._done = True
        try:
            self._handle.flush()
            if self._bytes == 0 or self._bytes % _ITEM_SIZE:
                raise StoreError(
                    f"ingested {self._bytes} bytes, which is not a non-empty "
                    f"multiple of {_ITEM_SIZE} (float64 values)"
                )
            digest = self._sha1.hexdigest()
            for announced in (self._expected, expected_digest):
                if announced is not None and announced != digest:
                    raise StoreError(
                        f"digest mismatch: the ingested bytes hash to {digest}, "
                        f"not the announced {announced}"
                    )
            # Renamed while still open, so still locked against gc.
            self._store._adopt_blob(  # noqa: SLF001 - ingest is the store's own half
                self._temp_path, digest, self._name
            )
        except BaseException:
            self.abort()
            raise
        self._handle.close()
        return digest

    def abort(self) -> None:
        """Drop the upload and its temp file (idempotent)."""
        self._done = True
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - double close on exotic platforms
            pass
        _unlink(self._temp_path)

    def __enter__(self) -> "ChunkedIngest":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        if not getattr(self, "_done", True):
            self.abort()


class SeriesStore:
    """A content-addressed catalog of data series, keyed by value digest.

    Parameters
    ----------
    root:
        Store directory (created on first write).
    max_bytes:
        Byte cap of the retained blobs (LRU eviction beyond it);
        ``None`` disables the cap.
    """

    def __init__(
        self, root, *, max_bytes: int | None = DEFAULT_STORE_MAX_BYTES
    ) -> None:
        if max_bytes is not None and int(max_bytes) < 1:
            raise InvalidParameterError(f"max_bytes must be >= 1, got {max_bytes}")
        self._root = Path(root)
        self._max_bytes = None if max_bytes is None else int(max_bytes)
        self._lock = threading.RLock()
        self._evictions = 0
        self._removal_callbacks: List = []

    def subscribe_removal(self, callback) -> None:
        """Register ``callback(digest)``, fired whenever this store object
        removes a blob (eviction, :meth:`rm`, corruption healing).

        Subscribers keep derived state — e.g. a ``repro.index.MotifIndex``
        pruning catalog rows for evicted series — consistent with the store.
        Callbacks run with the store lock held and must not call back into
        the store; a raising callback is swallowed (removal is best-effort
        coordination, never a store failure).
        """
        self._removal_callbacks.append(callback)

    def _notify_removal(self, digest: str) -> None:
        for callback in list(self._removal_callbacks):
            try:
                callback(digest)
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # layout
    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Path:
        """The store directory (created on demand)."""
        self._root.mkdir(parents=True, exist_ok=True)
        return self._root

    @property
    def max_bytes(self) -> int | None:
        """The byte cap (``None`` when unbounded)."""
        return self._max_bytes

    def blob_path(self, digest: str) -> Path:
        """The content address of one digest's blob."""
        return self._root / "blobs" / digest[:2] / f"{digest}{_BLOB_SUFFIX}"

    def _name_path(self, digest: str) -> Path:
        return self.blob_path(digest).with_suffix(_NAME_SUFFIX)

    # ------------------------------------------------------------------ #
    # the blob directory: every mutation renames, unlinks or stamps a file
    # ------------------------------------------------------------------ #
    def _scan(self) -> List[Tuple[int, str, int]]:
        """``(mtime_ns, digest, bytes)`` of every blob on disk, unordered.

        Files are told apart by name length and suffix only: a per-character
        digest check would double the cost of the pass.
        """
        try:
            with os.scandir(self._root / "blobs") as shards:
                shard_paths = [shard.path for shard in shards if shard.is_dir()]
        except FileNotFoundError:
            return []
        rows = []
        for shard_path in shard_paths:
            with os.scandir(shard_path) as files:
                for entry in files:
                    name = entry.name
                    if len(name) != _BLOB_NAME_LENGTH or not name.endswith(_BLOB_SUFFIX):
                        continue
                    try:
                        info = entry.stat()
                    except FileNotFoundError:  # removed since the listing
                        continue
                    rows.append((info.st_mtime_ns, name[:40], info.st_size))
        return rows

    def _blob_size(self, digest: str) -> Optional[int]:
        """Byte size of ``digest``'s blob, or ``None`` when none is stored."""
        if not _is_digest(digest):
            return None
        try:
            return os.stat(self.blob_path(digest)).st_size
        except OSError:
            return None

    def _row(self, digest: str, size: int) -> dict:
        try:
            name = self._name_path(digest).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            name = "series"
        return {"digest": digest, "length": size // _ITEM_SIZE, "bytes": size, "name": name}

    def _write_name(self, digest: str, name: str) -> None:
        """Atomically (re)write the display name beside the blob.  The temp
        file carries the ingest prefix and its lock, so :meth:`gc` sweeps up
        a crash's but not one being written."""
        fd, temp = _locked_temp(self._root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(str(name))
                handle.flush()
                os.replace(temp, self._name_path(digest))
        except BaseException:
            _unlink(temp)
            raise

    def _drop(self, digest: str) -> bool:
        """Remove one blob and its name file, telling the subscribers when
        the blob was there (lock held); returns whether it was."""
        removed = _unlink(self.blob_path(digest))
        _unlink(self._name_path(digest))
        if removed:
            self._notify_removal(digest)
        return removed

    def _evict_over_budget(self, keep: str | None = None) -> None:
        """Remove the coldest blobs until the byte cap holds (lock held);
        ``keep`` (the blob just stored) and the hottest blob always stay."""
        if self._max_bytes is None:
            return
        rows = sorted(self._scan())
        total = sum(size for _, _, size in rows)
        for _, digest, size in rows[:-1]:
            if total <= self._max_bytes:
                break
            if digest == keep:
                continue
            total -= size
            if self._drop(digest):
                self._evictions += 1
                _EVICTIONS.inc()

    def _adopt_blob(self, temp_path: Path, digest: str, name: str | None) -> None:
        """Move a fully-written temp blob into its content address, record
        its name (when one is given) and stamp it hottest."""
        target = self.blob_path(digest)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(temp_path, target)
            if name is not None:
                self._write_name(digest, name)
            _stamp(target)
        except OSError as error:
            raise StoreError(f"cannot store blob {digest}: {error}") from error
        with self._lock:
            self._evict_over_budget(keep=digest)

    def _verified(self, digest: str) -> Optional[np.ndarray]:
        """``digest``'s blob memory-mapped and sha1-verified, or ``None``.

        A blob that is present but unmappable (truncated to a ragged size,
        emptied) or that hashes to another digest is corrupted: it is
        removed, so the slot heals on the next ``put``.
        """
        path = self.blob_path(digest)
        try:
            mapped = np.memmap(path, dtype="<f8", mode="r")
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            mapped = None
        if mapped is not None:
            if hashlib.sha1(memoryview(mapped).cast("B")).hexdigest() == digest:
                array = mapped.view(np.ndarray)
                array.flags.writeable = False
                return array
            del mapped  # release the mapping before unlinking the file
        _VERIFY_FAILURES.inc()
        with self._lock:
            self._drop(digest)
        return None

    # ------------------------------------------------------------------ #
    # the public surface
    # ------------------------------------------------------------------ #
    def put(self, series, *, name: str | None = None) -> str:
        """Store one series; returns its content digest.

        Accepts a :class:`~repro.series.DataSeries` (whose name rides
        along), a numpy array or a plain list.  Storing an already-present
        digest refreshes its LRU position without rewriting the blob, and
        keeps its stored name unless a new one is given.
        """
        if isinstance(series, DataSeries):
            values = series.values
            if name is None:
                name = series.name
        else:
            values = np.ascontiguousarray(np.asarray(series, dtype=np.float64))
        if values.ndim != 1 or values.size == 0:
            raise StoreError(
                f"only non-empty one-dimensional series can be stored, "
                f"got shape {values.shape}"
            )
        data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
        digest = hashlib.sha1(data).hexdigest()
        _PUTS.inc()
        try:
            _stamp(self.blob_path(digest))
            if name is not None:
                self._write_name(digest, name)
        except OSError:
            # Absent or not updatable in place: (re)write it whole.
            ingest = self.begin(name=name)
            ingest.append_bytes(data)
            return ingest.finalize(expected_digest=digest)
        return digest

    def begin(
        self, *, name: str | None = None, expected_digest: str | None = None
    ) -> ChunkedIngest:
        """Open a streaming upload (see :class:`ChunkedIngest`); without a
        ``name`` it records none, so a stored digest keeps its name."""
        self.root  # ensure the directory exists before the temp file lands in it
        return ChunkedIngest(self, name, expected_digest)

    def get(self, digest: str) -> Optional[np.ndarray]:
        """The stored values of ``digest`` — or ``None`` on any miss.

        The returned array is a **read-only memory map** of the blob: no
        copy is made, and the bytes were verified against the digest on
        this very call (a corrupted or truncated blob is removed and
        reported as a miss).  A hit stamps the blob hottest.  No store lock
        is taken: verifying a large blob must not stall concurrent lookups,
        and an unlinked file keeps its mapping valid until released.
        """
        array = self._verified(digest) if _is_digest(digest) else None
        if array is None:
            _BLOB_MISSES.inc()
            return None
        _BLOB_READS.inc()
        try:
            _stamp(self.blob_path(digest))
        except OSError:
            pass  # removed since it was mapped: the verified values still stand
        return array

    def load(self, digest: str, *, name: str | None = None) -> Optional[DataSeries]:
        """Like :meth:`get` but wrapped as a :class:`~repro.series.DataSeries`
        (carrying the stored display name unless overridden)."""
        values = self.get(digest)
        if values is None:
            return None
        if name is None:
            name = self._row(digest, values.size * _ITEM_SIZE)["name"]
        return DataSeries(values, name=name)

    def entry(self, digest: str) -> Optional[dict]:
        """Catalog metadata of one digest (length, bytes, name) — or
        ``None``.  One ``stat`` and the name file: no blob read, no
        verification (the values certify on :meth:`get`), no LRU touch."""
        size = self._blob_size(digest)
        return None if size is None else self._row(digest, size)

    def handle(self, digest: str):
        """A picklable :class:`~repro.engine.shm.BlobHandle` for one stored
        blob — or ``None`` when the digest is unknown.

        The zero-copy worker transport: instead of pickling the values into
        a task payload (or repacking them into a shared-memory segment), a
        dispatcher ships this ~100-byte handle and the worker process maps
        ``blobs/<d[:2]>/<digest>.f64`` directly with
        :func:`repro.engine.shm.attach_blob`, which re-verifies the bytes
        against the digest on first attach.  Constant-time: one ``stat``,
        no blob read.
        """
        from repro.engine.shm import BlobHandle

        size = self._blob_size(digest)
        if size is None:
            return None
        return BlobHandle(
            path=str(self.blob_path(digest)), digest=digest, length=size // _ITEM_SIZE
        )

    def __contains__(self, digest: str) -> bool:
        """Whether a blob is stored (no verification — that happens on read)."""
        return self._blob_size(digest) is not None

    def __len__(self) -> int:
        return len(self._scan())

    @property
    def total_bytes(self) -> int:
        """Bytes of every blob on disk."""
        return sum(size for _, _, size in self._scan())

    def ls(self) -> List[dict]:
        """Catalog rows (digest, length, bytes, name), hottest first."""
        return [
            self._row(digest, size)
            for _, digest, size in sorted(self._scan(), reverse=True)
        ]

    def rm(self, digest: str) -> bool:
        """Remove one series; returns whether it was present."""
        if not _is_digest(digest):
            return False
        with self._lock:
            return self._drop(digest)

    def gc(self) -> dict:
        """Sweep up what a crash or a corruption left; returns what went.

        Removes the ingest temp files no writer holds (``temp_files``: a
        crashed or abandoned upload's; one still streaming, from any store
        object or process, keeps its lock and its file), name files whose
        blob is gone (``orphan_names``) and blobs that fail verification
        against their filename digest (``corrupted``), then re-applies the
        byte cap.
        """
        corrupted = temp_files = orphan_names = 0
        with self._lock:
            for temp in self._root.glob(f"{_TEMP_PREFIX}*{_TEMP_SUFFIX}"):
                temp_files += _unlink_unlocked(temp)
            for name_file in self._root.glob(f"blobs/*/*{_NAME_SUFFIX}"):
                if not name_file.with_suffix(_BLOB_SUFFIX).exists():
                    orphan_names += _unlink(name_file)
            for _, digest, _ in self._scan():
                corrupted += self._verified(digest) is None
            self._evict_over_budget()
        rows = self._scan()
        return {
            "corrupted": corrupted,
            "temp_files": temp_files,
            "orphan_names": orphan_names,
            "entries": len(rows),
            "total_bytes": sum(size for _, _, size in rows),
        }

    def stats(self) -> dict:
        """Occupancy and bounds (for service /stats and the CLI)."""
        rows = self._scan()
        return {
            "root": str(self._root),
            "entries": len(rows),
            "total_bytes": sum(size for _, _, size in rows),
            "max_bytes": self._max_bytes,
            "evictions": self._evictions,
        }


def open_data_root(
    root,
    *,
    store_max_bytes: int | None = DEFAULT_STORE_MAX_BYTES,
):
    """Open the shared digest namespace under one data root.

    Returns ``(series_store, cache_config)``: the series catalog lives in
    ``<root>/series`` and the persistent result cache in ``<root>/results``
    — two sides of the same identity, since both are keyed by the series
    content digest.  Handing ``cache_config`` to an
    :class:`~repro.api.Analysis` session (or a
    :class:`~repro.service.ServiceConfig`) and ``series_store`` to the
    transport layer gives every component one consistent view of "series
    ``<digest>`` and everything already known about it".
    """
    from repro.api.cache import CacheConfig

    root = Path(root)
    store = SeriesStore(root / SERIES_SUBDIR, max_bytes=store_max_bytes)
    cache = CacheConfig(persist_dir=root / RESULTS_SUBDIR)
    return store, cache
