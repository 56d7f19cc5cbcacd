"""Shared-memory series transport for the engine's process-pool tasks.

A block task needs four O(n) float64 arrays: the (centered) series, the
window means and standard deviations, and the first-row sliding dot
products.  Shipping them inside every task payload pickles ``4·n`` doubles
per block — for a 32-block plan over a ten-million-point series that is
gigabytes of redundant copying.  :class:`SharedSeriesBuffer` instead packs
the arrays once into a single :mod:`multiprocessing.shared_memory` segment
and the payload carries only the segment *name* plus an offset table
(:class:`SharedArraysHandle`, a few hundred bytes).  Workers attach by
name and copy the arrays out once per task.

Availability and fallback
-------------------------
Shared memory is not guaranteed: ``/dev/shm`` may be absent or full,
seccomp sandboxes may refuse the required syscalls, and exotic platforms
lack the module entirely.  :meth:`SharedSeriesBuffer.create` therefore
returns ``None`` instead of raising when the segment cannot be created, and
the engine falls back to pickling the arrays into each payload — slower,
never wrong.  Workers attach lazily inside the task, so a segment that
exists in the parent but cannot be opened in a child degrades the same way
(the handle resolution raises and the caller's payload fallback applies
before dispatch, not after).

Lifetime: a segment belongs to the one engine call that packs it.  The
creating process ``close()``s and ``unlink()``s it when the pool map
returns (the context manager does both); nothing keeps a segment alive
across calls, so an abandoned session or a stopped service has none to
release.  Workers never hold a mapping past the attach call itself:
:func:`attach_arrays` copies the arrays out and closes its attachment
immediately, so the data it returns is decoupled from the segment's fate
(on Linux an unlinked segment persists until the last mapping closes, so a
mid-copy unlink is safe too).
Resource-tracker bookkeeping stays with the creator: pool workers talk to
the same tracker process, where the attach-side registration is idempotent
and ``unlink()`` performs the single matching unregister (see the note in
:func:`attach_arrays`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError, StoreError

try:  # pragma: no cover - the import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SharedArraysHandle",
    "BlobHandle",
    "SharedSeriesBuffer",
    "attach_arrays",
    "attach_blob",
    "shared_memory_available",
    "BLOB_CACHE_MAX_BYTES",
]


@dataclass(frozen=True)
class SharedArraysHandle:
    """Picklable address of one packed segment: name plus offset table.

    ``fields`` maps each array key to ``(element_offset, element_count)``
    within the float64-typed segment.
    """

    shm_name: str
    fields: Tuple[Tuple[str, int, int], ...]

    @property
    def total_elements(self) -> int:
        """Summed element count of every packed array."""
        return sum(count for _, _, count in self.fields)


#: Byte cap of the per-process blob attach cache.  The cached arrays are
#: file-backed memory maps, so the "bytes" here are address space and page
#: cache, not anonymous memory — the cap exists so a worker serving
#: thousands of series over its lifetime cannot accumulate an unbounded
#: set of open mappings.
BLOB_CACHE_MAX_BYTES = 256 * 1024 * 1024

#: Per-process cache of attached store blobs, keyed by content digest.
#: Content-addressing makes the cache trivially correct: a digest's bytes
#: never change, so an entry can only ever be stale by *absence*.
_BLOB_CACHE: "Dict[str, np.ndarray]" = {}

_SHM_METRICS = obs.scope("engine.shm")
_BLOB_ATTACH_HITS = _SHM_METRICS.counter("blob_attach_hits")
_BLOB_ATTACH_MISSES = _SHM_METRICS.counter("blob_attach_misses")
_BLOB_VERIFY_FAILURES = _SHM_METRICS.counter("blob_verify_failures")


@dataclass(frozen=True)
class BlobHandle:
    """Picklable address of one store blob: the zero-copy series transport.

    A :class:`~repro.store.SeriesStore` blob is already the perfect worker
    payload — a raw little-endian float64 file whose sha1 *is* the series
    digest, so any process that can see the filesystem can map it read-only
    and verify it independently.  The handle carries the blob ``path``, the
    content ``digest`` and the element ``length``; workers resolve it with
    :func:`attach_blob`.  Unlike :class:`SharedArraysHandle` nothing is
    packed, copied or unlinked: the store owns the file, the handle merely
    names it.

    Mint handles with :meth:`repro.store.SeriesStore.handle`.
    """

    path: str
    digest: str
    length: int

    @property
    def nbytes(self) -> int:
        """Size of the blob in bytes (8 bytes per float64 element)."""
        return int(self.length) * 8


def attach_blob(handle: BlobHandle, *, verify: bool = True) -> np.ndarray:
    """Memory-map the blob of ``handle`` read-only, cached per process.

    The returned array is a **read-only view over the file mapping** — no
    copy is made in the attaching process, which is the whole point of the
    transport: N workers over one series share the kernel's page cache
    instead of holding N pickled copies.  ``verify=True`` (default) hashes
    the mapped bytes once per process and raises
    :class:`~repro.exceptions.StoreError` on a digest mismatch, keeping the
    store's self-verifying contract across the process boundary.

    A vanished or truncated blob raises :class:`StoreError` too: handles
    are built from a live manifest entry immediately before dispatch, so a
    failure here means the blob really disappeared underneath the job (an
    LRU eviction racing the dispatch) and surfacing it beats computing on
    garbage.  On Linux an *unlinked* blob with a live mapping stays valid,
    so cached attachments never dangle.
    """
    cached = _BLOB_CACHE.get(handle.digest)
    if cached is not None and cached.size == int(handle.length):
        _BLOB_ATTACH_HITS.inc()
        return cached
    _BLOB_ATTACH_MISSES.inc()
    try:
        mapped = np.memmap(handle.path, dtype="<f8", mode="r")
    except (OSError, ValueError) as error:
        raise StoreError(
            f"cannot attach store blob {handle.path!r} "
            f"(digest {handle.digest}): {error}"
        ) from error
    if mapped.size != int(handle.length):
        raise StoreError(
            f"store blob {handle.path!r} holds {mapped.size} elements, "
            f"expected {handle.length} — truncated or corrupted"
        )
    if verify:
        observed = hashlib.sha1(memoryview(mapped).cast("B")).hexdigest()
        if observed != handle.digest:
            _BLOB_VERIFY_FAILURES.inc()
            raise StoreError(
                f"store blob {handle.path!r} hashes to {observed}, "
                f"expected {handle.digest} — refusing corrupted data"
            )
    array = mapped.view(np.ndarray)
    array.flags.writeable = False
    total = sum(entry.size * 8 for entry in _BLOB_CACHE.values()) + array.nbytes
    while _BLOB_CACHE and total > BLOB_CACHE_MAX_BYTES:
        evicted = next(iter(_BLOB_CACHE))
        total -= _BLOB_CACHE.pop(evicted).size * 8
    _BLOB_CACHE[handle.digest] = array
    return array


def shared_memory_available() -> bool:
    """Whether this interpreter can create shared-memory segments at all.

    ``True`` means the module imported; creation can still fail at runtime
    (no ``/dev/shm`` space, sandbox policy), which
    :meth:`SharedSeriesBuffer.create` reports by returning ``None``.
    """
    return _shared_memory is not None


class SharedSeriesBuffer:
    """One shared-memory segment packing several 1-D float64 arrays.

    Create with :meth:`create` (returns ``None`` when shared memory is
    unavailable), hand :attr:`handle` to the task payloads, and
    ``close()``/``unlink()`` — or use it as a context manager — once the
    executor's ``map`` has returned.
    """

    def __init__(self, shm, handle: SharedArraysHandle) -> None:
        self._shm = shm
        self._handle = handle
        self._released = False

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedSeriesBuffer | None":
        """Pack ``arrays`` into a fresh segment; ``None`` when impossible.

        Every value must be a 1-D float64 array (the only shape the engine
        ships).  A wrong shape is a programming error and raises; an
        environment that cannot host shared memory is an expected condition
        and yields ``None`` so the caller falls back to pickled payloads.
        """
        if _shared_memory is None:
            return None
        if not arrays:
            raise InvalidParameterError("SharedSeriesBuffer needs at least one array")
        fields = []
        offset = 0
        flat = []
        for key, value in arrays.items():
            array = np.ascontiguousarray(value, dtype=np.float64)
            if array.ndim != 1:
                raise InvalidParameterError(
                    f"shared array {key!r} must be 1-D, got shape {array.shape}"
                )
            fields.append((str(key), offset, array.size))
            offset += array.size
            flat.append(array)
        try:
            shm = _shared_memory.SharedMemory(create=True, size=max(1, offset * 8))
        except (OSError, PermissionError, ValueError):
            # No /dev/shm, quota exhausted, sandbox policy: fall back.
            return None
        packed = np.ndarray((offset,), dtype=np.float64, buffer=shm.buf)
        position = 0
        for array in flat:
            packed[position : position + array.size] = array
            position += array.size
        return cls(shm, SharedArraysHandle(shm_name=shm.name, fields=tuple(fields)))

    @property
    def handle(self) -> SharedArraysHandle:
        """The picklable handle task payloads carry instead of the arrays."""
        return self._handle

    @property
    def name(self) -> str:
        """The segment name (workers attach by it)."""
        return self._handle.shm_name

    def close(self) -> None:
        """Unmap the creating process's view (idempotent)."""
        if not self._released:
            self._shm.close()
            self._released = True

    def unlink(self) -> None:
        """Remove the segment; safe to call after :meth:`close`."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass

    def __enter__(self) -> "SharedSeriesBuffer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()


def attach_arrays(handle: SharedArraysHandle) -> Dict[str, np.ndarray]:
    """Read the packed arrays of ``handle`` into private read-only copies.

    Called inside worker processes (and in the degraded in-process case —
    attaching to a segment the same process created works identically).
    The segment is attached, copied out, and closed again before this
    returns, so the returned arrays have no lifetime coupling to the
    segment: the creator may unlink it and nothing a caller holds ever
    dangles (``SharedMemory.__del__`` closes mappings on collection, so
    zero-copy views would silently alias recycled memory).  One copy per
    task replaces one pickle of the same arrays per task; nothing is
    cached, because a segment never outlives the engine call that packed
    it.

    Raises whatever the platform raises when the segment cannot be opened;
    callers decide the fallback *before* dispatch, so an attach failure here
    means the segment really vanished and surfacing the error is correct.
    """
    if _shared_memory is None:
        raise InvalidParameterError(
            "multiprocessing.shared_memory is unavailable in this interpreter"
        )
    # NOTE on the resource tracker: CPython (< 3.13) registers every
    # SharedMemory — attachments included — with the tracker.  Pool workers
    # share the parent's tracker process (the fd travels with fork/spawn
    # prep data), where registration is idempotent and the creator's
    # unlink() performs the single matching unregister, so no explicit
    # deregistration is needed here (an extra unregister would make the
    # creator's unlink KeyError inside the tracker).
    shm = _shared_memory.SharedMemory(name=handle.shm_name, create=False)
    try:
        packed = np.array(
            np.ndarray((handle.total_elements,), dtype=np.float64, buffer=shm.buf)
        )
    finally:
        shm.close()
    arrays = {}
    for key, offset, count in handle.fields:
        array = packed[offset : offset + count]
        array.flags.writeable = False
        arrays[key] = array
    return arrays
