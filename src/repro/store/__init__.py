"""Content-addressed series storage (digest-keyed blobs, no second record).

* :class:`SeriesStore` — the catalog, read straight off its blob
  directory: memory-mapped float64 blobs at
  ``blobs/<digest[:2]>/<digest>.f64`` with an optional ``<digest>.name``
  display-name file beside each, byte-capped LRU eviction ordered by blob
  mtime (every ``put`` and verified ``get`` stamps it), ``gc`` removing
  crash debris and blobs that fail verification, and a chunked ingest path
  (:meth:`SeriesStore.begin`) for series that must never exist as one
  JSON array.  Processes sharing a root see each other's blobs at once,
  and each object's byte cap counts them all; an older store's
  ``manifest.json`` is ignored;
* :func:`open_data_root` — the shared digest namespace: one root holding
  the series catalog (``<root>/series``) and the persistent result cache
  (``<root>/results``) side by side.

The store is the substrate of the digest-only transport: the service
resolves ``series_digest`` submissions through it, the CLI manages it via
``repro store put/get/ls/rm/gc``, and ``repro.analyze(digest, store=...)``
opens a session without ever holding the values in the caller.
"""

from repro.store.series_store import (
    DEFAULT_STORE_MAX_BYTES,
    RESULTS_SUBDIR,
    SERIES_SUBDIR,
    ChunkedIngest,
    SeriesStore,
    open_data_root,
)

__all__ = [
    "SeriesStore",
    "ChunkedIngest",
    "open_data_root",
    "SERIES_SUBDIR",
    "RESULTS_SUBDIR",
    "DEFAULT_STORE_MAX_BYTES",
]
