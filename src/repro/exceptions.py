"""Exception hierarchy for the VALMOD reproduction library.

All exceptions raised on purpose by :mod:`repro` derive from
:class:`ReproError`, so callers can catch library errors with a single
``except`` clause without masking programming errors (``TypeError`` and
friends are still allowed to propagate).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidSeriesError",
    "InvalidParameterError",
    "SubsequenceLengthError",
    "LengthRangeError",
    "EmptyResultError",
    "SerializationError",
    "ServiceError",
    "StoreError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class InvalidSeriesError(ReproError, ValueError):
    """The input data series is unusable (wrong type, NaNs, too short...)."""


class InvalidParameterError(ReproError, ValueError):
    """A parameter value is outside its valid domain."""


class SubsequenceLengthError(InvalidParameterError):
    """A subsequence length is invalid for the given series."""

    def __init__(self, length: int, series_length: int, reason: str | None = None) -> None:
        message = f"subsequence length {length} is invalid for a series of length {series_length}"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.length = length
        self.series_length = series_length
        self.reason = reason

    def __reduce__(self):
        # Default exception pickling replays ``args`` (the formatted
        # message) into ``__init__``, which expects the raw fields — so
        # spell out the constructor arguments.  The engine ships per-job
        # errors across process boundaries and needs this to round-trip.
        return (type(self), (self.length, self.series_length, self.reason))


class LengthRangeError(InvalidParameterError):
    """The motif length range [min_length, max_length] is invalid."""

    def __init__(self, min_length: int, max_length: int, reason: str | None = None) -> None:
        message = f"invalid length range [{min_length}, {max_length}]"
        if reason:
            message = f"{message}: {reason}"
        super().__init__(message)
        self.min_length = min_length
        self.max_length = max_length
        self.reason = reason

    def __reduce__(self):
        # See SubsequenceLengthError.__reduce__.
        return (type(self), (self.min_length, self.max_length, self.reason))


class EmptyResultError(ReproError, RuntimeError):
    """An operation that must produce a result produced none.

    Raised, for instance, when the exclusion constraints prune every candidate
    motif pair of a given length.
    """


class SerializationError(ReproError, RuntimeError):
    """A profile or VALMAP artefact could not be saved or loaded."""


class StoreError(ReproError, RuntimeError):
    """A series-store operation failed in a way a caller must see.

    Degradable conditions (a corrupted, truncated or vanished blob) are
    handled inside :class:`repro.store.SeriesStore` as misses; this error
    is for contract violations — a digest mismatch on ingest, appending to
    a finalised upload, an unusable store root.
    """


class ServiceError(ReproError, RuntimeError):
    """A request to (or the operation of) the analysis service failed.

    Carries the HTTP status code when the failure is a server response.
    """

    def __init__(self, message: str, *, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status

    def __reduce__(self):
        # ``status`` is keyword-only; default exception pickling would drop
        # it (see SubsequenceLengthError.__reduce__ for the pattern).
        return (_rebuild_service_error, (str(self), self.status))


def _rebuild_service_error(message: str, status: int | None) -> "ServiceError":
    return ServiceError(message, status=status)
