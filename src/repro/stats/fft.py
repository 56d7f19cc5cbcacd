"""Sliding dot products.

The MASS algorithm (Mueen's Algorithm for Similarity Search) reduces the
computation of a full distance profile to one convolution, implemented here
with real FFTs from :mod:`numpy.fft`, zero-padded to the next 5-smooth size.
A naive ``O(n·m)`` implementation is kept both as a correctness oracle for
the tests and as the faster option for very short queries.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.exceptions import InvalidParameterError

__all__ = ["sliding_dot_product", "sliding_dot_product_naive"]

#: Below this query length the naive method tends to beat the FFT in practice.
_NAIVE_CUTOFF = 16


@lru_cache(maxsize=1024)
def _next_fast_len(target: int) -> int:
    """Smallest ``2^a·3^b·5^c`` that is ``>= target``.

    Real FFTs of 5-smooth sizes run fastest; this is the size
    ``scipy.fft.next_fast_len(target, real=True)`` picks.  For each product
    of powers of 3 and 5 below the best size so far, the smallest power of
    two that lifts it to ``target`` is a candidate.
    """
    best = 1 << (target - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            quotient = -(-target // odd)
            best = min(best, odd << (quotient - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _validate(query: np.ndarray, series: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(query, dtype=np.float64)
    t = np.asarray(series, dtype=np.float64)
    if q.ndim != 1 or t.ndim != 1:
        raise InvalidParameterError(
            f"query and series must be 1-D, got shapes {q.shape} and {t.shape}"
        )
    if q.size == 0 or t.size == 0:
        raise InvalidParameterError("query and series must not be empty")
    if q.size > t.size:
        raise InvalidParameterError(
            f"query (length {q.size}) is longer than the series (length {t.size})"
        )
    return q, t


def sliding_dot_product_naive(query: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Dot product of ``query`` with every window of ``series`` (direct loop).

    Returns an array of length ``len(series) - len(query) + 1`` whose entry
    ``i`` is ``query . series[i:i+m]``.
    """
    q, t = _validate(query, series)
    m = q.size
    count = t.size - m + 1
    windows = np.lib.stride_tricks.sliding_window_view(t, m)
    return windows[:count] @ q


def sliding_dot_product(
    query: np.ndarray, series: np.ndarray, *, method: str = "auto"
) -> np.ndarray:
    """Dot product of ``query`` with every window of ``series`` (FFT based).

    This is the MASS building block: ``O((n + m) log(n + m))`` regardless of
    the query length.  Falls back to the naive method for very short queries
    where the FFT overhead dominates.

    ``method`` selects the implementation: ``"auto"`` (default) uses the
    FFT above :data:`_NAIVE_CUTOFF`, ``"fft"`` forces the FFT, and
    ``"naive"`` forces the direct ``O(n·m)`` products.  The naive products
    round only within each window, so on high-variance series they are the
    more accurate of the two — the engine's re-seeding tests use the forced
    modes to measure the FFT's drift contribution in isolation.
    """
    if method not in ("auto", "fft", "naive"):
        raise InvalidParameterError(
            f"method must be 'auto', 'fft' or 'naive', got {method!r}"
        )
    q, t = _validate(query, series)
    m = q.size
    n = t.size
    if method == "naive" or (method == "auto" and m <= _NAIVE_CUTOFF):
        return sliding_dot_product_naive(q, t)
    size = _next_fast_len(n + m - 1)
    reversed_query = q[::-1]
    product = np.fft.irfft(np.fft.rfft(t, size) * np.fft.rfft(reversed_query, size), size)
    # Entry m-1+i of the full convolution equals query . series[i:i+m].
    return product[m - 1 : n]
