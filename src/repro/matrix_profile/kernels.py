"""Pluggable sweep kernels for the STOMP recurrence.

Every STOMP-shaped computation in the library — the serial sweep in
:mod:`repro.matrix_profile.stomp`, the engine's row blocks in
:mod:`repro.engine.partition`, and through them VALMOD's base pass,
``stomp-range`` and SKIMP — advances the same dot-product recurrence::

    QT[i, j] = QT[i-1, j-1] - T[i-1]·T[j-1] + T[i+m-1]·T[j+m-1]

and reduces each row to one ``(profile, index)`` pair.  This module owns
that inner loop.  :func:`run_sweep` drives a row range ``[start, stop)``
through one of three interchangeable kernels (on a
:class:`PreparedSweep`, which callers that sweep many short row ranges of
one window keep and reuse):

``"oracle"``
    The original per-row loop: one full distance row per query offset via
    :func:`~repro.matrix_profile.distance_profile.distances_from_dot_products`.
    It is the frozen reference the fast kernels are pinned against and the
    benchmark baseline.
``"numpy"``
    The batched row-block kernel: rows advance through a preallocated 2-D
    QT block (a ring of row buffers, so each row is computed from the
    cache-hot previous row), the row reduction happens immediately in a
    cheap *selection space* (see below) while the row is still resident,
    and the winners of a whole reseed segment are converted to distances
    in one deferred vectorized pass.  No per-row allocations — the
    per-row cost drops from "allocate + fill three O(n) temporaries"
    (each above the allocator's mmap threshold, i.e. a page-fault storm
    per row) to a handful of writes into reused buffers, worth ~10x on a
    32k sweep (see ``benchmarks/test_engine_scaling.py``).  A variant
    that advanced ``k`` rows before reducing any of them was measured ~2x
    slower: by the time the block was reduced, its first rows had been
    evicted from L2 and every byte was read back from DRAM.
``"native"``
    A small C translation of the numpy kernel, compiled on demand with the
    system C compiler and loaded through :mod:`ctypes`
    (:mod:`repro.matrix_profile._native`).  Its common-case row (every row
    after a segment's seed, unless a window is constant) advances, scores
    and reduces four columns per instruction in one pass on x86-64 CPUs
    with AVX2, and one column at a time everywhere else
    (:func:`~repro.matrix_profile._native.row_path` names the one in use),
    for the self-join sweep, the base pass's row blocks and the AB-join
    alike.  It also carries VALMOD's partial-profile store: the base-pass
    sweep hands its rows to the store block by block and the store
    retains them in C, and the store's per-length advance and evaluation
    run in C too.  Optional: when no
    compiler is available (or ``REPRO_NO_NATIVE=1``), requests for it fall
    back to ``"numpy"`` with a one-time :class:`RuntimeWarning`.

``"auto"`` resolves to ``"native"`` when the compiled kernel is loadable
and ``"numpy"`` otherwise; a ``kernel=None`` default additionally honours
the ``REPRO_KERNEL`` environment variable.

Bit-for-bit equality across kernels
-----------------------------------
The three kernels produce **identical** profiles and indices, not merely
close ones (``tests/test_kernels.py`` pins this).  Two ingredients make
that possible:

* Every kernel picks each row's winner as the first column holding the
  maximum (``np.argmax``'s rule; the C kernel's vector row keeps it by
  folding 64-column block maxima and rescanning the lowest block that
  holds the maximum) of the same
  *selection scores* ``sel[j] = (QT[j] - m·μ_i·μ_j) / σ_j`` — the
  numerator of the Pearson correlation scaled by the row-constant
  ``1 / (m·σ_i)``, evaluated with the exact same floating-point operation
  sequence everywhere (the C kernel is compiled with ``-ffp-contract=off``
  so no FMA contraction can reorder a rounding).  Constant-subsequence
  conventions are injected *in selection space*: a constant target column
  scores ``0.5·m·σ_i`` (the sel value whose distance is exactly
  ``sqrt(m)``) and a constant query row scores ``1.0`` against constant
  columns and ``0.5`` otherwise, mirroring the ``0 / sqrt(m)`` distance
  convention of ``distances_from_dot_products``.  Excluded columns score
  ``-inf``; a row whose best score is ``-inf`` has no valid match.
* The winner's *distance* is then computed by a transcription of the
  exact ``distances_from_dot_products`` arithmetic — vectorized over all
  winners at once in the numpy kernel, scalar in the C kernel, and
  including the Dekker-compensated centering when the sweep-level
  :func:`~repro.stats.distance.compensation_needed` decision is on — so
  the reported value carries the same bits the oracle's full row would.

Buffer-ownership contract (the ``qt`` aliasing fix)
---------------------------------------------------
The recurrence mutates its dot-product buffers in place, so handing them
to the per-row hook used to be a use-after-advance hazard.  The contract
is now that ``ingest_store.ingest_centered_profile(offset, dot_products)``
receives a **read-only view** that is only valid for the duration of the
call (the store copies what it retains); consuming it during the call is
the whole contract.  The oracle and numpy kernels hand over one 1-D row
per call; the native kernel sweeps a block of rows in C and hands over
the 2-D ``(rows, count)`` block of rows ``offset, offset + 1, ...`` in one
call, so a store can retain it in C as well.  ``tests/test_kernels.py``
pins this.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from repro import obs
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.distance_profile import distances_from_dot_products
from repro.matrix_profile.exclusion import apply_exclusion_zone
from repro.stats.distance import centered_dot_products, compensation_needed
from repro.stats.fft import sliding_dot_product

__all__ = [
    "DEFAULT_JOIN_RESEED_INTERVAL",
    "KERNEL_NAMES",
    "PreparedSweep",
    "available_kernels",
    "resolve_kernel",
    "validate_kernel",
    "run_diagonal_sweep",
    "run_join_sweep",
    "run_sweep",
]

#: Accepted ``kernel=`` spellings, in resolution order of preference.
KERNEL_NAMES = ("auto", "oracle", "numpy", "native")

#: Environment override consulted when no explicit kernel is requested.
KERNEL_ENV = "REPRO_KERNEL"

# Sweep telemetry (the ``kernel`` metric family).  Recording happens once
# per sweep *call* — a block of hundreds of rows — never per row, and the
# whole path is guarded by one flag check so a disabled registry costs two
# branches per block (the ``BENCH_obs_overhead`` gate).
_KERNEL_METRICS = obs.scope("kernel")
_SWEEP_SECONDS = _KERNEL_METRICS.histogram("sweep_seconds")
_SWEEP_ROWS = _KERNEL_METRICS.counter("sweep_rows")
_SWEEPS = _KERNEL_METRICS.counter("sweeps")
_SWEEP_RATE = _KERNEL_METRICS.gauge("sweep_rows_per_second")
_JOIN_SECONDS = _KERNEL_METRICS.histogram("join_sweep_seconds")
_JOIN_ROWS = _KERNEL_METRICS.counter("join_sweep_rows")
_JOINS = _KERNEL_METRICS.counter("join_sweeps")
_JOIN_RATE = _KERNEL_METRICS.gauge("join_sweep_rows_per_second")


def _record_sweep(
    span_name: str,
    kernel_name: str,
    rows: int,
    started_wall: float,
    started_at: float,
    seconds: "obs.Histogram",
    row_counter: "obs.Counter",
    call_counter: "obs.Counter",
    rate: "obs.Gauge",
) -> None:
    elapsed = time.perf_counter() - started_at
    seconds.observe(elapsed)
    row_counter.inc(rows)
    call_counter.inc()
    if elapsed > 0.0:
        rate.set(rows / elapsed)
    obs.record_span(
        span_name, started_wall, elapsed, rows=rows, kernel=kernel_name
    )


def validate_kernel(kernel: "str | None") -> "str | None":
    """Check a ``kernel=`` argument, returning it unchanged.

    ``None`` (resolve at run time, honouring :data:`KERNEL_ENV`) and the
    names in :data:`KERNEL_NAMES` are accepted.
    """
    if kernel is not None and kernel not in KERNEL_NAMES:
        raise InvalidParameterError(
            f"unknown kernel {kernel!r}; expected one of {list(KERNEL_NAMES)} or None"
        )
    return kernel


def _native_lib():
    """The loaded native kernel library, or ``None`` when unavailable."""
    from repro.matrix_profile import _native

    return _native.load()


def available_kernels() -> tuple:
    """The concrete kernels usable right now (``"auto"`` excluded)."""
    names = ["oracle", "numpy"]
    if _native_lib() is not None:
        names.append("native")
    return tuple(names)


_warned_native_fallback = False


def resolve_kernel(kernel: "str | None") -> str:
    """Resolve a ``kernel=`` argument to a concrete kernel name.

    ``None`` reads :data:`KERNEL_ENV` (default ``"auto"``); ``"auto"``
    prefers the native kernel when loadable and falls back to
    ``"numpy"``.  An explicit ``"native"`` request that cannot be served
    warns once per process and degrades to ``"numpy"`` — callers never
    have to guard on compiler availability.
    """
    global _warned_native_fallback
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or "auto"
    validate_kernel(kernel)
    if kernel == "auto":
        return "native" if _native_lib() is not None else "numpy"
    if kernel == "native" and _native_lib() is None:
        if not _warned_native_fallback:
            from repro.matrix_profile import _native

            warnings.warn(
                "native STOMP kernel unavailable "
                f"({_native.unavailable_reason()}); falling back to the "
                "numpy row-block kernel",
                RuntimeWarning,
                stacklevel=2,
            )
            _warned_native_fallback = True
        return "numpy"
    return kernel


class _SweepContext:
    """Per-sweep precomputation shared by every kernel.

    All arrays live in mean-centered space (``values`` is
    ``SlidingStats.centered_values``), which is where the recurrence runs.
    """

    __slots__ = (
        "values",
        "window",
        "count",
        "radius",
        "means",
        "stds",
        "first_col",
        "compensated",
        "coef",
        "inv_stds",
        "half_wq",
        "const_cols",
        "has_const",
        "const_row_sel",
        "sqrt_window",
    )

    def __init__(self, values, window, radius, means, stds, first_col, compensated):
        self.values = values
        self.window = int(window)
        self.count = int(means.size)
        self.radius = int(radius)
        self.means = means
        self.stds = stds
        self.first_col = first_col
        self.compensated = bool(compensated)
        # Row/column coefficients of the selection scores.  ``inv_stds``
        # holds 0 (not inf) at constant columns so the blocked multiply
        # never manufactures inf/NaN; those columns are overwritten with
        # their convention score before the argmax either way.
        self.coef = window * means
        constant = stds == 0.0
        self.inv_stds = np.zeros_like(stds)
        np.divide(1.0, stds, out=self.inv_stds, where=~constant)
        self.half_wq = 0.5 * (window * stds)
        self.const_cols = np.flatnonzero(constant)
        self.has_const = self.const_cols.size > 0
        # Selection scores of a constant *query* row: distance 0 to the
        # constant columns, sqrt(m) to everything else — any strictly
        # decreasing map of the distance convention works, 1.0 / 0.5 is
        # the cheapest.
        self.const_row_sel = np.where(constant, 1.0, 0.5)
        self.sqrt_window = float(np.sqrt(window))


def _readonly_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def _seed_into(ctx: _SweepContext, out: np.ndarray, offset: int) -> None:
    """Fresh MASS seed of row ``offset`` into ``out``.

    Row 0's seed *is* the first-row products; any other row costs one FFT.
    """
    if offset == 0:
        np.copyto(out, ctx.first_col)
    else:
        np.copyto(
            out,
            sliding_dot_product(ctx.values[offset : offset + ctx.window], ctx.values),
        )


def _advance_into(
    ctx: _SweepContext, prev: np.ndarray, out: np.ndarray, offset: int, tmp: np.ndarray
) -> None:
    """One recurrence step ``prev`` (row ``offset-1``) → ``out`` (row ``offset``).

    The operation order replicates the oracle's vectorised expression
    ``(qt[:-1] - a·u) + b·v`` exactly, so the fast kernels accumulate the
    same rounding as the reference.  ``tmp`` is a reused scratch buffer.
    """
    values = ctx.values
    count = ctx.count
    window = ctx.window
    scratch = tmp[: count - 1]
    np.multiply(values[offset - 1], values[: count - 1], out=scratch)
    np.subtract(prev[: count - 1], scratch, out=out[1:])
    np.multiply(values[offset + window - 1], values[window : window + count - 1], out=scratch)
    np.add(out[1:], scratch, out=out[1:])
    out[0] = ctx.first_col[offset]


def _fill_selection_row(
    ctx: _SweepContext, qt: np.ndarray, offset: int, sel: np.ndarray
) -> None:
    """Selection scores of one row into ``sel`` (exclusion zone applied)."""
    if ctx.stds[offset] == 0.0:
        np.copyto(sel, ctx.const_row_sel)
    else:
        np.multiply(ctx.coef[offset], ctx.means, out=sel)
        np.subtract(qt, sel, out=sel)
        np.multiply(sel, ctx.inv_stds, out=sel)
        if ctx.has_const:
            sel[ctx.const_cols] = ctx.half_wq[offset]
    apply_exclusion_zone(sel, offset, ctx.radius, value=-np.inf)


def _transcribed_distances(
    window: int,
    qt_best: np.ndarray,
    query_means: np.ndarray,
    query_stds: np.ndarray,
    target_means: np.ndarray,
    target_stds: np.ndarray,
    compensated: bool,
    sqrt_window: float,
) -> np.ndarray:
    """Winner distances from winner dot products, bit-equal to oracle rows.

    Vectorised transcription of the element-wise arithmetic of
    :func:`~repro.matrix_profile.distance_profile.distances_from_dot_products`
    (including the compensated centering of
    :func:`~repro.stats.distance.centered_dot_products` when the sweep
    decided it is needed), preserving the operation order so each result
    carries the identical bits the oracle's full row would.  Query and
    target statistics are explicit arrays, so the same transcription
    serves the self-join sweep (both sides indexed into one series) and
    the AB-join sweep (query stats from ``A``, target stats from ``B``).
    """
    centered = centered_dot_products(
        qt_best,
        window,
        query_means,
        target_means,
        compensated=compensated,
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        correlation = centered / ((window * query_stds) * target_stds)
    np.clip(correlation, -1.0, 1.0, out=correlation)
    squared = 2.0 * window * (1.0 - correlation)
    np.maximum(squared, 0.0, out=squared)
    distances = np.sqrt(squared)
    query_constant = query_stds == 0.0
    target_constant = target_stds == 0.0
    distances[query_constant | target_constant] = sqrt_window
    distances[query_constant & target_constant] = 0.0
    return distances


def _winner_distances(
    ctx: _SweepContext, offsets: np.ndarray, bests: np.ndarray, qt_best: np.ndarray
) -> np.ndarray:
    """Distances of the ``(offsets[r], bests[r])`` winners of a self-join sweep."""
    return _transcribed_distances(
        ctx.window,
        qt_best,
        ctx.means[offsets],
        ctx.stds[offsets],
        ctx.means[bests],
        ctx.stds[bests],
        ctx.compensated,
        ctx.sqrt_window,
    )


# --------------------------------------------------------------------- #
# kernels (one reseed segment each)
# --------------------------------------------------------------------- #
def _oracle_segment(
    ctx,
    qt,
    sel,
    seg_start,
    seg_stop,
    base,
    profile,
    indices,
    ingest,
):
    """Reference per-row sweep: full distance rows, shared selection."""
    for offset in range(seg_start, seg_stop):
        if offset > seg_start:
            qt[1:] = (
                qt[:-1]
                - ctx.values[offset - 1] * ctx.values[: ctx.count - 1]
                + ctx.values[offset + ctx.window - 1]
                * ctx.values[ctx.window : ctx.window + ctx.count - 1]
            )
            qt[0] = ctx.first_col[offset]
        distances = distances_from_dot_products(
            qt,
            ctx.window,
            float(ctx.means[offset]),
            float(ctx.stds[offset]),
            ctx.means,
            ctx.stds,
            compensated=ctx.compensated,
        )
        if ingest is not None:
            ingest.ingest_centered_profile(offset, _readonly_view(qt))
        _fill_selection_row(ctx, qt, offset, sel)
        best = int(np.argmax(sel))
        if sel[best] != -np.inf:
            profile[offset - base] = distances[best]
            indices[offset - base] = best


def _numpy_segment(
    ctx,
    workspace,
    seg_start,
    seg_stop,
    base,
    best,
    best_qt,
    valid,
    ingest,
):
    """Row-pipelined sweep of one reseed segment.

    Each row is advanced from the still cache-hot previous row (the two
    rows of the QT block ping-pong: the advance reads one and writes the
    other, so nothing aliases), scored and reduced immediately, and only
    the winner's ``(column, dot product)`` pair is recorded.  Winner
    *distances* are not computed here — the driver converts every
    recorded winner in one vectorized :func:`_winner_distances` pass
    after the sweep.
    """
    qt_block, sel, tmp = workspace
    prev = None
    t = 0
    for offset in range(seg_start, seg_stop):
        row = qt_block[t]
        t ^= 1
        if prev is None:
            _seed_into(ctx, row, offset)
        else:
            _advance_into(ctx, prev, row, offset, tmp)
        prev = row
        if ingest is not None:
            ingest.ingest_centered_profile(offset, _readonly_view(row))
        _fill_selection_row(ctx, row, offset, sel)
        winner = int(np.argmax(sel))
        if sel[winner] != -np.inf:
            pos = offset - base
            valid[pos] = True
            best[pos] = winner
            best_qt[pos] = row[winner]


#: Bytes of the row block a native ingest sweep fills before the store
#: retains it (a block holds at least one row).
_INGEST_BLOCK_BYTES = 2 << 20


def _address(array: np.ndarray) -> int:
    """Base address of a C-contiguous float64 array (an ndpointer's check)."""
    if array.dtype != np.float64 or not array.flags.c_contiguous:
        raise TypeError("native sweep arrays must be C-contiguous float64")
    return array.ctypes.data


def _native_segment(
    ctx, lib, qt, seg_start, seg_stop, base, profile, indices, ingest, block, addresses
):
    """Dispatch one reseed segment to the compiled kernel.

    Without ``ingest`` the call passes raw addresses: ``addresses`` holds
    the leading arguments (the context's arrays and ``qt``), converted once
    per :class:`PreparedSweep`, so a short run pays two conversions, not
    eleven.  With an ``ingest`` store the segment is swept block by block:
    the C sweep copies each row's dot products into ``block`` and the store
    retains the block through ``ingest_centered_profile`` (in C as well,
    see :mod:`repro.core.partial_profile`).
    """
    flags = (ctx.radius, 1 if ctx.compensated else 0, 1 if ctx.has_const else 0)
    if ingest is None:
        skip = 8 * (seg_start - base)  # float64 and int64 entries alike
        lib.repro_stomp_segment_at(
            *addresses,
            seg_start,
            seg_stop,
            *flags,
            profile.ctypes.data + skip,
            indices.ctypes.data + skip,
        )
        return
    sweep = (
        ctx.values,
        ctx.window,
        ctx.count,
        ctx.means,
        ctx.stds,
        ctx.inv_stds,
        ctx.coef,
        ctx.first_col,
        qt,
    )
    chunk_start = seg_start
    while chunk_start < seg_stop:
        chunk_stop = min(chunk_start + block.shape[0], seg_stop)
        rows = block[: chunk_stop - chunk_start]
        lib.repro_stomp_rows_segment(
            *sweep,
            chunk_start,
            chunk_stop,
            *flags,
            profile[chunk_start - base : chunk_stop - base],
            indices[chunk_start - base : chunk_stop - base],
            seg_start,
            rows,
        )
        ingest.ingest_centered_profile(chunk_start, _readonly_view(rows))
        chunk_start = chunk_stop


# --------------------------------------------------------------------- #
# the driver
# --------------------------------------------------------------------- #
class PreparedSweep:
    """A self-join sweep context and its kernel workspace, reusable across
    row ranges.

    :func:`run_sweep` prepares one per call.  VALMOD's exact recomputes
    prepare one per length and sweep many short row runs on it, so each
    run pays only its seed and its rows.  Arguments are those of
    :func:`run_sweep`; ``kernel`` is the concrete kernel that sweeps.
    """

    __slots__ = ("kernel", "_ctx", "_lib", "_qt", "_sel", "_workspace", "_addresses")

    def __init__(
        self,
        values: np.ndarray,
        window: int,
        radius: int,
        means: np.ndarray,
        stds: np.ndarray,
        first_row_dots: np.ndarray,
        *,
        kernel: "str | None" = None,
        compensated: "bool | None" = None,
    ) -> None:
        name = resolve_kernel(kernel)
        if compensated is None:
            compensated = compensation_needed(means, means, stds)
        ctx = _SweepContext(values, window, radius, means, stds, first_row_dots, compensated)
        lib = _native_lib() if name == "native" else None
        if name == "native" and lib is None:  # pragma: no cover - racy unload guard
            name = "numpy"
        self.kernel = name
        self._ctx = ctx
        self._lib = lib
        self._qt = self._sel = self._workspace = self._addresses = None
        count = ctx.count
        if name == "numpy":
            self._workspace = (
                np.empty((2, count), dtype=np.float64),
                np.empty(count, dtype=np.float64),
                np.empty(count, dtype=np.float64),
            )
        else:
            self._qt = np.empty(count, dtype=np.float64)
        if name == "oracle":
            self._sel = np.empty(count, dtype=np.float64)
        if name == "native":
            self._addresses = (
                _address(ctx.values),
                ctx.window,
                count,
                *map(_address, (ctx.means, ctx.stds, ctx.inv_stds, ctx.coef, ctx.first_col)),
                _address(self._qt),
            )

    def rows(
        self,
        start: int,
        stop: int,
        *,
        reseed_interval: "int | None" = None,
        ingest=None,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Profile/index arrays of rows ``[start, stop)``, as :func:`run_sweep`
        returns them, but unchecked and unrecorded (no span, no metric)."""
        ctx = self._ctx
        name = self.kernel
        length = stop - start
        profile = np.full(length, np.inf, dtype=np.float64)
        indices = np.full(length, -1, dtype=np.int64)
        # Segment layout replicates the historical reseed loop: a fresh seed
        # row followed by ``reseed_interval`` recurrence advances.
        interval = length if reseed_interval is None else int(reseed_interval)
        seg_len = interval + 1

        block = None
        if name == "native" and ingest is not None:
            block_rows = max(1, min(length, _INGEST_BLOCK_BYTES // (8 * ctx.count)))
            block = np.empty((block_rows, ctx.count), dtype=np.float64)
        if name == "numpy":
            best = np.empty(length, dtype=np.int64)
            best_qt = np.empty(length, dtype=np.float64)
            valid = np.zeros(length, dtype=bool)

        seg_start = start
        while seg_start < stop:
            seg_stop = min(seg_start + seg_len, stop)
            if name == "numpy":
                _numpy_segment(
                    ctx, self._workspace, seg_start, seg_stop, start, best, best_qt, valid, ingest
                )
            else:
                _seed_into(ctx, self._qt, seg_start)
                if name == "native":
                    _native_segment(
                        ctx,
                        self._lib,
                        self._qt,
                        seg_start,
                        seg_stop,
                        start,
                        profile,
                        indices,
                        ingest,
                        block,
                        self._addresses,
                    )
                else:
                    _oracle_segment(
                        ctx,
                        self._qt,
                        self._sel,
                        seg_start,
                        seg_stop,
                        start,
                        profile,
                        indices,
                        ingest,
                    )
            seg_start = seg_stop

        if name == "numpy":
            chosen = np.flatnonzero(valid)
            if chosen.size:
                profile[chosen] = _winner_distances(
                    ctx, chosen + start, best[chosen], best_qt[chosen]
                )
                indices[chosen] = best[chosen]
        return profile, indices


def run_sweep(
    values: np.ndarray,
    window: int,
    radius: int,
    means: np.ndarray,
    stds: np.ndarray,
    first_row_dots: np.ndarray,
    start: int,
    stop: int,
    *,
    kernel: "str | None" = None,
    compensated: "bool | None" = None,
    reseed_interval: "int | None" = None,
    ingest=None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Profile/index arrays for query rows ``[start, stop)``.

    Parameters
    ----------
    values:
        The **mean-centered** series the recurrence runs on
        (``SlidingStats.centered_values``).
    means, stds:
        Per-window statistics of the centered series.
    first_row_dots:
        ``QT[0, j]`` for every ``j`` — by self-join symmetry also the
        ``QT[i, 0]`` column the recurrence cannot reach.
    reseed_interval:
        Rows advanced by the recurrence before a fresh MASS seed;
        ``None`` keeps one unbroken chain (the serial-sweep contract).
        Segment boundaries are part of the numerical result, so all
        kernels share them: bit-for-bit equality holds per
        ``(start, stop, reseed_interval)`` shape.
    ingest:
        Per-row hook (see the module docstring for the buffer-ownership
        contract).  An ``ingest`` store (a
        :class:`~repro.core.partial_profile.PartialProfileStore` or
        fragment) is fed one row view at a time by the oracle and numpy
        kernels and blocks of consecutive rows by the native kernel,
        which the store retains in C; every kernel builds the same store
        bit for bit.

    Returns
    -------
    (profile, indices):
        Arrays of length ``stop - start``; rows with no valid match
        (fully excluded) hold ``inf`` / ``-1``.
    """
    count = int(means.size)
    length = int(stop) - int(start)
    if length < 0 or start < 0 or stop > count:
        raise InvalidParameterError(
            f"row range [{start}, {stop}) out of bounds for {count} rows"
        )
    if length == 0:
        return np.full(0, np.inf, dtype=np.float64), np.full(0, -1, dtype=np.int64)

    name = resolve_kernel(kernel)
    observing = obs.metrics_enabled() or obs.tracing_active()
    if observing:
        started_wall = time.time()
        started_at = time.perf_counter()

    sweep = PreparedSweep(
        values,
        window,
        radius,
        means,
        stds,
        first_row_dots,
        kernel=name,
        compensated=compensated,
    )
    profile, indices = sweep.rows(
        int(start), int(stop), reseed_interval=reseed_interval, ingest=ingest
    )
    if observing:
        _record_sweep(
            "kernel.sweep",
            sweep.kernel,
            length,
            started_wall,
            started_at,
            _SWEEP_SECONDS,
            _SWEEP_ROWS,
            _SWEEPS,
            _SWEEP_RATE,
        )
    return profile, indices


# --------------------------------------------------------------------- #
# AB-join sweep (cross-series STOMP recurrence)
# --------------------------------------------------------------------- #
#: Rows advanced by the join recurrence before a fresh MASS re-seed — the
#: same drift bound as the engine's ``DEFAULT_RESEED_INTERVAL`` (defined
#: here rather than imported: :mod:`repro.engine.partition` imports this
#: module).  ``0`` re-seeds every row, which makes the fast join kernels
#: bit-for-bit equal to the per-row oracle loop (each row then comes from
#: the identical FFT instead of recurrence steps).
DEFAULT_JOIN_RESEED_INTERVAL = 512


class _JoinContext:
    """Per-sweep precomputation of an AB-join, shared by every kernel.

    All arrays live in ``B``-centered space — both series shifted by
    ``stats_b.center``, which is the space the historical per-offset MASS
    loop computes in (z-normalised distances are shift-invariant; one
    common shift keeps the dot products small).  Query rows come from
    ``A``; target columns from ``B``.  There is no exclusion zone: the two
    series are distinct, so every column is a legal match and every row
    has a winner.
    """

    __slots__ = (
        "values_a",
        "values_b",
        "window",
        "count_a",
        "count_b",
        "means_a",
        "stds_a",
        "means_b",
        "stds_b",
        "first_col",
        "compensated",
        "coef_a",
        "inv_stds_b",
        "half_wq_a",
        "const_cols",
        "has_const",
        "const_row_sel",
        "sqrt_window",
    )

    def __init__(
        self, values_a, values_b, window, means_a, stds_a, means_b, stds_b, compensated
    ):
        self.values_a = values_a
        self.values_b = values_b
        self.window = int(window)
        self.count_a = int(means_a.size)
        self.count_b = int(means_b.size)
        self.means_a = means_a
        self.stds_a = stds_a
        self.means_b = means_b
        self.stds_b = stds_b
        # QT[i, 0] for every A-row i — the column the recurrence cannot
        # reach.  Only the recurrence kernels need it (the oracle seeds
        # every row fresh), so it is computed lazily by run_join_sweep.
        self.first_col = None
        self.compensated = bool(compensated)
        # Row/column coefficients of the selection scores
        # sel[j] = (QT[j] - m*mu_a[i]*mu_b[j]) / sigma_b[j]; same
        # conventions as the self-join context, with the row side from A
        # and the column side from B.
        self.coef_a = window * means_a
        constant = stds_b == 0.0
        self.inv_stds_b = np.zeros_like(stds_b)
        np.divide(1.0, stds_b, out=self.inv_stds_b, where=~constant)
        self.half_wq_a = 0.5 * (window * stds_a)
        self.const_cols = np.flatnonzero(constant)
        self.has_const = self.const_cols.size > 0
        self.const_row_sel = np.where(constant, 1.0, 0.5)
        self.sqrt_window = float(np.sqrt(window))


def _seed_join_into(ctx: _JoinContext, out: np.ndarray, offset: int) -> None:
    """Fresh MASS seed of A-row ``offset`` against all of B, into ``out``.

    This is byte-for-byte the FFT call of the historical per-offset loop,
    so a sweep that seeds every row (``reseed_interval=0``) reproduces the
    oracle's dot products exactly.
    """
    np.copyto(
        out,
        sliding_dot_product(
            ctx.values_a[offset : offset + ctx.window], ctx.values_b
        ),
    )


def _advance_join_into(
    ctx: _JoinContext, prev: np.ndarray, out: np.ndarray, offset: int, tmp: np.ndarray
) -> None:
    """One join recurrence step ``prev`` (row ``offset-1``) → ``out``.

    ``QT[i, j] = QT[i-1, j-1] - A[i-1]·B[j-1] + A[i+m-1]·B[j+m-1]`` with
    the exact ``(prev - a·u) + b·v`` operation order of the self-join
    kernels, so the numpy and native kernels accumulate identical
    rounding.
    """
    values_b = ctx.values_b
    count_b = ctx.count_b
    window = ctx.window
    scratch = tmp[: count_b - 1]
    np.multiply(ctx.values_a[offset - 1], values_b[: count_b - 1], out=scratch)
    np.subtract(prev[: count_b - 1], scratch, out=out[1:])
    np.multiply(
        ctx.values_a[offset + window - 1],
        values_b[window : window + count_b - 1],
        out=scratch,
    )
    np.add(out[1:], scratch, out=out[1:])
    out[0] = ctx.first_col[offset]


def _fill_join_selection_row(
    ctx: _JoinContext, qt: np.ndarray, offset: int, sel: np.ndarray
) -> None:
    """Selection scores of one join row into ``sel`` (no exclusion zone)."""
    if ctx.stds_a[offset] == 0.0:
        np.copyto(sel, ctx.const_row_sel)
    else:
        np.multiply(ctx.coef_a[offset], ctx.means_b, out=sel)
        np.subtract(qt, sel, out=sel)
        np.multiply(sel, ctx.inv_stds_b, out=sel)
        if ctx.has_const:
            sel[ctx.const_cols] = ctx.half_wq_a[offset]


def _oracle_join_rows(ctx, qt, start, stop, profile, indices):
    """Reference per-row join: the historical ab_join loop, verbatim.

    One MASS call and one full ``distances_from_dot_products`` row per
    query offset, winner by ``argmin`` over the distances — exactly the
    arithmetic (and tie-breaking) of the pre-kernel ``ab_join``, which is
    why this path ignores ``reseed_interval``: the historical loop never
    advanced a recurrence.
    """
    for offset in range(start, stop):
        _seed_join_into(ctx, qt, offset)
        distances = distances_from_dot_products(
            qt,
            ctx.window,
            float(ctx.means_a[offset]),
            float(ctx.stds_a[offset]),
            ctx.means_b,
            ctx.stds_b,
            compensated=ctx.compensated,
        )
        best = int(np.argmin(distances))
        profile[offset - start] = float(distances[best])
        indices[offset - start] = best


def _numpy_join_segment(ctx, workspace, seg_start, seg_stop, base, best, best_qt):
    """Row-pipelined join sweep of one reseed segment.

    Same shape as the self-join numpy kernel: ping-pong QT rows, immediate
    selection-space reduction, winner distances deferred to one vectorized
    :func:`_transcribed_distances` pass after the sweep.  Every row has a
    winner (no exclusion zone), so no validity mask is needed.
    """
    qt_block, sel, tmp = workspace
    prev = None
    t = 0
    for offset in range(seg_start, seg_stop):
        row = qt_block[t]
        t ^= 1
        if prev is None:
            _seed_join_into(ctx, row, offset)
        else:
            _advance_join_into(ctx, prev, row, offset, tmp)
        prev = row
        _fill_join_selection_row(ctx, row, offset, sel)
        winner = int(np.argmax(sel))
        pos = offset - base
        best[pos] = winner
        best_qt[pos] = row[winner]


def _native_join_segment(ctx, lib, qt, seg_start, seg_stop, base, profile, indices):
    """Dispatch one join reseed segment to the compiled kernel."""
    lib.repro_ab_join_segment(
        ctx.values_a,
        ctx.values_b,
        ctx.window,
        ctx.count_b,
        ctx.means_a,
        ctx.stds_a,
        ctx.means_b,
        ctx.stds_b,
        ctx.inv_stds_b,
        ctx.coef_a,
        ctx.first_col,
        qt,
        seg_start,
        seg_stop,
        1 if ctx.compensated else 0,
        1 if ctx.has_const else 0,
        profile[seg_start - base : seg_stop - base],
        indices[seg_start - base : seg_stop - base],
    )


def run_join_sweep(
    values_a: np.ndarray,
    values_b: np.ndarray,
    window: int,
    means_a: np.ndarray,
    stds_a: np.ndarray,
    means_b: np.ndarray,
    stds_b: np.ndarray,
    start: int,
    stop: int,
    *,
    kernel: "str | None" = None,
    compensated: "bool | None" = None,
    reseed_interval: "int | None" = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """AB-join profile/index arrays for query rows ``[start, stop)`` of A.

    Parameters
    ----------
    values_a, values_b:
        Both series shifted by **B's** global mean (``stats_b.center``) —
        the space the historical per-offset MASS loop computes in.
    means_a, stds_a:
        Window statistics of the *shifted* A (``means_a - center_b``, raw
        standard deviations — shifts do not change sigma).
    means_b, stds_b:
        Centered window statistics of B
        (``SlidingStats.centered_mean_std``).
    kernel:
        ``"oracle"`` (the historical per-row MASS loop), ``"numpy"`` (the
        O(|A|·|B|) STOMP recurrence across A-rows), ``"native"`` (its C
        translation), ``"auto"`` / ``None`` as in :func:`resolve_kernel`.
    reseed_interval:
        Rows advanced by the recurrence before a fresh MASS re-seed;
        ``None`` uses :data:`DEFAULT_JOIN_RESEED_INTERVAL`, ``0`` re-seeds
        every row (which makes the fast kernels bit-for-bit equal to the
        oracle — same FFTs, no recurrence rounding).  The oracle kernel
        ignores it (the historical loop is always per-row seeded).  As
        with :func:`run_sweep`, segment boundaries are part of the
        numerical result: the fast kernels are bit-for-bit identical to
        each other per ``(start, stop, reseed_interval)`` shape.

    Returns
    -------
    (profile, indices):
        Arrays of length ``stop - start``; ``indices[r]`` is the offset in
        B of the nearest neighbour of A-row ``start + r``.
    """
    count_a = int(means_a.size)
    count_b = int(means_b.size)
    length = int(stop) - int(start)
    if length < 0 or start < 0 or stop > count_a:
        raise InvalidParameterError(
            f"row range [{start}, {stop}) out of bounds for {count_a} rows"
        )
    profile = np.full(length, np.inf, dtype=np.float64)
    indices = np.full(length, -1, dtype=np.int64)
    if length == 0:
        return profile, indices

    name = resolve_kernel(kernel)
    observing = obs.metrics_enabled() or obs.tracing_active()
    if observing:
        started_wall = time.time()
        started_at = time.perf_counter()
    if compensated is None:
        compensated = compensation_needed(means_b, means_b, stds_b)
    ctx = _JoinContext(
        values_a, values_b, window, means_a, stds_a, means_b, stds_b, compensated
    )

    if name == "oracle":
        qt = np.empty(count_b, dtype=np.float64)
        _oracle_join_rows(ctx, qt, start, stop, profile, indices)
        if observing:
            _record_sweep(
                "kernel.join_sweep",
                name,
                length,
                started_wall,
                started_at,
                _JOIN_SECONDS,
                _JOIN_ROWS,
                _JOINS,
                _JOIN_RATE,
            )
        return profile, indices

    if reseed_interval is None:
        reseed_interval = DEFAULT_JOIN_RESEED_INTERVAL
    interval = int(reseed_interval)
    if interval < 0:
        raise InvalidParameterError(
            f"reseed_interval must be >= 0, got {reseed_interval}"
        )
    seg_len = interval + 1

    lib = _native_lib() if name == "native" else None
    if name == "native" and lib is None:  # pragma: no cover - racy unload guard
        name = "numpy"

    # The recurrence cannot reach column 0, so the advances refresh it from
    # QT[:, 0] = B[0:m] . A[i:i+m] — one extra FFT, only needed when a
    # segment actually advances (seg_len > 1); the native kernel takes the
    # array unconditionally.
    if seg_len > 1 or name == "native":
        ctx.first_col = sliding_dot_product(values_b[:window], values_a)

    if name == "numpy":
        workspace = (
            np.empty((2, count_b), dtype=np.float64),
            np.empty(count_b, dtype=np.float64),
            np.empty(count_b, dtype=np.float64),
        )
        best = np.empty(length, dtype=np.int64)
        best_qt = np.empty(length, dtype=np.float64)
    else:
        qt = np.empty(count_b, dtype=np.float64)

    seg_start = start
    while seg_start < stop:
        seg_stop = min(seg_start + seg_len, stop)
        if name == "numpy":
            _numpy_join_segment(ctx, workspace, seg_start, seg_stop, start, best, best_qt)
        else:
            _seed_join_into(ctx, qt, seg_start)
            _native_join_segment(ctx, lib, qt, seg_start, seg_stop, start, profile, indices)
        seg_start = seg_stop

    if name == "numpy":
        offsets = np.arange(start, stop)
        profile[:] = _transcribed_distances(
            ctx.window,
            best_qt,
            ctx.means_a[offsets],
            ctx.stds_a[offsets],
            ctx.means_b[best],
            ctx.stds_b[best],
            ctx.compensated,
            ctx.sqrt_window,
        )
        indices[:] = best
    if observing:
        _record_sweep(
            "kernel.join_sweep",
            name,
            length,
            started_wall,
            started_at,
            _JOIN_SECONDS,
            _JOIN_ROWS,
            _JOINS,
            _JOIN_RATE,
        )
    return profile, indices


# --------------------------------------------------------------------- #
# SCRIMP diagonal sweep (anytime kernel)
# --------------------------------------------------------------------- #
def _diagonal_distances(qt, window, means_a, stds_a, means_b, stds_b, compensated):
    """Distances along one diagonal, honouring the constant-subsequence
    rules: the exact arithmetic of SCRIMP's historical per-diagonal helper."""
    a_constant = stds_a == 0.0
    b_constant = stds_b == 0.0
    centered = centered_dot_products(
        qt, window, means_a, means_b, compensated=compensated
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        correlation = centered / (window * stds_a * stds_b)
    np.clip(correlation, -1.0, 1.0, out=correlation)
    squared = 2.0 * window * (1.0 - correlation)
    np.maximum(squared, 0.0, out=squared)
    distances = np.sqrt(squared)
    both_constant = a_constant & b_constant
    one_constant = a_constant ^ b_constant
    distances[both_constant] = 0.0
    distances[one_constant] = np.sqrt(window)
    return distances


def _oracle_diagonal(values, window, means, stds, diagonal, distances, indices, compensated):
    """One diagonal of the historical SCRIMP loop, verbatim.

    Dot products via one elementwise product and a cumulative sum, then a
    row pass (entry ``i`` learns about ``i + d``) followed by a column
    pass (entry ``i + d`` learns about ``i``), both with strict ``<`` so
    an earlier diagonal keeps ties.
    """
    count = distances.size - diagonal
    if count <= 0:
        return
    products = values[: values.size - diagonal] * values[diagonal:]
    csum = np.concatenate(([0.0], np.cumsum(products)))
    qt = csum[window : window + count] - csum[:count]
    diag = _diagonal_distances(
        qt, window, means[:count], stds[:count], means[diagonal:], stds[diagonal:], compensated
    )
    rows = np.arange(count)
    columns = rows + diagonal

    better_rows = diag < distances[rows]
    distances[rows[better_rows]] = diag[better_rows]
    indices[rows[better_rows]] = columns[better_rows]

    better_columns = diag < distances[columns]
    distances[columns[better_columns]] = diag[better_columns]
    indices[columns[better_columns]] = rows[better_columns]


def run_diagonal_sweep(
    values: np.ndarray,
    window: int,
    means: np.ndarray,
    stds: np.ndarray,
    diagonals: np.ndarray,
    distances: np.ndarray,
    indices: np.ndarray,
    *,
    kernel: "str | None" = None,
    compensated: "bool | None" = None,
) -> None:
    """Fold a sequence of SCRIMP diagonals into ``distances``/``indices``.

    The arrays are updated **in place** (they are the mutable state of an
    anytime run); ``diagonals`` is visited in the given order, so a
    randomized permutation keeps its anytime convergence behaviour.  All
    kernels produce bit-identical state: diagonal distances are
    state-independent and every kernel resolves collisions by the same
    (value, earliest-application) rule, which is why the anytime
    ``fraction``/resume contract survives kernelization untouched.

    ``kernel`` follows :func:`resolve_kernel`: ``"native"`` folds every
    diagonal in one compiled call, ``"oracle"`` and ``"numpy"`` run the
    historical one-diagonal-at-a-time loop.  ``compensated`` is the
    sweep-level Dekker-compensation decision (``None`` recomputes it from
    the stats).
    """
    if diagonals.size == 0:
        return
    if compensated is None:
        compensated = compensation_needed(means, means, stds)
    lib = _native_lib() if resolve_kernel(kernel) == "native" else None
    if lib is None:
        for diagonal in diagonals.tolist():
            _oracle_diagonal(
                values, window, means, stds, diagonal, distances, indices, compensated
            )
        return
    diags = np.ascontiguousarray(diagonals, dtype=np.int64)
    lib.repro_scrimp_block(
        values,
        int(values.size),
        int(window),
        int(distances.size),
        means,
        stds,
        diags,
        int(diags.size),
        1 if compensated else 0,
        np.empty(values.size + 1, dtype=np.float64),
        np.empty(distances.size, dtype=np.float64),
        distances,
        indices,
    )
