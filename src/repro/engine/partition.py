"""Block-partitioned STOMP.

The STOMP recurrence computes row ``i`` of the (implicit) distance matrix
from row ``i-1``::

    QT[i, j] = QT[i-1, j-1] - T[i-1]·T[j-1] + T[i+m-1]·T[j+m-1]

which looks inherently sequential — but only *within* a chain of rows.
Any row can start a fresh chain by computing its sliding dot products
directly with one FFT-based MASS call.  Splitting the query range
``[0, n-m]`` into contiguous **row blocks**, each seeded by one MASS call
and advanced with the recurrence, therefore yields units of work that are
embarrassingly parallel *and* individually cheaper in accumulated
floating-point error than one monolithic sweep.

Exactness of the merge
----------------------
The matrix profile entry of offset ``i`` is a function of row ``i`` alone
(the minimum of its masked distance profile).  Because the blocks
partition the rows — every row belongs to exactly one block and is
computed completely inside it — the per-block profiles and index arrays
can simply be **concatenated** in block order.  No min-merge, tie-break
or overlap handling is needed; the merge introduces no error of its own.
The only deviation from the serial sweep is floating-point: a block's
first row comes from a fresh FFT instead of ``block_size`` recurrence
steps, which makes the blocked result slightly *more* accurate, not
less (see the re-seeding note below).

The same argument covers VALMOD's base-pass ingest: the entries a
:class:`~repro.core.partial_profile.PartialProfileStore` retains for row
``i`` are a function of row ``i``'s distance profile alone, so each block
ingests its rows into a store *fragment* and the fragments merge
positionally — bit for bit the store a serial ingest would have built
from the same block plan.

Dispatch and series transport
-----------------------------
:func:`partitioned_stomp` maps one top-level task function over the block
plan with ``executor.map``, whichever executor it holds; carrying the
trace context across a process boundary is the executor's business (see
:mod:`repro.engine.executor`).  Process-pool payloads do not pickle the
O(n) arrays (series, means, stds, first-row products) into every task:
when the platform provides ``multiprocessing.shared_memory`` each call
packs the arrays once into a :class:`~repro.engine.shm.SharedSeriesBuffer`,
each payload carries only the segment handle, and the call unlinks the
segment when its ``map`` returns.  Workers attach by name and copy the
arrays out once per task.  When shared memory is unavailable the payloads
fall back to carrying the arrays (slower, never wrong).

Re-seeding and numerical drift
------------------------------
Each recurrence step adds two rounding errors of magnitude
``~eps·|T|²_max`` to every retained dot product, so the drift of a chain
grows linearly with its length.  For well-scaled series this stays
far below any meaningful tolerance, but high-variance series (large
offsets, heavy-tailed spikes) can push a multi-thousand-row chain past
``1e-8`` absolute.  Two mechanisms bound the drift:

* every block starts from a fresh MASS seed, so a chain is never longer
  than the block size;
* within a block, the chain is re-seeded with a fresh MASS call every
  ``reseed_interval`` rows (default :data:`DEFAULT_RESEED_INTERVAL`).
  The reseed costs one ``O(n log n)`` FFT per interval — amortised over
  ``reseed_interval`` rows of ``O(n)`` work each, an overhead of roughly
  ``log(n) / reseed_interval``, i.e. well under 5% at the default.

The correlation clamp in
:func:`~repro.matrix_profile.distance_profile.distances_from_dot_products`
(``clip(correlation, -1, 1)``) remains the last line of defence against
drift producing out-of-range correlations.
"""

from __future__ import annotations

import math
import time
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.engine.executor import Executor, resolve_executor
from repro.engine.shm import SharedArraysHandle, SharedSeriesBuffer, attach_arrays
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import run_sweep
from repro.matrix_profile.profile import MatrixProfile
from repro.series.validation import validate_series, validate_subsequence_length
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

__all__ = [
    "plan_blocks",
    "default_block_size",
    "partitioned_stomp",
    "DEFAULT_RESEED_INTERVAL",
]

#: Rows advanced by the dot-product recurrence before the chain is re-seeded
#: with a fresh MASS call.  512 keeps worst-case accumulated drift orders of
#: magnitude below the library's 1e-8 comparison tolerance even for
#: high-variance series, at <5% extra FFT work (see the module docstring).
DEFAULT_RESEED_INTERVAL = 512

#: Minimum block size the planner will produce: below ~64 rows the per-block
#: MASS seed dominates the recurrence work the block saves.
_MIN_AUTO_BLOCK = 64

# Engine telemetry: one recording per block / per sweep call, never per row.
_ENGINE_METRICS = obs.scope("engine")
_BLOCKS = _ENGINE_METRICS.counter("blocks")
_BLOCK_SECONDS = _ENGINE_METRICS.histogram("block_seconds")
_STOMP_CALLS = _ENGINE_METRICS.counter("stomp_calls")


def default_block_size(count: int, n_jobs: int) -> int:
    """Rows per block for ``count`` query rows on ``n_jobs`` workers.

    Aims at four blocks per worker — enough slack for the pool to balance
    uneven progress without shrinking blocks into seed-dominated slivers.
    Blocks are not capped at the re-seed interval: chains re-seed *inside*
    a block every :data:`DEFAULT_RESEED_INTERVAL` rows, so a large block
    is numerically equivalent to many small ones while paying the
    per-task transfer cost only once.
    """
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    if n_jobs < 1:
        raise InvalidParameterError(f"n_jobs must be >= 1, got {n_jobs}")
    per_worker = int(math.ceil(count / (4 * n_jobs)))
    return max(1, min(count, max(_MIN_AUTO_BLOCK, per_worker)))


def plan_blocks(count: int, block_size: int) -> List[Tuple[int, int]]:
    """Partition ``range(count)`` into ``[start, stop)`` row blocks."""
    if count < 1:
        raise InvalidParameterError(f"count must be >= 1, got {count}")
    if block_size < 1:
        raise InvalidParameterError(f"block_size must be >= 1, got {block_size}")
    return [
        (start, min(start + block_size, count)) for start in range(0, count, block_size)
    ]


def _block_task(payload) -> Tuple[np.ndarray, np.ndarray, dict | None]:
    """Profile/index arrays (and optional store fragment) for one row block.

    ``payload`` is ``(arrays, window, radius, start, stop, reseed_interval,
    ingest, kernel)``.  ``arrays`` carries the four O(n) block arrays —
    centered values, means, stds and first-row products — either directly
    as a tuple or as a :class:`~repro.engine.shm.SharedArraysHandle`
    naming the shared-memory segment they were packed into.  The function
    is top level so a process pool can pickle it.

    Rows ``[start, stop)`` are swept by
    :func:`repro.matrix_profile.kernels.run_sweep`: the first row is
    seeded with one MASS call and later rows advance the STOMP recurrence,
    re-seeding every ``reseed_interval`` rows.  ``first_row_dots`` holds
    ``QT[0, j]`` for every ``j``; by symmetry of the self-join,
    ``QT[i, 0] = first_row_dots[i]`` refreshes the column the recurrence
    cannot reach.  Segment boundaries are shared by all kernels, so the
    block result does not depend on which one ran.

    ``ingest`` — ``(capacity, exclusion_factor, lower_bound_kind)`` — makes
    the block build a :class:`~repro.core.partial_profile.PartialProfileStore`
    fragment covering its rows and return the fragment's exported state as
    the third element (``None`` otherwise).
    """
    arrays, window, radius, start, stop, reseed_interval, ingest, kernel = payload
    if isinstance(arrays, SharedArraysHandle):
        attached = attach_arrays(arrays)
        arrays = tuple(attached[key] for key in ("values", "means", "stds", "first_row_dots"))
    values, means, stds, first_row_dots = arrays
    started_at = time.perf_counter()
    with obs.span("engine.block", start=int(start), stop=int(stop)):
        fragment = None
        if ingest is not None:
            from repro.core.partial_profile import PartialProfileStore

            capacity, exclusion_factor, lower_bound_kind = ingest
            fragment = PartialProfileStore.fragment(
                values,
                means,
                stds,
                window,
                capacity,
                exclusion_factor=exclusion_factor,
                lower_bound_kind=lower_bound_kind,
                row_range=(start, stop),
            )

        profile, indices = run_sweep(
            values,
            window,
            radius,
            means,
            stds,
            first_row_dots,
            start,
            stop,
            kernel=kernel,
            reseed_interval=reseed_interval,
            ingest=fragment,
        )
    _BLOCKS.inc()
    _BLOCK_SECONDS.observe(time.perf_counter() - started_at)
    return profile, indices, None if fragment is None else fragment.export_state()


def partitioned_stomp(
    series,
    window: int,
    *,
    executor: "str | Executor | None" = "auto",
    n_jobs: int | None = None,
    block_size: int | None = None,
    kernel: str | None = None,
    reseed_interval: int = DEFAULT_RESEED_INTERVAL,
    exclusion_radius: int | None = None,
    stats: SlidingStats | None = None,
    ingest_store=None,
) -> MatrixProfile:
    """Exact matrix profile via block-partitioned STOMP.

    Produces the same profile as :func:`repro.matrix_profile.stomp.stomp`
    (indices identical, distances within floating-point noise — the test
    suite holds both to ``1e-8``) but computes it in independent row
    blocks that an :class:`~repro.engine.executor.Executor` may run in
    parallel.

    Parameters
    ----------
    executor:
        ``"serial"``, ``"parallel"``, ``"auto"`` (default; picks parallel
        only for large inputs on multi-core machines), ``None`` (serial)
        or an :class:`~repro.engine.executor.Executor` instance, which
        the caller remains responsible for closing.
    n_jobs:
        Worker count for ``"parallel"`` / ``"auto"``; defaults to the
        machine's core count.
    block_size:
        Rows per block; defaults to :func:`default_block_size`.
    kernel:
        Sweep kernel each block runs
        (:mod:`repro.matrix_profile.kernels`); all kernels produce
        identical block results, so mixed-kernel workers would even be
        legal.  ``None`` resolves per process (``REPRO_KERNEL`` or auto).
    reseed_interval:
        Rows advanced by the recurrence before a fresh MASS seed (see the
        module docstring); ``DEFAULT_RESEED_INTERVAL`` by default.
    ingest_store:
        An empty :class:`~repro.core.partial_profile.PartialProfileStore`
        whose ``base_length`` equals ``window``.  Each block ingests its
        rows into a store fragment (inside the worker, when parallel) and
        the fragments are merged back here in block order (VALMOD's base
        pass).
    """
    values = validate_series(series)
    window = validate_subsequence_length(values.size, window)
    radius = (
        default_exclusion_radius(window) if exclusion_radius is None else int(exclusion_radius)
    )
    if reseed_interval < 1:
        raise InvalidParameterError(
            f"reseed_interval must be >= 1, got {reseed_interval}"
        )
    if stats is None:
        stats = SlidingStats(values)
    count = values.size - window + 1

    # Same contract as the serial sweep in repro.matrix_profile.stomp: the
    # recurrence runs on the mean-centered series (z-normalised distances
    # are shift-invariant; the centered products no longer carry rounding
    # error at the raw magnitude).  The partial-profile store is centered
    # too, so there is no raw-value special case left.
    sweep_values = stats.centered_values
    means, stds = stats.centered_mean_std(window)

    ingest = None
    if ingest_store is not None:
        ingest_store.require_ready_for_ingest(window)
        ingest = (
            ingest_store.capacity,
            ingest_store.exclusion_factor,
            ingest_store.lower_bound_kind,
        )

    _STOMP_CALLS.inc()
    with obs.span("engine.stomp", window=int(window), rows=int(count)):
        first_row_dots = sliding_dot_product(sweep_values[:window], sweep_values)
        chosen_executor, owned = resolve_executor(
            executor, task_units=count, n_jobs=n_jobs
        )
        try:
            if block_size is None:
                block_size = default_block_size(count, chosen_executor.effective_jobs)
            # Shared memory only pays off across a process boundary; a
            # degraded pool runs in-process, where every task would copy
            # back out the arrays the parent already holds.
            buffer = None
            if chosen_executor.uses_processes:
                buffer = SharedSeriesBuffer.create(
                    {
                        "values": sweep_values,
                        "means": means,
                        "stds": stds,
                        "first_row_dots": first_row_dots,
                    }
                )
            arrays = (
                buffer.handle
                if buffer is not None
                else (sweep_values, means, stds, first_row_dots)
            )
            payloads = [
                (arrays, window, radius, start, stop, reseed_interval, ingest, kernel)
                for start, stop in plan_blocks(count, block_size)
            ]
            try:
                results = chosen_executor.map(_block_task, payloads)
            finally:
                if buffer is not None:
                    buffer.close()
                    buffer.unlink()
        finally:
            if owned:
                chosen_executor.close()

        if ingest_store is not None:
            # Fragment rows partition the query range, so positional merges
            # in block order rebuild the exact serially-ingested store.
            for _, _, state in results:
                ingest_store.merge(state)

        # Row blocks partition the query range, so block order == row order
        # and concatenation *is* the exact merge (see the module docstring).
        profile = np.concatenate([block_profile for block_profile, _, _ in results])
        indices = np.concatenate([block_indices for _, block_indices, _ in results])
        return MatrixProfile(
            distances=profile, indices=indices, window=window, exclusion_radius=radius
        )
