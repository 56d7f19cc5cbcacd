"""STOMP — Scalable Time series Ordered-search Matrix Profile.

STOMP (Zhu et al., ICDM 2016 — reference [1]/[2] of the demo paper) computes
the full self-join matrix profile in ``O(n²)`` time by observing that the
sliding dot products of consecutive query subsequences obey the recurrence::

    QT[i, j] = QT[i-1, j-1] - T[i-1]·T[j-1] + T[i+m-1]·T[j+m-1]

so only the first distance profile needs an FFT.  This implementation is the
fixed-length work-horse of the library: VALMOD uses it for its base passes
(at ``l_min`` and at every re-base) and the ``STOMP-range`` baseline re-runs
it for every length in the range.  Its one per-row hook is ``ingest_store``,
through which VALMOD's base pass hands every row's centered dot products to
the partial-profile store.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InvalidParameterError
from repro.matrix_profile.exclusion import default_exclusion_radius
from repro.matrix_profile.kernels import run_sweep
from repro.matrix_profile.profile import MatrixProfile
from repro.series.validation import validate_series, validate_subsequence_length
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

__all__ = ["stomp"]


def stomp(
    series,
    window: int,
    *,
    exclusion_radius: int | None = None,
    stats: SlidingStats | None = None,
    ingest_store=None,
    engine: object | None = None,
    n_jobs: int | None = None,
    block_size: int | None = None,
    kernel: str | None = None,
    centered_first_row_qt: np.ndarray | None = None,
) -> MatrixProfile:
    """Exact matrix profile of ``series`` at subsequence length ``window``.

    Parameters
    ----------
    series:
        The data series (array-like or :class:`~repro.series.DataSeries`).
    window:
        Subsequence length ``m``.
    exclusion_radius:
        Trivial-match radius; defaults to ``ceil(m / 4)``.
    stats:
        Optional precomputed sliding statistics of ``series``.
    ingest_store:
        An empty :class:`~repro.core.partial_profile.PartialProfileStore`
        whose ``base_length`` equals ``window``: every row's dot products,
        taken on the **mean-centered** series (the space the sweep runs in
        — see the Notes), are ingested while the profile is computed
        (VALMOD's base pass).  With ``engine=`` the ingest happens
        block-locally inside the engine and the per-block fragments are
        merged — the base pass parallelises like any other profile
        computation.
    engine:
        ``None`` (default) runs this module's serial single-sweep loop —
        the correctness oracle.  ``"serial"``, ``"parallel"``, ``"auto"``
        or an :class:`~repro.engine.executor.Executor` instance route the
        computation through the block-partitioned engine
        (:func:`repro.engine.partition.partitioned_stomp`); on a process
        pool each call packs the series into one shared-memory segment and
        unlinks it before returning.
    n_jobs, block_size:
        Engine tuning knobs, ignored when ``engine`` is ``None``.
    kernel:
        Which sweep kernel advances the recurrence — ``"auto"`` (default;
        honours ``REPRO_KERNEL``), ``"oracle"``, ``"numpy"`` or
        ``"native"``; see :mod:`repro.matrix_profile.kernels`.  All
        kernels produce identical profiles and indices.
    centered_first_row_qt:
        Optional precomputed sliding dot products of the first query
        (``QT[0, j]`` for every ``j``) — the one FFT product STOMP needs —
        taken on the **mean-centered** series (``values - values.mean()``),
        which is the space the recurrence runs in (see below).  The
        parameter was named ``first_row_qt`` (and carried *raw* products)
        before the sweep was centered; the rename makes stale raw-product
        callers fail loudly instead of silently mis-seeding the recurrence.
        The :class:`repro.api.Analysis` session memoizes it per window
        length so repeated calls on the same series skip the FFT.  Ignored
        when ``engine`` routes the computation (the engine re-seeds blocks
        itself).

    Returns
    -------
    MatrixProfile
        Distances and best-match indices for every subsequence.

    Notes
    -----
    Z-normalised distances are invariant under a global shift of the series,
    but the dot products the recurrence carries are not: on a series sitting
    at a large offset each recurrence step adds rounding error of magnitude
    ``~eps·|T|²_max`` that survives the ``qt -> correlation`` cancellation at
    full size.  The sweep therefore shifts the values **once** (reusing
    :attr:`~repro.stats.sliding.SlidingStats.centered_values`) and runs the
    recurrence mean-centered, cutting the drift at the source — the same
    treatment the MASS / distance-profile paths received earlier.  Since the
    partial-profile store went mean-centered too, the sweep is centered
    unconditionally: the old raw-value row contract (and the ~1e-3
    VALMOD distance error it carried at large offsets) is gone.
    """
    if engine is not None:
        from repro.engine.partition import partitioned_stomp

        return partitioned_stomp(
            series,
            window,
            executor=engine,
            n_jobs=n_jobs,
            block_size=block_size,
            kernel=kernel,
            exclusion_radius=exclusion_radius,
            stats=stats,
            ingest_store=ingest_store,
        )
    values = validate_series(series)
    window = validate_subsequence_length(values.size, window)
    radius = default_exclusion_radius(window) if exclusion_radius is None else int(exclusion_radius)
    if stats is None:
        stats = SlidingStats(values)
    count = values.size - window + 1

    sweep_values = stats.centered_values
    means, stds = stats.centered_mean_std(window)

    if ingest_store is not None:
        ingest_store.require_ready_for_ingest(window)

    if centered_first_row_qt is not None:
        first_row_dots = np.asarray(centered_first_row_qt, dtype=np.float64)
        if first_row_dots.shape != (count,):
            raise InvalidParameterError(
                "centered_first_row_qt must have "
                f"{count} entries, got shape {first_row_dots.shape}"
            )
    else:
        first_query = sweep_values[:window]
        first_row_dots = sliding_dot_product(first_query, sweep_values)

    # The whole sweep — recurrence, row reductions, ingest — lives in the
    # kernel layer; the serial contract is one unbroken recurrence chain
    # (reseed_interval=None).
    profile, indices = run_sweep(
        sweep_values,
        window,
        radius,
        means,
        stds,
        first_row_dots,
        0,
        count,
        kernel=kernel,
        ingest=ingest_store,
    )

    return MatrixProfile(
        distances=profile, indices=indices, window=window, exclusion_radius=radius
    )
