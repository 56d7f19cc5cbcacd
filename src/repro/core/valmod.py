"""VALMOD — Variable-Length Motif Discovery (the paper's core algorithm).

The algorithm proceeds exactly as described in Section 2 of the paper:

1. compute the matrix profile at the smallest length ``l_min`` of the range
   with a STOMP pass (the *base pass*); while each base distance profile is
   available, retain its ``p`` most promising entries (smallest lower bound)
   in a :class:`~repro.core.partial_profile.PartialProfileStore`;
2. for every longer length ``l_min+1 … l_max``: update the retained dot
   products incrementally, obtain each profile's ``minDist`` and ``maxLB``
   and classify it as *valid* (its retained minimum is provably the true
   minimum) or *non-valid*;
3. extract the top-k motif pairs of the length.  Whenever the smallest
   candidate value belongs to a non-valid profile (i.e. the candidate is only
   a lower bound — this is the paper's ``minLBAbs`` test failing), that
   profile's exact minimum is computed and the selection resumes; the output
   is therefore always exact.  The minimum comes from a STOMP row sweep on
   the base pass's kernel over the whole run of neighbouring non-valid rows
   still open at this length (one seed, then a few microseconds per row),
   and every swept row's minimum is kept for the rest of the length;
4. update VALMAP with the top-k pairs of the length.

The bounds loosen as the length moves away from the store's base length, so
the recompute runs grow.  Before each length ``L`` above ``l_min`` the run
therefore decides whether to *re-base*, as the paper falls back to a full
``ComputeMatrixProfile`` that also rebuilds ``listDP``: when the rows the
recompute runs swept at the previous evaluated length, times the lengths
left (``L`` through ``l_max``), reach the rows of one full pass at ``L``,
the store is dropped and the base pass runs again at ``L``.  ``L``'s motifs
then come from that exact profile, and later lengths are evaluated against
the new store.  The rule reads row counts only, which are the same on every
kernel and executor, so the output stays exact and kernel-independent.

The result object bundles the per-length motif pairs, the pruning statistics
(Figure 2), the VALMAP meta-data (Figure 1, right) and the ranking of motif
pairs across lengths by length-normalised distance.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import obs
from repro.core.config import ValmodConfig
from repro.core.partial_profile import PartialProfileStore
from repro.core.results import LengthResult, PruningStats, ValmodResult
from repro.core.valmap import Valmap
from repro.engine.executor import Executor, resolve_executor
# Unused here since recomputes sweep rows; perfbench's ``core.recompute`` probe patches it.
from repro.matrix_profile.distance_profile import distance_profile  # noqa: F401
from repro.matrix_profile.exclusion import apply_exclusion_zone, default_exclusion_radius
from repro.matrix_profile.kernels import PreparedSweep, resolve_kernel
from repro.matrix_profile.profile import MatrixProfile, MotifPair
from repro.matrix_profile.stomp import stomp
from repro.series.dataseries import DataSeries
from repro.series.validation import validate_length_range, validate_series
from repro.stats.fft import sliding_dot_product
from repro.stats.sliding import SlidingStats

__all__ = ["valmod", "valmod_with_config", "publish_pruning_metrics"]

_VALMOD_METRICS = obs.scope("valmod")
_VALMOD_RUNS = _VALMOD_METRICS.counter("runs")
_VALMOD_LENGTHS = _VALMOD_METRICS.counter("lengths_evaluated")
_VALMOD_RECOMPUTED = _VALMOD_METRICS.counter("recomputed_profiles")
_VALMOD_NON_VALID = _VALMOD_METRICS.counter("non_valid_profiles")


def publish_pruning_metrics(length_results: "Dict[int, LengthResult]") -> None:
    """Publish one run's overall pruning power to the metrics registry.

    Pruning power (the paper's Figure 2 quantity) is the fraction of
    partial distance profiles certified *without* an exact recomputation —
    :attr:`~repro.core.results.PruningStats.valid_fraction`.  The run's
    figure, weighted by per-length profile counts, becomes the gauge
    ``valmod.pruning_power.overall`` (last run wins), which ``repro
    metrics`` reads.  Per-length figures stay on the result
    (``length_results[L].pruning``, ``pruning_summary()``) rather than
    becoming one metric name per length ever run.
    """
    if not obs.metrics_enabled() or not length_results:
        return
    total_profiles = sum(result.pruning.num_profiles for result in length_results.values())
    total_valid = sum(result.pruning.num_valid for result in length_results.values())
    overall = 1.0 if total_profiles == 0 else total_valid / total_profiles
    _VALMOD_METRICS.gauge("pruning_power.overall").set(overall)


def valmod(
    series,
    min_length: int,
    max_length: int,
    *,
    top_k: int = 3,
    profile_capacity: int = 16,
    exclusion_factor: int = 4,
    lower_bound_kind: str = "tight",
    length_step: int = 1,
    track_checkpoints: bool = True,
    update_both_members: bool = True,
    engine: object | None = None,
    n_jobs: int | None = None,
    block_size: int | None = None,
    kernel: str | None = None,
    stats: SlidingStats | None = None,
) -> ValmodResult:
    """Find the exact top-k motif pairs of every length in ``[min_length, max_length]``.

    Parameters mirror :class:`~repro.core.config.ValmodConfig`; see its
    documentation for the meaning of each knob.  ``series`` may be a plain
    array or a :class:`~repro.series.DataSeries`.

    ``engine`` / ``n_jobs`` / ``block_size`` route every base pass (at
    ``min_length`` and at each re-base) through the block-partitioned engine
    (see :mod:`repro.engine`).  A named engine is resolved once per run, so
    the passes share one pool, which the run closes at its end.  Each block
    ingests into a partial-profile store fragment and the fragments merge
    into the exact serial store, so the base pass parallelises like any
    other profile computation.  The per-length exact
    recomputations always run in-process, as STOMP sweeps over runs of
    neighbouring non-valid rows: a run costs one seed plus a few
    microseconds per row, far below what a pool dispatch costs.  ``kernel``
    selects the sweep kernel of the base pass and of those recompute runs
    (:mod:`repro.matrix_profile.kernels`); on ``"native"`` the
    partial-profile store's ingest, advance and evaluation run in C too.

    Returns
    -------
    ValmodResult
        Per-length top-k motif pairs, pruning statistics, the VALMAP
        meta-data structure and timing information.
    """
    config = ValmodConfig(
        min_length=min_length,
        max_length=max_length,
        top_k=top_k,
        profile_capacity=profile_capacity,
        exclusion_factor=exclusion_factor,
        lower_bound_kind=lower_bound_kind,
        length_step=length_step,
        track_checkpoints=track_checkpoints,
        update_both_members=update_both_members,
    )
    return valmod_with_config(
        series,
        config,
        engine=engine,
        n_jobs=n_jobs,
        block_size=block_size,
        kernel=kernel,
        stats=stats,
    )


def valmod_with_config(
    series,
    config: ValmodConfig,
    *,
    engine: object | None = None,
    n_jobs: int | None = None,
    block_size: int | None = None,
    kernel: str | None = None,
    stats: SlidingStats | None = None,
) -> ValmodResult:
    """Run VALMOD with an explicit :class:`~repro.core.config.ValmodConfig`.

    ``stats`` optionally reuses a precomputed
    :class:`~repro.stats.sliding.SlidingStats` of the same series (the
    :class:`repro.api.Analysis` session shares one across every call).

    While a trace is being collected the run records one
    ``valmod.base_pass`` span per base pass (``min_length`` and every
    re-base, tagged with its length), one ``valmod.evaluate`` span per length
    evaluated against a store and one ``valmod.recompute`` span per length
    with recomputations, each tagged with the kernel that ran.  A recompute
    span's duration is the sum of that length's row sweeps (including its
    sweep context); it carries ``profiles`` (the profiles the selection
    needed), ``rows`` (the rows swept), ``runs`` (the sweeps, one seed each)
    and ``kernel``.  The recompute sweeps record no ``kernel.sweep`` span and
    feed no ``kernel.sweep_*`` metric.  ``extra["total_rows_swept"]`` on the
    result sits beside ``extra["total_recomputed_profiles"]``; it counts
    every re-base pass's rows too.

    A re-based length computed every profile exactly and certified none
    with a bound: its :class:`~repro.core.results.PruningStats` read
    ``num_valid=0``, ``num_non_valid = num_recomputed = num_profiles`` and
    ``min_lb_abs=inf``.
    """
    series_name = series.name if isinstance(series, DataSeries) else "series"
    values = validate_series(series)
    validate_length_range(values.size, config.min_length, config.max_length)

    started_wall = time.time()
    started = time.perf_counter()
    if stats is None:
        stats = SlidingStats(values)
    kernel = resolve_kernel(kernel)
    executor, owned = None, False
    if engine is not None:
        executor, owned = resolve_executor(
            engine, task_units=values.size - config.min_length + 1, n_jobs=n_jobs
        )
    try:
        store, base_profile = _base_pass(
            values, stats, config, config.min_length, kernel, executor, block_size
        )
        length_results: Dict[int, LengthResult] = {
            config.min_length: _pass_result(base_profile, config.top_k, rebased=False)
        }
        valmap = Valmap.from_base_profile(
            base_profile, config.max_length, track_checkpoints=config.track_checkpoints
        )

        lengths = config.lengths
        total_rows_swept = 0
        rows_before = 0  # swept by the recompute runs at the previous evaluated length
        for position, length in enumerate(lengths[1:], start=1):
            full_pass = values.size - length + 1
            if rows_before * (len(lengths) - position) >= full_pass:
                store = None  # dropped before the pass builds its successor
                store, profile = _base_pass(
                    values, stats, config, length, kernel, executor, block_size
                )
                result = _pass_result(profile, config.top_k, rebased=True)
                rows_before = 0
                total_rows_swept += full_pass
            else:
                result, rows_before = _evaluate_length(stats, store, config, length, kernel)
                total_rows_swept += rows_before
            length_results[length] = result
            valmap.update_from_pairs(result.motifs, both_members=config.update_both_members)
            stats.forget(length)
    finally:
        if owned:
            executor.close()
    total_recomputed = sum(r.pruning.num_recomputed for r in length_results.values())
    total_non_valid = sum(r.pruning.num_non_valid for r in length_results.values())

    elapsed = time.perf_counter() - started
    _VALMOD_RUNS.inc()
    _VALMOD_LENGTHS.inc(len(length_results))
    _VALMOD_RECOMPUTED.inc(total_recomputed)
    _VALMOD_NON_VALID.inc(total_non_valid)
    publish_pruning_metrics(length_results)
    if obs.tracing_active():
        obs.record_span(
            "valmod.run",
            started_wall,
            elapsed,
            lengths=len(length_results),
            recomputed=total_recomputed,
        )
    return ValmodResult(
        config=config,
        series_name=series_name,
        series_length=int(values.size),
        base_profile=base_profile,
        length_results=length_results,
        valmap=valmap,
        elapsed_seconds=elapsed,
        extra={
            "total_recomputed_profiles": float(total_recomputed),
            "total_rows_swept": float(total_rows_swept),
        },
    )


def _base_pass(
    values: np.ndarray,
    stats: SlidingStats,
    config: ValmodConfig,
    length: int,
    kernel: str,
    executor: Executor | None,
    block_size: int | None,
) -> "tuple[PartialProfileStore, MatrixProfile]":
    """A STOMP pass at ``length`` that fills a new partial-profile store.

    The store ingests inside the pass (row views on the oracle and numpy
    kernels, in C on native): in one serial sweep, or block-locally
    (fragments merged back) when an executor is given.
    """
    store = PartialProfileStore(
        values,
        stats,
        length,
        config.profile_capacity,
        exclusion_factor=config.exclusion_factor,
        lower_bound_kind=config.lower_bound_kind,
        kernel=kernel,
    )
    with obs.span("valmod.base_pass", length=length, kernel=kernel):
        profile = stomp(
            values,
            length,
            exclusion_radius=default_exclusion_radius(length, config.exclusion_factor),
            stats=stats,
            ingest_store=store,
            engine=executor,
            block_size=block_size,
            kernel=kernel,
        )
    return store, profile


def _pass_result(profile: MatrixProfile, top_k: int, *, rebased: bool) -> LengthResult:
    """A base pass's length: motifs from its exact profile.  The first base
    pass has nothing to certify; a re-based length computed every profile
    exactly and certified none with a bound (Figure 2)."""
    count = len(profile)
    return LengthResult(
        length=profile.window,
        motifs=profile.motifs(top_k),
        pruning=PruningStats(
            length=profile.window,
            num_profiles=count,
            num_valid=0 if rebased else count,
            num_non_valid=count if rebased else 0,
            num_recomputed=count if rebased else 0,
            min_lb_abs=float("inf"),
        ),
    )


class _RowRuns:
    """Exact minima of one length's non-valid profiles, swept in row runs.

    The sweep context (window statistics, the first-row products and the
    kernel workspace) is built at the length's first recompute.  A row the
    selection needs is answered from the memo when an earlier run swept it;
    otherwise the longest run of *open* rows around it is swept with one
    seed: rows that are neither exact nor swept yet and whose selection
    value is still finite (an exclusion zone has not closed them).  Each
    row is swept at most once per length, so the worst case is one STOMP
    pass.  Nothing here touches the selection arrays: a swept row's result
    waits in the memo until the selection asks for it.
    """

    def __init__(self, stats: SlidingStats, length: int, radius: int, kernel: str) -> None:
        self._stats = stats
        self._length = length
        self._radius = radius
        self._sweep = None
        self.kernel = kernel
        self.rows = 0
        self.runs = 0
        self.started_wall = 0.0
        self.seconds = 0.0

    def minimum(self, row: int, exact: np.ndarray, working: np.ndarray) -> "tuple[float, int]":
        """``(distance, index)`` of the exact nearest neighbour of ``row``."""
        if self._sweep is None or not self._swept[row]:
            started = time.perf_counter()
            if self._sweep is None:
                self.started_wall = time.time()
                self._prepare()
            open_rows = ~(exact | self._swept) & np.isfinite(working)
            closed_before = np.flatnonzero(~open_rows[:row])
            closed_after = np.flatnonzero(~open_rows[row:])
            lo = int(closed_before[-1]) + 1 if closed_before.size else 0
            hi = row + int(closed_after[0]) if closed_after.size else open_rows.size
            self._distances[lo:hi], self._indices[lo:hi] = self._sweep.rows(lo, hi)
            self._swept[lo:hi] = True
            self.rows += hi - lo
            self.runs += 1
            self.seconds += time.perf_counter() - started
        return float(self._distances[row]), int(self._indices[row])

    def _prepare(self) -> None:
        stats, length = self._stats, self._length
        centered = stats.centered_values
        means, stds = stats.centered_mean_std(length)
        self._sweep = PreparedSweep(
            centered,
            length,
            self._radius,
            means,
            stds,
            sliding_dot_product(centered[:length], centered),
            kernel=self.kernel,
            compensated=stats.conversion_compensated(length),
        )
        self.kernel = self._sweep.kernel
        self._swept = np.zeros(means.size, dtype=bool)
        self._distances = np.empty(means.size, dtype=np.float64)
        self._indices = np.empty(means.size, dtype=np.int64)


def _evaluate_length(
    stats: SlidingStats,
    store: PartialProfileStore,
    config: ValmodConfig,
    length: int,
    kernel: str,
) -> "tuple[LengthResult, int]":
    """Top-k motif pairs of one length, recomputing profiles only when required.

    The paper's step 3: the smallest selection value is taken next; when it
    belongs to a non-valid profile (a lower bound, not a certified minimum)
    the selection needs that profile's exact minimum, which :class:`_RowRuns`
    supplies from STOMP row sweeps on ``kernel``, and the selection resumes.
    Only the selected profile's entries change, so the selection order and
    ``num_recomputed`` (the profiles the selection needed, Figure 2) are
    those of one exact distance profile per needed row, whichever executor
    ran the base pass.  Returns the length's result and the rows swept.
    """
    with obs.span("valmod.evaluate", length=length, kernel=store.kernel):
        evaluation = store.evaluate(length)
    radius = default_exclusion_radius(length, config.exclusion_factor)

    exact = np.array(evaluation.valid, dtype=bool)
    min_distances = np.array(evaluation.min_distances, dtype=np.float64)
    nearest = np.array(evaluation.min_indices, dtype=np.int64)
    # Selection values: exact minima where certified, lower bounds elsewhere.
    working = np.where(exact, min_distances, evaluation.max_lower_bounds)
    runs = _RowRuns(stats, length, radius, kernel)

    pairs: List[MotifPair] = []
    recomputed = 0
    while len(pairs) < config.top_k:
        candidate = int(np.argmin(working))
        if not np.isfinite(working[candidate]):
            break
        if not exact[candidate]:
            # A fully excluded row sweeps to (inf, -1).
            min_distances[candidate], nearest[candidate] = runs.minimum(
                candidate, exact, working
            )
            exact[candidate] = True
            working[candidate] = min_distances[candidate]
            recomputed += 1
            continue
        if nearest[candidate] < 0:
            apply_exclusion_zone(working, candidate, radius)
            continue
        pairs.append(
            MotifPair(
                distance=float(min_distances[candidate]),
                offset_a=candidate,
                offset_b=int(nearest[candidate]),
                window=length,
            )
        )
        apply_exclusion_zone(working, candidate, radius)
        apply_exclusion_zone(working, int(nearest[candidate]), radius)

    if recomputed and obs.tracing_active():
        obs.record_span(
            "valmod.recompute",
            runs.started_wall,
            runs.seconds,
            length=length,
            profiles=recomputed,
            rows=runs.rows,
            runs=runs.runs,
            kernel=runs.kernel,
        )
    pruning = PruningStats(
        length=length,
        num_profiles=int(evaluation.valid.size),
        num_valid=evaluation.num_valid,
        num_non_valid=evaluation.num_non_valid,
        num_recomputed=recomputed,
        min_lb_abs=evaluation.min_lb_abs,
    )
    return LengthResult(length=length, motifs=pairs, pruning=pruning), runs.rows
