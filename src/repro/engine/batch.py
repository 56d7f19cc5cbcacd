"""Batch execution of many matrix-profile jobs through one executor.

The range algorithms (``stomp-range``, SKIMP), VALMOD's exact
recomputations, the blocked AB-join and the session's multi-request
batches all share the same shape of work: *many independent profile
computations over the same or different series*.  :func:`compute_profiles`
gives that shape a first-class API:

* a :class:`ProfileJob` names one unit of work — a series and a
  ``window``, optionally narrowed to one query offset (a distance
  profile) or widened to an AB-join against a second series;
* jobs are mapped through one :class:`~repro.engine.executor.Executor`
  with ``executor.map`` — in-process for the serial executor, one job per
  process-pool task for the parallel one;
* results come back as :class:`JobOutcome` objects **in job order**; a
  job that raises records its exception in ``outcome.error`` without
  affecting the other jobs (``outcome.unwrap()`` re-raises it).

``SlidingStats`` reuse: every :func:`compute_profiles` call maps its jobs
with one stats cache keyed on series identity, so in-process jobs on the
same series share one :class:`~repro.stats.sliding.SlidingStats` (one pair
of prefix-sum arrays) — this is what makes a many-lengths batch over one
series cost one ``O(n)`` statistics pass instead of one per length.

Series transport
----------------
Array-backed jobs that *share* one series object would each pickle the
full O(n) array across the pool boundary.  Before a process-pool
dispatch they are rewritten onto a
:class:`~repro.engine.shm.SharedArraysHandle` packing just
``{"values": ...}`` (see ``_prepare_parallel_tasks``): one segment per
:func:`compute_profiles` call, unlinked when its map returns, so a
thousand-job fan-out over one series ships kilobytes instead of
gigabytes.  Workers copy a segment out once per job and share the
``O(n)`` sliding statistics across jobs on the same handle through a
small per-process cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

from repro import obs
from repro.engine.executor import Executor, resolve_executor
from repro.engine.partition import DEFAULT_RESEED_INTERVAL, partitioned_stomp
from repro.engine.shm import SharedArraysHandle, SharedSeriesBuffer, attach_arrays
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.ab_join import JoinProfile, join_sweep_rows
from repro.matrix_profile.distance_profile import distance_profile
from repro.matrix_profile.profile import MatrixProfile
from repro.series.dataseries import DataSeries
from repro.series.validation import validate_series
from repro.stats.sliding import SlidingStats

__all__ = ["ProfileJob", "JobOutcome", "compute_profiles"]

#: Entry cap of the per-process stats cache for handle-backed jobs.  A
#: worker typically serves many jobs over few distinct series; a handful of
#: slots captures that reuse while bounding worker memory (two prefix-sum
#: arrays per entry).
_WORKER_STATS_MAX_ENTRIES = 4

#: Per-process ``SlidingStats`` cache keyed by segment name.  Only
#: handle-backed series use it: handles have a stable cross-pickle
#: identity, ``id()`` of an unpickled array does not.
_WORKER_STATS: "OrderedDict[tuple, SlidingStats]" = OrderedDict()

_ENGINE_METRICS = obs.scope("engine")
_JOBS = _ENGINE_METRICS.counter("jobs")


@dataclass(frozen=True, eq=False)
class ProfileJob:
    """One unit of batch work: the matrix profile of ``series`` at ``window``.

    ``name`` is carried through to the outcome for the caller's
    bookkeeping and defaults to the series name when the series is a
    :class:`~repro.series.DataSeries`.

    ``query_offset`` narrows the job from a full matrix profile to the
    *distance profile* of one query offset — a single MASS call.  VALMOD's
    per-length exact recomputations are exactly this shape: many
    independent single-offset profiles at one length, which the batch
    layer can fan out across workers.  The outcome's result is then a
    plain ``numpy`` distance array (exclusion zone applied when
    ``exclusion_radius`` is set) instead of a
    :class:`~repro.matrix_profile.profile.MatrixProfile`.

    ``series_b`` (incompatible with ``query_offset``) turns the job into
    an **AB-join**: the nearest neighbour in ``series_b`` of each query
    subsequence of ``series``.  ``row_range=(start, stop)`` optionally
    restricts the join to that block of query rows —
    :func:`repro.matrix_profile.ab_join.ab_join`'s ``engine=`` path plans
    one such job per A-row block, which is how cross-series joins scale
    across cores like self-joins do.  The outcome's result is a
    :class:`~repro.matrix_profile.ab_join.JoinProfile` covering the
    requested rows.

    ``eq=False``: the generated field-tuple ``__eq__`` would compare the
    series array element-wise (ambiguous truth value) and make jobs
    unhashable; identity semantics are the useful ones for work items.
    """

    series: object
    window: int | None = None
    query_offset: int | None = None
    exclusion_radius: int | None = None
    block_size: int | None = None
    kernel: str | None = None
    reseed_interval: int = DEFAULT_RESEED_INTERVAL
    name: str | None = None
    series_b: object = None
    row_range: Tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.window is None:
            raise InvalidParameterError("a ProfileJob needs a window=")
        if self.query_offset is not None:
            object.__setattr__(self, "query_offset", int(self.query_offset))
        if self.series_b is not None and self.query_offset is not None:
            raise InvalidParameterError(
                "series_b= (an AB-join job) is incompatible with query_offset="
            )
        if self.row_range is not None:
            if self.series_b is None:
                raise InvalidParameterError(
                    "row_range= only applies to AB-join jobs (series_b=)"
                )
            object.__setattr__(
                self, "row_range", (int(self.row_range[0]), int(self.row_range[1]))
            )
        if self.name is None and isinstance(self.series, DataSeries):
            object.__setattr__(self, "name", self.series.name)


@dataclass(frozen=True)
class JobOutcome:
    """Result slot of one job, in the order the jobs were submitted.

    ``result`` is a :class:`MatrixProfile` for plain jobs, a distance
    array for ``query_offset=`` jobs, and a
    :class:`~repro.matrix_profile.ab_join.JoinProfile` for ``series_b=``
    (AB-join) jobs.
    """

    index: int
    job: ProfileJob
    result: Union[MatrixProfile, np.ndarray, JoinProfile, None] = None
    error: BaseException | None = None

    @property
    def ok(self) -> bool:
        """True when the job completed without raising."""
        return self.error is None

    def unwrap(self) -> Union[MatrixProfile, np.ndarray, JoinProfile]:
        """The job's result, re-raising the job's exception if it failed."""
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


def _series_cache_key(series: object) -> tuple:
    """A stats-cache key that survives pickling for handle-backed series.

    Segment handles carry a stable identity (the segment name); plain
    arrays only have ``id()``, which is meaningful within one process but
    not across a pool dispatch — which is fine, because plain arrays only
    hit the per-call cache of jobs mapped in-process.
    """
    if isinstance(series, SharedArraysHandle):
        return ("shm", series.shm_name)
    return ("id", id(series))


def _resolve_series(series: object) -> np.ndarray:
    """Materialise ``job.series`` into a validated float64 array (a
    segment handle is copied out per job)."""
    if isinstance(series, SharedArraysHandle):
        return validate_series(attach_arrays(series)["values"])
    return validate_series(series)


def _worker_stats(key: tuple, values: np.ndarray) -> SlidingStats:
    """Per-process ``SlidingStats`` for a handle-backed series (LRU)."""
    stats = _WORKER_STATS.get(key)
    if stats is None:
        stats = SlidingStats(values)
        while len(_WORKER_STATS) >= _WORKER_STATS_MAX_ENTRIES:
            _WORKER_STATS.popitem(last=False)
        _WORKER_STATS[key] = stats
    else:
        _WORKER_STATS.move_to_end(key)
    return stats


def _stats_for(
    series: object, values: np.ndarray, stats_cache: Dict[tuple, SlidingStats]
) -> SlidingStats:
    """Shared ``SlidingStats`` for one job series (call or worker cache)."""
    key = _series_cache_key(series)
    if key[0] != "id":
        # Handle-backed series: the per-process cache makes the O(n)
        # prefix sums a once-per-worker cost across pool dispatches.
        return _worker_stats(key, values)
    stats = stats_cache.get(key)
    if stats is None:
        stats = stats_cache[key] = SlidingStats(values)
    return stats


def _run_job(
    job: ProfileJob, stats_cache: Dict[tuple, SlidingStats]
) -> Tuple[str, object]:
    """Run one job to a ``("ok", result)`` / ``("error", exc)`` pair.

    Top level, so a process pool can pickle it.  Errors are captured
    *inside* the worker so one failing job cannot poison a process-pool
    map; the pair representation (rather than the exception itself) keeps
    the transport picklable either way.
    """
    _JOBS.inc()
    with obs.span("engine.job"):
        try:
            values = _resolve_series(job.series)
            stats = _stats_for(job.series, values, stats_cache)
            if job.series_b is not None:
                # AB-join job: the nearest neighbour in series_b of each
                # query row of series (optionally one row block of the join).
                values_b = _resolve_series(job.series_b)
                stats_b = _stats_for(job.series_b, values_b, stats_cache)
                if job.row_range is not None:
                    start, stop = job.row_range
                else:
                    start, stop = 0, values.size - job.window + 1
                result = join_sweep_rows(
                    values,
                    values_b,
                    job.window,
                    start,
                    stop,
                    stats_a=stats,
                    stats_b=stats_b,
                    kernel=job.kernel,
                    reseed_interval=job.reseed_interval,
                )
            elif job.query_offset is not None:
                # Single-offset job: one distance profile (a MASS call), not
                # a full matrix profile.  No stats.forget(): many such jobs
                # share one window, so the cached per-window statistics are
                # the point.
                result = distance_profile(
                    values,
                    job.query_offset,
                    job.window,
                    stats=stats,
                    exclusion_radius=job.exclusion_radius,
                    apply_exclusion=job.exclusion_radius is not None,
                )
            else:
                # Job-level parallelism (one process per job) is the batch
                # layer's concern, so the job's blocks run serially rather
                # than spawning nested pools.
                result = partitioned_stomp(
                    values,
                    job.window,
                    executor="serial",
                    block_size=job.block_size,
                    kernel=job.kernel,
                    reseed_interval=job.reseed_interval,
                    exclusion_radius=job.exclusion_radius,
                    stats=stats,
                )
                # Keep the shared-stats cache bounded across a length sweep.
                stats.forget(job.window)
        except Exception as error:  # noqa: BLE001 - the whole point is isolation
            return ("error", error)
    return ("ok", result)


def _series_length(series: object) -> int | None:
    """Series length without materialising the data.

    Handles already know their length; attaching them in the parent just
    to size the work would copy a segment the parent never computes on.
    """
    if isinstance(series, SharedArraysHandle):
        for key, _offset, count in series.fields:
            if key == "values":
                return int(count)
        return None
    try:
        return int(validate_series(series).size)
    except Exception:  # invalid series fail per-job later, not here
        return None


def _prepare_parallel_tasks(
    job_list: List[ProfileJob],
) -> Tuple[List[ProfileJob], List[SharedSeriesBuffer]]:
    """Rewrite shared plain-array series onto handle transport.

    Jobs whose ``series`` is the *same array object* would each pickle the
    full O(n) array across the pool boundary — for a length sweep over one
    series that is O(n · jobs) of pure serialisation.  Groups of two or
    more such jobs get their series packed once into a
    :class:`~repro.engine.shm.SharedSeriesBuffer` and the jobs rewritten
    to reference its handle; singleton and already-handle-backed jobs pass
    through untouched.  Returns the (possibly rewritten) task list plus
    the buffers the caller must close after the map completes.

    The rewrite only changes the *transport*: outcomes still reference the
    caller's original jobs, and a packing failure (no shared memory)
    simply leaves the remaining jobs on the pickle path.

    Both series slots participate: a blocked AB-join fan-out shares *two*
    arrays across its jobs (``series`` and ``series_b``), and each becomes
    one buffer no matter how many jobs — or which field — reference it.
    """
    groups: Dict[int, List[Tuple[int, str]]] = {}
    for index, job in enumerate(job_list):
        for field in ("series", "series_b"):
            series = getattr(job, field)
            if series is None or isinstance(series, SharedArraysHandle):
                continue
            groups.setdefault(id(series), []).append((index, field))

    tasks = list(job_list)
    buffers: List[SharedSeriesBuffer] = []
    for references in groups.values():
        if len(references) < 2:
            continue
        first_index, first_field = references[0]
        try:
            values = validate_series(getattr(job_list[first_index], first_field))
        except Exception:
            continue  # the job itself will surface the validation error
        buffer = SharedSeriesBuffer.create({"values": values})
        if buffer is None:  # shared memory unavailable: keep pickling
            break
        buffers.append(buffer)
        for index, field in references:
            tasks[index] = replace(tasks[index], **{field: buffer.handle})
    return tasks, buffers


def compute_profiles(
    jobs: Iterable[ProfileJob],
    *,
    executor: "str | Executor | None" = "auto",
    n_jobs: int | None = None,
) -> List[JobOutcome]:
    """Run many profile jobs through one executor, preserving job order.

    Parameters
    ----------
    jobs:
        The :class:`ProfileJob` list.  Jobs over the same series object
        share one :class:`~repro.stats.sliding.SlidingStats` when mapped
        in-process (see the module docstring).
    executor:
        ``"serial"``, ``"parallel"``, ``"auto"`` (default), ``None``, or
        an :class:`~repro.engine.executor.Executor` instance; ``"auto"``
        weighs the summed subsequence counts of all jobs.

    Returns
    -------
    list of JobOutcome
        One outcome per job, in submission order.  Failed jobs carry
        their exception in ``outcome.error``; the batch itself never
        raises for a per-job failure.
    """
    job_list = list(jobs)
    for job in job_list:
        if not isinstance(job, ProfileJob):
            raise InvalidParameterError(
                f"compute_profiles expects ProfileJob instances, got {type(job).__name__}"
            )
    if not job_list:
        return []

    task_units = 0
    for job in job_list:
        size = _series_length(job.series)
        if size is None:  # invalid series fail per-job later, not here
            continue
        if job.query_offset is not None:
            # One MASS call is O(n log n), i.e. ~log2(n) "profile rows".
            task_units += max(1, int(size).bit_length())
        elif job.row_range is not None:
            # Join block: one recurrence row per query offset of the block.
            task_units += max(1, job.row_range[1] - job.row_range[0])
        else:
            task_units += max(1, size - job.window + 1)

    chosen, owned = resolve_executor(executor, task_units=task_units, n_jobs=n_jobs)
    buffers: List[SharedSeriesBuffer] = []
    try:
        with obs.span("engine.batch", jobs=len(job_list)):
            tasks = job_list
            if chosen.uses_processes:
                # Deduplicate shared plain-array series onto handle
                # transport so the pool pickles bytes, not gigabytes.
                tasks, buffers = _prepare_parallel_tasks(job_list)
            raw = chosen.map(partial(_run_job, stats_cache={}), tasks)
    finally:
        for buffer in buffers:
            buffer.close()
            buffer.unlink()
        if owned:
            chosen.close()

    outcomes: List[JobOutcome] = []
    for index, (job, (status, payload)) in enumerate(zip(job_list, raw)):
        if status == "ok":
            outcomes.append(JobOutcome(index=index, job=job, result=payload))
        else:
            outcomes.append(JobOutcome(index=index, job=job, error=payload))
    return outcomes
