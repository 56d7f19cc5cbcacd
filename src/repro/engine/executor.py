"""Pluggable executors for block- and job-level parallelism.

The engine separates *what* is computed (the block plan built by
:mod:`repro.engine.partition`, the job list handled by
:mod:`repro.engine.batch`) from *how* the pieces run.  An
:class:`Executor` maps a picklable function over a list of picklable
tasks and returns the results **in task order** — that ordering guarantee
is what makes the engine's merges exact: the caller can concatenate or
zip the results positionally without any reordering bookkeeping.

Two concrete executors are provided:

* :class:`SerialExecutor` — a plain in-process loop.  It is the default
  and the correctness oracle.
* :class:`ParallelExecutor` — a :class:`concurrent.futures.ProcessPoolExecutor`
  wrapper.  The pool is created lazily on first use and *reused* across
  calls, so a test suite (or a batch of jobs) pays the worker start-up
  cost once.  If the platform refuses to create a process pool (some
  sandboxes block the required semaphores), it degrades to serial
  execution rather than failing.  A worker that dies (OOM, ``kill -9``)
  breaks the pool: the call that hit the death raises
  :class:`~concurrent.futures.process.BrokenProcessPool`, and the pool is
  dropped so the next ``map``/``submit`` spawns a fresh one
  (``engine.executor.pool_respawns`` counts the drops).

:meth:`ParallelExecutor.map` is the only code in the engine that knows a
task crossed a process boundary.  It stamps every task with the caller's
observability context (:func:`repro.obs.current_payload`), runs the task
in the worker under that context — one ``engine.executor.queue`` span and
one ``engine.executor.queue_seconds`` observation per task — and folds
each worker's spans and metric delta back in before it returns plain
results.  Callers map the same function over the same tasks whichever
executor they hold.

:func:`auto_executor` picks between the two from the problem size: below
``AUTO_PARALLEL_MIN_TASK_UNITS`` units of work the per-task pickling and
scheduling overhead of a process pool outweighs any speedup, so the
serial executor is chosen; likewise when the machine has a single core.
"""

from __future__ import annotations

import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing import resource_tracker
from typing import Callable, List, Sequence

from repro import obs
from repro.exceptions import InvalidParameterError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "auto_executor",
    "resolve_executor",
    "AUTO_PARALLEL_MIN_TASK_UNITS",
]

#: Below this many "work units" (subsequences for a profile computation,
#: summed subsequence counts for a batch) the auto-selector stays serial:
#: measured on commodity hardware, a process pool only amortises its fork
#: + pickle overhead once a profile has several thousand rows.
AUTO_PARALLEL_MIN_TASK_UNITS = 8192

_EXECUTOR_METRICS = obs.scope("engine.executor")
_POOL_SPAWNS = _EXECUTOR_METRICS.counter("pool_spawns")
_POOL_DEGRADES = _EXECUTOR_METRICS.counter("pool_degrades")
_POOL_RESPAWNS = _EXECUTOR_METRICS.counter("pool_respawns")
_QUEUE_SECONDS = _EXECUTOR_METRICS.histogram("queue_seconds")
_PREWARM_SECONDS = _EXECUTOR_METRICS.gauge("prewarm_seconds")


def _cpu_count() -> int:
    return os.cpu_count() or 1


def _worker_ping(_index: int = 0) -> int:
    """Trivial pool task used by :meth:`ParallelExecutor.prewarm`."""
    return os.getpid()


def _traced_task(fn: Callable, context: tuple, enqueued_at: float, task):
    """Run ``fn(task)`` in a pool worker under the dispatcher's obs context.

    Returns ``(result, harvest)``: the harvest blob (spans plus metric
    delta, ``None`` when nothing was recorded) is what
    :meth:`ParallelExecutor.map` absorbs in the parent.
    """
    with obs.remote_task(context, skip_same_process=True) as remote:
        queued = max(0.0, time.time() - enqueued_at)
        _QUEUE_SECONDS.observe(queued)
        obs.record_span("engine.executor.queue", enqueued_at, queued)
        result = fn(task)
    return result, remote.harvest()


class Executor:
    """Interface: map a function over tasks, preserving task order."""

    #: Human-readable name, recorded in benchmark artefacts.
    name: str = "abstract"

    @property
    def effective_jobs(self) -> int:
        """Worker count the block planner should size blocks for."""
        return 1

    @property
    def uses_processes(self) -> bool:
        """Whether :meth:`map` will cross a process boundary.

        Callers use this to decide whether cross-process transports
        (shared-memory payloads) are worth setting up.
        """
        return False

    def map(self, fn: Callable, tasks: Sequence) -> List:
        """Apply ``fn`` to every task and return results in task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """In-process, in-order execution — the default and the oracle."""

    name = "serial"

    def map(self, fn: Callable, tasks: Sequence) -> List:
        return [fn(task) for task in tasks]


class ParallelExecutor(Executor):
    """Process-pool execution with a lazily created, reusable pool.

    Parameters
    ----------
    n_jobs:
        Number of worker processes; defaults to ``os.cpu_count()``.

    Notes
    -----
    Tasks and results cross process boundaries by pickling, so both must
    be picklable and the mapped function must be importable at module
    top level.  Results are returned in task order (``pool.map``
    semantics), which the engine's exact merges rely on.
    """

    name = "parallel"

    def __init__(self, n_jobs: int | None = None) -> None:
        if n_jobs is not None and n_jobs < 1:
            raise InvalidParameterError(f"n_jobs must be >= 1, got {n_jobs}")
        self.n_jobs = int(n_jobs) if n_jobs is not None else _cpu_count()
        self._pool: ProcessPoolExecutor | None = None
        self._degraded = False

    @property
    def effective_jobs(self) -> int:
        return max(1, self.n_jobs)

    @property
    def uses_processes(self) -> bool:
        """True only when a pool actually exists (forces lazy creation).

        A degraded executor runs tasks in-process, where shared-memory
        transport would be pure overhead: every task would copy back out
        the arrays the parent already holds (see
        :func:`repro.engine.shm.attach_arrays`).
        """
        return self._ensure_pool() is not None

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._degraded:
            return None
        if self._pool is None:
            try:
                # Start the shared-memory resource tracker before the
                # workers fork, so they inherit it; a worker that starts its
                # own tracker warns at exit about segments the parent unlinked.
                resource_tracker.ensure_running()
                self._pool = ProcessPoolExecutor(max_workers=self.n_jobs)
                _POOL_SPAWNS.inc()
            except (OSError, PermissionError, ValueError) as error:
                # Restricted environments (no /dev/shm, seccomp sandboxes)
                # cannot host a pool; computing serially is always correct.
                warnings.warn(
                    f"ParallelExecutor could not start a process pool ({error}); "
                    "falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=3,
                )
                self._degraded = True
                _POOL_DEGRADES.inc()
        return self._pool

    def prewarm(self) -> float:
        """Spawn the pool and ping every worker once, eagerly.

        Interpreter start-up in the workers normally lands on the first
        real ``map`` call; a service that wants predictable first-request
        latency calls this at boot instead (``repro serve --prewarm``).
        Returns the wall-clock seconds spent (also published as the
        ``engine.executor.prewarm_seconds`` gauge).  A degraded executor
        returns ``0.0`` — there is nothing to warm.
        """
        started = time.perf_counter()
        pool = self._ensure_pool()
        if pool is None:
            return 0.0
        with obs.span("engine.executor.prewarm", workers=self.n_jobs):
            # One trivial task per worker forces every process to finish
            # bootstrapping; chunksize=1 stops a single worker draining
            # the whole batch before its siblings have even started.
            list(pool.map(_worker_ping, range(self.n_jobs), chunksize=1))
        elapsed = time.perf_counter() - started
        _PREWARM_SECONDS.set(elapsed)
        return elapsed

    def _drop(self, pool: ProcessPoolExecutor) -> None:
        """Forget ``pool`` after a worker died, so the next call respawns."""
        if self._pool is pool:
            self._pool = None
            _POOL_RESPAWNS.inc()
            pool.shutdown(wait=False, cancel_futures=True)

    def _drop_if_broken(self, pool: ProcessPoolExecutor, future) -> None:
        if not future.cancelled() and isinstance(future.exception(), BrokenProcessPool):
            self._drop(pool)

    def map(self, fn: Callable, tasks: Sequence) -> List:
        """Pool map that carries the caller's trace and metrics context
        (see the module docstring); in-process when the pool degraded."""
        pool = self._ensure_pool()
        if pool is None:
            return [fn(task) for task in tasks]
        context = obs.current_payload()
        call = fn if context is None else partial(_traced_task, fn, context, time.time())
        try:
            outputs = list(pool.map(call, tasks))
        except BrokenProcessPool:
            self._drop(pool)
            raise
        if context is None:
            return outputs
        results = []
        for result, harvest in outputs:
            obs.absorb(harvest)
            results.append(result)
        return results

    def submit(self, fn: Callable, /, *args):
        """Schedule one call on the pool; returns its ``concurrent.futures``
        future.

        The submission half of the :class:`concurrent.futures.Executor`
        interface, which is what lets ``loop.run_in_executor`` drive this
        pool directly (the analysis service's process data plane).  A
        degraded executor raises instead of silently running ``fn`` inline —
        inline execution during ``submit`` would block the caller's event
        loop, the exact failure mode the pool exists to prevent; callers
        check :attr:`uses_processes` first and fall back themselves.  Unlike
        :meth:`map`, the call carries no trace context: the caller stamps
        and absorbs its own.  A future that fails with ``BrokenProcessPool``
        drops the pool before the caller sees the failure.
        """
        pool = self._ensure_pool()
        if pool is None:
            raise InvalidParameterError(
                "this ParallelExecutor degraded to in-process execution; "
                "submit() needs a live process pool (check uses_processes)"
            )
        future = pool.submit(fn, *args)
        future.add_done_callback(partial(self._drop_if_broken, pool))
        return future

    def close(self, *, wait: bool = True, cancel_futures: bool = False) -> None:
        """Shut the pool down.  ``wait=False`` + ``cancel_futures=True`` is
        the service-shutdown flavour: pending tasks are dropped and the
        call returns without blocking on in-flight computations."""
        # Read the pool once: a dead worker's callback may drop it meanwhile.
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=cancel_futures)


def auto_executor(
    task_units: int,
    n_jobs: int | None = None,
    *,
    threshold: int = AUTO_PARALLEL_MIN_TASK_UNITS,
) -> Executor:
    """Pick serial vs parallel execution from the problem size.

    ``task_units`` should approximate the total number of output rows the
    computation produces (subsequence count for one profile, summed counts
    for a batch).  Parallel execution is selected only when the machine
    has more than one core, more than one job was requested (or left to
    default), and the work is large enough to amortise the pool overhead.
    """
    jobs = int(n_jobs) if n_jobs is not None else _cpu_count()
    if jobs <= 1 or task_units < threshold:
        return SerialExecutor()
    return ParallelExecutor(jobs)


def resolve_executor(
    engine: "str | Executor | None",
    *,
    task_units: int,
    n_jobs: int | None = None,
) -> tuple[Executor, bool]:
    """Resolve an ``engine=`` knob value into an executor.

    Accepts ``"serial"``, ``"parallel"``, ``"auto"``, ``None`` (same as
    ``"serial"``) or an :class:`Executor` instance.  Returns
    ``(executor, owned)`` where ``owned`` tells the caller whether it is
    responsible for closing the executor (instances passed in by the user
    are never closed by the engine).
    """
    if isinstance(engine, Executor):
        return engine, False
    if engine is None or engine == "serial":
        return SerialExecutor(), True
    if engine == "parallel":
        return ParallelExecutor(n_jobs), True
    if engine == "auto":
        return auto_executor(task_units, n_jobs), True
    raise InvalidParameterError(
        f"unknown engine {engine!r}; expected 'serial', 'parallel', 'auto' "
        "or an Executor instance"
    )
