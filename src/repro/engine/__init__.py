"""Block-partitioned parallel execution engine.

This package decouples the matrix-profile algorithms from the way their
work is scheduled:

* :mod:`repro.engine.partition` — the block decomposition of STOMP: the
  query range is split into contiguous row blocks, each seeded by one
  FFT-based MASS call and advanced with the dot-product recurrence, so
  blocks are independent and their results concatenate into the exact
  profile (see that module's docstring for the exactness argument).
* :mod:`repro.engine.executor` — pluggable executors
  (:class:`SerialExecutor`, process-pool backed :class:`ParallelExecutor`,
  :func:`auto_executor` selection by problem size) that map picklable
  tasks and preserve task order; the parallel ``map`` carries the trace
  context across the process boundary and respawns a pool a dead worker
  broke.
* :mod:`repro.engine.batch` — :func:`compute_profiles`: many
  (series, window) jobs through one executor, with shared
  sliding-statistics reuse and per-job error isolation.
* :mod:`repro.engine.shm` — :class:`SharedSeriesBuffer`: the block
  arrays packed once per engine call into a ``multiprocessing.shared_memory``
  segment that the call unlinks when its map returns, so process-pool
  payloads carry a name instead of pickled O(n) arrays, with automatic
  fallback to pickling when shared memory is unavailable.

The serial single-sweep implementations remain the defaults and the
correctness oracles everywhere; the engine is opted into with the
``engine=`` / ``n_jobs=`` knobs on :func:`repro.stomp`,
:func:`repro.valmod`, :func:`repro.skimp`, :func:`repro.stomp_range`
and the ``--engine`` / ``--jobs`` CLI flags.
"""

from repro.engine.batch import JobOutcome, ProfileJob, compute_profiles
from repro.engine.executor import (
    AUTO_PARALLEL_MIN_TASK_UNITS,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    auto_executor,
    resolve_executor,
)
from repro.engine.partition import (
    DEFAULT_RESEED_INTERVAL,
    default_block_size,
    partitioned_stomp,
    plan_blocks,
)
from repro.engine.shm import (
    BlobHandle,
    SharedArraysHandle,
    SharedSeriesBuffer,
    attach_arrays,
    attach_blob,
    shared_memory_available,
)

__all__ = [
    "AUTO_PARALLEL_MIN_TASK_UNITS",
    "BlobHandle",
    "DEFAULT_RESEED_INTERVAL",
    "Executor",
    "JobOutcome",
    "ParallelExecutor",
    "ProfileJob",
    "SerialExecutor",
    "SharedArraysHandle",
    "SharedSeriesBuffer",
    "attach_arrays",
    "attach_blob",
    "auto_executor",
    "compute_profiles",
    "default_block_size",
    "partitioned_stomp",
    "plan_blocks",
    "resolve_executor",
    "shared_memory_available",
]
