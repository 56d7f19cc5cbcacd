"""The executor's process boundary: trace harvest and pool respawn.

``ParallelExecutor.map`` is the only engine code that knows a task crossed
a process boundary.  Pinned here:

* traced ``partitioned_stomp`` and ``compute_profiles`` runs on a
  two-worker pool build one trace tree, with ``kernel.sweep`` spans from
  both workers chained under the caller's root span;
* with tracing off, the parent's ``kernel.sweep_rows`` / ``engine.blocks``
  counters still grow by exactly the rows and blocks the workers swept
  (the per-layer benchmark figures read these counters);
* a worker killed mid-task fails that call with ``BrokenProcessPool``, and
  the next calls on the same executor run on a fresh pool;
* pool workers share the parent's shared-memory resource tracker, even
  when they fork before the parent has created any segment.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.engine import ParallelExecutor, ProfileJob, compute_profiles, plan_blocks
from repro.engine.partition import partitioned_stomp
from repro.matrix_profile.stomp import stomp

WINDOW = 32
BLOCK = 128
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(17).standard_normal(2048))


@pytest.fixture
def executor():
    """A prewarmed two-worker pool: both workers are up before the map."""
    pool = ParallelExecutor(n_jobs=2)
    try:
        if not pool.uses_processes:
            pytest.skip("no process pool on this platform")
        pool.prewarm()
        yield pool
    finally:
        pool.close()


@pytest.fixture
def metrics_on():
    was_enabled = obs.metrics_enabled()
    obs.set_metrics_enabled(True)
    try:
        yield
    finally:
        obs.set_metrics_enabled(was_enabled)


def _ancestor_names(events, leaf):
    """Span names from ``leaf`` up to its root, leaf first."""
    by_id = {event["span_id"]: event for event in events}
    names = []
    current = leaf
    while current is not None:
        names.append(current["name"])
        current = by_id.get(current.get("parent_id"))
    return names


def _assert_one_tree_from_both_workers(events, root: str) -> None:
    assert len({event["trace_id"] for event in events}) == 1
    sweeps = [event for event in events if event["name"] == "kernel.sweep"]
    assert sweeps
    assert os.getpid() not in {sweep["pid"] for sweep in sweeps}
    assert len({sweep["pid"] for sweep in sweeps}) >= 2
    for sweep in sweeps:
        chain = _ancestor_names(events, sweep)
        assert "engine.block" in chain, chain
        assert chain[-1] == root, chain


def _counters() -> dict:
    return obs.snapshot()["counters"]


def _grew(before: dict, after: dict, name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def _kill_own_process(_task) -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class TestTraceHarvest:
    def test_partitioned_stomp_sweeps_join_the_caller_tree(self, values, executor):
        with obs.trace() as collector:
            with obs.span("caller"):
                profile = partitioned_stomp(
                    values, WINDOW, executor=executor, block_size=BLOCK, kernel="oracle"
                )
        events = collector.spans()
        _assert_one_tree_from_both_workers(events, "caller")
        blocks = [event for event in events if event["name"] == "engine.block"]
        assert len(blocks) == len(plan_blocks(len(profile), BLOCK))
        assert "engine.executor.queue" in {event["name"] for event in events}

    def test_compute_profiles_sweeps_join_the_caller_tree(self, values, executor):
        jobs = [ProfileJob(values, window=window) for window in (24, 32, 40, 48)]
        with obs.trace() as collector:
            with obs.span("caller"):
                outcomes = compute_profiles(jobs, executor=executor)
        assert all(outcome.ok for outcome in outcomes)
        events = collector.spans()
        _assert_one_tree_from_both_workers(events, "caller")
        assert sum(event["name"] == "engine.job" for event in events) == len(jobs)

    def test_untraced_counters_count_every_worker_row_and_block(
        self, values, executor, metrics_on
    ):
        count = values.size - WINDOW + 1
        before = _counters()
        profile = partitioned_stomp(values, WINDOW, executor=executor, block_size=BLOCK)
        after = _counters()
        assert len(profile) == count
        assert _grew(before, after, "kernel.sweep_rows") == count
        assert _grew(before, after, "engine.blocks") == len(plan_blocks(count, BLOCK))

    def test_untraced_batch_counters_count_every_job(self, values, executor, metrics_on):
        windows = (24, 40)
        jobs = [ProfileJob(values, window=window, block_size=BLOCK) for window in windows]
        before = _counters()
        outcomes = compute_profiles(jobs, executor=executor)
        after = _counters()
        assert all(outcome.ok for outcome in outcomes)
        rows = [values.size - window + 1 for window in windows]
        assert _grew(before, after, "engine.jobs") == len(jobs)
        assert _grew(before, after, "kernel.sweep_rows") == sum(rows)
        assert _grew(before, after, "engine.blocks") == sum(
            len(plan_blocks(count, BLOCK)) for count in rows
        )


class TestDeadWorker:
    def test_held_executor_respawns_after_a_worker_dies(self, values, executor, metrics_on):
        before = _counters()
        with pytest.raises(BrokenProcessPool):
            executor.map(_kill_own_process, [0])
        reference = stomp(values, WINDOW)
        for _ in range(3):
            profile = partitioned_stomp(values, WINDOW, executor=executor, block_size=BLOCK)
            np.testing.assert_array_equal(profile.indices, reference.indices)
        assert _grew(before, _counters(), "engine.executor.pool_respawns") == 1


#: Runs in a fresh interpreter, so no resource tracker exists before the
#: prewarmed pool forks.  A worker with a tracker of its own warns at exit
#: about segments the parent already unlinked.
_TRACKER_SCRIPT = """
import numpy as np
import repro
from repro.engine import ParallelExecutor

values = np.cumsum(np.random.default_rng(0).standard_normal(3000))
reference = repro.stomp(values, 64)
with ParallelExecutor(2) as executor:
    if not executor.uses_processes:
        raise SystemExit("no-pool")
    executor.prewarm()
    for _ in range(3):
        profile = repro.stomp(values, 64, engine=executor)
        assert np.array_equal(profile.indices, reference.indices)
"""


def test_prewarmed_pool_workers_share_the_parents_resource_tracker():
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    run = subprocess.run(
        [sys.executable, "-c", _TRACKER_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if "no-pool" in run.stderr:
        pytest.skip("no process pool on this platform")
    assert run.returncode == 0, run.stderr
    assert "resource_tracker" not in run.stderr, run.stderr
