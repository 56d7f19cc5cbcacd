"""Shared-memory series transport: round-trip, fallback, engine wiring.

The acceptance criterion: :class:`~repro.engine.shm.SharedSeriesBuffer`
round-trips the series without per-task pickling when shared memory is
available, and falls back cleanly when it is not — both paths under test.
The fallback is forced deterministically by monkeypatching the module's
``shared_memory`` binding to ``None``, so the tests do not depend on the
host actually lacking ``/dev/shm``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.engine import shm as shm_module
from repro.engine.executor import ParallelExecutor
from repro.engine.partition import _block_task, partitioned_stomp
from repro.engine.shm import (
    SharedArraysHandle,
    SharedSeriesBuffer,
    attach_arrays,
    shared_memory_available,
)
from repro.exceptions import InvalidParameterError
from repro.matrix_profile.stomp import stomp
from repro.stats.sliding import SlidingStats

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory missing from this interpreter",
)


def _values(n: int = 400, seed: int = 9) -> np.ndarray:
    return np.cumsum(np.random.default_rng(seed).normal(size=n))


class TestBuffer:
    def test_round_trip_multiple_arrays(self):
        arrays = {
            "values": np.arange(64, dtype=np.float64),
            "means": np.linspace(-3, 3, 17),
            "stds": np.full(5, 2.5),
        }
        buffer = SharedSeriesBuffer.create(arrays)
        if buffer is None:
            pytest.skip("platform refuses shared-memory segments at runtime")
        try:
            attached = attach_arrays(buffer.handle)
            assert set(attached) == set(arrays)
            for key, original in arrays.items():
                np.testing.assert_array_equal(attached[key], original)
                assert not attached[key].flags.writeable
        finally:
            buffer.close()
            buffer.unlink()

    def test_handle_is_compact(self):
        """The whole point: the payload carries a name + offsets, not data."""
        import pickle

        buffer = SharedSeriesBuffer.create({"values": np.zeros(100_000)})
        if buffer is None:
            pytest.skip("platform refuses shared-memory segments at runtime")
        try:
            assert isinstance(buffer.handle, SharedArraysHandle)
            assert len(pickle.dumps(buffer.handle)) < 1024
            assert buffer.handle.total_elements == 100_000
        finally:
            buffer.close()
            buffer.unlink()

    def test_evicted_arrays_stay_valid(self):
        """Arrays from :func:`attach_arrays` are private copies: they stay
        equal after the creator closes and unlinks the segment.  (The
        zero-copy alternative fails this test with silent aliasing:
        ``SharedMemory.__del__`` closes the mapping on collection and the
        held view then reads whatever lands in the recycled pages.)"""
        buffer = SharedSeriesBuffer.create({"x": np.array([1.0, 2.0, 3.0])})
        if buffer is None:
            pytest.skip("platform refuses shared-memory segments at runtime")
        try:
            held = attach_arrays(buffer.handle)["x"]
        finally:
            buffer.close()
            buffer.unlink()
        np.testing.assert_array_equal(held, [1.0, 2.0, 3.0])

    def test_rejects_non_1d_arrays(self):
        with pytest.raises(InvalidParameterError, match="1-D"):
            SharedSeriesBuffer.create({"bad": np.zeros((3, 3))})

    def test_rejects_empty_mapping(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            SharedSeriesBuffer.create({})

    def test_create_returns_none_when_module_missing(self, monkeypatch):
        monkeypatch.setattr(shm_module, "_shared_memory", None)
        assert SharedSeriesBuffer.create({"x": np.arange(4.0)}) is None
        assert not shared_memory_available()
        with pytest.raises(InvalidParameterError, match="unavailable"):
            attach_arrays(SharedArraysHandle(shm_name="ghost", fields=(("x", 0, 4),)))


class TestEngineTransport:
    def test_block_task_accepts_handle_and_arrays_identically(self):
        """One block computed from a shared-memory handle and from plain
        arrays must be bit-identical — transport must not change math."""
        values = _values()
        stats = SlidingStats(values)
        window = 24
        sweep = stats.centered_values
        means, stds = stats.centered_mean_std(window)
        from repro.stats.fft import sliding_dot_product

        first_row = sliding_dot_product(sweep[:window], sweep)
        arrays = {
            "values": sweep,
            "means": means,
            "stds": stds,
            "first_row_dots": first_row,
        }
        direct = _block_task(
            ((sweep, means, stds, first_row), window, 6, 10, 60, 512, (4, 4, "tight"), None)
        )
        buffer = SharedSeriesBuffer.create(arrays)
        if buffer is None:
            pytest.skip("platform refuses shared-memory segments at runtime")
        try:
            via_shm = _block_task(
                (buffer.handle, window, 6, 10, 60, 512, (4, 4, "tight"), None)
            )
        finally:
            buffer.close()
            buffer.unlink()
        np.testing.assert_array_equal(direct[0], via_shm[0])
        np.testing.assert_array_equal(direct[1], via_shm[1])
        for key, value in direct[2].items():
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(value, via_shm[2][key], err_msg=key)
            else:
                assert value == via_shm[2][key], key

    def test_degraded_pool_skips_shared_memory(self, monkeypatch):
        """An in-process (degraded) pool must not set up shared memory at
        all: there is no process boundary, so every task would only copy
        back out the arrays the parent already holds."""
        from repro.engine import partition as partition_module

        calls = []

        def recording_create(arrays):
            calls.append(set(arrays))
            return None  # force the array-payload path either way

        monkeypatch.setattr(
            partition_module.SharedSeriesBuffer, "create", staticmethod(recording_create)
        )
        values = _values(300, seed=4)
        oracle = stomp(values, 16)

        executor = ParallelExecutor(n_jobs=2)
        executor._degraded = True  # what a sandboxed pool failure leaves behind
        with executor:
            profile = partitioned_stomp(values, 16, executor=executor, block_size=64)
        assert calls == []  # degraded => in-process => no segment created
        np.testing.assert_array_equal(profile.indices, oracle.indices)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ParallelExecutor(n_jobs=2) as healthy:
                if healthy.uses_processes:
                    partitioned_stomp(values, 16, executor=healthy, block_size=64)
                    assert calls  # a real pool does go through the transport

    def test_session_engine_calls_unlink_their_segment(self, monkeypatch):
        """A segment belongs to the engine call that packs it: a session on
        a process executor that is never closed leaves no segment behind
        after any call, and every call still matches the serial oracle."""
        from multiprocessing import shared_memory

        import repro

        created = []
        original = SharedSeriesBuffer.create.__func__

        def recording(cls, arrays):
            buffer = original(cls, arrays)
            if buffer is not None:
                created.append(buffer.name)
            return buffer

        monkeypatch.setattr(SharedSeriesBuffer, "create", classmethod(recording))
        values = _values(600, seed=21)
        oracle = stomp(values, 24)
        session = repro.analyze(
            values, engine=repro.EngineConfig(executor="parallel", n_jobs=2)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for call in range(2):
                profile = session.matrix_profile(24, cache=False).profile()
                if not created:
                    pytest.skip("no process pool or shared memory on this host")
                assert len(created) == call + 1, "one segment per engine call"
                with pytest.raises(FileNotFoundError):
                    shared_memory.SharedMemory(name=created[-1], create=False)
                np.testing.assert_array_equal(profile.indices, oracle.indices)
                np.testing.assert_allclose(
                    profile.distances, oracle.distances, atol=1e-8
                )
        assert not session.closed

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_parallel_profile_matches_oracle_on_both_transports(
        self, monkeypatch, force_fallback
    ):
        """The engine result must not depend on the transport: shared
        memory when available, pickled arrays when forced off."""
        if force_fallback:
            monkeypatch.setattr(shm_module, "_shared_memory", None)
        values = _values(500, seed=12)
        oracle = stomp(values, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ParallelExecutor(n_jobs=2) as executor:
                profile = partitioned_stomp(
                    values, 20, executor=executor, block_size=90
                )
        np.testing.assert_array_equal(profile.indices, oracle.indices)
        np.testing.assert_allclose(profile.distances, oracle.distances, atol=1e-8)
