"""The service's multi-process data plane, pipelining, and /metrics.

Covers the PR-8 surface: blob-backed zero-copy process workers, the
in-flight-job shutdown fix, the partial-start unwind fix, keep-alive
request pipelining (in-order responses over one socket), the latency
histogram endpoint, and the flat-payload batch transport.

Single-core safe: correctness and ordering only — parallel *speedup* is
the throughput benchmark's job (core-count gated there).
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import pickle
import signal
import socket
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.api.cache import series_digest
from repro.api.registry import AlgorithmSpec, register, unregister
from repro.api.requests import AnalysisRequest
from repro.api.session import Analysis
from repro.engine.batch import ProfileJob, _prepare_parallel_tasks
from repro.engine.shm import (
    BlobHandle,
    SharedArraysHandle,
    attach_blob,
    shared_memory_available,
)
from repro.exceptions import InvalidParameterError, ServiceError, StoreError
from repro.harness.tables import metrics_rows
from repro.service import BackgroundService, ServiceClient, ServiceConfig
from repro.service.server import _LATENCY_BUCKET_BOUNDS, _METRIC_PHASES, AnalysisService
from repro.store import SeriesStore


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(11).standard_normal(512))


def _process_pools_work() -> bool:
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


# --------------------------------------------------------------------- #
# BlobHandle transport
# --------------------------------------------------------------------- #
class TestBlobHandle:
    def test_attach_is_zero_copy_and_verified(self, tmp_path, values):
        store = SeriesStore(tmp_path)
        digest = store.put(values)
        handle = store.handle(digest)
        assert isinstance(handle, BlobHandle)
        assert handle.digest == digest
        assert handle.length == values.size
        attached = attach_blob(handle)
        np.testing.assert_array_equal(attached, values)
        assert not attached.flags.writeable
        # Tiny on the wire: the whole point of the handle transport.
        assert len(pickle.dumps(handle)) < 512

    def test_attach_rejects_corruption(self, tmp_path):
        # Unique values: attach_blob caches by digest, so reusing the module
        # fixture would answer from the (healthy) cached copy.
        store = SeriesStore(tmp_path)
        digest = store.put(np.random.default_rng(7101).standard_normal(256))
        handle = store.handle(digest)
        blob = tmp_path / "blobs" / digest[:2] / f"{digest}.f64"
        data = bytearray(blob.read_bytes())
        data[0] ^= 0xFF
        blob.write_bytes(bytes(data))
        with pytest.raises(StoreError, match="corrupt"):
            attach_blob(handle)

    def test_attach_rejects_truncation(self, tmp_path):
        store = SeriesStore(tmp_path)
        digest = store.put(np.random.default_rng(7102).standard_normal(256))
        handle = store.handle(digest)
        blob = tmp_path / "blobs" / digest[:2] / f"{digest}.f64"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(StoreError):
            attach_blob(handle)

    def test_handle_for_unknown_digest_is_none(self, tmp_path):
        store = SeriesStore(tmp_path)
        assert store.handle("0" * 40) is None


# --------------------------------------------------------------------- #
# flat parallel payloads (the per-job O(n) pickle fix)
# --------------------------------------------------------------------- #
class TestFlatPayloads:
    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory on this platform"
    )
    def test_shared_series_jobs_are_rewritten_onto_handles(self, values):
        jobs = [ProfileJob(values, window=window) for window in (16, 24, 32, 48)]
        tasks, buffers = _prepare_parallel_tasks(jobs)
        try:
            assert len(tasks) == len(jobs)
            assert all(
                isinstance(task.series, SharedArraysHandle) for task in tasks
            )
            # The payload no longer scales with the series: each rewritten
            # job pickles to a fraction of the raw-array job.
            flat = max(len(pickle.dumps(task)) for task in tasks)
            fat = len(pickle.dumps(jobs[0]))
            assert flat < fat / 4
            assert flat < 2048
        finally:
            for buffer in buffers:
                buffer.close()
                buffer.unlink()

    def test_singleton_series_jobs_pass_through(self, values):
        other = values[:128].copy()
        jobs = [ProfileJob(values, window=16), ProfileJob(other, window=16)]
        tasks, buffers = _prepare_parallel_tasks(jobs)
        assert buffers == []
        assert tasks[0].series is values
        assert tasks[1].series is other


# --------------------------------------------------------------------- #
# shutdown fixes
# --------------------------------------------------------------------- #
class TestLifecycleFixes:
    def test_stop_fails_inflight_job_with_503(self, values):
        """A job already *executing* (not just queued) must have its future
        failed on stop — previously only queued jobs were failed and the
        connection handler hung forever."""
        release = threading.Event()
        entered = threading.Event()

        def parked_runner(session, **params):
            entered.set()
            release.wait(timeout=60)
            return 0.0

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_inflight",
                runner=parked_runner,
                description="test-only parked runner",
            )
        )
        statuses: dict[str, object] = {}
        try:
            background = BackgroundService(ServiceConfig(port=0, workers=1))
            background.__enter__()
            loop_thread = background._thread
            try:

                def post() -> None:
                    client = ServiceClient(port=background.port, timeout=120)
                    status, payload = client.analyze_raw(
                        values,
                        AnalysisRequest(kind="mpdist", algo="_test_inflight"),
                    )
                    statuses["status"] = status
                    statuses["payload"] = payload

                thread = threading.Thread(target=post)
                thread.start()
                assert entered.wait(timeout=60), "the job never started executing"
            finally:
                # Stop the service while the job is mid-run_in_executor.
                stopping = time.monotonic()
                background.__exit__(None, None, None)
                stop_seconds = time.monotonic() - stopping
            # stop() must not wait on the parked job's session lock: the
            # loop thread exits well inside __exit__'s 30 s join timeout.
            assert stop_seconds < 10, stop_seconds
            assert not loop_thread.is_alive(), "the event-loop thread outlived stop()"
            thread.join(timeout=60)
            assert not thread.is_alive(), "the client hung on an unresolved job"
            assert statuses["status"] == 503
            assert "shutting down" in statuses["payload"]["error"]
        finally:
            release.set()
            unregister("mpdist", "_test_inflight")

    def test_eviction_does_not_wait_on_a_busy_session(self, values):
        """With one session slot, a request for series B evicts series A's
        session while a job on A is still parked: B must answer without
        waiting for that job (eviction takes no session's slot lock)."""
        release = threading.Event()
        entered = threading.Event()

        def parked_runner(session, **params):
            entered.set()
            release.wait(timeout=30)
            return 0.0

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_evict",
                runner=parked_runner,
                description="test-only parked runner",
            )
        )
        statuses: dict[str, object] = {}
        try:
            with BackgroundService(
                ServiceConfig(port=0, workers=2, max_sessions=1)
            ) as background:

                def post_parked() -> None:
                    client = ServiceClient(port=background.port, timeout=120)
                    statuses["a"] = client.analyze_raw(
                        values, AnalysisRequest(kind="mpdist", algo="_test_evict")
                    )[0]

                thread = threading.Thread(target=post_parked)
                thread.start()
                assert entered.wait(timeout=60), "the job on A never started"
                client = ServiceClient(port=background.port, timeout=120)
                started = time.monotonic()
                result, _ = client.analyze(
                    values[:256],
                    AnalysisRequest(kind="matrix_profile", params={"window": 32}),
                )
                elapsed = time.monotonic() - started
                assert not release.is_set()
                assert elapsed < 10, elapsed
                assert result.value.distances.shape == (256 - 32 + 1,)
                release.set()
                thread.join(timeout=60)
                assert not thread.is_alive()
                assert statuses["a"] == 200
        finally:
            release.set()
            unregister("mpdist", "_test_evict")

    def test_stop_with_idle_keepalive_client_logs_no_traceback(self, values, caplog):
        """Stopping under an idle kept-alive connection closes it cleanly:
        the handler leaves through its EOF path instead of being cancelled
        by the loop teardown (whose streams callback logs a CancelledError
        traceback), and the client's next call fails fast."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
                client = ServiceClient(port=background.port, timeout=30)
                client.analyze(
                    values, AnalysisRequest(kind="matrix_profile", params={"window": 32})
                )
        errors = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == [], [record.getMessage() for record in errors]
        started = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert time.monotonic() - started < 10
        client.close()

    def test_start_unwinds_on_bind_conflict(self):
        """A bind failure (port in use) must not leak the executor or the
        worker tasks; the same config retried on a free port must work."""

        async def scenario() -> None:
            blocker = socket.socket()
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            taken_port = blocker.getsockname()[1]
            try:
                service = AnalysisService(
                    ServiceConfig(host="127.0.0.1", port=taken_port)
                )
                with pytest.raises(OSError):
                    await service.start()
                assert service._workers == []
                assert service._executor is None
                assert service._compute is None
            finally:
                blocker.close()
            retry = AnalysisService(ServiceConfig(host="127.0.0.1", port=0))
            await retry.start()
            try:
                assert retry.port > 0
            finally:
                await retry.stop()

        asyncio.run(scenario())


# --------------------------------------------------------------------- #
# pipelining
# --------------------------------------------------------------------- #
def _http_post(path: str, document: dict) -> bytes:
    body = json.dumps(document).encode("utf-8")
    return (
        f"POST {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def _read_response(stream) -> tuple[int, dict]:
    status_line = stream.readline()
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, json.loads(stream.read(length).decode("utf-8"))


class TestPipelining:
    def test_pipelined_responses_arrive_in_request_order(self, values):
        """Two requests stuffed down one socket: the second (fast) one
        completes while the first is parked, yet the responses come back in
        request order with clean framing."""
        release = threading.Event()
        entered = threading.Event()

        def parked_runner(session, **params):
            entered.set()
            release.wait(timeout=60)
            return 1.0

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_pipeline",
                runner=parked_runner,
                description="test-only parked runner",
            )
        )
        try:
            with BackgroundService(
                ServiceConfig(port=0, workers=2, backlog=8)
            ) as background:
                series = values.tolist()
                slow = _http_post(
                    "/analyze",
                    {
                        "id": "slow",
                        "series": series,
                        "request": {"kind": "mpdist", "algo": "_test_pipeline"},
                    },
                )
                fast = _http_post(
                    "/analyze",
                    {
                        "id": "fast",
                        # A *different* series: same-digest jobs share one
                        # session (and its lock), which would serialise the
                        # fast job behind the parked one.
                        "series": series[:256],
                        "request": {
                            "kind": "matrix_profile",
                            "params": {"window": 32},
                        },
                    },
                )
                poll = ServiceClient(port=background.port, timeout=30)
                with socket.create_connection(
                    ("127.0.0.1", background.port), timeout=120
                ) as raw:
                    raw.sendall(slow + fast)  # both on the wire at once
                    assert entered.wait(timeout=60)
                    # The fast request completes while the slow one is
                    # still parked — the reader kept draining the socket.
                    deadline = time.monotonic() + 60
                    while time.monotonic() < deadline:
                        if poll.stats()["completed"] >= 1:
                            break
                        time.sleep(0.01)
                    assert poll.stats()["completed"] >= 1
                    assert not release.is_set()
                    release.set()
                    stream = raw.makefile("rb")
                    first = _read_response(stream)
                    second = _read_response(stream)
                assert first[0] == 200 and second[0] == 200
                # Response order is request order, not completion order.
                assert first[1]["id"] == "slow"
                assert second[1]["id"] == "fast"
                order = poll.stats()["completion_order"]
                assert order == [2, 1]
        finally:
            release.set()
            unregister("mpdist", "_test_pipeline")


# --------------------------------------------------------------------- #
# /metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_schema_and_monotonicity(self, values):
        with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
            client = ServiceClient(port=background.port, timeout=120)
            request = AnalysisRequest(kind="matrix_profile", params={"window": 32})
            client.analyze(values, request)
            first = client.metrics()
            assert first["bounds"] == list(_LATENCY_BUCKET_BOUNDS)
            assert first["phases"] == list(_METRIC_PHASES)
            histograms = first["kinds"]["matrix_profile"]
            for phase in _METRIC_PHASES:
                histogram = histograms[phase]
                assert histogram["count"] == 1
                assert sum(histogram["counts"]) == histogram["count"]
                assert len(histogram["counts"]) == len(first["bounds"]) + 1
                assert histogram["sum"] >= 0.0
            # Cache hits are observed too; counters only ever grow.
            client.analyze(values, request)
            second = client.metrics()
            for phase in _METRIC_PHASES:
                assert (
                    second["kinds"]["matrix_profile"][phase]["count"]
                    == 2
                )
            stats = client.stats()
            summary = stats["latency"]["matrix_profile"]["total"]
            assert summary["count"] == 2
            assert summary["p50"] is not None
            assert summary["p95"] >= summary["p50"]

    def test_metrics_rows_flattens_the_document(self, values):
        with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
            client = ServiceClient(port=background.port, timeout=120)
            client.analyze(
                values, AnalysisRequest(kind="matrix_profile", params={"window": 16})
            )
            rows = metrics_rows(client.metrics())
        assert {row["phase"] for row in rows} == set(_METRIC_PHASES)
        for row in rows:
            assert row["kind"] == "matrix_profile"
            assert row["count"] == 1
            assert row["p95"] >= row["p50"] > 0


# --------------------------------------------------------------------- #
# the process data plane, end to end
# --------------------------------------------------------------------- #
class TestProcessWorkers:
    @pytest.mark.skipif(
        not _process_pools_work(), reason="process pools unavailable here"
    )
    def test_zero_copy_end_to_end(self, tmp_path, values):
        config = ServiceConfig(
            port=0,
            workers=2,
            worker_kind="process",
            store_dir=tmp_path / "series",
        )
        with BackgroundService(config) as background:
            client = ServiceClient(port=background.port, timeout=300)
            request = AnalysisRequest(kind="matrix_profile", params={"window": 48})
            result, source = client.analyze(values, request)
            assert source == "computed"
            stats = client.stats()
            assert stats["worker_kind"] == "process"
            # The worker attached the store blob instead of unpickling the
            # values — the zero-copy counter proves the path was taken.
            assert stats["zero_copy_jobs"] >= 1
            # Adoption: the repeat answers from the parent's memory cache
            # without another process round-trip.
            again, source_again = client.analyze(values, request)
            assert source_again == "memory"
            # And the answer matches the in-process oracle exactly.
            oracle = Analysis(values).matrix_profile(48)
            np.testing.assert_allclose(
                np.asarray(result.payload.distances),
                np.asarray(oracle.payload.distances),
                atol=1e-8,
            )
            # Digest-string analyze: the client never holds the values.
            digest = series_digest(values)
            via_digest, digest_source = client.analyze(digest, request)
            assert digest_source == "memory"
            np.testing.assert_allclose(
                np.asarray(via_digest.payload.distances),
                np.asarray(oracle.payload.distances),
                atol=1e-8,
            )

    @pytest.mark.skipif(
        not _process_pools_work(), reason="process pools unavailable here"
    )
    def test_errors_cross_the_pool_boundary(self, values):
        config = ServiceConfig(port=0, workers=1, worker_kind="process")
        with BackgroundService(config) as background:
            client = ServiceClient(port=background.port, timeout=300)
            status, payload = client.analyze_raw(
                values,
                AnalysisRequest(
                    kind="matrix_profile", params={"window": 10**9}
                ),
            )
            assert status == 422
            assert "error" in payload

    @pytest.mark.skipif(
        not _process_pools_work(), reason="process pools unavailable here"
    )
    def test_dead_worker_fails_one_request_then_the_pool_respawns(self, values):
        """A worker killed mid-job answers that request with a 500; the
        executor drops the broken pool, so later requests run on a fresh
        one instead of answering 500 forever."""
        parent = os.getpid()

        def killing_runner(session, **params):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the worker-killing runner ran in the parent")

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_kill_worker",
                runner=killing_runner,
                description="test-only runner that kills its worker process",
            )
        )
        try:
            config = ServiceConfig(port=0, workers=1, worker_kind="process")
            with BackgroundService(config) as background:
                client = ServiceClient(port=background.port, timeout=300)
                if client.stats()["worker_kind"] != "process":
                    pytest.skip("the service degraded to thread workers")
                status, _ = client.analyze_raw(
                    values, AnalysisRequest(kind="mpdist", algo="_test_kill_worker")
                )
                assert status == 500
                for window in (16, 24, 32):
                    status, payload = client.analyze_raw(
                        values,
                        AnalysisRequest(kind="matrix_profile", params={"window": window}),
                    )
                    assert status == 200, payload
        finally:
            unregister("mpdist", "_test_kill_worker")

    def test_degrades_to_threads_where_pools_fail(self, values, monkeypatch):
        """worker_kind='process' on a pool-hostile platform must start (with
        the engine's degradation warning) and serve on threads."""
        import repro.engine.executor as executor_module

        class _Exploding:
            def __init__(self, *args, **kwargs):
                raise OSError("no process pools here")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _Exploding)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            with BackgroundService(
                ServiceConfig(port=0, workers=1, worker_kind="process")
            ) as background:
                client = ServiceClient(port=background.port, timeout=120)
                result, _ = client.analyze(
                    values,
                    AnalysisRequest(kind="matrix_profile", params={"window": 32}),
                )
                assert client.stats()["worker_kind"] == "thread"
        oracle = Analysis(values).matrix_profile(32)
        np.testing.assert_allclose(
            np.asarray(result.payload.distances),
            np.asarray(oracle.payload.distances),
            atol=1e-8,
        )


class TestClientDigestStrings:
    def test_unknown_digest_stays_404(self, tmp_path):
        config = ServiceConfig(port=0, store_dir=tmp_path / "series")
        with BackgroundService(config) as background:
            client = ServiceClient(port=background.port, timeout=60)
            status, payload = client.analyze_raw(
                "f" * 40,
                AnalysisRequest(kind="matrix_profile", params={"window": 8}),
            )
            assert status == 404
            assert payload["unknown_digest"] == "f" * 40

    def test_digest_string_rejects_values_transport(self):
        client = ServiceClient(port=1)
        with pytest.raises(InvalidParameterError, match="values"):
            client.analyze_raw(
                "f" * 40,
                AnalysisRequest(kind="matrix_profile", params={"window": 8}),
                transport="values",
            )
