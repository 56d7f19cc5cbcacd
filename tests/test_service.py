"""Service-layer substrate: protocol, concurrency, ordering, backpressure.

Single-core safe by design: the concurrency tests assert **correctness and
queue ordering** (every concurrent client gets the right answer; with one
worker the completion order is the enqueue order), never parallel speedup.
Backpressure is exercised deterministically by parking a synthetic
registry algorithm on an event and filling the bounded queue behind it.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

import numpy as np
import pytest

import repro
import repro.service.server as server_module
from repro.api.cache import CacheConfig, series_digest
from repro.api.registry import AlgorithmSpec, register, unregister
from repro.api.requests import AnalysisRequest
from repro.cli import main as cli_main
from repro.exceptions import InvalidParameterError, ServiceError
from repro.harness.runner import compare_algorithms
from repro.io.frame import MEDIA_TYPE as FRAME_MEDIA_TYPE
from repro.io.frame import decode_frame
from repro.matrix_profile import _native
from repro.matrix_profile.kernels import KERNEL_ENV, resolve_kernel
from repro.service import (
    BackgroundService,
    ServiceClient,
    ServiceConfig,
    parse_service_url,
)


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(23).standard_normal(400))


@pytest.fixture(scope="module")
def service():
    with BackgroundService(ServiceConfig(port=0, workers=1, backlog=32)) as background:
        yield background


@pytest.fixture(scope="module")
def client(service) -> ServiceClient:
    return ServiceClient(port=service.port)


def _mp_request(window: int) -> AnalysisRequest:
    return AnalysisRequest(kind="matrix_profile", params={"window": window})


def _raw_analyze(port: int, document: dict, accept: str | None = None):
    """One ``POST /analyze`` on its own connection: ``(status, headers, body)``."""
    connection = HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"}
        if accept is not None:
            headers["Accept"] = accept
        connection.request(
            "POST", "/analyze", body=json.dumps(document).encode(), headers=headers
        )
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


# --------------------------------------------------------------------- #
# protocol surface
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 1 and health["backlog"] == 32
        assert health["kernel"] == resolve_kernel(None)
        if _native.available():
            assert health["native_rows"] in ("avx2", "scalar")
            assert health["native_unavailable"] is None

    def test_health_without_the_native_kernel(self, monkeypatch):
        """``REPRO_NO_NATIVE=1``: numpy is in effect, and /health says why."""
        monkeypatch.setenv(_native.DISABLE_ENV, "1")
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        _native.reset()
        try:
            with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
                health = ServiceClient(port=background.port).health()
        finally:
            monkeypatch.undo()
            _native.reset()
        assert health["kernel"] == "numpy"
        assert health["native_rows"] is None
        assert _native.DISABLE_ENV in health["native_unavailable"]

    def test_capabilities_mirror_the_registry(self, client):
        listed = {(entry["kind"], entry["key"]) for entry in client.capabilities()}
        local = {(entry["kind"], entry["key"]) for entry in repro.api.capabilities()}
        assert listed == local

    def test_analyze_round_trip_matches_direct_session(self, client, values):
        served, source = client.analyze(values, _mp_request(48))
        assert source == "computed"
        direct = repro.analyze(values).matrix_profile(48).profile()
        np.testing.assert_allclose(served.profile().distances, direct.distances)
        np.testing.assert_array_equal(served.profile().indices, direct.indices)

    def test_repeated_request_hits_the_session_cache(self, client, values):
        client.analyze(values, _mp_request(52))
        _, source = client.analyze(values, _mp_request(52))
        assert source == "memory"

    def test_alias_spelling_shares_the_cache_slot(self, client, values):
        client.analyze(
            values,
            AnalysisRequest(
                kind="motifs", algo="stomp_range", params={"min_length": 16, "max_length": 18}
            ),
        )
        _, source = client.analyze(
            values,
            AnalysisRequest(
                kind="motifs", algo="stomp-range", params={"min_length": 16, "max_length": 18}
            ),
        )
        assert source == "memory"

    def test_dataseries_submission_carries_the_name(self, client):
        series = repro.DataSeries(
            np.cumsum(np.random.default_rng(5).standard_normal(200)), name="labelled"
        )
        served, _ = client.analyze(series, _mp_request(24))
        assert served.series_name == "labelled"

    def test_bad_json_body_is_400(self, client, values):
        status, payload = client._exchange("POST", "/analyze", b"{ nope")
        assert status == 400 and "JSON" in payload["error"]

    def test_missing_series_is_400(self, client):
        body = json.dumps({"request": {"kind": "matrix_profile"}}).encode()
        status, payload = client._exchange("POST", "/analyze", body)
        assert status == 400 and "series" in payload["error"]

    def test_malformed_params_shape_is_400_not_dropped_connection(
        self, client, values
    ):
        # params as a list used to raise an uncaught ValueError inside the
        # handler and drop the connection; it must answer 400.
        status, payload = client.analyze_raw(
            values, {"kind": "matrix_profile", "params": [1, 2]}
        )
        assert status in (400, 422) and "error" in payload

    def test_unknown_kind_is_422(self, client, values):
        status, payload = client.analyze_raw(values, {"kind": "nope", "params": {}})
        assert status == 422 and "unknown analysis kind" in payload["error"]

    def test_invalid_window_is_422(self, client, values):
        status, payload = client.analyze_raw(values, _mp_request(10_000))
        assert status == 422

    def test_unknown_path_is_404_and_wrong_method_is_405(self, client):
        status, _ = client._exchange("GET", "/nothing")
        assert status == 404
        status, _ = client._exchange("GET", "/analyze")
        assert status == 405

    def test_url_parsing(self):
        assert parse_service_url("http://localhost:8765") == ("localhost", 8765)
        assert parse_service_url("127.0.0.1:90") == ("127.0.0.1", 90)
        assert parse_service_url("http://host") == ("host", 80)
        with pytest.raises(ServiceError):
            parse_service_url("https://host:1")
        with pytest.raises(ServiceError):
            parse_service_url("http://host:1/path")

    def test_client_raises_service_error_when_nothing_listens(self, values):
        lonely = ServiceClient(port=1, timeout=2)
        with pytest.raises(ServiceError):
            lonely.health()


# --------------------------------------------------------------------- #
# concurrency and ordering
# --------------------------------------------------------------------- #
class TestConcurrency:
    def test_concurrent_clients_all_get_correct_results(self, service, values):
        windows = [20 + 2 * i for i in range(8)]
        outcomes: dict[int, tuple] = {}
        errors: list = []

        def post(window: int) -> None:
            try:
                local = ServiceClient(port=service.port)
                outcomes[window] = local.analyze(values, _mp_request(window))
            except Exception as error:  # surfaced after join
                errors.append(error)

        threads = [threading.Thread(target=post, args=(w,)) for w in windows]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert sorted(outcomes) == windows
        session = repro.analyze(values)
        for window in windows:
            served, _source = outcomes[window]
            direct = session.matrix_profile(window).profile()
            np.testing.assert_allclose(served.profile().distances, direct.distances)

    def test_single_worker_completion_order_is_enqueue_order(self, service, client):
        order = client.stats()["completion_order"]
        assert order == sorted(order)

    def test_queue_is_fifo_under_backpressure(self, values):
        """Deterministic ordering: park the worker, queue three distinct
        requests, release — they must complete in enqueue order."""
        release = threading.Event()

        def blocking_runner(session, **params):
            release.wait(timeout=60)
            return float(params.get("tag", 0))

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_blocking",
                runner=blocking_runner,
                description="test-only parked runner",
            )
        )
        try:
            with BackgroundService(
                ServiceConfig(port=0, workers=1, backlog=8)
            ) as background:
                local = ServiceClient(port=background.port, timeout=120)
                results: dict[int, float] = {}

                def post(tag: int) -> None:
                    # ServiceClient keeps one HTTP connection alive and is
                    # not thread-safe; each thread needs its own (the main
                    # thread polls ``local.stats()`` while these are parked).
                    client = ServiceClient(port=background.port, timeout=120)
                    envelope, _ = client.analyze(
                        values,
                        AnalysisRequest(
                            kind="mpdist", algo="_test_blocking", params={"tag": tag}
                        ),
                    )
                    results[tag] = envelope.payload

                threads = []
                for tag in (1, 2, 3):
                    thread = threading.Thread(target=post, args=(tag,))
                    thread.start()
                    threads.append(thread)
                    # Enqueue strictly one at a time so the expected FIFO
                    # order is well-defined.
                    deadline = time.monotonic() + 30
                    while time.monotonic() < deadline:
                        stats = local.stats()
                        if stats["received"] >= tag:
                            break
                        time.sleep(0.01)
                release.set()
                for thread in threads:
                    thread.join(timeout=120)
                assert results == {1: 1.0, 2: 2.0, 3: 3.0}
                order = local.stats()["completion_order"]
                assert order == sorted(order)
        finally:
            unregister("mpdist", "_test_blocking")

    def test_full_queue_answers_503(self, values):
        release = threading.Event()
        entered = threading.Event()

        def blocking_runner(session, **params):
            entered.set()
            release.wait(timeout=60)
            return 0.0

        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_backpressure",
                runner=blocking_runner,
                description="test-only parked runner",
            )
        )
        try:
            with BackgroundService(
                ServiceConfig(port=0, workers=1, backlog=2)
            ) as background:
                local = ServiceClient(port=background.port, timeout=120)

                def post(tag: int) -> None:
                    # Per-thread client: see test_queue_is_fifo_under_backpressure.
                    client = ServiceClient(port=background.port, timeout=120)
                    client.analyze(
                        values,
                        AnalysisRequest(
                            kind="mpdist",
                            algo="_test_backpressure",
                            params={"tag": tag},
                        ),
                    )

                threads = [
                    threading.Thread(target=post, args=(tag,)) for tag in range(3)
                ]
                threads[0].start()
                assert entered.wait(timeout=30)  # worker busy, queue empty
                for thread in threads[1:]:
                    thread.start()
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if local.health()["queue_depth"] >= 2:
                        break
                    time.sleep(0.01)
                assert local.health()["queue_depth"] == 2  # backlog full
                status, payload = local.analyze_raw(
                    values,
                    AnalysisRequest(
                        kind="mpdist", algo="_test_backpressure", params={"tag": 99}
                    ),
                )
                assert status == 503 and "queue is full" in payload["error"]
                # A client that accepts the frame still gets a JSON 503.
                document = {
                    "series": values.tolist(),
                    "request": {
                        "kind": "mpdist",
                        "algo": "_test_backpressure",
                        "params": {"tag": 98},
                    },
                }
                status, headers, body = _raw_analyze(
                    background.port, document, FRAME_MEDIA_TYPE
                )
                assert status == 503
                assert headers["Content-Type"] == "application/json"
                assert "queue is full" in json.loads(body)["error"]
                assert "queue;dur=" in headers["Server-Timing"]
                release.set()
                for thread in threads:
                    thread.join(timeout=120)
                stats = local.stats()
                assert stats["rejected"] == 2 and stats["completed"] == 3
        finally:
            unregister("mpdist", "_test_backpressure")


class TestFrameNegotiation:
    """``POST /analyze`` answers a binary frame only to a request whose
    ``Accept`` names it, and only with a 200; everything else is JSON."""

    @staticmethod
    def _document(values, window: int) -> dict:
        return {"series": values.tolist(), "request": _mp_request(window).as_dict()}

    @pytest.mark.parametrize("accept", [None, "application/json"])
    def test_json_stays_the_default(self, service, values, accept):
        status, headers, body = _raw_analyze(
            service.port, self._document(values, 44), accept
        )
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        document = json.loads(body)
        assert document["result"]["payload_type"] == "matrix_profile"
        assert len(document["result"]["payload"]["distances"]) == values.size - 44 + 1

    def test_a_request_that_accepts_the_frame_gets_one(self, service, values):
        status, headers, body = _raw_analyze(
            service.port,
            self._document(values, 46),
            f"{FRAME_MEDIA_TYPE};q=0.9, application/json;q=0.5",
        )
        assert status == 200
        assert headers["Content-Type"] == FRAME_MEDIA_TYPE
        assert body[:4] == b"RPF1"
        framed = decode_frame(body)
        _, _, plain_body = _raw_analyze(service.port, self._document(values, 46))
        plain = json.loads(plain_body)
        assert framed.keys() == plain.keys()
        assert framed["result"].keys() == plain["result"].keys()
        payload = framed["result"]["payload"]
        assert payload["distances"].dtype == np.float64
        assert payload["distances"].tolist() == plain["result"]["payload"]["distances"]
        assert payload["indices"].tolist() == plain["result"]["payload"]["indices"]

    def test_a_zero_quality_refuses_the_frame(self, service, values):
        _, headers, _ = _raw_analyze(
            service.port,
            self._document(values, 46),
            f"{FRAME_MEDIA_TYPE};q=0, application/json",
        )
        assert headers["Content-Type"] == "application/json"

    def test_errors_stay_json_when_the_frame_is_accepted(self, service, values):
        status, headers, body = _raw_analyze(
            service.port, self._document(values, 10_000), FRAME_MEDIA_TYPE
        )
        assert status == 422
        assert headers["Content-Type"] == "application/json"
        assert "error" in json.loads(body)
        unknown = series_digest(np.arange(7.0))
        status, headers, body = _raw_analyze(
            service.port,
            {"series_digest": unknown, "request": _mp_request(8).as_dict()},
            FRAME_MEDIA_TYPE,
        )
        assert status == 404
        assert headers["Content-Type"] == "application/json"
        assert json.loads(body)["unknown_digest"] == unknown

    def test_digest_negotiation_feeds_the_frame(self, service):
        fresh = np.cumsum(np.random.default_rng(31).standard_normal(300))
        client = ServiceClient(port=service.port)
        sent = []
        original = client._exchange

        def recording(method, path, body=None, **kwargs):
            sent.append((method, path.split("/")[1], kwargs.get("accept")))
            return original(method, path, body, **kwargs)

        client._exchange = recording
        served, source = client.analyze(fresh, _mp_request(30))
        assert source == "computed"
        assert [entry[:2] for entry in sent] == [
            ("POST", "analyze"),
            ("PUT", "series"),
            ("POST", "analyze"),
        ]
        assert FRAME_MEDIA_TYPE in sent[0][2] and sent[2][2] == sent[0][2]
        oracle = repro.stomp(fresh, 30)
        np.testing.assert_array_equal(served.profile().indices, oracle.indices)
        np.testing.assert_allclose(served.profile().distances, oracle.distances, atol=1e-8)

    def test_a_frame_asking_client_reads_a_json_answer(
        self, service, values, monkeypatch
    ):
        monkeypatch.setattr(server_module, "accepts_frame", lambda accept: False)
        client = ServiceClient(port=service.port)
        served, _ = client.analyze(values, _mp_request(50))
        direct = repro.analyze(values).matrix_profile(50).profile()
        np.testing.assert_array_equal(served.profile().indices, direct.indices)
        assert served.profile().distances.flags.writeable

    def test_a_result_the_frame_cannot_carry_is_answered_in_json(self, values):
        """A parameter that spells the frame's descriptor key cannot travel
        in a frame header; the worker answers JSON instead."""
        register(
            AlgorithmSpec(
                kind="mpdist",
                key="_test_reserved",
                runner=lambda session, **params: 1.5,
                description="test-only runner",
            )
        )
        try:
            with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
                request = AnalysisRequest(
                    kind="mpdist", algo="_test_reserved", params={"tag": {"$ndarray": 1}}
                )
                status, headers, _ = _raw_analyze(
                    background.port,
                    {"series": values.tolist(), "request": request.as_dict()},
                    FRAME_MEDIA_TYPE,
                )
                assert status == 200
                assert headers["Content-Type"] == "application/json"
                served, _ = ServiceClient(port=background.port).analyze(values, request)
                assert served.payload == 1.5
        finally:
            unregister("mpdist", "_test_reserved")

    def test_every_analyze_answer_carries_server_timing(self, service, client, values):
        client.analyze(values, _mp_request(52))
        assert set(client.server_timing) == {"queue", "execute", "encode"}
        assert all(value >= 0.0 for value in client.server_timing.values())
        status, headers, _ = _raw_analyze(service.port, self._document(values, 10_000))
        assert status == 422
        assert headers["Server-Timing"].startswith("queue;dur=")
        connection = HTTPConnection("127.0.0.1", service.port, timeout=60)
        try:
            connection.request("GET", "/health")
            response = connection.getresponse()
            response.read()
            assert response.getheader("Server-Timing") is None
        finally:
            connection.close()


def test_unregister_restores_the_displaced_default():
    """Installing a test algorithm as a kind's default and removing it must
    restore the previous default, not promote an arbitrary survivor."""
    from repro.api.registry import resolve_algorithm

    previous = resolve_algorithm("matrix_profile", None).key
    register(
        AlgorithmSpec(
            kind="matrix_profile",
            key="_test_default",
            runner=lambda session, **params: 0.0,
            description="test-only default",
        ),
        default=True,
    )
    try:
        assert resolve_algorithm("matrix_profile", None).key == "_test_default"
    finally:
        unregister("matrix_profile", "_test_default")
    assert resolve_algorithm("matrix_profile", None).key == previous


# --------------------------------------------------------------------- #
# persistence through the service
# --------------------------------------------------------------------- #
def test_fresh_service_gets_persistent_hit(values, tmp_path):
    config = lambda: ServiceConfig(  # noqa: E731 - two identical configs
        port=0, cache=CacheConfig(persist_dir=tmp_path / "spill")
    )
    request = _mp_request(40)
    with BackgroundService(config()) as first:
        served, source = ServiceClient(port=first.port).analyze(values, request)
        assert source == "computed"
    with BackgroundService(config()) as second:
        revived, source = ServiceClient(port=second.port).analyze(values, request)
        assert source == "persistent"
    np.testing.assert_allclose(
        revived.profile().distances, served.profile().distances
    )


# --------------------------------------------------------------------- #
# CLI and harness integration
# --------------------------------------------------------------------- #
def test_cli_request_round_trip(service, capsys):
    exit_code = cli_main(
        [
            "request",
            "--url",
            f"http://127.0.0.1:{service.port}",
            "--workload",
            "ecg",
            "--length",
            "512",
            "--kind",
            "matrix_profile",
            "--params",
            '{"window": 48}',
        ]
    )
    assert exit_code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["payload_type"] == "matrix_profile"
    assert document["cache"] in ("computed", "memory", "persistent")
    assert len(document["payload"]["distances"]) == 512 - 48 + 1


def test_cli_request_trace_prints_server_timing(service, capsys, tmp_path):
    exit_code = cli_main(
        [
            "request",
            "--url",
            f"http://127.0.0.1:{service.port}",
            "--workload",
            "ecg",
            "--length",
            "512",
            "--kind",
            "matrix_profile",
            "--params",
            '{"window": 40}',
            "--trace",
            str(tmp_path / "trace.json"),
        ]
    )
    assert exit_code == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)  # stdout stays the JSON document
    assert len(document["payload"]["distances"]) == 512 - 40 + 1
    timing_lines = [
        line for line in captured.err.splitlines() if line.startswith("server timing:")
    ]
    assert len(timing_lines) == 1
    for phase in ("queue", "execute", "encode"):
        assert f"{phase} " in timing_lines[0]


def test_cli_request_rejects_bad_params(service):
    with pytest.raises(InvalidParameterError):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "request",
                "--url",
                f"http://127.0.0.1:{service.port}",
                "--workload",
                "ecg",
                "--kind",
                "matrix_profile",
                "--params",
                "not-json",
            ]
        )
        from repro.cli import _command_request

        _command_request(args)


def test_cli_serve_parser_accepts_service_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        [
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--backlog",
            "16",
            "--cache-entries",
            "8",
            "--cache-bytes",
            "1000000",
            "--cache-dir",
            "/tmp/spill",
        ]
    )
    assert args.command == "serve"
    assert args.workers == 2 and args.backlog == 16 and args.cache_dir == "/tmp/spill"


def test_harness_service_backed_mode_matches_in_process(service, values):
    in_process = compare_algorithms(
        values, 16, 18, algorithms=("valmod", "stomp-range")
    )
    service_backed = compare_algorithms(
        values,
        16,
        18,
        algorithms=("valmod", "stomp-range"),
        service_url=f"http://127.0.0.1:{service.port}",
    )
    for local, remote in zip(in_process, service_backed):
        assert local.algorithm == remote.algorithm
        best_local, best_remote = local.best_overall(), remote.best_overall()
        assert best_local.window == best_remote.window
        assert {best_local.offset_a, best_local.offset_b} == {
            best_remote.offset_a,
            best_remote.offset_b,
        }
        np.testing.assert_allclose(
            best_local.distance, best_remote.distance, atol=1e-8
        )
