"""Digest-keyed series transport: service negotiation and keep-alive.

The acceptance story of the store subsystem, end to end:

* after one upload, a second service request for the same series carries
  **no values** yet returns results identical to the direct-session oracle
  for every registry algorithm;
* two sequential client calls share one server connection (HTTP
  keep-alive).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.api.registry import iter_specs
from repro.api.requests import AnalysisRequest
from repro.exceptions import ServiceError
from repro.service import BackgroundService, ServiceClient, ServiceConfig

SERIES_LENGTH = 260


@pytest.fixture(scope="module")
def values() -> np.ndarray:
    return np.cumsum(np.random.default_rng(17).standard_normal(SERIES_LENGTH))


@pytest.fixture(scope="module")
def other() -> np.ndarray:
    return np.cumsum(np.random.default_rng(18).standard_normal(SERIES_LENGTH))


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store")
    with BackgroundService(config) as background:
        yield background


def _spy(client: ServiceClient):
    """Record every (method, path, body) the client puts on the wire."""
    sent = []
    original = client._exchange

    def recording(method, path, body=None, **kwargs):
        sent.append((method, path, body))
        return original(method, path, body, **kwargs)

    client._exchange = recording
    return sent


def _without_timing(payload):
    """Strip wall-clock fields (the one legitimate run-to-run difference)."""
    if isinstance(payload, dict):
        return {
            key: _without_timing(value)
            for key, value in payload.items()
            if key != "elapsed_seconds"
        }
    if isinstance(payload, list):
        return [_without_timing(item) for item in payload]
    return payload


def _request_for(spec, other: np.ndarray) -> AnalysisRequest:
    """One deterministic valid request per registered algorithm."""
    if spec.kind == "matrix_profile":
        params = {"window": 20}
        if spec.key in ("scrimp", "scrimp++", "stamp"):
            params["random_state"] = 0  # pin anytime tie-breaking
        return AnalysisRequest(kind=spec.kind, algo=spec.key, params=params)
    if spec.kind in ("motifs", "discords", "pan_profile"):
        return AnalysisRequest(
            kind=spec.kind, algo=spec.key, params={"min_length": 14, "max_length": 17}
        )
    if spec.kind in ("ab_join", "mpdist"):
        return AnalysisRequest(
            kind=spec.kind,
            algo=spec.key,
            params={"other": other.tolist(), "window": 20},
        )
    raise AssertionError(f"no request generator for kind {spec.kind!r}")


class TestDigestOnlyRoundTrip:
    def test_second_request_ships_no_values_and_matches_oracle(
        self, service, values, other
    ):
        """The acceptance criterion, verbatim: one upload, then digest-only
        submissions whose results are JSON-identical to the direct session,
        for every algorithm in the registry."""
        client = ServiceClient(port=service.port)
        sent = _spy(client)
        session = repro.analyze(values, name="series")
        for index, spec in enumerate(iter_specs()):
            request = _request_for(spec, other)
            sent.clear()
            served, _source = client.analyze(values, request)
            posts = [entry for entry in sent if entry[0] == "POST"]
            puts = [entry for entry in sent if entry[0] == "PUT"]
            if index == 0:
                # First contact: digest probe, one upload, one retry.
                assert len(puts) == 1 and len(posts) == 2
            else:
                assert not puts and len(posts) == 1
            for _method, _path, body in posts:
                document = json.loads(body.decode("utf-8"))
                assert "values" not in document
                assert "series" not in document
                assert document["series_digest"] == session.series_digest
            direct = session.run(request)
            assert json.dumps(
                _without_timing(served.as_dict()["payload"]), sort_keys=True
            ) == json.dumps(
                _without_timing(direct.as_dict()["payload"]), sort_keys=True
            )
            assert served.as_dict()["payload_type"] == direct.as_dict()["payload_type"]
        client.close()

    def test_unknown_digest_answers_404_with_marker(self, service, values):
        client = ServiceClient(port=service.port)
        digest = repro.DataSeries(values).digest()
        status, payload = client._exchange(
            "POST",
            "/analyze",
            json.dumps(
                {
                    "series_digest": digest,
                    "request": {"kind": "matrix_profile", "params": {"window": 16}},
                }
            ).encode("utf-8"),
        )
        assert status == 404
        assert payload["unknown_digest"] == digest
        client.close()

    def test_upload_with_wrong_digest_is_rejected(self, service, values):
        client = ServiceClient(port=service.port)
        with pytest.raises(ServiceError, match="digest mismatch") as info:
            client.put_series(values, digest="c" * 40)
        assert info.value.status == 422
        # The forged identity must not have entered the catalog.
        assert client.series_info("c" * 40) is None
        client.close()

    def test_upload_survives_server_restart(self, tmp_path, values):
        """The store is the durable half: a fresh server over the same
        store directory resolves the digest with no re-upload."""
        config = ServiceConfig(port=0, workers=1, store_dir=tmp_path / "store")
        request = AnalysisRequest(kind="matrix_profile", params={"window": 24})
        with BackgroundService(config) as background:
            with ServiceClient(port=background.port) as client:
                client.analyze(values, request)
        with BackgroundService(config) as background:
            with ServiceClient(port=background.port) as client:
                sent = _spy(client)
                served, _ = client.analyze(values, request)
                assert [entry[0] for entry in sent] == ["POST"]
        direct = repro.analyze(values).matrix_profile(24).profile()
        np.testing.assert_allclose(served.profile().distances, direct.distances)

    def test_no_store_server_negotiates_via_session_pool(self, values):
        with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
            with ServiceClient(port=background.port) as client:
                request = AnalysisRequest(kind="matrix_profile", params={"window": 16})
                _, source = client.analyze(values, request)
                assert source == "computed"
                sent = _spy(client)
                _, source = client.analyze(values, request)
                assert source == "memory"
                assert [entry[0] for entry in sent] == ["POST"]

    def test_series_names_with_unsafe_characters_survive_upload(
        self, service, values
    ):
        """Names come from file paths and --name flags: a space (or worse)
        must neither break the PUT request line nor arrive mangled."""
        with ServiceClient(port=service.port) as client:
            series = repro.DataSeries(values, name="my series & more")
            served, _ = client.analyze(
                series, AnalysisRequest(kind="matrix_profile", params={"window": 16})
            )
            assert served.series_name == "my series & more"
            info = client.series_info(series.digest())
            assert info is not None and info["name"] == "my series & more"

    def test_values_transport_still_accepted(self, service, values):
        with ServiceClient(port=service.port) as client:
            status, payload = client.analyze_raw(
                values,
                AnalysisRequest(kind="matrix_profile", params={"window": 16}),
                transport="values",
            )
            assert status == 200
            assert payload["cache"] in ("computed", "memory", "persistent")


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, service, values):
        """The keep-alive regression gate: two client calls, one accepted
        server connection."""
        with ServiceClient(port=service.port) as client:
            client.analyze(
                values, AnalysisRequest(kind="matrix_profile", params={"window": 16})
            )
            client.analyze(
                values, AnalysisRequest(kind="matrix_profile", params={"window": 18})
            )
            stats = client.stats()
        # analyze x2 (incl. negotiation) + /stats all rode one socket.
        assert stats["connections"] == 1

    def test_connection_close_is_honoured(self, service, values):
        """A Connection: close request still gets exactly one answer and a
        closed socket (the pre-keep-alive contract)."""
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            connection.request("GET", "/health", headers={"Connection": "close"})
            response = connection.getresponse()
            assert response.status == 200
            assert response.will_close
        finally:
            connection.close()

    def test_client_recovers_from_a_server_side_close(self, service, values):
        """A stale kept-alive socket (server dropped it) is retried on a
        fresh connection instead of surfacing an error."""
        with ServiceClient(port=service.port) as client:
            assert client.health()["status"] == "ok"
            # Sabotage the cached connection behind the client's back.
            client._connection.sock.close()
            assert client.health()["status"] == "ok"


def test_cli_request_digest_transport(tmp_path, capsys):
    """CLI smoke: `repro store put` + a digest-only `repro request` against
    a live server sharing the same data root."""
    from repro.cli import main as cli_main

    data_root = tmp_path / "data"
    assert (
        cli_main(
            [
                "store",
                "--data-dir",
                str(data_root),
                "put",
                "--workload",
                "ecg",
                "--length",
                "512",
            ]
        )
        == 0
    )
    digest_line = capsys.readouterr().out.strip().splitlines()[-1]
    digest = digest_line.split()[-1]

    config = ServiceConfig(
        port=0, workers=1, store_dir=data_root / "series"
    )
    with BackgroundService(config) as background:
        assert (
            cli_main(
                [
                    "request",
                    "--url",
                    f"http://127.0.0.1:{background.port}",
                    "--workload",
                    "ecg",
                    "--length",
                    "512",
                    "--kind",
                    "matrix_profile",
                    "--params",
                    '{"window": 32}',
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["payload_type"] == "matrix_profile"
        # The workload series was already catalogued by `store put`, so the
        # digest-only request resolved without a single upload.
        assert background.service.stats()["uploads"] == 0
        assert background.service.stats()["store"]["entries"] == 1
        assert next(iter(background.service.stats()["sessions"]))[
            "series_digest"
        ] == digest
