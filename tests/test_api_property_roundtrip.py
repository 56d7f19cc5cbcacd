"""Property / round-trip substrate over the whole envelope surface.

For **every** algorithm in the registry this module generates randomized
valid :class:`~repro.api.requests.AnalysisRequest` documents and asserts the
three invariants the service story rests on:

* **canonical-key stability** — the cache key is independent of parameter
  insertion order and of the algo spelling (aliases resolve to the same
  slot);
* **JSON round-trip identity** — a request survives
  ``to_json``/``from_json`` unchanged (same canonical key, same dict form);
* **three-way result agreement** — the service path (HTTP → queue → worker
  → envelope → binary frame → client), the direct session path and the
  flat function oracle produce the same answer;
* **frame/JSON identity** — the binary frame of :mod:`repro.io.frame` and
  the JSON document decode to the same envelope, key for key and bit for
  bit, and a malformed frame is a ``SerializationError`` (a
  ``ServiceError`` at the client).

The series are deliberately tiny (a few hundred points): the point is
coverage of the dispatch surface, not algorithmic scale.
"""

from __future__ import annotations

import gc
import json
import random
import struct

import numpy as np
import pytest

import repro
import repro.service.client as client_module
import repro.service.server as server_module
from repro.api.registry import iter_specs, resolve_algorithm
from repro.api.requests import AnalysisRequest, AnalysisResult, canonical_cache_key
from repro.baselines.brute_force_range import brute_force_range
from repro.baselines.quick_motif import quick_motif_range
from repro.core.discords import variable_length_discords
from repro.exceptions import SerializationError, ServiceError
from repro.io.frame import decode_frame, encode_frame
from repro.matrix_profile.brute_force import brute_force_matrix_profile
from repro.matrix_profile.profile import MatrixProfile
from repro.service import BackgroundService, ServiceClient, ServiceConfig

SERIES_LENGTH = 280
WINDOW_RANGE = (12, 28)
MOTIF_RANGE_START = (14, 18)
MOTIF_RANGE_SPAN = (2, 4)


@pytest.fixture(scope="module")
def series() -> np.ndarray:
    return np.cumsum(np.random.default_rng(42).standard_normal(SERIES_LENGTH))


@pytest.fixture(scope="module")
def other_series() -> np.ndarray:
    return np.cumsum(np.random.default_rng(43).standard_normal(SERIES_LENGTH))


@pytest.fixture(scope="module")
def service():
    with BackgroundService(ServiceConfig(port=0, workers=1)) as background:
        yield ServiceClient(port=background.port)


def _random_request(
    spec, rng: random.Random, other: np.ndarray
) -> AnalysisRequest:
    """A randomized valid request for one registered algorithm."""
    if spec.kind == "matrix_profile":
        params = {"window": rng.randint(*WINDOW_RANGE)}
        if spec.key in ("scrimp", "scrimp++", "stamp"):
            params["random_state"] = 0  # pin tie-breaking across the paths
        return AnalysisRequest(kind=spec.kind, algo=spec.key, params=params)
    if spec.kind in ("motifs", "discords", "pan_profile"):
        min_length = rng.randint(*MOTIF_RANGE_START)
        max_length = min_length + rng.randint(*MOTIF_RANGE_SPAN)
        params = {"min_length": min_length, "max_length": max_length}
        return AnalysisRequest(kind=spec.kind, algo=spec.key, params=params)
    if spec.kind == "ab_join":
        return AnalysisRequest(
            kind=spec.kind,
            algo=spec.key,
            params={"other": other.tolist(), "window": rng.randint(*WINDOW_RANGE)},
        )
    if spec.kind == "mpdist":
        return AnalysisRequest(
            kind=spec.kind,
            algo=spec.key,
            params={
                "other": other.tolist(),
                "window": rng.randint(*WINDOW_RANGE),
                "percentile": rng.choice([0.02, 0.05, 0.1]),
            },
        )
    raise AssertionError(f"no request generator for kind {spec.kind!r}")


def _flat_oracle(spec, values: np.ndarray, params: dict):
    """The flat-function answer to one request (the pre-session substrate)."""
    params = dict(params)
    if spec.kind == "matrix_profile":
        window = params.pop("window")
        flat = {
            "stomp": repro.stomp,
            "scrimp": repro.scrimp,
            "scrimp++": repro.scrimp_pp,
            "stamp": repro.stamp,
            "brute": brute_force_matrix_profile,
        }[spec.key]
        return flat(values, window, **params)
    if spec.kind == "motifs":
        flat = {
            "valmod": repro.valmod,
            "stomp_range": repro.stomp_range,
            "moen": repro.moen,
            "quick_motif": quick_motif_range,
            "brute": brute_force_range,
        }[spec.key]
        return flat(values, params.pop("min_length"), params.pop("max_length"), **params)
    if spec.kind == "discords":
        return variable_length_discords(
            values, params.pop("min_length"), params.pop("max_length"), **params
        )
    if spec.kind == "pan_profile":
        return repro.skimp(
            values, params.pop("min_length"), params.pop("max_length"), **params
        )
    if spec.kind == "ab_join":
        other = np.asarray(params.pop("other"), dtype=np.float64)
        return repro.ab_join(values, other, params.pop("window"), **params)
    if spec.kind == "mpdist":
        other = np.asarray(params.pop("other"), dtype=np.float64)
        return repro.mpdist(values, other, params.pop("window"), **params)
    raise AssertionError(f"no oracle for kind {spec.kind!r}")


def _motif_view(payload):
    if hasattr(payload, "length_results"):  # a full in-process ValmodResult
        return {
            length: list(payload.length_results[length].motifs)
            for length in payload.lengths
        }
    return {length: payload.motifs_at(length) for length in payload.lengths}


def _assert_equivalent(kind: str, left, right) -> None:
    """Payload equality, uniform across the registry's payload shapes."""
    if isinstance(left, MatrixProfile):
        np.testing.assert_allclose(left.distances, right.distances, atol=1e-8)
        np.testing.assert_array_equal(left.indices, right.indices)
        return
    if kind == "motifs":
        left_view, right_view = _motif_view(left), _motif_view(right)
        assert sorted(left_view) == sorted(right_view)
        for length, pairs in left_view.items():
            others = right_view[length]
            assert len(pairs) == len(others)
            for pair, mirror in zip(pairs, others):
                assert pair.window == mirror.window
                assert {pair.offset_a, pair.offset_b} == {
                    mirror.offset_a,
                    mirror.offset_b,
                }
                np.testing.assert_allclose(pair.distance, mirror.distance, atol=1e-8)
        return
    if kind == "discords":
        assert len(left) == len(right)
        for discord, mirror in zip(left, right):
            left_dict, right_dict = discord.as_dict(), mirror.as_dict()
            assert left_dict.keys() == right_dict.keys()
            for field in left_dict:
                np.testing.assert_allclose(
                    left_dict[field], right_dict[field], atol=1e-8
                )
        return
    if kind == "pan_profile":
        np.testing.assert_array_equal(left.lengths, right.lengths)
        np.testing.assert_allclose(
            left.normalized_profiles, right.normalized_profiles, atol=1e-8
        )
        return
    if kind == "ab_join":
        np.testing.assert_allclose(left.distances, right.distances, atol=1e-8)
        np.testing.assert_array_equal(left.indices, right.indices)
        return
    if kind == "mpdist":
        np.testing.assert_allclose(float(left), float(right), atol=1e-8)
        return
    raise AssertionError(f"no equivalence rule for kind {kind!r}")


# --------------------------------------------------------------------- #
# canonical-key and JSON round-trip properties
# --------------------------------------------------------------------- #
def test_canonical_key_is_insertion_order_independent(series, other_series):
    rng = random.Random(7)
    for spec in iter_specs():
        request = _random_request(spec, rng, other_series)
        items = list(request.params.items())
        for seed in range(3):
            random.Random(seed).shuffle(items)
            shuffled = AnalysisRequest(
                kind=request.kind, algo=request.algo, params=dict(items)
            )
            assert shuffled.cache_key() == request.cache_key(), spec.key


def test_canonical_key_is_alias_independent(series):
    for spec in iter_specs():
        for alias in spec.aliases:
            canonical = AnalysisRequest(
                kind=spec.kind, algo=spec.key, params={"window": 16}
            )
            aliased = AnalysisRequest(
                kind=spec.kind, algo=alias, params={"window": 16}
            )
            resolved = resolve_algorithm(spec.kind, alias)
            assert resolved is spec
            assert canonical_cache_key(resolved, aliased) == canonical_cache_key(
                spec, canonical
            )


def test_default_algo_shares_the_canonical_slot():
    explicit = AnalysisRequest(
        kind="matrix_profile", algo="stomp", params={"window": 16}
    )
    implicit = AnalysisRequest(kind="matrix_profile", params={"window": 16})
    spec = resolve_algorithm("matrix_profile", None)
    assert canonical_cache_key(spec, implicit) == canonical_cache_key(spec, explicit)


def test_request_json_round_trip_identity(series, other_series):
    rng = random.Random(11)
    for spec in iter_specs():
        request = _random_request(spec, rng, other_series)
        revived = AnalysisRequest.from_json(request.to_json())
        assert revived.as_dict() == request.as_dict(), spec.key
        assert revived.cache_key() == request.cache_key(), spec.key
        assert revived.to_json() == request.to_json(), spec.key


# --------------------------------------------------------------------- #
# three-way result agreement
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "spec", iter_specs(), ids=lambda spec: f"{spec.kind}-{spec.key}"
)
def test_service_session_and_oracle_agree(spec, series, other_series, service):
    rng = random.Random(hash((spec.kind, spec.key)) & 0xFFFF)
    request = _random_request(spec, rng, other_series)

    direct = repro.analyze(series).run(request)
    assert direct.kind == spec.kind and direct.algo == spec.key

    oracle = _flat_oracle(spec, series, request.params)
    _assert_equivalent(spec.kind, direct.payload, oracle)

    served, source = service.analyze(series, request)
    assert source in ("computed", "memory", "persistent")
    assert served.kind == spec.kind and served.algo == spec.key
    assert served.series_length == series.size
    # The served payload crossed request-JSON and result-JSON once each;
    # compare against the *envelope view* of the direct result (a valmod
    # payload serialises as its cross-algorithm comparable view).
    if spec.kind == "motifs":
        _assert_equivalent(spec.kind, served.range_result(), direct.range_result())
    else:
        _assert_equivalent(spec.kind, served.payload, direct.payload)


# --------------------------------------------------------------------- #
# binary frame against JSON
# --------------------------------------------------------------------- #
def _assert_same_bits(left, right, where: str = "envelope") -> None:
    """Equal keys, equal types, and equal bits for every float and array."""
    if isinstance(left, dict):
        assert isinstance(right, dict) and left.keys() == right.keys(), where
        for key in left:
            _assert_same_bits(left[key], right[key], f"{where}.{key}")
    elif isinstance(left, np.ndarray):
        assert isinstance(right, np.ndarray), where
        assert (left.dtype, left.shape) == (right.dtype, right.shape), where
        assert left.tobytes() == right.tobytes(), where
    elif isinstance(left, list):
        assert isinstance(right, list) and len(left) == len(right), where
        for index, (item, mirror) in enumerate(zip(left, right)):
            _assert_same_bits(item, mirror, f"{where}[{index}]")
    elif isinstance(left, float):
        assert isinstance(right, float), where
        assert struct.pack("<d", left) == struct.pack("<d", right), where
    else:
        assert type(left) is type(right) and left == right, where


def _arrays(value) -> list:
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [array for item in value for array in _arrays(item)]
    return []


@pytest.mark.parametrize(
    "spec", iter_specs(), ids=lambda spec: f"{spec.kind}-{spec.key}"
)
def test_frame_and_json_answers_decode_to_the_same_envelope(
    spec, series, other_series, service, monkeypatch
):
    decoded = []

    def counting_decode(raw):
        decoded.append(len(raw))
        return decode_frame(raw)

    monkeypatch.setattr(client_module, "decode_frame", counting_decode)
    request = _random_request(spec, random.Random(f"{spec.kind}-{spec.key}"), other_series)

    framed, _ = service.analyze(series, request)
    assert decoded, "analyze() did not receive a frame"
    status, document = service.analyze_raw(series, request)
    assert status == 200
    json.dumps(document)  # analyze_raw() still returns a JSON document
    plain = AnalysisResult.from_dict(document["result"])

    framed_dict = framed.as_dict(arrays=True)
    _assert_same_bits(framed_dict, plain.as_dict(arrays=True))
    assert all(array.flags.writeable for array in _arrays(framed_dict))
    if spec.kind == "pan_profile":
        # NaN padding and 2-D arrays both crossed the frame.
        profiles = framed.payload.normalized_profiles
        assert profiles.ndim == 2 and np.isnan(profiles).any()
        profiles[0, 0] = 0.0  # writeable, not a view of the body
    if spec.kind in ("motifs", "discords", "mpdist"):
        assert not _arrays(framed_dict["payload"])  # payloads with no arrays


_SAMPLE = {
    "profile": np.linspace(0.0, 1.0, 5),
    "nested": [{"indices": np.arange(6, dtype=np.int64).reshape(2, 3)}, 7],
    "empty": np.zeros(0),
    "name": "sample",
}


def _split(frame: bytes):
    """A frame's header document and its data section."""
    (length,) = struct.unpack_from("<I", frame, 4)
    return json.loads(frame[8 : 8 + length]), frame[8 + length + (-(8 + length) % 8) :]


def _reframe(header, data: bytes) -> bytes:
    text = json.dumps(header).encode("utf-8")
    padding = b"\0" * (-(8 + len(text)) % 8)
    return b"RPF1" + struct.pack("<I", len(text)) + text + padding + data


def _edit_descriptor(**changes) -> bytes:
    header, data = _split(encode_frame(_SAMPLE))
    header["profile"]["$ndarray"].update(changes)
    return _reframe(header, data)


def test_frame_round_trip_keeps_dtypes_shapes_and_bits():
    frame = encode_frame(_SAMPLE)
    assert frame[:4] == b"RPF1" and len(frame) % 8 == 0
    header, _ = _split(frame)
    assert header["profile"] == {
        "$ndarray": {"dtype": "<f8", "shape": [5], "offset": 0, "nbytes": 40}
    }
    decoded = decode_frame(frame)
    _assert_same_bits(decoded, _SAMPLE, "frame")
    assert decode_frame(bytearray(frame))["name"] == "sample"


@pytest.mark.parametrize(
    "frame, message",
    [
        (b"JSON" + encode_frame(_SAMPLE)[4:], "bad magic"),
        (b"RP", "bad magic"),
        (
            b"RPF1" + struct.pack("<I", 10_000) + encode_frame(_SAMPLE)[8:],
            "runs past the body",
        ),
        (_edit_descriptor(shape=[20], nbytes=160), "runs past the end"),
        (encode_frame(_SAMPLE)[:-8], "runs past the end"),
        (_edit_descriptor(dtype="<f4"), "unknown dtype"),
        (_edit_descriptor(dtype="|O"), "unknown dtype"),
        (_edit_descriptor(nbytes=48), "claims 48 bytes"),
        (_edit_descriptor(shape=[-5]), "bad shape"),
        (_edit_descriptor(offset=8), "expected 0"),
        (encode_frame(_SAMPLE) + b"\0" * 8, "8 trailing bytes"),
        (b"RPF1" + struct.pack("<I", 8) + b"{not js}", "not JSON"),
    ],
    ids=[
        "bad-magic",
        "short-prefix",
        "header-past-body",
        "array-past-end",
        "truncated",
        "dtype-f4",
        "dtype-object",
        "nbytes-mismatch",
        "negative-shape",
        "out-of-order",
        "trailing-bytes",
        "header-not-json",
    ],
)
def test_malformed_frames_raise_serialization_error(frame, message):
    with pytest.raises(SerializationError, match=message):
        decode_frame(frame)


def test_frame_codec_leaves_no_reference_cycles():
    """Encode and decode free what they hold by reference counting.  A cycle
    would keep each answer's arrays (server) or body (client) alive until
    the cyclic collector ran, and a server answering fast enough to allocate
    little else would pile them up."""
    gc.collect()
    gc.disable()
    try:
        decode_frame(encode_frame(_SAMPLE))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_encode_rejects_what_a_frame_cannot_carry():
    with pytest.raises(SerializationError, match="float32"):
        encode_frame({"values": np.zeros(3, dtype=np.float32)})
    with pytest.raises(SerializationError, match="reserved"):
        encode_frame({"params": {"$ndarray": 1}})


def test_client_reports_a_malformed_frame_as_service_error(
    series, service, monkeypatch
):
    real = server_module.encode_frame
    monkeypatch.setattr(
        server_module, "encode_frame", lambda document: real(document) + b"\0" * 8
    )
    request = AnalysisRequest(kind="matrix_profile", params={"window": 20})
    with pytest.raises(ServiceError, match="malformed frame"):
        service.analyze(series, request)
    monkeypatch.undo()
    served, _ = service.analyze(series, request)  # the connection is still sound
    assert served.profile().window == 20
