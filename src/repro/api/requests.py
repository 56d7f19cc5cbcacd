"""Typed request / result layer of the unified analysis API.

An :class:`AnalysisRequest` names one computation — a *kind* (what family of
question: ``matrix_profile``, ``motifs``, ``discords``, ``pan_profile``,
``ab_join``, ``mpdist``), an optional *algo* (which registered algorithm
answers it) and a parameter mapping.  An :class:`AnalysisResult` is the
common envelope every computation returns: the request echo, timing, series
identity and the algorithm's native payload, plus uniform accessors over the
payload shapes.

Both sides are JSON-serialisable (``as_dict`` / ``from_dict`` here, file
round-trips through :mod:`repro.io.serialization`), which is what makes the
session usable as a service surface: a client can POST a request document,
the server replays it through :meth:`repro.api.Analysis.run`, and the result
document travels back.

For the ``motifs`` kind the envelope serialises the cross-algorithm
comparable view (a :class:`~repro.baselines.base.RangeDiscoveryResult`):
VALMOD's full in-process result object (VALMAP, checkpoints, pruning detail)
does not round-trip through the envelope — persist it with
:func:`repro.io.serialization.save_result` when the detail matters.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.baselines.base import RangeDiscoveryResult
from repro.core.discords import VariableLengthDiscord
from repro.core.results import ValmodResult
from repro.core.skimp import PanMatrixProfile
from repro.exceptions import InvalidParameterError, SerializationError
from repro.matrix_profile.ab_join import JoinProfile
from repro.matrix_profile.profile import MatrixProfile, MotifPair
from repro.series.dataseries import DataSeries

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "EnvelopeRangeResult",
    "canonical_cache_key",
]


class EnvelopeRangeResult(RangeDiscoveryResult):
    """A ``motifs`` payload rehydrated from a serialised envelope.

    A VALMOD computation produces the full in-process
    :class:`~repro.core.results.ValmodResult` (VALMAP, checkpoints, pruning
    detail), but the envelope only round-trips the cross-algorithm
    comparable view.  When such an envelope comes back — a persistent-spill
    hit from an earlier process, a service response, a loaded result file —
    callers written against ``ValmodResult`` would previously get a bare
    ``AttributeError`` with no hint of *why* the attribute vanished.  This
    marker subclass behaves exactly like its parent for everything the view
    actually carries and turns unknown-attribute access into a loud,
    explanatory error.
    """

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails, i.e. for attributes of the
        # richer in-process result types the envelope does not carry.
        raise AttributeError(
            f"{name!r} is not available: this motifs result was rehydrated "
            "from a serialised envelope (persistent cache, service response "
            "or result file) and carries only the cross-algorithm "
            "RangeDiscoveryResult view.  Recompute in-process (e.g. "
            "Analysis.run(request, cache=False) or repro.valmod) when the "
            "full ValmodResult is needed."
        )


def _jsonable(value: Any) -> Any:
    """Convert a parameter value to a JSON-serialisable equivalent.

    Arrays and :class:`DataSeries` become lists (so an ``ab_join`` request
    carrying the other series still serialises); numpy scalars become Python
    scalars; tuples become lists.  Anything else unserialisable raises.
    """
    if isinstance(value, DataSeries):
        return value.values.tolist()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "values") and isinstance(
        getattr(value, "values"), np.ndarray
    ):  # an Analysis session standing in for its series
        return value.values.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SerializationError(
        f"request parameter of type {type(value).__name__} is not JSON-serialisable"
    )


def _digest(value: Any) -> Any:
    """Like :func:`_jsonable` but collapses bulky arrays to a content hash.

    Used for cache keys, where only identity matters: hashing a series is
    cheaper than embedding a million floats in every key.
    """
    if isinstance(value, DataSeries) or (
        hasattr(value, "values") and isinstance(getattr(value, "values"), np.ndarray)
    ):
        return {"__series__": hashlib.sha1(value.values.tobytes()).hexdigest()}
    if isinstance(value, np.ndarray):
        return {"__array__": hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest()}
    if isinstance(value, (list, tuple)):
        return [_digest(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _digest(item) for key, item in value.items()}
    return _jsonable(value)


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of analysis work addressed to an :class:`repro.api.Analysis`.

    Attributes
    ----------
    kind:
        The computation family (``"matrix_profile"``, ``"motifs"``, ...).
    algo:
        Registry key of the algorithm; ``None`` selects the kind's default.
    params:
        Keyword arguments forwarded to the algorithm runner.
    """

    kind: str
    algo: str | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or not self.kind:
            raise InvalidParameterError("an AnalysisRequest needs a non-empty kind")
        object.__setattr__(self, "params", dict(self.params))

    def cache_key(self) -> str | None:
        """Canonical key for the session result cache.

        Returns ``None`` when any parameter resists canonicalisation (an
        executor instance, an open generator, ...) — such requests simply
        bypass the cache.
        """
        try:
            payload = {
                "kind": self.kind,
                "algo": self.algo,
                "params": _digest(self.params),
            }
            return json.dumps(payload, sort_keys=True)
        except (SerializationError, TypeError, ValueError):
            return None

    def as_dict(self) -> dict:
        """Plain-dict (JSON-ready) form; raises on unserialisable parameters."""
        return {
            "kind": self.kind,
            "algo": self.algo,
            "params": _jsonable(self.params),
        }

    def to_json(self) -> str:
        """The request as a JSON document."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalysisRequest":
        """Rebuild a request from :meth:`as_dict` output."""
        try:
            return cls(
                kind=str(payload["kind"]),
                algo=payload.get("algo"),
                params=dict(payload.get("params", {})),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"not a valid analysis request: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "AnalysisRequest":
        """Rebuild a request from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"not a valid analysis request: {error}") from error
        if not isinstance(payload, dict):
            raise SerializationError("not a valid analysis request: expected an object")
        return cls.from_dict(payload)


def canonical_cache_key(spec, request: "AnalysisRequest") -> str | None:
    """Cache key of ``request`` under the *resolved* algorithm spec.

    Aliases and the kind's default spelling share one cache slot: the key is
    always computed with the spec's canonical ``key`` as the algo.  Returns
    ``None`` when the parameters resist canonicalisation (such requests
    bypass every cache).  Shared by the session cache, the persistent spill
    and the service layer so all three agree on what "the same request" is.
    """
    if request.algo == spec.key:
        return request.cache_key()
    return AnalysisRequest(
        kind=spec.kind, algo=spec.key, params=request.params
    ).cache_key()


def _payload_as_dict(
    kind: str, payload: Any, *, arrays: bool = False
) -> tuple[str, Any]:
    """Serialise a result payload to ``(payload_type, jsonable)``.

    ``arrays=True`` leaves numpy arrays as arrays (the binary frame's form,
    :mod:`repro.io.frame`); otherwise they become lists, with a pan
    profile's ``NaN`` padding as ``None``.
    """
    if isinstance(payload, ValmodResult):
        # The envelope carries the cross-algorithm comparable view; the
        # full ValmodResult persists via repro.io.save_result instead.
        return ("range_result", _range_result_from_valmod(payload).as_dict())
    if isinstance(payload, RangeDiscoveryResult):
        return ("range_result", payload.as_dict())
    if isinstance(payload, MatrixProfile):
        return ("matrix_profile", payload.as_dict(arrays=arrays))
    if isinstance(payload, PanMatrixProfile):
        serialised = payload.as_dict(arrays=arrays)
        if not arrays:
            serialised["normalized_profiles"] = [
                [None if value != value else value for value in row]
                for row in serialised["normalized_profiles"]
            ]
        return ("pan_profile", serialised)
    if isinstance(payload, JoinProfile):
        return ("join_profile", payload.as_dict(arrays=arrays))
    if isinstance(payload, (int, float)):
        return ("scalar", float(payload))
    if isinstance(payload, list) and all(
        isinstance(item, VariableLengthDiscord) for item in payload
    ):
        return ("discords", [item.as_dict() for item in payload])
    raise SerializationError(
        f"cannot serialise a {kind!r} payload of type {type(payload).__name__}"
    )


def _payload_from_dict(payload_type: str, data: Any) -> Any:
    """Inverse of :func:`_payload_as_dict` (arrays or lists alike)."""
    if payload_type == "matrix_profile":
        return MatrixProfile(
            distances=np.asarray(data["distances"], dtype=np.float64),
            indices=np.asarray(data["indices"], dtype=np.int64),
            window=int(data["window"]),
            exclusion_radius=int(data["exclusion_radius"]),
        )
    if payload_type == "range_result":
        return RangeDiscoveryResult(
            algorithm=str(data["algorithm"]),
            motifs_by_length={
                int(length): [
                    MotifPair(
                        distance=float(pair["distance"]),
                        offset_a=int(pair["offset_a"]),
                        offset_b=int(pair["offset_b"]),
                        window=int(pair["window"]),
                    )
                    for pair in pairs
                ]
                for length, pairs in data["motifs_by_length"].items()
            },
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            extra=dict(data.get("extra", {})),
        )
    if payload_type == "pan_profile":
        normalized = data["normalized_profiles"]
        if not isinstance(normalized, np.ndarray):
            normalized = [
                [np.nan if value is None else float(value) for value in row]
                for row in normalized
            ]
        normalized = np.asarray(normalized, dtype=np.float64)
        return PanMatrixProfile(
            lengths=np.asarray(data["lengths"], dtype=np.int64),
            normalized_profiles=normalized,
            index_profiles=np.asarray(data["index_profiles"], dtype=np.int64),
            min_length=int(data["min_length"]),
            max_length=int(data["max_length"]),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )
    if payload_type == "join_profile":
        return JoinProfile(
            distances=np.asarray(data["distances"], dtype=np.float64),
            indices=np.asarray(data["indices"], dtype=np.int64),
            window=int(data["window"]),
        )
    if payload_type == "scalar":
        return float(data)
    if payload_type == "discords":
        return [VariableLengthDiscord(**item) for item in data]
    raise SerializationError(f"unknown analysis payload type {payload_type!r}")


def _range_result_from_valmod(result: ValmodResult) -> RangeDiscoveryResult:
    """The cross-algorithm comparable view of a VALMOD run."""
    return RangeDiscoveryResult(
        algorithm="valmod",
        motifs_by_length={
            length: list(result.length_results[length].motifs)
            for length in result.lengths
        },
        elapsed_seconds=result.elapsed_seconds,
        extra={
            **result.pruning_summary(),
            "total_recomputed_profiles": result.extra.get(
                "total_recomputed_profiles", 0.0
            ),
        },
    )


@dataclass(frozen=True)
class AnalysisResult:
    """The common envelope every session computation returns.

    Attributes
    ----------
    kind, algo, params:
        Echo of the resolved request (``algo`` is always the canonical
        registry key, never an alias).
    series_name, series_length:
        Identity of the analysed series.
    elapsed_seconds:
        Wall-clock time of the computation (``0.0`` on a cache hit — the
        cached envelope, including its original timing, is returned as-is).
    payload:
        The algorithm's native result object (:class:`MatrixProfile`,
        :class:`~repro.core.results.ValmodResult`, ...).
    """

    kind: str
    algo: str
    params: Mapping[str, Any]
    series_name: str
    series_length: int
    elapsed_seconds: float
    payload: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------ #
    # uniform accessors
    # ------------------------------------------------------------------ #
    @property
    def value(self) -> Any:
        """The native payload (alias kept short for call-site readability)."""
        return self.payload

    @property
    def is_envelope_view(self) -> bool:
        """True when the payload is a rehydrated envelope view, not the
        in-process result object (see :class:`EnvelopeRangeResult`)."""
        return isinstance(self.payload, EnvelopeRangeResult)

    def profile(self) -> MatrixProfile:
        """The payload as a :class:`MatrixProfile` (``matrix_profile`` kind)."""
        if not isinstance(self.payload, MatrixProfile):
            raise InvalidParameterError(
                f"a {self.kind!r} result holds no matrix profile"
            )
        return self.payload

    def range_result(self) -> RangeDiscoveryResult:
        """The payload as the cross-algorithm motif view (``motifs`` kind)."""
        if isinstance(self.payload, RangeDiscoveryResult):
            return self.payload
        if isinstance(self.payload, ValmodResult):
            return _range_result_from_valmod(self.payload)
        raise InvalidParameterError(
            f"a {self.kind!r} result holds no per-length motif listing"
        )

    def motifs_by_length(self) -> Dict[int, List[MotifPair]]:
        """Per-length motif pairs, uniform across motif algorithms."""
        view = self.range_result()
        return {length: view.motifs_at(length) for length in view.lengths}

    def best_motif(self) -> MotifPair:
        """The best pair across lengths, by length-normalised distance."""
        return self.range_result().best_overall()

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def as_dict(self, *, arrays: bool = False) -> dict:
        """Plain-dict (JSON-ready) form of the envelope.

        ``arrays=True`` keeps the payload's numpy arrays as arrays, for
        :func:`repro.io.frame.encode_frame`; :meth:`from_dict` reads both
        forms.
        """
        payload_type, payload = _payload_as_dict(
            self.kind, self.payload, arrays=arrays
        )
        return {
            "kind": self.kind,
            "algo": self.algo,
            "params": _jsonable(self.params),
            "series_name": self.series_name,
            "series_length": int(self.series_length),
            "elapsed_seconds": float(self.elapsed_seconds),
            "payload_type": payload_type,
            "payload": payload,
        }

    def to_json(self) -> str:
        """The envelope as a JSON document."""
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalysisResult":
        """Rebuild an envelope from :meth:`as_dict` output.

        A ``motifs``/``valmod`` payload is tagged as an
        :class:`EnvelopeRangeResult`: VALMOD is the one algorithm whose
        in-process result is richer than what the envelope round-trips, so
        rehydrated hits must fail loudly when callers reach for the missing
        ``ValmodResult`` fields.
        """
        try:
            kind = str(payload["kind"])
            algo = str(payload["algo"])
            native = _payload_from_dict(str(payload["payload_type"]), payload["payload"])
            if (
                kind == "motifs"
                and algo == "valmod"
                and isinstance(native, RangeDiscoveryResult)
            ):
                native = EnvelopeRangeResult(
                    algorithm=native.algorithm,
                    motifs_by_length=native.motifs_by_length,
                    elapsed_seconds=native.elapsed_seconds,
                    extra=native.extra,
                )
            return cls(
                kind=kind,
                algo=algo,
                params=dict(payload.get("params", {})),
                series_name=str(payload.get("series_name", "series")),
                series_length=int(payload.get("series_length", 0)),
                elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
                payload=native,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise SerializationError(f"not a valid analysis result: {error}") from error

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResult":
        """Rebuild an envelope from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SerializationError(f"not a valid analysis result: {error}") from error
        if not isinstance(payload, dict):
            raise SerializationError("not a valid analysis result: expected an object")
        return cls.from_dict(payload)
