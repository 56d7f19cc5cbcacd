"""Saving and loading analysis artefacts as JSON.

The demo system hands the VALMAP produced by the C back-end to the Python
front-end as a file; this module plays that role for the library.  JSON was
chosen over pickle because the artefacts are small (a few arrays and motif
lists), human-inspectable, and safe to load.

Matrix profiles and VALMAP round-trip losslessly.  :func:`save_result` stores
the full :class:`~repro.core.results.ValmodResult` dictionary; loading it back
returns that dictionary (not a reconstructed object), which is what the
benchmark harness and the reports need.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.results import ValmodResult
from repro.core.skimp import PanMatrixProfile
from repro.core.valmap import Valmap
from repro.exceptions import SerializationError
from repro.matrix_profile.ab_join import JoinProfile
from repro.matrix_profile.profile import MatrixProfile

__all__ = [
    "save_matrix_profile",
    "load_matrix_profile",
    "save_valmap",
    "load_valmap",
    "save_result",
    "load_result",
    "save_join_profile",
    "load_join_profile",
    "save_pan_profile",
    "load_pan_profile",
    "save_analysis_request",
    "load_analysis_request",
    "save_analysis_result",
    "load_analysis_result",
    "save_cache_entry",
    "load_cache_entry",
    "cache_entry_result_bytes",
]

PathLike = Union[str, Path]


def _write_json(payload: dict, path: PathLike) -> Path:
    return _write_atomic(path, lambda handle: json.dump(payload, handle, indent=2))


def _write_atomic(path: PathLike, write) -> Path:
    # Atomic write: ``write(handle)`` fills a unique sibling temp file, which
    # is then renamed over the target.  Concurrent readers (the persistent
    # result cache is shared between processes by design) only ever see
    # complete files, and two concurrent writers cannot interleave into
    # garbage — the last rename wins wholesale.
    path = Path(path)
    temp_name = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=path.parent,
            prefix=f".{path.name}.",
            suffix=".tmp",
            delete=False,
        ) as handle:
            temp_name = handle.name
            write(handle)
        os.replace(temp_name, path)
        temp_name = None
    except (OSError, TypeError, ValueError) as error:
        raise SerializationError(f"cannot write {path}: {error}") from error
    finally:
        if temp_name is not None:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
    return path


def _read_json(path: PathLike) -> dict:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        raise SerializationError(f"cannot read {path}: {error}") from error
    if not isinstance(payload, dict):
        raise SerializationError(f"{path} does not contain a JSON object")
    return payload


def save_matrix_profile(profile: MatrixProfile, path: PathLike) -> Path:
    """Write a matrix profile to a JSON file."""
    payload = {"kind": "matrix_profile", **profile.as_dict()}
    return _write_json(payload, path)


def load_matrix_profile(path: PathLike) -> MatrixProfile:
    """Read a matrix profile written by :func:`save_matrix_profile`."""
    payload = _read_json(path)
    if payload.get("kind") != "matrix_profile":
        raise SerializationError(f"{path} does not contain a matrix profile")
    try:
        return MatrixProfile(
            distances=np.asarray(payload["distances"], dtype=np.float64),
            indices=np.asarray(payload["indices"], dtype=np.int64),
            window=int(payload["window"]),
            exclusion_radius=int(payload["exclusion_radius"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"{path} is not a valid matrix profile file: {error}") from error


def save_valmap(valmap: Valmap, path: PathLike) -> Path:
    """Write a VALMAP (including its checkpoints) to a JSON file."""
    payload = {"kind": "valmap", **valmap.as_dict()}
    return _write_json(payload, path)


def load_valmap(path: PathLike) -> Valmap:
    """Read a VALMAP written by :func:`save_valmap`."""
    payload = _read_json(path)
    if payload.get("kind") != "valmap":
        raise SerializationError(f"{path} does not contain a VALMAP")
    try:
        return Valmap.from_dict(payload)
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"{path} is not a valid VALMAP file: {error}") from error


def save_result(result: ValmodResult, path: PathLike) -> Path:
    """Write the full result of a VALMOD run to a JSON file."""
    payload = {"kind": "valmod_result", **result.as_dict()}
    return _write_json(payload, path)


def load_result(path: PathLike) -> dict:
    """Read a result file written by :func:`save_result` (returns a dictionary)."""
    payload = _read_json(path)
    if payload.get("kind") != "valmod_result":
        raise SerializationError(f"{path} does not contain a VALMOD result")
    return payload


def save_analysis_request(request, path: PathLike) -> Path:
    """Write an :class:`~repro.api.requests.AnalysisRequest` to a JSON file.

    This is the service-style submission format: a request document saved
    here can be loaded on another machine and replayed through
    :meth:`repro.api.Analysis.run`.
    """
    payload = {"kind": "analysis_request", "request": request.as_dict()}
    return _write_json(payload, path)


def load_analysis_request(path: PathLike):
    """Read a request written by :func:`save_analysis_request`."""
    from repro.api.requests import AnalysisRequest

    payload = _read_json(path)
    if payload.get("kind") != "analysis_request":
        raise SerializationError(f"{path} does not contain an analysis request")
    return AnalysisRequest.from_dict(payload.get("request", {}))


def save_analysis_result(result, path: PathLike) -> Path:
    """Write an :class:`~repro.api.requests.AnalysisResult` envelope to JSON."""
    payload = {"kind": "analysis_result", "result": result.as_dict()}
    return _write_json(payload, path)


def load_analysis_result(path: PathLike):
    """Read a result envelope written by :func:`save_analysis_result`."""
    from repro.api.requests import AnalysisResult

    payload = _read_json(path)
    if payload.get("kind") != "analysis_result":
        raise SerializationError(f"{path} does not contain an analysis result")
    return AnalysisResult.from_dict(payload.get("result", {}))


def _cache_entry_head(key: str) -> str:
    # The slot object up to its "result" value; save_cache_entry closes it.
    return (
        '{"kind": "analysis_cache_entry", '
        f'"cache_key": {json.dumps(str(key))}, "result": '
    )


def save_cache_entry(
    result, key: str, path: PathLike, *, result_json: str | None = None
) -> Path:
    """Write one persistent-cache slot: an envelope plus its canonical key.

    The key travels inside the file so :func:`load_cache_entry` can verify
    the slot really answers the request being asked (filename hashes alone
    cannot), which is what lets
    :class:`repro.api.cache.PersistentResultCache` treat any mismatch as a
    miss instead of returning a wrong result.  ``result_json`` optionally
    reuses an already-encoded ``json.dumps(result.as_dict(), sort_keys=True)``:
    the slot is that text wrapped in the ``kind``/``cache_key`` object, with
    no indentation, so writing it encodes nothing again.
    """
    if result_json is None:
        try:
            result_json = json.dumps(result.as_dict(), sort_keys=True)
        except (TypeError, ValueError) as error:
            raise SerializationError(f"cannot write {path}: {error}") from error
    head = _cache_entry_head(key)
    return _write_atomic(path, lambda handle: handle.writelines((head, result_json, "}")))


def cache_entry_result_bytes(key: str, file_bytes: int) -> int:
    """The size of the result text inside a slot of ``file_bytes`` bytes
    written by :func:`save_cache_entry` for ``key``: the bytes the computed
    result was counted at."""
    return file_bytes - len(_cache_entry_head(key)) - len("}")


def load_cache_entry(path: PathLike):
    """Read a slot written by :func:`save_cache_entry`.

    Returns ``(cache_key, AnalysisResult)``; raises
    :class:`~repro.exceptions.SerializationError` on any malformed content
    (the persistent cache converts that into a miss).
    """
    from repro.api.requests import AnalysisResult

    payload = _read_json(path)
    if payload.get("kind") != "analysis_cache_entry":
        raise SerializationError(f"{path} does not contain an analysis cache entry")
    key = payload.get("cache_key")
    if not isinstance(key, str):
        raise SerializationError(f"{path} has no cache key")
    return key, AnalysisResult.from_dict(payload.get("result", {}))


def save_join_profile(profile: JoinProfile, path: PathLike) -> Path:
    """Write an AB-join profile to a JSON file."""
    payload = {"kind": "join_profile", **profile.as_dict()}
    return _write_json(payload, path)


def load_join_profile(path: PathLike) -> JoinProfile:
    """Read an AB-join profile written by :func:`save_join_profile`."""
    payload = _read_json(path)
    if payload.get("kind") != "join_profile":
        raise SerializationError(f"{path} does not contain an AB-join profile")
    try:
        return JoinProfile(
            distances=np.asarray(payload["distances"], dtype=np.float64),
            indices=np.asarray(payload["indices"], dtype=np.int64),
            window=int(payload["window"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"{path} is not a valid join-profile file: {error}") from error


def save_pan_profile(pan: PanMatrixProfile, path: PathLike) -> Path:
    """Write a SKIMP pan matrix profile to a JSON file.

    ``NaN`` padding (positions a length cannot reach) is stored as ``null``
    so the file stays valid JSON.
    """
    payload = pan.as_dict()
    payload["normalized_profiles"] = [
        [None if value != value else value for value in row]
        for row in payload["normalized_profiles"]
    ]
    return _write_json({"kind": "pan_profile", **payload}, path)


def load_pan_profile(path: PathLike) -> PanMatrixProfile:
    """Read a pan matrix profile written by :func:`save_pan_profile`."""
    payload = _read_json(path)
    if payload.get("kind") != "pan_profile":
        raise SerializationError(f"{path} does not contain a pan matrix profile")
    try:
        normalized = np.asarray(
            [
                [np.nan if value is None else float(value) for value in row]
                for row in payload["normalized_profiles"]
            ],
            dtype=np.float64,
        )
        return PanMatrixProfile(
            lengths=np.asarray(payload["lengths"], dtype=np.int64),
            normalized_profiles=normalized,
            index_profiles=np.asarray(payload["index_profiles"], dtype=np.int64),
            min_length=int(payload["min_length"]),
            max_length=int(payload["max_length"]),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(f"{path} is not a valid pan-profile file: {error}") from error
