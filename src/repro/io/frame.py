"""A binary frame for documents that carry numpy arrays.

JSON spells every float of a matrix profile out as text: a 4,033-point
profile is ~98 KB that costs milliseconds to write and to parse.  The frame
sends the same document with its arrays as raw bytes instead.  It has three
parts:

1. an 8-byte prefix: the magic ``b"RPF1"`` and the header length as a
   little-endian ``uint32``;
2. the header: UTF-8 JSON of the document, in which every array is replaced
   by a descriptor ``{"$ndarray": {"dtype", "shape", "offset", "nbytes"}}``;
3. zero padding to the next multiple of 8 bytes, then the arrays' raw
   little-endian bytes, back to back in document order.  ``offset`` counts
   from the start of this data section, so every array is 8-byte aligned.

Only ``<f8`` and ``<i8`` arrays travel; anything else is a
:class:`~repro.exceptions.SerializationError` on either side.  A frame is
outside input: :func:`decode_frame` checks every length, offset and dtype
before it reads a byte of array data, and returns writeable copies.

The service offers the frame to clients that name :data:`MEDIA_TYPE` in
their ``Accept`` header; JSON stays the default everywhere.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Any

import numpy as np

from repro.exceptions import SerializationError

__all__ = ["MEDIA_TYPE", "accepts_frame", "decode_frame", "encode_frame"]

#: The media type a client names in ``Accept`` to receive frames.
MEDIA_TYPE = "application/vnd.repro.frame"
MAGIC = b"RPF1"
_PREFIX = struct.Struct("<4sI")
_ARRAY_KEY = "$ndarray"
_ALIGN = 8
#: Wire dtypes, keyed by numpy (kind, itemsize).
_WIRE_DTYPES = {("f", 8): "<f8", ("i", 8): "<i8"}


def accepts_frame(accept: str | None) -> bool:
    """Whether an ``Accept`` header value names :data:`MEDIA_TYPE`
    (with a non-zero quality)."""
    for item in (accept or "").split(","):
        media, *params = (part.strip() for part in item.split(";"))
        if media.lower() != MEDIA_TYPE:
            continue
        quality = next((p[2:] for p in params if p.lower().startswith("q=")), "1")
        try:
            return float(quality) > 0
        except ValueError:
            return False
    return False


def encode_frame(document: Any) -> bytes:
    """Encode a JSON-ready document whose leaves may be numpy arrays.

    Raises :class:`~repro.exceptions.SerializationError` for an array of
    another dtype, and for a mapping that already uses the descriptor key
    (it would decode as an array).
    """
    blocks: list = []
    cursor = 0

    def describe(value: Any) -> Any:
        nonlocal cursor
        if isinstance(value, dict) and _ARRAY_KEY in value:
            raise SerializationError(
                f"the key {_ARRAY_KEY!r} is reserved for frame array descriptors"
            )
        if not isinstance(value, np.ndarray):
            return None
        wire = _WIRE_DTYPES.get((value.dtype.kind, value.dtype.itemsize))
        if wire is None:
            raise SerializationError(
                f"a frame carries only <f8 and <i8 arrays, not {value.dtype}"
            )
        data = np.ascontiguousarray(value, dtype=wire)
        blocks.append(data)
        descriptor = {
            "dtype": wire,
            "shape": list(data.shape),
            "offset": cursor,
            "nbytes": data.nbytes,
        }
        cursor += data.nbytes
        return {_ARRAY_KEY: descriptor}

    try:
        header = _rebuild(document, describe)
        header = json.dumps(header, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise SerializationError(f"cannot encode a frame header: {error}") from error
    padding = -(_PREFIX.size + len(header)) % _ALIGN
    return b"".join(
        [_PREFIX.pack(MAGIC, len(header)), header, b"\0" * padding, *blocks]
    )


def decode_frame(data) -> Any:
    """Decode a frame into its document, arrays as writeable numpy copies.

    Raises :class:`~repro.exceptions.SerializationError` on a bad magic, a
    header that runs past the body or is not JSON, an array descriptor with
    an unknown dtype, a bad shape, an ``nbytes`` other than shape x 8, a
    range past the end or out of order, and on trailing bytes.
    """
    view = memoryview(data)
    total = view.nbytes
    if total < _PREFIX.size or bytes(view[:4]) != MAGIC:
        raise SerializationError("not a frame: bad magic")
    header_length = _PREFIX.unpack_from(view)[1]
    header_end = _PREFIX.size + header_length
    start = header_end + (-header_end % _ALIGN)
    if start > total:
        raise SerializationError(
            f"the frame header ({header_length} bytes) runs past the body "
            f"({total} bytes)"
        )
    cursor = 0

    def array(value: Any) -> Any:
        nonlocal cursor
        if not isinstance(value, dict) or _ARRAY_KEY not in value:
            return None
        descriptor = value[_ARRAY_KEY]
        if len(value) != 1 or not isinstance(descriptor, dict):
            raise SerializationError("a frame array descriptor must be a lone object")
        dtype = descriptor.get("dtype")
        if dtype not in _WIRE_DTYPES.values():
            raise SerializationError(f"a frame array has an unknown dtype {dtype!r}")
        shape, offset, nbytes = (
            descriptor.get(name) for name in ("shape", "offset", "nbytes")
        )
        if not isinstance(shape, list) or not all(_is_count(n) for n in shape):
            raise SerializationError(f"a frame array has a bad shape {shape!r}")
        if not _is_count(offset) or not _is_count(nbytes):
            raise SerializationError("a frame array needs integer offset and nbytes")
        count = math.prod(shape)
        if nbytes != count * 8:
            raise SerializationError(
                f"a frame array of shape {shape} claims {nbytes} bytes, not {count * 8}"
            )
        if start + offset + nbytes > total:
            raise SerializationError(
                f"a frame array [{offset}, {offset + nbytes}) runs past the end "
                f"of the data ({total - start} bytes)"
            )
        if offset != cursor:
            raise SerializationError(
                f"a frame array starts at {offset}, expected {cursor}"
            )
        cursor += nbytes
        values = np.frombuffer(view, dtype=dtype, count=count, offset=start + offset)
        return values.reshape(shape).copy()

    try:
        header = json.loads(view[_PREFIX.size : header_end].tobytes())
        document = _rebuild(header, array)
    except (ValueError, RecursionError) as error:
        raise SerializationError(f"the frame header is not JSON: {error}") from error
    if start + cursor != total:
        raise SerializationError(
            f"the frame has {total - start - cursor} trailing bytes"
        )
    return document


def _rebuild(value: Any, replace) -> Any:
    """A copy of a nested dict/list document in which every node that
    ``replace`` maps to something other than ``None`` is replaced.

    Module level, not a closure over ``replace``: a recursive closure is a
    reference cycle, and the buffers it held would wait for the cyclic
    garbage collector instead of being freed when the call returns.
    """
    replaced = replace(value)
    if replaced is not None:
        return replaced
    if isinstance(value, dict):
        return {key: _rebuild(item, replace) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rebuild(item, replace) for item in value]
    return value


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0
