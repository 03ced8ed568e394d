"""Deterministic tag-length-value serialization for on-disk records.

The Aurora object store persists kernel object state as byte records on
the simulated NVMe array.  We deliberately do not use :mod:`pickle`:
records must be a stable wire format that survives "reboots" into a
fresh interpreter, must never execute code on load, and must be
checksummable byte-for-byte.  This module provides a small, strict TLV
encoding for the value shapes kernel serializers actually produce:

* ``None``, ``bool``, ``int`` (arbitrary precision, signed)
* ``bytes``, ``str`` (UTF-8)
* ``list`` / ``tuple`` (decoded as ``list``)
* ``dict`` with ``str`` keys, encoded in sorted key order so that equal
  dicts always produce identical bytes (important for dedup tests).

An :class:`Encoded` value is a value already in TLV form: callers that
emit the same rows into many records encode each row once and splice
its bytes into every later :func:`dumps`.

The format is self-describing and versioned via :data:`MAGIC`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any

from .errors import CorruptRecord

#: Format magic, bumped if the encoding ever changes incompatibly.
MAGIC = b"ATLV"
VERSION = 1

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_NEGINT = 0x04
_TAG_BYTES = 0x05
_TAG_STR = 0x06
_TAG_LIST = 0x07
_TAG_DICT = 0x08

_LEN = struct.Struct(">Q")


def _encode_varbytes(out: bytearray, tag: int, payload: bytes) -> None:
    out.append(tag)
    out += _LEN.pack(len(payload))
    out += payload


class Encoded:
    """One value encoded once, spliced verbatim wherever it is dumped.

    Decoding yields the plain value it was built from; the wrapper
    exists only on the encode side.
    """

    __slots__ = ("data",)

    def __init__(self, value: Any):
        out = bytearray()
        _encode_value(out, value)
        self.data = bytes(out)


def _encode_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif isinstance(value, int):
        # Arbitrary precision: store magnitude as big-endian bytes.
        tag = _TAG_INT if value >= 0 else _TAG_NEGINT
        magnitude = abs(value)
        nbytes = max(1, (magnitude.bit_length() + 7) // 8)
        _encode_varbytes(out, tag, magnitude.to_bytes(nbytes, "big"))
    elif isinstance(value, bytes):
        _encode_varbytes(out, _TAG_BYTES, value)
    elif isinstance(value, bytearray):
        _encode_varbytes(out, _TAG_BYTES, bytes(value))
    elif isinstance(value, str):
        _encode_varbytes(out, _TAG_STR, value.encode("utf-8"))
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        out += _LEN.pack(len(value))
        for item in value:
            _encode_value(out, item)
    elif isinstance(value, dict):
        out.append(_TAG_DICT)
        out += _LEN.pack(len(value))
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"dict keys must be str, got {type(key).__name__}")
            _encode_value(out, key)
            _encode_value(out, value[key])
    elif isinstance(value, Encoded):
        out += value.data
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value: Any) -> bytes:
    """Serialize ``value`` to a framed, checksummed byte record."""
    body = bytearray()
    _encode_value(body, value)
    header = MAGIC + bytes([VERSION])
    checksum = zlib.crc32(bytes(body))
    return header + _LEN.pack(checksum) + _LEN.pack(len(body)) + bytes(body)


class _Decoder:
    def __init__(self, data: bytes, offset: int):
        self.data = data
        self.offset = offset

    def _take(self, n: int) -> bytes:
        end = self.offset + n
        if end > len(self.data):
            raise CorruptRecord("record truncated")
        chunk = self.data[self.offset:end]
        self.offset = end
        return chunk

    def _take_len(self) -> int:
        return _LEN.unpack(self._take(_LEN.size))[0]

    def decode(self) -> Any:
        """Decode the next value at the cursor (internal TLV walk)."""
        tag = self._take(1)[0]
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag in (_TAG_INT, _TAG_NEGINT):
            payload = self._take(self._take_len())
            magnitude = int.from_bytes(payload, "big")
            return magnitude if tag == _TAG_INT else -magnitude
        if tag == _TAG_BYTES:
            return bytes(self._take(self._take_len()))
        if tag == _TAG_STR:
            return self._take(self._take_len()).decode("utf-8")
        if tag == _TAG_LIST:
            count = self._take_len()
            return [self.decode() for _ in range(count)]
        if tag == _TAG_DICT:
            count = self._take_len()
            result = {}
            for _ in range(count):
                key = self.decode()
                if not isinstance(key, str):
                    raise CorruptRecord("dict key is not a string")
                result[key] = self.decode()
            return result
        raise CorruptRecord(f"unknown tag 0x{tag:02x}")


def loads(data: bytes) -> Any:
    """Decode a record produced by :func:`dumps`.

    Raises :class:`~repro.errors.CorruptRecord` on any malformed input,
    including checksum mismatches — the object store relies on this to
    detect torn writes after a simulated crash.
    """
    header_len = len(MAGIC) + 1 + 2 * _LEN.size
    if len(data) < header_len:
        raise CorruptRecord("record shorter than header")
    if data[:len(MAGIC)] != MAGIC:
        raise CorruptRecord("bad magic")
    if data[len(MAGIC)] != VERSION:
        raise CorruptRecord(f"unsupported version {data[len(MAGIC)]}")
    checksum = _LEN.unpack_from(data, len(MAGIC) + 1)[0]
    body_len = _LEN.unpack_from(data, len(MAGIC) + 1 + _LEN.size)[0]
    body = data[header_len:header_len + body_len]
    if len(body) != body_len:
        raise CorruptRecord("record truncated")
    if zlib.crc32(body) != checksum:
        raise CorruptRecord("checksum mismatch")
    decoder = _Decoder(bytes(body), 0)
    value = decoder.decode()
    if decoder.offset != len(body):
        raise CorruptRecord("trailing bytes after value")
    return value
