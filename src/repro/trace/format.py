"""The ``RPTR`` trace file format.

Layout (all integers little-endian)::

    header   magic b"RPTR" | u16 version | u32 meta_len | meta JSON
    records  repeated, each framed as  u8 kind | payload
             kind 0x01  string definition: u32 id | u16 len | utf-8
             kind 0x02  log entry:
                        f64 time | u16 status | u8 residential
                        | 11 x u32 string ids
                        (method, path, blocked_by, outcome, ip,
                         country, fingerprint, user_agent, profile,
                         actor, actor_class)
    footer   kind 0xFF  u64 entry_count | u32 crc32

Strings are interned: each distinct string is written once as a
definition record and referenced by id afterwards — client identity
fields repeat across almost every entry, so a trace costs a few bytes
per request instead of a few hundred.  The footer CRC covers every
record byte between header and footer; a reader hitting a bad CRC,
truncated frame, or missing footer raises :class:`TraceCorruption`
instead of returning silently short data.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import BinaryIO, Dict, Iterator, List, Optional

from ..common import ClientRef
from ..web.logs import LogEntry

TRACE_MAGIC = b"RPTR"
TRACE_VERSION = 1

_KIND_STRING = 0x01
_KIND_ENTRY = 0x02
_KIND_FOOTER = 0xFF

_ENTRY_STRUCT = struct.Struct("<dHB11I")
_STRING_HEAD = struct.Struct("<IH")
_FOOTER_STRUCT = struct.Struct("<QI")
_META_LEN = struct.Struct("<I")
_VERSION_STRUCT = struct.Struct("<H")


class TraceError(Exception):
    """Base error for trace I/O."""


class TraceCorruption(TraceError):
    """The file violates the format: bad magic/CRC, truncation, ..."""


class TraceWriter:
    """Append-only trace writer.

    Use as a context manager (or call :meth:`close`) — the footer with
    the entry count and CRC is only written on close, and a trace
    without a footer reads as corrupt (by design: a crashed capture
    should not pass for a complete one).
    """

    def __init__(self, path: str, meta: Optional[Dict[str, object]] = None):
        self.path = path
        self.meta = dict(meta or {})
        self._handle: Optional[BinaryIO] = open(path, "wb")
        self._strings: Dict[str, int] = {}
        self._crc = 0
        self.entries_written = 0
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        self._handle.write(TRACE_MAGIC)
        self._handle.write(_VERSION_STRUCT.pack(TRACE_VERSION))
        self._handle.write(_META_LEN.pack(len(meta_blob)))
        self._handle.write(meta_blob)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _emit(self, payload: bytes) -> None:
        assert self._handle is not None
        self._crc = zlib.crc32(payload, self._crc)
        self._handle.write(payload)

    def _intern(self, text: str) -> int:
        string_id = self._strings.get(text)
        if string_id is None:
            string_id = len(self._strings)
            self._strings[text] = string_id
            blob = text.encode("utf-8")
            if len(blob) > 0xFFFF:
                raise TraceError(
                    f"string too long for trace format: {len(blob)} bytes"
                )
            self._emit(
                bytes([_KIND_STRING])
                + _STRING_HEAD.pack(string_id, len(blob))
                + blob
            )
        return string_id

    def write(self, entry: LogEntry) -> None:
        if self._handle is None:
            raise TraceError("trace writer is closed")
        client = entry.client
        ids = [
            self._intern(text)
            for text in (
                entry.method,
                entry.path,
                entry.blocked_by,
                entry.outcome,
                client.ip_address,
                client.ip_country,
                client.fingerprint_id,
                client.user_agent,
                client.profile_id,
                client.actor,
                client.actor_class,
            )
        ]
        self._emit(
            bytes([_KIND_ENTRY])
            + _ENTRY_STRUCT.pack(
                entry.time,
                entry.status,
                1 if client.ip_residential else 0,
                *ids,
            )
        )
        self.entries_written += 1

    def close(self) -> None:
        if self._handle is None:
            return
        self._handle.write(
            bytes([_KIND_FOOTER])
            + _FOOTER_STRUCT.pack(self.entries_written, self._crc)
        )
        self._handle.close()
        self._handle = None


class TraceReader:
    """Streaming trace reader; iterates :class:`LogEntry` objects.

    Validates magic and version eagerly (constructor) and the CRC and
    entry count lazily (when iteration reaches the footer).
    """

    def __init__(self, path: str):
        self.path = path
        self._handle: BinaryIO = open(path, "rb")
        magic = self._handle.read(4)
        if magic != TRACE_MAGIC:
            self._handle.close()
            raise TraceCorruption(
                f"{path}: bad magic {magic!r} (expected {TRACE_MAGIC!r})"
            )
        raw_version = self._handle.read(_VERSION_STRUCT.size)
        if len(raw_version) < _VERSION_STRUCT.size:
            self._handle.close()
            raise TraceCorruption(f"{path}: truncated header")
        (self.version,) = _VERSION_STRUCT.unpack(raw_version)
        if self.version != TRACE_VERSION:
            self._handle.close()
            raise TraceError(
                f"{path}: unsupported trace version {self.version} "
                f"(this reader speaks {TRACE_VERSION})"
            )
        raw_len = self._handle.read(_META_LEN.size)
        if len(raw_len) < _META_LEN.size:
            self._handle.close()
            raise TraceCorruption(f"{path}: truncated header")
        (meta_len,) = _META_LEN.unpack(raw_len)
        meta_blob = self._handle.read(meta_len)
        if len(meta_blob) < meta_len:
            self._handle.close()
            raise TraceCorruption(f"{path}: truncated metadata")
        try:
            self.meta: Dict[str, object] = json.loads(
                meta_blob.decode("utf-8")
            )
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._handle.close()
            raise TraceCorruption(f"{path}: bad metadata: {error}")

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None  # type: ignore[assignment]

    def _read_exact(self, size: int) -> bytes:
        blob = self._handle.read(size)
        if len(blob) < size:
            raise TraceCorruption(f"{self.path}: truncated record")
        return blob

    def __iter__(self) -> Iterator[LogEntry]:
        strings: List[str] = []
        crc = 0
        count = 0
        while True:
            kind_byte = self._handle.read(1)
            if not kind_byte:
                raise TraceCorruption(
                    f"{self.path}: missing footer (truncated capture?)"
                )
            kind = kind_byte[0]
            if kind == _KIND_FOOTER:
                expected_count, expected_crc = _FOOTER_STRUCT.unpack(
                    self._read_exact(_FOOTER_STRUCT.size)
                )
                if expected_count != count:
                    raise TraceCorruption(
                        f"{self.path}: footer says {expected_count} "
                        f"entries, read {count}"
                    )
                if expected_crc != crc:
                    raise TraceCorruption(
                        f"{self.path}: CRC mismatch "
                        f"(footer {expected_crc:#010x}, "
                        f"computed {crc:#010x})"
                    )
                return
            if kind == _KIND_STRING:
                head = self._read_exact(_STRING_HEAD.size)
                string_id, length = _STRING_HEAD.unpack(head)
                blob = self._read_exact(length)
                crc = zlib.crc32(head, zlib.crc32(kind_byte, crc))
                crc = zlib.crc32(blob, crc)
                if string_id != len(strings):
                    raise TraceCorruption(
                        f"{self.path}: out-of-order string id {string_id}"
                    )
                strings.append(blob.decode("utf-8"))
                continue
            if kind == _KIND_ENTRY:
                payload = self._read_exact(_ENTRY_STRUCT.size)
                crc = zlib.crc32(payload, zlib.crc32(kind_byte, crc))
                unpacked = _ENTRY_STRUCT.unpack(payload)
                time, status, residential = unpacked[:3]
                try:
                    (
                        method, path, blocked_by, outcome, ip, country,
                        fingerprint, user_agent, profile, actor,
                        actor_class,
                    ) = (strings[i] for i in unpacked[3:])
                except IndexError:
                    raise TraceCorruption(
                        f"{self.path}: entry references undefined string"
                    )
                count += 1
                yield LogEntry(
                    time=time,
                    method=method,
                    path=path,
                    status=status,
                    client=ClientRef(
                        ip_address=ip,
                        ip_country=country,
                        ip_residential=bool(residential),
                        fingerprint_id=fingerprint,
                        user_agent=user_agent,
                        profile_id=profile,
                        actor=actor,
                        actor_class=actor_class,
                    ),
                    blocked_by=blocked_by,
                    outcome=outcome,
                )
                continue
            raise TraceCorruption(
                f"{self.path}: unknown record kind {kind:#04x}"
            )
