"""The decoder oracle: the original cursor-based briefcase decoder.

``repro.core.codec.decode`` is an allocation-lean parser that reads
integer fields in place.  This module keeps the readable specification
it was derived from — a bounds-checked cursor over the buffer — so the
tests can check that production ``decode`` accepts the same inputs,
builds the same briefcases, and raises the same typed errors with the
same messages.  It is test-only code: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core import codec
from repro.core.briefcase import Briefcase
from repro.core.errors import MalformedBriefcaseError
from repro.core.limits import DEFAULT_WIRE_LIMITS, WireLimits

__all__ = ["decode_reference"]


class _Reader:
    """Cursor over a bytes buffer with bounds checking.

    Every short read raises the typed
    :class:`~repro.core.errors.MalformedBriefcaseError` with offset
    context instead of surfacing as a bare slice/struct error.
    """

    def __init__(self, data: codec.Buffer) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self.pos + n > len(self.data):
            raise MalformedBriefcaseError(
                f"truncated briefcase: wanted {n} bytes at offset {self.pos}, "
                f"buffer has {len(self.data)}")
        chunk = bytes(self.data[self.pos:self.pos + n])
        self.pos += n
        return chunk

    def u8(self) -> int:
        return int(codec._U8.unpack(self.take(codec._U8.size))[0])

    def u16(self) -> int:
        return int(codec._U16.unpack(self.take(codec._U16.size))[0])

    def u32(self) -> int:
        return int(codec._U32.unpack(self.take(codec._U32.size))[0])

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _decode_reference(data: codec.Buffer,
                      caps: Tuple[int, int, int, int]) -> Briefcase:
    """The cursor-based decoder body; ``caps`` as resolved by
    ``codec._decode_caps``."""
    max_folders, max_per_folder, max_total, max_element = caps
    reader = _Reader(data)
    if reader.take(len(codec.MAGIC)) != codec.MAGIC:
        raise MalformedBriefcaseError("bad magic: not a TAX briefcase")
    version = reader.u8()
    if version != codec.VERSION:
        raise MalformedBriefcaseError(
            f"unsupported briefcase format version {version}")
    folder_count = reader.u32()
    if folder_count > max_folders:
        raise MalformedBriefcaseError(
            f"implausible folder count {folder_count}")
    briefcase = Briefcase()
    total_elements = 0
    for _ in range(folder_count):
        name_len = reader.u16()
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedBriefcaseError(
                "folder name is not valid UTF-8") from exc
        if not name:
            raise MalformedBriefcaseError("empty folder name on the wire")
        if briefcase.has(name):
            raise MalformedBriefcaseError(
                f"duplicate folder {name!r} on the wire")
        element_count = reader.u32()
        if element_count > max_per_folder:
            raise MalformedBriefcaseError(
                f"implausible element count {element_count}")
        total_elements += element_count
        if total_elements > max_total:
            raise MalformedBriefcaseError(
                f"implausible total element count {total_elements}")
        folder = briefcase.folder(name)
        for _ in range(element_count):
            size = reader.u32()
            if size > max_element:
                raise MalformedBriefcaseError(
                    f"implausible element size {size}")
            if size > reader.remaining:
                raise MalformedBriefcaseError(
                    f"truncated briefcase: declared element size {size} "
                    f"exceeds the {reader.remaining} bytes left")
            folder.push(reader.take(size))
    if not reader.exhausted:
        raise MalformedBriefcaseError(
            f"{len(data) - reader.pos} trailing bytes after briefcase")
    return briefcase


def decode_reference(data: codec.Buffer,
                     limits: Optional[WireLimits] = DEFAULT_WIRE_LIMITS
                     ) -> Briefcase:
    """Decode ``data`` with the oracle, under the same buffer-size
    checks and caps as ``codec.decode``."""
    return _decode_reference(data, codec._decode_caps(len(data), limits))
