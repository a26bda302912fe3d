"""Cyclic redundancy checks used by the link layers.

* CRC-10 protects each AAL3/4 cell payload (ITU I.363: x^10 + x^9 +
  x^5 + x^4 + x + 1).
* CRC-32 (IEEE 802.3) is the Ethernet frame check sequence.

Both are real checks over real bytes, so injected bit errors are caught
(or not) exactly as the hardware would catch them.  CRC-10 is a
table-driven, byte-at-a-time implementation; CRC-32 is :func:`zlib.crc32`.
"""

from __future__ import annotations

import zlib
from typing import List, Union

__all__ = ["crc10", "crc10_check", "crc32", "CRC10_POLY"]

Buffer = Union[bytes, bytearray, memoryview]

#: CRC-10 generator polynomial (I.363 AAL3/4), excluding the x^10 term.
CRC10_POLY = 0x233


def _build_crc10_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte << 2
        for _ in range(8):
            if crc & 0x200:
                crc = ((crc << 1) ^ CRC10_POLY) & 0x3FF
            else:
                crc = (crc << 1) & 0x3FF
        table.append(crc)
    return table


_CRC10_TABLE = _build_crc10_table()


def crc10(data: Buffer, initial: int = 0) -> int:
    """CRC-10 over *data*, MSB-first, starting from *initial*."""
    crc = initial & 0x3FF
    for byte in bytes(data):
        crc = ((crc << 8) & 0x3FF) ^ _CRC10_TABLE[((crc >> 2) ^ byte) & 0xFF]
    return crc


def crc10_check(data: Buffer, expected: int) -> bool:
    """Whether *data* matches the transmitted CRC-10 value."""
    return crc10(data) == (expected & 0x3FF)


def crc32(data: Buffer, initial: int = 0) -> int:
    """IEEE 802.3 CRC-32 over *data*, continuing from *initial*."""
    return zlib.crc32(data, initial)


# ----------------------------------------------------------------------
# Optional compiled CRC-10 (repro._native._corec); the pure definition
# stays importable as _crc10_py for the equivalence tests.  crc10_check
# and every importer (repro.atm.aal's per-cell CRC) resolve the rebound
# module global, so they ride the native path automatically.
# ----------------------------------------------------------------------

import repro.perf.native as _native_dispatch

if _native_dispatch.lib is not None:
    _crc10_py = crc10
    crc10 = _native_dispatch.lib.crc10
