"""A fixed reference kernel: the benchmark's yardstick.

The host this benchmark was built on (a shared 2-vCPU VM) changes speed
by tens of percent within minutes, so raw wall time cannot repeat within
any useful bound.  The benchmark therefore runs this kernel right after
every timed segment and reports each segment's wall time as a multiple
of the kernel's: both see the same host speed.

The kernel mixes the two kinds of work the stack does: interpreter work
(calls, attribute updates, dict and list indexing, generator resumes)
and per-byte work (copying 8000-byte buffers and summing them as
big-endian 16-bit words with numpy, as the Internet checksum does).  It
allocates no container objects, so it never triggers a garbage
collection and its speed does not depend on how many objects the
simulator keeps alive, and it imports nothing from ``src/``: no change
to the stack can change it.  Never edit it; a different kernel is a
different unit.
"""

from __future__ import annotations

import numpy

__all__ = ["kernel"]

_STEPS = 3000
_COPIES = 80
_BUF = bytes(range(256)) * 40
_TABLE = [(i * 2654435761) & 0xFFFF for i in range(1024)]
_COUNTS = dict.fromkeys(range(97), 0)


class _Cursor:
    __slots__ = ("pos",)

    def __init__(self) -> None:
        self.pos = 0

    def advance(self, step: int) -> int:
        self.pos = (self.pos + step) & 1023
        return self.pos


def _consumer():
    total = 0
    while True:
        total += (yield total) & 0xFF


_CURSOR = _Cursor()
_GEN = _consumer()
next(_GEN)


def kernel() -> int:
    """One fixed unit of interpreter and per-byte work; returns a
    checksum."""
    table, counts, advance, send, buf = (_TABLE, _COUNTS, _CURSOR.advance,
                                         _GEN.send, _BUF)
    acc = 0
    for i in range(_STEPS):
        pos = advance(i)
        acc = (acc + table[pos]) & 0xFFFFFFFF
        key = acc % 97
        counts[key] += 1
        acc ^= send(acc)
        if buf[pos:pos + 8] == buf[0:8]:
            acc += 1
    for i in range(_COPIES):
        chunk = bytes(buf[i:i + 8000])
        acc += int(numpy.frombuffer(chunk, dtype=">u2").sum(
            dtype=numpy.uint64))
    return acc
