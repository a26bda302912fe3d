"""Deterministic structure-aware protocol fuzzer for in-flight PDUs.

Where :mod:`repro.chaos.impair` impairs *delivery* (drop, duplicate,
reorder, truncate), this engine impairs *content*: it interposes on the
same duck-typed ``link.impairments`` hook and rewrites bytes of the
wire PDU before delivery, at three levels —

* **TCP header**: hostile flag combinations (SYN+FIN, RST+data, no
  flags at all), sequence/ack numbers pushed to wraparound distances,
  window and urgent-pointer extremes, bad data offsets, malformed
  options, blind (out-of-window) RSTs, and invalidated checksums;
* **IP header**: total-length lies, fragment-field garbage, wrong
  protocol/version, bad header checksums;
* **raw bytes**: position-hashed bit damage anywhere in the frame,
  modelling corruption the link-level check failed to catch.

Mutations are strictly *in place* — the PDU length never changes — so
the cell count and timing the adapter already committed to stay valid
and the only divergence from the clean run is the bytes themselves.
Structure-aware TCP mutations recompute the TCP checksum so the
hostile field values actually reach the protocol state machine rather
than dying at the checksum test.

Determinism is the impairment layer's contract, tightened: each
transmitting endpoint draws from its own forked
:class:`~repro.sim.rng.SplitMix64Stream` and every packet consumes a
fixed number of draws (:data:`DRAWS_PER_PACKET`), so the mutation
decision for packet *n* of endpoint *e* is a pure function of
``(seed, e, n)``.  Every applied mutation is recorded as a schedule
entry ``{"endpoint", "index", "op", "sel"}``; a fuzzer built with
:meth:`PacketFuzzer.replay` applies exactly a given schedule and draws
nothing, which is what makes delta-debugging (ddmin over schedule
subsets) and committed regression corpora sound.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checksum.internet import fold, internet_checksum, raw_sum
from repro.net.headers import (
    IP_HEADER_LEN,
    IPHeader,
    TCPFlags,
    pseudo_header_sum,
)
from repro.sim.rng import SplitMix64Stream

__all__ = ["FuzzConfig", "FuzzStats", "PacketFuzzer", "apply_mutation",
           "TCP_OPS", "IP_OPS", "RAW_OPS", "ALL_OPS", "DRAWS_PER_PACKET"]

#: Fixed per-packet draw budget (the determinism contract).
DRAWS_PER_PACKET = 6

#: Mutation operators by level.  Names are stable: they appear in
#: committed reproducer schedules under tests/fuzz_corpus/.
TCP_OPS: Tuple[str, ...] = (
    "tcp-flags", "tcp-seq", "tcp-ack", "tcp-window", "tcp-urgent",
    "tcp-offset", "tcp-options", "tcp-badsum", "tcp-rst-blind",
)
IP_OPS: Tuple[str, ...] = (
    "ip-length", "ip-frag", "ip-proto", "ip-version", "ip-badsum",
)
RAW_OPS: Tuple[str, ...] = ("raw-bytes",)
ALL_OPS: Tuple[str, ...] = TCP_OPS + IP_OPS + RAW_OPS

# Byte offsets in the wire PDU (20-byte IP header, TCP at 20).
_OFF_TCP = IP_HEADER_LEN
_OFF_SEQ = _OFF_TCP + 4
_OFF_ACK = _OFF_TCP + 8
_OFF_DOFF = _OFF_TCP + 12
_OFF_FLAGS = _OFF_TCP + 13
_OFF_WINDOW = _OFF_TCP + 14
_OFF_CKSUM = _OFF_TCP + 16
_OFF_URGENT = _OFF_TCP + 18

#: Hostile flag combinations (RST-bearing combos are deliberately
#: excluded here: in-window RSTs are *correct* connection killers, so
#: RST coverage comes from ``tcp-rst-blind``, which is out-of-window
#: by construction and must therefore never kill a connection).
_FLAG_COMBOS: Tuple[int, ...] = (
    TCPFlags.SYN | TCPFlags.FIN,
    TCPFlags.SYN | TCPFlags.FIN | TCPFlags.ACK,
    TCPFlags.SYN | TCPFlags.ACK,
    TCPFlags.FIN,                                    # FIN without ACK
    TCPFlags.URG | TCPFlags.ACK,
    0,                                               # no flags at all
    TCPFlags.SYN | TCPFlags.FIN | TCPFlags.PSH | TCPFlags.URG,
    TCPFlags.FIN | TCPFlags.PSH | TCPFlags.URG,      # "xmas" sans SYN
)

#: Sequence/ack deltas ("w" entries) and absolutes spanning the 2^32
#: wrap; deltas are window-scale multiples of 2^16 past any real
#: receive window, so a mutated number is out-of-window by
#: construction and exercises the seq arithmetic, not data corruption
#: at a plausible offset.
_SEQ_PATCHES: Tuple[Tuple[str, int], ...] = (
    ("w", 0x80000000), ("w", 0x7FFF0000), ("w", 0x00100000),
    ("w", -0x00100000), ("a", 0), ("a", 0xFFFFFFFF),
)

_WINDOW_VALUES: Tuple[int, ...] = (0, 1, 0xFFFF)
_URGENT_VALUES: Tuple[int, ...] = (0, 1, 0xFFFF)
_DOFF_VALUES: Tuple[int, ...] = (0, 1, 4, 15)
_IP_VERSIONS: Tuple[int, ...] = (0x44, 0x46, 0x55, 0x65)
_IP_PROTOS: Tuple[int, ...] = (17, 1, 255)
_IP_FRAGS: Tuple[int, ...] = (0x2000, 0x2008, 0x1FFF, 0x0004)


def _fix_tcp_checksum(buf: bytearray) -> None:
    """Recompute the TCP checksum over the (mutated) raw bytes."""
    seg_len = len(buf) - IP_HEADER_LEN
    ip = IPHeader.unpack(bytes(buf))
    buf[_OFF_CKSUM] = buf[_OFF_CKSUM + 1] = 0
    pseudo = pseudo_header_sum(ip.src, ip.dst, ip.protocol, seg_len)
    cksum = (~fold(raw_sum(bytes(buf[IP_HEADER_LEN:])) + pseudo)) & 0xFFFF
    struct.pack_into(">H", buf, _OFF_CKSUM, cksum)


def _fix_ip_checksum(buf: bytearray) -> None:
    buf[10] = buf[11] = 0
    cksum = internet_checksum(bytes(buf[:IP_HEADER_LEN]))
    struct.pack_into(">H", buf, 10, cksum)


def _raw_bytes(buf: bytearray, sel: int) -> None:
    pos = (sel * 2654435761) % len(buf)
    buf[pos] ^= ((sel * 37) % 255) + 1


def mutation_level(op: str) -> str:
    """'tcp' / 'ip' / 'raw' for a mutation operator name."""
    if op in TCP_OPS:
        return "tcp"
    if op in IP_OPS:
        return "ip"
    return "raw"


def apply_mutation(pdu: bytes, op: str, sel: int) -> bytes:
    """Apply one mutation operator to a wire PDU.

    Pure: the result depends only on ``(pdu, op, sel)``, never on
    hidden state — the property that makes schedule replay and ddmin
    subset runs meaningful.  ``sel`` is a small selector integer; each
    operator interprets it modulo its own variant table.  The returned
    PDU always has the same length as the input.  PDUs too short or
    unparseable for a structured operator fall back to raw byte damage
    so every scheduled mutation does *something* deterministic.
    """
    if op not in ALL_OPS:
        raise ValueError(f"unknown mutation op {op!r}")
    buf = bytearray(pdu)
    structured = op not in RAW_OPS
    if structured and (len(buf) < IP_HEADER_LEN + 20 or buf[0] != 0x45):
        _raw_bytes(buf, sel)
        return bytes(buf)

    if op == "tcp-flags":
        buf[_OFF_FLAGS] = _FLAG_COMBOS[sel % len(_FLAG_COMBOS)]
        _fix_tcp_checksum(buf)
    elif op in ("tcp-seq", "tcp-ack"):
        off = _OFF_SEQ if op == "tcp-seq" else _OFF_ACK
        kind, value = _SEQ_PATCHES[sel % len(_SEQ_PATCHES)]
        if kind == "w":
            (old,) = struct.unpack_from(">I", buf, off)
            value = (old + value) & 0xFFFFFFFF
        struct.pack_into(">I", buf, off, value)
        _fix_tcp_checksum(buf)
    elif op == "tcp-window":
        struct.pack_into(">H", buf, _OFF_WINDOW,
                         _WINDOW_VALUES[sel % len(_WINDOW_VALUES)])
        _fix_tcp_checksum(buf)
    elif op == "tcp-urgent":
        buf[_OFF_FLAGS] |= TCPFlags.URG
        struct.pack_into(">H", buf, _OFF_URGENT,
                         _URGENT_VALUES[sel % len(_URGENT_VALUES)])
        _fix_tcp_checksum(buf)
    elif op == "tcp-offset":
        doff = _DOFF_VALUES[sel % len(_DOFF_VALUES)]
        buf[_OFF_DOFF] = (doff << 4) | (buf[_OFF_DOFF] & 0x0F)
        _fix_tcp_checksum(buf)
    elif op == "tcp-options":
        opt_len = ((buf[_OFF_DOFF] >> 4) * 4) - 20
        if opt_len > 0:
            base = _OFF_TCP + 20
            variant = sel % 4
            if variant == 0:
                buf[base:base + 2] = bytes([2, 0])       # MSS, length 0
            elif variant == 1:
                buf[base:base + 2] = bytes([2, 255])     # MSS overruns
            elif variant == 2 and opt_len >= 4:
                buf[base:base + 4] = bytes([2, 4, 0, 1])  # MSS = 1
            else:
                buf[base:base + 2] = bytes([0xAB, 2])    # unknown kind
            _fix_tcp_checksum(buf)
        else:
            _raw_bytes(buf, sel)
    elif op == "tcp-badsum":
        (cksum,) = struct.unpack_from(">H", buf, _OFF_CKSUM)
        struct.pack_into(">H", buf, _OFF_CKSUM, cksum ^ 0x5555)
    elif op == "tcp-rst-blind":
        # A blind RST: valid checksum, sequence number pushed half the
        # space away — guaranteed outside any real receive window, so
        # per RFC 793 it must never kill the connection.
        buf[_OFF_FLAGS] = TCPFlags.RST
        (seq,) = struct.unpack_from(">I", buf, _OFF_SEQ)
        struct.pack_into(">I", buf, _OFF_SEQ,
                         (seq + 0x80000000) & 0xFFFFFFFF)
        _fix_tcp_checksum(buf)
    elif op == "ip-length":
        variant = sel % 4
        if variant == 0:
            length = min(len(buf) + 24, 0xFFFF)          # claims too much
        elif variant == 1:
            length = 19                                  # below minimum
        elif variant == 2:
            length = IP_HEADER_LEN                       # header only
        else:
            length = len(buf) - 8 if len(buf) > 48 else 21
        struct.pack_into(">H", buf, 2, length)
        _fix_ip_checksum(buf)
    elif op == "ip-frag":
        struct.pack_into(">H", buf, 6, _IP_FRAGS[sel % len(_IP_FRAGS)])
        _fix_ip_checksum(buf)
    elif op == "ip-proto":
        buf[9] = _IP_PROTOS[sel % len(_IP_PROTOS)]
        _fix_ip_checksum(buf)
    elif op == "ip-version":
        buf[0] = _IP_VERSIONS[sel % len(_IP_VERSIONS)]
        _fix_ip_checksum(buf)
    elif op == "ip-badsum":
        (cksum,) = struct.unpack_from(">H", buf, 10)
        struct.pack_into(">H", buf, 10, cksum ^ 0x5555)
    else:  # raw-bytes
        _raw_bytes(buf, sel)
    return bytes(buf)


@dataclass(frozen=True)
class FuzzConfig:
    """What to mutate.  ``p_mutate`` is per wire PDU."""

    seed: int = 1994
    p_mutate: float = 0.25
    #: Percentile split of the level draw: < tcp_weight -> TCP ops,
    #: < tcp_weight + ip_weight -> IP ops, else raw bytes.
    tcp_weight: int = 60
    ip_weight: int = 25
    #: Selector-draw span (raw-bytes position diversity).
    sel_span: int = 64

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_mutate <= 1.0:
            raise ValueError(f"p_mutate must be a probability, "
                             f"got {self.p_mutate}")
        if self.tcp_weight + self.ip_weight > 100:
            raise ValueError("level weights exceed 100")


class FuzzStats:
    """Injected-mutation counters (surfaced to obs like chaos.*)."""

    __slots__ = ("packets_seen", "mutations", "tcp_mutations",
                 "ip_mutations", "raw_mutations")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _FuzzEndpoint:
    __slots__ = ("stream", "index")

    def __init__(self, stream: Optional[SplitMix64Stream]):
        self.stream = stream
        self.index = 0  # packets transmitted by this endpoint so far


def _threshold(p: float) -> int:
    return int(p * (1 << 64))


class PacketFuzzer:
    """The content-mutation engine for one link (both directions).

    Duck-type compatible with :class:`repro.chaos.impair.Impairments`:
    attach to a testbed and the adapters route every transmission
    through :meth:`transmit_atm` / :meth:`transmit_ether`.  Delivery
    timing and cell counts pass through untouched, no link check fails,
    and :meth:`receive` is a pass-through — only bytes change.
    """

    def __init__(self, config: FuzzConfig,
                 schedule: Optional[Sequence[dict]] = None):
        self.config = config
        self.stats = FuzzStats()
        #: Applied mutations, in application order (the campaign's raw
        #: material for triage and ddmin).
        self.schedule: List[dict] = []
        self._replay: Optional[Dict[Tuple[str, int], Tuple[str, int]]]
        if schedule is not None:
            self._replay = {(e["endpoint"], e["index"]): (e["op"], e["sel"])
                            for e in schedule}
            self._root = None
        else:
            self._replay = None
            self._root = SplitMix64Stream(config.seed, label="fuzz")
        self._endpoints: Dict[str, _FuzzEndpoint] = {}
        self._t_mutate = _threshold(config.p_mutate)

    @classmethod
    def replay(cls, schedule: Sequence[dict],
               config: Optional[FuzzConfig] = None) -> "PacketFuzzer":
        """A fuzzer that applies exactly *schedule* and draws nothing."""
        return cls(config or FuzzConfig(p_mutate=0.0), schedule=schedule)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, testbed) -> "PacketFuzzer":
        testbed.link.impairments = self
        return self

    # ------------------------------------------------------------------
    # Per-packet decision
    # ------------------------------------------------------------------
    def _endpoint(self, name: str) -> _FuzzEndpoint:
        state = self._endpoints.get(name)
        if state is None:
            stream = None if self._root is None else self._root.fork(name)
            state = _FuzzEndpoint(stream)
            self._endpoints[name] = state
        return state

    def _decide(self, state: _FuzzEndpoint) -> Optional[Tuple[str, int]]:
        """(op, sel) for this packet, or None.

        Exactly :data:`DRAWS_PER_PACKET` draws whatever the outcome,
        so the decision is a pure function of (seed, endpoint, index).
        """
        stream = state.stream
        u_gate = stream.next_u64()
        u_level = stream.next_u64()
        u_op = stream.next_u64()
        u_sel = stream.next_u64()
        stream.next_u64()  # reserved
        stream.next_u64()  # reserved
        if u_gate >= self._t_mutate:
            return None
        centile = u_level % 100
        if centile < self.config.tcp_weight:
            ops = TCP_OPS
        elif centile < self.config.tcp_weight + self.config.ip_weight:
            ops = IP_OPS
        else:
            ops = RAW_OPS
        return ops[u_op % len(ops)], u_sel % self.config.sel_span

    def _mutate(self, host, pdu: bytes) -> bytes:
        state = self._endpoint(host.name)
        index = state.index
        state.index += 1
        self.stats.packets_seen += 1
        if self._replay is not None:
            decision = self._replay.get((host.name, index))
        else:
            decision = self._decide(state)
        if decision is None:
            return pdu
        op, sel = decision
        mutated = apply_mutation(pdu, op, sel)
        self.stats.mutations += 1
        level = mutation_level(op)
        counter = f"{level}_mutations"
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if self._replay is None:
            self.schedule.append({"endpoint": host.name, "index": index,
                                  "op": op, "sel": sel})
        if host.metrics is not None:
            host.metrics.inc("fuzz.mutations")
        lineage = getattr(host, "lineage", None)
        if lineage is not None:
            lineage.annotate_pdu(pdu, f"fuzz.{op}")
        return mutated

    # ------------------------------------------------------------------
    # Wire interposition (called by the adapters)
    # ------------------------------------------------------------------
    def transmit_atm(self, adapter, peer, delay_ns: int, pdu: bytes,
                     n_cells: int, data_bearing: bool) -> None:
        host = adapter.host
        pdu = self._mutate(host, pdu)
        host.sim.schedule(delay_ns, peer.deliver, pdu, n_cells, False,
                          data_bearing)

    def transmit_ether(self, adapter, peer, delay_ns: int, pdu: bytes,
                       data_bearing: bool) -> None:
        host = adapter.host
        pdu = self._mutate(host, pdu)
        host.sim.schedule(delay_ns, peer.deliver, pdu, False, data_bearing)

    def receive(self, pdu: bytes) -> bytes:
        """Receive side: the fuzzer mutates on transmit only."""
        return pdu
