"""The wire-level packet: real bytes plus simulation metadata."""

from __future__ import annotations

import struct
from typing import Optional

from repro.net.headers import (
    IP_HEADER_LEN,
    IPHeader,
    TCPHeader,
    pseudo_header_sum,
)
from repro.checksum.internet import fold, raw_sum

__all__ = ["Packet", "build_tcp_packet", "parse_tcp_packet"]


class Packet:
    """One IP datagram travelling through the simulated system.

    ``data`` is the full serialized datagram (IP header + TCP header +
    payload).  The metadata fields carry simulation bookkeeping: chain
    shape for driver cost models, timestamps for span instrumentation.
    """

    __slots__ = (
        "data", "mbuf_count", "cluster_count",
        "enqueued_ipq_at", "last_cell_arrival_ns", "cksum_verified",
        "tx_host",
        "segment_index", "segment_count", "lineage",
    )

    def __init__(self, data: bytes, mbuf_count: int = 1,
                 cluster_count: int = 0):
        self.data = data
        self.mbuf_count = mbuf_count
        self.cluster_count = cluster_count
        self.enqueued_ipq_at: Optional[int] = None
        self.last_cell_arrival_ns: Optional[int] = None
        #: Set by an integrated-checksum receive driver: True/False once
        #: the driver folded TCP checksum verification into its copy.
        self.cksum_verified: Optional[bool] = None
        self.tx_host: Optional[str] = None
        self.segment_index = 0
        self.segment_count = 1
        #: Causal lineage record (repro.obs.lineage.SegmentLineage),
        #: duck-typed; None on every unobserved run.
        self.lineage = None

    def __len__(self) -> int:
        return len(self.data)

    @property
    def ip_header(self) -> IPHeader:
        return IPHeader.unpack(self.data)

    @property
    def tcp_header(self) -> TCPHeader:
        return TCPHeader.unpack(self.data[IP_HEADER_LEN:])

    @property
    def tcp_segment(self) -> bytes:
        """TCP header + payload (the checksummed region sans pseudo-hdr)."""
        return self.data[IP_HEADER_LEN:]

    @property
    def payload(self) -> bytes:
        tcp = self.tcp_header
        return self.data[IP_HEADER_LEN + tcp.header_length:]

    def __repr__(self) -> str:
        return f"<Packet {len(self.data)}B {self.tcp_header!r}>"


def build_tcp_packet(ip: IPHeader, tcp: TCPHeader, payload: bytes,
                     tcp_checksum: Optional[int] = None) -> Packet:
    """Assemble a full datagram.

    With ``tcp_checksum=None`` the correct checksum is computed (the
    functional result; the *time* is charged by the caller).  Passing an
    explicit value (e.g. 0 for checksum-off connections, or a stale value
    for fault injection) stores that instead.
    """
    tcp_length = tcp.header_length + len(payload)
    ip.total_length = IP_HEADER_LEN + tcp_length
    if tcp_checksum is None:
        pseudo = pseudo_header_sum(ip.src, ip.dst, ip.protocol, tcp_length)
        segment_wo_cksum = tcp.pack(checksum=0) + payload
        tcp_checksum = (~fold(raw_sum(segment_wo_cksum) + pseudo)) & 0xFFFF
    tcp.checksum = tcp_checksum
    data = ip.pack() + tcp.pack(checksum=tcp_checksum) + payload
    return Packet(data)


def verify_tcp_checksum(packet: Packet) -> bool:
    """Functionally verify the TCP checksum of *packet*."""
    ip = packet.ip_header
    segment = packet.tcp_segment
    pseudo = pseudo_header_sum(ip.src, ip.dst, ip.protocol, len(segment))
    return fold(raw_sum(segment) + pseudo) == 0xFFFF


def parse_tcp_packet(packet: Packet):
    """Convenience: ``(ip_header, tcp_header, payload)``."""
    ip = packet.ip_header
    tcp = packet.tcp_header
    return ip, tcp, packet.payload
