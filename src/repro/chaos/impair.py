"""Deterministic, seed-driven network impairment layer.

The adapters hand every wire transmission to an attached
:class:`Impairments` engine instead of scheduling delivery directly
(guarded so that *no* engine means the byte-identical seed path).  The
engine then injects, per packet:

* **drop** — uniform probability or bursty (Gilbert-Elliott two-state
  chain), modelling congested-switch cell discard, the dominant factor
  in TCP-over-ATM loss studies (Goyal et al., Kalyanaraman et al.);
* **duplication** — the same PDU delivered twice, the second copy
  after a configurable gap;
* **reordering** — an extra per-packet delay that lets later packets
  overtake this one;
* **delay jitter** — a uniform random addition to the wire latency;
* **truncation** — the tail cells of the AAL3/4 train (or tail bytes
  of the Ethernet frame) are cut off, and the *real* reassembly/FCS
  machinery decides that the PDU is damaged;
* **targeted window-update loss** — deterministically drop the first N
  pure-ACK segments that reopen a closed receive window, the exact
  scenario the persist timer exists for;
* **bit errors by source** (the §4.2 error-detection study) — real bit
  flips whose detection is decided by the real CRC math:

  - *link* errors on the fiber/wire, flipped inside a real AAL3/4 cell
    train (the per-cell CRC-10s catch them) or an Ethernet frame (the
    FCS catches them), except for the rare patterns a CRC cannot
    distinguish;
  - *gateway* errors, data that enters the network already corrupt
    with valid link checks, so only the TCP checksum can see them;
  - *controller* errors, introduced while the adapter moves data into
    host memory *after* the link check (:meth:`Impairments.receive`),
    so again only the TCP checksum can see them.

  Switch errors, the paper's fourth source, do not apply: the testbed
  is switchless and the AAL payload CRCs are end to end.

Resource-pressure faults are scheduled through the simulator as timed
*clamps*: a window during which the IP input queue limit, the adapter
RX FIFO/ring depth, or the mbuf pool capacity is lowered, forcing the
overflow/ENOBUFS paths to run for real.

Determinism: every endpoint draws from its own forked
:class:`~repro.sim.rng.SplitMix64Stream`, consumed in that endpoint's
transmit order, and each packet consumes a *fixed* number of draws —
so the decision sequence depends only on (seed, endpoint, packet
index), never on event tie-breaking.  ``repro racecheck chaos``
verifies this.  The bit-error stages draw from one link-wide
``faults`` stream instead, only when their probability is non-zero,
in transmit and delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.atm.aal import Aal34Codec, ReassemblyError
from repro.checksum.crc import crc32
from repro.net.headers import IP_HEADER_LEN, TCPFlags, TCPHeader
from repro.sim.rng import SplitMix64Stream

__all__ = ["GilbertElliott", "ResourceClamp", "ImpairmentConfig",
           "ChaosStats", "Impairments", "flip_bits"]

_U64_SPAN = 1 << 64
#: Bits flipped per injected bit error.
BITS_PER_FAULT = 1


def flip_bits(data: bytes, rng: SplitMix64Stream,
              nbits: int = BITS_PER_FAULT) -> bytes:
    """*data* with *nbits* uniformly chosen bits flipped."""
    buf = bytearray(data)
    for _ in range(nbits):
        bit = rng.randrange(len(buf) * 8)
        buf[bit // 8] ^= 1 << (bit % 8)
    return bytes(buf)


@dataclass(frozen=True)
class GilbertElliott:
    """Two-state burst-loss chain: Good (lossless) and Bad (lossy)."""

    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.3
    p_drop_bad: float = 0.5


@dataclass(frozen=True)
class ResourceClamp:
    """A timed window during which one resource is artificially scarce.

    ``resource`` is one of ``"ipq"`` (IP input queue length), ``"rx"``
    (adapter RX FIFO cells / RX ring frames), or ``"mbuf"`` (pool
    capacity); ``host`` names the testbed host to squeeze.
    """

    resource: str
    host: str
    limit: int
    start_ns: int
    duration_ns: int


@dataclass(frozen=True)
class ImpairmentConfig:
    """What to inject.  All probabilities are per wire PDU."""

    seed: int = 1994
    #: Uniform drop probability (ignored when *burst* is set).
    p_drop: float = 0.0
    #: Bursty drop model replacing the uniform one.
    burst: Optional[GilbertElliott] = None
    p_duplicate: float = 0.0
    #: Gap between the original and its duplicate.
    duplicate_gap_ns: int = 50_000
    p_reorder: float = 0.0
    #: Extra delay a "reordered" packet suffers (later packets overtake).
    reorder_delay_ns: int = 200_000
    #: Uniform jitter in [0, jitter_ns] added to every delivery.
    jitter_ns: int = 0
    p_truncate: float = 0.0
    #: How many tail cells (ATM) / bytes (Ethernet) truncation removes.
    truncate_cells: int = 1
    truncate_bytes: int = 64
    #: Deterministically drop this many window-update ACKs (pure ACKs
    #: that reopen a zero window) — the persist-timer scenario.
    drop_window_updates: int = 0
    #: Timed resource-pressure windows.
    clamps: Tuple[ResourceClamp, ...] = field(default_factory=tuple)
    #: §4.2 bit errors, by source: on the wire (the link check sees
    #: them), entering at a gateway and in the receiving controller
    #: (only the TCP checksum sees those two).
    p_link_error: float = 0.0
    p_gateway_error: float = 0.0
    p_controller_error: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_drop", "p_duplicate", "p_reorder", "p_truncate",
                     "p_link_error", "p_gateway_error",
                     "p_controller_error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")


class ChaosStats:
    """Injected-impairment counters (fed to obs as ``chaos.*``)."""

    __slots__ = ("packets_seen", "drops", "burst_drops", "duplicates",
                 "reorders", "truncations", "window_update_drops",
                 "jitter_total_ns", "injected_link", "injected_controller",
                 "injected_gateway", "link_check_caught",
                 "link_check_missed")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class _EndpointState:
    """Per-transmitting-endpoint impairment state."""

    __slots__ = ("stream", "ge_bad", "last_window")

    def __init__(self, stream: SplitMix64Stream):
        self.stream = stream
        self.ge_bad = False       # Gilbert-Elliott chain state
        self.last_window = None   # last advertised TCP window seen


def _threshold(p: float) -> int:
    """Integer threshold so ``u64 < threshold`` has probability *p*."""
    return int(p * _U64_SPAN)


class Impairments:
    """The impairment engine for one link (both directions)."""

    def __init__(self, config: ImpairmentConfig):
        self.config = config
        self.stats = ChaosStats()
        self._root = SplitMix64Stream(config.seed, label="chaos")
        self._endpoints: Dict[str, _EndpointState] = {}
        self._wud_remaining = config.drop_window_updates
        # Precomputed integer thresholds: the per-packet decisions are
        # pure u64 comparisons, no float accumulation.
        self._t_drop = _threshold(config.p_drop)
        self._t_dup = _threshold(config.p_duplicate)
        self._t_reorder = _threshold(config.p_reorder)
        self._t_truncate = _threshold(config.p_truncate)
        ge = config.burst
        if ge is not None:
            self._t_g2b = _threshold(ge.p_good_to_bad)
            self._t_b2g = _threshold(ge.p_bad_to_good)
            self._t_drop_bad = _threshold(ge.p_drop_bad)
        self._clamp_saved: Dict[Tuple[str, str], object] = {}
        # The bit-error stages share one stream across both directions.
        self._faults = SplitMix64Stream(config.seed, label="faults")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, testbed) -> "Impairments":
        """Interpose on a testbed's link and schedule resource clamps."""
        testbed.link.impairments = self
        hosts = {host.name: host for host in testbed.hosts}
        for clamp in self.config.clamps:
            host = hosts.get(clamp.host)
            if host is None:
                raise ValueError(
                    f"clamp names unknown host {clamp.host!r} "
                    f"(have {sorted(hosts)})")
            testbed.sim.schedule(clamp.start_ns, self._apply_clamp,
                                 host, clamp)
            testbed.sim.schedule(clamp.start_ns + clamp.duration_ns,
                                 self._release_clamp, host, clamp)
        return self

    def _apply_clamp(self, host, clamp: ResourceClamp) -> None:
        key = (clamp.host, clamp.resource)
        if clamp.resource == "ipq":
            self._clamp_saved[key] = host.softnet.ipq_limit
            host.softnet.ipq_limit = clamp.limit
        elif clamp.resource == "rx":
            iface = host.interface
            attr = ("rx_fifo_limit" if hasattr(iface, "rx_fifo_limit")
                    else "rx_ring_limit")
            self._clamp_saved[key] = getattr(iface, attr)
            setattr(iface, attr, clamp.limit)
        elif clamp.resource == "mbuf":
            self._clamp_saved[key] = host.pool.limit
            host.pool.limit = clamp.limit
        else:
            raise ValueError(f"unknown clamp resource {clamp.resource!r}")

    def _release_clamp(self, host, clamp: ResourceClamp) -> None:
        key = (clamp.host, clamp.resource)
        saved = self._clamp_saved.pop(key)
        if clamp.resource == "ipq":
            host.softnet.ipq_limit = saved
        elif clamp.resource == "rx":
            iface = host.interface
            attr = ("rx_fifo_limit" if hasattr(iface, "rx_fifo_limit")
                    else "rx_ring_limit")
            setattr(iface, attr, saved)
        elif clamp.resource == "mbuf":
            host.pool.limit = saved

    # ------------------------------------------------------------------
    # Per-packet decisions
    # ------------------------------------------------------------------
    def _endpoint(self, name: str) -> _EndpointState:
        state = self._endpoints.get(name)
        if state is None:
            state = _EndpointState(self._root.fork(name))
            self._endpoints[name] = state
        return state

    def _decide(self, state: _EndpointState) -> Tuple[bool, bool, bool,
                                                      bool, int]:
        """(drop, truncate, duplicate, reorder, jitter_ns) for one PDU.

        Exactly six draws per packet, whatever the outcome, so the
        stream position is a pure function of the packet index.
        """
        stream = state.stream
        u_state = stream.next_u64()
        u_drop = stream.next_u64()
        u_trunc = stream.next_u64()
        u_dup = stream.next_u64()
        u_reorder = stream.next_u64()
        u_jitter = stream.next_u64()

        ge = self.config.burst
        if ge is not None:
            if state.ge_bad:
                if u_state < self._t_b2g:
                    state.ge_bad = False
            else:
                if u_state < self._t_g2b:
                    state.ge_bad = True
            drop = state.ge_bad and u_drop < self._t_drop_bad
        else:
            drop = u_drop < self._t_drop
        truncate = u_trunc < self._t_truncate
        duplicate = u_dup < self._t_dup
        reorder = u_reorder < self._t_reorder
        jitter = (u_jitter % (self.config.jitter_ns + 1)
                  if self.config.jitter_ns > 0 else 0)
        return drop, truncate, duplicate, reorder, jitter

    def _is_window_update_target(self, state: _EndpointState,
                                 pdu: bytes) -> bool:
        """Deterministic targeting of window-reopening pure ACKs.

        Tracks the advertised window per transmitting endpoint; the
        first ``drop_window_updates`` pure-ACK segments whose window
        goes 0 → >0 are dropped.
        """
        try:
            tcp = TCPHeader.unpack(pdu[IP_HEADER_LEN:])
        except Exception:
            return False
        payload_len = len(pdu) - IP_HEADER_LEN - tcp.header_length
        prev = state.last_window
        state.last_window = tcp.window
        if self._wud_remaining <= 0:
            return False
        if payload_len > 0:
            return False
        if tcp.flags & (TCPFlags.SYN | TCPFlags.FIN | TCPFlags.RST):
            return False
        if prev == 0 and tcp.window > 0:
            self._wud_remaining -= 1
            return True
        return False

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _note(self, host, kind: str, args: Optional[dict] = None,
              pdu: Optional[bytes] = None) -> None:
        """Count one injected impairment in stats/metrics/trace."""
        counter = {"drop": "drops", "burst_drop": "burst_drops",
                   "duplicate": "duplicates", "reorder": "reorders",
                   "truncate": "truncations",
                   "window_update_drop": "window_update_drops"}[kind]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if host.metrics is not None:
            host.metrics.inc(f"chaos.{counter}")
        lineage = getattr(host, "lineage", None)
        if lineage is not None and pdu is not None:
            # Annotate the causal chain so the impairment decision shows
            # up on the affected segment's record.
            lineage.annotate_pdu(pdu, f"chaos.{kind}")
            if kind.endswith("drop"):
                lineage.mark_dropped_pdu(pdu, f"chaos-{kind}")
        observer = getattr(host, "observer", None)
        if observer is not None:
            observer.emit_instant(
                observer.pid_for_host(host.name), 9,
                f"chaos.{kind}", "chaos", host.sim.now, args)

    # ------------------------------------------------------------------
    # §4.2 bit errors
    # ------------------------------------------------------------------
    def _bit_errors(self, pdu: bytes,
                    atm: bool) -> Tuple[bytes, bool, bool]:
        """Gateway- and link-stage bit errors for one transmitted PDU.

        Returns ``(pdu, corrupted, link_error)``: the bytes the receiver
        gets, whether either stage struck, and whether the link check
        catches it.  On ATM the real CRC-10s of a real cell train
        decide; on Ethernet the FCS of the original frame is compared
        against the corrupted one.
        """
        config = self.config
        stats = self.stats
        rng = self._faults
        corrupted = link_error = False
        if config.p_gateway_error and rng.random() < config.p_gateway_error:
            # Enters the network already corrupt, with valid link checks.
            pdu = flip_bits(pdu, rng)
            stats.injected_gateway += 1
            stats.link_check_missed += 1
            corrupted = True
        if config.p_link_error and rng.random() < config.p_link_error:
            stats.injected_link += 1
            if atm:
                pdu, link_error = self._corrupt_cells(pdu)
            else:
                damaged = flip_bits(pdu, rng)
                link_error = crc32(damaged) != crc32(pdu)
                pdu = damaged
            if link_error:
                stats.link_check_caught += 1
            else:
                stats.link_check_missed += 1
            corrupted = True
        return pdu, corrupted, link_error

    def _corrupt_cells(self, pdu: bytes) -> Tuple[bytes, bool]:
        """Flip bits inside a real AAL3/4 cell train; returns the PDU the
        receiver would reassemble (or the corrupt one) and whether the
        cell CRC-10s caught the corruption."""
        rng = self._faults
        cells = Aal34Codec.segment(pdu)
        for _ in range(BITS_PER_FAULT):
            cell = rng.choice(cells)
            # 352 payload bits + 10 CRC bits per cell are exposed.
            bit = rng.randrange(len(cell.payload) * 8 + 10)
            if bit < len(cell.payload) * 8:
                buf = bytearray(cell.payload)
                buf[bit // 8] ^= 1 << (bit % 8)
                cell.payload = bytes(buf)
            else:
                cell.crc ^= 1 << (bit - len(cell.payload) * 8)
        try:
            reassembled = Aal34Codec.reassemble(cells)
        except ReassemblyError:
            return pdu, True  # caught: the receiver will discard
        # CRC aliased, or the flips landed in padding: whatever survived
        # reassembly sails through undetected by the link check.
        return reassembled, False

    # ------------------------------------------------------------------
    # Wire interposition (called by the adapters)
    # ------------------------------------------------------------------
    def transmit_atm(self, adapter, peer, delay_ns: int, pdu: bytes,
                     n_cells: int, data_bearing: bool) -> None:
        host = adapter.host
        sim = host.sim
        pdu, corrupted, link_error = self._bit_errors(pdu, True)
        state = self._endpoint(host.name)
        self.stats.packets_seen += 1
        wud = self._is_window_update_target(state, pdu)
        drop, truncate, duplicate, reorder, jitter = self._decide(state)
        if wud:
            self._note(host, "window_update_drop", pdu=pdu)
            return
        if drop:
            self._note(host, "burst_drop" if self.config.burst is not None
                       else "drop", {"cells": n_cells}, pdu=pdu)
            return
        if truncate and not corrupted and n_cells > 1:
            # Cut the tail off the real AAL3/4 cell train and let the
            # actual reassembly framing prove the PDU is damaged (a
            # missing EOM / short length can never reassemble cleanly).
            cut = max(1, min(self.config.truncate_cells, n_cells - 1))
            cells = Aal34Codec.segment(pdu)[:n_cells - cut]
            try:
                Aal34Codec.reassemble(cells)
                link_error = False  # unreachable for a tail cut
            except ReassemblyError:
                link_error = True
            n_cells -= cut
            self._note(host, "truncate", {"cells_cut": cut}, pdu=pdu)
        if reorder:
            delay_ns += self.config.reorder_delay_ns
            self._note(host, "reorder", pdu=pdu)
        delay_ns += jitter
        if jitter:
            self.stats.jitter_total_ns += jitter
        sim.schedule(delay_ns, peer.deliver, pdu, n_cells, link_error,
                     data_bearing)
        if duplicate:
            self._note(host, "duplicate", pdu=pdu)
            sim.schedule(delay_ns + self.config.duplicate_gap_ns,
                         peer.deliver, pdu, n_cells, link_error,
                         data_bearing)

    def transmit_ether(self, adapter, peer, delay_ns: int, pdu: bytes,
                       data_bearing: bool) -> None:
        host = adapter.host
        sim = host.sim
        pdu, corrupted, link_error = self._bit_errors(pdu, False)
        state = self._endpoint(host.name)
        self.stats.packets_seen += 1
        wud = self._is_window_update_target(state, pdu)
        drop, truncate, duplicate, reorder, jitter = self._decide(state)
        if wud:
            self._note(host, "window_update_drop", pdu=pdu)
            return
        if drop:
            self._note(host, "burst_drop" if self.config.burst is not None
                       else "drop", {"bytes": len(pdu)}, pdu=pdu)
            return
        if truncate and not corrupted and len(pdu) > 1:
            # Chop the frame tail; the receiver's FCS comparison (the
            # real crc32 over real bytes) catches the damage.
            cut = max(1, min(self.config.truncate_bytes, len(pdu) - 1))
            truncated = pdu[:len(pdu) - cut]
            link_error = crc32(truncated) != crc32(pdu)
            pdu = truncated
            self._note(host, "truncate", {"bytes_cut": cut}, pdu=pdu)
        if reorder:
            delay_ns += self.config.reorder_delay_ns
            self._note(host, "reorder", pdu=pdu)
        delay_ns += jitter
        if jitter:
            self.stats.jitter_total_ns += jitter
        sim.schedule(delay_ns, peer.deliver, pdu, link_error, data_bearing)
        if duplicate:
            self._note(host, "duplicate", pdu=pdu)
            sim.schedule(delay_ns + self.config.duplicate_gap_ns,
                         peer.deliver, pdu, link_error, data_bearing)

    def receive(self, pdu: bytes) -> bytes:
        """Controller-stage bit errors on one PDU the adapter accepted.

        The adapters call this after the link check and mbuf admission,
        as the PDU moves from adapter to host memory: the paper's error
        source (2), which only the TCP checksum can see.
        """
        p = self.config.p_controller_error
        if p and self._faults.random() < p:
            self.stats.injected_controller += 1
            return flip_bits(pdu, self._faults)
        return pdu
