"""Tests for the ATM subsystem: AAL3/4, adapter timing, FIFO behaviour."""

import pytest
from hypothesis import given, strategies as st

from repro.atm.aal import (
    CELL_PAYLOAD,
    CELL_SIZE,
    CPCS_OVERHEAD,
    Aal34Codec,
    ReassemblyError,
    cells_needed,
)
from repro.atm.adapter import AtmLink, ForeTca100
from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.kern.host import Host
from repro.net.headers import IPHeader, TCPHeader
from repro.net.packet import build_tcp_packet
from repro.sim import Priority, Simulator


class TestCellMath:
    def test_constants(self):
        assert CELL_SIZE == 53
        assert CELL_PAYLOAD == 44
        assert CPCS_OVERHEAD == 8

    def test_cells_needed_examples(self):
        # 4-byte payload + 40 header = 44 + 8 CPCS = 52 -> 2 cells.
        assert cells_needed(44) == 2
        assert cells_needed(36) == 1
        assert cells_needed(0) == 1
        # 8 KB segment: (4136+8)/44 -> 95 cells.
        assert cells_needed(4136) == 95

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cells_needed(-1)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_cells_cover_payload(self, n):
        assert cells_needed(n) * CELL_PAYLOAD >= n + CPCS_OVERHEAD


class TestAal34Codec:
    @given(st.binary(min_size=0, max_size=600))
    def test_segment_reassemble_roundtrip(self, pdu):
        cells = Aal34Codec.segment(pdu)
        assert len(cells) == cells_needed(len(pdu))
        assert Aal34Codec.reassemble(cells) == pdu

    def test_crc_failure_detected(self):
        cells = Aal34Codec.segment(b"hello world, this is a datagram")
        cells[0].crc ^= 1
        with pytest.raises(ReassemblyError):
            Aal34Codec.reassemble(cells)

    def test_payload_corruption_detected(self):
        cells = Aal34Codec.segment(bytes(range(100)))
        buf = bytearray(cells[1].payload)
        buf[3] ^= 0x10
        cells[1].payload = bytes(buf)
        with pytest.raises(ReassemblyError):
            Aal34Codec.reassemble(cells)

    def test_missing_cell_detected(self):
        cells = Aal34Codec.segment(bytes(200))
        with pytest.raises(ReassemblyError):
            Aal34Codec.reassemble(cells[:-1] and cells[1:])

    def test_reordered_cells_detected(self):
        cells = Aal34Codec.segment(bytes(200))
        cells[0], cells[1] = cells[1], cells[0]
        with pytest.raises(ReassemblyError):
            Aal34Codec.reassemble(cells)

    def test_missing_eom_detected(self):
        cells = Aal34Codec.segment(bytes(100))
        cells[-1].last = False
        with pytest.raises(ReassemblyError):
            Aal34Codec.reassemble(cells)

    def test_empty_train_rejected(self):
        with pytest.raises(ReassemblyError):
            Aal34Codec.reassemble([])


def make_atm_pair():
    sim = Simulator()
    a = Host(sim, "a", "10.0.0.1")
    b = Host(sim, "b", "10.0.0.2")
    link = AtmLink(sim)
    link.attach(ForeTca100(a))
    link.attach(ForeTca100(b))
    return sim, a, b, link


def make_packet(payload_len):
    ip = IPHeader(src=1, dst=0x0A000002, total_length=0)
    tcp = TCPHeader(src_port=1, dst_port=2, seq=0, ack=0)
    return build_tcp_packet(ip, tcp, payload_pattern(payload_len))


class TestAdapterTiming:
    def test_cell_time_matches_taxi_rate(self):
        sim = Simulator()
        link = AtmLink(sim, bandwidth_bps=140_000_000)
        assert link.cell_time_ns == pytest.approx(3029, abs=2)

    def test_wire_overlaps_driver_copy(self):
        """Transmission begins with the first cell: the last cell arrives
        roughly one cell-time after the driver finishes writing, not a
        full wire-serialization later."""
        sim, a, b, link = make_atm_pair()
        packet = make_packet(4000)

        delivered = {}
        orig_deliver = b.interface.deliver

        def spy(pdu, n_cells, fault, data_bearing):
            delivered["at"] = sim.now
            delivered["cells"] = n_cells
            orig_deliver(pdu, n_cells, fault, data_bearing)

        b.interface.deliver = spy

        def send():
            yield from a.interface.output(packet, Priority.KERNEL, True)
            delivered["copy_done"] = sim.now

        sim.process(send())
        sim.run()
        n = delivered["cells"]
        copy_done = delivered["copy_done"]
        arrival = delivered["at"]
        # Arrival trails the copy completion by much less than the full
        # n * cell_time serialization (the overlap the paper relies on).
        assert arrival > copy_done
        assert arrival - copy_done < n * link.cell_time_ns * 0.5

    def test_tx_fifo_never_exceeds_capacity(self):
        sim, a, b, link = make_atm_pair()

        def send():
            yield from a.interface.output(make_packet(8000 - 40),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert a.interface.stats.max_tx_fifo_cells <= ForeTca100.TX_FIFO_CELLS

    @pytest.mark.parametrize("payload,cells,max_fifo,stall_ns", [
        (7960, 182, 36, 28619),    # 8000 B datagram: the FIFO fills
        (4096, 95, 22, 0),         # one page-sized MSS: never fills
        (9148, 209, 36, 50991),    # a full 9188 B ATM MTU
    ])
    def test_tx_schedule_known_answers(self, payload, cells, max_fifo,
                                       stall_ns):
        sim, a, b, link = make_atm_pair()

        def send():
            yield from a.interface.output(make_packet(payload),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        stats = a.interface.stats
        assert (stats.cells_sent, stats.max_tx_fifo_cells,
                stats.tx_stall_ns) == (cells, max_fifo, stall_ns)

    def test_back_to_back_packets_serialize_on_wire(self):
        sim, a, b, link = make_atm_pair()
        arrivals = []
        orig = b.interface.deliver

        def spy(pdu, n, fault, db):
            arrivals.append(sim.now)
            orig(pdu, n, fault, db)

        b.interface.deliver = spy

        def send():
            yield from a.interface.output(make_packet(4000),
                                          Priority.KERNEL, True)
            yield from a.interface.output(make_packet(4000),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert len(arrivals) == 2
        n = cells_needed(4040)
        # The second packet's last cell cannot arrive earlier than one
        # wire-serialization after the first packet's.
        assert arrivals[1] - arrivals[0] >= n * link.cell_time_ns * 0.9

    def test_rx_fifo_overflow_drops_packet(self):
        sim, a, b, link = make_atm_pair()
        # Stop the receive interrupt from draining by keeping the CPU
        # saturated with higher-priority work.
        b.cpu.run(10_000_000_000, Priority.HARD_INTR, "hog")

        def send():
            # 292-cell RX FIFO: four 95-cell packets overflow it.
            for _ in range(4):
                yield from a.interface.output(make_packet(4000),
                                              Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert b.interface.stats.rx_fifo_overflows >= 1

    def test_stats_count_cells(self):
        sim, a, b, link = make_atm_pair()

        def send():
            yield from a.interface.output(make_packet(200),
                                          Priority.KERNEL, True)

        sim.process(send())
        sim.run()
        assert a.interface.stats.packets_sent == 1
        assert a.interface.stats.cells_sent == cells_needed(240)
        assert b.interface.stats.packets_received == 1


class TestEndToEndAtm:
    def test_link_requires_two_ends(self):
        sim = Simulator()
        host = Host(sim, "x", "10.0.0.1")
        link = AtmLink(sim)
        adapter = ForeTca100(host)
        link.attach(adapter)
        with pytest.raises(RuntimeError):
            link.peer_of(adapter)

    def test_third_attach_rejected(self):
        sim, a, b, link = make_atm_pair()
        c = Host(sim, "c", "10.0.0.3")
        with pytest.raises(RuntimeError):
            link.attach(ForeTca100(c))

    def test_mtu_and_mss(self):
        tb = build_atm_pair()
        assert tb.client.interface.mtu == 9188
        assert tb.client.interface.suggested_mss == 4096
