"""Tests for IP fragmentation and reassembly."""

import pytest
from hypothesis import given, strategies as st

from repro.core.experiment import payload_pattern
from repro.core.testbed import build_ethernet_pair
from repro.ip.fragment import (
    IP_DF,
    IP_MF,
    FragmentReassembler,
    ReassemblyBuffer,
    fragment_packet,
)
from repro.net.headers import IP_HEADER_LEN, IPHeader
from repro.net.packet import Packet
from repro.sim import Simulator
from repro.udp.socket import UDPSocket


def make_datagram(payload_len, ident=7, proto=17):
    header = IPHeader(src=1, dst=2, total_length=0, protocol=proto,
                      identification=ident)
    payload = payload_pattern(payload_len)
    header.total_length = IP_HEADER_LEN + payload_len
    return Packet(header.pack() + payload), payload


class TestFragmentation:
    def test_small_datagram_untouched(self):
        packet, _ = make_datagram(100)
        frags = fragment_packet(packet, mtu=1500)
        assert frags == [packet]

    def test_fragment_count_and_sizes(self):
        packet, _ = make_datagram(8008)  # 8000 UDP payload + 8 header
        frags = fragment_packet(packet, mtu=1500)
        assert len(frags) == 6
        for frag in frags[:-1]:
            payload_len = len(frag.data) - IP_HEADER_LEN
            assert payload_len % 8 == 0
            assert len(frag.data) <= 1500

    def test_offsets_and_mf_flags(self):
        packet, _ = make_datagram(3000)
        frags = fragment_packet(packet, mtu=1500)
        offsets = [(f.ip_header.flags_fragment & 0x1FFF) * 8
                   for f in frags]
        assert offsets[0] == 0
        assert offsets == sorted(offsets)
        mf = [bool(f.ip_header.flags_fragment & IP_MF) for f in frags]
        assert all(mf[:-1]) and not mf[-1]

    def test_fragments_carry_identification(self):
        packet, _ = make_datagram(3000, ident=42)
        for frag in fragment_packet(packet, mtu=1500):
            assert frag.ip_header.identification == 42

    def test_df_flag_rejected(self):
        header = IPHeader(src=1, dst=2, total_length=0, protocol=17,
                          flags_fragment=IP_DF)
        payload = bytes(3000)
        header.total_length = IP_HEADER_LEN + len(payload)
        packet = Packet(header.pack() + payload)
        with pytest.raises(ValueError):
            fragment_packet(packet, mtu=1500)

    @given(st.integers(min_value=1, max_value=12_000),
           st.sampled_from([576, 1006, 1500, 4352]))
    def test_fragments_reassemble_to_original(self, size, mtu):
        packet, payload = make_datagram(size)
        frags = fragment_packet(packet, mtu=mtu)
        sim = Simulator()
        reasm = FragmentReassembler(sim)
        whole = None
        for frag in frags:
            result = reasm.input_fragment(frag)
            if result is not None:
                whole = result
        assert whole is not None
        assert whole.data[IP_HEADER_LEN:] == payload


class TestReassembler:
    def feed(self, reasm, frags):
        whole = None
        for frag in frags:
            result = reasm.input_fragment(frag)
            if result is not None:
                whole = result
        return whole

    def test_out_of_order_arrival(self):
        packet, payload = make_datagram(4000)
        frags = fragment_packet(packet, mtu=1500)
        reasm = FragmentReassembler(Simulator())
        whole = self.feed(reasm, list(reversed(frags)))
        assert whole is not None
        assert whole.data[IP_HEADER_LEN:] == payload

    def test_missing_fragment_never_completes(self):
        packet, _ = make_datagram(4000)
        frags = fragment_packet(packet, mtu=1500)
        reasm = FragmentReassembler(Simulator())
        assert self.feed(reasm, frags[:-1]) is None
        assert len(reasm) == 1

    def test_interleaved_datagrams(self):
        a, pa = make_datagram(3000, ident=1)
        b, pb = make_datagram(3000, ident=2)
        fa = fragment_packet(a, mtu=1500)
        fb = fragment_packet(b, mtu=1500)
        reasm = FragmentReassembler(Simulator())
        done = []
        for frag in [fa[0], fb[0], fb[1], fa[1], fa[2], fb[2]]:
            result = reasm.input_fragment(frag)
            if result is not None:
                done.append(result)
        assert len(done) == 2
        payloads = {d.ip_header.identification: d.data[IP_HEADER_LEN:]
                    for d in done}
        assert payloads[1] == pa
        assert payloads[2] == pb

    def test_stale_buffers_expire(self):
        sim = Simulator()
        reasm = FragmentReassembler(sim, timeout_us=1000.0)
        packet, _ = make_datagram(4000)
        frags = fragment_packet(packet, mtu=1500)
        reasm.input_fragment(frags[0])
        sim.schedule(10_000_000, lambda: None)
        sim.run()
        # The next fragment activity sweeps the stale buffer.
        other, _ = make_datagram(3000, ident=99)
        reasm.input_fragment(fragment_packet(other, mtu=1500)[0])
        assert reasm.timed_out == 1

    def test_duplicate_fragment_harmless(self):
        packet, payload = make_datagram(3000)
        frags = fragment_packet(packet, mtu=1500)
        reasm = FragmentReassembler(Simulator())
        reasm.input_fragment(frags[0])
        reasm.input_fragment(frags[0])
        whole = self.feed(reasm, frags[1:])
        assert whole.data[IP_HEADER_LEN:] == payload


class TestEndToEndFragmentation:
    def udp_transfer(self, size, drop_fragment=None):
        tb = build_ethernet_pair()
        if drop_fragment is not None:
            from tests.wire_doubles import DropNth
            tb.link.impairments = DropNth(drop_fragment)
        payload = payload_pattern(size)
        server_sock = UDPSocket(tb.server, port=2049)
        client_sock = UDPSocket(tb.client)
        out = {}

        def server():
            data, _ip, _port = yield from server_sock.recvfrom()
            out["data"] = data

        def client():
            yield from client_sock.sendto(payload, tb.server.address.ip,
                                          2049)

        tb.server.spawn(server())
        done = tb.client.spawn(client())
        tb.sim.run_until_triggered(done)
        tb.sim.run()
        return tb, out.get("data"), payload

    def test_8k_udp_over_ethernet_fragments_and_delivers(self):
        tb, data, payload = self.udp_transfer(8000)
        assert data == payload
        assert tb.client.ip.stats.fragments_sent == 6
        assert tb.server.ip.reassembler.reassembled == 1

    def test_lost_fragment_loses_the_datagram(self):
        """No recovery below UDP: one lost fragment silently discards
        the whole datagram (the classic NFS-over-UDP failure mode)."""
        tb, data, _ = self.udp_transfer(8000, drop_fragment=3)
        assert data is None
        assert tb.server.udp.stats.datagrams_received == 0

    def test_atm_9k_mtu_needs_no_fragmentation(self):
        from repro.core.testbed import build_atm_pair
        tb = build_atm_pair()
        payload = payload_pattern(8000)
        server_sock = UDPSocket(tb.server, port=2049)
        client_sock = UDPSocket(tb.client)
        out = {}

        def server():
            data, _ip, _port = yield from server_sock.recvfrom()
            out["data"] = data

        def client():
            yield from client_sock.sendto(payload, tb.server.address.ip,
                                          2049)

        tb.server.spawn(server())
        done = tb.client.spawn(client())
        tb.sim.run_until_triggered(done)
        tb.sim.run()
        assert out["data"] == payload
        assert tb.client.ip.stats.fragments_sent == 0
