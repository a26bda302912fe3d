"""Tests for the UDP layer and datagram sockets."""

import pytest

from repro.core.experiment import payload_pattern
from repro.core.testbed import build_atm_pair
from repro.kern.config import ChecksumMode, KernelConfig
from repro.udp.layer import UDPHeader, udp_checksum, UDP_HEADER_LEN
from repro.udp.socket import UDPSocket


class TestUDPHeader:
    def test_pack_unpack_roundtrip(self):
        hdr = UDPHeader(1234, 2049, 108, 0xBEEF)
        back = UDPHeader.unpack(hdr.pack())
        assert (back.src_port, back.dst_port, back.length,
                back.checksum) == (1234, 2049, 108, 0xBEEF)

    def test_short_header_rejected(self):
        with pytest.raises(ValueError):
            UDPHeader.unpack(b"\x00\x01")

    def test_checksum_never_zero_on_wire(self):
        # RFC 768: a computed checksum of 0 is transmitted as 0xFFFF
        # (0 means "no checksum").
        hdr = UDPHeader(0, 0, UDP_HEADER_LEN)
        value = udp_checksum(0, 0, hdr, b"")
        assert value != 0


def udp_pair(config=None):
    tb = build_atm_pair(config=config)
    return tb


def run_echo(tb, payload, rounds=1):
    server_sock = UDPSocket(tb.server, port=2049)
    client_sock = UDPSocket(tb.client)
    got = []

    def server():
        for _ in range(rounds):
            data, src_ip, src_port = yield from server_sock.recvfrom()
            yield from server_sock.sendto(data, src_ip, src_port)

    def client():
        for _ in range(rounds):
            yield from client_sock.sendto(payload, tb.server.address.ip,
                                          2049)
            data, _ip, _port = yield from client_sock.recvfrom()
            got.append(data)
        return tb.sim.now

    tb.server.spawn(server(), name="udp-server")
    done = tb.client.spawn(client(), name="udp-client")
    tb.sim.run_until_triggered(done)
    return got


class TestDatagramEcho:
    def test_echo_roundtrip(self):
        tb = udp_pair()
        payload = payload_pattern(400)
        got = run_echo(tb, payload)
        assert got == [payload]
        assert tb.server.udp.stats.datagrams_received == 1

    def test_multiple_rounds(self):
        tb = udp_pair()
        payload = payload_pattern(100)
        got = run_echo(tb, payload, rounds=5)
        assert got == [payload] * 5

    def test_unbound_port_drops(self):
        tb = udp_pair()
        sock = UDPSocket(tb.client)

        def send():
            yield from sock.sendto(b"hello", tb.server.address.ip, 9999)

        done = tb.client.spawn(send())
        tb.sim.run_until_triggered(done)
        tb.sim.run()
        assert tb.server.udp.stats.no_port_drops == 1

    def test_port_collision_rejected(self):
        tb = udp_pair()
        UDPSocket(tb.client, port=111)
        with pytest.raises(ValueError):
            UDPSocket(tb.client, port=111)

    def test_close_unbinds(self):
        tb = udp_pair()
        sock = UDPSocket(tb.client, port=111)
        sock.close()
        UDPSocket(tb.client, port=111)  # rebindable
        with pytest.raises(ValueError):
            next(sock.sendto(b"x", 1, 1))


class TestUDPChecksumSemantics:
    def test_checksum_on_by_default(self):
        tb = udp_pair()
        run_echo(tb, b"data")
        assert tb.server.udp.stats.cksum_skipped == 0

    def test_checksum_disabled_marks_wire_zero(self):
        tb = udp_pair(config=KernelConfig(udp_checksum=False))
        run_echo(tb, b"data")
        # The receiver saw checksum==0 and skipped verification — the
        # local-NFS practice the paper cites.
        assert tb.server.udp.stats.cksum_skipped == 1
        assert tb.server.udp.stats.cksum_errors == 0

    def test_checksum_detects_controller_corruption(self):
        from tests.wire_doubles import CorruptNth
        tb = udp_pair()
        tb.link.impairments = CorruptNth(1, byte_index=40)
        sock = UDPSocket(tb.client)
        UDPSocket(tb.server, port=2049)

        def send():
            yield from sock.sendto(payload_pattern(200),
                                   tb.server.address.ip, 2049)

        done = tb.client.spawn(send())
        tb.sim.run_until_triggered(done)
        tb.sim.run()
        assert tb.server.udp.stats.cksum_errors == 1
        assert tb.server.udp.stats.datagrams_received == 0

    def test_no_checksum_lets_corruption_through(self):
        """§4.2's risk, demonstrated on UDP: without the checksum the
        corrupted datagram is delivered."""
        from tests.wire_doubles import CorruptNth
        tb = udp_pair(config=KernelConfig(udp_checksum=False))
        tb.link.impairments = CorruptNth(1, byte_index=40)
        payload = payload_pattern(200)
        server_sock = UDPSocket(tb.server, port=2049)
        client_sock = UDPSocket(tb.client)
        got = {}

        def server():
            data, _ip, _port = yield from server_sock.recvfrom()
            got["data"] = data

        def client():
            yield from client_sock.sendto(payload, tb.server.address.ip,
                                          2049)

        tb.server.spawn(server())
        done = tb.client.spawn(client())
        tb.sim.run_until_triggered(done)
        tb.sim.run()
        assert got["data"] != payload  # delivered, silently corrupt


class TestUDPvsTCPLatency:
    def test_udp_echo_is_faster_than_tcp(self):
        """UDP skips TCP's protocol machinery: the same echo completes
        in less simulated time."""
        from repro.core.experiment import run_round_trip
        tcp = run_round_trip(size=200, iterations=4, warmup=1)

        tb = udp_pair()
        payload = payload_pattern(200)
        server_sock = UDPSocket(tb.server, port=2049)
        client_sock = UDPSocket(tb.client)

        def server():
            while True:
                data, ip, port = yield from server_sock.recvfrom()
                yield from server_sock.sendto(data, ip, port)

        def client():
            clock = tb.client.clock
            rtts = []
            for _ in range(4):
                t0 = clock.read_ticks()
                yield from client_sock.sendto(
                    payload, tb.server.address.ip, 2049)
                yield from client_sock.recvfrom()
                rtts.append(clock.delta_us(t0, clock.read_ticks()))
            return sum(rtts) / len(rtts)

        tb.server.spawn(server(), name="udp-server")
        done = tb.client.spawn(client(), name="udp-client")
        udp_rtt = tb.sim.run_until_triggered(done)
        assert udp_rtt < tcp.mean_rtt_us
        # But not absurdly so: the driver/wire/scheduling floor remains.
        assert udp_rtt > 0.5 * tcp.mean_rtt_us
