"""Loss, corruption, and retransmission behaviour."""

import pytest

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.kern.config import ChecksumMode, KernelConfig
from tests.wire_doubles import CorruptNth, DropNth


def echo_with_injector(injector, size=500, iterations=3, config=None):
    tb = build_atm_pair(config=config)
    tb.link.impairments = injector
    payload = payload_pattern(size)

    def server(listener):
        child = yield from listener.accept()
        while True:
            data = yield from child.recv(size, exact=True)
            if len(data) < size:
                return
            yield from child.send(data)

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        results = []
        for _ in range(iterations):
            t0 = tb.sim.now
            yield from sock.send(payload)
            echoed = yield from sock.recv(size, exact=True)
            results.append((tb.sim.now - t0, echoed == payload))
        return sock, results

    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(server(listener), name="server")
    done = tb.client.spawn(client(), name="client")
    tb.sim.run_until_triggered(done)
    sock, results = done.value
    return tb, sock, results


class TestLossRecovery:
    def test_lost_data_segment_retransmitted(self):
        # Transmission 4 is the first data segment (SYN, SYN|ACK, ACK,
        # data); dropping it forces a retransmission timeout.
        tb, sock, results = echo_with_injector(DropNth(4))
        assert all(ok for _, ok in results)
        assert sock.conn.stats.retransmits >= 1
        # The first RTT absorbed the ~500 ms RTO.
        assert results[0][0] > 400_000_000
        assert results[1][0] < 10_000_000

    def test_lost_reply_retransmitted_by_server(self):
        tb, sock, results = echo_with_injector(DropNth(5))
        assert all(ok for _, ok in results)
        server_conn = [c for c in tb.server.tcp.connections
                       if c.stats.data_segs_sent][0]
        assert server_conn.stats.retransmits >= 1

    def test_lost_syn_retried(self):
        tb, sock, results = echo_with_injector(DropNth(1))
        assert all(ok for _, ok in results)

    def test_lost_syn_ack_retried(self):
        tb, sock, results = echo_with_injector(DropNth(2))
        assert all(ok for _, ok in results)

    def test_multiple_losses_still_recover(self):
        tb, sock, results = echo_with_injector(DropNth(4, 6, 9))
        assert all(ok for _, ok in results)


class TestChecksumProtection:
    def test_corrupted_payload_detected_and_recovered(self):
        tb, sock, results = echo_with_injector(CorruptNth(4))
        assert all(ok for _, ok in results)
        total_cksum_errors = (tb.client.tcp.stats.cksum_errors
                              + tb.server.tcp.stats.cksum_errors)
        assert total_cksum_errors >= 1

    def test_corruption_with_checksum_off_reaches_application(self):
        """§4.2: without the TCP checksum, controller-stage corruption is
        only caught by the application's own check."""
        config = KernelConfig(checksum_mode=ChecksumMode.OFF)
        tb, sock, results = echo_with_injector(
            CorruptNth(4, byte_index=60), size=500, config=config)
        assert any(not ok for _, ok in results)
        assert (tb.client.tcp.stats.cksum_errors
                + tb.server.tcp.stats.cksum_errors) == 0


class TestChecksumNegotiation:
    def run_pair(self, client_mode, server_mode, size=500):
        tb = build_atm_pair(config=KernelConfig(checksum_mode=client_mode))
        tb.server.config = KernelConfig(checksum_mode=server_mode)
        payload = payload_pattern(size)

        def server(listener):
            child = yield from listener.accept()
            data = yield from child.recv(size, exact=True)
            yield from child.send(data)
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.send(payload)
            echoed = yield from sock.recv(size, exact=True)
            assert echoed == payload
            return sock

        listener = tb.server.socket()
        listener.listen(SERVER_PORT)
        sdone = tb.server.spawn(server(listener), name="server")
        cdone = tb.client.spawn(client(), name="client")
        tb.sim.run_until_triggered(cdone)
        tb.sim.run_until_triggered(sdone)
        return cdone.value, sdone.value

    def test_both_off_negotiates_no_checksum(self):
        csock, ssock = self.run_pair(ChecksumMode.OFF, ChecksumMode.OFF)
        assert csock.conn.checksum_off
        assert ssock.conn.checksum_off

    def test_client_only_falls_back_to_checksum(self):
        csock, ssock = self.run_pair(ChecksumMode.OFF,
                                     ChecksumMode.STANDARD)
        assert not csock.conn.checksum_off
        assert not ssock.conn.checksum_off

    def test_server_only_falls_back_to_checksum(self):
        csock, ssock = self.run_pair(ChecksumMode.STANDARD,
                                     ChecksumMode.OFF)
        assert not csock.conn.checksum_off
        assert not ssock.conn.checksum_off

    def test_checksum_off_wire_field_is_zero(self):
        csock, _ = self.run_pair(ChecksumMode.OFF, ChecksumMode.OFF)
        # The layer never verified a checksum on data packets.
        assert csock.host.tcp.stats.cksum_skipped_off > 0


class TestIntegratedMode:
    def test_integrated_mode_transfers_correctly(self):
        config = KernelConfig(checksum_mode=ChecksumMode.INTEGRATED)
        tb, sock, results = echo_with_injector(
            DropNth(), size=8000, config=config)  # no faults
        assert all(ok for _, ok in results)
        # Partial checksums covered the page-aligned segments.
        assert sock.conn.stats.partial_cksum_hits > 0

    def test_integrated_mode_detects_corruption(self):
        config = KernelConfig(checksum_mode=ChecksumMode.INTEGRATED)
        tb, sock, results = echo_with_injector(
            CorruptNth(4), size=500, config=config)
        assert all(ok for _, ok in results)
