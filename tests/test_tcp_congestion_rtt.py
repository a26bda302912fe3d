"""Tests for slow start / congestion avoidance, RTT estimation (Van
Jacobson + Karn), and zero-window persist."""

import pytest

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.kern.config import KernelConfig
from tests.test_tcp_recovery import echo_with_injector
from tests.wire_doubles import DropNth


def run_pair(tb, client_fn, server_fn):
    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(server_fn(listener), name="server")
    done = tb.client.spawn(client_fn(), name="client")
    tb.sim.run_until_triggered(done)
    return done.value


class TestSlowStart:
    def test_initial_cwnd_is_one_segment(self):
        tb = build_atm_pair()

        def server(listener):
            child = yield from listener.accept()
            yield from child.recv(1, exact=False)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            return sock

        sock = run_pair(tb, client, server)
        assert sock.conn.snd_cwnd == sock.conn.t_maxseg == 4096

    def test_cold_connection_paces_large_write(self):
        """8000 bytes on a cold connection: the second segment waits for
        the first ACK (slow start), which arrives via the delack timer."""
        tb = build_atm_pair()

        def server(listener):
            child = yield from listener.accept()
            yield from child.recv(8000, exact=True)
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            t0 = tb.sim.now
            yield from sock.send(payload_pattern(8000))
            while sock.conn.snd_una != sock.conn.snd_max:
                yield tb.sim.timeout(1_000_000)
            return sock, tb.sim.now - t0

        sock, elapsed_ns = run_pair(tb, client, server)
        # One delayed-ack round trip gates the second segment.
        assert elapsed_ns > 150_000_000
        assert sock.conn.snd_cwnd > sock.conn.t_maxseg

    def test_cwnd_grows_with_acks(self):
        tb = build_atm_pair()
        size = 500

        def server(listener):
            child = yield from listener.accept()
            for _ in range(6):
                data = yield from child.recv(size, exact=True)
                yield from child.send(data)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            for _ in range(6):
                yield from sock.send(payload_pattern(size))
                yield from sock.recv(size, exact=True)
            return sock

        sock = run_pair(tb, client, server)
        # Six acked exchanges: slow start adds one MSS per ACK.
        assert sock.conn.snd_cwnd >= 4 * sock.conn.t_maxseg

    def test_timeout_collapses_cwnd(self):
        tb, sock, results = echo_with_injector(DropNth(6, 8), size=8000,
                                               iterations=3)
        assert all(ok for _, ok in results)
        conn = sock.conn
        # A retransmission timeout happened and ssthresh was pulled down
        # from its initial (very large) value.
        assert conn.stats.retransmits >= 1
        assert conn.snd_ssthresh < 0xFFFF

    def test_congestion_control_can_be_disabled(self):
        tb = build_atm_pair(config=KernelConfig(congestion_control=False))

        def server(listener):
            child = yield from listener.accept()
            yield from child.recv(8000, exact=True)
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            t0 = tb.sim.now
            yield from sock.send(payload_pattern(8000))
            while sock.conn.snd_una != sock.conn.snd_max:
                yield tb.sim.timeout(500_000)
            return tb.sim.now - t0

        elapsed_ns = run_pair(tb, client, server)
        # Without slow start both segments go out back-to-back and the
        # ack-every-2 rule acks them immediately: no 200 ms stall.
        assert elapsed_ns < 50_000_000


class TestRttEstimation:
    def run_exchanges(self, rounds=8, config=None):
        tb = build_atm_pair(config=config)
        size = 500

        def server(listener):
            child = yield from listener.accept()
            for _ in range(rounds):
                data = yield from child.recv(size, exact=True)
                yield from child.send(data)

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            for _ in range(rounds):
                yield from sock.send(payload_pattern(size))
                yield from sock.recv(size, exact=True)
            return sock

        return run_pair(tb, client, server)

    def test_samples_collected(self):
        sock = self.run_exchanges()
        assert sock.conn.rtt_samples >= 4
        assert sock.conn.srtt_us is not None

    def test_srtt_tracks_actual_rtt(self):
        sock = self.run_exchanges()
        # The one-way data->ack delay is on the order of 1 ms here.
        assert 500 < sock.conn.srtt_us < 3000

    def test_rto_clamped_to_minimum(self):
        sock = self.run_exchanges()
        config = KernelConfig()
        assert sock.conn.rto_us == pytest.approx(config.min_rto_us)

    def test_estimation_can_be_disabled(self):
        sock = self.run_exchanges(
            config=KernelConfig(rtt_estimation=False))
        assert sock.conn.srtt_us is None
        assert sock.conn.rto_us == KernelConfig().rtx_timeout_us

    def test_karn_discards_retransmitted_samples(self):
        tb, sock, results = echo_with_injector(DropNth(4), size=500,
                                               iterations=3)
        assert all(ok for _, ok in results)
        # Samples exist, but none were taken over the retransmission
        # (which would have produced an absurd ~500 ms sample).
        conn = sock.conn
        if conn.srtt_us is not None:
            assert conn.srtt_us < 100_000


class TestPersist:
    def test_zero_window_probe_recovers(self):
        """The receiver's application stalls; the window closes; the
        persist timer probes until the window reopens."""
        tb = build_atm_pair(config=KernelConfig(
            sendspace=32 * 1024, recvspace=8192))
        total = 24_000
        payload = payload_pattern(total)

        def server(listener):
            child = yield from listener.accept()
            # Stall long enough for the receive buffer to fill and the
            # sender to hit a zero window.
            yield tb.sim.timeout(2_000_000_000)
            data = yield from child.recv(total, exact=True)
            assert data == payload
            yield from child.send(b"done")

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.send(payload)
            reply = yield from sock.recv(4, exact=True)
            return sock, reply

        sock, reply = run_pair(tb, client, server)
        assert reply == b"done"
        assert sock.conn.stats.bytes_sent >= total

    def test_window_update_reopens_flow(self):
        """After the reader drains, a window-update ACK lets the sender
        continue without waiting for a persist probe."""
        tb = build_atm_pair(config=KernelConfig(recvspace=8192))
        total = 20_000
        payload = payload_pattern(total)

        def server(listener):
            child = yield from listener.accept()
            data = yield from child.recv(total, exact=True)
            assert data == payload
            yield from child.send(b"ok")

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            t0 = tb.sim.now
            yield from sock.send(payload)
            yield from sock.recv(2, exact=True)
            return tb.sim.now - t0

        elapsed_ns = run_pair(tb, client, server)
        # Flow control cycles happen at RTT speed, far below the 500 ms
        # persist interval.
        assert elapsed_ns < 400_000_000
