"""Regression: an ACK overtaking a partial retransmission must resync
snd_nxt (BSD's SEQ_LT(snd_nxt, snd_una) fix-up in tcp_input).

Found by the whole-stack hypothesis test with sizes=[1, 5367, 9] and
transmissions {2, 12} dropped: the lost first segment of a two-segment
reply is retransmitted (pulling snd_nxt back), the client's reassembly
queue completes the stream and ACKs *everything*, and without the
resync the server's next reply goes out at a stale sequence number —
silently shifting the byte stream.
"""

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.tcp.seq import seq_geq
from tests.wire_doubles import DropNth


def test_ack_overtaking_partial_retransmission():
    tb = build_atm_pair()
    # Drop the SYN|ACK (forcing a fresh handshake path) and, crucially,
    # transmission 12: the first segment of the two-segment reply.
    tb.link.impairments = DropNth(2, 12)
    sizes = [1, 5367, 9]
    listener = tb.server.socket()
    listener.listen(SERVER_PORT)

    def server(listener):
        child = yield from listener.accept()
        for size in sizes:
            data = yield from child.recv(size, exact=True)
            yield from child.send(data)
        return child

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        for i, size in enumerate(sizes):
            payload = payload_pattern(size, seed=i)
            yield from sock.send(payload)
            echoed = yield from sock.recv(size, exact=True)
            assert echoed == payload, f"exchange {i} corrupted"
        return sock

    server_done = tb.server.spawn(server(listener))
    done = tb.client.spawn(client())
    tb.sim.run_until_triggered(done)
    tb.sim.run_until_triggered(server_done)
    server_conn = server_done.value.conn
    # The invariant the fix restores: snd_nxt never trails snd_una once
    # the dust settles.
    assert seq_geq(server_conn.snd_nxt, server_conn.snd_una)


def test_snd_nxt_invariant_after_many_loss_patterns():
    """Sweep single-drop positions through the handshake and first
    exchanges; the snd_nxt >= snd_una invariant must always hold."""
    for drop in range(1, 16):
        tb = build_atm_pair()
        tb.link.impairments = DropNth(drop)
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            for size in (5367, 9):
                data = yield from child.recv(size, exact=True)
                yield from child.send(data)
            return child

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            for i, size in enumerate((5367, 9)):
                payload = payload_pattern(size, seed=i)
                yield from sock.send(payload)
                echoed = yield from sock.recv(size, exact=True)
                assert echoed == payload, (
                    f"drop={drop}: exchange {i} corrupted")
            return sock

        sdone = tb.server.spawn(server(listener))
        cdone = tb.client.spawn(client())
        tb.sim.run_until_triggered(cdone)
        tb.sim.run_until_triggered(sdone)
        for conn in (cdone.value.conn, sdone.value.conn):
            assert seq_geq(conn.snd_nxt, conn.snd_una), f"drop={drop}"
