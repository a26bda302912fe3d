"""Hostile-segment hardening of the TCP/IP input path.

Each test pins one of the input-validation rules the stack now
guarantees (see DESIGN.md): blind RSTs are dropped by the RFC 793
in-window test, hostile SYNs never spawn half-open children, poisoned
MSS options are clamped, unparseable data offsets are counted and
dropped, IP length fields are validated, and sequence arithmetic is
correct at the 2^32 wrap.
"""

import pytest

from repro.chaos.fuzz import _fix_tcp_checksum
from repro.chaos.triage import MIN_SANE_MSS, run_fuzz_cell
from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair
from repro.net.headers import HeaderError, TCPFlags, TCPHeader
from repro.tcp.conn import TCP_MINMSS
from repro.tcp.options import TCPOptions
from repro.tcp.seq import (seq_add, seq_diff, seq_geq, seq_gt, seq_leq,
                           seq_lt)
from tests.wire_doubles import PassThrough


class TestBlindRst:
    def test_blind_rst_does_not_kill_the_connection(self):
        """A forged RST with an out-of-window seq is dropped and the
        transfer completes via TCP's own retransmission."""
        cell = run_fuzz_cell(
            size=1400, iterations=6,
            schedule=[{"endpoint": "client", "index": 2,
                       "op": "tcp-rst-blind", "sel": 0}],
            expect_complete=True)
        assert cell.ok, cell.violations
        assert cell.counters["tcp.rst_dropped"] >= 1

    def test_in_window_rst_with_ack_and_data_still_resets(self):
        """Hardening must not break legitimate resets: an RST|ACK
        carrying data whose seq is exactly rcv_nxt is in-window and
        kills the connection (RFC 793 p.37)."""

        class RewriteToRst(PassThrough):
            """Rewrite the Nth client PDU to RST|ACK, keeping seq."""

            def __init__(self, n):
                self.n = n
                self.count = 0

            def _rewrite(self, host, pdu):
                if host.name != "client":
                    return pdu
                self.count += 1
                if self.count != self.n:
                    return pdu
                buf = bytearray(pdu)
                buf[33] = TCPFlags.RST | TCPFlags.ACK
                _fix_tcp_checksum(buf)
                return bytes(buf)

            def transmit_atm(self, adapter, peer, delay_ns, pdu,
                             n_cells, data_bearing):
                super().transmit_atm(adapter, peer, delay_ns,
                                     self._rewrite(adapter.host, pdu),
                                     n_cells, data_bearing)

        tb = build_atm_pair(impairments=RewriteToRst(3))
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            child = yield from listener.accept()
            try:
                return (yield from child.recv(1400, exact=True))
            except Exception as exc:
                return exc

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            # PDU 3 is the first data segment: it arrives at the
            # server as RST|ACK with seq == rcv_nxt.
            try:
                yield from sock.send(payload_pattern(1400))
            except Exception:
                pass

        done = tb.server.spawn(server(listener))
        tb.client.spawn(client())
        result = tb.sim.run_until_triggered(done)
        assert isinstance(result, Exception)
        server_conns = tb.server.tcp.connections
        assert all(c.stats.rst_dropped == 0 for c in server_conns)


class TestHostileSyn:
    @pytest.mark.parametrize("sel,combo", [(0, "SYN|FIN"),
                                           (6, "SYN|FIN|PSH|URG")])
    def test_syn_fin_never_spawns_a_child(self, sel, combo):
        """A SYN|FIN to the listener is refused outright; the client's
        retransmitted (clean) SYN then connects and the transfer
        completes."""
        cell = run_fuzz_cell(
            size=200, iterations=4,
            schedule=[{"endpoint": "client", "index": 0,
                       "op": "tcp-flags", "sel": sel}],
            expect_complete=True)
        assert cell.ok, (combo, cell.violations)
        assert cell.counters["tcp.bad_segments"] >= 1

    def test_syn_on_established_connection_is_contained(self):
        """An in-window SYN legitimately resets (RFC 793 p.71), but it
        must never corrupt invariants or leak buffers."""
        # sel=2 -> SYN|ACK with the original (in-window) seq: the
        # server must declare the reset cleanly, not crash or leak.
        cell = run_fuzz_cell(
            size=1400, iterations=6,
            schedule=[{"endpoint": "client", "index": 2,
                       "op": "tcp-flags", "sel": 2}],
            expect_complete=False)
        assert cell.ok, cell.violations
        assert cell.counters["tcp.bad_segments"] >= 1


class TestPoisonedOptions:
    def test_mss_1_is_clamped(self):
        cell = run_fuzz_cell(
            size=200, iterations=6,
            schedule=[{"endpoint": "client", "index": 0,
                       "op": "tcp-options", "sel": 2}],  # MSS = 1
            expect_complete=True)
        assert cell.ok, cell.violations
        assert cell.counters["tcp.bad_options"] >= 1
        assert TCP_MINMSS >= MIN_SANE_MSS

    def test_decode_flags_malformed_lists(self):
        assert TCPOptions.decode(bytes([2, 0])).malformed
        assert TCPOptions.decode(bytes([2, 255])).malformed
        assert TCPOptions.decode(bytes([2])).malformed
        assert TCPOptions.decode(bytes([2, 3, 0])).malformed  # short MSS
        clean = TCPOptions.decode(bytes([2, 4, 0x10, 0x00, 1, 1]))
        assert not clean.malformed
        assert clean.mss == 0x1000

    def test_unknown_kind_is_ignored_not_malformed(self):
        opts = TCPOptions.decode(bytes([0xAB, 2, 2, 4, 0x04, 0x00]))
        assert opts.mss == 0x400
        assert not opts.malformed


class TestDataOffset:
    def _segment(self, doff_nibble):
        hdr = TCPHeader(src_port=1, dst_port=2, seq=0, ack=0,
                        flags=TCPFlags.ACK, window=100)
        raw = bytearray(hdr.pack() + b"payload")
        raw[12] = (doff_nibble << 4) | (raw[12] & 0x0F)
        return bytes(raw)

    @pytest.mark.parametrize("doff", [0, 1, 4])
    def test_offset_below_minimum_raises(self, doff):
        with pytest.raises(HeaderError):
            TCPHeader.unpack(self._segment(doff))

    def test_offset_beyond_segment_raises(self):
        with pytest.raises(HeaderError):
            TCPHeader.unpack(self._segment(15))  # 60 > 20 + 7

    # sels 0/1/2 map to data offsets 0/1/4 — all below the 5-word
    # minimum, so the header is unparseable on arrival.
    @pytest.mark.parametrize("sel", [0, 1, 2])
    def test_bad_offset_on_the_wire_is_counted_and_survived(self, sel):
        cell = run_fuzz_cell(
            size=1400, iterations=6,
            schedule=[{"endpoint": "client", "index": 2,
                       "op": "tcp-offset", "sel": sel}],
            expect_complete=True)
        assert cell.ok, cell.violations
        assert cell.counters["tcp.bad_segments"] >= 1


class TestIPValidation:
    @pytest.mark.parametrize("sel", [0, 1, 2])
    def test_bad_total_length_is_counted_and_survived(self, sel):
        cell = run_fuzz_cell(
            size=1400, iterations=6,
            schedule=[{"endpoint": "client", "index": 2,
                       "op": "ip-length", "sel": sel}],
            expect_complete=True)
        assert cell.ok, cell.violations
        assert (cell.counters["ip.bad_headers"] >= 1
                or cell.counters["tcp.bad_segments"] >= 1)


class TestSeqWrap:
    """Sequence arithmetic at the 2^32 boundary (tcp/seq.py)."""

    def test_add_wraps(self):
        assert seq_add(0xFFFFFFFF, 1) == 0
        assert seq_add(0xFFFFFFF0, 0x20) == 0x10
        assert seq_add(0, 0) == 0

    def test_diff_across_the_wrap(self):
        assert seq_diff(5, 0xFFFFFFFB) == 10
        assert seq_diff(0xFFFFFFFB, 5) == -10
        assert seq_diff(0, 0x80000000) == -(2 ** 31)

    def test_ordering_across_the_wrap(self):
        assert seq_gt(5, 0xFFFFFFFB)
        assert seq_lt(0xFFFFFFFB, 5)
        assert seq_geq(5, 0xFFFFFFFB)
        assert seq_leq(0xFFFFFFFB, 5)
        assert not seq_gt(0xFFFFFFFB, 5)

    def test_window_membership_across_the_wrap(self):
        rcv_nxt, wnd = 0xFFFFF000, 0x4000
        inside = seq_add(rcv_nxt, 0x2000)     # wraps past zero
        outside = seq_add(rcv_nxt, 0x5000)
        assert seq_geq(inside, rcv_nxt)
        assert seq_lt(inside, seq_add(rcv_nxt, wnd))
        assert not seq_lt(outside, seq_add(rcv_nxt, wnd))


class TestRandomCampaignSmoke:
    def test_short_random_campaign_is_green(self):
        """A couple of random-seed cells with the full operator mix:
        no crashes, no invariant violations, no conformance findings."""
        for seed in (1994, 77):
            cell = run_fuzz_cell(size=1400, seed=seed, p_mutate=0.3)
            assert cell.ok, (seed, cell.violations)
