"""Connection-scale features must not change what TCP does on the wire.

The timer wheel and batched softnet dispatch
(``KernelConfig.timer_wheel`` / ``softnet_batch``) are performance
features: with the flags on, a single-connection run must emit the
*identical* segment sequence — same seq/ack/flags/length, clean or
lossy — only at (possibly) different simulated instants.  This suite
pins that contract at the packet-log level, unit-tests the wheel's
quantization and idle-skip rules, and exercises the N-connection
workload runner end to end.
"""

import pytest

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.packetlog import attach_packet_log
from repro.core.testbed import build_atm_pair
from repro.kern.config import KernelConfig
from repro.sim.engine import Simulator
from repro.tcp.timewheel import FAST_SLOTS, SLOW_SLOTS, TimerWheel
from tests.test_tcp_recovery import DropNth


def scale_config(on: bool, **kwargs) -> KernelConfig:
    return KernelConfig(timer_wheel=on, softnet_batch=on, **kwargs)


def _trace(log):
    """The wire behaviour, stripped of timing: what was sent/received,
    in order, but not when."""
    return [(e.host, e.direction, e.src, e.dst, e.seq, e.ack,
             e.flags, e.window, e.payload_len) for e in log.events]


def _echo_run(flags_on: bool, size: int = 1400, rounds: int = 3,
              drops=()):
    """One echo exchange (optionally with deterministic loss), fully
    closed and settled; returns (trace, client connection)."""
    tb = build_atm_pair(config=scale_config(flags_on))
    log = attach_packet_log(tb)
    if drops:
        tb.link.fault_injector = DropNth(*drops)
    payload = payload_pattern(size)

    def server(listener):
        child = yield from listener.accept()
        for _ in range(rounds):
            data = yield from child.recv(size, exact=True)
            if len(data) < size:
                return
            yield from child.send(data)
        yield from child.close()

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        for _ in range(rounds):
            yield from sock.send(payload)
            data = yield from sock.recv(size, exact=True)
            assert data == payload
        yield from sock.close()
        return sock

    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    tb.server.spawn(server(listener), name="server")
    done = tb.client.spawn(client(), name="client")
    tb.sim.run_until_triggered(done)
    tb.sim.run()  # settle: delayed ACKs, TIME_WAIT, stray timers
    return _trace(log), done.value.conn


class TestFlagEquivalence:
    """Flag-on vs flag-off: identical segment sequences."""

    def test_clean_exchange_identical_segments(self):
        off, conn_off = _echo_run(False)
        on, conn_on = _echo_run(True)
        assert on == off
        assert conn_on.stats.retransmits == conn_off.stats.retransmits == 0

    def test_lossy_exchange_identical_segments(self):
        # Drop a data segment and one retransmission: exercises rexmt
        # backoff through the wheel's slow cadence.
        off, conn_off = _echo_run(False, drops=(4, 5))
        on, conn_on = _echo_run(True, drops=(4, 5))
        assert on == off
        assert conn_on.stats.retransmits == conn_off.stats.retransmits
        assert conn_on.stats.retransmits >= 2

    def test_small_payload_many_rounds(self):
        off, _ = _echo_run(False, size=64, rounds=8)
        on, _ = _echo_run(True, size=64, rounds=8)
        assert on == off


class _Expiries:
    """Stand-in connection: records wheel expiry (slot, time) pairs."""

    def __init__(self, sim):
        self.sim = sim
        self.fired = []

    def _wheel_expired(self, slot):
        self.fired.append((slot, self.sim.now))


class TestTimerWheelUnit:
    FAST = 200_000_000
    SLOW = 500_000_000

    def _wheel(self, phase=0):
        sim = Simulator()
        wheel = TimerWheel(sim, fast_interval_ns=self.FAST,
                           slow_interval_ns=self.SLOW, phase_ns=phase)
        return sim, wheel

    def test_rejects_nonpositive_intervals(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TimerWheel(sim, fast_interval_ns=0, slow_interval_ns=1)

    @pytest.mark.parametrize("phase", [0, 7, 123_456_789])
    def test_never_fires_early_and_quantizes_up(self, phase):
        sim, wheel = self._wheel(phase=phase)
        conn = _Expiries(sim)
        delay = 650_000_000  # lands mid-interval on the slow cadence
        wheel.arm(conn, "rexmt", delay)
        nominal = sim.now + delay
        sim.run()
        assert len(conn.fired) == 1
        slot, fired_at = conn.fired[0]
        assert slot == "rexmt"
        assert fired_at >= nominal
        # First boundary at or after nominal on the k*SLOW+phase grid.
        assert (fired_at - phase % self.SLOW) % self.SLOW == 0
        assert fired_at - nominal < self.SLOW

    def test_quantization_formula_matches_ceil(self):
        # arm() computes the boundary with a single modulo; pin it to
        # the obvious ceil-division form over a dense grid.
        for interval in (3, 5, 8, 13):
            for phase in range(interval):
                for nominal in range(60):
                    q, r = divmod(nominal - phase, interval)
                    ceil_form = (q + (1 if r else 0)) * interval + phase
                    assert (nominal + (phase - nominal) % interval
                            == ceil_form)

    def test_phase_staggers_two_hosts(self):
        fired = []
        for phase in (0, 70_000_000):
            sim, wheel = self._wheel(phase=phase)
            conn = _Expiries(sim)
            wheel.arm(conn, "rexmt", 600_000_000)
            sim.run()
            fired.append(conn.fired[0][1])
        assert fired[0] != fired[1]

    def test_rearm_overwrites_in_place(self):
        sim, wheel = self._wheel()
        conn = _Expiries(sim)
        wheel.arm(conn, "rexmt", 500_000_000)
        wheel.arm(conn, "rexmt", 1_700_000_000)  # pushed out, one entry
        sim.run()
        assert len(conn.fired) == 1
        assert conn.fired[0][1] >= 1_700_000_000

    def test_cancel_is_idempotent_and_detach_clears_all(self):
        sim, wheel = self._wheel()
        conn = _Expiries(sim)
        for slot in FAST_SLOTS + SLOW_SLOTS:
            wheel.arm(conn, slot, 300_000_000)
            assert wheel.armed(conn, slot)
        wheel.cancel(conn, "rexmt")
        wheel.cancel(conn, "rexmt")  # second cancel is a no-op
        wheel.detach(conn)
        for slot in FAST_SLOTS + SLOW_SLOTS:
            assert not wheel.armed(conn, slot)
        sim.run()
        assert conn.fired == []

    def test_idle_wheel_schedules_nothing(self):
        sim, wheel = self._wheel()
        sim.run()  # returns immediately: no tick events exist
        assert wheel.ticks == 0
        assert sim.now == 0

    def test_ticks_stop_after_last_deadline(self):
        sim, wheel = self._wheel()
        conn = _Expiries(sim)
        wheel.arm(conn, "delack", 100_000_000)
        sim.run()
        assert conn.fired and wheel.ticks >= 1
        ticks_after = wheel.ticks
        # The engine drained: no tick keeps re-arming on an empty wheel.
        assert wheel._fast_tick is None and wheel._slow_tick is None
        sim.run()
        assert wheel.ticks == ticks_after


class TestTimeWaitAtScale:
    @pytest.mark.parametrize("flags_on", [False, True])
    def test_many_time_waits_expire_and_drain(self, flags_on):
        """Dozens of client connections close together: every 2MSL
        expiry fires (batched onto slow ticks when the wheel is on),
        all connections reach CLOSED, and both PCB tables drain back
        to the daemon entries."""
        from repro.tcp.states import TCPState

        config = scale_config(flags_on)
        tb = build_atm_pair(config=config)
        count = 40
        finished = [0]
        done = tb.sim.event(name="all-closed")

        def server(listener):
            for _ in range(count):
                child = yield from listener.accept()
                tb.server.spawn(drain(child), name="drain")

        def drain(child):
            yield from child.recv(1, exact=True)  # EOF
            yield from child.close()

        def client():
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            yield from sock.close()
            finished[0] += 1
            if finished[0] == count:
                done.succeed(None)
            return sock

        listener = tb.server.socket()
        listener.listen(SERVER_PORT)
        tb.server.spawn(server(listener), name="acceptor")
        socks = [tb.client.spawn(client(), name=f"closer-{i}")
                 for i in range(count)]
        tb.sim.run_until_triggered(done)
        tb.sim.run()  # drain TIME_WAIT (2MSL) and stray timers
        for proc in socks:
            assert proc.value.conn.state is TCPState.CLOSED
        daemons = config.daemon_pcbs
        assert len(tb.client.tcp.pcbs) == daemons
        assert tb.client.tcp.connections == []
        if flags_on:
            assert tb.client.timer_wheel.ticks >= 1
            assert tb.client.timer_wheel.fired >= count

    @pytest.mark.parametrize("flags_on", [False, True])
    def test_pcb_tables_drain_after_close(self, flags_on):
        from repro.core.workloads import run_connection_scale

        config = scale_config(flags_on)
        tb = build_atm_pair(config=config)
        daemons = config.daemon_pcbs
        # A fresh testbed holds only the daemon PCBs.
        assert len(tb.client.tcp.pcbs) == daemons
        result = run_connection_scale(30, rounds=1, config=config)
        assert result.completed == 30


class TestConnScaleRunner:
    @pytest.mark.parametrize("scaled", [False, True])
    def test_hundred_connections_complete(self, scaled):
        from repro.core.workloads import (
            connection_scale_config,
            run_connection_scale,
        )

        result = run_connection_scale(
            100, rounds=2, config=connection_scale_config(scaled=scaled))
        assert result.completed == result.connections == 100
        assert result.retransmits == 0
        assert result.events_executed > 0
        assert result.sim_duration_us > 0
        # Every connection moved its RPC bytes both ways.
        assert result.segments_received >= 100 * 2 * 2
        if scaled:
            assert result.wheel_ticks >= 1
        else:
            assert result.wheel_ticks == 0

    def test_rejects_bad_window(self):
        from repro.core.workloads import run_connection_scale

        with pytest.raises(ValueError):
            run_connection_scale(2, window=0)
