"""Tests for the §4.2 bit-error stages and the error-detection layering."""

from types import SimpleNamespace

import pytest

from repro.atm.aal import cells_needed
from repro.chaos.impair import ImpairmentConfig, Impairments
from repro.core.errorstudy import run_error_study
from repro.kern.config import ChecksumMode


class Wire:
    """Drives one engine's transmit hook directly and records what the
    receiving adapter would be handed: ``(pdu, link_error)``."""

    def __init__(self, network="atm", **config):
        self.network = network
        self.engine = Impairments(ImpairmentConfig(**config))
        host = SimpleNamespace(name="client", metrics=None, sim=self)
        self.adapter = SimpleNamespace(host=host)
        self.got = []

    def schedule(self, delay_ns, fn, *args):
        fn(*args)

    def deliver(self, pdu, *args):
        self.got.append((pdu, args[-2]))

    def send(self, pdu):
        if self.network == "atm":
            self.engine.transmit_atm(self.adapter, self, 0, pdu,
                                     cells_needed(len(pdu)), True)
        else:
            self.engine.transmit_ether(self.adapter, self, 0, pdu, True)
        return self.got.pop()


class TestInjectorBasics:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ImpairmentConfig(p_link_error=1.5)
        with pytest.raises(ValueError):
            ImpairmentConfig(p_controller_error=-0.1)
        with pytest.raises(ValueError):
            ImpairmentConfig(p_gateway_error=2.0)

    def test_zero_probability_never_corrupts(self):
        wire = Wire(seed=1)
        pdu = bytes(range(200))
        for _ in range(50):
            assert wire.send(pdu) == (pdu, False)
            assert wire.engine.receive(pdu) == pdu
        stats = wire.engine.stats
        assert (stats.injected_link, stats.injected_controller,
                stats.injected_gateway) == (0, 0, 0)

    def test_controller_corruption_changes_bytes(self):
        engine = Impairments(ImpairmentConfig(seed=2, p_controller_error=1.0))
        pdu = bytes(200)
        out = engine.receive(pdu)
        assert engine.stats.injected_controller == 1
        assert out != pdu
        assert len(out) == len(pdu)

    def test_deterministic_given_seed(self):
        a = Impairments(ImpairmentConfig(seed=42, p_controller_error=0.5))
        b = Impairments(ImpairmentConfig(seed=42, p_controller_error=0.5))
        pdu = bytes(100)
        for _ in range(20):
            assert a.receive(pdu) == b.receive(pdu)
        assert a.stats.as_dict() == b.stats.as_dict()


class TestLinkStageDetection:
    def test_atm_link_errors_usually_caught_by_crc10(self):
        wire = Wire(seed=3, p_link_error=1.0)
        pdu = bytes(range(256)) * 2
        caught = sum(wire.send(pdu)[1] for _ in range(40))
        assert wire.engine.stats.injected_link == 40
        assert wire.engine.stats.link_check_caught == caught
        # Single-bit flips in payload or CRC are always caught by a real
        # CRC-10 (flips in padding are the only silent case).
        assert caught >= 35

    def test_ethernet_link_errors_caught_by_fcs(self):
        wire = Wire("ethernet", seed=4, p_link_error=1.0)
        frame = bytes(range(200))
        for _ in range(20):
            out, link_error = wire.send(frame)
            assert link_error and out != frame
        assert wire.engine.stats.link_check_caught == 20

    def test_gateway_errors_not_caught_by_link_check(self):
        wire = Wire(seed=5, p_gateway_error=1.0)
        pdu = bytes(300)
        out, link_error = wire.send(pdu)
        assert not link_error
        assert out != pdu
        stats = wire.engine.stats
        assert stats.injected_gateway == 1
        assert stats.link_check_missed == 1


class TestErrorStudyLayering:
    """The paper's §4.2 argument, reproduced end to end."""

    def test_link_errors_stop_at_aal_crc(self):
        r = run_error_study(size=500, iterations=25, p_link=0.25, seed=11)
        assert r.injected_link > 0
        assert r.caught_by_link_check >= r.injected_link - 1
        assert r.caught_by_tcp_checksum == 0
        assert r.caught_by_application == 0
        assert r.retransmissions >= 1  # recovery really happened

    def test_controller_errors_need_the_tcp_checksum(self):
        r = run_error_study(size=500, iterations=25, p_controller=0.2,
                            seed=12)
        assert r.injected_controller > 0
        assert r.caught_by_link_check == 0
        assert r.caught_by_tcp_checksum > 0
        assert r.caught_by_application == 0

    def test_ethernet_controller_errors_need_the_tcp_checksum(self):
        r = run_error_study(network="ethernet", size=500, iterations=25,
                            p_controller=0.2, seed=12)
        assert r.injected_controller > 0
        assert r.caught_by_link_check == 0
        assert r.caught_by_tcp_checksum > 0

    def test_gateway_errors_need_the_tcp_checksum(self):
        r = run_error_study(size=500, iterations=25, p_gateway=0.2,
                            seed=13)
        assert r.injected_gateway > 0
        assert r.caught_by_link_check == 0
        assert r.caught_by_tcp_checksum > 0

    def test_without_checksum_application_is_last_line(self):
        r = run_error_study(size=500, iterations=25, p_controller=0.15,
                            checksum_mode=ChecksumMode.OFF, seed=14)
        assert r.injected_controller > 0
        # Handshake (control) segments remain checksummed until the
        # no-checksum option takes effect, so at most the rare hit on a
        # SYN/SYN|ACK is caught by TCP; data corruption is not.
        assert r.caught_by_tcp_checksum <= 2
        # Corruption reached the application (or corrupted headers got
        # dropped and retransmitted); nothing below TCP saw it.
        assert r.caught_by_application + r.undetected > 0

    def test_local_area_clean_link_sees_no_errors(self):
        """The paper's key observation: without wide-area (gateway)
        traffic and with a quiet fiber, TCP detects no errors at all."""
        r = run_error_study(size=1400, iterations=20, seed=15)
        assert r.total_injected == 0
        assert r.caught_by_tcp_checksum == 0
        assert r.caught_by_application == 0

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="unknown network"):
            run_error_study(network="fddi", iterations=1)
