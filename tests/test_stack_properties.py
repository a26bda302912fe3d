"""Whole-stack property tests: stream integrity under random traffic.

These drive the complete simulated system (sockets -> TCP -> IP ->
devices -> wire and back) with hypothesis-generated workloads and
assert the only property that ultimately matters: every byte arrives,
once, in order — whatever the sizes, the direction mix, the checksum
mode, or the injected losses.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import SERVER_PORT, payload_pattern
from repro.core.testbed import build_atm_pair, build_ethernet_pair
from repro.kern.config import ChecksumMode, KernelConfig
from tests.wire_doubles import DropNth

SIZES = st.integers(min_value=1, max_value=6000)


def run_exchanges(tb, sizes):
    """Echo each size in order; returns True when all verified."""
    listener = tb.server.socket()
    listener.listen(SERVER_PORT)

    def server(listener):
        child = yield from listener.accept()
        for size in sizes:
            data = yield from child.recv(size, exact=True)
            yield from child.send(data)

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        for i, size in enumerate(sizes):
            payload = payload_pattern(size, seed=i)
            yield from sock.send(payload)
            echoed = yield from sock.recv(size, exact=True)
            assert echoed == payload, f"exchange {i} corrupted"
        return True

    tb.server.spawn(server(listener), name="server")
    done = tb.client.spawn(client(), name="client")
    return tb.sim.run_until_triggered(done)


@settings(max_examples=15, deadline=None)
@given(st.lists(SIZES, min_size=1, max_size=6))
def test_random_sizes_over_atm(sizes):
    assert run_exchanges(build_atm_pair(), sizes)


@settings(max_examples=10, deadline=None)
@given(st.lists(SIZES, min_size=1, max_size=5))
def test_random_sizes_over_ethernet(sizes):
    assert run_exchanges(build_ethernet_pair(), sizes)


@settings(max_examples=10, deadline=None)
@given(st.lists(SIZES, min_size=1, max_size=4),
       st.sampled_from(list(ChecksumMode)))
def test_random_sizes_any_checksum_mode(sizes, mode):
    tb = build_atm_pair(config=KernelConfig(checksum_mode=mode))
    assert run_exchanges(tb, sizes)


@settings(max_examples=10, deadline=None)
@given(st.lists(SIZES, min_size=1, max_size=3),
       st.sets(st.integers(min_value=1, max_value=14), max_size=3))
def test_random_losses_recovered(sizes, drops):
    """Arbitrary early transmissions lost: the stream still completes
    intact via retransmission."""
    tb = build_atm_pair()
    tb.link.impairments = DropNth(*drops)
    assert run_exchanges(tb, sizes)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=40_000),
       st.integers(min_value=2, max_value=16))
def test_bulk_any_size_any_window(total, window_kb):
    """One-way bulk of arbitrary size under an arbitrary (small) window
    arrives intact — flow control, segmentation, window updates, and
    persist all composed."""
    config = KernelConfig(sendspace=32 * 1024,
                          recvspace=window_kb * 1024)
    tb = build_atm_pair(config=config)
    payload = payload_pattern(total)
    listener = tb.server.socket()
    listener.listen(SERVER_PORT)
    out = {}

    def server(listener):
        child = yield from listener.accept()
        out["data"] = (yield from child.recv(total, exact=True))
        yield from child.send(b"ok")

    def client():
        sock = tb.client.socket()
        yield from sock.connect(tb.server.address.ip, SERVER_PORT)
        yield from sock.send(payload)
        yield from sock.recv(2, exact=True)

    tb.server.spawn(server(listener))
    done = tb.client.spawn(client())
    tb.sim.run_until_triggered(done)
    assert out["data"] == payload
