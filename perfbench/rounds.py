"""The benchmark's three closed-loop workloads, run through the public API.

A *round* is one deterministic instance of a workload: its inputs (kernel
config, testbeds, seeded payloads, spawned client/server processes) are
built in :meth:`Round.setup`, and :meth:`Round.run` executes them once.
The same ``(workload, seed)`` always yields the same simulated behaviour,
so every round of a run must produce an identical :func:`digest`.

Each round is made of *cells*: one testbed (a client/server host pair)
each.  ``table1`` has sixteen cells (eight paper sizes on ATM and on
Ethernet), the other workloads one.  Inside a cell every client runs a
closed loop: send a request, wait for the full echoed reply, compare it
byte for byte with what was sent, repeat, close.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.invariants import (
    check_ipq_conservation,
    check_mbuf_conservation,
    check_rexmt_backoff_bounded,
    check_timer_sanity,
)
from repro.chaos.impair import ImpairmentConfig, Impairments
from repro.core.experiment import PAPER_SIZES, SERVER_PORT
from repro.core.testbed import build_atm_pair, build_ethernet_pair
from repro.core.workloads import connection_scale_config
from repro.kern.config import KernelConfig
from repro.sim.engine import us
from repro.sim.errors import Deadlock
from repro.sim.resources import Semaphore
from repro.socket.socket import SocketError
from repro.tcp.conn import TCPError

__all__ = ["WORKLOADS", "Round", "RoundResult", "Spec", "digest",
           "percentile", "SPANS", "table1_cells", "conn_scale_cells",
           "lossy_cells"]

#: Simulated time the stack gets after the timed window to drain
#: delayed ACKs, FIN handshakes and TIME_WAIT (2 MSL = 1 s) before the
#: conservation audits run.
QUIESCE_US = 3_000_000.0
#: A cell whose timed phase has not finished after this much simulated
#: time is stalled; its unfinished RPCs count as failed.
STALL_US = 600_000_000.0
#: The timed phase is cut into segments of this many progress steps
#: (connections established plus RPCs completed).  Every round of a run
#: does the same segments, so the run can report the per-segment median
#: over rounds: host-speed bursts shorter than a round then drop out.
SEGMENT_STEPS = 16

#: The paper's Table 2 (transmit) and Table 3 (receive) data-path spans,
#: summed over both hosts.  ``link`` is the ATM or Ethernet device span.
SPANS = {
    "tx.user": ("tx.user",),
    "tx.tcp.checksum": ("tx.tcp.checksum",),
    "tx.tcp.mcopy": ("tx.tcp.mcopy",),
    "tx.tcp.segment": ("tx.tcp.segment",),
    "tx.ip": ("tx.ip",),
    "tx.link": ("tx.atm", "tx.ether"),
    "rx.link": ("rx.atm", "rx.ether"),
    "rx.ipq": ("rx.ipq",),
    "rx.ip": ("rx.ip",),
    "rx.tcp.checksum": ("rx.tcp.checksum",),
    "rx.tcp.segment": ("rx.tcp.segment",),
    "rx.wakeup": ("rx.wakeup",),
    "rx.user": ("rx.user",),
}


class _Stalled(Exception):
    """Raised from inside the event loop by a cell's stall watchdog."""


def _stall() -> None:
    raise _Stalled()


@dataclass(frozen=True)
class CellSpec:
    """One testbed's worth of closed-loop echo traffic."""

    network: str
    config: KernelConfig
    connections: int
    rpcs_per_connection: int
    size: int
    #: Admission window for handshakes and for RPC phases.
    window: int = 1
    #: Per-connection RPCs excluded from the latency samples.
    warmup: int = 0
    #: Whether the handshakes and closes are inside the timed phase.
    timed_handshake: bool = False
    #: Uniform per-PDU drop probability (seeded by the workload seed).
    loss: float = 0.0


@dataclass(frozen=True)
class Spec:
    """A workload: its name and the function that lists its cells."""

    name: str
    cells: Callable[[], List[CellSpec]]


def table1_cells(iterations: int = 64, warmup: int = 3,
                 sizes=tuple(PAPER_SIZES)) -> List[CellSpec]:
    config = KernelConfig()
    return [CellSpec(network=net, config=config, connections=1,
                     rpcs_per_connection=warmup + iterations, size=size,
                     warmup=warmup)
            for net in ("atm", "ethernet") for size in sizes]


def conn_scale_cells(connections: int = 1000) -> List[CellSpec]:
    return [CellSpec(network="atm",
                     config=connection_scale_config(scaled=True),
                     connections=connections, rpcs_per_connection=2,
                     size=64, window=24, timed_handshake=True)]


def lossy_cells(rpcs: int = 3000) -> List[CellSpec]:
    return [CellSpec(network="atm", config=KernelConfig(), connections=1,
                     rpcs_per_connection=rpcs, size=8000, loss=0.02)]


#: The workloads; tests make smaller ones from the same cell functions.
WORKLOADS: Dict[str, Spec] = {
    "table1": Spec("table1", table1_cells),
    "conn_scale_1000": Spec("conn_scale_1000", conn_scale_cells),
    "lossy_echo_8000": Spec("lossy_echo_8000", lossy_cells),
}


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


class Tally:
    """Per-round RPC outcome counts and simulated latency samples."""

    def __init__(self, corrupt_rpc: Optional[int] = None):
        self.ok = 0
        self.conn_failed = 0
        self.samples: List[float] = []
        #: Index (in completion order) of a reply the benchmark itself
        #: corrupts before checking it; tests use it to prove that a
        #: wrong reply is counted as failed.
        self.corrupt_rpc = corrupt_rpc
        self._replies = 0

    def reply(self, reply: bytes, expected: bytes, latency_us: float,
              sample: bool) -> bool:
        if self._replies == self.corrupt_rpc and reply:
            reply = bytes([reply[0] ^ 0xFF]) + reply[1:]
        self._replies += 1
        if reply != expected:
            return False
        self.ok += 1
        if sample:
            self.samples.append(latency_us)
        return True


def _counters(tb, impairments) -> Dict[str, float]:
    """Cumulative simulated-work counters of one testbed (both hosts)."""
    c: Dict[str, float] = {
        "events": tb.sim.events_executed, "cpu_jobs": 0,
        "cpu_preemptions": 0, "ipq_enqueued": 0, "segs": 0,
        "fast_path_hits": 0, "retransmits": 0, "pcb_lookups": 0,
        "pcb_cache_hits": 0, "pcb_scanned": 0, "cells": 0,
        "mbuf_allocs": 0, "mbuf_reused": 0,
        "chaos_drops": (impairments.stats.drops + impairments.stats.burst_drops
                        if impairments is not None else 0),
    }
    for name in SPANS:
        c["span." + name] = 0.0
    for host in tb.hosts:
        c["cpu_jobs"] += host.cpu.jobs_completed
        c["cpu_preemptions"] += host.cpu.preemptions
        c["ipq_enqueued"] += host.softnet.enqueued
        c["segs"] += host.tcp.stats.segs_received
        pcbs = host.tcp.pcbs
        c["pcb_lookups"] += pcbs.lookups
        c["pcb_cache_hits"] += pcbs.cache_hits
        c["pcb_scanned"] += pcbs.entries_scanned
        c["cells"] += getattr(host.interface.stats, "cells_sent", 0)
        c["mbuf_allocs"] += host.pool.allocated
        c["mbuf_reused"] += host.pool.reused
        # Closed connections leave host.tcp, but every socket (and its
        # connection) stays on host.sockets.
        conns = {id(s.conn): s.conn for s in host.sockets
                 if s.conn is not None}
        for conn in conns.values():
            c["fast_path_hits"] += conn.stats.fast_path_hits
            c["retransmits"] += conn.stats.retransmits
        for name, sources in SPANS.items():
            c["span." + name] += sum(host.tracer.total_us(s)
                                     for s in sources)
    return c


class _Cell:
    """A built cell: testbed, seeded payloads and spawned processes."""

    def __init__(self, spec: CellSpec, rng: random.Random, seed: int,
                 tally: Tally):
        self.spec = spec
        self.tally = tally
        self.impairments = (Impairments(ImpairmentConfig(seed=seed,
                                                         p_drop=spec.loss))
                            if spec.loss else None)
        build = build_atm_pair if spec.network == "atm" \
            else build_ethernet_pair
        self.tb = build(config=spec.config, impairments=self.impairments)
        sim = self.tb.sim
        self.payloads = [[rng.randbytes(spec.size)
                          for _ in range(spec.rpcs_per_connection)]
                         for _ in range(spec.connections)]
        self.connect_sem = Semaphore(sim, value=spec.window, name="pb-conn")
        self.rpc_sem = Semaphore(sim, value=spec.window, name="pb-rpc")
        self.ramp_done = sim.event(name="pb-ramp")
        self.start = sim.event(name="pb-start")
        self.all_done = sim.event(name="pb-done")
        #: Triggered (and replaced) every SEGMENT_STEPS progress steps and
        #: at the end; Round.run runs the timed phase one tick at a time.
        self.tick = sim.event(name="pb-tick")
        self.steps = 0
        self.connected = 0
        self.finished = 0
        listener = self.tb.server.socket()
        listener.listen(SERVER_PORT)
        self.tb.server.spawn(self._acceptor(listener), name="pb-acceptor")
        for i in range(spec.connections):
            self.tb.client.spawn(self._client(i), name=f"pb-client-{i}")

    # -- simulated programs -------------------------------------------
    def _acceptor(self, listener):
        for _ in range(self.spec.connections):
            child = yield from listener.accept()
            self.tb.server.spawn(self._handler(child), name="pb-handler")

    def _handler(self, sock):
        size = self.spec.size
        try:
            for _ in range(self.spec.rpcs_per_connection):
                data = yield from sock.recv(size, exact=True)
                if len(data) < size:
                    break
                yield from sock.send(data)
            yield from sock.close()
        except (TCPError, SocketError):
            pass  # the client side counts the RPCs this cost

    def _client(self, index: int):
        spec = self.spec
        clock = self.tb.client.clock
        yield self.connect_sem.acquire()
        sock = self.tb.client.socket()
        try:
            yield from sock.connect(self.tb.server.address.ip, SERVER_PORT)
        except (TCPError, SocketError):
            sock = None
            self.tally.conn_failed += 1
        self.connect_sem.release()
        self._step()
        self.connected += 1
        if self.connected == spec.connections:
            self.ramp_done.succeed()
        yield self.ramp_done if spec.timed_handshake else self.start
        if sock is not None:
            yield self.rpc_sem.acquire()
            try:
                for k, payload in enumerate(self.payloads[index]):
                    t0 = clock.read_ticks()
                    yield from sock.send(payload)
                    reply = yield from sock.recv(len(payload), exact=True)
                    latency = clock.delta_us(t0, clock.read_ticks())
                    self._step()
                    if not self.tally.reply(reply, payload, latency,
                                            sample=k >= spec.warmup):
                        break
                if spec.timed_handshake:
                    yield from sock.close()
            except (TCPError, SocketError):
                pass  # the missing replies count as failed RPCs
            finally:
                self.rpc_sem.release()
        self.finished += 1
        if self.finished == spec.connections:
            self.all_done.succeed()
            self._step(last=True)
        if not spec.timed_handshake and sock is not None:
            yield from sock.close()

    def _step(self, last: bool = False) -> None:
        self.steps += 1
        if last or self.steps % SEGMENT_STEPS == 0:
            # No process waits on a tick, so triggering it schedules
            # nothing: the simulated behaviour is the same with or
            # without segments.
            self.tick.succeed()
            self.tick = self.tb.sim.event(name="pb-tick")

    # -- run control ----------------------------------------------------
    def run_phase(self, event, segment_walls: Optional[List[float]] = None,
                  reference=None, reference_walls=None) -> bool:
        """Run the simulator until *event*; False if it never triggers.

        With *segment_walls*, run tick by tick and append each tick's
        host wall time; with *reference* too, time one call of it after
        every tick into *reference_walls*.
        """
        sim = self.tb.sim
        watchdog = sim.schedule(us(STALL_US), _stall)
        clock = time.perf_counter
        try:
            if segment_walls is None:
                sim.run_until_triggered(event)
            while not event.triggered:
                t0 = clock()
                sim.run_until_triggered(self.tick)
                segment_walls.append(clock() - t0)
                if reference is not None:
                    t0 = clock()
                    reference()
                    reference_walls.append(clock() - t0)
        except (Deadlock, _Stalled):
            return False
        finally:
            watchdog.cancel()
        return True

    def quiesce_and_audit(self) -> List[str]:
        sim = self.tb.sim
        violations: List[str] = []
        for host in self.tb.hosts:
            violations.extend(check_rexmt_backoff_bounded(host))
        try:
            sim.run(until=sim.now + us(QUIESCE_US))
        except Exception as exc:  # noqa: BLE001 - audit, don't crash
            violations.append(f"quiesce-error[{type(exc).__name__}]: {exc}")
        for host in self.tb.hosts:
            violations.extend(check_ipq_conservation(host))
            violations.extend(check_mbuf_conservation(host))
            violations.extend(check_rexmt_backoff_bounded(host))
            violations.extend(check_timer_sanity(host))
        return violations


@dataclass
class RoundResult:
    """What one round did: outcome counts, wall time, simulated work."""

    attempted: int
    ok: int
    conn_failed: int
    violations: List[str]
    #: Host wall seconds of each timed segment, in order.
    segment_walls: List[float]
    #: Host wall seconds of the reference kernel run after each segment
    #: (empty when the round ran without one).
    reference_walls: List[float]
    #: Simulated-work counters accumulated over the timed phases.
    work: Dict[str, float]
    samples: List[float]
    mbuf_high_water: int
    #: Host wall nanoseconds per layer over the timed phases (traced
    #: rounds only).
    layer_ns: Dict[str, int] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    layer_bytes: Dict[str, int] = field(default_factory=dict)
    schedule_calls: int = 0

    @property
    def failed(self) -> int:
        """Failed RPCs; an audit violation fails every RPC of the round."""
        if self.violations:
            return self.attempted
        return self.attempted - self.ok

    @property
    def timed_wall_s(self) -> float:
        return sum(self.segment_walls)

    @property
    def wall_us_per_rpc(self) -> float:
        return self.timed_wall_s * 1e6 / max(1, self.ok)


def digest(result: RoundResult) -> Dict[str, float]:
    """The round's deterministic fingerprint: identical for every round
    of one ``(workload, seed)``, traced or not."""
    samples = sorted(result.samples)
    d = dict(result.work)
    d.update(rpcs=result.attempted, rpc_ok=result.ok,
             conn_failed=result.conn_failed,
             audit_violations=len(result.violations),
             mbuf_high_water=result.mbuf_high_water,
             sim_samples=len(samples),
             sim_rpc_us_p50=percentile(samples, 0.50),
             sim_rpc_us_p99=percentile(samples, 0.99))
    return d


class Round:
    """One deterministic instance of a workload.

    *tracer* (a :class:`layer_trace.LayerTracer`, already installed) makes
    this a traced round: its layer totals are read around each timed
    phase.  *reference* (``reference.kernel``) is timed after every
    segment.
    """

    def __init__(self, spec: Spec, seed: int, tracer=None,
                 corrupt_rpc: Optional[int] = None, reference=None):
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.reference = reference
        self.tally = Tally(corrupt_rpc)
        self.cells: List[_Cell] = []

    def setup(self) -> None:
        """Build every cell; no simulated event runs here."""
        rng = random.Random(self.seed)
        self.cells = [_Cell(cs, rng, self.seed, self.tally)
                      for cs in self.spec.cells()]
        if self.tracer is not None:
            for cell in self.cells:
                self.tracer.count_schedules(cell.tb.sim)

    def run(self) -> RoundResult:
        if not self.cells:
            self.setup()
        tracer = self.tracer
        segment_walls: List[float] = []
        reference_walls: List[float] = []
        work: Dict[str, float] = {}
        violations: List[str] = []
        layer_before = None
        totals: Dict[str, Dict[str, int]] = {}
        gc.collect()
        for cell in self.cells:
            spec = cell.spec
            if not spec.timed_handshake:
                if not cell.run_phase(cell.ramp_done):
                    violations.append("handshake phase stalled")
                cell.start.succeed()
            before = _counters(cell.tb, cell.impairments)
            if tracer is not None:
                layer_before = tracer.totals()
            cell.run_phase(cell.all_done, segment_walls, self.reference,
                           reference_walls)
            if tracer is not None:
                for kind, after in tracer.totals().items():
                    acc = totals.setdefault(kind, {})
                    for layer, value in after.items():
                        acc[layer] = (acc.get(layer, 0) + value
                                      - layer_before[kind][layer])
            after = _counters(cell.tb, cell.impairments)
            for key, value in after.items():
                work[key] = work.get(key, 0) + value - before[key]
            violations.extend(cell.quiesce_and_audit())
        attempted = sum(c.spec.connections * c.spec.rpcs_per_connection
                        for c in self.cells)
        result = RoundResult(
            attempted=attempted, ok=self.tally.ok,
            conn_failed=self.tally.conn_failed,
            violations=violations, segment_walls=segment_walls,
            reference_walls=reference_walls, work=work,
            samples=list(self.tally.samples),
            mbuf_high_water=max(h.pool.high_water for c in self.cells
                                for h in c.tb.hosts))
        if tracer is not None:
            result.layer_ns = totals["ns"]
            result.layer_calls = totals["calls"]
            result.layer_bytes = totals["bytes"]
            result.schedule_calls = totals["schedules"]["all"]
        return result
