#!/usr/bin/env python3
"""The repo benchmark: end-to-end and per-layer cost of the simulator.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1994 \
        --seconds 20 --trace 0

``--trace 0`` repeats untraced rounds of the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics.  The last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it are the human-readable
report.  See ``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Each of these silently changes the program that is measured.
REFUSED_ENV = ("REPRO_SANITIZE", "REPRO_TIMER_WHEEL", "REPRO_SOFTNET_BATCH")
#: The seed used while developing a change.
DEFAULT_SEED = 1994
#: The seed a performance claim must also hold on.
HELDOUT_SEED = 2718
#: Fresh processes timed for ``setup_s`` (median reported).
SETUP_PROBES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_stack():
    """Put the checkout's ``src`` first on the path and import the stack;
    None (after a message) when this is not a full checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return None
    import rounds
    return rounds


def _setup_s(workload: str, seed: int) -> list:
    """Wall time from process start to the first simulated event, each
    measured on a fresh interpreter (imports, config, testbed build,
    payload generation)."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def _digest_line(d: dict) -> str:
    return " ".join(f"{k}={v!r}" for k, v in sorted(d.items()))


def _untraced(rounds, spec, seed, seconds, kernel):
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(rounds.Round(spec, seed, reference=kernel).run())
    return results


def _traced(rounds, layer_trace, spec, seed, seconds):
    """(untraced, traced) round pairs until *seconds* have passed."""
    pairs = []
    deadline = time.perf_counter() + seconds
    while not pairs or time.perf_counter() < deadline:
        plain = rounds.Round(spec, seed).run()
        with layer_trace.LayerTracer() as tracer:
            traced = rounds.Round(spec, seed, tracer=tracer).run()
        pairs.append((plain, traced))
    return pairs


def _per_rpc(results, per_segment) -> float:
    """Sum over segments of the median over rounds of
    ``per_segment(round)[k]``, per completed RPC (every round runs the
    same segments)."""
    segments = zip(*(per_segment(r) for r in results))
    return (sum(statistics.median(values) for values in segments)
            / max(1, results[0].ok))


def _end_to_end(results, setups, digest):
    walls = [r.wall_us_per_rpc for r in results]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    norm = _per_rpc(results, lambda r: [
        s / f for s, f in zip(r.segment_walls, r.reference_walls)])
    raw_us = _per_rpc(results, lambda r: r.segment_walls) * 1e6
    reference_us = statistics.median([f for r in results
                            for f in r.reference_walls]) * 1e6
    metrics = {
        "norm_wall_per_rpc": (norm, "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
        "sim_rpc_us_p50": (digest["sim_rpc_us_p50"], "sim_us"),
        "sim_rpc_us_p99": (digest["sim_rpc_us_p99"], "sim_us"),
    }
    print(f"rounds: {len(results)} of {len(results[0].segment_walls)} "
          f"segments; raw wall us/rpc per round: "
          + ", ".join(f"{w:.2f}" for w in walls))
    print(f"raw wall: {raw_us:.2f} us/rpc from per-segment medians; "
          f"reference kernel: {reference_us:.1f} us median")
    print("setup_s per probe: " + ", ".join(f"{s:.4f}" for s in setups))
    return metrics


def _per_layer(rounds, layer_trace, pairs):
    plain0, traced0 = pairs[0]
    ok = max(1, plain0.ok)
    work = plain0.work
    layers = layer_trace.LAYERS
    metrics = {}
    shares = {layer: [] for layer in layers}
    per_rpc = {layer: [] for layer in layers}
    for _plain, traced in pairs:
        total = sum(traced.layer_ns.values()) or 1
        for layer in layers:
            ns = traced.layer_ns[layer]
            per_rpc[layer].append(ns / 1000.0 / max(1, traced.ok))
            shares[layer].append(100.0 * ns / total)
    print(f"{'layer':<12} {'self_us/rpc':>12} {'share %':>8}  entry calls")
    for layer in layers:
        self_us = statistics.median(per_rpc[layer])
        share = statistics.median(shares[layer])
        calls = {e: n for e, n in traced0.layer_calls.items()
                 if layer_trace.ENTRY_LAYERS[e] == layer and n}
        print(f"{layer:<12} {self_us:>12.3f} {share:>8.2f}  "
              + ", ".join(f"{e}={n}" for e, n in sorted(calls.items())))
        metrics[f"{layer}.self_us_per_rpc"] = (self_us, "us")
        metrics[f"{layer}.share_pct"] = (share, "%")

    def ratio(num, den):
        return num / den if den else 0.0

    counts = {
        "sim.events_per_rpc": (work["events"] / ok, "1/rpc"),
        "sim.schedule_calls_per_rpc": (traced0.schedule_calls / ok,
                                       "1/rpc"),
        "sim.cpu.jobs_per_rpc": (work["cpu_jobs"] / ok, "1/rpc"),
        "sim.cpu.preemptions_per_rpc": (work["cpu_preemptions"] / ok,
                                        "1/rpc"),
        "kern.charges_per_rpc": (traced0.layer_calls["Host.charge"] / ok,
                                 "1/rpc"),
        "kern.ipq_enqueued_per_rpc": (work["ipq_enqueued"] / ok, "1/rpc"),
        "tcp.segs_per_rpc": (work["segs"] / ok, "1/rpc"),
        "tcp.fast_path_ratio": (ratio(work["fast_path_hits"], work["segs"]),
                                "ratio"),
        "tcp.retransmits_per_rpc": (work["retransmits"] / ok, "1/rpc"),
        "tcp.pcb.entries_scanned_per_lookup": (
            ratio(work["pcb_scanned"], work["pcb_lookups"]), "1/lookup"),
        "tcp.pcb.cache_hit_ratio": (
            ratio(work["pcb_cache_hits"], work["pcb_lookups"]), "ratio"),
        "atm.cells_per_rpc": (work["cells"] / ok, "1/rpc"),
        "checksum.bytes_per_rpc": (traced0.layer_bytes["checksum"] / ok,
                                   "B/rpc"),
        "mem.mbuf_allocs_per_rpc": (work["mbuf_allocs"] / ok, "1/rpc"),
        "mem.reuse_ratio": (ratio(work["mbuf_reused"], work["mbuf_allocs"]),
                            "ratio"),
        "mem.mbuf_high_water": (float(plain0.mbuf_high_water), "mbufs"),
        "chaos.drops_per_rpc": (work["chaos_drops"] / ok, "1/rpc"),
    }
    for name in rounds.SPANS:
        counts[f"span.{name}"] = (work["span." + name] / ok, "sim_us")
    counts["trace_overhead_ratio"] = (
        statistics.median([t.timed_wall_s / p.timed_wall_s for p, t in pairs]),
        "ratio")
    metrics.update(counts)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    rounds = _load_stack()
    if rounds is None:
        return 2
    spec = rounds.WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(rounds.WORKLOADS)})", file=sys.stderr)
        return 2

    if args.setup_probe:
        rounds.Round(spec, args.seed).setup()
        print(time.monotonic())
        return 0

    import layer_trace
    import reference
    from repro.perf.native import describe

    path = describe()
    print(f"workload={spec.name} seed={args.seed} "
          f"(default {DEFAULT_SEED}, held out {HELDOUT_SEED}) "
          f"trace={args.trace} seconds={args.seconds} "
          f"native={path['native']} python={path['python']} "
          f"implementation={path['implementation']} "
          f"cell_cache=off sweep_pool=none")

    if args.trace:
        pairs = _traced(rounds, layer_trace, spec, args.seed, args.seconds)
        results = [r for pair in pairs for r in pair]
    else:
        setups = _setup_s(spec.name, args.seed)
        results = _untraced(rounds, spec, args.seed, args.seconds,
                            reference.kernel)

    digests = [rounds.digest(r) for r in results]
    deterministic = all(d == digests[0] for d in digests)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print("digest: " + _digest_line(digests[0]))
    if not deterministic:
        print("DIGEST MISMATCH between rounds"
              + (" (traced vs untraced)" if args.trace else ""))
    for r in results:
        for violation in r.violations:
            print(f"audit violation: {violation}")
    print(f"rpc_failed_ratio = {failed / attempted!r} "
          f"({failed} of {attempted} RPCs; "
          f"{sum(r.conn_failed for r in results)} connections failed)")

    if args.trace:
        metrics = _per_layer(rounds, layer_trace, pairs)
    else:
        metrics = _end_to_end(results, setups, digests[0])
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    print(json.dumps({
        "correct": deterministic and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
