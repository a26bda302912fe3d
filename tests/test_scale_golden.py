"""Scale-path ordering golden: ``conn_scale_100`` must replay exactly.

The round-trip goldens in ``tests/perf_golden/`` are single-connection
echoes with almost no CPU preemption.  This fixture pins the workload
where the CPU model does the most interleaving: 100 connections from
one host (``run_connection_scale`` with the scaled kernel), about 40
preemptions per RPC.  It records, per host, the CPU accounting and
every span aggregate (float totals included, so a change in the order
spans close shows up), plus the engine's event count and the sorted
simulated RPC latencies.  A change that claims to touch only host
speed must leave all of it byte-identical.

Regenerate (only for a change that is meant to move the model)::

    PYTHONPATH=src python tests/test_scale_golden.py --write
"""

import json
import os
import sys

from repro.core.workloads import connection_scale_config, run_connection_scale
from repro.kern.config import PcbLookup

GOLDEN = os.path.join(os.path.dirname(__file__), "perf_golden_scale",
                      "conn_scale_100.json")
CONNECTIONS = 100


def capture() -> dict:
    """Run ``conn_scale_100`` and return its observable surface."""
    # Every flag that could come from the environment is pinned, so the
    # fixture describes one program whatever REPRO_* is set.
    config = connection_scale_config(scaled=True).with_overrides(
        pcb_lookup=PcbLookup.HASH, timer_wheel=True, softnet_batch=True,
        sanitize=False)
    result = run_connection_scale(CONNECTIONS, config=config)
    assert result.completed == CONNECTIONS
    hosts = {}
    for host in result.testbed.hosts:
        cpu = host.cpu
        hosts[host.name] = {
            "cpu.jobs_completed": cpu.jobs_completed,
            "cpu.preemptions": cpu.preemptions,
            "cpu.busy_ns": cpu.busy_ns,
            "cpu.busy_by_label": dict(sorted(cpu.busy_by_label.items())),
            "spans": {name: host.tracer.stats(name).as_dict()
                      for name in host.tracer.names()},
        }
    doc = {
        "case": f"conn_scale_{CONNECTIONS}",
        "events_executed": result.events_executed,
        "rpc_latencies_ns": sorted(result.rpc_latencies_ns),
        "hosts": hosts,
    }
    # Normalize through JSON so the comparison sees what the file holds.
    return json.loads(json.dumps(doc))


def test_conn_scale_100_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    doc = capture()
    assert doc["events_executed"] == golden["events_executed"]
    assert doc["rpc_latencies_ns"] == golden["rpc_latencies_ns"]
    for name, expected in golden["hosts"].items():
        got = doc["hosts"][name]
        for key in ("cpu.jobs_completed", "cpu.preemptions", "cpu.busy_ns",
                    "cpu.busy_by_label"):
            assert got[key] == expected[key], (name, key)
        assert got["spans"] == expected["spans"], name
    assert doc == golden


def test_golden_exercises_preemption():
    """Guard against the fixture degenerating into an unpreempted run."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden["rpc_latencies_ns"]) == 2 * CONNECTIONS
    preemptions = sum(h["cpu.preemptions"] for h in golden["hosts"].values())
    assert preemptions >= 10 * len(golden["rpc_latencies_ns"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(capture(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN}")
