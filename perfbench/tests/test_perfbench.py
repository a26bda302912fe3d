"""Tests of the benchmark itself, on small versions of its workloads.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layer_trace  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Tiny versions of the three workloads, from the same cell functions.
SMALL = {
    "table1": rounds.Spec("table1", lambda: rounds.table1_cells(
        iterations=4, sizes=(4, 8000))),
    "conn_scale_1000": rounds.Spec(
        "conn_scale_1000", lambda: rounds.conn_scale_cells(connections=30)),
    "lossy_echo_8000": rounds.Spec("lossy_echo_8000",
                                   lambda: rounds.lossy_cells(rpcs=30)),
}


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(rounds, "WORKLOADS", SMALL)


@pytest.mark.parametrize("workload", sorted(rounds.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(small, capsys, workload,
                                                 trace, kind):
    assert run.main(["--workload", workload, "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    for name, unit in printed.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in out)


def test_workload_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(rounds.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_reply_corrupted_by_the_benchmark_counts_as_failed(workload):
    spec = SMALL[workload]
    clean = rounds.Round(spec, 7).run()
    corrupted = rounds.Round(spec, 7, corrupt_rpc=1).run()
    assert clean.failed == 0 and not clean.violations
    assert corrupted.failed >= 1
    assert corrupted.ok < clean.ok
    assert rounds.digest(corrupted) != rounds.digest(clean)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_and_untraced_digests_agree(workload):
    spec = SMALL[workload]
    plain = rounds.Round(spec, 11).run()
    with layer_trace.LayerTracer() as tracer:
        traced = rounds.Round(spec, 11, tracer=tracer).run()
    assert rounds.digest(traced) == rounds.digest(plain)
    assert set(traced.layer_ns) == set(layer_trace.LAYERS)
    assert traced.layer_ns["sim.engine"] > 0
    assert traced.layer_calls["Host.charge"] > 0


def test_tracer_uninstall_restores_every_entry_point():
    import repro.checksum.internet as internet
    import repro.net.packet as packet
    from repro.kern.host import Host
    from repro.mem.mbuf import MbufPool

    before = (internet.raw_sum, packet.raw_sum, Host.charge, MbufPool.free)
    with layer_trace.LayerTracer():
        assert packet.raw_sum is not before[1]
        assert Host.charge is not before[2]
    assert (internet.raw_sum, packet.raw_sum, Host.charge,
            MbufPool.free) == before


def test_different_seeds_change_the_inputs():
    spec = SMALL["lossy_echo_8000"]
    a = rounds.digest(rounds.Round(spec, 1).run())
    b = rounds.digest(rounds.Round(spec, 2).run())
    assert a["chaos_drops"] != b["chaos_drops"] or a["events"] != b["events"]


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_environment_that_changes_the_program(var):
    env = dict(os.environ, **{var: "1"})
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "table1",
         "--seconds", "0"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table1",
         "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
