"""CLI smoke tests and odds-and-ends coverage."""

import argparse

import pytest

import repro.__main__ as cli
from repro.__main__ import COMMANDS, SECTIONS, main
from repro.hw.costs import LinearCost, decstation_5000_200
from repro.kern.config import ChecksumMode, KernelConfig, PcbLookup
from repro.perf.runner import SweepOptions


def _subcommands():
    """The command words the parser offers (section mode excluded)."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return [name for name in action.choices if name != cli.SECTION_MODE]


#: Command lines that must be usage errors (exit 2), never a crash or
#: a silent pass.
BAD_ARGV = [
    ["chaos", "--network", "foo"],
    ["fuzz", "--network", "foo"],
    ["racecheck", "--tiebreaks", "bogus"],
    ["racecheck", "--tiebreaks", ","],
    ["racecheck", "chaos", "--tiebreaks", ","],
    ["trace", "table2", "--size", "-5"],
    ["metrics", "--iterations", "0"],
    ["chaos", "--losses", "1.5"],
    ["fuzz", "--replay", "/nonexistent/corpus"],
    ["lint", "/nonexistent/src"],
    ["sanitize", "/nonexistent/src"],
    ["--parallel", "-3"],
    ["table1", "--parallel", "-3"],
    ["trace", "--bogus-flag"],
]


class TestCLI:
    def test_unknown_section_rejected(self, capsys):
        assert main(["repro", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert "unknown section" in err
        assert "table1" in err

    def test_fast_sections_run(self, capsys):
        assert main(["repro", "pcb", "mbuf", "sun3"]) == 0
        out = capsys.readouterr().out
        assert "PCB linear search" in out
        assert "mbuf allocate+free" in out
        assert "Sun-3" in out or "scaling" in out

    def test_table5_section(self, capsys):
        assert main(["repro", "table5"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "Figure 2" in out

    def test_all_sections_registered(self):
        for name in ("table1", "table2", "table3", "table4", "table5",
                     "table6", "table7", "pcb", "mbuf", "sun3", "errors",
                     "summary"):
            assert name in SECTIONS

    def test_bench_subcommand_is_gone(self, capsys):
        assert main(["repro", "bench"]) == 2
        assert "unknown section" in capsys.readouterr().err

    def test_every_usage_word_dispatches(self, capsys, monkeypatch):
        words = _subcommands()
        assert set(words) == set(COMMANDS)
        assert main(["repro", "--help"]) == 0
        usage = capsys.readouterr().out
        monkeypatch.setattr(cli, "list_targets", lambda: 41)
        assert main(["repro", "--list"]) == 41
        for word in words:
            assert word in usage, f"command {word!r} is not advertised"
            seen = []
            monkeypatch.setitem(COMMANDS, word,
                                lambda args: seen.append(args.command) or 42)
            assert main(["repro", word]) == 42
            assert seen == [word]

    def test_help_exits_zero_everywhere(self, capsys):
        for command in [[]] + [[word] for word in _subcommands()]:
            assert main(["repro", *command, "--help"]) == 0, command
            assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
    def test_bad_arguments_exit_2(self, argv, capsys):
        assert main(["repro", *argv]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        assert "error:" in captured.err

    def test_global_flags_before_and_after_the_command(self, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_OPTIONS", SweepOptions())
        seen = []
        monkeypatch.setitem(COMMANDS, "lint",
                            lambda args: seen.append(args) or 0)
        assert main(["repro", "--parallel", "3", "lint", "--no-cache"]) == 0
        assert (seen[0].parallel, seen[0].use_cache) == (3, False)
        assert (cli.SWEEP_OPTIONS.parallel,
                cli.SWEEP_OPTIONS.use_cache) == (3, False)


class TestKernelConfig:
    def test_describe_baseline(self):
        assert KernelConfig().describe() == "cksum=standard"

    def test_describe_variants(self):
        config = KernelConfig(header_prediction=False,
                              checksum_mode=ChecksumMode.OFF,
                              pcb_lookup=PcbLookup.HASH)
        text = config.describe()
        assert "cksum=off" in text
        assert "no-predict" in text
        assert "pcb=hash" in text

    def test_with_overrides_immutable(self):
        base = KernelConfig()
        changed = base.with_overrides(mss_atm=2048)
        assert base.mss_atm == 4096
        assert changed.mss_atm == 2048

    def test_frozen(self):
        with pytest.raises(Exception):
            KernelConfig().mss_atm = 1  # type: ignore[misc]


class TestLinearCost:
    def test_ns_rounding(self):
        cost = LinearCost(1.5, 0.1)
        assert cost.ns(10) == 2500

    def test_bandwidth(self):
        cost = LinearCost(0.0, 0.1)  # 10 bytes per us
        assert cost.bandwidth_mb_s(1000) == pytest.approx(10.0)

    def test_bandwidth_zero_cost(self):
        assert LinearCost(0.0, 0.0).bandwidth_mb_s(100) == float("inf")

    def test_machine_override(self):
        dec = decstation_5000_200()
        tweaked = dec.with_overrides(ip_output_us=99.0)
        assert tweaked.ip_output_us == 99.0
        assert dec.ip_output_us != 99.0
        assert tweaked.name == dec.name


class TestMultipleAccepts:
    def test_listener_accepts_sequential_clients(self):
        from repro.core.experiment import SERVER_PORT, payload_pattern
        from repro.core.testbed import build_atm_pair
        tb = build_atm_pair()
        listener = tb.server.socket()
        listener.listen(SERVER_PORT)

        def server(listener):
            served = 0
            for _ in range(3):
                child = yield from listener.accept()
                data = yield from child.recv(64, exact=True)
                yield from child.send(data)
                served += 1
            return served

        def client(index):
            sock = tb.client.socket()
            yield from sock.connect(tb.server.address.ip, SERVER_PORT)
            payload = payload_pattern(64, seed=index)
            yield from sock.send(payload)
            echoed = yield from sock.recv(64, exact=True)
            assert echoed == payload
            return sock

        server_done = tb.server.spawn(server(listener))
        for i in range(3):
            done = tb.client.spawn(client(i))
            tb.sim.run_until_triggered(done)
        tb.sim.run_until_triggered(server_done)
        assert server_done.value == 3
        # Three distinct child connections were demultiplexed.
        ports = {c.pcb.remote_port for c in tb.server.tcp.connections
                 if not c.pcb.is_listener}
        assert len(ports) == 3
