"""Command-line reproduction runner: ``python -m repro [section ...]``.

Regenerates the paper's tables and figures and prints them next to the
published values; with no section named, every section runs.  The same
entry point carries the observability commands (``trace``, ``metrics``,
``explain``) and the checkers (``lint``, ``sanitize``, ``racecheck``,
``chaos``, ``fuzz``).  ``python -m repro --help`` lists them, and
``python -m repro <command> --help`` gives each one's options.  Usage
errors exit 2; a checker that finds violations exits 1.

Wall-time measurement lives outside the package, in ``perfbench/``
(see its README).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.analysis import (DEFAULT_PERTURBATIONS, Finding, Severity,
                            analyze_paths, check_state_machine,
                            format_transition_table, lint_paths,
                            ownership_rule_catalog, racecheck_round_trip,
                            rule_catalog)
from repro.chaos import (DEFAULT_LOSSES, DEFAULT_SIZES, ImpairmentConfig,
                         Impairments, campaign_findings, format_loss_sweep,
                         racecheck_chaos, replay_case, run_fuzz_campaign,
                         run_loss_sweep, save_case)
from repro.core import paperdata
from repro.core.breakdown import measure_breakdowns
from repro.core.errorstudy import run_error_study
from repro.core.experiment import PAPER_SIZES, run_round_trip
from repro.core.microbench import (
    copy_checksum_bench,
    mbuf_alloc_bench,
    pcb_search_bench,
)
from repro.core.report import ascii_chart, format_table, pct_change
from repro.kern.config import ChecksumMode, KernelConfig
from repro.perf.runner import SweepOptions
from repro.perf.runner import run_sweep as _perf_run_sweep
from repro.sim import SchedulingError
from repro.sim.engine import tiebreak_keyfn

ITER, WARM = 6, 2

#: Sweep execution knobs, set from the global ``--parallel`` /
#: ``--no-cache`` flags in :func:`main` before any section runs.
SWEEP_OPTIONS = SweepOptions()


def _sweep(network="atm", config=None):
    results = _perf_run_sweep(network=network, config=config,
                              iterations=ITER, warmup=WARM,
                              options=SWEEP_OPTIONS)
    return {s: r.mean_rtt_us for s, r in results.items()}


def table1() -> None:
    atm = _sweep()
    eth = _sweep("ethernet")
    rows = [(s, round(eth[s]), paperdata.TABLE1_ETHERNET_RTT[s],
             round(atm[s]), paperdata.TABLE1_ATM_RTT[s],
             round(pct_change(eth[s], atm[s])),
             paperdata.TABLE1_DECREASE_PCT[s]) for s in PAPER_SIZES]
    print(format_table(
        "Table 1: ATM vs Ethernet round-trip times (us)",
        ("size", "ether", "(paper)", "atm", "(paper)", "dec%", "(paper)"),
        rows))


def table2() -> None:
    tx, _ = measure_breakdowns(iterations=ITER, warmup=WARM,
                               options=SWEEP_OPTIONS)
    rows = []
    for t in tx:
        paper = dict(zip(paperdata.TABLE2_ROWS,
                         paperdata.TABLE2_TRANSMIT[t.size]))
        for name in ("user", "checksum", "mcopy", "segment", "ip", "atm",
                     "total"):
            rows.append((t.size, name, round(t.row(name), 1),
                         paper[name]))
    print(format_table("Table 2: transmit-side breakdown (us)",
                       ("size", "layer", "sim", "paper"), rows, width=10))


def table3() -> None:
    _, rx = measure_breakdowns(iterations=ITER, warmup=WARM,
                               options=SWEEP_OPTIONS)
    rows = []
    for r in rx:
        paper = dict(zip(paperdata.TABLE3_ROWS,
                         paperdata.TABLE3_RECEIVE[r.size]))
        for name in ("atm", "ipq", "ip", "checksum", "segment", "wakeup",
                     "user", "total"):
            rows.append((r.size, name, round(r.row(name), 1),
                         paper[name]))
    print(format_table("Table 3: receive-side breakdown (us)",
                       ("size", "layer", "sim", "paper"), rows, width=10))


def table4() -> None:
    on = _sweep()
    off = _sweep(config=KernelConfig(header_prediction=False))
    rows = [(s, round(off[s]), paperdata.TABLE4_NO_PREDICTION[s],
             round(on[s]), paperdata.TABLE4_PREDICTION[s],
             round(pct_change(off[s], on[s]), 1)) for s in PAPER_SIZES]
    print(format_table(
        "Table 4: header prediction on vs off (us)",
        ("size", "no-pred", "(paper)", "pred", "(paper)", "dec%"), rows))
    print()
    print(ascii_chart("Figure 1: Effects of Header Prediction",
                      PAPER_SIZES,
                      {"with prediction": [on[s] for s in PAPER_SIZES],
                       "without prediction": [off[s]
                                              for s in PAPER_SIZES]}))


def table5() -> None:
    points = copy_checksum_bench()
    rows = []
    for p in points:
        paper = paperdata.TABLE5_COPY_CHECKSUM[p.size]
        rows.append((p.size, round(p.ultrix_checksum), paper[0],
                     round(p.ultrix_bcopy), paper[1],
                     round(p.optimized_checksum), paper[3],
                     round(p.integrated), paper[4],
                     round(p.savings_when_integrated_pct), paper[5]))
    print(format_table(
        "Table 5: copy and checksum measurements (us)",
        ("size", "ultrix", "(p)", "bcopy", "(p)", "opt", "(p)", "integ",
         "(p)", "sav%", "(p)"), rows, width=8))
    print()
    print(ascii_chart(
        "Figure 2: Copy and Checksum Measurements (us)",
        [p.size for p in points],
        {"copy & ULTRIX cksum": [p.ultrix_total for p in points],
         "copy & optimized cksum": [p.ultrix_bcopy + p.optimized_checksum
                                    for p in points],
         "integrated copy & cksum": [p.integrated for p in points]}))


def table6() -> None:
    std = _sweep()
    integ = _sweep(config=KernelConfig(
        checksum_mode=ChecksumMode.INTEGRATED))
    rows = [(s, round(std[s]), round(integ[s]),
             paperdata.TABLE6_INTEGRATED[s],
             round(pct_change(std[s], integ[s]), 1),
             paperdata.TABLE6_SAVING_PCT[s]) for s in PAPER_SIZES]
    print(format_table(
        "Table 6: standard vs combined copy+checksum (us)",
        ("size", "standard", "combined", "(paper)", "sav%", "(paper)"),
        rows, width=10))


def table7() -> None:
    std = _sweep()
    off = _sweep(config=KernelConfig(checksum_mode=ChecksumMode.OFF))
    rows = [(s, round(std[s]), round(off[s]),
             paperdata.TABLE7_NO_CHECKSUM[s],
             round(pct_change(std[s], off[s]), 1),
             paperdata.TABLE7_SAVING_PCT[s]) for s in PAPER_SIZES]
    print(format_table(
        "Table 7: with and without the TCP checksum (us)",
        ("size", "cksum", "no-cksum", "(paper)", "sav%", "(paper)"),
        rows, width=10))


def pcb() -> None:
    points = pcb_search_bench()
    rows = [(p.entries, round(p.cost_us, 1)) for p in points]
    print(format_table(
        "PCB linear search (paper: 26us @ 20, 1280us @ 1000)",
        ("entries", "cost_us"), rows))


def mbuf() -> None:
    mean = mbuf_alloc_bench()
    print(f"mbuf allocate+free: {mean:.2f} us "
          f"(paper: just over 7 us)")


def sun3() -> None:
    from repro.checksum import (Bcopy, IntegratedCopyChecksum,
                                OptimizedChecksum)
    from repro.hw import decstation_5000_200, sun_3 as sun3_costs
    rows = []
    for machine, paper in ((sun3_costs(), paperdata.SUN3_1KB),
                           (decstation_5000_200(), paperdata.DEC_1KB)):
        rows.append((machine.name[:12],
                     round(OptimizedChecksum(machine).cost_us(1024)),
                     paper[0],
                     round(Bcopy(machine).cost_us(1024)), paper[1],
                     round(IntegratedCopyChecksum(machine).cost_us(1024)),
                     paper[2]))
    print(format_table("§4.1: 1 KB copy/checksum scaling",
                       ("machine", "cksum", "(p)", "copy", "(p)",
                        "comb", "(p)"), rows, width=9))


def throughput() -> None:
    from repro.core.throughput import run_bulk_throughput
    rows = []
    for mode in ChecksumMode:
        r = run_bulk_throughput(total_bytes=300_000, checksum_mode=mode)
        rows.append((mode.value, round(r.goodput_mb_s, 2),
                     round(r.receiver_cpu_busy_frac * 100),
                     r.retransmits))
    print(format_table("Bulk TCP goodput over ATM (300 KB one-way)",
                       ("mode", "MB/s", "rx_cpu%", "rtx"), rows,
                       width=11))


def profile() -> None:
    from repro.core.experiment import RoundTripBenchmark
    from repro.core.profile import format_profile
    from repro.core.testbed import build_atm_pair
    for size in (80, 8000):
        tb = build_atm_pair()
        RoundTripBenchmark(tb, size=size, iterations=6, warmup=2).run()
        print(format_profile(tb.server,
                             f"receiver CPU profile, {size}-byte RPCs"))
        print()


def calibration() -> None:
    from repro.core.calibration import calibration_report
    print(calibration_report())


def summary() -> None:
    from repro.core.validation import validate_reproduction
    print(validate_reproduction().format())


def errors() -> None:
    rows = []
    for name, kwargs in (("noisy fiber", dict(p_link=0.15)),
                         ("flaky controller", dict(p_controller=0.15)),
                         ("gateway traffic", dict(p_gateway=0.15)),
                         ("clean local", dict())):
        r = run_error_study(size=1400, iterations=30, seed=99, **kwargs)
        rows.append((name, r.total_injected, r.caught_by_link_check,
                     r.caught_by_tcp_checksum, r.caught_by_application))
    print(format_table("§4.2: error detection by layer (30 RPCs)",
                       ("scenario", "injected", "link", "tcp", "app"),
                       rows, width=13))


SECTIONS = {
    "table1": table1, "table2": table2, "table3": table3,
    "table4": table4, "table5": table5, "table6": table6,
    "table7": table7, "pcb": pcb, "mbuf": mbuf, "sun3": sun3,
    "errors": errors, "summary": summary, "throughput": throughput,
    "profile": profile, "calibration": calibration,
}

#: Observable experiments for ``trace``/``metrics``: target name ->
#: (network, KernelConfig overrides).  Tables that are pure
#: microbenchmarks (table5, pcb, mbuf, sun3) have no packet timeline
#: and are deliberately absent.
TRACE_TARGETS = {
    "table1": ("atm", {}),
    "table2": ("atm", {}),
    "table3": ("atm", {}),
    "table4": ("atm", {"header_prediction": False}),
    "table6": ("atm", {"checksum_mode": ChecksumMode.INTEGRATED}),
    "table7": ("atm", {"checksum_mode": ChecksumMode.OFF}),
    "ethernet": ("ethernet", {}),
}


#: ``explain`` and ``racecheck`` also take a fixed-seed lossy link.
EXPLAIN_TARGETS = list(TRACE_TARGETS) + ["impaired"]
RACECHECK_TARGETS = list(TRACE_TARGETS) + ["chaos"]
NETWORKS = ("atm", "ethernet")
FINDING_FORMATS = ("text", "json", "github")


def _observed_run(target, size, iterations, lineage=False, flow=False):
    """Run one observed round-trip experiment; returns the observer."""
    from repro.obs import Observer

    network, overrides = TRACE_TARGETS[target]
    config = KernelConfig(**overrides) if overrides else None
    observer = Observer(lineage=lineage, flow=flow)
    result = run_round_trip(size=size, network=network, config=config,
                            iterations=iterations, warmup=1,
                            observer=observer)
    return observer, result


def cmd_trace(args) -> int:
    """Export one observed run as a Chrome trace (plus optional JSONL)."""
    from repro.obs import write_chrome_trace, write_jsonl

    want_flow = bool(args.flow)
    observer, result = _observed_run(args.target, args.size,
                                     args.iterations,
                                     lineage=want_flow, flow=want_flow)
    out = args.out or f"{args.target}.trace.json"
    n_events = write_chrome_trace(observer, out)
    print(f"trace {args.target}: size={result.size} "
          f"mean_rtt={result.mean_rtt_us:.1f}us; "
          f"{n_events} events -> {out} "
          f"(open in chrome://tracing or ui.perfetto.dev)")
    if args.jsonl:
        n_lines = write_jsonl(observer, args.jsonl)
        print(f"{n_lines} JSONL records -> {args.jsonl}")
    if args.flow:
        n_samples = observer.flow.write_jsonl(args.flow,
                                              measured_only=False)
        print(f"{n_samples} flow samples -> {args.flow}")
    return 0


def cmd_metrics(args) -> int:
    """Print one observed run's metrics and spans (text or CSV)."""
    from repro.obs import metrics_csv, metrics_text

    observer, result = _observed_run(args.target, args.size,
                                     args.iterations)
    if args.format == "csv":
        print(metrics_csv(observer))
        return 0
    print(f"# {args.target}: size={result.size} "
          f"mean_rtt={result.mean_rtt_us:.1f}us "
          f"iterations={result.iterations}")
    print(metrics_text(observer))
    return 0


def _traced_target(name, size, iterations):
    """Build the traced run behind an ``explain`` target name."""
    from repro.obs.explain import run_traced

    if name == "impaired":
        impairments = Impairments(ImpairmentConfig(seed=1994,
                                                   p_drop=0.15))
        return run_traced(size=size, network="atm",
                          iterations=iterations,
                          impairments=impairments, label=name)
    network, overrides = TRACE_TARGETS[name]
    config = KernelConfig(**overrides) if overrides else None
    return run_traced(size=size, network=network, config=config,
                      iterations=iterations, label=name)


def cmd_explain(args) -> int:
    """Render one round trip as a per-layer waterfall, or diff the
    attribution profiles of two targets (``--diff A B``)."""
    from repro.obs.explain import explain_rtt, format_diff, write_rtt_trace

    if args.diff:
        run_a, run_b = (_traced_target(name, args.size, args.iterations)
                        for name in args.diff)
        print(format_diff(run_a, run_b))
        return 0
    run = _traced_target(args.target, args.size, args.iterations)
    try:
        explanation = explain_rtt(run, index=args.rtt)
    except ValueError as error:
        print(f"explain: {error}")
        return 2
    print(explanation.format())
    if args.out:
        n_events = write_rtt_trace(explanation, args.out)
        print(f"\n{n_events} trace events -> {args.out} "
              f"(open in ui.perfetto.dev)")
    return 0


def list_targets() -> int:
    """``python -m repro --list`` — machine-readable enumeration."""
    print("sections:", " ".join(SECTIONS))
    print("trace-targets:", " ".join(TRACE_TARGETS))
    return 0


def _render_findings(tool, findings, fmt, paths) -> int:
    """Print *findings* in *fmt*; exit status 1 on any error finding.

    ``json`` is the machine-readable interchange shared by lint and
    sanitize; ``github`` emits workflow annotation commands so CI runs
    mark up the diff."""
    import json

    if fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
    elif fmt == "github":
        for f in findings:
            kind = "error" if f.severity == Severity.ERROR else "warning"
            print(f"::{kind} file={f.path},line={f.line},"
                  f"col={f.col},title={f.rule}::{f.message}")
    else:
        for finding in findings:
            print(finding.format())
        errors = sum(1 for f in findings
                     if f.severity == Severity.ERROR)
        print(f"{tool}: {len(findings)} finding(s), {errors} error(s) "
              f"in {' '.join(paths)}")
    return 1 if any(f.severity == Severity.ERROR for f in findings) else 0


def cmd_lint(args) -> int:
    """Run the AST determinism/layering linter over *paths*."""
    if args.rules:
        print(rule_catalog())
        return 0
    return _render_findings("lint", lint_paths(args.paths), args.format,
                            args.paths)


def cmd_sanitize(args) -> int:
    """Static half of the sanitizer (the runtime half is
    ``REPRO_SANITIZE=1``): mbuf ownership dataflow over *paths* plus the
    TCP state-machine diff against the declared RFC 793 spec."""
    if args.rules:
        print(ownership_rule_catalog())
        return 0
    if args.table:
        print(format_transition_table())
        return 0
    findings = list(analyze_paths(args.paths))
    if args.statemachine:
        findings.extend(check_state_machine())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return _render_findings("sanitize", findings, args.format,
                            args.paths)


def cmd_racecheck(args) -> int:
    """Re-run a target under perturbed same-timestamp event orderings
    and diff everything observable against the FIFO baseline."""
    if args.target == "chaos":
        # The impaired workload: same determinism bar, faults injected.
        report = racecheck_chaos(size=args.size,
                                 iterations=args.iterations,
                                 perturbations=args.tiebreaks)
    else:
        network, overrides = TRACE_TARGETS[args.target]
        config = KernelConfig(**overrides) if overrides else None
        report = racecheck_round_trip(
            args.target, network=network, config=config, size=args.size,
            iterations=args.iterations, perturbations=args.tiebreaks)
    print(report.format())
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    """Seeded loss sweep; exits 1 if any cell breaks an invariant."""
    losses, sizes, iterations = args.losses, args.sizes, args.iterations
    if args.quick:
        # Smoke configuration for CI: one clean and one lossy column.
        losses, sizes, iterations = [0.0, 0.02], [1400], 12
    results = run_loss_sweep(losses=losses, sizes=sizes, seed=args.seed,
                             network=args.network, iterations=iterations,
                             warmup=2)
    print(format_loss_sweep(results))
    bad = sum(1 for r in results if not r.ok)
    print(f"chaos: {len(results)} cell(s), {bad} with violations")
    return 1 if bad else 0


def cmd_fuzz(args) -> int:
    """Run a fixed-seed mutation campaign and report its minimized
    failures as findings, or (``--replay``) re-run committed corpus
    cases and fail if any no longer recovers or drops as recorded."""
    import glob

    fmt = args.format
    if args.replay is not None:
        cases = (sorted(glob.glob(os.path.join(args.replay, "*.json")))
                 if os.path.isdir(args.replay) else [args.replay])
        findings = []
        for path in cases:
            cell = replay_case(path)
            for violation in cell.violations:
                rule = violation.split(":", 1)[0]
                findings.append(Finding(
                    path=path, line=1, col=1, rule=f"fuzz-replay-{rule}",
                    severity=Severity.ERROR, message=violation))
            if fmt == "text":
                status = "ok" if cell.ok else "FAIL"
                print(f"fuzz replay {os.path.basename(path)}: {status} "
                      f"({cell.completed}/{cell.iterations} iterations)")
        return _render_findings("fuzz", findings, fmt, cases)

    log = print if fmt == "text" else (lambda _msg: None)
    campaign = run_fuzz_campaign(seeds=args.seeds, packets=args.packets,
                                 network=args.network, base_seed=args.seed,
                                 budget_secs=args.budget, log=log)
    if fmt == "text":
        print(f"fuzz: {campaign.cells} cell(s), "
              f"{campaign.mutated_packets} mutated packets "
              f"({campaign.packets_seen} seen), "
              f"{len(campaign.failures)} unique failure(s)")
    if args.save is not None and campaign.failures:
        for failure in campaign.failures:
            path = save_case(failure, args.save)
            if fmt == "text":
                print(f"fuzz: saved reproducer {path}")
    return _render_findings(
        "fuzz", campaign_findings(campaign, corpus_dir=args.save),
        fmt, [f"campaign seed={args.seed} seeds={args.seeds}"])


#: Subcommand word -> handler taking the parsed arguments.
COMMANDS = {
    "trace": cmd_trace, "metrics": cmd_metrics, "explain": cmd_explain,
    "lint": cmd_lint, "sanitize": cmd_sanitize, "racecheck": cmd_racecheck,
    "chaos": cmd_chaos, "fuzz": cmd_fuzz,
}

_DEFAULT_HELP = "default: %(default)s"

#: The unadvertised subparser for section mode; :func:`main` routes
#: every command line that names no command through it.
SECTION_MODE = "sections"


# Argument types: each turns a bad value into a one-line usage error.
def _one_of(kind, names):
    def name(word):
        if word not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {kind} {word!r} (available: {' '.join(names)})")
        return word
    return name


def _at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return integer


def _probability(text):
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def _csv_of(item):
    """A comma-separated list of *item* values (empty items dropped)."""
    def csv(text):
        return [item(word) for word in text.split(",") if word]
    return csv


def _tiebreaks(text):
    """Tie-break policies, each checked by the engine's own resolver."""
    policies = [word.strip() for word in text.split(",") if word.strip()]
    if not policies:
        raise argparse.ArgumentTypeError("no tie-break policy given")
    for policy in policies:
        try:
            tiebreak_keyfn(policy)
        except SchedulingError as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return policies


def _existing_path(text):
    if not os.path.exists(text):
        raise argparse.ArgumentTypeError(f"no such path: {text!r}")
    return text


def _run_options(kind, names, target, size):
    """Parent parser for the commands that run one round-trip test."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("target", nargs="?", default=target,
                     type=_one_of(f"{kind} target", names),
                     help=f"one of: {' '.join(names)} (default: {target})")
    run.add_argument("--size", type=_at_least(1), default=size, metavar="N",
                     help=_DEFAULT_HELP)
    run.add_argument("--iterations", type=_at_least(1), default=4,
                     metavar="N", help=_DEFAULT_HELP)
    return run


def build_parser() -> argparse.ArgumentParser:
    """The whole ``python -m repro`` command line."""
    # Global flags go before or after the command word; SUPPRESS keeps a
    # subparser from resetting one given before it (main holds defaults).
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--list", action="store_true",
                       default=argparse.SUPPRESS,
                       help="print every section and trace target")
    flags.add_argument("--parallel", type=_at_least(0), metavar="N",
                       default=argparse.SUPPRESS,
                       help="fan sweep cells out over N worker processes "
                            "(0: run in process)")
    flags.add_argument("--no-cache", dest="use_cache", action="store_false",
                       default=argparse.SUPPRESS,
                       help="bypass the on-disk sweep result cache")
    formats = argparse.ArgumentParser(add_help=False)
    formats.add_argument("--format", choices=FINDING_FORMATS, default="text",
                         help="github emits CI workflow annotations")
    findings = argparse.ArgumentParser(add_help=False, parents=[formats])
    package = os.path.dirname(os.path.abspath(__file__))
    findings.add_argument("paths", nargs="*", type=_existing_path,
                          default=[package],
                          help="default: the installed repro package")

    parser = argparse.ArgumentParser(
        prog="python -m repro", parents=[flags],
        usage="%(prog)s [--list] [--parallel N] [--no-cache] [section ...]"
              "\n       %(prog)s <command> [options]",
        description="Regenerate the paper's tables and figures next to "
                    "the published values (every section when none is "
                    f"named; sections: {' '.join(SECTIONS)}), or run "
                    "one of the commands below.",
        epilog="Run '%(prog)s <command> --help' for a command's options.")
    commands = parser.add_subparsers(dest="command", metavar="<command>",
                                     title="commands", prog=parser.prog)
    sections = commands.add_parser(SECTION_MODE, parents=[flags],
                                   prog=parser.prog)
    sections.add_argument("sections", nargs="*", metavar="section",
                          type=_one_of("section", list(SECTIONS)),
                          default=list(SECTIONS),
                          help=f"any of: {' '.join(SECTIONS)} (default: all)")

    def command(name, summary, *parents):
        return commands.add_parser(name, help=summary, description=summary,
                                   parents=[flags, *parents])

    trace = command("trace", "export one observed run as a Chrome trace "
                    "(open it in ui.perfetto.dev)", _run_options(
                        "trace", list(TRACE_TARGETS), "table2", 8000))
    trace.add_argument("--out", metavar="FILE",
                       help="default: <target>.trace.json")
    trace.add_argument("--jsonl", metavar="FILE",
                       help="also write the JSONL event stream")
    trace.add_argument("--flow", metavar="FILE",
                       help="also write per-connection flow telemetry "
                            "(turns on causal lineage)")

    metrics = command("metrics", "print one observed run's metrics and "
                      "spans", _run_options("metrics", list(TRACE_TARGETS),
                                            "table1", 1400))
    metrics.add_argument("--format", choices=("text", "csv"),
                         default="text")

    explain = command("explain", "render one round trip as a per-layer "
                      "waterfall that sums to the measured RTT",
                      _run_options("explain", EXPLAIN_TARGETS, "table1",
                                   1400))
    explain.add_argument("--rtt", type=int, default=0, metavar="K",
                         help="which measured round trip (default: 0)")
    explain.add_argument("--out", metavar="FILE",
                         help="also write that RTT as a Chrome trace")
    explain.add_argument("--diff", nargs=2, metavar=("A", "B"),
                         type=_one_of("explain target", EXPLAIN_TARGETS),
                         help="name the layer that separates two targets")

    lint = command("lint", "AST determinism and layering linter", findings)
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalog")

    sanitize = command("sanitize", "static mbuf-ownership dataflow and TCP "
                       "state-machine checks", findings)
    sanitize.add_argument("--rules", action="store_true",
                          help="print the ownership rule catalog")
    sanitize.add_argument("--table", action="store_true",
                          help="print the extracted TCP transition table")
    sanitize.add_argument("--no-statemachine", dest="statemachine",
                          action="store_false",
                          help="skip the state-machine diff")

    racecheck = command("racecheck", "re-run a target under perturbed "
                        "same-timestamp event orders", _run_options(
                            "racecheck", RACECHECK_TARGETS, "table1", 1400))
    racecheck.add_argument(
        "--tiebreaks", type=_tiebreaks, metavar="CSV",
        default=list(DEFAULT_PERTURBATIONS),
        help="fifo, lifo or shuffle:<seed> (default: %s)"
             % ",".join(DEFAULT_PERTURBATIONS))

    chaos = command("chaos", "seeded loss sweep with recovery invariants")
    chaos.add_argument("--quick", action="store_true",
                       help="CI smoke: losses 0,0.02, size 1400, "
                            "12 iterations")
    chaos.add_argument("--seed", type=int, default=1994, help=_DEFAULT_HELP)
    chaos.add_argument("--network", choices=NETWORKS, default="atm")
    chaos.add_argument("--losses", type=_csv_of(_probability), metavar="CSV",
                       default=list(DEFAULT_LOSSES), help=_DEFAULT_HELP)
    chaos.add_argument("--sizes", type=_csv_of(_at_least(1)), metavar="CSV",
                       default=list(DEFAULT_SIZES), help=_DEFAULT_HELP)
    chaos.add_argument("--iterations", type=_at_least(1), default=24,
                       metavar="N", help=_DEFAULT_HELP)

    fuzz = command("fuzz", "deterministic protocol fuzzing, or --replay of "
                   "committed reproducers", formats)
    fuzz.add_argument("--seeds", type=int, default=8, help=_DEFAULT_HELP)
    fuzz.add_argument("--packets", type=int, default=2000, help=_DEFAULT_HELP)
    fuzz.add_argument("--budget", type=float, metavar="SECS")
    fuzz.add_argument("--replay", type=_existing_path, metavar="PATH",
                      help="a corpus case, or a directory of them")
    fuzz.add_argument("--save", metavar="DIR",
                      help="write minimized reproducers here")
    fuzz.add_argument("--network", choices=NETWORKS, default="atm")
    fuzz.add_argument("--seed", type=int, default=1994, help=_DEFAULT_HELP)
    return parser


def main(argv) -> int:
    words = list(argv[1:])
    if not COMMANDS.keys() & set(words) and words[:1] not in (["-h"],
                                                            ["--help"]):
        words.insert(0, SECTION_MODE)
    try:
        args = build_parser().parse_args(words, argparse.Namespace(
            list=False, parallel=0, use_cache=True))
    except SystemExit as exit_:  # usage error (2) or --help (0)
        return exit_.code
    SWEEP_OPTIONS.parallel = args.parallel
    SWEEP_OPTIONS.use_cache = args.use_cache
    if args.list:
        return list_targets()
    if args.command in COMMANDS:
        return COMMANDS[args.command](args)
    for i, name in enumerate(args.sections):
        if i:
            print()
        # Elapsed wall time for the regeneration banner only: monotonic
        # so an NTP step cannot make it negative, and never fed into
        # the simulation.
        start = time.monotonic()  # repro: allow(wall-clock)
        SECTIONS[name]()
        elapsed = time.monotonic() - start  # repro: allow(wall-clock)
        print(f"[{name} regenerated in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
