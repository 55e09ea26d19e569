"""Command line: compile programs to per-node ruleset files, validate
ruleset JSON, and run compiled rulesets in the simulator.

Exit codes: 0 success, 1 diagnostics or a failed run, 2 usage errors.
Human-readable text goes to stderr; stdout carries only machine-readable
output (the written file list, JSON reports).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from pathlib import Path

from . import analyzer, codegen, config, explore, ir, parser, runtime

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _err(message: str) -> None:
    """Print `message` to stderr.  A stderr that cannot be written loses it
    and every later line, and nothing else: stdout and the exit status stay
    as they would be."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        _discard(sys.stderr)


def _discard(stream) -> None:
    """Point `stream`'s file descriptor at /dev/null, so that what it still
    holds, and what is written to it later, goes nowhere."""
    with contextlib.suppress(OSError):  # a stream with no descriptor
        fd = stream.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, fd)
        finally:
            os.close(null)


class _Unwritable(Exception):
    """Writing stdout raised the OSError that is this one's cause."""


def _out(text: str, flush: bool = False) -> None:
    """Write `text` to stdout (and flush it); `main` reports an OSError."""
    try:
        sys.stdout.write(text)
        if flush:
            sys.stdout.flush()
    except OSError as exc:
        raise _Unwritable from exc


def _print_diagnostics(source: str, filename: str, diagnostics) -> None:
    for diag in diagnostics:
        if diag.span is not None and diag.span.start <= len(source):
            line, column = parser.line_col(source, diag.span.start)
            where = f"{filename}:{line}:{column}"
        else:
            where = filename
        _err(f"{where}: {diag.severity}[{diag.code}]: {diag.message}")


def _u64(text: str) -> int:
    value = int(text, 0)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("ruleset id must fit in 64 bits")
    return value


def _fidelity(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:  # also false for nan
        raise argparse.ArgumentTypeError("fidelity must be a number in [0, 1]")
    return value


def _rounds(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("round budget must not be negative")
    return value


def _include_roots(path: Path, extra: list[str]) -> list[Path]:
    env = os.environ.get("RULA_INCLUDE_PATH", "").split(":")
    return [path.parent, *map(Path, extra), *(Path(d) for d in env if d)]


def _read_config(name: str) -> tuple[bytes, config.Topology] | None:
    """The bytes of the config file `name` and its topology, or None once
    the reason it has none is printed (a usage error)."""
    path = Path(name)
    if not path.is_file():
        _err(f"error: no such config: {path}")
        return None
    try:
        raw = path.read_bytes()
    except OSError as exc:
        _err(f"error: cannot read config {path}: {exc}")
        return None
    try:
        return raw, config.load_config(raw.decode("utf-8"))
    except (config.ConfigError, UnicodeDecodeError) as exc:
        _err(f"error: invalid config: {exc}")
        return None


# --- compile -----------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    path = Path(args.program)
    if path.suffix != ".rula":
        _err(f"error: expected .rula input, got '{path.name}'")
        return EXIT_USAGE
    if not path.is_file():
        _err(f"error: no such program: {path}")
        return EXIT_USAGE
    read = _read_config(args.config)
    if read is None:
        return EXIT_USAGE
    config_bytes, topology = read

    try:
        source = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        _err(f"{path}: error[parse]: source is not UTF-8: {exc}")
        return EXIT_FAILURE
    except OSError as exc:
        _err(f"error: cannot read program {path}: {exc}")
        return EXIT_USAGE
    try:
        program, warnings = parser.parse_with_warnings(source, filename=str(path))
    except parser.ParseError as exc:
        _err(f"{exc.filename}:{exc.line}:{exc.column}: error[parse]: {exc}")
        return EXIT_FAILURE

    program, diagnostics = analyzer.resolve_imports(program, _include_roots(path, args.include))
    analysis = analyzer.analyze_program(program)
    style = [analyzer.Diagnostic(analyzer.SEVERITY_WARNING, "style", w.span, w.message)
             for w in warnings]
    diagnostics = style + diagnostics + analysis.diagnostics
    _print_diagnostics(source, str(path), diagnostics)
    if any(d.is_error for d in diagnostics):
        return EXIT_FAILURE

    ruleset_id = args.ruleset_id
    if ruleset_id is None:
        ruleset_id = codegen.default_ruleset_id(path.name, config_bytes)
    out = codegen.compile_program(analysis, topology, ruleset_id)
    _print_diagnostics(source, str(path), out.diagnostics)
    if not out.ok:
        return EXIT_FAILURE
    for recv in out.unbound_recvs:
        _err(f"warning[unbound-recv]: {recv}")

    try:
        written = codegen.write_output(out, Path(args.out_dir))
    except OSError as exc:  # write_output has left the directory as it was
        _err(f"error: cannot write to {args.out_dir}: {exc}")
        return EXIT_FAILURE
    for file_path, ruleset in zip(written, out.per_node.values()):
        rules = sum(len(stage.rules) for stage in ruleset.stages)
        _err(f"{file_path.name}: ruleset id {out.ruleset_id}, "
             f"{len(ruleset.stages)} stage(s), {rules} rule(s)")
        _out(f"{file_path}\n")
    return EXIT_OK


# --- validate ----------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    status = EXIT_OK
    interned: dict = {}  # the document shapes of this command's files
    for name in args.rulesets:
        path = Path(name)
        if not path.is_file():
            _err(f"error: no such file: {path}")
            status = EXIT_FAILURE
            continue
        try:
            ruleset = ir.deserialize(path.read_text(encoding="utf-8"), interned)
        except (ir.SchemaError, UnicodeDecodeError) as exc:
            _err(f"{path}: error[schema]: {exc}")
            status = EXIT_FAILURE
            continue
        except OSError as exc:
            _err(f"error: cannot read {path}: {exc}")
            status = EXIT_FAILURE
            continue
        findings = ir.validate(ruleset)
        for finding in findings:
            _err(f"{path}: error at {finding.path}: {finding.message}")
        if findings:
            status = EXIT_FAILURE
        else:
            _err(f"{path}: ok")
    return status


# --- run ---------------------------------------------------------------------


def _load_rulesets(directory: Path, topology: config.Topology):
    rulesets: dict[int, ir.RuleSet] = {}
    interned: dict = {}  # the document shapes of this load
    for path in sorted(directory.glob("*.json")):
        try:
            ruleset = ir.deserialize(path.read_text(encoding="utf-8"), interned)
        except (ir.SchemaError, UnicodeDecodeError, OSError) as exc:
            raise RuntimeError(f"{path}: {exc}") from exc
        if ruleset.owner_addr in rulesets:
            raise RuntimeError(f"{path}: duplicate RuleSet for address {ruleset.owner_addr}")
        rulesets[ruleset.owner_addr] = ruleset
    addresses = {rep.address for rep in topology.repeaters}
    for address in sorted(addresses):
        if address not in rulesets:
            raise RuntimeError(f"missing RuleSet for address {address}")
    for address in sorted(rulesets):
        if address not in addresses:
            raise RuntimeError(f"RuleSet for address {address} not in the config")
    return rulesets


def _describe(report: runtime.RunReport, prefix: str = "") -> runtime.RunReport:
    """Print `report` to stderr, each line after `prefix`, and return it."""
    _err(f"{prefix}{report.status} after {report.rounds} round(s), "
         f"{len(report.fired)} rule(s) fired, "
         f"{report.messages_delivered} message(s) delivered")
    for pair in report.pairs:
        a, b = pair["nodes"]
        phase, parity = pair["bell_index"]
        _err(f"{prefix}pair ({a}, {b}): bell_index ({phase}, {parity}), "
             f"fidelity {pair['fidelity']}, {'/'.join(pair['states'])}")
    for line in report.stuck:
        _err(f"{prefix}stuck: {line}")
    return report


def cmd_run(args: argparse.Namespace) -> int:
    read = _read_config(args.config)
    if read is None:
        return EXIT_USAGE
    _, topology = read
    directory = Path(args.rulesets)
    if not directory.is_dir():
        _err(f"error: no such ruleset directory: {directory}")
        return EXIT_FAILURE
    try:
        rulesets = _load_rulesets(directory, topology)
    except RuntimeError as exc:
        _err(f"error: {exc}")
        return EXIT_FAILURE

    budget = {"initial_fidelity": args.fidelity, "max_rounds": args.max_steps}
    try:
        if args.enumerate_outcomes:
            branches, ok, reports = explore.outcomes(rulesets, topology, **budget)
        else:
            report = runtime.run(rulesets, topology, seed=args.seed, **budget)
            ok = report.quiescent
    except runtime.SimulationError as exc:
        _err(f"error: simulation: {exc}")
        return EXIT_FAILURE

    if args.enumerate_outcomes:
        # made as they are written, each branch's lines before its JSON
        described = (_describe(r, f"branch {''.join(map(str, r.outcome_path))}: ") for r in reports)
        document = {
            "all_quiescent": ok,
            "branches": branches,
            "mode": "enumerate",
            "reports": map(runtime.RunReport.to_json, described),
        }
    else:
        described = ()
        document = _describe(report).to_json()
    if args.report_json:  # written as it goes (see `ir.dump`)
        ir.dump(document, _out, indent=2)
        _out("\n")
    for _report in described:  # without --report-json, nothing else draws them
        pass
    if args.enumerate_outcomes:
        _err(f"{branches} branch(es), " + ("all quiescent" if ok else "some stuck"))
    return EXIT_OK if ok else EXIT_FAILURE


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="rula",
        description="Compile repeater rule programs and run them in a simulator.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="compile a program to RuleSet JSON")
    compile_p.add_argument("program", help="path to the .rula source")
    compile_p.add_argument("--config", required=True, help="network config JSON")
    compile_p.add_argument("--out-dir", default=".", help="output directory")
    compile_p.add_argument(
        "--ruleset-id",
        type=_u64,
        default=None,
        help="64-bit ruleset id (default: derived from program name and config)",
    )
    compile_p.add_argument(
        "--include",
        action="append",
        default=[],
        metavar="DIR",
        help="extra import search root (repeatable)",
    )
    compile_p.set_defaults(func=cmd_compile)

    validate_p = sub.add_parser("validate", help="check RuleSet JSON files")
    validate_p.add_argument("rulesets", nargs="+", help="RuleSet JSON paths")
    validate_p.set_defaults(func=cmd_validate)

    run_p = sub.add_parser("run", help="execute compiled rulesets")
    run_p.add_argument("--config", required=True, help="network config JSON")
    run_p.add_argument("--rulesets", required=True, help="directory of RuleSet JSON")
    run_p.add_argument("--seed", type=int, default=0, help="outcome RNG seed")
    run_p.add_argument(
        "--fidelity", type=_fidelity, default=1.0, help="initial link fidelity"
    )
    run_p.add_argument(
        "--max-steps", type=_rounds, default=10_000, help="round budget before giving up"
    )
    run_p.add_argument(
        "--enumerate-outcomes",
        action="store_true",
        help="run every measurement outcome branch instead of sampling",
    )
    run_p.add_argument(
        "--report-json", action="store_true", help="print the report as JSON to stdout"
    )
    run_p.set_defaults(func=cmd_run)
    return root


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The cyclic collector is paused while a command runs. What a command
    # builds (the parse tree, lowered and loaded rulesets, rule groups, every
    # network an enumeration forks) holds no reference cycle: a network's
    # pairs and ends are ints in flat lists. Reference counting frees all of
    # it, so a collection would find nothing, yet on its own the collector
    # starts a full one each time the heap grows by a quarter. `TestNoCycles`
    # in tests/test_cli.py checks that no command leaves cyclic garbage. A
    # caller that paused the collector finds it paused.
    paused = not gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        _out("", flush=True)  # a closed or full stdout raises here, not at exit
        return status
    except _Unwritable as exc:
        _err(f"error: cannot write to stdout: {exc.__cause__}")
        _discard(sys.stdout)  # what is left to flush
        return EXIT_FAILURE
    finally:
        if not paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
