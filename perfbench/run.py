"""End-to-end and per-layer benchmark of the rula compiler and simulator.

    python3 perfbench/run.py --workload chain_1025 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; rula is imported from `src/`. The
workloads, their metrics and the map from layer metrics to end-to-end
metrics are described in perfbench/README.md.

A workload is a list of jobs (see inputs.py). One pass runs every job once:
a `FrontEnd` job parses, resolves imports and analyzes one source; a
`Pipeline` job calls `rula compile`, `rula validate` and `rula run` in this
process through `cli.main`. The number of passes depends only on the
workload and `--seconds` (see PASS_SECONDS), never on how fast the code
runs. Each step is timed in this thread's CPU seconds and scaled to a
nominal host speed by probes run just before and after it (see speed.py).
Every step's output is checked against a reference that does not come
from the compiler, and each check that fails or step that raises counts
as failed.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` untraced and traced passes alternate,
and it holds the per-layer metrics taken from spans around each layer's
public functions (see spans.py). The spans and a per-layer self-time table
are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import HostSpeed  # noqa: E402

OUT = HERE / "out"
GUARD = HERE / "guard.json"
GUARD_SEED = 0  # `rula run --seed` of the guarded `--report-json` output
SETUP_REPEATS = 5
# Nominal seconds per pass of each workload on the seed commit. A run makes
# int(--seconds / PASS_SECONDS) passes (at least one), so two commits
# compared with the same --seconds take their medians over the same number
# of samples, whatever their speed.
PASS_SECONDS = {"chain_1025": 5.0, "frontend_fuzz": 3.2, "enumerate_small": 5.0}
# Times the import of rula in a fresh interpreter; the argument is src/.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.process_time(); "
    "from rula import analyzer, cli, codegen, config, ir, parser, runtime; "
    "print(time.process_time() - start)"
)
STEPS = ("compile", "validate", "run")


def load_rula():
    """Import rula from this checkout's src/ (never an installed copy)."""
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    import rula
    from rula import analyzer, cli, codegen, config, ir, parser, runtime  # noqa: F401

    if Path(rula.__file__).resolve().parent != SRC / "rula":
        raise SystemExit(f"error: imported rula from {rula.__file__}, not {SRC}")
    return rula


@dataclass(eq=False)
class Pass:
    seconds: float = 0.0  # wall time of the pass
    samples: dict = field(default_factory=dict)  # (job index, step) -> [(start, end) CPU times]
    times: dict = field(default_factory=dict)  # (job index, step) -> median scaled seconds
    raw: dict = field(default_factory=dict)  # (job index, step) -> median CPU seconds
    branches: int = 0
    output_bytes: int = 0
    rulesets: dict = field(default_factory=dict)  # program name -> sha256 of its output
    attempted: int = 0
    failures: list = field(default_factory=list)
    spans: tuple = (0, 0)


def bridged(report: dict, nodes: int) -> bool:
    """Quiescent with exactly one promoted pair, end to end, in Bell state (0, 0)."""
    promoted = [p for p in report["pairs"] if p["states"] == ["promoted", "promoted"]]
    return (
        report["status"] == "quiescent"
        and len(promoted) == 1
        and promoted[0]["nodes"] == [0, nodes - 1]
        and promoted[0]["bell_index"] == [0, 0]
    )


def full_tree(paths: list) -> bool:
    """Distinct outcome paths of one length k, 2^k of them: every branch once."""
    lengths = {len(p) for p in paths}
    return (
        len(lengths) == 1
        and len({tuple(p) for p in paths}) == len(paths) == 2 ** lengths.pop()
    )


class Runner:
    def __init__(self, rula, jobs, sources, work: Path, speed: HostSpeed,
                 tracer: Tracer | None = None):
        self.rula = rula
        self.speed = speed
        self.jobs = jobs
        self.sources = sources
        self.work = work
        self.tracer = tracer
        self.traced = False

    def _step(self, name: str):
        if self.traced:
            return self.tracer.span("step." + name)
        return contextlib.nullcontext()

    def _cli(self, step: str, argv: list):
        out, err = io.StringIO(), io.StringIO()
        with self._step(step), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.speed.measured() as interval:
                code = self.rula.cli.main([str(a) for a in argv])
        return code, out.getvalue(), err.getvalue(), tuple(interval)

    def _timed(self, p: Pass, i: int, step: str, argv: list):
        """One CLI step of job i; the pass keeps the median of the step's repeats."""
        code, out, err, interval = self._cli(step, argv)
        p.samples.setdefault((i, step), []).append(interval)
        return code, out, err

    def _check(self, p: Pass, ok: bool, what: str) -> bool:
        p.attempted += 1
        if not ok:
            p.failures.append(what)
        return ok

    def frontend(self, i: int, job: inputs.FrontEnd, p: Pass, run_seed: int) -> None:
        parser, analyzer = self.rula.parser, self.rula.analyzer
        with self._step("compile"):
            with self.speed.measured() as interval:
                try:
                    program = parser.parse(self.sources[job.source], filename=str(job.source))
                except parser.ParseError as exc:
                    error = exc
                else:
                    error = None
                    program, _ = analyzer.resolve_imports(program, [job.include])
                    analyzer.analyze_program(program)
        p.samples[i, "compile"] = [tuple(interval)]
        # Every source is grammar-derived (ProgramGen) or a corpus program, so
        # it must parse; the analyzer must return its diagnostics without
        # raising (an exception reaches run_pass and counts there).
        self._check(p, error is None, f"parse {job.source.name}: {error}")

    def pipeline(self, i: int, job: inputs.Pipeline, p: Pass, run_seed: int) -> None:
        name = job.program.name
        out_dir = self.work / "rulesets" / job.program.stem
        # A traced pass runs each step once, so that the layer counts are those
        # of one compile, validate and run.
        compiles, validates, runs = (1, 1, 1) if self.traced else job.repeats
        for _ in range(compiles):
            shutil.rmtree(out_dir, ignore_errors=True)
            code, _, _ = self._timed(
                p, i, "compile", ["compile", job.program, "--config", job.config, "--out-dir", out_dir]
            )
            files = sorted(out_dir.glob("*.json"))
            if not self._check(p, code == 0 and len(files) == job.nodes,
                               f"compile {name}: exit {code}, {len(files)} file(s)"):
                p.attempted += 2
                p.failures += [f"validate {name}: skipped", f"run {name}: skipped"]
                return
        digest = hashlib.sha256()
        for f in files:
            data = f.read_bytes()
            digest.update(f.name.encode() + b"\0" + data)
            p.output_bytes += len(data)
        p.rulesets[name] = digest.hexdigest()

        for _ in range(validates):
            code, _, err = self._timed(p, i, "validate", ["validate", *files])
            lines = err.splitlines()
            self._check(p, code == 0 and len(lines) == len(files)
                        and all(line.endswith(": ok") for line in lines),
                        f"validate {name}: exit {code}, findings {lines[:3]}")

        argv = ["run", "--config", job.config, "--rulesets", out_dir, "--report-json"]
        argv += ["--enumerate-outcomes"] if job.branches else ["--seed", run_seed]
        for _ in range(runs):
            code, out, _ = self._timed(p, i, "run", argv)
            doc = json.loads(out) if code in (0, 1) and out else {}
            reports = doc.get("reports", []) if job.branches else [doc] if doc else []
            ok = code == 0 and bool(reports) and all(bridged(r, job.nodes) for r in reports)
            if job.branches:
                paths = [r["outcome_path"] for r in reports]
                ok = ok and len(paths) == job.branches and full_tree(paths)
            self._check(p, ok, f"run {name}: exit {code}, {len(reports)} branch(es)")
        p.branches += len(reports)  # of one run, like the step's time

    def report_digest(self, job: inputs.Pipeline, seed: int) -> str:
        """sha256 of `rula run --report-json` on the job's last compiled output."""
        out_dir = self.work / "rulesets" / job.program.stem
        _, out, _, _ = self._cli("run", ["run", "--config", job.config, "--rulesets", out_dir,
                                         "--seed", seed, "--report-json"])
        return hashlib.sha256(out.encode()).hexdigest()

    def run_pass(self, run_seed: int, traced: bool = False) -> Pass:
        gc.collect()
        p = Pass()
        self.traced = traced
        first = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        ctx = self.tracer.installed(self.rula) if traced else contextlib.nullcontext()
        with ctx:
            for i, job in enumerate(self.jobs):
                run = self.frontend if isinstance(job, inputs.FrontEnd) else self.pipeline
                try:
                    run(i, job, p, run_seed)
                except Exception as exc:  # a layer raised: count it, keep measuring
                    p.attempted += 1
                    p.failures.append(f"{job}: {type(exc).__name__}: {exc}")
        p.seconds = time.perf_counter() - start
        p.spans = (first, len(self.tracer.spans) if self.tracer else 0)
        self.traced = False
        return p


def import_seconds(speed: HostSpeed) -> float:
    """Median scaled CPU time of SETUP_REPEATS imports of rula, each in a
    fresh interpreter, scaled by probes taken just before and after it."""
    times = []
    for _ in range(SETUP_REPEATS):
        with speed.measured() as interval:
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                                  capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout) / speed.factor(*interval))
    return statistics.median(times)


def setup(workload: str, seed: int, size: str, work: Path, speed: HostSpeed):
    """Generate the inputs SETUP_REPEATS times, keep the last set, and
    return it with the median scaled time of a generation."""
    times = []
    for i in range(SETUP_REPEATS):
        target = work / f"inputs{i}"
        with speed.measured() as interval:
            jobs = inputs.generate(workload, seed, target, size)
            sources = {j.source: j.source.read_text() for j in jobs if isinstance(j, inputs.FrontEnd)}
        times.append(speed.scaled(*interval))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    return jobs, sources, statistics.median(times)


def peak_rss_mb(workload: str, seed: int, size: str, work: Path) -> tuple[float, tuple]:
    """Peak resident memory of a process that makes only the program's
    calls of one pass (peak.py), and the check that it ended normally.
    Call it before this process grows: see peak.py."""
    proc = subprocess.run([sys.executable, str(HERE / "peak.py"), workload, str(seed), size,
                           str(work / "peak")],
                          capture_output=True, text=True, timeout=150)
    ok = proc.returncode == 0
    return (float(proc.stdout) if ok else 0.0,
            (ok, f"peak.py exited {proc.returncode}: {proc.stderr[-500:]}"))


def quantile(values: list, q: int) -> float:
    """The q-th percentile (1..99), interpolated within the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def typical_times(passes: list[Pass]) -> dict:
    """Each job step's median scaled time over the passes.

    Scaling (speed.py) removes most of what the host's speed does; what is
    left errs both ways, so the median, which does not depend on the
    number of passes, is steadier than the minimum (see README.md).
    """
    samples: dict = {}
    for p in passes:
        for key, t in p.times.items():
            samples.setdefault(key, []).append(t)
    return {key: statistics.median(ts) for key, ts in samples.items()}


def end_to_end(passes: list[Pass], setup_s: float, peak_mb: float) -> dict:
    typical = typical_times(passes)
    step = {name: sum(t for (_, s), t in typical.items() if s == name) for name in STEPS}
    programs = [t for (_, s), t in typical.items() if s == "compile"]
    return {
        "setup_s": (setup_s, "s"),
        "compile_s": (step["compile"], "s"),
        "validate_s": (step["validate"], "s"),
        "run_s": (step["run"], "s"),
        "programs_per_s": (len(programs) / step["compile"], "1/s"),
        "program_ms.p50": (quantile(programs, 50) * 1e3, "ms"),
        "program_ms.p95": (quantile(programs, 95) * 1e3, "ms"),
        "branches_per_s": (passes[0].branches / step["run"], "1/s"),
        "output_bytes": (passes[0].output_bytes, "bytes"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def layer_metrics(tracer: Tracer, p: Pass) -> dict:
    """Per-layer numbers of one traced pass, from its spans."""
    spans = tracer.spans[p.spans[0]:p.spans[1]]
    own = tracer.self_times(spans)
    self_s: dict[str, float] = {}
    attrs: dict[str, list] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
        attrs.setdefault(s.name, []).append(s.attrs)

    def total(name, key):
        return sum(a.get(key, 0) for a in attrs.get(name, []))

    runs = attrs.get("runtime.run", []) + attrs.get("runtime.enumerate_outcomes", [])
    branches = sum(a.get("branches", 0) for a in runs)
    fired = sum(a.get("fired", 0) for a in runs)
    runtime_s = self_s.get("runtime.run", 0.0) + self_s.get("runtime.enumerate_outcomes", 0.0)
    parse_s = self_s.get("parser.parse", 0.0)
    analyzed = len(attrs.get("analyzer.analyze_program", []))
    return {
        "parser.parse_s": (parse_s, "s"),
        "parser.kb_per_s": (total("parser.parse", "bytes") / 1e3 / parse_s if parse_s else 0.0, "KB/s"),
        "parser.parse_errors": (total("parser.parse", "parse_error"), "count"),
        "analyzer.resolve_imports_s": (self_s.get("analyzer.resolve_imports", 0.0), "s"),
        "analyzer.analyze_s": (self_s.get("analyzer.analyze_program", 0.0), "s"),
        "analyzer.rejected": (total("analyzer.analyze_program", "rejected") / analyzed if analyzed else 0.0, "ratio"),
        "config.load_s": (self_s.get("config.load_config", 0.0), "s"),
        "codegen.compile_program_s": (self_s.get("codegen.compile_program", 0.0), "s"),
        "codegen.write_output_s": (self_s.get("codegen.write_output", 0.0), "s"),
        "codegen.rules": (total("codegen.compile_program", "rules"), "count"),
        "codegen.stages": (total("codegen.compile_program", "stages"), "count"),
        "ir.serialize_s": (self_s.get("ir.serialize", 0.0), "s"),
        "ir.output_bytes": (total("ir.serialize", "bytes"), "bytes"),
        "ir.deserialize_s": (self_s.get("ir.deserialize", 0.0), "s"),
        "ir.validate_s": (self_s.get("ir.validate", 0.0), "s"),
        "ir.findings": (total("ir.validate", "findings"), "count"),
        "runtime.run_s": (runtime_s, "s"),
        "runtime.rounds": (max((a.get("max_rounds", 0) for a in runs), default=0), "count"),
        "runtime.branches": (branches, "count"),
        "runtime.branch_rounds": (sum(a.get("branch_rounds", 0) for a in runs), "count"),
        "runtime.fired": (fired, "count"),
        "runtime.messages": (sum(a.get("messages", 0) for a in runs), "count"),
        "runtime.us_per_firing": (runtime_s / fired * 1e6 if fired else 0.0, "us"),
        "runtime.quiescent": (sum(a.get("quiescent", 0) for a in runs) / branches if branches else 0.0, "ratio"),
        "cli.self_s": (self_s.get("cli.main", 0.0), "s"),
    }


COUNT_UNITS = ("count", "bytes", "ratio")


def timed(p: Pass) -> float:
    """Time inside the timed steps of a pass (no checks or clean-up)."""
    return sum(p.times.values())


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass]):
    """Layer metrics of the fastest traced pass, and the names of any
    simulated counts that differ between traced passes."""
    fastest = min(traced, key=timed)
    metrics = layer_metrics(tracer, fastest)
    others = [layer_metrics(tracer, p) for p in traced if p is not fastest]
    unstable = [name for name, (value, unit) in metrics.items()
                if unit in COUNT_UNITS and any(m[name][0] != value for m in others)]
    overhead = statistics.median(map(timed, traced)) - statistics.median(map(timed, untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, fastest, unstable


def print_table(tracer: Tracer, p: Pass, overhead: float) -> None:
    """Self time per layer under each step of one traced pass."""
    table = tracer.table(tracer.spans[p.spans[0]:p.spans[1]])
    layers = sorted({layer for row in table.values() for layer in row} - {"step"})
    print("self CPU time per layer (s), fastest traced pass; 'bench' is the benchmark's own"
          " share, 'scaled' the step's time at nominal host speed:")
    print(f"  {'step':<10}{'scaled':>9}{'cpu':>9}" + "".join(f"{l:>10}" for l in layers)
          + f"{'bench':>9}")
    for step in STEPS:
        row = table.get("step." + step, {})
        cells = "".join(f"{row.get(l, 0.0):>10.4f}" for l in layers)
        scaled = sum(t for (_, s), t in p.times.items() if s == step)
        print(f"  {step:<10}{scaled:>9.4f}{sum(row.values()):>9.4f}{cells}{row.get('step', 0.0):>9.4f}")
    print(f"tracing overhead: {overhead:+.4f} s per pass (timed steps, median traced minus median untraced pass)")


def check_guard(workload: str, runner: Runner, last: Pass) -> list:
    """Byte-identity of the compiled chain and of its `--report-json` output,
    as a list of (ok, message) checks."""
    if workload != "chain_1025":
        return []
    [job] = runner.jobs
    key = f"chain_{job.nodes}"
    expected = {
        "rulesets_sha256": last.rulesets.get(job.program.name),
        "report_sha256": runner.report_digest(job, GUARD_SEED),
        "report_seed": GUARD_SEED,
    }
    guard = json.loads(GUARD.read_text())
    return [(guard.get(key) == expected,
             f"byte-identity guard {key}: got {expected}, recorded {guard.get(key)}")]


def measure(runner: Runner, count: int, run_seed: int, trace: bool):
    """`count` passes; with `trace`, as many untraced as traced ones, alternating."""
    untraced, traced = [], []
    start = time.perf_counter()
    for k in range(2 * max(1, count // 2) if trace else count):
        use_trace = trace and k % 2 == 1
        (traced if use_trace else untraced).append(runner.run_pass(run_seed, use_trace))
    return untraced, traced, time.perf_counter() - start


def scale(speed: HostSpeed, passes: list[Pass]) -> None:
    """The median of each job step's repeats in each pass, scaled and raw."""
    for p in passes:
        for key, intervals in p.samples.items():
            p.times[key] = statistics.median(speed.scaled(*iv) for iv in intervals)
            p.raw[key] = statistics.median(end - start for start, end in intervals)


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    if not (SRC / "rula" / "__init__.py").is_file():
        raise SystemExit(f"error: no rula sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{seed}-{time.time_ns()}"
    try:
        checks = []
        if not trace:
            peak_mb, peak_check = peak_rss_mb(workload, seed, size, work)
            checks.append(peak_check)
        rula = load_rula()
        if workload == "frontend_fuzz":
            # ProgramGen's module imports pytest, which is not a cost of rula.
            import test_acceptance  # noqa: F401
        speed = HostSpeed()
        jobs, sources, generate_s = setup(workload, seed, size, work / "setup", speed)
        setup_s = import_seconds(speed) + generate_s
        tracer = Tracer() if trace else None
        runner = Runner(rula, jobs, sources, work, speed, tracer)
        count = max(1, int(seconds / PASS_SECONDS[workload]))
        untraced, traced, measured = measure(runner, count, seed, trace)
        scale(speed, untraced + traced)
        checks += check_guard(workload, runner, untraced[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    checks.append((all(p.rulesets == passes[0].rulesets for p in passes),
                   "compiled output differs between passes"))

    print(f"workload {workload} ({size}), seed {seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced pass(es) in {measured:.1f} s")
    kinds = ["untraced"] * len(untraced) + ["traced"] * len(traced)
    for k, (p, kind) in enumerate(zip(passes, kinds)):
        steps = ", ".join(f"{name} {sum(t for (_, s), t in p.times.items() if s == name):.4f}"
                          f" ({sum(t for (_, s), t in p.raw.items() if s == name):.4f})"
                          for name in STEPS)
        print(f"  pass {k} ({kind}): {p.seconds:.3f} s; {steps}")
    if trace:
        metrics, fastest, unstable = per_layer(tracer, traced, untraced)
        checks.append((not unstable, f"counts differ between traced passes: {unstable}"))
        print_table(tracer, fastest, metrics["trace.overhead_s"][0])
        spans_file = OUT / f"spans-{workload}-{size}-seed{seed}.json"
        spans_file.write_text(json.dumps({
            "workload": workload, "seed": seed, "size": size,
            "overhead_s": metrics["trace.overhead_s"][0],
            "self_time": [tracer.table(tracer.spans[p.spans[0]:p.spans[1]]) for p in traced],
            "spans": tracer.to_json(),
        }) + "\n")
        print(f"spans: {spans_file.relative_to(ROOT)}")
    else:
        metrics = end_to_end(untraced, setup_s, peak_mb)
    failures = [f for p in passes for f in p.failures] + [m for ok, m in checks if not ok]
    attempted = sum(p.attempted for p in passes) + len(checks)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28}{value:>16.6g} {unit}")
    print(f"  {'failed_ratio':<28}{len(failures) / attempted:>16.6g} ({len(failures)}/{attempted})")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=sorted(inputs.SIZES),
                    help="input size; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
