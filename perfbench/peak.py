"""Peak resident memory of the program alone on one workload's jobs.

    python3 perfbench/peak.py WORKLOAD SEED SIZE WORK_DIR

run.py starts this script first, while run.py itself is still small: on
Linux a process's ru_maxrss starts at the peak of the process that started
it (exec records the old address space's peak), so a child started later
would report run.py's own memory. This script writes the workload's inputs
from a subprocess of its own (the generator imports the fuzz generator's
test module, which is not the program's memory), then makes the same calls
into rula as one pass, with the CLI's output discarded and compiled
RuleSets under WORK_DIR, and prints its peak resident set size in MB. It
checks nothing: run.py checks every pass.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from rula import analyzer, cli, parser  # noqa: E402

import inputs  # noqa: E402,F401  (the pickled jobs are inputs.* classes)


def run_job(job, work: Path, run_seed: str) -> None:
    if isinstance(job, inputs.FrontEnd):
        try:
            program = parser.parse(job.source.read_text(), filename=str(job.source))
        except parser.ParseError:
            return
        program, _ = analyzer.resolve_imports(program, [job.include])
        analyzer.analyze_program(program)
        return
    out_dir = work / job.program.stem
    argv_run = ["run", "--config", job.config, "--rulesets", out_dir, "--report-json"]
    argv_run += ["--enumerate-outcomes"] if job.branches else ["--seed", run_seed]
    if cli.main([str(a) for a in
                 ["compile", job.program, "--config", job.config, "--out-dir", out_dir]]):
        return
    cli.main(["validate", *map(str, sorted(out_dir.glob("*.json")))])
    cli.main([str(a) for a in argv_run])


def main(argv: list[str]) -> int:
    workload, seed, size, work = argv[0], argv[1], argv[2], Path(argv[3])
    job_file = work / "jobs.pickle"
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
                    "sys.exit(inputs.main(sys.argv[2:]))",
                    str(HERE), "--workload", workload, "--seed", seed, "--size", size,
                    "--out", str(work / "inputs"), "--jobs", str(job_file)],
                   stdout=subprocess.DEVNULL, check=True, timeout=60)
    jobs = pickle.loads(job_file.read_bytes())
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \
            contextlib.redirect_stderr(null):
        for job in jobs:
            run_job(job, work / "rulesets", seed)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
