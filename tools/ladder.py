"""The doubling chain ladder: `rula compile`, `rula validate` and `rula run`
on chains of 2^L + 1 nodes, each step in a fresh `python -m rula` process,
and a `startup` step, `python -m rula --help`, which imports rula and does
no work: the part of every other step that is not the step's own.

    python3 tools/ladder.py [--tree LABEL=SRC ...] [--repeats N] [--out FILE]

Each `--tree` names a source tree (the directory holding the `rula`
package) to put on `PYTHONPATH`; the default is this checkout's `src`.
The startup step, then every level in `LEVELS`, runs each tree in turn
per repeat, the order alternating between repeats, and records per step
the wall time, the CPU time (user + system) and the peak resident set
size, all read from the child's own resource usage (`os.wait4`, what `getrusage(RUSAGE_CHILDREN)`
reports once that child alone has been waited for). On Linux a child's
`ru_maxrss` starts at its parent's peak, so this script imports nothing of
rula and stays small.

The program is the corpus swap schedule with `for d in [1, 2, 4, ...]` in
place of `1..n/2`, on a chain whose addresses are the indices. A step that
exits non-zero, or a run whose report is not quiescent with the one pair
(0, n - 1), stops the ladder. The JSON written to `--out` (or stdout)
holds every run and, per tree, level and step (and per tree for startup),
the median of the repeats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SCHEDULE = "for d in 1..(#repeaters.len()/2)"
LEVELS = (10, 11, 12)  # 1 025, 2 049 and 4 097 nodes
STEPS = ("compile", "validate", "run")
METRICS = ("wall_s", "cpu_s", "maxrss_mb")


def write_inputs(levels: int, work: Path) -> tuple[Path, Path, int]:
    """The doubling program and the chain config for 2^levels + 1 nodes."""
    source = (ROOT / "tests" / "corpus" / "entanglement_swapping.rula").read_text()
    if CORPUS_SCHEDULE not in source:
        raise SystemExit("the corpus swap schedule changed; update tools/ladder.py")
    distances = ", ".join(str(2**k) for k in range(levels))
    nodes = 2**levels + 1
    program, chain = work / "doubling.rula", work / f"chain{nodes}.json"
    program.write_text(source.replace(CORPUS_SCHEDULE, f"for d in [{distances}]"))
    repeaters = [{"name": f"#{i}", "address": i} for i in range(nodes)]
    chain.write_text(json.dumps({"repeaters": repeaters}))
    return program, chain, nodes


def measure(argv: list[str], src: str, stdout) -> dict:
    """Run `python -m rula ARGV` with `src` on the path; its times and peak."""
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "rula", *argv], env=env, stdout=stdout, stderr=subprocess.PIPE
    )
    stderr = proc.stderr.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"rula {argv[0]} exited {proc.returncode}:\n{stderr.decode()[-2000:]}")
    return {
        "wall_s": round(wall, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
    }


def rung(src: str, program: Path, chain: Path, nodes: int, work: Path) -> dict:
    """Compile, validate and run one chain with one tree."""
    out = work / "out"
    report = work / "report.json"
    times = {}
    times["compile"] = measure(
        ["compile", str(program), "--config", str(chain), "--out-dir", str(out)],
        src, subprocess.DEVNULL,
    )
    files = sorted(str(p) for p in out.glob("*.json"))
    if len(files) != nodes:
        raise SystemExit(f"rula compile wrote {len(files)} files for {nodes} nodes")
    times["validate"] = measure(["validate", *files], src, subprocess.DEVNULL)
    with open(report, "wb") as stdout:
        times["run"] = measure(
            ["run", "--config", str(chain), "--rulesets", str(out), "--seed", "0", "--report-json"],
            src, stdout,
        )
    doc = json.loads(report.read_text())
    ends = [pair["nodes"] for pair in doc["pairs"]]
    if doc["status"] != "quiescent" or ends != [[0, nodes - 1]]:
        raise SystemExit(f"rula run on {nodes} nodes ended {doc['status']} with pairs {ends}")
    return times


def median(runs: list[dict], **cell) -> dict:
    """Each metric's median over the runs that match `cell`."""
    mine = [r for r in runs if all(r.get(key) == value for key, value in cell.items())]
    return {metric: round(statistics.median(r[metric] for r in mine), 3) for metric in METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    trees = [tuple(tree.split("=", 1)) for tree in args.tree] or [("src", str(ROOT / "src"))]
    runs = []
    for repeat in range(args.repeats):
        for label, src in trees if repeat % 2 == 0 else trees[::-1]:
            times = measure(["--help"], src, subprocess.DEVNULL)
            runs.append({"tree": label, "step": "startup", **times})
            print(f"{label} startup: {times['wall_s']:.3f}/{times['cpu_s']:.3f} s "
                  f"{times['maxrss_mb']:.0f} MB", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="ladder-") as tmp:
        for levels in LEVELS:
            rung_dir = Path(tmp) / f"L{levels}"
            rung_dir.mkdir()
            program, chain, nodes = write_inputs(levels, rung_dir)
            for repeat in range(args.repeats):
                order = trees if repeat % 2 == 0 else trees[::-1]
                for label, src in order:
                    work = rung_dir / f"{label}-{repeat}"
                    times = rung(src, program, chain, nodes, work)
                    for step in STEPS:
                        runs.append({"tree": label, "nodes": nodes, "step": step, **times[step]})
                    cells = ", ".join(
                        f"{step} {times[step]['wall_s']:.2f}/{times[step]['cpu_s']:.2f} s "
                        f"{times[step]['maxrss_mb']:.0f} MB"
                        for step in STEPS
                    )
                    print(f"{label} {nodes} nodes: {cells}", file=sys.stderr)
    medians: dict = {}
    for label, _src in trees:
        medians[label] = {"startup": median(runs, tree=label, step="startup")}
        for levels in LEVELS:
            nodes = 2**levels + 1
            medians[label][str(nodes)] = {
                step: median(runs, tree=label, nodes=nodes, step=step) for step in STEPS
            }
    doc = {
        "trees": [label for label, _src in trees],
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "median": medians,
        "runs": runs,
    }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
