"""Seeded input generator for the benchmark workloads.

Each workload is a list of jobs over files that this module writes into one
directory; the program under test only ever sees those files. The same
workload, seed and size always give byte-identical files.

    python3 perfbench/inputs.py --workload chain_1025 --seed 1 --out DIR

writes the inputs into DIR and prints one line per job; `--jobs FILE`
also pickles the list of jobs into FILE.
"""

from __future__ import annotations

import argparse
import json
import pickle
import random
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus"

# The corpus schedule `1..n/2` deadlocks for n >= 9; the power-of-two list
# passes the analyzer and bridges the chain (checked on every pass).
CORPUS_SCHEDULE = "for d in 1..(#repeaters.len()/2)"

# Corpus programs run end to end on the front-end workload, each with its
# chain length: all three bridge the chain with one promoted pair.
FUZZ_TAIL = (
    ("entanglement_swapping.rula", "config5.json", 5),
    ("purification.rula", "config3.json", 3),
    ("chain7.rula", "config7.json", 7),
)

# How many times one pass runs each step (compile, validate, run) of a
# pipeline. Short steps are repeated so that their medians rest on more
# samples: on the chain, validate (0.7 s) next to the 2.6 s compile; on the
# front end, the corpus validates and runs (a few ms each); on
# enumerate_small, compile and validate (5-30 ms) next to the 1.5 s
# enumerations.
CHAIN_REPEATS = (1, 2, 1)
FUZZ_REPEATS = (1, 4, 4)
ENUMERATE_REPEATS = (8, 8, 1)

SIZES = {
    "full": {
        "chain_levels": 10,
        "fuzz_programs": 200,
        "enumerate": (
            ("chain7.rula", "config7.json", 7, 1024),
            ("purification.rula", "config5.json", 5, 1024),
        ),
    },
    "tiny": {
        "chain_levels": 3,
        "fuzz_programs": 4,
        "enumerate": (("entanglement_swapping.rula", "config5.json", 5, 64),),
    },
}


@dataclass(frozen=True)
class FrontEnd:
    """Parse, resolve imports and analyze one source; nothing is lowered."""

    source: Path
    include: Path


@dataclass(frozen=True)
class Pipeline:
    """`rula compile`, `rula validate` and `rula run` on one program.

    `branches` is 0 for a sampled run and the expected branch count for
    `--enumerate-outcomes`. Each pass runs compile, validate and run
    `repeats` times (in that order) and keeps the median of each.
    """

    program: Path
    config: Path
    nodes: int
    branches: int = 0
    repeats: tuple = (1, 1, 1)


def doubling_program(levels: int) -> str:
    """The corpus swapping program under the schedule d = 1, 2, 4, ..., 2^(levels-1)."""
    source = (CORPUS / "entanglement_swapping.rula").read_text()
    if CORPUS_SCHEDULE not in source:
        raise ValueError("entanglement_swapping.rula no longer has the 1..n/2 schedule")
    distances = ", ".join(str(2**k) for k in range(levels))
    return source.replace(CORPUS_SCHEDULE, f"for d in [{distances}]")


def chain_config(nodes: int) -> str:
    repeaters = [{"name": f"#{i + 1}", "address": i} for i in range(nodes)]
    return json.dumps({"repeaters": repeaters}, indent=4) + "\n"


def _copy_corpus(out_dir: Path, names) -> Path:
    corpus = out_dir / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    for name in names:
        shutil.copyfile(CORPUS / name, corpus / name)
    return corpus


def chain_jobs(out_dir: Path, seed: int, size: str) -> list:
    levels = SIZES[size]["chain_levels"]
    nodes = 2**levels + 1
    program = out_dir / "doubling.rula"
    config = out_dir / f"chain{nodes}.json"
    program.write_text(doubling_program(levels))
    config.write_text(chain_config(nodes))
    return [Pipeline(program, config, nodes, repeats=CHAIN_REPEATS)]


def fuzz_jobs(out_dir: Path, seed: int, size: str) -> list:
    # ProgramGen is the grammar-derived generator of acceptance criterion 08.
    from test_acceptance import ProgramGen

    corpus = _copy_corpus(
        out_dir, sorted(p.name for p in CORPUS.iterdir() if p.suffix in (".rula", ".json"))
    )
    fuzz = out_dir / "fuzz"
    fuzz.mkdir(parents=True, exist_ok=True)
    gen = ProgramGen(random.Random(seed))
    jobs: list = []
    for i in range(SIZES[size]["fuzz_programs"]):
        path = fuzz / f"p{i:04d}.rula"
        path.write_text(gen.program())
        jobs.append(FrontEnd(path, corpus))
    jobs.extend(FrontEnd(p, corpus) for p in sorted(corpus.glob("*.rula")))
    jobs.extend(Pipeline(corpus / prog, corpus / cfg, n, repeats=FUZZ_REPEATS)
                for prog, cfg, n in FUZZ_TAIL)
    return jobs


def enumerate_jobs(out_dir: Path, seed: int, size: str) -> list:
    cases = SIZES[size]["enumerate"]
    names = {"entanglement_swapping.rula"}  # imported by purification.rula
    for prog, cfg, _nodes, _branches in cases:
        names.update((prog, cfg))
    corpus = _copy_corpus(out_dir, sorted(names))
    return [
        Pipeline(corpus / prog, corpus / cfg, nodes, branches, ENUMERATE_REPEATS)
        for prog, cfg, nodes, branches in cases
    ]


WORKLOADS = {
    "chain_1025": chain_jobs,
    "frontend_fuzz": fuzz_jobs,
    "enumerate_small": enumerate_jobs,
}


def generate(workload: str, seed: int, out_dir: Path, size: str = "full") -> list:
    """Write the inputs of one workload into `out_dir` and return its jobs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](out_dir, seed, size)


def main(argv: list[str] | None = None) -> int:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    args.add_argument("--seed", type=int, required=True)
    args.add_argument("--out", required=True, type=Path)
    args.add_argument("--size", default="full", choices=sorted(SIZES))
    args.add_argument("--jobs", type=Path, help="pickle the list of jobs into this file")
    ns = args.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    jobs = generate(ns.workload, ns.seed, ns.out, ns.size)
    for job in jobs:
        print(job)
    if ns.jobs:
        ns.jobs.write_bytes(pickle.dumps(jobs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
