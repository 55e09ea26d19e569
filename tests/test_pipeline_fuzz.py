"""Whole-pipeline fuzz over token-level mutants of the corpus programs.

Each mutant replaces or drops one token of a corpus program, and a stacked
mutant then replaces a number or string literal as well; each is compiled
for a chain of 3, 5 or 7 nodes. Every mutant the analyzer accepts must then
go through the rest of the pipeline: lowering raises nothing and reports
only faults that need the concrete chain or compile-time values, every
RuleSet it emits validates clean and survives serialize -> deserialize, the
simulator returns a report that no group compared before its measurement
ended stuck, and a second compile gives the same bytes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from rula import analyzer, codegen, config, ir, parser, runtime

CORPUS = Path(__file__).parent / "corpus"
PROGRAMS = sorted(CORPUS.glob("*.rula"))
CHAIN_LENGTHS = (3, 5, 7)

# The only codes lowering may report on a program the analyzer accepted.
KEPT_CODES = frozenset(
    {
        "repeater-range",
        "hop-range",
        "const-expr",
        "loop-bound",
        "promote-owner",
        "send-self",
        "bsm-partner",
    }
)

_TOKEN = re.compile(
    r'//[^\n]*|"[^"\n]*"|\d+\.\d+|\d+|#?[A-Za-z_]\w*|:->|->|=>|==|!=|<=|>=|\.\.|::|\S'
)


def tokens(source: str) -> list[tuple[int, int, str]]:
    """(start, end, text) of every token outside comments."""
    return [
        (m.start(), m.end(), m.group())
        for m in _TOKEN.finditer(source)
        if not m.group().startswith("//")
    ]


def _kind(text: str) -> str:
    if text[0] == '"':
        return "string"
    if text[0].isdigit():
        return "number"
    if text[0].isalpha() or text[0] in "_#":
        return "name"
    return "punct"


@dataclass(frozen=True)
class Mutant:
    program: str
    source: str
    nodes: int
    edit: str


class MutantGen:
    """One-token mutants: a replacement drawn from the corpus vocabulary,
    mostly of the same kind, or a dropped token."""

    def __init__(self, rng: random.Random):
        self.r = rng
        self.sources = {path.name: path.read_text() for path in PROGRAMS}
        self.tokens = {name: tokens(text) for name, text in self.sources.items()}
        vocabulary = sorted({t for toks in self.tokens.values() for _s, _e, t in toks})
        self.by_kind: dict[str, list[str]] = {}
        for text in vocabulary:
            self.by_kind.setdefault(_kind(text), []).append(text)
        self.vocabulary = vocabulary

    def mutant(self) -> Mutant:
        r = self.r
        name = r.choice(sorted(self.sources))
        source = self.sources[name]
        start, end, text = r.choice(self.tokens[name])
        if r.random() < 0.2:
            new, edit = "", f"drop {text!r}"
        else:
            pool = self.by_kind[_kind(text)] if r.random() < 0.8 else self.vocabulary
            new = r.choice(pool)
            edit = f"{text!r} -> {new!r}"
        mutated = source[:start] + new + source[end:]
        return Mutant(name, mutated, r.choice(CHAIN_LENGTHS), f"{edit} at {start}")

    def stacked(self) -> Mutant:
        """A one-token mutant with a second edit: a number or string literal
        replaced by another of the same kind, so that most of them parse."""
        first = self.mutant()
        literals = [t for t in tokens(first.source) if _kind(t[2]) in ("number", "string")]
        start, end, text = self.r.choice(literals)
        new = self.r.choice(self.by_kind[_kind(text)])
        source = first.source[:start] + new + first.source[end:]
        edit = f"{first.edit}, then {text!r} -> {new!r} at {start}"
        return Mutant(first.program, source, first.nodes, edit)


def chain(n: int) -> config.Topology:
    return config.Topology(
        repeaters=tuple(config.Repeater(name=f"#{i}", address=i, index=i) for i in range(n))
    )


def accepted(mutant: Mutant) -> analyzer.Analysis | None:
    """The mutant's analysis, or None when the front end rejects the mutant."""
    try:
        program = parser.parse(mutant.source, filename=mutant.program)
    except parser.ParseError:
        return None
    program, diagnostics = analyzer.resolve_imports(program, [CORPUS])
    if any(d.is_error for d in diagnostics):
        return None
    analysis = analyzer.analyze_program(program)
    return None if analysis.errors else analysis


def check_pipeline(mutant: Mutant, analysis: analyzer.Analysis) -> bool:
    """Assert every invariant on one accepted mutant; True if it compiled."""
    topology = chain(mutant.nodes)
    out = codegen.compile_program(analysis, topology, 7)
    codes = {d.code for d in out.diagnostics if d.is_error}
    assert codes <= KEPT_CODES, (mutant, out.diagnostics)
    if not out.ok:
        return False
    texts = {}
    for addr, ruleset in out.per_node.items():
        assert ir.validate(ruleset) == [], (mutant, addr)
        texts[addr] = ir.serialize(ruleset)
        assert ir.deserialize(texts[addr]) == ruleset, (mutant, addr)
    report = runtime.run(out.per_node, topology, seed=0)
    assert isinstance(report, runtime.RunReport), mutant
    # lowering emits sibling rules that can be decided before they part ways
    assert not [s for s in report.stuck if "before the measurement that writes it" in s], mutant
    again = codegen.compile_program(analysis, topology, 7)
    assert {a: ir.serialize(rs) for a, rs in again.per_node.items()} == texts, mutant
    return True


# (generator method, pinned seed, mutants drawn, least analyzed, least compiled)
SLICES = [("mutant", 0x5EED, 1000, 40, 25), ("stacked", 0x57AC, 900, 25, 12)]


@pytest.mark.parametrize(
    "kind,seed,count,min_analyzed,min_compiled", SLICES, ids=["one-token", "stacked"]
)
def test_mutants_that_pass_analysis_go_through_the_whole_pipeline(
    kind, seed, count, min_analyzed, min_compiled
):
    make = getattr(MutantGen(random.Random(seed)), kind)
    analyzed = compiled = 0
    for _ in range(count):
        mutant = make()
        analysis = accepted(mutant)
        if analysis is None:
            continue
        analyzed += 1
        compiled += check_pipeline(mutant, analysis)
    # the slice must reach lowering and the simulator, not only the front end
    assert analyzed >= min_analyzed and compiled >= min_compiled, (analyzed, compiled)
