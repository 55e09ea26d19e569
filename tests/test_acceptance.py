"""Acceptance gate: one test per shipping criterion.

Each test exercises an externally visible guarantee end to end, against
the corpus programs and configs, at the stated tolerance. Run with -v to
get one pass/fail line per criterion.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

import pytest

from rula import analyzer, cli, codegen, config, ir, parser, runtime
from test_ir import _random_ruleset

CORPUS = Path(__file__).parent / "corpus"


def run_cli(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def compile_corpus(program_name: str, config_name: str, ruleset_id: int = 7):
    source = (CORPUS / program_name).read_text()
    program = parser.parse(source, filename=program_name)
    program, import_diags = analyzer.resolve_imports(program, [CORPUS])
    assert not [d for d in import_diags if d.is_error], import_diags
    analysis = analyzer.analyze_program(program)
    assert not analysis.errors, analysis.errors
    topology = config.load_config((CORPUS / config_name).read_text())
    out = codegen.compile_program(analysis, topology, ruleset_id)
    assert out.ok, out.diagnostics
    return out, topology


def chain(n: int) -> config.Topology:
    return config.Topology(
        repeaters=tuple(config.Repeater(name=f"#{i}", address=i, index=i) for i in range(n))
    )


def line_bounds(source: str, needle: str) -> tuple[int, int]:
    offset = source.index(needle)
    start = source.rfind("\n", 0, offset) + 1
    end = source.index("\n", offset)
    return start, end


# --- 1: five-node compile ----------------------------------------------------


def test_criterion_01_swapping_compiles_five_files_under_a_second(tmp_path, capsys):
    started = time.perf_counter()
    code, out, _err = run_cli(
        [
            "compile",
            CORPUS / "entanglement_swapping.rula",
            "--config",
            CORPUS / "config5.json",
            "--out-dir",
            tmp_path,
        ],
        capsys,
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 1.0, f"compile took {elapsed:.2f}s"

    written = sorted(tmp_path.glob("*.json"))
    assert len(written) == 5
    assert sorted(out.splitlines()) == [str(p) for p in written]
    ids = {json.loads(p.read_text())["id"] for p in written}
    assert len(ids) == 1


# --- 2: expansion arithmetic -------------------------------------------------


def test_criterion_02_match_product_and_outcome_dispatch_rule_counts():
    out, _topology = compile_corpus("two_matches.rula", "config3.json")
    stages = out.per_node[1].stages
    assert len(stages) == 1
    stage = stages[0]
    assert len(stage.rules) == 16
    assert len({rule.shared_tag for rule in stage.rules}) == 1

    out, _topology = compile_corpus("entanglement_swapping.rula", "config5.json")
    stage = out.per_node[1].stages[0]
    assert len(stage.rules) == 5
    literals = []
    for rule in stage.rules[:4]:
        cmps = [c for c in rule.condition.clauses if isinstance(c, ir.CmpClause)]
        assert len(cmps) == 1
        assert cmps[0].operator == "Eq"
        literals.append(cmps[0].target_val.value)
    assert literals == ["00", "01", "10", "11"]
    assert not [
        c for c in stage.rules[4].condition.clauses if isinstance(c, ir.CmpClause)
    ]


# --- 3: serialization round-trips --------------------------------------------


def test_criterion_03_reference_and_randomized_round_trips():
    reference = (CORPUS / "swapping_ruleset.json").read_text()
    ruleset = ir.deserialize(reference)
    assert json.loads(ir.serialize(ruleset)) == json.loads(reference)

    rng = random.Random(0xACCE97)
    for _ in range(200):
        ruleset = _random_ruleset(rng)
        first = ir.serialize(ruleset)
        second = ir.serialize(ir.deserialize(first))
        assert first == second


# --- 4: inclusive loop bounds ------------------------------------------------


def test_criterion_04_loop_one_to_five_runs_body_five_times():
    source = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule ping<#rep>(round: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset five_rounds{
    for i in 1..5 {
        ping<#repeaters(0)>(i)
    }
}
"""
    program = parser.parse(source)
    analysis = analyzer.analyze_program(program)
    assert not analysis.errors, analysis.errors
    out = codegen.compile_program(analysis, chain(2), 7)
    assert out.ok, out.diagnostics
    emitted = [
        rule for stage in out.per_node[0].stages for rule in stage.rules
        if rule.name == "ping"
    ]
    assert len(emitted) == 5


# --- 5: message wiring over the corpus ---------------------------------------


def test_criterion_05_every_send_has_a_bound_receiver():
    pairs = [
        ("entanglement_swapping.rula", "config5.json"),
        ("purification.rula", "config3.json"),
        ("two_matches.rula", "config3.json"),
        ("loop_probe.rula", "config2.json"),
        ("chain7.rula", "config7.json"),
    ]
    for program_name, config_name in pairs:
        out, _topology = compile_corpus(program_name, config_name)
        send_count = sum(
            isinstance(clause, ir.SendClause)
            for ruleset in out.per_node.values()
            for stage in ruleset.stages
            for rule in stage.rules
            for clause in rule.action.clauses
        )
        assert send_count == len(out.obligations), program_name
        assert out.unbound_recvs == [], program_name


# --- 6: exhaustive outcome enumeration ---------------------------------------


def test_criterion_06_all_branches_bridge_the_chain():
    cases = [
        ("entanglement_swapping.rula", "config3.json", 4),
        ("entanglement_swapping.rula", "config5.json", 64),
        ("chain7.rula", "config7.json", 1024),
    ]
    started = time.perf_counter()
    for program_name, config_name, branches in cases:
        out, topology = compile_corpus(program_name, config_name)
        rulesets = {rs.owner_addr: rs for rs in out.per_node.values()}
        reports = runtime.enumerate_outcomes(rulesets, topology)
        assert len(reports) == branches, program_name
        paths = [report.outcome_path for report in reports]
        assert paths == sorted(paths), program_name
        last = len(topology.repeaters) - 1
        for report in reports:
            assert report.quiescent, (program_name, report.outcome_path, report.stuck)
            [pair] = report.promoted_pairs()
            assert pair["nodes"] == [0, last]
            assert pair["bell_index"] == [0, 0]
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"


# --- 7: purification arithmetic ----------------------------------------------


def purified_fidelity_oracle(f: float) -> float:
    """Brute-force flip enumeration: two raw pairs, each carrying an X error
    with probability 1-f, post-selected on matching sacrificial parities."""
    kept = clean = 0.0
    for a in (0, 1):
        for b in (0, 1):
            weight = (f if a == 0 else 1.0 - f) * (f if b == 0 else 1.0 - f)
            if a ^ b == 0:
                kept += weight
                if a == 0:
                    clean += weight
    return clean / kept


def test_criterion_07_single_round_purification_reaches_the_oracle(tmp_path):
    assert runtime.purify_update(0.8) == pytest.approx(0.9412, abs=1e-4)
    assert purified_fidelity_oracle(0.8) == pytest.approx(0.9412, abs=1e-4)
    assert purified_fidelity_oracle(0.8) == pytest.approx(
        runtime.purify_update(0.8), abs=1e-12
    )

    source = """\
#repeaters: vec[Repeater]

import std::operation::{cx, measure}
import (rule) purification::local_operation
import (rule) purification::parity_check

ruleset single_link {
    let kept: Qubit = local_operation<#repeaters(0)>(1)
    let confirmed: Qubit = parity_check<#repeaters(0)>(1, kept)
    let kept2: Qubit = local_operation<#repeaters(1)>(-1)
    let confirmed2: Qubit = parity_check<#repeaters(1)>(-1, kept2)
}
"""
    program = parser.parse(source, filename="single_link.rula")
    program, import_diags = analyzer.resolve_imports(program, [CORPUS])
    assert not [d for d in import_diags if d.is_error], import_diags
    analysis = analyzer.analyze_program(program)
    assert not analysis.errors, analysis.errors
    topology = config.load_config((CORPUS / "config2.json").read_text())
    out = codegen.compile_program(analysis, topology, 7)
    assert out.ok, out.diagnostics

    rulesets = {rs.owner_addr: rs for rs in out.per_node.values()}
    report = runtime.run(rulesets, topology, seed=1, initial_fidelity=0.8)
    assert report.quiescent, report.stuck
    [pair] = report.promoted_pairs()
    assert pair["nodes"] == [0, 1]
    assert pair["fidelity"] == pytest.approx(purified_fidelity_oracle(0.8), abs=1e-4)


# --- 8: static rejection and robustness --------------------------------------

REJECTED = {
    "promote without a return annotation": (
        """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule keeper<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.8, partner, 0)
    } => act {
        promote q1
    }
}
ruleset lease{
    keeper<#repeaters(0)>()
}
""",
        "promote q1",
    ),
    "send of a non-message function": (
        """\
#repeaters: vec[Repeater]
import std::operation::{x, measure}
rule shout<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.8, partner, 0)
    } => act {
        x(q1) -> partner
    }
}
ruleset noisy{
    shout<#repeaters(0)>()
}
""",
        "x(q1) -> partner",
    ),
    "get of a never-set name": (
        """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule reader<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @message: recv(partner)
    } => act {
        if(message.result == get missing_tag){
        }
    }
}
ruleset listen{
    reader<#repeaters(0)>()
}
""",
        "get missing_tag",
    ),
    "hop leaving the chain": (
        """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule far<#rep>(){
    let partner: Repeater = #rep.hop(5)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset overreach{
    far<#repeaters(0)>()
}
""",
        "#rep.hop(5)",
    ),
    "ruleset-level if over a run-time value": (
        """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule probe<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        let result: Result = measure(q1, "Z")
        set result as flag
    }
}
ruleset gated{
    probe<#repeaters(0)>()
    if (get flag) {
        probe<#repeaters(1)>()
    }
}
""",
        "if (get flag) {",
    ),
}

NAMES = ["q1", "q2", "qq", "res1", "partner", "buddy", "tag", "flag", "probe",
         "banks", "outcome", "msg", "left_partner", "thing", "self_result"]
FIELDS = ["result", "qubit", "tag", "payload"]
BASES = ['"Z"', '"X"', '"Y"', '"weird"', '""']
GATES = ["x", "y", "z", "h", "cx", "cz", "frob"]
SENDS = ["update", "meas", "transfer", "free", "bsm", "measure", "warp"]
CONDS = ["res", "recv", "cmp", "check_timer", "set_timer", "wait"]


class ProgramGen:
    """Emits surface-valid programs with deliberately broken semantics."""

    def __init__(self, rng: random.Random):
        self.r = rng

    def name(self) -> str:
        return self.r.choice(NAMES)

    def atom(self) -> str:
        r = self.r
        pick = r.randrange(9)
        if pick == 0:
            return str(r.randint(0, 99))
        if pick == 1:
            return str(-r.randint(1, 20))
        if pick == 2:
            return f"{r.randint(0, 9)}.{r.randint(0, 99)}"
        if pick == 3:
            return r.choice(['"00"', '"01"', '"1"', '"ok"'])
        if pick == 4:
            return f"-{self.name()}"
        if pick == 5:
            return f"#rep.hop({r.choice([str(r.randint(-3, 3)), self.name(), '-' + self.name()])})"
        if pick == 6:
            return "#repeaters.len()"
        if pick == 7:
            return f"message.{r.choice(FIELDS)}"
        return self.name()

    def chain(self) -> str:
        r = self.r
        ops = [r.choice(["+", "-", "*", "/", "%", "^"]) for _ in range(r.randint(1, 2))]
        parts = [self.atom() for _ in range(len(ops) + 1)]
        out = parts[0]
        for op, part in zip(ops, parts[1:]):
            out += f" {op} {part}"
        return out

    def arg(self) -> str:
        return self.chain() if self.r.random() < 0.25 else self.atom()

    def comparand(self) -> str:
        r = self.r
        pick = r.randrange(4)
        if pick == 0:
            return f"get {self.name()}"
        if pick == 1:
            return self.chain()
        return self.atom()

    def condition(self) -> str:
        r = self.r
        pick = r.randrange(4)
        if pick == 0:
            return f"get {self.name()}"
        if pick == 1:
            return r.choice(["true", "false", str(r.randint(0, 9)), '"00"', self.name()])
        op = r.choice(["==", "!=", "<", "<=", ">", ">="])
        return f"{self.comparand()} {op} {self.comparand()}"

    def cond_clause(self) -> str:
        r = self.r
        pick = r.randrange(5)
        if pick == 0:
            return (f"@{self.name()}: res({r.randint(0, 3)}, 0.{r.randint(1, 9)}, "
                    f"{self.name()}, {r.randint(0, 3)})")
        if pick == 1:
            return f"@{self.name()}: recv({self.name()})"
        if pick == 2:
            fn = r.choice(CONDS)
            args = ", ".join(self.arg() for _ in range(r.randint(0, 2)))
            return f"{fn}({args})"
        if pick == 3:
            return f"@{self.name()}: {r.choice(CONDS)}({self.arg()})"
        return f"message.{r.choice(FIELDS)}"

    def act_stmt(self, depth: int = 0, last: bool = True) -> str:
        # promote parses greedily through comma lists, so inside a comma
        # separated match arm it may only appear as the closing statement
        r = self.r
        pick = r.randrange(11 if depth < 2 else 8)
        if pick == 4 and not last:
            pick = 5
        if pick == 0:
            return f"{r.choice(GATES)}({self.name()})"
        if pick == 1:
            return f"{r.choice(GATES)}({self.name()}, {self.name()})"
        if pick == 2:
            return f"let {self.name()}: Result = measure({self.name()}, {r.choice(BASES)})"
        if pick == 3:
            fn = r.choice(SENDS)
            args = ", ".join(self.arg() for _ in range(r.randint(1, 2)))
            return f"{fn}({args}) -> {self.name()}"
        if pick == 4:
            names = ", ".join(self.name() for _ in range(r.randint(1, 2)))
            return f"promote {names}"
        if pick == 5:
            return f"free({self.name()})"
        if pick == 6:
            alias = f" as {self.name()}" if r.random() < 0.5 else ""
            return f"set {self.name()}{alias}"
        if pick == 7:
            return f"let {self.name()}: Result = bsm({self.name()}, {self.name()})"
        if pick == 8:
            pats = r.sample(
                ['"00"', '"01"', '"10"', '"11"', '"1"', str(r.randint(0, 5)), self.name()],
                r.randint(1, 3),
            )
            arms = ""
            for p in pats:
                n = r.randint(1, 2)
                body = ", ".join(self.act_stmt(depth + 1, last=(j == n - 1)) for j in range(n))
                arms += f"        {p} => {{{body}}},\n"
            other = "        otherwise => {}\n" if r.random() < 0.5 else ""
            subject = r.choice([self.name(), f"get {self.name()}", f"message.{r.choice(FIELDS)}"])
            return f"match {subject} {{\n{arms}{other}    }}"
        if pick == 9:
            body = self.act_stmt(depth + 1)
            orelse = f"else{{{self.act_stmt(depth + 1)}}}" if r.random() < 0.5 else ""
            return f"if({self.condition()}){{{body}}}{orelse}"
        return f"set_timer({self.name()}, {r.randint(1, 9)})"

    def rule(self, name: str) -> str:
        r = self.r
        params = ", ".join(f"{self.name()}: {r.choice(['int', 'float', 'Qubit'])}"
                           for _ in range(r.randint(0, 2)))
        ret = r.choice(["", " :-> Qubit", " :-> Qubit?", " :-> Result"])
        lets = "".join(
            f"    let {self.name()}: Repeater = #rep.hop({self.arg()})\n"
            for _ in range(r.randint(0, 2))
        )
        conds = "".join(f"        {self.cond_clause()}\n" for _ in range(r.randint(0, 3)))
        acts = "".join(f"        {self.act_stmt()}\n" for _ in range(r.randint(1, 3)))
        return (f"rule {name}<#rep>({params}){ret} {{\n{lets}"
                f"    cond {{\n{conds}    }} => act {{\n{acts}    }}\n}}\n")

    def ruleset_stmt(self, rules: list[str], depth: int = 0) -> str:
        r = self.r
        pick = r.randrange(6 if depth < 2 else 3)
        index = r.choice([str(r.randint(0, 5)), "i", f"i + {r.randint(1, 3)}"])
        call = (f"{r.choice(rules)}<#repeaters({index})>"
                f"({', '.join(self.arg() for _ in range(r.randint(0, 2)))})")
        if pick == 0:
            return call
        if pick == 1:
            return f"let {self.name()}: {r.choice(['Qubit', 'int'])} = {call}"
        if pick == 2:
            value = r.choice([self.chain(), self.atom(), f"get {self.name()}"])
            return f"let {self.name()}: int = {value}"
        if pick == 3:
            stop = r.choice(["#repeaters.len()", f"#repeaters.len() - {r.randint(1, 2)}",
                             str(r.randint(1, 4)), self.name()])
            inner = self.ruleset_stmt(rules, depth + 1)
            var = self.name() if r.random() < 0.3 else "i"
            return f"for {var} in {r.randint(0, 2)}..{stop} {{\n        {inner}\n    }}"
        if pick == 4:
            inner = self.ruleset_stmt(rules, depth + 1)
            return f"if({self.condition()}){{\n        {inner}\n    }}"
        names = ", ".join(self.name() for _ in range(2))
        inner = self.ruleset_stmt(rules, depth + 1)
        return f"for ({names}) in {self.name()} {{\n        {inner}\n    }}"

    def program(self) -> str:
        r = self.r
        parts = []
        if r.random() < 0.9:
            parts.append("#repeaters: vec[Repeater]\n\n")
        if r.random() < 0.4:
            parts.append("import std::operation::{measure, cx, x, z}\n")
        if r.random() < 0.2:
            parts.append("import (rule) entanglement_swapping::swapping\n")
        rules = [f"r{i}" for i in range(r.randint(1, 2))]
        parts.append("\n")
        for n in rules:
            parts.append(self.rule(n))
        stmts = "".join(f"    {self.ruleset_stmt(rules)}\n" for _ in range(r.randint(0, 3)))
        parts.append(f"\nruleset scenario {{\n{stmts}}}\n")
        return "".join(parts)


def test_criterion_08_static_rejections_and_fuzzed_analyzer_robustness():
    for label, (source, needle) in REJECTED.items():
        program = parser.parse(source)
        analysis = analyzer.analyze_program(program)
        if analysis.errors:
            errors = analysis.errors
        else:
            out = codegen.compile_program(analysis, chain(3), 7)
            errors = [d for d in out.diagnostics if d.is_error]
        assert len(errors) == 1, (label, errors)
        start, end = line_bounds(source, needle)
        assert start <= errors[0].span.start and errors[0].span.end <= end, label

    gen = ProgramGen(random.Random(0xF522))
    for _ in range(10_000):
        source = gen.program()
        program = parser.parse(source)  # grammar-derived: must always parse
        analyzer.analyze_program(program)  # must diagnose, never raise


# --- 9: determinism ----------------------------------------------------------


def test_criterion_09_identical_inputs_give_identical_bytes(tmp_path, capsys):
    def compile_into(out_dir: Path) -> dict[str, str]:
        code, _out, _err = run_cli(
            [
                "compile",
                CORPUS / "entanglement_swapping.rula",
                "--config",
                CORPUS / "config3.json",
                "--out-dir",
                out_dir,
            ],
            capsys,
        )
        assert code == 0
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.json"))
        }

    first = compile_into(tmp_path / "a")
    second = compile_into(tmp_path / "b")
    assert first and first == second

    def run_once() -> str:
        code, out, _err = run_cli(
            [
                "run",
                "--config",
                CORPUS / "config3.json",
                "--rulesets",
                tmp_path / "a",
                "--seed",
                7,
                "--report-json",
            ],
            capsys,
        )
        assert code == 0
        return hashlib.sha256(out.encode()).hexdigest()

    assert run_once() == run_once()
