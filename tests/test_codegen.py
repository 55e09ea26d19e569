"""Lowering tests: ruleset-body evaluation, expansion arithmetic, send
splitting and deterministic output."""

import dataclasses
import hashlib
import json
import time
import tracemalloc

import pytest

from rula import analyzer, codegen, config, ir, parser


def load_topology(corpus, name):
    return config.load_config((corpus / name).read_text())


def compile_corpus(corpus, program_name, config_name, ruleset_id=7, expect_clean=True):
    source = (corpus / program_name).read_text()
    program = parser.parse(source, filename=program_name)
    program, import_diags = analyzer.resolve_imports(program, [corpus])
    assert not [d for d in import_diags if d.is_error], import_diags
    analysis = analyzer.analyze_program(program)
    assert not analysis.errors, analysis.errors
    topology = load_topology(corpus, config_name)
    out = codegen.compile_program(analysis, topology, ruleset_id)
    if expect_clean:
        assert out.ok, out.diagnostics
    return out


def compile_source(source, topology, ruleset_id=7):
    analysis = analyzer.analyze_program(parser.parse(source))
    assert not analysis.errors, analysis.errors
    return codegen.compile_program(analysis, topology, ruleset_id)


def chain(n):
    return config.Topology(
        repeaters=tuple(config.Repeater(name=f"#{i}", address=i, index=i) for i in range(n))
    )


def count_clauses(out, cls):
    total = 0
    for ruleset in out.per_node.values():
        for stage in ruleset.stages:
            for rule in stage.rules:
                total += sum(isinstance(c, cls) for c in rule.action.clauses)
    return total


def swap_owner_oracle(n):
    """Brute-force enumeration of the nested swapping schedule: for every
    doubling distance d, the nodes whose index satisfies i % (2d) == d."""
    owners = []
    for d in range(1, n // 2 + 1):
        for i in range(1, n - 1):
            if i % (2 * d) == d:
                owners.append((i, d))
    return owners


# --- corpus compilation ------------------------------------------------------


class TestSwappingCompile:
    def test_five_rulesets_share_one_id(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json", ruleset_id=99)
        assert sorted(out.per_node) == [0, 1, 2, 3, 4]
        for ruleset in out.per_node.values():
            assert ruleset.id == 99
            assert ruleset.name == "entanglement_swapping"
        for addr, ruleset in out.per_node.items():
            assert ruleset.owner_addr == addr

    def test_swap_owners_match_schedule_oracle(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        expected = {i for i, _d in swap_owner_oracle(5)}
        assert expected == {1, 2, 3}
        owners = {
            addr
            for addr, ruleset in out.per_node.items()
            for stage in ruleset.stages
            for rule in stage.rules
            if rule.name == "swapping"
        }
        assert owners == expected

    def test_swapping_stage_is_five_siblings(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        stage = out.per_node[1].stages[0]
        assert len(stage.rules) == 5
        assert {rule.shared_tag for rule in stage.rules} == {stage.rules[0].shared_tag}
        assert {rule.name for rule in stage.rules} == {"swapping"}

        literals = []
        for rule in stage.rules[:4]:
            cmps = [c for c in rule.condition.clauses if isinstance(c, ir.CmpClause)]
            assert len(cmps) == 1
            assert cmps[0].operator == "Eq"
            assert cmps[0].cmp_val == "MeasResult"
            assert cmps[0].target_val.kind == "MeasResult"
            literals.append(cmps[0].target_val.value)
        assert literals == ["00", "01", "10", "11"]
        last = stage.rules[4]
        assert not [c for c in last.condition.clauses if isinstance(c, ir.CmpClause)]

    def test_siblings_share_res_clauses(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        stage = out.per_node[1].stages[0]
        for rule in stage.rules:
            res = [c for c in rule.condition.clauses if isinstance(c, ir.ResClause)]
            assert [(r.partner_addr, r.qubit_index, r.fidelity) for r in res] == [
                (0, 0, 0.8),
                (2, 1, 0.8),
            ]

    def test_bsm_lowering_matches_reference_shape(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        rule = out.per_node[1].stages[0].rules[0]
        qcirc, mx, mz = rule.action.clauses[:3]
        assert qcirc == ir.QCircClause(
            (ir.QGate(ir.QubitId(0), "CxControl"), ir.QGate(ir.QubitId(1), "CxTarget"))
        )
        assert mx == ir.MeasureClause(ir.QubitId(0), "X")
        assert mz == ir.MeasureClause(ir.QubitId(1), "Z")

    def test_correction_sends_carry_op_payload(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        stage = out.per_node[1].stages[0]
        rule01 = stage.rules[1]
        sends = [c for c in rule01.action.clauses if isinstance(c, ir.SendClause)]
        assert sends[0] == ir.SendClause("Update", 0, (("op", "Z"), ("qubit", "0")))
        # success path: both halves are handed over after the correction
        assert [s.message for s in sends] == ["Update", "Transfer", "Transfer"]
        assert [s.partner_addr for s in sends] == [0, 0, 2]

    def test_otherwise_sends_free_and_skips_transfer(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        last = out.per_node[1].stages[0].rules[4]
        sends = [c for c in last.action.clauses if isinstance(c, ir.SendClause)]
        assert [s.message for s in sends] == ["Free", "Free"]

    def test_end_node_receives_wait_stage(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        node0 = out.per_node[0]
        # one wait stage from the d=1 swap at node 1, one from the d=2 swap at node 2
        assert len(node0.stages) == 2
        for stage, sender in zip(node0.stages, (1, 2)):
            names = {rule.name for rule in stage.rules}
            assert names == {"wait_transfer", "wait_update", "wait_free"}
            for rule in stage.rules:
                recv = [c for c in rule.condition.clauses if isinstance(c, ir.RecvClause)]
                assert [r.partner_addr for r in recv] == [sender]
                kinds = [
                    c
                    for c in rule.condition.clauses
                    if isinstance(c, ir.CmpClause) and c.cmp_val == "MessageKind"
                ]
                assert len(kinds) == 1 and kinds[0].operator == "Eq"

    def test_wait_update_applies_left_side_correction(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        stage = out.per_node[0].stages[0]
        update = next(r for r in stage.rules if r.name == "wait_update")
        assert update.action.clauses == (
            ir.QCircClause((ir.QGate(ir.QubitId(0), "Z"),)),
        )
        right = out.per_node[2].stages[0]
        update_r = next(r for r in right.rules if r.name == "wait_update")
        assert update_r.action.clauses == (
            ir.QCircClause((ir.QGate(ir.QubitId(0), "X"),)),
        )
        transfer = next(r for r in stage.rules if r.name == "wait_transfer")
        assert transfer.action.clauses == (ir.PromoteClause(ir.QubitId(0)),)

    def test_rule_ids_sequential_and_validate_clean(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        for ruleset in out.per_node.values():
            assert ir.validate(ruleset) == []
            ids = [rule.id for stage in ruleset.stages for rule in stage.rules]
            assert ids == list(range(len(ids)))

    def test_symmetric_schedule_overruns_seven_node_chain(self, corpus):
        out = compile_corpus(
            corpus, "entanglement_swapping.rula", "config7.json", expect_clean=False
        )
        errors = [d for d in out.diagnostics if d.is_error]
        assert len(errors) == 1
        assert errors[0].code == "hop-range"


class TestExpansionArithmetic:
    def test_two_matches_make_sixteen_rules(self, corpus):
        out = compile_corpus(corpus, "two_matches.rula", "config3.json")
        stages = out.per_node[1].stages
        assert len(stages) == 1
        stage = stages[0]
        assert len(stage.rules) == 16
        assert len({rule.shared_tag for rule in stage.rules}) == 1

        combos = []
        for rule in stage.rules:
            cmps = [c for c in rule.condition.clauses if isinstance(c, ir.CmpClause)]
            assert [c.cmp_val for c in cmps] == ["MeasResult", "MeasResult1"]
            combos.append((cmps[0].target_val.value, cmps[1].target_val.value))
        outcomes = ["00", "01", "10", "11"]
        assert combos == [(a, b) for a in outcomes for b in outcomes]

    def test_product_rule_for_nested_counts(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{measure, x}
rule nested<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
        @q2: res(1, 0.5, partner, 1)
    } => act {
        let a: Result = measure(q1, "Z")
        let b: Result = measure(q2, "Z")
        match a {
            "0" => {},
            "1" => {set_timer("a", 1)},
            "2" => {},
        }
        match b {
            "0" => {},
            "1" => {set_timer("b", 1)},
        }
    }
}
ruleset nested_counts{
    nested<#repeaters(0)>()
}
"""
        out = compile_source(source, chain(2))
        assert out.ok, out.diagnostics
        assert len(out.per_node[0].stages[0].rules) == 3 * 2

    def test_loop_body_runs_exactly_five_times(self, corpus):
        out = compile_corpus(corpus, "loop_probe.rula", "config2.json")
        probe_rules = [
            rule
            for stage in out.per_node[0].stages
            for rule in stage.rules
            if rule.name == "probe"
        ]
        assert len(probe_rules) == 5
        assert len(out.per_node[0].stages) == 5

    def test_single_rule_stage_per_call_gets_fresh_tag(self, corpus):
        out = compile_corpus(corpus, "loop_probe.rula", "config2.json")
        tags = [stage.rules[0].shared_tag for stage in out.per_node[0].stages]
        assert tags == [0, 1, 2, 3, 4]


def loop_nest(bounds: list[str]) -> str:
    """A ruleset of empty loops nested in the order given, `for i in <bound>`."""
    opening = "".join(f"for i in {bound} {{\n" for bound in bounds)
    return f"ruleset nest {{\n{opening}{'}' * len(bounds)}\n}}\n"


class TestLoopNestBound:
    def test_deep_nest_is_rejected_quickly(self):
        source = loop_nest(["0..2"] * 99)
        started = time.perf_counter()
        out = compile_source(source, chain(3))
        assert time.perf_counter() - started < 0.5
        [diag] = out.diagnostics
        assert diag.code == "loop-bound" and diag.is_error
        # the 16th loop is the first whose nest exceeds the bound: 3^16 > 2^24
        assert diag.span.start == source.index("for", 15 * len("for i in 0..2 {\n"))
        assert "43046721 bodies" in diag.message

    def test_deep_nest_of_single_trips_compiles(self):
        out = compile_source(loop_nest(["1..1"] * 99), chain(3))
        assert out.ok, out.diagnostics

    def test_bound_is_the_product_of_the_nest(self, monkeypatch):
        monkeypatch.setattr(codegen, "MAX_UNROLLED", 6)
        assert compile_source(loop_nest(["1..2", "1..3"]), chain(3)).ok
        assert compile_source(loop_nest(["1..6"]), chain(3)).ok
        [diag] = compile_source(loop_nest(["1..2", "1..4"]), chain(3)).diagnostics
        assert diag.code == "loop-bound"

    def test_bound_past_sys_maxsize_is_a_loop_bound_error(self):
        [diag] = compile_source(loop_nest(["1..(2 ^ 70)"]), chain(3)).diagnostics
        assert diag.code == "loop-bound"
        assert f"unrolls to {2**70} bodies" in diag.message

    def test_bound_admits_the_corpus_schedule_on_4097_nodes(self):
        # `for d in 1..n/2 { for i in 1..n-1 { ... } }` with n = 4097
        assert 2048 * 4096 <= codegen.MAX_UNROLLED


class TestChain7:
    def test_explicit_schedule_compiles(self, corpus):
        out = compile_corpus(corpus, "chain7.rula", "config7.json")
        owners = {
            addr
            for addr, ruleset in out.per_node.items()
            for stage in ruleset.stages
            for rule in stage.rules
            if rule.name == "swap_asym"
        }
        assert owners == {1, 2, 3, 4, 5}

    def test_last_swap_bridges_ends(self, corpus):
        out = compile_corpus(corpus, "chain7.rula", "config7.json")
        node4 = out.per_node[4]
        swap_stage = node4.stages[-1]
        res = [
            c for c in swap_stage.rules[0].condition.clauses if isinstance(c, ir.ResClause)
        ]
        assert [r.partner_addr for r in res] == [0, 6]


class TestPurification:
    def test_stage_layout_on_three_nodes(self, corpus):
        out = compile_corpus(corpus, "purification.rula", "config3.json")
        names0 = [[rule.name for rule in stage.rules] for stage in out.per_node[0].stages]
        assert names0[0] == ["local_operation"]
        assert names0[1] == ["parity_check", "parity_check"]
        # the swap at node 1 then installs its wait stage on this end node
        assert set(names0[2]) == {"wait_transfer", "wait_update", "wait_free"}

    def test_local_operation_action_sequence(self, corpus):
        out = compile_corpus(corpus, "purification.rula", "config3.json")
        rule = out.per_node[0].stages[0].rules[0]
        clauses = rule.action.clauses
        assert clauses[0] == ir.QCircClause(
            (ir.QGate(ir.QubitId(0), "CxControl"), ir.QGate(ir.QubitId(1), "CxTarget"))
        )
        assert clauses[1] == ir.MeasureClause(ir.QubitId(1), "Z")
        assert clauses[2] == ir.SendClause("Meas", 1, (("qubit", "1"), ("result", "MeasResult")))
        assert clauses[3] == ir.SetClause(variable="MeasResult", alias="self_result")
        assert clauses[4] == ir.PromoteClause(ir.QubitId(0))

    def test_parity_check_splits_on_message_result(self, corpus):
        out = compile_corpus(corpus, "purification.rula", "config3.json")
        stage = out.per_node[0].stages[1]
        success, failure = stage.rules
        assert success.shared_tag == failure.shared_tag

        s_cmp = [c for c in success.condition.clauses if isinstance(c, ir.CmpClause)]
        f_cmp = [c for c in failure.condition.clauses if isinstance(c, ir.CmpClause)]
        assert s_cmp == [
            ir.CmpClause("message.result", "Eq", ir.TaggedValue("Variable", "self_result"))
        ]
        assert f_cmp == [
            ir.CmpClause("message.result", "Neq", ir.TaggedValue("Variable", "self_result"))
        ]
        assert success.action.clauses == (ir.PromoteClause(ir.QubitId(0)),)
        assert failure.action.clauses == (ir.FreeClause(ir.QubitId(0)),)

    def test_different_thresholds_survive_lowering(self, corpus):
        out = compile_corpus(corpus, "purification.rula", "config3.json")
        rule = out.per_node[0].stages[0].rules[0]
        res = [c for c in rule.condition.clauses if isinstance(c, ir.ResClause)]
        assert [r.fidelity for r in res] == [0.8, 0.5]


class TestSendRecvBalance:
    @pytest.mark.parametrize(
        "program,cfg",
        [
            ("entanglement_swapping.rula", "config5.json"),
            ("purification.rula", "config3.json"),
            ("two_matches.rula", "config3.json"),
            ("loop_probe.rula", "config2.json"),
            ("chain7.rula", "config7.json"),
        ],
    )
    def test_every_send_is_bound(self, corpus, program, cfg):
        out = compile_corpus(corpus, program, cfg)
        send_clauses = count_clauses(out, ir.SendClause)
        assert send_clauses == len(out.obligations)
        assert out.unbound_recvs == []

    def test_meas_sends_bind_the_parity_check_recv(self, corpus):
        out = compile_corpus(corpus, "purification.rula", "config3.json")
        meas = [o for o in out.obligations if o.kind == "Meas"]
        assert len(meas) == 4
        assert {o.receiver for o in meas} == {"rule parity_check"}

    def test_swapping_sends_bind_synthesized_waits(self, corpus):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        assert {o.receiver for o in out.obligations} == {
            "synthesized wait_update",
            "synthesized wait_free",
            "synthesized wait_transfer",
        }


# --- compile-time evaluation -------------------------------------------------


def make_eval(n=5):
    analysis = analyzer.analyze_program(parser.parse("#repeaters: vec[Repeater]\n"))
    return codegen._Compiler(analysis, chain(n), 1, "t")


def eval_text(text, env=None, n=5):
    compiler = make_eval(n)
    return compiler.eval(parser.parse_expression(text), env or {})


class TestConstEval:
    def test_division_truncates_toward_zero(self):
        assert eval_text("7 / 2") == 3
        assert eval_text("(0 - 7) / 2") == -3

    def test_modulo_keeps_dividend_sign(self):
        assert eval_text("7 % 2") == 1
        assert eval_text("(0 - 7) % 2") == -1

    def test_caret_is_integer_exponent(self):
        assert eval_text("2 ^ 10") == 1024

    def test_flat_chain_uses_ordinary_precedence(self):
        assert eval_text("2 + 3 * 4") == 14
        assert eval_text("20 - 10 / 5") == 18

    def test_repeater_len(self):
        assert eval_text("#repeaters.len()", n=7) == 7
        assert eval_text("#repeaters.len() / 2", n=5) == 2

    def test_comparisons(self):
        assert eval_text("3 % 2 == 1") is True
        assert eval_text("2 < 1") is False

    def test_loop_variables_resolve(self):
        assert eval_text("i % (2 * d)", env={"i": 5, "d": 2}) == 1

    def test_division_by_zero_is_reported(self):
        with pytest.raises(codegen.LowerError):
            eval_text("1 / 0")

    def test_floats_fold(self):
        assert eval_text("1.5 + 1") == 2.5

    def test_each_level_applies_left_to_right(self):
        assert eval_text("20 / 5 * 2") == 8
        assert eval_text("2 ^ 3 ^ 2") == 64
        assert eval_text("2 * 3 ^ 2") == 18

    def test_float_modulo_keeps_dividend_sign(self):
        assert eval_text("(0 - 7.5) % 2") == -1.5

    def test_negative_integer_exponent_is_reported(self):
        with pytest.raises(codegen.LowerError) as err:
            eval_text("2 ^ (0 - 1)")
        assert err.value.code == "const-expr"

    @pytest.mark.parametrize("text", ["2 / 0 + x", "x + 2 / 0"])
    def test_every_operand_is_evaluated_before_any_operator(self, text):
        with pytest.raises(codegen.LowerError) as err:
            eval_text(text, env={"x": codegen._POISON})
        assert err.value.message == "x has no usable value after an earlier error"


class TestStaticRejection:
    def line_bounds(self, source, needle):
        offset = source.index(needle)
        start = source.rfind("\n", 0, offset) + 1
        end = source.index("\n", offset)
        return start, end

    def test_out_of_range_hop_is_one_diagnostic_inside_the_line(self):
        source = """\
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
"""
        out = compile_source(source, chain(3))
        errors = [d for d in out.diagnostics if d.is_error]
        assert len(errors) == 1
        assert errors[0].code == "hop-range"
        assert "0..2" in errors[0].message
        start, end = self.line_bounds(source, "#rep.hop(5)")
        assert start <= errors[0].span.start and errors[0].span.end <= end

    def test_name_poisoned_by_an_earlier_error(self):
        source = """\
#repeaters: vec[Repeater]
rule probe<#rep>(round: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset poisoned{
    let x: int = 1 / 0
    probe<#repeaters(0)>(x)
    for i in 1..x {
        probe<#repeaters(0)>(i)
    }
}
"""
        out = compile_source(source, chain(2))
        # the call given x is skipped silently; a value computed from x is a fault
        assert [(d.code, d.message) for d in out.diagnostics] == [
            ("const-expr", "division by zero in a compile-time expression"),
            ("const-expr", "x has no usable value after an earlier error"),
        ]
        assert source[out.diagnostics[1].span.start : out.diagnostics[1].span.end] == "x"
        assert out.per_node[0].stages == ()

    def test_out_of_range_repeater_index(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule probe<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset outside{
    probe<#repeaters(9)>()
}
"""
        out = compile_source(source, chain(2))
        errors = [d for d in out.diagnostics if d.is_error]
        assert len(errors) == 1
        assert errors[0].code == "repeater-range"

    def test_send_to_self_is_rejected(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule loopback<#rep>(){
    let partner: Repeater = #rep.hop(0)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        transfer(q1) -> partner
    }
}
ruleset self_send{
    loopback<#repeaters(0)>()
}
"""
        out = compile_source(source, chain(2))
        errors = [d for d in out.diagnostics if d.is_error]
        assert len(errors) == 1
        assert errors[0].code == "send-self"


    @pytest.mark.parametrize(
        "expr, reason",
        [
            ("0 ^ (0 - 1.5)", "zero raised to a negative power"),
            ("10.0 ^ 400", "result out of range"),
            ("(0 - 8) ^ 0.5", "fractional power of a negative number"),
        ],
        ids=["zero-base", "overflow", "complex"],
    )
    def test_power_fault_is_a_diagnostic(self, corpus, expr, reason):
        source = """\
#repeaters: vec[Repeater]
rule claim<#rep>(fidelity: float){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, fidelity, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset powers{
    let x: float = EXPR
    claim<#repeaters(0)>(x)
}
""".replace("EXPR", expr)
        out = compile_source(source, load_topology(corpus, "config3.json"))
        message = f"{reason} in a compile-time expression"
        assert [(d.code, d.message) for d in out.diagnostics] == [("const-expr", message)]
        span = out.diagnostics[0].span
        assert source[span.start : span.end] == expr

    @pytest.mark.parametrize(
        "args", ["(2, 1.5, 1)", "(0, 0.5, 1)", "(1, 0.5, 0)"], ids=["fidelity", "count", "index"]
    )
    def test_computed_res_arguments_are_checked(self, args):
        source = """\
#repeaters: vec[Repeater]
rule claim<#rep>(count: int, fidelity: float, index: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
        @q2: res(count, fidelity, partner, index)
    } => act {
        free(q1)
    }
}
ruleset computed{
    claim<#repeaters(0)>ARGS
}
""".replace("ARGS", args)
        out = compile_source(source, chain(2))
        errors = [d for d in out.diagnostics if d.is_error]
        assert [d.code for d in errors] == ["const-expr"]
        start = source.index("res(count")
        assert errors[0].span.start == start


WIRE_INTS = """\
#repeaters: vec[Repeater]
import std::operation::{x}
rule store<#rep>(n: int){
    cond {} => act {
        set n
    }
}
rule probe<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(COUNT, 0.5, partner, INDEX)
    } => act {
        set_timer("t", DURATION)
        if (get n == TARGET) { x(q1) }
    }
}
ruleset wire{
    store<#repeaters(0)>(3)
    probe<#repeaters(0)>()
}
"""


class TestFoldedIntegerDigits:
    """A folded integer the wire would carry has at most 4 300 digits, what
    the writer (`int.__repr__`) and a diagnostic (`str`) can print."""

    @staticmethod
    def source(slot, expr):
        slots = {"COUNT": "1", "INDEX": "0", "DURATION": "1", "TARGET": "3", slot: expr}
        source = WIRE_INTS
        for name, value in slots.items():
            source = source.replace(name, value)
        return source

    @pytest.mark.parametrize("slot", ["COUNT", "INDEX", "DURATION", "TARGET"])
    @pytest.mark.parametrize("expr", ["2 ^ 70000", "10 ^ 4300", "(10 ^ 2150) * (10 ^ 2150)"])
    def test_over_4300_digits_is_a_const_expr_error(self, slot, expr):
        source = self.source(slot, expr)
        out = compile_source(source, chain(2))
        message = "an integer of more than 4300 digits in a compile-time expression"
        assert [(d.code, d.message) for d in out.diagnostics] == [("const-expr", message)]
        span = out.diagnostics[0].span
        assert source[span.start : span.end] == expr

    def test_4300_digits_are_written(self):
        out = compile_source(self.source("DURATION", "10 ^ 4300 - 1"), chain(2))
        assert out.ok, out.diagnostics
        assert '"duration": ' + "9" * 4300 + "\n" in ir.serialize(out.per_node[0])

    def test_a_huge_power_is_refused_before_it_is_computed(self):
        # computing 3 ^ 10 000 000 (4.8 M digits) takes seconds
        started = time.perf_counter()
        out = compile_source(self.source("DURATION", "3 ^ 10000000"), chain(2))
        assert time.perf_counter() - started < 0.5
        assert [d.code for d in out.diagnostics] == ["const-expr"]


class TestFolding:
    def test_rule_level_compile_time_if_folds(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{x, measure}
rule maybe_flip<#rep>(flip: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        if (flip == 1) {
            x(q1)
        }
        free(q1)
    }
}
ruleset folded{
    maybe_flip<#repeaters(0)>(1)
    maybe_flip<#repeaters(0)>(0)
}
"""
        out = compile_source(source, chain(2))
        assert out.ok, out.diagnostics
        stages = out.per_node[0].stages
        assert [len(stage.rules) for stage in stages] == [1, 1]
        with_flip = stages[0].rules[0].action.clauses
        without = stages[1].rules[0].action.clauses
        assert any(isinstance(c, ir.QCircClause) for c in with_flip)
        assert not any(isinstance(c, ir.QCircClause) for c in without)

    def test_compile_time_match_folds(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{x}
rule pick<#rep>(mode: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        match mode {
            1 => {x(q1)},
            2 => {free(q1)},
        }
    }
}
ruleset picked{
    pick<#repeaters(0)>(2)
}
"""
        out = compile_source(source, chain(2))
        assert out.ok, out.diagnostics
        stage = out.per_node[0].stages[0]
        assert len(stage.rules) == 1
        assert stage.rules[0].action.clauses == (ir.FreeClause(ir.QubitId(0)),)


RUN_TIME_TEMPLATE = """\
#repeaters: vec[Repeater]
import std::operation::{{x, measure}}
rule store<#rep>(flag: bool, n: int, k: str){{
    cond {{}} => act {{
        set flag
        set n
        set k
    }}
}}
rule probe<#rep>(i: int){{
    let partner: Repeater = #rep.hop(1)
    cond {{
        @q1: res(1, 0.5, partner, 0)
        @q2: res(1, 0.5, partner, 1)
        @q3: res(1, 0.5, partner, 2)
    }} => act {{
        let r: Result = measure(q2, "Z")
        let r2: Result = measure(q3, "Z")
        {act}
    }}
}}
ruleset lowered{{
    store<#repeaters(0)>(true, 3, "1")
    probe<#repeaters(0)>(1)
}}
"""

_EQ_ONE = ("MeasResult", "Eq", "MeasResult", "1")
_NEQ_ONE = ("MeasResult", "Neq", "MeasResult", "1")

# (id, act-level statement, the Cmp clauses of each rule it lowers to)
RUN_TIME_CASES = [
    ("folded-match-no-arm", "match i { 3 => {x(q1)}, }", [[]]),
    (
        "match-comparison",
        'match r == "1" { true => {x(q1)}, false => {free(q1)}, }',
        [[_EQ_ONE], [_NEQ_ONE]],
    ),
    ("match-get", 'match get k { "1" => {x(q1)}, }', [[("k", "Eq", "Str", "1")]]),
    ("if-mirrored", 'if ("1" == r) { x(q1) }', [[_EQ_ONE], [_NEQ_ONE]]),
    (
        "if-two-results",
        "if (r == r2) { x(q1) }",
        [
            [("MeasResult", "Eq", "Variable", "MeasResult1")],
            [("MeasResult", "Neq", "Variable", "MeasResult1")],
        ],
    ),
    (
        "if-get-bool",
        "if (get flag == true) { x(q1) }",
        [[("flag", "Eq", "Bool", "true")], [("flag", "Neq", "Bool", "true")]],
    ),
    (
        "if-get-int",
        "if (get n == 3) { x(q1) }",
        [[("n", "Eq", "Int", "3")], [("n", "Neq", "Int", "3")]],
    ),
]


# A match subject in parentheses, and the same subject bare.
PARENTHESIZED_SUBJECTS = [
    ("result", '(r) { "1" => {x(q1)}, }', 'r { "1" => {x(q1)}, }'),
    ("result-twice", '((r)) { "1" => {x(q1)}, }', 'r { "1" => {x(q1)}, }'),
    ("get", '(get k) { "1" => {x(q1)}, }', 'get k { "1" => {x(q1)}, }'),
    (
        "comparison",
        '(r == "1") { true => {x(q1)}, false => {free(q1)}, }',
        'r == "1" { true => {x(q1)}, false => {free(q1)}, }',
    ),
]


class TestRunTimeComparisons:
    """Act-level match and if over run-time readings: the Cmp clauses that
    select each sibling rule."""

    @staticmethod
    def lowered(act: str) -> list[list[tuple]]:
        out = compile_source(RUN_TIME_TEMPLATE.format(act=act), chain(2))
        assert out.ok, out.diagnostics
        _, stage = out.per_node[0].stages
        return [
            [
                (c.cmp_val, c.operator, c.target_val.kind, c.target_val.value)
                for c in rule.condition.clauses
                if isinstance(c, ir.CmpClause)
            ]
            for rule in stage.rules
        ]

    @pytest.mark.parametrize(
        "act,cmps", [case[1:] for case in RUN_TIME_CASES], ids=[c[0] for c in RUN_TIME_CASES]
    )
    def test_cmp_clauses(self, act, cmps):
        assert self.lowered(act) == cmps

    @pytest.mark.parametrize(
        "parenthesized,bare",
        [case[1:] for case in PARENTHESIZED_SUBJECTS],
        ids=[c[0] for c in PARENTHESIZED_SUBJECTS],
    )
    def test_parenthesized_subject(self, parenthesized, bare):
        cmps = self.lowered("match " + bare)
        assert cmps and all(cmps)
        assert self.lowered("match " + parenthesized) == cmps


class TestUnpromoted:
    SOURCE = """\
#repeaters: vec[Repeater]

rule keep<#rep>(flag: int) :-> Qubit? {
    let partner: Repeater = #rep.hop(1)
    cond {
        @q: res(1, 0.8, partner, 0)
    } => act {
        if (flag == 1) {
            promote q
        }
    }
}

rule use<#rep>(q: Qubit) {
    cond {
    } => act {
        free(q)
    }
}

ruleset probe {
    let kept: Qubit = keep<#repeaters(0)>(FLAG)
    use<#repeaters(0)>(kept)
}
"""

    def test_call_given_an_unpromoted_qubit_is_an_error(self):
        source = self.SOURCE.replace("FLAG", "0")
        out = compile_source(source, chain(3))
        assert not out.ok
        [diag] = out.diagnostics
        assert diag.code == "unpromoted" and diag.is_error
        assert source[diag.span.start : diag.span.end] == "use<#repeaters(0)>(kept)"
        assert diag.message == (
            "argument kept of use holds no qubit: rule keep promotes none on repeater index 0"
        )

    def test_promoted_qubit_reaches_the_call(self):
        out = compile_source(self.SOURCE.replace("FLAG", "1"), chain(3))
        assert out.ok, out.diagnostics
        names = [rule.name for stage in out.per_node[0].stages for rule in stage.rules]
        assert names == ["keep", "use"]


class TestDeterminism:
    def test_recompilation_is_byte_identical(self, corpus):
        first = compile_corpus(corpus, "purification.rula", "config3.json")
        second = compile_corpus(corpus, "purification.rula", "config3.json")
        for addr in first.per_node:
            assert ir.serialize(first.per_node[addr]) == ir.serialize(second.per_node[addr])

    def test_default_id_is_stable_and_input_sensitive(self):
        a = codegen.default_ruleset_id("swapping.rula", b"config")
        b = codegen.default_ruleset_id("swapping.rula", b"config")
        c = codegen.default_ruleset_id("swapping.rula", b"other")
        assert a == b
        assert a != c
        assert 0 <= a < 2**64

    def test_write_output_names_files_by_address(self, corpus, tmp_path):
        out = compile_corpus(corpus, "entanglement_swapping.rula", "config5.json")
        paths = codegen.write_output(out, tmp_path)
        assert sorted(p.name for p in paths) == [
            f"entanglement_swapping_{i}.json" for i in range(5)
        ]
        for path in paths:
            ruleset = ir.deserialize(path.read_text())
            assert ir.serialize(ruleset) == path.read_text()


class TestWriteOutput:
    def test_one_ruleset_text_at_a_time(self, corpus, tmp_path):
        # 129 nodes write ~4 MB; the texts of all of them must never be held
        analysis = analyzer.analyze_program(parser.parse(doubling_source(corpus, 7)))
        out = codegen.compile_program(analysis, chain(129), 7)
        assert out.ok, out.diagnostics
        tracemalloc.start()
        try:
            paths = codegen.write_output(out, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        written = sum(path.stat().st_size for path in paths)
        assert len(paths) == 129 and written > 3_000_000
        assert peak < written / 4, (peak, written)
        assert sorted(tmp_path.iterdir()) == sorted(paths)


class TestEdges:
    def test_empty_ruleset_body_still_emits_every_node(self):
        source = "#repeaters: vec[Repeater]\n\nruleset idle{\n}\n"
        out = compile_source(source, chain(3))
        assert out.ok
        assert sorted(out.per_node) == [0, 1, 2]
        for ruleset in out.per_node.values():
            assert ruleset.stages == ()
            assert ruleset.name == "idle"

    def test_series_bounds_are_inclusive(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule probe<#rep>(round: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        free(q1)
    }
}
ruleset spread{
    for i in 2..4{
        probe<#repeaters(0)>(i)
    }
}
"""
        out = compile_source(source, chain(2))
        assert len(out.per_node[0].stages) == 3


TIMED = """\
#repeaters: vec[Repeater]
import std::operation::{measure, bsm}
rule timed<#rep>(){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
        @q2: res(1, 0.5, #rep.hop(-1), 1)
        @q3: res(1, 0.5, partner, 2)
        check_timer("t0")
    } => act {
        set_timer("t1", 5)
        measure(q3, "X")
        bsm(q1, q2)
    }
}
ruleset timers{
    timed<#repeaters(1)>()
}
"""


def _res(index, partner):
    return {"Res": {"count": 1, "fidelity": 0.5, "partner_addr": partner, "qubit_index": index}}


def _qubit(index):
    return {"qubit_identifier": {"qubit_index": index}}


class TestLoweringPinned:
    """Clauses no corpus program lowers, recorded before lowering stopped
    re-checking what the analyzer checks."""

    def lowered_rule(self):
        out = compile_source(TIMED, chain(3))
        assert out.ok, out.diagnostics
        assert out.per_node[0].stages == out.per_node[2].stages == ()
        (stage,) = json.loads(ir.serialize(out.per_node[1]))["stages"]
        (rule,) = stage["rules"]
        return rule

    def test_check_timer_clause(self):
        clauses = self.lowered_rule()["condition"]["clauses"]
        assert clauses == [_res(0, 2), _res(1, 0), _res(2, 2), {"Timer": {"timer_id": "t0"}}]

    def test_set_timer_and_bare_measurements(self):
        clauses = self.lowered_rule()["action"]["clauses"]
        assert clauses == [
            {"SetTimer": {"timer_id": "t1", "duration": 5}},
            {"Measure": {**_qubit(2), "basis": "X"}},
            {"QCirc": {"qgates": [{**_qubit(0), "kind": "CxControl"}, {**_qubit(1), "kind": "CxTarget"}]}},
            {"Measure": {**_qubit(0), "basis": "X"}},
            {"Measure": {**_qubit(1), "basis": "Z"}},
        ]

    def test_whole_output_digest(self):
        out = compile_source(TIMED, chain(3))
        text = "".join(ir.serialize(out.per_node[a]) for a in sorted(out.per_node))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "b7c544c827cf6082cf4b0422a5a33d95df7dec3108939daa4fa166bbb53e4643"


# --- pinned send/recv binding ------------------------------------------------


MIXED_RECVS = """#repeaters: vec[Repeater]

import std::operation::{measure}

rule talk<#rep>(distance: int){
    let partner: Repeater = #rep.hop(distance)
    cond {
        @q: res(1, 0.8, partner, 0)
    } => act {
        let result: Result = measure(q, "Z")
        meas(q, result) -> partner
        free(q) -> partner
    }
}

rule listen<#rep>(distance: int){
    let partner: Repeater = #rep.hop(distance)
    cond {
        @message: recv(partner)
    } => act {
    }
}

rule check<#rep>(distance: int){
    let partner: Repeater = #rep.hop(distance)
    cond {
        @message: recv(partner)
    } => act {
        if(message.result == "0"){
        }
    }
}

ruleset mixed{
    for i in 0..#repeaters.len()-2{
        check<#repeaters(i + 1)>(-1)
        listen<#repeaters(i + 1)>(-1)
        talk<#repeaters(i)>(1)
        listen<#repeaters(i + 1)>(-1)
        check<#repeaters(i + 1)>(-1)
        talk<#repeaters(i)>(1)
        talk<#repeaters(i)>(1)
        listen<#repeaters(i)>(1)
    }
}
"""


def doubling_source(corpus, levels):
    """The swapping program under the schedule d = 1, 2, 4, ..., 2^(levels-1)."""
    distances = ", ".join(str(2**k) for k in range(levels))
    return (corpus / "entanglement_swapping.rula").read_text().replace(
        "for d in 1..(#repeaters.len()/2)", f"for d in [{distances}]"
    )


def pinned_digests(out, out_dir):
    files = hashlib.sha256()
    for path in codegen.write_output(out, out_dir):
        files.update(path.name.encode() + b"\0" + path.read_bytes())
    obligations = "\n".join(
        f"{o.kind} {o.from_addr} {o.to_addr} {o.receiver}" for o in out.obligations
    )
    return files.hexdigest(), hashlib.sha256(obligations.encode()).hexdigest()


class TestBindingPinned:
    """Output and send/recv binding recorded before lowering was indexed:
    each send binds the first free recv slot in declaration order."""

    @pytest.mark.parametrize(
        "levels,files_sha,obligations,obligations_sha",
        [
            (
                5,
                "227adb852d622156c5fa49b5fc9b9b02f48fcfb2ef367e695b322d65f60baa6a",
                434,
                "0f9ad1a7add3862ca3476988693b643bd241555ddf5b1e5eecb9b24b24a29a2a",
            ),
            (
                7,
                "3144016ab10c93587144f9a6292a8a39ea56aaa6ddc7fa35e189f069510edb7b",
                1778,
                "be2df37ba13bec0149d431fff51291259fc13a40a07868a5dd03b6e7720db8e8",
            ),
        ],
        ids=["33_nodes", "129_nodes"],
    )
    def test_doubling_schedule(self, corpus, tmp_path, levels, files_sha, obligations, obligations_sha):
        out = compile_source(doubling_source(corpus, levels), chain(2**levels + 1))
        assert out.ok
        assert len(out.obligations) == obligations
        assert pinned_digests(out, tmp_path) == (files_sha, obligations_sha)
        assert out.unbound_recvs == []

    def test_meas_and_plain_recv_slots(self, tmp_path):
        out = compile_source(MIXED_RECVS, chain(9))
        assert out.ok
        # Meas may bind a slot that inspects the message; Free may not.
        assert [(o.kind, o.receiver) for o in out.obligations[:6]] == [
            ("Meas", "rule check"),
            ("Free", "rule listen"),
            ("Meas", "rule listen"),
            ("Free", "synthesized wait_free"),
            ("Meas", "rule check"),
            ("Free", "synthesized wait_free"),
        ]
        assert out.unbound_recvs == [
            f"recv from address {a + 1} in rule listen on address {a} never receives a send"
            for a in range(8)
        ]
        assert pinned_digests(out, tmp_path) == (
            "2971bf5230b45d744bf1e36c67e0afcf40dd746d5505283c2b82f814aa974e66",
            "a8ba1807e0a8d7499e2c23245f15e49a3bb1df4f3c0be316cfd9ddc39c6e613e",
        )


# --- lowering templates --------------------------------------------------------


def _readdressed(node, address):
    """`node` with every address in it mapped through `address`."""
    if isinstance(node, tuple):
        return tuple(_readdressed(item, address) for item in node)
    if not dataclasses.is_dataclass(node):
        return node
    changes = {}
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if f.name in ("owner_addr", "partner_addr"):
            changes[f.name] = address(value)
        else:
            changes[f.name] = _readdressed(value, address)
    return type(node)(**changes)


PUSH_TWO_HOPS = """\
#repeaters: vec[Repeater]
rule push<#rep>(){
    let left: Repeater = #rep.hop(-1)
    cond {
        @q: res(1, 0.5, left, 0)
    } => act {
        free(q) -> #rep.hop(2)
    }
}
ruleset pushes{
    for i in 1..#repeaters.len()-1{
        push<#repeaters(i)>()
    }
}
"""


class TestLoweringTemplates:
    """Each rule call whose act reads the chain only through its env is
    expanded once per owner-relative key and moved to the other owners."""

    def test_addresses_that_are_not_indices(self, corpus):
        def address(index):
            return 1000 - 7 * index

        source = doubling_source(corpus, 4)
        plain = compile_source(source, chain(17))
        spread = config.Topology(
            tuple(config.Repeater(f"#{i}", address(i), i) for i in range(17))
        )
        moved = compile_source(source, spread)
        assert plain.ok and moved.ok
        assert list(moved.per_node) == [address(i) for i in range(17)]
        for index, ruleset in plain.per_node.items():
            assert moved.per_node[address(index)] == _readdressed(ruleset, address)
        assert moved.obligations == [
            dataclasses.replace(o, from_addr=address(o.from_addr), to_addr=address(o.to_addr))
            for o in plain.obligations
        ]

    def test_doubling_chain_expands_a_handful_of_acts(self, corpus):
        analysis = analyzer.analyze_program(parser.parse(doubling_source(corpus, 5)))
        compiler = codegen._Compiler(analysis, chain(33), 7, "t")
        out = compiler.run()
        assert out.ok and len(compiler.calls) == 31
        assert len(compiler._templates) <= 10

    def test_act_that_reads_the_chain_is_expanded_on_every_call(self, monkeypatch):
        sends = []
        apply_send = codegen._Compiler._apply_send

        def counted(compiler, stmt, v):
            sends.append(stmt)
            return apply_send(compiler, stmt, v)

        monkeypatch.setattr(codegen._Compiler, "_apply_send", counted)
        analysis = analyzer.analyze_program(parser.parse(PUSH_TWO_HOPS))
        compiler = codegen._Compiler(analysis, chain(6), 7, "t")
        compiler.run()
        # five calls with one act key: each expands its send, none is kept
        assert len(sends) == 5 and not compiler._templates

    def test_condition_key_tells_apart_what_writes_differently(self):
        def res(fidelity, partner=3):
            return ir.ResClause(1, fidelity, partner, 0)

        clauses = [res(0.0), res(-0.0), res(0.5), ir.TimerClause("a"), ir.TimerClause("b")]
        keys = {codegen._cond_key([c]) for c in clauses + [ir.RecvClause(3)]}
        assert len(keys) == 6
        # a partner address is a hole, written from the rule's own clause
        assert codegen._cond_key([res(0.5)]) == codegen._cond_key([res(0.5, partner=9)])
        assert codegen._cond_key([ir.RecvClause(1)]) == codegen._cond_key([ir.RecvClause(2)])

    def test_act_that_hops_reports_each_call_that_leaves_the_path(self):
        out = compile_source(PUSH_TWO_HOPS, chain(6))
        start = PUSH_TWO_HOPS.index("#rep.hop(2)")
        assert [(d.code, d.span.start, d.span.end, d.message) for d in out.diagnostics] == [
            (
                "hop-range",
                start,
                start + len("#rep.hop(2)"),
                f"hop leaves the path: index {i} with offset 2 targets {i + 2}, "
                "valid indices are 0..5",
            )
            for i in (4, 5)
        ]
        text = "".join(ir.serialize(out.per_node[a]) for a in sorted(out.per_node))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "f83a880b59700be73c1355c7083bf11c8ecb7659c3814d3df274b3798fc3eece"


class TestBsmPartner:
    def test_bsm_of_two_pairs_with_one_far_node_is_rejected(self, corpus):
        source = (corpus / "entanglement_swapping.rula").read_text()
        right = "@q2: res(1, 0.8, right_partner, 1)"
        source = source.replace(right, right.replace("right", "left"))
        out = compile_source(source, chain(3))
        start = source.index("bsm(q1, q2)")
        assert [(d.code, d.span.start, d.span.end) for d in out.diagnostics] == [
            ("bsm-partner", start, start + len("bsm(q1, q2)"))
        ]
        assert "both on repeater index 0" in out.diagnostics[0].message

    def test_promoted_qubits_have_no_res_partner(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{bsm}
rule keep<#rep>() :-> Qubit {
    cond {
        @q: res(1, 0.5, #rep.hop(1), 0)
    } => act {
        promote q
    }
}
rule join<#rep>(a: Qubit){
    cond {
        @q: res(1, 0.5, #rep.hop(1), 1)
    } => act {
        bsm(a, q)
    }
}
ruleset joined{
    let kept: Qubit = keep<#repeaters(0)>()
    join<#repeaters(0)>(kept)
}
"""
        out = compile_source(source, chain(2))
        assert out.ok, out.diagnostics
