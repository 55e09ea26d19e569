"""Name/type checking, dataflow ordering, and import splicing."""

from __future__ import annotations

import dataclasses
import textwrap
from pathlib import Path

import pytest

from rula import analyzer, ast, codegen, config
from rula.analyzer import (
    Analysis,
    analyze_program,
    resolve_imports,
)
from rula.parser import parse
from test_acceptance import REJECTED


def _analyze(source: str) -> Analysis:
    return analyze_program(parse(textwrap.dedent(source)))


def _line_containing(source: str, needle: str) -> tuple[int, int]:
    start = source.index(needle)
    line_start = source.rfind("\n", 0, start) + 1
    line_end = source.find("\n", start)
    return line_start, len(source) if line_end == -1 else line_end


RULE_TEMPLATE = """\
#repeaters: vec[Repeater]

import std::operation::{{cx, measure}}

rule local_operation<#rep>(distance: int){annotation} {{
    let partner: Repeater = #rep.hop(distance)
    cond {{
        @q1: res(1, 0.8, partner, 0)
        @q2: res(1, 0.5, partner, 1)
    }} => act {{
        cx(q1, q2)
        let result: Result = measure(q2, "Z")
        meas(q2, result) -> partner
        set result as self_result
        promote q1
    }}
}}

rule free_probe<#rep>(q: Qubit){{
    cond {{}} => act {{ free(q) }}
}}

ruleset purification {{
    let promoted_qubit: Qubit = local_operation<#repeaters(0)>(1)
    free_probe<#repeaters(0)>(promoted_qubit)
}}
"""


class TestCorpus:
    def test_swapping_is_clean(self, corpus):
        analysis = _analyze((corpus / "entanglement_swapping.rula").read_text())
        assert analysis.diagnostics == []

    def test_purification_with_import_is_clean(self, corpus):
        program = parse((corpus / "purification.rula").read_text())
        merged, diags = resolve_imports(program, [corpus])
        assert diags == []
        assert "swapping" in {rule.name for rule in merged.rules}
        analysis = analyze_program(merged)
        assert analysis.errors == []

    def test_other_corpus_programs_are_clean(self, corpus):
        for name in ("chain7.rula", "two_matches.rula", "loop_probe.rula"):
            analysis = _analyze((corpus / name).read_text())
            assert analysis.diagnostics == [], name

    def test_purification_records_set_get_flow(self, corpus):
        program = parse((corpus / "purification.rula").read_text())
        merged, _ = resolve_imports(program, [corpus])
        analysis = analyze_program(merged)
        assert "self_result" in analysis.producers
        assert analysis.producers["self_result"][0] == "local_operation"
        consumed = [name for name, _ in analysis.consumers["parity_check"]]
        assert consumed == ["self_result"]


class TestPromoteChecks:
    def test_annotated_promote_is_accepted(self):
        analysis = _analyze(RULE_TEMPLATE.format(annotation=" :-> Qubit"))
        assert analysis.errors == []
        sig = analysis.signatures["local_operation"]
        assert sig.return_types == ("Qubit",)
        assert sig.maybe_flags == (False,)

    def test_promote_without_annotation(self):
        source = textwrap.dedent(
            """
            import std::operation::{cx, measure}

            rule local_operation<#rep>(distance: int) {
                let partner: Repeater = #rep.hop(distance)
                cond {
                    @q1: res(1, 0.8, partner, 0)
                    @q2: res(1, 0.5, partner, 1)
                } => act {
                    cx(q1, q2)
                    let result: Result = measure(q2, "Z")
                    meas(q2, result) -> partner
                    promote q1
                }
            }

            ruleset purification {
                local_operation<#repeaters(0)>(1)
            }
            """
        )
        analysis = _analyze(source)
        assert len(analysis.errors) == 1
        err = analysis.errors[0]
        assert "promote requires return type annotation" in err.message
        line_start, line_end = _line_containing(source, "promote q1")
        assert line_start <= err.span.start <= err.span.end <= line_end

    def test_promote_arity_mismatch(self):
        analysis = _analyze(
            """
            rule r<#rep>() :-> Qubit {
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { promote q, q }
            }
            """
        )
        assert any(d.code == "promote-arity" for d in analysis.errors)

    def test_promote_type_mismatch(self):
        analysis = _analyze(
            """
            rule r<#rep>() :-> str {
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { promote q }
            }
            """
        )
        assert any(d.code == "promote-type" for d in analysis.errors)

    def test_conditional_promote_requires_maybe(self):
        body = """
        rule r<#rep>() :-> Qubit{maybe} {{
            cond {{ @q: res(1, 0.5, #rep.hop(1), 0) @m: recv(#rep.hop(1)) }}
            => act {{
                if (m.result == "00") {{ promote q }} else {{ free(q) }}
            }}
        }}
        """
        strict = _analyze(body.format(maybe=""))
        assert any(d.code == "promote-missing" for d in strict.errors)
        relaxed = _analyze(body.format(maybe="?"))
        assert relaxed.errors == []

    def test_declared_return_never_promoted(self):
        analysis = _analyze(
            """
            rule r<#rep>() :-> Qubit {
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { free(q) }
            }
            """
        )
        assert any(d.code == "promote-missing" for d in analysis.errors)


class TestSendChecks:
    def test_non_whitelisted_send(self):
        source = textwrap.dedent(
            """
            import std::operation::{bsm}
            rule r<#rep>(){
                let partner: Repeater = #rep.hop(1)
                cond {
                    @q1: res(1, 0.5, partner, 0)
                    @q2: res(1, 0.5, partner, 1)
                } => act {
                    bsm(q1, q2) -> partner
                }
            }
            """
        )
        analysis = analyze_program(parse(source))
        assert len(analysis.errors) == 1
        err = analysis.errors[0]
        assert "send requires one of update/free/meas/transfer" in err.message
        line_start, line_end = _line_containing(source, "bsm(q1, q2) -> partner")
        assert line_start <= err.span.start <= err.span.end <= line_end

    def test_send_destination_must_be_repeater(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { free(q) -> q }
            }
            """
        )
        assert any("destination must be a Repeater" in d.message for d in analysis.errors)

    def test_update_without_send_arrow(self):
        analysis = _analyze(
            """
            import std::operation::{z}
            rule r<#rep>(){
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { update(q, z()) }
            }
            """
        )
        assert any("must be sent to a repeater" in d.message for d in analysis.errors)


class TestDataflow:
    def test_get_never_set(self):
        source = textwrap.dedent(
            """
            rule r<#rep>(){
                cond { @m: recv(#rep.hop(1)) }
                => act {
                    if (m.result == get foo) { set_timer("t", 1) } else { set_timer("t", 2) }
                }
            }

            ruleset rs { r<#repeaters(0)>() }
            """
        )
        analysis = analyze_program(parse(source))
        errors = analysis.errors
        assert len(errors) == 1
        assert "foo is never set" in errors[0].message
        line_start, line_end = _line_containing(source, "get foo")
        assert line_start <= errors[0].span.start <= errors[0].span.end <= line_end

    def test_get_before_set_ordering(self):
        analysis = analyze_program(
            parse(
                textwrap.dedent(
                    """
                    rule consumer<#rep>(){
                        cond { @m: recv(#rep.hop(1)) }
                        => act { if (m.result == get shared) { set_timer("t", 1) } else { set_timer("t", 2) } }
                    }
                    rule producer<#rep>(){
                        cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                        => act {
                            let r: Result = measure(q, "Z")
                            set r as shared
                        }
                    }
                    ruleset rs {
                        consumer<#repeaters(0)>()
                        producer<#repeaters(0)>()
                    }
                    """
                )
            )
        )
        assert any(
            "read before any earlier rule sets it" in d.message for d in analysis.diagnostics
        )

    def test_correct_ordering_is_clean(self):
        analysis = _analyze(
            """
            rule producer<#rep>(){
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act {
                    let r: Result = measure(q, "Z")
                    set r as shared
                }
            }
            rule consumer<#rep>(){
                cond { @m: recv(#rep.hop(1)) }
                => act { if (m.result == get shared) { set_timer("t", 1) } else { set_timer("t", 2) } }
            }
            ruleset rs {
                producer<#repeaters(0)>()
                consumer<#repeaters(0)>()
            }
            """
        )
        assert analysis.errors == []

    def test_unused_promoted_qubit_warning(self):
        analysis = _analyze(
            """
            rule source<#rep>() :-> Qubit {
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { promote q }
            }
            ruleset rs {
                let p: Qubit = source<#repeaters(0)>()
            }
            """
        )
        warnings = [d for d in analysis.diagnostics if d.severity == "warning"]
        assert len(warnings) == 1
        assert "unused promoted qubit p" in warnings[0].message

    def test_consumed_promoted_qubit_has_no_warning(self):
        analysis = _analyze(RULE_TEMPLATE.format(annotation=" :-> Qubit"))
        assert [d for d in analysis.diagnostics if d.severity == "warning"] == []

    def test_ordering_and_unused_qubits_are_reported_last(self):
        analysis = _analyze(
            """
            rule consumer<#rep>(){
                cond { @m: recv(#rep.hop(1)) }
                => act { if (m.result == get shared) { set_timer("t", 1) } }
            }
            rule source<#rep>() :-> Qubit {
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { promote q }
            }
            ruleset rs {
                let p: Qubit = source<#repeaters(0)>()
                consumer<#repeaters(0)>()
                ghost<#repeaters(0)>()
            }
            """
        )
        codes = [d.code for d in analysis.diagnostics]
        assert codes == ["unknown-rule", "get-before-set", "unused-promoted"]


class TestTyping:
    def test_unknown_identifier(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond {} => act { free(mystery) }
            }
            """
        )
        assert any("unknown identifier mystery" in d.message for d in analysis.errors)

    def test_let_annotation_mismatch(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                let partner: Qubit = #rep.hop(1)
                cond {} => act {}
            }
            """
        )
        assert any(d.code == "type-mismatch" for d in analysis.errors)

    def test_result_compares_only_with_strings(self):
        template = """
        rule r<#rep>(){{
            cond {{ @m: recv(#rep.hop(1)) }}
            => act {{ if (m.result {op} {rhs}) {{ set_timer("t", 1) }} else {{ set_timer("t", 2) }} }}
        }}
        """
        ok = _analyze(template.format(op="==", rhs='"00"'))
        assert ok.errors == []
        bad_type = _analyze(template.format(op="==", rhs="3"))
        assert any("compare only with strings" in d.message for d in bad_type.errors)
        bad_order = _analyze(template.format(op="<", rhs='"00"'))
        assert any("only == and !=" in d.message for d in bad_order.errors)

    def test_match_subject_must_be_result_like(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                let partner: Repeater = #rep.hop(1)
                cond {} => act {
                    match partner { otherwise => {} }
                }
            }
            """
        )
        assert any("match subject" in d.message for d in analysis.errors)

    def test_result_match_arms_must_be_strings(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act {
                    let r: Result = measure(q, "Z")
                    match r { 3 => {}, otherwise => {} }
                }
            }
            """
        )
        assert any("string literals" in d.message for d in analysis.errors)

    def test_unicord_rejected(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                let v: int = 0uFF32
                cond {} => act {}
            }
            """
        )
        assert any(d.code == "unicord" for d in analysis.errors)

    def test_measure_basis_checked(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond { @q: res(1, 0.5, #rep.hop(1), 0) }
                => act { let r: Result = measure(q, "Q") }
            }
            """
        )
        assert any(d.code == "bad-basis" for d in analysis.errors)

    @pytest.mark.parametrize("label", [label for label in REJECTED if label.startswith("misplaced")])
    def test_misplaced_call_is_one_error_at_the_call(self, label):
        source, call = REJECTED[label]
        [error] = analyze_program(parse(source)).errors
        start = source.index(call)
        assert (error.span.start, error.span.end) == (start, start + len(call))
        assert error.code == ("bad-rule-call" if "rule call" in label else "bad-action")

    def test_cond_function_in_act(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond {} => act { res(1, 0.5, #rep.hop(1), 0) }
            }
            """
        )
        assert any("may only appear in a cond block" in d.message for d in analysis.errors)

    def test_action_function_in_cond(self):
        analysis = _analyze(
            """
            import std::operation::{x}
            rule r<#rep>(){
                cond { x(q) } => act {}
            }
            """
        )
        assert any(d.code == "bad-cond-clause" for d in analysis.errors)

    def test_capture_on_cmp_rejected(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond { @v: check_timer("t") } => act {}
            }
            """
        )
        assert any("does not produce a value" in d.message for d in analysis.errors)

    def test_unknown_method_on_repeater(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                let p: Repeater = #rep.jump(1)
                cond {} => act {}
            }
            """
        )
        assert any(d.code == "unknown-method" for d in analysis.errors)

    def test_res_arity_checked(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond { @q: res(1, 0.5) } => act {}
            }
            """
        )
        assert any(d.code == "arity" for d in analysis.errors)

    def test_fidelity_takes_float_not_string(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond { @q: res(1, "high", #rep.hop(1), 0) } => act {}
            }
            """
        )
        assert any(d.code == "type-mismatch" for d in analysis.errors)


class TestRulesetChecks:
    def test_unknown_rule_call(self):
        analysis = _analyze("ruleset rs { ghost<#repeaters(0)>() }")
        assert any("unknown rule ghost" in d.message for d in analysis.errors)

    def test_rule_call_arity(self):
        analysis = _analyze(
            """
            rule r<#rep>(n: int){ cond {} => act {} }
            ruleset rs { r<#repeaters(0)>() }
            """
        )
        assert any(d.code == "arity" for d in analysis.errors)

    def test_rule_call_argument_type(self):
        analysis = _analyze(
            """
            rule r<#rep>(n: int){ cond {} => act {} }
            ruleset rs { r<#repeaters(0)>("one") }
            """
        )
        assert any(d.code == "type-mismatch" for d in analysis.errors)

    @pytest.mark.parametrize("stmt", ['set_timer("t", 1)', "1 + 2"])
    def test_expression_that_is_not_a_rule_call(self, stmt):
        analysis = _analyze(f"ruleset rs {{ {stmt} }}")
        [error] = analysis.diagnostics
        assert error.code == "unsupported-stmt" and "must be a rule call" in error.message

    def test_arguments_past_the_arity_are_typed(self):
        analysis = _analyze(
            """
            rule r<#rep>(n: int){ cond {} => act {} }
            ruleset rs { r<#repeaters(0)>(1, ghost) }
            """
        )
        assert [d.code for d in analysis.diagnostics] == ["arity", "unknown-name"]
        assert "ghost" in analysis.diagnostics[1].message

    def test_arguments_of_an_unknown_function_are_typed(self):
        analysis = _analyze("ruleset rs { let x: int = foo(ghost) }")
        messages = [d.message for d in analysis.errors]
        assert any("unknown function foo" in m for m in messages)
        assert any("ghost" in m for m in messages), messages

    def test_duplicate_rule_definition(self):
        analysis = _analyze(
            """
            rule r<#rep>(){ cond {} => act {} }
            rule r<#rep>(){ cond {} => act {} }
            """
        )
        assert any(d.code == "duplicate-rule" for d in analysis.errors)

    def test_send_at_ruleset_level(self):
        analysis = _analyze("ruleset rs { free(q) -> partner }")
        assert any("only valid inside a rule" in d.message for d in analysis.errors)

    @pytest.mark.parametrize(
        "stmt,message",
        [
            ("promote q", "this statement is only valid inside a rule"),
            ("set q as shared", "this statement is only valid inside a rule"),
            ('match q { "0" => {}, }', "match is not allowed at ruleset level"),
        ],
    )
    def test_rule_statements_at_ruleset_level(self, stmt, message):
        [error] = _analyze(f"ruleset rs {{ {stmt} }}").diagnostics
        assert (error.code, error.message) == ("unsupported-stmt", message)

    def test_unknown_std_member(self):
        analysis = _analyze("import std::operation::{teleport}")
        assert any("no member 'teleport'" in d.message for d in analysis.errors)

    def test_single_member_std_import(self):
        analysis = _analyze("import std::operation::bsm")
        assert analysis.diagnostics == []


class TestImports:
    def test_rule_import_without_a_module(self, tmp_path):
        _, diags = resolve_imports(parse("import (rule) helper"), [tmp_path])
        assert [d.message for d in diags] == ["rule import needs a module path"]

    def test_diagnostics_in_an_imported_rule_name_its_file(self, tmp_path):
        text = (
            "import (rule) missing::thing\n"
            "rule reader<#rep>(){ cond {} => act { let x: int = ghost\n if (get tag == 1) {} } }\n"
        )
        (tmp_path / "lib.rula").write_text(text)
        program, diags = resolve_imports(parse("import (rule) lib::reader"), [tmp_path])
        diags += analyze_program(program).diagnostics
        origin = (str((tmp_path / "lib.rula").resolve()), text)
        assert [(d.code, d.origin) for d in diags] == [
            ("bad-import", origin), ("unknown-name", origin), ("get-before-set", origin)
        ]
        assert [text[d.span.start : d.span.end] for d in diags] == [
            "import (rule) missing::thing", "ghost", "get tag"
        ]

    def test_an_error_in_an_imported_rule_hides_no_error_of_the_program(self, tmp_path):
        text = "// " + "-" * 60 + "\nrule reader<#rep>(){ cond {} => act { let x: int = ghost } }\n"
        (tmp_path / "lib.rula").write_text(text)
        head = "import (rule) lib::reader\nruleset rs { let k: int = "
        # `get flag` spans the offsets that `ghost` has in lib.rula
        source = head + " " * (text.index("ghost") - len(head)) + "get flag }\n"
        program, _ = resolve_imports(parse(source), [tmp_path])
        errors = analyze_program(program).errors
        assert [(d.code, d.origin is None) for d in errors] == [
            ("unknown-name", False), ("compile-time", True)
        ]

    def test_missing_module(self, tmp_path):
        program = parse("import (rule) missing_module::helper")
        _, diags = resolve_imports(program, [tmp_path])
        assert any("module not found: missing_module" in d.message for d in diags)

    def test_missing_rule_in_module(self, tmp_path):
        (tmp_path / "lib.rula").write_text("rule other<#rep>(){ cond {} => act {} }\n")
        program = parse("import (rule) lib::helper")
        _, diags = resolve_imports(program, [tmp_path])
        assert any("helper is not defined in lib" in d.message for d in diags)

    def test_import_cycle_detected(self, tmp_path):
        (tmp_path / "a.rula").write_text(
            "import (rule) b::rb\nrule ra<#rep>(){ cond {} => act {} }\n"
        )
        (tmp_path / "b.rula").write_text(
            "import (rule) a::ra\nrule rb<#rep>(){ cond {} => act {} }\n"
        )
        program = parse("import (rule) a::ra")
        _, diags = resolve_imports(program, [tmp_path])
        assert any("import cycle" in d.message for d in diags)

    def test_duplicate_import_rejected(self, tmp_path):
        (tmp_path / "lib.rula").write_text("rule dup<#rep>(){ cond {} => act {} }\n")
        program = parse("import (rule) lib::dup\nrule dup<#rep>(){ cond {} => act {} }\n")
        _, diags = resolve_imports(program, [tmp_path])
        assert any("already defined" in d.message for d in diags)

    def test_brace_group_rule_import(self, tmp_path):
        (tmp_path / "lib.rula").write_text(
            "rule one<#rep>(){ cond {} => act {} }\n"
            "rule two<#rep>(){ cond {} => act {} }\n"
        )
        program = parse("import (rule) lib::{one, two}")
        merged, diags = resolve_imports(program, [tmp_path])
        assert diags == []
        assert {rule.name for rule in merged.rules} == {"one", "two"}

    def test_search_order_prefers_first_root(self, tmp_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        (first / "lib.rula").write_text("rule pick<#rep>(){ cond {} => act {} }\n")
        (second / "lib.rula").write_text("rule other<#rep>(){ cond {} => act {} }\n")
        program = parse("import (rule) lib::pick")
        merged, diags = resolve_imports(program, [first, second])
        assert diags == []
        assert merged.rules[0].name == "pick"


class TestImportMemo:
    MODULE = "rule helper<#rep>(){ cond {} => act {} }\n"

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        real = analyzer.parse

        def counting(text, **kwargs):
            calls.append(kwargs["filename"])
            return real(text, **kwargs)

        monkeypatch.setattr(analyzer, "parse", counting)
        return calls

    def test_module_parsed_once_for_two_programs(self, tmp_path, parses):
        (tmp_path / "lib.rula").write_text(self.MODULE)
        first = parse("import (rule) lib::helper")
        second = parse("import (rule) lib::helper\nrule own<#rep>(){ cond {} => act {} }\n")
        merged_first, diags_first = resolve_imports(first, [tmp_path])
        merged_second, diags_second = resolve_imports(second, [tmp_path])
        assert diags_first == diags_second == []
        assert parses == [str((tmp_path / "lib.rula").resolve())]
        assert merged_first.rules[0] is merged_second.rules[0]
        assert [r.name for r in merged_second.rules] == ["helper", "own"]

    def test_edited_module_is_parsed_again(self, tmp_path, parses):
        module = tmp_path / "lib.rula"
        module.write_text(self.MODULE)
        program = parse("import (rule) lib::helper")
        _, diags = resolve_imports(program, [tmp_path])
        assert diags == []
        module.write_text("rule renamed<#rep>(){ cond {} => act {} }\n")
        _, diags = resolve_imports(program, [tmp_path])
        assert len(parses) == 2
        assert any("helper is not defined in lib" in d.message for d in diags)


class TestStability:
    def test_analysis_is_idempotent(self, corpus):
        program = parse((corpus / "entanglement_swapping.rula").read_text())
        first = analyze_program(program)
        second = analyze_program(program)
        assert [d.message for d in first.diagnostics] == [
            d.message for d in second.diagnostics
        ]
        assert first.types == second.types

    def test_all_diagnostics_collected_not_first_only(self):
        analysis = _analyze(
            """
            rule r<#rep>(){
                cond {} => act {
                    free(ghost_one)
                    free(ghost_two)
                }
            }
            """
        )
        messages = " ".join(d.message for d in analysis.errors)
        assert "ghost_one" in messages and "ghost_two" in messages


SHAPE_TEMPLATE = """\
#repeaters: vec[Repeater]
import std::operation::{{x, cx, measure, bsm}}
rule probe<#rep>(){returns}{{
    let partner: Repeater = #rep.hop(1)
    cond {{
        @q1: res(1, 0.5, partner, 0)
        @q2: res(1, 0.5, partner, 1)
        @m: recv(#rep.hop(-1))
    }} => act {{
        {act}
    }}
}}
ruleset shapes{{
    {ruleset}
}}
"""


def _only_error(source: str, needle: str):
    """The one error of `source`, checked to lie inside the first `needle`."""
    errors = analyze_program(parse(source)).errors
    assert len(errors) == 1, errors
    start = source.index(needle)
    assert start <= errors[0].span.start and errors[0].span.end <= start + len(needle)
    return errors[0]


def _shape(act: str = "free(q1)", ruleset: str = "probe<#repeaters(1)>()", returns: str = ""):
    return SHAPE_TEMPLATE.format(act=act, ruleset=ruleset, returns=returns)


class TestShapeRules:
    """Programs lowering used to be the first to reject, or let through to
    a file that `rula validate` or the simulator then rejected."""

    def test_template_is_clean(self):
        assert analyze_program(parse(_shape())).ok

    def test_loop_destructuring_over_a_vector(self):
        loop = "for (a, b) in [1, 2] { probe<#repeaters(1)>() }"
        assert _only_error(_shape(ruleset=loop), loop).code == "arity"

    def test_promote_takes_only_qubits(self):
        source = _shape(returns=" :-> Result", act="let r: Result = bsm(q1, q2)\n promote r")
        assert _only_error(source, "promote r").code == "promote-type"

    def test_two_qubit_operations_need_two_qubits(self):
        for act in ("bsm(q1, q1)", "cx(q1, q1)", "let r: Result = bsm(q1, q1)"):
            error = _only_error(_shape(act=act), act)
            assert error.code == "same-qubit", act

    @pytest.mark.parametrize(
        "act,needle",
        [
            ('measure(q1, "Z")\n promote q1', "promote q1"),
            ('let r: Result = measure(q1, "Z")\n x(q1)', "x(q1)"),
            ("bsm(q1, q2)\n free(q2)", "free(q2)"),
            ('free(q1)\n measure(q1, "X")', 'measure(q1, "X")'),
            ('match m.result { "0" => {free(q1)}, "1" => {}, }\n x(q1)', "x(q1)"),
            ('if (m.result == "0") { free(q1) }\n x(q1)', "x(q1)"),
        ],
        ids=["measure-promote", "measure-gate", "bsm-free", "free-measure", "match-arm", "if-branch"],
    )
    def test_consumed_qubit_is_not_used_again(self, act, needle):
        returns = " :-> Qubit" if "promote" in act else ""
        assert _only_error(_shape(act=act, returns=returns), needle).code == "consumed-qubit"

    def test_consumed_qubits_may_still_be_sent(self):
        act = 'let r: Result = measure(q1, "Z")\n meas(q1, r) -> partner\n transfer(q1) -> partner'
        assert analyze_program(parse(_shape(act=act))).ok

    def test_other_paths_do_not_consume(self):
        # an otherwise arm ends the rule; the sibling arm never freed q1
        for act in (
            'match m.result { "0" => {}, otherwise => {free(q1)} }\n x(q1)',
            'match m.result { "0" => {free(q1)}, "1" => {x(q1)}, }',
        ):
            assert analyze_program(parse(_shape(act=act))).ok, act

    @pytest.mark.parametrize(
        "clause,needle,code",
        [
            ("@q3: res(1, 2.5, partner, 2)", "2.5", "bad-res"),
            ("@q3: res(0, 0.5, partner, 2)", "0, 0.5", "bad-res"),
            ("@q3: res(1, 0.5, partner, 1)", "1)", "bad-res"),
        ],
        ids=["fidelity", "count", "index"],
    )
    def test_literal_res_arguments(self, clause, needle, code):
        source = _shape().replace("@m: recv", f"{clause}\n        @m: recv")
        start = source.index(clause)
        error = _only_error(source, clause)
        assert error.code == code
        assert error.span.start == start + clause.index(needle)

    @pytest.mark.parametrize(
        "act,needle,code",
        [
            ("x()", "x()", "unsupported-stmt"),
            ("meas(q1, m.result) -> partner", "m.result", "type-mismatch"),
            ("if (get flag) { free(q1) }", "get flag", "bad-match"),
            ('if (m.result == m.result) { free(q1) }', "m.result == m.result", "bad-match"),
            ('if (m.result == "1") { free(q1) } else if (1 == 1) { free(q2) }', "1 == 1", "bad-match"),
            ('match get flag { q1 => {free(q1)}, }', "q1 =>", "bad-match"),
        ],
        ids=["bare-correction", "meas-field", "if-get", "field-vs-field", "static-elif", "name-arm"],
    )
    def test_statements_lowering_cannot_express(self, act, needle, code):
        source = _shape(act=act)
        # `flag` is set nowhere; only the condition's shape is under test
        errors = [e for e in analyze_program(parse(source)).errors if e.code != "get-before-set"]
        assert [e.code for e in errors] == [code]
        start = source.index(needle)
        assert start <= errors[0].span.start and errors[0].span.end <= start + len(needle)

    def test_for_inside_an_act_block(self):
        loop = "for i in [1, 2] { free(q1) }"
        source = _shape(act=loop)
        error = _only_error(source, loop)
        start = source.index(loop)
        assert (error.code, error.span.start, error.span.end) == (
            "unsupported-stmt", start, start + len(loop)
        )
        assert error.message == "for loops are not allowed inside act blocks"

    def test_cmp_is_not_a_condition_clause(self):
        source = """\
rule probe<#rep>(r: Result){
    cond { cmp(r, "==", "1") } => act {}
}
"""
        error = _only_error(source, 'cmp(r, "==", "1")')
        assert error.code == "bad-cond-clause"
        assert error.message == "cmp is not a condition function (expected res, recv or check_timer)"

    def test_untyped_parameter(self):
        source = _shape().replace("probe<#rep>()", "probe<#rep>(far)")
        source = source.replace("probe<#repeaters(1)>()", "probe<#repeaters(1)>(3)")
        assert _only_error(source, "far").code == "missing-type"

    def test_tuple_target_needs_a_rule_call(self):
        source = _shape(ruleset="let (a: int, b: int) = 5")
        assert _only_error(source, "let (a: int, b: int) = 5").code == "arity"

    def test_untyped_condition_is_reported_once(self):
        assert _only_error(_shape(act="if (foo) { x(q1) }"), "foo").code == "unknown-name"

    def test_repeaters_do_not_compare(self):
        source = _shape(act="if (partner == partner) { free(q1) }")
        errors = analyze_program(parse(source)).errors
        assert [e.code for e in errors] == ["type-mismatch"]


FOLD_TEMPLATE = """\
#repeaters: vec[Repeater]
import std::operation::{{measure}}
rule store<#rep>(){{
    let partner: Repeater = #rep.hop(1)
    cond {{
        @q1: res(1, 0.5, partner, 0)
    }} => act {{
        let r: Result = measure(q1, "Z")
        let c: int = 1
        set r as k
        set c as n
        set partner as p
    }}
}}
rule probe<#rep>(i: int, d: float){{
    let partner: Repeater = #rep.hop(1)
    {lets}
    cond {{
        @q1: res({count}, 0.5, partner, 0)
    }} => act {{
        {act}
    }}
}}
rule produce<#rep>() :-> Result? {{
    cond {{}} => act {{}}
}}
rule consume<#rep>(r: Result){{
    cond {{}} => act {{}}
}}
ruleset folded{{
    store<#repeaters(0)>()
    {ruleset}
}}
"""

_CALL = "probe<#repeaters(1)>(1, 0.5)"
_STR_RESULT = 'let s: str = measure(q1, "Z")\n'

# (id, template fields, the offending text, the analyzer's code): one case
# per position where lowering folds a value before run time.
FOLDED_CASES = [
    ("loop-bound", {"ruleset": f"for j in 1..2.5 {{ {_CALL} }}"}, "2.5", "type-mismatch"),
    (
        "loop-generator",
        {"ruleset": f"let x: int = 3\n for j in x {{ {_CALL} }}"},
        "in x",
        "compile-time",
    ),
    ("if-strings", {"ruleset": f'if ("a" == "b") {{ {_CALL} }}'}, '"a" == "b"', "compile-time"),
    ("if-get", {"ruleset": f'if (get k == "1") {{ {_CALL} }}'}, 'get k == "1"', "compile-time"),
    ("ruleset-let", {"ruleset": f"let y: Result = get k\n {_CALL}"}, "get k", "compile-time"),
    (
        "selector",
        {"ruleset": "for j in [1.5] { probe<#repeaters(j)>(1, 0.5) }"},
        "#repeaters(j)",
        "type-mismatch",
    ),
    ("argument", {"ruleset": "probe<#repeaters(1)>(1 + get n, 0.5)"}, "1 + get n", "compile-time"),
    (
        "result-argument",
        {"ruleset": "let y: Result = produce<#repeaters(1)>()\n consume<#repeaters(1)>(y)"},
        "(y)",
        "compile-time",
    ),
    ("rule-let", {"lets": "let y: Result = get k"}, "get k", "compile-time"),
    ("act-let", {"act": "let y: Result = get k\n free(q1)"}, "get k", "compile-time"),
    ("hop", {"lets": "let far: Repeater = #rep.hop(d)"}, "hop(d)", "type-mismatch"),
    ("cond-argument", {"count": "1 + get n"}, "1 + get n", "compile-time"),
    ("set-timer", {"act": 'set_timer("t", 1 + get n)\n free(q1)'}, "1 + get n", "compile-time"),
    ("destination", {"act": "transfer(q1) -> get p"}, "get p", "compile-time"),
    (
        "elif",
        {"act": 'if (i == 2) { free(q1) } else if (get k == "1") { free(q1) }'},
        'get k == "1"',
        "compile-time",
    ),
    # a measurement result stays a run-time value in a str slot
    ("str-result-timer", {"act": f"{_STR_RESULT} set_timer(s, 5)"}, "(s, 5)", "compile-time"),
    ("str-result-let", {"act": f"{_STR_RESULT} let t: str = s"}, "t: str = s", "compile-time"),
    (
        "str-result-elif",
        {"act": f'{_STR_RESULT} if (i == 2) {{ set s as a }} else if (s == "1") {{ set s as b }}'},
        's == "1"',
        "compile-time",
    ),
]


def fold_source(**fields) -> str:
    values = {"lets": "", "count": "1", "act": "free(q1)", "ruleset": _CALL, **fields}
    return FOLD_TEMPLATE.format(**values)


class TestFoldedPositions:
    """Values lowering folds before run time: the analyzer rejects what does
    not fold, once, where lowering used to report a `const-expr` error."""

    def test_template_is_clean(self):
        assert analyze_program(parse(fold_source())).diagnostics == []

    @pytest.mark.parametrize(
        "fields,needle,code", [case[1:] for case in FOLDED_CASES], ids=[c[0] for c in FOLDED_CASES]
    )
    def test_unfoldable_value_is_one_error(self, fields, needle, code):
        assert _only_error(fold_source(**fields), needle).code == code

    @pytest.mark.parametrize(
        "ruleset,needle",
        [
            (f'if ("a" == 1) {{ {_CALL} }}', '"a" == 1'),
            ("let y: int = get k\n probe<#repeaters(1)>(y, 0.5)", "let y: int = get k"),
            ("let y: Result = get k\n consume<#repeaters(1)>(y)", "get k"),
        ],
        ids=["mistyped-condition", "mistyped-let", "let-then-argument"],
    )
    def test_one_fault_is_one_error(self, ruleset, needle):
        _only_error(fold_source(ruleset=ruleset), needle)

    def test_result_in_a_str_slot_is_a_run_time_value(self):
        act = f'{_STR_RESULT} if (s == "1") {{ set s as a }}'
        analysis = analyze_program(parse(fold_source(act=act)))
        assert analysis.diagnostics == []
        topology = config.Topology(
            repeaters=tuple(config.Repeater(name=f"#{i}", address=i, index=i) for i in range(3))
        )
        assert codegen.compile_program(analysis, topology, 7).ok

    def test_an_error_around_a_value_does_not_hide_its_fault(self):
        source = fold_source(ruleset="for (j, m) in 1..2 { probe<#repeaters(1)>(1 + get n, 0.5) }")
        errors = analyze_program(parse(source)).errors
        assert [e.code for e in errors] == ["arity", "compile-time"], errors

    def test_ruleset_condition_rejects_floats(self):
        source = fold_source(ruleset=f"if (1.5 + 1 > 2) {{ {_CALL} }}")
        assert _only_error(source, "1.5 + 1 > 2").code == "compile-time"
        source = fold_source(ruleset=f"for j in 1..1.5 + 1 {{ {_CALL} }}")
        assert _only_error(source, "1.5 + 1").code == "type-mismatch"

    def test_ruleset_condition_rejects_non_integer_names(self):
        source = fold_source(ruleset=f"let flag: float = 1.0\n if (flag == 1) {{ {_CALL} }}")
        assert _only_error(source, "flag == 1").code == "compile-time"

    def test_integer_and_boolean_conditions_fold(self):
        for condition in ("#repeaters.len() / 2 > 1", "flag", "3 % 2 == 1"):
            source = fold_source(ruleset=f"let flag: bool = true\n if ({condition}) {{ {_CALL} }}")
            assert analyze_program(parse(source)).diagnostics == [], condition

    def test_runtime_valued_ruleset_if_is_one_diagnostic(self):
        source = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule probe<#rep>(round: int){
    let partner: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, partner, 0)
    } => act {
        let result: Result = measure(q1, "Z")
        meas(q1, result) -> partner
    }
}
ruleset gated{
    if (#repeaters.len() > 1.5) {
        probe<#repeaters(0)>(1)
    }
}
"""
        error = _only_error(source, "#repeaters.len() > 1.5")
        assert error.code == "compile-time"
        assert "compile-time integers or booleans" in error.message


BINDING_TIMES = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule store<#rep>(k: str){
    cond {} => act { set k }
}
rule probe<#rep>(i: int, d: int){
    let far: Repeater = #rep.hop(d)
    let n: int = #repeaters.len()
    let one: int = (1)
    cond {
        @q1: res(1 + i, 0.5, far, one)
        @message: recv(far)
    } => act {
        let r: Result = measure(q1, "Z")
        if (get k == r) { set r as a }
        if (message.result == "1") { set r as b }
    }
}
ruleset timed{
    store<#repeaters(0)>("1")
    probe<#repeaters(0)>(1, 1)
}
"""


def _nodes(value):
    """Every AST node in `value`, each before the nodes inside it."""
    if isinstance(value, ast.Node):
        yield value
        for f in dataclasses.fields(value):
            yield from _nodes(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _nodes(item)


class TestBindingTime:
    """`Analysis.static` holds the expressions lowering folds before run time."""

    @pytest.mark.parametrize(
        "text,static",
        [
            ("1 + i", True),
            ("#rep.hop(d)", True),
            ("#repeaters.len()", True),
            ("(1)", True),
            ("get k", False),
            ("r", False),
            ("message.result", False),
            ("q1", False),
        ],
    )
    def test_recorded_binding_time(self, text, static):
        program = parse(BINDING_TIMES)
        analysis = analyze_program(program)
        assert analysis.diagnostics == []
        expr = next(
            node
            for node in _nodes(program)
            if BINDING_TIMES[node.span.start : node.span.end] == text
            and not type(node).__name__.endswith("Stmt")
        )
        assert id(expr) in analysis.types
        assert (id(expr) in analysis.static) is static


READ_SIDES = """\
#repeaters: vec[Repeater]
import std::operation::{measure}
rule store<#rep>(a: str, b: str, n: int){
    cond {} => act {
        set a
        set b
        set n
    }
}
rule probe<#rep>(){
    let far: Repeater = #rep.hop(1)
    cond {
        @q1: res(1, 0.5, far, 0)
        @q2: res(1, 0.5, far, 1)
        @message: recv(far)
    } => act {
        let r: Result = measure(q1, "Z")
        let r2: Result = measure(q2, "Z")
        if (r == "1") { set_timer("t", 1) }
        if (get n >= 3) { set_timer("t", 1) }
        if (message.result != "0") { set_timer("t", 1) }
        if ("1" == r) { set_timer("t", 1) }
        if (0 < get n) { set_timer("t", 1) }
        match "1" == message.result { true => { set_timer("t", 1) }, }
        if (r == message.result) { set_timer("t", 1) }
        if (get a == get b) { set_timer("t", 1) }
        if (r == r2) { set_timer("t", 1) }
        if (get a == r) { set_timer("t", 1) }
    }
}
ruleset sides{
    store<#repeaters(0)>("1", "0", 3)
    probe<#repeaters(0)>()
}
"""


class TestReadSide:
    """`Analysis.mirrored` holds the run-time comparisons read from their
    right side: those whose left side is not a reading comparable with the
    right one. A comparison of two readings is read from the left if its
    right side can be a target: a stored variable or a measurement result."""

    def test_recorded_read_side(self):
        program = parse(READ_SIDES)
        analysis = analyze_program(program)
        assert analysis.diagnostics == []
        comparisons = {
            READ_SIDES[node.span.start : node.span.end]: node
            for node in _nodes(program)
            if isinstance(node, ast.CompExpr)
        }
        assert len(comparisons) == 10
        mirrored = {text for text, node in comparisons.items() if id(node) in analysis.mirrored}
        assert mirrored == {'"1" == r', "0 < get n", '"1" == message.result', "r == message.result"}
        out = codegen.compile_program(analysis, config.load_config(
            '{"repeaters": [{"name": "#0", "address": 0}, {"name": "#1", "address": 1}]}'
        ), 7)
        assert out.ok, out.diagnostics
