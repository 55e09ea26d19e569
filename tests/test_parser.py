"""Parser coverage: full programs, statement forms, expressions, errors."""

from __future__ import annotations

import hashlib
import random

import pytest

from rula import ast
from rula.parser import (
    MAX_DEPTH,
    ParseError,
    parse,
    parse_expression,
    parse_statements,
    parse_with_warnings,
)


class TestCorpusPrograms:
    def test_swapping_program_shape(self, corpus):
        program = parse((corpus / "entanglement_swapping.rula").read_text())
        assert program.has_repeaters_decl
        assert len(program.imports) == 1
        assert program.imports[0].path == ("std", "operation")
        assert program.imports[0].names == ("z", "x", "bsm")
        assert not program.imports[0].is_rule
        assert [r.name for r in program.rules] == ["swapping"]
        assert program.ruleset is not None
        assert program.ruleset.name == "entanglement_swapping"

    def test_swapping_rule_internals(self, corpus):
        program = parse((corpus / "entanglement_swapping.rula").read_text())
        rule = program.rules[0]
        assert rule.repeater_param == "#rep"
        assert [p.name for p in rule.params] == ["distance"]
        assert rule.params[0].type_annotation.kind == "int"
        assert rule.return_types == ()
        assert len(rule.lets) == 2
        assert [c.capture for c in rule.cond.clauses] == ["q1", "q2"]
        # act: let, match, two trailing sends
        assert isinstance(rule.act.stmts[0], ast.LetStmt)
        match = rule.act.stmts[1]
        assert isinstance(match, ast.MatchStmt)
        assert [arm.pattern.value for arm in match.arms] == ["00", "01", "10", "11"]
        assert match.otherwise is not None
        assert len(match.otherwise) == 2
        assert isinstance(rule.act.stmts[2], ast.SendStmt)
        assert isinstance(rule.act.stmts[3], ast.SendStmt)

    def test_negated_hop_argument(self, corpus):
        program = parse((corpus / "entanglement_swapping.rula").read_text())
        left = program.rules[0].lets[0]
        call = left.value
        assert isinstance(call, ast.VariableCall)
        assert call.parts[0] == ast.RepeaterIdent("#rep")
        hop = call.parts[1]
        assert isinstance(hop, ast.FnCall)
        assert hop.name == "hop"
        assert hop.args == (ast.NegIdent("distance"),)

    def test_purification_program_shape(self, corpus):
        program = parse((corpus / "purification.rula").read_text())
        assert [imp.is_rule for imp in program.imports] == [False, True]
        rule_import = program.imports[1]
        assert rule_import.path == ("entanglement_swapping", "swapping")
        assert [r.name for r in program.rules] == ["local_operation", "parity_check"]
        local_op = program.rules[0]
        assert len(local_op.return_types) == 1
        assert local_op.return_types[0].type_annotation.kind == "Qubit"
        assert not local_op.return_types[0].maybe
        parity = program.rules[1]
        assert parity.return_types[0].maybe

    def test_purification_if_against_stored_result(self, corpus):
        program = parse((corpus / "purification.rula").read_text())
        parity = program.rules[1]
        if_stmt = parity.act.stmts[0]
        assert isinstance(if_stmt, ast.IfStmt)
        cond = if_stmt.branches[0][0]
        assert isinstance(cond, ast.CompExpr)
        assert cond.op == "=="
        assert isinstance(cond.lhs, ast.VariableCall)
        assert cond.rhs == ast.GetExpr("self_result")
        assert if_stmt.orelse is not None

    def test_remaining_corpus_files_parse(self, corpus):
        for name in ("multiround.rula", "chain7.rula", "two_matches.rula", "loop_probe.rula"):
            parse((corpus / name).read_text(), filename=name)

    def test_ruleset_loop_nest(self, corpus):
        program = parse((corpus / "entanglement_swapping.rula").read_text())
        outer = program.ruleset.stmts[0]
        assert isinstance(outer, ast.ForStmt)
        assert outer.names == ("d",)
        assert isinstance(outer.generator, ast.Series)
        assert outer.generator.start == 1
        inner = outer.body[0]
        assert isinstance(inner, ast.ForStmt)
        guarded = inner.body[0]
        assert isinstance(guarded, ast.IfStmt)
        call = guarded.branches[0][1][0]
        assert isinstance(call, ast.ExprStmt)
        assert isinstance(call.expr, ast.RuleCall)
        assert call.expr.name == "swapping"


class TestStatements:
    def test_let_with_tuple_target(self):
        (stmt,) = parse_statements('let (q: Qubit, r: str) = local_operation<#repeaters(0)>(1)')
        assert isinstance(stmt, ast.LetStmt)
        assert [t.name for t in stmt.targets] == ["q", "r"]
        assert stmt.targets[1].type_annotation.kind == "str"

    def test_let_with_vector_annotation(self):
        (stmt,) = parse_statements("let xs: vec[int] = [1, 2]")
        annotation = stmt.targets[0].type_annotation
        assert (annotation.kind, annotation.inner.kind, str(annotation)) == ("vec", "int", "vec[int]")

    def test_for_over_vector_literal(self):
        (stmt,) = parse_statements("for x in [1, 2, 3] { set x }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.generator, ast.VectorLit)

    def test_for_with_tuple_of_names(self):
        (stmt,) = parse_statements("for (a, b) in pairs { set a }")
        assert stmt.names == ("a", "b")

    def test_series_upper_bound_expression(self):
        (stmt,) = parse_statements("for i in 1..n+1 { set i }")
        assert isinstance(stmt.generator, ast.Series)
        assert isinstance(stmt.generator.stop, ast.TermExpr)

    def test_if_elif_else_chain(self):
        (stmt,) = parse_statements(
            "if (x == 1) { set a } else if (x == 2) { set b } else { set c }"
        )
        assert len(stmt.branches) == 2
        assert stmt.orelse is not None

    def test_match_without_otherwise(self):
        (stmt,) = parse_statements('match r { "0" => {}, "1" => {free(q)}, }')
        assert isinstance(stmt, ast.MatchStmt)
        assert stmt.otherwise is None
        assert len(stmt.arms) == 2

    def test_match_arm_multiple_statements(self):
        (stmt,) = parse_statements('match r { "0" => {free(q), free(p)}, otherwise => {} }')
        assert len(stmt.arms[0].body) == 2

    def test_promote_multiple_values(self):
        (stmt,) = parse_statements("promote q1, q2")
        assert isinstance(stmt, ast.PromoteStmt)
        assert len(stmt.values) == 2

    def test_set_with_alias(self):
        (stmt,) = parse_statements("set result as self_result")
        assert stmt == ast.SetStmt("result", "self_result")

    def test_send_parses_before_bare_call(self):
        (stmt,) = parse_statements("free(q1) -> partner")
        assert isinstance(stmt, ast.SendStmt)
        assert stmt.call.name == "free"
        (stmt,) = parse_statements("free(q1)")
        assert isinstance(stmt, ast.ExprStmt)

    def test_promoted_is_not_the_promote_keyword(self):
        (stmt,) = parse_statements("free(promoted)")
        assert isinstance(stmt, ast.ExprStmt)
        assert stmt.expr.args == (ast.Ident("promoted"),)


class TestExpressions:
    def test_arithmetic_chain_is_flat(self):
        expr = parse_expression("1 + 2 * 3 - x")
        assert isinstance(expr, ast.TermExpr)
        assert expr.ops == ("+", "*", "-")

    def test_parenthesized_subterm(self):
        expr = parse_expression("i % (2 * d)")
        assert expr.ops == ("%",)
        inner = expr.operands[1]
        assert isinstance(inner, ast.TermExpr)
        assert inner.ops == ("*",)

    def test_single_parenthesized_expression_is_unary_tuple(self):
        expr = parse_expression("(#repeaters.len()/2)")
        assert isinstance(expr, ast.TupleLit)
        assert len(expr.items) == 1

    def test_comparison_operators(self):
        for op in ("<", ">", "<=", ">=", "==", "!="):
            expr = parse_expression(f"a {op} b")
            assert isinstance(expr, ast.CompExpr)
            assert expr.op == op

    def test_number_literals(self):
        assert parse_expression("42") == ast.IntLit(42)
        assert parse_expression("-7") == ast.IntLit(-7)
        assert parse_expression("0.8") == ast.FloatLit(0.8)
        assert parse_expression("1e5") == ast.FloatLit(100000.0)
        assert parse_expression("2.5e-3") == ast.FloatLit(0.0025)

    def test_radix_literals(self):
        assert parse_expression("0b1001011") == ast.IntLit(75)
        assert parse_expression("0x13ed232") == ast.IntLit(20894258)

    def test_unicord_literal(self):
        expr = parse_expression("0u1F98A")
        assert isinstance(expr, ast.UnicordLit)
        assert expr.text == "1F98A"

    def test_trailing_letter_rejected_on_int(self):
        with pytest.raises(ParseError):
            parse_expression("1x")

    def test_string_rejects_backslash(self):
        with pytest.raises(ParseError):
            parse_expression(r'"a\n"')

    def test_vector_with_trailing_comma(self):
        expr = parse_expression("[1, 2, 3,]")
        assert isinstance(expr, ast.VectorLit)
        assert len(expr.items) == 3

    def test_empty_tuple(self):
        assert parse_expression("()") == ast.TupleLit(())

    def test_repeater_method_chain(self):
        expr = parse_expression("#repeaters.len()")
        assert isinstance(expr, ast.VariableCall)
        assert expr.parts == (ast.RepeaterIdent("#repeaters"), ast.FnCall("len"))

    def test_rule_call_with_term_index(self):
        expr = parse_expression("swapping<#repeaters(i+1)>(d)")
        assert isinstance(expr, ast.RuleCall)
        assert isinstance(expr.repeater.index, ast.TermExpr)
        assert expr.args == (ast.Ident("d"),)

    def test_upper_case_booleans_are_operands(self):
        expr = parse_expression("TRUE < False")
        assert isinstance(expr, ast.CompExpr)
        assert (expr.lhs, expr.rhs) == (ast.BoolLit(True), ast.BoolLit(False))

    def test_reserved_words_are_not_identifiers(self):
        for word in ("rule", "cond", "act", "Qubit", "vec"):
            with pytest.raises(ParseError):
                parse_expression(word)


class TestProgramForms:
    def test_minimal_rule_without_annotation(self):
        program = parse(
            "rule noop<#rep>(){ cond { @q: res(1, 0.5, p, 0) } => act { free(q) } }"
        )
        assert program.rules[0].params == ()
        assert not program.has_repeaters_decl

    def test_trailing_statements_after_act(self):
        program = parse(
            "rule t<#rep>(){ cond {} => act {} set marker }"
        )
        assert len(program.rules[0].trailing) == 1

    def test_plain_arrow_return_annotation_warns(self):
        source = "rule t<#rep>() -> Qubit { cond {} => act { promote q } }"
        program, warnings = parse_with_warnings(source)
        assert program.rules[0].return_types[0].type_annotation.kind == "Qubit"
        assert len(warnings) == 1
        assert '":->"' in warnings[0].message

    def test_canonical_arrow_has_no_warning(self):
        source = "rule t<#rep>() :-> Qubit { cond {} => act { promote q } }"
        _, warnings = parse_with_warnings(source)
        assert warnings == []

    def test_tuple_return_annotation(self):
        source = "rule t<#rep>() :-> (Qubit, str) { cond {} => act {} }"
        program = parse(source)
        kinds = [r.type_annotation.kind for r in program.rules[0].return_types]
        assert kinds == ["Qubit", "str"]

    def test_import_single_name(self):
        program = parse("import std::operation::bsm")
        assert program.imports[0].path == ("std", "operation", "bsm")
        assert program.imports[0].names == ()

    def test_rule_import_marker_with_spaces(self):
        program = parse("import ( rule ) lib::helper")
        assert program.imports[0].is_rule

    def test_comments_everywhere(self):
        program = parse(
            "/* leading */ #repeaters: vec[Repeater] // trailing\n"
            "rule t<#rep>(){ /* inner */ cond {} => act {} } // done\n"
        )
        assert program.has_repeaters_decl
        assert len(program.rules) == 1

    def test_keywords_are_case_insensitive(self):
        program = parse("RULE t<#rep>(){ COND {} => ACT {} }")
        assert program.rules[0].name == "t"


class TestErrors:
    def test_error_position_and_expectation(self):
        source = "rule t<#rep>(){ cond {} => }"
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        err = exc_info.value
        assert err.line == 1
        assert source[err.pos] == "}"
        assert "act" in err.expected

    def test_unclosed_block(self):
        with pytest.raises(ParseError):
            parse("ruleset r { set a ")

    def test_garbage_after_program(self):
        with pytest.raises(ParseError) as exc_info:
            parse("ruleset r { } $$$")
        assert "end of input" in exc_info.value.expected

    def test_error_points_into_offending_line(self):
        source = "ruleset r {\n    let q Qubit = f(1)\n}\n"
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        assert exc_info.value.line == 2


class TestGrammarCorners:
    def test_less_than_is_a_comparison_next_to_a_rule_call(self):
        comparison = parse_expression("a < b")
        assert isinstance(comparison, ast.CompExpr)
        assert (comparison.lhs, comparison.op, comparison.rhs) == (
            ast.Ident("a"), "<", ast.Ident("b")
        )
        call = parse_expression("r<#repeaters(i)>()")
        assert isinstance(call, ast.RuleCall)
        assert call.repeater.index == ast.Ident("i")
        assert call.args == ()

    def test_less_or_equal_is_not_shadowed_by_less(self):
        expr = parse_expression("x <= y")
        assert isinstance(expr, ast.CompExpr)
        assert expr.op == "<="
        assert expr.rhs == ast.Ident("y")

    def test_parenthesised_name_is_a_tuple_that_takes_no_operator(self):
        source = "(a) + b"
        with pytest.raises(ParseError) as exc_info:
            parse_expression(source)
        assert exc_info.value.pos == source.index("+")
        assert exc_info.value.expected == ["end of input"]

    def test_exponent_needs_digits(self):
        assert parse_expression("1e3") == ast.FloatLit(1000.0)
        with pytest.raises(ParseError) as exc_info:
            parse_expression("1e")
        assert (exc_info.value.pos, exc_info.value.expected) == (1, ["number"])

    @pytest.mark.parametrize(
        "template", ["{}", "for d in {}..3 {{}}", "r<#repeaters({})>()", "r<#repeaters({}+1)>()"]
    )
    def test_integer_too_long_for_int_is_a_parse_error(self, template):
        big = "7" * 5001
        source = template.format(big)
        with pytest.raises(ParseError) as exc_info:
            parse_statements(source)
        assert exc_info.value.pos == source.index(big)

    @pytest.mark.parametrize("big", ["0x" + "F" * 3572, "0b" + "1" * 14286], ids=["hex", "binary"])
    def test_radix_integer_over_4300_digits_is_a_parse_error(self, big):
        # int() converts these, but the writer could not print them
        source = f"let x: int = {big}"
        with pytest.raises(ParseError) as exc_info:
            parse_statements(source)
        assert exc_info.value.pos == source.index(big)
        assert parse_expression("0x" + "F" * 3571) == ast.IntLit(16**3571 - 1)

    def test_radix_prefixes_without_digits(self):
        assert parse_expression("0b") == ast.IntLit(0)
        assert parse_expression("0x") == ast.IntLit(0)
        assert parse_expression("0u") == ast.UnicordLit("")

    def test_promote_promoted(self):
        (stmt,) = parse_statements("promote promoted")
        assert stmt == ast.PromoteStmt((ast.Ident("promoted"),))

    def test_unterminated_block_comment_runs_to_the_end(self):
        assert parse("ruleset r { } /* never closed").ruleset.stmts == ()
        source = "ruleset r { /* never closed"
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        assert exc_info.value.pos == len(source)
        assert '"}"' in exc_info.value.expected

    def test_unclosed_string_expects_closing_quote(self):
        with pytest.raises(ParseError) as exc_info:
            parse_expression('"abc')
        assert (exc_info.value.pos, exc_info.value.expected) == (4, ["closing quote"])


def nested(kind: str, depth: int) -> tuple[str, str]:
    """A program whose brackets nest `depth` deep, the ruleset brace being the
    first level, and the brackets that open its levels."""
    k = depth - 1
    if kind == "parens":
        return "ruleset r { let x: int = " + "(" * k + "1" + ")" * k + " }", "({"
    return "ruleset r { " + "if (true) { " * k + "let x: int = 1" + " }" * k + " }", "{"


def opener(source: str, brackets: str, level: int) -> int:
    return [i for i, ch in enumerate(source) if ch in brackets][level - 1]


class TestNesting:
    @pytest.mark.parametrize("kind", ["parens", "ifs"])
    def test_the_limit_parses(self, kind):
        parse(nested(kind, MAX_DEPTH)[0])

    @pytest.mark.parametrize("kind", ["parens", "ifs"])
    def test_one_level_deeper_is_a_parse_error_at_its_bracket(self, kind):
        source, brackets = nested(kind, MAX_DEPTH + 1)
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        assert exc_info.value.pos == opener(source, brackets, MAX_DEPTH + 1)
        assert exc_info.value.expected == [f"at most {MAX_DEPTH} nested brackets"]
        assert exc_info.value.source == source

    @pytest.mark.parametrize("kind,depth", [("parens", 401), ("ifs", 301)])
    def test_inputs_that_overflowed_the_stack(self, kind, depth):
        source, brackets = nested(kind, depth)
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        assert exc_info.value.pos == opener(source, brackets, MAX_DEPTH + 1)


class TestSpans:
    def test_rule_span_covers_definition(self, corpus):
        source = (corpus / "entanglement_swapping.rula").read_text()
        program = parse(source)
        rule = program.rules[0]
        text = source[rule.span.start : rule.span.end]
        assert text.startswith("rule swapping")
        assert text.endswith("}")

    def test_expression_span_is_tight(self):
        source = "   free(q1)   "
        expr = parse_expression(source)
        assert source[expr.span.start : expr.span.end] == "free(q1)"


# --- pinned behaviour ---------------------------------------------------------

STATEMENT_FRAGMENTS = [
    "let (q: Qubit, r: str) = local_operation<#repeaters(0)>(1)",
    "for x in [1, 2, 3] { set x }",
    "for (a, b) in pairs { set a }",
    "for i in 1..n+1 { set i }",
    "if (x == 1) { set a } else if (x == 2) { set b } else { set c }",
    'match r { "0" => {}, "1" => {free(q)}, }',
    'match r { "0" => {free(q), free(p)}, otherwise => {} }',
    "promote q1, q2",
    "set result as self_result",
    "free(q1) -> partner",
    "free(q1)",
    "free(promoted)",
]
EXPRESSION_FRAGMENTS = [
    "1 + 2 * 3 - x",
    "i % (2 * d)",
    "(#repeaters.len()/2)",
    *(f"a {op} b" for op in ("<", ">", "<=", ">=", "==", "!=")),
    "42",
    "-7",
    "0.8",
    "1e5",
    "2.5e-3",
    "0b1001011",
    "0x13ed232",
    "0u1F98A",
    "1x",
    r'"a\n"',
    "[1, 2, 3,]",
    "()",
    "#repeaters.len()",
    "swapping<#repeaters(i+1)>(d)",
    "rule",
    "cond",
    "act",
    "Qubit",
    "vec",
    "   free(q1)   ",
]
MUTANT_ALPHABET = '(){}[]<>=!+-*/%^.,:;@#"0123456789abcdefghijklmnopqrstuvwxyz_ \n\t'


def corpus_sources(corpus) -> list[str]:
    return [path.read_text() for path in sorted(corpus.glob("*.rula"))]


def mutants(sources: list[str], count: int, seed: int) -> list[str]:
    """Character-level mutants: 1-4 deletions, insertions or replacements."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 4)):
            op = rng.randrange(3)
            i = rng.randrange(len(text) + (op == 1))
            if op == 0:
                text = text[:i] + text[i + 1 :]
            elif op == 1:
                text = text[:i] + rng.choice(MUTANT_ALPHABET) + text[i:]
            else:
                text = text[:i] + rng.choice(MUTANT_ALPHABET) + text[i + 1 :]
        out.append(text)
    return out


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def outcome(fn, source: str) -> str:
    try:
        return repr(fn(source))
    except ParseError as err:
        return f"ParseError {err.line}:{err.column} {err.expected}"


class TestParserPinned:
    """ASTs (with spans), warnings and error positions recorded from the
    backtracking parser that the precedence-climbing one replaced."""

    def test_corpus_and_generated_programs(self, corpus):
        from test_acceptance import ProgramGen

        gen = ProgramGen(random.Random(0xF522))
        sources = corpus_sources(corpus) + [gen.program() for _ in range(2000)]
        assert digest(repr(parse_with_warnings(s)) for s in sources) == (
            "8920ea7c629b9aa6b80ff59da508348423d26f7b009f6e407dc091b18ac66a1d"
        )

    def test_fragments(self):
        lines = [outcome(parse_statements, s) for s in STATEMENT_FRAGMENTS]
        lines += [outcome(parse_expression, s) for s in EXPRESSION_FRAGMENTS]
        assert digest(lines) == "7c84741165dc9c40bf8511ef1f07a425a8b32d295d51a3d2892535ad25ec8fde"

    def test_mutants(self, corpus):
        verdicts, accepted = [], []
        for source in mutants(corpus_sources(corpus), 3000, seed=0x5EED):
            try:
                result = parse_with_warnings(source)
            except ParseError as err:
                verdicts.append(f"{err.line}:{err.column}")
            else:
                verdicts.append("accepted")
                accepted.append(repr(result))
        assert (len(accepted), digest(verdicts), digest(accepted)) == (
            698,
            "29408dfaaac031a31dbc3115535ec70c8cb7d0a17e8d47dba18acf5e4a591739",
            "8e1fc0716735c5957926a2bc590d2fe910b7e623acbd9e665974fe36c0223960",
        )
