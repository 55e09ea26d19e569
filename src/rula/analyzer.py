"""Static analysis: name resolution, typing, and rule-level well-formedness.

This is the one layer that rejects a program for its shape; lowering
(codegen) assumes a program analyzed clean and reports only faults that need
the concrete chain or the values it folds.  The checks: promote/return-
annotation consistency (only qubits are promoted), the send whitelist, set/get
dataflow ordering across the ruleset body, condition-clause vocabulary and
literal res arguments, the method table for repeater values, the statement
and condition forms lowering can express, qubit lifetimes (no use after a
measure, bsm or free on the same path, two distinct qubits per two-qubit
operation), and the values lowering folds before run time: each must fold
(`compile-time`), and repeater indices, hop offsets and loop bounds are
integers.  Analysis never stops at the first problem; every diagnostic found
is collected and returned.

The checker visits each rule, then the ruleset body, once.  The ruleset
walk also orders the rule calls: each `get` in a called rule needs a call
before it to the rule that `set`s the name.  It also collects the names the
body reads, so a promoted qubit bound and never used draws a warning.  A
diagnostic in a rule spliced in by `import (rule)` names that rule's file.

Typing is the one place that rejects a misplaced call: a rule call outside a
ruleset-level statement or let value, a cond function (res, recv,
check_timer) outside a cond clause, a send builder (update, meas, transfer)
not before "->".  The checks of those positions read such calls untyped, so
`type_of` gives one error at any such call it meets and types it None.

Beside the type of each expression, `type_of` records its binding time
(Jones, Gomard & Sestoft, *Partial Evaluation and Automatic Program
Generation*, ch. 5): `Analysis.static` holds the expressions lowering folds
before run time.  Lowering reads it to tell a compile-time `if` or `match`
from a run-time one.  Beside binding time, `Analysis.mirrored` records the
side of each run-time comparison that is read: the left one if it is a
reading comparable with the right one, else the right one, and lowering
swaps the sides and mirrors the operator of each comparison it holds.

Type names are plain strings ("int", "Qubit", ...).  A None type means the
expression could not be typed because of an earlier error; downstream checks
skip None rather than cascading.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from . import ast
from .parser import ParseError, parse

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

# Functions allowed inside cond blocks, with (parameter types, capture type).
COND_FUNCTIONS: dict[str, tuple[tuple[str, ...], str | None]] = {
    "res": (("u_int", "float", "Repeater", "u_int"), "Qubit"),
    "recv": (("Repeater",), "Message"),
    "check_timer": (("str",), None),
}

# Message builders allowed on the left of "->".
SEND_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "update": ("Qubit", "correction"),
    "meas": ("Qubit", "Result"),
    "transfer": ("Qubit",),
    "free": ("Qubit",),
}

# Names provided by the std::operation library.
STD_OPERATION = frozenset({"x", "y", "z", "h", "cx", "cz", "bsm", "measure"})

# Operations an act block may call: parameter types, and whether the
# operation consumes the qubits it is given.
OPERATIONS: dict[str, tuple[tuple[str, ...], bool]] = {
    **{gate: (("Qubit",), False) for gate in ("x", "y", "z", "h")},
    "cx": (("Qubit", "Qubit"), False),
    "cz": (("Qubit", "Qubit"), False),
    "bsm": (("Qubit", "Qubit"), True),
    "measure": (("Qubit", "str"), True),
    "free": (("Qubit",), True),
    "set_timer": (("str", "int"), False),
}

_SINGLE_QUBIT_GATES = frozenset({"x", "y", "z", "h"})
_NUMERIC = frozenset({"int", "u_int", "float"})
_INTEGER = frozenset({"int", "u_int"})
_MATCHABLE = frozenset({"Result", "int", "u_int", "str", "bool"})
_PATTERNS = {"Result": ast.StringLit, "str": ast.StringLit, "int": ast.IntLit,
             "u_int": ast.IntLit, "bool": ast.BoolLit}
# Types of the values lowering can fold before run time, and the expressions
# that fold whatever their parts; a ruleset-level condition folds over
# integers and booleans only.
_STATIC = frozenset({"int", "u_int", "float", "bool", "str", "Repeater", "vec[Repeater]"})
_STATIC_LEAVES = (ast.IntLit, ast.FloatLit, ast.StringLit, ast.BoolLit, ast.Ident, ast.NegIdent,
                  ast.RepeaterIdent)
_INTEGRAL = _INTEGER | {"bool"}
_UNKNOWN_MEMBER = {
    "vec[Repeater]": "repeaters vector has no method",
    "Repeater": "Repeater has no method",
    "Message": "Message has no field",
}
# How run-time operands must be written: qubits and results by name, a
# correction as a gate call such as z().
_OPERAND_FORMS = {"Qubit": ast.Ident, "Result": ast.Ident, "correction": ast.FnCall}
# A scope maps each name in scope to its type (None after an error); a
# nested block binds into a copy, so its names end with it.
_Scope = dict


@ast.node
class Diagnostic(ast.Value):
    severity: str
    code: str
    span: ast.Span
    message: str
    # the file and text `span` points into, if not the program's own
    origin: tuple[str, str] | None = field(default=None, repr=False)

    @property
    def is_error(self) -> bool:
        return self.severity == SEVERITY_ERROR


@ast.node
class RuleSignature(ast.Value):
    name: str
    param_types: tuple[str | None, ...]
    return_types: tuple[str, ...]
    maybe_flags: tuple[bool, ...]


@dataclass
class Analysis:
    program: ast.Program
    diagnostics: list[Diagnostic] = field(default_factory=list)
    types: dict[int, str] = field(default_factory=dict)
    # binding time: the ids of the expressions lowering folds before run time
    static: set[int] = field(default_factory=set)
    # the ids of the run-time comparisons lowering reads from their right side
    mirrored: set[int] = field(default_factory=set)
    signatures: dict[str, RuleSignature] = field(default_factory=dict)
    # set-producers: variable name -> (rule name, type or None)
    producers: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    # per-rule get consumption: rule name -> [(variable name, span), ...]
    consumers: dict[str, list[tuple[str, ast.Span]]] = field(default_factory=dict)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def ok(self) -> bool:
        return not self.errors


class _Checker:
    def __init__(self, program: ast.Program):
        self.program = program
        self.out = Analysis(program)
        self.origins = {rule.name: rule.origin for rule in program.rules}
        self.current_rule: str | None = None
        # Gathered on the walk of the ruleset body and reported at its end:
        # the rules called so far and the gets already ordered against them,
        # the get-before-set errors, the names the body reads and the
        # promoted qubits it binds.
        self.called: set[str] = set()
        self.reported: set[int] = set()
        self.order_errors: list[Diagnostic] = []
        self.used: set[str] = set()
        self.promoted: list[ast.TypedName] = []

    # --- diagnostics ---------------------------------------------------------

    def error(self, code: str, span: ast.Span, message: str, severity=SEVERITY_ERROR) -> None:
        origin = self.origins.get(self.current_rule)
        self.out.diagnostics.append(Diagnostic(severity, code, span, message, origin))

    def get_before_set(self, rule_name: str, span: ast.Span, message: str) -> None:
        error = Diagnostic(SEVERITY_ERROR, "get-before-set", span, message, self.origins[rule_name])
        self.order_errors.append(error)

    # --- entry ---------------------------------------------------------------

    def run(self) -> Analysis:
        self.check_imports()
        self.collect_signatures()
        self.collect_producers()
        for rule in self.program.rules:
            self.check_rule(rule)
        if self.program.ruleset is not None:
            self.check_ruleset(self.program.ruleset)
        else:
            # Without a ruleset body there is no call order; flag gets that can
            # never be satisfied because the name is set nowhere at all.
            for rule_name, gets in self.out.consumers.items():
                for name, span in gets:
                    if name not in self.out.producers:
                        self.get_before_set(rule_name, span, f"{name} is never set")
        self.out.diagnostics.extend(self.order_errors)
        for target in self.promoted:
            if target.name not in self.used:
                message = f"unused promoted qubit {target.name}"
                self.error("unused-promoted", target.span, message, SEVERITY_WARNING)
        return self.out

    def check_imports(self) -> None:
        for imp in self.program.imports:
            if imp.is_rule:
                # Spliced by resolve_imports; here the statement itself is inert.
                continue
            if imp.path[:2] == ("std", "operation"):
                members = imp.names if imp.names else imp.path[2:]
                for member in members:
                    if member not in STD_OPERATION:
                        self.error(
                            "unknown-import",
                            imp.span,
                            f"std::operation has no member {member!r}",
                        )
            else:
                self.error(
                    "unknown-import",
                    imp.span,
                    f"module not found: {'::'.join(imp.path)}",
                )

    # --- signatures and producers --------------------------------------------

    def collect_signatures(self) -> None:
        for rule in self.program.rules:
            if rule.name in self.out.signatures:
                self.error("duplicate-rule", rule.span, f"rule {rule.name} is already defined")
                continue
            self.out.signatures[rule.name] = RuleSignature(
                rule.name,
                tuple(_declared(p) for p in rule.params),
                tuple(str(r.type_annotation) for r in rule.return_types),
                tuple(r.maybe for r in rule.return_types),
            )

    def _annotated_names(self, rule: ast.RuleStmt) -> dict[str, str]:
        """Names with statically declared types, for producer pre-scan."""
        known: dict[str, str] = {}
        for p in rule.params:
            if p.type_annotation is not None:
                known[p.name] = str(p.type_annotation)
        for let in rule.lets:
            for target in let.targets:
                if target.type_annotation is not None:
                    known[target.name] = str(target.type_annotation)
        for clause in rule.cond.clauses if rule.cond else []:
            if clause.capture and isinstance(clause.call, ast.FnCall):
                entry = COND_FUNCTIONS.get(clause.call.name)
                if entry and entry[1]:
                    known[clause.capture] = entry[1]
        for stmt in _walk(_body(rule)):
            if isinstance(stmt, ast.LetStmt):
                for target in stmt.targets:
                    if target.type_annotation is not None:
                        known[target.name] = str(target.type_annotation)
        return known

    def collect_producers(self) -> None:
        for rule in self.program.rules:
            known = self._annotated_names(rule)
            for stmt in _walk(_body(rule)):
                if isinstance(stmt, ast.SetStmt):
                    produced = stmt.alias or stmt.name
                    self.out.producers.setdefault(produced, (rule.name, known.get(stmt.name)))

    # --- rule bodies ----------------------------------------------------------

    def check_rule(self, rule: ast.RuleStmt) -> None:
        self.current_rule = rule.name
        self.out.consumers.setdefault(rule.name, [])
        scope = _Scope()
        scope[rule.repeater_param] = "Repeater"
        seen_params: set[str] = set()
        for p in rule.params:
            if p.name in seen_params:
                self.error("duplicate-param", p.span, f"duplicate parameter {p.name}")
            seen_params.add(p.name)
            if p.type_annotation is None:
                self.error("missing-type", p.span, f"parameter {p.name} needs a type annotation")
            scope[p.name] = _declared(p)

        for let in rule.lets:
            if self.check_let(let, scope):
                self.check_folds(let.value, "a let before cond binds a compile-time value")

        act_scope = _Scope(scope)
        if rule.cond is not None:
            self.check_cond(rule.cond, scope, act_scope)

        promotes: list[ast.PromoteStmt] = []
        consumed: set[str] = set()
        for stmt in _body(rule):
            self.check_act_stmt(stmt, act_scope, promotes, consumed)

        self.check_promotes(rule, promotes, act_scope)
        self.current_rule = None

    def check_cond(self, cond: ast.CondExpr, rule_scope: _Scope, act_scope: _Scope) -> None:
        indices: set[int] = set()
        for clause in cond.clauses:
            call = clause.call
            if not isinstance(call, ast.FnCall):
                self.error(
                    "bad-cond-clause",
                    clause.span,
                    "condition clauses must be res, recv or check_timer calls",
                )
                continue
            entry = COND_FUNCTIONS.get(call.name)
            if entry is None:
                self.error(
                    "bad-cond-clause",
                    clause.span,
                    f"{call.name} is not a condition function "
                    "(expected res, recv or check_timer)",
                )
                continue
            param_types, capture_type = entry
            self.check_call_args(call, param_types, rule_scope)
            if call.name == "res" and len(call.args) == len(param_types):
                self.check_res_literals(*call.args, indices)
            if clause.capture is not None:
                if capture_type is None:
                    self.error(
                        "bad-capture",
                        clause.span,
                        f"{call.name} does not produce a value to capture",
                    )
                elif clause.capture in act_scope:
                    self.error(
                        "duplicate-capture",
                        clause.span,
                        f"duplicate capture {clause.capture}",
                    )
                else:
                    act_scope[clause.capture] = capture_type

    def check_res_literals(self, count, fidelity, _partner, index, indices: set[int]) -> None:
        """Literal res arguments; `indices` holds the qubit indices of earlier clauses."""
        if isinstance(count, ast.IntLit) and count.value < 1:
            self.error("bad-res", count.span, f"resource count {count.value} below 1")
        if isinstance(fidelity, (ast.IntLit, ast.FloatLit)) and not 0 <= fidelity.value <= 1:
            self.error("bad-res", fidelity.span, f"fidelity {fidelity.value} outside [0, 1]")
        if isinstance(index, ast.IntLit):
            if index.value in indices:
                message = f"qubit index {index.value} is claimed by an earlier res clause"
                self.error("bad-res", index.span, message)
            indices.add(index.value)

    def check_call_args(
        self, call: ast.FnCall, param_types: tuple[str, ...], scope: _Scope
    ) -> None:
        if len(call.args) != len(param_types):
            self.error(
                "arity",
                call.span,
                f"{call.name} expects {len(param_types)} argument(s), got {len(call.args)}",
            )
        for arg, expected in zip(call.args, param_types):
            actual = self.type_of(arg, scope)
            if actual is not None and not _compatible(expected, actual):
                self.error(
                    "type-mismatch",
                    arg.span,
                    f"{call.name} expects {expected}, got {actual}",
                )
            elif expected not in _OPERAND_FORMS:
                self.check_folds(arg, f"{call.name} takes a compile-time {expected}")
            elif actual is not None and not isinstance(arg, _OPERAND_FORMS[expected]):
                self.error(
                    "type-mismatch", arg.span, f"{call.name} takes a {expected} by its name"
                )

    def check_let(self, let: ast.LetStmt, scope: _Scope) -> bool:
        """Bind the targets of `let`; False if the let itself is mistyped."""
        value_type = self.type_of(let.value, scope)
        if len(let.targets) == 1:
            target = let.targets[0]
            declared = _declared(target)
            scope[target.name] = _bound(declared, value_type)
            if declared and value_type and not _compatible(declared, value_type):
                self.error(
                    "type-mismatch",
                    let.span,
                    f"cannot bind {value_type} value to {target.name}: {declared}",
                )
                return False
            return True
        # Tuple target: only a ruleset-level rule call binds several values,
        # and type_of has reported one that stands here.
        if not isinstance(let.value, ast.RuleCall):
            self.error("arity", let.span, "only a rule call binds several targets")
        for target in let.targets:
            scope[target.name] = _declared(target)
        return False

    def check_act_stmt(
        self, stmt: ast.Stmt, scope: _Scope, promotes: list, consumed: set[str]
    ) -> None:
        """Check one act statement; `consumed` holds the qubits that earlier
        statements on this path measured or freed, and grows with this one."""
        if isinstance(stmt, ast.LetStmt):
            typed = self.check_let(stmt, scope)
            if isinstance(stmt.value, ast.FnCall):  # bsm or measure; other calls are mistyped
                self.use_qubits(stmt.value, consumed)
            elif typed:
                message = "a let in an act block binds bsm(), measure() or a compile-time value"
                self.check_folds(stmt.value, message)
        elif isinstance(stmt, ast.SendStmt):
            self.check_send(stmt, scope)
        elif isinstance(stmt, ast.SetStmt):
            if stmt.name not in scope:
                self.error("unknown-name", stmt.span, f"unknown identifier {stmt.name}")
        elif isinstance(stmt, ast.PromoteStmt):
            promotes.append(stmt)
            for value in stmt.values:
                self.type_of(value, scope)
            self.check_live(stmt.values, consumed)
        elif isinstance(stmt, ast.MatchStmt):
            self.check_match(stmt, scope, promotes, consumed)
        elif isinstance(stmt, ast.IfStmt):
            self.check_act_if(stmt, scope, promotes, consumed)
        elif isinstance(stmt, ast.ForStmt):
            self.error(
                "unsupported-stmt", stmt.span, "for loops are not allowed inside act blocks"
            )
        else:
            self.check_action_expr(stmt.expr, scope, consumed)

    def check_block(
        self, stmts, scope: _Scope, promotes: list, consumed: set[str]
    ) -> set[str]:
        """Check a branch in a scope of its own; returns what is consumed at its end."""
        inner, path = _Scope(scope), set(consumed)
        for stmt in stmts:
            self.check_act_stmt(stmt, inner, promotes, path)
        return path

    def use_qubits(self, call: ast.FnCall, consumed: set[str]) -> None:
        """The qubit operands of an operation: each must still be live, a
        two-qubit operation needs two different ones, and measure, bsm and
        free consume theirs."""
        entry = OPERATIONS.get(call.name)
        if entry is None:
            return
        params, consumes = entry
        qubits = [arg for arg, t in zip(call.args, params) if t == "Qubit"]
        names = self.check_live(qubits, consumed)
        if len(names) == 2 and names[0] == names[1]:
            self.error("same-qubit", qubits[1].span, f"{call.name} needs two different qubits")
        if consumes:
            consumed.update(names)

    def check_live(self, values, consumed: set[str]) -> list[str]:
        """Names of the Qubit values, reporting each consumed earlier on this path."""
        names = []
        for value in values:
            if isinstance(value, ast.Ident) and self.out.types.get(id(value)) == "Qubit":
                if value.name in consumed:
                    self.error(
                        "consumed-qubit",
                        value.span,
                        f"{value.name} was measured or freed earlier on this path",
                    )
                names.append(value.name)
        return names

    def check_condition(self, cond: ast.Expr, actual: str | None) -> None:
        """A compile-time condition, of type `actual`, must be a comparison."""
        if actual not in (None, "bool") and not isinstance(cond, ast.GetExpr):
            self.error("type-mismatch", cond.span, f"condition must be a comparison, got {actual}")

    def check_act_if(
        self, stmt: ast.IfStmt, scope: _Scope, promotes: list, consumed: set[str]
    ) -> None:
        # Lowering folds the chain when its first condition has a compile-time
        # value; otherwise every condition becomes a run-time comparison.
        # A condition left untyped by an error is not typed twice.
        first = stmt.branches[0][0]
        first_type = self.type_of(first, scope)
        runtime = id(first) not in self.out.static
        after = set(consumed)
        for cond, body in stmt.branches:
            actual = first_type if cond is first else self.type_of(cond, scope)
            if runtime:
                self.check_lowered_comparison(cond)
            else:
                self.check_condition(cond, actual)
                self.check_folds(cond, "a condition after a compile-time one is compile-time too")
            after |= self.check_block(body, scope, promotes, consumed)
        if stmt.orelse is not None:
            after |= self.check_block(stmt.orelse, scope, promotes, consumed)
        consumed |= after

    def check_match(
        self, stmt: ast.MatchStmt, scope: _Scope, promotes: list, consumed: set[str]
    ) -> None:
        subject = stmt.subject
        subject_type = self.type_of(subject, scope)
        reading = ast.unparen(subject)
        if subject_type is not None and subject_type not in _MATCHABLE:
            self.error(
                "bad-match",
                subject.span,
                f"match subject must be Result, int, str, or bool, got {subject_type}",
            )
            subject_type = None
        elif id(subject) in self.out.static:
            pass
        elif isinstance(reading, ast.CompExpr):
            self.check_lowered_comparison(reading)
        elif not self._reads(reading):
            self.error(
                "bad-match",
                subject.span,
                "a run-time match subject must be a stored variable, "
                "a measurement result or a message field",
            )
        after = set(consumed)
        for arm in stmt.arms:
            self.check_match_pattern(arm.pattern, subject_type)
            after |= self.check_block(arm.body, scope, promotes, consumed)
        if stmt.otherwise is not None:
            # An otherwise arm ends the rule: nothing after the match runs on it.
            self.check_block(stmt.otherwise, scope, promotes, consumed)
        consumed |= after

    def check_match_pattern(self, pattern: ast.Expr, subject_type: str | None) -> None:
        expected = _PATTERNS.get(subject_type)
        if expected is None:
            if not isinstance(pattern, (ast.StringLit, ast.IntLit, ast.BoolLit)):
                self.error(
                    "bad-match", pattern.span, "a match arm must be a string, integer or boolean literal"
                )
        elif not isinstance(pattern, expected):
            if expected is ast.StringLit:
                message = f"{subject_type} values match only against string literals"
            elif expected is ast.IntLit:
                message = "expected an integer literal pattern"
            else:
                message = "expected a boolean literal pattern"
            self.error("bad-match", pattern.span, message)

    # Lowering folds the expressions in `Analysis.static` and reads a run-time
    # condition as a comparison of one of these readings with a value or with
    # another reading.  It evaluates an expression at a folding position with
    # no check of its own, so every such position calls `check_folds`.

    def check_folds(self, expr: ast.Expr, message: str) -> bool:
        """Whether `expr`, at a position lowering folds, is static; reports it if not."""
        static = id(expr) in self.out.static
        if not static:
            self.fold_error(expr.span, message)
        return static

    def fold_error(self, span: ast.Span, message: str) -> None:
        """Report a value lowering cannot fold, unless an error inside it is
        reported already."""
        origin = self.origins.get(self.current_rule)
        for d in self.out.diagnostics:
            inside = span.start <= d.span.start and d.span.end <= span.end
            if d.is_error and inside and d.origin == origin:
                return
        self.error("compile-time", span, message)

    def _reads(self, expr: ast.Expr) -> bool:
        """A stored variable, a measurement result or a message field."""
        if isinstance(expr, ast.GetExpr):
            return True
        if isinstance(expr, ast.Ident):
            return self.out.types.get(id(expr)) == "Result"
        return (
            isinstance(expr, ast.VariableCall)
            and len(expr.parts) == 2
            and all(isinstance(part, ast.Ident) for part in expr.parts)
            and self.out.types.get(id(expr.parts[0])) == "Message"
        )

    def _comparable_with(self, reading: ast.Expr, other: ast.Expr) -> bool:
        if not self._reads(reading):
            return False
        if isinstance(other, ast.GetExpr):
            return True
        other_type = self.out.types.get(id(other))
        if isinstance(other, ast.Ident) and other_type == "Result":
            return True
        return id(other) in self.out.static and other_type in (None, "int", "u_int", "bool", "str")

    def check_lowered_comparison(self, cond: ast.Expr) -> None:
        """A run-time condition is read from its left side if it can be, else
        from its right side, which `Analysis.mirrored` records."""
        if isinstance(cond, ast.CompExpr):
            if self._comparable_with(cond.lhs, cond.rhs):
                return
            if self._comparable_with(cond.rhs, cond.lhs):
                self.out.mirrored.add(id(cond))
                return
        self.error(
            "bad-match",
            cond.span,
            "a run-time condition must compare a stored variable, a measurement result "
            "or a message field with an integer, string or boolean value or another of these",
        )

    def check_send(self, stmt: ast.SendStmt, scope: _Scope) -> None:
        call = stmt.call
        if call.name not in SEND_FUNCTIONS:
            self.error(
                "bad-send",
                stmt.span,
                f"send requires one of update/free/meas/transfer, got {call.name}",
            )
        else:
            self.check_call_args(call, SEND_FUNCTIONS[call.name], scope)
        dest_type = self.type_of(stmt.destination, scope)
        if dest_type is not None and dest_type != "Repeater":
            self.error(
                "bad-send",
                stmt.destination.span,
                f"send destination must be a Repeater, got {dest_type}",
            )
        else:
            self.check_folds(stmt.destination, "a send destination is a compile-time Repeater")

    def check_action_expr(self, expr: ast.Expr, scope: _Scope, consumed: set[str]) -> None:
        self.type_of(expr, scope)
        if isinstance(expr, ast.FnCall) and (expr.args or expr.name not in _SINGLE_QUBIT_GATES):
            self.use_qubits(expr, consumed)  # a misplaced or unknown call is already reported
        elif not isinstance(expr, ast.RuleCall):  # reported where it is typed
            self.error(
                "unsupported-stmt", expr.span, "an act statement must be an operation call"
            )

    def check_promotes(
        self, rule: ast.RuleStmt, promotes: list[ast.PromoteStmt], scope: _Scope
    ) -> None:
        sig = self.out.signatures[rule.name]
        if promotes and not sig.return_types:
            for stmt in promotes:
                self.error(
                    "promote-annotation",
                    stmt.span,
                    "promote requires return type annotation on the rule",
                )
            return
        for stmt in promotes:
            if len(stmt.values) != len(sig.return_types):
                self.error(
                    "promote-arity",
                    stmt.span,
                    f"rule {rule.name} promotes {len(stmt.values)} value(s) "
                    f"but declares {len(sig.return_types)}",
                )
                continue
            for value, expected in zip(stmt.values, sig.return_types):
                actual = self.out.types.get(id(value))
                if actual is not None and actual != "Qubit":
                    self.error("promote-type", value.span, f"only qubits are promoted, got {actual}")
                elif actual is not None and not isinstance(value, ast.Ident):
                    self.error("promote-type", value.span, "promote takes a qubit by its name")
                elif actual is not None and not _compatible(expected, actual):
                    self.error(
                        "promote-type",
                        value.span,
                        f"promoted value is {actual}, the rule declares {expected}",
                    )
        if sig.return_types and not promotes:
            if not all(sig.maybe_flags):
                self.error(
                    "promote-missing",
                    rule.span,
                    f"rule {rule.name} declares a return type but never promotes; "
                    'annotate with "?" if promotion is conditional',
                )
            return
        if sig.return_types and not all(sig.maybe_flags):
            if not _promotes(_body(rule)):
                self.error(
                    "promote-missing",
                    rule.span,
                    f"some arms of rule {rule.name} exit without promoting; "
                    'annotate the return type with "?" or promote in every arm',
                )

    # --- ruleset body ---------------------------------------------------------

    def check_ruleset(self, ruleset: ast.RulesetStmt) -> None:
        scope = _Scope()
        for stmt in ruleset.stmts:
            self.check_ruleset_stmt(stmt, scope)

    def check_ruleset_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.LetStmt):
            if isinstance(stmt.value, ast.RuleCall):
                self.check_rule_call(stmt.value, scope)
                self.visit_call(stmt.value.name)
                sig = self.out.signatures.get(stmt.value.name)
                returns = sig.return_types if sig else None
                if returns is not None and len(stmt.targets) != len(returns):
                    self.error(
                        "arity",
                        stmt.span,
                        f"{len(stmt.targets)} target(s) but rule {stmt.value.name} "
                        f"returns {len(returns)} value(s)",
                    )
                for i, target in enumerate(stmt.targets):
                    declared = _declared(target)
                    inferred = returns[i] if returns and i < len(returns) else None
                    if declared == "Qubit" and not (inferred and sig.maybe_flags[i]):
                        self.promoted.append(target)  # checked for a use at the end
                    if declared and inferred and not _compatible(declared, inferred):
                        self.error(
                            "type-mismatch",
                            target.span,
                            f"rule {stmt.value.name} returns {inferred}, "
                            f"target declares {declared}",
                        )
                    scope[target.name] = _bound(declared, inferred)
            else:
                message = "a ruleset-level let binds a compile-time value or a rule call"
                if self.check_let(stmt, scope) and not self.check_folds(stmt.value, message):
                    for target in stmt.targets:  # reported once, here
                        scope[target.name] = None
        elif isinstance(stmt, ast.ForStmt):
            inner = _Scope(scope)
            if len(stmt.names) != 1:
                self.error("arity", stmt.span, "a for loop binds exactly one loop variable")
            generator = stmt.generator
            if isinstance(generator, ast.Series):
                item_type: str | None = "int"
                stop_type = self.type_of(generator.stop, scope)
                if stop_type is not None and stop_type not in _INTEGER:
                    self.error(
                        "type-mismatch",
                        generator.stop.span,
                        f"range bound must be an integer, got {stop_type}",
                    )
                else:
                    self.check_folds(generator.stop, "a loop bound is a compile-time integer")
            else:
                generator_type = self.type_of(generator, scope) or ""
                item_type = generator_type[4:-1] if generator_type.startswith("vec[") else None
                if isinstance(generator, ast.VectorLit):
                    for item in generator.items:
                        self.check_folds(item, "a loop vector holds compile-time values")
                else:
                    self.fold_error(generator.span, "a loop runs over a series or a vector literal")
            for name in stmt.names:
                inner[name] = item_type
            for body_stmt in stmt.body:
                self.check_ruleset_stmt(body_stmt, inner)
        elif isinstance(stmt, ast.IfStmt):
            for cond, body in stmt.branches:
                self.check_condition(cond, self.type_of(cond, scope))
                if not (self._integral(cond) and id(cond) in self.out.static):
                    message = "a ruleset-level condition compares compile-time integers or booleans"
                    self.fold_error(cond.span, message)
                inner = _Scope(scope)
                for body_stmt in body:
                    self.check_ruleset_stmt(body_stmt, inner)
            if stmt.orelse is not None:
                inner = _Scope(scope)
                for body_stmt in stmt.orelse:
                    self.check_ruleset_stmt(body_stmt, inner)
        elif isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.RuleCall):
                self.check_rule_call(stmt.expr, scope)
                self.visit_call(stmt.expr.name)
            else:
                self.error(
                    "unsupported-stmt", stmt.span, "a ruleset-level expression must be a rule call"
                )
        elif isinstance(stmt, (ast.PromoteStmt, ast.SetStmt)):
            self.error("unsupported-stmt", stmt.span, "this statement is only valid inside a rule")
        elif isinstance(stmt, ast.SendStmt):
            self.error(
                "unsupported-stmt", stmt.span, "send is only valid inside a rule's act block"
            )
        else:  # a match
            self.error("unsupported-stmt", stmt.span, "match is not allowed at ruleset level")

    def check_rule_call(self, call: ast.RuleCall, scope: _Scope) -> None:
        self.type_of(call.repeater, scope)
        self.check_folds(call.repeater.index, "a repeater selector is a compile-time integer")
        sig = self.out.signatures.get(call.name)
        if sig is None:
            self.error("unknown-rule", call.span, f"unknown rule {call.name}")
            for arg in call.args:
                self.type_of(arg, scope)
            return
        if len(call.args) != len(sig.param_types):
            self.error(
                "arity",
                call.span,
                f"rule {call.name} takes {len(sig.param_types)} argument(s), "
                f"got {len(call.args)}",
            )
        for arg, expected in zip(call.args, sig.param_types):
            actual = self.type_of(arg, scope)
            if expected is not None and actual is not None and not _compatible(expected, actual):
                self.error(
                    "type-mismatch",
                    arg.span,
                    f"rule {call.name} expects {expected}, got {actual}",
                )
            elif not (isinstance(arg, ast.Ident) and actual == "Qubit"):
                message = "a rule call argument is a compile-time value or a promoted qubit by name"
                self.check_folds(arg, message)
        for arg in call.args[len(sig.param_types) :]:
            self.type_of(arg, scope)

    def visit_call(self, rule_name: str) -> None:
        """Order a ruleset-level rule call against the calls before it: each
        name the rule gets must be set by a rule called earlier."""
        for name, span in self.out.consumers.get(rule_name, ()):
            setter = self.out.producers.get(name)
            if (setter and setter[0] in self.called) or id(span) in self.reported:
                continue
            self.reported.add(id(span))
            if setter:
                message = f"{name} is read before any earlier rule sets it"
            else:
                message = f"{name} is never set"
            self.get_before_set(rule_name, span, message)
        self.called.add(rule_name)

    def _integral(self, expr: ast.Expr) -> bool:
        """Whether the operands of a ruleset-level condition are integers or booleans."""
        expr = ast.unparen(expr)
        if isinstance(expr, ast.CompExpr):
            return self._integral(expr.lhs) and self._integral(expr.rhs)
        if isinstance(expr, ast.TermExpr):
            return all(self._integral(operand) for operand in expr.operands)
        return self.out.types.get(id(expr), "int") in _INTEGRAL

    # --- expression typing ----------------------------------------------------

    def type_of(self, expr: ast.Expr, scope: _Scope) -> str | None:
        """The type of `expr`; notes it and, if lowering folds `expr`, its binding time."""
        cached = self.out.types.get(id(expr))
        if cached is not None:
            return cached
        result = self._type_of(expr, scope)
        if self._folds(expr, result):
            self.out.static.add(id(expr))
        if result is not None:
            self.out.types[id(expr)] = result
        return result

    def _folds(self, expr: ast.Expr, type_name: str | None) -> bool:
        """Whether lowering folds `expr`, given the binding times of its parts."""
        static = self.out.static
        if isinstance(expr, ast.CompExpr):
            return id(expr.lhs) in static and id(expr.rhs) in static
        if isinstance(expr, ast.TermExpr):
            return all(id(operand) in static for operand in expr.operands)
        if isinstance(expr, ast.TupleLit):
            return len(expr.items) == 1 and id(expr.items[0]) in static
        # an untyped value follows an earlier error: do not pile on
        if type_name is not None and type_name not in _STATIC:
            return False
        if isinstance(expr, _STATIC_LEAVES):
            return True
        if isinstance(expr, ast.RepeaterCall):
            return id(expr.index) in static
        if isinstance(expr, ast.VariableCall):
            head, parts = expr.parts[0], expr.parts[1:]
            return (
                not isinstance(head, ast.FnCall)
                and id(head) in static
                and all(
                    isinstance(part, ast.FnCall) and all(id(a) in static for a in part.args)
                    for part in parts
                )
            )
        return False

    def _type_of(self, expr: ast.Expr, scope: _Scope) -> str | None:
        if isinstance(expr, ast.IntLit):
            return "int"
        if isinstance(expr, ast.FloatLit):
            return "float"
        if isinstance(expr, ast.StringLit):
            return "str"
        if isinstance(expr, ast.BoolLit):
            return "bool"
        if isinstance(expr, ast.UnicordLit):
            self.error("unicord", expr.span, "unicord literals are not supported")
            return None
        if isinstance(expr, (ast.Ident, ast.NegIdent)):
            if self.current_rule is None:
                self.used.add(expr.name)  # a name the ruleset body reads
            if expr.name not in scope:
                self.error("unknown-name", expr.span, f"unknown identifier {expr.name}")
                return None
            type_name = scope[expr.name]
            negated = isinstance(expr, ast.NegIdent)
            if negated and type_name is not None and type_name not in _NUMERIC:
                self.error("type-mismatch", expr.span, f"cannot negate a {type_name} value")
                return None
            return type_name
        if isinstance(expr, ast.RepeaterIdent):
            if expr.name == "#repeaters":
                return "vec[Repeater]"
            if expr.name not in scope:
                self.error(
                    "unknown-name", expr.span, f"unknown repeater identifier {expr.name}"
                )
                return None
            return scope[expr.name]
        if isinstance(expr, ast.GetExpr):
            if self.current_rule is not None:
                self.out.consumers.setdefault(self.current_rule, []).append(
                    (expr.name, expr.span)
                )
            producer = self.out.producers.get(expr.name)
            return producer[1] if producer else None
        if isinstance(expr, ast.CompExpr):
            return self._type_comp(expr, scope)
        if isinstance(expr, ast.TermExpr):
            return self._type_term(expr, scope)
        if isinstance(expr, ast.VectorLit):
            item_types = {self.type_of(item, scope) for item in expr.items}
            item_types.discard(None)
            if len(item_types) > 1:
                self.error("type-mismatch", expr.span, "vector items must share one type")
                return None
            inner = item_types.pop() if item_types else "int"
            return f"vec[{inner}]"
        if isinstance(expr, ast.TupleLit):
            if len(expr.items) == 1:
                return self.type_of(expr.items[0], scope)
            for item in expr.items:
                self.type_of(item, scope)
            return "tuple"
        if isinstance(expr, ast.FnCall):
            return self._type_fn_call(expr, scope)
        if isinstance(expr, ast.VariableCall):
            return self._type_variable_call(expr, scope)
        if isinstance(expr, ast.RepeaterCall):
            index_type = self.type_of(expr.index, scope)
            if index_type is not None and index_type not in _INTEGER:
                self.error(
                    "type-mismatch",
                    expr.index.span,
                    f"repeater index must be an integer, got {index_type}",
                )
            return "Repeater"
        # a rule call: check_ruleset_stmt checks each that stands where it may
        message = f"rule {expr.name} is called only as a ruleset-level statement or let value"
        self.error("bad-rule-call", expr.span, message)
        return None

    def _type_comp(self, expr: ast.CompExpr, scope: _Scope) -> str | None:
        lhs = self.type_of(expr.lhs, scope)
        rhs = self.type_of(expr.rhs, scope)
        if lhs is None or rhs is None:
            return "bool"
        ordered = expr.op in ("<", ">", "<=", ">=")
        if "Result" in (lhs, rhs):
            valid = {lhs, rhs} <= {"Result", "str"}
            if not valid:
                self.error(
                    "type-mismatch",
                    expr.span,
                    f"Result values compare only with strings, got {lhs} vs {rhs}",
                )
            elif ordered:
                self.error(
                    "type-mismatch", expr.span, "Result values support only == and !="
                )
            return "bool"
        if lhs in _NUMERIC and rhs in _NUMERIC:
            return "bool"
        if lhs == rhs and lhs in ("str", "bool"):
            if ordered and lhs == "bool":
                self.error("type-mismatch", expr.span, f"cannot order {lhs} values")
            return "bool"
        if lhs == rhs:
            self.error("type-mismatch", expr.span, f"cannot compare {lhs} values")
        else:
            self.error("type-mismatch", expr.span, f"cannot compare {lhs} with {rhs}")
        return "bool"

    def _type_term(self, expr: ast.TermExpr, scope: _Scope) -> str | None:
        result: str | None = "int"
        for operand in expr.operands:
            operand_type = self.type_of(operand, scope)
            if operand_type is None:
                result = None
            elif operand_type not in _NUMERIC:
                self.error(
                    "type-mismatch",
                    operand.span,
                    f"arithmetic needs numeric operands, got {operand_type}",
                )
                result = None
            elif operand_type == "float" and result is not None:
                result = "float"
        return result

    def _type_fn_call(self, call: ast.FnCall, scope: _Scope) -> str | None:
        name = call.name
        if name in COND_FUNCTIONS:  # check_cond types the clauses themselves
            self.error("bad-action", call.span, f"{name} may only appear in a cond block")
            return None
        if name in ("update", "meas", "transfer"):  # check_send types the call it sends
            self.error("bad-action", call.span, f"{name}(...) must be sent to a repeater with ->")
            return None
        if name in _SINGLE_QUBIT_GATES and not call.args:
            return "correction"
        if name in OPERATIONS:
            self.check_call_args(call, OPERATIONS[name][0], scope)
            if name == "measure" and len(call.args) == 2:
                basis = call.args[1]
                if not isinstance(basis, ast.StringLit):
                    self.error(
                        "bad-basis",
                        basis.span,
                        "measurement basis must be a string literal",
                    )
                elif basis.value not in ("X", "Y", "Z"):
                    self.error(
                        "bad-basis",
                        basis.span,
                        f'measurement basis must be "X", "Y", or "Z", got "{basis.value}"',
                    )
            return "Result" if name in ("bsm", "measure") else "unit"
        self.error("unknown-name", call.span, f"unknown function {name}")
        self._type_args(call, scope)
        return None

    def _type_variable_call(self, expr: ast.VariableCall, scope: _Scope) -> str | None:
        parts = expr.parts
        base = self.type_of(parts[0], scope)
        for part in parts[1:]:
            if base is None:
                self._type_args(part, scope)  # for diagnostics and binding times
            else:
                base = self._member(base, part, scope)
        return base

    def _type_args(self, part: ast.FnCall | ast.RepeaterIdent | ast.Ident, scope: _Scope) -> None:
        for arg in part.args if isinstance(part, ast.FnCall) else ():
            self.type_of(arg, scope)

    def _member(
        self, base: str, part: ast.FnCall | ast.RepeaterIdent | ast.Ident, scope: _Scope
    ) -> str | None:
        if base == "vec[Repeater]" and isinstance(part, ast.FnCall) and part.name == "len":
            if part.args:
                self.error("arity", part.span, "len() takes no arguments")
                self._type_args(part, scope)
            return "int"
        if base == "Repeater" and isinstance(part, ast.FnCall) and part.name == "hop":
            if len(part.args) != 1:
                self.error("arity", part.span, "hop() takes one integer argument")
            for arg in part.args:
                arg_type = self.type_of(arg, scope)
                if arg_type is not None and arg_type not in _INTEGER:
                    self.error(
                        "type-mismatch",
                        arg.span,
                        f"hop() takes an integer offset, got {arg_type}",
                    )
            return "Repeater"
        if base == "Message" and isinstance(part, ast.Ident) and part.name == "result":
            return "Result"
        unknown = _UNKNOWN_MEMBER.get(base, f"{base} has no member")
        self.error("unknown-method", part.span, f"{unknown} {part.name}")
        self._type_args(part, scope)
        return None


def _body(rule: ast.RuleStmt) -> tuple[ast.Stmt, ...]:
    """The act block of a rule followed by its trailing statements."""
    return (rule.act.stmts if rule.act else ()) + rule.trailing


def _promotes(stmts) -> bool:
    """Every path through `stmts` promotes a qubit."""
    return any(_stmt_promotes(s) for s in stmts)


def _stmt_promotes(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.PromoteStmt):
        return True
    if isinstance(stmt, ast.IfStmt):
        if stmt.orelse is None:
            return False
        return all(_promotes(body) for _, body in stmt.branches) and _promotes(stmt.orelse)
    if isinstance(stmt, ast.MatchStmt):
        arms_ok = all(_promotes(arm.body) for arm in stmt.arms)
        if stmt.otherwise is None:
            # Literal arms are never exhaustive over strings/ints.
            return False
        return arms_ok and _promotes(stmt.otherwise)
    return False


def _walk(stmts):
    """Every statement in `stmts` and in the blocks nested in them, in source order."""
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, ast.IfStmt):
            for _, body in stmt.branches:
                yield from _walk(body)
            yield from _walk(stmt.orelse or ())
        elif isinstance(stmt, ast.MatchStmt):
            for arm in stmt.arms:
                yield from _walk(arm.body)
            yield from _walk(stmt.otherwise or ())
        elif isinstance(stmt, ast.ForStmt):
            yield from _walk(stmt.body)


def _declared(target: ast.TypedName) -> str | None:
    """The type annotated on a parameter or let target, if it has one."""
    return str(target.type_annotation) if target.type_annotation else None


def _compatible(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    if expected in _NUMERIC and actual in _NUMERIC:
        # Floats do not silently become integers.
        return not (expected in ("int", "u_int") and actual == "float")
    # A stored Result satisfies a str slot (message payloads carry text).
    if expected == "str" and actual == "Result":
        return True
    return False


def _bound(declared: str | None, actual: str | None) -> str | None:
    """The type a let binds: the declared one, but a Result stays a Result in
    a str slot, as it holds a run-time value that never folds."""
    if declared == "str" and actual == "Result":
        return actual
    return declared or actual


def analyze_program(program: ast.Program) -> Analysis:
    """Check a parsed program whose imports are resolved: every rule, then the
    ruleset body in one walk; all diagnostics found, in that order."""
    return _Checker(program).run()


# Imported modules by resolved path: the origin (file name and text) each
# was parsed from, and the parse, whose rules carry that origin.  AST nodes
# are frozen, so every program importing a module shares one parse; the file
# is still read each time, and edited text is parsed again.
_modules: dict[Path, tuple[tuple[str, str], ast.Program]] = {}


def _parse_module(path: Path) -> tuple[tuple[str, str], ast.Program]:
    text = path.read_text(encoding="utf-8")
    cached = _modules.get(path)
    if cached is None or cached[0][1] != text:
        origin = (str(path), text)
        module = parse(text, filename=origin[0])
        rules = tuple(replace(rule, origin=origin) for rule in module.rules)
        cached = _modules[path] = (origin, replace(module, rules=rules))
    return cached


def resolve_imports(
    program: ast.Program,
    search_roots: list[Path],
    _visited: frozenset[Path] | None = None,
) -> tuple[ast.Program, list[Diagnostic]]:
    """Splice `import (rule)` definitions from files under the search roots."""
    diagnostics: list[Diagnostic] = []
    visited = _visited or frozenset()
    imported_rules: list[ast.RuleStmt] = []
    existing = {rule.name for rule in program.rules}

    for imp in program.imports:
        if not imp.is_rule:
            continue

        def fail(message: str) -> None:
            diagnostics.append(Diagnostic(SEVERITY_ERROR, "bad-import", imp.span, message))

        if imp.names:
            module_path, rule_names = imp.path, list(imp.names)
        else:
            module_path, rule_names = imp.path[:-1], [imp.path[-1]]
        if not module_path:
            fail("rule import needs a module path")
            continue
        relative = Path(*module_path).with_suffix(".rula")
        found: Path | None = None
        for root in search_roots:
            candidate = (root / relative).resolve()
            if candidate.is_file():
                found = candidate
                break
        if found is None:
            fail(f"module not found: {'::'.join(module_path)}")
            continue
        if found in visited:
            fail(f"import cycle through {found.name}")
            continue
        try:
            origin, module_program = _parse_module(found)
        except (ParseError, UnicodeDecodeError) as exc:
            fail(f"cannot parse {found.name}: {exc}")
            continue
        except OSError as exc:
            fail(f"cannot read {found.name}: {exc}")
            continue
        module_program, nested = resolve_imports(
            module_program,
            [found.parent, *search_roots],
            visited | {found},
        )
        diagnostics.extend(d if d.origin else replace(d, origin=origin) for d in nested)
        by_name = {rule.name: rule for rule in module_program.rules}
        for rule_name in rule_names:
            rule = by_name.get(rule_name)
            if rule is None:
                fail(f"{rule_name} is not defined in {'::'.join(module_path)}")
            elif rule_name in existing:
                fail(f"rule {rule_name} is already defined")
            else:
                existing.add(rule_name)
                imported_rules.append(rule)

    if not imported_rules:
        return program, diagnostics
    merged = ast.Program(
        program.has_repeaters_decl,
        program.imports,
        tuple(imported_rules) + program.rules,
        program.ruleset,
        span=program.span,
    )
    return merged, diagnostics
