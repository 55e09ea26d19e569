"""Syntax tree for RuLa programs.

Every node carries a byte-offset span into the source it was parsed from so
diagnostics can point at the offending text; a rule imported from another
file names that file as its origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Span:
    start: int
    end: int


_NO_SPAN = Span(0, 0)

# Most decimal digits of an integer: what `int` and `str` convert by default,
# so what a literal may be written with and a folded value may reach before
# the writer or a diagnostic prints it.
MAX_DIGITS = 4300
INT_BOUND = 10**MAX_DIGITS


@dataclass(frozen=True)
class Node:
    span: Span = field(default=_NO_SPAN, kw_only=True, compare=False)


# --- types -------------------------------------------------------------------


@dataclass(frozen=True)
class TypeAnnotation(Node):
    kind: str  # int, u_int, float, bool, str, vec, Qubit, Repeater, Message, Result
    inner: TypeAnnotation | None = None

    def __str__(self) -> str:
        if self.kind == "vec":
            return f"vec[{self.inner}]"
        return self.kind


# --- expressions -------------------------------------------------------------


@dataclass(frozen=True)
class Ident(Node):
    name: str


@dataclass(frozen=True)
class RepeaterIdent(Node):
    name: str  # includes the leading '#', e.g. "#rep"


@dataclass(frozen=True)
class IntLit(Node):
    value: int


@dataclass(frozen=True)
class FloatLit(Node):
    value: float


@dataclass(frozen=True)
class StringLit(Node):
    value: str


@dataclass(frozen=True)
class BoolLit(Node):
    value: bool


@dataclass(frozen=True)
class UnicordLit(Node):
    text: str


@dataclass(frozen=True)
class NegIdent(Node):
    """A signed identifier such as -distance."""

    name: str


@dataclass(frozen=True)
class GetExpr(Node):
    name: str


@dataclass(frozen=True)
class FnCall(Node):
    name: str
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class VariableCall(Node):
    """Dotted chain like #repeaters.len() or message.result."""

    parts: tuple[FnCall | RepeaterIdent | Ident, ...] = ()


@dataclass(frozen=True)
class RepeaterCall(Node):
    """#repeaters(<index>)"""

    index: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class RuleCall(Node):
    name: str
    repeater: RepeaterCall = None  # type: ignore[assignment]
    args: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class CompExpr(Node):
    lhs: Expr = None  # type: ignore[assignment]
    op: str = "=="
    rhs: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class TermExpr(Node):
    """Left-to-right arithmetic chain: operands[0] ops[0] operands[1] ..."""

    operands: tuple[Expr, ...] = ()
    ops: tuple[str, ...] = ()


@dataclass(frozen=True)
class VectorLit(Node):
    items: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class TupleLit(Node):
    items: tuple[Expr, ...] = ()


Expr = (
    Ident
    | RepeaterIdent
    | IntLit
    | FloatLit
    | StringLit
    | BoolLit
    | UnicordLit
    | NegIdent
    | GetExpr
    | FnCall
    | VariableCall
    | RepeaterCall
    | RuleCall
    | CompExpr
    | TermExpr
    | VectorLit
    | TupleLit
)


def unparen(expr: Expr) -> Expr:
    """`expr` without the parentheses around it: `(m)` parses as a one-item tuple."""
    while isinstance(expr, TupleLit) and len(expr.items) == 1:
        expr = expr.items[0]
    return expr


# --- statements --------------------------------------------------------------


@dataclass(frozen=True)
class TypedName(Node):
    name: str
    type_annotation: TypeAnnotation | None = None


@dataclass(frozen=True)
class LetStmt(Node):
    targets: tuple[TypedName, ...] = ()
    value: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class IfStmt(Node):
    branches: tuple[tuple[Expr, tuple[Stmt, ...]], ...] = ()  # (condition, body) chain
    orelse: tuple[Stmt, ...] | None = None


@dataclass(frozen=True)
class Series(Node):
    start: int = 0
    stop: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ForStmt(Node):
    names: tuple[str, ...] = ()
    generator: Series | Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class MatchArm(Node):
    pattern: Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class MatchStmt(Node):
    subject: Expr = None  # type: ignore[assignment]
    arms: tuple[MatchArm, ...] = ()
    otherwise: tuple[Stmt, ...] | None = None


@dataclass(frozen=True)
class PromoteStmt(Node):
    values: tuple[Expr, ...] = ()


@dataclass(frozen=True)
class SetStmt(Node):
    name: str = ""
    alias: str | None = None


@dataclass(frozen=True)
class SendStmt(Node):
    call: FnCall = None  # type: ignore[assignment]
    destination: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ExprStmt(Node):
    expr: Expr = None  # type: ignore[assignment]


Stmt = LetStmt | IfStmt | ForStmt | MatchStmt | PromoteStmt | SetStmt | SendStmt | ExprStmt


# --- rule and program structure ----------------------------------------------


@dataclass(frozen=True)
class CondClause(Node):
    capture: str | None = None
    call: Expr = None  # type: ignore[assignment]


@dataclass(frozen=True)
class CondExpr(Node):
    clauses: tuple[CondClause, ...] = ()


@dataclass(frozen=True)
class ActExpr(Node):
    stmts: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class ReturnType(Node):
    type_annotation: TypeAnnotation = None  # type: ignore[assignment]
    maybe: bool = False


@dataclass(frozen=True)
class RuleStmt(Node):
    name: str = ""
    repeater_param: str = "#rep"
    params: tuple[TypedName, ...] = ()
    return_types: tuple[ReturnType, ...] = ()
    lets: tuple[LetStmt, ...] = ()
    cond: CondExpr = None  # type: ignore[assignment]
    act: ActExpr = None  # type: ignore[assignment]
    trailing: tuple[Stmt, ...] = ()
    # the name and text of the file an `import (rule)` spliced it in from
    origin: tuple[str, str] | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ImportStmt(Node):
    path: tuple[str, ...] = ()
    names: tuple[str, ...] = ()  # brace group, empty when the path names one item
    is_rule: bool = False


@dataclass(frozen=True)
class RulesetStmt(Node):
    name: str = ""
    stmts: tuple[Stmt, ...] = ()


@dataclass(frozen=True)
class Program(Node):
    has_repeaters_decl: bool = False
    imports: tuple[ImportStmt, ...] = ()
    rules: tuple[RuleStmt, ...] = ()
    ruleset: RulesetStmt | None = None
