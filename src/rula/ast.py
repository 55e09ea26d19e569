"""Syntax tree for RuLa programs, and the helper its nodes are built with.

`node` makes a subclass of `Value` a dataclass with slots, whose `__init__`
sets each slot through its member descriptor, and `Value` makes it a
frozen value: equality and hash over its compared fields, the dataclass
repr, `FrozenInstanceError` on assignment and deletion, and copy and pickle.
The syntax tree, the IR and the records of the analyzer, lowering and the
parser are all built this way. Such a class costs about a quarter of the
import time a frozen dataclass costs, and its instances hold no
per-instance dict.

Every node carries a byte-offset span into the source it was parsed from so
diagnostics can point at the offending text; a rule imported from another
file names that file as its origin.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields


class Value:
    """The base of every class `node` builds: a frozen value of its fields.
    Equality and hash read the compared fields through `_key`, which `node`
    writes; the hash is the one a dataclass computes, so the order of a set
    of nodes does not depend on how they are built."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, f.name) for f in fields(self)]

    def __setstate__(self, state):
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)


def node(cls: type) -> type:
    """`cls`, a subclass of `Value`, as a dataclass with slots whose
    `__init__` sets each slot through its member descriptor instead of
    `object.__setattr__`: an IR `Rule` is built in about half the time (0.65
    against 1.2 µs on a 2 vCPU Xeon VM, Python 3.11.7)."""
    # for a class with no docstring, dataclass writes one from
    # `inspect.signature`, which costs more than the rest of the class
    cls.__doc__ = cls.__doc__ or cls.__name__
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    scope: dict = {}
    params, keywords, body, key = [], [], [], []
    for f in fields(cls):
        # an inherited field's slot is its base's, but Python 3.10 declares
        # it again in each subclass: the first class in the MRO holding it
        slot = next(c.__dict__[f.name] for c in cls.__mro__ if f.name in c.__dict__)
        scope[f"_set_{f.name}"] = slot.__set__
        param = f.name
        if f.default is not MISSING:
            scope[f"_default_{f.name}"] = f.default
            param += f"=_default_{f.name}"
        (keywords if f.kw_only else params).append(param)
        body.append(f"\n    _set_{f.name}(self, {f.name})")
        if f.compare:
            key.append(f"self.{f.name}, ")
    if keywords:
        params += ["*", *keywords]
    exec(
        f"def __init__(self, {', '.join(params)}):{''.join(body)}\n"
        f"def _key(self):\n    return ({''.join(key)})",
        scope,
    )
    cls.__init__, cls._key = scope["__init__"], scope["_key"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@node
class Span(Value):
    start: int
    end: int


_NO_SPAN = Span(0, 0)

# Most decimal digits of an integer: what `int` and `str` convert by default,
# so what a literal may be written with and a folded value may reach before
# the writer or a diagnostic prints it.
MAX_DIGITS = 4300
INT_BOUND = 10**MAX_DIGITS


@node
class Node(Value):
    span: Span = field(default=_NO_SPAN, kw_only=True, compare=False)


# --- types -------------------------------------------------------------------


@node
class TypeAnnotation(Node):
    kind: str  # int, u_int, float, bool, str, vec, Qubit, Repeater, Message, Result
    inner: TypeAnnotation | None = None

    def __str__(self) -> str:
        if self.kind == "vec":
            return f"vec[{self.inner}]"
        return self.kind


# --- expressions -------------------------------------------------------------


@node
class Ident(Node):
    name: str


@node
class RepeaterIdent(Node):
    name: str  # includes the leading '#', e.g. "#rep"


@node
class IntLit(Node):
    value: int


@node
class FloatLit(Node):
    value: float


@node
class StringLit(Node):
    value: str


@node
class BoolLit(Node):
    value: bool


@node
class UnicordLit(Node):
    text: str


@node
class NegIdent(Node):
    """A signed identifier such as -distance."""

    name: str


@node
class GetExpr(Node):
    name: str


@node
class FnCall(Node):
    name: str
    args: tuple[Expr, ...] = ()


@node
class VariableCall(Node):
    """Dotted chain like #repeaters.len() or message.result."""

    parts: tuple[FnCall | RepeaterIdent | Ident, ...] = ()


@node
class RepeaterCall(Node):
    """#repeaters(<index>)"""

    index: Expr = None  # type: ignore[assignment]


@node
class RuleCall(Node):
    name: str
    repeater: RepeaterCall = None  # type: ignore[assignment]
    args: tuple[Expr, ...] = ()


@node
class CompExpr(Node):
    lhs: Expr = None  # type: ignore[assignment]
    op: str = "=="
    rhs: Expr = None  # type: ignore[assignment]


@node
class TermExpr(Node):
    """Left-to-right arithmetic chain: operands[0] ops[0] operands[1] ..."""

    operands: tuple[Expr, ...] = ()
    ops: tuple[str, ...] = ()


@node
class VectorLit(Node):
    items: tuple[Expr, ...] = ()


@node
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


@node
class TypedName(Node):
    name: str
    type_annotation: TypeAnnotation | None = None


@node
class LetStmt(Node):
    targets: tuple[TypedName, ...] = ()
    value: Expr = None  # type: ignore[assignment]


@node
class IfStmt(Node):
    branches: tuple[tuple[Expr, tuple[Stmt, ...]], ...] = ()  # (condition, body) chain
    orelse: tuple[Stmt, ...] | None = None


@node
class Series(Node):
    start: int = 0
    stop: Expr = None  # type: ignore[assignment]


@node
class ForStmt(Node):
    names: tuple[str, ...] = ()
    generator: Series | Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@node
class MatchArm(Node):
    pattern: Expr = None  # type: ignore[assignment]
    body: tuple[Stmt, ...] = ()


@node
class MatchStmt(Node):
    subject: Expr = None  # type: ignore[assignment]
    arms: tuple[MatchArm, ...] = ()
    otherwise: tuple[Stmt, ...] | None = None


@node
class PromoteStmt(Node):
    values: tuple[Expr, ...] = ()


@node
class SetStmt(Node):
    name: str = ""
    alias: str | None = None


@node
class SendStmt(Node):
    call: FnCall = None  # type: ignore[assignment]
    destination: Expr = None  # type: ignore[assignment]


@node
class ExprStmt(Node):
    expr: Expr = None  # type: ignore[assignment]


Stmt = LetStmt | IfStmt | ForStmt | MatchStmt | PromoteStmt | SetStmt | SendStmt | ExprStmt


# --- rule and program structure ----------------------------------------------


@node
class CondClause(Node):
    capture: str | None = None
    call: Expr = None  # type: ignore[assignment]


@node
class CondExpr(Node):
    clauses: tuple[CondClause, ...] = ()


@node
class ActExpr(Node):
    stmts: tuple[Stmt, ...] = ()


@node
class ReturnType(Node):
    type_annotation: TypeAnnotation = None  # type: ignore[assignment]
    maybe: bool = False


@node
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


@node
class ImportStmt(Node):
    path: tuple[str, ...] = ()
    names: tuple[str, ...] = ()  # brace group, empty when the path names one item
    is_rule: bool = False


@node
class RulesetStmt(Node):
    name: str = ""
    stmts: tuple[Stmt, ...] = ()


@node
class Program(Node):
    has_repeaters_decl: bool = False
    imports: tuple[ImportStmt, ...] = ()
    rules: tuple[RuleStmt, ...] = ()
    ruleset: RulesetStmt | None = None
