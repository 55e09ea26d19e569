"""Lowering of analyzed programs to per-repeater RuleSets.

The ruleset block is executed at compile time against a concrete chain
topology: loops unroll, compile-time conditionals filter, and every rule
call instantiates one stage of expanded rules on the owning repeater.
Runtime conditionals (match over measurement results, if over message
fields) multiply a rule into sibling rules distinguished by Cmp clauses.
Message sends are split: the owner keeps a Send clause and the addressed
repeater either already declares a matching recv in a later rule or
receives a synthesized wait rule in a stage of its own.

Errors are split between the layers. The analyzer owns every fault of the
program's shape: names, types, statement and clause forms, literal values,
qubits used after a measure or free, and every value lowering folds that
does not fold. Lowering takes the analysis of a program the analyzer
accepted: it folds the expressions the analysis records as static and lowers
every other act-level condition to Cmp clauses. It reports only what needs
the concrete chain or the folded values: `repeater-range` and `hop-range` (a
repeater outside the chain), `const-expr` (a value fault: division or modulo
by zero, a negative exponent, zero to a negative power, a fractional power
of a negative number, a float too large, an integer of more than 4 300
digits, a res count, fidelity or qubit index out of range, or a name left
without a value by an earlier error),
`loop-bound` (a loop nest too large to unroll), `promote-owner` (a promoted
qubit used on another repeater), `unpromoted` (a rule call given a `Qubit?`
result that its rule did not promote on that repeater with those
arguments), `send-self` (a message addressed to its sender) and
`bsm-partner` (a bsm of two qubits whose res partners are one repeater,
which would splice a pair with both ends there).

Lowering templates. A rule call's lets and cond are evaluated for each
call, but its act is expanded once per template key: the rule and its env,
with each repeater written as its index minus the owner's (addresses need
not follow indices) and each scalar with its class. A later call with the
same key takes the expanded sibling rules and moves them to its owner: each
Send clause is readdressed by the shift from the template's owner to the
new one, and every other clause object is shared. A send, a recv and a
promote are each stated once, by their clause: send resolution reads the
kind and the addressee of each send from its Send clause. An act that reads
the chain itself, through `#rep.hop(..)`, `#repeaters(i)` or `len()`, is
expanded on every call, so its `hop-range` and `repeater-range` errors are
reported where they occur. An expansion that fails is never kept. Send
resolution and assembly see the same per-node rules, ids and recv slots as
without templates; on the 1025-node doubling chain 1 023 calls make a
handful of expansions. Each rule built from a kept expansion carries a
template key to `ir.serialize` (see `ir.keyed`): one object per expansion
and variant. The act key holds every value the call's condition is lowered
from, so the rules of one key differ only in their holes (`ir._HOLE_TEXT`,
where a load splits a document too). A synthesized wait rule's key is its
action clause, one object per effect (the kind, and the op of an Update or
the result register of a Meas). The writer splits the first text of each
key at its holes and fills the pieces for every later rule of the key; a
rule from an act that reads the chain has no key and is written plainly.

Folding. A static expression is compiled, the first time it is folded, into
a closure from an env to its value (Feeley and Lapalme, "Using closures for
code generation", 1987), kept for the rest of the compile under the
expression. Names, operators and a flat term's precedence are resolved when
the closure is built; the closure still evaluates every operand of a term
before any operator, so a fault is reported where a walk of the expression
would report it. A closure holds the topology but not the compiler, so no
reference cycle keeps a compile's graph alive after it. The ruleset's loop
nest on the 1025-node doubling chain folds `i % (2 * d) == d` 10 240 times
through one closure.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import operator
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from . import ast, ir
from .analyzer import Analysis, Diagnostic
from .config import ConfigError, Repeater, Topology

_GATE1 = {"x": "X", "y": "Y", "z": "Z", "h": "H"}
_GATE2 = {"cx": ("CxControl", "CxTarget"), "cz": ("CzControl", "CzTarget")}
_SEND_KIND = {"update": "Update", "meas": "Meas", "transfer": "Transfer", "free": "Free"}
_CMP_OP = {"==": "Eq", "!=": "Neq", "<": "Lt", "<=": "Leq", ">": "Gt", ">=": "Geq"}
_NEGATE = {"Eq": "Neq", "Neq": "Eq", "Lt": "Geq", "Geq": "Lt", "Gt": "Leq", "Leq": "Gt"}
_MIRROR = {"Eq": "Eq", "Neq": "Neq", "Lt": "Gt", "Gt": "Lt", "Leq": "Geq", "Geq": "Leq"}

# Most loop bodies a ruleset-level loop nest may unroll to: the product of the
# trip counts of a loop and of the loops around it. The corpus schedule
# `1..n/2` over `1..n-1` needs 2048 * 4096 (about 8.4 M) on 4097 nodes.
MAX_UNROLLED = 1 << 24


@ast.node
class Obligation(ast.Value):
    """One Send clause together with the Recv that will consume it."""

    kind: str
    from_addr: int
    to_addr: int
    receiver: str  # "rule <name>" or "synthesized <name>"


@dataclass
class CompiledOutput:
    ruleset_id: int
    name: str
    per_node: dict[int, ir.RuleSet]
    diagnostics: list[Diagnostic] = field(default_factory=list)
    obligations: list[Obligation] = field(default_factory=list)
    unbound_recvs: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.is_error for d in self.diagnostics)


def default_ruleset_id(program_name: str, config_bytes: bytes) -> int:
    """Reproducible 64-bit ruleset id from the program name and raw config."""
    digest = hashlib.sha256(program_name.encode() + b"\x00" + config_bytes).digest()
    return int.from_bytes(digest[:8], "big")


def write_output(out: CompiledOutput, out_dir: Path) -> list[Path]:
    """Write one <name>_<address>.json per repeater and return their paths.

    Each RuleSet is serialized and written under a temporary name,
    <name>_<address>.json.tmp, before the next one is serialized, so at most
    one RuleSet's text is alive at a time; the RuleSets share one table of
    rule templates (see `ir.serialize`). The files move to their names only
    once every text is written. A failure before that leaves `out_dir` as it
    was: the temporary files are removed, so are the directories this call
    made, and the files of an earlier compile are untouched."""
    made = []
    missing = out_dir
    while not missing.exists():
        made.append(missing)
        missing = missing.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    templates: dict = {}
    staged: list[tuple[Path, Path]] = []
    try:
        for addr, ruleset in out.per_node.items():
            path = out_dir / f"{out.name}_{addr}.json"
            temporary = path.with_name(path.name + ".tmp")
            staged.append((temporary, path))
            temporary.write_text(ir.serialize(ruleset, templates), encoding="utf-8")
        for temporary, path in staged:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in staged:
            temporary.unlink(missing_ok=True)
        for directory in made:  # innermost first; kept if a move filled it
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    return [path for _, path in staged]


# --- evaluation values -------------------------------------------------------


@ast.node
class QubitRef(ast.Value):
    """A qubit slot captured by a res clause or passed in as a promoted value."""

    index: int
    hops: int | None = None  # its res partner's index minus the owner's; None if promoted


@ast.node
class ResultRef(ast.Value):
    """A measurement register produced by bsm()/measure() in this rule."""

    register: str


@ast.node
class MessageRef(ast.Value):
    """The message captured by a recv clause."""

    capture: str


@ast.node
class PromotedHandle(ast.Value):
    """Ruleset-level handle to a qubit a rule promised to promote."""

    owner_index: int
    qubit_index: int


@ast.node
class Unpromoted(ast.Value):
    """Ruleset-level value of a `Qubit?` result that its rule call did not
    promote: the promote sits under a condition that folded to false."""

    rule: str
    owner_index: int


_REPEATERS_VEC = object()  # value of the bare '#repeaters' vector
_POISON = object()  # placeholder binding after an aborted rule call
_KEYED = frozenset({int, bool, str, QubitRef, MessageRef})  # env values a template key holds


class LowerError(Exception):
    """A hard lowering fault; aborts the current rule call with a diagnostic."""

    def __init__(self, code: str, span: ast.Span, message: str):
        super().__init__(message)
        self.code = code
        self.span = span
        self.message = message


class _UnrollLimit(LowerError):
    """A loop nest over MAX_UNROLLED bodies; aborts the whole nest."""


def _act_key(rule: ast.RuleStmt, owner: Repeater, env: dict) -> tuple | None:
    """The key of a rule's act expansion: the rule and its env, each
    repeater written as its index minus the owner's and each scalar with its
    class (a float by repr, as `-0.0 == 0.0`). None for an env holding any
    other value, whose expansion is not kept. A rule binds its env's names
    in the same order on every call, so the values alone make the key."""
    key: list = [rule.name]
    for value in env.values():
        cls = value.__class__
        if cls is Repeater:
            key.append((Repeater, value.index - owner.index))
        elif cls is float:
            key.append((float, repr(value)))
        elif cls in _KEYED:
            key.append((cls, value))
        else:
            return None
    return tuple(key)


class _Fault(ArithmeticError):
    """A value fault of one operator, reported at the span of its term."""


def _trunc_div(a, b):
    if b == 0:
        raise _Fault("division by zero")
    if isinstance(a, int) and isinstance(b, int):
        q = a // b
        if q < 0 and q * b != a:
            q += 1  # round toward zero, not toward -inf
        return q
    return a / b


def _trunc_mod(a, b):
    if b == 0:
        raise _Fault("modulo by zero")
    if isinstance(a, int) and isinstance(b, int):
        return a - _trunc_div(a, b) * b
    try:
        return math.fmod(a, b)
    except ValueError:
        raise _Fault("modulo of an infinite value") from None


def _power(a, b):
    if isinstance(b, int) and b < 0:
        raise _Fault("negative exponent")
    if a == 0 and b < 0:
        raise _Fault("zero raised to a negative power")
    if a.__class__ is int and b.__class__ is int and abs(a) > 1:
        # a result surely past the term's bound is refused before it is
        # computed, which can take minutes; the term checks the exact bound
        if b * math.log10(abs(a)) > ast.MAX_DIGITS + 1:
            raise _Fault(f"an integer of more than {ast.MAX_DIGITS} digits")
    value = a**b
    if value.__class__ is complex:
        raise _Fault("fractional power of a negative number")
    return value


_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _trunc_div,
    "%": _trunc_mod,
    "^": _power,
}


def _fault(exc: ArithmeticError, span: ast.Span) -> LowerError:
    # Python's own ArithmeticError here is an OverflowError: a float too large
    reason = exc.args[0] if isinstance(exc, _Fault) else "result out of range"
    return LowerError("const-expr", span, f"{reason} in a compile-time expression")


def _lookup(name: str, span: ast.Span):
    """The closure that reads `name` from an env."""

    def lookup(env: dict):
        value = env[name]
        if value is _POISON:
            message = f"{name} has no usable value after an earlier error"
            raise LowerError("const-expr", span, message)
        return value

    return lookup


def _fold_term(expr: ast.TermExpr, operands: list):
    """The closure of a flat operator chain, given its operands' closures.
    Ordinary precedence, left to right within each level, is planned here as
    steps that each combine two operand slots into the first; the closure
    evaluates every operand before it applies any operator."""
    slots, ops, plan = list(range(len(operands))), list(expr.ops), []
    for level in (("^",), ("*", "/", "%"), ("+", "-")):
        i = 0
        while i < len(ops):
            if ops[i] in level:
                plan.append((slots[i], slots[i + 1], _OPERATORS[ops[i]]))
                del slots[i + 1], ops[i]
            else:
                i += 1
    span = expr.span

    def term(env: dict):
        values = [operand(env) for operand in operands]
        try:
            for into, other, apply in plan:
                values[into] = apply(values[into], values[other])
        except ArithmeticError as exc:
            raise _fault(exc, span) from None
        value = values[0]
        if value.__class__ is int and not -ast.INT_BOUND < value < ast.INT_BOUND:
            raise _fault(_Fault(f"an integer of more than {ast.MAX_DIGITS} digits"), span)
        return value

    return term


def _fold(expr, topology: Topology, reads: list):
    """The closure from an env to the value of `expr`: names, operators and
    a term's precedence are resolved once, here. Each part that reads the
    chain is appended to `reads`."""
    if isinstance(expr, (ast.IntLit, ast.BoolLit, ast.FloatLit, ast.StringLit)):
        value = expr.value
        return lambda env: value
    if isinstance(expr, (ast.Ident, ast.RepeaterIdent)):
        if expr.name == "#repeaters":
            return lambda env: _REPEATERS_VEC
        return _lookup(expr.name, expr.span)
    if isinstance(expr, ast.NegIdent):
        lookup = _lookup(expr.name, expr.span)
        return lambda env: -lookup(env)
    if isinstance(expr, ast.TupleLit) and len(expr.items) == 1:
        return _fold(expr.items[0], topology, reads)
    if isinstance(expr, ast.RepeaterCall):
        reads.append(expr)
        return _fold_repeater(expr, _fold(expr.index, topology, reads), topology)
    if isinstance(expr, ast.VariableCall):
        reads.append(expr)
        return _fold_chain(expr, topology, reads)
    if isinstance(expr, ast.TermExpr):
        return _fold_term(expr, [_fold(op, topology, reads) for op in expr.operands])
    compare = ir.COMPARISONS[_CMP_OP[expr.op]]  # no other expression is static
    lhs, rhs = _fold(expr.lhs, topology, reads), _fold(expr.rhs, topology, reads)
    return lambda env: compare(lhs(env), rhs(env))


def _fold_repeater(expr: ast.RepeaterCall, index, topology: Topology):
    span = expr.span

    def repeater(env: dict) -> Repeater:
        try:
            return topology.at(index(env))
        except ConfigError as exc:
            raise LowerError("repeater-range", span, str(exc)) from exc

    return repeater


def _fold_chain(expr: ast.VariableCall, topology: Topology, reads: list):
    # A message field never gets here: its head is a run-time value.
    head, span = _fold(expr.parts[0], topology, reads), expr.span
    offsets = [None if p.name == "len" else _fold(p.args[0], topology, reads) for p in expr.parts[1:]]

    def chain(env: dict):
        current = head(env)
        for offset in offsets:
            if offset is None:
                current = topology.count
                continue
            try:
                current = topology.hop(current.index, offset(env))
            except ConfigError as exc:
                raise LowerError("hop-range", span, str(exc)) from exc
        return current

    return chain


# --- expansion bookkeeping ---------------------------------------------------


@dataclass
class _Variant:
    """One sibling rule in the making while an act block is expanded."""

    env: dict
    cmps: list[ir.CmpClause] = field(default_factory=list)
    clauses: list = field(default_factory=list)
    registers: int = 0
    # otherwise lineage: no trailing statements, and once the act is
    # expanded, ordered after every literal-arm sibling
    frozen: bool = False

    def fork(self) -> "_Variant":
        return _Variant(dict(self.env), list(self.cmps), list(self.clauses), self.registers, self.frozen)

    def alloc_register(self) -> str:
        self.registers += 1
        return ir.register(self.registers - 1)


@dataclass
class _CallRecord:
    rule_name: str
    owner: Repeater
    cond_clauses: list
    variants: list[_Variant]
    keys: list | None  # the template key of each variant's rule, if its act was kept


@dataclass
class _Template:
    """An act expansion kept under its act key, the index of the owner it
    was expanded for, and the keys its rules hand `ir.serialize`: one object
    per variant, which stands for the text of every rule made from it."""

    variants: list[_Variant]
    index: int
    keys: list


@dataclass
class _Slot:
    """A hand-written recv waiting to be paired with a send."""

    node_addr: int
    from_addr: int
    rule_name: str
    meas_only: bool
    bound: bool = False


class _Compiler:
    def __init__(self, analysis: Analysis, topology: Topology, ruleset_id: int):
        program = self.program = analysis.program
        self.static = analysis.static  # the ids of the expressions that fold
        self.mirrored = analysis.mirrored  # ... and of the comparisons read from the right
        self.topology = topology
        self.ruleset_id = ruleset_id
        self.name = program.ruleset.name if program.ruleset else "ruleset"
        self.rules = {r.name: r for r in program.rules}
        self.calls: list[_CallRecord] = []
        self.diagnostics: list[Diagnostic] = []
        self._folds: dict[int, tuple] = {}  # (closure, reads the chain, expression) by id
        self._current_owner: Repeater | None = None
        self._unrolled = 1  # bodies the enclosing loop nest unrolls to
        # act expansions by template key (see `_expand_rule`), and each
        # repeater's index by its address (`_relocate`); clause objects shared
        # by the rules that hold equal values (`_apply_send`, `_wait_rule`)
        self._templates: dict[tuple, _Template] = {}
        self._index = {r.address: r.index for r in topology.repeaters}
        self._sends: dict[ir.SendClause, ir.SendClause] = {}
        self._recvs: dict[int, ir.RecvClause] = {}  # by sender address
        self._handler_clauses: dict[tuple, tuple] = {}  # by effect
        self._read_topology = False  # an act read the chain outside its env

    def error(
        self, code: str, span: ast.Span, message: str, origin: tuple[str, str] | None = None
    ) -> None:
        """Report an error at `span` in the program, or in the file `origin`
        names (see `ast.RuleStmt.origin`)."""
        self.diagnostics.append(Diagnostic("error", code, span, message, origin))

    # --- constant evaluation -------------------------------------------------

    def eval(self, expr, env: dict):
        """Fold an expression the analyzer records as static, through the
        closure `_fold` builds for it the first time it is folded."""
        known = self._folds.get(id(expr))
        if known is None:  # kept with the expression, whose id it is keyed by
            reads: list = []
            known = self._folds[id(expr)] = (_fold(expr, self.topology, reads), bool(reads), expr)
        if known[1]:  # no operator short-circuits: a fold evaluates all of it
            self._read_topology = True
        return known[0](env)

    # --- ruleset body --------------------------------------------------------

    def run(self) -> CompiledOutput:
        env: dict = {}
        if self.program.ruleset is not None:
            self._exec_stmts(self.program.ruleset.stmts, env)
        obligations, unbound, sources = self._resolve_sends()
        per_node = self._assemble(sources)
        return CompiledOutput(
            ruleset_id=self.ruleset_id,
            name=self.name,
            per_node=per_node,
            diagnostics=self.diagnostics,
            obligations=obligations,
            unbound_recvs=unbound,
        )

    def _exec_stmts(self, stmts, env: dict) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.LetStmt):
                self._exec_let(stmt, env)
            elif isinstance(stmt, ast.ForStmt):
                self._exec_for(stmt, env)
            elif isinstance(stmt, ast.IfStmt):
                self._exec_if(stmt, env)
            else:  # the analyzer admits only a rule call here
                self._instantiate(stmt.expr, env)

    def _exec_let(self, stmt: ast.LetStmt, env: dict) -> None:
        if isinstance(stmt.value, ast.RuleCall):
            handles = self._instantiate(stmt.value, env)
            for target, handle in zip(stmt.targets, handles):
                env[target.name] = handle if handle is not None else _POISON
            return
        try:
            value = self.eval(stmt.value, env)
        except LowerError as err:
            self.error(err.code, err.span, err.message)
            value = _POISON
        env[stmt.targets[0].name] = value

    def _exec_for(self, stmt: ast.ForStmt, env: dict) -> None:
        (name,) = stmt.names
        generator = stmt.generator
        try:
            if isinstance(generator, ast.Series):
                stop = self.eval(generator.stop, env)
                values = range(generator.start, stop + 1)
                trips = max(0, stop - generator.start + 1)  # len() stops at sys.maxsize
            else:  # a vector literal
                values = [self.eval(item, env) for item in generator.items]
                trips = len(values)
        except LowerError as err:
            self.error(err.code, err.span, err.message)
            return
        outer = self._unrolled
        self._unrolled = outer * trips
        try:
            if self._unrolled > MAX_UNROLLED:
                raise _UnrollLimit(
                    "loop-bound",
                    stmt.span,
                    f"loop nest unrolls to {self._unrolled} bodies, more than {MAX_UNROLLED}",
                )
            for value in values:
                scoped = dict(env)
                scoped[name] = value
                self._exec_stmts(stmt.body, scoped)
                # rebind promoted handles created in the body? they are loop-local
        except _UnrollLimit as err:
            if outer > 1:
                raise  # the outermost loop of the nest reports it, once
            self.error(err.code, err.span, err.message)
        finally:
            self._unrolled = outer

    def _exec_if(self, stmt: ast.IfStmt, env: dict) -> None:
        for condition, body in stmt.branches:
            try:
                value = self.eval(condition, env)
            except LowerError as err:
                self.error(err.code, err.span, err.message)
                return
            if value:
                self._exec_stmts(body, env)
                return
        if stmt.orelse is not None:
            self._exec_stmts(stmt.orelse, env)

    # --- rule instantiation --------------------------------------------------

    def _instantiate(self, call: ast.RuleCall, env: dict) -> tuple:
        rule = self.rules[call.name]
        poison = tuple(None for _ in rule.return_types) or (None,)
        args = []
        origin = None  # a fault at the call is in the program, one in the rule in the rule's file
        try:
            owner = self.eval(call.repeater, env)
            for arg in call.args:
                bound = env.get(arg.name) if isinstance(arg, ast.Ident) else None
                if bound is _POISON:
                    return poison  # cascade from an earlier failure, already reported
                if isinstance(bound, Unpromoted):
                    raise LowerError(
                        "unpromoted",
                        call.span,
                        f"argument {arg.name} of {call.name} holds no qubit: rule "
                        f"{bound.rule} promotes none on repeater index {bound.owner_index}",
                    )
                args.append(bound if isinstance(bound, PromotedHandle) else self.eval(arg, env))
            for arg in args:
                if isinstance(arg, PromotedHandle) and arg.owner_index != owner.index:
                    raise LowerError(
                        "promote-owner",
                        call.span,
                        f"promoted qubit from repeater index {arg.owner_index} "
                        f"used on repeater index {owner.index}",
                    )
            origin = rule.origin
            return self._expand_rule(rule, owner, args)
        except LowerError as err:
            self.error(err.code, err.span, err.message, origin)
            return poison

    def _expand_rule(self, rule: ast.RuleStmt, owner: Repeater, args: list) -> tuple:
        self._current_owner = owner
        env: dict = {rule.repeater_param: owner}
        for param, arg in zip(rule.params, args):
            env[param.name] = QubitRef(arg.qubit_index) if isinstance(arg, PromotedHandle) else arg
        for let in rule.lets:
            env[let.targets[0].name] = self.eval(let.value, env)

        cond_clauses = self._lower_cond(rule.cond, env)
        key = _act_key(rule, owner, env)
        template = self._templates.get(key)
        if template is None:
            self._read_topology = False
            base = _Variant(env=env)
            variants = self._expand_stmts(list(rule.act.stmts) + list(rule.trailing), base)
            variants = [v for v in variants if not v.frozen] + [v for v in variants if v.frozen]
            if key is not None and not self._read_topology:
                template = self._templates[key] = _Template(variants, owner.index, [object() for _ in variants])
        else:
            variants = self._relocate(template, owner)
        keys = None if template is None else template.keys
        self.calls.append(_CallRecord(rule.name, owner, cond_clauses, variants, keys))

        if not rule.return_types:
            return (None,)
        for v in variants:  # the qubits of the first variant that promotes any
            promotes = [c.qubit.qubit_index for c in v.clauses if c.__class__ is ir.PromoteClause]
            if promotes:
                break
        return tuple(
            PromotedHandle(owner.index, promotes[i])
            if i < len(promotes)
            else Unpromoted(rule.name, owner.index)
            for i in range(len(rule.return_types))
        )

    def _relocate(self, template: _Template, owner: Repeater) -> list[_Variant]:
        """The variants of a template moved to `owner`: each Send clause
        readdressed by the shift from the template's owner to `owner`, every
        other clause shared."""
        repeaters, index = self.topology.repeaters, self._index
        shift = owner.index - template.index
        made: dict[int, ir.SendClause] = {}  # by the id of the template's clause
        moved = []
        for v in template.variants:
            sends = [at for at, clause in enumerate(v.clauses) if clause.__class__ is ir.SendClause]
            if not sends:
                moved.append(v)
                continue
            clauses = list(v.clauses)
            for at in sends:
                clause = clauses[at]
                to_addr = repeaters[index[clause.partner_addr] + shift].address
                clauses[at] = made.get(id(clause)) or made.setdefault(
                    id(clause), ir.SendClause(clause.message, to_addr, clause.payload)
                )
            moved.append(_Variant(v.env, v.cmps, clauses, v.registers, v.frozen))
        return moved

    # --- condition lowering --------------------------------------------------

    def _lower_cond(self, cond: ast.CondExpr, env: dict) -> list:
        clauses: list = []
        indices: set[int] = set()
        for clause in cond.clauses:
            call = clause.call
            if call.name == "res":
                count, fidelity, partner, index = (self.eval(arg, env) for arg in call.args)
                if count < 1 or not 0 <= fidelity <= 1 or index in indices:
                    raise LowerError(
                        "const-expr",
                        call.span,
                        f"res needs a count of at least 1, a fidelity in [0, 1] and a "
                        f"qubit index of its own, got {count}, {fidelity} and {index}",
                    )
                indices.add(index)
                clauses.append(
                    ir.ResClause(
                        count=int(count),
                        fidelity=float(fidelity),
                        partner_addr=partner.address,
                        qubit_index=int(index),
                    )
                )
                if clause.capture:
                    env[clause.capture] = QubitRef(int(index), partner.index - self._current_owner.index)
            elif call.name == "recv":
                partner = self.eval(call.args[0], env)
                clauses.append(ir.RecvClause(partner_addr=partner.address))
                if clause.capture:
                    env[clause.capture] = MessageRef(clause.capture)
            else:  # check_timer
                timer_id = self.eval(call.args[0], env)
                clauses.append(ir.TimerClause(timer_id=str(timer_id)))
        return clauses

    # --- act expansion -------------------------------------------------------

    def _expand_stmts(self, stmts, variant: _Variant) -> list[_Variant]:
        variants = [variant]
        for stmt in stmts:
            advanced: list[_Variant] = []
            for v in variants:
                if v.frozen:
                    advanced.append(v)
                else:
                    advanced.extend(self._apply_stmt(stmt, v))
            variants = advanced
        return variants

    def _apply_stmt(self, stmt, v: _Variant) -> list[_Variant]:
        if isinstance(stmt, ast.LetStmt):
            self._apply_let(stmt, v)
            return [v]
        if isinstance(stmt, ast.ExprStmt):
            self._apply_call_stmt(stmt.expr, v)
            return [v]
        if isinstance(stmt, ast.SendStmt):
            self._apply_send(stmt, v)
            return [v]
        if isinstance(stmt, ast.PromoteStmt):
            for value in stmt.values:
                qubit = self._qubit(value, v)
                v.clauses.append(ir.PromoteClause(qubit))
            return [v]
        if isinstance(stmt, ast.SetStmt):
            source = v.env.get(stmt.name)
            if isinstance(source, ResultRef):  # stored under the name `get` reads
                clause = ir.SetClause(source.register, stmt.alias or stmt.name)
            else:
                clause = ir.SetClause(stmt.name, stmt.alias)
            v.clauses.append(clause)
            return [v]
        if isinstance(stmt, ast.MatchStmt):
            return self._apply_match(stmt, v)
        return self._apply_if(stmt, v)  # the analyzer admits no other statement here

    def _apply_let(self, stmt: ast.LetStmt, v: _Variant) -> None:
        value = stmt.value
        name = stmt.targets[0].name
        if isinstance(value, ast.FnCall) and value.name in ("bsm", "measure"):
            v.env[name] = ResultRef(self._measure(value, v))
        else:
            v.env[name] = self.eval(value, v.env)

    def _measure(self, call: ast.FnCall, v: _Variant) -> str:
        """Lower bsm(a, b) or measure(q, basis); returns the result register."""
        if call.name == "bsm":
            a, b = (v.env[arg.name] for arg in call.args)
            if a.hops is not None and a.hops == b.hops:
                partner = self._current_owner.index + a.hops
                raise LowerError(
                    "bsm-partner",
                    call.span,
                    f"bsm({call.args[0].name}, {call.args[1].name}) joins two pairs whose far "
                    f"ends are both on repeater index {partner}: it would leave a pair "
                    "with both ends there",
                )
            a, b = ir.QubitId(a.index), ir.QubitId(b.index)
            v.clauses.append(ir.QCircClause((ir.QGate(a, "CxControl"), ir.QGate(b, "CxTarget"))))
            v.clauses.append(ir.MeasureClause(a, "X"))
            v.clauses.append(ir.MeasureClause(b, "Z"))
        else:
            v.clauses.append(ir.MeasureClause(self._qubit(call.args[0], v), call.args[1].value))
        return v.alloc_register()

    def _apply_call_stmt(self, call: ast.FnCall, v: _Variant) -> None:
        """An operation call: a gate, a measurement, free or set_timer."""
        if call.name in _GATE1:
            v.clauses.append(ir.QCircClause((ir.QGate(self._qubit(call.args[0], v), _GATE1[call.name]),)))
        elif call.name in _GATE2:
            control, target = _GATE2[call.name]
            v.clauses.append(
                ir.QCircClause(
                    (
                        ir.QGate(self._qubit(call.args[0], v), control),
                        ir.QGate(self._qubit(call.args[1], v), target),
                    )
                )
            )
        elif call.name in ("measure", "bsm"):
            self._measure(call, v)  # the result is discarded
        elif call.name == "free":
            v.clauses.append(ir.FreeClause(self._qubit(call.args[0], v)))
        else:  # set_timer
            timer_id = self.eval(call.args[0], v.env)
            duration = self.eval(call.args[1], v.env)
            v.clauses.append(ir.SetTimerClause(str(timer_id), int(duration)))

    def _apply_send(self, stmt: ast.SendStmt, v: _Variant) -> None:
        call = stmt.call
        kind = _SEND_KIND[call.name]
        destination = self.eval(stmt.destination, v.env)
        if destination.address == self._current_owner.address:
            raise LowerError("send-self", stmt.destination.span, "message sent to the owner itself")
        qubit = self._qubit(call.args[0], v)
        if kind == "Update":
            op = _GATE1[call.args[1].name]  # a correction is written as a gate call: z()
            payload = (("op", op), ("qubit", str(qubit.qubit_index)))
        elif kind == "Meas":
            register = v.env[call.args[1].name].register
            payload = (("qubit", str(qubit.qubit_index)), ("result", register))
        else:  # Transfer / Free
            payload = (("qubit", str(qubit.qubit_index)),)
        clause = ir.SendClause(kind, destination.address, payload)
        v.clauses.append(self._sends.setdefault(clause, clause))  # one object per value

    def _qubit(self, name: ast.Ident, v: _Variant) -> ir.QubitId:
        return ir.QubitId(v.env[name.name].index)

    # --- runtime conditionals ------------------------------------------------

    def _apply_match(self, stmt: ast.MatchStmt, v: _Variant) -> list[_Variant]:
        if id(stmt.subject) in self.static:
            return self._fold_match(stmt, self.eval(stmt.subject, v.env), v)

        out: list[_Variant] = []
        for arm in stmt.arms:
            child = v.fork()
            child.cmps.append(self._match_cmp(stmt.subject, arm.pattern, child))
            out.extend(self._expand_stmts(arm.body, child))
        if stmt.otherwise is not None:
            for expanded in self._expand_stmts(stmt.otherwise, v.fork()):
                expanded.frozen = True
                out.append(expanded)
        return out

    def _fold_match(self, stmt: ast.MatchStmt, subject, v: _Variant) -> list[_Variant]:
        for arm in stmt.arms:
            if arm.pattern.value == subject:
                return self._expand_stmts(arm.body, v)
        if stmt.otherwise is not None:
            return self._expand_stmts(stmt.otherwise, v)
        return [v]

    def _match_cmp(self, subject, pattern, v: _Variant) -> ir.CmpClause:
        """The Cmp clause that selects one arm; arms are literals."""
        subject = ast.unparen(subject)
        if isinstance(subject, ast.CompExpr):
            cmp = self._lower_comparison(subject, v)
            if pattern.value:
                return cmp
            return ir.CmpClause(cmp.cmp_val, _NEGATE[cmp.operator], cmp.target_val)
        cmp_val, kind = self._runtime_operand(subject, v)
        value = pattern.value
        text = ("true" if value else "false") if isinstance(value, bool) else str(value)
        return ir.CmpClause(cmp_val, "Eq", ir.TaggedValue(kind, text))

    def _runtime_operand(self, expr, v: _Variant) -> tuple[str, str] | None:
        """Name a runtime-comparable value: (cmp_val, the kind its targets
        carry), or None if `expr` is not a measurement result, a message
        field or a stored variable."""
        if isinstance(expr, ast.Ident):
            value = v.env.get(expr.name)
            if isinstance(value, ResultRef):
                return value.register, value.register
        if isinstance(expr, ast.VariableCall) and len(expr.parts) == 2:
            head, fieldpart = expr.parts
            if (
                isinstance(head, ast.Ident)
                and isinstance(v.env.get(head.name), MessageRef)
                and isinstance(fieldpart, ast.Ident)
            ):
                return f"message.{fieldpart.name}", "Str"
        if isinstance(expr, ast.GetExpr):
            return expr.name, "Str"
        return None

    def _apply_if(self, stmt: ast.IfStmt, v: _Variant) -> list[_Variant]:
        # Compile-time conditions fold; runtime conditions expand into
        # Cmp-guarded siblings, with each later branch carrying the negations
        # of every branch before it.
        if id(stmt.branches[0][0]) in self.static:
            for condition, body in stmt.branches:
                if self.eval(condition, v.env):
                    return self._expand_stmts(body, v)
            if stmt.orelse is not None:
                return self._expand_stmts(stmt.orelse, v)
            return [v]

        out: list[_Variant] = []
        negations: list[ir.CmpClause] = []
        for condition, body in stmt.branches:
            cmp = self._lower_comparison(condition, v)
            child = v.fork()
            child.cmps.extend(negations + [cmp])
            out.extend(self._expand_stmts(body, child))
            negations.append(ir.CmpClause(cmp.cmp_val, _NEGATE[cmp.operator], cmp.target_val))
        child = v.fork()
        child.cmps.extend(negations)
        if stmt.orelse is not None:
            out.extend(self._expand_stmts(stmt.orelse, child))
        else:
            out.append(child)
        return out

    def _lower_comparison(self, expr: ast.CompExpr, v: _Variant) -> ir.CmpClause:
        """The Cmp clause of a run-time comparison, read from the side the
        analyzer chose (`Analysis.mirrored`)."""
        operator, read, other = _CMP_OP[expr.op], expr.lhs, expr.rhs
        if id(expr) in self.mirrored:
            operator, read, other = _MIRROR[operator], other, read
        cmp_val, kind = self._runtime_operand(read, v)
        return ir.CmpClause(cmp_val, operator, self._comparison_target(other, kind, v))

    def _comparison_target(self, expr, kind: str, v: _Variant) -> ir.TaggedValue:
        if isinstance(expr, ast.GetExpr):
            return ir.TaggedValue("Variable", expr.name)
        if isinstance(expr, ast.Ident) and isinstance(v.env.get(expr.name), ResultRef):
            return ir.TaggedValue("Variable", v.env[expr.name].register)
        value = self.eval(expr, v.env)  # an int, a bool or a str
        if isinstance(value, bool):
            return ir.TaggedValue("Bool", "true" if value else "false")
        if isinstance(value, int):
            return ir.TaggedValue("Int", str(value))
        return ir.TaggedValue(kind, value)

    # --- send resolution and assembly ---------------------------------------

    def _resolve_sends(self):
        """Bind each Send clause to a hand-written recv slot or a synthesized
        wait rule, and lay out each repeater's stages in call order: a call's
        own rules (its record), then, at each addressee of its unbound sends,
        a stage of wait rules (the sender's Recv, and one `_wait_rule` per
        effect). Returns the obligations, the unbound recvs and the stages."""
        slots: list[_Slot] = []
        # Recv slots waiting for a send, keyed by (node, sender, send is Meas)
        # in declaration order: a Meas send may bind any slot, other sends
        # only slots that do not inspect the message. Bound slots are dropped
        # from the front lazily, so each send binds the first free slot.
        queues: dict[tuple[int, int, bool], deque[_Slot]] = {}
        for call in self.calls:
            node_addr = call.owner.address
            meas_only = any(c.cmp_val.startswith("message.") for v in call.variants for c in v.cmps)
            for recv in call.cond_clauses:
                if recv.__class__ is not ir.RecvClause:
                    continue
                from_addr = recv.partner_addr
                slot = _Slot(node_addr, from_addr, call.rule_name, meas_only)
                slots.append(slot)
                queues.setdefault((node_addr, from_addr, True), deque()).append(slot)
                if not meas_only:
                    queues.setdefault((node_addr, from_addr, False), deque()).append(slot)

        obligations: list[Obligation] = []
        sources: dict[int, list] = {}  # by address: call records and wait stages
        for call in self.calls:
            from_addr = call.owner.address
            if call.variants:
                sources.setdefault(from_addr, []).append(call)
            waits: dict[int, list] = {}  # the call's wait stages by addressee
            for v in call.variants:
                for send in v.clauses:
                    if send.__class__ is not ir.SendClause:
                        continue
                    kind, to_addr = send.message, send.partner_addr
                    queue = queues.get((to_addr, from_addr, kind == "Meas"))
                    while queue and queue[0].bound:
                        queue.popleft()
                    if queue:
                        slot = queue.popleft()
                        slot.bound = True
                        obligations.append(Obligation(kind, from_addr, to_addr, f"rule {slot.rule_name}"))
                        continue
                    stage = waits.get(to_addr)
                    if stage is None:
                        stage = waits[to_addr] = []
                        recv = self._recvs.get(from_addr) or self._recvs.setdefault(
                            from_addr, ir.RecvClause(from_addr)
                        )
                        sources.setdefault(to_addr, []).append((recv, stage))
                    made = self._wait_rule(send)
                    if made not in stage:
                        stage.append(made)
                    obligations.append(
                        Obligation(kind, from_addr, to_addr, f"synthesized wait_{kind.lower()}")
                    )

        unbound = [
            f"recv from address {s.from_addr} in rule {s.rule_name} "
            f"on address {s.node_addr} never receives a send"
            for s in slots
            if not s.bound
        ]
        return obligations, unbound, sources

    def _wait_rule(self, send: ir.SendClause) -> tuple[str, ir.CmpClause, object]:
        """The name, Cmp clause and action clause of the wait rule a send
        synthesizes at its addressee, made once per effect: the kind, and the
        op of an Update or the result register of a Meas."""
        kind, payload = send.message, dict(send.payload)
        effect = (kind, payload.get("op"), payload.get("result"))
        made = self._handler_clauses.get(effect)
        if made is None:
            cmp = ir.CmpClause("MessageKind", "Eq", ir.TaggedValue("MessageKind", kind))
            # Wait actions address qubit 0: the resource carried by the message.
            slot = ir.QubitId(0)
            if kind == "Update":
                action = ir.QCircClause((ir.QGate(slot, payload["op"]),))
            elif kind == "Free":
                action = ir.FreeClause(slot)
            elif kind == "Transfer":
                action = ir.PromoteClause(slot)
            else:  # Meas
                action = ir.SetClause(variable="message.result", alias=payload["result"])
            made = self._handler_clauses[effect] = (f"wait_{kind.lower()}", cmp, action)
        return made

    def _assemble(self, sources: dict[int, list]) -> dict[int, ir.RuleSet]:
        """Number the stages `_resolve_sends` laid out into each repeater's
        RuleSet. A wait rule's key is its action clause, which makes its text."""
        per_node: dict[int, ir.RuleSet] = {}
        for repeater in self.topology.repeaters:
            stages: list[ir.Stage] = []
            rule_id = 0
            shared_tag = 0
            for source in sources.get(repeater.address, ()):
                rules = []
                if source.__class__ is _CallRecord:
                    cond, keys = tuple(source.cond_clauses), source.keys
                    for i, v in enumerate(source.variants):
                        rule = ir.Rule(
                            source.rule_name,
                            rule_id,
                            shared_tag,
                            ir.Condition(None, cond + tuple(v.cmps)),
                            ir.Action(None, tuple(v.clauses)),
                        )
                        rules.append(rule if keys is None else ir.keyed(rule, keys[i]))
                        rule_id += 1
                    shared_tag += 1
                else:
                    recv, waits = source
                    for name, cmp, action in waits:
                        rule = ir.Rule(
                            name, rule_id, shared_tag, ir.Condition(None, (recv, cmp)), ir.Action(None, (action,))
                        )
                        rules.append(ir.keyed(rule, action))
                        rule_id += 1
                        shared_tag += 1
                stages.append(ir.Stage(tuple(rules)))
            per_node[repeater.address] = ir.RuleSet(
                name=self.name,
                id=self.ruleset_id,
                owner_addr=repeater.address,
                stages=tuple(stages),
            )
        return per_node


def compile_program(analysis: Analysis, topology: Topology, ruleset_id: int) -> CompiledOutput:
    """Lower an analyzed program against a topology.

    Contract: `analysis` comes from `analyzer.analyze_program` and has no
    error, and its program comes from an `analyzer.resolve_imports` that
    reported none. Lowering does not check again what the analyzer checks:
    it folds the expressions in `analysis.static` and reads every other
    act-level condition at run time, from the side `analysis.mirrored`
    records; on a program the analyzer rejects it may raise. It reports only the faults listed in the module docstring,
    which need the chain or the folded values. Recvs that no send binds are
    returned in `unbound_recvs`.
    """
    return _Compiler(analysis, topology, ruleset_id).run()
