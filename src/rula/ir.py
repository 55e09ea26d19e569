"""In-memory model of compiled RuleSets and their JSON wire format.

A RuleSet is the unit shipped to one repeater: an ordered list of stages,
each holding rules that pair a condition (resource, message, comparison and
timer clauses) with an action (gates, measurements, resource management and
message sends).

The wire format is stated once, in `_WIRE`. `serialize` walks the IR nodes
through it, building no intermediate dict tree, and writes the bytes
`json.dumps(indent=4, ensure_ascii=False)` gives for the document; the
deserializer takes its key sets from the same table.

A hole is stated once, in `_HOLE_TEXT`: the value of a RuleSet's `id` or
`owner_addr`, a rule's `id` or `shared_tag`, or the `partner_addr` of a Res,
Recv or Send clause, written as a canonical JSON integer. The writer and the
load both split a text at its holes (`_split`), into the pieces between
them, each followed by its hole's key, and the hole values. The rest of a
rule is its template; the rest of a document is its shape.

`serialize` writes each rule template once per write (Holzmann's state
hashing in SPIN, 1997: equal work is keyed and done once). Its key comes
from lowering, which knows which rules it expanded from one act: it hands
each such rule a key in a slot of its own (`keyed`). The first rule of a key
is written plainly, through `_write_node`, and the pieces of its text are
kept if its hole values are the rule's `id`, `shared_tag` and partner
addresses; every later rule of that key is those pieces joined with its own
hole values, read from its fields. The 11 253 rules of the 1025-node
doubling chain have 54 keys. Lowering keys each scalar with its class, so
values that compare equal but write differently (`1`, `1.0` and `True`;
`0.0` and `-0.0`) are keyed apart. A load hands a key too (see below). A
rule with no key (loaded the full way, built by hand or by
`dataclasses.replace`, or from an act that reads the chain) is written
plainly.

`dump` hands its text to a `write` callable as it goes: a top-level dict
piece by piece, each dict inside it as one piece. A dict met a second time
in one call, at one indentation, has its text kept, with the dict so that
its id is not reused. An enumeration keeps each distinct report record
once (see `explore`), so the 2 048 reports of perfbench
`enumerate_small` keep the text of 158 fired and 6 pair records and write
none of the 49 152 and 6 144 twice; a report's text is dropped once written.

A load reads each document shape once. From its ninth document on (see
`_UNSHAPED`), it splits each text at its holes, and its table (`interned`)
keeps one `_Shape`, the first document's text and RuleSet, under the tuple
of the pieces: the one split, about 1.8 ns per character, is all that a
document of a new shape pays on top of the full path below, and the table's
lookup compares the pieces. A shape refills only if its first document is
the text `rula compile` writes for it, exactly what `serialize` writes for
its RuleSet; that is checked once, when the shape first recurs. In that text
a hole's key names the field it holds, and the holes come in the order a
refill fills them: the writer escapes no key, and the schema asks every
value under a key it does not name (a payload or `qnic_interfaces` entry, a
Cmp target) to be a string. A later document of the shape is the shape's
RuleSet with its own hole values: its rules, and its Res, Recv and Send
clauses looked up in the table, are rebuilt without `json.loads` or the
schema walk, and each rule is handed the shape's rule as its template key
(`keyed`), by which `runtime.Blueprint` builds each rule group once. One
integer token in place of another changes no other value, and the schema
asks of a hole only that it be an integer, so a refill builds what the full
path builds; a hole too long to convert sends its document down the full
path, which words the error. A document of a new shape, or of a shape whose
first text is not the writer's, takes the full path. The 1 025 files of the
1025-node doubling chain have 12 shapes.

The full path is one pass over the decoded JSON, and a document that
passes builds no error text. Each object's keys are compared once with its
shape, and each scalar's exact class is checked; only a value that fails
goes through the `_expect_*` helpers, which word the error. A SchemaError
is raised with a path relative to the value being checked. Each enclosing
level catches it, prepends its own segment (".stages[2]", ".rules[0]",
".condition", ".clauses[1]", ".Res", ".qgates[0]", ...) and re-raises, and
the outermost adds the leading "$".

Every node class is a frozen dataclass with slots (`_node`), built by an
`__init__` that sets each slot through its member descriptor, and holds no
per-instance dict; nodes compare and hash by value.

A load shares nodes only through its shapes: a refilled RuleSet holds its
shape's conditions and actions that have no hole, and each Res, Recv or Send
clause a refill readdresses is built once per load and kept in the table under
its value (a fidelity of `0.0` and of `-0.0` are equal but keyed by their
text). The full path builds plain nodes, and the table, shapes and all, lives
for one load only: one `deserialize` call or the files one command reads.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, fields

# each Cmp operator of the wire format, and the test it names
COMPARISONS = {
    "Eq": operator.eq,
    "Neq": operator.ne,
    "Lt": operator.lt,
    "Leq": operator.le,
    "Gt": operator.gt,
    "Geq": operator.ge,
}
CMP_OPERATORS = tuple(COMPARISONS)
MESSAGE_KINDS = ("Free", "Update", "Meas", "Transfer")
GATE_KINDS = ("X", "Y", "Z", "H", "CxControl", "CxTarget", "CzControl", "CzTarget")
MEASURE_BASES = ("X", "Y", "Z")


class SchemaError(ValueError):
    """Raised when a RuleSet document does not match the wire schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


def _node(cls: type) -> type:
    """`cls` as a frozen dataclass with slots, whose `__init__` sets each
    slot through its member descriptor instead of `object.__setattr__`:
    a `Rule` is built in about half the time (0.65 against 1.2 µs on a
    2 vCPU Xeon VM, Python 3.11.7), and a slotted node holds no
    per-instance dict."""
    cls = dataclass(frozen=True, slots=True)(cls)
    scope: dict = {}
    params, body = [], []
    for f in fields(cls):
        scope[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"\n    _set_{f.name}(self, {f.name})")
    exec(f"def __init__(self, {', '.join(params)}):{''.join(body)}", scope)
    cls.__init__ = scope["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


@_node
class QubitId:
    qubit_index: int


@_node
class TaggedValue:
    """A literal tagged with its kind, e.g. {"MeasResult": "00"}."""

    kind: str
    value: str


# --- condition clauses -------------------------------------------------------


@_node
class ResClause:
    count: int
    fidelity: float
    partner_addr: int
    qubit_index: int


@_node
class CmpClause:
    cmp_val: str
    operator: str
    target_val: TaggedValue


@_node
class TimerClause:
    timer_id: str


@_node
class RecvClause:
    partner_addr: int


ConditionClause = ResClause | CmpClause | TimerClause | RecvClause


# --- action clauses ----------------------------------------------------------


@_node
class SetTimerClause:
    timer_id: str
    duration: int


@_node
class PromoteClause:
    qubit: QubitId


@_node
class FreeClause:
    qubit: QubitId


@_node
class SetClause:
    variable: str
    alias: str | None = None


@_node
class MeasureClause:
    qubit: QubitId
    basis: str


def register(n: int) -> str:
    """The name of the register a firing's `n`th measurement (from 0) writes,
    as Cmp and Set clauses and Meas payloads name it."""
    return "MeasResult" if n == 0 else f"MeasResult{n}"


@_node
class QGate:
    qubit: QubitId
    kind: str


@_node
class QCircClause:
    qgates: tuple[QGate, ...]


@_node
class SendClause:
    message: str  # one of MESSAGE_KINDS
    partner_addr: int
    payload: tuple[tuple[str, str], ...] = ()


ActionClause = (
    SetTimerClause
    | PromoteClause
    | FreeClause
    | SetClause
    | MeasureClause
    | QCircClause
    | SendClause
)


# --- rule / stage / ruleset --------------------------------------------------


@_node
class Condition:
    name: str | None = None
    clauses: tuple[ConditionClause, ...] = ()


@_node
class Action:
    name: str | None = None
    clauses: tuple[ActionClause, ...] = ()


class _Keyed:
    """The base of `Rule`: a slot, not a field, for the template key that
    lowering or a load's refill hands it (see `keyed`). A rule built any
    other way, `dataclasses.replace` included, has it unset."""

    __slots__ = ("_template",)


@_node
class Rule(_Keyed):
    name: str
    id: int
    shared_tag: int
    condition: Condition
    action: Action
    qnic_interfaces: tuple[tuple[str, str], ...] = ()
    is_finalized: bool = False


@_node
class Stage:
    rules: tuple[Rule, ...] = ()


class _Referable:
    """The base of `RuleSet`, whose one slot lets a RuleSet be weakly
    referenced (dataclass's `weakref_slot=` needs Python 3.11)."""

    __slots__ = ("__weakref__",)


@_node
class RuleSet(_Referable):
    name: str
    id: int
    owner_addr: int
    stages: tuple[Stage, ...] = ()


@_node
class Finding:
    path: str
    message: str


# --- wire format -------------------------------------------------------------

# The wire format, stated once: each IR class, its variant tag (None for a
# plain object) and its keys in document order, read from the attributes of
# the same names (`qubit_identifier` from `qubit`). A SendClause's body sits
# under a second tag, its message kind, and leaves out an empty payload; a
# TaggedValue is the object {kind: value}. The `_PAIRS` keys hold (key,
# value) pairs, written as an object; the `_OPTIONAL` keys may be missing.
_BLOCK_KEYS, _ON_QUBIT_KEYS = ("name", "clauses"), ("qubit_identifier",)
_WIRE: dict[type, tuple[str | None, tuple[str, ...]]] = {
    RuleSet: (None, ("name", "id", "owner_addr", "stages")),
    Stage: (None, ("rules",)),
    Rule: (
        None,
        ("name", "id", "shared_tag", "qnic_interfaces", "condition", "action", "is_finalized"),
    ),
    Condition: (None, _BLOCK_KEYS),
    Action: (None, _BLOCK_KEYS),
    ResClause: ("Res", ("count", "fidelity", "partner_addr", "qubit_index")),
    CmpClause: ("Cmp", ("cmp_val", "operator", "target_val")),
    TimerClause: ("Timer", ("timer_id",)),
    RecvClause: ("Recv", ("partner_addr",)),
    SetTimerClause: ("SetTimer", ("timer_id", "duration")),
    PromoteClause: ("Promote", _ON_QUBIT_KEYS),
    FreeClause: ("Free", _ON_QUBIT_KEYS),
    SetClause: ("Set", ("variable", "alias")),
    MeasureClause: ("Measure", ("qubit_identifier", "basis")),
    QCircClause: ("QCirc", ("qgates",)),
    SendClause: ("Send", ("partner_addr", "payload")),
    QGate: (None, ("qubit_identifier", "kind")),
    QubitId: (None, ("qubit_index",)),
}
_PAIRS = frozenset({"qnic_interfaces", "payload"})
_OPTIONAL = frozenset({"alias", "payload"})


def serialize(ruleset: RuleSet, templates: dict | None = None) -> str:
    """Render a RuleSet as canonical JSON text (4-space indent, LF, newline at EOF).

    Each rule that lowering handed a key (see `keyed`) is written from the
    template of its key.
    `templates` is the template table of the write: pass one dict to every
    call of a write that renders several RuleSets, and drop it when the
    write is done.
    """
    out: list[str] = []
    _write(ruleset, "\n", "    ", out.append, {}, {} if templates is None else templates)
    out.append("\n")
    return "".join(out)


# --- canonical JSON writer ---------------------------------------------------

_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def dump(value, write, indent: int = 4) -> None:
    """Write JSON data, in which an IR node stands for its wire object and
    an iterator for the list of what it yields, to `write` in pieces that
    join to `json.dumps(value, indent=indent, ensure_ascii=False)` of the
    data with the objects and lists in place.  An iterator is drawn once,
    and each item is freed, as far as this writer holds it, once the next
    is drawn.

    With an indent the standard library falls back to its pure-Python
    encoder. This writer walks dicts, lists, tuples and IR nodes itself,
    writes the fixed indentation and separators directly, writes a finite
    float with `float.__repr__` and an int with `int.__repr__` as the C
    encoder does, and leaves every other leaf to the C encoder. Keys must
    be strings and are written in the dict's order. A top-level dict is
    written piece by piece, and each dict inside it as one (see `_write`).
    """
    if isinstance(value, dict):
        _write_object(value.items(), "\n", " " * indent, write, {})
    else:
        _write(value, "\n", " " * indent, write, {})


def _write(value, newline: str, step: str, emit, texts: dict, templates=None):
    """Write `value` at the indentation `newline`. `texts` is the table of
    dicts met in one write, under (id, `newline`): the dict, so that its id
    is not reused while the table lives, and from its second meeting on its
    text, which is then emitted as one string. `templates` is the rule
    template table of `serialize`."""
    cls = value.__class__
    if cls is str:
        emit(_encode_str(value))
    elif cls is int:
        emit(int.__repr__(value))  # what the C encoder calls for an int
    elif cls is float:
        emit(float.__repr__(value) if math.isfinite(value) else _encode_scalar(value))
    elif cls is Rule and templates is not None:
        _write_rule(value, newline, step, emit, templates)
    elif cls in _WIRE:
        _write_node(value, newline, step, emit, texts, templates)
    elif cls is TaggedValue:
        _write_object(((value.kind, value.value),), newline, step, emit, texts)
    elif isinstance(value, dict):
        known = texts.get((id(value), newline))
        text = None if known is None else known[1]
        if text is None:
            out: list[str] = []
            _write_object(value.items(), newline, step, out.append, texts, templates)
            text = "".join(out)
            texts[id(value), newline] = (value, None if known is None else text)
        emit(text)
    elif isinstance(value, (list, tuple, Iterator)):
        drawn = value.__class__ not in (list, tuple)
        inner = newline + step
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, step, emit, texts, templates)
            if drawn:  # an item drawn from an iterator is not kept
                texts.pop((id(item), inner), None)
            sep = "," + inner
        emit("[]" if sep[0] == "[" else newline + "]")
    else:
        emit(_encode_scalar(value))


def _write_object(items, newline: str, step: str, emit, texts, templates=None):
    """Write (key, value) pairs as an object."""
    if not items:
        emit("{}")
        return
    inner = newline + step
    sep = "{" + inner
    for key, item in items:
        emit(sep + _encode_str(key) + ": ")
        _write(item, inner, step, emit, texts, templates)
        sep = "," + inner
    emit(newline + "}")


def _write_node(node, newline: str, step: str, emit, texts, templates=None):
    """Write an IR node as its wire object (see `_WIRE`)."""
    tag, keys = _WIRE[node.__class__]
    close = ""
    if tag:
        close = newline + "}"
        newline += step
        emit("{" + newline + _encode_str(tag) + ": ")
        if node.__class__ is SendClause:
            close = newline + "}" + close
            newline += step
            emit("{" + newline + _encode_str(node.message) + ": ")
            if not node.payload:
                keys = keys[:1]  # drops "payload"
    inner = newline + step
    sep = "{" + inner
    for key in keys:
        emit(sep + _encode_str(key) + ": ")
        value = getattr(node, "qubit" if key == "qubit_identifier" else key)
        write = _write_object if key in _PAIRS else _write
        write(value, inner, step, emit, texts, templates)
        sep = "," + inner
    emit(newline + "}" + close)


# --- rule templates ----------------------------------------------------------

# A hole (see the module docstring): a hole key's value written as a canonical
# JSON integer and followed by "," or a newline. Its `split` gives the text
# before each hole, the hole's key and its value, in turn.
_HOLE_TEXT = re.compile(
    r'("(?:id|owner_addr|partner_addr|shared_tag)": )(-?(?:0|[1-9][0-9]*))(?=[,\n])'
)
_ADDRESSED = frozenset({ResClause, RecvClause, SendClause})  # the clauses with a hole


def _split(text: str) -> tuple[list[str], list[str]]:
    """The pieces of `text` between its holes, each but the last followed by
    its hole's key, and the hole values in text order. A piece and its key
    stay two strings: joining them copies the text again, which made a load
    of the 1025-node chain about 20 ms slower (2 vCPU VM, Python 3.11.7)."""
    parts = _HOLE_TEXT.split(text)
    values = parts[2::3]
    del parts[2::3]
    return parts, values


_set_template = _Keyed._template.__set__


def keyed(rule: Rule, key) -> Rule:
    """`rule`, handed the key of its template: a hashable value that is
    equal for two rules of one write only if their texts differ in their
    holes alone. `serialize` writes the first rule of a key plainly and
    every later one from the pieces of that text; `runtime.Blueprint`
    builds the rule groups of one tuple of key objects once."""
    _set_template(rule, key)
    return rule


def _write_rule(rule: Rule, newline: str, step: str, emit, templates: dict) -> None:
    """Write a rule from the template of its handed key (see `keyed`). A rule
    with no key, or whose key is new to the write, is written plainly; the
    pieces of a new key's text are kept if its holes are the rule's."""
    try:
        key = rule._template
    except AttributeError:  # loaded the full way, built by hand or by `dataclasses.replace`
        _write_node(rule, newline, step, emit, {})
        return
    holes = [rule.id, rule.shared_tag]
    for clause in rule.condition.clauses + rule.action.clauses:
        if clause.__class__ in _ADDRESSED:
            holes.append(clause.partner_addr)
    pieces = templates.get(key)
    if pieces is None:
        out: list[str] = []
        _write_node(rule, newline, step, out.append, {})
        text = "".join(out)
        pieces, values = _split(text)
        if values == [repr(hole) for hole in holes]:
            templates[key] = pieces
        emit(text)
        return
    filled = [pieces[0]]
    for hole, name, piece in zip(holes, pieces[1::2], pieces[2::2]):
        if hole.__class__ is not int:  # not what the template was split for
            _write_node(rule, newline, step, emit, {})
            return
        filled += (name, int.__repr__(hole), piece)
    emit("".join(filled))


# --- deserialization ---------------------------------------------------------


def _shape(cls: type, required: bool = False):
    """The wire keys of `cls` (only those a document must hold if `required`):
    ordered for `_expect_obj`, compared as a set with `dict.keys()`."""
    return dict.fromkeys(k for k in _WIRE[cls][1] if not (required and k in _OPTIONAL)).keys()


_RULESET = _shape(RuleSet)
_STAGE = _shape(Stage)
_RULE = _shape(Rule)
_BLOCK = _shape(Condition)
_QUBIT = _shape(QubitId)
_RES = _shape(ResClause)
_CMP = _shape(CmpClause)
_TIMER = _shape(TimerClause)
_RECV = _shape(RecvClause)
_SEND, _SEND_REQUIRED = _shape(SendClause), _shape(SendClause, required=True)
_SET_TIMER = _shape(SetTimerClause)
_ON_QUBIT = _shape(PromoteClause)
_SET, _SET_REQUIRED = _shape(SetClause), _shape(SetClause, required=True)
_MEASURE = _shape(MeasureClause)
_QCIRC = _shape(QCircClause)
_GATE = _shape(QGate)


def _expect_obj(value, path: str, keys, optional=()) -> dict:
    """Name the first missing key in `keys` order, else the first unknown key."""
    if not isinstance(value, dict):
        raise SchemaError(f"expected object, got {type(value).__name__}", path)
    missing = [k for k in keys if k not in value]
    if missing:
        raise SchemaError(f"missing field {missing[0]!r}", path)
    unknown = [k for k in value if k not in keys and k not in optional]
    if unknown:
        raise SchemaError(f"unknown field {unknown[0]!r}", path)
    return value


def _expect_int(value, path: str) -> int:
    if value.__class__ is not int and (not isinstance(value, int) or isinstance(value, bool)):
        raise SchemaError(f"expected integer, got {type(value).__name__}", path)
    return value


def _expect_str(value, path: str) -> str:
    if value.__class__ is not str and not isinstance(value, str):
        raise SchemaError(f"expected string, got {type(value).__name__}", path)
    return value


def _expect_list(value, path: str) -> list:
    if value.__class__ is not list and not isinstance(value, list):
        raise SchemaError(f"expected array, got {type(value).__name__}", path)
    return value


def _array(value, path: str, item) -> tuple:
    """`item` applied to each element of the array `value`, found at `path`."""
    out = []
    _expect_list(value, path)
    try:
        for element in value:
            out.append(item(element))
    except SchemaError as err:
        err.path = f"{path}[{len(out)}]{err.path}"
        raise
    return tuple(out)


def _qubit(value) -> QubitId:
    """The "qubit_identifier" of an action clause or a gate."""
    if value.__class__ is not dict or value.keys() != _QUBIT:
        _expect_obj(value, ".qubit_identifier", _QUBIT)
    index = value["qubit_index"]
    if index.__class__ is not int:
        _expect_int(index, ".qubit_identifier.qubit_index")
    return QubitId(index)


def _variant(value, path: str) -> tuple[str, object]:
    if not isinstance(value, dict) or len(value) != 1:
        raise SchemaError("expected single-key variant object", path)
    [(key, body)] = value.items()
    return key, body


def _condition_clause(value) -> ConditionClause:
    if value.__class__ is not dict or len(value) != 1:
        _variant(value, "")
    [(key, body)] = value.items()
    try:
        if key == "Res":
            if body.__class__ is not dict or body.keys() != _RES:
                _expect_obj(body, "", _RES)
            fidelity = body["fidelity"]
            if fidelity.__class__ is not float or not 0.0 <= fidelity <= 1.0:
                if not isinstance(fidelity, (int, float)) or isinstance(fidelity, bool):
                    raise SchemaError("expected number for fidelity", ".fidelity")
                if not 0.0 <= fidelity <= 1.0:  # before float(), which overflows on a huge int
                    raise SchemaError(f"fidelity {fidelity} outside [0, 1]", ".fidelity")
                fidelity = float(fidelity)
            count, partner, qubit = body["count"], body["partner_addr"], body["qubit_index"]
            if (
                count.__class__ is not int
                or partner.__class__ is not int
                or qubit.__class__ is not int
            ):
                _expect_int(count, ".count")
                _expect_int(partner, ".partner_addr")
                _expect_int(qubit, ".qubit_index")
            return ResClause(count, fidelity, partner, qubit)
        if key == "Cmp":
            if body.__class__ is not dict or body.keys() != _CMP:
                _expect_obj(body, "", _CMP)
            operator = _expect_str(body["operator"], ".operator")
            if operator not in CMP_OPERATORS:
                raise SchemaError(f"unknown operator {operator!r}", ".operator")
            kind, raw = _variant(body["target_val"], ".target_val")
            cmp_val = _expect_str(body["cmp_val"], ".cmp_val")
            if raw.__class__ is not str:
                _expect_str(raw, f".target_val.{kind}")
            return CmpClause(cmp_val, operator, TaggedValue(kind, raw))
        if key == "Recv":
            if body.__class__ is not dict or body.keys() != _RECV:
                _expect_obj(body, "", _RECV)
            partner = body["partner_addr"]
            if partner.__class__ is not int:
                _expect_int(partner, ".partner_addr")
            return RecvClause(partner)
        if key == "Timer":
            if body.__class__ is not dict or body.keys() != _TIMER:
                _expect_obj(body, "", _TIMER)
            return TimerClause(_expect_str(body["timer_id"], ".timer_id"))
    except SchemaError as err:
        err.path = f".{key}{err.path}"
        raise
    raise SchemaError(f"unknown condition clause {key!r}", "")


def _action_clause(value) -> ActionClause:
    if value.__class__ is not dict or len(value) != 1:
        _variant(value, "")
    [(key, body)] = value.items()
    try:
        if key == "Send":
            kind, inner = _variant(body, "")
            if kind not in MESSAGE_KINDS:
                raise SchemaError(f"unknown message kind {kind!r}", "")
            if inner.__class__ is not dict or not _SEND_REQUIRED <= inner.keys() <= _SEND:
                _expect_obj(inner, f".{kind}", _SEND_REQUIRED, _SEND)
            payload: tuple[tuple[str, str], ...] = ()
            if "payload" in inner:
                raw = inner["payload"]
                if not isinstance(raw, dict):
                    raise SchemaError("expected object for payload", f".{kind}.payload")
                payload = tuple(raw.items())  # the keys of decoded JSON are strings
                for k, v in payload:
                    if v.__class__ is not str:
                        _expect_str(v, f".{kind}.payload.{k}")
            partner = inner["partner_addr"]
            if partner.__class__ is not int:
                _expect_int(partner, f".{kind}.partner_addr")
            return SendClause(kind, partner, payload)
        if key == "Measure":
            if body.__class__ is not dict or body.keys() != _MEASURE:
                _expect_obj(body, "", _MEASURE)
            basis = _expect_str(body["basis"], ".basis")
            if basis not in MEASURE_BASES:
                raise SchemaError(f"unknown basis {basis!r}", ".basis")
            return MeasureClause(_qubit(body["qubit_identifier"]), basis)
        if key == "QCirc":
            if body.__class__ is not dict or body.keys() != _QCIRC:
                _expect_obj(body, "", _QCIRC)
            return QCircClause(_array(body["qgates"], ".qgates", _gate))
        if key == "Promote" or key == "Free":
            if body.__class__ is not dict or body.keys() != _ON_QUBIT:
                _expect_obj(body, "", _ON_QUBIT)
            cls = PromoteClause if key == "Promote" else FreeClause
            return cls(_qubit(body["qubit_identifier"]))
        if key == "SetTimer":
            if body.__class__ is not dict or body.keys() != _SET_TIMER:
                _expect_obj(body, "", _SET_TIMER)
            timer_id = _expect_str(body["timer_id"], ".timer_id")
            return SetTimerClause(timer_id, _expect_int(body["duration"], ".duration"))
        if key == "Set":
            if body.__class__ is not dict or not _SET_REQUIRED <= body.keys() <= _SET:
                _expect_obj(body, "", _SET_REQUIRED, _SET)
            alias = body.get("alias")
            if alias is not None:
                alias = _expect_str(alias, ".alias")
            return SetClause(_expect_str(body["variable"], ".variable"), alias)
    except SchemaError as err:
        err.path = f".{key}{err.path}"
        raise
    raise SchemaError(f"unknown action clause {key!r}", "")


def _gate(value) -> QGate:
    if value.__class__ is not dict or value.keys() != _GATE:
        _expect_obj(value, "", _GATE)
    kind = _expect_str(value["kind"], ".kind")
    if kind not in GATE_KINDS:
        raise SchemaError(f"unknown gate kind {kind!r}", ".kind")
    return QGate(_qubit(value["qubit_identifier"]), kind)


def _block(value, clause) -> tuple:
    """The name and the clauses of a condition or an action."""
    if value.__class__ is not dict or value.keys() != _BLOCK:
        _expect_obj(value, "", _BLOCK)
    name = value["name"]
    if name is not None:
        name = _expect_str(name, ".name")
    return name, _array(value["clauses"], ".clauses", clause)


def _rule(value) -> Rule:
    if value.__class__ is not dict or value.keys() != _RULE:
        _expect_obj(value, "", _RULE)
    qnic = value["qnic_interfaces"]
    if not isinstance(qnic, dict):
        raise SchemaError("expected object for qnic_interfaces", ".qnic_interfaces")
    interfaces = tuple(qnic.items())  # the keys of decoded JSON are strings
    for k, v in interfaces:
        if v.__class__ is not str:
            _expect_str(v, f".qnic_interfaces.{k}")
    finalized = value["is_finalized"]
    if not isinstance(finalized, bool):
        raise SchemaError("expected boolean for is_finalized", ".is_finalized")
    name = _expect_str(value["name"], ".name")
    rule_id = _expect_int(value["id"], ".id")
    shared_tag = _expect_int(value["shared_tag"], ".shared_tag")
    where = ".condition"
    try:
        condition = Condition(*_block(value["condition"], _condition_clause))
        where = ".action"
        action = Action(*_block(value["action"], _action_clause))
    except SchemaError as err:
        err.path = where + err.path
        raise
    return Rule(name, rule_id, shared_tag, condition, action, interfaces, finalized)


def _stage(value) -> Stage:
    if value.__class__ is not dict or value.keys() != _STAGE:
        _expect_obj(value, "", _STAGE)
    return Stage(_array(value["rules"], ".rules", _rule))


def deserialize(text: str, interned: dict | None = None) -> RuleSet:
    """Parse JSON text into a RuleSet, rejecting unknown fields and bad domains.

    `interned` is the table of the load (see the module docstring): pass one
    dict to every call of a load that reads several documents, and drop it
    when the load is done. A document of a shape met before in the load is
    rebuilt from the RuleSet of the first one.
    """
    if interned is None:
        interned = {}
    loaded = interned[_LOADED] = interned.get(_LOADED, 0) + 1
    if loaded <= _UNSHAPED:
        return _document(text)
    shapes = interned.setdefault(_SHAPES, {})
    pieces, values = _split(text)
    pieces = tuple(pieces)
    shape = shapes.get(pieces)
    if shape is None:
        ruleset = _document(text)
        shapes[pieces] = _Shape(text, ruleset)
        return ruleset
    return shape.refill(values, interned) or _document(text)


def _document(text: str) -> RuleSet:
    """Decode `text` and check it against the schema, node by node."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("JSON nested too deeply to decode") from exc
    except ValueError as exc:  # an integer of more digits than int() converts
        raise SchemaError("integer too long to convert") from exc
    try:
        if doc.__class__ is not dict or doc.keys() != _RULESET:
            _expect_obj(doc, "", _RULESET)
        stages = _array(doc["stages"], ".stages", _stage)
        name = _expect_str(doc["name"], ".name")
        ruleset_id = _expect_int(doc["id"], ".id")
        return RuleSet(name, ruleset_id, _expect_int(doc["owner_addr"], ".owner_addr"), stages)
    except SchemaError as err:
        err.path = "$" + err.path
        err.args = (f"{err.path}: {err.reason}",)
        raise


# --- document shapes ---------------------------------------------------------

# the keys of a load's shape table and of its count of documents in its table
_SHAPES, _LOADED = object(), object()
# A load keys its documents by shape from the ninth on. Per file of the
# 1025-node doubling chain, the split costs about a fifth of a full load and
# a refill about an eighth, while the check of a shape, one `serialize` of
# its RuleSet, costs about one and a half (0.055, 0.04 and 0.46 against
# 0.30 ms on a 2 vCPU VM, Python 3.11.7): a shape pays for its check once it
# recurs about three times, so shapes pay only where they recur many times;
# the 3-7 files of a corpus program pay nothing.
_UNSHAPED = 8


class _Shape:
    """The first document of a load with one shape: its RuleSet, and its
    text until the shape recurs, when that text is checked (see the module
    docstring)."""

    __slots__ = ("text", "ruleset", "canonical")

    def __init__(self, text: str, ruleset: RuleSet):
        self.text, self.ruleset, self.canonical = text, ruleset, False

    def refill(self, values: list[str], table: dict) -> RuleSet | None:
        """The RuleSet of a document of this shape with the hole values
        `values`, or None if the shape's text is not the writer's. Each rule
        it builds is handed the shape's rule as its key (see `keyed`)."""
        if self.text is not None:
            self.canonical = self.text == serialize(self.ruleset)
            self.text = None
        if not self.canonical:
            return None
        try:
            holes = iter(list(map(int, values)))
        except ValueError:  # too long to convert: the full path words the error
            return None
        ruleset_id, owner = next(holes), next(holes)
        stages = []
        for stage in self.ruleset.stages:
            refilled = []
            for rule in stage.rules:
                rule_id, tag = next(holes), next(holes)
                condition = _readdressed(rule.condition, holes, table)
                action = _readdressed(rule.action, holes, table)
                refill = Rule(
                    rule.name, rule_id, tag, condition, action,
                    rule.qnic_interfaces, rule.is_finalized,
                )
                refilled.append(keyed(refill, rule))
            stages.append(Stage(tuple(refilled)))
        return RuleSet(self.ruleset.name, ruleset_id, owner, tuple(stages))


def _readdressed(block, holes, table: dict):
    """A condition or an action with the next values of `holes` in its
    clauses' holes; itself if it has none. Each readdressed clause is kept
    in `table` under its value (every IR object is truthy), so that the
    refills of a load share it."""
    clauses, holed = [], False
    for clause in block.clauses:
        cls = clause.__class__
        if cls in _ADDRESSED:
            holed, partner = True, next(holes)
            if cls is ResClause:
                # -0.0 == 0.0, but the two serialize differently: a zero is keyed by its text
                count, fidelity, qubit = clause.count, clause.fidelity, clause.qubit_index
                ident = (cls, count, fidelity or repr(fidelity), partner, qubit)
                clause = table.get(ident) or table.setdefault(
                    ident, ResClause(count, fidelity, partner, qubit)
                )
            elif cls is RecvClause:
                ident = (cls, partner)
                clause = table.get(ident) or table.setdefault(ident, RecvClause(partner))
            else:
                kind, payload = clause.message, clause.payload
                ident = (cls, kind, partner, payload)
                clause = table.get(ident) or table.setdefault(
                    ident, SendClause(kind, partner, payload)
                )
        clauses.append(clause)
    return block.__class__(block.name, tuple(clauses)) if holed else block


# --- validation --------------------------------------------------------------


def validate(ruleset: RuleSet) -> list[Finding]:
    """Structural checks beyond the schema: the errors found, none when clean."""
    findings: list[Finding] = []

    def error(path: str, message: str) -> None:
        findings.append(Finding(path, message))

    expected_id = 0
    seen_ids: set[int] = set()
    for si, stage in enumerate(ruleset.stages):
        spath = f"$.stages[{si}]"
        if not stage.rules:
            error(spath, "stage contains no rules")
        for ri, rule in enumerate(stage.rules):
            rpath = f"{spath}.rules[{ri}]"
            if rule.id in seen_ids:
                error(rpath + ".id", f"duplicate rule id {rule.id}")
            seen_ids.add(rule.id)
            if rule.id != expected_id:
                error(
                    rpath + ".id",
                    f"rule id {rule.id} breaks sequential numbering (expected {expected_id})",
                )
            expected_id += 1
            for ci, clause in enumerate(rule.condition.clauses):
                if isinstance(clause, ResClause):
                    cpath = f"{rpath}.condition.clauses[{ci}]"
                    if not 0.0 <= clause.fidelity <= 1.0:
                        error(cpath, f"fidelity {clause.fidelity} outside [0, 1]")
                    if clause.count < 1:
                        error(cpath, f"resource count {clause.count} below 1")
            for ci, clause in enumerate(rule.action.clauses):
                if isinstance(clause, QCircClause):
                    kinds = [g.kind for g in clause.qgates]
                    for control, target in (("CxControl", "CxTarget"), ("CzControl", "CzTarget")):
                        if kinds.count(control) != kinds.count(target):
                            error(
                                f"{rpath}.action.clauses[{ci}]",
                                f"unpaired {control}/{target} in circuit",
                            )
    return findings
