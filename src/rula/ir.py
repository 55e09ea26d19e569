"""In-memory model of compiled RuleSets and their JSON wire format.

A RuleSet is the unit shipped to one repeater: an ordered list of stages,
each holding rules that pair a condition (resource, message, comparison and
timer clauses) with an action (gates, measurements, resource management and
message sends).

The wire format is stated once, in `_WIRE`. `serialize` walks the IR nodes
through it, building no intermediate dict tree, and writes the bytes
`json.dumps(indent=4, ensure_ascii=False)` gives for the document; the
deserializer takes its key sets from the same table.

`serialize` writes each distinct rule once (Holzmann's state hashing in
SPIN, 1997: equal work is keyed and done once). A rule's holes are its
`id` and `shared_tag` and the `partner_addr` of its Res, Recv and Send
clauses; everything else that shapes its text is the key of its template.
On a miss the rule is written through `_write_node` with a raw "\0" in
each hole, which JSON text never holds (the encoder escapes it in strings),
and the text is split there; every rule with that key is the pieces joined
with its own hole values. The 11 253 rules of the 1025-node doubling chain
have 9 templates. The key tells apart values that compare equal but write
differently (`1`, `1.0` and `True`; `0.0` and `-0.0`). Keying a clause
walks its fields, so each clause's key is kept by its identity: lowering
shares clause objects between the rules it expands from one template.

`dumps` writes each dict object once per call and indentation: a dict's
text is kept in a table for the call under its id and the indentation it
was written at, with the dict itself so that the id is not reused, and a
dict met again is emitted as that one string. The simulator builds each
distinct report record once per call (see `runtime`), so the 2 048
reports of perfbench `enumerate_small` write 158 fired and 6 pair records
instead of 49 152 and 6 144.

Deserialization is one pass over the decoded JSON, and a document that
passes builds no error text. Each object's keys are compared once with its
shape, and each scalar's exact class is checked; only a value that fails
goes through the `_expect_*` helpers, which word the error. A SchemaError
is raised with a path relative to the value being checked. Each enclosing
level catches it, prepends its own segment (".stages[2]", ".rules[0]",
".condition", ".clauses[1]", ".Res", ".qgates[0]", ...) and re-raises, and
`deserialize` adds the leading "$".

Deserialization hash-conses the clauses (Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): each distinct clause value, `QubitId`, `QGate`
and `TaggedValue` is built once per load and shared by every rule that
holds it: a 1025-node chain has ~110 000 such leaves but ~5 100 distinct
values, which leaves less for the garbage collector to rescan. A key is the
node's class and its field values, taken only after every field has passed
its type check and a fidelity has become a float, so values Python treats
as equal (`1`, `1.0`, `True`) can never meet under one key; the one equal
pair the schema lets through, a fidelity of `0.0` and of `-0.0`, is keyed
by its text. A `QCircClause` is keyed by the identities of its gates, which
the table keeps alive. Lookups read `table.get(ident) or
table.setdefault(ident, ...)`: every IR object is truthy. The table lives
for one load only, one `deserialize` call or the files one command reads
(`interned`), never across loads. Conditions, actions and rules are not
interned: on that chain 8 184 of 11 253 conditions and 5 119 of 11 253
actions are distinct, and keying them made a load slower, not faster.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

CMP_OPERATORS = ("Eq", "Neq", "Lt", "Leq", "Gt", "Geq")
MESSAGE_KINDS = ("Free", "Update", "Meas", "Transfer")
GATE_KINDS = ("X", "Y", "Z", "H", "CxControl", "CxTarget", "CzControl", "CzTarget")
MEASURE_BASES = ("X", "Y", "Z")


class SchemaError(ValueError):
    """Raised when a RuleSet document does not match the wire schema."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.reason = message


@dataclass(frozen=True)
class QubitId:
    qubit_index: int


@dataclass(frozen=True)
class TaggedValue:
    """A literal tagged with its kind, e.g. {"MeasResult": "00"}."""

    kind: str
    value: str


# --- condition clauses -------------------------------------------------------


@dataclass(frozen=True)
class ResClause:
    count: int
    fidelity: float
    partner_addr: int
    qubit_index: int


@dataclass(frozen=True)
class CmpClause:
    cmp_val: str
    operator: str
    target_val: TaggedValue


@dataclass(frozen=True)
class TimerClause:
    timer_id: str


@dataclass(frozen=True)
class RecvClause:
    partner_addr: int


ConditionClause = ResClause | CmpClause | TimerClause | RecvClause


# --- action clauses ----------------------------------------------------------


@dataclass(frozen=True)
class SetTimerClause:
    timer_id: str
    duration: int


@dataclass(frozen=True)
class PromoteClause:
    qubit: QubitId


@dataclass(frozen=True)
class FreeClause:
    qubit: QubitId


@dataclass(frozen=True)
class SetClause:
    variable: str
    alias: str | None = None


@dataclass(frozen=True)
class MeasureClause:
    qubit: QubitId
    basis: str


def register(n: int) -> str:
    """The name of the register a firing's `n`th measurement (from 0) writes,
    as Cmp and Set clauses and Meas payloads name it."""
    return "MeasResult" if n == 0 else f"MeasResult{n}"


@dataclass(frozen=True)
class QGate:
    qubit: QubitId
    kind: str


@dataclass(frozen=True)
class QCircClause:
    qgates: tuple[QGate, ...]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Condition:
    name: str | None = None
    clauses: tuple[ConditionClause, ...] = ()


@dataclass(frozen=True)
class Action:
    name: str | None = None
    clauses: tuple[ActionClause, ...] = ()


@dataclass(frozen=True)
class Rule:
    name: str
    id: int
    shared_tag: int
    condition: Condition
    action: Action
    qnic_interfaces: tuple[tuple[str, str], ...] = ()
    is_finalized: bool = False


@dataclass(frozen=True)
class Stage:
    rules: tuple[Rule, ...] = ()


@dataclass(frozen=True)
class RuleSet:
    name: str
    id: int
    owner_addr: int
    stages: tuple[Stage, ...] = ()


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
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

    Each rule is written from its template (see "rule templates" below).
    `templates` is the template table of the write: pass one dict to every
    call of a write that renders several RuleSets, and drop it when the
    write is done.
    """
    out: list[str] = []
    _write(ruleset, "\n", "    ", False, out.append, {}, {} if templates is None else templates)
    out.append("\n")
    return "".join(out)


# --- canonical JSON writer ---------------------------------------------------

_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def dumps(value, indent: int = 4, sort_keys: bool = False) -> str:
    """Render JSON data, in which an IR node stands for its wire object,
    exactly as `json.dumps(value, indent=indent, ensure_ascii=False,
    sort_keys=sort_keys)` renders the data with the objects in place.

    With an indent the standard library falls back to its pure-Python
    encoder. This writer walks dicts, lists, tuples and IR nodes itself,
    writes the fixed indentation and separators directly, writes a finite
    float with `float.__repr__` and an int with `int.__repr__` as the C
    encoder does, and leaves every other leaf to the C encoder. Keys must
    be strings; `sort_keys` sorts the keys of dicts only, never an IR
    node's.

    Each dict object is written once per indentation (see `_write`).
    """
    out: list[str] = []
    _write(value, "\n", " " * indent, sort_keys, out.append, {})
    return "".join(out)


def _write(value, newline: str, step: str, sort_keys: bool, emit, texts: dict, templates=None):
    """Write `value` at the indentation `newline`. `texts` is the table of
    dict texts of one write: a dict's text under (its id, `newline`), kept
    with the dict itself so that its id is not reused while the table
    lives. A dict met again, at the same indentation, is written as that
    one string. `templates` is the rule template table of `serialize`."""
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
        _write_node(value, newline, step, sort_keys, emit, texts, templates)
    elif cls is TaggedValue:
        _write_object(((value.kind, value.value),), newline, step, sort_keys, emit, texts)
    elif isinstance(value, dict):
        known = texts.get((id(value), newline))
        if known is None:
            items = sorted(value.items()) if sort_keys else value.items()
            text: list[str] = []
            _write_object(items, newline, step, sort_keys, text.append, texts, templates)
            known = texts[id(value), newline] = (value, "".join(text))
        emit(known[1])
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + step
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, step, sort_keys, emit, texts, templates)
            sep = "," + inner
        emit(newline + "]")
    elif value is _HOLE:
        emit("\0")
    else:
        emit(_encode_scalar(value))


def _write_object(items, newline: str, step: str, sort_keys: bool, emit, texts, templates=None):
    """Write (key, value) pairs as an object."""
    if not items:
        emit("{}")
        return
    inner = newline + step
    sep = "{" + inner
    for key, item in items:
        emit(sep + _encode_str(key) + ": ")
        _write(item, inner, step, sort_keys, emit, texts, templates)
        sep = "," + inner
    emit(newline + "}")


def _write_node(node, newline: str, step: str, sort_keys: bool, emit, texts, templates=None):
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
        write(value, inner, step, sort_keys, emit, texts, templates)
        sep = "," + inner
    emit(newline + "}" + close)


# --- rule templates ----------------------------------------------------------

# The holes of a rule: the fields of a Rule and of its clauses whose values
# tell apart the rules of a chain that are otherwise the same. The rest of a
# rule is its template, written once per write and split at the holes.
_HOLES = frozenset({"id", "shared_tag", "partner_addr"})
_HOLE = object()  # written as a raw "\0", which the encoder escapes in strings


def _fields(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The holes of `cls` and its other fields, each in the order its wire
    object writes them. No field written before a hole holds a hole itself,
    so a node's own holes, then those of its other fields, are in text order."""
    wire = tuple("qubit" if key == "qubit_identifier" else key for key in _WIRE[cls][1])
    names = tuple(f.name for f in fields(cls) if f.name not in wire) + wire
    return tuple(n for n in names if n in _HOLES), tuple(n for n in names if n not in _HOLES)


_FIELDS = {cls: _fields(cls) for cls in _WIRE}
_FIELDS[TaggedValue] = ((), ("kind", "value"))
_CLAUSES = frozenset(cls for cls, (tag, _keys) in _WIRE.items() if tag)


def _write_rule(rule: Rule, newline: str, step: str, emit, templates: dict) -> None:
    """Write a rule from its template, rendering the template on first use."""
    holes: list = []
    key = (newline, _template_key(rule, holes, templates))
    pieces = templates.get(key)
    if pieces is None:
        text: list[str] = []
        _write_node(_holed(rule), newline, step, False, text.append, {})
        pieces = templates[key] = "".join(text).split("\0")
    filled = [pieces[0]]
    for hole, piece in zip(holes, pieces[1:]):
        if hole.__class__ is not int:  # not what the template was split for
            _write_node(rule, newline, step, False, emit, {})
            return
        filled += (int.__repr__(hole), piece)
    emit("".join(filled))


def _template_key(value, holes: list, table: dict):
    """What shapes the text of `value` but its holes, whose values are
    appended to `holes` in text order. A scalar other than a str, an int or
    None is keyed with its class: `1`, `1.0` and `True` are equal, as are
    `0.0` and `-0.0` (keyed by repr), but each writes its own text. A
    clause's key is kept in `table` under the clause's id, with the clause
    itself, which keeps that id from being reused while the table lives;
    a clause seen again gives its key and the values of its own holes."""
    cls = value.__class__
    if cls is tuple or cls is list:
        key = []
        for item in value:
            known = table.get(id(item))
            if known is not None:  # a clause keyed before
                key.append(known[1])
                for name in _FIELDS[item.__class__][0]:
                    holes.append(getattr(item, name))
            elif item.__class__ is str or item.__class__ is int:
                key.append(item)
            else:
                key.append(_template_key(item, holes, table))
        return tuple(key)
    spec = _FIELDS.get(cls)
    if spec is None:
        return value if cls is str or cls is int else (cls, repr(value))
    own, names = spec
    for name in own:
        holes.append(getattr(value, name))
    found = len(holes)
    key = [cls]
    for name in names:
        item = getattr(value, name)
        if item.__class__ is str or item.__class__ is int or item is None:
            key.append(item)
        else:
            key.append(_template_key(item, holes, table))
    key = tuple(key)
    if cls in _CLAUSES and len(holes) == found:  # its holes are its own fields
        table[id(value)] = (value, key)
    return key


def _holed(value):
    """A copy of `value` with `_HOLE` in each of its holes."""
    spec = _FIELDS.get(value.__class__)
    if spec is not None:
        own, names = spec
        copy = {name: _holed(getattr(value, name)) for name in names}
        return value.__class__(**copy, **dict.fromkeys(own, _HOLE))
    if value.__class__ is tuple or value.__class__ is list:
        return tuple(map(_holed, value))
    return value


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


def _array(value, path: str, item, table: dict) -> tuple:
    """`item` applied to each element of the array `value`, found at `path`."""
    out = []
    _expect_list(value, path)
    try:
        for element in value:
            out.append(item(element, table))
    except SchemaError as err:
        err.path = f"{path}[{len(out)}]{err.path}"
        raise
    return tuple(out)


def _qubit_index(value) -> int:
    """The index of the "qubit_identifier" of an action clause or a gate."""
    if value.__class__ is not dict or value.keys() != _QUBIT:
        _expect_obj(value, ".qubit_identifier", _QUBIT)
    index = value["qubit_index"]
    if index.__class__ is not int:
        _expect_int(index, ".qubit_identifier.qubit_index")
    return index


def _qubit(index: int, table: dict) -> QubitId:
    return table.get((QubitId, index)) or table.setdefault((QubitId, index), QubitId(index))


def _variant(value, path: str) -> tuple[str, object]:
    if not isinstance(value, dict) or len(value) != 1:
        raise SchemaError("expected single-key variant object", path)
    [(key, body)] = value.items()
    return key, body


def _condition_clause(value, table: dict) -> ConditionClause:
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
            # -0.0 == 0.0, but the two serialize differently: a zero is keyed by its text
            ident = (ResClause, count, fidelity or repr(fidelity), partner, qubit)
            return table.get(ident) or table.setdefault(
                ident, ResClause(count, fidelity, partner, qubit)
            )
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
            ident = (CmpClause, cmp_val, operator, kind, raw)
            target = (TaggedValue, kind, raw)
            return table.get(ident) or table.setdefault(
                ident,
                CmpClause(
                    cmp_val,
                    operator,
                    table.get(target) or table.setdefault(target, TaggedValue(kind, raw)),
                ),
            )
        if key == "Recv":
            if body.__class__ is not dict or body.keys() != _RECV:
                _expect_obj(body, "", _RECV)
            partner = body["partner_addr"]
            if partner.__class__ is not int:
                _expect_int(partner, ".partner_addr")
            ident = (RecvClause, partner)
            return table.get(ident) or table.setdefault(ident, RecvClause(partner))
        if key == "Timer":
            if body.__class__ is not dict or body.keys() != _TIMER:
                _expect_obj(body, "", _TIMER)
            timer_id = _expect_str(body["timer_id"], ".timer_id")
            ident = (TimerClause, timer_id)
            return table.get(ident) or table.setdefault(ident, TimerClause(timer_id))
    except SchemaError as err:
        err.path = f".{key}{err.path}"
        raise
    raise SchemaError(f"unknown condition clause {key!r}", "")


def _action_clause(value, table: dict) -> ActionClause:
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
            ident = (SendClause, kind, partner, payload)
            return table.get(ident) or table.setdefault(ident, SendClause(kind, partner, payload))
        if key == "Measure":
            if body.__class__ is not dict or body.keys() != _MEASURE:
                _expect_obj(body, "", _MEASURE)
            basis = _expect_str(body["basis"], ".basis")
            if basis not in MEASURE_BASES:
                raise SchemaError(f"unknown basis {basis!r}", ".basis")
            index = _qubit_index(body["qubit_identifier"])
            ident = (MeasureClause, index, basis)
            return table.get(ident) or table.setdefault(
                ident, MeasureClause(_qubit(index, table), basis)
            )
        if key == "QCirc":
            if body.__class__ is not dict or body.keys() != _QCIRC:
                _expect_obj(body, "", _QCIRC)
            gates = _array(body["qgates"], ".qgates", _gate, table)
            ident = (QCircClause, *map(id, gates))
            return table.get(ident) or table.setdefault(ident, QCircClause(gates))
        if key == "Promote" or key == "Free":
            if body.__class__ is not dict or body.keys() != _ON_QUBIT:
                _expect_obj(body, "", _ON_QUBIT)
            cls = PromoteClause if key == "Promote" else FreeClause
            index = _qubit_index(body["qubit_identifier"])
            return table.get((cls, index)) or table.setdefault(
                (cls, index), cls(_qubit(index, table))
            )
        if key == "SetTimer":
            if body.__class__ is not dict or body.keys() != _SET_TIMER:
                _expect_obj(body, "", _SET_TIMER)
            timer_id = _expect_str(body["timer_id"], ".timer_id")
            duration = _expect_int(body["duration"], ".duration")
            ident = (SetTimerClause, timer_id, duration)
            return table.get(ident) or table.setdefault(ident, SetTimerClause(timer_id, duration))
        if key == "Set":
            if body.__class__ is not dict or not _SET_REQUIRED <= body.keys() <= _SET:
                _expect_obj(body, "", _SET_REQUIRED, _SET)
            alias = body.get("alias")
            if alias is not None:
                alias = _expect_str(alias, ".alias")
            variable = _expect_str(body["variable"], ".variable")
            ident = (SetClause, variable, alias)
            return table.get(ident) or table.setdefault(ident, SetClause(variable, alias))
    except SchemaError as err:
        err.path = f".{key}{err.path}"
        raise
    raise SchemaError(f"unknown action clause {key!r}", "")


def _gate(value, table: dict) -> QGate:
    if value.__class__ is not dict or value.keys() != _GATE:
        _expect_obj(value, "", _GATE)
    kind = _expect_str(value["kind"], ".kind")
    if kind not in GATE_KINDS:
        raise SchemaError(f"unknown gate kind {kind!r}", ".kind")
    index = _qubit_index(value["qubit_identifier"])
    ident = (QGate, index, kind)
    return table.get(ident) or table.setdefault(ident, QGate(_qubit(index, table), kind))


def _block(value, clause, table: dict) -> tuple:
    """The name and the clauses of a condition or an action."""
    if value.__class__ is not dict or value.keys() != _BLOCK:
        _expect_obj(value, "", _BLOCK)
    name = value["name"]
    if name is not None:
        name = _expect_str(name, ".name")
    return name, _array(value["clauses"], ".clauses", clause, table)


def _rule(value, table: dict) -> Rule:
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
        condition = Condition(*_block(value["condition"], _condition_clause, table))
        where = ".action"
        action = Action(*_block(value["action"], _action_clause, table))
    except SchemaError as err:
        err.path = where + err.path
        raise
    return Rule(name, rule_id, shared_tag, condition, action, interfaces, finalized)


def _stage(value, table: dict) -> Stage:
    if value.__class__ is not dict or value.keys() != _STAGE:
        _expect_obj(value, "", _STAGE)
    return Stage(_array(value["rules"], ".rules", _rule, table))


def deserialize(text: str, interned: dict | None = None) -> RuleSet:
    """Parse JSON text into a RuleSet, rejecting unknown fields and bad domains.

    `interned` is the hash-consing table of the load (see the module
    docstring): pass one dict to every call of a load that reads several
    documents, and drop it when the load is done.
    """
    table = {} if interned is None else interned
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    except RecursionError as exc:
        raise SchemaError("JSON nested too deeply to decode") from exc
    try:
        if doc.__class__ is not dict or doc.keys() != _RULESET:
            _expect_obj(doc, "", _RULESET)
        stages = _array(doc["stages"], ".stages", _stage, table)
        name = _expect_str(doc["name"], ".name")
        ruleset_id = _expect_int(doc["id"], ".id")
        return RuleSet(name, ruleset_id, _expect_int(doc["owner_addr"], ".owner_addr"), stages)
    except SchemaError as err:
        err.path = "$" + err.path
        err.args = (f"{err.path}: {err.reason}",)
        raise


# --- validation --------------------------------------------------------------


def validate(ruleset: RuleSet) -> list[Finding]:
    """Structural checks beyond the schema; returns findings, empty when clean."""
    findings: list[Finding] = []

    def error(path: str, message: str) -> None:
        findings.append(Finding("error", path, message))

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
