"""In-memory model of compiled RuleSets and their JSON wire format.

A RuleSet is the unit shipped to one repeater: an ordered list of stages,
each holding rules that pair a condition (resource, message, comparison and
timer clauses) with an action (gates, measurements, resource management and
message sends).  Serialization is deterministic so compiled output can be
compared byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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

    def to_json(self) -> dict:
        return {"qubit_index": self.qubit_index}


@dataclass(frozen=True)
class TaggedValue:
    """A literal tagged with its kind, e.g. {"MeasResult": "00"}."""

    kind: str
    value: str

    def to_json(self) -> dict:
        return {self.kind: self.value}


# --- condition clauses -------------------------------------------------------


@dataclass(frozen=True)
class ResClause:
    count: int
    fidelity: float
    partner_addr: int
    qubit_index: int

    def to_json(self) -> dict:
        return {
            "Res": {
                "count": self.count,
                "fidelity": self.fidelity,
                "partner_addr": self.partner_addr,
                "qubit_index": self.qubit_index,
            }
        }


@dataclass(frozen=True)
class CmpClause:
    cmp_val: str
    operator: str
    target_val: TaggedValue

    def to_json(self) -> dict:
        return {
            "Cmp": {
                "cmp_val": self.cmp_val,
                "operator": self.operator,
                "target_val": self.target_val.to_json(),
            }
        }


@dataclass(frozen=True)
class TimerClause:
    timer_id: str

    def to_json(self) -> dict:
        return {"Timer": {"timer_id": self.timer_id}}


@dataclass(frozen=True)
class RecvClause:
    partner_addr: int

    def to_json(self) -> dict:
        return {"Recv": {"partner_addr": self.partner_addr}}


ConditionClause = ResClause | CmpClause | TimerClause | RecvClause


# --- action clauses ----------------------------------------------------------


@dataclass(frozen=True)
class SetTimerClause:
    timer_id: str
    duration: int

    def to_json(self) -> dict:
        return {"SetTimer": {"timer_id": self.timer_id, "duration": self.duration}}


@dataclass(frozen=True)
class PromoteClause:
    qubit: QubitId

    def to_json(self) -> dict:
        return {"Promote": {"qubit_identifier": self.qubit.to_json()}}


@dataclass(frozen=True)
class FreeClause:
    qubit: QubitId

    def to_json(self) -> dict:
        return {"Free": {"qubit_identifier": self.qubit.to_json()}}


@dataclass(frozen=True)
class SetClause:
    variable: str
    alias: str | None = None

    def to_json(self) -> dict:
        return {"Set": {"variable": self.variable, "alias": self.alias}}


@dataclass(frozen=True)
class MeasureClause:
    qubit: QubitId
    basis: str

    def to_json(self) -> dict:
        return {"Measure": {"qubit_identifier": self.qubit.to_json(), "basis": self.basis}}


@dataclass(frozen=True)
class QGate:
    qubit: QubitId
    kind: str

    def to_json(self) -> dict:
        return {"qubit_identifier": self.qubit.to_json(), "kind": self.kind}


@dataclass(frozen=True)
class QCircClause:
    qgates: tuple[QGate, ...]

    def to_json(self) -> dict:
        return {"QCirc": {"qgates": [g.to_json() for g in self.qgates]}}


@dataclass(frozen=True)
class SendClause:
    message: str  # one of MESSAGE_KINDS
    partner_addr: int
    payload: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        body: dict = {"partner_addr": self.partner_addr}
        if self.payload:
            body["payload"] = dict(self.payload)
        return {"Send": {self.message: body}}


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

    def to_json(self) -> dict:
        return {"name": self.name, "clauses": [c.to_json() for c in self.clauses]}


@dataclass(frozen=True)
class Action:
    name: str | None = None
    clauses: tuple[ActionClause, ...] = ()

    def to_json(self) -> dict:
        return {"name": self.name, "clauses": [c.to_json() for c in self.clauses]}


@dataclass(frozen=True)
class Rule:
    name: str
    id: int
    shared_tag: int
    condition: Condition
    action: Action
    qnic_interfaces: tuple[tuple[str, str], ...] = ()
    is_finalized: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "id": self.id,
            "shared_tag": self.shared_tag,
            "qnic_interfaces": dict(self.qnic_interfaces),
            "condition": self.condition.to_json(),
            "action": self.action.to_json(),
            "is_finalized": self.is_finalized,
        }


@dataclass(frozen=True)
class Stage:
    rules: tuple[Rule, ...] = ()

    def to_json(self) -> dict:
        return {"rules": [r.to_json() for r in self.rules]}


@dataclass(frozen=True)
class RuleSet:
    name: str
    id: int
    owner_addr: int
    stages: tuple[Stage, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "id": self.id,
            "owner_addr": self.owner_addr,
            "stages": [s.to_json() for s in self.stages],
        }


@dataclass(frozen=True)
class Finding:
    severity: str  # "error" or "warning"
    path: str
    message: str


def serialize(ruleset: RuleSet) -> str:
    """Render a RuleSet as canonical JSON text (4-space indent, LF, newline at EOF)."""
    return dumps(ruleset.to_json()) + "\n"


# --- canonical JSON writer ---------------------------------------------------

_encode_str = json.encoder.encode_basestring
_encode_scalar = json.JSONEncoder(ensure_ascii=False).encode


def dumps(value, indent: int = 4, sort_keys: bool = False) -> str:
    """Render JSON data exactly as `json.dumps(value, indent=indent,
    ensure_ascii=False, sort_keys=sort_keys)` does.

    With an indent the standard library falls back to its pure-Python
    encoder. This writer walks dicts, lists and tuples itself, writes the
    fixed indentation and separators directly, and leaves every leaf to the
    C encoder. Keys must be strings.
    """
    out: list[str] = []
    _write(value, "\n", " " * indent, sort_keys, out.append)
    return "".join(out)


def _write(value, newline: str, step: str, sort_keys: bool, emit) -> None:
    cls = value.__class__
    if cls is str:
        emit(_encode_str(value))
    elif cls is int:
        emit(int.__repr__(value))  # what the C encoder calls for an int
    elif isinstance(value, dict):
        if not value:
            emit("{}")
            return
        inner = newline + step
        sep = "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            emit(sep + _encode_str(key) + ": ")
            _write(item, inner, step, sort_keys, emit)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            emit("[]")
            return
        inner = newline + step
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, step, sort_keys, emit)
            sep = "," + inner
        emit(newline + "]")
    else:
        emit(_encode_scalar(value))


# --- deserialization ---------------------------------------------------------


def _expect_obj(value, path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
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
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"expected integer, got {type(value).__name__}", path)
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"expected string, got {type(value).__name__}", path)
    return value


def _expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"expected array, got {type(value).__name__}", path)
    return value


def _qubit_id(value, path: str) -> QubitId:
    obj = _expect_obj(value, path, ("qubit_index",))
    return QubitId(_expect_int(obj["qubit_index"], path + ".qubit_index"))


def _variant(value, path: str) -> tuple[str, object]:
    if not isinstance(value, dict) or len(value) != 1:
        raise SchemaError("expected single-key variant object", path)
    [(key, body)] = value.items()
    return key, body


def _condition_clause(value, path: str) -> ConditionClause:
    key, body = _variant(value, path)
    p = f"{path}.{key}"
    if key == "Res":
        obj = _expect_obj(body, p, ("count", "fidelity", "partner_addr", "qubit_index"))
        fidelity = obj["fidelity"]
        if not isinstance(fidelity, (int, float)) or isinstance(fidelity, bool):
            raise SchemaError("expected number for fidelity", p + ".fidelity")
        if not 0.0 <= float(fidelity) <= 1.0:
            raise SchemaError(f"fidelity {fidelity} outside [0, 1]", p + ".fidelity")
        return ResClause(
            count=_expect_int(obj["count"], p + ".count"),
            fidelity=float(fidelity),
            partner_addr=_expect_int(obj["partner_addr"], p + ".partner_addr"),
            qubit_index=_expect_int(obj["qubit_index"], p + ".qubit_index"),
        )
    if key == "Cmp":
        obj = _expect_obj(body, p, ("cmp_val", "operator", "target_val"))
        operator = _expect_str(obj["operator"], p + ".operator")
        if operator not in CMP_OPERATORS:
            raise SchemaError(f"unknown operator {operator!r}", p + ".operator")
        kind, raw = _variant(obj["target_val"], p + ".target_val")
        return CmpClause(
            cmp_val=_expect_str(obj["cmp_val"], p + ".cmp_val"),
            operator=operator,
            target_val=TaggedValue(kind, _expect_str(raw, f"{p}.target_val.{kind}")),
        )
    if key == "Timer":
        obj = _expect_obj(body, p, ("timer_id",))
        return TimerClause(_expect_str(obj["timer_id"], p + ".timer_id"))
    if key == "Recv":
        obj = _expect_obj(body, p, ("partner_addr",))
        return RecvClause(_expect_int(obj["partner_addr"], p + ".partner_addr"))
    raise SchemaError(f"unknown condition clause {key!r}", path)


def _action_clause(value, path: str) -> ActionClause:
    key, body = _variant(value, path)
    p = f"{path}.{key}"
    if key == "SetTimer":
        obj = _expect_obj(body, p, ("timer_id", "duration"))
        return SetTimerClause(
            _expect_str(obj["timer_id"], p + ".timer_id"),
            _expect_int(obj["duration"], p + ".duration"),
        )
    if key == "Promote":
        obj = _expect_obj(body, p, ("qubit_identifier",))
        return PromoteClause(_qubit_id(obj["qubit_identifier"], p + ".qubit_identifier"))
    if key == "Free":
        obj = _expect_obj(body, p, ("qubit_identifier",))
        return FreeClause(_qubit_id(obj["qubit_identifier"], p + ".qubit_identifier"))
    if key == "Set":
        obj = _expect_obj(body, p, ("variable",), optional=("alias",))
        alias = obj.get("alias")
        if alias is not None:
            alias = _expect_str(alias, p + ".alias")
        return SetClause(_expect_str(obj["variable"], p + ".variable"), alias)
    if key == "Measure":
        obj = _expect_obj(body, p, ("qubit_identifier", "basis"))
        basis = _expect_str(obj["basis"], p + ".basis")
        if basis not in MEASURE_BASES:
            raise SchemaError(f"unknown basis {basis!r}", p + ".basis")
        return MeasureClause(_qubit_id(obj["qubit_identifier"], p + ".qubit_identifier"), basis)
    if key == "QCirc":
        obj = _expect_obj(body, p, ("qgates",))
        gates = []
        for i, g in enumerate(_expect_list(obj["qgates"], p + ".qgates")):
            gp = f"{p}.qgates[{i}]"
            gobj = _expect_obj(g, gp, ("qubit_identifier", "kind"))
            kind = _expect_str(gobj["kind"], gp + ".kind")
            if kind not in GATE_KINDS:
                raise SchemaError(f"unknown gate kind {kind!r}", gp + ".kind")
            gates.append(QGate(_qubit_id(gobj["qubit_identifier"], gp + ".qubit_identifier"), kind))
        return QCircClause(tuple(gates))
    if key == "Send":
        kind, inner = _variant(body, p)
        if kind not in MESSAGE_KINDS:
            raise SchemaError(f"unknown message kind {kind!r}", p)
        ip = f"{p}.{kind}"
        obj = _expect_obj(inner, ip, ("partner_addr",), optional=("payload",))
        payload: tuple[tuple[str, str], ...] = ()
        if "payload" in obj:
            raw = obj["payload"]
            if not isinstance(raw, dict):
                raise SchemaError("expected object for payload", ip + ".payload")
            payload = tuple(
                (_expect_str(k, ip + ".payload"), _expect_str(v, f"{ip}.payload.{k}"))
                for k, v in raw.items()
            )
        return SendClause(kind, _expect_int(obj["partner_addr"], ip + ".partner_addr"), payload)
    raise SchemaError(f"unknown action clause {key!r}", path)


def _condition(value, path: str) -> Condition:
    obj = _expect_obj(value, path, ("name", "clauses"))
    name = obj["name"]
    if name is not None:
        name = _expect_str(name, path + ".name")
    clauses = [
        _condition_clause(c, f"{path}.clauses[{i}]")
        for i, c in enumerate(_expect_list(obj["clauses"], path + ".clauses"))
    ]
    return Condition(name, tuple(clauses))


def _action(value, path: str) -> Action:
    obj = _expect_obj(value, path, ("name", "clauses"))
    name = obj["name"]
    if name is not None:
        name = _expect_str(name, path + ".name")
    clauses = [
        _action_clause(c, f"{path}.clauses[{i}]")
        for i, c in enumerate(_expect_list(obj["clauses"], path + ".clauses"))
    ]
    return Action(name, tuple(clauses))


def _rule(value, path: str) -> Rule:
    obj = _expect_obj(
        value,
        path,
        ("name", "id", "shared_tag", "qnic_interfaces", "condition", "action", "is_finalized"),
    )
    qnic = obj["qnic_interfaces"]
    if not isinstance(qnic, dict):
        raise SchemaError("expected object for qnic_interfaces", path + ".qnic_interfaces")
    interfaces = tuple(
        (_expect_str(k, path + ".qnic_interfaces"), _expect_str(v, f"{path}.qnic_interfaces.{k}"))
        for k, v in qnic.items()
    )
    finalized = obj["is_finalized"]
    if not isinstance(finalized, bool):
        raise SchemaError("expected boolean for is_finalized", path + ".is_finalized")
    return Rule(
        name=_expect_str(obj["name"], path + ".name"),
        id=_expect_int(obj["id"], path + ".id"),
        shared_tag=_expect_int(obj["shared_tag"], path + ".shared_tag"),
        condition=_condition(obj["condition"], path + ".condition"),
        action=_action(obj["action"], path + ".action"),
        qnic_interfaces=interfaces,
        is_finalized=finalized,
    )


def deserialize(text: str) -> RuleSet:
    """Parse JSON text into a RuleSet, rejecting unknown fields and bad domains."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    obj = _expect_obj(doc, "$", ("name", "id", "owner_addr", "stages"))
    stages = []
    for i, s in enumerate(_expect_list(obj["stages"], "$.stages")):
        sp = f"$.stages[{i}]"
        sobj = _expect_obj(s, sp, ("rules",))
        rules = [
            _rule(r, f"{sp}.rules[{j}]")
            for j, r in enumerate(_expect_list(sobj["rules"], sp + ".rules"))
        ]
        stages.append(Stage(tuple(rules)))
    return RuleSet(
        name=_expect_str(obj["name"], "$.name"),
        id=_expect_int(obj["id"], "$.id"),
        owner_addr=_expect_int(obj["owner_addr"], "$.owner_addr"),
        stages=tuple(stages),
    )


# --- validation --------------------------------------------------------------


def validate(ruleset: RuleSet) -> list[Finding]:
    """Structural checks beyond the schema; returns findings, empty when clean."""
    findings: list[Finding] = []
    expected_id = 0
    seen_ids: set[int] = set()
    for si, stage in enumerate(ruleset.stages):
        spath = f"$.stages[{si}]"
        if not stage.rules:
            findings.append(Finding("error", spath, "stage contains no rules"))
        for ri, rule in enumerate(stage.rules):
            rpath = f"{spath}.rules[{ri}]"
            if rule.id in seen_ids:
                findings.append(Finding("error", rpath + ".id", f"duplicate rule id {rule.id}"))
            seen_ids.add(rule.id)
            if rule.id != expected_id:
                findings.append(
                    Finding(
                        "error",
                        rpath + ".id",
                        f"rule id {rule.id} breaks sequential numbering (expected {expected_id})",
                    )
                )
            expected_id += 1
            for ci, clause in enumerate(rule.condition.clauses):
                cpath = f"{rpath}.condition.clauses[{ci}]"
                if isinstance(clause, ResClause):
                    if not 0.0 <= clause.fidelity <= 1.0:
                        findings.append(
                            Finding("error", cpath, f"fidelity {clause.fidelity} outside [0, 1]")
                        )
                    if clause.count < 1:
                        findings.append(
                            Finding("error", cpath, f"resource count {clause.count} below 1")
                        )
            for ci, clause in enumerate(rule.action.clauses):
                cpath = f"{rpath}.action.clauses[{ci}]"
                if isinstance(clause, QCircClause):
                    kinds = [g.kind for g in clause.qgates]
                    if kinds.count("CxControl") != kinds.count("CxTarget"):
                        findings.append(
                            Finding("error", cpath, "unpaired CxControl/CxTarget in circuit")
                        )
                    if kinds.count("CzControl") != kinds.count("CzTarget"):
                        findings.append(
                            Finding("error", cpath, "unpaired CzControl/CzTarget in circuit")
                        )
    return findings
