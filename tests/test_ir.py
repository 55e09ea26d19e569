"""RuleSet model: wire-format fidelity, schema rejection, structural validation."""

from __future__ import annotations

import json
import random

import pytest

from rula import ir


def _random_ruleset(rng: random.Random) -> ir.RuleSet:
    """Build an arbitrary valid RuleSet exercising every clause variant."""

    def cond_clause() -> ir.ConditionClause:
        pick = rng.randrange(4)
        if pick == 0:
            return ir.ResClause(
                count=rng.randint(1, 3),
                fidelity=round(rng.random(), 6),
                partner_addr=rng.randrange(8),
                qubit_index=rng.randrange(4),
            )
        if pick == 1:
            return ir.CmpClause(
                cmp_val=rng.choice(["MeasResult", "message.result", "flag"]),
                operator=rng.choice(ir.CMP_OPERATORS),
                target_val=ir.TaggedValue(
                    rng.choice(["MeasResult", "Str", "Variable"]), rng.choice(["00", "01", "x"])
                ),
            )
        if pick == 2:
            return ir.TimerClause(f"t{rng.randrange(4)}")
        return ir.RecvClause(rng.randrange(8))

    def act_clause() -> ir.ActionClause:
        pick = rng.randrange(7)
        qubit = ir.QubitId(rng.randrange(4))
        if pick == 0:
            return ir.SetTimerClause(f"t{rng.randrange(4)}", rng.randint(1, 100))
        if pick == 1:
            return ir.PromoteClause(qubit)
        if pick == 2:
            return ir.FreeClause(qubit)
        if pick == 3:
            return ir.SetClause("MeasResult", rng.choice([None, "saved"]))
        if pick == 4:
            return ir.MeasureClause(qubit, rng.choice(ir.MEASURE_BASES))
        if pick == 5:
            n = rng.randint(1, 2)
            gates = []
            for _ in range(n):
                control = ir.QubitId(rng.randrange(4))
                target = ir.QubitId(rng.randrange(4))
                gates.append(ir.QGate(control, "CxControl"))
                gates.append(ir.QGate(target, "CxTarget"))
            if rng.random() < 0.5:
                gates.append(ir.QGate(ir.QubitId(rng.randrange(4)), rng.choice(["X", "Z", "H"])))
            return ir.QCircClause(tuple(gates))
        payload: tuple[tuple[str, str], ...] = ()
        if rng.random() < 0.5:
            payload = (("op", rng.choice(["X", "Z"])), ("qubit", str(rng.randrange(4))))
        return ir.SendClause(rng.choice(ir.MESSAGE_KINDS), rng.randrange(8), payload)

    rule_id = 0
    stages = []
    for _ in range(rng.randint(1, 3)):
        rules = []
        tag = rng.randrange(5)
        for _ in range(rng.randint(1, 4)):
            rules.append(
                ir.Rule(
                    name=f"rule_{rule_id}",
                    id=rule_id,
                    shared_tag=tag,
                    condition=ir.Condition(
                        None, tuple(cond_clause() for _ in range(rng.randint(0, 3)))
                    ),
                    action=ir.Action(None, tuple(act_clause() for _ in range(rng.randint(0, 4)))),
                    qnic_interfaces=(("qnic0", "if0"),) if rng.random() < 0.3 else (),
                )
            )
            rule_id += 1
        stages.append(ir.Stage(tuple(rules)))
    return ir.RuleSet(
        name=f"rs_{rng.randrange(1000)}",
        id=rng.getrandbits(64),
        owner_addr=rng.randrange(8),
        stages=tuple(stages),
    )


class TestWireFormat:
    def test_reference_document_deserializes(self, corpus):
        text = (corpus / "swapping_ruleset.json").read_text()
        rs = ir.deserialize(text)
        assert rs.name == "entanglement_swapping"
        assert rs.id == 9876543210
        assert rs.owner_addr == 1
        assert len(rs.stages) == 1
        rule = rs.stages[0].rules[0]
        assert rule.name == "swapping"
        assert rule.is_finalized is False
        qcircs = [c for c in rule.action.clauses if isinstance(c, ir.QCircClause)]
        measures = [c for c in rule.action.clauses if isinstance(c, ir.MeasureClause)]
        sends = [c for c in rule.action.clauses if isinstance(c, ir.SendClause)]
        assert len(qcircs) == 1 and len(qcircs[0].qgates) == 2
        assert len(measures) == 2
        assert {m.basis for m in measures} == {"X", "Z"}
        assert len(sends) == 2
        assert all(s.message == "Transfer" and s.partner_addr == 0 for s in sends)

    def test_reference_document_reserializes_structurally_equal(self, corpus):
        text = (corpus / "swapping_ruleset.json").read_text()
        assert ir.serialize(ir.deserialize(text)) == text

    def test_round_trip_byte_stable_randomized(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            rs = _random_ruleset(rng)
            first = ir.serialize(rs)
            second = ir.serialize(ir.deserialize(first))
            assert first == second

    def test_serialized_clause_keys_stay_in_closed_vocabulary(self):
        cond_keys = {"Res", "Cmp", "Timer", "Recv"}
        act_keys = {"SetTimer", "Promote", "Free", "Set", "Measure", "QCirc", "Send"}
        rng = random.Random(7)
        for _ in range(50):
            doc = json.loads(ir.serialize(_random_ruleset(rng)))
            for stage in doc["stages"]:
                for rule in stage["rules"]:
                    for clause in rule["condition"]["clauses"]:
                        assert set(clause) <= cond_keys and len(clause) == 1
                    for clause in rule["action"]["clauses"]:
                        assert set(clause) <= act_keys and len(clause) == 1

    def test_serialized_text_ends_with_newline(self):
        rs = ir.RuleSet("empty", 1, 0, ())
        assert ir.serialize(rs).endswith("}\n")


def _stdlib_serialize(rs: ir.RuleSet) -> str:
    return json.dumps(rs.to_json(), indent=4, ensure_ascii=False) + "\n"


_AWKWARD_NAMES = ('quote " here', "back\\slash", "bell\x07", "caf\u00e9", "line\u2028sep")


class TestCanonicalWriter:
    """`ir.dumps` must give the bytes of `json.dumps` with the same indent."""

    def test_random_rulesets_match_stdlib(self):
        for seed in (0x5EED, 7):
            rng = random.Random(seed)
            for _ in range(200):
                rs = _random_ruleset(rng)
                assert ir.serialize(rs) == _stdlib_serialize(rs)

    def test_edge_cases_match_stdlib(self):
        res = [
            ir.ResClause(count=1, fidelity=f, partner_addr=1, qubit_index=0)
            for f in (0.0, 1.0, 0.1 + 0.2, 1e-07)
        ]
        rules = [
            ir.Rule("bare", 0, 0, ir.Condition(), ir.Action()),
            ir.Rule(
                "finalized", 1, 0, ir.Condition(None, tuple(res)), ir.Action("act"),
                qnic_interfaces=(("qnic0", "if0"),), is_finalized=True,
            ),
        ]
        rules += [
            ir.Rule(
                name, 2 + i, 1,
                ir.Condition(name, (ir.TimerClause(name),)),
                ir.Action(None, (ir.SetClause("MeasResult", name),)),
                qnic_interfaces=((name, name),),
            )
            for i, name in enumerate(_AWKWARD_NAMES)
        ]
        for rs in (
            ir.RuleSet("empty", 0, 0, ()),
            ir.RuleSet("\u00e9\u2028", 2**64 - 1, 3, (ir.Stage(), ir.Stage(tuple(rules)))),
        ):
            assert ir.serialize(rs) == _stdlib_serialize(rs)

    def test_report_layout_matches_stdlib(self):
        payload = {
            "mode": "enumerate",
            "branches": 2,
            "all_quiescent": False,
            "reports": [
                {
                    "status": "stuck",
                    "rounds": 3,
                    "outcome_path": [],
                    "messages_delivered": 0,
                    "fired": [{"round": 1, "address": 0, "rule": name, "id": 4}
                              for name in _AWKWARD_NAMES],
                    "pairs": [{"nodes": (0, 4), "states": ["promoted", "gone"],
                               "bell_index": [0, 1], "fidelity": 0.1 + 0.2}],
                    "stuck": ["waiting on \"recv\""],
                },
                {"status": "quiescent", "outcome_path": [1, 0], "pairs": [], "fired": [],
                 "none": None, "inf": float("inf"), "tiny": 1e-07, "big": 10**30},
            ],
        }
        for indent in (0, 2, 4):
            for sort_keys in (False, True):
                assert ir.dumps(payload, indent=indent, sort_keys=sort_keys) == json.dumps(
                    payload, indent=indent, sort_keys=sort_keys, ensure_ascii=False
                )


class TestSchemaRejection:
    def _doc(self, corpus) -> dict:
        return json.loads((corpus / "swapping_ruleset.json").read_text())

    def test_unknown_clause_variant_reports_path(self, corpus):
        doc = self._doc(corpus)
        clause = doc["stages"][0]["rules"][0]["condition"]["clauses"][0]
        clause["Cmpp"] = clause.pop("Cmp")
        with pytest.raises(ir.SchemaError) as err:
            ir.deserialize(json.dumps(doc))
        assert "Cmpp" in str(err.value)
        assert "stages[0]" in err.value.path

    def test_missing_field_named(self, corpus):
        doc = self._doc(corpus)
        del doc["stages"][0]["rules"][0]["name"]
        with pytest.raises(ir.SchemaError) as err:
            ir.deserialize(json.dumps(doc))
        assert "'name'" in str(err.value)

    def test_fidelity_out_of_domain_rejected(self):
        doc = {
            "name": "x",
            "id": 0,
            "owner_addr": 0,
            "stages": [
                {
                    "rules": [
                        {
                            "name": "r",
                            "id": 0,
                            "shared_tag": 0,
                            "qnic_interfaces": {},
                            "condition": {
                                "name": None,
                                "clauses": [
                                    {
                                        "Res": {
                                            "count": 1,
                                            "fidelity": 1.5,
                                            "partner_addr": 0,
                                            "qubit_index": 0,
                                        }
                                    }
                                ],
                            },
                            "action": {"name": None, "clauses": []},
                            "is_finalized": False,
                        }
                    ]
                }
            ],
        }
        with pytest.raises(ir.SchemaError) as err:
            ir.deserialize(json.dumps(doc))
        assert "1.5" in str(err.value)

    def test_malformed_json_reports_offset(self):
        with pytest.raises(ir.SchemaError) as err:
            ir.deserialize('{"name": "x", ')
        assert "byte" in str(err.value)

    def test_unknown_top_level_field_rejected(self, corpus):
        doc = self._doc(corpus)
        doc["num_rules"] = 1
        with pytest.raises(ir.SchemaError):
            ir.deserialize(json.dumps(doc))


class TestValidate:
    def _rule(self, rule_id: int, **kwargs) -> ir.Rule:
        defaults = dict(
            name=f"r{rule_id}",
            id=rule_id,
            shared_tag=0,
            condition=ir.Condition(),
            action=ir.Action(),
        )
        defaults.update(kwargs)
        return ir.Rule(**defaults)

    def test_clean_ruleset_has_no_findings(self, corpus):
        rs = ir.deserialize((corpus / "swapping_ruleset.json").read_text())
        assert ir.validate(rs) == []

    def test_duplicate_rule_ids_reported(self):
        rs = ir.RuleSet(
            "x", 0, 0, (ir.Stage((self._rule(0), self._rule(0))),)
        )
        findings = ir.validate(rs)
        assert any("duplicate" in f.message for f in findings)

    def test_non_sequential_ids_reported(self):
        rs = ir.RuleSet("x", 0, 0, (ir.Stage((self._rule(0), self._rule(2))),))
        findings = ir.validate(rs)
        assert any("sequential" in f.message for f in findings)

    def test_empty_stage_reported(self):
        rs = ir.RuleSet("x", 0, 0, (ir.Stage(()),))
        assert any("no rules" in f.message for f in ir.validate(rs))

    def test_unpaired_cx_reported(self):
        circuit = ir.QCircClause((ir.QGate(ir.QubitId(0), "CxControl"),))
        rule = self._rule(0, action=ir.Action(None, (circuit,)))
        rs = ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),))
        assert any("CxControl" in f.message for f in ir.validate(rs))

    def test_constructed_bad_fidelity_reported(self):
        res = ir.ResClause(count=1, fidelity=2.0, partner_addr=0, qubit_index=0)
        rule = self._rule(0, condition=ir.Condition(None, (res,)))
        rs = ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),))
        assert any("fidelity" in f.message for f in ir.validate(rs))

    def test_zero_resource_count_reported(self):
        res = ir.ResClause(count=0, fidelity=0.5, partner_addr=0, qubit_index=0)
        rule = self._rule(0, condition=ir.Condition(None, (res,)))
        rs = ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),))
        assert any("count" in f.message for f in ir.validate(rs))
