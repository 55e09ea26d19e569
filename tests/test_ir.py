"""RuleSet model: wire-format fidelity, schema rejection, structural validation."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import struct
import weakref
from pathlib import Path

import pytest

from rula import analyzer, codegen, config, ir, parser
import test_pipeline_fuzz


def _dumped(value, indent: int = 4) -> str:
    """The pieces `ir.dump` writes for `value`, joined."""
    pieces: list[str] = []
    ir.dump(value, pieces.append, indent)
    return "".join(pieces)


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


def _assert_canonical(rs: ir.RuleSet) -> None:
    """`ir.serialize(rs)` is laid out as `json.dumps` lays out its document
    and loads back to `rs`, through `ir.deserialize` and the reference."""
    text = ir.serialize(rs)
    assert json.dumps(json.loads(text), indent=4, ensure_ascii=False) + "\n" == text
    assert ir.deserialize(text) == rs
    assert reference_deserialize(text) == rs


_AWKWARD_NAMES = ('quote " here', "back\\slash", "bell\x07", "caf\u00e9", "line\u2028sep")


class TestCanonicalWriter:
    """`ir.dumps` must give the bytes of `json.dumps` with the same indent."""

    def test_random_rulesets_match_stdlib(self):
        for seed in (0x5EED, 7):
            rng = random.Random(seed)
            for _ in range(200):
                _assert_canonical(_random_ruleset(rng))

    def test_edge_cases_match_stdlib(self):
        res = [
            ir.ResClause(count=1, fidelity=f, partner_addr=1, qubit_index=0)
            for f in (0.0, -0.0, 5e-324, 1.0, 0.1 + 0.2, 1e-07)
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
            _assert_canonical(rs)

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
            assert _dumped(payload, indent) == json.dumps(
                payload, indent=indent, ensure_ascii=False
            )

    def test_floats_match_stdlib(self):
        """A finite float is written by `float.__repr__`, NaN and the
        infinities by the encoder."""
        rng = random.Random(0xF10A7)
        values = [-0.0, 0.0, 5e-324, 1e16, 1e22, -1e22, 1e-07, 0.1 + 0.2, float("nan")]
        values += [float("inf"), float("-inf")]
        values += [struct.unpack("<d", rng.randbytes(8))[0] for _ in range(10_000)]
        values += [rng.uniform(-1e6, 1e6) for _ in range(1_000)]
        for indent in (0, 2):
            assert _dumped(values, indent=indent) == json.dumps(
                values, indent=indent, ensure_ascii=False
            )

    def test_shared_dicts_match_stdlib(self):
        """Dicts met once, twice and three times at one depth of one write,
        others at several depths, in a list that is itself shared, and as
        the top-level value: the text is what the standard library writes."""
        once = {"o": [1.5, None]}
        twice = {"b": [1, {"x": None}], "a": -0.0, "c": "caf\u00e9"}
        thrice = {"t": [True, "s"]}
        empty: dict = {}
        both = [thrice, empty]
        payload = {
            "z": [twice, {"deep": once}, twice],
            "again": both,
            "more": both,
            "last": [thrice],
            "y": {"deeper": {"deepest": empty}, "empty": [empty, empty]},
            "e": empty,
        }
        for value in (payload, [payload, payload], {"x": payload, "y": [payload]}):
            for indent in (0, 1, 2, 4):
                assert _dumped(value, indent) == json.dumps(
                    value, indent=indent, ensure_ascii=False
                ), (value is payload, indent)
        # at indent 0 every depth has the same indentation, so every place
        # holds the same text
        for shared, places in ((once, 1), (twice, 2), (thrice, 3), (empty, 6)):
            alone = json.dumps(shared, indent=0, ensure_ascii=False)
            assert _dumped(payload, 0).count(alone) == places

    def test_a_report_is_one_piece(self):
        """A top-level dict is written piece by piece, and every dict inside
        it as one piece: the text of a report inside a payload is never
        split, and no piece holds the whole payload."""
        report = {"fired": [{"id": 1}], "status": "quiescent"}
        pieces: list[str] = []
        ir.dump({"reports": [report, report]}, pieces.append, 2)
        text = json.dumps(report, indent=2).replace("\n", "\n    ")
        assert pieces.count(text) == 2
        assert len(max(pieces, key=len)) == len(text)

    def test_an_iterator_is_written_as_its_list(self):
        """A generator stands for the list of what it yields, at the top
        level and inside a document, shared dicts included; an empty one is
        written as `[]`."""
        shared = {"s": [1, None]}
        items = [{"a": 1}, shared, [shared, 2.5], shared, "x", []]
        for indent in (0, 2, 4):
            listed = {"mode": "m", "reports": items, "none": [], "again": [shared]}
            drawn = {
                "mode": "m",
                "reports": (item for item in items),
                "none": (item for item in ()),
                "again": (item for item in [shared]),
            }
            assert _dumped(drawn, indent) == _dumped(listed, indent) == json.dumps(
                listed, indent=indent, ensure_ascii=False
            )
            assert _dumped((item for item in items), indent) == _dumped(items, indent)
        assert _dumped(item for item in ()) == "[]"

    def test_a_drawn_item_is_freed_once_the_next_is_drawn(self):
        """The writer holds no item of an iterator past its turn, a dict
        that every item shares included."""

        class Report(dict):
            pass

        shared = {"round": 1}
        refs: list[weakref.ref] = []

        def reports():
            for i in range(5):
                # every item but the one drawn last is gone
                assert [ref() for ref in refs[:-1]] == [None] * len(refs[:-1])
                report = Report(id=i, fired=[shared, shared])
                refs.append(weakref.ref(report))
                yield report
                del report

        text = _dumped({"reports": reports()}, 2)
        assert json.loads(text)["reports"][4] == {"id": 4, "fired": [shared, shared]}
        assert len(refs) == 5 and all(ref() is None for ref in refs)


def _moved(ruleset: ir.RuleSet, rng: random.Random) -> ir.RuleSet:
    """`ruleset` with other values in every hole of its rules: rule ids,
    shared tags and partner addresses."""

    def clause(c):
        if hasattr(c, "partner_addr"):
            return dataclasses.replace(c, partner_addr=rng.randrange(-5, 2**40))
        return c

    def rule(r):
        return dataclasses.replace(
            r,
            id=rng.randrange(2**64),
            shared_tag=rng.randrange(100),
            condition=ir.Condition(r.condition.name, tuple(map(clause, r.condition.clauses))),
            action=ir.Action(r.action.name, tuple(map(clause, r.action.clauses))),
        )

    stages = tuple(ir.Stage(tuple(map(rule, stage.rules))) for stage in ruleset.stages)
    return dataclasses.replace(ruleset, stages=stages)


def _keyed(ruleset: ir.RuleSet, name) -> ir.RuleSet:
    """`ruleset` with each rule a copy handed the key (`name`, stage index,
    rule index)."""
    stages = tuple(
        ir.Stage(tuple(ir.keyed(dataclasses.replace(r), (name, si, ri)) for ri, r in enumerate(stage.rules)))
        for si, stage in enumerate(ruleset.stages)
    )
    return dataclasses.replace(ruleset, stages=stages)


class TestRuleTemplates:
    """`ir.serialize` writes each rule from a template shared by every
    RuleSet written with the same `templates` table."""

    def test_shared_table_writes_what_a_fresh_one_does(self):
        """Rules with no key and rules handed one, a moved copy sharing its
        original's key, as lowering hands a key to the rules it moves."""
        rng = random.Random(0x7E4A)
        templates: dict = {}
        rules = 0
        for n in range(200):
            ruleset = _random_ruleset(rng)
            moved = _moved(ruleset, rng)
            for rs in (ruleset, moved, _keyed(ruleset, n), _keyed(moved, n)):
                text = ir.serialize(rs, templates)
                assert text == ir.serialize(rs) == _dumped(rs) + "\n"
            rules += sum(len(stage.rules) for stage in ruleset.stages)
        assert len(templates) == rules  # every key's first text was kept

    def test_equal_values_of_other_classes_keep_apart(self):
        """`0.0` and `-0.0`, and `1` and `True`, compare equal but write
        differently; so does a hole holding `True` instead of `1`."""

        def rule(count=1, fidelity=0.0, duration=1, rule_id=0):
            return ir.Rule(
                "r",
                rule_id,
                0,
                ir.Condition(None, (ir.ResClause(count, fidelity, 3, 0),)),
                ir.Action(None, (ir.SetTimerClause("t", duration),)),
            )

        rules = [
            rule(),
            rule(fidelity=-0.0),
            rule(count=True),
            rule(duration=True),
            rule(duration=1.0),
            rule(rule_id=True),
            rule(),
        ]
        alone = [ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((r,)),))) for r in rules]
        assert len(set(alone)) == 6 and alone[0] == alone[-1]
        assert '"fidelity": -0.0' in alone[1] and '"fidelity": 0.0' in alone[0]
        assert '"count": true' in alone[2]
        assert '"duration": true' in alone[3] and '"duration": 1.0' in alone[4]
        assert '"id": true' in alone[5]
        for text in alone:
            assert json.dumps(json.loads(text), indent=4, ensure_ascii=False) + "\n" == text
        # keyed as lowering keys them, each scalar with its class: only the
        # rule whose `True` sits in a hole shares the key of `rule()`
        keys = ["r", "-0.0", "count True", "duration True", "duration 1.0", "r", "r"]
        keyed = [ir.keyed(dataclasses.replace(r), key) for r, key in zip(rules, keys)]
        rotated = keyed[5:] + keyed[:5]  # the `True` id is the first text of its key: not kept
        for inputs, expected in ((rules, alone), (keyed, alone), (rotated, alone[5:] + alone[:5])):
            templates: dict = {}
            shared = [
                ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((r,)),)), templates) for r in inputs
            ]
            assert shared == expected

    def test_a_handed_key_is_no_field(self):
        """The key lowering hands a rule is not part of its value, and a
        rule made from it by `dataclasses.replace` is written plainly."""
        rule = ir.Rule("r", 0, 0, ir.Condition(None, (ir.RecvClause(3),)), ir.Action())
        keyed = ir.keyed(dataclasses.replace(rule), "r-key")
        assert keyed == rule and hash(keyed) == hash(rule)
        renamed = dataclasses.replace(keyed, name="s")
        ruleset = ir.RuleSet("x", 0, 0, (ir.Stage((keyed, renamed)),))
        assert ir.serialize(ruleset, {}) == _dumped(ruleset) + "\n"
        assert '"name": "s"' in ir.serialize(ruleset)

    def test_compiled_chain_writes_as_without_templates(self, corpus):
        """Lowering hands `serialize` the template key of most rules it
        builds; a key that stood for two texts would write one rule as
        another. Every file of the doubling chain, of each corpus program on
        each config it compiles for, and of each mutant the pipeline fuzz
        compiles is written as without templates."""
        program = parser.parse(
            (corpus / "entanglement_swapping.rula")
            .read_text()
            .replace("for d in 1..(#repeaters.len()/2)", "for d in [1, 2, 4]")
        )
        analysis = analyzer.analyze_program(program)
        chain = config.Topology(tuple(config.Repeater(f"#{i}", i, i) for i in range(9)))
        compiled = [codegen.compile_program(analysis, chain, 7)]
        assert compiled[0].ok
        for path in sorted(corpus.glob("*.rula")):
            program, diagnostics = analyzer.resolve_imports(parser.parse(path.read_text()), [corpus])
            analysis = analyzer.analyze_program(program)
            if diagnostics or analysis.errors:
                continue  # a fragment: multiround.rula has no rules of its own
            for cfg in sorted(corpus.glob("config*.json")):
                topology = config.load_config(cfg.read_text())
                compiled.append(codegen.compile_program(analysis, topology, 7))
        corpus_compiled = sum(out.ok for out in compiled) - 1
        for kind, seed, count, _analyzed, least_compiled in test_pipeline_fuzz.SLICES:
            make = getattr(test_pipeline_fuzz.MutantGen(random.Random(seed)), kind)
            mutants = []
            for _ in range(count):
                mutant = make()
                analysis = test_pipeline_fuzz.accepted(mutant)
                if analysis is not None:
                    chain = test_pipeline_fuzz.chain(mutant.nodes)
                    mutants.append(codegen.compile_program(analysis, chain, 7))
            assert sum(out.ok for out in mutants) >= least_compiled
            compiled += mutants
        assert corpus_compiled >= 12
        written = [out for out in compiled if out.ok]
        for out in written:
            templates: dict = {}
            for ruleset in out.per_node.values():
                assert ir.serialize(ruleset, templates) == _dumped(ruleset) + "\n"


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

    @pytest.mark.parametrize(
        "block,clause,reason",
        [
            ("condition", {"Timer": {"timer": "t"}}, "missing field 'timer_id'"),
            ("condition", {"Timer": {"timer_id": "t", "duration": 1}}, "unknown field 'duration'"),
            ("action", {"SetTimer": {"timer_id": "t"}}, "missing field 'duration'"),
            ("action", {"SetTimer": {"timer_id": "t", "duration": 1, "at": 0}}, "unknown field 'at'"),
        ],
    )
    def test_timer_clause_keys_named(self, block, clause, reason):
        rule = ir.Rule("r", 0, 0, ir.Condition(), ir.Action())
        doc = json.loads(ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),))))
        doc["stages"][0]["rules"][0][block]["clauses"].append(clause)
        with pytest.raises(ir.SchemaError) as err:
            ir.deserialize(json.dumps(doc))
        [tag] = clause
        assert err.value.path == f"$.stages[0].rules[0].{block}.clauses[0].{tag}"
        assert err.value.reason == reason

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


# --- reference deserializer --------------------------------------------------
#
# `ir.deserialize` as it was before the one-pass rewrite, kept as the oracle of
# TestDeserializeDifferential: it builds every path eagerly and checks each
# object's keys with two comprehensions, so it is slow but plainly correct.


def _ref_expect_obj(value, path: str, keys: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        raise ir.SchemaError(f"expected object, got {type(value).__name__}", path)
    missing = [k for k in keys if k not in value]
    if missing:
        raise ir.SchemaError(f"missing field {missing[0]!r}", path)
    unknown = [k for k in value if k not in keys and k not in optional]
    if unknown:
        raise ir.SchemaError(f"unknown field {unknown[0]!r}", path)
    return value


def _ref_expect_int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ir.SchemaError(f"expected integer, got {type(value).__name__}", path)
    return value


def _ref_expect_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ir.SchemaError(f"expected string, got {type(value).__name__}", path)
    return value


def _ref_expect_list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ir.SchemaError(f"expected array, got {type(value).__name__}", path)
    return value


def _ref_qubit_id(value, path: str) -> ir.QubitId:
    obj = _ref_expect_obj(value, path, ("qubit_index",))
    return ir.QubitId(_ref_expect_int(obj["qubit_index"], path + ".qubit_index"))


def _ref_variant(value, path: str) -> tuple[str, object]:
    if not isinstance(value, dict) or len(value) != 1:
        raise ir.SchemaError("expected single-key variant object", path)
    [(key, body)] = value.items()
    return key, body


def _ref_condition_clause(value, path: str) -> ir.ConditionClause:
    key, body = _ref_variant(value, path)
    p = f"{path}.{key}"
    if key == "Res":
        obj = _ref_expect_obj(body, p, ("count", "fidelity", "partner_addr", "qubit_index"))
        fidelity = obj["fidelity"]
        if not isinstance(fidelity, (int, float)) or isinstance(fidelity, bool):
            raise ir.SchemaError("expected number for fidelity", p + ".fidelity")
        if not 0.0 <= float(fidelity) <= 1.0:
            raise ir.SchemaError(f"fidelity {fidelity} outside [0, 1]", p + ".fidelity")
        return ir.ResClause(
            count=_ref_expect_int(obj["count"], p + ".count"),
            fidelity=float(fidelity),
            partner_addr=_ref_expect_int(obj["partner_addr"], p + ".partner_addr"),
            qubit_index=_ref_expect_int(obj["qubit_index"], p + ".qubit_index"),
        )
    if key == "Cmp":
        obj = _ref_expect_obj(body, p, ("cmp_val", "operator", "target_val"))
        operator = _ref_expect_str(obj["operator"], p + ".operator")
        if operator not in ir.CMP_OPERATORS:
            raise ir.SchemaError(f"unknown operator {operator!r}", p + ".operator")
        kind, raw = _ref_variant(obj["target_val"], p + ".target_val")
        return ir.CmpClause(
            cmp_val=_ref_expect_str(obj["cmp_val"], p + ".cmp_val"),
            operator=operator,
            target_val=ir.TaggedValue(kind, _ref_expect_str(raw, f"{p}.target_val.{kind}")),
        )
    if key == "Timer":
        obj = _ref_expect_obj(body, p, ("timer_id",))
        return ir.TimerClause(_ref_expect_str(obj["timer_id"], p + ".timer_id"))
    if key == "Recv":
        obj = _ref_expect_obj(body, p, ("partner_addr",))
        return ir.RecvClause(_ref_expect_int(obj["partner_addr"], p + ".partner_addr"))
    raise ir.SchemaError(f"unknown condition clause {key!r}", path)


def _ref_action_clause(value, path: str) -> ir.ActionClause:
    key, body = _ref_variant(value, path)
    p = f"{path}.{key}"
    if key == "SetTimer":
        obj = _ref_expect_obj(body, p, ("timer_id", "duration"))
        return ir.SetTimerClause(
            _ref_expect_str(obj["timer_id"], p + ".timer_id"),
            _ref_expect_int(obj["duration"], p + ".duration"),
        )
    if key == "Promote":
        obj = _ref_expect_obj(body, p, ("qubit_identifier",))
        return ir.PromoteClause(_ref_qubit_id(obj["qubit_identifier"], p + ".qubit_identifier"))
    if key == "Free":
        obj = _ref_expect_obj(body, p, ("qubit_identifier",))
        return ir.FreeClause(_ref_qubit_id(obj["qubit_identifier"], p + ".qubit_identifier"))
    if key == "Set":
        obj = _ref_expect_obj(body, p, ("variable",), optional=("alias",))
        alias = obj.get("alias")
        if alias is not None:
            alias = _ref_expect_str(alias, p + ".alias")
        return ir.SetClause(_ref_expect_str(obj["variable"], p + ".variable"), alias)
    if key == "Measure":
        obj = _ref_expect_obj(body, p, ("qubit_identifier", "basis"))
        basis = _ref_expect_str(obj["basis"], p + ".basis")
        if basis not in ir.MEASURE_BASES:
            raise ir.SchemaError(f"unknown basis {basis!r}", p + ".basis")
        return ir.MeasureClause(_ref_qubit_id(obj["qubit_identifier"], p + ".qubit_identifier"), basis)
    if key == "QCirc":
        obj = _ref_expect_obj(body, p, ("qgates",))
        gates = []
        for i, g in enumerate(_ref_expect_list(obj["qgates"], p + ".qgates")):
            gp = f"{p}.qgates[{i}]"
            gobj = _ref_expect_obj(g, gp, ("qubit_identifier", "kind"))
            kind = _ref_expect_str(gobj["kind"], gp + ".kind")
            if kind not in ir.GATE_KINDS:
                raise ir.SchemaError(f"unknown gate kind {kind!r}", gp + ".kind")
            gates.append(ir.QGate(_ref_qubit_id(gobj["qubit_identifier"], gp + ".qubit_identifier"), kind))
        return ir.QCircClause(tuple(gates))
    if key == "Send":
        kind, inner = _ref_variant(body, p)
        if kind not in ir.MESSAGE_KINDS:
            raise ir.SchemaError(f"unknown message kind {kind!r}", p)
        ip = f"{p}.{kind}"
        obj = _ref_expect_obj(inner, ip, ("partner_addr",), optional=("payload",))
        payload: tuple[tuple[str, str], ...] = ()
        if "payload" in obj:
            raw = obj["payload"]
            if not isinstance(raw, dict):
                raise ir.SchemaError("expected object for payload", ip + ".payload")
            payload = tuple(
                (_ref_expect_str(k, ip + ".payload"), _ref_expect_str(v, f"{ip}.payload.{k}"))
                for k, v in raw.items()
            )
        return ir.SendClause(kind, _ref_expect_int(obj["partner_addr"], ip + ".partner_addr"), payload)
    raise ir.SchemaError(f"unknown action clause {key!r}", path)


def _ref_condition(value, path: str) -> ir.Condition:
    obj = _ref_expect_obj(value, path, ("name", "clauses"))
    name = obj["name"]
    if name is not None:
        name = _ref_expect_str(name, path + ".name")
    clauses = [
        _ref_condition_clause(c, f"{path}.clauses[{i}]")
        for i, c in enumerate(_ref_expect_list(obj["clauses"], path + ".clauses"))
    ]
    return ir.Condition(name, tuple(clauses))


def _ref_action(value, path: str) -> ir.Action:
    obj = _ref_expect_obj(value, path, ("name", "clauses"))
    name = obj["name"]
    if name is not None:
        name = _ref_expect_str(name, path + ".name")
    clauses = [
        _ref_action_clause(c, f"{path}.clauses[{i}]")
        for i, c in enumerate(_ref_expect_list(obj["clauses"], path + ".clauses"))
    ]
    return ir.Action(name, tuple(clauses))


def _ref_rule(value, path: str) -> ir.Rule:
    obj = _ref_expect_obj(
        value,
        path,
        ("name", "id", "shared_tag", "qnic_interfaces", "condition", "action", "is_finalized"),
    )
    qnic = obj["qnic_interfaces"]
    if not isinstance(qnic, dict):
        raise ir.SchemaError("expected object for qnic_interfaces", path + ".qnic_interfaces")
    interfaces = tuple(
        (_ref_expect_str(k, path + ".qnic_interfaces"), _ref_expect_str(v, f"{path}.qnic_interfaces.{k}"))
        for k, v in qnic.items()
    )
    finalized = obj["is_finalized"]
    if not isinstance(finalized, bool):
        raise ir.SchemaError("expected boolean for is_finalized", path + ".is_finalized")
    return ir.Rule(
        name=_ref_expect_str(obj["name"], path + ".name"),
        id=_ref_expect_int(obj["id"], path + ".id"),
        shared_tag=_ref_expect_int(obj["shared_tag"], path + ".shared_tag"),
        condition=_ref_condition(obj["condition"], path + ".condition"),
        action=_ref_action(obj["action"], path + ".action"),
        qnic_interfaces=interfaces,
        is_finalized=finalized,
    )


def reference_deserialize(text: str) -> ir.RuleSet:
    """Parse JSON text into a ir.RuleSet, rejecting unknown fields and bad domains."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ir.SchemaError(f"malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ir.SchemaError("integer too long to convert") from exc
    obj = _ref_expect_obj(doc, "$", ("name", "id", "owner_addr", "stages"))
    stages = []
    for i, s in enumerate(_ref_expect_list(obj["stages"], "$.stages")):
        sp = f"$.stages[{i}]"
        sobj = _ref_expect_obj(s, sp, ("rules",))
        rules = [
            _ref_rule(r, f"{sp}.rules[{j}]")
            for j, r in enumerate(_ref_expect_list(sobj["rules"], sp + ".rules"))
        ]
        stages.append(ir.Stage(tuple(rules)))
    return ir.RuleSet(
        name=_ref_expect_str(obj["name"], "$.name"),
        id=_ref_expect_int(obj["id"], "$.id"),
        owner_addr=_ref_expect_int(obj["owner_addr"], "$.owner_addr"),
        stages=tuple(stages),
    )


# --- differential test -------------------------------------------------------

_CORPUS_PROGRAMS = (
    ("entanglement_swapping.rula", "config5.json"),
    ("purification.rula", "config3.json"),
    ("two_matches.rula", "config3.json"),
    ("loop_probe.rula", "config2.json"),
    ("chain7.rula", "config7.json"),
)

# what a mutant puts in place of a value, and the keys it adds or renames to
_MUTANT_VALUES = (
    None, True, False, 0, -1, 2**64, 0.5, 1.5, float("nan"), "", "X", "Eq", "CxControl",
    "MeasResult", [], [0], {}, {"qubit_index": 0}, {"Transfer": {"partner_addr": 0}},
)
_MUTANT_KEYS = ("name", "alias", "payload", "kind", "Res", "Send", "Free", "Meas", "Z", "extra")


def _compiled_texts(program, topology) -> list[str]:
    analysis = analyzer.analyze_program(program)
    assert analysis.ok, analysis.errors
    out = codegen.compile_program(analysis, topology, 7)
    assert out.ok, out.diagnostics
    return [ir.serialize(rs) for rs in out.per_node.values()]


def _document_groups(corpus) -> list[list[str]]:
    """The reference RuleSet, the compiled corpus, the 33- and 129-node doubling chains."""
    groups = [[(corpus / "swapping_ruleset.json").read_text()], []]
    for name, config_name in _CORPUS_PROGRAMS:
        program = parser.parse((corpus / name).read_text(), filename=name)
        program, _diags = analyzer.resolve_imports(program, [corpus])
        topology = config.load_config((corpus / config_name).read_text())
        groups[1] += _compiled_texts(program, topology)
    source = (corpus / "entanglement_swapping.rula").read_text()
    for levels in (5, 7):
        distances = ", ".join(str(2**k) for k in range(levels))
        program = parser.parse(
            source.replace("for d in 1..(#repeaters.len()/2)", f"for d in [{distances}]")
        )
        repeaters = [{"name": f"#{i}", "address": i} for i in range(2**levels + 1)]
        topology = config.load_config(json.dumps({"repeaters": repeaters}))
        groups.append(_compiled_texts(program, topology))
    return groups


def _slots(node, out: list) -> list:
    """Every (container, key) of a decoded document, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _mutant(doc, slots: list, rng: random.Random) -> str:
    """The text of `doc` with one value replaced, one key deleted, added or
    renamed, or one list item dropped; `doc` is left as it was."""
    container, key = rng.choice(slots)
    saved = container.copy()
    op = rng.randrange(4 if isinstance(container, dict) else 2)
    if op == 0:
        container[key] = rng.choice(_MUTANT_VALUES)
    elif op == 1:
        del container[key]
    elif op == 2:
        container[rng.choice(_MUTANT_KEYS)] = rng.choice(_MUTANT_VALUES)
    else:
        new = rng.choice(_MUTANT_KEYS)
        renamed = {(new if k == key else k): v for k, v in container.items()}
        container.clear()
        container.update(renamed)
    text = json.dumps(doc)
    if isinstance(container, dict):
        container.clear()
        container.update(saved)
    else:
        container[:] = saved
    return text


def _outcome(deserialize, text: str):
    try:
        return deserialize(text)
    except ir.SchemaError as err:
        return (str(err), err.path, err.reason)


class TestDeserializeDifferential:
    """The one-pass `ir.deserialize` must accept and reject exactly what the
    reference accepts and rejects, with the same error."""

    MUTANTS = 3000
    # sha256 of the mutant outcomes ("ok" or the error text), recorded with the
    # reference deserializer
    OUTCOMES_SHA = "52358692dac9e1814fba245029b41b2ddbaba70f49cbcb41b0ca6718cfb273bf"

    @pytest.fixture(scope="class")
    def groups(self):
        return _document_groups(Path(__file__).parent / "corpus")

    def test_documents_deserialize_equal(self, groups):
        for group in groups:
            for text in group:
                assert ir.deserialize(text) == reference_deserialize(text)

    def test_mutants_match_reference(self, groups):
        rng = random.Random(0xD1FF)
        bases = []
        for group in groups:
            docs = [json.loads(text) for text in group]
            # and a one-rule document per rule, to keep within the time budget
            rules = [(d, r) for d in docs for stage in d["stages"] for r in stage["rules"]]
            bases.append(docs + [{**d, "stages": [{"rules": [r]}]} for d, r in rules])
        slots: dict[int, list] = {}
        outcomes = []
        for _ in range(self.MUTANTS):
            doc = rng.choice(rng.choice(bases))
            if id(doc) not in slots:
                slots[id(doc)] = _slots(doc, [])
            text = _mutant(doc, slots[id(doc)], rng)
            got = _outcome(ir.deserialize, text)
            assert got == _outcome(reference_deserialize, text), text
            outcomes.append("ok" if isinstance(got, ir.RuleSet) else got[0])
        rejected = sum(o != "ok" for o in outcomes)
        assert 0 < rejected < self.MUTANTS
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.OUTCOMES_SHA

    def test_huge_integer_fidelity_is_a_schema_error(self):
        res = ir.ResClause(count=1, fidelity=0.5, partner_addr=0, qubit_index=0)
        rule = ir.Rule("r", 0, 0, ir.Condition(None, (ir.TimerClause("t"), res)), ir.Action())
        text = ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),)))
        with pytest.raises(ir.SchemaError) as err:
            ir.deserialize(text.replace('"fidelity": 0.5', '"fidelity": 1' + "0" * 400))
        assert err.value.path == "$.stages[0].rules[0].condition.clauses[1].Res.fidelity"
        assert err.value.reason.startswith("fidelity 1000")


# --- shared-table loads ------------------------------------------------------

# every corpus program on each config it compiles on
_SHARED_LOADS = (
    ("chain7.rula", ("config7.json",)),
    ("entanglement_swapping.rula", ("config3.json", "config5.json")),
    ("loop_probe.rula", ("config2.json", "config3.json", "config5.json", "config7.json")),
    ("purification.rula", ("config3.json", "config5.json")),
    ("two_matches.rula", ("config3.json", "config5.json", "config7.json")),
)
# the holes of a document's text, and what a mutant writes in place of one
_HOLE_KEYS = re.compile(r'"(?:id|shared_tag|partner_addr|owner_addr)": (-?[0-9]+)')
_HOLE_VALUES = ("07", "1.0", "true", '"3"', "-0", "1e3", "1" + "0" * 4999)
# (old, new, count) text replacements, each giving one more mutant
_TEXT_MUTANTS = (
    ('"qnic_interfaces": {}', '"qnic_interfaces": {\n"partner_addr": "7"\n}', 1),
    ('"qnic_interfaces": {}', '"qnic_interfaces": {\n"shared_tag": 5,\n"x": "y"\n}', 1),
    ('"payload": {\n', '"payload": {\n"id": "3",\n', 1),
    ('"payload": {\n', '"payload": {\n"partner_addr": 3,\n', 1),
    ("\n", "\r\n", -1),
    ('"owner_addr": ', '"owner_addr":  ', 1),
    (": ", ":  ", -1),
    ('"name": "', '"name": "\udc80', 1),  # a lone surrogate, which a str may hold
)


def _shared_load_groups(corpus) -> dict[tuple[str, str], list[str]]:
    """The compiled corpus, one group per program and config, and the
    33-node doubling chain whose addresses are not indices, last."""
    groups = {}
    for name, config_names in _SHARED_LOADS:
        program = parser.parse((corpus / name).read_text(), filename=name)
        program, _diags = analyzer.resolve_imports(program, [corpus])
        for config_name in config_names:
            topology = config.load_config((corpus / config_name).read_text())
            groups[name, config_name] = _compiled_texts(program, topology)
    program = parser.parse(
        (corpus / "entanglement_swapping.rula")
        .read_text()
        .replace("for d in 1..(#repeaters.len()/2)", "for d in [1, 2, 4, 8, 16]")
    )
    repeaters = [{"name": f"#{i}", "address": 1000 - 7 * i} for i in range(33)]
    topology = config.load_config(json.dumps({"repeaters": repeaters}))
    groups["doubling", "chain33"] = _compiled_texts(program, topology)
    return groups


def _hole_mutants(text: str) -> list[str]:
    """Each of `_HOLE_VALUES` in each hole of `text`, and `_TEXT_MUTANTS`."""
    out = []
    for match in _HOLE_KEYS.finditer(text):
        out += [text[: match.start(1)] + value + text[match.end(1) :] for value in _HOLE_VALUES]
    for old, new, count in _TEXT_MUTANTS:
        if old in text:
            out.append(text.replace(old, new, count))
    return out


def _any_outcome(deserialize, text: str):
    try:
        return deserialize(text)
    except ir.SchemaError as err:  # also for an integer too long to convert
        return (type(err), str(err), err.path)


class TestSharedTableDifferential:
    """A command loads all its files through one table, in which a document
    of a shape met before is refilled from the first one: each must still
    load as the reference loads it alone."""

    @pytest.fixture(scope="class")
    def groups(self):
        return _shared_load_groups(Path(__file__).parent / "corpus")

    def test_one_table_loads_what_the_reference_does(self, groups, monkeypatch):
        texts = [text for group in groups.values() for text in group]
        expected = [reference_deserialize(text) for text in texts]
        decoded = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or real(text))
        table: dict = {}
        loaded, refilled = [], []
        for text in texts:
            before = len(decoded)
            loaded.append(ir.deserialize(text, table))
            refilled.append(len(decoded) == before)
        assert len(groups) == 13 and loaded == expected
        # most documents are refilled; alone, the chain's 33 files decode the
        # first eight, which are not keyed, and one of each of 6 shapes
        assert 0 < len(decoded) < len(texts) / 2
        decoded.clear()
        table = {}
        chain = [ir.deserialize(text, table) for text in groups["doubling", "chain33"]]
        assert chain == expected[-33:]
        assert len(decoded) == 8 + 6
        monkeypatch.undo()
        _assert_readdressed_shared([r for r, refill in zip(loaded, refilled) if refill])

    def test_hole_mutants_after_their_twin_match_the_reference(self, groups):
        table: dict = {}
        for group in groups.values():
            for text in group:
                ir.deserialize(text, table)
        # two files of the chain and two of purification, with payloads
        chain = [text for text in groups["doubling", "chain33"] if '"payload"' in text]
        twins = chain[:2] + groups["purification.rula", "config5.json"][:2]
        count = 0
        for twin in twins:
            for mutant in _hole_mutants(twin):
                assert ir.deserialize(twin, table) == reference_deserialize(twin)
                got = _any_outcome(lambda text: ir.deserialize(text, table), mutant)
                assert got == _any_outcome(reference_deserialize, mutant), mutant[:400]
                count += 1
        assert count > 400

    @pytest.mark.parametrize(
        "layout", ["keys reordered", "key written twice", "key escaped", "not canonical"]
    )
    def test_a_shape_is_checked_before_it_refills(self, layout, monkeypatch):
        """With every hole 0, the hole values of these texts equal their
        RuleSet's in text order, yet a hole sits in another field: only the
        check that a shape's text is the writer's keeps a later document of
        its signature from being refilled wrong. A valid text the writer
        does not write refills nothing either."""
        rule = ir.Rule(
            "r", 0, 0,
            ir.Condition(None, (ir.ResClause(1, 0.5, 0, 0),)),
            ir.Action(None, (ir.SendClause("Free", 0),)),
        )
        text = ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),)))
        if layout == "keys reordered":  # the action, and its Send's hole, before the condition
            doc = json.loads(text)
            [rule_doc] = doc["stages"][0]["rules"]
            order = ("name", "id", "shared_tag", "qnic_interfaces", "action", "condition")
            doc["stages"][0]["rules"] = [{key: rule_doc[key] for key in order + ("is_finalized",)}]
            first = json.dumps(doc, indent=4) + "\n"
            second = first.replace('"partner_addr": 0\n', '"partner_addr": 5\n')
        elif layout == "key written twice":  # a second rule id in place of the Send's hole
            first = text.replace('"shared_tag": 0,', '"shared_tag": 0,\n"id": 0,')
            first = first.replace('"partner_addr": 0\n', '"partner_addr":0\n')
            second = first.replace('\n"id": 0,', '\n"id": 5,')
        elif layout == "key escaped":
            # the rule id that counts is the last one, which no scan for "id" finds
            first = text.replace('"is_finalized": false', '"is_finalized": false, "i\\u0064": 0')
            indent = "\n" + " " * 20
            second = first.replace(f'"r",{indent}"id": 0,', f'"r",{indent}"id": 5,')
        else:  # a fidelity of 1, which the writer writes as 1.0
            first = text.replace('"fidelity": 0.5', '"fidelity": 1')
            second = first.replace('"partner_addr": 0\n', '"partner_addr": 5\n')
        assert first != second
        table: dict = {}
        for text in [first] * (ir._UNSHAPED + 2):  # the first ones are not keyed
            assert ir.deserialize(text, table) == reference_deserialize(text)
        expected = reference_deserialize(second)
        decoded = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or real(text))
        assert ir.deserialize(second, table) == expected
        assert decoded == [second]  # the full path, not a refill

    @pytest.mark.parametrize("field", ["fidelity", "qubit_index"])
    def test_a_number_outside_the_holes_is_a_shape_of_its_own(self, field, monkeypatch):
        """A document that differs from a shape met before in a number that
        is no hole, with every digit taken out the same text, is read the
        full way once, and its own twins are refilled."""

        def written(partner: int, fidelity: float = 0.5, qubit: int = 0) -> str:
            res = ir.ResClause(1, fidelity, partner, qubit)
            rule = ir.Rule("r", 0, 0, ir.Condition(None, (res,)), ir.Action())
            return ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),)))

        other = {"fidelity": 0.7} if field == "fidelity" else {"qubit": 3}
        first, twin = written(0, **other), written(5, **other)
        assert re.sub("[0-9]", "", first) == re.sub("[0-9]", "", written(0))
        expected = [reference_deserialize(first), reference_deserialize(twin)]
        table: dict = {}
        for text in [written(0)] * (ir._UNSHAPED + 2):  # a shape from the ninth on
            ir.deserialize(text, table)
        decoded = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or real(text))
        assert [ir.deserialize(first, table), ir.deserialize(twin, table)] == expected
        assert decoded == [first]  # the twin was refilled


# --- sharing on load ----------------------------------------------------------


def _fuzz_texts(mutants: int = 400) -> list[str]:
    """The RuleSets compiled from the pipeline fuzz's accepted mutants."""
    import test_pipeline_fuzz as fuzz

    gen = fuzz.MutantGen(random.Random(0x1A7E))
    texts = []
    for _ in range(mutants):
        mutant = gen.mutant()
        analysis = fuzz.accepted(mutant)
        if analysis is None:
            continue
        out = codegen.compile_program(analysis, fuzz.chain(mutant.nodes), 7)
        texts += [ir.serialize(rs) for rs in out.per_node.values()]
    return texts


def _leaves(ruleset: ir.RuleSet) -> list:
    """Every leaf node of a RuleSet: clauses, gates, qubits, tagged values."""
    out = []
    for stage in ruleset.stages:
        for rule in stage.rules:
            for clause in rule.condition.clauses + rule.action.clauses:
                out.append(clause)
                if isinstance(clause, ir.CmpClause):
                    out.append(clause.target_val)
                gates = clause.qgates if isinstance(clause, ir.QCircClause) else ()
                for gate in gates:
                    out += [gate, gate.qubit]
                if isinstance(clause, (ir.MeasureClause, ir.PromoteClause, ir.FreeClause)):
                    out.append(clause.qubit)
    return out


def _assert_readdressed_shared(refilled: list[ir.RuleSet]) -> None:
    """Equal Res, Recv and Send clauses of the refilled RuleSets of one load
    are one object, and some are met more than once."""
    clauses = [
        leaf
        for ruleset in refilled
        for leaf in _leaves(ruleset)
        if isinstance(leaf, (ir.ResClause, ir.RecvClause, ir.SendClause))
    ]
    first: dict = {}
    for clause in clauses:
        assert first.setdefault((type(clause), clause), clause) is clause
    assert 0 < len(first) < len(clauses)


class TestInterning:
    """`ir.deserialize` gives back the values the reference deserializer
    builds, and a load's refills share the clauses they readdress."""

    @pytest.fixture(scope="class")
    def groups(self):
        groups = _document_groups(Path(__file__).parent / "corpus")
        fuzz = _fuzz_texts()
        assert len(fuzz) >= 40
        return groups + [fuzz]

    def test_loads_equal_the_reference(self, groups):
        for group in groups:
            table: dict = {}
            for text in group:
                expected = reference_deserialize(text)
                alone, shared = ir.deserialize(text), ir.deserialize(text, table)
                assert alone == expected and shared == expected
                assert ir.serialize(shared) == ir.serialize(expected) == text

    def test_equal_leaves_of_one_load_are_one_object(self, groups, monkeypatch):
        decoded = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or real(text))
        shared = 0
        for group in groups:
            table: dict = {}
            refilled = []
            for text in group:
                before = len(decoded)
                ruleset = ir.deserialize(text, table)
                if len(decoded) == before:
                    refilled.append(ruleset)
            if refilled:
                _assert_readdressed_shared(refilled)
                shared += 1
        assert shared == 4  # the compiled corpus, both chains, the fuzz programs

    def test_separate_loads_share_nothing(self, corpus):
        text = (corpus / "swapping_ruleset.json").read_text()
        one, two = ir.deserialize(text), ir.deserialize(text)
        assert one == two
        assert all(a is not b for a, b in zip(_leaves(one), _leaves(two)))

    def test_fields_stay_immutable(self, corpus):
        ruleset = ir.deserialize((corpus / "swapping_ruleset.json").read_text())
        leaves = _leaves(ruleset)
        assert {type(leaf) for leaf in leaves} >= {ir.QubitId, ir.QGate, ir.SendClause}
        for leaf in leaves:
            field = next(iter(leaf.__dataclass_fields__))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(leaf, field, getattr(leaf, field))

    def test_nodes_hold_no_dict(self, corpus):
        ruleset = ir.deserialize((corpus / "swapping_ruleset.json").read_text())
        stage = ruleset.stages[0]
        rule = stage.rules[0]
        for node in [ruleset, stage, rule, rule.condition, rule.action] + _leaves(ruleset):
            assert not hasattr(node, "__dict__"), type(node)
        assert weakref.ref(ruleset)() is ruleset

    def test_equal_values_of_other_types_keep_apart(self, monkeypatch):
        """`0.0` and `-0.0` are equal floats that serialize differently, so
        the refills of a load keep their Res clauses apart; a count of
        `true` or `1.0` must still fail after a count of `1`."""

        def ruleset(res: list[str]) -> str:
            clauses = ", ".join(
                '{"Res": {"count": %s, "fidelity": %s, "partner_addr": 0, "qubit_index": 0}}'
                % pair
                for pair in res
            )
            rule = (
                '{"name": "r", "id": 0, "shared_tag": 0, "qnic_interfaces": {}, '
                '"condition": {"name": null, "clauses": [%s]}, '
                '"action": {"name": null, "clauses": []}, "is_finalized": false}'
            ) % clauses
            return '{"name": "x", "id": 0, "owner_addr": 0, "stages": [{"rules": [%s]}]}' % rule

        table: dict = {}
        text = ruleset([("1", "0.0"), ("1", "-0.0"), ("1", "1"), ("1", "1.0")])
        loaded = ir.deserialize(text, table)
        assert ir.serialize(loaded) == ir.serialize(reference_deserialize(text))
        assert '"fidelity": -0.0' in ir.serialize(loaded)
        for count in ("true", "1.0"):
            with pytest.raises(ir.SchemaError, match="expected integer"):
                ir.deserialize(ruleset([(count, "0.5")]), table)

        def written(fidelity: float, partner: int) -> str:
            res = ir.ResClause(1, fidelity, partner, 0)
            rule = ir.Rule("r", 0, 0, ir.Condition(None, (res,)), ir.Action())
            return ir.serialize(ir.RuleSet("x", 0, 0, (ir.Stage((rule,)),)))

        # two shapes, one per zero, each met first after the eighth document
        table = {}
        for text in [written(0.5, 0)] * ir._UNSHAPED + [written(0.0, 0), written(-0.0, 0)]:
            ir.deserialize(text, table)
        decoded = []
        real = json.loads
        monkeypatch.setattr(json, "loads", lambda text: decoded.append(text) or real(text))
        for text in (written(0.0, 5), written(-0.0, 5)):
            assert ir.serialize(ir.deserialize(text, table)) == text
        assert decoded == []  # both were refilled
