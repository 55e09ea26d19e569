"""Simulator tests: swapping chains, purification, starvation handling and
exhaustive outcome enumeration."""

import hashlib
import weakref

import pytest

from rula import analyzer, cli, codegen, config, ir, parser, runtime


def compile_corpus(corpus, program_name, config_name):
    source = (corpus / program_name).read_text()
    program = parser.parse(source, filename=program_name)
    program, import_diags = analyzer.resolve_imports(program, [corpus])
    assert not [d for d in import_diags if d.is_error]
    analysis = analyzer.analyze_program(program)
    assert analysis.ok, analysis.errors
    topology = config.load_config((corpus / config_name).read_text())
    out = codegen.compile_program(analysis, topology, 7)
    assert out.ok, out.diagnostics
    return out.per_node, topology


class TestPurifyUpdate:
    def test_reference_value(self):
        assert runtime.purify_update(0.8) == pytest.approx(0.9412, abs=1e-4)

    def test_fixed_points(self):
        assert runtime.purify_update(1.0) == 1.0
        assert runtime.purify_update(0.5) == 0.5

    def test_improves_above_one_half(self):
        for f in (0.6, 0.75, 0.9, 0.99):
            assert runtime.purify_update(f) > f


class TestSwapThreeNodes:
    def test_seeded_run_reaches_quiescence(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config3.json"
        )
        report = runtime.run(rulesets, topology, seed=0)
        assert report.quiescent, report.stuck
        promoted = report.promoted_pairs()
        assert len(promoted) == 1
        assert promoted[0]["nodes"] == [0, 2]
        assert promoted[0]["bell_index"] == [0, 0]
        assert promoted[0]["fidelity"] == 1.0

    def test_every_branch_corrects_the_frame(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config3.json"
        )
        reports = runtime.enumerate_outcomes(rulesets, topology)
        assert len(reports) == 4
        assert sorted(r.outcome_path for r in reports) == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]
        for report in reports:
            assert report.quiescent, report.stuck
            promoted = report.promoted_pairs()
            assert len(promoted) == 1
            assert promoted[0]["nodes"] == [0, 2]
            assert promoted[0]["bell_index"] == [0, 0]

    def test_swap_fires_before_the_end_nodes(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config3.json"
        )
        report = runtime.run(rulesets, topology, seed=3)
        assert report.fired[0]["address"] == 1
        assert report.fired[0]["rule"] == "swapping"


class TestSwapFiveNodes:
    def test_all_branches_quiescent(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config5.json"
        )
        reports = runtime.enumerate_outcomes(rulesets, topology)
        assert len(reports) == 64
        for report in reports:
            assert report.quiescent, report.stuck
            promoted = report.promoted_pairs()
            assert len(promoted) == 1
            assert promoted[0]["nodes"] == [0, 4]
            assert promoted[0]["bell_index"] == [0, 0]

    def test_fidelity_multiplies_across_links(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config5.json"
        )
        report = runtime.run(rulesets, topology, seed=0, initial_fidelity=0.9)
        assert report.quiescent
        [pair] = report.promoted_pairs()
        assert pair["fidelity"] == pytest.approx(0.9**4, abs=1e-9)


class TestPurification:
    def test_link_purification_then_swap(self, corpus):
        rulesets, topology = compile_corpus(corpus, "purification.rula", "config3.json")
        report = runtime.run(rulesets, topology, seed=1, initial_fidelity=0.8)
        assert report.quiescent, report.stuck
        [pair] = report.promoted_pairs()
        assert pair["nodes"] == [0, 2]
        assert pair["bell_index"] == [0, 0]
        boosted = runtime.purify_update(0.8)
        assert pair["fidelity"] == pytest.approx(boosted * boosted, abs=1e-9)

    def test_parity_checks_fire_on_every_node(self, corpus):
        rulesets, topology = compile_corpus(corpus, "purification.rula", "config3.json")
        report = runtime.run(rulesets, topology, seed=1, initial_fidelity=0.8)
        checks = [f for f in report.fired if f["rule"] == "parity_check"]
        assert {f["address"] for f in checks} == {0, 1, 2}
        assert len(checks) == 4

    def test_outcomes_stay_correlated_across_ends(self, corpus):
        # each sacrificial parity probe costs one free bit on the first side
        # only; the matching probe at the far end is fully determined
        rulesets, topology = compile_corpus(corpus, "purification.rula", "config3.json")
        reports = runtime.enumerate_outcomes(rulesets, topology, initial_fidelity=0.8)
        assert len(reports) == 16
        fidelities = set()
        for report in reports:
            assert report.quiescent, report.stuck
            [pair] = report.promoted_pairs()
            fidelities.add(pair["fidelity"])
        assert len(fidelities) == 1


class TestLoopProbe:
    def test_five_rounds_of_measurements(self, corpus):
        rulesets, topology = compile_corpus(corpus, "loop_probe.rula", "config2.json")
        report = runtime.run(rulesets, topology, seed=5)
        assert report.quiescent, report.stuck
        probes = [f for f in report.fired if f["rule"] == "probe"]
        waits = [f for f in report.fired if f["rule"] == "wait_meas"]
        assert len(probes) == 5
        assert len(waits) == 5
        assert report.messages_delivered == 5


class TestChain7:
    def test_asymmetric_schedule_bridges_the_chain(self, corpus):
        rulesets, topology = compile_corpus(corpus, "chain7.rula", "config7.json")
        report = runtime.run(rulesets, topology, seed=0)
        assert report.quiescent, report.stuck
        [pair] = report.promoted_pairs()
        assert pair["nodes"] == [0, 6]
        assert pair["bell_index"] == [0, 0]


class TestStuckDetection:
    def test_recv_from_silent_node_is_reported(self):
        topology = config.Topology(
            repeaters=(
                config.Repeater(name="#0", address=0, index=0),
                config.Repeater(name="#1", address=1, index=1),
            )
        )
        waiter = ir.Rule(
            name="waiter",
            id=0,
            shared_tag=0,
            condition=ir.Condition(clauses=(ir.RecvClause(partner_addr=1),)),
            action=ir.Action(clauses=()),
        )
        rulesets = {
            0: ir.RuleSet(name="t", id=1, owner_addr=0, stages=(ir.Stage((waiter,)),)),
            1: ir.RuleSet(name="t", id=1, owner_addr=1),
        }
        report = runtime.run(rulesets, topology)
        assert report.status == "stuck"
        assert len(report.stuck) == 1
        assert "waits on Recv from address 1" in report.stuck[0]
        assert "waiter" in report.stuck[0]

    def test_resource_starvation_is_reported(self):
        topology = config.Topology(
            repeaters=(
                config.Repeater(name="#0", address=0, index=0),
                config.Repeater(name="#1", address=1, index=1),
            )
        )
        # demands a second pair on a link that only provisions one
        greedy = ir.Rule(
            name="greedy",
            id=0,
            shared_tag=0,
            condition=ir.Condition(
                clauses=(
                    ir.ResClause(count=1, fidelity=0.99, partner_addr=1, qubit_index=0),
                )
            ),
            action=ir.Action(clauses=(ir.FreeClause(ir.QubitId(0)),)),
        )
        rulesets = {
            0: ir.RuleSet(name="t", id=1, owner_addr=0, stages=(ir.Stage((greedy,)),)),
            1: ir.RuleSet(name="t", id=1, owner_addr=1),
        }
        report = runtime.run(rulesets, topology, initial_fidelity=0.5)
        assert report.status == "stuck"
        assert "fidelity >= 0.99" in report.stuck[0]

    def test_dead_branch_sends_cancel_benignly(self, corpus):
        # the swap sends corrections only on some branches; the waiting
        # handlers for the untaken branches must resolve, not hang
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config3.json"
        )
        for seed in range(4):
            report = runtime.run(rulesets, topology, seed=seed)
            assert report.quiescent, report.stuck


class TestTimers:
    def test_timer_delays_firing(self):
        topology = config.Topology(
            repeaters=(config.Repeater(name="#0", address=0, index=0),)
        )
        arm = ir.Rule(
            name="arm",
            id=0,
            shared_tag=0,
            condition=ir.Condition(),
            action=ir.Action(clauses=(ir.SetTimerClause(timer_id="t", duration=3),)),
        )
        wait = ir.Rule(
            name="after",
            id=1,
            shared_tag=1,
            condition=ir.Condition(clauses=(ir.TimerClause(timer_id="t"),)),
            action=ir.Action(),
        )
        rulesets = {
            0: ir.RuleSet(
                name="t",
                id=1,
                owner_addr=0,
                stages=(ir.Stage((arm,)), ir.Stage((wait,))),
            )
        }
        report = runtime.run(rulesets, topology)
        assert report.quiescent
        fired = {f["rule"]: f["round"] for f in report.fired}
        assert fired["after"] - fired["arm"] >= 3


class TestDeterminism:
    def test_same_seed_same_report(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config5.json"
        )
        a = runtime.run(rulesets, topology, seed=42)
        b = runtime.run(rulesets, topology, seed=42)
        assert a.to_json() == b.to_json()

    def test_outcome_paths_cover_seeds(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config3.json"
        )
        paths = {
            runtime.run(rulesets, topology, seed=s).outcome_path for s in range(20)
        }
        assert len(paths) > 1  # the seed genuinely drives the outcomes


# --- forked enumeration ------------------------------------------------------


def chain(nodes):
    return config.Topology(
        repeaters=tuple(
            config.Repeater(name=f"#{i}", address=i, index=i) for i in range(nodes)
        )
    )


def compile_chain(corpus, program_name, nodes):
    program = parser.parse((corpus / program_name).read_text(), filename=program_name)
    program, _diags = analyzer.resolve_imports(program, [corpus])
    analysis = analyzer.analyze_program(program)
    assert analysis.ok, analysis.errors
    topology = chain(nodes)
    out = codegen.compile_program(analysis, topology, 7)
    assert out.ok, out.diagnostics
    return out.per_node, topology


class PlannedOutcomes:
    """Replays a fixed bit prefix, then draws zeros; keeps no snapshots."""

    def __init__(self, plan):
        self.plan = plan

    def draw(self, position):
        return self.plan[position] if position < len(self.plan) else 0

    def checkpoint(self, net, index):
        pass


def replay_enumeration(rulesets, topology, *, initial_fidelity=1.0, max_rounds=10_000):
    """The prefix-replay enumerator that forking replaced: every branch is a
    fresh network, built and run from round 0 under its bit prefix, and
    each zero it drew past the prefix is flipped in a new prefix."""
    reports = []
    prefixes = [()]
    while prefixes:
        prefix = prefixes.pop()
        blueprint = runtime.Blueprint(rulesets, topology)
        net = runtime.Network(blueprint, PlannedOutcomes(prefix), initial_fidelity)
        report = runtime._drive(net, max_rounds)
        reports.append(report)
        path = report.outcome_path
        for i in range(len(path) - 1, len(prefix) - 1, -1):
            if path[i] == 0:
                prefixes.append(path[:i] + (1,))
    reports.sort(key=lambda r: r.outcome_path)
    return reports


def measure_twice_on_zero():
    """Node 1, twice: one group whose shared prefix measures, then only the
    alternative taken on a 0 measures again, so the bits one firing draws
    depend on the bits it drew before.  Node 0 frees a pair in each of two
    stages: a round resumed at node 1 must not give node 0 a second turn."""

    def res(partner, qubit):
        return ir.ResClause(count=1, fidelity=0.5, partner_addr=partner, qubit_index=qubit)

    def measuring(rule_id, bit, tail):
        return ir.Rule(
            name=f"on_{bit}",
            id=rule_id,
            shared_tag=0,
            condition=ir.Condition(
                clauses=(
                    res(0, 0),
                    res(0, 1),
                    ir.CmpClause("MeasResult", "Eq", ir.TaggedValue("Str", bit)),
                )
            ),
            action=ir.Action(
                clauses=(ir.MeasureClause(ir.QubitId(0), "Z"),) + tail
            ),
        )

    measure = ir.Stage(
        (
            measuring(0, "0", (ir.MeasureClause(ir.QubitId(1), "X"),)),
            measuring(1, "1", (ir.FreeClause(ir.QubitId(1)),)),
        )
    )
    free = ir.Stage(
        (
            ir.Rule(
                name="free",
                id=2,
                shared_tag=0,
                condition=ir.Condition(clauses=(res(1, 0),)),
                action=ir.Action(clauses=(ir.FreeClause(ir.QubitId(0)),)),
            ),
        )
    )
    rulesets = {
        0: ir.RuleSet(name="t", id=1, owner_addr=0, stages=(free, free)),
        1: ir.RuleSet(name="t", id=1, owner_addr=1, stages=(measure, measure)),
    }
    return rulesets, chain(2)


# (program, nodes, initial fidelity, round budget): every corpus program
# that compiles, at several chain lengths.  Fidelity 0.8 starves chain7 of
# pairs; small budgets cut branches off mid-run, which also keeps the
# 9-node swapping tree (it deadlocks; 16 384 branches in full) small.
ORACLE_CASES = [
    ("entanglement_swapping.rula", 3, 1.0, 10_000),
    ("entanglement_swapping.rula", 5, 1.0, 10_000),
    ("entanglement_swapping.rula", 5, 0.8, 10_000),
    *(("entanglement_swapping.rula", 5, 1.0, budget) for budget in range(1, 10)),
    ("entanglement_swapping.rula", 9, 1.0, 3),
    ("loop_probe.rula", 2, 1.0, 10_000),
    ("loop_probe.rula", 5, 0.8, 4),
    ("purification.rula", 3, 1.0, 10_000),
    ("purification.rula", 3, 0.8, 10_000),
    ("purification.rula", 5, 0.8, 4),
    ("chain7.rula", 7, 0.8, 10_000),
    ("chain7.rula", 8, 1.0, 3),
    ("chain7.rula", 9, 0.8, 10_000),
    ("two_matches.rula", 3, 1.0, 10_000),
    ("two_matches.rula", 6, 0.8, 10_000),
]


class TestForkedEnumeration:
    @pytest.mark.parametrize("program,nodes,fidelity,budget", ORACLE_CASES)
    def test_matches_prefix_replay(self, corpus, program, nodes, fidelity, budget):
        rulesets, topology = compile_chain(corpus, program, nodes)
        options = {"initial_fidelity": fidelity, "max_rounds": budget}
        forked = runtime.enumerate_outcomes(rulesets, topology, **options)
        replayed = replay_enumeration(rulesets, topology, **options)
        assert [r.to_json() for r in forked] == [r.to_json() for r in replayed]

    @pytest.mark.parametrize("budget", [1, 2, 10_000])
    def test_draws_that_depend_on_earlier_bits(self, budget):
        rulesets, topology = measure_twice_on_zero()
        forked = runtime.enumerate_outcomes(rulesets, topology, max_rounds=budget)
        replayed = replay_enumeration(rulesets, topology, max_rounds=budget)
        assert [r.to_json() for r in forked] == [r.to_json() for r in replayed]
        if budget > 2:
            assert [r.outcome_path for r in forked] == [
                (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1),
                (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1),
            ]

    def test_live_snapshots_stay_on_one_path(self, corpus, monkeypatch):
        rulesets, topology = compile_chain(corpus, "entanglement_swapping.rula", 5)
        live, peak = weakref.WeakSet(), []
        real = runtime._Snapshot

        def tracked(*args):
            snapshot = real(*args)
            live.add(snapshot)
            peak.append(len(live))
            return snapshot

        monkeypatch.setattr(runtime, "_Snapshot", tracked)
        assert len(runtime.enumerate_outcomes(rulesets, topology)) == 64
        # one per swap on the path being walked, plus the one just taken
        assert max(peak) <= 3 + 1
        assert len(live) == 0

    def test_every_measuring_firing_takes_a_snapshot(self, corpus, monkeypatch):
        rulesets, topology = compile_chain(corpus, "purification.rula", 5)
        taken = []
        real = runtime._Snapshot

        def counting(*args):
            taken.append(args)
            return real(*args)

        monkeypatch.setattr(runtime, "_Snapshot", counting)
        assert len(runtime.enumerate_outcomes(rulesets, topology)) == 1024
        # a resumed branch re-enters its origin's firing without a new copy
        assert len(taken) == 497

    def test_sampled_run_is_one_branch(self, corpus):
        rulesets, topology = compile_chain(corpus, "entanglement_swapping.rula", 5)
        reports = {
            r.outcome_path: r.to_json() for r in runtime.enumerate_outcomes(rulesets, topology)
        }
        for seed in range(8):
            report = runtime.run(rulesets, topology, seed=seed)
            assert reports[report.outcome_path] == report.to_json()


class TestSharedRecords:
    """The reports of one call hold one dict per distinct fired or pair
    record, which `ir.dumps` then writes once."""

    def test_equal_records_are_one_object(self, corpus):
        rulesets, topology = compile_corpus(corpus, "purification.rula", "config5.json")
        reports = runtime.enumerate_outcomes(rulesets, topology)
        assert len(reports) == 1024
        for name, distinct in (("fired", 64), ("pairs", 5)):
            records = [record for report in reports for record in getattr(report, name)]
            # repr keeps a fidelity of 0.0 apart from -0.0
            assert len({id(record) for record in records}) == distinct, name
            assert len({repr(record) for record in records}) == distinct, name


class TestEnumerationPinned:
    """sha256 of `rula run --enumerate-outcomes --report-json`, recorded
    from the prefix-replay enumerator."""

    @pytest.mark.parametrize(
        "program,config_name,fidelity,code,digest",
        [
            ("chain7.rula", "config7.json", "1.0", 0,
             "75301ab9f70c6d3f13adf63d7c3c9ae78ceaad6f3b3151725f7a0045e792d5a0"),
            ("chain7.rula", "config7.json", "0.8", 1,
             "10febe06e453cfcfd8862a7b4d32999efc51b39221f325abfac53b28e2fc784c"),
            ("purification.rula", "config5.json", "1.0", 0,
             "40266f3df69bb89fea21d5d87caeaa5e231aa2b57150cf3adf6d9847f97c49b4"),
            ("purification.rula", "config5.json", "0.8", 0,
             "f5a3518fd5ed32a4da5adfc7a876bcd9645456ce39af8d6ff8ba3a6c2c7bdceb"),
            ("entanglement_swapping.rula", "config5.json", "1.0", 0,
             "139b70ba46aef8e415b2cedabaf689cbebaeb6f14869e7752a126842abba228a"),
        ],
        ids=["chain7", "chain7_f0.8", "purification5", "purification5_f0.8", "swapping5"],
    )
    def test_report_json(
        self, corpus, tmp_path, capsys, program, config_name, fidelity, code, digest
    ):
        assert cli.main([
            "compile", str(corpus / program), "--config", str(corpus / config_name),
            "--out-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert cli.main([
            "run", "--config", str(corpus / config_name), "--rulesets", str(tmp_path),
            "--enumerate-outcomes", "--report-json", "--fidelity", fidelity,
        ]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# --- hand-built rulesets: comparisons, single-qubit gates, split points ------


def _res(partner, qubit):
    return ir.ResClause(count=1, fidelity=0.5, partner_addr=partner, qubit_index=qubit)


def _rule(name, rule_id, conditions=(), actions=()):
    return ir.Rule(
        name=name,
        id=rule_id,
        shared_tag=0,
        condition=ir.Condition(clauses=tuple(conditions)),
        action=ir.Action(clauses=tuple(actions)),
    )


def _node(address, *rules):
    stages = (ir.Stage(tuple(rules)),) if rules else ()
    return ir.RuleSet(name="t", id=1, owner_addr=address, stages=stages)


class TestCompareOperators:
    """`_Firing.compare`: Eq and Neq compare text; the order operators
    compare integers when both sides parse as one, else the text."""

    @pytest.mark.parametrize(
        "left,op,right,holds",
        [
            ("1", "Neq", "2", True),
            ("1", "Neq", "1", False),
            ("07", "Neq", "7", True),  # text, not number
            ("9", "Lt", "10", True),  # as text "9" sorts after "10"
            ("10", "Lt", "9", False),
            ("10", "Leq", "10", True),
            ("07", "Leq", "7", True),
            ("11", "Leq", "10", False),
            ("10", "Gt", "9", True),
            ("-1", "Gt", "0", False),
            ("9", "Geq", "10", False),
            ("10", "Geq", "10", True),
            ("b", "Gt", "a", True),  # neither side is a number: text order
            ("abc", "Lt", "abd", True),
            ("10", "Lt", "9x", True),  # one side is not a number: text order
            ("10", "Gt", "9x", False),
            ("a", "Geq", "b", False),
            ("a", "Leq", "a", True),
        ],
    )
    def test_message_field_against_literal(self, left, op, right, holds):
        """Node 0 sends `n`; node 1 fires `check` only if `message.n op right`."""
        send = ir.SendClause("Update", 1, (("n", left),))
        check = _rule(
            "check",
            0,
            conditions=(
                ir.RecvClause(0),
                ir.CmpClause("message.n", op, ir.TaggedValue("Str", right)),
            ),
        )
        rulesets = {0: _node(0, _rule("send", 0, actions=(send,))), 1: _node(1, check)}
        report = runtime.run(rulesets, chain(2))
        assert report.quiescent, report.stuck
        fired = [(f["address"], f["rule"]) for f in report.fired]
        assert fired == [(0, "send"), (1, "check")] if holds else [(0, "send")]


class TestSingleQubitGates:
    """A Pauli gate on one end of a fresh pair moves its frame: X flips the
    parity bit, Z the phase bit and Y both."""

    @pytest.mark.parametrize(
        "gates,bell_index",
        [
            (("X",), [0, 1]),
            (("Z",), [1, 0]),
            (("Y",), [1, 1]),
            (("Y", "Y"), [0, 0]),
            (("Y", "X"), [1, 0]),
            (("Y", "Z"), [0, 1]),
        ],
    )
    def test_frame_after_gates(self, gates, bell_index):
        qubit = ir.QubitId(0)
        circuit = ir.QCircClause(tuple(ir.QGate(qubit, kind) for kind in gates))
        rulesets = {
            0: _node(0, _rule("gate", 0, (_res(1, 0),), (circuit, ir.PromoteClause(qubit)))),
            1: _node(1, _rule("keep", 0, (_res(0, 0),), (ir.PromoteClause(qubit),))),
        }
        report = runtime.run(rulesets, chain(2))
        assert report.quiescent, report.stuck
        [pair] = report.promoted_pairs()
        assert pair["nodes"] == [0, 1]
        assert pair["bell_index"] == bell_index  # [phase, parity]


class TestSplitPoint:
    """A one-rule group whose comparison reads a register runs its actions
    up to the measurement that writes the register, compares, and runs the
    rest only if the comparison holds. Registers are numbered in action
    order, `MeasResult`, `MeasResult1`, ..., and a CX followed by an X and a
    Z measurement writes one register."""

    @staticmethod
    def outcomes(register, actions, partners, op="Eq", value="1", kind="Str"):
        """Per outcome path: whether node 1's rule, which compares `register`
        with `value` (of wire tag `kind`), fired. Qubit `q` of the rule holds
        a pair with node `partners[q]`."""
        condition = [_res(partner, q) for q, partner in enumerate(partners)]
        condition.append(ir.CmpClause(register, op, ir.TaggedValue(kind, value)))
        nodes = max(1, *partners) + 1
        rulesets = {a: _node(a) for a in range(nodes)}
        rulesets[1] = _node(1, _rule("probe", 0, condition, actions))
        reports = runtime.enumerate_outcomes(rulesets, chain(nodes))
        assert all(r.quiescent for r in reports)
        return {r.outcome_path: [f["rule"] for f in r.fired] == ["probe"] for r in reports}

    def test_compare_on_the_first_register_skips_the_later_measurement(self):
        measure = [ir.MeasureClause(ir.QubitId(q), "Z") for q in (0, 1)]
        assert self.outcomes("MeasResult", measure, (0, 0)) == {
            (0,): False,
            (1, 0): True,
            (1, 1): True,
        }

    def test_compare_with_a_later_register_waits_for_it(self):
        measure = [ir.MeasureClause(ir.QubitId(q), "Z") for q in (0, 1)]
        fired = self.outcomes("MeasResult", measure, (0, 0), value="MeasResult1", kind="Variable")
        assert fired == {(0, 0): True, (0, 1): False, (1, 0): False, (1, 1): True}

    def test_compare_on_the_second_register_waits_for_it(self):
        first, second = (ir.MeasureClause(ir.QubitId(q), "Z") for q in (0, 1))
        actions = [first, ir.SetTimerClause("t", 1), second]
        assert self.outcomes("MeasResult1", actions, (0, 0)) == {
            (0, 0): False,
            (0, 1): True,
            (1, 0): False,
            (1, 1): True,
        }

    Q0, Q1, Q2 = (ir.QubitId(q) for q in range(3))
    FUSED_THEN_SINGLE = [
        ir.QCircClause((ir.QGate(Q0, "CxControl"), ir.QGate(Q1, "CxTarget"))),
        ir.MeasureClause(Q0, "X"),
        ir.MeasureClause(Q1, "Z"),
        ir.MeasureClause(Q2, "Z"),
    ]

    def test_a_fused_bell_measurement_takes_one_register(self):
        fired = self.outcomes("MeasResult1", self.FUSED_THEN_SINGLE, (0, 2, 0))
        assert len(fired) == 8
        assert fired == {path: path[2] == 1 for path in fired}

    def test_compare_on_a_fused_register_waits_for_both_measurements(self):
        """Its two-bit register is a number >= 0 only once both are taken."""
        fired = self.outcomes("MeasResult", self.FUSED_THEN_SINGLE, (0, 2, 0), "Geq", "0")
        assert len(fired) == 8
        assert all(fired.values())
