"""Simulator tests: swapping chains, purification, starvation handling and
exhaustive outcome enumeration."""

import collections
import hashlib
import io
import json
import sys
import weakref
from pathlib import Path

import pytest

from rula import analyzer, cli, codegen, config, explore, ir, parser, runtime


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


def enumerate_in_order(rulesets, topology, **options):
    """`runtime.enumerate_outcomes`, checked to return its reports in
    outcome-path order: the depth-first unfold yields them so, unsorted."""
    reports = runtime.enumerate_outcomes(rulesets, topology, **options)
    paths = [r.outcome_path for r in reports]
    assert paths == sorted(paths)
    return reports


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
        reports = enumerate_in_order(rulesets, topology)
        assert len(reports) == 4
        assert [r.outcome_path for r in reports] == [
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

    @pytest.mark.parametrize("addresses", [[0, 7, 3], [5, 0, 9]])
    def test_links_follow_the_path_not_the_address_order(self, corpus, addresses):
        """Pairs are provisioned between neighbours on the path: on 0-7-3
        those are (0, 7) and (3, 7), where address order would give only
        (3, 7), and every run stuck at its first round."""
        repeaters = [{"name": f"#{i}", "address": a} for i, a in enumerate(addresses)]
        topology = config.load_config(json.dumps({"repeaters": repeaters}))
        source = (corpus / "entanglement_swapping.rula").read_text()
        program, _diags = analyzer.resolve_imports(parser.parse(source), [corpus])
        out = codegen.compile_program(analyzer.analyze_program(program), topology, 7)
        assert out.ok, out.diagnostics
        reports = enumerate_in_order(out.per_node, topology)
        assert len(reports) == 4
        for report in reports:
            assert report.quiescent, report.stuck
            assert [p["nodes"] for p in report.promoted_pairs()] == [sorted(addresses[::2])]


class TestSwapFiveNodes:
    def test_all_branches_quiescent(self, corpus):
        rulesets, topology = compile_corpus(
            corpus, "entanglement_swapping.rula", "config5.json"
        )
        reports = enumerate_in_order(rulesets, topology)
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
        reports = enumerate_in_order(rulesets, topology, initial_fidelity=0.8)
        assert len(reports) == 16
        fidelities = set()
        for report in reports:
            assert report.quiescent, report.stuck
            [pair] = report.promoted_pairs()
            fidelities.add(pair["fidelity"])
        assert len(fidelities) == 1

    @pytest.mark.parametrize("freed", [False, True])
    def test_a_freed_end_clears_its_pairs_mark(self, freed):
        """A parity probe of pair 1 through a CX from pair 0 marks pair 0 the
        kept half; node 1 then promotes its end of pair 0 on a message, which
        boosts the pair, unless node 0 has freed its end of it first."""
        q0, q1 = ir.QubitId(0), ir.QubitId(1)
        probe = ir.QCircClause((ir.QGate(q0, "CxControl"), ir.QGate(q1, "CxTarget")))
        actions = (probe, ir.MeasureClause(q1, "Z")) + ((ir.FreeClause(q0),) if freed else ())
        actions += (ir.SendClause("Meas", 1),)
        keep = _rule("keep", 0, (ir.RecvClause(0), _res(0, 0)), (ir.PromoteClause(q0),))
        rulesets = {
            0: _node(0, _rule("check", 0, (_res(1, 0), _res(1, 1)), actions)),
            1: _node(1, keep),
        }
        net = runtime.Network(runtime.Blueprint(rulesets, chain(2)), PlannedOutcomes(()), 0.8)
        assert runtime._drive(net, 10).quiescent
        if freed:
            assert (net.purify[0], net.fidelity[0]) == ("idle", 0.8)
        else:
            assert (net.purify[0], net.fidelity[0]) == ("done", runtime.purify_update(0.8))


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
        assert "waits on Recv from address 1, which never sends it" in report.stuck[0]
        assert "waiter" in report.stuck[0]

    def test_recv_names_the_sender_rule_that_has_not_sent(self, corpus):
        # doubling [1, 2, 4] on 9 nodes at fidelity 0.9: the swap at address 4
        # holds pairs at 0.6561 below its 0.8, so it never sends; every wait
        # at the far ends names it instead of denying the send exists
        source = (corpus / "entanglement_swapping.rula").read_text().replace(
            "for d in 1..(#repeaters.len()/2)", "for d in [1, 2, 4]"
        )
        analysis = analyzer.analyze_program(parser.parse(source))
        topology = config.Topology(tuple(config.Repeater(f"#{i}", i, i) for i in range(9)))
        out = codegen.compile_program(analysis, topology, 7)
        report = runtime.run(out.per_node, topology, initial_fidelity=0.9)
        waits = [
            f"address {address}: rule 'wait_{kind.lower()}' (id {rule_id}) waits on Recv from "
            f"address 4 for {kind} messages, which rule 'swapping' (id 12) there has not sent"
            for address in (0, 8)
            for rule_id, kind in ((6, "Transfer"), (7, "Update"), (8, "Free"))
        ]
        assert report.stuck[:3] + report.stuck[4:] == waits
        assert report.stuck[3].startswith("address 4: rule 'swapping' (id 12) waits on resources")

    def test_recv_of_a_message_sent_once_names_its_sender(self):
        # two plain recvs at address 0 and one send from address 1: the
        # first recv takes the message, the second waits for another
        topology = config.Topology(
            repeaters=(
                config.Repeater(name="#0", address=0, index=0),
                config.Repeater(name="#1", address=1, index=1),
            )
        )
        recvs = tuple(
            ir.Rule(name=name, id=i, shared_tag=i,
                    condition=ir.Condition(clauses=(ir.RecvClause(partner_addr=1),)),
                    action=ir.Action())
            for i, name in enumerate(["first", "second"])
        )
        sender = ir.Rule(
            name="sender",
            id=0,
            shared_tag=0,
            condition=ir.Condition(),
            action=ir.Action(clauses=(ir.SendClause("Free", 0, (("qubit", "0"),)),)),
        )
        rulesets = {
            0: ir.RuleSet(name="t", id=1, owner_addr=0, stages=(ir.Stage(recvs),)),
            1: ir.RuleSet(name="t", id=1, owner_addr=1, stages=(ir.Stage((sender,)),)),
        }
        report = runtime.run(rulesets, topology)
        assert report.stuck == [
            "address 0: rule 'second' (id 1) waits on Recv from address 1, "
            "which rule 'sender' (id 0) there has sent"
        ]

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
    @staticmethod
    def program(duration):
        """One node that arms a timer of `duration` rounds, then waits on it."""
        topology = config.Topology(
            repeaters=(config.Repeater(name="#0", address=0, index=0),)
        )
        arm = ir.Rule(
            name="arm",
            id=0,
            shared_tag=0,
            condition=ir.Condition(),
            action=ir.Action(clauses=(ir.SetTimerClause(timer_id="t", duration=duration),)),
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
        return rulesets, topology

    def test_timer_delays_firing(self):
        report = runtime.run(*self.program(3))
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


def compile_chain(corpus, program_name, nodes, source=None):
    if source is None:
        source = (corpus / program_name).read_text()
    program = parser.parse(source, filename=program_name)
    program, _diags = analyzer.resolve_imports(program, [corpus])
    analysis = analyzer.analyze_program(program)
    assert analysis.ok, analysis.errors
    topology = chain(nodes)
    out = codegen.compile_program(analysis, topology, 7)
    assert out.ok, out.diagnostics
    return out.per_node, topology


class PlannedOutcomes:
    """Replays a fixed bit prefix, then draws zeros."""

    def __init__(self, plan):
        self.plan = plan

    def draw(self, position):
        return self.plan[position] if position < len(self.plan) else 0


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
    stages: a round rerun for a flipped bit gives node 0 one turn, not two."""

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
        forked = enumerate_in_order(rulesets, topology, **options)
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

    @staticmethod
    def networks(monkeypatch):
        """Every network `Network.fork` makes, while it is alive, and how
        many were alive after each was made."""
        live, peak = weakref.WeakSet(), []
        real = runtime.Network.fork

        def tracked(net, outcomes):
            fork = real(net, outcomes)
            live.add(fork)
            peak.append(len(live))
            return fork

        monkeypatch.setattr(runtime.Network, "fork", tracked)
        return live, peak

    def test_live_networks_stay_on_one_path(self, corpus, monkeypatch):
        """The graph keeps the network of each node on the path being
        expanded and of the round being run, and none once it is built."""
        rulesets, topology = compile_chain(corpus, "entanglement_swapping.rula", 5)
        live, peak = self.networks(monkeypatch)
        branches, _quiescent, reports = explore.outcomes(rulesets, topology)
        assert len(live) == 0
        reports = list(reports)
        assert len(reports) == branches == 64
        assert max(peak) <= max(r.rounds for r in reports) + 1
        assert len(live) == 0

    def test_one_fork_per_round_stepped(self, corpus, monkeypatch):
        """Each round the graph steps runs in a fork of its node's network,
        and nothing else is forked."""
        rulesets, topology = compile_chain(corpus, "purification.rula", 5)
        _live, forked = self.networks(monkeypatch)
        calls = collections.Counter()
        real = runtime.Network.step

        def counting(net):
            calls["step"] += 1
            return real(net)

        monkeypatch.setattr(runtime.Network, "step", counting)
        assert len(enumerate_in_order(rulesets, topology)) == 1024
        assert len(forked) == calls["step"] == 948

    def test_a_deep_branch_needs_no_recursion(self):
        """A branch of 3 001 rounds, one graph node each, is built and
        unfolded under the default recursion limit."""
        rulesets, topology = TestTimers.program(3000)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            [report] = runtime.enumerate_outcomes(rulesets, topology)
        finally:
            sys.setrecursionlimit(limit)
        assert report.quiescent and report.rounds == 3001

    def test_equal_states_run_once(self, corpus, monkeypatch):
        """The graph steps 397 rounds and fires 765 groups over the 1 024
        branches of chain7 on 7 nodes; running every branch to its end steps
        5 148.  A key that stopped merging would step more, and a plan that
        reran more than its own round would fire more."""
        rulesets, topology = compile_chain(corpus, "chain7.rula", 7)
        calls = collections.Counter()
        for name in ("step", "_fire"):
            real = getattr(runtime.Network, name)

            def counting(net, *args, name=name, real=real):
                calls[name] += 1
                return real(net, *args)

            monkeypatch.setattr(runtime.Network, name, counting)
        assert len(enumerate_in_order(rulesets, topology)) == 1024
        assert calls == {"step": 397, "_fire": 765}

    def test_sampled_run_is_one_branch(self, corpus):
        rulesets, topology = compile_chain(corpus, "entanglement_swapping.rula", 5)
        reports = {
            r.outcome_path: r.to_json() for r in enumerate_in_order(rulesets, topology)
        }
        for seed in range(8):
            report = runtime.run(rulesets, topology, seed=seed)
            assert reports[report.outcome_path] == report.to_json()


class TestSharedRecords:
    """The reports of one call hold one dict per distinct fired or pair
    record, which `ir.dump` then writes once."""

    def test_equal_records_are_one_object(self, corpus):
        rulesets, topology = compile_corpus(corpus, "purification.rula", "config5.json")
        reports = enumerate_in_order(rulesets, topology)
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
             "8c360db4194f142a52d3a66f23209bc0471fc51c90ac96f56c55c9362fdfa458"),
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


def nine_node_source(corpus, name):
    """The corpus swap, which deadlocks on 9 nodes ("swap"), or the doubling
    schedule that bridges them ("doubling"): 16 384 branches either way."""
    source = (corpus / "entanglement_swapping.rula").read_text()
    if name == "swap":
        return source
    doubling = source.replace("for d in 1..(#repeaters.len()/2)", "for d in [1, 2, 4]")
    assert doubling != source
    return doubling


class _Sha256Stream(io.TextIOBase):
    """A stream that keeps only the sha256 of the text written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())
        return len(text)


class TestNineNodes:
    """The 9-node enumerations: their bytes, recorded from the walk that ran
    every branch to its end, and every sampled run as one of their branches."""

    @pytest.mark.parametrize(
        "name,code,out_digest,err_digest",
        [
            ("doubling", 0,
             "b8ab6527d41c2f62e4554d80d41d657ea9f30235b0c2b5739599609a3169954f",
             "fcbb01c1874bc4d8b534a66d6eac1c5c96aa5cfecc7ab721806f77a34362318c"),
            ("swap", 1,
             "323448eecfacebad5afa23b67dbe2b115a8bed5d7fcdefe19a7f7fbbd04c5c9c",
             "127591591b165655a785bae6189a78e13551f6cd858c01fcf6fcad52db3d4184"),
        ],
    )
    def test_report_json(self, corpus, tmp_path, monkeypatch, name, code, out_digest, err_digest):
        program = tmp_path / f"{name}.rula"
        program.write_text(nine_node_source(corpus, name))
        chain9 = tmp_path / "chain9.json"
        chain9.write_text(json.dumps({"repeaters": [{"name": f"#{i}", "address": i} for i in range(9)]}))
        monkeypatch.setattr(sys, "stdout", _Sha256Stream())
        monkeypatch.setattr(sys, "stderr", _Sha256Stream())
        compiled = tmp_path / "out"
        assert cli.main(["compile", str(program), "--config", str(chain9), "--out-dir", str(compiled)]) == 0
        out, err = _Sha256Stream(), _Sha256Stream()  # 64 and 76 MB of JSON: hashed as written
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        assert cli.main([
            "run", "--config", str(chain9), "--rulesets", str(compiled),
            "--enumerate-outcomes", "--report-json",
        ]) == code
        assert (out.digest.hexdigest(), err.digest.hexdigest()) == (out_digest, err_digest)

    @pytest.mark.parametrize("name", ["doubling", "swap"])
    def test_sampled_runs_are_branches(self, corpus, name):
        rulesets, topology = compile_chain(corpus, f"{name}.rula", 9, nine_node_source(corpus, name))
        reports = {r.outcome_path: r for r in runtime.enumerate_outcomes(rulesets, topology)}
        assert len(reports) == 16_384
        for seed in range(40):
            report = runtime.run(rulesets, topology, seed=seed)
            assert report.to_json() == reports[report.outcome_path].to_json(), seed


# --- merged states -----------------------------------------------------------


def round_ends(rulesets, topology, plan, fidelity):
    """The network of the branch that draws `plan`, then zeros, at each of
    its round ends, where the graph keys it."""
    net = runtime.Network(runtime.Blueprint(rulesets, topology), PlannedOutcomes(plan), fidelity)
    while net.live:
        if not net.step() and not net.cancel_starved() and not net.timers_armed():
            return
        yield net


def held_pairs(net):
    return {net.end_pair[e] for e, state in enumerate(net.end_state) if state != "gone"}


def asked_carriers(net):
    """The gids of the groups whose `fired_rule` some pending recv-gated
    group of a node not yet complete, in its stage or a later one, reads."""
    asked = set()
    for address in net.live:
        for stage in net.blueprint.stages[address][net.stage_idx[address]:]:
            for group in stage:
                if group.recv is not None and net.state[group.gid] == "pending":
                    asked.update(g.gid for g, _r in net._carriers(address, group))
    return asked


# Each changes, in place, one kind of field that the key leaves out, and
# returns how many it changed.


def dead_pairs(net):
    dead = set(range(len(net.pair_ends))) - held_pairs(net)
    for p in dead:
        net.fidelity[p] = 0.123
        net.phase[p] ^= 1
        net.parity[p] ^= 1
        net.purify[p] = "pending"
        net.pair_ends[p] = net.pair_ends[p][::-1]
    return len(dead)


def dead_reference_bits(net):
    held = held_pairs(net)
    dead = [sig for sig in net.pending if not all(p in held for p, _basis in sig)]
    for sig in dead:
        net.pending[sig] ^= 1
    return len(dead)


def passed_stages(net):
    swapped = {"fired": "cancelled", "cancelled": "fired"}
    changed = 0
    for address, index in net.stage_idx.items():
        for stage in net.blueprint.stages[address][:index]:
            for group in stage:
                net.state[group.gid] = swapped[net.state[group.gid]]
                changed += 1
    return changed


def unasked_fired_rules(net):
    asked = asked_carriers(net)
    changed = 0
    for stages in net.blueprint.stages.values():
        for group in (group for stage in stages for group in stage if group.gid not in asked):
            fired = net.fired_rule[group.gid]
            net.fired_rule[group.gid] = group.alternatives[-1][0] if fired is None else None
            changed += 1
    return changed


def complete_nodes(net):
    complete = [address for address in net.stage_idx if address not in net.live]
    for address in complete:
        for where in [where for where in net.store if where[0] == address]:
            net.store[where] = "mutated"
        net.store[address, "mutated"] = "1"
        net.timers[address, "mutated"] = net.round + 5  # still counting
        sender = next(a for a in net.stage_idx if a != address)
        message = runtime.Message("mutated", sender, address, {"result": "1"})
        net.inboxes[address, sender] = net.inboxes.get((address, sender), ()) + (message,)
    return len(complete)


def gone_ends(net):
    held = [e for e, state in enumerate(net.end_state) if state != "gone"]
    gone = [e for e, state in enumerate(net.end_state) if state == "gone"]
    for e in gone:
        net.end_pair[e] = net.end_pair[held[0]] if held else 0
        net.partner[e] = -1
    return len(gone)


class TestMergeKey:
    """`explore._Keys` leaves out what no later round, stuck line or report
    reads.  Each such field, changed in a fork at a round end, changes
    neither the key nor the report that driving the fork ends with."""

    CASES = [
        ("chain7.rula", 7, 1.0),
        ("chain7.rula", 7, 0.8),  # stuck: its lines read the carriers
        ("purification.rula", 5, 1.0),
        ("entanglement_swapping.rula", 9, 1.0),  # stuck
    ]
    PLANS = [(), (1,) * 64, (0, 1) * 32]

    def round_end_forks(self, corpus):
        """(network at a round end, its key, a fork to change) of each round
        end of a few branches of each case."""
        for program, nodes, fidelity in self.CASES:
            rulesets, topology = compile_chain(corpus, program, nodes)
            keys = explore._Keys()  # one per blueprint, as one per graph
            for plan in self.PLANS:
                for net in round_ends(rulesets, topology, plan, fidelity):
                    yield keys, net, net.fork(PlannedOutcomes(plan))

    @pytest.mark.parametrize(
        "mutate",
        [dead_pairs, dead_reference_bits, passed_stages, unasked_fired_rules, complete_nodes, gone_ends],
        ids=lambda mutate: mutate.__name__,
    )
    def test_left_out_field(self, corpus, mutate):
        changed = 0
        for keys, net, fork in self.round_end_forks(corpus):
            if not mutate(fork):
                continue
            changed += 1
            assert keys(fork) == keys(net)
            ended = runtime._drive(net.fork(PlannedOutcomes(net.outcomes.plan)), 10_000)
            assert runtime._drive(fork, 10_000).to_json() == ended.to_json()
        assert changed >= 10

    def test_read_fields_change_the_key(self, corpus):
        """The control: a held end's partner, a held pair's frame and a
        waiting node's store each change the key."""
        checked = 0
        for keys, net, fork in self.round_end_forks(corpus):
            key = keys(net)
            held = [e for e, state in enumerate(net.end_state) if state != "gone"]
            if not held or not net.live:
                continue
            fork.partner[held[0]] = -1
            assert keys(fork) != key
            fork = net.fork(None)
            fork.phase[net.end_pair[held[0]]] ^= 1
            assert keys(fork) != key
            fork = net.fork(None)
            fork.store[net.live[0], "mutated"] = "1"
            assert keys(fork) != key
            checked += 1
        assert checked >= 10


def _cmp(name, value):
    return ir.CmpClause(name, "Eq", ir.TaggedValue("Str", value))


def _stages(address, *stages):
    return ir.RuleSet(name="t", id=1, owner_addr=address, stages=stages)


def _on_bit(register, conditions, actions):
    """A group of two alternatives, `on_0` and `on_1`: the one whose bit
    `register` holds fires, running `actions(bit)`."""
    return ir.Stage(tuple(
        _rule(f"on_{bit}", 10 + bit, (*conditions, _cmp(register, str(bit))), actions(bit))
        for bit in (0, 1)
    ))


_Z0 = ir.MeasureClause(ir.QubitId(0), "Z")


def _drop():
    """Node 1 frees its end of the pair node 0 measures, in the same round,
    so that no reference bit tells the branches apart."""
    return ir.Stage((_rule("drop", 3, (_res(0, 0),), (ir.FreeClause(ir.QubitId(0)),)),))


def reference_bit_read_later():
    """Node 0 measures its end of a pair; node 1 measures the other end
    three rounds later and, without drawing, gets node 0's bit."""
    draw = ir.Stage((_rule("draw", 0, (_res(1, 0),), (_Z0,)),))
    go = ir.Stage((_rule("go", 1, (), (ir.SendClause("Go", 1, ()),)),))
    wait = ir.Stage((_rule("wait", 2, (ir.RecvClause(0),)),))
    read = _on_bit("MeasResult", (_res(0, 0),), lambda bit: (_Z0,))
    return {0: _stages(0, draw, go), 1: _stages(1, wait, read)}


def timer_set_by_a_bit():
    arm = _on_bit("MeasResult", (_res(1, 0),), lambda bit: (_Z0, ir.SetTimerClause("t", 1 + 3 * bit)))
    after = ir.Stage((_rule("after", 1, (ir.TimerClause("t"),)),))
    return {0: _stages(0, arm, after), 1: _stages(1, _drop())}


def bit_in_a_message():
    sent = (_Z0, ir.SendClause("Meas", 1, (("result", "MeasResult"),)))
    send = ir.Stage((_rule("send", 0, (_res(1, 0),), sent),))
    take = _on_bit("message.result", (ir.RecvClause(0),), lambda bit: ())
    return {0: _stages(0, send), 1: _stages(1, _drop(), take)}


def bit_in_the_store():
    keep = ir.Stage((_rule("keep", 0, (_res(1, 0),), (_Z0, ir.SetClause("MeasResult", "bit"))),))
    read = _on_bit("bit", (), lambda bit: ())
    return {0: _stages(0, keep, read), 1: _stages(1, _drop())}


def carrier_that_sent():
    """Node 0 sends node 1 a Meas or an Other message.  Node 1 takes either,
    pauses a round, then waits on a Meas: cancelled if node 0 sent Other,
    stuck if node 0 already sent the Meas it took."""
    send = _on_bit("MeasResult", (_res(1, 0),), lambda bit: (_Z0, ir.SendClause(("Meas", "Other")[bit], 1, ())))
    take_any = ir.Stage((_rule("any", 1, (ir.RecvClause(0),)),))
    pause = ir.Stage((_rule("pause", 4),))
    take_meas = ir.Stage((_rule("meas", 2, (ir.RecvClause(0), _cmp("MessageKind", "Meas"))),))
    return {0: _stages(0, send), 1: _stages(1, _drop(), take_any, pause, take_meas)}


def fault_named_by_a_bit():
    """Node 0's group drops one pair of alternatives on its first
    measurement; the two left part ways before the first is decided, so the
    group is stuck on a rule the bit picks."""
    pairs, measured = (_res(1, 0), _res(1, 1)), ir.MeasureClause(ir.QubitId(1), "Z")
    rules = []
    for bit in "01":
        first = (*pairs, _cmp("MeasResult", bit))
        rules.append(_rule(f"parting_{bit}", len(rules), (*first, _cmp("MeasResult1", "0")), (_Z0, measured)))
        rules.append(_rule(f"other_{bit}", len(rules), first, (_Z0, ir.FreeClause(ir.QubitId(1)))))
    return {0: _stages(0, ir.Stage(tuple(rules))), 1: _stages(1, _drop())}


def purification_marked_by_a_bit():
    """On a 0, node 0's parity probe of pair 1 spans pair 2, which marks pair
    2 the kept half of a purification round; on a 1 it does not.  Node 1
    frees its ends of pairs 0 and 1, and once its message comes, node 0
    promotes its end of pair 2: boosted only if it was marked."""
    q = [ir.QubitId(i) for i in range(3)]
    cx = ir.QCircClause((ir.QGate(q[2], "CxControl"), ir.QGate(q[1], "CxTarget")))
    probe = lambda bit: (_Z0, cx, ir.MeasureClause(q[1], "Z")) if bit == 0 else (_Z0, ir.MeasureClause(q[1], "Z"))
    measure = _on_bit("MeasResult", (_res(1, 0), _res(1, 1), _res(1, 2)), probe)
    keep = ir.Stage((_rule("keep", 1, (ir.RecvClause(1), _res(1, 0)), (ir.PromoteClause(q[0]),)),))
    drop = ir.Stage((_rule("drop", 3, (_res(0, 0), _res(0, 1)), (ir.FreeClause(q[0]), ir.FreeClause(q[1]))),))
    go = ir.Stage((_rule("go", 2, (), (ir.SendClause("Go", 0, ()),)),))
    return {0: _stages(0, measure, keep), 1: _stages(1, drop, go)}


class TestKeyReads:
    """Two branches whose round ends differ only in one field the key holds:
    a reference bit of a held pair, a timer, a message payload, a store
    entry, which rule of a carrier fired, the rule a fault names, or a
    pair's purification mark.  What follows tells them apart, and the graph
    ends each as a run of every branch does."""

    @pytest.mark.parametrize(
        "build",
        [
            reference_bit_read_later, timer_set_by_a_bit, bit_in_a_message, bit_in_the_store,
            carrier_that_sent, fault_named_by_a_bit, purification_marked_by_a_bit,
        ],
        ids=lambda build: build.__name__,
    )
    def test_the_walk_keeps_them_apart(self, build):
        def after_round_0(report):
            later = [(f["round"], f["rule"]) for f in report.fired if f["round"] > 0]
            return report.status, report.stuck, report.pairs, later

        # below 1.0, so that a purification round changes the fidelity
        walked = runtime.enumerate_outcomes(build(), chain(2), initial_fidelity=0.8)
        replayed = replay_enumeration(build(), chain(2), initial_fidelity=0.8)
        assert [r.to_json() for r in walked] == [r.to_json() for r in replayed]
        zero = next(r for r in walked if r.outcome_path[0] == 0)
        one = next(r for r in walked if r.outcome_path[0] == 1)
        assert after_round_0(zero) != after_round_0(one)


class TestLiveNodes:
    """`Network.live` lists the addresses of the nodes not yet complete, in
    address order, after every round and every starvation pass and in
    every fork, in a sampled run and in every branch of an enumeration."""

    @pytest.mark.parametrize(
        "program,config_name,fidelity",
        [
            ("chain7.rula", "config7.json", 1.0),
            ("chain7.rula", "config7.json", 0.8),  # some branches end stuck
            ("entanglement_swapping.rula", "config5.json", 1.0),
            ("loop_probe.rula", "config2.json", 1.0),
            ("purification.rula", "config5.json", 1.0),
            ("two_matches.rula", "config3.json", 1.0),
        ],
    )
    @pytest.mark.parametrize("budget", [3, 10_000])
    def test_live_is_the_incomplete_nodes(
        self, corpus, monkeypatch, program, config_name, fidelity, budget
    ):
        rulesets, topology = compile_corpus(corpus, program, config_name)
        calls = {"step": 0, "cancel_starved": 0, "fork": 0}

        def assert_live(net):
            stages = net.blueprint.stages
            expected = [
                address for address in net.blueprint.addresses
                if net.stage_idx[address] < len(stages[address])
            ]
            assert net.live == expected

        def checked(name):
            real = getattr(runtime.Network, name)

            def method(net, *args):
                result = real(net, *args)
                calls[name] += 1
                assert_live(result if name == "fork" else net)
                return result

            monkeypatch.setattr(runtime.Network, name, method)

        for name in calls:
            checked(name)
        options = {"initial_fidelity": fidelity, "max_rounds": budget}
        runtime.run(rulesets, topology, **options)
        assert calls["step"] and not calls["fork"]
        reports = enumerate_in_order(rulesets, topology, **options)
        assert calls["fork"] > 0 or len(reports) == 1


class TestForkIndependence:
    """A fork shares no list or dict with its parent but the blueprint's:
    driving it to the end leaves the parent as it was, and the parent then
    ends as a run that was never forked.  No run changes the blueprint."""

    @staticmethod
    def before_first_draw(blueprint):
        """A network drawing zeros, at the last round end before it draws its
        first outcome bit: each round is stepped in a probe fork first."""
        net = runtime.Network(blueprint, PlannedOutcomes(()), 1.0)
        while True:
            probe = net.fork(PlannedOutcomes(()))
            assert probe.step()
            if probe.trace:
                return net
            net = probe

    @staticmethod
    def containers(net):
        """Every list or dict a network holds, by where it is held.  An inbox
        queue is a tuple, which a fork may share."""
        found = {name: value for name, value in vars(net).items() if name != "blueprint"}
        for key, queue in net.inboxes.items():
            assert isinstance(queue, tuple), key
        return {k: v for k, v in found.items() if isinstance(v, (list, dict))}

    @pytest.mark.parametrize(
        "program,config_name",
        [("chain7.rula", "config7.json"), ("purification.rula", "config5.json")],
    )
    def test_fork_leaves_its_parent(self, corpus, program, config_name):
        rulesets, topology = compile_corpus(corpus, program, config_name)
        blueprint = runtime.Blueprint(rulesets, topology)
        built = repr(vars(blueprint))
        parent = self.before_first_draw(blueprint)
        before = json.dumps(runtime._report(parent).to_json())

        fork = parent.fork(PlannedOutcomes((1,) * 64))
        mine, theirs = self.containers(fork), self.containers(parent)
        assert mine.keys() == theirs.keys()
        flat = {"end_state", "fidelity", "pair_ends", "stage_idx", "store", "timers", "inboxes"}
        assert flat <= mine.keys()
        shared = [name for name in mine if mine[name] is theirs[name]]
        assert shared == []
        forked = runtime._drive(fork, 10_000)
        assert forked.outcome_path and set(forked.outcome_path) == {1}

        assert json.dumps(runtime._report(parent).to_json()) == before
        resumed = runtime._drive(parent, 10_000)
        unforked = runtime._drive(runtime.Network(blueprint, PlannedOutcomes(()), 1.0), 10_000)
        assert resumed.quiescent
        assert json.dumps(resumed.to_json()) == json.dumps(unforked.to_json())
        assert repr(vars(blueprint)) == built  # no run changes it

    @staticmethod
    def stateful_pair():
        """Node 1 sends node 0 two messages.  Node 0 takes the first (storing
        its `n`, arming timer `t` for 3 rounds), measures its pair with node
        1 (storing the bit), then takes the second once `t` has expired
        (storing its `n`, arming `t` again).  At the round end before its
        measuring firing, node 0 holds a store, a timer and a queued message."""

        def send(n):
            return ir.SendClause("Meas", 0, (("n", n),))

        def take(name, rule_id, timer, duration):
            conditions = (ir.RecvClause(1),) + ((ir.TimerClause(timer),) if timer else ())
            actions = (ir.SetClause("message.n", "n"), ir.SetTimerClause("t", duration))
            return _rule(name, rule_id, conditions, actions)

        measure = _rule(
            "measure", 1, (_res(1, 0),),
            (ir.MeasureClause(ir.QubitId(0), "Z"), ir.SetClause("MeasResult", "bit")),
        )
        stages = tuple(
            ir.Stage((rule,)) for rule in (take("take", 0, None, 3), measure, take("drain", 2, "t", 5))
        )
        return {
            0: ir.RuleSet(name="t", id=1, owner_addr=0, stages=stages),
            1: _node(1, _rule("send", 0, (), (send("1"), send("2")))),
        }

    def test_fork_leaves_its_parents_node_state(self):
        blueprint = runtime.Blueprint(self.stateful_pair(), chain(2))
        parent = self.before_first_draw(blueprint)
        names = ("stage_idx", "store", "timers", "inboxes")
        before = {name: dict(getattr(parent, name)) for name in names}
        assert before == {
            "stage_idx": {0: 1, 1: 1},
            "store": {(0, "n"): "1"},
            "timers": {(0, "t"): 4},  # armed in round 1
            "inboxes": {(0, 1): (runtime.Message("Meas", 1, 0, {"n": "2"}),)},
        }

        fork = parent.fork(PlannedOutcomes((1,)))
        forked = runtime._drive(fork, 10_000)
        assert forked.quiescent and forked.outcome_path == (1,)
        assert [f["rule"] for f in forked.fired] == ["send", "take", "measure", "drain"]
        assert {name: getattr(fork, name) for name in names} == {
            "stage_idx": {0: 3, 1: 1},
            "store": {(0, "n"): "2", (0, "bit"): "1"},
            "timers": {(0, "t"): 9},  # armed again in round 4
            "inboxes": {},
        }
        assert {name: getattr(parent, name) for name in names} == before

        resumed = runtime._drive(parent, 10_000)
        unforked = runtime._drive(runtime.Network(blueprint, PlannedOutcomes(()), 1.0), 10_000)
        assert resumed.quiescent and parent.store == {(0, "n"): "2", (0, "bit"): "0"}
        assert json.dumps(resumed.to_json()) == json.dumps(unforked.to_json())


class TestSendIndex:
    """`Blueprint.sends` holds each Send clause of each node's rules once, as
    (kind, group, rule) by (sender, destination), and the carriers that
    `cancel_starved` filters from it for a recv-gated group are the rules a
    walk of the sender's action clauses finds."""

    def test_matches_a_walk_of_the_action_clauses(self, corpus):
        built = 0
        for program in sorted(corpus.glob("*.rula")):
            tree = parser.parse(program.read_text(), filename=program.name)
            analysis = analyzer.analyze_program(analyzer.resolve_imports(tree, [corpus])[0])
            for config_path in sorted(corpus.glob("config*.json")):
                topology = config.load_config(config_path.read_text())
                out = codegen.compile_program(analysis, topology, 7) if analysis.ok else None
                if out is not None and out.ok:
                    self.check(runtime.Blueprint(out.per_node, topology))
                    built += 1
        assert built == 12

    @staticmethod
    def check(blueprint):
        walked = collections.Counter()
        for sender, stages in blueprint.stages.items():
            for group in (group for stage in stages for group in stage):
                for rule, _checks, _last in group.alternatives:
                    for clause in rule.action.clauses:
                        if isinstance(clause, ir.SendClause):
                            walked[sender, clause.partner_addr, clause.message, group.gid, id(rule)] += 1
        indexed = collections.Counter(
            (sender, dst, kind, group.gid, id(rule))
            for (sender, dst), sends in blueprint.sends.items()
            for kind, group, rule in sends
        )
        assert indexed == walked and walked
        for dst, stages in blueprint.stages.items():
            for group in (group for stage in stages for group in stage if group.recv):
                src = group.recv.partner_addr
                for kind in {group.kind_gate, None}:
                    reference = {
                        (g.gid, rule.id)
                        for g in (g for stage in blueprint.stages.get(src, ()) for g in stage)
                        for rule, _checks, _last in g.alternatives
                        if any(
                            isinstance(c, ir.SendClause) and c.partner_addr == dst
                            and kind in (None, c.message)
                            for c in rule.action.clauses
                        )
                    }
                    carriers = {
                        (g.gid, r.id) for k, g, r in blueprint.sends.get((src, dst), ())
                        if kind is None or k == kind
                    }
                    assert carriers == reference, (dst, group.gid, kind)


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
    """`_Firing.compare`: an `Int` target compares both sides as integers
    with all six operators, and the clause holds for none of them if a side
    is not an integer; any other target compares both sides as text."""

    @pytest.mark.parametrize(
        "left,op,kind,right,holds",
        [
            ("1", "Neq", "Str", "2", True),
            ("1", "Neq", "Str", "1", False),
            ("07", "Neq", "Str", "7", True),  # text, not number
            ("9", "Lt", "Str", "10", False),  # as text "9" sorts after "10"
            ("10", "Lt", "Str", "9", True),
            ("10", "Leq", "Str", "10", True),
            ("07", "Leq", "Str", "7", True),  # as text "0" sorts before "7"
            ("11", "Leq", "Str", "10", False),
            ("10", "Gt", "Str", "9", False),
            ("-1", "Gt", "Str", "0", False),
            ("9", "Geq", "Str", "10", True),
            ("10", "Geq", "Str", "10", True),
            ("b", "Gt", "Str", "a", True),
            ("abc", "Lt", "Str", "abd", True),
            ("10", "Lt", "Str", "9x", True),
            ("10", "Gt", "Str", "9x", False),
            ("a", "Geq", "Str", "b", False),
            ("a", "Leq", "Str", "a", True),
            ("true", "Eq", "Bool", "true", True),
            ("1", "Eq", "Bool", "true", False),
            ("07", "Eq", "Int", "7", True),  # number, not text
            ("07", "Neq", "Int", "7", False),
            ("07", "Leq", "Int", "7", True),
            ("07", "Lt", "Int", "7", False),
            ("9", "Lt", "Int", "10", True),
            ("10", "Gt", "Int", "9", True),
            ("-1", "Gt", "Int", "0", False),
            ("9", "Geq", "Int", "10", False),
            ("-3", "Geq", "Int", "-3", True),
            ("x", "Eq", "Int", "x", False),  # not an integer: no operator holds
            ("x", "Neq", "Int", "y", False),
            ("10", "Lt", "Int", "9x", False),
            ("10", "Neq", "Int", "9x", False),
            ("", "Eq", "Int", "0", False),
        ],
    )
    def test_message_field_against_literal(self, left, op, kind, right, holds):
        """Node 0 sends `n`; node 1 fires `check` only if `message.n op right`."""
        send = ir.SendClause("Update", 1, (("n", left),))
        check = _rule(
            "check",
            0,
            conditions=(
                ir.RecvClause(0),
                ir.CmpClause("message.n", op, ir.TaggedValue(kind, right)),
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


class TestCzGate:
    """A CZ conjugates X on either qubit to X on it times Z on the other and
    leaves each Z as it was (Aaronson and Gottesman, 2004), so after it an X
    measurement of one slot spans the other slot's pair's Z correlation."""

    def test_x_spans_the_other_pair_z(self):
        # twelve pairs on the one link: node 0 holds end 2p of pair p
        claim = ir.ResClause(count=12, fidelity=0.5, partner_addr=1, qubit_index=0)
        rulesets = {0: _node(0, _rule("claim", 0, (claim,))), 1: _node(1)}
        net = runtime.Network(runtime.Blueprint(rulesets, chain(2)), None, 1.0)
        ends = {q: net.blueprint.ends[0][10 + q] for q in (0, 1)}
        assert [net.end_pair[end] for end in ends.values()] == [10, 11]
        firing = runtime._Firing(net, 0, ends, None)
        gates = (ir.QGate(ir.QubitId(0), "CzControl"), ir.QGate(ir.QubitId(1), "CzTarget"))
        firing._qcirc(ir.QCircClause(gates))
        assert firing.zdeps == {0: {(10, "Z")}, 1: {(11, "Z")}}
        assert firing.xdeps == {0: {(10, "X"), (11, "Z")}, 1: {(11, "X"), (10, "Z")}}


class TestConsumedOrUnbound:
    """Two errors of hand-built rulesets, in a sampled run and in an
    enumeration: a slot promoted after its measurement consumed it, and a
    Set of a message field in a rule that takes no message."""

    @pytest.mark.parametrize(
        "actions,message",
        [
            (
                (ir.MeasureClause(ir.QubitId(0), "Z"), ir.PromoteClause(ir.QubitId(0))),
                "^address 0: promote of a consumed qubit$",
            ),
            ((ir.SetClause("message.result"),), "^no message bound for message.result$"),
        ],
        ids=["promote-after-measure", "set-without-recv"],
    )
    @pytest.mark.parametrize("enumerate_all", [False, True], ids=["run", "enumerate"])
    def test_raises(self, actions, message, enumerate_all):
        rulesets = {0: _node(0, _rule("bad", 0, (_res(1, 0),), actions)), 1: _node(1)}
        call = runtime.enumerate_outcomes if enumerate_all else runtime.run
        with pytest.raises(runtime.SimulationError, match=message):
            call(rulesets, chain(2))


class TestUnpairedGate:
    def test_a_control_gate_with_no_target_is_an_error(self):
        """A control gate pairs with the gate after it; a circuit that ends
        on one is outside what the simulator tracks."""
        gates = (ir.QGate(ir.QubitId(0), "CxControl"),)
        rulesets = {
            0: _node(0, _rule("gate", 0, (_res(1, 0),), (ir.QCircClause(gates),))),
            1: _node(1),
        }
        with pytest.raises(runtime.SimulationError, match="^unpaired CxControl gate$"):
            runtime.run(rulesets, chain(2))


class TestInheritedSlot:
    def test_a_later_stage_frees_the_end_an_earlier_stage_promoted(self):
        """A slot no resource clause binds takes, with no message to name a
        partner, the first end the node has promoted."""
        q0 = ir.QubitId(0)
        keep = _rule("keep", 0, (_res(1, 0),), (ir.PromoteClause(q0),))
        drop = _rule("drop", 1, (), (ir.FreeClause(q0),))
        stages = (ir.Stage((keep,)), ir.Stage((drop,)))
        rulesets = {
            0: ir.RuleSet(name="t", id=1, owner_addr=0, stages=stages),
            1: _node(1, _rule("keep", 0, (_res(0, 0),), (ir.PromoteClause(q0),))),
        }
        report = runtime.run(rulesets, chain(2))
        assert report.quiescent, report.stuck
        assert [(f["address"], f["rule"]) for f in report.fired] == [
            (0, "keep"),
            (1, "keep"),
            (0, "drop"),
        ]
        assert report.pairs == []  # node 0's promoted end is gone


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


class TestDecidedEarly:
    """A group of alternatives whose shared prefix is one measurement, as
    lowering emits for a `match` arm that measures again before it matches.
    A comparison is read once the action clauses up to the measurement that
    writes its register have run: the alternatives left after the first
    measurement run the second one, which they share, before the group picks
    one of them. Alternatives that part ways before the first one left can
    be decided leave the group stuck."""

    Q0, Q1 = ir.QubitId(0), ir.QubitId(1)

    @staticmethod
    def cmp(register, value):
        return ir.CmpClause(register, "Eq", ir.TaggedValue("Str", value))

    @classmethod
    def reports(cls, first_arm: str):
        def arm(rule_id, cmps, tail):
            condition = (_res(1, 0), _res(1, 1), *cmps)
            return _rule("nested", rule_id, condition, (ir.MeasureClause(cls.Q0, "Z"), *tail))

        measured = (ir.MeasureClause(cls.Q1, "Z"),)
        rules = (
            arm(0, (cls.cmp("MeasResult", first_arm), cls.cmp("MeasResult1", "0")), measured),
            arm(1, (cls.cmp("MeasResult", first_arm), cls.cmp("MeasResult1", "1")), measured),
            arm(2, (cls.cmp("MeasResult", "1"),), (ir.FreeClause(cls.Q1),)),
        )
        return runtime.enumerate_outcomes({0: _node(0, *rules), 1: _node(1)}, chain(2))

    def test_an_arm_is_compared_after_its_measurement(self):
        reports = self.reports("0")
        assert [(r.outcome_path, r.status) for r in reports] == [
            ((0, 0), "quiescent"),
            ((0, 1), "quiescent"),
            ((1,), "quiescent"),
        ]
        assert [[f["id"] for f in r.fired] for r in reports] == [[0], [1], [2]]

    def test_an_arm_failing_on_the_prefix_still_cancels(self):
        reports = self.reports("2")
        assert [(r.outcome_path, r.status) for r in reports] == [
            ((0,), "quiescent"),
            ((1,), "quiescent"),
        ]
        assert [[f["id"] for f in r.fired] for r in reports] == [[], [2]]

    def test_alternatives_parting_before_a_decision_end_stuck(self):
        """Both alternatives pass on the first measurement; the first one
        still needs the second, which only it takes."""
        pairs = (_res(1, 0), _res(1, 1))
        first = ir.MeasureClause(self.Q0, "Z")
        compared = (self.cmp("MeasResult", "0"), self.cmp("MeasResult1", "0"))
        rules = (
            _rule("parting", 0, (*pairs, *compared), (first, ir.MeasureClause(self.Q1, "Z"))),
            _rule("parting", 1, (*pairs, compared[0]), (first, ir.FreeClause(self.Q1))),
        )
        zero, one = runtime.enumerate_outcomes({0: _node(0, *rules), 1: _node(1)}, chain(2))
        assert (zero.outcome_path, zero.status, zero.fired) == ((0,), "stuck", [])
        assert zero.stuck == [
            "address 0: rule 'parting' (id 0) compares MeasResult1 before the "
            "measurement that writes it"
        ]
        assert (one.outcome_path, one.status, one.fired) == ((1,), "quiescent", [])

    def test_a_stuck_group_names_the_rule_left_undecided(self):
        """Rule 0 is dropped on the first measurement; rules 1 and 2 then
        part ways before rule 1 can be decided, and rule 1 is named."""
        pairs = (_res(1, 0), _res(1, 1))
        first, free = ir.MeasureClause(self.Q0, "Z"), ir.FreeClause(self.Q1)
        compared = (self.cmp("MeasResult", "0"), self.cmp("MeasResult1", "0"))
        rules = (
            _rule("dropped", 0, (*pairs, self.cmp("MeasResult", "1")), (first, free)),
            _rule("parting", 1, (*pairs, *compared), (first, ir.MeasureClause(self.Q1, "Z"))),
            _rule("other", 2, (*pairs, compared[0]), (first, free)),
        )
        zero, one = runtime.enumerate_outcomes({0: _node(0, *rules), 1: _node(1)}, chain(2))
        assert (zero.outcome_path, zero.status, zero.fired) == ((0,), "stuck", [])
        assert zero.stuck == [
            "address 0: rule 'parting' (id 1) compares MeasResult1 before the "
            "measurement that writes it"
        ]
        assert (one.outcome_path, one.status) == ((1,), "quiescent")
        assert [f["id"] for f in one.fired] == [0]


# --- rule groups built once per template key ---------------------------------


def _blueprint_and_templated(rulesets, topology, monkeypatch):
    """A Blueprint of `rulesets`, the rules of each group it took the
    template of (`_template`), and how many of its groups it built from
    the template of an earlier group of the same template keys."""
    templated = []
    real = runtime._template

    def recording(rules):
        templated.append(rules)
        return real(rules)

    with monkeypatch.context() as patched:
        patched.setattr(runtime, "_template", recording)
        blueprint = runtime.Blueprint(rulesets, topology)
    return blueprint, templated, blueprint.group_count - len(templated)


def _assert_groups_built_plainly(blueprint):
    """Each group equals, field by field, the group `_build_group` makes of
    its rules with their own template, and holds those very rules."""
    groups = [g for stages in blueprint.stages.values() for stage in stages for g in stage]
    assert len(groups) == blueprint.group_count
    for group in groups:
        rules = [rule for rule, _checks, _last in group.alternatives]
        plain = runtime._build_group(rules, group.gid, runtime._template(rules))
        assert group == plain
        assert all(a[0] is b[0] for a, b in zip(group.alternatives, plain.alternatives))


class TestGroupsOncePerKey:
    """`Blueprint` takes the template of the first group of each tuple of
    template keys, every part that reads no hole, for the later ones too:
    those must still be the groups a plain build makes, whether the keys
    come from lowering or from the shapes of a load."""

    @pytest.fixture(scope="class")
    def compiled(self):
        from test_ir import _SHARED_LOADS

        corpus = Path(__file__).parent / "corpus"
        cases = {}
        for name, config_names in _SHARED_LOADS:
            for config_name in config_names:
                cases[name, config_name] = compile_corpus(corpus, name, config_name)
        program = parser.parse(
            (corpus / "entanglement_swapping.rula")
            .read_text()
            .replace("for d in 1..(#repeaters.len()/2)", "for d in [1, 2, 4, 8, 16]")
        )
        analysis = analyzer.analyze_program(program)
        repeaters = [{"name": f"#{i}", "address": 1000 - 7 * i} for i in range(33)]
        topology = config.load_config(json.dumps({"repeaters": repeaters}))
        out = codegen.compile_program(analysis, topology, 7)
        assert out.ok, out.diagnostics
        cases["doubling", "chain33"] = out.per_node, topology
        return cases

    def test_compiled_groups_are_the_plain_ones(self, compiled, monkeypatch):
        shared = {}
        for case, (rulesets, topology) in compiled.items():
            blueprint, _, shared[case] = _blueprint_and_templated(rulesets, topology, monkeypatch)
            _assert_groups_built_plainly(blueprint)
        assert len(shared) == 13
        assert shared["doubling", "chain33"] > 100

    def test_loaded_groups_are_the_plain_ones(self, compiled, monkeypatch, tmp_path):
        shared = {}
        for case, (rulesets, topology) in compiled.items():
            directory = tmp_path / "-".join(case)
            directory.mkdir()
            for address, ruleset in rulesets.items():
                (directory / f"{address}.json").write_text(ir.serialize(ruleset))
            loaded = cli._load_rulesets(directory, topology)
            blueprint, _, shared[case] = _blueprint_and_templated(loaded, topology, monkeypatch)
            _assert_groups_built_plainly(blueprint)
        # a load keys its documents by shape from the ninth on: only the chain's
        assert [case for case, count in shared.items() if count] == [("doubling", "chain33")]

    @pytest.mark.parametrize("name", ["{index:02}.json", "{address}.json"], ids=["chain", "address"])
    def test_each_shape_is_built_plainly_once(self, compiled, monkeypatch, tmp_path, name):
        """A rule with no key is its own: the first document of a shape,
        loaded the full way, keys the shape's refills, so no tuple of keys
        is built plainly twice, whichever document of a shape comes first in
        chain order. Files named in chain order load in it: then every group
        of a refilled document is built from an earlier group."""
        rulesets, topology = compiled["doubling", "chain33"]
        for rep in topology.repeaters:
            path = tmp_path / name.format(index=rep.index, address=rep.address)
            path.write_text(ir.serialize(rulesets[rep.address]))
        loaded = cli._load_rulesets(tmp_path, topology)
        blueprint, templated, _ = _blueprint_and_templated(loaded, topology, monkeypatch)
        plain = [tuple(id(getattr(r, "_template", r)) for r in rules) for rules in templated]
        assert len(set(plain)) == len(plain)
        groups = [g for stages in blueprint.stages.values() for stage in stages for g in stage]
        refilled = [g.alternatives[0][0] for g in groups if hasattr(g.alternatives[0][0], "_template")]
        assert len(refilled) > 50  # 25 of the 33 documents are refilled
        if name.startswith("{index"):
            plain_heads = {id(rules[0]) for rules in templated}
            assert all(id(rule) not in plain_heads for rule in refilled)

    @pytest.mark.parametrize("coinciding", [0, 1])
    def test_where_alternatives_part_is_read_per_group(self, coinciding, monkeypatch):
        """Two owners share both rule keys. Each rule sends to one partner
        first; the two partners are one address at one owner and two at
        the other, so the alternatives share their first two clauses at the
        one and none at the other, whichever owner is built first."""
        keys = (object(), object())

        def group(owner, partners):
            rules = []
            for rule_id, partner in enumerate(partners):
                compared = ir.CmpClause("x", "Eq", ir.TaggedValue("Str", str(rule_id)))
                sends = (ir.SendClause("Free", partner), ir.SetTimerClause("t", 1))
                rule = _rule("fork", rule_id, (compared,), sends)
                rules.append(ir.keyed(rule, keys[rule_id]))
            return _node(owner, *rules)

        parted = {0: (1, 1), 1: (0, 2)} if coinciding == 0 else {0: (1, 2), 1: (2, 2)}
        rulesets = {owner: group(owner, partners) for owner, partners in parted.items()}
        rulesets[2] = _node(2)
        blueprint, _, shared = _blueprint_and_templated(rulesets, chain(3), monkeypatch)
        assert shared == 1
        _assert_groups_built_plainly(blueprint)
        stops = {owner: blueprint.stages[owner][0][0].first_stop for owner in parted}
        assert stops == {coinciding: 2, 1 - coinciding: 0}
