"""Enumeration of every branch of a run's measurement outcome tree.

Enumeration builds one graph over the networks of one `Blueprint` (see
`runtime`).  Its nodes are the distinct round-end states of the run, each
keyed by what a later round, stuck line or report can read, and by nothing
else (live-variable reduction, Bozga, Fernandez and Ghirvu, SAS 1999; see
`_Keys`), and each is expanded once, from the network of the first branch
that reaches it (state caching, as in Holzmann's SPIN, 1997).  A node has
one edge per plan of the outcome bits its next round draws, in bit order,
holding those bits, the fired records and delivered count of that round,
and the node of the state the round ends at or the report it ends the run
with.  So the
rounds before a bit is drawn run once for the whole subtree below them,
and an equal state met again is not run again.

Folding the graph gives the number of branches and whether every one is
quiescent.  Unfolding it depth first, edges in bit order, gives every
branch in outcome-path order.  Its stack carries, for each node on the
path, the bits and delivered count of the edges so far and a fold of their
fired records: their list, so that each branch is made into its report
with the bits, fired records and delivered count of the edges on its path,
and the reports, and every byte written from them, are those of running
every branch.  `rula run` folds the records into the text it writes
instead (see `cli._Branches`), so it renders an edge's records once each
time the unfold passes the edge, not once for every branch below it.  Each
branch is made as it is drawn, and only the graph is held.

Report records are hash-consed (Filliâtre and Conchon, 2006): the fired
records of each edge and the pair records of each report that ends a run
are kept once per distinct value, in a table of the call, so every report
that holds an equal record holds the same read-only dict, whose text a
write makes once (see `ir.dump` and `cli._Branches`).
"""

from __future__ import annotations

import operator

from . import ir
from .config import Topology
from .runtime import RESOLVED, Blueprint, Network, RunReport, _drive


class _Plan(tuple):
    """The outcome source of one branch: replays its bits one by one, then
    draws zeros."""

    def draw(self, position: int) -> int:
        return self[position] if position < len(self) else 0


class _Keys:
    """The key of a network at a round end, as a tuple of small ints.

    It holds the round (fired records and timers name absolute rounds), the
    stage of every node and, per node not yet complete, the state of each
    group of its stage (those of later stages are all pending) and one int
    per carrier of each pending recv-gated group from its stage on: whether
    that carrier group resolved, and whether by firing that rule (all that
    `cancel_starved` and `stuck_reports` read of it).  Then every held end
    (its pair, partner and state), every pair a held end is on (its
    fidelity by repr, frame, purification state and ends), the reference
    bits whose observable spans only such pairs, the store, timers and
    inboxes of the nodes not yet complete, and the faults.

    It leaves out path data (`fired`, `delivered`, `trace`) and what nothing
    reads again: groups of passed stages and complete nodes, but as
    carriers; gone ends; pairs with no held end, which no end joins again,
    since a splice makes a new pair; so the reference bits of an observable
    that spans one, which no measurement can span again either; and the
    store, timers and inboxes of complete nodes.

    Each part is numbered once per graph by value (`_id`), as `outcomes`
    keeps each report record once, so a key is a short tuple of ints.  One
    `_Keys` serves one blueprint: it keeps the groups of each of its stages."""

    def __init__(self) -> None:
        self.ids: dict = {}
        # (address, stage) -> the gids of that stage, and (gid, carriers)
        # for each recv-gated group from that stage on
        self.tails: dict[tuple[int, int], tuple] = {}

    def _id(self, part) -> int:
        return self.ids.setdefault(part, len(self.ids))

    def _tail(self, net: Network, address: int, stage: int) -> tuple:
        tail = self.tails.get((address, stage))
        if tail is None:
            stages = net.blueprint.stages[address][stage:]
            asks = tuple([
                (g.gid, tuple([(c.gid, r) for c, r in net._carriers(address, g)]))
                for groups in stages for g in groups if g.recv is not None
            ])
            tail = self.tails[address, stage] = (tuple([g.gid for g in stages[0]]), asks)
        return tail

    def __call__(self, net: Network) -> tuple:
        state, fired_rule, stage_idx = net.state, net.fired_rule, net.stage_idx
        key = [net.round, self._id(tuple(stage_idx.values()))]
        for address in net.live:
            gids, asks = self._tail(net, address, stage_idx[address])
            key.append(self._id(tuple([state[g] for g in gids])))
            key.append(self._id(tuple([
                2 * (state[c] in RESOLVED) + (fired_rule[c] is r)
                for gid, carriers in asks if state[gid] == "pending"
                for c, r in carriers
            ])))
        end_state, end_pair, partner = net.end_state, net.end_pair, net.partner
        held = tuple([e for e, s in enumerate(end_state) if s != "gone"])
        key.append(self._id((
            held,
            tuple([end_pair[e] for e in held]),
            tuple([partner[e] for e in held]),
            tuple([end_state[e] for e in held]),
        )))
        pairs = sorted({end_pair[e] for e in held})
        key.append(self._id((
            tuple(pairs),
            tuple([repr(net.fidelity[p]) for p in pairs]),  # 0.0 and -0.0 write apart
            tuple([net.phase[p] for p in pairs]),
            tuple([net.parity[p] for p in pairs]),
            tuple([net.purify[p] for p in pairs]),
            tuple([net.pair_ends[p] for p in pairs]),
        )))
        alive, live = set(pairs), set(net.live)
        key.append(self._id(frozenset([
            entry for entry in net.pending.items() if all(p in alive for p, _b in entry[0])
        ])))
        for table in (net.store, net.timers):
            key.append(self._id(frozenset([item for item in table.items() if item[0][0] in live])))
        key.append(self._id(frozenset([
            (where, tuple([(m.kind, tuple(m.payload.items())) for m in queue]))
            for where, queue in net.inboxes.items() if where[0] in live
        ])))
        key.append(self._id(frozenset([
            (gid, id(rule), why) for gid, (rule, why) in net.faults.items()
        ])))
        return tuple(key)


class Reports:
    """The fold that unfolds each branch into its `RunReport`: a path's
    fired records are the lists of its edges added up."""

    start: list = []  # never changed: `add` makes a new list
    add = staticmethod(operator.add)

    @staticmethod
    def branch(end: RunReport, fired: list, delivered: int, path: tuple) -> RunReport:
        return RunReport(end.status, end.rounds, fired, end.pairs, end.stuck, delivered, path)


def outcomes(
    rulesets: dict[int, ir.RuleSet],
    topology: Topology,
    *,
    initial_fidelity: float = 1.0,
    max_rounds: int = 10_000,
    fold=Reports,
) -> tuple:
    """The number of branches of the measurement outcome tree, whether every
    one ends quiescent, and a generator of their reports, each once, in
    outcome-path order.

    The graph is built depth first, with a stack of the nodes being
    expanded: each with its network, the plans of its next round still to
    run and its edges so far, so the live networks are those on one path.
    A plan runs for one round in a fork of the node's network, with zeros
    past it, and each zero that round drew past the plan is then flipped in
    a new plan, deepest first, so the edges come in bit order.  A node is
    folded once its last plan has run: an edge that ends the run is one
    branch, and one that reaches a node brings that node's branches.
    The generator walks the graph with a stack of edge iterators, one per
    node on the path that has more than one edge, each with the path's bits,
    delivered count and fired records so far, folded by `fold` (see
    `Reports`): `fold.add` adds an edge's fired records to a path's, from
    `fold.start`, and `fold.branch` makes each branch, as it is drawn, from
    the report that ends it and its path's fold, delivered count and bits.
    """
    keys = _Keys()
    nodes = {}  # key -> its node: [edges], then branches and all quiescent
    # each distinct fired and pair record, by the values it writes (the
    # fidelity by repr: 0.0 and -0.0 are equal but write apart)
    records: dict[tuple, dict] = {}
    root = [[]]
    stack = [(Network(Blueprint(rulesets, topology), None, initial_fidelity), [()], root)]
    while stack:
        net, plans, node = stack[-1]
        if not plans:
            stack.pop()
            counts, quiet = zip(*[
                (1, end.quiescent) if end.__class__ is RunReport else end[1:] for *_, end in node[0]
            ])
            node += sum(counts), all(quiet)
            continue
        plan = plans.pop()
        fork = net.fork(_Plan(tuple(net.trace) + plan))
        end = _drive(fork, max_rounds, True)
        bits = tuple(fork.trace[len(net.trace):])
        plans.extend([bits[:i] + (1,) for i in range(len(plan), len(bits)) if not bits[i]])
        if end is None:
            key = keys(fork)
            end = nodes.get(key)
            if end is None:
                end = nodes[key] = [[]]
                stack.append((fork, [()], end))
        else:
            end.pairs = [
                records.setdefault((*p["nodes"], *p["states"], *p["bell_index"], repr(p["fidelity"])), p)
                for p in end.pairs
            ]
        fired = [records.setdefault(tuple(f.values()), f) for f in fork.fired[len(net.fired):]]
        node[0].append((bits, fired, fork.delivered - net.delivered, end))

    def unfold():
        stack = [((), fold.start, 0, iter(root[0]))]
        while stack:
            path, fired, delivered, ahead = stack[-1]
            for bits, more, count, end in ahead:
                more, count = add(fired, more), delivered + count
                # a node with one edge draws no bit (a drawn bit is flipped
                # too): followed in place
                while end.__class__ is not RunReport and len(end[0]) == 1:
                    _, after, step, end = end[0][0]
                    more = add(more, after)
                    count += step
                if end.__class__ is RunReport:
                    yield branch(end, more, count, path + bits)
                else:
                    stack.append((path + bits, more, count, iter(end[0])))
                    break
            else:
                stack.pop()

    add, branch = fold.add, fold.branch
    return (*root[1:], unfold())
