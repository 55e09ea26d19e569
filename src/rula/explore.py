"""Enumeration of every branch of a run's measurement outcome tree.

Enumeration is a depth-first walk over the networks of one `Blueprint`
(see `runtime`): a branch runs with zero bits past its plan, and each zero
it drew is flipped in a new branch.  The walk keeps a copy of the network
at each new round-end state on the path it walks, and a flipped branch
resumes from the last copy made before its bit was drawn, rerunning the
next round from its start under its plan; so the rounds before the one
that draws a bit run once for the whole subtree below it.

The walk also runs each distinct round-end state once (state caching, as
in Holzmann's SPIN, 1997).  At every round end a branch keys its network by
what a later round, stuck line or report can read, and by nothing else
(live-variable reduction, Bozga, Fernandez and Ghirvu, SAS 1999; see
`_Keys`).  Once the subtree below a key has been walked, a branch that
reaches an equal key stops there and takes that subtree's reports as its
own: each with the branch's fired records, delivered count and outcome bits
so far, then the report's own from that state on.  So the reports, and
every byte written from them, are those of a walk of every branch.
"""

from __future__ import annotations

from . import ir
from .config import Topology
from .runtime import RESOLVED, Blueprint, Network, RunReport, _drive


class _Plan:
    """The outcome source of one branch: replays `plan` bit by bit, then
    draws zeros."""

    def __init__(self, plan: tuple[int, ...]):
        self.plan = plan

    def draw(self, position: int) -> int:
        return self.plan[position] if position < len(self.plan) else 0


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

    Each part is numbered once per walk by value (`_id`), as the blueprint
    builds each report record once, so a key is a short tuple of ints.  One
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


class _Walk:
    """The reports of the branches walked so far, and the round-end states
    by key: `memo` for each whose subtree is walked, as (bits drawn, first
    report, end report, fired count, delivered count) at that state, and
    `open` for those on the path being walked, in the order they were met,
    as (key, first report, a copy of the network there).  The first open
    entry is the network before its first round, with key None."""

    def __init__(self, net: Network, max_rounds: int):
        self.max_rounds = max_rounds
        self.keys = _Keys()
        self.reports: list[RunReport] = []
        self.memo: dict[tuple, tuple] = {}
        self.open: list[tuple] = [(None, 0, net)]

    def close(self, flipped: int) -> None:
        """A branch that flips bit `flipped` leaves the subtree of every
        state that had drawn it, and the walk never comes back to one.  The
        first entry, where the first branch starts, stays."""
        while len(self.open) > 1 and len(self.open[-1][2].trace) > flipped:
            key, first, net = self.open.pop()
            self.memo[key] = (len(net.trace), first, len(self.reports), len(net.fired), net.delivered)

    def run(self, plan: tuple[int, ...]) -> tuple[int, ...]:
        """Run the branch that draws `plan`, then zeros, from the last state
        on the walked path before its last bit was drawn, to its end or to a
        round end whose subtree is walked, and add the reports that follow;
        the outcome bits the branch drew."""
        self.close(len(plan) - 1)
        net = self.open[-1][2].fork(_Plan(plan))
        report = _drive(net, self.max_rounds, self.merged)
        if report is not None:
            self.reports.append(report)
        return tuple(net.trace)

    def merged(self, net: Network) -> bool:
        """Whether the subtree below the state of `net` is walked; if so,
        its reports are added again with the branch's path as their
        prefix, else the state is open."""
        key = self.keys(net)
        walked = self.memo.get(key)
        if walked is None:
            self.open.append((key, len(self.reports), net.fork(None)))
            return False
        drawn, first, end, fired, delivered = walked
        trace = tuple(net.trace)
        for report in self.reports[first:end]:
            self.reports.append(RunReport(
                status=report.status,
                rounds=report.rounds,
                fired=net.fired + report.fired[fired:],
                pairs=report.pairs,
                stuck=report.stuck,
                messages_delivered=net.delivered + report.messages_delivered - delivered,
                outcome_path=trace + report.outcome_path[drawn:],
            ))
        return True


def enumerate_outcomes(
    rulesets: dict[int, ir.RuleSet],
    topology: Topology,
    *,
    initial_fidelity: float = 1.0,
    max_rounds: int = 10_000,
) -> list[RunReport]:
    """Every branch of the measurement outcome tree, each once.

    Depth first: each branch runs with zeros past its plan, and every zero
    it drew is flipped in a new branch, deepest first.  That branch forks
    the copy of the last round-end state before the bit was drawn and
    replays the plan from the start of the next round.  A copy is freed
    once the walk flips a bit drawn before it, so the live ones lie on the
    path being walked.  A branch's flips all come after its plan, and the
    deepest runs first, so the reports come in outcome-path order, and the
    reports below a state are consecutive.  A branch that reaches a state
    whose subtree is walked stops there (see `_Walk.merged`), and flips
    only the bits it drew before it.
    """
    walk = _Walk(Network(Blueprint(rulesets, topology), None, initial_fidelity), max_rounds)
    todo: list[tuple[int, ...]] = [()]
    while todo:
        plan = todo.pop()
        path = walk.run(plan)
        # pushed shallowest first, so the deepest flip runs next: a subtree
        # finishes, and frees its copies, before its siblings start
        todo.extend([path[:i] + (1,) for i in range(len(plan), len(path)) if path[i] == 0])
    return walk.reports
