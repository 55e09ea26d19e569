"""Enumeration of every branch of a run's measurement outcome tree.

Enumeration is a depth-first walk over the networks of one `Blueprint`
(see `runtime`): a branch runs with zero bits past its plan and snapshots
the network before every firing of a group that measures, and each zero it
drew is flipped in a new branch that resumes from the snapshot before the
firing that drew it, so the rounds before a measurement run once for the
whole subtree below it.

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

from dataclasses import dataclass

from . import ir
from .config import Topology
from .runtime import RESOLVED, Blueprint, Network, RunReport, _drive, _report


class _Branch:
    """One branch of the enumeration: replays `plan` bit by bit, then draws
    zeros, and snapshots the network before every firing of a group that
    measures.

    A branch resumed from `origin` re-enters the firing `origin` was taken
    before; that snapshot stands for it instead of a fresh copy.
    """

    def __init__(self, plan: tuple[int, ...], origin: "_Snapshot | None"):
        self.plan = plan
        self.snapshots: list[_Snapshot] = [] if origin is None else [origin]
        self._resumed = origin is not None

    def draw(self, position: int) -> int:
        return self.plan[position] if position < len(self.plan) else 0

    def checkpoint(self, net: Network, index: int) -> None:
        if self._resumed:
            self._resumed = False
        else:
            self.snapshots.append(_Snapshot(net.fork(None), index))


@dataclass(eq=False)
class _Snapshot:
    """A network about to fire a group that measures, at node `index` of
    the round in progress."""

    net: Network
    index: int

    @property
    def drawn(self) -> int:
        return len(self.net.trace)


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
        live = set()
        for _index, address in net.live:
            live.add(address)
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
        alive = set(pairs)
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
    report, end report, fired records, delivered count) at that state, and
    `open` for those on the path being walked, in the order they were met."""

    def __init__(self, max_rounds: int):
        self.max_rounds = max_rounds
        self.keys = _Keys()
        self.reports: list[RunReport] = []
        self.memo: dict[tuple, tuple] = {}
        self.open: list[tuple] = []

    def close(self, flipped: int) -> None:
        """A branch that flips bit `flipped` leaves the subtree of every
        state that had drawn it, and the walk never comes back to one."""
        while self.open and self.open[-1][0] > flipped:
            drawn, key, first, fired, delivered = self.open.pop()
            self.memo[key] = (drawn, first, len(self.reports), fired, delivered)

    def run(self, net: Network, start: int) -> tuple[int, ...]:
        """Drive `net`, resuming at node `start`, to its end or to a round
        end whose subtree is walked, and add the reports that follow; the
        outcome bits the branch drew."""
        while net.live and net.round < self.max_rounds:
            if not net.step(start) and not net.cancel_starved() and not net.timers_armed():
                self.reports.append(_report(net))
                break
            start = 0
            if self.merged(net):
                break
        else:  # complete, or out of rounds: `_drive` reports which
            self.reports.append(_drive(net, self.max_rounds))
        return tuple(net.trace)

    def merged(self, net: Network) -> bool:
        """Whether the subtree below the state of `net` is walked; if so,
        its reports are added again with the branch's path as their
        prefix, else the state is open."""
        key = self.keys(net)
        walked = self.memo.get(key)
        if walked is None:
            self.open.append((len(net.trace), key, len(self.reports), len(net.fired), net.delivered))
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
    the snapshot taken before the firing that drew the bit and replays the
    plan from there.  A snapshot is freed with the last branch that forks
    it, so the live ones lie on the path being walked.  A branch's flips
    all come after its plan, and the deepest runs first, so the reports come
    in outcome-path order, and the reports below a state are consecutive.
    A branch that reaches a state whose subtree is walked stops there (see
    `_Walk.merged`), and flips only the bits it drew before it.
    """
    blueprint = Blueprint(rulesets, topology)
    walk = _Walk(max_rounds)
    todo: list[tuple[_Snapshot | None, tuple[int, ...]]] = [(None, ())]
    while todo:
        origin, plan = todo.pop()
        walk.close(len(plan) - 1)
        branch = _Branch(plan, origin)
        if origin is None:
            net = Network(blueprint, branch, initial_fidelity)
        else:
            net = origin.net.fork(branch)
        path = walk.run(net, origin.index if origin else 0)
        snapshots = branch.snapshots
        owner = 0
        # pushed shallowest first, so the deepest flip runs next: a subtree
        # finishes, and frees its snapshots, before its siblings start
        for i in range(len(plan), len(path)):
            if path[i] == 0:
                # the latest snapshot at or before the draw of bit i
                while owner + 1 < len(snapshots) and snapshots[owner + 1].drawn <= i:
                    owner += 1
                todo.append((snapshots[owner], path[:i] + (1,)))
    return walk.reports
