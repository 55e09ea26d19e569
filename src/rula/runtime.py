"""Deterministic execution of compiled rulesets over a linear repeater chain.

The simulator models each link-level Bell pair as a shared object with a
Pauli frame (phase bit, parity bit) and an analytic fidelity, while each
node only sees its own end of a pair.  Classical messages travel over
per-link FIFO queues and become visible at the next synchronous round.
Measurement outcomes are drawn from a pluggable bit source, which makes a
seeded run reproducible and lets the enumeration driver walk every branch
of the outcome tree.

The rule groups, the link provisioning and the index of send clauses are
built once per call (`Blueprint`); a `Network` holds only what a run
changes, so it can be forked.  Enumeration is a depth-first walk: a branch
runs with zero bits past its plan and snapshots the network before every
firing of a group that measures, and each zero it drew is flipped in a new
branch that resumes from the snapshot before the firing that drew it, so
the rounds before a measurement run once for the whole subtree below it.

Report records are hash-consed (Filliâtre and Conchon, 2006): the fired and
pair records of one call are built once per distinct value, in a table on
the `Blueprint`, and every report that holds an equal record holds the same
dict.  A `--report-json` of every branch then writes each one once (see
`ir.dumps`).  Records are shared, so they are read-only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import ir
from .config import Topology

__all__ = [
    "SimulationError",
    "RunReport",
    "purify_update",
    "run",
    "enumerate_outcomes",
]


class SimulationError(Exception):
    """The ruleset asked for something outside the tracked state space."""


class _Stuck(Exception):
    """A firing that cannot go on: its group stays stuck, for this reason."""


def purify_update(fidelity: float) -> float:
    """Post-selected fidelity after one round of parity-checked purification
    of two pairs at the same fidelity."""
    f = fidelity
    return f * f / (f * f + (1.0 - f) * (1.0 - f))


# --- outcome sources ---------------------------------------------------------


class RandomOutcomes:
    """Seeded coin flips; a sampled run keeps no snapshots."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def draw(self, position: int) -> int:
        return self._rng.getrandbits(1)

    def checkpoint(self, net: "Network", index: int) -> None:
        pass


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

    def checkpoint(self, net: "Network", index: int) -> None:
        if self._resumed:
            self._resumed = False
        else:
            self.snapshots.append(_Snapshot(net.fork(None), index))


@dataclass(eq=False)
class _Snapshot:
    """A network about to fire a group that measures, at node `index` of
    the round in progress."""

    net: "Network"
    index: int

    @property
    def drawn(self) -> int:
        return len(self.net.trace)


# --- physical state ----------------------------------------------------------


@dataclass
class Pair:
    id: int
    fidelity: float
    phase_bit: int = 0
    parity_bit: int = 0
    # "idle" until a sacrificial parity measurement marks this pair as the
    # kept half of a purification round, "done" once the boost is applied
    purify_state: str = "idle"
    ends: list["End"] = field(default_factory=list)

    def other_end(self, end: "End") -> "End":
        for candidate in self.ends:
            if candidate is not end:
                return candidate
        raise SimulationError(f"pair {self.id} has no second end")


@dataclass
class End:
    pair: Pair
    node: int
    viewed_partner: int
    state: str = "free"  # free | promoted | gone


@dataclass
class Message:
    kind: str
    src: int
    dst: int
    payload: dict[str, str]


# --- rule grouping -----------------------------------------------------------


def _is_composite(clauses: tuple[ir.ActionClause, ...], i: int) -> bool:
    """A fused two-qubit measurement: CX immediately followed by an X
    measurement of the control and a Z measurement of the target."""
    if i + 2 >= len(clauses):
        return False
    qc, mx, mz = clauses[i], clauses[i + 1], clauses[i + 2]
    if not isinstance(qc, ir.QCircClause) or len(qc.qgates) != 2:
        return False
    ctrl, tgt = qc.qgates
    if ctrl.kind != "CxControl" or tgt.kind != "CxTarget":
        return False
    return (
        isinstance(mx, ir.MeasureClause)
        and isinstance(mz, ir.MeasureClause)
        and mx.qubit == ctrl.qubit
        and mx.basis == "X"
        and mz.qubit == tgt.qubit
        and mz.basis == "Z"
    )


@dataclass
class Group:
    """Rules in one stage sharing a shared_tag: alternatives of which at
    most one fires.  Its state lives in the network, at index `gid`."""

    gid: int
    rules: list[ir.Rule]
    # tuples: the empty ones are one shared object, which keeps the many
    # groups of a long chain cheap for the garbage collector to scan
    res: tuple[ir.ResClause, ...]
    recv: ir.RecvClause | None
    kind_gate: str | None
    timers: tuple[ir.TimerClause, ...]
    discriminators: tuple[tuple[ir.CmpClause, ...], ...]
    prefix_len: int
    # qubit slots the actions use that no resource clause binds
    inherited: tuple[int, ...]
    draws: bool  # some rule measures, so firing may draw outcome bits


# group states: pending | fired | cancelled | stuck
RESOLVED = ("fired", "cancelled")


def _split_point(rule: ir.Rule, discriminators: tuple[ir.CmpClause, ...]) -> int:
    """For a single-alternative group: how many action clauses must run
    before its comparison clauses can be evaluated, up to the last that
    writes a register one of them reads.  Registers are numbered as
    `_Firing` writes them: a fused measurement writes one."""
    clauses = rule.action.clauses
    if not discriminators:
        return len(clauses)
    needed = {c.cmp_val for c in discriminators}
    needed.update(c.target_val.value for c in discriminators if c.target_val.kind == "Variable")
    end = written = i = 0
    while i < len(clauses):
        width = 3 if _is_composite(clauses, i) else 1
        if width == 3 or isinstance(clauses[i], ir.MeasureClause):
            if ir.register(written) in needed:
                end = i + width
            written += 1
        i += width
    return end


def _build_group(rules: list[ir.Rule], gid: int) -> Group:
    head = rules[0]
    res = tuple(c for c in head.condition.clauses if isinstance(c, ir.ResClause))
    recvs = [c for c in head.condition.clauses if isinstance(c, ir.RecvClause)]
    timers = tuple(c for c in head.condition.clauses if isinstance(c, ir.TimerClause))
    kind_gate = None
    discriminators = []
    for rule in rules:
        discs = []
        for c in rule.condition.clauses:
            if isinstance(c, ir.CmpClause):
                if c.cmp_val == "MessageKind":
                    kind_gate = c.target_val.value
                else:
                    discs.append(c)
        discriminators.append(tuple(discs))

    if len(rules) == 1:
        prefix_len = _split_point(head, discriminators[0])
    else:
        actions = [r.action.clauses for r in rules]
        prefix_len = 0
        shortest = min(len(a) for a in actions)
        while prefix_len < shortest and all(
            a[prefix_len] == actions[0][prefix_len] for a in actions
        ):
            prefix_len += 1
    referenced: set[int] = set()
    draws = False
    for rule in rules:
        for clause in rule.action.clauses:
            if isinstance(clause, (ir.PromoteClause, ir.FreeClause, ir.MeasureClause)):
                referenced.add(clause.qubit.qubit_index)
                if isinstance(clause, ir.MeasureClause):
                    draws = True
            elif isinstance(clause, ir.QCircClause):
                for gate in clause.qgates:
                    referenced.add(gate.qubit.qubit_index)
    for clause in res:
        if clause.count > 0:  # a slot bound by a resource clause
            referenced.discard(clause.qubit_index)
    return Group(
        gid=gid,
        rules=rules,
        res=res,
        recv=recvs[0] if recvs else None,
        kind_gate=kind_gate,
        timers=timers,
        discriminators=tuple(discriminators),
        prefix_len=prefix_len,
        inherited=tuple(sorted(referenced)),
        draws=draws,
    )


@dataclass
class Node:
    address: int
    stages: list[list[Group]]
    stage_idx: int = 0
    store: dict[str, str] = field(default_factory=dict)
    inboxes: dict[int, list[Message]] = field(default_factory=dict)
    timers: dict[str, int] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.stage_idx >= len(self.stages)

    def current(self) -> list[Group]:
        return self.stages[self.stage_idx]

    def fork(self) -> "Node":
        return Node(
            self.address,
            self.stages,
            self.stage_idx,
            dict(self.store),
            {src: list(queue) for src, queue in self.inboxes.items()},
            dict(self.timers),
        )


# --- the network -------------------------------------------------------------


def _provision(stages: dict[int, list[list[Group]]]) -> dict[tuple[int, int], int]:
    """Pairs to create per link: each node needs, toward each neighbour, one
    fresh pair for every resource clause of every rule group."""
    demand: dict[tuple[int, int], int] = {}
    for addr, node_stages in stages.items():
        for stage in node_stages:
            for group in stage:
                for clause in group.res:
                    key = (addr, clause.partner_addr)
                    demand[key] = demand.get(key, 0) + clause.count
    links: dict[tuple[int, int], int] = {}
    for (a, b), n in demand.items():
        key = (min(a, b), max(a, b))
        links[key] = max(links.get(key, 0), n)
    return links


def _group_rules(stage: ir.Stage) -> list[list[ir.Rule]]:
    groups: list[list[ir.Rule]] = []
    for rule in stage.rules:
        if groups and groups[-1][0].shared_tag == rule.shared_tag:
            groups[-1].append(rule)
        else:
            groups.append([rule])
    return groups


_Carriers = tuple[tuple[Group, ir.Rule], ...]


class Blueprint:
    """What every run over one set of rulesets shares and never changes:
    the rule groups of each node, the pairs provisioned per link, the
    rules carrying a send to a node (`carriers`), and each distinct report
    record made so far (`records`)."""

    def __init__(self, rulesets: dict[int, ir.RuleSet], topology: Topology):
        self.stages: dict[int, list[list[Group]]] = {}
        self.group_count = 0
        for rep in topology.repeaters:
            ruleset = rulesets.get(rep.address)
            stages = []
            for stage in ruleset.stages if ruleset is not None else ():
                stages.append([])
                for rules in _group_rules(stage):
                    stages[-1].append(_build_group(rules, self.group_count))
                    self.group_count += 1
            self.stages[rep.address] = stages
        self.addresses = sorted(self.stages)
        self.links = _provision(self.stages)
        self._carriers: dict[tuple[int, int, str | None], _Carriers] = {}
        # fired records by (round, address, rule identity), pair records by
        # the 7 values they write, the fidelity by its repr: 0.0 and -0.0
        # (or 1 and 1.0) are equal but write differently
        self.records: dict[tuple, dict] = {}

    def carriers(self, sender: int, dst: int, kind: str | None) -> _Carriers:
        """Every (group, rule) at `sender` whose rule sends `kind` to `dst`
        (any kind for None).  Built on first use: a sampled run asks for a
        fraction of them, and each one kept is more for the collector to
        scan."""
        key = (sender, dst, kind)
        found = self._carriers.get(key)
        if found is None:
            found = self._carriers[key] = tuple(self._matching_sends(sender, dst, kind))
        return found

    def _matching_sends(self, sender: int, dst: int, kind: str | None):
        for stage in self.stages.get(sender, ()):
            for group in stage:
                for rule in group.rules:
                    for clause in rule.action.clauses:
                        if not isinstance(clause, ir.SendClause):
                            continue
                        if clause.partner_addr != dst:
                            continue
                        if kind is not None and clause.message != kind:
                            continue
                        yield group, rule
                        break


class Network:
    """The state one run changes: pairs and their ends, group states, node
    progress, messages in flight, sampled references and the outcome trace."""

    def __init__(self, blueprint: Blueprint, outcomes, initial_fidelity: float):
        self.blueprint = blueprint
        self.outcomes = outcomes
        self.round = 0
        self.fired: list[dict] = []
        self.delivered = 0
        self.trace: list[int] = []
        self.pairs: list[Pair] = []
        self.outbox: list[Message] = []
        # one sampled reference bit per measured observable, keyed by the
        # set of (pair, basis) correlations the observable spans
        self.pending: dict[frozenset, int] = {}
        self.state = ["pending"] * blueprint.group_count
        self.fired_rule: list[ir.Rule | None] = [None] * blueprint.group_count
        self.faults: dict[int, str] = {}  # gid -> why its firing got stuck
        self.nodes = {addr: Node(addr, stages) for addr, stages in blueprint.stages.items()}

        self.ends: dict[int, list[End]] = {addr: [] for addr in self.nodes}
        addresses = blueprint.addresses
        for a, b in zip(addresses, addresses[1:]):
            for _ in range(blueprint.links.get((a, b), 0)):
                pair = Pair(id=len(self.pairs), fidelity=initial_fidelity)
                self.pairs.append(pair)
                for holder, partner in ((a, b), (b, a)):
                    end = End(pair=pair, node=holder, viewed_partner=partner)
                    pair.ends.append(end)
                    self.ends[holder].append(end)
        for node in self.nodes.values():
            self._advance(node)

    def fork(self, outcomes) -> "Network":
        """An independent copy that draws from `outcomes`.  Messages, fired
        records and the blueprint never change once made, so they are shared."""
        net = object.__new__(Network)
        net.blueprint = self.blueprint
        net.outcomes = outcomes
        net.round = self.round
        net.fired = list(self.fired)
        net.delivered = self.delivered
        net.trace = list(self.trace)
        net.outbox = list(self.outbox)
        net.pending = dict(self.pending)
        net.state = list(self.state)
        net.fired_rule = list(self.fired_rule)
        net.faults = dict(self.faults)
        net.nodes = {addr: node.fork() for addr, node in self.nodes.items()}
        net.pairs = [
            Pair(p.id, p.fidelity, p.phase_bit, p.parity_bit, p.purify_state)
            for p in self.pairs
        ]
        # a spliced far end stays listed in its old pair too: map by identity
        copies: dict[int, End] = {}
        net.ends = {}
        for addr, ends in self.ends.items():
            net.ends[addr] = []
            for e in ends:
                copy = End(net.pairs[e.pair.id], e.node, e.viewed_partner, e.state)
                copies[id(e)] = copy
                net.ends[addr].append(copy)
        for old, new in zip(self.pairs, net.pairs):
            new.ends = [copies[id(e)] for e in old.ends]
        return net

    def _resolved(self, group: Group) -> bool:
        return self.state[group.gid] in RESOLVED

    def _advance(self, node: Node) -> None:
        while not node.complete and all(self._resolved(g) for g in node.current()):
            node.stage_idx += 1

    # --- resource selection --------------------------------------------------

    def _match_res(self, node: Node, group: Group) -> list[tuple[int, End]] | None:
        chosen: list[tuple[int, End]] = []
        taken: set[int] = set()
        for clause in group.res:
            for _ in range(clause.count):
                end = self._find_end(
                    node.address,
                    clause.partner_addr,
                    taken,
                    min_fidelity=clause.fidelity,
                )
                if end is None:
                    return None
                taken.add(id(end))
                chosen.append((clause.qubit_index, end))
        return chosen

    def _find_end(
        self,
        address: int,
        partner: int,
        taken: set[int],
        min_fidelity: float = 0.0,
    ) -> End | None:
        for end in self.ends[address]:
            if id(end) in taken or end.state == "gone":
                continue
            if end.viewed_partner != partner:
                continue
            if end.pair.fidelity + 1e-12 < min_fidelity:
                continue
            return end
        return None

    # --- satisfiability ------------------------------------------------------

    def _condition_holds(
        self, node: Node, group: Group
    ) -> tuple[dict[int, End], Message | None] | None:
        """If the group's condition holds now: the ends its resource clauses
        bind and the message it would take.  Else None."""
        head = None
        if group.recv is not None:
            queue = node.inboxes.get(group.recv.partner_addr)
            if not queue:
                return None
            head = queue[0]
            if group.kind_gate is not None and head.kind != group.kind_gate:
                return None
        for timer in group.timers:
            expiry = node.timers.get(timer.timer_id)
            if expiry is None or self.round < expiry:
                return None
        chosen = self._match_res(node, group)
        if chosen is None:
            return None
        bindings: dict[int, End] = {}
        for index, end in chosen:
            bindings.setdefault(index, end)
        return bindings, head

    # --- firing --------------------------------------------------------------

    def _fire(self, node: Node, group: Group, bindings: dict[int, End]) -> None:
        message = None
        if group.recv is not None:
            message = node.inboxes[group.recv.partner_addr].pop(0)
        if message is not None and message.kind == "Transfer":
            self._repoint(bindings)

        ctx = _Firing(self, node, bindings, message)
        head = group.rules[0]
        try:
            ctx.execute(head.action.clauses[: group.prefix_len])
            winner = None
            for rule, discs in zip(group.rules, group.discriminators):
                if all(ctx.compare(c) for c in discs):
                    winner = rule
                    break
            if winner is not None:
                ctx.execute(winner.action.clauses[group.prefix_len :])
        except _Stuck as exc:
            self.state[group.gid] = "stuck"
            self.faults[group.gid] = str(exc)
            return
        if winner is not None:
            self.state[group.gid] = "fired"
            self.fired_rule[group.gid] = winner
            records = self.blueprint.records
            key = (self.round, node.address, id(winner))  # the blueprint keeps winner
            record = records.get(key)
            if record is None:
                record = records[key] = {
                    "round": self.round,
                    "address": node.address,
                    "rule": winner.name,
                    "id": winner.id,
                }
            self.fired.append(record)
        else:
            self.state[group.gid] = "cancelled"
        self._advance(node)

    def _bind_inherited(
        self,
        node: Node,
        group: Group,
        bindings: dict[int, End],
        message: Message | None,
    ) -> int | None:
        """Action clauses may reference qubit slots with no matching resource
        clause: those bind earlier promoted (or still waiting) ends.  Returns
        the first slot that finds none, else None."""
        if not group.inherited:
            return None
        taken = {id(end) for end in bindings.values()}
        for index in group.inherited:
            end = None
            if message is not None:
                end = self._find_end(node.address, message.src, taken)
            if end is None:
                for candidate in self.ends[node.address]:
                    if candidate.state == "promoted" and id(candidate) not in taken:
                        end = candidate
                        break
            if end is None:
                return index
            taken.add(id(end))
            bindings[index] = end
        return None

    def _repoint(self, bindings: dict[int, End]) -> None:
        """A Transfer message hands over a (possibly spliced) pair: the
        receiver learns who holds the far end now."""
        for end in bindings.values():
            other = end.pair.other_end(end)
            end.viewed_partner = other.node

    # --- main loop -----------------------------------------------------------

    def deliver(self) -> bool:
        any_sent = bool(self.outbox)
        for msg in self.outbox:
            inbox = self.nodes[msg.dst].inboxes.setdefault(msg.src, [])
            inbox.append(msg)
            self.delivered += 1
        self.outbox.clear()
        return any_sent

    def step(self, start: int = 0) -> bool:
        """One round, from node `start` of the address order on.  A round
        resumed from a snapshot fires at `start` first, so the progress of
        the nodes before it need not be known."""
        progress = False
        addresses = self.blueprint.addresses
        for index in range(start, len(addresses)):
            node = self.nodes[addresses[index]]
            if node.complete:
                continue
            for group in node.current():
                if self.state[group.gid] != "pending":
                    continue
                held = self._condition_holds(node, group)
                if held is None or self._bind_inherited(node, group, *held) is not None:
                    continue  # not ready: its condition fails or a qubit slot finds no end
                if group.draws:
                    self.outcomes.checkpoint(self, index)
                self._fire(node, group, held[0])
                progress = True
                break
        if self.deliver():
            progress = True
        self.round += 1
        return progress

    # --- starvation analysis -------------------------------------------------

    def cancel_starved(self) -> bool:
        """At a no-progress point, resolve recv-gated groups whose message
        can provably never arrive: benign when the sender had matching send
        clauses but every rule carrying one is already resolved without
        sending, stuck when the sender has none at all."""
        changed = False
        progressed = True
        while progressed:
            progressed = False
            for address in self.blueprint.addresses:
                node = self.nodes[address]
                if node.complete:
                    continue
                for group in node.current():
                    if group.recv is None or self.state[group.gid] != "pending":
                        continue
                    src, kind = group.recv.partner_addr, group.kind_gate
                    if any(kind is None or m.kind == kind for m in node.inboxes.get(src, ())):
                        continue
                    carriers = self.blueprint.carriers(src, address, kind)
                    if not carriers:
                        # terminal: the sender's ruleset can never produce it
                        self.state[group.gid] = "stuck"
                    elif all(self._resolved(g) for g, _r in carriers) and not any(
                        self.fired_rule[g.gid] is r for g, r in carriers
                    ):
                        self.state[group.gid] = "cancelled"
                        progressed = changed = True
                self._advance(node)
        return changed

    def timers_armed(self) -> bool:
        """A pending group is waiting on a timer that is still counting."""
        for node in self.nodes.values():
            if node.complete:
                continue
            for group in node.current():
                if self._resolved(group):
                    continue
                for timer in group.timers:
                    expiry = node.timers.get(timer.timer_id)
                    if expiry is not None and self.round <= expiry:
                        return True
        return False

    def stuck_reports(self) -> list[str]:
        reports = []
        for address in self.blueprint.addresses:
            node = self.nodes[address]
            if node.complete:
                continue
            for group in node.current():
                if self._resolved(group):
                    continue
                rule = group.rules[0]
                held = self._condition_holds(node, group)
                slot = None if held is None else self._bind_inherited(node, group, *held)
                if group.gid in self.faults:
                    reports.append(
                        f"address {address}: rule '{rule.name}' (id {rule.id}) "
                        f"{self.faults[group.gid]}"
                    )
                elif slot is not None:
                    reports.append(
                        f"address {address}: rule '{rule.name}' (id {rule.id}) "
                        f"has no pair or promoted qubit to bind to slot {slot}"
                    )
                elif group.recv is not None:
                    kind = f" for {group.kind_gate} messages" if group.kind_gate else ""
                    reports.append(
                        f"address {address}: rule '{rule.name}' (id {rule.id}) "
                        f"waits on Recv from address {group.recv.partner_addr}{kind}, "
                        "which never sends it"
                    )
                else:
                    wants = ", ".join(
                        f"{c.count} pair(s) with address {c.partner_addr} "
                        f"at fidelity >= {c.fidelity}"
                        for c in group.res
                    )
                    reports.append(
                        f"address {address}: rule '{rule.name}' (id {rule.id}) "
                        f"waits on resources: {wants}"
                    )
        return reports


# --- clause execution --------------------------------------------------------


class _Firing:
    def __init__(self, net: Network, node: Node, bindings: dict[int, End], message):
        self.net = net
        self.node = node
        self.bindings = bindings
        self.message = message
        self.registers: dict[str, str] = {}  # the nth measurement writes ir.register(n)
        # per slot, the (pair, basis) correlations a Z and an X measurement
        # span: its own pair's, spread by the two-qubit gates run so far
        self.zdeps = {q: frozenset({(end.pair.id, "Z")}) for q, end in bindings.items()}
        self.xdeps = {q: frozenset({(end.pair.id, "X")}) for q, end in bindings.items()}

    def execute(self, clauses: tuple[ir.ActionClause, ...]) -> None:
        i = 0
        while i < len(clauses):
            if _is_composite(clauses, i):
                self._splice(clauses[i], clauses[i + 1], clauses[i + 2])
                i += 3
                continue
            clause = clauses[i]
            if isinstance(clause, ir.QCircClause):
                self._qcirc(clause)
            elif isinstance(clause, ir.MeasureClause):
                self._measure_single(clause)
            elif isinstance(clause, ir.SendClause):
                self._send(clause)
            elif isinstance(clause, ir.SetClause):
                self._set(clause)
            elif isinstance(clause, ir.PromoteClause):
                self._promote(clause)
            elif isinstance(clause, ir.FreeClause):
                end = self.bindings[clause.qubit.qubit_index]
                end.state = "gone"
                if end.pair.purify_state == "pending":
                    end.pair.purify_state = "idle"
            elif isinstance(clause, ir.SetTimerClause):
                self.node.timers[clause.timer_id] = self.net.round + clause.duration
            else:
                raise SimulationError(f"unsupported action clause: {clause!r}")
            i += 1

    # --- gates ---------------------------------------------------------------

    def _qcirc(self, clause: ir.QCircClause) -> None:
        gates = clause.qgates
        zdeps, xdeps = self.zdeps, self.xdeps
        i = 0
        while i < len(gates):
            gate = gates[i]
            q = gate.qubit.qubit_index
            i += 1
            if gate.kind in ("CxControl", "CzControl"):  # pairs with the gate after it
                if i == len(gates):
                    raise SimulationError(f"unpaired {gate.kind} gate")
                tq = gates[i].qubit.qubit_index
                i += 1
                if gate.kind == "CxControl":
                    zdeps[tq] = zdeps[tq] ^ zdeps[q]
                    xdeps[q] = xdeps[q] ^ xdeps[tq]
                else:
                    xdeps[q] = xdeps[q] ^ zdeps[tq]
                    xdeps[tq] = xdeps[tq] ^ zdeps[q]
                continue
            pair = self.bindings[q].pair
            if gate.kind == "X":
                pair.parity_bit ^= 1
            elif gate.kind == "Z":
                pair.phase_bit ^= 1
            elif gate.kind == "Y":
                pair.parity_bit ^= 1
                pair.phase_bit ^= 1
            else:
                raise SimulationError(
                    f"gate {gate.kind} on an entangled qubit is outside the "
                    "tracked state space"
                )

    # --- measurements --------------------------------------------------------

    def _outcome(self, signature: frozenset) -> int:
        net = self.net
        if signature in net.pending:
            corr = 0
            for pair_id, basis in signature:
                pair = net.pairs[pair_id]
                corr ^= pair.parity_bit if basis == "Z" else pair.phase_bit
            return net.pending[signature] ^ corr
        bit = net.outcomes.draw(len(net.trace))
        net.trace.append(bit)
        net.pending[signature] = bit
        return bit

    def _measure_single(self, clause: ir.MeasureClause) -> None:
        q = clause.qubit.qubit_index
        end = self.bindings[q]
        if clause.basis == "Z":
            signature = self.zdeps[q]
        elif clause.basis == "X":
            signature = self.xdeps[q]
        else:
            raise SimulationError(f"unsupported measurement basis {clause.basis!r}")
        # a parity probe spanning a second pair marks that pair as the kept
        # half of a purification round
        for pair_id, _basis in signature:
            if pair_id != end.pair.id:
                self.net.pairs[pair_id].purify_state = "pending"
        bit = self._outcome(signature)
        self.registers[ir.register(len(self.registers))] = str(bit)
        end.state = "gone"

    def _splice(self, qc: ir.QCircClause, mx: ir.MeasureClause, mz: ir.MeasureClause):
        """Joint measurement of two local halves: consumes both pairs and
        entangles the two remote halves, folding the outcome bits into the
        new pair's frame."""
        cq = qc.qgates[0].qubit.qubit_index
        tq = qc.qgates[1].qubit.qubit_index
        left = self.bindings[cq]
        right = self.bindings[tq]
        far = (left.pair.other_end(left), right.pair.other_end(right))
        if far[0].node == far[1].node:
            raise _Stuck(f"splices two pairs whose far ends both sit on address {far[0].node}")
        self._qcirc(qc)
        m_phase = self._outcome(self.xdeps[cq])
        m_parity = self._outcome(self.zdeps[tq])
        left.state = "gone"
        right.state = "gone"

        lp, rp = left.pair, right.pair
        spliced = Pair(
            id=len(self.net.pairs),
            fidelity=lp.fidelity * rp.fidelity,
            phase_bit=lp.phase_bit ^ rp.phase_bit ^ m_phase,
            parity_bit=lp.parity_bit ^ rp.parity_bit ^ m_parity,
        )
        self.net.pairs.append(spliced)
        for end in far:
            end.pair = spliced
            spliced.ends.append(end)
        self.registers[ir.register(len(self.registers))] = f"{m_parity}{m_phase}"

    # --- classical effects ---------------------------------------------------

    def _send(self, clause: ir.SendClause) -> None:
        if clause.partner_addr not in self.net.nodes:
            raise SimulationError(
                f"address {self.node.address}: send to address {clause.partner_addr}, "
                "which is not in the config"
            )
        payload = {}
        for key, value in clause.payload:
            if key != "result":
                payload[key] = value
            elif value in self.registers:
                payload[key] = self.registers[value]
            else:
                raise SimulationError(
                    f"address {self.node.address}: send payload result names register "
                    f"{value!r}, which the rule never wrote"
                )
        self.net.outbox.append(
            Message(clause.message, self.node.address, clause.partner_addr, payload)
        )

    def _set(self, clause: ir.SetClause) -> None:
        name = clause.variable
        if self.message is None and name.startswith("message."):
            raise SimulationError(f"no message bound for {name}")
        self.node.store[clause.alias or name] = self._value(name)

    def _promote(self, clause: ir.PromoteClause) -> None:
        end = self.bindings[clause.qubit.qubit_index]
        if end.state == "gone":
            raise SimulationError(
                f"address {self.node.address}: promote of a consumed qubit"
            )
        end.state = "promoted"
        pair = end.pair
        if pair.purify_state == "pending" and self.message is not None:
            # the parity-check shape: a message comparison guarding the keep
            pair.fidelity = purify_update(pair.fidelity)
            pair.purify_state = "done"

    # --- comparisons ---------------------------------------------------------

    def _value(self, name: str) -> str:
        if name in self.registers:
            return self.registers[name]
        if name.startswith("message."):
            if self.message is None:
                return ""
            return self.message.payload.get(name.split(".", 1)[1], "")
        return self.node.store.get(name, "")

    def compare(self, clause: ir.CmpClause) -> bool:
        left = self._value(clause.cmp_val)
        target = clause.target_val
        if target.kind == "Variable":
            right = self._value(target.value)
        else:
            right = target.value
        op = clause.operator
        if op == "Eq":
            return left == right
        if op == "Neq":
            return left != right
        try:
            lv: object = int(left)
            rv: object = int(right)
        except ValueError:
            lv, rv = left, right
        if op == "Lt":
            return lv < rv
        if op == "Leq":
            return lv <= rv
        if op == "Gt":
            return lv > rv
        if op == "Geq":
            return lv >= rv
        raise SimulationError(f"unsupported comparison operator {op}")


# --- reports -----------------------------------------------------------------


@dataclass
class RunReport:
    """The end of one run.  Its `fired` and `pairs` records are shared with
    the other reports of the same call and are read-only."""

    status: str
    rounds: int
    fired: list[dict]
    pairs: list[dict]
    stuck: list[str]
    messages_delivered: int
    outcome_path: tuple[int, ...] = ()

    @property
    def quiescent(self) -> bool:
        return self.status == "quiescent"

    def promoted_pairs(self) -> list[dict]:
        return [p for p in self.pairs if p["states"] == ["promoted", "promoted"]]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "rounds": self.rounds,
            "outcome_path": list(self.outcome_path),
            "messages_delivered": self.messages_delivered,
            "fired": self.fired,
            "pairs": self.pairs,
            "stuck": self.stuck,
        }


def _report(net: Network) -> RunReport:
    complete = all(node.complete for node in net.nodes.values())
    stuck = [] if complete else net.stuck_reports()
    records = net.blueprint.records
    pairs = []
    for pair in net.pairs:
        live = [e for e in pair.ends if e.state != "gone"]
        if len(live) != 2:
            continue
        a, b = sorted(live, key=lambda e: e.node)
        fidelity = round(pair.fidelity, 12)
        key = (a.node, b.node, a.state, b.state, pair.phase_bit, pair.parity_bit, repr(fidelity))
        record = records.get(key)
        if record is None:
            record = records[key] = {
                "nodes": [a.node, b.node],
                "states": [a.state, b.state],
                "bell_index": [pair.phase_bit, pair.parity_bit],
                "fidelity": fidelity,
            }
        pairs.append(record)
    return RunReport(
        status="quiescent" if complete else "stuck",
        rounds=net.round,
        fired=net.fired,
        pairs=pairs,
        stuck=stuck,
        messages_delivered=net.delivered,
        outcome_path=tuple(net.trace),
    )


def _drive(net: Network, max_rounds: int, start: int = 0) -> RunReport:
    """Run rounds until every node is complete, nothing can progress, or
    the round budget is spent; the first round resumes at node `start`."""
    while net.round < max_rounds:
        if all(node.complete for node in net.nodes.values()):
            break
        if not net.step(start):
            if not net.cancel_starved() and not net.timers_armed():
                break
        start = 0
    return _report(net)


def run(
    rulesets: dict[int, ir.RuleSet],
    topology: Topology,
    *,
    seed: int = 0,
    initial_fidelity: float = 1.0,
    max_rounds: int = 10_000,
) -> RunReport:
    """Execute the per-node rulesets to quiescence with sampled outcomes."""
    net = Network(Blueprint(rulesets, topology), RandomOutcomes(seed), initial_fidelity)
    return _drive(net, max_rounds)


def enumerate_outcomes(
    rulesets: dict[int, ir.RuleSet],
    topology: Topology,
    *,
    initial_fidelity: float = 1.0,
    max_rounds: int = 10_000,
) -> list[RunReport]:
    """Run every branch of the measurement outcome tree exactly once.

    Depth first: each branch runs with zeros past its plan, and every zero
    it drew is flipped in a new branch, deepest first.  That branch forks
    the snapshot taken before the firing that drew the bit and replays the
    plan from there.  A snapshot is freed with the last branch that forks
    it, so the live ones lie on the path being walked.
    """
    blueprint = Blueprint(rulesets, topology)
    reports: list[RunReport] = []
    todo: list[tuple[_Snapshot | None, tuple[int, ...]]] = [(None, ())]
    while todo:
        origin, plan = todo.pop()
        branch = _Branch(plan, origin)
        if origin is None:
            net = Network(blueprint, branch, initial_fidelity)
        else:
            net = origin.net.fork(branch)
        report = _drive(net, max_rounds, origin.index if origin else 0)
        reports.append(report)
        path = report.outcome_path
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
    reports.sort(key=lambda r: r.outcome_path)
    return reports
