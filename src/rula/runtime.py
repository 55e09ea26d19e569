"""Deterministic execution of compiled rulesets over a linear repeater chain.

The simulator models each link-level Bell pair as an id with a Pauli frame
(phase bit, parity bit) and an analytic fidelity, while each node only
sees its own end of a pair, an id too.  The fields of pairs and ends are
flat lists indexed by id, and each node's progress (its stage, store,
timers and inboxes) is flat too, keyed by address (see `Network`).
Classical messages travel over per-link FIFO queues and become visible at
the next synchronous round.
Measurement outcomes are drawn from a pluggable bit source, which makes a
seeded run reproducible and lets the enumeration driver walk every branch
of the outcome tree.

The rule groups, the link provisioning, the node of each end and the
index of send clauses are built once per call (`Blueprint`); a `Network`
holds only what a run changes, so it can be forked by copying each of its
lists and dicts once, which is how `explore` runs each round of its
outcome graph from the state the round starts at.  The rules of two groups
with one tuple of template keys (`ir.keyed`) differ only in their holes, so
the parts of a group that read no hole (`_template`) are found once per
tuple, and each group adds its own resource and recv clauses, its rules
and where its alternatives part ways (`_build_group`).

One rule picks which rule of a group fires (see `Group`): a comparison is
read once the action clauses that write the registers it names have run,
and the first rule left whose comparisons are all read and hold fires.

A run builds each fired and pair record of its report as a dict with
sorted keys, as `--report-json` writes them; an enumeration shares equal
ones between its reports (see `explore.outcomes`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
    """Seeded coin flips."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def draw(self, position: int) -> int:
        return self._rng.getrandbits(1)


# --- messages ----------------------------------------------------------------


@dataclass(slots=True)
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
    most one fires.  Its state lives in the network, at index `gid`.

    One rule picks the alternative that fires.  Each comparison of an
    alternative is read once the action clauses before its readiness point
    have run: up to the writer of the last register it names, or none.  A
    firing runs the clauses every alternative left runs next (when one is
    left, up to its last readiness point), drops each alternative with a
    readable comparison that fails, and fires the first one left once all
    of its comparisons are readable; none left cancels the group.  If the
    alternatives left part ways before the first of them can be decided,
    the group is stuck, and its report names that first one."""

    gid: int
    res: tuple[ir.ResClause, ...]
    recv: ir.RecvClause | None
    kind_gate: str | None
    timers: tuple[ir.TimerClause, ...]
    # per rule in stage order: the rule, each of its comparisons but the kind
    # gate with its readiness point, and its last readiness point
    alternatives: tuple[tuple[ir.Rule, tuple[tuple[ir.CmpClause, int], ...], int], ...]
    first_stop: int  # the action clauses run before the first comparison
    # qubit slots the actions use that no resource clause binds
    inherited: tuple[int, ...]


# group states: pending | fired | cancelled | stuck
RESOLVED = ("fired", "cancelled")


def _writes(clauses: tuple[ir.ActionClause, ...]):
    """Each register `clauses` write, numbered as `_Firing` writes them, with
    the index just past its writer: a fused measurement writes one, at its
    Z measurement, and none at its X measurement."""
    written = 0
    for i, clause in enumerate(clauses):
        if isinstance(clause, ir.MeasureClause) and not (i and _is_composite(clauses, i - 1)):
            yield ir.register(written), i + 1
            written += 1


def _reads(clause: ir.CmpClause) -> set[str]:
    target = clause.target_val
    return {clause.cmp_val, target.value} if target.kind == "Variable" else {clause.cmp_val}


def _next_stop(left, done: int) -> int:
    """How many action clauses a firing that has run `done` of them runs
    before it compares again, with the alternatives `left`: one runs up to
    its last readiness point, several run the clauses they all run next."""
    if len(left) == 1:
        return left[0][2]
    actions = [alt[0].action.clauses for alt in left]
    stop, shortest = done, min(map(len, actions))
    while stop < shortest and all(a[stop] == actions[0][stop] for a in actions):
        stop += 1
    return stop


def _template(rules: list[ir.Rule]) -> tuple:
    """The parts of the group of `rules` that read no hole, which the groups
    of rules with the same template keys (`ir.keyed`) share: its kind gate,
    its timers, per rule each comparison but the kind gate with its
    readiness point and the last readiness point, and its inherited slots."""
    clauses = rules[0].condition.clauses
    timers = tuple(c for c in clauses if isinstance(c, ir.TimerClause))
    kind_gate = None
    checks = []
    referenced: set[int] = set()
    for rule in rules:
        compared = []
        for c in rule.condition.clauses:
            if isinstance(c, ir.CmpClause):
                if c.cmp_val == "MessageKind":
                    kind_gate = c.target_val.value
                else:
                    compared.append(c)
        if not compared:  # most rules: no walk of the actions, one shared empty tuple
            checks.append(((), 0))
        else:
            ends = dict(_writes(rule.action.clauses))  # register -> the end of its writer
            paired = tuple([(c, max([ends.get(n, 0) for n in _reads(c)])) for c in compared])
            checks.append((paired, max([at for _c, at in paired])))
        for clause in rule.action.clauses:
            if isinstance(clause, (ir.PromoteClause, ir.FreeClause, ir.MeasureClause)):
                referenced.add(clause.qubit.qubit_index)
            elif isinstance(clause, ir.QCircClause):
                for gate in clause.qgates:
                    referenced.add(gate.qubit.qubit_index)
    for clause in clauses:
        if isinstance(clause, ir.ResClause) and clause.count > 0:  # a slot it binds
            referenced.discard(clause.qubit_index)
    return kind_gate, timers, tuple(checks), tuple(sorted(referenced))


def _build_group(rules: list[ir.Rule], gid: int, template: tuple) -> Group:
    """The group of `rules`, with the parts `_template(rules)` gives."""
    kind_gate, timers, checks, inherited = template
    clauses = rules[0].condition.clauses
    res = tuple([c for c in clauses if isinstance(c, ir.ResClause)])
    recvs = [c for c in clauses if isinstance(c, ir.RecvClause)]
    recv = recvs[0] if recvs else None
    alternatives = tuple([(rule, paired, last) for rule, (paired, last) in zip(rules, checks)])
    # where several part ways depends on their Send partners, which are holes
    first_stop = _next_stop(alternatives, 0)
    return Group(gid, res, recv, kind_gate, timers, alternatives, first_stop, inherited)


# --- the network -------------------------------------------------------------


def _demand(stages: dict[int, list[list[Group]]]) -> dict[tuple[int, int], int]:
    """The pairs each node needs toward each partner, by (node, partner):
    one fresh pair for every resource clause of every rule group."""
    demand: dict[tuple[int, int], int] = {}
    for addr, node_stages in stages.items():
        for stage in node_stages:
            for group in stage:
                for clause in group.res:
                    key = (addr, clause.partner_addr)
                    demand[key] = demand.get(key, 0) + clause.count
    return demand


def _group_rules(stage: ir.Stage) -> list[list[ir.Rule]]:
    groups: list[list[ir.Rule]] = []
    for rule in stage.rules:
        if groups and groups[-1][0].shared_tag == rule.shared_tag:
            groups[-1].append(rule)
        else:
            groups.append([rule])
    return groups


class Blueprint:
    """What every run over one set of rulesets shares and never changes:
    the rule groups of each node, the pairs provisioned per link between
    neighbours on the path, and every Send clause as (kind, group, rule) by
    (sender, destination) (`sends`).  The groups of rules with one tuple of
    template keys share one template (see `_template`).

    An end is an int.  Ends 2p and 2p + 1 are the two ends of provisioned
    pair p, at the lower and the higher address of its link; `end_node` is
    the node of each end and `ends` the ends of each address, in that
    order.  A run moves ends between pairs but adds none."""

    def __init__(self, rulesets: dict[int, ir.RuleSet], topology: Topology):
        self.stages: dict[int, list[list[Group]]] = {}
        self.sends: dict[tuple[int, int], list[tuple[str, Group, ir.Rule]]] = {}
        self.group_count = 0
        # the template of each tuple of template keys, by their identities (a
        # loaded Rule key hashes by value, deeply); a rule with no key is its
        # own, so a load's first document of a shape keys its refills
        templates: dict[tuple[int, ...], tuple] = {}
        for rep in topology.repeaters:
            ruleset = rulesets.get(rep.address)
            stages = []
            for stage in ruleset.stages if ruleset is not None else ():
                stages.append([])
                for rules in _group_rules(stage):
                    key = tuple([id(getattr(rule, "_template", rule)) for rule in rules])
                    template = templates.get(key)
                    if template is None:
                        template = templates[key] = _template(rules)
                    group = _build_group(rules, self.group_count, template)
                    for rule in rules:
                        for clause in rule.action.clauses:
                            if isinstance(clause, ir.SendClause):
                                route = (rep.address, clause.partner_addr)
                                self.sends.setdefault(route, []).append((clause.message, group, rule))
                    stages[-1].append(group)
                    self.group_count += 1
            self.stages[rep.address] = stages
        self.addresses = sorted(self.stages)
        demand = _demand(self.stages)
        self.end_node: list[int] = []
        self.ends: dict[int, list[int]] = {addr: [] for addr in self.addresses}
        # per link between neighbours on the path, lower address first, in
        # address order: as many pairs as either end needs toward the other
        path = [rep.address for rep in topology.repeaters]
        for a, b in sorted({(min(link), max(link)) for link in zip(path, path[1:])}):
            for _ in range(max(demand.get((a, b), 0), demand.get((b, a), 0))):
                for holder in (a, b):
                    self.ends[holder].append(len(self.end_node))
                    self.end_node.append(holder)


class Network:
    """The state one run changes: pairs and ends, group states, node
    progress with the addresses of the nodes not yet complete (`live`, in
    address order), messages in flight, sampled references and the outcome
    trace.

    Pairs and ends are ints, and their fields are flat lists indexed by
    them.  Per pair: `fidelity`, the Pauli frame (`phase` and `parity`
    bits), `purify` ("idle" until a sacrificial parity measurement marks it
    the kept half of a purification round, "pending" then, "done" once the
    boost is applied) and `pair_ends`, its two ends.  Per end: `end_pair`,
    the viewed `partner` and `end_state` (free | promoted | gone).  A
    spliced far end stays listed under its old pair too.

    Node progress is flat as well: `stage_idx`, the current stage of each
    address; `store` and `timers` (the round a timer expires), keyed by
    (address, name); and `inboxes`, keyed by (destination, sender), each
    queue a tuple with no empty ones kept.  Nothing a list or dict holds is
    changed in place, so a fork copies each one once, whatever the number
    of nodes."""

    def __init__(self, blueprint: Blueprint, outcomes, initial_fidelity: float):
        self.blueprint = blueprint
        self.outcomes = outcomes
        self.round = 0
        self.fired: list[dict] = []
        self.delivered = 0
        self.trace: list[int] = []
        end_node = blueprint.end_node
        count = len(end_node) // 2  # the pairs provisioned
        self.fidelity = [initial_fidelity] * count
        self.phase = [0] * count
        self.parity = [0] * count
        self.purify = ["idle"] * count
        self.pair_ends = [(2 * p, 2 * p + 1) for p in range(count)]
        self.end_pair = [e >> 1 for e in range(len(end_node))]
        self.partner = [end_node[e ^ 1] for e in range(len(end_node))]
        self.end_state = ["free"] * len(end_node)
        self.outbox: list[Message] = []
        # one sampled reference bit per measured observable, keyed by the
        # set of (pair, basis) correlations the observable spans
        self.pending: dict[frozenset, int] = {}
        self.state = ["pending"] * blueprint.group_count
        self.fired_rule: list[ir.Rule | None] = [None] * blueprint.group_count
        # gid -> the rule its firing got stuck on, and why
        self.faults: dict[int, tuple[ir.Rule, str]] = {}
        self.stage_idx = dict.fromkeys(blueprint.addresses, 0)
        self.store = {}
        self.timers = {}
        self.inboxes = {}
        for address in blueprint.addresses:
            self._advance(address)
        self.live = blueprint.addresses
        self._refresh()

    def fork(self, outcomes) -> "Network":
        """An independent copy that draws from `outcomes`.  Messages, inbox
        queues, fired records and the blueprint never change once made, so
        they are shared."""
        net = object.__new__(Network)
        net.blueprint = self.blueprint
        net.outcomes = outcomes
        net.round = self.round
        net.fired = self.fired.copy()
        net.delivered = self.delivered
        net.trace = self.trace.copy()
        net.fidelity = self.fidelity.copy()
        net.phase = self.phase.copy()
        net.parity = self.parity.copy()
        net.purify = self.purify.copy()
        net.pair_ends = self.pair_ends.copy()
        net.end_pair = self.end_pair.copy()
        net.partner = self.partner.copy()
        net.end_state = self.end_state.copy()
        net.outbox = self.outbox.copy()
        net.pending = self.pending.copy()
        net.state = self.state.copy()
        net.fired_rule = self.fired_rule.copy()
        net.faults = self.faults.copy()
        net.stage_idx = self.stage_idx.copy()
        net.store = self.store.copy()
        net.timers = self.timers.copy()
        net.inboxes = self.inboxes.copy()
        net.live = self.live.copy()
        return net

    def _refresh(self) -> None:
        """Drop the nodes that have become complete from `live`."""
        stages, stage_idx = self.blueprint.stages, self.stage_idx
        self.live = [address for address in self.live if stage_idx[address] < len(stages[address])]

    def other_end(self, end: int) -> int:
        a, b = self.pair_ends[self.end_pair[end]]
        return b if a == end else a

    def _resolved(self, group: Group) -> bool:
        return self.state[group.gid] in RESOLVED

    def _advance(self, address: int) -> None:
        stages, index, state = self.blueprint.stages[address], self.stage_idx[address], self.state
        while index < len(stages) and all(state[g.gid] in RESOLVED for g in stages[index]):
            index += 1
        self.stage_idx[address] = index

    # --- resource selection --------------------------------------------------

    def _match_res(self, address: int, group: Group) -> list[tuple[int, int]] | None:
        chosen: list[tuple[int, int]] = []
        taken: set[int] = set()
        for clause in group.res:
            for _ in range(clause.count):
                end = self._find_end(
                    address,
                    clause.partner_addr,
                    taken,
                    min_fidelity=clause.fidelity,
                )
                if end is None:
                    return None
                taken.add(end)
                chosen.append((clause.qubit_index, end))
        return chosen

    def _find_end(
        self,
        address: int,
        partner: int,
        taken: set[int],
        min_fidelity: float = 0.0,
    ) -> int | None:
        for end in self.blueprint.ends[address]:
            if end in taken or self.end_state[end] == "gone":
                continue
            if self.partner[end] != partner:
                continue
            if self.fidelity[self.end_pair[end]] + 1e-12 < min_fidelity:
                continue
            return end
        return None

    # --- satisfiability ------------------------------------------------------

    def _condition_holds(
        self, address: int, group: Group
    ) -> tuple[dict[int, int], Message | None] | None:
        """If the group's condition holds now: the ends its resource clauses
        bind and the message it would take.  Else None."""
        head = None
        if group.recv is not None:
            queue = self.inboxes.get((address, group.recv.partner_addr))
            if not queue:
                return None
            head = queue[0]
            if group.kind_gate is not None and head.kind != group.kind_gate:
                return None
        for timer in group.timers:
            expiry = self.timers.get((address, timer.timer_id))
            if expiry is None or self.round < expiry:
                return None
        chosen = self._match_res(address, group)
        if chosen is None:
            return None
        bindings: dict[int, int] = {}
        for index, end in chosen:
            bindings.setdefault(index, end)
        return bindings, head

    # --- firing --------------------------------------------------------------

    def _fire(self, address: int, group: Group, bindings: dict[int, int]) -> None:
        message = None
        if group.recv is not None:
            key = (address, group.recv.partner_addr)
            queue = self.inboxes.pop(key)
            message = queue[0]
            if len(queue) > 1:
                self.inboxes[key] = queue[1:]
        if message is not None and message.kind == "Transfer":
            self._repoint(bindings)

        ctx = _Firing(self, address, bindings, message)
        left, done, stop = group.alternatives, 0, group.first_stop
        try:
            while True:
                rule = left[0][0]  # the rule a fault names
                ctx.execute(rule.action.clauses[done:stop])
                done = stop
                left = [
                    alt for alt in left if all(ctx.compare(c) for c, at in alt[1] if at <= done)
                ]
                if not left:
                    break
                rule, _checks, last = left[0]
                if last <= done:
                    ctx.execute(rule.action.clauses[done:])
                    break
                stop = _next_stop(left, done)
                if stop == done:  # they part ways before the first is decided
                    writes = _writes(rule.action.clauses)
                    unread = next(name for name, end in writes if end == last)
                    raise _Stuck(f"compares {unread} before the measurement that writes it")
        except _Stuck as exc:
            self.state[group.gid] = "stuck"
            self.faults[group.gid] = (rule, str(exc))
            return
        if left:
            winner = rule
            self.state[group.gid] = "fired"
            self.fired_rule[group.gid] = winner
            self.fired.append(
                {"address": address, "id": winner.id, "round": self.round, "rule": winner.name}
            )
        else:
            self.state[group.gid] = "cancelled"
        self._advance(address)

    def _bind_inherited(
        self,
        address: int,
        group: Group,
        bindings: dict[int, int],
        message: Message | None,
    ) -> int | None:
        """Action clauses may reference qubit slots with no matching resource
        clause: those bind earlier promoted (or still waiting) ends.  Returns
        the first slot that finds none, else None."""
        if not group.inherited:
            return None
        taken = set(bindings.values())
        for index in group.inherited:
            end = None
            if message is not None:
                end = self._find_end(address, message.src, taken)
            if end is None:
                for candidate in self.blueprint.ends[address]:
                    if self.end_state[candidate] == "promoted" and candidate not in taken:
                        end = candidate
                        break
            if end is None:
                return index
            taken.add(end)
            bindings[index] = end
        return None

    def _repoint(self, bindings: dict[int, int]) -> None:
        """A Transfer message hands over a (possibly spliced) pair: the
        receiver learns who holds the far end now."""
        for end in bindings.values():
            self.partner[end] = self.blueprint.end_node[self.other_end(end)]

    # --- main loop -----------------------------------------------------------

    def deliver(self) -> bool:
        inboxes, outbox = self.inboxes, self.outbox
        for msg in outbox:
            key = (msg.dst, msg.src)
            inboxes[key] = inboxes.get(key, ()) + (msg,)
        self.delivered += len(outbox)
        self.outbox = []
        return bool(outbox)

    def step(self) -> bool:
        """One round: each node not yet complete fires at most one group, in
        address order, then every message sent in it is delivered."""
        progress = ended = False
        stages, stage_idx = self.blueprint.stages, self.stage_idx
        for address in self.live:
            for group in stages[address][stage_idx[address]]:
                if self.state[group.gid] != "pending":
                    continue
                held = self._condition_holds(address, group)
                if held is None or self._bind_inherited(address, group, *held) is not None:
                    continue  # not ready: its condition fails or a qubit slot finds no end
                self._fire(address, group, held[0])
                progress = True
                # only a node that fires can complete in a round
                ended = ended or stage_idx[address] == len(stages[address])
                break
        if self.deliver():
            progress = True
        self.round += 1
        if ended:
            self._refresh()
        return progress

    # --- starvation analysis -------------------------------------------------

    def cancel_starved(self) -> bool:
        """At a no-progress point, resolve recv-gated groups whose message
        can provably never arrive: benign when the sender had matching send
        clauses but every rule carrying one is already resolved without
        sending, stuck when the sender has none at all."""
        stages, stage_idx = self.blueprint.stages, self.stage_idx
        changed = False
        progressed = True
        while progressed:
            progressed = False
            for address in self.live:
                for group in stages[address][stage_idx[address]]:
                    if group.recv is None or self.state[group.gid] != "pending":
                        continue
                    kind = group.kind_gate
                    queue = self.inboxes.get((address, group.recv.partner_addr), ())
                    if any(kind is None or m.kind == kind for m in queue):
                        continue
                    carriers = self._carriers(address, group)
                    if not carriers:
                        # terminal: the sender's ruleset can never produce it
                        self.state[group.gid] = "stuck"
                    elif all(self._resolved(g) for g, _r in carriers) and not any(
                        self.fired_rule[g.gid] is r for g, r in carriers
                    ):
                        self.state[group.gid] = "cancelled"
                        progressed = changed = True
                self._advance(address)
            self._refresh()
        return changed

    def _carriers(self, address: int, group: Group) -> list[tuple[Group, ir.Rule]]:
        """(group, rule) for each rule of the sender of `group`'s recv with a
        Send clause to `address` of the kind `group` waits on."""
        kind = group.kind_gate
        return [
            (g, r) for k, g, r in self.blueprint.sends.get((group.recv.partner_addr, address), ())
            if kind is None or k == kind
        ]

    def _unresolved(self):
        """(address, group) for each group of a live node's stage that has
        neither fired nor been cancelled."""
        stages, stage_idx = self.blueprint.stages, self.stage_idx
        for address in self.live:
            for group in stages[address][stage_idx[address]]:
                if not self._resolved(group):
                    yield address, group

    def timers_armed(self) -> bool:
        """A pending group is waiting on a timer that is still counting."""
        return any(
            self.round <= self.timers.get((address, timer.timer_id), -1)
            for address, group in self._unresolved()
            for timer in group.timers
        )

    def stuck_reports(self) -> list[str]:
        reports = []
        for address, group in self._unresolved():
            rule = group.alternatives[0][0]
            held = self._condition_holds(address, group)
            slot = None if held is None else self._bind_inherited(address, group, *held)
            if group.gid in self.faults:
                rule, why = self.faults[group.gid]
            elif slot is not None:
                why = f"has no pair or promoted qubit to bind to slot {slot}"
            elif group.recv is not None:
                kind = f" for {group.kind_gate} messages" if group.kind_gate else ""
                why = f"waits on Recv from address {group.recv.partner_addr}{kind}, "
                # the first group there that carries it and has not resolved,
                # else the rule there that sent it
                carriers = self._carriers(address, group)
                unsent = [g.alternatives[0][0] for g, _r in carriers if not self._resolved(g)]
                sent = [r for g, r in carriers if self.fired_rule[g.gid] is r]
                if unsent:
                    why += f"which rule '{unsent[0].name}' (id {unsent[0].id}) there has not sent"
                elif sent:
                    why += f"which rule '{sent[0].name}' (id {sent[0].id}) there has sent"
                else:
                    why += "which never sends it"
            else:
                why = "waits on resources: " + ", ".join(
                    f"{c.count} pair(s) with address {c.partner_addr} "
                    f"at fidelity >= {c.fidelity}"
                    for c in group.res
                )
            reports.append(f"address {address}: rule '{rule.name}' (id {rule.id}) {why}")
        return reports


# --- clause execution --------------------------------------------------------


class _Firing:
    def __init__(self, net: Network, address: int, bindings: dict[int, int], message):
        self.net = net
        self.address = address
        self.bindings = bindings
        self.message = message
        self.registers: dict[str, str] = {}  # the nth measurement writes ir.register(n)
        # per slot, the (pair, basis) correlations a Z and an X measurement
        # span: its own pair's, spread by the two-qubit gates run so far
        pair = net.end_pair
        self.zdeps = {q: frozenset({(pair[end], "Z")}) for q, end in bindings.items()}
        self.xdeps = {q: frozenset({(pair[end], "X")}) for q, end in bindings.items()}

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
                net, end = self.net, self.bindings[clause.qubit.qubit_index]
                net.end_state[end] = "gone"
                pair = net.end_pair[end]
                if net.purify[pair] == "pending":
                    net.purify[pair] = "idle"
            elif isinstance(clause, ir.SetTimerClause):
                self.net.timers[self.address, clause.timer_id] = self.net.round + clause.duration
            else:
                raise SimulationError(f"unsupported action clause: {clause!r}")
            i += 1

    # --- gates ---------------------------------------------------------------

    def _qcirc(self, clause: ir.QCircClause) -> None:
        gates = clause.qgates
        net, zdeps, xdeps = self.net, self.zdeps, self.xdeps
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
            pair = net.end_pair[self.bindings[q]]
            if gate.kind == "X":
                net.parity[pair] ^= 1
            elif gate.kind == "Z":
                net.phase[pair] ^= 1
            elif gate.kind == "Y":
                net.parity[pair] ^= 1
                net.phase[pair] ^= 1
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
            for pair, basis in signature:
                corr ^= net.parity[pair] if basis == "Z" else net.phase[pair]
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
        net = self.net
        for pair, _basis in signature:
            if pair != net.end_pair[end]:
                net.purify[pair] = "pending"
        bit = self._outcome(signature)
        self.registers[ir.register(len(self.registers))] = str(bit)
        net.end_state[end] = "gone"

    def _splice(self, qc: ir.QCircClause, mx: ir.MeasureClause, mz: ir.MeasureClause):
        """Joint measurement of two local halves: consumes both pairs and
        entangles the two remote halves, folding the outcome bits into the
        new pair's frame."""
        cq = qc.qgates[0].qubit.qubit_index
        tq = qc.qgates[1].qubit.qubit_index
        left = self.bindings[cq]
        right = self.bindings[tq]
        net = self.net
        far = (net.other_end(left), net.other_end(right))
        node = net.blueprint.end_node
        if node[far[0]] == node[far[1]]:
            raise _Stuck(f"splices two pairs whose far ends both sit on address {node[far[0]]}")
        self._qcirc(qc)
        m_phase = self._outcome(self.xdeps[cq])
        m_parity = self._outcome(self.zdeps[tq])
        net.end_state[left] = "gone"
        net.end_state[right] = "gone"

        lp, rp = net.end_pair[left], net.end_pair[right]
        spliced = len(net.pair_ends)
        net.fidelity.append(net.fidelity[lp] * net.fidelity[rp])
        net.phase.append(net.phase[lp] ^ net.phase[rp] ^ m_phase)
        net.parity.append(net.parity[lp] ^ net.parity[rp] ^ m_parity)
        net.purify.append("idle")
        net.pair_ends.append(far)
        for end in far:
            net.end_pair[end] = spliced
        self.registers[ir.register(len(self.registers))] = f"{m_parity}{m_phase}"

    # --- classical effects ---------------------------------------------------

    def _send(self, clause: ir.SendClause) -> None:
        if clause.partner_addr not in self.net.stage_idx:
            raise SimulationError(
                f"address {self.address}: send to address {clause.partner_addr}, "
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
                    f"address {self.address}: send payload result names register "
                    f"{value!r}, which the rule never wrote"
                )
        self.net.outbox.append(
            Message(clause.message, self.address, clause.partner_addr, payload)
        )

    def _set(self, clause: ir.SetClause) -> None:
        name = clause.variable
        if self.message is None and name.startswith("message."):
            raise SimulationError(f"no message bound for {name}")
        self.net.store[self.address, clause.alias or name] = self._value(name)

    def _promote(self, clause: ir.PromoteClause) -> None:
        net, end = self.net, self.bindings[clause.qubit.qubit_index]
        if net.end_state[end] == "gone":
            raise SimulationError(
                f"address {self.address}: promote of a consumed qubit"
            )
        net.end_state[end] = "promoted"
        pair = net.end_pair[end]
        if net.purify[pair] == "pending" and self.message is not None:
            # the parity-check shape: a message comparison guarding the keep
            net.fidelity[pair] = purify_update(net.fidelity[pair])
            net.purify[pair] = "done"

    # --- comparisons ---------------------------------------------------------

    def _value(self, name: str) -> str:
        if name in self.registers:
            return self.registers[name]
        if name.startswith("message."):
            if self.message is None:
                return ""
            return self.message.payload.get(name.split(".", 1)[1], "")
        return self.net.store.get((self.address, name), "")

    def compare(self, clause: ir.CmpClause) -> bool:
        """Whether `clause` holds. An `Int` target compares both sides as
        integers, and holds for no operator if either side is not one; any
        other target compares both sides as text."""
        target = clause.target_val
        left = self._value(clause.cmp_val)
        right = self._value(target.value) if target.kind == "Variable" else target.value
        if target.kind == "Int":
            try:
                left, right = int(left), int(right)
            except ValueError:
                return False
        test = ir.COMPARISONS.get(clause.operator)
        if test is None:
            raise SimulationError(f"unsupported comparison operator {clause.operator}")
        return test(left, right)


# --- reports -----------------------------------------------------------------


@dataclass
class RunReport:
    """The end of one run.  Its `fired` and `pairs` records are read-only:
    the reports of one enumeration share equal ones (see `explore`)."""

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
            "fired": self.fired,
            "messages_delivered": self.messages_delivered,
            "outcome_path": list(self.outcome_path),
            "pairs": self.pairs,
            "rounds": self.rounds,
            "status": self.status,
            "stuck": self.stuck,
        }


def _report(net: Network, stuck: list[str] | None = None) -> RunReport:
    """The report of a run that has ended; `stuck` names why, if not every
    node completed and the stuck groups do not (see `_drive`)."""
    complete = not net.live
    if stuck is None:
        stuck = [] if complete else net.stuck_reports()
    node, state = net.blueprint.end_node, net.end_state
    pairs = []
    for pair, ends in enumerate(net.pair_ends):
        held = [e for e in ends if state[e] != "gone"]
        if len(held) != 2:
            continue
        a, b = sorted(held, key=node.__getitem__)
        pairs.append({
            "bell_index": [net.phase[pair], net.parity[pair]],
            "fidelity": round(net.fidelity[pair], 12),
            "nodes": [node[a], node[b]],
            "states": [state[a], state[b]],
        })
    return RunReport(
        status="quiescent" if complete else "stuck",
        rounds=net.round,
        fired=net.fired,
        pairs=pairs,
        stuck=stuck,
        messages_delivered=net.delivered,
        outcome_path=tuple(net.trace),
    )


def _drive(net: Network, max_rounds: int, once=False) -> RunReport | None:
    """Run rounds until every node is complete, nothing can progress, or
    the round budget is spent. A run cut off by the budget is stuck, with
    the budget as its one reason: its waiting groups may yet fire.  With
    `once`, a run that has a node still to complete after its first round
    stops there, with no report (see `explore`)."""
    while net.live:
        if net.round >= max_rounds:
            spent = f"round budget of {max_rounds} round(s) spent before every node completed"
            return _report(net, [spent])
        if not net.step() and not net.cancel_starved() and not net.timers_armed():
            break
        if once and net.live:
            return None
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


def enumerate_outcomes(*args, **options) -> list[RunReport]:
    """The report of every branch of the measurement outcome tree, as a list
    (see `explore.outcomes`, which takes the same arguments)."""
    from .explore import outcomes  # `explore` imports this module

    return list(outcomes(*args, **options)[2])
