"""Enumeration of every branch of a run's measurement outcome tree.

Enumeration is a depth-first walk over the networks of one `Blueprint`
(see `runtime`): a branch runs with zero bits past its plan and snapshots
the network before every firing of a group that measures, and each zero it
drew is flipped in a new branch that resumes from the snapshot before the
firing that drew it, so the rounds before a measurement run once for the
whole subtree below it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ir
from .config import Topology
from .runtime import Blueprint, Network, RunReport, _drive


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
    it, so the live ones lie on the path being walked.  A branch's flips
    all come after its plan, and the deepest runs first, so the reports come
    in outcome-path order.
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
    return reports
