"""Scenario-level orchestration: verify, construct, diff.

A scenario bundles one policy with any number of invariant instances, each
carrying its own attribute type.  Verification reports every invariant's
verdict together with the offending flows and hosts.  Construction builds
the most permissive policy the invariants admit, and diffing compares a
user-written policy against that construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from .errors import InvariantRejected, UnknownHost
from .graph import FlowSet, HostId, Policy, _checked_hosts, _derived_policy, _kept, _walk
from .invariants import (
    DEFAULT_EDGE_BOUND,
    InvariantInstance,
    Strategy,
    check_deny_all_validity,
    offenders,
    offending_flows,
)


@dataclass(frozen=True)
class Scenario:
    """A policy plus the invariants it must satisfy; validated on construction.

    Attribute configurations may only key hosts of the policy, and every
    template must hold on the flow-less policy (otherwise a violation could
    be unrepairable by tightening, and the tool's whole repair vocabulary
    would be empty for it); edge-local ones pass by their per-edge check.
    """

    policy: Policy
    invariants: Tuple[InvariantInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "invariants", tuple(self.invariants))
        hosts = self.policy.hosts
        for index, inst in enumerate(self.invariants):
            for host in inst.config:
                if host not in hosts:
                    raise UnknownHost(host, f"invariants[{index}] ({inst.template.name})")
            if inst.template.edge_pred is None and not check_deny_all_validity(inst, hosts):
                raise InvariantRejected(inst.template.name, "deny-all validity failed")


@dataclass(frozen=True)
class InvariantResult:
    """Verdict for one invariant, with repair options when violated."""

    name: str
    strategy: Strategy
    holds: bool
    offending: Tuple[FlowSet, ...]
    offender_hosts: frozenset


@dataclass(frozen=True)
class VerificationReport:
    results: Tuple[InvariantResult, ...]
    overall: bool


def verify(scenario: Scenario, edge_bound: int = DEFAULT_EDGE_BOUND) -> VerificationReport:
    """Analyse every invariant once and collect offending flows and hosts.

    Under the deny-all validity that :class:`Scenario` admission guarantees,
    an invariant holds exactly when it has no repair sets.
    """
    results = []
    for inst in scenario.invariants:
        sets = tuple(offending_flows(inst, scenario.policy, edge_bound))
        template = inst.template
        blamed = offenders(inst, itertools.chain.from_iterable(sets)) if sets else frozenset()
        # positional: name, strategy, holds, offending, offender_hosts
        results.append(InvariantResult(template.name, template.strategy, not sets, sets, blamed))
    return VerificationReport(tuple(results), all(r.holds for r in results))


def _forbidden_receivers(
    hosts: frozenset, invariants: Sequence[InvariantInstance], edge_bound: int
) -> dict:
    """The kernel of construct and diff: each host of ``hosts`` mapped to the
    set of receivers it may not reach, returned as built: the hosts without
    a row share one, and callers only read them.  Invariant by invariant,
    these grow by its offending flows, as verify reports them, on the pairs
    still allowed (monotonicity makes each step final), or its class blocks."""
    common, own = set(), {}  # what the hosts without a row may not reach; the rows
    for inst in invariants:
        pred = inst.template.edge_pred
        if pred is not None:
            blocks, unmarked = pred._forbidden_table(hosts, inst.mapping())
        else:
            so_far = {**dict.fromkeys(hosts, common), **own}
            current = _derived_policy(hosts, frozenset(_walk(hosts, so_far)))
            flows = itertools.chain.from_iterable(offending_flows(inst, current, edge_bound))
            blocks, unmarked = [((s,), (r,)) for s, r in flows], None
        rest = []  # the unmarked class's blocks: they hold for each host of that class
        for senders, receivers in blocks:
            if senders is unmarked:
                rest.append(receivers)
            else:
                for s in senders:
                    own.setdefault(s, set(common)).update(receivers)
        if rest:
            rest = frozenset().union(*rest)
            own.update((s, set(common)) for s in hosts.difference(unmarked, own))  # marked, no row
            for s, acc in own.items():
                if s in unmarked:
                    acc |= rest
            common |= rest
    return {**dict.fromkeys(hosts, common), **own}


def construct_max_policy(
    hosts: Iterable[HostId],
    invariants: Sequence[InvariantInstance],
    edge_bound: int = DEFAULT_EDGE_BOUND,
) -> Policy:
    """The most permissive policy satisfying all invariants.  One walk over
    the sorted hosts lists, sender by sender, the receivers it may reach
    (:func:`_forbidden_receivers`); that walk is the policy's sorted flows.

    The unique maximum when every template is edge-local; otherwise sound,
    but it may prohibit more than strictly necessary.  A self-flow is
    forbidden only where its template rejects it, which no shipped one
    does.  Every invariant must hold on the flow-less policy, as scenario
    loading guarantees.
    """
    hosts = _checked_hosts(hosts)
    walked = _walk(hosts, _forbidden_receivers(hosts, invariants, edge_bound))
    return _derived_policy(hosts, frozenset(walked), tuple(walked))


@dataclass(frozen=True)
class PolicyDiff:
    """How a user policy differs from the constructed maximum.

    ``violating`` flows are in the user policy but forbidden by some
    invariant; ``permitted_missing`` flows would be allowed but are absent.
    ``reflexive`` holds the user's permitted self-flows, reported on the
    side; ``permitted_missing`` never holds a self-flow, and ``violating``
    holds one only where its template rejects it.
    """

    violating: frozenset
    permitted_missing: frozenset
    reflexive: frozenset = field(default_factory=frozenset)

    def sorted_missing(self) -> list:
        return list(self._sorted_missing)

    @_kept
    def _sorted_missing(self) -> tuple:
        # sorted once per diff: a command that renders text and DOT reuses it
        return tuple(sorted(self.permitted_missing))


def diff(
    user_policy: Policy,
    invariants: Sequence[InvariantInstance],
    edge_bound: int = DEFAULT_EDGE_BOUND,
) -> PolicyDiff:
    """Compare a hand-written policy against what the invariants admit, from
    the kernel and the walk of :func:`construct_max_policy`, which lists the
    missing flows sorted."""
    flows = user_policy.flows
    blocked = _forbidden_receivers(user_policy.hosts, invariants, edge_bound)
    violating = frozenset((s, r) for s, r in flows if r in blocked[s])
    missing = [f for f in _walk(user_policy.hosts, blocked) if f[0] != f[1] and f not in flows]
    reflexive = frozenset((s, r) for s, r in flows if s == r) - violating
    result = PolicyDiff(violating, frozenset(missing), reflexive)
    result.__dict__["_sorted_missing"] = tuple(missing)  # the walk's order is sorted
    return result
