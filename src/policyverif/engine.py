"""Scenario-level orchestration: verify, construct, diff.

A scenario bundles one policy with any number of invariant instances, each
carrying its own attribute type.  Verification reports every invariant's
verdict together with the offending flows and hosts.  Construction builds
the most permissive policy the invariants admit, and diffing compares a
user-written policy against that construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

from .errors import InvariantRejected, UnknownHost
from .graph import Flow, FlowSet, HostId, Policy, allow_all
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
    would be empty for it).
    """

    policy: Policy
    invariants: Tuple[InvariantInstance, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "invariants", tuple(self.invariants))
        for index, inst in enumerate(self.invariants):
            where = f"invariants[{index}] ({inst.template.name})"
            for host in inst.config:
                if host not in self.policy.hosts:
                    raise UnknownHost(host, where)
            if not check_deny_all_validity(inst, self.policy.hosts):
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
        sets = offending_flows(inst, scenario.policy, edge_bound)
        sets = sorted(sets, key=lambda fs: (len(fs), sorted(fs)))
        blamed = frozenset().union(*(offenders(inst, fs) for fs in sets))
        results.append(
            InvariantResult(
                name=inst.template.name,
                strategy=inst.template.strategy,
                holds=not sets,
                offending=tuple(sets),
                offender_hosts=blamed,
            )
        )
    return VerificationReport(tuple(results), all(r.holds for r in results))


def construct_max_policy(
    hosts: Iterable[HostId],
    invariants: Sequence[InvariantInstance],
    edge_bound: int = DEFAULT_EDGE_BOUND,
) -> Policy:
    """The most permissive policy satisfying all invariants.

    Starts from the allow-all policy and, invariant by invariant, removes
    the union of the offending flow sets computed on the current remainder.
    Monotonicity makes each removal final, so one pass suffices.  For
    scenarios built purely from edge-local templates the result is the
    unique maximum; with brute-force templates the union removal is still
    sound but may prohibit more than strictly necessary.

    Self-flows are never removed: in-host communication is outside any
    shipped template's scope.  Callers must only pass invariants that hold
    on the flow-less policy (scenario loading guarantees this).
    """
    current = allow_all(hosts)
    for inst in invariants:
        removal = {
            (s, r) for fs in offending_flows(inst, current, edge_bound) for s, r in fs if s != r
        }
        if removal:
            current = current.without_flows(removal)
    return current


@dataclass(frozen=True)
class PolicyDiff:
    """How a user policy differs from the constructed maximum.

    ``violating`` flows are in the user policy but forbidden by some
    invariant; ``permitted_missing`` flows would be allowed but are absent.
    Self-flows never appear in either set and are reported on the side.
    """

    violating: frozenset
    permitted_missing: frozenset
    reflexive: frozenset = field(default_factory=frozenset)


def diff(
    user_policy: Policy,
    invariants: Sequence[InvariantInstance],
    edge_bound: int = DEFAULT_EDGE_BOUND,
) -> PolicyDiff:
    """Compare a hand-written policy against what the invariants admit."""
    maximum = construct_max_policy(user_policy.hosts, invariants, edge_bound)
    user_flows = {(s, r) for s, r in user_policy.flows if s != r}
    max_flows = {(s, r) for s, r in maximum.flows if s != r}
    return PolicyDiff(
        violating=frozenset(user_flows - max_flows),
        permitted_missing=frozenset(max_flows - user_flows),
        reflexive=frozenset((s, r) for s, r in user_policy.flows if s == r),
    )
