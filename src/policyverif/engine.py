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
from functools import cached_property
from typing import Iterable, Sequence, Tuple

from .errors import InvariantRejected, UnknownHost
from .graph import FlowSet, HostId, Policy, _all_pairs_but, _checked_hosts
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
        hosts = self.policy.hosts
        for index, inst in enumerate(self.invariants):
            for host in inst.config:
                if host not in hosts:
                    raise UnknownHost(host, f"invariants[{index}] ({inst.template.name})")
            if not check_deny_all_validity(inst, hosts):
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
        template = inst.template
        # positional: name, strategy, holds, offending, offender_hosts
        results.append(
            InvariantResult(
                template.name,
                template.strategy,
                not sets,
                tuple(sets),
                offenders(inst, itertools.chain.from_iterable(sets)),
            )
        )
    return VerificationReport(tuple(results), all(r.holds for r in results))


def construct_max_policy(
    hosts: Iterable[HostId],
    invariants: Sequence[InvariantInstance],
    edge_bound: int = DEFAULT_EDGE_BOUND,
) -> Policy:
    """The most permissive policy satisfying all invariants.

    The result is allow-all minus one removal set.  Invariant by invariant,
    in the given order, the removal grows by the union of the offending
    flow sets, exactly as verify reports them; each invariant sees
    allow-all minus everything removed before it.  Monotonicity makes each
    removal final, so one pass suffices.  For scenarios built purely from
    edge-local templates the result is the unique maximum; with templates
    without per-edge structure the union removal is still sound but may
    prohibit more than strictly necessary.  An edge-local invariant forbids
    the same pairs whatever else the policy holds, so its removal comes from
    its forbidden pairs (one predicate call per pair of attribute classes,
    not one per flow).

    A self-flow is removed only where its template rejects it, which no
    shipped template does.  Callers must only pass invariants that hold on
    the flow-less policy (scenario loading guarantees this).
    """
    hosts = _checked_hosts(hosts)
    removed = set()
    for inst in invariants:
        pred = inst.template.edge_pred
        if pred is not None:
            removed.update(pred._forbidden_pairs(hosts, inst.mapping()))
        else:
            removed.update(*offending_flows(inst, _all_pairs_but(hosts, removed), edge_bound))
    return _all_pairs_but(hosts, removed)


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

    @cached_property
    def _sorted_missing(self) -> tuple:
        # sorted once per diff: a command that renders text and DOT reuses it
        return tuple(sorted(self.permitted_missing))


def diff(
    user_policy: Policy,
    invariants: Sequence[InvariantInstance],
    edge_bound: int = DEFAULT_EDGE_BOUND,
) -> PolicyDiff:
    """Compare a hand-written policy against what the invariants admit.

    A self-flow counts as violating only where its template rejects it,
    which no shipped template does.
    """
    maximum = construct_max_policy(user_policy.hosts, invariants, edge_bound)
    violating = user_policy.flows - maximum.flows
    return PolicyDiff(
        violating=violating,
        permitted_missing=frozenset(
            (s, r) for s, r in maximum.flows - user_policy.flows if s != r
        ),
        reflexive=frozenset((s, r) for s, r in user_policy.flows if s == r) - violating,
    )
