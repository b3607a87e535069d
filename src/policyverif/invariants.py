"""The security invariant contract and its generic analysis.

A template fixes the formal semantics of one kind of invariant: a security
strategy (access control or information flow), an evaluation predicate over
a policy and a total host-attribute mapping, and the secure default
attribute used to complete partial configurations.  Everything in this
module works for arbitrary templates; the concrete ones live in
:mod:`policyverif.templates`.

Offending flows (minimal repair options for a violated invariant) come from
a linear fast path for templates whose predicate decomposes into a per-edge
check, else from a subset enumeration exponential in the number of flows.
Tests hold the two to exact agreement.  verify, construct and the
secure-default checker share that route; the blame rule lives in offenders.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Generic, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import TooLarge
from .graph import A, Flow, FlowSet, HostId, HostMapping, Policy, deny_all, total_map

DEFAULT_EDGE_BOUND = 16


class Strategy(Enum):
    """Security strategy of a template.

    Access control strategies (ACS) protect integrity: the host that sends
    over an offending flow is the one breaking a restriction.  Information
    flow strategies (IFS) protect confidentiality: the leak materializes at
    the receiving host.  The distinction decides which endpoint of an
    offending flow counts as the offender.
    """

    ACS = "ACS"
    IFS = "IFS"


@dataclass(frozen=True)
class EdgePredicate(Generic[A]):
    """A per-edge acceptance check over (sender attribute, receiver attribute).

    Templates with this structure are evaluated edge by edge, which makes
    the offending flows unique and computable in linear time.
    ``exempt_reflexive`` skips self-flows, for templates that restrict
    host-to-host traffic but must always permit in-host communication.
    """

    predicate: Callable[[A, A], bool]
    exempt_reflexive: bool = False

    def _failing_flows(self, g: Policy, mapping: HostMapping) -> Iterator[Flow]:
        """The flows of ``g`` whose endpoint attributes fail the check, lazily."""
        get = mapping.entries.get
        dft = mapping.default
        check = self.predicate
        if self.exempt_reflexive:
            return ((s, r) for s, r in g.flows if s != r and not check(get(s, dft), get(r, dft)))
        return ((s, r) for s, r in g.flows if not check(get(s, dft), get(r, dft)))


@dataclass(frozen=True)
class Template(Generic[A]):
    """Formal semantics of one invariant kind, independent of any scenario.

    ``evaluate`` must be a pure, deterministic predicate, monotone in the
    flow set (removing flows never breaks a satisfied invariant), and true
    on every flow-less policy.  Scenario loading checks only the last point;
    monotonicity is the caller's contract, testable by check_monotonicity.
    """

    name: str
    strategy: Strategy
    default_attr: A
    evaluate: Callable[[Policy, HostMapping], bool]
    edge_pred: Optional[EdgePredicate] = None


def edge_template(
    name: str,
    strategy: Strategy,
    default_attr: A,
    predicate: Callable[[A, A], bool],
    exempt_reflexive: bool = False,
) -> Template:
    """Build a template whose evaluation is the conjunction of a per-edge check.

    Deriving ``evaluate`` from the predicate keeps the fast offending-flows
    path and the evaluation semantics consistent by construction.
    """
    edge = EdgePredicate(predicate, exempt_reflexive)

    def evaluate(g: Policy, mapping: HostMapping) -> bool:
        return next(edge._failing_flows(g, mapping), None) is None

    return Template(name, strategy, default_attr, evaluate, edge)


@dataclass(frozen=True, eq=True)
class InvariantInstance(Generic[A]):
    """A template bound to scenario-specific knowledge.

    ``config`` may cover any subset of the hosts; the template's default
    attribute fills the gaps, so evaluation always sees a total mapping.
    """

    template: Template
    config: Mapping[HostId, A] = field(default_factory=dict)

    def mapping(self) -> HostMapping:
        return total_map(self.config, self.template.default_attr)


def eval_instance(inst: InvariantInstance, g: Policy) -> bool:
    """Does the policy satisfy this invariant?"""
    return inst.template.evaluate(g, inst.mapping())


def compose(instances: Sequence[InvariantInstance], g: Policy) -> bool:
    """All invariants must hold; an empty list holds vacuously."""
    return all(eval_instance(inst, g) for inst in instances)


def check_deny_all_validity(inst: InvariantInstance, hosts: Iterable[HostId]) -> bool:
    """Does the invariant hold on the flow-less policy over ``hosts``?

    Invariants failing this can be violated with no way to repair them by
    tightening the policy, so scenario loading demands it.
    """
    return eval_instance(inst, deny_all(hosts))


# ---------------------------------------------------------------------------
# offending flows

def _subsets_by_size(edges: Sequence[Flow]) -> Iterator[FlowSet]:
    # size ascending, lexicographic within one size: deterministic output
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            yield frozenset(combo)


def _offending_sets_bruteforce(
    template: Template,
    g: Policy,
    mapping: HostMapping,
    edge_bound: int,
) -> list:
    """All minimal repair sets per the defining three conjuncts.

    A flow set F qualifies iff the invariant is violated, removing F repairs
    it, and adding back any single flow of F re-violates it (every member
    bears responsibility).  Satisfied policies yield no sets without any
    enumeration; the bound only guards the exponential search.
    """
    evaluate = template.evaluate
    if evaluate(g, mapping):
        return []
    edges = g.sorted_flows()
    if len(edges) > edge_bound:
        raise TooLarge(len(edges), edge_bound)
    found = []
    flows = g.flows
    hosts = g.hosts
    for candidate in _subsets_by_size(edges):
        remainder = flows - candidate
        if not evaluate(Policy(hosts, remainder), mapping):
            continue
        if all(
            not evaluate(Policy(hosts, remainder | {flow}), mapping)
            for flow in candidate
        ):
            found.append(candidate)
    return found


def _offending_sets(template: Template, g: Policy, mapping: HostMapping, edge_bound: int) -> list:
    """Offending flows via the per-edge fast path when available."""
    pred = template.edge_pred
    if pred is None:
        return _offending_sets_bruteforce(template, g, mapping, edge_bound)
    bad = frozenset(pred._failing_flows(g, mapping))
    return [bad] if bad else []


def offending_flows_bruteforce(
    inst: InvariantInstance, g: Policy, edge_bound: int = DEFAULT_EDGE_BOUND
) -> list:
    """Enumerate every minimal repair set directly from the definition.

    Exponential in the number of flows; raises :class:`TooLarge` when the
    policy is violated and has more than ``edge_bound`` flows.
    """
    return _offending_sets_bruteforce(inst.template, g, inst.mapping(), edge_bound)


def offending_flows(
    inst: InvariantInstance, g: Policy, edge_bound: int = DEFAULT_EDGE_BOUND
) -> list:
    """Minimal repair sets, using the linear fast path where the template allows.

    For edge-local templates the result is the single set of flows whose
    endpoint attributes fail the per-edge check (self-flows excluded when
    the template exempts them), or no set at all when the invariant holds.
    Other templates fall back to the brute-force enumeration.
    """
    return _offending_sets(inst.template, g, inst.mapping(), edge_bound)


def offenders(inst: InvariantInstance, flow_set: Iterable[Flow]) -> frozenset:
    """The hosts responsible for a violation, given one offending flow set.

    Access control invariants blame the senders, information flow
    invariants the receivers.
    """
    if inst.template.strategy is Strategy.ACS:
        return frozenset(s for s, _ in flow_set)
    return frozenset(r for _, r in flow_set)


# ---------------------------------------------------------------------------
# property checkers

def find_monotonicity_counterexample(
    inst: InvariantInstance, g: Policy, trials: int, seed: int
) -> Optional[FlowSet]:
    """Search random sub-policies for a monotonicity violation.

    Monotonicity: a satisfied invariant stays satisfied on every stricter
    flow set.  When the invariant holds on ``g``, draws ``trials`` random
    flow subsets and returns the first subset on which it breaks, or None.
    Vacuously passes when the invariant does not hold on ``g``.
    """
    if trials <= 0 or not eval_instance(inst, g):
        return None
    rng = random.Random(seed)
    edges = g.sorted_flows()
    mapping = inst.mapping()
    evaluate = inst.template.evaluate
    for _ in range(trials):
        subset = frozenset(e for e in edges if rng.random() < 0.5)
        if not evaluate(Policy(g.hosts, subset), mapping):
            return subset
    return None


def check_monotonicity(inst: InvariantInstance, g: Policy, trials: int, seed: int) -> bool:
    return find_monotonicity_counterexample(inst, g, trials, seed) is None


def _policies_on(hosts: Sequence[HostId], edge_bound: int) -> Iterator[Policy]:
    """Every policy over ``hosts`` with at most ``edge_bound`` flows."""
    hostset = frozenset(hosts)
    pairs = sorted((s, r) for s in hosts for r in hosts)
    for k in range(min(edge_bound, len(pairs)) + 1):
        for combo in itertools.combinations(pairs, k):
            yield Policy(hostset, frozenset(combo))


def find_secure_default_counterexample(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int = 4,
    candidate: Optional[A] = None,
):
    """Exhaustively search bounded universes for a masked violation.

    A default attribute is secure when remapping any offending host to it
    can never turn a violated invariant into a satisfied one.  This checks
    every policy over ``host_universe`` with at most ``edge_bound`` flows
    against every total mapping into ``attr_universe``.  Returns the first
    ``(policy, mapping, flow_set, host)`` whose violation the candidate
    masks, or None.  ``candidate`` defaults to the template's own default
    attribute.  Offending flows and hosts come from the same per-edge route
    (or enumeration) and :func:`offenders` as in ``verify``.

    The search is a sound falsifier and, within the given universes, a
    verifier; it cannot speak for larger policies or attribute domains.
    """
    if candidate is None:
        candidate = template.default_attr
    bare = InvariantInstance(template)  # offenders reads only its template
    hosts = sorted(host_universe)
    for g in _policies_on(hosts, edge_bound):
        for combo in itertools.product(attr_universe, repeat=len(hosts)):
            assignment = dict(zip(hosts, combo))
            mapping = HostMapping(assignment, template.default_attr)
            blamed = frozenset()
            for flow_set in _offending_sets(template, g, mapping, edge_bound):
                blamed_here = offenders(bare, flow_set)
                for v in sorted(blamed_here - blamed):
                    remapped = HostMapping({**assignment, v: candidate}, template.default_attr)
                    if template.evaluate(g, remapped):
                        return g, mapping, flow_set, v
                blamed |= blamed_here
    return None


def check_secure_default(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int = 4,
    candidate: Optional[A] = None,
) -> bool:
    """True when no bounded counterexample shows the default masking a violation."""
    return (
        find_secure_default_counterexample(
            template, host_universe, attr_universe, edge_bound, candidate
        )
        is None
    )


def check_unique_default(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int = 4,
) -> bool:
    """The template's default is secure and every other candidate is not.

    Exhaustive over the same bounded universes as
    :func:`check_secure_default`; ``attr_universe`` must contain the
    template's default attribute.
    """
    if template.default_attr not in attr_universe:
        raise ValueError("attribute universe must contain the template default")
    if not check_secure_default(template, host_universe, attr_universe, edge_bound):
        return False
    for other in attr_universe:
        if other == template.default_attr:
            continue
        if check_secure_default(template, host_universe, attr_universe, edge_bound, other):
            return False
    return True
