"""The security invariant contract and its generic analysis.

A template fixes the formal semantics of one kind of invariant: a security
strategy (access control or information flow), an evaluation predicate over
a policy and a total host-attribute mapping, and the secure default
attribute used to complete partial configurations.  Everything in this
module works for arbitrary templates; the concrete ones live in
:mod:`policyverif.templates`.

Offending flows (minimal repair options for a violated invariant) come from
a linear fast path for templates whose predicate decomposes into a per-edge
check, from the minimal transversals of the template's witnesses (Berge's
algorithm) for templates that list them, else from a subset enumeration
exponential in the number of flows.  Tests hold the first two to exact
agreement with the enumeration.  verify takes that route; the blame rule
lives in offenders.  construct takes it only for templates without
per-edge structure: for edge-local ones it asks which pairs of the complete
graph fail, once per pair of attribute classes (``_forbidden_pairs``), and
tests hold that to exact agreement with the per-flow check.  Both apply the
one self-flow rule of :class:`EdgePredicate`.

The secure-default checker decides edge-local templates from pairs of
attributes, a verdict that holds for policies of every size over those
attributes; other templates get an enumeration of every policy and mapping
of bounded universes, which says nothing beyond the bound.  Tests hold the
pairwise decision to exact agreement with the enumeration.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Generic, Iterable, Iterator, Mapping, Optional, Sequence

from .errors import TooLarge
from .graph import (
    A,
    Flow,
    FlowSet,
    HostId,
    HostMapping,
    Policy,
    _derived_policy,
    deny_all,
    total_map,
)

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
    This class owns that self-flow rule: verify, construct and diff all
    reject exactly the flows its two generators yield.

    ``predicate`` must depend on the two attribute values alone, and
    attributes must be hashable: hosts with equal attributes then get equal
    verdicts, which lets construction decide once per pair of attribute
    classes instead of once per flow.
    """

    predicate: Callable[[A, A], bool]
    exempt_reflexive: bool = False

    def _failing_flows(self, g: Policy, mapping: HostMapping) -> Iterator[Flow]:
        """The flows of ``g`` whose endpoint attributes fail the check, lazily."""
        get = mapping.entries.get
        dft = mapping.default
        check = self.predicate
        exempt = self.exempt_reflexive
        return (
            (s, r) for s, r in g.flows
            if not check(get(s, dft), get(r, dft)) and (s != r or not exempt)
        )

    def _forbidden_pairs(self, hosts: Iterable[HostId], mapping: HostMapping) -> Iterator[Flow]:
        """Exactly the flows ``_failing_flows`` yields on the complete graph
        over ``hosts``, lazily.

        Hosts are grouped by attribute value, so a configured host whose
        attribute equals the default joins the unconfigured hosts' class, and
        the check runs once per ordered pair of classes.
        """
        get = mapping.entries.get
        dft = mapping.default
        classes = {}
        for h in hosts:
            classes.setdefault(get(h, dft), []).append(h)
        check = self.predicate
        exempt = self.exempt_reflexive
        for snd, senders in classes.items():
            for rcv, receivers in classes.items():
                if check(snd, rcv):
                    continue
                if senders is receivers and exempt:
                    # only a class paired with itself holds self-pairs
                    yield from ((s, r) for s in senders for r in receivers if s != r)
                else:
                    yield from itertools.product(senders, receivers)


@dataclass(frozen=True)
class Template(Generic[A]):
    """Formal semantics of one invariant kind, independent of any scenario.

    ``evaluate`` must be a pure, deterministic predicate, monotone in the
    flow set (removing flows never breaks a satisfied invariant), and true
    on every flow-less policy.  Scenario loading checks only the last point;
    monotonicity is the caller's contract, testable by check_monotonicity.
    An ``edge_pred`` must decide each flow from its two endpoint attributes
    alone (see :class:`EdgePredicate`).

    ``witnesses``, for a template without an ``edge_pred``, gives flow sets
    W, each a non-empty subset of ``g.flows``, such that a sub-policy of
    ``g`` violates the invariant exactly when it contains some W.  The
    minimal repair sets are then the minimal flow sets that meet every W.
    Extra witnesses that contain another one change nothing.
    """

    name: str
    strategy: Strategy
    default_attr: A
    evaluate: Callable[[Policy, HostMapping], bool]
    edge_pred: Optional[EdgePredicate] = None
    witnesses: Optional[Callable[[Policy, HostMapping], Iterable[FlowSet]]] = None


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
        if not evaluate(_derived_policy(hosts, remainder), mapping):
            continue
        if all(
            not evaluate(_derived_policy(hosts, remainder | {flow}), mapping)
            for flow in candidate
        ):
            found.append(candidate)
    return found


def _minimal_transversals(edge_sets: Iterable[FlowSet]) -> list:
    """Every minimal flow set that meets each of ``edge_sets``, by Berge's
    algorithm: add the sets one at a time, keep the transversals that meet
    the new set, grow each other one by each flow of it, and drop a grown
    set that holds a kept one.  No other test is needed: the transversals
    are pairwise incomparable, so no two grown sets are strictly nested."""
    current = [frozenset()]
    for edges in sorted(set(edge_sets), key=len):
        kept = [t for t in current if t & edges]
        grown = {t | {e} for t in current if not t & edges for e in edges}
        current = kept + [t for t in grown if not any(k <= t for k in kept)]
    return current


def _offending_sets(template: Template, g: Policy, mapping: HostMapping, edge_bound: int) -> list:
    """Offending flows via the per-edge fast path or the witnesses when
    available, else via the enumeration.

    The witness route answers exactly as the enumeration does: no sets when
    the invariant holds, :class:`TooLarge` past ``edge_bound`` flows, and the
    sets by size, then by sorted flows.
    """
    pred = template.edge_pred
    if pred is not None:
        bad = frozenset(pred._failing_flows(g, mapping))
        return [bad] if bad else []
    if template.witnesses is None:
        return _offending_sets_bruteforce(template, g, mapping, edge_bound)
    if template.evaluate(g, mapping):
        return []
    if len(g.flows) > edge_bound:
        raise TooLarge(len(g.flows), edge_bound)
    found = _minimal_transversals(template.witnesses(g, mapping))
    return sorted(found, key=lambda fs: (len(fs), sorted(fs)))


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
    Templates with ``witnesses`` get the minimal flow sets meeting every
    witness, and raise :class:`TooLarge` as the enumeration does.  Other
    templates fall back to the brute-force enumeration.

    The sets come by size, then by sorted flows: the enumeration walks the
    subsets of the sorted flows in that order.
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
        if not evaluate(_derived_policy(g.hosts, subset), mapping):
            return subset
    return None


def check_monotonicity(inst: InvariantInstance, g: Policy, trials: int, seed: int) -> bool:
    return find_monotonicity_counterexample(inst, g, trials, seed) is None


def _policies_on(hosts: Sequence[HostId], edge_bound: int) -> Iterator[Policy]:
    """Every policy over ``hosts`` with at most ``edge_bound`` flows."""
    hostset = frozenset(hosts)
    subsets = _subsets_by_size(sorted((s, r) for s in hosts for r in hosts))
    for flows in itertools.takewhile(lambda fs: len(fs) <= edge_bound, subsets):
        yield _derived_policy(hostset, flows)


def _bounded_secure_default_counterexample(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int,
    candidate: A,
):
    """The first masked violation in enumeration order, over every policy on
    ``host_universe`` with at most ``edge_bound`` flows and every total
    mapping into ``attr_universe``, or None.  A sound falsifier and, within
    the given universes, a verifier; it cannot speak for larger policies or
    attribute domains."""
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


def _pairwise_secure_default_counterexample(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int,
    candidate: A,
):
    """A masked violation of an edge-local template, decided from attribute pairs.

    Remapping the blamed host repairs a violation only if it repairs some
    failing flow at the blamed endpoint.  So the candidate c masks one
    exactly when some pair (a, b) fails the predicate P while P(c, b) holds
    (ACS blames the sender) or P(a, c) holds (IFS blames the receiver), or,
    unless self-flows are exempt, some a fails P(a, a) while P(c, c) holds.
    A single-flow policy shows each such pair, so the verdict holds for
    policies of every size over ``attr_universe`` and equals the bounded
    search's whenever that can build the policy: one flow within
    ``edge_bound``, and two hosts for a pair across hosts.
    """
    hosts = sorted(set(host_universe))
    if edge_bound < 1 or not hosts:
        return None
    edge = template.edge_pred
    check = edge.predicate
    acs = template.strategy is Strategy.ACS
    if len(hosts) > 1:
        for a in attr_universe:
            for b in attr_universe:
                if not check(a, b) and (check(candidate, b) if acs else check(a, candidate)):
                    return _single_flow_witness(template, hosts, hosts[1], a, b, acs)
    if not edge.exempt_reflexive and check(candidate, candidate):
        for a in attr_universe:
            if not check(a, a):
                return _single_flow_witness(template, hosts, hosts[0], a, a, acs)
    return None


def _single_flow_witness(template: Template, hosts: list, receiver: HostId, a, b, acs: bool):
    """The policy with the one flow ``hosts[0] -> receiver``, whose sender
    has attribute ``a`` and receiver ``b``; every other host gets ``a``."""
    sender = hosts[0]
    assignment = dict.fromkeys(hosts, a)
    assignment[receiver] = b
    flow_set = frozenset({(sender, receiver)})
    g = _derived_policy(frozenset(hosts), flow_set)
    mapping = HostMapping(assignment, template.default_attr)
    return g, mapping, flow_set, sender if acs else receiver


def find_secure_default_counterexample(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int = 4,
    candidate: Optional[A] = None,
):
    """A policy whose violation the candidate default masks, or None.

    A default attribute is secure when remapping any offending host to it
    can never turn a violated invariant into a satisfied one.  The search
    space is every policy over ``host_universe`` with at most ``edge_bound``
    flows, under every total mapping into ``attr_universe``; a
    counterexample is a ``(policy, mapping, flow_set, host)`` from it.
    ``candidate`` defaults to the template's own default attribute.
    Offending flows and hosts follow the same rules as in ``verify``.

    For edge-local templates the decision comes from attribute pairs, and
    its verdict holds for policies of every size over ``attr_universe``;
    the counterexample is a single-flow policy between the first two
    sorted hosts, or a self-flow of the first.  Other templates take the
    bounded enumeration, which returns the first counterexample in
    enumeration order and cannot speak for larger policies or attribute
    domains.
    """
    if candidate is None:
        candidate = template.default_attr
    if template.edge_pred is not None:
        route = _pairwise_secure_default_counterexample
    else:
        route = _bounded_secure_default_counterexample
    return route(template, host_universe, attr_universe, edge_bound, candidate)


def check_secure_default(
    template: Template,
    host_universe: Sequence[HostId],
    attr_universe: Sequence[A],
    edge_bound: int = 4,
    candidate: Optional[A] = None,
) -> bool:
    """True when no counterexample shows the default masking a violation.

    Exact for edge-local templates; otherwise exhaustive within the bounded
    universes of :func:`find_secure_default_counterexample`.
    """
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

    Decided as :func:`check_secure_default` decides, candidate by
    candidate; ``attr_universe`` must contain the template's default
    attribute.
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
