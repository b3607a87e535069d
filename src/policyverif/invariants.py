"""The security invariant contract and its generic analysis.

A template fixes the formal semantics of one kind of invariant: a security
strategy (access control or information flow), an evaluation predicate over
a policy and a total host-attribute mapping, and the secure default
attribute used to complete partial configurations.  Everything here works
for any template; the concrete ones live in :mod:`policyverif.templates`.

Offending flows (minimal repair options for a violated invariant) come from
a per-edge check for templates whose predicate decomposes into one, from the
minimal transversals of the template's witnesses (Berge's algorithm) for
templates that list them, else from a subset enumeration exponential in the
number of flows; tests hold the first two to exact agreement with the last.
verify applies the per-edge check to the policy's flows; construct and diff
read which attribute classes may not reach which (``EdgePredicate``'s table),
and tests hold the two to exact agreement.

The secure-default checker decides edge-local templates from pairs of
attributes, and a template with a ``default_counterexample`` (such as
``no_transitive_access``) by its own rule; both verdicts hold for policies
of every size over the given attributes.  Other templates get an
enumeration of every policy and mapping of bounded universes, which says
nothing beyond the bound.  Tests hold both exact decisions to exact
agreement with the enumeration.
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

    The offending flows of an edge-local template are unique: those failing
    the check.  ``predicate`` must read the two attribute values alone, and
    attributes must be hashable, so that hosts of one attribute class share
    every verdict.  ``exempt_reflexive`` skips self-flows, for templates
    that restrict host-to-host traffic but must always permit in-host
    communication.  This class owns that self-flow rule: ``_failing_flows``
    (verify), ``_forbidden_table`` (construct, diff) and ``_holds`` (the
    derived ``evaluate``) reject the same flows.

    When ``predicate(default, default)`` holds, a flow between two hosts of
    the default attribute passes, self-flows included; only a flow with a
    *marked* endpoint (attribute not the default) can fail.  verify and
    ``_holds`` then check only such flows where few hosts are marked.
    """

    predicate: Callable[[A, A], bool]
    exempt_reflexive: bool = False

    def _failing_flows(self, flows: Iterable[Flow], mapping: HostMapping) -> Iterator[Flow]:
        """The flows among ``flows`` whose endpoint attributes fail the check, lazily."""
        get = mapping.entries.get
        dft = mapping.default
        check = self.predicate
        exempt = self.exempt_reflexive
        return (
            (s, r) for s, r in flows
            if not check(get(s, dft), get(r, dft)) and (s != r or not exempt)
        )

    def _holds(self, g: Policy, mapping: HostMapping) -> bool:
        """Does every flow of ``g`` pass the check?  The derived ``evaluate``.

        On a policy with more than two flows per host, where the pairs at
        the marked hosts are fewer than the flows and the default pair
        passes, only the flows among those pairs are checked."""
        flows = g.flows
        hosts = g.hosts
        check = self.predicate
        dft = mapping.default
        if len(flows) > 2 * len(hosts):
            marked = mapping._marked
            if 2 * len(marked) * len(hosts) < len(flows) and check(dft, dft):
                probes = itertools.chain(
                    itertools.product(marked, hosts), itertools.product(hosts, marked)
                )
                flows = flows.intersection(probes)
        get = mapping.entries.get
        exempt = self.exempt_reflexive
        for s, r in flows:
            if not check(get(s, dft), get(r, dft)) and (s != r or not exempt):
                return False
        return True

    def _forbidden_table(self, hosts: frozenset, mapping: HostMapping) -> tuple:
        """Exactly the flows ``_failing_flows`` yields on the complete graph
        over ``hosts``, as ``(blocks, unmarked)``: a block ``(senders,
        receivers)`` forbids each flow from the one to the other; ``unmarked``
        is the default attribute's class.  The check runs once per ordered pair
        of classes, and an exempt class's block to itself is split by sender."""
        check = self.predicate
        marked = mapping._marked
        grouped = {}
        for h, attr in marked.items():
            if h in hosts:
                grouped.setdefault(attr, []).append(h)
        unmarked = hosts.difference(marked)
        classes = [*grouped.items()]
        if unmarked:
            classes.append((mapping.default, unmarked))
        blocks = [(s, r) for a, s in classes for b, r in classes if not check(a, b)]
        if self.exempt_reflexive:
            split = [((h,), [x for x in s if x != h]) for s, r in blocks if s is r for h in s]
            blocks = [(s, r) for s, r in blocks if s is not r] + split
        return blocks, unmarked


@dataclass(frozen=True)
class Template(Generic[A]):
    """Formal semantics of one invariant kind, independent of any scenario.

    ``evaluate`` must be a pure, deterministic predicate, monotone in the
    flow set (removing flows never breaks a satisfied invariant), and true
    on every flow-less policy (checked on loading unless a per-edge check
    decides); monotonicity is the caller's contract, testable by check_monotonicity.
    An ``edge_pred`` must decide each flow from its two endpoint attributes
    alone (see :class:`EdgePredicate`).  :func:`edge_template` derives
    ``evaluate`` from it: when ``predicate(default, default)`` holds, every
    flow between unmarked hosts passes, so on a large, sparsely marked
    policy only the pairs at the marked hosts are checked.

    ``witnesses``, for a template without an ``edge_pred``, gives flow sets
    W, each a non-empty subset of ``g.flows``, such that a sub-policy of
    ``g`` violates the invariant exactly when it contains some W.  The
    minimal repair sets are then the minimal flow sets that meet every W.
    Extra witnesses that contain another one change nothing.

    ``default_counterexample``, for a template without an ``edge_pred``,
    decides its secure defaults exactly: called as
    ``(template, host_universe, attr_universe, edge_bound, candidate)``, it
    returns a masked violation, or None when ``candidate`` masks none in a
    policy of any size over ``attr_universe``.  Wherever the bounded search
    of :func:`find_secure_default_counterexample` can build a counterexample,
    the hook returns that search's first one.  It reads ``evaluate``'s
    meaning, so a ``dataclasses.replace`` copy whose ``evaluate`` means
    something else must drop it; a wrapper that only counts calls may keep it.
    """

    name: str
    strategy: Strategy
    default_attr: A
    evaluate: Callable[[Policy, HostMapping], bool]
    edge_pred: Optional[EdgePredicate] = None
    witnesses: Optional[Callable[[Policy, HostMapping], Iterable[FlowSet]]] = None
    default_counterexample: Optional[Callable[..., Optional[tuple]]] = None


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
    return Template(name, strategy, default_attr, edge._holds, edge)


@dataclass(frozen=True, eq=True)
class InvariantInstance(Generic[A]):
    """A template bound to scenario-specific knowledge.

    ``config`` may cover any subset of the hosts; the template's default
    attribute fills the gaps, so evaluation always sees a total mapping.
    That mapping is built once, at construction, from a copy of the given
    configuration, and ``config`` is that copy: admission, verify and
    construct all read the one mapping, and later changes to the object
    passed in reach neither.
    """

    template: Template
    config: Mapping[HostId, A] = field(default_factory=dict)

    def __post_init__(self):
        mapping = total_map(self.config, self.template.default_attr)
        object.__setattr__(self, "config", mapping.entries)
        object.__setattr__(self, "_mapping", mapping)

    def mapping(self) -> HostMapping:
        return self._mapping


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
    """:func:`offending_flows` of a template under a total mapping."""
    pred = template.edge_pred
    if pred is not None:
        dft = mapping.default
        flows = g.flows
        if pred.predicate(dft, dft):
            # a failing flow then has an endpoint whose attribute is not the
            # default; with half the hosts or more marked, most flows touch
            # one, and one scan of every flow costs less than the index
            marked = mapping._marked
            if 2 * len(marked) < len(g.hosts):
                # take each flow incident to a marked host once, from its
                # sender's list, or from its receiver's when the sender is
                # unmarked
                incident = g._incident_flows
                flows = [
                    f for h in marked for f in incident.get(h, ())
                    if f[0] == h or f[0] not in marked
                ]
        bad = frozenset(pred._failing_flows(flows, mapping))
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
    """Minimal repair sets, using the per-edge check where the template allows.

    For edge-local templates: the one set of flows failing the per-edge
    check (self-flows excluded when the template exempts them), or none.
    When the check accepts a flow between two default hosts and fewer than
    half of the hosts are *marked* (attribute not the default), only flows
    touching a marked host are checked, read from an index of ``g`` built
    on first use.  Templates with ``witnesses`` get the minimal flow sets
    meeting every witness, and raise :class:`TooLarge` as the brute-force
    enumeration does, which other templates fall back to.  The sets come by
    size, then by sorted flows, the order in which the enumeration walks them.
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

_COIN = bytes(128) + bytes([1]) * 128  # a random byte -> one fair coin, for bytes.translate


def find_monotonicity_counterexample(
    inst: InvariantInstance, g: Policy, trials: int, seed: int
) -> Optional[FlowSet]:
    """Search random sub-policies for a monotonicity violation.

    Monotonicity: a satisfied invariant stays satisfied on every stricter
    flow set.  When the invariant holds on ``g``, draws ``trials`` random
    flow subsets and returns the first subset on which it breaks, or None.
    Each subset takes one random byte per flow of ``g`` (in sorted order)
    from ``random.Random(seed)`` and keeps the flow when the byte is 128 or
    more: with probability 1/2, independently of the other flows.  The
    subsets a seed draws, and so the counterexample it finds, differ from
    those of versions that drew one ``random()`` per flow.
    Vacuously passes when the invariant does not hold on ``g``.
    """
    if trials <= 0 or not eval_instance(inst, g):
        return None
    rng = random.Random(seed)
    edges = g.sorted_flows()
    mapping = inst.mapping()
    evaluate = inst.template.evaluate
    for _ in range(trials):
        subset = frozenset(itertools.compress(edges, rng.randbytes(len(edges)).translate(_COIN)))
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
    mapping into ``attr_universe``, or None: policies by size, then
    assignments in product order, each mapping built once for every policy.
    A sound falsifier and, within the given universes, a verifier; it cannot
    speak for larger policies or attribute domains."""
    bare = InvariantInstance(template)  # offenders reads only its template
    hosts = sorted(host_universe)
    combos = itertools.product(attr_universe, repeat=len(hosts))
    mappings = [HostMapping(dict(zip(hosts, combo)), template.default_attr) for combo in combos]
    for g in _policies_on(hosts, edge_bound):
        for mapping in mappings:
            blamed = frozenset()
            for flow_set in _offending_sets(template, g, mapping, edge_bound):
                blamed_here = offenders(bare, flow_set)
                for v in sorted(blamed_here - blamed):
                    remapped = HostMapping({**mapping.entries, v: candidate}, mapping.default)
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
                    return _single_flow_witness(template, hosts, hosts[1], a, b, acs, a)
    if not edge.exempt_reflexive and check(candidate, candidate):
        for a in attr_universe:
            if not check(a, a):
                return _single_flow_witness(template, hosts, hosts[0], a, a, acs, a)
    return None


def _single_flow_witness(
    template: Template, hosts: list, receiver: HostId, a, b, acs: bool, rest
):
    """The policy with the one flow ``hosts[0] -> receiver``, whose sender
    has attribute ``a`` and receiver ``b``; every other host gets ``rest``."""
    sender = hosts[0]
    assignment = dict.fromkeys(hosts, rest)
    assignment[sender] = a
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
    sorted hosts, or a self-flow of the first.  A template with a
    ``default_counterexample`` decides by it, as exactly.  Other templates
    take the bounded enumeration, which returns the first counterexample
    in enumeration order and cannot speak for larger policies or attribute
    domains.
    """
    if candidate is None:
        candidate = template.default_attr
    if template.edge_pred is not None:
        route = _pairwise_secure_default_counterexample
    elif template.default_counterexample is not None:
        route = template.default_counterexample
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

    Exact for edge-local templates and for templates with a
    ``default_counterexample``; otherwise exhaustive within the bounded
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
