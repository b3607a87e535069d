"""Concrete invariant templates and their attribute types.

Shipped templates:

* ``blp_basic`` -- label-based information flow control in the style of a
  simplified Bell-LaPadula model: a flow may only raise the security
  clearance, never lower it.
* ``blp_trust`` -- the same, extended with a trust flag: a trusted host may
  receive anything and declassify it to its own clearance.
* ``domain_hierarchy`` -- hierarchical command structures over dotted domain
  names; a host's trust level lets it act that many levels further up.
* ``security_gateway`` -- domain members must talk to each other through a
  central gateway; a fixed role table decides each sender/receiver pair.
* ``no_transitive_access`` -- a reachability invariant (designated source
  hosts must not reach designated sink hosts over any path).  It has no
  per-edge structure; its repair sets come from its source-to-sink paths.

Each template is described once, by its entry in ``TEMPLATE_REGISTRY`` at
the end of this module: the template, the parse/format codec of its attribute
literals in scenario files, and the finite attribute universe that
``selftest`` draws from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterator

from .graph import HostMapping, Policy
from .invariants import Strategy, Template, edge_template


def _enum_codec(cls) -> tuple:
    """``(parse, format)`` for an enum attribute written as a member name.

    Parsing is case-insensitive; formatting gives the member name.
    """
    expected = f"expected one of {', '.join(m.name for m in cls)}"

    def parse(literal):
        if isinstance(literal, str):
            try:
                return cls[literal.lower()]
            except KeyError:
                pass
        raise ValueError(expected)

    def format_name(value) -> str:
        return value.name

    return parse, format_name


# ---------------------------------------------------------------------------
# clearances and Bell-LaPadula style templates

class Clearance(IntEnum):
    """Totally ordered security clearances, lowest first."""

    unclassified = 0
    confidential = 1
    secret = 2
    topsecret = 3


_parse_clearance = _enum_codec(Clearance)[0]


@dataclass(frozen=True)
class BlpTrustAttr:
    """Security clearance plus a trust flag."""

    sc: Clearance
    trust: bool = False


_BLP_BASIC = edge_template(
    "blp_basic",
    Strategy.IFS,
    Clearance.unclassified,
    lambda snd, rcv: snd <= rcv,
)

_BLP_TRUST = edge_template(
    "blp_trust",
    Strategy.IFS,
    BlpTrustAttr(Clearance.unclassified, False),
    lambda snd, rcv: rcv.trust or snd.sc <= rcv.sc,
)


def blp_basic() -> Template:
    """Receiver clearance must dominate sender clearance on every flow."""
    return _BLP_BASIC


def blp_trust() -> Template:
    """Like ``blp_basic``, but trusted receivers may accept anything."""
    return _BLP_TRUST


# ---------------------------------------------------------------------------
# domain hierarchy

@dataclass(frozen=True)
class DomainName:
    """A position in a dotted-name hierarchy, or the unassigned bottom.

    Positions carry their labels most-specific-first, so the wheels
    sub-department of engineering at company cc is ``("wh", "e", "cc")``.
    The empty name ``()`` is the root, TOP: it sits above every position,
    is not assignable to hosts and only arises when ``chop`` strips every
    label.  UNASSIGNED (labels ``None``) sits below every position and
    is the level of hosts nobody configured.
    """

    labels: tuple | None

    def __repr__(self):
        return f"DomainName({format_domain(self)!r})"


UNASSIGNED = DomainName(None)
TOP = DomainName(())


def domain_name(dotted: str) -> DomainName:
    """Parse ``"wh.e.cc"`` into a regular hierarchy position."""
    if not isinstance(dotted, str) or not dotted:
        raise ValueError("domain name must be a non-empty dotted string")
    labels = tuple(dotted.split("."))
    if any(not label for label in labels):
        raise ValueError(f"domain name {dotted!r} has an empty label")
    return DomainName(labels)


def format_domain(d: DomainName) -> str:
    if d.labels is None:
        return "<unassigned>"
    return ".".join(d.labels) or "<top>"


def leq_domain(a: DomainName, b: DomainName) -> bool:
    """Is ``a`` below or at the same hierarchy position as ``b``?

    Names compare by the suffix relation (``wh.e.cc`` is below ``e.cc`` and
    ``cc``, but unrelated to ``br.e.cc``), so TOP, the empty name, is above
    everything.  UNASSIGNED is below everything.
    """
    if a.labels is None:
        return True
    if b.labels is None:
        return False
    n = len(b.labels)
    return len(a.labels) >= n and a.labels[len(a.labels) - n:] == b.labels


def chop(d: DomainName, n: int) -> DomainName:
    """Strip the ``n`` most specific labels, the hierarchy ascent a trust
    level of ``n`` grants.

    Chopping everything (or more) reaches TOP: such a host may act as if it
    sat at the hierarchy root.  TOP and UNASSIGNED are fixed points.
    """
    if n <= 0 or not d.labels:
        return d
    if n >= len(d.labels):
        return TOP
    return DomainName(d.labels[n:])


@dataclass(frozen=True)
class DomAttr:
    """Hierarchy position plus a non-negative trust level."""

    level: DomainName
    trust: int = 0


_DOMAIN_HIERARCHY = edge_template(
    "domain_hierarchy",
    Strategy.ACS,
    DomAttr(UNASSIGNED, 0),
    lambda snd, rcv: leq_domain(rcv.level, chop(snd.level, snd.trust)),
)


def domain_hierarchy() -> Template:
    """Flows may only stay level or descend the hierarchy, after the
    sender's trust-granted ascent."""
    return _DOMAIN_HIERARCHY


def parse_dom_attr(literal) -> DomAttr:
    if not isinstance(literal, dict):
        raise ValueError('expected an object like {"level": "a.b", "trust": 0}')
    unknown = set(literal) - {"level", "trust"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    if "level" not in literal:
        raise ValueError('missing "level"')
    level = domain_name(literal["level"])
    trust = literal.get("trust", 0)
    if not isinstance(trust, int) or isinstance(trust, bool) or trust < 0:
        raise ValueError('"trust" must be a non-negative integer')
    return DomAttr(level, trust)


def format_dom_attr(value: DomAttr) -> dict:
    if not value.level.labels:
        # the two ends are not assignable in scenario files: omitting a host
        # already means the unassigned bottom, and granting TOP directly
        # would hand out unlimited command power by typo
        raise ValueError(f"level {format_domain(value.level)} is not representable; omit the host instead")
    return {"level": format_domain(value.level), "trust": value.trust}


def parse_blp_trust(literal) -> BlpTrustAttr:
    if not isinstance(literal, dict):
        raise ValueError('expected an object like {"sc": "secret", "trust": false}')
    unknown = set(literal) - {"sc", "trust"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    if "sc" not in literal:
        raise ValueError('missing "sc"')
    trust = literal.get("trust", False)
    if not isinstance(trust, bool):
        raise ValueError('"trust" must be a boolean')
    return BlpTrustAttr(_parse_clearance(literal["sc"]), trust)


def format_blp_trust(value: BlpTrustAttr) -> dict:
    return {"sc": value.sc.name, "trust": value.trust}


# ---------------------------------------------------------------------------
# security gateway

class SgwRole(Enum):
    """Roles of the security gateway architecture.

    ``sgw`` is the gateway itself, ``sgwa`` a gateway additionally
    accessible from outside, ``memb`` a domain member, and ``default``
    everything else.
    """

    sgw = "sgw"
    sgwa = "sgwa"
    memb = "memb"
    default = "default"


# The only forbidden sender/receiver role pairs: members must not talk to
# each other directly, and the outside world reaches neither members nor
# the inward-facing gateway.
_SGW_DENIED = frozenset(
    {
        (SgwRole.memb, SgwRole.memb),
        (SgwRole.default, SgwRole.sgw),
        (SgwRole.default, SgwRole.memb),
    }
)

_SECURITY_GATEWAY = edge_template(
    "security_gateway",
    Strategy.ACS,
    SgwRole.default,
    lambda snd, rcv: (snd, rcv) not in _SGW_DENIED,
    exempt_reflexive=True,
)


def security_gateway() -> Template:
    """Role-table access control; in-host traffic is always permitted."""
    return _SECURITY_GATEWAY


# ---------------------------------------------------------------------------
# transitive reachability (no per-edge structure)

class ReachRole(Enum):
    """Marks hosts for the reachability invariant."""

    src = "src"
    snk = "snk"
    none = "none"


def _no_reach_evaluate(g: Policy, mapping: HostMapping) -> bool:
    get = mapping.entries.get
    dft = mapping.default
    sources = [h for h in g.hosts if get(h, dft) is ReachRole.src]
    sinks = {h for h in g.hosts if get(h, dft) is ReachRole.snk}
    if not sources or not sinks:
        return True
    succ = {}
    for s, r in g.flows:
        succ.setdefault(s, []).append(r)
    seen = set()
    frontier = [r for s in sources for r in succ.get(s, ())]
    while frontier:
        host = frontier.pop()
        if host in seen:
            continue
        if host in sinks:
            return False
        seen.add(host)
        frontier.extend(succ.get(host, ()))
    return True


def _no_reach_witnesses(g: Policy, mapping: HostMapping) -> Iterator[frozenset]:
    """The flow sets of the simple paths from a source to a sink that pass
    through no other source or sink, lazily, each once.

    Every source-to-sink path holds one: its stretch from the last source
    before its first sink.  Each stack entry is a host, the flows of the
    path that reached it and the hosts on that path; the walk never steps
    into a source or onto a host already on the path (so a self-flow is
    skipped) and stops at the first sink.  The stack is its own, so a long
    path cannot exhaust the interpreter's.
    """
    get = mapping.entries.get
    dft = mapping.default
    role = {h: get(h, dft) for h in g.hosts}
    succ = {}
    for s, r in g.flows:
        if role[r] is not ReachRole.src:
            succ.setdefault(s, []).append(r)
    stack = [(h, (), frozenset({h})) for h in g.hosts if role[h] is ReachRole.src]
    while stack:
        host, path, on_path = stack.pop()
        for nxt in succ.get(host, ()):
            if nxt in on_path:
                continue
            flows = (*path, (host, nxt))
            if role[nxt] is ReachRole.snk:
                yield frozenset(flows)
            else:
                stack.append((nxt, flows, on_path | {nxt}))


_NO_TRANSITIVE_ACCESS = Template(
    "no_transitive_access",
    Strategy.ACS,
    ReachRole.src,
    _no_reach_evaluate,
    witnesses=_no_reach_witnesses,
)


def no_transitive_access() -> Template:
    """No directed path may lead from a source-marked host to a sink-marked one.

    Reachability is a path property, so a violation can have several
    alternative repair sets: the minimal flow sets that cut every path.
    """
    return _NO_TRANSITIVE_ACCESS


# ---------------------------------------------------------------------------
# bounded attribute universes for the default-attribute checks

def domain_fragment(depth: int = 3, labels: tuple = ("a", "b"), max_trust: int = 2) -> list:
    """A finite slice of the domain-attribute space.

    Every domain name of at most ``depth`` labels over the given alphabet,
    paired with every trust up to ``max_trust``, plus the unassigned bottom.
    The bottom only appears with trust zero: trust buys ascent from one's
    hierarchy position, and the bottom is not a position, so nonzero trust
    adds nothing there and would only duplicate the same semantics under
    another name.
    """
    names = {w for d in range(1, depth + 1) for w in itertools.product(labels, repeat=d)}
    fragment = [DomAttr(UNASSIGNED, 0)]
    for name in sorted(names):
        for trust in range(max_trust + 1):
            fragment.append(DomAttr(DomainName(name), trust))
    return fragment


# ---------------------------------------------------------------------------
# the registry: one entry per template


@dataclass(frozen=True)
class TemplateIO:
    """A registered template with its attribute literal codec and the finite
    attribute universe that ``selftest`` draws from."""

    template: Template
    parse_attr: Callable
    format_attr: Callable
    universe: tuple


TEMPLATE_REGISTRY = {
    entry.template.name: entry
    for entry in (
        TemplateIO(blp_basic(), *_enum_codec(Clearance), tuple(Clearance)),
        TemplateIO(
            blp_trust(),
            parse_blp_trust,
            format_blp_trust,
            tuple(BlpTrustAttr(sc, trust) for sc in Clearance for trust in (False, True)),
        ),
        TemplateIO(
            domain_hierarchy(),
            parse_dom_attr,
            format_dom_attr,
            tuple(domain_fragment(depth=2, max_trust=1)),
        ),
        TemplateIO(security_gateway(), *_enum_codec(SgwRole), tuple(SgwRole)),
        TemplateIO(no_transitive_access(), *_enum_codec(ReachRole), tuple(ReachRole)),
    )
}
