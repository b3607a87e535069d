"""Security policies as directed graphs, plus host attribute mappings.

A policy is a set of hosts and a set of allowed flows between them.  Host
attributes live outside the graph: users supply a partial host-to-attribute
configuration and a default attribute turns it into a total mapping.  All
types here are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product, repeat
from typing import Generic, Iterable, Mapping, Tuple, TypeVar

from .errors import DanglingEndpoint

A = TypeVar("A")

HostId = str
Flow = Tuple[HostId, HostId]
FlowSet = frozenset  # frozenset[Flow]; one repair option for a violation


class _kept(cached_property):
    """``cached_property`` without the lock that Python 3.11 takes on each first read."""

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.__dict__.setdefault(self.attrname, self.func(obj))


@dataclass(frozen=True)
class Policy:
    """A directed graph of allowed flows.  Every flow endpoint is a host."""

    hosts: frozenset
    flows: frozenset

    def __post_init__(self):
        for flow in self.flows:
            if flow[0] not in self.hosts or flow[1] not in self.hosts:
                raise DanglingEndpoint(flow)

    def sorted_hosts(self) -> list:
        return sorted(self.hosts)

    def sorted_flows(self) -> list:
        return list(self._sorted_flows)

    @_kept
    def _sorted_flows(self) -> tuple:
        # sorted once per policy: a command that renders text and DOT reuses it
        return tuple(sorted(self.flows))

    @_kept
    def _incident_flows(self) -> dict:
        """Each host with a flow, mapped to the flows it sends or receives (a
        self-flow once); verify reads it for each edge-local invariant marking few hosts."""
        index = {}
        for flow in self.flows:
            s, r = flow
            index.setdefault(s, []).append(flow)
            if r != s:
                index.setdefault(r, []).append(flow)
        return index

    def without_flows(self, removed: Iterable[Flow]) -> "Policy":
        return _derived_policy(self.hosts, self.flows - frozenset(removed))


def _derived_policy(hosts: frozenset, flows: frozenset, sorted_flows: tuple = None) -> Policy:
    """A policy from a host set and a flow set already known to lie within it
    (and, if the caller has them, those flows sorted).

    For sub-policies derived inside the library (a checked policy's flows,
    or pairs of its own hosts) and for the scenario loader, whose parsers
    check every name and endpoint, this skips the check of ``Policy(...)``.
    """
    policy = object.__new__(Policy)
    fields = policy.__dict__
    fields["hosts"] = hosts
    fields["flows"] = flows
    if sorted_flows is not None:
        fields["_sorted_flows"] = sorted_flows
    return policy


def _checked_hosts(hosts: Iterable[HostId]) -> frozenset:
    hostset = frozenset(hosts)
    for h in hostset:
        if not isinstance(h, str) or not h:
            raise ValueError(f"host names must be non-empty strings, got {h!r}")
    return hostset


def make_policy(hosts: Iterable[HostId], flows: Iterable[Flow]) -> Policy:
    """Build a policy, rejecting flows whose endpoints are not in ``hosts``."""
    return Policy(_checked_hosts(hosts), frozenset((s, r) for s, r in flows))


def _walk(hosts: frozenset, blocked: Mapping[HostId, set]) -> list:
    """Every ordered pair of ``hosts`` whose receiver is not in its sender's
    ``blocked`` set, sorted: senders in order, each one's receivers in order."""
    order = sorted(hosts)
    walked, left = [], {}  # left: id of a blocked set -> the receivers it leaves, in order
    for s in order:
        skip = blocked[s]
        if id(skip) not in left:
            left[id(skip)] = [r for r in order if r not in skip]
        walked += zip(repeat(s), left[id(skip)])
    return walked


def allow_all(hosts: Iterable[HostId]) -> Policy:
    """The most permissive policy: every ordered pair, reflexive pairs included.

    Host names are checked; the pairs of those hosts need no endpoint check.
    """
    hosts = _checked_hosts(hosts)
    return _derived_policy(hosts, frozenset(product(hosts, repeat=2)))


def deny_all(hosts: Iterable[HostId]) -> Policy:
    """Same hosts, no flows at all."""
    return _derived_policy(_checked_hosts(hosts), frozenset())


@dataclass(frozen=True)
class HostMapping(Generic[A]):
    """Total host-to-attribute function: configured entries plus a default.

    ``lookup`` is defined for every host id, including ids that never occur
    in any policy.
    """

    entries: Mapping[HostId, A] = field(default_factory=dict)
    default: A = None

    def lookup(self, host: HostId) -> A:
        return self.entries.get(host, self.default)

    @_kept
    def _marked(self) -> dict:
        """The *marked* hosts, whose attribute is not the default, each mapped to it."""
        dft = self.default
        return {h: attr for h, attr in self.entries.items() if attr != dft}


def total_map(config: Mapping[HostId, A], default: A) -> HostMapping:
    """Complete a partial attribute configuration with a default attribute."""
    return HostMapping(dict(config), default)
