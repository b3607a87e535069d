"""Shared builders for the test suite: random corpora, independent oracles,
and the cabin-network fixture."""

from __future__ import annotations

import itertools
import json
import random

import policyverif as pv
from policyverif import cli


def random_policy(rng: random.Random, max_hosts=5, max_edges=8, prefix="h"):
    n = rng.randint(1, max_hosts)
    hosts = [f"{prefix}{i}" for i in range(n)]
    pairs = [(a, b) for a in hosts for b in hosts]
    rng.shuffle(pairs)
    k = rng.randint(0, min(max_edges, len(pairs)))
    return pv.make_policy(hosts, pairs[:k])


def exhaustive_assignments(hosts, universe):
    """Every total mapping from the hosts into the attribute universe."""
    hosts = sorted(hosts)
    for combo in itertools.product(universe, repeat=len(hosts)):
        yield dict(zip(hosts, combo))


# Small per-template attribute universes for exhaustive-assignment corpora.
# Chosen so satisfied and violated cases both occur, and (for blp_trust,
# domain_hierarchy, security_gateway) every branch of the predicate fires.
CORPUS = {
    "blp_basic": dict(
        template=pv.blp_basic,
        attrs=[pv.Clearance.unclassified, pv.Clearance.secret],
        max_hosts=5,
    ),
    "blp_trust": dict(
        template=pv.blp_trust,
        attrs=[
            pv.BlpTrustAttr(pv.Clearance.secret, False),
            pv.BlpTrustAttr(pv.Clearance.unclassified, False),
            pv.BlpTrustAttr(pv.Clearance.unclassified, True),
        ],
        max_hosts=4,
    ),
    "domain_hierarchy": dict(
        template=pv.domain_hierarchy,
        attrs=[
            pv.DomAttr(pv.UNASSIGNED, 0),
            pv.DomAttr(pv.domain_name("a.b"), 0),
            pv.DomAttr(pv.domain_name("b"), 1),
        ],
        # the unassigned bottom has no file literal; hosts get it by omission
        file_attrs=[pv.DomAttr(pv.domain_name("a.b"), 0), pv.DomAttr(pv.domain_name("b"), 1)],
        max_hosts=4,
    ),
    "security_gateway": dict(
        template=pv.security_gateway,
        attrs=[pv.SgwRole.sgw, pv.SgwRole.memb, pv.SgwRole.default],
        max_hosts=4,
    ),
}


def c09_instances(hosts, count):
    """The C09 scaling workload: ``count`` edge-local invariants cycling
    through the four templates, each configuring one to two of the first
    four hosts."""
    level_x = pv.domain_name("x")
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            out.append(
                pv.InvariantInstance(
                    pv.blp_basic(),
                    {hosts[0]: pv.Clearance.secret, hosts[1]: pv.Clearance.confidential},
                )
            )
        elif kind == 1:
            out.append(
                pv.InvariantInstance(
                    pv.blp_trust(),
                    {
                        hosts[0]: pv.BlpTrustAttr(pv.Clearance.secret, False),
                        hosts[2]: pv.BlpTrustAttr(pv.Clearance.unclassified, True),
                    },
                )
            )
        elif kind == 2:
            out.append(
                pv.InvariantInstance(pv.domain_hierarchy(), {hosts[0]: pv.DomAttr(level_x, 0)})
            )
        else:
            out.append(
                pv.InvariantInstance(pv.security_gateway(), {hosts[3]: pv.SgwRole.sgwa})
            )
    return out


def always_false_template():
    """A deliberately broken template: monotone, but false even on the
    flow-less policy, so violations are never repairable."""
    return pv.Template(
        "always_false",
        pv.Strategy.ACS,
        None,
        lambda g, mapping: False,
    )


def assert_def3_conjuncts(inst, policy, flow_set):
    """The three defining properties of one offending flow set."""
    assert flow_set <= policy.flows
    assert not pv.eval_instance(inst, policy)
    remainder = policy.without_flows(flow_set)
    assert pv.eval_instance(inst, remainder)
    for flow in flow_set:
        again = pv.Policy(policy.hosts, remainder.flows | {flow})
        assert not pv.eval_instance(inst, again)


def self_flow_templates():
    """Custom edge-local templates that reject a self-flow: with attributes
    {0, 1} and default 0, a host of attribute 1 fails its own self-flow,
    unless the template exempts self-flows."""
    return [
        pv.edge_template(f"self_{strategy.value}_{exempt}", strategy, 0, predicate, exempt)
        for strategy, predicate in (
            (pv.Strategy.ACS, lambda a, b: b == 0),
            (pv.Strategy.IFS, lambda a, b: a == 0),
        )
        for exempt in (False, True)
    ]


def default_fails_templates():
    """Edge-local templates whose (default, default) pair fails: with
    attributes {0, 1} and default 0, only a flow touching a host of
    attribute 1 passes, so every flow must be scanned, and the unmarked
    hosts' class is blocked to itself (each host's self-flow excepted
    where the template exempts self-flows)."""
    return [
        pv.edge_template(f"default_fails_{exempt}", pv.Strategy.ACS, 0,
                         lambda a, b: a == 1 or b == 1, exempt)
        for exempt in (False, True)
    ]


def construct_by_flow_scan(hosts, invariants, edge_bound=pv.DEFAULT_EDGE_BOUND):
    """Reference for construct_max_policy: from allow-all, remove each
    invariant's offending flows on the current remainder, one invariant at a
    time."""
    current = pv.allow_all(hosts)
    for inst in invariants:
        removal = {f for fs in pv.offending_flows(inst, current, edge_bound) for f in fs}
        if removal:
            current = current.without_flows(removal)
    return current


def reach_witnesses_reference(g, role):
    """The flow sets of the simple paths of ``g`` that start at a source, end
    at the first sink and pass through no other source or sink, from the
    permutations of the hosts."""
    found = set()
    for k in range(2, len(g.hosts) + 1):
        for path in itertools.permutations(sorted(g.hosts), k):
            flows = list(zip(path, path[1:]))
            if (
                role(path[0]) is pv.ReachRole.src
                and role(path[-1]) is pv.ReachRole.snk
                and all(role(h) is pv.ReachRole.none for h in path[1:-1])
                and all(flow in g.flows for flow in flows)
            ):
                found.add(frozenset(flows))
    return found


def satisfied_variant(inst, policy):
    """A sub-policy of ``policy`` on which the instance holds."""
    removal = {f for fs in pv.offending_flows(inst, policy) for f in fs}
    return policy.without_flows(removal)


# ---------------------------------------------------------------------------
# cabin network fixture

CABIN_HOSTS = ["CC", "C1", "C2", "Wifi", "IFEsrv", "IFE1", "IFE2", "P1", "P2", "SAT"]


def cabin_domain_hierarchy():
    level = pv.domain_name
    return pv.InvariantInstance(
        pv.domain_hierarchy(),
        {
            "CC": pv.DomAttr(level("crew.aircraft"), 1),
            "C1": pv.DomAttr(level("crew.aircraft"), 0),
            "C2": pv.DomAttr(level("crew.aircraft"), 0),
            "IFEsrv": pv.DomAttr(level("entertain.aircraft"), 0),
            "IFE1": pv.DomAttr(level("entertain.aircraft"), 0),
            "IFE2": pv.DomAttr(level("entertain.aircraft"), 0),
            "SAT": pv.DomAttr(level("INET.entertain.aircraft"), 0),
            "Wifi": pv.DomAttr(level("POD.entertain.aircraft"), 1),
            "P1": pv.DomAttr(level("POD.entertain.aircraft"), 0),
            "P2": pv.DomAttr(level("POD.entertain.aircraft"), 0),
        },
    )


def cabin_security_gateway():
    return pv.InvariantInstance(
        pv.security_gateway(),
        {"IFEsrv": pv.SgwRole.sgwa, "IFE1": pv.SgwRole.memb, "IFE2": pv.SgwRole.memb},
    )


def cabin_blp_trust():
    secret = pv.Clearance.secret
    confidential = pv.Clearance.confidential
    return pv.InvariantInstance(
        pv.blp_trust(),
        {
            "CC": pv.BlpTrustAttr(secret, False),
            "C1": pv.BlpTrustAttr(secret, False),
            "C2": pv.BlpTrustAttr(secret, False),
            "IFE1": pv.BlpTrustAttr(confidential, False),
            "IFE2": pv.BlpTrustAttr(confidential, False),
            "IFEsrv": pv.BlpTrustAttr(pv.Clearance.unclassified, True),
        },
    )


def cabin_invariants():
    return (cabin_domain_hierarchy(), cabin_security_gateway(), cabin_blp_trust())


# ---------------------------------------------------------------------------
# reference renderers: the straightforward encoders the CLI's direct ones
# must match byte for byte


def _flow_str(flow):
    return f"{flow[0]} -> {flow[1]}"


def verify_json_reference(report):
    return json.dumps(cli.report_to_data(report), indent=2)


def construct_json_reference(policy, maximal):
    data = cli.policy_to_data(policy)
    data["maximal"] = maximal
    return json.dumps(data, indent=2)


def diff_json_reference(result):
    return json.dumps(cli.diff_to_data(result), indent=2)


def render_policy_reference(policy, maximal):
    lines = [f"hosts ({len(policy.hosts)}): {', '.join(sorted(policy.hosts))}"]
    flows = sorted(policy.flows)
    lines.append(f"flows ({len(flows)}):")
    lines.extend(f"  {_flow_str(f)}" for f in flows)
    text = "\n".join(lines)
    if not maximal:
        text += ("\nnote: sound, possibly non-maximal (an invariant "
                 "without per-edge structure participates)")
    return text


def render_diff_reference(result):
    lines = [f"violating flows ({len(result.violating)}):"]
    lines.extend(f"  {_flow_str(f)}" for f in sorted(result.violating))
    lines.append(f"permitted but missing ({len(result.permitted_missing)}):")
    lines.extend(f"  {_flow_str(f)}" for f in sorted(result.permitted_missing))
    lines.append(
        f"reflexive flows (always permitted, reported separately): {len(result.reflexive)}"
    )
    return "\n".join(lines)


def _dot_quote(name):
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def export_dot_reference(policy, diff=None):
    violating = diff.violating if diff is not None else frozenset()
    missing = diff.permitted_missing if diff is not None else frozenset()
    lines = ["digraph policy {"]
    for host in sorted(policy.hosts):
        lines.append(f"  {_dot_quote(host)};")
    shown = {(s, r) for s, r in policy.flows if s != r} | set(missing)
    for s, r in sorted(shown):
        if (s, r) in violating:
            attrs = " [color=red]"
        elif (s, r) in missing:
            attrs = " [style=dashed]"
        else:
            attrs = ""
        lines.append(f"  {_dot_quote(s)} -> {_dot_quote(r)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"
