import dataclasses
import inspect
import itertools
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv
from policyverif.invariants import _bounded_secure_default_counterexample, _minimal_transversals

from helpers import (
    CORPUS,
    always_false_template,
    assert_def3_conjuncts,
    exhaustive_assignments,
    random_policy,
    reach_witnesses_reference,
    satisfied_variant,
    self_flow_templates,
)


def blp_db1():
    return pv.InvariantInstance(pv.blp_basic(), {"db1": pv.Clearance.confidential})


# ---------------------------------------------------------------------------
# evaluation

def test_eval_blp_leak():
    g = pv.make_policy({"db1", "web"}, {("db1", "web")})
    assert pv.eval_instance(blp_db1(), g) is False


def test_eval_reflexive_edge_is_fine():
    g = pv.make_policy({"db1", "web"}, {("db1", "db1")})
    assert pv.eval_instance(blp_db1(), g) is True


def test_eval_deny_all_always_holds():
    for spec in CORPUS.values():
        inst = pv.InvariantInstance(spec["template"](), {})
        assert pv.eval_instance(inst, pv.deny_all({"a", "b", "c"})) is True


def test_compose_empty_is_true():
    assert pv.compose([], pv.make_policy({"A"}, set())) is True


def test_compose_one_violation_sinks_all():
    g = pv.make_policy({"db1", "web"}, {("db1", "web")})
    fine = pv.InvariantInstance(pv.blp_basic(), {})
    assert pv.compose([fine], g) is True
    assert pv.compose([fine, blp_db1()], g) is False


# ---------------------------------------------------------------------------
# offending flows, brute force

def transitive_chain():
    inst = pv.InvariantInstance(
        pv.no_transitive_access(), {"v1": pv.ReachRole.src, "v3": pv.ReachRole.snk, "v2": pv.ReachRole.none}
    )
    g = pv.make_policy({"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v3")})
    return inst, g


def test_bruteforce_transitive_chain_has_two_repairs():
    inst, g = transitive_chain()
    assert pv.eval_instance(inst, g) is False
    result = pv.offending_flows_bruteforce(inst, g)
    assert result == [frozenset({("v1", "v2")}), frozenset({("v2", "v3")})]


def test_bruteforce_satisfied_is_empty():
    inst, g = transitive_chain()
    shorter = pv.make_policy(g.hosts, {("v1", "v2")})
    assert pv.offending_flows_bruteforce(inst, shorter) == []


def test_bruteforce_blp_single_edge():
    g = pv.make_policy({"db1", "web"}, {("db1", "web")})
    assert pv.offending_flows_bruteforce(blp_db1(), g) == [frozenset({("db1", "web")})]


def test_bruteforce_too_large_only_when_violated():
    hosts = {"a"} | {f"b{i}" for i in range(17)}
    bad = pv.make_policy(hosts, {("a", f"b{i}") for i in range(17)})
    inst = pv.InvariantInstance(pv.blp_basic(), {"a": pv.Clearance.secret})
    with pytest.raises(pv.TooLarge):
        pv.offending_flows_bruteforce(inst, bad)
    satisfied = pv.InvariantInstance(pv.blp_basic(), {})
    assert pv.offending_flows_bruteforce(satisfied, bad) == []


def test_bruteforce_bound_is_configurable():
    inst, g = transitive_chain()
    with pytest.raises(pv.TooLarge):
        pv.offending_flows_bruteforce(inst, g, edge_bound=1)


def test_bruteforce_disjoint_paths_give_four_repairs():
    # two edge-disjoint routes: repairs combine one cut per route
    inst = pv.InvariantInstance(
        pv.no_transitive_access(),
        {"s": pv.ReachRole.src, "t": pv.ReachRole.snk,
         "a": pv.ReachRole.none, "b": pv.ReachRole.none},
    )
    g = pv.make_policy(
        {"s", "a", "b", "t"},
        {("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")},
    )
    result = set(pv.offending_flows_bruteforce(inst, g))
    assert result == {
        frozenset({("s", "a"), ("s", "b")}),
        frozenset({("s", "a"), ("b", "t")}),
        frozenset({("a", "t"), ("s", "b")}),
        frozenset({("a", "t"), ("b", "t")}),
    }
    for flow_set in result:
        assert_def3_conjuncts(inst, g, flow_set)


def test_bruteforce_repair_sets_of_mixed_sizes():
    # direct edge plus a branching detour: one size-2 repair and two size-3
    # repairs, derived by hand from the path structure
    inst = pv.InvariantInstance(
        pv.no_transitive_access(),
        {"s": pv.ReachRole.src, "t": pv.ReachRole.snk,
         "x": pv.ReachRole.none, "y": pv.ReachRole.none},
    )
    g = pv.make_policy(
        {"s", "x", "y", "t"},
        {("s", "t"), ("s", "x"), ("x", "t"), ("x", "y"), ("y", "t")},
    )
    result = pv.offending_flows_bruteforce(inst, g)
    assert result == [
        frozenset({("s", "t"), ("s", "x")}),
        frozenset({("s", "t"), ("x", "t"), ("x", "y")}),
        frozenset({("s", "t"), ("x", "t"), ("y", "t")}),
    ]
    for flow_set in result:
        assert_def3_conjuncts(inst, g, flow_set)


def test_bruteforce_gateway_reflexive_only_policy():
    inst = pv.InvariantInstance(
        pv.security_gateway(), {"m1": pv.SgwRole.memb, "m2": pv.SgwRole.memb}
    )
    g = pv.make_policy({"m1", "m2"}, {("m1", "m1"), ("m2", "m2")})
    assert pv.eval_instance(inst, g)
    assert pv.offending_flows_bruteforce(inst, g) == []
    assert pv.offending_flows(inst, g) == []


# ---------------------------------------------------------------------------
# offending flows, fast path

def test_fast_path_blp_closed_form():
    inst = pv.InvariantInstance(
        pv.blp_basic(), {"db1": pv.Clearance.confidential, "db2": pv.Clearance.secret}
    )
    g = pv.make_policy(
        {"db1", "db2", "web"},
        {("db1", "web"), ("db2", "db1"), ("web", "db1"), ("db1", "db2")},
    )
    np = inst.mapping()
    expected = frozenset(
        (s, r) for s, r in g.flows if np.lookup(s) > np.lookup(r)
    )
    assert pv.offending_flows(inst, g) == [expected]
    assert expected == {("db1", "web"), ("db2", "db1")}


def test_fast_path_satisfied_is_empty():
    inst = pv.InvariantInstance(pv.blp_basic(), {})
    g = pv.allow_all({"a", "b"})
    assert pv.offending_flows(inst, g) == []


def test_fast_path_security_gateway_matches_bruteforce():
    inst = pv.InvariantInstance(pv.security_gateway(), {"IFE1": pv.SgwRole.memb})
    g = pv.make_policy({"P1", "IFE1"}, {("P1", "IFE1")})
    fast = pv.offending_flows(inst, g)
    assert fast == [frozenset({("P1", "IFE1")})]
    assert fast == pv.offending_flows_bruteforce(inst, g)


def test_fast_path_falls_back_for_path_invariants():
    inst, g = transitive_chain()
    assert pv.offending_flows(inst, g) == pv.offending_flows_bruteforce(inst, g)
    with pytest.raises(pv.TooLarge):
        big = pv.make_policy(
            {f"v{i}" for i in range(18)}, {(f"v{i}", f"v{i+1}") for i in range(17)}
        )
        big_inst = pv.InvariantInstance(
            pv.no_transitive_access(), {"v0": pv.ReachRole.src, "v17": pv.ReachRole.snk}
        )
        pv.offending_flows(big_inst, big)


# ---------------------------------------------------------------------------
# offending flows, witness route

def _reaches(flows, starts, targets):
    """Does a path of one or more flows lead from ``starts`` into ``targets``?"""
    frontier = [r for s, r in flows if s in starts]
    seen = set()
    while frontier:
        host = frontier.pop()
        if host in targets:
            return True
        if host not in seen:
            seen.add(host)
            frontier.extend(r for s, r in flows if s == host)
    return False


def reach_cases():
    """Every role assignment of 1-4 hosts, each host configured to a role or
    left to the default (src), with three seeded flow sets of up to 10 flows."""
    rng = random.Random(2016)
    for n in range(1, 5):
        hosts = [f"h{i}" for i in range(n)]
        pairs = [(a, b) for a in hosts for b in hosts]
        for combo in itertools.product([*pv.ReachRole, None], repeat=n):
            config = {h: role for h, role in zip(hosts, combo) if role is not None}
            inst = pv.InvariantInstance(pv.no_transitive_access(), config)
            for _ in range(3):
                flows = rng.sample(pairs, rng.randint(0, min(10, len(pairs))))
                yield inst, pv.make_policy(hosts, flows)


def test_witness_route_equals_the_enumeration():
    seen = dict.fromkeys(
        ["violated", "configured src", "self-flow", "cycle", "snk -> src", "second sink"], 0
    )
    for inst, g in reach_cases():
        found = pv.offending_flows(inst, g)
        assert found == pv.offending_flows_bruteforce(inst, g)
        for bound in range(4):
            try:
                expected = pv.offending_flows_bruteforce(inst, g, bound)
            except pv.TooLarge as exc:
                with pytest.raises(pv.TooLarge, match=re.escape(str(exc))):
                    pv.offending_flows(inst, g, bound)
            else:
                assert pv.offending_flows(inst, g, bound) == expected
        role = inst.mapping().lookup
        # checked directly, since Berge absorbs extra supersets
        witnesses = list(inst.template.witnesses(g, inst.mapping()))
        assert len(witnesses) == len(set(witnesses))
        assert set(witnesses) == reach_witnesses_reference(g, role)
        # no witness holds another, so every witness flow is in a repair set
        assert set().union(*witnesses) == set().union(*found)
        sources = {h for h in g.hosts if role(h) is pv.ReachRole.src}
        sinks = {h for h in g.hosts if role(h) is pv.ReachRole.snk}
        edges = {(s, r) for s, r in g.flows if s != r}
        seen["violated"] += not pv.eval_instance(inst, g)
        seen["configured src"] += pv.ReachRole.src in inst.config.values()
        seen["self-flow"] += len(edges) < len(g.flows)
        seen["cycle"] += any(_reaches(edges, {h}, {h}) for h in g.hosts)
        seen["snk -> src"] += any(role(s) is pv.ReachRole.snk and r in sources for s, r in edges)
        seen["second sink"] += any(
            _reaches(edges, sources, {k}) and _reaches(edges, {k}, sinks - {k}) for k in sinks
        )
    assert all(seen.values()), seen


def test_witness_route_on_complete_graphs_gives_every_cut():
    # allow-all over src, snk and k none hosts: the minimal repair sets are
    # the cuts S x (hosts - S), for S = {src} plus any set of none hosts
    for k in range(6):
        others = [f"n{i}" for i in range(k)]
        hosts = ["src", "snk", *others]
        config = dict.fromkeys(others, pv.ReachRole.none)
        config.update(src=pv.ReachRole.src, snk=pv.ReachRole.snk)
        inst = pv.InvariantInstance(pv.no_transitive_access(), config)
        g = pv.allow_all(hosts)
        cuts = []
        for size in range(k + 1):
            for extra in itertools.combinations(others, size):
                side = {"src", *extra}
                cuts.append(frozenset((u, v) for u in side for v in hosts if v not in side))
        expected = sorted(cuts, key=lambda fs: (len(fs), sorted(fs)))
        assert pv.offending_flows(inst, g, edge_bound=len(g.flows)) == expected


def test_minimal_transversals_equal_the_minimal_hitting_sets():
    rng = random.Random(2016)
    seen = dict.fromkeys(["empty", "nested", "duplicate", "singleton", "disjoint"], 0)
    for _ in range(400):
        universe = range(rng.randint(1, 8))
        family = [
            frozenset(rng.sample(universe, rng.randint(1, len(universe))))
            for _ in range(rng.randint(0, 6))
        ]
        union = sorted(set().union(*family))
        hitting = [
            frozenset(c)
            for size in range(len(union) + 1)
            for c in itertools.combinations(union, size)
            if all(s.intersection(c) for s in family)
        ]
        expected = {h for h in hitting if not any(o < h for o in hitting)}
        for order in (family, rng.sample(family, len(family))):
            found = _minimal_transversals(order)
            assert len(found) == len(set(found))
            assert set(found) == expected
        pairs = list(itertools.combinations(family, 2))
        seen["empty"] += not family
        seen["nested"] += any(a < b or b < a for a, b in pairs)
        seen["duplicate"] += any(a == b for a, b in pairs)
        seen["singleton"] += any(len(s) == 1 for s in family)
        seen["disjoint"] += any(not a & b for a, b in pairs)
    assert all(seen.values()), seen


def test_witness_route_walks_a_long_chain_without_recursion():
    hosts = [f"v{i:03d}" for i in range(200)]
    config = dict.fromkeys(hosts[1:-1], pv.ReachRole.none)
    config[hosts[0]] = pv.ReachRole.src
    config[hosts[-1]] = pv.ReachRole.snk
    inst = pv.InvariantInstance(pv.no_transitive_access(), config)
    chain = list(zip(hosts, hosts[1:]))
    g = pv.make_policy(hosts, chain)
    # far below one frame per host: a recursive walk would fail here
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        result = pv.offending_flows(inst, g, edge_bound=250)
    finally:
        sys.setrecursionlimit(limit)
    assert result == [frozenset({flow}) for flow in chain]


# ---------------------------------------------------------------------------
# offenders

def test_offenders_ifs_blames_receivers():
    assert pv.offenders(blp_db1(), {("db1", "web")}) == {"web"}


def test_offenders_acs_blames_senders():
    inst = pv.InvariantInstance(pv.security_gateway(), {})
    assert pv.offenders(inst, {("P1", "IFE1")}) == {"P1"}


def test_offenders_empty():
    assert pv.offenders(blp_db1(), frozenset()) == frozenset()


# ---------------------------------------------------------------------------
# deny-all validity and the broken template

def test_deny_all_validity_for_shipped_templates():
    for spec in CORPUS.values():
        inst = pv.InvariantInstance(spec["template"](), {})
        assert pv.check_deny_all_validity(inst, {"x", "y"}) is True
    inst = pv.InvariantInstance(pv.no_transitive_access(), {})
    assert pv.check_deny_all_validity(inst, {"x", "y"}) is True


def test_broken_template_fails_deny_all_and_has_no_repairs():
    inst = pv.InvariantInstance(always_false_template(), {})
    g = pv.make_policy({"a", "b"}, {("a", "b")})
    assert pv.check_deny_all_validity(inst, g.hosts) is False
    assert pv.eval_instance(inst, g) is False
    assert pv.offending_flows_bruteforce(inst, g) == []


# ---------------------------------------------------------------------------
# monotonicity checks

def test_monotonicity_random_subsets_for_edge_templates():
    for name, spec in CORPUS.items():
        inst = pv.InvariantInstance(spec["template"](), {})
        g = pv.allow_all({"a", "b", "c"})
        g = satisfied_variant(inst, g)
        assert pv.check_monotonicity(inst, g, trials=50, seed=7), name


def test_monotonicity_transitive_template_exhaustive():
    hosts = ["v1", "v2", "v3", "v4"]
    edges = [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v3"), ("v2", "v4")]
    inst = pv.InvariantInstance(
        pv.no_transitive_access(), {"v1": pv.ReachRole.src, "v4": pv.ReachRole.snk}
    )
    for k in range(len(edges) + 1):
        for big in itertools.combinations(edges, k):
            if not pv.eval_instance(inst, pv.make_policy(hosts, big)):
                continue
            for j in range(k + 1):
                for small in itertools.combinations(big, j):
                    assert pv.eval_instance(inst, pv.make_policy(hosts, small))


def test_monotonicity_zero_trials_is_vacuous():
    inst = pv.InvariantInstance(pv.blp_basic(), {"a": pv.Clearance.secret})
    g = pv.make_policy({"a", "b"}, {("a", "b")})
    assert pv.check_monotonicity(inst, g, trials=0, seed=0) is True


def test_monotonicity_counterexample_for_non_monotone_predicate():
    needs_edge = pv.Template(
        "needs_edge", pv.Strategy.ACS, None, lambda g, mapping: bool(g.flows)
    )
    inst = pv.InvariantInstance(needs_edge, {})
    g = pv.make_policy({"a", "b"}, {("a", "b")})
    counterexample = pv.find_monotonicity_counterexample(inst, g, trials=64, seed=1)
    assert counterexample == frozenset()
    assert pv.check_monotonicity(inst, g, trials=64, seed=1) is False


# ---------------------------------------------------------------------------
# repairability (violations fixable iff the flow-less policy is valid)

def test_repairability_both_directions_small_corpus():
    rng = random.Random(42)
    for name, spec in CORPUS.items():
        template = spec["template"]()
        for _ in range(40):
            g = random_policy(rng, max_hosts=3, max_edges=5)
            for assignment in exhaustive_assignments(g.hosts, spec["attrs"][:2]):
                inst = pv.InvariantInstance(template, assignment)
                if pv.eval_instance(inst, g):
                    continue
                assert pv.check_deny_all_validity(inst, g.hosts)
                assert pv.offending_flows_bruteforce(inst, g) != []


def test_unrepairable_violation_means_deny_all_invalid():
    inst = pv.InvariantInstance(always_false_template(), {})
    g = pv.make_policy({"a", "b"}, {("a", "b")})
    assert not pv.eval_instance(inst, g)
    assert pv.offending_flows_bruteforce(inst, g) == []
    assert not pv.check_deny_all_validity(inst, g.hosts)


# ---------------------------------------------------------------------------
# secure defaults (bounded exhaustive checks)

def test_blp_default_unclassified_is_secure():
    assert pv.check_secure_default(
        pv.blp_basic(), ["u", "v"], list(pv.Clearance), edge_bound=3
    )


def test_blp_topsecret_masks_a_violation():
    found = pv.find_secure_default_counterexample(
        pv.blp_basic(), ["u", "v"], list(pv.Clearance), edge_bound=3,
        candidate=pv.Clearance.topsecret,
    )
    assert found is not None
    g, mapping, flow_set, host = found
    remapped = dict(mapping.entries)
    remapped[host] = pv.Clearance.topsecret
    assert not pv.blp_basic().evaluate(g, mapping)
    assert pv.blp_basic().evaluate(g, pv.HostMapping(remapped, mapping.default))
    inst = pv.InvariantInstance(pv.blp_basic(), mapping.entries)
    assert flow_set in pv.offending_flows_bruteforce(inst, g)
    assert host in pv.offenders(inst, flow_set)


def test_sgw_default_role_is_secure():
    assert pv.check_secure_default(
        pv.security_gateway(), ["u", "v"], list(pv.SgwRole), edge_bound=3
    )


def test_blp_unique_default_two_hosts():
    assert pv.check_unique_default(pv.blp_basic(), ["u", "v"], list(pv.Clearance), edge_bound=3)


def test_unique_default_rejects_a_masking_or_a_rival_default():
    # the default masks a violation: a blamed receiver remapped to topsecret
    # accepts every flow
    masking = pv.edge_template("t", pv.Strategy.IFS, pv.Clearance.topsecret, lambda s, r: s <= r)
    assert not pv.check_unique_default(masking, ["u", "v"], list(pv.Clearance))
    # every candidate is secure when the predicate always holds
    rival = pv.edge_template("t", pv.Strategy.ACS, 0, lambda a, b: True)
    assert not pv.check_unique_default(rival, ["u", "v"], [0, 1])
    # the bounded route, without per-edge structure: a none default masks a
    # path from a source to a sink
    reach = dataclasses.replace(pv.no_transitive_access(), default_attr=pv.ReachRole.none)
    assert not pv.check_unique_default(reach, ["u", "v", "w"], list(pv.ReachRole), edge_bound=3)


def test_unique_default_requires_candidate_in_universe():
    with pytest.raises(ValueError):
        pv.check_unique_default(pv.blp_basic(), ["u"], [pv.Clearance.secret])


# The pairwise decision for edge-local templates against the bounded
# enumeration it replaces.  The custom templates reach the self-flow rule:
# with attributes {0, 1} and candidate 0, no cross-host pair is masked, but
# the self-flow of an attribute-1 host is, unless self-flows are exempt.
def _default_agreement_cases():
    for entry in pv.TEMPLATE_REGISTRY.values():
        if entry.template.edge_pred is not None:
            yield entry.template, entry.universe, (1, 2, 3)
    yield pv.domain_hierarchy(), pv.domain_fragment(depth=3, max_trust=2), (2,)
    for template in self_flow_templates():
        yield template, [0, 1], (1, 2, 3)


def _assert_masking_witness(template, host_universe, attr_universe, edge_bound, candidate, found):
    g, mapping, flow_set, host = found
    assert g.hosts == frozenset(host_universe)
    assert 1 <= len(g.flows) <= edge_bound
    assert set(mapping.entries) == g.hosts
    assert all(attr in attr_universe for attr in mapping.entries.values())
    assert not template.evaluate(g, mapping)
    inst = pv.InvariantInstance(template, mapping.entries)
    assert flow_set in pv.offending_flows_bruteforce(inst, g)
    assert host in pv.offenders(inst, flow_set)
    remapped = pv.HostMapping({**mapping.entries, host: candidate}, mapping.default)
    assert template.evaluate(g, remapped)


def test_pairwise_default_decision_agrees_with_bounded_enumeration():
    checked = 0
    for template, attrs, host_counts in _default_agreement_cases():
        assert template.edge_pred is not None
        for host_count in host_counts:
            hosts = [f"h{i}" for i in range(host_count)]
            for edge_bound in range(5):
                for candidate in attrs:
                    found = pv.find_secure_default_counterexample(
                        template, hosts, attrs, edge_bound, candidate
                    )
                    bounded = _bounded_secure_default_counterexample(
                        template, hosts, attrs, edge_bound, candidate
                    )
                    assert (found is None) == (bounded is None), (
                        template.name, host_count, edge_bound, candidate)
                    if found is not None:
                        _assert_masking_witness(
                            template, hosts, attrs, edge_bound, candidate, found)
                    checked += 1
    assert checked > 600


def test_self_flow_rule_decides_the_custom_templates():
    for template in self_flow_templates():
        found = pv.find_secure_default_counterexample(template, ["u", "v"], [0, 1])
        if template.edge_pred.exempt_reflexive:
            assert found is None
        else:
            assert found is not None
            assert found[2] == frozenset({("u", "u")})


# ---------------------------------------------------------------------------
# property tests over the random corpus

def corpus_cases():
    @st.composite
    def build(draw):
        name = draw(st.sampled_from(sorted(CORPUS)))
        spec = CORPUS[name]
        n = draw(st.integers(min_value=1, max_value=spec["max_hosts"]))
        hosts = [f"h{i}" for i in range(n)]
        pairs = [(a, b) for a in hosts for b in hosts]
        flows = draw(st.frozensets(st.sampled_from(pairs), max_size=min(6, len(pairs))))
        config = {}
        for h in hosts:
            if draw(st.booleans()):
                config[h] = draw(st.sampled_from(spec["attrs"]))
        return pv.InvariantInstance(spec["template"](), config), pv.make_policy(hosts, flows)

    return build()


@settings(max_examples=80, deadline=None)
@given(corpus_cases())
def test_def3_conjuncts_hold_on_every_output(case):
    inst, g = case
    for flow_set in pv.offending_flows_bruteforce(inst, g):
        assert_def3_conjuncts(inst, g, flow_set)
    for flow_set in pv.offending_flows(inst, g):
        assert_def3_conjuncts(inst, g, flow_set)


@settings(max_examples=80, deadline=None)
@given(corpus_cases())
def test_fast_and_bruteforce_agree(case):
    inst, g = case
    assert set(pv.offending_flows(inst, g)) == set(pv.offending_flows_bruteforce(inst, g))


@settings(max_examples=80, deadline=None)
@given(corpus_cases())
def test_forbidden_pairs_equal_failing_flows_of_allow_all(case):
    # the class route of construct and the per-flow route of verify answer
    # the same question on the complete graph, self-flows included
    inst, g = case
    edge = inst.template.edge_pred
    mapping = inst.mapping()
    forbidden = list(edge._forbidden_pairs(g.hosts, mapping))
    assert len(forbidden) == len(set(forbidden))
    assert set(forbidden) == set(edge._failing_flows(pv.allow_all(g.hosts), mapping))


@settings(max_examples=80, deadline=None)
@given(corpus_cases())
def test_satisfied_instances_have_no_offending_flows(case):
    inst, g = case
    if pv.eval_instance(inst, g):
        assert pv.offending_flows(inst, g) == []
        assert pv.offending_flows_bruteforce(inst, g) == []


@settings(max_examples=60, deadline=None)
@given(corpus_cases())
def test_removing_any_offending_set_repairs(case):
    inst, g = case
    for flow_set in pv.offending_flows_bruteforce(inst, g):
        assert pv.eval_instance(inst, g.without_flows(flow_set))


@settings(max_examples=60, deadline=None)
@given(corpus_cases())
def test_offenders_match_strategy_side(case):
    inst, g = case
    for flow_set in pv.offending_flows(inst, g):
        blamed = pv.offenders(inst, flow_set)
        if inst.template.strategy is pv.Strategy.ACS:
            assert blamed == {s for s, _ in flow_set}
        else:
            assert blamed == {r for _, r in flow_set}


@settings(max_examples=40, deadline=None)
@given(corpus_cases(), corpus_cases(), corpus_cases())
def test_composition_shrinks_monotonically(case_a, case_b, case_c):
    inst_a, g = case_a
    # reuse the other instances' templates against the first policy; their
    # configs may key foreign hosts, which the total mapping absorbs
    instances = [inst_a, case_b[0], case_c[0]]
    if pv.compose(instances, g):
        for mask in itertools.product((False, True), repeat=3):
            sublist = [inst for inst, keep in zip(instances, mask) if keep]
            assert pv.compose(sublist, g)
    else:
        assert not pv.compose(instances + instances, g)
