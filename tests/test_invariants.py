import dataclasses
import inspect
import itertools
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv
from policyverif.engine import _forbidden_receivers
from policyverif.invariants import _bounded_secure_default_counterexample, _minimal_transversals

from helpers import (
    CORPUS,
    always_false_template,
    assert_def3_conjuncts,
    default_fails_templates,
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


def test_instance_config_and_mapping_are_one_copy_taken_at_construction():
    config = {"db1": pv.Clearance.secret}
    inst = pv.InvariantInstance(pv.blp_basic(), config)
    config["web"] = pv.Clearance.secret
    assert inst.mapping() is inst.mapping()
    assert inst.mapping().entries is inst.config
    assert inst.config == {"db1": pv.Clearance.secret}
    assert inst == pv.InvariantInstance(pv.blp_basic(), {"db1": pv.Clearance.secret})
    assert inst != pv.InvariantInstance(pv.blp_basic(), config)


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
# offending flows, incident-flow route

# (template, attribute universe): the shipped edge-local templates, whose
# universes hold their defaults, and custom ones with both self-flow rules
_EDGE_ROUTE_TEMPLATES = (
    [(spec["template"](), spec["attrs"]) for _, spec in sorted(CORPUS.items())]
    + [(t, [0, 1]) for t in self_flow_templates() + default_fails_templates()]
)


def _assert_incident_route_agrees(template, config, g):
    """verify's route must return exactly the flows the per-edge check
    rejects among all of ``g.flows``."""
    inst = pv.InvariantInstance(template, config)
    expected = frozenset(template.edge_pred._failing_flows(g.flows, inst.mapping()))
    assert pv.offending_flows(inst, g) == ([expected] if expected else [])


@st.composite
def _edge_route_cases(draw):
    template, attrs = draw(st.sampled_from(_EDGE_ROUTE_TEMPLATES))
    hosts = [f"h{i}" for i in range(draw(st.integers(min_value=1, max_value=5)))]
    pairs = [(a, b) for a in hosts for b in hosts]
    flows = draw(st.frozensets(st.sampled_from(pairs), max_size=10))
    # "ghost" is configured but lies outside the policy
    config = draw(st.dictionaries(st.sampled_from(hosts + ["ghost"]), st.sampled_from(attrs)))
    return template, config, pv.make_policy(hosts, flows)


@settings(max_examples=300, deadline=None)
@given(_edge_route_cases())
def test_incident_route_agrees_with_the_full_scan(case):
    _assert_incident_route_agrees(*case)


def test_incident_route_agrees_with_the_full_scan_seeded():
    rng = random.Random(14)
    for _ in range(400):
        template, attrs = rng.choice(_EDGE_ROUTE_TEMPLATES)
        g = random_policy(rng, max_hosts=6, max_edges=14)
        config = {h: rng.choice(attrs) for h in g.hosts if rng.random() < 0.5}
        _assert_incident_route_agrees(template, config, g)


def test_incident_route_cases_by_hand():
    sgw, memb, other = pv.SgwRole.sgw, pv.SgwRole.memb, pv.SgwRole.default
    # gateway self-flows of configured (m1, gw, out) and unconfigured (x)
    # hosts; "out" is configured to the default, "idle" has no flows; the
    # failing x -> m1 and x -> gw are found only from their receivers' side.
    # Five of eleven hosts are configured, so verify reads the index.
    g = pv.make_policy(
        {"gw", "m1", "m2", "out", "x", "idle", "y1", "y2", "y3", "y4", "y5"},
        {("m1", "m1"), ("gw", "gw"), ("out", "out"), ("x", "x"), ("x", "m1"),
         ("m1", "m2"), ("gw", "m1"), ("x", "gw"), ("out", "m2"), ("m2", "gw"),
         ("y1", "y2"), ("y2", "x")},
    )
    config = {"gw": sgw, "m1": memb, "m2": memb, "out": other, "idle": memb}
    _assert_incident_route_agrees(pv.security_gateway(), config, g)
    inst = pv.InvariantInstance(pv.security_gateway(), config)
    assert pv.offending_flows(inst, g) == [
        frozenset({("x", "m1"), ("m1", "m2"), ("x", "gw"), ("out", "m2")})
    ]
    assert "_incident_flows" in vars(g)
    # the same roles under both self-flow rules of a custom template
    for template in self_flow_templates():
        _assert_incident_route_agrees(template, {"m1": 1, "out": 0, "idle": 1}, g)
    # a failing (default, default) pair: unconfigured flows fail too
    for template in default_fails_templates():
        _assert_incident_route_agrees(template, {"m1": 1, "out": 0}, g)
        flows = pv.offending_flows(pv.InvariantInstance(template, {"m1": 1}), g)[0]
        assert ("out", "m2") in flows
        assert (("x", "x") in flows) is not template.edge_pred.exempt_reflexive
    # every host configured to the default: nothing fails
    _assert_incident_route_agrees(pv.security_gateway(), dict.fromkeys(g.hosts, other), g)


# ---------------------------------------------------------------------------
# evaluate of edge-local templates, marked-pair route

# every shipped edge-local template with its registered universe, and the
# custom ones with both self-flow rules and with a failing default pair
_EVALUATE_TEMPLATES = [
    (entry.template, list(entry.universe))
    for _, entry in sorted(pv.TEMPLATE_REGISTRY.items())
    if entry.template.edge_pred is not None
] + [(t, [0, 1]) for t in self_flow_templates() + default_fails_templates()]


def _passes(edge, mapping, flow):
    """Reference: one flow under the per-edge check, self-flows skipped where exempt."""
    s, r = flow
    passed = edge.predicate(mapping.lookup(s), mapping.lookup(r))
    return passed or (s == r and edge.exempt_reflexive)


def _counting_copy(template):
    """The same template around a predicate that counts its calls in ``calls[0]``."""
    calls = [0]
    predicate = template.edge_pred.predicate

    def counted(a, b):
        calls[0] += 1
        return predicate(a, b)

    copy = pv.edge_template(
        template.name, template.strategy, template.default_attr, counted,
        template.edge_pred.exempt_reflexive,
    )
    return copy, calls


def _assert_evaluate_agrees(template, config, g):
    """``evaluate`` equals the full scan on ``g``, on ``g`` without its failing
    flows, and on that with one failing flow of each kind put back: from a
    marked host, into one, between two, a self-flow, and between unmarked
    hosts.  Where the marked-pair route runs, the predicate is called at most
    once per flow at a marked host, plus once for the default pair."""
    edge = template.edge_pred
    mapping = pv.InvariantInstance(template, config).mapping()
    dft = mapping.default
    marked = {h for h, attr in config.items() if attr != dft}
    failing = sorted(f for f in g.flows if not _passes(edge, mapping, f))
    kinds = {}
    for s, r in failing:
        kind = "self" if s == r else (s in marked, r in marked)
        kinds.setdefault(kind, (s, r))
    satisfied = g.flows - set(failing)
    counted, calls = _counting_copy(template)
    n = len(g.hosts)
    for flows in [g.flows, satisfied] + [satisfied | {f} for f in kinds.values()]:
        policy = pv.make_policy(g.hosts, flows)
        expected = all(_passes(edge, mapping, f) for f in flows)
        assert template.evaluate(policy, mapping) is expected
        calls[0] = 0
        assert counted.evaluate(policy, mapping) is expected
        if len(flows) > 2 * n and 2 * len(marked) * n < len(flows) and edge.predicate(dft, dft):
            at_marked = sum(1 for s, r in flows if s in marked or r in marked)
            assert calls[0] <= 1 + at_marked
            if expected:
                assert calls[0] < len(flows)


@st.composite
def _evaluate_cases(draw):
    template, attrs = draw(st.sampled_from(_EVALUATE_TEMPLATES))
    dft = template.default_attr
    hosts = [f"h{i:02d}" for i in range(draw(st.integers(min_value=16, max_value=24)))]
    density = draw(st.sampled_from([0.5, 0.75, 1.0]))
    rnd = draw(st.randoms(use_true_random=False))
    flows = [(s, r) for s in hosts for r in hosts if rnd.random() < density]
    # sparse: at most an eighth of the hosts marked; dense: any number
    most = len(hosts) // 8 if draw(st.booleans()) else len(hosts)
    chosen = draw(st.lists(st.sampled_from(hosts), max_size=most, unique=True))
    marked_attrs = [a for a in attrs if a != dft]
    config = {h: draw(st.sampled_from(marked_attrs)) for h in chosen}
    # hosts configured to the default, and a marked host outside the policy
    for h in draw(st.lists(st.sampled_from(hosts), max_size=3)):
        config.setdefault(h, dft)
    if draw(st.booleans()):
        config["ghost"] = draw(st.sampled_from(marked_attrs))
    return template, config, pv.make_policy(hosts, flows)


@settings(max_examples=120, deadline=None)
@given(_evaluate_cases())
def test_edge_evaluate_agrees_with_the_full_scan(case):
    _assert_evaluate_agrees(*case)


def test_edge_evaluate_checks_only_the_marked_pairs_of_a_large_policy():
    hosts = [f"h{i:02d}" for i in range(40)]
    g = pv.allow_all(hosts)
    for template, attrs in _EVALUATE_TEMPLATES:
        dft = template.default_attr
        marked = [a for a in attrs if a != dft]
        config = {"h00": marked[0], "h07": marked[-1], "h08": dft, "ghost": marked[0]}
        _assert_evaluate_agrees(template, config, g)
    # a satisfied policy of 1600 flows: the default pair and the 159 flows at h00
    inst = pv.InvariantInstance(pv.blp_basic(), {"h00": pv.Clearance.secret})
    satisfied = satisfied_variant(inst, g)
    counted, calls = _counting_copy(pv.blp_basic())
    assert counted.evaluate(satisfied, inst.mapping())
    assert calls[0] == 1 + sum(1 for f in satisfied.flows if "h00" in f)


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


def test_deny_all_validity_checks_host_names():
    inst = pv.InvariantInstance(pv.blp_basic(), {})
    for hosts in (["", "a"], ["a", 3]):
        with pytest.raises(ValueError, match="host names must be non-empty strings"):
            pv.check_deny_all_validity(inst, hosts)


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


def _recording_template(seen):
    """A monotone template that records the flows of each policy it evaluates."""

    def evaluate(g, mapping):
        seen.append(g.flows)
        return True

    return pv.Template("recording", pv.Strategy.ACS, None, evaluate)


def test_monotonicity_draws_are_seeded_sub_policies_keeping_each_flow_half_the_time():
    g = pv.allow_all([f"h{i}" for i in range(8)])
    runs = []
    for _ in range(2):
        seen = []
        assert pv.check_monotonicity(pv.InvariantInstance(_recording_template(seen)), g, 2000, 3)
        runs.append(seen[1:])  # the first call evaluates g itself
    assert runs[0] == runs[1]
    draws = runs[0]
    assert len(g.flows) == 64 and len(draws) == 2000
    assert all(isinstance(d, frozenset) and d <= g.flows for d in draws)
    kept = Counter(f for d in draws for f in d)
    assert all(0.4 <= kept[f] / len(draws) <= 0.6 for f in g.flows)


def test_monotonicity_refutes_a_template_false_on_exactly_three_flows():
    not_three = pv.Template(
        "not_three", pv.Strategy.ACS, None, lambda g, mapping: len(g.flows) != 3
    )
    inst = pv.InvariantInstance(not_three, {})
    g = pv.make_policy(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a"), ("a", "a"), ("b", "a"), ("c", "b")]
    )
    for seed in range(10):
        counterexample = pv.find_monotonicity_counterexample(inst, g, trials=32, seed=seed)
        assert counterexample is not None and len(counterexample) == 3, seed
        assert counterexample <= g.flows
        assert counterexample == pv.find_monotonicity_counterexample(inst, g, 32, seed)


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


def test_bounded_search_returns_the_first_counterexample_in_enumeration_order():
    # exact answers: the search walks policies by size, then assignments in
    # product order, and returns the first masked violation it meets
    src, snk, none = pv.ReachRole.src, pv.ReachRole.snk, pv.ReachRole.none
    hosts = ["u1", "u5", "u9"]
    reach = pv.no_transitive_access()
    assert pv.find_secure_default_counterexample(reach, hosts, list(pv.ReachRole), 4, src) is None
    masked = (
        pv.make_policy(hosts, {("u1", "u5")}),
        pv.HostMapping({"u1": src, "u5": snk, "u9": src}, src),
        frozenset({("u1", "u5")}),
        "u1",
    )
    for candidate in (snk, none):
        found = pv.find_secure_default_counterexample(reach, hosts, list(pv.ReachRole), 4,
                                                      candidate)
        assert found == masked
    flow = pv.make_policy(["a", "b"], {("a", "b")})
    flow_set = frozenset({("a", "b")})

    def bounded(template, attrs):
        return [_bounded_secure_default_counterexample(template, ["a", "b"], attrs, 3, c)
                for c in attrs]

    clr = pv.Clearance
    leak = (flow, pv.HostMapping({"a": clr.confidential, "b": clr.unclassified}, clr.unclassified),
            flow_set, "b")
    assert bounded(pv.blp_basic(), list(clr)) == [None, leak, leak, leak]
    role = pv.SgwRole
    members = (flow, pv.HostMapping({"a": role.memb, "b": role.memb}, role.default), flow_set, "a")
    to_gateway = (flow, pv.HostMapping({"a": role.default, "b": role.sgw}, role.default),
                  flow_set, "a")
    assert list(role) == [role.sgw, role.sgwa, role.memb, role.default]
    assert bounded(pv.security_gateway(), list(role)) == [members, members, to_gateway, None]


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


# no_transitive_access decides its default by its own rule.  Where the bounded
# enumeration can run, the rule must give its exact answer, counterexample
# included; past that, every counterexample must still be a real masked
# violation, and src must mask nothing on larger policies.
def _reach_universes():
    """Every ordering of every non-empty subset of ``ReachRole``."""
    roles = list(pv.ReachRole)
    for k in range(1, len(roles) + 1):
        yield from (list(p) for p in itertools.permutations(roles, k))


def test_reach_default_rule_equals_the_bounded_enumeration():
    reach = pv.no_transitive_access()
    none_default = dataclasses.replace(reach, default_attr=pv.ReachRole.none)
    checked = 0
    for host_count in (1, 2, 3):
        hosts = [f"h{i}" for i in range(host_count)]
        for edge_bound in range(6):
            for attrs in _reach_universes():
                for candidate in pv.ReachRole:
                    found = pv.find_secure_default_counterexample(
                        reach, hosts, attrs, edge_bound, candidate
                    )
                    assert found == _bounded_secure_default_counterexample(
                        reach, hosts, attrs, edge_bound, candidate
                    ), (host_count, edge_bound, attrs, candidate)
                    checked += 1
    assert checked == 810
    # the rule reads its template's default only to build the mapping, so a
    # copy with another default keeps it and still agrees
    hosts = ["h0", "h1", "h2"]
    for candidate in pv.ReachRole:
        assert pv.find_secure_default_counterexample(
            none_default, hosts, list(pv.ReachRole), 3, candidate
        ) == _bounded_secure_default_counterexample(
            none_default, hosts, list(pv.ReachRole), 3, candidate
        )


def test_reach_default_rule_beyond_the_enumeration():
    reach = pv.no_transitive_access()
    for host_count in range(4, 9):
        hosts = [f"h{i}" for i in range(host_count)]
        for edge_bound in range(6):
            for attrs in _reach_universes():
                for candidate in pv.ReachRole:
                    found = pv.find_secure_default_counterexample(
                        reach, hosts, attrs, edge_bound, candidate
                    )
                    if found is not None:
                        _assert_masking_witness(reach, hosts, attrs, edge_bound, candidate, found)
                    violable = edge_bound >= 1 and {pv.ReachRole.src, pv.ReachRole.snk} <= set(attrs)
                    assert (found is not None) == (violable and candidate is not pv.ReachRole.src)
        assert pv.check_unique_default(reach, hosts, list(pv.ReachRole), 4)


def test_src_masks_no_violation_on_larger_policies():
    # the rule's argument, checked on random policies of up to 8 hosts: every
    # blamed host remapped to src leaves the policy violated
    reach = pv.no_transitive_access()
    rng = random.Random(11)
    blamed = 0
    for _ in range(300):
        g = random_policy(rng, max_hosts=8, max_edges=12)
        inst = pv.InvariantInstance(reach, {h: rng.choice(list(pv.ReachRole)) for h in g.hosts})
        mapping = inst.mapping()
        for flow_set in pv.offending_flows(inst, g, edge_bound=64):
            for host in pv.offenders(inst, flow_set):
                remapped = pv.HostMapping({**mapping.entries, host: pv.ReachRole.src}, mapping.default)
                assert not reach.evaluate(g, remapped)
                blamed += 1
    assert blamed > 100


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
    # the class table of construct's kernel and the per-flow route of verify
    # answer the same question on the complete graph, self-flows included
    inst, g = case
    edge = inst.template.edge_pred
    mapping = inst.mapping()
    blocked = _forbidden_receivers(g.hosts, [inst], pv.DEFAULT_EDGE_BOUND)
    forbidden = [(s, r) for s, receivers in blocked.items() for r in receivers]
    assert len(forbidden) == len(set(forbidden))
    assert set(forbidden) == set(edge._failing_flows(pv.allow_all(g.hosts).flows, mapping))


def test_forbidden_receivers_cover_only_the_given_hosts():
    # a configured host outside the policy forms no class of senders or receivers
    config = {"a": pv.Clearance.secret, "ghost": pv.Clearance.topsecret}
    inst = pv.InvariantInstance(pv.blp_basic(), config)
    blocked = _forbidden_receivers(frozenset({"a", "b"}), [inst], pv.DEFAULT_EDGE_BOUND)
    assert blocked == {"a": frozenset({"b"}), "b": frozenset()}


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
