import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv

from helpers import (
    CABIN_HOSTS,
    CORPUS,
    always_false_template,
    cabin_invariants,
    random_policy,
)


# ---------------------------------------------------------------------------
# scenario admission

def test_scenario_rejects_unknown_config_host():
    policy = pv.make_policy({"a"}, set())
    inst = pv.InvariantInstance(pv.blp_basic(), {"ghost": pv.Clearance.secret})
    with pytest.raises(pv.UnknownHost):
        pv.Scenario(policy, (inst,))


def test_scenario_rejects_deny_all_invalid_template():
    policy = pv.make_policy({"a"}, set())
    inst = pv.InvariantInstance(always_false_template(), {})
    with pytest.raises(pv.InvariantRejected):
        pv.Scenario(policy, (inst,))


def test_scenario_accepts_cabin():
    scenario = pv.Scenario(pv.deny_all(CABIN_HOSTS), cabin_invariants())
    assert len(scenario.invariants) == 3


# ---------------------------------------------------------------------------
# verify

def cabin_max():
    instances = cabin_invariants()
    return pv.construct_max_policy(CABIN_HOSTS, instances), instances


def test_verify_cabin_max_policy_holds():
    maximum, instances = cabin_max()
    report = pv.verify(pv.Scenario(maximum, instances))
    assert report.overall is True
    assert all(r.holds for r in report.results)
    assert all(r.offending == () for r in report.results)
    assert pv.compose(list(instances), maximum) is True


def test_verify_extra_ife_peer_flow_blames_gateway():
    maximum, instances = cabin_max()
    widened = pv.Policy(maximum.hosts, maximum.flows | {("IFE1", "IFE2")})
    report = pv.verify(pv.Scenario(widened, instances))
    assert report.overall is False
    by_name = {r.name: r for r in report.results}
    gateway = by_name["security_gateway"]
    assert not gateway.holds
    assert gateway.offending == (frozenset({("IFE1", "IFE2")}),)
    assert gateway.offender_hosts == {"IFE1"}
    assert by_name["domain_hierarchy"].holds
    assert by_name["blp_trust"].holds


def test_verify_empty_invariants_is_ok():
    report = pv.verify(pv.Scenario(pv.allow_all({"a", "b"}), ()))
    assert report.overall is True
    assert report.results == ()


def test_verify_propagates_too_large():
    hosts = [f"v{i}" for i in range(6)]
    flows = {(f"v{i}", f"v{i+1}") for i in range(5)}
    config = {h: pv.ReachRole.none for h in hosts}
    config["v0"] = pv.ReachRole.src
    config["v5"] = pv.ReachRole.snk
    inst = pv.InvariantInstance(pv.no_transitive_access(), config)
    scenario = pv.Scenario(pv.make_policy(hosts, flows), (inst,))
    with pytest.raises(pv.TooLarge):
        pv.verify(scenario, edge_bound=4)
    report = pv.verify(scenario, edge_bound=5)
    assert report.overall is False
    assert len(report.results[0].offending) == 5


# ---------------------------------------------------------------------------
# construction

def test_construct_without_invariants_is_allow_all():
    assert pv.construct_max_policy({"a", "b"}, []) == pv.allow_all({"a", "b"})


def test_construct_contradictory_invariants_leaves_only_reflexive():
    first = pv.InvariantInstance(
        pv.blp_basic(), {"a": pv.Clearance.secret, "b": pv.Clearance.unclassified}
    )
    second = pv.InvariantInstance(
        pv.blp_basic(), {"b": pv.Clearance.secret, "a": pv.Clearance.unclassified}
    )
    maximum = pv.construct_max_policy({"a", "b"}, [first, second])
    assert maximum.flows == {("a", "a"), ("b", "b")}


def test_construct_cabin_spot_edges():
    maximum, _ = cabin_max()
    for present in [("Wifi", "SAT"), ("CC", "IFEsrv"), ("IFEsrv", "SAT"),
                    ("IFE1", "IFEsrv"), ("IFEsrv", "IFE1"), ("C1", "CC")]:
        assert present in maximum.flows, present
    for absent in [("SAT", "Wifi"), ("P1", "IFEsrv"), ("IFE1", "IFE2"), ("CC", "IFE1")]:
        assert absent not in maximum.flows, absent


def test_construct_keeps_reflexive_flows():
    maximum, _ = cabin_max()
    assert all((h, h) in maximum.flows for h in CABIN_HOSTS)


def _random_scenario(rng, n_instances=3):
    g = random_policy(rng, max_hosts=4, max_edges=10)
    instances = []
    for _ in range(n_instances):
        name = rng.choice(sorted(CORPUS))
        spec = CORPUS[name]
        config = {
            h: rng.choice(spec["attrs"]) for h in g.hosts if rng.random() < 0.8
        }
        instances.append(pv.InvariantInstance(spec["template"](), config))
    return g, instances


def test_construct_soundness_random_scenarios():
    rng = random.Random(2024)
    for _ in range(60):
        g, instances = _random_scenario(rng)
        maximum = pv.construct_max_policy(g.hosts, instances)
        assert pv.compose(instances, maximum)


def test_construct_sound_with_path_invariant_in_the_mix():
    # invariants without per-edge structure go through the subset
    # enumeration; the result must still satisfy everything
    rng = random.Random(11)
    roles = list(pv.ReachRole)
    for _ in range(25):
        hosts = [f"h{i}" for i in range(3)]
        reach = pv.InvariantInstance(
            pv.no_transitive_access(), {h: rng.choice(roles) for h in hosts}
        )
        spec = CORPUS[rng.choice(sorted(CORPUS))]
        edge_inst = pv.InvariantInstance(
            spec["template"](), {h: rng.choice(spec["attrs"]) for h in hosts}
        )
        instances = [edge_inst, reach]
        maximum = pv.construct_max_policy(hosts, instances)
        assert pv.compose(instances, maximum)
        assert all((h, h) in maximum.flows for h in hosts)


def test_construct_completeness_for_edge_local_scenarios():
    rng = random.Random(99)
    for _ in range(30):
        g, instances = _random_scenario(rng)
        maximum = pv.construct_max_policy(g.hosts, instances)
        complement = {
            (s, r)
            for s in g.hosts
            for r in g.hosts
            if s != r and (s, r) not in maximum.flows
        }
        for extra in complement:
            widened = pv.Policy(maximum.hosts, maximum.flows | {extra})
            assert not pv.compose(instances, widened), extra


def test_construct_order_independent_for_edge_local_scenarios():
    rng = random.Random(7)
    for _ in range(20):
        g, instances = _random_scenario(rng)
        baseline = pv.construct_max_policy(g.hosts, instances)
        for permuted in itertools.permutations(instances):
            assert pv.construct_max_policy(g.hosts, list(permuted)) == baseline


# ---------------------------------------------------------------------------
# diff

def test_diff_of_max_policy_is_empty():
    maximum, instances = cabin_max()
    result = pv.diff(maximum, instances)
    assert result.violating == frozenset()
    assert result.permitted_missing == frozenset()
    assert result.reflexive == {(h, h) for h in CABIN_HOSTS}


def test_diff_reports_missing_flow():
    maximum, instances = cabin_max()
    weakened = maximum.without_flows({("Wifi", "SAT")})
    result = pv.diff(weakened, instances)
    assert ("Wifi", "SAT") in result.permitted_missing
    assert result.violating == frozenset()


def test_diff_reports_violating_flow():
    maximum, instances = cabin_max()
    widened = pv.Policy(maximum.hosts, maximum.flows | {("P1", "IFE1")})
    result = pv.diff(widened, instances)
    assert ("P1", "IFE1") in result.violating
    assert result.permitted_missing == frozenset()


def test_diff_pieces_reconstruct_the_maximum():
    # kept solid flows plus dashed flows plus every in-host pair is exactly
    # the constructed maximum
    maximum, instances = cabin_max()
    edited = pv.Policy(
        maximum.hosts, frozenset(maximum.flows - {("Wifi", "SAT")} | {("P1", "IFE1")})
    )
    result = pv.diff(edited, instances)
    kept = {(s, r) for s, r in edited.flows if s != r} - result.violating
    reflexive = {(h, h) for h in maximum.hosts}
    assert kept | result.permitted_missing | reflexive == maximum.flows


def test_diff_partitions_user_policy():
    rng = random.Random(5)
    for _ in range(30):
        g, instances = _random_scenario(rng)
        result = pv.diff(g, instances)
        maximum = pv.construct_max_policy(g.hosts, instances)
        user_nonreflexive = {(s, r) for s, r in g.flows if s != r}
        assert result.violating <= user_nonreflexive
        assert result.violating.isdisjoint(result.permitted_missing)
        kept = user_nonreflexive & {(s, r) for s, r in maximum.flows if s != r}
        assert user_nonreflexive == kept | result.violating
        assert result.reflexive == {(s, r) for s, r in g.flows if s == r}


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_verify_report_consistency(rng):
    g, instances = _random_scenario(rng, n_instances=2)
    # a path invariant takes the enumeration route (at most 10 flows here)
    roles = list(pv.ReachRole)
    instances.append(pv.InvariantInstance(
        pv.no_transitive_access(), {h: rng.choice(roles) for h in g.hosts if rng.random() < 0.8}
    ))
    report = pv.verify(pv.Scenario(g, tuple(instances)))
    assert report.overall == all(r.holds for r in report.results)
    for inst, r in zip(instances, report.results):
        assert r.holds == (r.offending == ())
        assert r.holds == pv.eval_instance(inst, g)
        union = {f for fs in r.offending for f in fs}
        assert union <= g.flows
