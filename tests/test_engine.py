import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv

from helpers import (
    CABIN_HOSTS,
    CORPUS,
    always_false_template,
    c09_instances,
    cabin_invariants,
    construct_by_flow_scan,
    default_fails_templates,
    random_policy,
    self_flow_templates,
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


def test_scenario_admits_edge_local_templates_by_their_per_edge_check():
    # verify decides an edge-local invariant by its per-edge check alone, and
    # no flow-less policy fails that, so admission does not call evaluate
    def evaluate(g, mapping):
        raise AssertionError("evaluate called")

    blp = pv.blp_basic()
    template = pv.Template("edge_only", blp.strategy, blp.default_attr, evaluate, blp.edge_pred)
    inst = pv.InvariantInstance(template, {"a": pv.Clearance.secret})
    report = pv.verify(pv.Scenario(pv.make_policy({"a", "b"}, {("a", "b")}), (inst,)))
    assert report.results[0].offending == (frozenset({("a", "b")}),)


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


def test_construct_equals_the_flow_scan_reference():
    # Attribute draws include each template's default, so configured hosts
    # can share the unconfigured hosts' class; the reachability invariant
    # goes before, between and after the edge-local ones, where it must see
    # exactly the remainder their removals left.  Every other case adds a
    # custom template that rejects self-flows unless it exempts them, or
    # one whose default class is blocked to itself.
    rng = random.Random(404)
    custom = {t.name: t for t in self_flow_templates() + default_fails_templates()}
    templates = set()
    for case in range(24):
        hosts = [f"h{i}" for i in range(4 if case % 6 == 0 else rng.randint(2, 3))]
        edge_local = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(sorted(CORPUS))
            spec = CORPUS[name]
            config = {h: rng.choice(spec["attrs"]) for h in hosts if rng.random() < 0.7}
            edge_local.append(pv.InvariantInstance(spec["template"](), config))
            templates.add(name)
        if case % 2:
            template = custom[rng.choice(sorted(custom))]
            config = {h: rng.choice([0, 1]) for h in hosts if rng.random() < 0.7}
            edge_local.append(pv.InvariantInstance(template, config))
            templates.add(template.name)
        roles = {h: rng.choice(list(pv.ReachRole)) for h in hosts}
        roles[rng.choice(hosts)] = pv.ReachRole.snk
        reach = pv.InvariantInstance(pv.no_transitive_access(), roles)
        orders = [edge_local] + [
            edge_local[:at] + [reach] + edge_local[at:] for at in range(len(edge_local) + 1)
        ]
        for instances in orders:
            expected = construct_by_flow_scan(hosts, instances)
            assert pv.construct_max_policy(hosts, instances) == expected, (hosts, instances)
    assert templates == set(CORPUS) | set(custom)


def test_construct_calls_each_edge_predicate_once_per_class_pair():
    # with the secure default, an invariant over n hosts has at most
    # |config| + 1 attribute classes; construction's kernel reads one table
    # per invariant (EdgePredicate._forbidden_table), decided per class
    # pair, not per flow of the n * n allow-all policy
    counts = Counter()

    def counting(template):
        edge = template.edge_pred

        def predicate(snd, rcv):
            counts["predicate_calls"] += 1
            return edge.predicate(snd, rcv)

        return pv.edge_template(
            template.name, template.strategy, template.default_attr, predicate,
            edge.exempt_reflexive,
        )

    hosts = [f"n{i:03d}" for i in range(60)]
    instances = c09_instances(hosts, 20)
    counted = [pv.InvariantInstance(counting(inst.template), inst.config) for inst in instances]
    class_pairs = sum(
        len({inst.mapping().lookup(h) for h in hosts}) ** 2 for inst in instances
    )
    maximum = pv.construct_max_policy(hosts, counted)
    assert counts["predicate_calls"] <= class_pairs
    assert maximum == construct_by_flow_scan(hosts, instances)


_NAMES = st.text(alphabet='ab"\\\u00e9\u2192', min_size=1, max_size=3)
_EDGE_TEMPLATES = [(spec["template"](), spec["attrs"]) for spec in CORPUS.values()] + [
    (template, [0, 1]) for template in self_flow_templates() + default_fails_templates()
]


@st.composite
def _kernel_cases(draw):
    """1-8 hosts with quotes, backslashes and non-ASCII in their names; 1-3
    edge-local invariants, each configuring at most two hosts (sparse) or
    all but at most one (near-full), from universes that hold the default;
    up to 4 hosts, a reachability invariant anywhere in the list; and a
    user policy."""
    hosts = draw(st.lists(_NAMES, min_size=1, max_size=8, unique=True))
    instances = []
    for _ in range(draw(st.integers(1, 3))):
        template, attrs = draw(st.sampled_from(_EDGE_TEMPLATES))
        if draw(st.booleans()):
            configured = draw(st.lists(st.sampled_from(hosts), unique=True, max_size=2))
        else:
            skipped = draw(st.sampled_from([None] + hosts))
            configured = [h for h in hosts if h != skipped]
        config = {h: draw(st.sampled_from(attrs)) for h in configured}
        instances.append(pv.InvariantInstance(template, config))
    if len(hosts) <= 4 and draw(st.booleans()):
        roles = {h: draw(st.sampled_from(list(pv.ReachRole))) for h in hosts}
        reach = pv.InvariantInstance(pv.no_transitive_access(), roles)
        instances.insert(draw(st.integers(0, len(instances))), reach)
    flows = draw(st.sets(st.tuples(st.sampled_from(hosts), st.sampled_from(hosts))))
    return hosts, instances, pv.make_policy(hosts, flows)


@settings(max_examples=150, deadline=None)
@given(_kernel_cases())
def test_construct_and_diff_agree_exactly_with_the_flow_scan(case):
    hosts, instances, user = case
    expected = construct_by_flow_scan(hosts, instances)
    maximum = pv.construct_max_policy(hosts, instances)
    assert maximum == expected
    assert maximum.sorted_flows() == sorted(maximum.flows)
    result = pv.diff(user, instances)
    assert result.violating == user.flows - expected.flows
    assert result.permitted_missing == {(s, r) for s, r in expected.flows - user.flows if s != r}
    assert result.reflexive == {(s, r) for s, r in user.flows & expected.flows if s == r}
    assert result.sorted_missing() == sorted(result.permitted_missing)


# ---------------------------------------------------------------------------
# diff

def test_diff_of_max_policy_is_empty():
    maximum, instances = cabin_max()
    result = pv.diff(maximum, instances)
    assert result.violating == frozenset()
    assert result.permitted_missing == frozenset()
    assert result.reflexive == {(h, h) for h in CABIN_HOSTS}


def test_construct_and_diff_remove_the_self_flows_verify_flags():
    # "u" fails its own self-flow under every custom template; only the
    # exempt ones keep it in the maximum and out of the violating flows
    user = pv.make_policy({"u", "v"}, {("u", "u"), ("v", "v"), ("u", "v")})
    for template in self_flow_templates():
        inst = pv.InvariantInstance(template, {"u": 1})
        maximum = pv.construct_max_policy(user.hosts, [inst])
        assert pv.eval_instance(inst, maximum)
        assert (("u", "u") in maximum.flows) == template.edge_pred.exempt_reflexive
        result = pv.diff(user, [inst])
        flagged = frozenset().union(*pv.offending_flows(inst, user))
        assert result.violating == flagged
        assert result.reflexive == {("u", "u"), ("v", "v")} - flagged


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
    # every other user policy gains self-flows, and every third scenario a
    # reachability invariant at a random place (at most 4 hosts, so its
    # enumeration over the remainder stays within the default bound)
    rng = random.Random(5)
    roles = list(pv.ReachRole)
    seen = Counter()
    for case in range(30):
        g, instances = _random_scenario(rng)
        if case % 2:
            g = pv.make_policy(g.hosts, g.flows | {(h, h) for h in g.hosts if rng.random() < 0.7})
        if case % 3 == 0:
            reach = pv.InvariantInstance(
                pv.no_transitive_access(), {h: rng.choice(roles) for h in g.hosts}
            )
            instances.insert(rng.randint(0, len(instances)), reach)
        result = pv.diff(g, instances)
        maximum = pv.construct_max_policy(g.hosts, instances)
        user_nonreflexive = {(s, r) for s, r in g.flows if s != r}
        max_nonreflexive = {(s, r) for s, r in maximum.flows if s != r}
        assert result.violating <= user_nonreflexive
        assert result.violating.isdisjoint(result.permitted_missing)
        kept = user_nonreflexive & max_nonreflexive
        assert user_nonreflexive == kept | result.violating
        assert result.violating == user_nonreflexive - max_nonreflexive
        assert result.permitted_missing == max_nonreflexive - user_nonreflexive
        assert result.reflexive == {(s, r) for s, r in g.flows if s == r}
        seen["reflexive"] += bool(result.reflexive)
        seen["violating"] += bool(result.violating)
        seen["missing"] += bool(result.permitted_missing)
    assert min(seen.values()) >= 5, seen


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
