"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import functools
import itertools
import math
import random
import time
from pathlib import Path

import policyverif as pv

from helpers import CABIN_HOSTS, always_false_template, c09_instances, cabin_invariants

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(cid, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] {cid} {title}: FAIL")
                raise
            elapsed = time.perf_counter() - started
            print(f"\n[acceptance] {cid} {title}: PASS ({elapsed:.1f}s)")
        return run
    return wrap


# ---------------------------------------------------------------------------
# corpus shared by criteria 2 and 4

EQUIV_UNIVERSES = {
    "blp_basic": (
        pv.blp_basic,
        [pv.Clearance.unclassified, pv.Clearance.secret],
        5,
    ),
    "blp_trust": (
        pv.blp_trust,
        [
            pv.BlpTrustAttr(pv.Clearance.secret, False),
            pv.BlpTrustAttr(pv.Clearance.unclassified, False),
            pv.BlpTrustAttr(pv.Clearance.unclassified, True),
        ],
        4,
    ),
    "domain_hierarchy": (
        pv.domain_hierarchy,
        [
            pv.DomAttr(pv.UNASSIGNED, 0),
            pv.DomAttr(pv.domain_name("a.b"), 0),
            pv.DomAttr(pv.domain_name("b"), 1),
        ],
        4,
    ),
    "security_gateway": (
        pv.security_gateway,
        [pv.SgwRole.memb, pv.SgwRole.default, pv.SgwRole.sgw],
        4,
    ),
}


def random_small_policy(rng, max_hosts, max_edges=8):
    n = rng.randint(1, max_hosts)
    hosts = [f"h{i}" for i in range(n)]
    pairs = [(a, b) for a in hosts for b in hosts]
    rng.shuffle(pairs)
    return pv.make_policy(hosts, pairs[: rng.randint(0, min(max_edges, len(pairs)))])


def equivalence_corpus(seed, policies_per_template):
    for name, (factory, attrs, max_hosts) in sorted(EQUIV_UNIVERSES.items()):
        template = factory()
        rng = random.Random(seed)
        for _ in range(policies_per_template):
            g = random_small_policy(rng, max_hosts)
            hosts = sorted(g.hosts)
            for combo in itertools.product(attrs, repeat=len(hosts)):
                yield pv.InvariantInstance(template, dict(zip(hosts, combo))), g


# ---------------------------------------------------------------------------
# criteria

@criterion("C1", "cabin network end-to-end")
def test_c01_cabin_end_to_end():
    started = time.perf_counter()
    scenario = pv.parse_scenario((SCENARIOS / "cabin.json").read_text(encoding="utf-8"))
    assert scenario.policy.hosts == set(CABIN_HOSTS)
    assert len(scenario.policy.hosts) == 10
    assert len(scenario.invariants) == 3
    by_name = {inst.template.name: inst for inst in scenario.invariants}
    assert len(by_name["domain_hierarchy"].config) == 10
    assert len(by_name["security_gateway"].config) == 3
    assert len(by_name["blp_trust"].config) == 6
    assert tuple(scenario.invariants) == cabin_invariants()

    maximum = pv.construct_max_policy(scenario.policy.hosts, scenario.invariants)
    report = pv.verify(pv.Scenario(maximum, scenario.invariants))
    assert report.overall is True
    assert all(result.holds for result in report.results)

    assert ("Wifi", "SAT") in maximum.flows
    assert ("SAT", "Wifi") not in maximum.flows
    assert ("IFE1", "IFE2") not in maximum.flows
    assert ("CC", "IFEsrv") in maximum.flows
    assert ("CC", "IFE1") not in maximum.flows

    assert time.perf_counter() - started < 1.0


@criterion("C2", "fast path equals subset enumeration (>=500 policies/template)")
def test_c02_offending_flow_equivalence():
    started = time.perf_counter()
    checked = {}
    for inst, g in equivalence_corpus(seed=2, policies_per_template=500):
        fast = set(pv.offending_flows(inst, g))
        brute = set(pv.offending_flows_bruteforce(inst, g))
        assert fast == brute, (inst.template.name, g)
        checked[inst.template.name] = checked.get(inst.template.name, 0) + 1
    assert set(checked) == set(EQUIV_UNIVERSES)
    assert all(count >= 500 for count in checked.values())
    assert time.perf_counter() - started < 120.0


@criterion("C3", "two-repair-option reachability example")
def test_c03_transitive_access_repairs():
    inst = pv.InvariantInstance(
        pv.no_transitive_access(),
        {"v1": pv.ReachRole.src, "v3": pv.ReachRole.snk, "v2": pv.ReachRole.none},
    )
    g = pv.make_policy({"v1", "v2", "v3"}, {("v1", "v2"), ("v2", "v3")})
    result = pv.offending_flows_bruteforce(inst, g)
    assert set(result) == {frozenset({("v1", "v2")}), frozenset({("v2", "v3")})}
    assert len(result) == 2


@criterion("C4", "violations repairable iff valid on flow-less policy")
def test_c04_repairability_both_directions():
    violated = 0
    for inst, g in equivalence_corpus(seed=4, policies_per_template=120):
        if pv.eval_instance(inst, g):
            continue
        violated += 1
        nonempty = pv.offending_flows_bruteforce(inst, g) != []
        assert nonempty == pv.check_deny_all_validity(inst, g.hosts)
        assert nonempty  # all shipped templates pass the admission check
    assert violated > 100

    broken = pv.InvariantInstance(always_false_template(), {})
    g = pv.make_policy({"a", "b"}, {("a", "b")})
    assert not pv.eval_instance(broken, g)
    assert pv.offending_flows_bruteforce(broken, g) == []
    assert not pv.check_deny_all_validity(broken, g.hosts)


@criterion("C5", "secure defaults are exactly the stated ones and unique")
def test_c05_secure_and_unique_defaults():
    started = time.perf_counter()
    three_hosts = ["u", "v", "w"]

    template = pv.blp_basic()
    assert template.default_attr is pv.Clearance.unclassified
    assert pv.check_unique_default(template, three_hosts, list(pv.Clearance), edge_bound=4)

    template = pv.blp_trust()
    assert template.default_attr == pv.BlpTrustAttr(pv.Clearance.unclassified, False)
    blp_trust_universe = [
        pv.BlpTrustAttr(sc, trust) for sc in pv.Clearance for trust in (False, True)
    ]
    assert pv.check_unique_default(template, three_hosts, blp_trust_universe, edge_bound=4)

    template = pv.security_gateway()
    assert template.default_attr is pv.SgwRole.default
    assert pv.check_unique_default(template, three_hosts, list(pv.SgwRole), edge_bound=4)

    template = pv.domain_hierarchy()
    assert template.default_attr == pv.DomAttr(pv.UNASSIGNED, 0)
    fragment = pv.domain_fragment(depth=3, max_trust=2)
    assert pv.check_unique_default(template, ["u", "v"], fragment, edge_bound=4)
    small_fragment = pv.domain_fragment(depth=2, max_trust=1)
    assert pv.check_secure_default(template, three_hosts, small_fragment, edge_bound=3)

    template = pv.no_transitive_access()
    assert template.default_attr is pv.ReachRole.src
    assert pv.check_secure_default(template, three_hosts, list(pv.ReachRole), edge_bound=4)
    assert pv.check_secure_default(
        template, ["u", "v", "w", "x"], list(pv.ReachRole), edge_bound=3
    )
    # decided exactly, so unique at every size and secure past the enumeration
    assert pv.check_unique_default(template, three_hosts, list(pv.ReachRole), edge_bound=4)
    assert pv.check_unique_default(
        template, ["u", "v", "w", "x"], list(pv.ReachRole), edge_bound=4
    )
    eight_hosts = [f"u{i}" for i in range(8)]
    assert pv.check_secure_default(template, eight_hosts, list(pv.ReachRole), edge_bound=4)

    assert time.perf_counter() - started < 300.0


@criterion("C6", "security gateway role table")
def test_c06_security_gateway_table():
    pred = pv.security_gateway().edge_pred.predicate
    sgw, sgwa, memb, default = (
        pv.SgwRole.sgw,
        pv.SgwRole.sgwa,
        pv.SgwRole.memb,
        pv.SgwRole.default,
    )
    for receiver in (sgw, sgwa, memb, default):
        assert pred(sgw, receiver) is True
        assert pred(sgwa, receiver) is True
    assert pred(memb, sgw) is True
    assert pred(memb, sgwa) is True
    assert pred(memb, memb) is False
    assert pred(memb, default) is True
    assert pred(default, sgw) is False
    assert pred(default, sgwa) is True
    assert pred(default, memb) is False
    assert pred(default, default) is True


@criterion("C7", "domain hierarchy order, lattice fragment, chop")
def test_c07_domain_lattice():
    d = pv.domain_name
    assert pv.leq_domain(d("wh.e.cc"), d("e.cc"))
    assert pv.leq_domain(d("wh.e.cc"), d("cc"))
    assert pv.leq_domain(d("wh.e.cc"), d("wh.e.cc"))
    assert not pv.leq_domain(d("wh.e.cc"), d("br.e.cc"))
    assert not pv.leq_domain(d("br.e.cc"), d("wh.e.cc"))

    names = [pv.UNASSIGNED, pv.TOP]
    for depth in (1, 2, 3):
        for combo in itertools.product(("a", "b"), repeat=depth):
            names.append(d(".".join(combo)))
    for a in names:
        assert pv.leq_domain(a, a)
    for a, b in itertools.product(names, repeat=2):
        if pv.leq_domain(a, b) and pv.leq_domain(b, a):
            assert a == b
    for a, b, c in itertools.product(names, repeat=3):
        if pv.leq_domain(a, b) and pv.leq_domain(b, c):
            assert pv.leq_domain(a, c)

    assert pv.chop(d("br.e.cc"), 1) == d("e.cc")


@criterion("C8", "monotonicity holds on >=1000 trials per template")
def test_c08_monotonicity_trials():
    rng = random.Random(8)
    shipped = {
        name: (factory, attrs, max_hosts)
        for name, (factory, attrs, max_hosts) in EQUIV_UNIVERSES.items()
    }
    shipped["no_transitive_access"] = (pv.no_transitive_access, list(pv.ReachRole), 5)
    for name, (factory, attrs, max_hosts) in sorted(shipped.items()):
        template = factory()
        subset_trials = 0
        while subset_trials < 1000:
            g = random_small_policy(rng, max_hosts, max_edges=10)
            config = {h: rng.choice(attrs) for h in g.hosts if rng.random() < 0.8}
            inst = pv.InvariantInstance(template, config)
            removal = {f for fs in pv.offending_flows(inst, g) for f in fs}
            satisfied = g.without_flows(removal)
            assert pv.eval_instance(inst, satisfied), name
            trials = 5
            assert pv.check_monotonicity(inst, satisfied, trials, rng.randrange(2**30)), name
            subset_trials += trials
        assert subset_trials >= 1000


@criterion("C9", "construction scales quadratic in hosts, linear in invariants")
def test_c09_construction_performance():
    def run_once(n_hosts, n_instances):
        rng = random.Random(0)
        hosts = [f"n{i:03d}" for i in range(n_hosts)]
        instances = c09_instances(hosts, n_instances)
        pairs = [(a, b) for a in hosts for b in hosts]
        rng.shuffle(pairs)
        seeded = pv.make_policy(hosts, pairs[: n_hosts * n_hosts // 4])
        started = time.perf_counter()
        maximum = pv.construct_max_policy(hosts, instances)
        report = pv.verify(pv.Scenario(seeded, tuple(instances)))
        elapsed = time.perf_counter() - started
        assert pv.compose(instances, maximum)
        assert isinstance(report.overall, bool)
        return elapsed

    def timed(n_hosts, n_instances, repeats=3):
        return min(run_once(n_hosts, n_instances) for _ in range(repeats))

    t100 = timed(100, 100)
    assert t100 < 60.0, f"full-size construction took {t100:.1f}s"

    t25 = timed(25, 100)
    host_slope = math.log(t100 / t25) / math.log(100 / 25)
    assert 1.0 <= host_slope <= 4.0, f"host scaling slope {host_slope:.2f}"

    tk25 = timed(50, 25)
    tk100 = timed(50, 100)
    inv_slope = math.log(tk100 / tk25) / math.log(100 / 25)
    assert 0.5 <= inv_slope <= 2.0, f"invariant scaling slope {inv_slope:.2f}"


@criterion("C10", "contradictory invariants leave only in-host flows")
def test_c10_contradictory_construction():
    first = pv.InvariantInstance(
        pv.blp_basic(), {"a": pv.Clearance.secret, "b": pv.Clearance.unclassified}
    )
    second = pv.InvariantInstance(
        pv.blp_basic(), {"b": pv.Clearance.secret, "a": pv.Clearance.unclassified}
    )
    maximum = pv.construct_max_policy({"a", "b"}, [first, second])
    assert maximum.flows == {("a", "a"), ("b", "b")}
    assert all(s == r for s, r in maximum.flows)
