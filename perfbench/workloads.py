"""Seeded workload inputs and the fixed command mix of one round.

Each workload writes its scenario documents into an inputs directory and
describes one round: a fixed, interleaved list of commands, each paired
with the oracle check of its output.  Every run repeats the same round, so
the mix -- and the share of any failure -- is the same in every run, and
each command's time can be taken as its fastest repetition.

Only the seed varies between runs.  Sizes, flow counts and which slots
hold or violate are fixed per slot, so that per-command cost, and with it
every median, depends on the seed as little as possible.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle

TEMPLATES = ("blp_basic", "blp_trust", "domain_hierarchy", "no_transitive_access", "security_gateway")


@dataclass
class Op:
    """One command of a round.

    ``kind`` names the end-to-end metric it feeds.  ``request`` goes to the
    worker; ``dot`` asks the runner to append ``--dot <fresh path>``.
    ``check(reply, dot_text)`` raises :class:`oracle.Mismatch` on a wrong
    output.
    """

    kind: str
    request: dict
    check: Callable
    dot: bool = False


@dataclass
class Workload:
    files: list                      # scenario documents, for the set-up probe
    prepare: list                    # untimed worker requests before any round
    round: list                      # Op per position, the same in every round
    layout: dict = field(default_factory=dict)  # input make-up, for the result file


def _write(inputs: Path, name: str, data) -> str:
    path = inputs / name
    path.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
    return str(path)


def _cli_op(kind, path, doc, as_json, expected_max=None, dot=False):
    """One CLI command on one file, its output checked by the oracle.

    ``expected_max`` is the oracle's maximum of an edge-local scenario;
    without it construct and diff are held to properties instead.
    """
    argv = [kind] + (["--json"] if as_json else []) + [path]
    if kind == "verify":
        def check(reply, dot_text):
            oracle.check_verify(doc, reply["code"], reply["out"], as_json)
    else:
        checker = oracle.check_construct if kind == "construct" else oracle.check_diff

        def check(reply, dot_text):
            checker(doc, reply["code"], reply["out"], as_json, dot_text, expected_max)
    return Op(kind, {"op": "cli", "argv": argv}, check, dot)


def _selftest_op(kind, trials):
    def check(reply, dot_text):
        oracle.check_selftest(reply["code"], reply["out"], TEMPLATES)

    return Op(kind, {"op": "cli", "argv": ["selftest", "--trials", str(trials)]}, check)


def _interleave(*queues):
    """Round-robin over the queues: kinds alternate in a fixed order."""
    queues = [list(q) for q in queues]
    out = []
    while any(queues):
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def _ensure_violated(rng, doc_data, all_pairs):
    """Add one rejected flow to each edge-local invariant that holds."""
    flows = {tuple(f) for f in doc_data["flows"]}
    for spec in doc_data["invariants"]:
        inv = oracle.Invariant(spec["template"], spec["attributes"])
        if inv.bad_flows(flows):
            continue
        rejected = sorted(inv.bad_flows(all_pairs))
        flows.add(rng.choice(rejected))
    doc_data["flows"] = [list(f) for f in sorted(flows)]


# ---------------------------------------------------------------------------
# fleet: C09-style, hundreds of hosts, few configured per invariant

# Sizes sit below a cache cliff.  At 200 hosts, construct and diff (which
# build the 39 800-pair allow-all policy) ran at a median 1.23 times their
# fastest while other tenants loaded the shared L3, and verify at 25 %
# density (9950 flows) at 1.55 times; at 160 hosts and 10 % density, in the
# same minute, all three stayed within 1.10 times.
FLEET_HOSTS = 160
FLEET_INVARIANTS = 40
FLEET_CONFIGURED = 4          # hosts configured per invariant (2.5 %)
FLEET_DENSITY = 0.10          # share of ordered host pairs in the policy
FLEET_KINDS = ("blp_basic", "blp_trust", "domain_hierarchy", "security_gateway")
MONOTONICITY_TRIALS = 4


def _fleet_attributes(kind, index):
    """The attribute literals of one invariant: three distinct values cycled
    over its configured hosts (one gateway and members for the gateway)."""
    if kind == "blp_basic":
        values = ["confidential", "secret", "topsecret"]
    elif kind == "blp_trust":
        values = [{"sc": "secret", "trust": False}, {"sc": "confidential", "trust": False},
                  {"sc": "unclassified", "trust": True}]
    elif kind == "domain_hierarchy":
        values = [{"level": f"ops.d{index}", "trust": 0}, {"level": f"d{index}", "trust": 0},
                  {"level": f"ops.d{index}", "trust": 1}]
    else:
        return [("sgw", "sgwa")[index // 4 % 2]] + ["memb"] * (FLEET_CONFIGURED - 1)
    return [values[i % len(values)] for i in range(FLEET_CONFIGURED)]


def fleet_document(rng):
    hosts = [f"n{i:03d}" for i in range(FLEET_HOSTS)]
    pairs = [(s, r) for s in hosts for r in hosts if s != r]
    flows = rng.sample(pairs, int(len(pairs) * FLEET_DENSITY))
    # The invariants configure disjoint host sets, each host in exactly one,
    # so the number of flows forbidden, and the size of the maximum, hardly
    # depend on the seed.
    order = rng.sample(hosts, len(hosts))
    invariants = []
    for index in range(FLEET_INVARIANTS):
        kind = FLEET_KINDS[index % len(FLEET_KINDS)]
        configured = order[index * FLEET_CONFIGURED:(index + 1) * FLEET_CONFIGURED]
        invariants.append({
            "template": kind,
            "attributes": dict(zip(configured, _fleet_attributes(kind, index))),
        })
    data = {"hosts": hosts, "flows": [list(f) for f in flows], "invariants": invariants}
    _ensure_violated(rng, data, set(pairs))
    return data


def fleet(seed: int, inputs: Path) -> Workload:
    rng = random.Random(seed)
    keys = ("a", "b")
    paths, docs, maxima = {}, {}, {}
    for key in keys:
        data = fleet_document(rng)
        paths[key] = _write(inputs, f"fleet_{key}.json", data)
        docs[key] = oracle.Doc(data)
        maxima[key] = docs[key].maximum()
    mono_seed = rng.randrange(2**30)

    def mono_op(index):
        request = {"op": "monotonicity", "key": "a", "invariant": index,
                   "trials": MONOTONICITY_TRIALS, "seed": mono_seed + index}

        def check(reply, dot_text):
            # shipped templates are monotone, so no sub-policy of a satisfying one may fail
            oracle.expect(reply.get("value") is True, f"monotonicity of invariant {index} refuted")

        return Op("check", request, check)

    def invariant(kind, turn):
        """The ``turn``-th invariant of one template kind."""
        return FLEET_KINDS.index(kind) + len(FLEET_KINDS) * turn

    a, b = paths["a"], paths["b"]
    # Two commands of each kind per round, one per document, whose costs
    # lie close together: verify is always text (JSON costs about 30 % more);
    # construct and diff run once in JSON and once in text with DOT.  Five
    # checks, one per template plus a second domain one, whose cost lies
    # between the BLP and the gateway checks, so their median falls inside
    # one group of checks.  A short round repeats more often in a run, and a
    # command's best time is the fastest of more repetitions.
    ops = [
        _cli_op("verify", a, docs["a"], False),
        _cli_op("construct", a, docs["a"], True, maxima["a"]),
        _cli_op("diff", b, docs["b"], True, maxima["b"]),
        mono_op(invariant("blp_basic", 0)),
        mono_op(invariant("domain_hierarchy", 0)),
        _cli_op("verify", b, docs["b"], False),
        _cli_op("construct", b, docs["b"], False, maxima["b"], dot=True),
        _cli_op("diff", a, docs["a"], False, maxima["a"], dot=True),
        mono_op(invariant("blp_trust", 1)),
        mono_op(invariant("security_gateway", 2)),
        mono_op(invariant("domain_hierarchy", 3)),
        _selftest_op("selftest", 1),
    ]

    flows = [len(d.flows) for d in docs.values()]
    return Workload(
        files=list(paths.values()),
        prepare=[{"op": "load", "key": "a", "file": paths["a"], "maximum": True}],
        round=ops,
        layout={
            "documents": len(keys), "hosts": FLEET_HOSTS, "invariants": FLEET_INVARIANTS,
            "hosts_configured_per_invariant": FLEET_CONFIGURED,
            "policy_flows": flows, "invariants_violated": "all",
        },
    )


# ---------------------------------------------------------------------------
# cabin: the committed cabin scenarios plus cabin-shaped variants

# Sizes are fixed per slot; three slots of 30 hosts keep the median of
# every command kind inside one size class instead of between two.
CABIN_SIZES = (12, 30, 30, 30, 50, 80)
CABIN_VIOLATED = (False, True, False, True, False, True)


def cabin_document(rng, n_hosts, violated):
    """An aircraft cabin network with nearly every host configured.

    Crew and passenger devices sit at their own seat-level domain names and
    use trust to act at their group's level, so the domain invariant has
    about as many attribute classes as hosts.
    """
    n_crew = max(2, n_hosts // 6)
    n_ife = max(2, n_hosts // 5)
    n_pax = n_hosts - n_crew - n_ife - 3
    crew = ["CC"] + [f"C{i}" for i in range(1, n_crew)]
    ife = [f"IFE{i}" for i in range(1, n_ife + 1)]
    pax = [f"P{i}" for i in range(1, n_pax + 1)]
    hosts = crew + ["IFEsrv"] + ife + ["Wifi", "SAT"] + pax
    dom = {"CC": {"level": "crew.aircraft", "trust": 1}}
    dom.update({c: {"level": f"{c.lower()}.crew.aircraft", "trust": 1} for c in crew[1:]})
    dom["IFEsrv"] = {"level": "entertain.aircraft", "trust": 0}
    dom.update({t: {"level": f"{t.lower()}.entertain.aircraft", "trust": 1} for t in ife})
    dom["Wifi"] = {"level": "pod.entertain.aircraft", "trust": 1}
    dom["SAT"] = {"level": "inet.entertain.aircraft", "trust": 0}
    rows = max(1, n_pax // 6)
    seats = rng.sample(range(n_pax), n_pax)
    dom.update({p: {"level": f"{p.lower()}.row{seat % rows}.pod.entertain.aircraft", "trust": 2}
                for p, seat in zip(pax, seats)})
    sgw = {"IFEsrv": "sgwa"}
    sgw.update({t: "memb" for t in ife})
    blp = {c: {"sc": "secret", "trust": False} for c in crew}
    levels = [("confidential", "unclassified")[i % 2] for i in range(n_ife)]
    rng.shuffle(levels)
    blp.update({t: {"sc": sc, "trust": False} for t, sc in zip(ife, levels)})
    blp["IFEsrv"] = {"sc": "unclassified", "trust": True}
    blp.update({h: {"sc": "unclassified", "trust": False} for h in ["Wifi", "SAT"] + pax})
    invariants = [
        {"template": "domain_hierarchy", "attributes": dom},
        {"template": "security_gateway", "attributes": sgw},
        {"template": "blp_trust", "attributes": blp},
    ]
    probe = oracle.Doc({"hosts": hosts, "flows": [], "invariants": invariants})
    allowed = sorted(oracle.non_self(probe.maximum()))
    flows = set(rng.sample(allowed, len(allowed) * 3 // 5))
    if violated:
        pairs = [(s, r) for s in hosts for r in hosts if s != r]
        forbidden = sorted(set(pairs) - set(allowed))
        flows.update(rng.sample(forbidden, 3))
    return {"hosts": hosts, "flows": [list(f) for f in sorted(flows)], "invariants": invariants}


def cabin(seed: int, inputs: Path, scenarios: Path) -> Workload:
    rng = random.Random(seed)
    paths, docs = [], []
    for name in ("cabin.json", "cabin_bad.json"):
        shutil.copyfile(scenarios / name, inputs / name)
        paths.append(str(inputs / name))
        docs.append(oracle.Doc(json.loads((scenarios / name).read_text(encoding="utf-8"))))
    for slot, (size, violated) in enumerate(zip(CABIN_SIZES, CABIN_VIOLATED)):
        data = cabin_document(rng, size, violated)
        paths.append(_write(inputs, f"cabin_variant{slot}.json", data))
        docs.append(oracle.Doc(data))
    maxima = [d.maximum() for d in docs]

    ops = []
    for path, doc, maximum in zip(paths, docs, maxima):
        ops += [
            _cli_op("verify", path, doc, False),
            _cli_op("verify", path, doc, True),
            _cli_op("construct", path, doc, False, maximum, dot=True),
            _cli_op("construct", path, doc, True, maximum),
            _cli_op("diff", path, doc, False, maximum, dot=True),
            _cli_op("diff", path, doc, True, maximum),
        ]
    ops.append(_selftest_op("check", 25))

    return Workload(
        files=paths,
        prepare=[],
        round=ops,
        layout={
            "documents": len(paths), "hosts": [len(d.hosts) for d in docs],
            "policy_flows": [len(d.flows) for d in docs],
            "invariants_violated": [sum(not v[2] for v in d.verdicts) for d in docs],
        },
    )


# ---------------------------------------------------------------------------
# enum: reachability enumeration and the default-attribute checkers

# (flows, violated) per verify slot.  Seven 14-flow violated slots sit in the
# middle, so the median verify is one of them whatever the seed.
ENUM_VERIFY_SLOTS = ((10, False), (16, False), (12, True), (13, True)) + ((14, True),) * 7 + ((16, True),)
ENUM_CONSTRUCT_DOCS = 3

# Default-attribute checks: (kind, template, host count, universe, edge bound, candidate).
# The secure defaults come from the paper; "secret" for blp_basic is a known
# insecure candidate whose counterexample the oracle confirms.
_DOMAIN_SMALL = [None] + [{"level": lv, "trust": t} for lv in ("a", "b") for t in (0, 1)]
_DOMAIN_DEPTH2 = [None] + [{"level": lv, "trust": t}
                           for lv in ("a", "b", "a.a", "a.b", "b.a", "b.b") for t in (0, 1)]
ENUM_CHECKS = (
    ("unique", "blp_basic", 3, ["unclassified", "confidential", "secret", "topsecret"], 4, None),
    ("unique", "security_gateway", 3, ["sgw", "sgwa", "memb", "default"], 4, None),
    ("unique", "no_transitive_access", 3, ["src", "snk", "none"], 4, None),
    ("unique", "blp_trust", 3, [{"sc": sc, "trust": t} for sc in ("unclassified", "secret")
                                for t in (False, True)], 4, None),
    ("unique", "domain_hierarchy", 3, _DOMAIN_SMALL, 4, None),
    ("secure", "domain_hierarchy", 2, _DOMAIN_DEPTH2, 4, None),
    ("counterexample", "blp_basic", 3, ["unclassified", "confidential", "secret", "topsecret"],
     4, "secret"),
)


def _reach_roles(rng, hosts):
    """One configured source, one unconfigured host (a source by the secure
    default), one sink, the rest ``none``; the seed picks which host is which.
    A fixed role mix keeps the enumeration's cost independent of the seed."""
    src, _unconfigured, snk, *rest = rng.sample(hosts, len(hosts))
    return {src: "src", snk: "snk", **{h: "none" for h in rest}}


def reach_document(rng, n_hosts, n_flows, violated):
    hosts = [f"h{i}" for i in range(n_hosts)]
    while True:
        roles = _reach_roles(rng, hosts)
        inv = oracle.Invariant("no_transitive_access", roles)
        if violated:
            pool = [(s, r) for s in hosts for r in hosts]
        else:
            # split the hosts so no flow leads from the sources' side to the sinks'
            upstream = {h for h in hosts if inv.attr(h) == "snk"} | set(rng.sample(hosts, 1))
            upstream -= {h for h in hosts if inv.attr(h) == "src"}
            pool = [(s, r) for s in hosts for r in hosts if not (s not in upstream and r in upstream)]
        if len(pool) < n_flows:
            continue
        flows = set(rng.sample(pool, n_flows))
        if inv.holds(hosts, flows) == violated:
            continue
        # A violated document needs two flows cut and has two to four minimal
        # repair sets: among 14-flow graphs this narrows the quartile spread
        # of the enumeration's cost from about 20 % to 12 % of its median.
        cuts = inv.repair_sets(hosts, flows)
        if violated and (min(map(len, cuts)) != 2 or not 2 <= len(cuts) <= 4):
            continue
        return {"hosts": hosts, "flows": [list(f) for f in sorted(flows)],
                "invariants": [{"template": "no_transitive_access", "attributes": roles}]}


def enum(seed: int, inputs: Path) -> Workload:
    rng = random.Random(seed)
    verify_ops = []
    files = []
    for slot, (n_flows, violated) in enumerate(ENUM_VERIFY_SLOTS):
        data = reach_document(rng, 5 if n_flows <= 12 else 6, n_flows, violated)
        path = _write(inputs, f"reach_verify{slot}.json", data)
        files.append(path)
        doc = oracle.Doc(data)
        verify_ops.append(_cli_op("verify", path, doc, slot % 2 == 1))
    construct_ops, diff_ops = [], []
    for slot in range(ENUM_CONSTRUCT_DOCS):
        hosts = [f"h{i}" for i in range(4)]
        pairs = [(s, r) for s in hosts for r in hosts]
        data = {"hosts": hosts, "flows": [list(f) for f in sorted(rng.sample(pairs, 8))],
                "invariants": [{"template": "no_transitive_access",
                                "attributes": _reach_roles(rng, hosts)}]}
        path = _write(inputs, f"reach_construct{slot}.json", data)
        files.append(path)
        doc = oracle.Doc(data)
        # json, json with DOT, text: each file gets one output form per kind
        for kind, bucket in (("construct", construct_ops), ("diff", diff_ops)):
            bucket.append(_cli_op(kind, path, doc, slot != 2, dot=slot == 1))
    check_ops = []
    host_names = sorted(rng.sample([f"u{i}" for i in range(100)], 3))
    for kind, template, n_hosts, universe, bound, candidate in ENUM_CHECKS:
        hosts = host_names[:n_hosts]
        request = {"op": "default", "kind": kind, "template": template, "hosts": hosts,
                   "universe": universe, "edge_bound": bound, "candidate": candidate}
        check_ops.append(Op("check", request, _default_check(kind, template, hosts, candidate)))

    ops = _interleave(verify_ops, construct_ops, diff_ops, check_ops, [_selftest_op("selftest", 1)])
    return Workload(
        files=files,
        prepare=[],
        round=ops,
        layout={
            "verify_documents": len(ENUM_VERIFY_SLOTS),
            "verify_flows_and_violated": ENUM_VERIFY_SLOTS,
            "construct_documents": ENUM_CONSTRUCT_DOCS, "construct_hosts": 4,
            "default_checks": [c[:3] + (c[4],) for c in ENUM_CHECKS],
        },
    )


def _default_check(kind, template, hosts, candidate):
    def check(reply, dot_text):
        if kind == "counterexample":
            oracle.check_counterexample(template, hosts, candidate, reply.get("value"))
        else:
            # the paper's result: every shipped default is secure and unique
            oracle.expect(reply.get("value") is True, f"{kind} default check of {template} failed")

    return check


def build(name: str, seed: int, inputs: Path, scenarios: Path) -> Workload:
    if name == "fleet":
        return fleet(seed, inputs)
    if name == "cabin":
        return cabin(seed, inputs, scenarios)
    return enum(seed, inputs)


WORKLOADS = ("fleet", "cabin", "enum")
