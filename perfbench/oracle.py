"""Independent oracle for the benchmark's correctness checks.

Nothing here imports ``policyverif``.  The five template rules are written
again from the README's template table, reachability has its own BFS, and
the minimal repair sets of a reachability invariant come from the minimal
transversals of its source-to-sink paths (Berge's algorithm), not from the
subset enumeration the program uses.  Scenario documents are read as plain
JSON; attribute literals are normalised to small tuples and strings.

The ``check_*`` functions take one command's output and raise
:class:`Mismatch` on the first disagreement with the oracle.  They parse
the documented text, JSON and DOT formats and ignore lines and keys they do
not know, so an output format that gains fields still passes.
"""

from __future__ import annotations

import functools
import json
import re
from collections import defaultdict

CLEARANCE = {"unclassified": 0, "confidential": 1, "secret": 2, "topsecret": 3}
TOP = "<top>"  # domain level above every name; only ``ascend`` produces it
SGW_DENIED = {("memb", "memb"), ("default", "sgw"), ("default", "memb")}


class Mismatch(Exception):
    """An output disagrees with the oracle."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# template rules, from the README's table

def _clearance(literal):
    return CLEARANCE[literal.lower()]


def _blp_trust(literal):
    return (_clearance(literal["sc"]), bool(literal.get("trust", False)))


def _dom(literal):
    return (tuple(literal["level"].split(".")), int(literal.get("trust", 0)))


def ascend(level, trust):
    """The level a sender may act from: ``trust`` labels further up."""
    if level is None or level == TOP or trust <= 0:
        return level
    if trust >= len(level):
        return TOP
    return level[trust:]


def at_or_below(a, b):
    """Is domain level ``a`` at or below ``b``?  ``None`` is the unassigned bottom."""
    if a is None or b == TOP:
        return True
    if a == TOP or b is None:
        return False
    return len(a) >= len(b) and a[len(a) - len(b):] == b


class Rule:
    def __init__(self, strategy, default, parse, allows=None, self_exempt=False):
        self.strategy = strategy
        self.default = default
        self.parse = parse
        self.allows = allows  # None: not edge-local (reachability)
        self.self_exempt = self_exempt


RULES = {
    "blp_basic": Rule("IFS", 0, _clearance, lambda s, r: s <= r),
    "blp_trust": Rule("IFS", (0, False), _blp_trust, lambda s, r: r[1] or s[0] <= r[0]),
    "domain_hierarchy": Rule(
        "ACS", (None, 0), _dom, lambda s, r: at_or_below(r[0], ascend(s[0], s[1]))
    ),
    "security_gateway": Rule(
        "ACS", "default", str.lower, lambda s, r: (s, r) not in SGW_DENIED, self_exempt=True
    ),
    "no_transitive_access": Rule("ACS", "src", str.lower),
}


class Invariant:
    def __init__(self, name, attributes):
        self.name = name
        self.rule = RULES[name]
        self.attrs = {host: self.rule.parse(lit) for host, lit in attributes.items()}

    @property
    def edge_local(self):
        return self.rule.allows is not None

    def attr(self, host):
        return self.attrs.get(host, self.rule.default)

    def bad_flows(self, flows):
        """Flows an edge-local invariant rejects."""
        allows, attr = self.rule.allows, self.attr
        return {
            (s, r) for s, r in flows
            if not (self.rule.self_exempt and s == r) and not allows(attr(s), attr(r))
        }

    def holds(self, hosts, flows):
        if self.edge_local:
            return not self.bad_flows(flows)
        return not reaches(hosts, flows, self.attr)

    def blame(self, flow_set):
        pick = 0 if self.rule.strategy == "ACS" else 1
        return {flow[pick] for flow in flow_set}

    def repair_sets(self, hosts, flows):
        """Every minimal set of flows whose removal makes the invariant hold."""
        if self.edge_local:
            bad = self.bad_flows(flows)
            return {frozenset(bad)} if bad else set()
        if not reaches(hosts, flows, self.attr):
            return set()
        return minimal_transversals(source_sink_paths(hosts, flows, self.attr))


def reaches(hosts, flows, attr):
    """Does some ``src`` host reach some ``snk`` host over one or more flows?"""
    succ = defaultdict(list)
    for s, r in flows:
        succ[s].append(r)
    queue = [r for h in hosts if attr(h) == "src" for r in succ[h]]
    seen = set()
    while queue:
        host = queue.pop()
        if attr(host) == "snk":
            return True
        if host not in seen:
            seen.add(host)
            queue.extend(succ[host])
    return False


def source_sink_paths(hosts, flows, attr):
    """Edge sets of the simple paths from a ``src`` host to a ``snk`` host."""
    succ = defaultdict(list)
    for s, r in flows:
        if s != r:
            succ[s].append(r)
    paths = []

    def walk(host, visited, edges):
        for nxt in succ[host]:
            if nxt in visited:
                continue
            step = edges + [(host, nxt)]
            if attr(nxt) == "snk":
                paths.append(frozenset(step))
            walk(nxt, visited | {nxt}, step)

    for h in sorted(hosts):
        if attr(h) == "src":
            walk(h, {h}, [])
    return paths


def minimal_transversals(edge_sets):
    """Berge's algorithm: every minimal set meeting each of ``edge_sets``."""
    current = {frozenset()}
    for edges in sorted(set(edge_sets), key=len):
        grown = set()
        for t in current:
            if t & edges:
                grown.add(t)
            else:
                grown.update(t | {e} for e in edges)
        current = {t for t in grown if not any(u < t for u in grown)}
    return current


# ---------------------------------------------------------------------------
# scenario documents

class Doc:
    """A scenario document as the oracle sees it."""

    def __init__(self, data):
        self.hosts = list(data["hosts"])
        self.flows = {tuple(f) for f in data["flows"]}
        self.invariants = [Invariant(i["template"], i.get("attributes", {}))
                           for i in data["invariants"]]
        self.edge_local = all(inv.edge_local for inv in self.invariants)

    def holds_all(self, flows):
        return all(inv.holds(self.hosts, flows) for inv in self.invariants)

    @functools.cached_property
    def verdicts(self):
        """Per invariant: (name, strategy, holds, repair sets, blamed hosts)."""
        out = []
        for inv in self.invariants:
            sets = inv.repair_sets(self.hosts, self.flows)
            blamed = set().union(*(inv.blame(fs) for fs in sets)) if sets else set()
            out.append((inv.name, inv.rule.strategy, not sets, sets, blamed))
        return out

    def maximum(self):
        """The unique maximal policy of an edge-local scenario, self-flows kept.

        Hosts are grouped by attribute per invariant, so each rule is asked
        once per pair of attribute classes rather than once per host pair.
        """
        assert self.edge_local
        forbidden = set()
        for inv in self.invariants:
            classes = defaultdict(list)
            for h in self.hosts:
                classes[inv.attr(h)].append(h)
            for a, senders in classes.items():
                for b, receivers in classes.items():
                    if not inv.rule.allows(a, b):
                        forbidden.update((s, r) for s in senders for r in receivers)
        return {(s, r) for s in self.hosts for r in self.hosts
                if s == r or (s, r) not in forbidden}

    def is_maximal(self, flows):
        """Does adding any missing pair of distinct hosts break an invariant?"""
        for s in self.hosts:
            for r in self.hosts:
                if s != r and (s, r) not in flows and self.holds_all(flows | {(s, r)}):
                    return False
        return True


def non_self(flows):
    return {(s, r) for s, r in flows if s != r}


def is_repair_set(inv, hosts, flows, flow_set):
    """The three defining conjuncts: the invariant is violated, removing
    ``flow_set`` repairs it, and adding back any one of its flows breaks it."""
    rest = flows - flow_set
    return (flow_set <= flows and not inv.holds(hosts, flows) and inv.holds(hosts, rest)
            and not any(inv.holds(hosts, rest | {f}) for f in flow_set))


# ---------------------------------------------------------------------------
# output parsers

_FLOW = re.compile(r"^\s*(\S+) -> (\S+)$")
_INV = re.compile(r"^invariant (\d+): (\S+) \[(ACS|IFS)\] \.\.\. (ok|VIOLATED)$")
_OPTION = re.compile(r"^\s+option \d+ \((\d+) flow\(s\)\): (.*?)(?: \(\+(\d+) more\))?$")
_DOT_NAME = r'"((?:[^"\\]|\\.)*)"'
_DOT_EDGE = re.compile(rf"^\s*{_DOT_NAME} -> {_DOT_NAME}(?: \[([^\]]*)\])?;$")
_DOT_NODE = re.compile(rf"^\s*{_DOT_NAME};$")


def _pairs(items):
    return {tuple(p) for p in items}


def _unquote(name):
    return re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), name)


def parse_dot(text):
    """Nodes and ``{edge: attributes}`` of a DOT digraph."""
    lines = text.strip().splitlines()
    expect(lines and lines[0].startswith("digraph") and lines[-1] == "}", "DOT: not a digraph")
    nodes, edges = set(), {}
    for line in lines[1:-1]:
        m = _DOT_EDGE.match(line)
        if m:
            edge = (_unquote(m.group(1)), _unquote(m.group(2)))
            expect(edge not in edges, f"DOT: edge {edge} twice")
            edges[edge] = m.group(3) or ""
            continue
        m = _DOT_NODE.match(line)
        if m:
            nodes.add(_unquote(m.group(1)))
    return nodes, edges


def parse_policy_text(text):
    hosts, flows = None, set()
    for line in text.splitlines():
        if line.startswith("hosts ("):
            hosts = set(line.split(": ", 1)[1].split(", ")) if ": " in line else set()
        m = _FLOW.match(line)
        if m:
            flows.add((m.group(1), m.group(2)))
    expect(hosts is not None, "construct: no hosts line")
    return hosts, flows


def parse_diff_text(text):
    sections = {"violating": set(), "missing": set()}
    counts = {}
    current = None
    for line in text.splitlines():
        if line.startswith("violating flows ("):
            current = "violating"
        elif line.startswith("permitted but missing ("):
            current = "missing"
        elif line.startswith("reflexive flows"):
            current = None
            counts["reflexive"] = int(line.rsplit(":", 1)[1])
        else:
            m = _FLOW.match(line)
            if m and current:
                sections[current].add((m.group(1), m.group(2)))
            continue
        if current:
            counts[current] = int(line.split("(", 1)[1].split(")", 1)[0])
    for key in ("violating", "missing"):
        expect(counts.get(key) == len(sections[key]), f"diff: {key} count line disagrees")
    expect("reflexive" in counts, "diff: no reflexive line")
    return sections["violating"], sections["missing"], counts["reflexive"]


# ---------------------------------------------------------------------------
# checks, one per command kind

def check_verify(doc, code, out, as_json):
    verdicts = doc.verdicts
    overall = all(v[2] for v in verdicts)
    expect(code == (0 if overall else 1), f"verify: exit {code}, expected {0 if overall else 1}")
    if as_json:
        data = json.loads(out)
        expect(data["overall"] is overall, "verify: overall")
        got = data["invariants"]
        expect(len(got) == len(verdicts), "verify: invariant count")
        for i, (entry, (name, strategy, holds, sets, blamed)) in enumerate(zip(got, verdicts)):
            expect(entry["name"] == name and entry["strategy"] == strategy, f"invariant {i}: name")
            expect(entry["holds"] is holds, f"invariant {i}: holds")
            got_sets = [frozenset(_pairs(fs)) for fs in entry["offending"]]
            expect(len(got_sets) == len(set(got_sets)), f"invariant {i}: repeated repair set")
            inv = doc.invariants[i]
            if not inv.edge_local:
                for fs in got_sets:
                    expect(is_repair_set(inv, doc.hosts, doc.flows, fs), f"invariant {i}: {sorted(fs)}")
            expect(set(got_sets) == sets, f"invariant {i}: repair sets")
            expect(set(entry["offender_hosts"]) == blamed, f"invariant {i}: offending hosts")
        return
    lines = out.splitlines()
    expect(lines and lines[-1] == f"overall: {'ok' if overall else 'VIOLATED'}", "verify: overall line")
    starts = [n for n, line in enumerate(lines) if _INV.match(line)] + [len(lines) - 1]
    expect(len(starts) - 1 == len(verdicts), "verify: invariant count")
    for (start, end), (name, strategy, holds, sets, blamed) in zip(zip(starts, starts[1:]), verdicts):
        m = _INV.match(lines[start])
        label = f"invariant {m.group(1)}"
        expect(m.group(2) == name and m.group(3) == strategy, f"{label}: name")
        expect((m.group(4) == "ok") == holds, f"{label}: verdict")
        block = [line.strip() for line in lines[start + 1:end]]
        options = [o for o in map(_OPTION.match, lines[start + 1:end]) if o]
        if holds:
            expect(not options, f"{label}: repair options for a holding invariant")
            continue
        expect(f"repair options: {len(sets)}" in block, f"{label}: option count")
        sizes = sorted(len(fs) for fs in sets)
        expect(sorted(int(o.group(1)) for o in options) == sizes, f"{label}: option sizes")
        for o in options:
            size = int(o.group(1))
            shown = {tuple(f.split(" -> ")) for f in o.group(2).split(", ")}
            expect(len(shown) + int(o.group(3) or 0) == size, f"{label}: shown + more != size")
            expect(any(shown <= fs and len(fs) == size for fs in sets),
                   f"{label}: shown flows are in no repair set")
        hosts_lines = [line for line in block if line.startswith("offending hosts: ")]
        expect(len(hosts_lines) == 1, f"{label}: offending hosts line")
        expect(set(hosts_lines[0].split(": ", 1)[1].split(", ")) == blamed, f"{label}: offending hosts")


def check_construct(doc, code, out, as_json, dot_text=None, expected_max=None):
    """``expected_max`` is the oracle's maximum for edge-local scenarios."""
    expect(code == 0, f"construct: exit {code}")
    if as_json:
        data = json.loads(out)
        hosts, flows, maximal = set(data["hosts"]), _pairs(data["flows"]), data["maximal"]
    else:
        hosts, flows = parse_policy_text(out)
        maximal = "possibly non-maximal" not in out
    expect(hosts == set(doc.hosts), "construct: hosts")
    expect(all(s in hosts and r in hosts for s, r in flows), "construct: dangling flow")
    expect(all((h, h) in flows for h in hosts), "construct: a self-flow was removed")
    if expected_max is not None:
        expect(flows == expected_max, "construct: not the oracle's maximum")
        expect(maximal, "construct: maximal flag false on an edge-local scenario")
    else:
        expect(doc.holds_all(flows), "construct: result violates an invariant")
        if maximal:
            expect(doc.is_maximal(flows), "construct: claims maximal but a flow can be added")
    if dot_text is not None:
        nodes, edges = parse_dot(dot_text)
        expect(nodes == hosts, "construct DOT: nodes")
        expect(set(edges) == non_self(flows), "construct DOT: edges")
        expect(not any(edges.values()), "construct DOT: styled edge in a plain policy")


def check_diff(doc, code, out, as_json, dot_text=None, expected_max=None):
    expect(code == 0, f"diff: exit {code}")
    if as_json:
        data = json.loads(out)
        violating, missing = _pairs(data["violating"]), _pairs(data["permitted_missing"])
        reflexive = len(data["reflexive"])
        expect(_pairs(data["reflexive"]) == doc.flows - non_self(doc.flows), "diff: reflexive flows")
    else:
        violating, missing, reflexive = parse_diff_text(out)
    user = non_self(doc.flows)
    expect(reflexive == len(doc.flows) - len(user), "diff: reflexive count")
    if expected_max is not None:
        maximum = non_self(expected_max)
        expect(violating == user - maximum, "diff: violating flows")
        expect(missing == maximum - user, "diff: permitted-but-missing flows")
    else:
        expect(violating <= user and not (missing & user), "diff: sets overlap the policy wrongly")
        expect(not any(s == r for s, r in missing | violating), "diff: self-flow reported")
        implied = (user - violating) | missing | {(h, h) for h in doc.hosts}
        expect(doc.holds_all(implied), "diff: implied maximum violates an invariant")
    if dot_text is not None:
        nodes, edges = parse_dot(dot_text)
        expect(nodes == set(doc.hosts), "diff DOT: nodes")
        expect(set(edges) == user | missing, "diff DOT: edges")
        expect({e for e, a in edges.items() if "color=red" in a} == violating, "diff DOT: red edges")
        expect({e for e, a in edges.items() if "style=dashed" in a} == missing, "diff DOT: dashed edges")


def check_selftest(code, out, template_names):
    expect(code == 0, f"selftest: exit {code}")
    lines = out.splitlines()
    expect(lines and lines[-1] == "selftest: ok", "selftest: last line")
    expect(not any("FAILED" in line for line in lines), "selftest: a check failed")
    expect({line for line in lines if not line.startswith(" ")} - {"selftest: ok"}
           == set(template_names), "selftest: templates covered")


def check_counterexample(name, hosts, candidate, found):
    """Confirm a reported secure-default counterexample with the oracle's rules.

    ``found`` is ``{"flows", "mapping", "flow_set", "host"}`` in file
    literals.  It must show a violated invariant, a repair set blaming
    ``host``, and remapping ``host`` to ``candidate`` making it hold.
    """
    expect(found is not None, f"{name}: no counterexample for an insecure candidate")
    flows = _pairs(found["flows"])
    expect(all(s in hosts and r in hosts for s, r in flows), "counterexample: dangling flow")
    inv = Invariant(name, found["mapping"])
    expect(not inv.holds(hosts, flows), "counterexample: policy does not violate")
    flow_set = frozenset(_pairs(found["flow_set"]))
    expect(is_repair_set(inv, hosts, flows, flow_set), "counterexample: not a repair set")
    expect(found["host"] in inv.blame(flow_set), "counterexample: host not blamed")
    remapped = Invariant(name, {**found["mapping"], found["host"]: candidate})
    expect(remapped.holds(hosts, flows), "counterexample: candidate does not mask the violation")
