"""The benchmark oracle against hand-worked cases.

    python3 -m unittest discover -s perfbench -p "test_oracle.py"

These tests use no ``policyverif`` code: each expected value below is
worked out by hand from the README's template table.
"""

import json
import unittest
from pathlib import Path

import oracle

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return oracle.Doc(json.loads((SCENARIOS / name).read_text(encoding="utf-8")))


class CabinScenarios(unittest.TestCase):
    def test_cabin_bad_has_one_forbidden_flow(self):
        verdicts = load("cabin_bad.json").verdicts
        violated = [v for v in verdicts if not v[2]]
        self.assertEqual(len(violated), 1)
        name, strategy, holds, sets, blamed = violated[0]
        # IFE1 and IFE2 are both gateway members: they must not talk directly
        self.assertEqual(name, "security_gateway")
        self.assertEqual(sets, {frozenset({("IFE1", "IFE2")})})
        self.assertEqual(blamed, {"IFE1"})  # access control blames the sender

    def test_cabin_policy_is_its_maximum(self):
        doc = load("cabin.json")
        self.assertTrue(all(v[2] for v in doc.verdicts))
        self.assertEqual(oracle.non_self(doc.maximum()), doc.flows)
        self.assertIn(("Wifi", "SAT"), doc.flows)
        self.assertNotIn(("SAT", "Wifi"), doc.maximum())


class Reachability(unittest.TestCase):
    def doc(self, roles, flows):
        hosts = sorted({h for f in flows for h in f} | set(roles))
        return oracle.Doc({"hosts": hosts, "flows": [list(f) for f in flows],
                           "invariants": [{"template": "no_transitive_access", "attributes": roles}]})

    def test_c03_two_repair_sets(self):
        doc = self.doc({"v1": "src", "v2": "none", "v3": "snk"}, [("v1", "v2"), ("v2", "v3")])
        (_, strategy, holds, sets, blamed), = doc.verdicts
        self.assertFalse(holds)
        self.assertEqual(sets, {frozenset({("v1", "v2")}), frozenset({("v2", "v3")})})
        self.assertEqual(blamed, {"v1", "v2"})
        inv = doc.invariants[0]
        self.assertTrue(oracle.is_repair_set(inv, doc.hosts, doc.flows, frozenset({("v1", "v2")})))
        # not minimal: either flow alone already repairs
        self.assertFalse(oracle.is_repair_set(inv, doc.hosts, doc.flows, frozenset(doc.flows)))

    def test_diamond_has_four_cuts(self):
        flows = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("d", "d")]
        doc = self.doc({"a": "src", "b": "none", "c": "none", "d": "snk"}, flows)
        sets = doc.verdicts[0][3]
        self.assertEqual(sets, {
            frozenset({("a", "b"), ("a", "c")}), frozenset({("a", "b"), ("c", "d")}),
            frozenset({("b", "d"), ("a", "c")}), frozenset({("b", "d"), ("c", "d")}),
        })

    def test_unconfigured_hosts_are_sources(self):
        doc = self.doc({"y": "snk"}, [("x", "y")])
        self.assertEqual(doc.verdicts[0][3], {frozenset({("x", "y")})})
        self.assertTrue(self.doc({"x": "none", "y": "snk"}, [("x", "y")]).verdicts[0][2])


class EdgeRules(unittest.TestCase):
    def test_security_gateway_role_table(self):
        allows = oracle.RULES["security_gateway"].allows
        denied = {(s, r) for s in ("sgw", "sgwa", "memb", "default")
                  for r in ("sgw", "sgwa", "memb", "default") if not allows(s, r)}
        self.assertEqual(denied, {("memb", "memb"), ("default", "sgw"), ("default", "memb")})

    def test_gateway_exempts_self_flows_only(self):
        inv = oracle.Invariant("security_gateway", {"m": "memb", "n": "memb"})
        self.assertEqual(inv.bad_flows({("m", "m"), ("m", "n")}), {("m", "n")})

    def test_domain_order_and_ascent(self):
        wh = ("wh", "e", "cc")
        self.assertTrue(oracle.at_or_below(wh, ("e", "cc")))
        self.assertFalse(oracle.at_or_below(("br", "e", "cc"), wh))
        self.assertEqual(oracle.ascend(("br", "e", "cc"), 1), ("e", "cc"))
        self.assertEqual(oracle.ascend(("e", "cc"), 2), oracle.TOP)
        allows = oracle.RULES["domain_hierarchy"].allows
        # an unassigned sender reaches only unassigned receivers
        self.assertFalse(allows((None, 0), (("x",), 0)))
        self.assertTrue(allows((("x",), 0), (None, 0)))

    def test_blp_trust_receiver_declassifies(self):
        allows = oracle.RULES["blp_trust"].allows
        self.assertTrue(allows((2, False), (0, True)))
        self.assertFalse(allows((2, False), (0, False)))
        self.assertEqual(oracle.Invariant("blp_basic", {"db": "Secret"}).blame({("db", "web")}), {"web"})


class OutputChecks(unittest.TestCase):
    def test_wrong_verify_json_is_rejected(self):
        doc = load("cabin_bad.json")
        data = {"overall": False, "invariants": [
            {"name": n, "strategy": s, "holds": h, "offending": [sorted(map(list, fs)) for fs in sets],
             "offender_hosts": sorted(b)} for n, s, h, sets, b in doc.verdicts]}
        oracle.check_verify(doc, 1, json.dumps(data), True)
        data["invariants"][1]["offender_hosts"] = ["IFE2"]
        with self.assertRaises(oracle.Mismatch):
            oracle.check_verify(doc, 1, json.dumps(data), True)
        with self.assertRaises(oracle.Mismatch):
            oracle.check_verify(doc, 0, json.dumps(data), True)

    def test_dot_edges_parse_back(self):
        text = 'digraph policy {\n  "a";\n  "b\\"c";\n  "a" -> "b\\"c" [color=red];\n}\n'
        nodes, edges = oracle.parse_dot(text)
        self.assertEqual(nodes, {"a", 'b"c'})
        self.assertEqual(edges, {("a", 'b"c'): "color=red"})

    def test_counterexample_confirmed(self):
        # "secret" as default would hide a secret -> unclassified leak at the receiver
        found = {"flows": [["u", "v"]], "mapping": {"u": "secret", "v": "unclassified"},
                 "flow_set": [["u", "v"]], "host": "v"}
        oracle.check_counterexample("blp_basic", ["u", "v"], "secret", found)
        with self.assertRaises(oracle.Mismatch):
            oracle.check_counterexample("blp_basic", ["u", "v"], "unclassified", found)


if __name__ == "__main__":
    unittest.main()
