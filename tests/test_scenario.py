import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv

from helpers import CORPUS, cabin_invariants, CABIN_HOSTS

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def cabin_text():
    return (SCENARIOS / "cabin.json").read_text(encoding="utf-8")


def test_parse_cabin_scenario():
    scenario = pv.parse_scenario(cabin_text())
    assert scenario.policy.hosts == set(CABIN_HOSTS)
    assert len(scenario.invariants) == 3
    assert [inst.template.name for inst in scenario.invariants] == [
        "domain_hierarchy",
        "security_gateway",
        "blp_trust",
    ]
    assert scenario.invariants == cabin_invariants()


def test_parse_trivial_scenario():
    scenario = pv.parse_scenario('{"hosts": [], "flows": [], "invariants": []}')
    assert scenario.policy == pv.Policy(frozenset(), frozenset())
    assert scenario.invariants == ()


def test_parse_allows_missing_sections():
    scenario = pv.parse_scenario('{"hosts": ["A"]}')
    assert scenario.policy.hosts == {"A"}


def test_unknown_host_in_attributes():
    document = json.dumps(
        {
            "hosts": ["IFE1"],
            "flows": [],
            "invariants": [{"template": "blp_basic", "attributes": {"IFE3": "secret"}}],
        }
    )
    with pytest.raises(pv.UnknownHost) as exc:
        pv.parse_scenario(document)
    assert exc.value.host == "IFE3"


def test_unknown_flow_endpoint():
    with pytest.raises(pv.UnknownHost):
        pv.parse_scenario('{"hosts": ["A"], "flows": [["A", "B"]], "invariants": []}')


def test_unknown_template():
    document = '{"hosts": [], "flows": [], "invariants": [{"template": "nosuch"}]}'
    with pytest.raises(pv.UnknownTemplate) as exc:
        pv.parse_scenario(document)
    assert exc.value.name == "nosuch"


def test_bad_attribute_literal():
    document = json.dumps(
        {
            "hosts": ["A"],
            "flows": [],
            "invariants": [{"template": "blp_basic", "attributes": {"A": "ultrasecret"}}],
        }
    )
    with pytest.raises(pv.BadAttribute) as exc:
        pv.parse_scenario(document)
    assert exc.value.host == "A"
    assert exc.value.literal == "ultrasecret"


def test_syntax_error_carries_position():
    with pytest.raises(pv.ScenarioSyntaxError) as exc:
        pv.parse_scenario('{"hosts": [,]}')
    assert exc.value.line == 1
    assert exc.value.column is not None


@pytest.mark.parametrize(
    "document",
    [
        '{"hosts": ["A", "A"], "flows": [], "invariants": []}',
        '{"hosts": ["A"], "flows": [["A","A"],["A","A"]], "invariants": []}',
        '{"hosts": ["A"], "flows": [], "invariants": [], "extra": 1}',
        '{"hosts": [""], "flows": [], "invariants": []}',
        '{"hosts": "A", "flows": [], "invariants": []}',
        '{"hosts": ["A"], "flows": [["A"]], "invariants": []}',
        '{"hosts": ["A"], "flows": [["A", ["A"]]], "invariants": []}',
        '{"hosts": ["A"], "flows": [], "invariants": ["blp_basic"]}',
        '{"hosts": ["A"], "flows": [], "invariants": [{"template": "blp_basic", "attributes": ["A"]}]}',
        '{"hosts": ["A"], "flows": [], "invariants": [{"template": "blp_basic", "oops": 1}]}',
        '{"hosts": ["A"], "flows": [], "invariants": [{"attributes": {}}]}',
        '[1, 2]',
        '{"hosts": ["\\ud800"], "flows": [], "invariants": []}',
        '{"hosts": ["b\\noverall: ok"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\rb"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u0000"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u001b[2J"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u007f"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u0085b"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u2028b"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u2029b"], "flows": [], "invariants": []}',
        '{"hosts": ["a\\u001cb"], "flows": [], "invariants": []}',
        pytest.param("[" * 100000 + "]" * 100000, id="nested-too-deep"),
        pytest.param("[" + "1" * 5000 + "]", id="integer-too-long"),
    ],
)
def test_malformed_documents_are_rejected(document):
    with pytest.raises(pv.ScenarioError):
        pv.parse_scenario(document)


def test_duplicate_json_keys_rejected():
    with pytest.raises(pv.ScenarioFormatError):
        pv.parse_scenario('{"hosts": [], "hosts": []}')


def test_round_trip_cabin():
    scenario = pv.parse_scenario(cabin_text())
    assert pv.parse_scenario(pv.serialize_scenario(scenario)) == scenario


def test_serialized_form_is_canonical():
    text = pv.serialize_scenario(pv.parse_scenario(cabin_text()))
    assert text == pv.serialize_scenario(pv.parse_scenario(text))
    assert text == cabin_text()


def test_serialize_rejects_unregistered_templates():
    hand_rolled = pv.edge_template(
        "anything_goes", pv.Strategy.ACS, None, lambda a, b: True
    )
    scenario = pv.Scenario(
        pv.make_policy({"A"}, set()), (pv.InvariantInstance(hand_rolled, {}),)
    )
    with pytest.raises(ValueError):
        pv.serialize_scenario(scenario)


def test_policy_round_trip_through_serialization():
    policy = pv.make_policy({"b", "a"}, {("a", "b"), ("b", "b")})
    restored = pv.parse_scenario(pv.serialize_scenario(pv.Scenario(policy, ()))).policy
    assert restored == policy


# every name the file format admits: no surrogates, control characters or
# line and paragraph separators
host_name = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1, max_size=10
)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_round_trip_random_scenarios(data):
    hosts = sorted(data.draw(st.sets(host_name, min_size=0, max_size=5)))
    pairs = [(a, b) for a in hosts for b in hosts]
    flows = data.draw(st.frozensets(st.sampled_from(pairs), max_size=8)) if pairs else frozenset()
    instances = []
    for name in data.draw(st.lists(st.sampled_from(sorted(CORPUS)), max_size=3)):
        spec = CORPUS[name]
        pool = spec.get("file_attrs", spec["attrs"])
        config = {
            h: data.draw(st.sampled_from(pool))
            for h in hosts
            if data.draw(st.booleans())
        }
        instances.append(pv.InvariantInstance(spec["template"](), config))
    scenario = pv.Scenario(pv.make_policy(hosts, flows), tuple(instances))
    assert pv.parse_scenario(pv.serialize_scenario(scenario)) == scenario
