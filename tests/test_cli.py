import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv
from policyverif.cli import cli_main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CABIN = str(SCENARIOS / "cabin.json")
CABIN_BAD = str(SCENARIOS / "cabin_bad.json")


def test_verify_cabin_exits_zero(capsys):
    assert cli_main(["verify", CABIN]) == 0
    out = capsys.readouterr().out
    assert "overall: ok" in out


def test_verify_cabin_bad_exits_one(capsys):
    assert cli_main(["verify", CABIN_BAD]) == 1
    out = capsys.readouterr().out
    assert "security_gateway" in out
    assert "IFE1 -> IFE2" in out
    assert "offending hosts: IFE1" in out
    assert "overall: VIOLATED" in out


def test_verify_missing_file_exits_two(capsys):
    assert cli_main(["verify", "nosuchfile.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_bad_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    for content in (b"{nope", b"[" * 100000 + b"]" * 100000, b"\xff{}"):
        bad.write_bytes(content)
        assert cli_main(["verify", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


def test_usage_error_exits_two(capsys):
    assert cli_main([]) == 2
    assert cli_main(["frobnicate"]) == 2


def test_verify_json_output(capsys):
    assert cli_main(["verify", "--json", CABIN_BAD]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["overall"] is False
    gateway = next(i for i in data["invariants"] if i["name"] == "security_gateway")
    assert gateway["holds"] is False
    assert gateway["offending"] == [[["IFE1", "IFE2"]]]
    assert gateway["offender_hosts"] == ["IFE1"]


def test_construct_outputs_policy(capsys):
    assert cli_main(["construct", CABIN]) == 0
    out = capsys.readouterr().out
    assert "Wifi -> SAT" in out
    assert "SAT -> Wifi" not in out


def test_construct_json_matches_library(capsys):
    assert cli_main(["construct", "--json", CABIN]) == 0
    data = json.loads(capsys.readouterr().out)
    scenario = pv.parse_scenario(Path(CABIN).read_text())
    maximum = pv.construct_max_policy(scenario.policy.hosts, scenario.invariants)
    assert data["flows"] == [[s, r] for s, r in maximum.sorted_flows()]


def test_construct_flags_possibly_non_maximal_results(tmp_path, capsys):
    document = {
        "hosts": ["v1", "v2", "v3"],
        "flows": [],
        "invariants": [
            {"template": "no_transitive_access",
             "attributes": {"v1": "src", "v3": "snk", "v2": "none"}}
        ],
    }
    path = tmp_path / "reach.json"
    path.write_text(json.dumps(document))
    assert cli_main(["construct", str(path)]) == 0
    assert "possibly non-maximal" in capsys.readouterr().out

    assert cli_main(["construct", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["maximal"] is False

    assert cli_main(["construct", "--json", CABIN]) == 0
    assert json.loads(capsys.readouterr().out)["maximal"] is True


def test_construct_writes_dot(tmp_path, capsys):
    out_path = tmp_path / "max.dot"
    assert cli_main(["construct", CABIN, "--dot", str(out_path)]) == 0
    capsys.readouterr()
    text = out_path.read_text()
    assert text.startswith("digraph policy {")
    assert '"Wifi" -> "SAT";' in text


def test_diff_reports_missing_and_violating(tmp_path, capsys):
    scenario = pv.parse_scenario(Path(CABIN).read_text())
    flows = set(scenario.policy.flows)
    flows.discard(("Wifi", "SAT"))
    flows.add(("P1", "IFE1"))
    edited = pv.Scenario(pv.Policy(scenario.policy.hosts, frozenset(flows)), scenario.invariants)
    path = tmp_path / "edited.json"
    path.write_text(pv.serialize_scenario(edited))

    dot_path = tmp_path / "diff.dot"
    assert cli_main(["diff", str(path), "--dot", str(dot_path)]) == 0
    out = capsys.readouterr().out
    assert "P1 -> IFE1" in out
    assert "Wifi -> SAT" in out
    dot = dot_path.read_text()
    assert '"P1" -> "IFE1" [color=red];' in dot
    assert '"Wifi" -> "SAT" [style=dashed];' in dot


def test_diff_json(tmp_path, capsys):
    assert cli_main(["diff", "--json", CABIN]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["violating"] == []
    assert data["permitted_missing"] == []


def test_verify_edge_bound_flag(tmp_path, capsys):
    document = {
        "hosts": ["v0", "v1", "v2", "v3"],
        "flows": [["v0", "v1"], ["v1", "v2"], ["v2", "v3"]],
        "invariants": [
            {"template": "no_transitive_access",
             "attributes": {"v0": "src", "v3": "snk", "v1": "none", "v2": "none"}}
        ],
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(document))
    assert cli_main(["verify", "--edge-bound", "2", str(path)]) == 2
    capsys.readouterr()
    assert cli_main(["verify", str(path)]) == 1


def test_exit_code_contract(tmp_path, capsys):
    # exit 0 must coincide exactly with every invariant holding
    for path, expected in ((CABIN, 0), (CABIN_BAD, 1)):
        code = cli_main(["verify", "--json", path])
        data = json.loads(capsys.readouterr().out)
        assert code == expected
        assert (code == 0) == data["overall"]


def test_selftest_runs_clean(capsys, monkeypatch):
    monkeypatch.setenv("POLICY_VERIF_SEED", "1234")
    assert cli_main(["selftest", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "selftest: ok" in out


def test_selftest_rejects_garbage_seed(capsys, monkeypatch):
    monkeypatch.setenv("POLICY_VERIF_SEED", "not-a-number")
    assert cli_main(["selftest", "--trials", "1"]) == 2
    assert "POLICY_VERIF_SEED" in capsys.readouterr().err


def test_report_rendering_caps_display_but_not_json():
    from policyverif.cli import render_report, report_to_data

    hosts = {"src"} | {f"t{i:02d}" for i in range(60)}
    flows = {("src", f"t{i:02d}") for i in range(60)}
    inst = pv.InvariantInstance(pv.blp_basic(), {"src": pv.Clearance.secret})
    report = pv.verify(pv.Scenario(pv.make_policy(hosts, flows), (inst,)))

    text = render_report(report)
    assert "(+10 more)" in text
    assert "option 1 (60 flow(s))" in text

    data = report_to_data(report)
    assert len(data["invariants"][0]["offending"][0]) == 60


# Documents for the exit-code fuzz test: raw bytes, deep nesting, JSON
# garbage, and scenarios that often load and reach the analysis, with a
# lone surrogate escape ("\ud800") among the host names
_HOSTS = ["a", "b", "c", "\ud800"]
_LITERALS = {
    "blp_basic": ["unclassified", "secret"],
    "blp_trust": [{"sc": "secret"}, {"sc": "unclassified", "trust": True}],
    "domain_hierarchy": [{"level": "x.y"}, {"level": "y", "trust": 1}],
    "security_gateway": ["sgw", "memb", "default"],
    "no_transitive_access": ["src", "snk", "none"],
}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(_HOSTS + sorted(_LITERALS)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _scenario_documents(draw):
    hosts = draw(st.lists(st.sampled_from(_HOSTS), unique=True, min_size=1, max_size=4))
    host = st.sampled_from(hosts)
    invariants = [
        {"template": name,
         "attributes": draw(st.dictionaries(host, st.sampled_from(_LITERALS[name]), min_size=1))}
        for name in draw(st.lists(st.sampled_from(sorted(_LITERALS)), min_size=1, max_size=2))
    ]
    document = {
        "hosts": hosts,
        "flows": draw(st.lists(st.tuples(host, host), unique=True, min_size=1, max_size=6)),
        "invariants": invariants,
    }
    garbled = draw(st.sampled_from([None, "hosts", "flows", "invariants", "attributes"]))
    if garbled == "attributes":
        invariants[0]["attributes"][hosts[0]] = draw(_JSON)
    elif garbled:
        document[garbled] = draw(_JSON)
    return json.dumps(document).encode()


_DOCUMENTS = st.one_of(
    st.binary(max_size=64),
    st.integers(0, 3000).map(lambda n: b"[" * n + b"]" * n),
    _JSON.map(lambda value: json.dumps(value).encode()),
    _scenario_documents(),
)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
def test_verify_exit_code_contract_on_any_bytes(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(document)
    # encoded streams, as a terminal has: printing an unencodable name fails
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["verify", str(path)])
    assert code in (0, 1, 2)
    if code != 2:
        scenario = pv.parse_scenario(document.decode("utf-8"))
        assert pv.verify(scenario).overall == (code == 0)
