import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import policyverif as pv
from policyverif import cli
from policyverif.cli import cli_main, render_diff, render_policy, render_report
from policyverif.templates import TemplateIO

from helpers import (
    always_false_template,
    construct_json_reference,
    diff_json_reference,
    export_dot_reference,
    render_diff_reference,
    render_policy_reference,
    verify_json_reference,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
CABIN = str(SCENARIOS / "cabin.json")
CABIN_BAD = str(SCENARIOS / "cabin_bad.json")
DATA = ROOT / "tests" / "data"
# no_transitive_access on a diamond: two size-2 repair sets, an unconfigured
# host that takes the default (src), and a self-flow
REACH = str(DATA / "reach.json")
# no_transitive_access on allow-all over 7 hosts: 49 flows, 32 repair sets
REACH_COMPLETE = str(DATA / "reach_complete.json")
# sparse configuration: 12 hosts, four edge-local invariants of one or two
# configured hosts each, one host configured to the default, one host
# configured with no flows, and self-flows under security_gateway
SPARSE = str(DATA / "sparse.json")


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


def test_verify_rejects_host_names_that_forge_report_lines(tmp_path, capsys):
    forged = "b\noverall: ok"
    document = {
        "hosts": ["a", forged],
        "flows": [["a", forged]],
        "invariants": [{"template": "blp_basic", "attributes": {"a": "secret"}}],
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(document))
    assert cli_main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "overall: ok" not in captured.out
    assert "error:" in captured.err


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


def test_unwritable_dot_prints_no_result(tmp_path, capsys):
    for argv in (
        ["construct", "--dot", str(tmp_path / "missing" / "max.dot"), CABIN],
        ["diff", "--dot", str(tmp_path), CABIN_BAD],
    ):
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


def _no_memory(*args):
    raise MemoryError


def test_failed_dot_rendering_leaves_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "export_dot", _no_memory)
    for argv in (["construct", CABIN], ["diff", CABIN_BAD]):
        dot_path = tmp_path / "out.dot"
        assert cli_main(argv + ["--dot", str(dot_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"
        assert not dot_path.exists()


def test_memory_error_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "construct_max_policy", _no_memory)
    monkeypatch.setattr(cli, "compute_diff", _no_memory)
    for command in ("construct", "diff"):
        dot_path = tmp_path / f"{command}.dot"
        for extra in ([], ["--json"], ["--dot", str(dot_path)]):
            assert cli_main([command, CABIN, *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: out of memory\n"
        assert not dot_path.exists()


CAFE = {
    "hosts": ["caf\u00e9", "b"],
    "flows": [["b", "caf\u00e9"], ["caf\u00e9", "b"]],
    "invariants": [{"template": "blp_basic", "attributes": {"caf\u00e9": "secret"}}],
}


def test_unencodable_host_names_exit_two(tmp_path, capsys):
    path = tmp_path / "cafe.json"
    path.write_text(json.dumps(CAFE))
    for argv, expected in (
        (["verify", str(path)], 2),
        (["construct", str(path)], 2),
        (["verify", "--json", str(path)], 1),
    ):
        out = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        with contextlib.redirect_stdout(out):
            assert cli_main(argv) == expected
        out.flush()
        if expected == 2:
            assert out.buffer.getvalue() == b""
            assert "use --json" in capsys.readouterr().err
        else:
            assert json.loads(out.buffer.getvalue())["overall"] is False


def _run_cli(argv, encoding, cwd):
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "policyverif.cli", *argv],
                          capture_output=True, env=env, cwd=cwd, timeout=120)


def test_a_run_that_exits_two_leaves_no_result(tmp_path):
    path = tmp_path / "cafe.json"
    path.write_text(json.dumps(CAFE))
    for command in ("construct", "diff"):
        dot = tmp_path / f"{command}.dot"
        done = _run_cli([command, "--dot", str(dot), str(path)], "utf-8", tmp_path)
        assert done.returncode == 0 and "caf\u00e9" in dot.read_text(encoding="utf-8")
        dot.unlink()
        # a text the stream cannot encode: no DOT file either
        done = _run_cli([command, "--dot", str(dot), str(path)], "ascii", tmp_path)
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"not encodable as ascii" in done.stderr
        assert not dot.exists()
        # a DOT file that cannot be written: nothing printed
        unwritable = tmp_path / "missing" / f"{command}.dot"
        done = _run_cli([command, "--dot", str(unwritable), str(path)], "utf-8", tmp_path)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error:")


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
    capsys.readouterr()
    # below zero is a usage error; zero is valid and never enumerates
    for bound in ("-5", "-1"):
        assert cli_main(["verify", "--edge-bound", bound, str(path)]) == 2
        assert "--edge-bound: must be at least 0" in capsys.readouterr().err
    assert cli_main(["verify", "--edge-bound", "0", str(path)]) == 2
    assert "the bound is 0 flows" in capsys.readouterr().err
    assert cli_main(["verify", "--edge-bound", "0", CABIN]) == 0


def test_verify_complete_reachability_graph(capsys):
    assert cli_main(["verify", "--edge-bound", "49", "--json", REACH_COMPLETE]) == 1
    (result,) = json.loads(capsys.readouterr().out)["invariants"]
    assert len(result["offending"]) == 32
    assert cli_main(["verify", REACH_COMPLETE]) == 2
    assert capsys.readouterr().err == (
        "error: the policy has 49 flows but the bound is 16 flows; "
        "raise the edge bound or use an edge-local template\n"
    )


def test_selftest_trials_below_one_is_a_usage_error(capsys):
    for trials in ("0", "-3"):
        assert cli_main(["selftest", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "--trials: must be at least 1" in captured.err
        assert "policies): ok" not in captured.out


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


def _selftest_sections(out):
    """Selftest output as {unindented line: its indented lines}."""
    sections = {}
    for line in out.splitlines():
        if line.startswith("  "):
            sections[name].append(line)
        else:
            name = line
            sections[name] = []
    return sections


def test_selftest_reports_a_failing_registered_template(capsys, monkeypatch):
    # a registry entry alone is enough for selftest to check a template
    monkeypatch.setitem(
        pv.TEMPLATE_REGISTRY, "always_false", TemplateIO(always_false_template(), str, str, (None,))
    )
    assert cli_main(["selftest", "--trials", "2"]) == 1
    sections = _selftest_sections(capsys.readouterr().out)
    assert "  deny-all validity: FAILED" in sections.pop("always_false")
    assert list(sections)[-1] == "selftest: FAILED" and sections.pop("selftest: FAILED") == []
    assert set(sections) == set(pv.TEMPLATE_REGISTRY) - {"always_false"}
    assert all(check.endswith(": ok") for checks in sections.values() for check in checks)


def test_selftest_checks_the_witness_route(capsys, monkeypatch):
    # a registered template whose witnesses drop every path longer than one
    # flow: its repair sets stop agreeing with the enumeration's.  Few random
    # policies need a longer path cut, so this seed takes 40 trials to draw one
    monkeypatch.setenv("POLICY_VERIF_SEED", "0")
    reach = pv.TEMPLATE_REGISTRY["no_transitive_access"]
    paths = reach.template.witnesses
    short = dataclasses.replace(
        reach.template,
        name="short_paths_only",
        witnesses=lambda g, mapping: [w for w in paths(g, mapping) if len(w) == 1],
    )
    monkeypatch.setitem(
        pv.TEMPLATE_REGISTRY, short.name, dataclasses.replace(reach, template=short)
    )
    assert cli_main(["selftest", "--trials", "40"]) == 1
    sections = _selftest_sections(capsys.readouterr().out)
    agreement = "  fast path agrees with enumeration (40 policies): "
    assert agreement + "FAILED" in sections.pop(short.name)
    assert agreement + "ok" in sections["no_transitive_access"]
    assert list(sections)[-1] == "selftest: FAILED" and sections.pop("selftest: FAILED") == []
    assert set(sections) == set(pv.TEMPLATE_REGISTRY) - {short.name}
    assert all(check.endswith(": ok") for checks in sections.values() for check in checks)


def test_selftest_checks_a_template_s_own_default_decision(capsys, monkeypatch):
    # a registered copy whose default rule finds no counterexample for any
    # candidate: its default still reads as secure, but the rule no longer
    # gives the bounded search's answer for snk and none
    reach = pv.TEMPLATE_REGISTRY["no_transitive_access"]
    blind = dataclasses.replace(
        reach.template, name="blind_default", default_counterexample=lambda *args: None
    )
    monkeypatch.setitem(
        pv.TEMPLATE_REGISTRY, blind.name, dataclasses.replace(reach, template=blind)
    )
    assert cli_main(["selftest", "--trials", "2"]) == 1
    sections = _selftest_sections(capsys.readouterr().out)
    label = "  secure default (2-host universe): "
    assert label + "FAILED" in sections.pop(blind.name)
    assert label + "ok" in sections["no_transitive_access"]
    assert list(sections)[-1] == "selftest: FAILED" and sections.pop("selftest: FAILED") == []
    assert set(sections) == set(pv.TEMPLATE_REGISTRY) - {blind.name}
    assert all(check.endswith(": ok") for checks in sections.values() for check in checks)


def test_selftest_rejects_garbage_seed(capsys, monkeypatch):
    monkeypatch.setenv("POLICY_VERIF_SEED", "not-a-number")
    assert cli_main(["selftest", "--trials", "1"]) == 2
    assert "POLICY_VERIF_SEED" in capsys.readouterr().err


def test_report_rendering_caps_display_but_not_json():
    from policyverif.cli import report_to_data

    hosts = {"src"} | {f"t{i:02d}" for i in range(60)}
    flows = {("src", f"t{i:02d}") for i in range(60)}
    inst = pv.InvariantInstance(pv.blp_basic(), {"src": pv.Clearance.secret})
    report = pv.verify(pv.Scenario(pv.make_policy(hosts, flows), (inst,)))

    text = render_report(report)
    assert "(+10 more)" in text
    assert "option 1 (60 flow(s))" in text

    data = report_to_data(report)
    assert len(data["invariants"][0]["offending"][0]) == 60


# Renderer parity: host names with JSON and DOT escapes, non-ASCII and
# astral characters and a lone surrogate; empty host sets, no flows and
# self-flows.  no_transitive_access makes construct non-maximal; 3 hosts keep
# its enumeration at 2^9 subsets.
_NAMES = st.text(
    st.sampled_from(["a", "b", '"', "\\", " ", "\n", "\u00e9", "\U0001f600", "\ud800"]),
    min_size=1, max_size=3,
)


@st.composite
def _render_cases(draw):
    hosts = draw(st.lists(_NAMES, unique=True, max_size=4))
    pairs = [(s, r) for s in hosts for r in hosts]
    flows = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    invariants = []
    if hosts and draw(st.booleans()):
        config = draw(st.dictionaries(st.sampled_from(hosts), st.sampled_from(list(pv.Clearance))))
        invariants.append(pv.InvariantInstance(pv.blp_basic(), config))
    if 0 < len(hosts) <= 3 and draw(st.booleans()):
        config = draw(st.dictionaries(st.sampled_from(hosts), st.sampled_from(list(pv.ReachRole))))
        invariants.append(pv.InvariantInstance(pv.no_transitive_access(), config))
    return pv.make_policy(hosts, flows), invariants


@settings(max_examples=200, deadline=None)
@given(_render_cases())
def test_renderers_match_reference_encoders(case):
    policy, invariants = case
    maximum = pv.construct_max_policy(policy.hosts, invariants)
    maximal = all(inst.template.edge_pred is not None for inst in invariants)
    for shown in (policy, maximum):
        assert (render_policy(shown, maximal, as_json=True)
                == construct_json_reference(shown, maximal))
        assert render_policy(shown, maximal) == render_policy_reference(shown, maximal)
        assert pv.export_dot(shown) == export_dot_reference(shown)
    report = pv.verify(pv.Scenario(policy, invariants))
    assert render_report(report, as_json=True) == verify_json_reference(report)
    result = pv.diff(policy, invariants)
    assert render_diff(result, as_json=True) == diff_json_reference(result)
    assert render_diff(result) == render_diff_reference(result)
    assert pv.export_dot(policy, result) == export_dot_reference(policy, result)


def test_verify_json_matches_reference_with_several_repair_options():
    # two disjoint source-sink routes give four repair sets; blp_basic holds
    s, a, b, t = 'q"s', "b\\a", "\u00e9", "\U0001f600"
    policy = pv.make_policy({s, a, b, t}, {(s, a), (a, t), (s, b), (b, t)})
    reach = pv.InvariantInstance(
        pv.no_transitive_access(),
        {s: pv.ReachRole.src, t: pv.ReachRole.snk, a: pv.ReachRole.none, b: pv.ReachRole.none},
    )
    report = pv.verify(pv.Scenario(policy, (pv.InvariantInstance(pv.blp_basic()), reach)))
    assert [r.holds for r in report.results] == [True, False]
    assert len(report.results[1].offending) == 4
    assert render_report(report, as_json=True) == verify_json_reference(report)
    empty = pv.verify(pv.Scenario(pv.make_policy(set(), set())))
    assert render_report(empty, as_json=True) == verify_json_reference(empty)


# The encoder on its own: nested dicts and lists of strings, booleans,
# integers and None, with lists of (sender, receiver) pairs always
# homogeneous, as its contract asks.
_JSON_TEXT = st.text(
    st.sampled_from(["a", '"', "\\", "\n", "\t", "é", "\U0001f600", "\ud800"]), max_size=4
)
_JSON_VALUES = st.recursive(
    st.one_of(_JSON_TEXT, st.booleans(), st.integers(), st.none(),
              st.lists(st.tuples(_JSON_TEXT, _JSON_TEXT))),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_JSON_TEXT, children, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_encoder_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_json_pairs_encode_each_name_once_per_side(monkeypatch):
    names = ['q"s', "b\\a", "é", "\U0001f600", "x"]
    pairs = [(s, r) for s in names for r in names]
    calls = []

    def counted(text):
        calls.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(cli, "encode_basestring_ascii", counted)
    assert cli._json({"flows": pairs}) == json.dumps({"flows": pairs}, indent=2)
    # the key, then each name once as a sender and once as a receiver
    assert sorted(calls) == sorted(["flows", *names, *names])


# Golden documents: the stdout of each command, committed byte for byte, most
# in --json.  The references above read the same data forms as the program, so
# only these catch a slip in a data form itself (key order, a lost sort, a
# dropped key).  The sparse document configures few of its hosts, so most
# senders share the unconfigured hosts' attribute class.
_GOLDEN = [
    (["verify", "--json", CABIN_BAD], 1, "verify_cabin_bad.json"),
    (["construct", "--json", CABIN], 0, "construct_cabin.json"),
    (["diff", "--json", CABIN_BAD], 0, "diff_cabin_bad.json"),
    (["verify", "--json", REACH], 1, "verify_reach.json"),
    (["construct", "--json", REACH], 0, "construct_reach.json"),
    (["diff", "--json", REACH], 0, "diff_reach.json"),
    (["verify", "--json", SPARSE], 1, "verify_sparse.json"),
    (["verify", SPARSE], 1, "verify_sparse.txt"),
    (["construct", "--json", SPARSE], 0, "construct_sparse.json"),
    (["construct", SPARSE], 0, "construct_sparse.txt"),
    (["diff", "--json", SPARSE], 0, "diff_sparse.json"),
    (["diff", SPARSE], 0, "diff_sparse.txt"),
]


@pytest.mark.parametrize("argv, code, golden", _GOLDEN, ids=[g for _, _, g in _GOLDEN])
def test_json_documents_match_golden_files(argv, code, golden, capsys):
    assert cli_main(argv) == code
    expected = (DATA / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_construct_dot_matches_golden_file(tmp_path, capsys):
    for document, golden in ((REACH, "construct_reach.dot"), (SPARSE, "construct_sparse.dot")):
        out_path = tmp_path / golden
        assert cli_main(["construct", "--dot", str(out_path), document]) == 0
        capsys.readouterr()
        expected = (DATA / golden).read_text(encoding="utf-8")
        assert out_path.read_text(encoding="utf-8") == expected


def test_diff_dot_matches_golden_file(tmp_path, capsys):
    out_path = tmp_path / "diff_sparse.dot"
    assert cli_main(["diff", "--dot", str(out_path), SPARSE]) == 0
    capsys.readouterr()
    expected = (DATA / "diff_sparse.dot").read_text(encoding="utf-8")
    assert out_path.read_text(encoding="utf-8") == expected


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
@given(_DOCUMENTS, st.sampled_from(("verify", "construct", "diff")))
def test_verify_exit_code_contract_on_any_bytes(tmp_path_factory, document, command):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_bytes(document)
    # encoded streams, as a terminal has: printing an unencodable name fails
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, str(path)])
    try:
        scenario = pv.parse_scenario(document.decode("utf-8"))
    except (UnicodeDecodeError, pv.ScenarioError):
        scenario = None
    # loadable documents have at most 3 hosts, so no enumeration hits its bound
    assert (code != 2) == (scenario is not None)
    if command == "verify":
        assert code in (0, 1, 2)
        if scenario is not None:
            assert pv.verify(scenario).overall == (code == 0)
    else:
        assert code in (0, 2)
