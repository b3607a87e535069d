"""The benchmark's tracer binds program functions by name when it installs.

A rename that drops one of those names passes every other test but breaks
each traced benchmark run, so this runs the traced commands here.
"""

import sys
from pathlib import Path

from policyverif.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def test_tracer_spans_every_layer_the_cli_reaches(tmp_path, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [
            cli_main(["verify", str(SCENARIOS / "cabin_bad.json")]),
            cli_main(["construct", "--json", "--dot", str(tmp_path / "max.dot"),
                      str(SCENARIOS / "cabin.json")]),
            cli_main(["diff", str(SCENARIOS / "cabin_bad.json")]),
            cli_main(["selftest", "--trials", "1"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [1, 0, 0, 0]
    layers = {span[1] for span in tracer.take()}
    expected = {layer for _, layer in tracing.LAYERS} | {layer for *_, layer in tracing.METHODS}
    # construct and diff build the complete graph without allow_all
    assert layers == expected - {"graph.allow_all_ms"}
