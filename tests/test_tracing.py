"""The benchmark's tracer binds program functions by name when it installs.

A rename that drops one of those names passes every other test but breaks
each traced benchmark run, so this runs the traced commands here.
"""

import sys
from pathlib import Path

from policyverif import cli
from policyverif.cli import cli_main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

if str(ROOT / "perfbench") not in sys.path:
    sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402


def _recording(fn, returned):
    def wrapper(*args, **kwargs):
        value = fn(*args, **kwargs)
        returned.append(value)
        return value

    return wrapper


def test_tracer_spans_every_layer_the_cli_reaches(tmp_path, capsys, monkeypatch):
    tracer = tracing.Tracer()
    tracer.install()
    returned, printed = [], []
    try:
        # undone before the tracer uninstalls, which restores the originals
        with monkeypatch.context() as patch:
            for fn, layer in tracing.LAYERS:
                if layer == "cli.render_ms":
                    traced = getattr(cli, fn.__name__)
                    assert traced is not fn
                    patch.setattr(cli, fn.__name__, _recording(traced, returned))
            codes = []
            for argv in (
                ["verify", str(SCENARIOS / "cabin_bad.json")],
                ["construct", "--json", "--dot", str(tmp_path / "max.dot"),
                 str(SCENARIOS / "cabin.json")],
                ["diff", str(SCENARIOS / "cabin_bad.json")],
                ["diff", "--json", str(SCENARIOS / "cabin_bad.json")],
                ["selftest", "--trials", "1"],
            ):
                codes.append(cli_main(argv))
                printed.append(capsys.readouterr().out)
    finally:
        tracer.uninstall()
    assert codes == [1, 0, 0, 0, 0]
    # the construct and diff JSON documents are encoded inside a render span
    for out in (printed[1], printed[3]):
        assert out.endswith("}\n") and out[:-1] in returned
    layers = {span[1] for span in tracer.take()}
    expected = {layer for _, layer in tracing.LAYERS} | {layer for *_, layer in tracing.METHODS}
    # construct and diff build the complete graph without allow_all
    assert layers == expected - {"graph.allow_all_ms"}
