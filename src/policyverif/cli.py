"""Command line interface.

Subcommands: ``verify`` checks a scenario file and reports per-invariant
verdicts, ``construct`` builds the maximal policy its invariants admit,
``diff`` compares the file's policy against that maximum, and ``selftest``
runs seeded sanity checks of the analysis machinery.

Exit codes: 0 when everything holds (or the requested artifact was
produced), 1 when verification found a violation or the selftest failed,
2 on usage, syntax, or load errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .engine import (
    PolicyDiff,
    Scenario,
    VerificationReport,
    construct_max_policy,
    diff as compute_diff,
    verify,
)
from .errors import PolicyVerifError, ScenarioSyntaxError
from .dot import export_dot
from .graph import Policy, make_policy
from .invariants import (
    DEFAULT_EDGE_BOUND,
    InvariantInstance,
    _bounded_secure_default_counterexample,
    check_deny_all_validity,
    check_monotonicity,
    check_secure_default,
    eval_instance,
    offending_flows,
    offending_flows_bruteforce,
)
from .scenario import parse_scenario
from .templates import TEMPLATE_REGISTRY, TemplateIO

DISPLAY_CAP = 50


def render_report(report: VerificationReport, as_json: bool = False) -> str:
    """A verification report as text, or as the ``report_to_data`` document."""
    if as_json:
        return _json(report_to_data(report))
    lines = []
    for index, result in enumerate(report.results, start=1):
        verdict = "ok" if result.holds else "VIOLATED"
        lines.append(f"invariant {index}: {result.name} [{result.strategy.value}] ... {verdict}")
        if result.holds:
            continue
        lines.append(f"  repair options: {len(result.offending)}")
        for opt, flow_set in enumerate(result.offending, start=1):
            flows = sorted(flow_set)
            shown = ", ".join(f"{s} -> {r}" for s, r in flows[:DISPLAY_CAP])
            more = f" (+{len(flows) - DISPLAY_CAP} more)" if len(flows) > DISPLAY_CAP else ""
            lines.append(f"    option {opt} ({len(flows)} flow(s)): {shown}{more}")
        lines.append(f"  offending hosts: {', '.join(sorted(result.offender_hosts)) or '-'}")
    lines.append(f"overall: {'ok' if report.overall else 'VIOLATED'}")
    return "\n".join(lines)


def report_to_data(report: VerificationReport) -> dict:
    """The ``verify --json`` document: its keys, their order and content."""
    return {
        "overall": report.overall,
        "invariants": [
            {
                "name": r.name,
                "strategy": r.strategy.value,
                "holds": r.holds,
                "offending": [sorted(fs) for fs in r.offending],
                "offender_hosts": sorted(r.offender_hosts),
            }
            for r in report.results
        ],
    }


# Every --json document is its data form encoded by _json, in the layout of
# json.dumps(..., indent=2): with an indent the standard encoder runs in
# Python, several times slower than building the text from each string's
# literal, written by the encoder that json.dumps itself calls for a string.

class _Literals(dict):
    """Each name's JSON literal between ``before`` and ``after``, built on its
    first lookup."""

    def __init__(self, before: str, after: str):
        super().__init__()
        self.before, self.after = before, after

    def __missing__(self, name: str) -> str:
        self[name] = literal = self.before + encode_basestring_ascii(name) + self.after
        return literal


def _json(value, indent: int = 0) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, its opening line at
    ``indent`` spaces.

    Dicts need string keys.  A list whose first item is a tuple must hold only
    ``(sender, receiver)`` pairs of strings: each distinct sender and receiver
    is encoded once, with the text around it, and each pair is the two joined.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True or value is False:
        return "true" if value else "false"
    if not isinstance(value, (dict, list)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    pad = "\n" + " " * (indent + 2)
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(v, indent + 2)}" for k, v in value.items()]
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * indent + "}"
    if isinstance(value[0], tuple):
        inner = "\n" + " " * (indent + 4)
        senders, receivers = _Literals("[" + inner, "," + inner), _Literals("", pad + "]")
        items = [senders[s] + receivers[r] for s, r in value]
    else:
        items = [_json(v, indent + 2) for v in value]
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * indent + "]"


def render_policy(policy: Policy, maximal: bool = True, as_json: bool = False) -> str:
    """A constructed policy as text, or as the ``policy_to_data`` document plus
    ``maximal``.

    ``maximal`` is false when the policy may not be the unique maximum; the
    text then ends with a note.
    """
    if as_json:
        return _json({**policy_to_data(policy), "maximal": maximal})
    flows = policy.sorted_flows()
    lines = [f"hosts ({len(policy.hosts)}): {', '.join(policy.sorted_hosts())}",
             f"flows ({len(flows)}):"]
    lines += [f"  {s} -> {r}" for s, r in flows]
    if not maximal:
        lines.append("note: sound, possibly non-maximal (an invariant "
                     "without per-edge structure participates)")
    return "\n".join(lines)


def policy_to_data(policy: Policy) -> dict:
    """The ``construct --json`` document without its ``maximal`` key."""
    return {"hosts": policy.sorted_hosts(), "flows": policy.sorted_flows()}


def render_diff(result: PolicyDiff, as_json: bool = False) -> str:
    """A diff as text, or as the ``diff_to_data`` document."""
    if as_json:
        return _json(diff_to_data(result))
    violating = sorted(result.violating)
    missing = result.sorted_missing()
    lines = [f"violating flows ({len(violating)}):"]
    lines += [f"  {s} -> {r}" for s, r in violating]
    lines.append(f"permitted but missing ({len(missing)}):")
    lines += [f"  {s} -> {r}" for s, r in missing]
    lines.append(
        f"reflexive flows (always permitted, reported separately): {len(result.reflexive)}"
    )
    return "\n".join(lines)


def diff_to_data(result: PolicyDiff) -> dict:
    """The ``diff --json`` document: its keys, their order and content."""
    return {
        "violating": sorted(result.violating),
        "permitted_missing": result.sorted_missing(),
        "reflexive": sorted(result.reflexive),
    }


def _print_result(
    text: str, dot_path, policy: Policy, diff: PolicyDiff | None = None
) -> None:
    """Print a result, writing its DOT file first, so that a run that fails
    to write the file prints nothing.  An unencodable text or a failed DOT
    rendering raises before the file is opened."""
    if dot_path:
        encoding = getattr(sys.stdout, "encoding", None)
        if encoding:  # an in-memory stream has none and takes any text
            text.encode(encoding, sys.stdout.errors or "strict")
        Path(dot_path).write_text(export_dot(policy, diff), encoding="utf-8")
    print(text)


def _load(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = handle.read()
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError(f"file is not UTF-8 text ({exc.reason})") from None
    return parse_scenario(document)


# ---------------------------------------------------------------------------
# selftest

def _random_instance(rng: random.Random, entry: TemplateIO):
    n = rng.randint(1, 4)
    hosts = [f"h{i}" for i in range(n)]
    pairs = [(a, b) for a in hosts for b in hosts]
    rng.shuffle(pairs)
    policy = make_policy(hosts, pairs[: rng.randint(0, min(8, len(pairs)))])
    config = {h: rng.choice(entry.universe) for h in hosts if rng.random() < 0.8}
    return InvariantInstance(entry.template, config), policy


def _repair_is_monotone(inst: InvariantInstance, policy: Policy, rng: random.Random) -> bool:
    """Removing every offending flow satisfies ``inst``, and the repaired
    policy passes the monotonicity check."""
    removal = {f for fs in offending_flows(inst, policy) for f in fs}
    satisfied = policy.without_flows(removal)
    return eval_instance(inst, satisfied) and check_monotonicity(
        inst, satisfied, 4, rng.randrange(2**30)
    )


def _fast_path_agrees(inst: InvariantInstance, policy: Policy) -> bool:
    return set(offending_flows(inst, policy)) == set(offending_flows_bruteforce(inst, policy))


def _default_is_secure(template, universe) -> bool:
    """The default masks no violation on two hosts, and a template's own
    default decision gives the bounded search's answer there for every
    candidate in ``universe``."""
    hosts = ["u", "v"]
    decide = template.default_counterexample
    return check_secure_default(template, hosts, universe, edge_bound=4) and (
        decide is None
        or all(
            decide(template, hosts, universe, 4, c)
            == _bounded_secure_default_counterexample(template, hosts, universe, 4, c)
            for c in universe
        )
    )


def _checks(entry: TemplateIO, trials: int, rng: random.Random):
    """Each selftest check of one registered template, as (label, passed)."""
    template = entry.template
    yield "deny-all validity", check_deny_all_validity(
        InvariantInstance(template, {}), {"x", "y", "z"}
    )
    yield f"monotonicity ({trials} policies)", all(
        _repair_is_monotone(*_random_instance(rng, entry), rng) for _ in range(trials)
    )
    if template.edge_pred is not None or template.witnesses is not None:
        yield f"fast path agrees with enumeration ({trials} policies)", all(
            _fast_path_agrees(*_random_instance(rng, entry)) for _ in range(trials)
        )
    yield "secure default (2-host universe)", _default_is_secure(template, entry.universe)


def run_selftest(seed: int, trials: int) -> bool:
    """Seeded sanity checks over every registered template."""
    rng = random.Random(seed)
    ok = True
    for name in sorted(TEMPLATE_REGISTRY):
        print(name)
        for label, passed in _checks(TEMPLATE_REGISTRY[name], trials, rng):
            print(f"  {label}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
    print(f"selftest: {'ok' if ok else 'FAILED'}")
    return ok


# ---------------------------------------------------------------------------
# entry points

def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyverif",
        description="Verify network security policies against attribute-based invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--edge-bound",
        type=_at_least(0),
        default=DEFAULT_EDGE_BOUND,
        metavar="N",
        help="cap on the flows of a policy whose invariant has no per-edge "
        "structure (default %(default)s)",
    )
    common.add_argument("--json", action="store_true", help="machine-readable output")

    p_verify = sub.add_parser("verify", parents=[common], help="check a scenario file")
    p_verify.add_argument("file")

    p_construct = sub.add_parser(
        "construct", parents=[common], help="build the maximal policy the invariants admit"
    )
    p_construct.add_argument("file")
    p_construct.add_argument("--dot", metavar="PATH", help="also write the policy as DOT")

    p_diff = sub.add_parser(
        "diff", parents=[common], help="compare the file's policy against the maximum"
    )
    p_diff.add_argument("file")
    p_diff.add_argument("--dot", metavar="PATH", help="also write the annotated graph as DOT")

    p_selftest = sub.add_parser("selftest", help="run seeded sanity checks")
    p_selftest.add_argument("--trials", type=_at_least(1), default=25, metavar="N")

    return parser


_PARSER = _build_parser()


def cli_main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        if args.command == "verify":
            report = verify(_load(args.file), args.edge_bound)
            print(render_report(report, args.json))
            return 0 if report.overall else 1

        if args.command == "construct":
            scenario = _load(args.file)
            maximum = construct_max_policy(
                scenario.policy.hosts, scenario.invariants, args.edge_bound
            )
            # only per-edge invariants guarantee the unique maximum
            is_maximal = all(
                inst.template.edge_pred is not None for inst in scenario.invariants
            )
            _print_result(render_policy(maximum, is_maximal, args.json), args.dot, maximum)
            return 0

        if args.command == "diff":
            scenario = _load(args.file)
            result = compute_diff(scenario.policy, scenario.invariants, args.edge_bound)
            _print_result(render_diff(result, args.json), args.dot, scenario.policy, result)
            return 0

        if args.command == "selftest":
            raw_seed = os.environ.get("POLICY_VERIF_SEED", "0")
            try:
                seed = int(raw_seed)
            except ValueError:
                print(f"error: POLICY_VERIF_SEED must be an integer, got {raw_seed!r}",
                      file=sys.stderr)
                return 2
            return 0 if run_selftest(seed, args.trials) else 1

    except (PolicyVerifError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # results and DOT text are built before anything is written
        print("error: out of memory", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:  # a result is printed whole: nothing got out
        print(f"error: output not encodable as {exc.encoding}; use --json", file=sys.stderr)
        return 2

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
