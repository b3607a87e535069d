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
    check_deny_all_validity,
    check_monotonicity,
    check_secure_default,
    eval_instance,
    offending_flows,
    offending_flows_bruteforce,
)
from .scenario import TEMPLATE_REGISTRY, parse_scenario
from .templates import (
    BlpTrustAttr,
    Clearance,
    ReachRole,
    SgwRole,
    domain_fragment,
)

DISPLAY_CAP = 50


def _flow_str(flow) -> str:
    return f"{flow[0]} -> {flow[1]}"


def render_report(report: VerificationReport, cap: int = DISPLAY_CAP) -> str:
    lines = []
    for index, result in enumerate(report.results, start=1):
        verdict = "ok" if result.holds else "VIOLATED"
        lines.append(f"invariant {index}: {result.name} [{result.strategy.value}] ... {verdict}")
        if result.holds:
            continue
        lines.append(f"  repair options: {len(result.offending)}")
        for opt, flow_set in enumerate(result.offending, start=1):
            flows = sorted(flow_set)
            shown = ", ".join(_flow_str(f) for f in flows[:cap])
            more = f" (+{len(flows) - cap} more)" if len(flows) > cap else ""
            lines.append(f"    option {opt} ({len(flows)} flow(s)): {shown}{more}")
        lines.append(f"  offending hosts: {', '.join(sorted(result.offender_hosts)) or '-'}")
    lines.append(f"overall: {'ok' if report.overall else 'VIOLATED'}")
    return "\n".join(lines)


def report_to_data(report: VerificationReport) -> dict:
    return {
        "overall": report.overall,
        "invariants": [
            {
                "name": r.name,
                "strategy": r.strategy.value,
                "holds": r.holds,
                "offending": [[list(f) for f in sorted(fs)] for fs in r.offending],
                "offender_hosts": sorted(r.offender_hosts),
            }
            for r in report.results
        ],
    }


def render_policy(policy: Policy) -> str:
    lines = [f"hosts ({len(policy.hosts)}): {', '.join(policy.sorted_hosts())}"]
    flows = policy.sorted_flows()
    lines.append(f"flows ({len(flows)}):")
    lines.extend(f"  {_flow_str(f)}" for f in flows)
    return "\n".join(lines)


def policy_to_data(policy: Policy) -> dict:
    return {
        "hosts": policy.sorted_hosts(),
        "flows": [[s, r] for s, r in policy.sorted_flows()],
    }


def render_diff(result: PolicyDiff) -> str:
    lines = [f"violating flows ({len(result.violating)}):"]
    lines.extend(f"  {_flow_str(f)}" for f in sorted(result.violating))
    lines.append(f"permitted but missing ({len(result.permitted_missing)}):")
    lines.extend(f"  {_flow_str(f)}" for f in sorted(result.permitted_missing))
    lines.append(
        f"reflexive flows (always permitted, reported separately): {len(result.reflexive)}"
    )
    return "\n".join(lines)


def diff_to_data(result: PolicyDiff) -> dict:
    return {
        "violating": [[s, r] for s, r in sorted(result.violating)],
        "permitted_missing": [[s, r] for s, r in sorted(result.permitted_missing)],
        "reflexive": [[s, r] for s, r in sorted(result.reflexive)],
    }


def _load(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = handle.read()
        except UnicodeDecodeError as exc:
            raise ScenarioSyntaxError(f"file is not UTF-8 text ({exc.reason})") from None
    return parse_scenario(document)


# ---------------------------------------------------------------------------
# selftest

_SELFTEST_ATTRS = {
    "blp_basic": list(Clearance),
    "blp_trust": [BlpTrustAttr(sc, trust) for sc in Clearance for trust in (False, True)],
    "domain_hierarchy": domain_fragment(depth=2, max_trust=1),
    "security_gateway": list(SgwRole),
    "no_transitive_access": list(ReachRole),
}


def _random_instance(rng: random.Random, name: str):
    template = TEMPLATE_REGISTRY[name].template
    attrs = _SELFTEST_ATTRS[name]
    n = rng.randint(1, 4)
    hosts = [f"h{i}" for i in range(n)]
    pairs = [(a, b) for a in hosts for b in hosts]
    rng.shuffle(pairs)
    policy = make_policy(hosts, pairs[: rng.randint(0, min(8, len(pairs)))])
    config = {h: rng.choice(attrs) for h in hosts if rng.random() < 0.8}
    return InvariantInstance(template, config), policy


def run_selftest(seed: int, trials: int, out=print) -> bool:
    """Seeded sanity checks over every registered template."""
    rng = random.Random(seed)
    ok = True

    def record(label: str, passed: bool):
        nonlocal ok
        ok = ok and passed
        out(f"  {label}: {'ok' if passed else 'FAILED'}")

    for name in sorted(TEMPLATE_REGISTRY):
        out(f"{name}")
        inst_empty = InvariantInstance(TEMPLATE_REGISTRY[name].template, {})
        record("deny-all validity", check_deny_all_validity(inst_empty, {"x", "y", "z"}))

        passed = True
        for _ in range(trials):
            inst, policy = _random_instance(rng, name)
            removal = {f for fs in offending_flows(inst, policy) for f in fs}
            satisfied = policy.without_flows(removal)
            if not eval_instance(inst, satisfied):
                passed = False
                break
            if not check_monotonicity(inst, satisfied, 4, rng.randrange(2**30)):
                passed = False
                break
        record(f"monotonicity ({trials} policies)", passed)

        if TEMPLATE_REGISTRY[name].template.edge_pred is not None:
            passed = True
            for _ in range(trials):
                inst, policy = _random_instance(rng, name)
                fast = set(offending_flows(inst, policy))
                brute = set(offending_flows_bruteforce(inst, policy))
                if fast != brute:
                    passed = False
                    break
            record(f"fast path agrees with enumeration ({trials} policies)", passed)

        template = TEMPLATE_REGISTRY[name].template
        record(
            "secure default (2-host universe)",
            check_secure_default(template, ["u", "v"], _SELFTEST_ATTRS[name], edge_bound=4),
        )

    out(f"selftest: {'ok' if ok else 'FAILED'}")
    return ok


# ---------------------------------------------------------------------------
# entry points

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policyverif",
        description="Verify network security policies against attribute-based invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--edge-bound",
        type=int,
        default=DEFAULT_EDGE_BOUND,
        metavar="N",
        help="cap for brute-force offending-flow enumeration (default %(default)s)",
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
    p_selftest.add_argument("--trials", type=int, default=25, metavar="N")

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        if args.command == "verify":
            report = verify(_load(args.file), args.edge_bound)
            print(json.dumps(report_to_data(report), indent=2) if args.json
                  else render_report(report))
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
            if args.json:
                data = policy_to_data(maximum)
                data["maximal"] = is_maximal
                print(json.dumps(data, indent=2))
            else:
                print(render_policy(maximum))
                if not is_maximal:
                    print("note: sound, possibly non-maximal (an invariant "
                          "without per-edge structure participates)")
            if args.dot:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(export_dot(maximum))
            return 0

        if args.command == "diff":
            scenario = _load(args.file)
            result = compute_diff(scenario.policy, scenario.invariants, args.edge_bound)
            print(json.dumps(diff_to_data(result), indent=2) if args.json
                  else render_diff(result))
            if args.dot:
                with open(args.dot, "w", encoding="utf-8") as handle:
                    handle.write(export_dot(scenario.policy, result))
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

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
