"""Graphviz DOT rendering of policies and diffs.

Conventions: policy flows are solid edges; flows the invariants would
permit but the policy omits are dashed; flows the invariants forbid are
solid red, kept visible because the picture is feedback, not output.
Self-flows are omitted entirely (in-host communication is always
permitted).  Output is byte-stable: nodes and edges appear in lexicographic
order.
"""

from __future__ import annotations

from typing import Optional

from .engine import PolicyDiff
from .graph import Policy


def _quote(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


class _Quoted(dict):
    """Host name -> its quoted DOT id, each name quoted once, on first use."""

    def __missing__(self, name: str) -> str:
        quoted = self[name] = _quote(name)
        return quoted


def export_dot(policy: Policy, diff: Optional[PolicyDiff] = None) -> str:
    """Render a policy (optionally annotated with a diff) as a DOT digraph."""
    quoted = _Quoted()
    lines = ["digraph policy {"]
    lines += [f"  {quoted[host]};" for host in policy.sorted_hosts()]
    if diff is None:
        lines += [f"  {quoted[s]} -> {quoted[r]};" for s, r in policy.sorted_flows() if s != r]
    else:
        # a flow both violating and missing is drawn as violating
        styles = dict.fromkeys(diff.permitted_missing, " [style=dashed]")
        styles.update(dict.fromkeys(diff.violating, " [color=red]"))
        missing = diff.permitted_missing
        kept = [f for f in policy.sorted_flows() if f[0] != f[1] and f not in missing]
        # two sorted runs, which the sort merges in linear time
        shown = sorted(kept + diff.sorted_missing())
        lines += [f"  {quoted[s]} -> {quoted[r]}{styles.get((s, r), '')};" for s, r in shown]
    lines.append("}")
    return "\n".join(lines) + "\n"
