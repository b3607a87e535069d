"""Per-layer spans and work counters, installed from outside the program.

Spans: the public functions of each ``policyverif`` module are replaced,
wherever a module binds them, by wrappers that record ``(name, layer,
start, end, parent, outer)`` in memory.  ``outer`` is false for a span
nested inside another span of the same layer, so summing outer spans never
counts one interval twice.

Counts: every registered template is rebuilt through the public
``Template``/``edge_template`` constructors around a counting ``evaluate``
and edge predicate.  Counting runs in its own pass, never together with
timing.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter

import policyverif as pv
from policyverif import cli, dot, engine, graph, invariants, scenario, templates

MODULES = (pv, cli, dot, engine, graph, invariants, scenario, templates)

# (function, layer metric it is summed into)
LAYERS = (
    (scenario.parse_scenario, "scenario.parse_ms"),
    (scenario.scenario_from_data, "scenario.build_ms"),
    (invariants.check_deny_all_validity, "scenario.admit_ms"),
    (engine.verify, "engine.verify_ms"),
    (engine.construct_max_policy, "engine.construct_ms"),
    (engine.diff, "engine.diff_ms"),
    (invariants.eval_instance, "invariants.eval_ms"),
    (invariants.offending_flows, "invariants.offending_ms"),
    (invariants.check_secure_default, "invariants.secure_default_ms"),
    (invariants.check_unique_default, "invariants.secure_default_ms"),
    (invariants.find_secure_default_counterexample, "invariants.secure_default_ms"),
    (invariants.check_monotonicity, "invariants.monotonicity_ms"),
    (invariants.find_monotonicity_counterexample, "invariants.monotonicity_ms"),
    (graph.allow_all, "graph.allow_all_ms"),
    (cli.render_report, "cli.render_ms"),
    (cli.report_to_data, "cli.render_ms"),
    (cli.render_policy, "cli.render_ms"),
    (cli.policy_to_data, "cli.render_ms"),
    (cli.render_diff, "cli.render_ms"),
    (cli.diff_to_data, "cli.render_ms"),
    (cli.run_selftest, "cli.selftest_ms"),
    (dot.export_dot, "dot.export_ms"),
)
METHODS = ((graph.Policy, "without_flows", "graph.without_flows_ms"),)


class Tracer:
    """Records spans while installed; ``take`` hands them over and clears."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._depth = Counter()
        self._undo = []

    def _wrap(self, fn, layer):
        spans, stack, depth, clock = self.spans, self._stack, self._depth, time.perf_counter
        name = f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[layer] == 0
            stack.append(index)
            depth[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[layer] -= 1
                spans[index] = (name, layer, start, end, parent, outer)

        return wrapper

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(fn, layer)) for fn, layer in LAYERS}
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))
        for cls, attr, layer in METHODS:
            original = getattr(cls, attr)
            setattr(cls, attr, self._wrap(original, layer))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def take(self):
        spans = list(self.spans)
        self.spans.clear()
        return spans


def install_counting(counts):
    """Swap every registered template for a counting copy, once per process."""
    registry = pv.TEMPLATE_REGISTRY
    for name, entry in list(registry.items()):
        template = entry.template
        if template.edge_pred is not None:
            predicate = template.edge_pred.predicate

            def counted_predicate(snd, rcv, predicate=predicate):
                counts["templates.predicate_calls"] += 1
                return predicate(snd, rcv)

            template = pv.edge_template(
                template.name, template.strategy, template.default_attr,
                counted_predicate, template.edge_pred.exempt_reflexive,
            )
        evaluate = template.evaluate

        def counted_evaluate(g, mapping, evaluate=evaluate):
            counts["invariants.evaluate_calls"] += 1
            return evaluate(g, mapping)

        template = dataclasses.replace(template, evaluate=counted_evaluate)
        registry[name] = dataclasses.replace(entry, template=template)
