"""Scenario documents: JSON parsing, validation, and serialization.

A scenario file is a JSON object with three keys::

    {
      "hosts": ["CC", "C1"],
      "flows": [["C1", "CC"]],
      "invariants": [
        {"template": "blp_basic", "attributes": {"CC": "secret"}}
      ]
    }

Attribute literal syntax is defined per template next to the template
itself; see ``TEMPLATE_REGISTRY`` in ``templates.py`` for the mapping from
template names to parsers.  Loading is strict: duplicate hosts or flows,
host names holding line breaks or control characters, unknown keys, unknown
hosts, and malformed literals are all hard errors.  Semantic errors report
the structural path of the offending element; JSON syntax errors carry line
and column.
"""

from __future__ import annotations

import json

from .engine import Scenario
from .errors import (
    BadAttribute,
    ScenarioError,
    ScenarioFormatError,
    ScenarioSyntaxError,
    UnknownHost,
    UnknownTemplate,
)
from .graph import _derived_policy
from .invariants import InvariantInstance
from .templates import TEMPLATE_REGISTRY


def _no_duplicate_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioFormatError("document", f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _require_keys(obj, where, allowed):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ScenarioFormatError(where, f"unknown keys {sorted(unknown)}")


def _parse_hosts(data) -> set:
    if not isinstance(data, list):
        raise ScenarioFormatError("hosts", "must be a list of host names")
    seen = set()
    for index, name in enumerate(data):
        if not isinstance(name, str) or not name:
            raise ScenarioFormatError(f"hosts[{index}]", "host name must be a non-empty string")
        try:
            name.encode("utf-8")  # a lone surrogate escape: never printable
        except UnicodeEncodeError:
            raise ScenarioFormatError(f"hosts[{index}]", "host name is not valid Unicode text") from None
        # a line break or control character (Unicode category Cc: U+0000 to
        # U+001F and U+007F to U+009F) would let a name forge lines of the
        # text reports, which print names as they are; every such name
        # fails the cheap isprintable test first
        if not name.isprintable() and (
            name.splitlines() != [name] or any(c < " " or "\x7f" <= c <= "\x9f" for c in name)
        ):
            raise ScenarioFormatError(
                f"hosts[{index}]", "host name must not hold line breaks or control characters"
            )
        if name in seen:
            raise ScenarioFormatError(f"hosts[{index}]", f"duplicate host {name!r}")
        seen.add(name)
    return seen


def _parse_flows(data, hostset) -> set:
    if not isinstance(data, list):
        raise ScenarioFormatError("flows", "must be a list of [source, target] pairs")
    seen = set()
    for index, pair in enumerate(data):
        where = f"flows[{index}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioFormatError(where, "must be a [source, target] pair")
        src, dst = pair
        for endpoint in (src, dst):
            if not isinstance(endpoint, str):
                raise ScenarioFormatError(where, "endpoints must be strings")
            if endpoint not in hostset:
                raise UnknownHost(endpoint, where)
        if (src, dst) in seen:
            raise ScenarioFormatError(where, f"duplicate flow {src!r} -> {dst!r}")
        seen.add((src, dst))
    return seen


def _parse_invariant(data, where, hostset) -> InvariantInstance:
    if not isinstance(data, dict):
        raise ScenarioFormatError(where, "must be an object")
    _require_keys(data, where, ("template", "attributes"))
    name = data.get("template")
    if not isinstance(name, str):
        raise ScenarioFormatError(where, 'missing or non-string "template"')
    try:
        io = TEMPLATE_REGISTRY[name]
    except KeyError:
        raise UnknownTemplate(name, TEMPLATE_REGISTRY) from None
    attributes = data.get("attributes", {})
    if not isinstance(attributes, dict):
        raise ScenarioFormatError(f"{where}.attributes", "must be an object keyed by host")
    config = {}
    for host, literal in attributes.items():
        if host not in hostset:
            raise UnknownHost(host, f"{where}.attributes")
        try:
            config[host] = io.parse_attr(literal)
        except ValueError as exc:
            raise BadAttribute(host, literal, str(exc)) from None
    return InvariantInstance(io.template, config)


def scenario_from_data(data) -> Scenario:
    """Build a validated scenario from already-parsed JSON data."""
    if not isinstance(data, dict):
        raise ScenarioFormatError("document", "top level must be an object")
    _require_keys(data, "document", ("hosts", "flows", "invariants"))
    hosts = _parse_hosts(data.get("hosts", []))
    flows = _parse_flows(data.get("flows", []), hosts)
    invariants_data = data.get("invariants", [])
    if not isinstance(invariants_data, list):
        raise ScenarioFormatError("invariants", "must be a list")
    instances = [
        _parse_invariant(item, f"invariants[{index}]", hosts)
        for index, item in enumerate(invariants_data)
    ]
    return Scenario(_derived_policy(frozenset(hosts), frozenset(flows)), tuple(instances))


def parse_scenario(document: str) -> Scenario:
    """Parse and validate a scenario document.

    Inverse of :func:`serialize_scenario` on every valid scenario.  Raises
    subclasses of :class:`policyverif.errors.ScenarioError` on any problem,
    including templates that fail the deny-all admission check.
    """
    try:
        data = json.loads(document, object_pairs_hook=_no_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except ScenarioError:  # from the duplicate-key hook
        raise
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, or an integer past the digit limit
        raise ScenarioSyntaxError(str(exc)) from None
    return scenario_from_data(data)


def scenario_to_data(scenario: Scenario) -> dict:
    """The canonical JSON data for a scenario: hosts and flows sorted,
    invariants in scenario order, attribute keys sorted."""
    invariants = []
    for inst in scenario.invariants:
        io = TEMPLATE_REGISTRY.get(inst.template.name)
        if io is None or io.template is not inst.template:
            raise ValueError(f"template {inst.template.name!r} is not registered for serialization")
        invariants.append(
            {
                "template": inst.template.name,
                "attributes": {
                    host: io.format_attr(inst.config[host]) for host in sorted(inst.config)
                },
            }
        )
    return {
        "hosts": scenario.policy.sorted_hosts(),
        "flows": [[s, r] for s, r in scenario.policy.sorted_flows()],
        "invariants": invariants,
    }


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_data(scenario), indent=2, ensure_ascii=False) + "\n"
