"""Exception types shared across the package."""


class PolicyVerifError(Exception):
    """Base class for all errors raised by this package."""


class DanglingEndpoint(PolicyVerifError, ValueError):
    """A flow references a host that is not part of the policy."""

    def __init__(self, flow):
        self.flow = flow
        super().__init__(f"flow {flow[0]!r} -> {flow[1]!r} has an endpoint outside the host set")


class TooLarge(PolicyVerifError, ValueError):
    """A violated invariant without per-edge structure meets a policy with
    more flows than the configured bound."""

    def __init__(self, n_flows, bound):
        self.n_flows = n_flows
        self.bound = bound
        super().__init__(
            f"the policy has {n_flows} flows but the bound is {bound} flows; "
            "raise the edge bound or use an edge-local template"
        )


class ScenarioError(PolicyVerifError, ValueError):
    """Base class for scenario loading errors."""


class ScenarioSyntaxError(ScenarioError):
    """The scenario document is not well-formed JSON."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ScenarioFormatError(ScenarioError):
    """The document is valid JSON but does not match the scenario schema.

    ``where`` is a structural path such as ``invariants[2].attributes``.
    """

    def __init__(self, where, message):
        self.where = where
        super().__init__(f"{where}: {message}")


class UnknownTemplate(ScenarioError):
    def __init__(self, name, known=()):
        self.name = name
        hint = f" (known: {', '.join(sorted(known))})" if known else ""
        super().__init__(f"unknown template {name!r}{hint}")


class UnknownHost(ScenarioError):
    """An attribute entry keys a host that does not exist in the policy.

    Silently ignoring such keys could downgrade a mistyped host to the
    default attribute, so this is a hard load error.
    """

    def __init__(self, host, where=""):
        self.host = host
        suffix = f" in {where}" if where else ""
        super().__init__(f"unknown host {host!r}{suffix}")


class BadAttribute(ScenarioError):
    def __init__(self, host, literal, reason=""):
        self.host = host
        self.literal = literal
        suffix = f": {reason}" if reason else ""
        super().__init__(f"bad attribute for host {host!r}: {literal!r}{suffix}")


class InvariantRejected(ScenarioError):
    """A template failed an admission check at scenario load time."""

    def __init__(self, name, reason):
        self.name = name
        self.reason = reason
        super().__init__(f"invariant {name!r} rejected: {reason}")
