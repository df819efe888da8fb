"""Exception types shared across the toolkit.

The split matters for the command line front end: configuration and
input problems map to exit code 2, numerical failures (singular or
unstable systems, a maximum outside the scanned range) map to exit
code 3.
"""


class QbnetError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(QbnetError, ValueError):
    """A network spec or parameter bundle violates its invariants.

    ``violations`` holds one message per offending element.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ConfigError(QbnetError, ValueError):
    """A structured config document failed schema validation.

    Messages are path-precise, e.g. ``topology.gamma_c: must be >= 0``.
    """


class UnknownModeError(QbnetError, KeyError):
    """A mode id names no mode of the network."""

    __str__ = Exception.__str__  # the message, not KeyError's repr of it


class NoSteadyStateError(QbnetError, RuntimeError):
    """The dynamics matrix is singular or near-singular.

    Carries the condition estimate that triggered the refusal.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class UnstableSystemError(QbnetError, RuntimeError):
    """An operation requiring a decaying system met a non-Hurwitz matrix."""

    def __init__(self, message, spectral_abscissa=None):
        super().__init__(message)
        self.spectral_abscissa = spectral_abscissa


class ScanEdgeError(QbnetError, RuntimeError):
    """A maximiser's scan peaked on the first or last point of its grid.

    The maximum may lie outside the scanned range; ``edge`` is that
    grid point.
    """

    def __init__(self, message, edge=None):
        super().__init__(message)
        self.edge = edge
