"""Exception types shared across the package, and the rules that input
values are checked against.

A value that breaks its rule raises InvalidValueError where it is taken,
before any work: parameter objects (Checked) check their RULES table of
field -> rule on construction, entry points check their arguments, and
the CLI reports the owner's reason against the key and line that set the
value. Every number must be finite. A rule across several values
(combined modulation, sweep_stop_hz below sweep_start_hz, an operating
point of other params) raises plain ValueError. The other classes cover
failures that only show up once the numerics run.
"""

import math
import numbers

import numpy as np


class InvalidValueError(ValueError):
    """One value breaks its rule: .field names it, .reason says how."""

    def __init__(self, field, reason):
        super().__init__(f"{field} {reason}")
        self.field = field
        self.reason = reason


def rule(holds, reason):
    """A one-stage rule. Rules are tuples of (predicate, reason) stages that
    compose with +; predicates take ndarrays elementwise."""
    return ((holds, reason),)


def _finite(x):
    if isinstance(x, np.ndarray):
        return np.isfinite(x)
    return not isinstance(x, numbers.Real) or math.isfinite(x)


# applied to every checked value first; strings pass
_FINITE = rule(_finite, "must be finite")
ANY = ()
POSITIVE = rule(lambda x: x > 0, "must be positive")
NON_NEGATIVE = rule(lambda x: x >= 0, "must not be negative")
FRACTION = rule(lambda x: (0 <= x) & (x <= 1), "must be within [0, 1]")
WHOLE = rule(lambda x: isinstance(x, numbers.Integral),
             "must be a whole number")
COUNT = WHOLE + rule(lambda x: x >= 1, "must be at least 1")


def check(field, value, rules=ANY):
    """value, if it is finite and keeps every stage of rules; else raises
    InvalidValueError naming field and the first stage it breaks."""
    for holds, reason in _FINITE + rules:
        ok = holds(value)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise InvalidValueError(field, reason)
    return value


class Checked:
    """Base of the parameter objects: construction checks every field
    named in the class's RULES table (field -> rule)."""

    def __post_init__(self):
        for name, rules in self.RULES.items():
            check(name, getattr(self, name), rules)


class SingularSystemError(ArithmeticError):
    """A harmonic system matrix is singular or numerically unusable.

    Carries the 1-norm condition estimate of the offending matrix so callers
    can report how close to singular it was.
    """

    def __init__(self, message, cond_estimate=float("inf")):
        super().__init__(message)
        self.cond_estimate = cond_estimate


class PoleAtResonanceError(ValueError):
    """A controller transfer function was evaluated exactly on an undamped
    pole. The package's own solves never raise it (the channel solve is
    exact on the pole); only a dense assembly of the closed-loop operator,
    such as the tests' reference, does. It stays exported, and the CLI
    maps it to exit code 3."""


class DegenerateResponseError(ArithmeticError):
    """The perturbation response current is numerically zero, impedance undefined."""


class DivergenceError(ArithmeticError):
    """Time-domain integration left the plausible region (non-finite state).

    ``time`` is the simulation time (s) at which the state first went bad.
    """

    def __init__(self, message, time=float("nan")):
        super().__init__(message)
        self.time = time
