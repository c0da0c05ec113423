"""Small-signal ac-side impedance of an MMC phase leg.

Harmonic state-space models of the averaged converter (open loop, ac-voltage
loop, circulating-current loop), an impedance sweep engine on top of them,
and a nonlinear fixed-step time-domain simulator used as the cross-check
oracle.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateResponseError,
    DivergenceError,
    InvalidValueError,
    PoleAtResonanceError,
    SingularSystemError,
)

__all__ = [
    "DegenerateResponseError",
    "DivergenceError",
    "InvalidValueError",
    "PoleAtResonanceError",
    "SingularSystemError",
    "__version__",
]
