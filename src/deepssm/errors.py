"""Exception types shared across the package.

Two families matter to callers: :class:`InputError` covers structurally
malformed requests (shapes, horizons, domains), :class:`NumericalError`
covers inputs that are well formed but numerically unusable (coincident
eigenvalues, defective matrices, diverging optimization).  The command
line maps the first family to exit code 2 and the second to exit code 3.
Every scalar argument of a public entry point is checked by :func:`_checked`,
every array argument by :func:`deepssm.symfun._array`.
"""

import math
import numbers
import sys

__all__ = [
    "DeepSsmError",
    "InputError",
    "NumericalError",
    "WidthMismatch",
    "ShapeMismatch",
    "HorizonMismatch",
    "ShiftOutOfHorizon",
    "DomainError",
    "UnsortedInput",
    "DegenerateEigenvalues",
    "ZeroEigenvalue",
    "ResonantEigenvalues",
    "NotNormal",
    "IllConditionedDiagonalization",
    "DivergenceDetected",
    "UnstableModel",
    "StabilityWarning",
]


class DeepSsmError(Exception):
    """Base class for all errors raised by this package."""


class InputError(DeepSsmError):
    """Malformed or inconsistent caller input."""


class NumericalError(DeepSsmError):
    """Structurally valid input that is numerically unusable."""


class WidthMismatch(InputError):
    """Layer widths or read-out length disagree."""


class ShapeMismatch(InputError):
    """An array has the wrong rank or size for its role."""


class HorizonMismatch(InputError):
    """Two kernels of different lengths were compared."""


class ShiftOutOfHorizon(InputError):
    """An impulse target places its spike outside the kernel horizon."""


class DomainError(InputError):
    """A scalar argument lies outside its mathematical domain."""


class UnsortedInput(InputError):
    """A sequence required to be sorted by modulus is not."""


class DegenerateEigenvalues(NumericalError):
    """Eigenvalues coincide (or a required eigenvalue vanishes)."""


class ZeroEigenvalue(NumericalError):
    """An eigenvalue that must be nonzero is exactly zero."""


class ResonantEigenvalues(NumericalError):
    """Cross-mode eigenvalue coincidence blocks a modal expansion."""


class NotNormal(NumericalError):
    """A state matrix required to be normal fails the commutator test."""


class IllConditionedDiagonalization(NumericalError):
    """An eigenvector basis is too ill conditioned to change into."""


class DivergenceDetected(NumericalError):
    """Training loss blew up relative to its initial value."""


class UnstableModel(NumericalError):
    """Spectral radius is not below one and strict mode was requested."""


class StabilityWarning(UserWarning):
    """Non-fatal notice that a model's spectral radius is >= 1."""


#: How an error message names each kind that :func:`_checked` accepts.
_KINDS = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    list: "a list of integers",
}


def _checked(name: str, value, kind: type, *, low=None, above=None):
    """``value`` if it is of ``kind`` as :data:`_KINDS` names it, at least
    ``low`` and greater than ``above`` where given, else :class:`DomainError`.

    A bool is only ever true or false, never a number; numpy scalars are
    accepted.
    """
    if isinstance(value, bool) or kind is bool:
        ok = isinstance(value, bool) and kind is bool
    elif kind is list:
        ok = isinstance(value, list) and all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in value
        )
    elif kind is int:
        ok = isinstance(value, numbers.Integral)
    else:
        # nan, the infinities and integers too large for a float are refused.
        big = isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max
        ok = isinstance(value, numbers.Real) and not big and math.isfinite(value)
    if ok and (low is None or value >= low) and (above is None or value > above):
        return value
    bound = f" >= {low}" if low is not None else f" > {above}" if above is not None else ""
    raise DomainError(f"{name} must be {_KINDS[kind]}{bound}, got {value!r}")
