"""Exception types shared across the package, and the input checks that raise them.

:func:`integer` and :func:`real` check scalar settings, each against its least
value, :func:`sequence` lists and :func:`finite_array` every vector and matrix.
"""

import math
import numbers

import numpy as np

__all__ = ["InvalidInputError", "ConvergenceError", "ViabilityError"]


class InvalidInputError(ValueError):
    """Raised when an operation rejects its inputs (shape, range or schema).

    ``field`` names the setting at fault, when there is one, and the message
    then starts with that name, so a caller that knows the setting by
    another name (the scenario loader, by its JSON key) can put it in place.
    """

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field

    def renamed(self, field: str) -> "InvalidInputError":
        """This error with ``field`` in place of its own field, at the head of the message too."""
        return InvalidInputError(field + str(self)[len(self.field) :], field)


def integer(value, field: str, name: str = "", least: int | None = None) -> int:
    """``value`` as an int; anything but an integral number is rejected naming ``field``.

    ``2``, ``2.0``, ``Fraction(4, 2)`` and ``np.int64(2)`` read as 2; a
    bool, ``2.5``, NaN, an infinity, a string or a number that is not a
    ``numbers.Real`` (a ``Decimal``) is rejected, and so is a value below
    ``least``. Integrality is tested exactly, so ``Fraction(10**17 + 1,
    10**17)``, whose float is 1.0, is not an integer. The message starts
    with ``name``, or with ``field`` when no name is given (``"entries lag"``
    names a part of ``entries``).
    """
    if type(value) is not int:
        try:
            integral = not isinstance(value, bool) and isinstance(value, numbers.Real) and value == int(value)
        except (ValueError, OverflowError):  # int() of NaN or of an infinity
            integral = False
        if not integral:
            raise InvalidInputError(f"{name or field} must be an integer, got {value!r}", field)
        value = int(value)
    return _at_least(value, least, field, name)


def real(value, field: str, name: str = "", least: float | None = None) -> float:
    """``value`` as a finite float; a bool, a string, NaN, an infinity or a value below ``least`` is rejected."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidInputError(f"{name or field} must be a number, got {value!r}", field)
        value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name or field} must be finite, got {value!r}", field)
    return _at_least(value, least, field, name)


def _at_least(value, least, field: str, name: str):
    """``value``; one below ``least`` is rejected, the message giving the least ("at least N", or
    "nonnegative" at 0) and the value."""
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise InvalidInputError(f"{name or field} must be {bound}, got {value!r}", field)
    return value


def sequence(values, field: str) -> tuple:
    """``values`` as a tuple; a string, a mapping, a set (ordered by hash) or a scalar is rejected naming ``field``."""
    if not isinstance(values, (str, bytes, dict, set, frozenset)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise InvalidInputError(f"{field} must be a list, got {values!r}", field)


def finite_array(values, field: str, shape: tuple, name: str = "") -> np.ndarray:
    """``values`` as a float ndarray of ``shape`` with every entry finite; else rejected naming ``field``.

    Each entry of ``shape`` is an exact length, or ``None`` for any length of
    at least 1. A string, a ragged list or anything else numpy cannot read as
    floats is rejected, as are a wrong shape, NaN and infinities. The message
    starts with ``name``, or with ``field`` when no name is given.
    """
    label = name or field
    try:
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise InvalidInputError(f"{label} must be an array of numbers ({err})", field) from None
    if array.ndim != len(shape) or not all(n > 0 if m is None else n == m for n, m in zip(array.shape, shape)):
        dims = ", ".join("n>=1" if m is None else str(m) for m in shape)
        raise InvalidInputError(f"{label} must have shape ({dims}), got {array.shape}", field)
    if not np.isfinite(array).all():
        raise InvalidInputError(f"{label} must be finite", field)
    return array


class ConvergenceError(RuntimeError):
    """Solver ran out of sweeps before its optimality certificate held.

    Carries the last iterate and its optimality residual in the certificate's
    column units, measured from a fresh residual, so callers can see how far the solve got.
    """

    def __init__(self, message, last_beta=None, kkt_residual=None):
        super().__init__(message)
        self.last_beta = last_beta
        self.kkt_residual = kkt_residual


class ViabilityError(RuntimeError):
    """A clearing came out worse for the buyer than its own baseline.

    The mechanism guarantees this cannot happen at an exact optimum, so this
    error signals a solver defect rather than a legitimate market outcome.
    """

    def __init__(self, message, market_side=None, baseline_side=None):
        super().__init__(message)
        self.market_side = market_side
        self.baseline_side = baseline_side
