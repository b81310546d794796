"""Exception types shared across the package, and the setting checks that raise them."""

import math
import numbers

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


def integer(value, field: str, name: str = "") -> int:
    """``value`` as an int; anything but an integral number is rejected naming ``field``.

    ``2``, ``2.0`` and ``np.int64(2)`` read as 2; a bool, ``2.5``, NaN, an
    infinity or a string is rejected. The message starts with ``name``, or
    with ``field`` when no name is given (``"entries lag"`` names a part of
    ``entries``).
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{name or field} must be an integer, got {value!r}", field)


def real(value, field: str, name: str = "") -> float:
    """``value`` as a finite float; a bool, a string, NaN or an infinity is rejected naming ``field``."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise InvalidInputError(f"{name or field} must be a number, got {value!r}", field)
        value = float(value)
    if not math.isfinite(value):
        raise InvalidInputError(f"{name or field} must be finite, got {value!r}", field)
    return value


def sequence(values, field: str) -> tuple:
    """``values`` as a tuple; a string, a mapping or a scalar is rejected naming ``field``."""
    if not isinstance(values, (str, bytes, dict)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise InvalidInputError(f"{field} must be a list, got {values!r}", field)


class ConvergenceError(RuntimeError):
    """Solver ran out of sweeps before meeting its tolerance.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message, last_beta=None, sweep_delta=None, kkt_residual=None):
        super().__init__(message)
        self.last_beta = last_beta
        self.sweep_delta = sweep_delta
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
