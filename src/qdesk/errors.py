"""The exception types, and the checks of counts and of closeness.

Every argument qdesk rejects raises BadParameter, or one of its two
subclasses; IntegratorDiverged is a numerical failure, not bad input."""
import numbers

import numpy as np


class QdeskError(Exception):
    pass


class BadParameter(QdeskError, ValueError):
    """An argument qdesk rejects: missing, not finite, outside its range,
    or breaking a rule it must satisfy."""


class DimensionMismatch(BadParameter):
    """A shape or length that does not fit."""


class TargetOutOfRange(BadParameter, IndexError):
    """A qubit or layer index outside the register."""


class IntegratorDiverged(QdeskError, RuntimeError):
    pass


def _check_counts(**counts):
    """BadParameter naming the first count that is not an integer >= 1."""
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                or v < 1:
            raise BadParameter(f"{name} must be an integer >= 1, got {v!r}")


def _check_close(a, b, atol: float, message: str):
    """DimensionMismatch(message) unless a and b have one shape, and
    BadParameter(message) unless they agree within atol, with no rtol."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatch(message)
    if not np.allclose(a, b, rtol=0.0, atol=atol):
        raise BadParameter(message)


def _check_hermitian(M, atol: float, message: str):
    """DimensionMismatch(message) unless M is a square 2-D matrix, then
    _check_close(M, M^dagger, atol, message)."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(message)
    _check_close(M, M.conj().T, atol, message)
