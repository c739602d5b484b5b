"""Shared exception types, and the check of count parameters."""
import numbers


class QdeskError(Exception):
    pass


class DimensionMismatch(QdeskError, ValueError):
    pass


class LengthMismatch(DimensionMismatch):
    pass


class TargetOutOfRange(QdeskError, IndexError):
    pass


class NotHermitian(QdeskError, ValueError):
    pass


class NotTracePreserving(QdeskError, ValueError):
    pass


class InfiniteDivergence(QdeskError, ValueError):
    """Relative entropy is +inf: support of p not contained in support of q."""


class ZeroProbabilityBranch(QdeskError, ValueError):
    pass


class OutsideBlochBall(QdeskError, ValueError):
    pass


class NotAnEigenvector(QdeskError, ValueError):
    pass


class NoSolutions(QdeskError, ValueError):
    pass


class AllSolutions(QdeskError, ValueError):
    pass


class SingularMatrix(QdeskError, ValueError):
    pass


class PostselectionImpossible(QdeskError, ValueError):
    pass


class ZeroVector(QdeskError, ValueError):
    pass


class DuplicateSample(QdeskError, ValueError):
    pass


class BadLength(QdeskError, ValueError):
    pass


class BadParameter(QdeskError, ValueError):
    """A parameter that is missing, not finite, or outside its range."""


def _check_counts(**counts):
    """BadParameter naming the first count that is not an integer >= 1."""
    for name, v in counts.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                or v < 1:
            raise BadParameter(f"{name} must be an integer >= 1, got {v!r}")


class UnsupportedKind(QdeskError, ValueError):
    pass


class AliasedSpectrum(QdeskError, ValueError):
    pass


class UnsupportedGenerator(QdeskError, ValueError):
    pass


class IncompleteProjectors(QdeskError, ValueError):
    pass


class SingularSystem(QdeskError, ValueError):
    pass


class EmptyClass(QdeskError, ValueError):
    pass


class IntegratorDiverged(QdeskError, RuntimeError):
    pass
