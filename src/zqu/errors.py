"""Exception types shared across the package."""


class ZquError(Exception):
    """Base class for all library errors."""


class PreconditionError(ZquError, ValueError):
    """An operation was called with arguments violating its contract."""


class PolyParseError(ZquError, ValueError):
    """Input text does not match the polynomial grammar."""


class NonMonicDivisorError(PreconditionError):
    pass


class LengthNotCoprimeError(PreconditionError):
    """Code length n shares a factor with p; the semisimple machinery needs gcd(n, p) = 1."""


class UnsupportedMetricError(PreconditionError):
    """Lee/Gray machinery is only defined over Z4 + uZ4."""


class GuardExceededError(PreconditionError):
    """A fixed desk-scale guard on q was exceeded."""


class DistanceUndefinedError(PreconditionError):
    """The zero code has no nonzero codeword, hence no minimum distance."""


class GeneratorHypothesesError(PreconditionError):
    """The canonical generators do not satisfy the divisibility hypotheses
    required by the minimum-generating-set construction."""


class EnumerationBudgetError(ZquError):
    """Requested enumeration exceeds the default budget."""
