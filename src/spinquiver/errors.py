"""Exception hierarchy shared across the package."""


class SpinQuiverError(Exception):
    """Base class for all package errors."""


class ZeroParameter(SpinQuiverError):
    """A deformation parameter q_s is zero."""


class RegularityViolation(SpinQuiverError):
    """Coordinates leave the regular locus (coincident or resonant eigenvalues)."""


class Degenerate(SpinQuiverError):
    """A required unit-plus-product factor became singular."""


class SingularFactor(SpinQuiverError):
    """A matrix inverse required by an evaluation does not exist."""


class SingularGauge(SpinQuiverError):
    """A gauge transformation matrix is not invertible."""


class SingularX(SpinQuiverError):
    """Some cycle matrix X_s is not invertible (point outside the X-invertible locus)."""


class SingularH(SpinQuiverError):
    """A spin-reduction group element is not invertible."""


class SamplingExhausted(SpinQuiverError):
    """Rejection sampling failed to produce an admissible point.

    rejections maps each reason a draw can be rejected for (a screen, or the
    class of the error that stopped its build) to the number of draws it
    rejected; last_error is the message of the last build error, or None.
    The message states both.
    """

    def __init__(self, message: str, rejections=None, last_error: str | None = None):
        self.rejections = dict(rejections or {})
        self.last_error = last_error
        if self.rejections:
            message += " (rejected by " + ", ".join(
                f"{reason}: {count}" for reason, count in self.rejections.items()) + ")"
        if last_error is not None:
            message += f"; last build error: {last_error}"
        super().__init__(message)


class IllConditioned(SpinQuiverError):
    """A linear solve or rank determination is too ill-conditioned to trust."""


class UnknownPair(SpinQuiverError):
    """Generator pair outside the bracket table (inconsistently mixed alphabets)."""


class BranchInvalid(SpinQuiverError):
    """A chosen m-th root branch does not reproduce the required eigenvalue."""


class WordTooLong(SpinQuiverError):
    """Symbolic word manipulation beyond the supported length cap."""
