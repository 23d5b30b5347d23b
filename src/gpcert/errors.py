"""Exception hierarchy shared across the library.

Plain ``ValueError`` is used for malformed arguments (dimension mismatches,
out-of-range probabilities); the classes below mark failures with a numerical
or feasibility cause that callers may want to handle separately.
"""


class GPCertError(Exception):
    """Base class for all library-specific failures."""


class UnsupportedOperationError(GPCertError):
    """The kernel family lacks the smoothness or structure the operation needs."""


class IllConditionedDataError(GPCertError):
    """Factorization of the regularized Gram matrix failed.

    Carries the smallest pivot/eigenvalue encountered in ``smallest_pivot``.
    """

    def __init__(self, message, smallest_pivot=None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class DomainError(GPCertError):
    """A query point lies outside the box the guarantee was built for."""


class InfeasibilityError(GPCertError):
    """A gain or parameter condition required by a bound does not hold."""


class ConditionUnreachableError(GPCertError):
    """No admissible sampling time satisfies the variance condition."""


class EpisodeCapExceededError(GPCertError):
    """The episodic loop hit its safety cap before reaching the target."""


class DivergenceError(GPCertError):
    """The integrator produced a non-finite state.

    ``time`` holds the first time stamp at which divergence was detected.
    """

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class CoreBuildError(GPCertError):
    """The compiled core (rollout and CSV formatter) could not be built: no C compiler, or it failed."""


class DegenerateInputError(GPCertError):
    """An input renders the requested quantity undefined (e.g. k(x,x)=0)."""
