"""Exception types shared across the package."""


class SchauderSpecError(Exception):
    """Base class for all library errors."""


class UnsupportedClassError(SchauderSpecError):
    """The operator lies outside the structurally supported classes."""


class PreconditionViolatedError(SchauderSpecError):
    """A stated precondition of an operation failed on the given input."""


class StepCapExceededError(SchauderSpecError):
    """No divergence witness was found within the step cap.

    This signals that the requested bound or cap was too aggressive for
    the given data, not that an eigenvalue exists.  Orbit and block walks
    set ``lam`` (the lambda walked), ``steps`` (steps walked), the best
    log magnitude reached (in either direction, for an orbit walk), and
    its ``gap`` to ``log(bound)``.
    """

    def __init__(self, message: str, lam=None, steps=None,
                 best_log_magnitude=None, gap=None):
        super().__init__(message)
        self.lam = lam
        self.steps = steps
        self.best_log_magnitude = best_log_magnitude
        self.gap = gap


class NotSummableError(SchauderSpecError):
    """A tail-summability requirement failed or could not be certified."""


class EmptyInputError(SchauderSpecError):
    """An operation received an empty collection where data is required."""


class NotCompactError(SchauderSpecError):
    """Compact-only classification was requested for a non-compact input."""


class ConvergenceFailureError(SchauderSpecError):
    """An iterative numeric routine did not converge within its cap.

    The residual check of ``dense_eigs`` sets ``failing`` (eigenpairs
    over the bound), ``worst_residual`` (the largest ``||Mx - lam x|| /
    (||M|| ||x||)``) and ``tol``.
    """

    def __init__(self, message: str, failing=None, worst_residual=None, tol=None):
        super().__init__(message)
        self.failing = failing
        self.worst_residual = worst_residual
        self.tol = tol


class SpecFormatError(SchauderSpecError):
    """An operator-description document failed schema validation."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message
