"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the validated physical domain."""


class NoMinimumError(DomainError):
    """The potential has no interior minimum in the validated regime."""


class UnboundStateError(ValueError):
    """The requested state is not bound.

    Carries the computed (signed) energy parameter ``epsilon``; a bound
    state requires epsilon > 0.
    """

    def __init__(self, message: str, epsilon: float):
        super().__init__(message)
        self.epsilon = epsilon


class NormalizationError(ArithmeticError):
    """The closed-form radial solution leaves the float range: its norm integral
    came out non-finite or non-positive, or its Jacobi factor overflows."""


class ConvergenceError(RuntimeError):
    """An adaptive numerical scheme failed to converge.

    ``estimates`` holds the last two successive estimates when available.
    """

    def __init__(self, message: str, estimates: tuple[float, float] | None = None):
        super().__init__(message)
        self.estimates = estimates


class LabelError(ValueError):
    """Malformed or inconsistent spectroscopic label."""
