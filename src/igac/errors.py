"""Exception types shared across the package."""


class IgacError(Exception):
    """Base class for all package errors."""


class DomainError(IgacError):
    """A micro-variable lies outside the support of its density."""


class UnsupportedFamilyError(IgacError):
    """No closed-form expression exists for the requested family."""


class QuadratureAccuracyError(IgacError):
    """Quadrature failed to converge below the requested tolerance.

    The best available estimate is attached as ``estimate``.
    """

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DegenerateMetricError(IgacError):
    """Metric is singular or not positive definite at the evaluation point."""


class DegeneratePlaneError(IgacError):
    """Sectional curvature requested for a (near-)degenerate 2-plane."""


class ChartBoundaryError(IgacError):
    """A trajectory left the open parameter chart (scale coordinate -> 0).

    ``last_state`` holds the last valid (tau, theta, theta_dot) triple.
    """

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state


class StiffnessError(IgacError):
    """Adaptive step size underflowed during integration."""


class BvpFailureError(IgacError):
    """Shooting iteration for a boundary value problem did not converge.

    ``best_residual`` carries the smallest endpoint mismatch reached.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class UndefinedRateError(IgacError):
    """Growth-rate estimate requested for an identically degenerate trace."""


class UndefinedEntropyError(IgacError):
    """log of a non-positive complexity value."""


class InfeasibleConstraintError(IgacError):
    """Moment constraints incompatible with the prior: the tilt diverges or
    the multiplier solve does not converge."""


class BracketingError(IgacError):
    """A moment target lies outside the range its constraint function takes
    on the working grid, so no tilt can reach it."""


class FitFailureError(IgacError):
    """Least-squares design matrix is rank deficient or the fit diverged."""


class RegimeError(IgacError):
    """Input parameters violate a validity bound of the modeled regime."""


class ParameterError(IgacError, ValueError):
    """One or more parameters lie outside their domain.

    ``failures`` is a list of (field, message) pairs covering every problem
    found, not just the first; an entry of a vector field is ``field[i]``.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(f"{field}: {msg}"
                                   for field, msg in self.failures))


class ConfigError(ParameterError):
    """One or more configuration fields failed validation; the field of
    each failure is its path in the config."""
