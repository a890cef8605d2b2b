"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Bad run configuration: unknown keys, wrong types, out-of-range values."""


class ConvergenceError(RuntimeError):
    """An eigensolve failed: its residuals exceed the accepted bound, ARPACK did
    not converge, or the shifted block it factors is not positive definite."""


class DegenerateGapError(RuntimeError):
    """A transition-rate denominator sits below the degeneracy floor.

    A numerical condition of the solved spectrum, not a bad input.
    """


class AmbiguousSteadyStateError(RuntimeError):
    """Generator nullspace is not one-dimensional enough to trust."""


class InvariantViolation(RuntimeError):
    """A density-matrix invariant (hermiticity, trace, positivity) broke."""


class TruncationWarning(RuntimeWarning):
    """Population has reached the top of the truncated Fock space."""
