"""Exception types shared across the package."""

__all__ = ["ConvergenceError", "NoGrowthError", "SingularityError", "StructureError"]


class SingularityError(ValueError):
    """Position coincides with (or the iteration ran into) the second primary."""


class StructureError(ValueError):
    """A Hessian lacks the xz-plane zero pattern required by the reduced determinant."""


class ConvergenceError(RuntimeError):
    """An iterative procedure (Newton refinement, adaptive stepping) failed to converge."""


class NoGrowthError(RuntimeError):
    """No exponential growth detected in a trajectory's displacement from equilibrium."""
