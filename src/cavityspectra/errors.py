"""Exception types raised when a numerical evaluation refuses to proceed."""


class NumericalGuardError(Exception):
    """Base class for guard violations (pole proximity, extrapolation, time window)."""


class LightConeProximity(NumericalGuardError):
    """Evaluation point too close to an image light cone to be meaningful.

    The time-domain correlation functions have distributional poles where the
    squared time separation equals a squared image distance; pointwise values
    inside the guard band around a pole are refused rather than returned huge.
    """

    def __init__(self, image_index: int, branch: str, gap: float, guard: float):
        self.image_index = image_index
        self.branch = branch
        self.gap = gap
        self.guard = guard
        super().__init__(
            f"within guard band {guard:g} of the {branch} image light cone at "
            f"image index n={image_index} (|separation| = {gap:.6e})"
        )


class ExtrapolationDivergence(NumericalGuardError):
    """Regulator sequence is not contracting; extrapolation would be meaningless."""


class TailTooLarge(NumericalGuardError):
    """Estimated contribution beyond the time-integration window exceeds budget."""
