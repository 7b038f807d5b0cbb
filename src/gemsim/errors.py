"""Exception types shared across the package."""


class GemSimError(Exception):
    """Base class for all errors raised by gemsim."""


class NonFinite(GemSimError):
    """The integrator produced a non-finite solution value."""

    def __init__(self, step: int, time: float, max_abs: float):
        self.step = step
        self.time = time
        self.max_abs = max_abs
        super().__init__(
            f"non-finite solution at step {step} (t={time:.6g}), max |value| so far {max_abs:.6g}"
        )


class StabilityBound(GemSimError):
    """The requested time step violates a documented stability bound."""


class EmptySpectrum(GemSimError):
    """No spatial-spectrum sample exceeds the magnitude floor."""


class NoCrossing(GemSimError):
    """The spectral centroid does not cross k=0 inside the requested window."""


class ZeroGradient(GemSimError):
    """Effective optical depth is undefined for a zero detuning gradient."""


class NoRoot(GemSimError):
    """An equation has no solution: the balance equation when an arm vanishes,
    or a target visibility that no mode overlap mu in [0, 1] reaches."""


class SeparationTooSmall(GemSimError):
    """Channel frequency separation does not exceed the memory bandwidth."""


class DegenerateFit(GemSimError):
    """The sinusoid fit is rank deficient, or a fringe has a non-positive offset."""
