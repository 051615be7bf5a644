"""Exception hierarchy shared across the package."""


class CmeError(Exception):
    """Base class for all package errors.

    ``state`` is the learner state when ``learner.step`` raised the error
    before it changed that state (by hand or inside ``run_stream``), and
    None otherwise."""

    state = None


class InputError(CmeError, ValueError):
    """Caller passed structurally invalid data (shape/dimension/NaN)."""


class ConfigError(CmeError, ValueError):
    """Configuration violates a documented constraint."""


class NumericalError(CmeError, ArithmeticError):
    """A numerical routine failed beyond its recovery policy."""


class ModelError(CmeError, ValueError):
    """A probabilistic model is ill-posed (non-stochastic, non-ergodic, ...)."""


class CapacityError(CmeError, RuntimeError):
    """Dictionary budget exhausted."""
