"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all corrsense errors."""


class LengthMismatchError(SimulationError):
    """Two reading windows have different sample counts."""


class DegenerateWindowError(SimulationError):
    """A reading window is constant, so its correlation is undefined."""


class OutOfFieldError(SimulationError):
    """A position lies outside the sensor field."""


class NoHeadsError(SimulationError):
    """Clustering requested on a deployment without cluster heads."""


class UnknownNodeError(SimulationError):
    """A cluster references a node id missing from the deployment."""


class NotPositiveDefiniteError(SimulationError):
    """The kernel covariance cannot be factorized, even after jitter."""


class MissingTracingPointError(SimulationError):
    """A cluster head has no tracing point to estimate."""


class NoPlateauError(SimulationError):
    """An accuracy sweep never stabilizes within the given tolerance."""


class SweepInvariantError(SimulationError):
    """An experiment output violated one of its declared shape properties."""


class DuplicateNodeError(SimulationError):
    """Two nodes of one kind, or two tracing points, share an id."""


class InvalidConfigError(SimulationError, ValueError):
    """An experiment setting lies outside its valid range."""


class NonFiniteCoordinateError(SimulationError, ValueError):
    """A coordinate is NaN or infinite."""
