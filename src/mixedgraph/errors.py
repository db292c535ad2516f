"""Exception types shared across the package."""


class MixedGraphError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGraphError(MixedGraphError):
    """Graph has zero-degree nodes or is otherwise unusable."""


class PreconditionError(MixedGraphError):
    """An operator does not satisfy the certified properties an operation requires."""


class SingularOperatorError(MixedGraphError):
    """A matrix that must be invertible is singular within tolerance."""


class BalanceError(MixedGraphError):
    """Sinkhorn balancing failed to converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SolverError(MixedGraphError):
    """A linear solve failed or was inaccurate; carries its solution, if any, and residual."""

    def __init__(self, message, best_x=None, residual=None, iterations=None):
        super().__init__(message)
        self.best_x = best_x
        self.residual = residual
        self.iterations = iterations


class DegenerateTransformError(MixedGraphError):
    """Transform is singular or back-projects through the plane at infinity."""


class PatchGeometryError(MixedGraphError):
    """Patch footprint is empty, out of bounds, or rank-deficient."""


class TilesFailedError(MixedGraphError):
    """Every tile of an image failed, so there is nothing to score."""


class TileMemoryError(MixedGraphError):
    """The tiles of a run would need more memory than the machine has."""


class WorkerError(MixedGraphError):
    """A forked worker process ended without handing back its tiles' results.

    Carries the worker's pid, its exit status (negative: the signal that
    killed it) or None, and the traceback text of an exception it raised,
    or None.
    """

    def __init__(self, message, pid=None, status=None, traceback=None):
        super().__init__(message)
        self.pid = pid
        self.status = status
        self.traceback = traceback


class ImageIOError(MixedGraphError):
    """Malformed image file; carries the byte offset where parsing failed."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset
