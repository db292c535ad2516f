"""Exception types shared across the package, and the outcome codes of a tile."""

# The outcome of one tile on one image, as an int8 code: OK, or the first
# check that failed it, in the order the pipeline runs them.
OK, BALANCE, CERTIFICATION, SOLVER, NOT_FINITE = range(5)
_TEXTS = (
    None,
    "Sinkhorn balancing did not converge (residual {detail:.3e})",
    "{kind} denoiser failed certification on patch",
    "reduced joint system is singular",
    "tile output is not finite",
)


def outcome_text(code, detail=0.0, kind="custom"):
    """The error text of an outcome ``code``, or None for OK.

    ``detail`` is the Sinkhorn residual, which a BALANCE text states, and
    ``kind`` the denoiser kind, which a CERTIFICATION text names.
    """
    return None if code == OK else _TEXTS[code].format(detail=detail, kind=kind)


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
