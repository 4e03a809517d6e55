"""Exception types shared across the package."""


class BulkgrowError(Exception):
    """Base class for all package errors."""


def with_context(exc, where):
    """Prefix the BulkgrowError ``exc``'s message with ``where: `` in place
    and return it, for ``raise with_context(exc, ...)``.

    The same object goes on, so it keeps its type and what it carries (the
    element, line or residual); nested contexts read outermost first.
    """
    exc.args = (f"{where}: {exc}",)
    return exc


class ValidationError(BulkgrowError):
    """Inconsistent or out-of-contract input data."""


class MeshFormatError(ValidationError):
    """Malformed .bsm file; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GeometryError(BulkgrowError):
    """Degenerate or tangled element; carries the element index."""

    def __init__(self, message, element=None):
        if element is not None:
            message = f"element {element}: {message}"
        super().__init__(message)
        self.element = element


class SolverError(BulkgrowError):
    """A solve failed: its residual did not meet the target (a NaN one never
    does), or its factorization broke down on a matrix that is not finite or
    not positive definite."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (relative residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class SourceError(BulkgrowError):
    """The source term Q is not finite on the boundary at a step's time."""


class ConfigError(BulkgrowError):
    """Invalid run configuration."""


class ResourceError(ConfigError):
    """Requested resolution exceeds the memory budget."""
