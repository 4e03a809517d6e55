"""Exception types shared across the package."""


class BulkgrowError(Exception):
    """Base class for all package errors."""


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
    """A solve failed: its residual stayed above the target, or its
    factorization broke down on a matrix that is not positive definite."""

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message} (relative residual {residual:.3e})"
        super().__init__(message)
        self.residual = residual


class CapabilityError(BulkgrowError):
    """Requested operation exceeds a hard size cap."""


class ResourceError(BulkgrowError):
    """Requested resolution exceeds the memory budget."""


class ConfigError(BulkgrowError):
    """Invalid run configuration."""
