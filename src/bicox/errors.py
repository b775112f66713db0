"""Exception types shared across the package."""


class BicoxError(Exception):
    """Base class for all package-specific errors."""


class NotFiniteError(BicoxError):
    """A Coxeter matrix has a component outside the finite classification.

    Carries the offending component's generator indices in ``component``.
    """

    def __init__(self, message: str, component: tuple[int, ...] = ()):
        super().__init__(message)
        self.component = tuple(component)


class CapacityError(BicoxError):
    """A requested computation exceeds the configured element, face or table budget."""


class InternalCheckError(BicoxError):
    """Two internally redundant computations disagreed; signals a bug."""


class GammaBasisError(BicoxError):
    """The gamma basis failed to span the given polynomial exactly."""


class CacheError(BicoxError):
    """A cache file is missing, corrupt, or inconsistent with its request."""
