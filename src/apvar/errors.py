"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ResourceError(RuntimeError):
    """A computation would exceed a memory or work budget."""


class CertificateError(ArithmeticError):
    """A computed result failed its exact certificate and was not returned."""
