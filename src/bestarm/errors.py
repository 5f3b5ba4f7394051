"""Exception types shared across the package."""


class BestArmError(Exception):
    """Base class for all package errors."""


class DomainError(BestArmError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FamilyMismatch(BestArmError, TypeError):
    """Two arms from different distribution families were combined."""


class DegenerateInstance(BestArmError, ValueError):
    """The decisive means of a bandit instance are tied (not identifiable)."""
