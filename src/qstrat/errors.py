"""Semantic exceptions shared across the package."""


class QstratError(Exception):
    """Base class for all package errors."""


class DomainError(QstratError, ValueError):
    """Input outside the mathematical domain of an operation."""


class PairUndefinedError(QstratError, ValueError):
    """Pairwise moments requested for a sample of size one."""


class EmptySampleError(QstratError, ValueError):
    """An estimator was given an empty sample."""


class ZeroProposalDensityError(QstratError, ZeroDivisionError):
    """Importance weight requested where the proposal density vanishes."""
