"""Semantic exceptions shared across the package, and the integer and name
checks every module applies to its arguments."""

import operator

import numpy as np


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


def check_int(value, what: str, low: int = 1) -> int:
    """``value`` as an int, if it is an integer (numpy integers too) >= ``low``;
    anything else (a float such as 2.5 or 3.0, a string, a bool) raises
    DomainError."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, (bool, np.bool_)):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    return n


def check_name(value, names, what: str) -> str:
    """``value`` stripped and lowercased, if it is one of ``names``; else
    DomainError naming the value and the choices."""
    key = str(value).strip().lower()
    if key not in names:
        raise DomainError(f"{what} must be one of {tuple(names)}, got {value!r}")
    return key
