"""Type checks on the numbers callers pass in: counts, seeds, sizes and
real parameters.  A bool is neither an integer nor a real number here."""

from __future__ import annotations

import math
import numbers

import numpy as np


def require_integer(name: str, value, positive: bool = False) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int or a
    numpy integer, not a bool, and, with ``positive``, at least 1."""
    # concrete types: a check against ``numbers.Integral`` costs several
    # times more, and every RngStream makes two of these calls
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (positive and value < 1)):
        noun = "a positive integer" if positive else "an integer"
        raise ValueError(f"{name} must be {noun}, got {value!r}")


def require_real(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real number
    other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


def require_positive_finite(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real number
    other than a bool, finite and above 0."""
    require_real(name, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
