"""Enumerations shared by the operators, the lagrangian engine and the
CLI. This module imports no numpy, so deriving equations of motion and
parsing the command line do not load it; ``core`` and ``fracops``
re-export both names."""

from __future__ import annotations

import enum

__all__ = ["Direction", "Scheme"]


class Direction(enum.Enum):
    """Orientation of a one-sided operator: sweeping forward from the left
    endpoint (causal) or backward from the right endpoint (retrocausal)."""

    CAUSAL = "causal"
    RETROCAUSAL = "retrocausal"


class Scheme(enum.Enum):
    """Discretization of a non-integer fractional derivative."""

    GRUNWALD_LETNIKOV = "grunwald-letnikov"
    PRODUCT_TRAPEZOID = "product-trapezoid"
