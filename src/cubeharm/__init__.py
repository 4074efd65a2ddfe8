"""Exact-arithmetic toolkit for cube-skeleton harmonics and invariants."""

from .bernoulli import bernoulli, scaled_bernoulli
from .coefficients import CoefficientRecord, coefficient_record, route_records
from .generating import generating_poly, identity_report
from .harmonics import harmonic_module_dimension, mean_value_report, skeleton_average
from .invariants import (
    expand_in_elementary_basis,
    fundamental_alternating,
    skeleton_invariant,
)
from .multipoly import MultiPoly
from .unipoly import UniPoly

__version__ = "0.1.0"

__all__ = [
    "bernoulli",
    "scaled_bernoulli",
    "CoefficientRecord",
    "coefficient_record",
    "route_records",
    "generating_poly",
    "identity_report",
    "harmonic_module_dimension",
    "mean_value_report",
    "skeleton_average",
    "expand_in_elementary_basis",
    "fundamental_alternating",
    "skeleton_invariant",
    "MultiPoly",
    "UniPoly",
    "__version__",
]
