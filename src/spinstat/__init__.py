"""Exact spin-statistics analysis for first-order field Lagrangians."""

__version__ = "0.1.0"

from .algebra import (
    DimensionError,
    ExactMatrix,
    ParseError,
    Scalar,
    SelfCheckError,
    SymmetryClass,
    hermitian_signature,
    symmetry_decompose,
)
from .model import TheoryParseError, TheorySpec, build_kinematic, parse_theory
from .report import (
    AmbiguousKinematicError,
    VerdictReport,
    analyze_theory,
    report_to_dict,
    report_to_json,
)

__all__ = [
    "__version__",
    "DimensionError",
    "ExactMatrix",
    "ParseError",
    "Scalar",
    "SelfCheckError",
    "SymmetryClass",
    "hermitian_signature",
    "symmetry_decompose",
    "TheoryParseError",
    "TheorySpec",
    "build_kinematic",
    "parse_theory",
    "AmbiguousKinematicError",
    "VerdictReport",
    "analyze_theory",
    "report_to_dict",
    "report_to_json",
]
