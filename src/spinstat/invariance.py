"""Symmetry requirements on the kinematic matrix and the constraint split.

The first-order Lagrangian couples fields through K0 both to their time
derivatives and, in momentum space, through the antisymmetrized combination
Lambda_rs = K0_rs (d_t acting left minus right).  The derivative factor is
odd under swapping r and s, so commuting fields keep only the antisymmetric
part of K0 and anticommuting fields only the symmetric part.  Three facts
are mechanized here: which transpose symmetry a spin forces on K0, whether
K0 is rotation invariant, and how K0 splits field components into canonical
pairs versus constraints.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import (
    DimensionError,
    ExactMatrix,
    Scalar,
    SymmetryClass,
    pivoted_elimination,
    self_check,
)
from .su2 import as_two_j

__all__ = [
    "required_symmetry",
    "STATISTICS_CLASS",
    "class_for_statistics",
    "InvarianceReport",
    "check_su2_invariance",
    "momentum_map",
    "ConstraintSplit",
    "constraint_split",
]


def required_symmetry(j) -> SymmetryClass:
    """Transpose symmetry class K0 must have for spin j.

    Integral spin carries a symmetric invariant scalar product, so a
    non-vanishing kinematic term needs the antisymmetric matrix, and the
    other way around for half-integral spin.
    """
    return (SymmetryClass.SYMMETRIC if as_two_j(j) % 2 == 1
            else SymmetryClass.ANTISYMMETRIC)


# The pure K0 class whose surface variation survives for each statistics.
STATISTICS_CLASS = {"bose": SymmetryClass.ANTISYMMETRIC,
                    "fermi": SymmetryClass.SYMMETRIC}


def class_for_statistics(statistics: str) -> SymmetryClass:
    """STATISTICS_CLASS[statistics], with a ValueError for any other name."""
    if statistics not in STATISTICS_CLASS:
        raise ValueError(f"statistics must be 'bose' or 'fermi', got {statistics!r}")
    return STATISTICS_CLASS[statistics]


class InvarianceReport(NamedTuple):
    """Outcome of the exact rotation-invariance check, with the nonzero
    entries of G^T K0 + K0 G listed per failing axis."""

    ok: bool
    violations: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]

    @property
    def failing_axes(self) -> tuple[str, ...]:
        return tuple(axis for axis, _ in self.violations)


def check_su2_invariance(k0: ExactMatrix, gens) -> InvarianceReport:
    """Exact check of G^T K0 + K0 G = 0 for each rotation generator."""
    violations = []
    for axis, g in zip("xyz", gens):
        if g.shape != k0.shape:
            raise DimensionError(
                f"{axis} generator is {g.rows}x{g.cols} but the kinematic "
                f"matrix is {k0.rows}x{k0.cols}")
        residual = g.transpose() @ k0 + k0 @ g
        entries = tuple((r, c) for r, c, _ in residual.nonzeros())
        if entries:
            violations.append((axis, entries))
    return InvarianceReport(not violations, tuple(violations))


def momentum_map(k0: ExactMatrix, statistics: str) -> ExactMatrix:
    """Coefficient matrix of the canonical momenta: the part of K0 that
    survives the variation, antisymmetric for bose and symmetric for fermi."""
    bose = class_for_statistics(statistics) is SymmetryClass.ANTISYMMETRIC
    kt = k0.transpose()
    return (kt - k0 if bose else kt + k0).scale(Scalar(Fraction(1, 2)))


class ConstraintSplit(NamedTuple):
    """Partition of field components into canonical pairs and constraints."""

    statistics: str
    canonical_indices: tuple[int, ...]
    constraint_indices: tuple[int, ...]
    nonsingular_block: ExactMatrix | None
    momentum_map: ExactMatrix
    momentum_restricted: ExactMatrix | None


def constraint_split(k0: ExactMatrix, statistics: str) -> ConstraintSplit:
    """Split component indices by whether they carry canonical dynamics.

    The momentum map P (see momentum_map) annihilates pure-constraint
    directions; the canonical indices are a principal set on which P is
    invertible, the pivot indices of algebra.pivoted_elimination: the
    first active nonzero diagonal entry, else the first nonzero
    off-diagonal pair in row order.  The
    returned nonsingular_block is K0 itself restricted to those indices,
    which for a wave-operator matrix with three spatial-gradient
    constraints comes out as the familiar 2x2 core.
    """
    if not k0.is_square:
        raise ValueError("kinematic matrix must be square")
    p = momentum_map(k0, statistics)
    canonical = pivoted_elimination(p)[0]
    chosen = set(canonical)
    constraint = [i for i in range(k0.rows) if i not in chosen]

    if canonical:
        restricted = p.principal(canonical)
        block = k0.principal(canonical)
        # dual check by ExactMatrix.rank, a forward elimination that shares
        # no code with the pivoting: the principal block it chose is full
        # rank and as large as the rank of P
        self_check(restricted.rank() == len(canonical) == p.rank(),
                   "pivoted elimination missed a full-rank principal block "
                   "of the momentum map")
    else:
        restricted = None
        block = None
        self_check(p.is_zero(), "pivoted elimination found no pivot in a "
                                "nonzero momentum map")
    return ConstraintSplit(
        statistics=statistics,
        canonical_indices=tuple(canonical),
        constraint_indices=tuple(constraint),
        nonsingular_block=block,
        momentum_map=p,
        momentum_restricted=restricted,
    )
