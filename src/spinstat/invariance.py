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

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .algebra import (
    HALF,
    DimensionError,
    ExactMatrix,
    SymmetryClass,
    _make,
    pivoted_elimination,
    self_check,
    symmetry_class,
)
from .su2 import as_two_j, hermitian_basis

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


class InvarianceReport(namedtuple("InvarianceReport", "ok violations")):
    """Outcome of the exact rotation-invariance check, with the nonzero
    entries of G^T K0 + K0 G listed per failing axis: ``violations`` is a
    tuple of (axis name, tuple of (row, column)) pairs."""

    __slots__ = ()

    @property
    def failing_axes(self) -> tuple[str, ...]:
        return tuple(axis for axis, _ in self.violations)


def check_su2_invariance(k0: ExactMatrix, layout) -> InvarianceReport:
    """Exact check of G^T K0 + K0 G = 0 for each rotation generator G.

    ``layout`` lists the 2j of each (field, flavor, copy) block of K0 in
    index order (``TheorySpec.block_layout``).  Each G is block diagonal,
    with the hermitian-basis generator h of the block's spin on every
    block, so on the block pair (A, B) the residual is
    h_A^T K0[A, B] + K0[A, B] h_B.  It is computed only where K0[A, B]
    has nonzeros, once per distinct (2j_A, 2j_B, entries) in a call, and
    not at all between two spin-0 blocks, whose generators vanish.  Each
    failing axis lists its nonzero residual positions in row-major order.
    """
    blocks = [_spin_block(two_j) for two_j in layout]
    starts: list[int] = []
    where: list[tuple[int, int]] = []  # (block, local index) per component
    for b, (size, _) in enumerate(blocks):
        starts.append(len(where))
        where.extend((b, local) for local in range(size))
    if k0.shape != (len(where), len(where)):
        raise DimensionError(
            f"the block layout has {len(where)} components but the kinematic "
            f"matrix is {k0.rows}x{k0.cols}")

    # each entry as (row, column) in its block and the canonical ints
    # (a, b, d) of its value; entries arrive in row-major order, so equal
    # blocks hold equal lists
    coupled: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    for i, j, x in k0.nonzeros():
        a, r = where[i]
        b, c = where[j]
        if layout[a] or layout[b]:
            coupled.setdefault((a, b), []).append((r, c, x._a, x._b, x._d))

    memo: dict[tuple, tuple[tuple[tuple[int, int], ...], ...]] = {}
    found: tuple[list[tuple[int, int]], ...] = ([], [], [])
    for (a, b), entries in coupled.items():
        key = (layout[a], layout[b], tuple(entries))
        residual = memo.get(key)
        if residual is None:
            residual = memo[key] = _block_residual(blocks[a], blocks[b], entries)
        r0, c0 = starts[a], starts[b]
        for out, local in zip(found, residual):
            out.extend((r0 + r, c0 + c) for r, c in local)
    violations = tuple((axis, tuple(sorted(entries)))
                       for axis, entries in zip("xyz", found) if entries)
    return InvarianceReport(not violations, violations)


@lru_cache(maxsize=None)
def _spin_block(two_j: int):
    """(dimension, generators) of spin two_j/2.  Each hermitian-basis
    generator is i times a real matrix (su2 checks this), so it is held
    as (D, G): h = i*G/D with G integer, G as one {column: int} mapping
    per row."""
    gens = hermitian_basis(_make(two_j, 0, 2)).generators
    scaled = []
    for h in gens:
        d = lcm(*(x._d for _, _, x in h.nonzeros()))
        rows: list[dict[int, int]] = [{} for _ in range(h.rows)]
        for r, c, x in h.nonzeros():
            rows[r][c] = x._b * (d // x._d)
        scaled.append((d, rows))
    return gens[0].rows, tuple(scaled)


def _block_residual(row_block, col_block, entries):
    """Per axis, the nonzero positions of h_A^T K + K h_B for the block K
    given by its entries (row, column, a, b, d), the value (a + b*i)/d.

    With h = i*G/D and K = K'/L over the lcm L of K's denominators, the
    residual is i/(D_A*D_B*L) times D_B*G_A^T K' + D_A*K' G_B, which has
    the same nonzero positions and is summed on ints, the real and the
    imaginary part of K' apart (G is real)."""
    scale = lcm(*(d for _, _, _, _, d in entries))
    k = [(r, c, a * (scale // d), b * (scale // d)) for r, c, a, b, d in entries]
    out = []
    for (da, ga), (db, gb) in zip(row_block[1], col_block[1]):
        acc: dict[tuple[int, int], list[int]] = {}
        for r, c, re, im in k:
            for i, g in ga[r].items():  # (G_A^T K')[i, c] gains G_A[r, i] K'[r, c]
                s = acc.setdefault((i, c), [0, 0])
                s[0] += db * g * re
                s[1] += db * g * im
            for j, g in gb[c].items():  # (K' G_B)[r, j] gains K'[r, c] G_B[c, j]
                s = acc.setdefault((r, j), [0, 0])
                s[0] += da * g * re
                s[1] += da * g * im
        out.append(tuple(p for p, (re, im) in acc.items() if re or im))
    return tuple(out)


def momentum_map(k0: ExactMatrix, statistics: str) -> ExactMatrix:
    """Coefficient matrix of the canonical momenta: the part of K0 that
    survives the variation, (K0^T - K0)/2 for bose and (K0^T + K0)/2 for
    fermi.  It is read off K0's symmetry class, so the transpose is built
    only for a mixed K0: a K0 of the kept class gives -K0 (bose) or K0
    itself (fermi), and a zero K0 or one of the dropped class gives zero."""
    kept = class_for_statistics(statistics)
    actual = symmetry_class(k0)
    if actual is kept:
        return -k0 if kept is SymmetryClass.ANTISYMMETRIC else k0
    if actual is not SymmetryClass.MIXED:
        return ExactMatrix.zeros(k0.rows)
    kt = k0.transpose()
    return (kt - k0 if kept is SymmetryClass.ANTISYMMETRIC
            else kt + k0).scale(HALF)


class ConstraintSplit(namedtuple(
        "ConstraintSplit",
        "statistics canonical_indices constraint_indices nonsingular_block")):
    """Partition of field components into canonical pairs and constraints.

    ``statistics`` is "bose" or "fermi"; ``nonsingular_block`` is an
    ExactMatrix, None when no component is canonical.
    """

    __slots__ = ()


def constraint_split(k0: ExactMatrix, statistics: str) -> ConstraintSplit:
    """Split component indices by whether they carry canonical dynamics.

    The momentum map P (see momentum_map) annihilates pure-constraint
    directions; the canonical indices are a principal set on which P is
    invertible.  The rank r of P (ExactMatrix.rank) comes first; under
    bose P is antisymmetric, so r must be even.  When r is the size of P,
    every index is canonical.  Otherwise the canonical indices are the
    pivot indices of algebra.pivoted_elimination (the first active
    nonzero diagonal entry, else the first nonzero off-diagonal pair in
    row order), checked by ranks that share no code with the pivoting:
    there are r of them, and P restricted to them has rank r.  The
    returned nonsingular_block is K0 itself restricted to those indices,
    which for a wave-operator matrix with three spatial-gradient
    constraints comes out as the familiar 2x2 core.

    A K0 of the class the statistics keeps has P = -K0 (bose) or K0
    (fermi).  Negation is the congruence by -1, so -K0 has K0's rank,
    pivot set and principal blocks up to sign: such a K0 is ranked,
    pivoted and restricted itself, and its restricted block is the
    nonsingular_block.  P is built only for a K0 of another class.
    """
    if not k0.is_square:
        raise ValueError("kinematic matrix must be square")
    kept = symmetry_class(k0) is class_for_statistics(statistics)
    p = k0 if kept else momentum_map(k0, statistics)
    n = k0.rows
    r = p.rank()
    self_check(statistics == "fermi" or r % 2 == 0,
               "an antisymmetric momentum map has odd rank, i.e. a "
               "nonsingular principal block of odd size")
    if r == n:
        return ConstraintSplit(statistics, tuple(range(n)), (), k0)
    canonical = pivoted_elimination(p)[0]
    if not canonical:
        self_check(not r, "pivoted elimination found no pivot in a nonzero "
                          "momentum map")
        return ConstraintSplit(statistics, (), tuple(range(n)), None)
    block = k0.principal(canonical)
    restricted = block if kept else p.principal(canonical)
    self_check(len(canonical) == r and restricted.rank() == r,
               "pivoted elimination missed a full-rank principal block of "
               "the momentum map")
    return ConstraintSplit(
        statistics=statistics,
        canonical_indices=canonical,
        constraint_indices=tuple(sorted(set(range(n)).difference(canonical))),
        nonsingular_block=block,
    )
