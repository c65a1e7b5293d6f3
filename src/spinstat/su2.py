"""Exact spin-j rotation generators, invariant bilinears, hermitian bases.

The usual spherical-basis matrices for Jx and Jy carry square roots, which
would force floating point.  Rescaling the basis vector for weight m by the
running product of ladder normalizations turns every generator into a
Gaussian-rational matrix: the raising operator gets 1s on its off-diagonal
and the lowering operator gets the integers (j+m)(j-m+1).  All structure
constants survive exactly, so every claim downstream is checked with exact
arithmetic instead of tolerances.

Basis vectors are ordered by descending weight: row 0 is m = j, the last
row is m = -j.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import (HALF, I, ONE, ExactMatrix, Scalar, _blockdiag, _make, _ratio,
                      _read_literal, self_check)

__all__ = [
    "SpinGenerators",
    "HermitianBasis",
    "as_two_j",
    "spin_label",
    "michel_parity",
    "spin_generators",
    "invariant_bilinear",
    "hermitian_basis",
]


def as_two_j(j) -> int:
    """Normalize a spin given as int, '3/2' text, a real Scalar or a
    rational like Fraction to 2j; no float is read as a spin."""
    if isinstance(j, str):
        try:
            n, d = _read_literal(j)
        except ZeroDivisionError:
            raise ValueError(f"spin {j!r} has a zero denominator") from None
    elif isinstance(j, Scalar) and j.is_real:
        n, d = j._a, j._d
    else:
        try:
            n, d = _ratio(j)
        except TypeError:
            raise TypeError(f"cannot interpret {j!r} as a spin") from None
    if d not in (1, 2):
        raise ValueError(f"spin must be integer or half-integer, got {n}/{d}")
    two_j = 2 * n // d
    if two_j < 0:
        raise ValueError("spin must be nonnegative")
    return two_j


def spin_label(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def michel_parity(j) -> int:
    """(-1)^(2j): +1 for integral spin, -1 for half-integral."""
    return 1 if as_two_j(j) % 2 == 0 else -1


def _b_squared(two_j: int, two_m: int) -> int:
    """Ladder normalization squared, (j+m)(j-m+1), for weight m: both
    factors are integers, so 2j+2m and 2j-2m+2 are even."""
    return (two_j + two_m) * (two_j - two_m + 2) // 4


class SpinGenerators(namedtuple(
        "SpinGenerators", "two_j jx jy jz jplus jminus")):
    """Rotation generators for one irreducible spin, all Gaussian rational
    ExactMatrix."""

    __slots__ = ()

    @property
    def generators(self) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
        """The Cartesian generators (jx, jy, jz)."""
        return self.jx, self.jy, self.jz


def spin_generators(j) -> SpinGenerators:
    two_j = as_two_j(j)
    n = two_j + 1
    # weights by row: m = j - i  (two_m = two_j - 2i)
    two_ms = [two_j - 2 * i for i in range(n)]

    jz = ExactMatrix.diagonal([_make(tm, 0, 2) for tm in two_ms])
    # raising e_m -> e_{m+1} puts 1 at row i-1, column i, and lowering
    # e_m -> b_m^2 e_{m-1} puts b_m^2 at row i+1, column i; b_m^2 vanishes
    # only at m = -j, the last column, so no zero is stored
    jplus = ExactMatrix._from_rows(n, [{i + 1: ONE} for i in range(n - 1)] + [{}])
    jminus = ExactMatrix._from_rows(n, [{}] + [
        {i: Scalar(_b_squared(two_j, two_ms[i]))} for i in range(n - 1)])

    jx = (jplus + jminus).scale(HALF)
    jy = (jplus - jminus).scale(-HALF * I)  # 1/(2i)
    return SpinGenerators(two_j, jx, jy, jz, jplus, jminus)


def invariant_bilinear(j) -> ExactMatrix:
    """The rotation-invariant bilinear form C for one irreducible spin.

    In the rationalized ladder basis it is the alternating antidiagonal
    C[i, 2j-i] = (-1)^i; it satisfies J^T C + C J = 0 exactly for all three
    generators and C^T = (-1)^(2j) C, which is the whole parity story.
    """
    n = as_two_j(j) + 1
    return ExactMatrix._from_rows(n, [{n - 1 - i: Scalar((-1) ** i)} for i in range(n)])


# -- hermitian component basis ----------------------------------------------


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 * f with f squarefree; returns (s, f).  n must be positive."""
    s, f, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            f *= d
        d += 1
    return s, f * n


class HermitianBasis(namedtuple(
        "HermitianBasis", "two_j change_of_basis generators form doubled")):
    """Basis data in which field components can be taken hermitian.

    ``change_of_basis`` U maps new coordinates to old ones (columns are the
    new basis vectors), and every generator is G = U^-1 J' U.  For integral
    spin "old" is the rationalized ladder basis and J' = J.  For
    half-integral spin the space doubles: "old" is the pair (v, conj v),
    "new" is (Re v, Im v) rescaled, and J' = blockdiag(J, -conj J).

    ``generators`` are purely imaginary in both parity cases (i times a real
    matrix), which is what hermiticity of the components requires.
    ``form`` is the invariant symmetric bilinear in the new basis: a
    positive diagonal matrix with squarefree integer entries (the identity
    whenever the weights square-reduce away, e.g. spins 0, 1/2 and 1).

    ``change_of_basis`` and ``form`` are ExactMatrix and ``generators`` a
    tuple of three.
    """

    __slots__ = ()


def _integer_spin_basis(two_j: int) -> tuple[ExactMatrix, ExactMatrix, list[int]]:
    """U, U^-1 and the weights for integral spin (single copy).  The form
    W = ±U^T C U is diagonal with positive integer weights, so
    U^-1 = ±W^-1 U^T C."""
    j = two_j // 2
    n = two_j + 1
    c = invariant_bilinear(_make(two_j, 0, 2))

    # columns 2t and 2t+1, t = j - m, are e_m + s_m e_{-m} and
    # i(e_m - s_m e_{-m}) for m = j..1, with the real structure coefficients
    # s_m = (-1)^m prod_{k<=m} b_k^2, and the last column is e_0; e_m is row
    # j - m, so each row holds one or two entries
    rows = [{} for _ in range(n)]
    rows[j] = {n - 1: ONE}
    s = 1
    for m in range(1, j + 1):
        s *= -_b_squared(two_j, 2 * m)
        sm, t = Scalar(s), 2 * (j - m)
        rows[j - m] = {t: ONE, t + 1: I}
        rows[j + m] = {t: sm, t + 1: -I * sm}
    u = ExactMatrix._from_rows(n, rows)

    sign = Scalar((-1) ** j)
    form = (u.transpose() @ c @ u).scale(sign)
    weights = [form[i, i] for i in range(n)]
    self_check(form == ExactMatrix.diagonal(weights)
               and all(w.is_real and w._d == 1 for w in weights),
               "integral-spin form is not an integer diagonal")
    form_inv = ExactMatrix.diagonal([1 / w for w in weights])
    u_inv = (form_inv @ u.transpose() @ c).scale(sign)
    return u, u_inv, [w._a for w in weights]


def _half_integer_basis(two_j: int) -> tuple[ExactMatrix, ExactMatrix, list[int]]:
    """U, U^-1 and the weights for half-integral spin.

    Components of a hermitian field live on the real and imaginary parts of
    the complex representation space: U maps (Re v, Im v) to (v, conj v),
    U = [[1, i], [1, -i]] (x) 1 and U^-1 = 1/2 [[1, 1], [-i, i]] (x) 1.  In
    the rationalized ladder basis the invariant metric weights obey
    w_{m+1} = b_{m+1}^2 w_m with w_{-j} = 1; they repeat on both halves.
    """
    n = two_j + 1
    one = ExactMatrix.identity(n)
    u = ExactMatrix.kron(ExactMatrix([[1, I], [1, -I]]), one)
    u_inv = ExactMatrix.kron(ExactMatrix([[HALF, HALF], [-HALF * I, HALF * I]]), one)
    weights = [1] * n
    for i in range(n - 2, -1, -1):
        # step from row i+1 (weight m-1) up to row i (weight m = j - i)
        weights[i] = weights[i + 1] * _b_squared(two_j, two_j - 2 * i)
    return u, u_inv, weights + weights


def hermitian_basis(j) -> HermitianBasis:
    # everything returned is immutable, so the per-spin result is shared
    return _hermitian_basis_cached(as_two_j(j))


@lru_cache(maxsize=None)
def _hermitian_basis_cached(two_j: int) -> HermitianBasis:
    gens = spin_generators(_make(two_j, 0, 2)).generators
    doubled = two_j % 2 == 1
    if doubled:
        u, u_inv, weights = _half_integer_basis(two_j)
        gens = [_blockdiag([g, -g.conjugate()]) for g in gens]
    else:
        u, u_inv, weights = _integer_spin_basis(two_j)

    # square-reduce the weights by rescaling the basis vectors
    self_check(all(w > 0 for w in weights), "metric weight is not positive")
    roots, free = zip(*map(_squarefree_split, weights))
    u = u @ ExactMatrix.diagonal([_make(1, 0, r) for r in roots])
    u_inv = ExactMatrix.diagonal(roots) @ u_inv
    self_check(u_inv @ u == ExactMatrix.identity(u.rows),
               "change of basis and its closed-form inverse disagree")
    new_gens = tuple(u_inv @ g @ u for g in gens)
    self_check(all(g.is_imaginary() for g in new_gens),
               "hermitian basis generators are not imaginary")
    return HermitianBasis(two_j, u, new_gens, ExactMatrix.diagonal(free), doubled)
