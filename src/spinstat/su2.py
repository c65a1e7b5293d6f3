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
from fractions import Fraction
from functools import lru_cache

from .algebra import ExactMatrix, Scalar, _check_literal_size, self_check

__all__ = [
    "SpinGenerators",
    "HermitianBasis",
    "as_two_j",
    "spin_label",
    "michel_parity",
    "spin_generators",
    "invariant_bilinear",
    "hermitian_basis",
    "realify",
]


def as_two_j(j) -> int:
    """Normalize a spin given as int, Fraction or '3/2' text to 2j; no
    float is read as a spin."""
    if isinstance(j, str):
        _check_literal_size(j)
        try:
            j = Fraction(j)
        except ZeroDivisionError:
            raise ValueError(f"spin {j!r} has a zero denominator") from None
    if isinstance(j, int):
        two_j = 2 * j
    elif isinstance(j, Fraction):
        if j.denominator not in (1, 2):
            raise ValueError(f"spin must be integer or half-integer, got {j}")
        two_j = int(j * 2)
    else:
        raise TypeError(f"cannot interpret {j!r} as a spin")
    if two_j < 0:
        raise ValueError("spin must be nonnegative")
    return two_j


def spin_label(two_j: int) -> str:
    return str(two_j // 2) if two_j % 2 == 0 else f"{two_j}/2"


def michel_parity(j) -> int:
    """(-1)^(2j): +1 for integral spin, -1 for half-integral."""
    return 1 if as_two_j(j) % 2 == 0 else -1


def _b_squared(two_j: int, two_m: int) -> Fraction:
    """Ladder normalization squared, (j+m)(j-m+1), for weight m."""
    return Fraction((two_j + two_m) * (two_j - two_m + 2), 4)


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

    jz = ExactMatrix.diagonal([Scalar(Fraction(tm, 2)) for tm in two_ms])

    plus_rows = [[Scalar(0)] * n for _ in range(n)]
    minus_rows = [[Scalar(0)] * n for _ in range(n)]
    for i, tm in enumerate(two_ms):
        if i > 0:
            # raising e_m -> e_{m+1}: row i-1, column i, entry 1
            plus_rows[i - 1][i] = Scalar(1)
        if i < n - 1:
            # lowering e_m -> b_m^2 e_{m-1}: row i+1, column i
            minus_rows[i + 1][i] = Scalar(_b_squared(two_j, tm))
    jplus = ExactMatrix(plus_rows)
    jminus = ExactMatrix(minus_rows)

    half = Scalar(Fraction(1, 2))
    half_over_i = Scalar(0, Fraction(-1, 2))  # 1/(2i)
    jx = (jplus + jminus).scale(half)
    jy = (jplus - jminus).scale(half_over_i)
    return SpinGenerators(two_j, jx, jy, jz, jplus, jminus)


def invariant_bilinear(j) -> ExactMatrix:
    """The rotation-invariant bilinear form C for one irreducible spin.

    In the rationalized ladder basis it is the alternating antidiagonal
    C[i, 2j-i] = (-1)^i; it satisfies J^T C + C J = 0 exactly for all three
    generators and C^T = (-1)^(2j) C, which is the whole parity story.
    """
    two_j = as_two_j(j)
    n = two_j + 1
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1 - i] = Scalar((-1) ** i)
    return ExactMatrix(rows)


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

    ``generators`` are the three rotation generators in the new basis and
    are purely imaginary in both parity cases (i times a real matrix), which
    is what hermiticity of the components requires.  ``form`` is the
    invariant symmetric bilinear in the new basis: a positive diagonal
    matrix with squarefree integer entries (the identity whenever the
    weights square-reduce away, e.g. spins 0, 1/2 and 1).

    ``change_of_basis`` U maps new coordinates to old ones (columns are the
    new basis vectors).  For integral spin "old" is the rationalized ladder
    basis and G = U^-1 J U.  For half-integral spin the space doubles and
    "old" means the pair (v, conj v), whose generator is the block diagonal
    of J and -conj(J); the same relation G = U^-1 blockdiag(J, -conj J) U
    holds and is what the tests pin down.

    ``change_of_basis`` and ``form`` are ExactMatrix and ``generators`` a
    tuple of three.
    """

    __slots__ = ()


def realify(m: ExactMatrix) -> ExactMatrix:
    """Real 2n x 2n matrix [[P, -Q], [Q, P]] acting on (Re v, Im v), for
    m = P + iQ, written entry by entry from the stored entries of m."""
    n, w = m.rows, m.cols
    entries: list[dict[int, Scalar]] = [{} for _ in range(2 * n)]
    for i, j, x in m.nonzeros():
        if x.re:
            entries[i][j] = entries[n + i][w + j] = Scalar(x.re)
        if x.im:
            q = Scalar(x.im)
            entries[i][w + j] = -q
            entries[n + i][j] = q
    return ExactMatrix._from_rows(2 * w, entries)


def _integer_spin_basis(two_j: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Change of basis U, its inverse and the form for integral spin (single
    copy).  The form is the diagonal ±U^T C U, so U^-1 = ±form^-1 U^T C."""
    j = two_j // 2
    n = two_j + 1
    c = invariant_bilinear(Fraction(two_j, 2))

    # real structure coefficients s_m = (-1)^m prod_{k<=m} b_k^2
    s = {0: Fraction(1)}
    for m in range(1, j + 1):
        s[m] = -_b_squared(two_j, 2 * m) * s[m - 1]

    def e(two_m):
        vec = [Scalar(0)] * n
        vec[(two_j - two_m) // 2] = Scalar(1)
        return vec

    columns = []
    for m in range(j, 0, -1):
        sm = Scalar(s[m])
        plus = [a + sm * b for a, b in zip(e(2 * m), e(-2 * m))]
        minus = [Scalar(0, 1) * (a - sm * b) for a, b in zip(e(2 * m), e(-2 * m))]
        columns.append(plus)
        columns.append(minus)
    columns.append(e(0))
    u = ExactMatrix(columns).transpose()

    sign = Scalar((-1) ** j)
    form = (u.transpose() @ c @ u).scale(sign)

    # square-reduce the diagonal weights by rescaling basis vectors
    rescale = []
    for i in range(n):
        w = form[i, i]
        self_check(w.is_real and w.re > 0 and w.re.denominator == 1,
                   "integral-spin form weight is not a positive integer")
        root, _ = _squarefree_split(int(w.re))
        rescale.append(Scalar(Fraction(1, root)))
    u = u @ ExactMatrix.diagonal(rescale)
    form = (u.transpose() @ c @ u).scale(sign)
    weights = [form[i, i] for i in range(n)]
    self_check(form == ExactMatrix.diagonal(weights),
               "integral-spin form is not diagonal")
    form_inv = ExactMatrix.diagonal([1 / w for w in weights])
    u_inv = (form_inv @ u.transpose() @ c).scale(sign)
    self_check(u_inv @ u == ExactMatrix.identity(n),
               "integral-spin change of basis has no inverse read off the form")
    return u, u_inv, form


def _half_integer_basis(two_j: int) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Doubling data for half-integral spin: (U, rescale S, form).

    Components of a hermitian field live on the real and imaginary parts of
    the complex representation space.  In the rationalized ladder basis the
    invariant metric weights obey w_{m+1} = b_{m+1}^2 w_m with w_{-j} = 1;
    they repeat on both halves of the doubled space and get square-reduced
    by the diagonal rescale S.  U maps the final coordinates back to the
    (v, conj v) pair.
    """
    n = two_j + 1
    # (v, conj v) from (Re v, Im v): v = x + iy, conj v = x - iy
    t_inv = ExactMatrix.kron(ExactMatrix([[1, "0+1i"], [1, "0-1i"]]),
                             ExactMatrix.identity(n))

    weights = [Fraction(1)] * n
    for i in range(n - 2, -1, -1):
        # step from row i+1 (weight m-1) up to row i (weight m = j - i)
        weights[i] = weights[i + 1] * _b_squared(two_j, two_j - 2 * i)
    w_entries = weights + weights

    rescale, reduced = [], []
    for w in w_entries:
        self_check(w.denominator == 1 and w > 0,
                   "half-integral metric weight is not a positive integer")
        root, free = _squarefree_split(int(w))
        rescale.append(Fraction(1, root))
        reduced.append(Fraction(free))
    s = ExactMatrix.diagonal([Scalar(x) for x in rescale])
    form = ExactMatrix.diagonal([Scalar(x) for x in reduced])
    u = t_inv @ s
    return u, s, form


def hermitian_basis(j) -> HermitianBasis:
    # everything returned is immutable, so the per-spin result is shared
    return _hermitian_basis_cached(as_two_j(j))


@lru_cache(maxsize=None)
def _hermitian_basis_cached(two_j: int) -> HermitianBasis:
    gens = spin_generators(Fraction(two_j, 2)).generators
    if two_j % 2 == 0:
        u, u_inv, form = _integer_spin_basis(two_j)
        new_gens = tuple(u_inv @ g @ u for g in gens)
        self_check(all(g.is_imaginary() for g in new_gens),
                   "integral-spin hermitian basis failed")
        return HermitianBasis(two_j, u, new_gens, form, doubled=False)

    u, s, form = _half_integer_basis(two_j)
    s_inv = ExactMatrix.diagonal([1 / s[i, i] for i in range(s.rows)])
    one_i = Scalar(0, 1)
    new_gens = []
    for g in gens:
        # group action on the realified components is realify(-iJ); keep the
        # generator in the i*(real) convention so both parities look alike
        action = realify(g.scale(-one_i))
        new_gens.append((s_inv @ action @ s).scale(one_i))
    new_gens = tuple(new_gens)
    self_check(all(g.is_imaginary() for g in new_gens),
               "half-integral realification failed")
    return HermitianBasis(two_j, u, new_gens, form, doubled=True)
