from fractions import Fraction

import pytest

from oracles import charpoly, dense_inverse, invariant_form_space
from spinstat.algebra import ExactMatrix, Scalar, SymmetryClass, symmetry_decompose
from spinstat.invariance import required_symmetry
from spinstat.su2 import (
    as_two_j,
    hermitian_basis,
    invariant_bilinear,
    michel_parity,
    spin_generators,
    spin_label,
)

I = Scalar(0, 1)

ALL_TWO_J = list(range(0, 9))


def commutator(a, b):
    return a @ b - b @ a


def independent_inverse(m):
    """Gauss-Jordan inverse from the dense oracle, not from spinstat."""
    return ExactMatrix(dense_inverse([list(row) for row in m]))


def test_two_j_parsing():
    assert as_two_j(0) == 0
    assert as_two_j(Fraction(1, 2)) == 1
    assert as_two_j("3/2") == 3
    assert as_two_j(2) == 4
    with pytest.raises(ValueError):
        as_two_j(Fraction(1, 3))
    with pytest.raises(ValueError):
        as_two_j(-1)
    assert spin_label(3) == "3/2"
    assert spin_label(4) == "2"


@pytest.mark.parametrize("spin", [0.3, 0.74, 2.6])
def test_float_is_not_a_spin(spin):
    # no float is rounded to the nearest half-integer
    with pytest.raises(TypeError, match="cannot interpret .* as a spin"):
        as_two_j(spin)
    with pytest.raises(TypeError, match="cannot interpret .* as a spin"):
        required_symmetry(spin)


def test_michel_parity_values():
    assert [michel_parity(Fraction(t, 2)) for t in ALL_TWO_J] == [
        1, -1, 1, -1, 1, -1, 1, -1, 1
    ]


def test_spin_half_is_half_the_pauli_matrices():
    g = spin_generators(Fraction(1, 2))
    assert g.jx == ExactMatrix([["0", "1/2"], ["1/2", "0"]])
    assert g.jy == ExactMatrix([["0", "0-1/2i"], ["0+1/2i", "0"]])
    assert g.jz == ExactMatrix([["1/2", "0"], ["0", "-1/2"]])


def test_spin_one_ladder_normalization():
    g = spin_generators(1)
    assert g.jz == ExactMatrix.diagonal([1, 0, -1])
    assert g.jplus == ExactMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    # lowering picks up the integer normalizations (j+m)(j-m+1)
    assert g.jminus == ExactMatrix([[0, 0, 0], [2, 0, 0], [0, 2, 0]])


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_commutation_relations_exact(two_j):
    g = spin_generators(Fraction(two_j, 2))
    assert commutator(g.jx, g.jy) == g.jz.scale(I)
    assert commutator(g.jy, g.jz) == g.jx.scale(I)
    assert commutator(g.jz, g.jx) == g.jy.scale(I)
    assert commutator(g.jplus, g.jminus) == g.jz.scale(2)


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_casimir_is_scalar(two_j):
    g = spin_generators(Fraction(two_j, 2))
    casimir = g.jx @ g.jx + g.jy @ g.jy + g.jz @ g.jz
    j = Fraction(two_j, 2)
    assert casimir == ExactMatrix.identity(two_j + 1).scale(Scalar(j * (j + 1)))


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_jx_spectrum_matches_jz(two_j):
    # the rationalized basis is a similarity transform, so the exact
    # characteristic polynomials of Jx and Jz agree
    g = spin_generators(Fraction(two_j, 2))
    assert charpoly(g.jx) == charpoly(g.jz)


# -- invariant bilinear ------------------------------------------------------


def test_bilinear_pinned_matrices():
    assert invariant_bilinear(0) == ExactMatrix([[1]])
    assert invariant_bilinear(Fraction(1, 2)) == ExactMatrix([[0, 1], [-1, 0]])
    assert invariant_bilinear(1) == ExactMatrix(
        [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    )


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_generators_and_bilinear_match_their_dense_definitions(two_j):
    # every entry written out, zeros included: row i has weight m_i = j - i,
    # J+ e_m = e_{m+1}, J- e_m = (j+m)(j-m+1) e_{m-1}, Jx = (J+ + J-)/2,
    # Jy = (J+ - J-)/(2i), and C is the alternating antidiagonal
    j = Fraction(two_j, 2)
    n = two_j + 1
    weight = [j - i for i in range(n)]
    plus = [[1 if c == r + 1 else 0 for c in range(n)] for r in range(n)]
    minus = [[(j + weight[c]) * (j - weight[c] + 1) if r == c + 1 else 0
              for c in range(n)] for r in range(n)]
    half, minus_half_i = Scalar(Fraction(1, 2)), Scalar(0, Fraction(-1, 2))
    dense = {
        "jplus": plus,
        "jminus": minus,
        "jx": [[half * (p + q) for p, q in zip(*rows)] for rows in zip(plus, minus)],
        "jy": [[minus_half_i * (p - q) for p, q in zip(*rows)]
               for rows in zip(plus, minus)],
        "jz": [[weight[r] if r == c else 0 for c in range(n)] for r in range(n)],
    }
    g = spin_generators(j)
    form = invariant_bilinear(j)
    assert form == ExactMatrix([[(-1) ** r if c == n - 1 - r else 0 for c in range(n)]
                                for r in range(n)])
    for name, rows in dense.items():
        assert getattr(g, name) == ExactMatrix(rows), name
    for m in (form, *(getattr(g, name) for name in dense)):
        assert all(x for _, _, x in m.nonzeros())  # no zero stored


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_bilinear_invariance_exact(two_j):
    j = Fraction(two_j, 2)
    g = spin_generators(j)
    c = invariant_bilinear(j)
    zero = ExactMatrix.zeros(two_j + 1)
    for gen in (g.jx, g.jy, g.jz, g.jplus, g.jminus):
        assert gen.transpose() @ c + c @ gen == zero


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_bilinear_parity_theorem(two_j):
    c = invariant_bilinear(Fraction(two_j, 2))
    _, _, cls = symmetry_decompose(c)
    if two_j % 2 == 0:
        assert cls is SymmetryClass.SYMMETRIC
    else:
        assert cls is SymmetryClass.ANTISYMMETRIC


@pytest.mark.parametrize("two_j", [0, 1, 2, 3])
def test_bilinear_unique_by_generic_solver(two_j):
    # independent route: solve the invariance equations from scratch and
    # check the only solution is the closed-form C, with the right parity
    j = Fraction(two_j, 2)
    g = spin_generators(j)
    space = invariant_form_space([g.jx, g.jy, g.jz])
    assert space.sym_dim + space.antisym_dim == 1
    basis = (space.sym_basis + space.antisym_basis)[0]
    c = invariant_bilinear(j)
    # proportional: basis is rref-normalized, so compare against scaled c
    lead = next(x for row in basis for x in row if not x.is_zero)
    lead_c = next(x for row in c for x in row if not x.is_zero)
    assert basis == c.scale(lead / lead_c)


# -- hermitian bases ---------------------------------------------------------


def test_hermitian_basis_trivial_spin():
    h = hermitian_basis(0)
    assert h.change_of_basis == ExactMatrix([[1]])
    assert h.form == ExactMatrix([[1]])
    assert not h.doubled


def test_hermitian_basis_spin_one_form_is_identity():
    h = hermitian_basis(1)
    assert h.form == ExactMatrix.identity(3)


def test_hermitian_basis_spin_two_weights():
    h = hermitian_basis(2)
    assert h.form == ExactMatrix.diagonal([3, 3, 3, 3, 1])


def test_hermitian_basis_spin_half_form_is_identity():
    h = hermitian_basis(Fraction(1, 2))
    assert h.doubled
    assert h.form == ExactMatrix.identity(4)


def test_hermitian_basis_spin_three_half_weights():
    h = hermitian_basis(Fraction(3, 2))
    assert h.form == ExactMatrix.diagonal([1, 3, 3, 1, 1, 3, 3, 1])


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_hermitian_basis_generators_purely_imaginary(two_j):
    h = hermitian_basis(Fraction(two_j, 2))
    for g in h.generators:
        assert g.is_imaginary()


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_hermitian_basis_form_invariance(two_j):
    h = hermitian_basis(Fraction(two_j, 2))
    zero = ExactMatrix.zeros(h.form.rows)
    for g in h.generators:
        assert g.transpose() @ h.form + h.form @ g == zero
    # form stays a positive squarefree-integer diagonal
    for i in range(h.form.rows):
        w = h.form[i, i]
        assert w.is_real and w.re > 0 and w.re.denominator == 1
    _, _, cls = symmetry_decompose(h.form)
    assert cls is SymmetryClass.SYMMETRIC


@pytest.mark.parametrize("two_j", ALL_TWO_J)
def test_hermitian_basis_commutation_relations(two_j):
    gx, gy, gz = hermitian_basis(Fraction(two_j, 2)).generators
    assert commutator(gx, gy) == gz.scale(I)
    assert commutator(gy, gz) == gx.scale(I)


@pytest.mark.parametrize("two_j", [0, 2, 4, 6, 8])
def test_integer_change_of_basis_conjugates_generators(two_j):
    j = Fraction(two_j, 2)
    h = hermitian_basis(j)
    g = spin_generators(j)
    u_inv = independent_inverse(h.change_of_basis)
    for old, new in zip((g.jx, g.jy, g.jz), h.generators):
        assert u_inv @ old @ h.change_of_basis == new


@pytest.mark.parametrize("two_j", [1, 3, 5, 7])
def test_half_integer_change_of_basis_conjugates_generators(two_j):
    # "old" coordinates are the pair (v, conj v) with generator
    # blockdiag(J, -conj J); U maps the hermitian components onto that pair
    j = Fraction(two_j, 2)
    h = hermitian_basis(j)
    g = spin_generators(j)
    u_inv = independent_inverse(h.change_of_basis)
    upper, lower = ExactMatrix.diagonal([1, 0]), ExactMatrix.diagonal([0, 1])
    for old, new in zip((g.jx, g.jy, g.jz), h.generators):
        doubled = (ExactMatrix.kron(upper, old)
                   + ExactMatrix.kron(lower, -old.conjugate()))
        assert u_inv @ doubled @ h.change_of_basis == new


# 2j -> the nonzeros (row, column, text) of change_of_basis and of the three
# generators, in row-major order: the bases every invariance check and
# every auto-built K0 reads, pinned entry by entry
PINNED_BASES = {
    1: (
        [(0, 0, "1"), (0, 2, "0+1i"), (1, 1, "1"), (1, 3, "0+1i"), (2, 0, "1"),
         (2, 2, "0-1i"), (3, 1, "1"), (3, 3, "0-1i")],
        [(0, 3, "0+1/2i"), (1, 2, "0+1/2i"), (2, 1, "0-1/2i"),
         (3, 0, "0-1/2i")],
        [(0, 1, "0-1/2i"), (1, 0, "0+1/2i"), (2, 3, "0-1/2i"),
         (3, 2, "0+1/2i")],
        [(0, 2, "0+1/2i"), (1, 3, "0-1/2i"), (2, 0, "0-1/2i"),
         (3, 1, "0+1/2i")],
    ),
    2: (
        [(0, 0, "1/2"), (0, 1, "0+1/2i"), (1, 2, "1"), (2, 0, "-1"),
         (2, 1, "0+1i")],
        [(1, 2, "0-1i"), (2, 1, "0+1i")],
        [(0, 2, "0-1i"), (2, 0, "0+1i")],
        [(0, 1, "0+1i"), (1, 0, "0-1i")],
    ),
    3: (
        [(0, 0, "1/6"), (0, 4, "0+1/6i"), (1, 1, "1/2"), (1, 5, "0+1/2i"),
         (2, 2, "1"), (2, 6, "0+1i"), (3, 3, "1"), (3, 7, "0+1i"),
         (4, 0, "1/6"), (4, 4, "0-1/6i"), (5, 1, "1/2"), (5, 5, "0-1/2i"),
         (6, 2, "1"), (6, 6, "0-1i"), (7, 3, "1"), (7, 7, "0-1i")],
        [(0, 5, "0+3/2i"), (1, 4, "0+1/2i"), (1, 6, "0+1i"), (2, 5, "0+1i"),
         (2, 7, "0+1/2i"), (3, 6, "0+3/2i"), (4, 1, "0-3/2i"),
         (5, 0, "0-1/2i"), (5, 2, "0-1i"), (6, 1, "0-1i"), (6, 3, "0-1/2i"),
         (7, 2, "0-3/2i")],
        [(0, 1, "0-3/2i"), (1, 0, "0+1/2i"), (1, 2, "0-1i"), (2, 1, "0+1i"),
         (2, 3, "0-1/2i"), (3, 2, "0+3/2i"), (4, 5, "0-3/2i"),
         (5, 4, "0+1/2i"), (5, 6, "0-1i"), (6, 5, "0+1i"), (6, 7, "0-1/2i"),
         (7, 6, "0+3/2i")],
        [(0, 4, "0+3/2i"), (1, 5, "0+1/2i"), (2, 6, "0-1/2i"),
         (3, 7, "0-3/2i"), (4, 0, "0-3/2i"), (5, 1, "0-1/2i"),
         (6, 2, "0+1/2i"), (7, 3, "0+3/2i")],
    ),
}


@pytest.mark.parametrize("two_j", sorted(PINNED_BASES))
def test_hermitian_basis_pinned_entries(two_j):
    h = hermitian_basis(Fraction(two_j, 2))
    n = 2 * (two_j + 1) if two_j % 2 else two_j + 1
    for m, want in zip((h.change_of_basis, *h.generators), PINNED_BASES[two_j]):
        assert m.shape == (n, n)
        assert [(r, c, str(x)) for r, c, x in m.nonzeros()] == want


# -- invariant form spaces ---------------------------------------------------


def test_form_space_two_scalar_copies():
    # two copies of a trivial representation: every 2x2 matrix is invariant
    zero = ExactMatrix.zeros(2)
    space = invariant_form_space([zero, zero, zero])
    assert (space.sym_dim, space.antisym_dim) == (3, 1)


def test_form_space_single_integer_spin_has_no_antisymmetric_form():
    g = spin_generators(1)
    space = invariant_form_space([g.jx, g.jy, g.jz])
    assert (space.sym_dim, space.antisym_dim) == (1, 0)


def test_form_space_realified_spin_half():
    h = hermitian_basis(Fraction(1, 2))
    space = invariant_form_space(h.generators)
    assert (space.sym_dim, space.antisym_dim) == (1, 3)
    # the symmetric one is the positive metric itself
    assert space.sym_basis[0] == h.form.scale(h.form[0, 0] / space.sym_basis[0][0, 0]) or \
        space.sym_basis[0] == h.form
    for b in space.antisym_basis:
        assert b.is_antisymmetric()
        for g in h.generators:
            assert (g.transpose() @ b + b @ g).is_zero()


def test_form_space_realified_spin_half_contains_bilinear_blocks():
    # closed-form antisymmetric invariants on the doubled space
    h = hermitian_basis(Fraction(1, 2))
    c = invariant_bilinear(Fraction(1, 2))
    w = ExactMatrix.identity(2)
    # [[0, c], [c, 0]], [[c, 0], [0, -c]] and [[0, w], [-w, 0]]
    candidates = [
        ExactMatrix.kron(ExactMatrix([[0, 1], [1, 0]]), c),
        ExactMatrix.kron(ExactMatrix.diagonal([1, -1]), c),
        ExactMatrix.kron(ExactMatrix([[0, 1], [-1, 0]]), w),
    ]
    for b in candidates:
        assert b.is_antisymmetric()
        for g in h.generators:
            assert (g.transpose() @ b + b @ g).is_zero()
    # and they are independent, so they span the whole antisymmetric space
    flat = ExactMatrix([[m[i, k] for i in range(4) for k in range(4)]
                        for m in candidates])
    assert flat.rank() == 3
