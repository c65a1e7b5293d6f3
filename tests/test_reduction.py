"""Higher-derivative reduction and the 5x5 wave-operator matrices.

The reduction tests lean on two independent eliminations of the auxiliary
fields: a Leibniz determinant of the symbol matrix M - 2sK, which must be
a constant multiple of F, and the chain-vector residual, which plugs
xi_m = s^{m-1} into every row and must leave exactly F in the first slot.
The beta-matrix tests recompute the trilinear algebra with plain Fraction
arithmetic so the ExactMatrix route is cross-checked.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import dkp_algebra_by_family
from spinstat.algebra import ExactMatrix, Scalar
from spinstat.invariance import constraint_split
from spinstat.reduction import (
    BetaSet,
    DerivativePolynomial,
    dkp_minimal_polynomial_check,
    duffin_kemmer_construct,
    eliminate_auxiliaries,
    ostrogradsky_reduce,
    verify_dkp_algebra,
)

S0 = Scalar(0)
S1 = Scalar(1)
I = Scalar(0, 1)


# -- tiny polynomial helpers (ascending Scalar coefficients) ----------------


def trim(p):
    p = list(p)
    while p and p[-1].is_zero:
        p.pop()
    return p


def padd(a, b):
    out = list(a) + [S0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return trim(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [S0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return trim(out)


def shift(p, power):
    return [S0] * power + list(p) if p else []


def symbol_entry(m, k0, r, c):
    """Entry (r, c) of M - 2sK as a polynomial in s."""
    return trim([m[r, c], Scalar(-2) * k0[r, c]])


def perm_sign(perm):
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return S1 if inversions % 2 == 0 else -S1


def determinant_poly(result):
    """Leibniz determinant of M - 2sK, fully independent of the package's
    elimination code."""
    m = result.potential
    k0 = result.first_order_K0.matrix
    n = m.rows
    total = []
    for perm in itertools.permutations(range(n)):
        term = [perm_sign(perm)]
        for r, c in enumerate(perm):
            term = pmul(term, symbol_entry(m, k0, r, c))
            if not term:
                break
        total = padd(total, term)
    return total


def chain_residuals(result):
    """Rows of (M - 2sK) applied to the chain vector (1, s, ..., s^{n-1})."""
    m = result.potential
    k0 = result.first_order_K0.matrix
    n = m.rows
    rows = []
    for r in range(n):
        acc = []
        for c in range(n):
            acc = padd(acc, shift(symbol_entry(m, k0, r, c), c))
        rows.append(acc)
    return rows


def assert_reduction_faithful(f):
    result = ostrogradsky_reduce(f)
    n = f.degree
    assert len(result.auxiliary_fields) == n
    assert result.first_order_K0.matrix.is_antisymmetric()
    assert result.potential.is_symmetric()
    assert result.first_order_K0.matrix == result.momentum_combinations.transpose()

    assert eliminate_auxiliaries(result) == f

    residuals = chain_residuals(result)
    assert residuals[0] == trim(list(f.coefficients))
    for row in residuals[1:]:
        assert row == []

    det = determinant_poly(result)
    assert len(det) == n + 1
    gamma = det[-1] / f.coefficient(n)
    assert not gamma.is_zero
    assert det == trim([gamma * f.coefficient(j) for j in range(n + 1)])
    return result


# -- DerivativePolynomial --------------------------------------------------


def test_polynomial_trims_trailing_zeros():
    f = DerivativePolynomial((1, 0, 1, 0, 0))
    assert f.degree == 2
    assert f.coefficients == (S1, S0, S1)


def test_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        DerivativePolynomial((0, 0))


def test_polynomial_replace_coerces_and_trims():
    f = DerivativePolynomial((1, 0, 1))._replace(coefficients=("1/2", 0, 0))
    assert type(f) is DerivativePolynomial
    assert f.coefficients == (Scalar(Fraction(1, 2)),)
    with pytest.raises(ValueError):
        f._replace(coefficients=(0,))


def test_polynomial_coefficients_out_of_range_are_zero():
    f = DerivativePolynomial((1, 0, 1))
    assert f.coefficient(7) == S0
    assert f.coefficient(-1) == S0


def test_polynomial_evenness():
    assert DerivativePolynomial((1, 0, 1)).is_even_function
    assert not DerivativePolynomial((1, 1)).is_even_function
    assert DerivativePolynomial(("1/2",)).is_even_function


def test_polynomial_coerces_mixed_inputs():
    f = DerivativePolynomial(("1/2", 0, Fraction(3), Scalar(0), 1))
    assert f.coefficient(0) == Scalar(Fraction(1, 2))
    assert f.coefficient(4) == S1


# -- Ostrogradsky reduction ------------------------------------------------


def test_wave_operator_reduction_by_hand():
    f = DerivativePolynomial((1, 0, 1))
    result = assert_reduction_faithful(f)
    assert result.auxiliary_fields == ("phi", "dphi/dt")
    half = Scalar(Fraction(1, 2))
    assert result.first_order_K0.matrix == ExactMatrix([[0, -half], [half, 0]])
    assert result.momentum_combinations == ExactMatrix([[0, half], [-half, 0]])
    assert result.potential == ExactMatrix.identity(2)
    assert result.first_order_K0.index_map == ("phi", "dphi/dt")


def test_wave_operator_mass_term_lands_in_potential():
    result = ostrogradsky_reduce(DerivativePolynomial(("9/4", 0, 1)))
    assert result.potential == ExactMatrix.diagonal(["9/4", "1"])


def test_quartic_reduction_by_hand():
    f = DerivativePolynomial((-1, 0, 0, 0, 1))
    result = assert_reduction_faithful(f)
    assert result.auxiliary_fields == ("phi", "dphi/dt", "d2phi/dt2", "d3phi/dt3")
    half = Scalar(Fraction(1, 2))
    p = ExactMatrix([
        [0, 0, 0, half],
        [0, 0, -half, 0],
        [0, half, 0, 0],
        [-half, 0, 0, 0],
    ])
    assert result.momentum_combinations == p
    assert result.first_order_K0.matrix == p.transpose()
    assert result.potential == ExactMatrix([
        [-1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
    ])


def test_sextic_round_trip():
    assert_reduction_faithful(DerivativePolynomial((5, 0, -2, 0, 3, 0, 1)))


def test_massless_round_trip():
    assert_reduction_faithful(DerivativePolynomial((0, 0, 1)))
    assert_reduction_faithful(DerivativePolynomial((0, 0, 0, 0, "2/3")))


def test_all_even_degrees_up_to_six():
    for degree in (2, 4, 6):
        coeffs = [Fraction(0)] * (degree + 1)
        coeffs[degree] = Fraction(1)
        coeffs[0] = Fraction(-3, 2)
        if degree >= 4:
            coeffs[2] = Fraction(7)
        assert_reduction_faithful(DerivativePolynomial(tuple(coeffs)))


def test_complex_even_coefficients_reduce():
    f = DerivativePolynomial((Scalar(3), S0, I))
    result = assert_reduction_faithful(f)
    assert not result.first_order_K0.matrix.is_real()


def test_odd_degree_rejected():
    with pytest.raises(ValueError, match="reversible"):
        ostrogradsky_reduce(DerivativePolynomial((0, 0, 0, 1)))


def test_odd_term_rejected():
    with pytest.raises(ValueError, match="reversible"):
        ostrogradsky_reduce(DerivativePolynomial((1, 1, 1)))


def test_constant_rejected():
    with pytest.raises(ValueError, match="second time derivative"):
        ostrogradsky_reduce(DerivativePolynomial((4,)))


def test_reduce_accepts_raw_coefficients():
    result = ostrogradsky_reduce(DerivativePolynomial((1, 0, 1)))
    again = ostrogradsky_reduce([1, 0, 1])
    assert again.first_order_K0.matrix == result.first_order_K0.matrix


@st.composite
def even_polynomials(draw):
    degree = draw(st.sampled_from([2, 4, 6]))
    coeffs = [Scalar(0)] * (degree + 1)
    for j in range(0, degree, 2):
        coeffs[j] = Scalar(Fraction(draw(st.integers(-5, 5)),
                                    draw(st.integers(1, 4))))
    lead = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 4)))
    coeffs[degree] = Scalar(draw(st.sampled_from([lead, -lead])))
    return DerivativePolynomial(tuple(coeffs))


@given(even_polynomials())
def test_reduction_round_trips_random_even_polynomials(f):
    assert_reduction_faithful(f)


def test_first_order_system_is_genuinely_first_order():
    # every appearance of the symbol s in M - 2sK is degree one: the
    # reduced equations of motion contain no higher time derivatives
    result = ostrogradsky_reduce(DerivativePolynomial((5, 0, -2, 0, 3, 0, 1)))
    for r in range(result.potential.rows):
        for c in range(result.potential.cols):
            assert len(symbol_entry(result.potential,
                                    result.first_order_K0.matrix, r, c)) <= 2


# -- beta matrices ---------------------------------------------------------


def expected_betas():
    z = [[0] * 5 for _ in range(5)]

    def mat(entries):
        rows = [row[:] for row in z]
        for (r, c), v in entries.items():
            rows[r][c] = v
        return ExactMatrix(rows)

    return (
        mat({(0, 1): I, (1, 0): -I}),
        mat({(0, 2): -I, (2, 0): -I}),
        mat({(0, 3): -I, (3, 0): -I}),
        mat({(0, 4): -I, (4, 0): -I}),
    )


def test_beta_matrices_entrywise():
    bs = duffin_kemmer_construct(1)
    assert bs.betas == expected_betas()
    assert bs.beta0 == bs.betas[0]


def test_beta0_is_antisymmetric_and_all_are_i_times_real():
    bs = duffin_kemmer_construct(1)
    assert bs.beta0.is_antisymmetric()
    for b in bs.betas:
        assert b.scale(-I).is_real()


def test_component_layout():
    bs = duffin_kemmer_construct(1)
    assert bs.psi_components == ("phi", "dphi/dt", "dphi/dx", "dphi/dy", "dphi/dz")
    assert bs.psibar_components == ("phi", "dphi/dt", "-dphi/dx", "-dphi/dy", "-dphi/dz")


def test_mass_is_validated():
    assert duffin_kemmer_construct("2/3").mass == Fraction(2, 3)
    assert duffin_kemmer_construct(Fraction(1, 2)).mass == Fraction(1, 2)
    with pytest.raises(ValueError, match="positive"):
        duffin_kemmer_construct(0)
    with pytest.raises(ValueError, match="positive"):
        duffin_kemmer_construct(-1)


def test_metric_signature():
    bs = duffin_kemmer_construct(1)
    assert bs.metric == ExactMatrix.diagonal([1, -1, -1, -1])


def test_metric_is_unique_among_diagonal_signatures():
    # independent scan: try every diagonal +-1 metric against the standard
    # relation on all 64 triples; only one survives
    bs = duffin_kemmer_construct(1)
    survivors = []
    for signs in itertools.product((1, -1), repeat=4):
        g = ExactMatrix.diagonal(signs)
        ok = True
        for mu, nu, lam in itertools.product(range(4), repeat=3):
            lhs = (bs.betas[mu] @ bs.betas[nu] @ bs.betas[lam]
                   + bs.betas[lam] @ bs.betas[nu] @ bs.betas[mu])
            rhs = ExactMatrix.zeros(5)
            if mu == nu:
                rhs = rhs + bs.betas[lam].scale(g[mu, mu])
            if lam == nu:
                rhs = rhs + bs.betas[mu].scale(g[lam, lam])
            if lhs != rhs:
                ok = False
                break
        if ok:
            survivors.append(signs)
    assert survivors == [(1, -1, -1, -1)]


# -- trilinear algebra report ----------------------------------------------


def test_standard_relation_all_64_triples():
    report = verify_dkp_algebra(duffin_kemmer_construct(1))
    assert report.standard_holds
    assert report.standard_failures == ()


def test_cube_pattern():
    report = verify_dkp_algebra(duffin_kemmer_construct(1))
    assert [c.unweighted for c in report.cube] == [True, False, False, False]
    assert all(c.weighted for c in report.cube)


def test_spatial_cubes_flip_sign():
    bs = duffin_kemmer_construct(1)
    assert bs.beta0 @ bs.beta0 @ bs.beta0 == bs.beta0
    for b in bs.betas[1:]:
        assert b @ b @ b == -b


def test_sandwich_relation_mismatches_everywhere():
    # beta_mu beta_nu beta_mu is zero for mu != nu, never beta_mu itself
    report = verify_dkp_algebra(duffin_kemmer_construct(1))
    assert len(report.sandwich) == 12
    assert all(not c.unweighted for c in report.sandwich)
    assert all(c.weighted for c in report.sandwich)


def test_square_sum_relation_true_only_for_time_index():
    report = verify_dkp_algebra(duffin_kemmer_construct(1))
    assert len(report.square_sum) == 12
    for check in report.square_sum:
        _, nu = check.indices
        assert check.unweighted == (nu == 0)
        assert check.weighted


def test_distinct_triples_vanish():
    report = verify_dkp_algebra(duffin_kemmer_construct(1))
    assert len(report.distinct_sum) == 24
    assert all(c.unweighted and c.weighted for c in report.distinct_sum)


def test_unweighted_mismatch_inventory():
    report = verify_dkp_algebra(duffin_kemmer_construct(1))
    names = [name for name, _ in report.unweighted_mismatches]
    assert names.count("cube") == 3
    assert names.count("sandwich") == 12
    assert names.count("square_sum") == 9
    assert names.count("distinct_sum") == 0


def test_dkp_algebra_matches_the_family_by_family_oracle():
    # every diagonal metric with entries in {1, -1, 2, 0}: the closing one,
    # wrong signs, a wrong scale and a missing entry, each family weighted
    # against its own multiplied-out form
    bs = duffin_kemmer_construct(1)
    for diagonal in itertools.product((1, -1, 2, 0), repeat=4):
        metric = ExactMatrix.diagonal(diagonal)
        report = verify_dkp_algebra(bs._replace(metric=metric))
        assert report == dkp_algebra_by_family(bs.betas, metric), diagonal


# -- independent Fraction-pair arithmetic oracle ----------------------------


def as_pairs(m):
    return [[(m[r, c].re, m[r, c].im) for c in range(m.cols)]
            for r in range(m.rows)]


def pair_mul(a, b):
    n = len(a)
    out = [[(Fraction(0), Fraction(0))] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            re = Fraction(0)
            im = Fraction(0)
            for k in range(n):
                ar, ai = a[r][k]
                br, bi = b[k][c]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            out[r][c] = (re, im)
    return out


def pair_add(a, b):
    return [[(x[0] + y[0], x[1] + y[1]) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def pair_scale(a, re, im=Fraction(0)):
    return [[(x[0] * re - x[1] * im, x[0] * im + x[1] * re) for x in row]
            for row in a]


def test_standard_relation_against_fraction_oracle():
    bs = duffin_kemmer_construct(1)
    b = [as_pairs(m) for m in bs.betas]
    g = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1)]
    zero = [[(Fraction(0), Fraction(0))] * 5 for _ in range(5)]
    for mu, nu, lam in itertools.product(range(4), repeat=3):
        lhs = pair_add(pair_mul(pair_mul(b[mu], b[nu]), b[lam]),
                       pair_mul(pair_mul(b[lam], b[nu]), b[mu]))
        rhs = zero
        if mu == nu:
            rhs = pair_add(rhs, pair_scale(b[lam], g[mu]))
        if lam == nu:
            rhs = pair_add(rhs, pair_scale(b[mu], g[lam]))
        assert lhs == rhs, (mu, nu, lam)


def contraction_oracle(bs, k):
    b = [as_pairs(m) for m in bs.betas]
    g = [Fraction(1), Fraction(-1), Fraction(-1), Fraction(-1)]
    zero = [[(Fraction(0), Fraction(0))] * 5 for _ in range(5)]
    bk = zero
    for mu in range(4):
        bk = pair_add(bk, pair_scale(b[mu], Fraction(k[mu])))
    kk = sum(g[mu] * Fraction(k[mu]) ** 2 for mu in range(4))
    cubed = pair_mul(pair_mul(bk, bk), bk)
    return cubed == pair_scale(bk, kk), kk


# -- minimal polynomial along a momentum direction ---------------------------


def test_minimal_polynomial_time_direction():
    bs = duffin_kemmer_construct(1)
    check = dkp_minimal_polynomial_check(bs, (1, 0, 0, 0))
    assert check.holds
    assert check.k_dot_k == S1


def test_minimal_polynomial_space_direction():
    bs = duffin_kemmer_construct(1)
    check = dkp_minimal_polynomial_check(bs, (0, 1, 0, 0))
    assert check.holds
    assert check.k_dot_k == -S1


def test_minimal_polynomial_mixed_vector():
    bs = duffin_kemmer_construct(1)
    check = dkp_minimal_polynomial_check(bs, (2, 1, 1, 1))
    assert check.holds
    assert check.k_dot_k == S1


def test_minimal_polynomial_seeded_rational_vectors():
    bs = duffin_kemmer_construct(1)
    rng = random.Random(20260816)
    for _ in range(5):
        k = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(4))
        check = dkp_minimal_polynomial_check(bs, k)
        oracle_holds, oracle_kk = contraction_oracle(bs, k)
        assert check.holds
        assert oracle_holds
        assert check.k_dot_k == Scalar(oracle_kk)


def test_minimal_polynomial_rejects_short_vectors():
    bs = duffin_kemmer_construct(1)
    with pytest.raises(ValueError, match="4 components"):
        dkp_minimal_polynomial_check(bs, (1, 0, 0))


# -- constraint split of beta_0 ---------------------------------------------


def test_beta0_constraint_split():
    bs = duffin_kemmer_construct(1)
    split = constraint_split(bs.beta0, "bose")
    assert split.canonical_indices == (0, 1)
    assert split.constraint_indices == (2, 3, 4)
    assert split.nonsingular_block == ExactMatrix([[0, I], [-I, 0]])
    canonical = [bs.psi_components[i] for i in split.canonical_indices]
    constrained = [bs.psi_components[i] for i in split.constraint_indices]
    assert canonical == ["phi", "dphi/dt"]
    assert constrained == ["dphi/dx", "dphi/dy", "dphi/dz"]


def test_beta_set_is_frozen():
    bs = duffin_kemmer_construct(1)
    with pytest.raises(AttributeError):
        bs.mass = Fraction(2)
    assert isinstance(bs, BetaSet)
