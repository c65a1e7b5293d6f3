import random
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (dense_rref, eigenvalue_sector_signs,
                     flavor_antisymmetry_by_quadrants)
from spinstat import flavor, report
from spinstat.algebra import (DimensionError, ExactMatrix, Scalar, SelfCheckError,
                              hermitian_signature)
from spinstat.flavor import (
    FlavorDiagnosis,
    FlavorDiagonalization,
    detect_flavor_antisymmetry,
    diagonalize_flavor,
    flavor_diagnosis,
    sector_sign_analysis,
)
from spinstat.model import parse_theory

I = Scalar(0, 1)


def epsilon():
    return ExactMatrix([[0, 1], [-1, 0]])


def flavor_pair(block):
    """Assemble [[0, M], [-M, 0]] from the off-diagonal block."""
    return ExactMatrix.kron(epsilon(), block)


# -- detection -----------------------------------------------------------------


def test_detects_the_appendix_pattern():
    split = detect_flavor_antisymmetry(epsilon())
    assert split.is_flavor_antisymmetric
    assert split.block == ExactMatrix([[1]])


def test_detects_larger_blocks():
    k = ExactMatrix.diagonal([1, 3])
    split = detect_flavor_antisymmetry(flavor_pair(k))
    assert split.is_flavor_antisymmetric
    assert split.block == k


def test_rejects_symmetric_coupling():
    m = ExactMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    assert not detect_flavor_antisymmetry(m).is_flavor_antisymmetric


def test_rejects_flavor_diagonal():
    m = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert not detect_flavor_antisymmetry(m).is_flavor_antisymmetric


def test_rejects_nonzero_diagonal_blocks():
    m = ExactMatrix([[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
    assert not detect_flavor_antisymmetry(m).is_flavor_antisymmetric


def test_rejects_zero_matrix():
    assert not detect_flavor_antisymmetry(ExactMatrix.zeros(4)).is_flavor_antisymmetric


def test_odd_dimension_is_noted_not_raised():
    split = detect_flavor_antisymmetry(ExactMatrix.zeros(3))
    assert not split.is_flavor_antisymmetric
    assert "odd dimension" in split.note


def test_pattern_match_is_structural_even_for_complex_entries():
    m = ExactMatrix([[0, I], [-I, 0]])
    split = detect_flavor_antisymmetry(m)
    assert split.is_flavor_antisymmetric
    assert split.block == ExactMatrix([[I]])


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
real_scalars = st.builds(Scalar, small_fractions)
complex_scalars = st.builds(Scalar, small_fractions, small_fractions)
FLAVOR_MISSES = ("none", "top-left", "bottom-right", "shifted bottom-left",
                 "extra bottom-left", "missing bottom-left", "odd dimension")


@st.composite
def flavor_patterns(draw, miss):
    """[[0, M], [-M, 0]] for a sparse real or complex M (sometimes zero),
    then one near miss: a nonzero in a zero quadrant, a bottom-left entry
    shifted, a bottom-left entry whose top-right partner is zero, a
    top-right entry whose bottom-left partner is zero, or an extra zero
    row and column at the end."""
    h = draw(st.integers(1, 4))
    values = draw(st.sampled_from([real_scalars, complex_scalars]))
    nonzero = values.filter(bool)
    m = [[draw(st.one_of(st.just(Scalar(0)), values)) for _ in range(h)]
         for _ in range(h)]
    n = 2 * h + (miss == "odd dimension")
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(h):
        for j in range(h):
            rows[i][h + j], rows[h + i][j] = m[i][j], -m[i][j]
    i, j = draw(st.integers(0, h - 1)), draw(st.integers(0, h - 1))
    if miss == "top-left":
        rows[i][j] = draw(nonzero)
    elif miss == "bottom-right":
        rows[h + i][h + j] = draw(nonzero)
    elif miss == "shifted bottom-left":
        rows[h + i][j] += draw(nonzero)
    elif miss == "extra bottom-left":
        rows[i][h + j], rows[h + i][j] = Scalar(0), draw(nonzero)
    elif miss == "missing bottom-left":
        rows[i][h + j], rows[h + i][j] = draw(nonzero), Scalar(0)
    return ExactMatrix(rows)


@pytest.mark.parametrize("miss", FLAVOR_MISSES)
@given(data=st.data())
def test_detection_matches_the_built_quadrants(miss, data):
    m = data.draw(flavor_patterns(miss))
    assert detect_flavor_antisymmetry(m) == flavor_antisymmetry_by_quadrants(m)


def test_detection_needs_square_input():
    with pytest.raises(DimensionError):
        detect_flavor_antisymmetry(ExactMatrix.zeros(2, 4))


# -- diagonalization, exact path -------------------------------------------------


def test_unit_case_reproduces_the_worked_example():
    result = diagonalize_flavor(epsilon())
    assert result.exact
    assert result.diagonal == ExactMatrix.diagonal([Scalar(0, -1), Scalar(0, 1)])
    assert result.transformation == ExactMatrix([[1, 1], [-I, I]])
    assert result.column_norms_squared == (Fraction(2), Fraction(2))
    assert result.eigenvalues == (Scalar(0, -1), Scalar(0, 1))


def test_scaled_case():
    result = diagonalize_flavor(ExactMatrix([[0, 2], [-2, 0]]))
    assert result.diagonal == ExactMatrix.diagonal([Scalar(0, -2), Scalar(0, 2)])


def test_fractional_case():
    half = Fraction(1, 2)
    result = diagonalize_flavor(ExactMatrix([[0, half], [-half, 0]]))
    assert result.eigenvalues == (Scalar(0, -half), Scalar(0, half))


def test_block_diagonal_case_matches_blockwise_oracle():
    full = diagonalize_flavor(flavor_pair(ExactMatrix.diagonal([1, 3])))
    blockwise = []
    for k in (1, 3):
        small = diagonalize_flavor(ExactMatrix([[0, k], [-k, 0]]))
        blockwise.extend(small.eigenvalues)
    assert sorted(v.im for v in full.eigenvalues) == sorted(v.im for v in blockwise)
    assert [v.im for v in full.eigenvalues] == [-3, -1, 1, 3]


def test_degenerate_eigenvalue_keeps_unitarity():
    lam = ExactMatrix.kron(epsilon(), ExactMatrix.identity(2))
    result = diagonalize_flavor(lam)
    assert result.exact
    assert [v.im for v in result.eigenvalues] == [-1, -1, 1, 1]
    v = result.transformation
    gram = v.conjugate().transpose() @ v
    assert gram == ExactMatrix.diagonal(result.column_norms_squared)
    assert lam @ v == v @ result.diagonal


def test_singular_matrix_reports_zero_sectors():
    # one +-i pair and two zero modes, read off the inertia of i*lam
    lam = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert hermitian_signature(lam.scale(I)) == (1, 1, 2)
    with pytest.raises(ValueError):
        diagonalize_flavor(lam)


def test_random_known_spectra_round_trip():
    rng = random.Random(83)
    for _ in range(20):
        mus = [Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
               for _ in range(rng.choice((1, 2, 3)))]
        lam = flavor_pair(ExactMatrix.diagonal(mus))
        result = diagonalize_flavor(lam)
        assert result.exact
        expected = sorted([-mu for mu in mus] + [mu for mu in mus])
        assert [v.im for v in result.eigenvalues] == expected
        assert lam @ result.transformation == result.transformation @ result.diagonal
        signs = sector_sign_analysis(result).sector_signs
        assert signs == (1,) * len(mus) + (-1,) * len(mus)

        # a shuffled block-diagonal form is no flavor pairing, but the
        # inertia of i*lam still splits its spectrum into equal halves
        n = 2 * len(mus)
        entries = [[Fraction(0)] * n for _ in range(n)]
        for k, mu in enumerate(mus):
            entries[2 * k][2 * k + 1] = mu
            entries[2 * k + 1][2 * k] = -mu
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = ExactMatrix([[entries[perm[i]][perm[j]] for j in range(n)]
                                for i in range(n)])
        assert hermitian_signature(shuffled.scale(I)) == (len(mus), len(mus), 0)


def test_diagonalization_rejects_non_antisymmetric():
    with pytest.raises(ValueError, match="antisymmetric"):
        diagonalize_flavor(ExactMatrix([[0, 1], [1, 0]]))


def test_diagonalization_rejects_complex_entries():
    with pytest.raises(ValueError, match="real"):
        diagonalize_flavor(ExactMatrix([[0, I], [-I, 0]]))


def test_diagonalization_rejects_rectangles():
    with pytest.raises(DimensionError):
        diagonalize_flavor(ExactMatrix.zeros(2, 3))


@pytest.mark.parametrize("block", [
    ExactMatrix([[1, 1], [1, 0]]),     # symmetric but not diagonal
    ExactMatrix.diagonal([1, -2]),     # a negative weight
    ExactMatrix.diagonal([1, 0]),      # a zero weight
])
def test_diagonalization_needs_a_positive_diagonal_pairing(block):
    with pytest.raises(ValueError, match="diagonal and positive"):
        diagonalize_flavor(flavor_pair(block))


@pytest.mark.self_check
def test_wrong_phase_raises_self_check_error(monkeypatch):
    # written without assert statements so it also checks under python -O;
    # with 2i for i each eigenvector e_k + 2i*e_{h+k} has squared norm 5
    monkeypatch.setattr(flavor, "I", Scalar(0, 2))
    with pytest.raises(SelfCheckError, match="V-dagger V"):
        diagonalize_flavor(flavor_pair(ExactMatrix.diagonal([1, 3])))


@pytest.mark.self_check
def test_wrong_eigenvalue_raises_self_check_error(monkeypatch):
    # written without assert statements so it also checks under python -O;
    # the detection hands over twice the pairing, so each eigenvector is
    # right but its eigenvalue is doubled
    real = flavor.detect_flavor_antisymmetry

    def doubled(lam):
        split = real(lam)
        return split._replace(block=split.block.scale(2))

    monkeypatch.setattr(flavor, "detect_flavor_antisymmetry", doubled)
    with pytest.raises(SelfCheckError, match="eigen-equation"):
        diagonalize_flavor(flavor_pair(ExactMatrix.diagonal([1, 3])))


@pytest.mark.self_check
def test_unbalanced_sector_signs_raise_self_check_error(monkeypatch):
    # written without assert statements so it also checks under python -O;
    # the inertia of i*K0 for a real antisymmetric K0 has as many positive
    # as negative entries, so an elimination that reports (2, 0, 0) for
    # the 2x2 pairing is caught
    monkeypatch.setattr(flavor, "hermitian_signature", lambda m: (2, 0, 0))
    with pytest.raises(SelfCheckError, match=r"unequal \+1 and -1 sectors"):
        flavor_diagnosis(epsilon(), spin=0)


# -- sector signs and the full diagnosis -------------------------------------------


positive_rationals = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))


@given(st.lists(positive_rationals, min_size=1, max_size=4))
def test_sector_signs_match_the_eigenvalue_rule(weights):
    diagonalization = diagonalize_flavor(flavor_pair(ExactMatrix.diagonal(weights)))
    signs = sector_sign_analysis(diagonalization).sector_signs
    assert signs == eigenvalue_sector_signs(diagonalization)
    assert signs == (1,) * len(weights) + (-1,) * len(weights)


@given(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                min_size=1, max_size=5))
def test_inertia_rule_matches_the_eigenvalue_rule_off_the_pairing(parts):
    # any imaginary spectrum ascending by imaginary part, zeros and unequal
    # sign counts included, diagonalized by the unit vectors
    eigenvalues = tuple(Scalar(0, t) for t in sorted(parts))
    n = len(eigenvalues)
    diagonalization = FlavorDiagonalization(
        True, eigenvalues, ExactMatrix.diagonal(eigenvalues),
        ExactMatrix.identity(n), (Fraction(1),) * n)
    assert (sector_sign_analysis(diagonalization).sector_signs
            == eigenvalue_sector_signs(diagonalization))


@st.composite
def symmetric_pairings(draw):
    """Real symmetric flavor blocks W up to 4x4, half of them a sum of
    rank-one terms c u u^T, fewer than the size above size 1, so singular."""
    n = draw(st.integers(1, 4))
    entries = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))
    if draw(st.booleans()):
        w = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                w[i][j] = w[j][i] = draw(entries)
        return ExactMatrix(w)
    w = ExactMatrix.zeros(n)
    for _ in range(draw(st.integers(1, max(1, n - 1)))):
        u = ExactMatrix([[draw(entries)] for _ in range(n)])
        w = w + (u @ u.transpose()).scale(draw(entries))
    return w


@given(symmetric_pairings())
def test_sector_signs_are_the_inertia_of_i_k0(w):
    # the signs are the inertia of the hermitian form i*K0 for
    # K0 = [[0, W], [-W, 0]]; with W real symmetric of rank r, i*K0 has
    # eigenvalues +-mu for the r nonzero eigenvalues mu of W, so the
    # inertia is (r, r, 2h - 2r), here with r from a dense Gauss-Jordan
    assume(not w.is_zero())  # a zero K0 has no flavor pattern to diagnose
    h = w.rows
    r = len(dense_rref([list(row) for row in w])[1])
    want = (1,) * r + (0,) * (2 * h - 2 * r) + (-1,) * r
    assert flavor_diagnosis(flavor_pair(w)).sector_signs == want


def test_appendix_flow_finds_the_negative_sector():
    diagnosis = flavor_diagnosis(epsilon(), spin=0)
    assert diagnosis.is_flavor_antisymmetric
    assert diagnosis.sector_signs == (1, -1)
    assert diagnosis.negative_norm
    assert diagnosis.inverted_connection_attempt
    assert diagnosis.witness is not None
    assert diagnosis.witness.matrix == ExactMatrix([[-1]])
    assert diagnosis.witness.signature == (0, 1, 0)
    assert diagnosis.diagonalization.transformation == ExactMatrix([[1, 1], [-I, I]])
    assert diagnosis.diagonalization.diagonal == ExactMatrix.diagonal([Scalar(0, -1), Scalar(0, 1)])


def test_every_negative_diagnosis_shares_one_witness():
    # the witness is a constant Gram matrix, built once for all diagnoses
    first = flavor_diagnosis(epsilon(), spin=0).witness
    assert flavor_diagnosis(epsilon(), spin=1).witness is first


def test_half_integral_spin_is_not_an_inversion_attempt():
    diagnosis = flavor_diagnosis(epsilon(), spin="1/2")
    assert diagnosis.negative_norm
    assert not diagnosis.inverted_connection_attempt


def test_spinless_call_leaves_inversion_flag_down():
    result = diagonalize_flavor(epsilon())
    diagnosis = sector_sign_analysis(result, ExactMatrix([[1]]))
    assert diagnosis.negative_norm
    assert not diagnosis.inverted_connection_attempt


def test_sign_balance_for_larger_blocks():
    diagnosis = flavor_diagnosis(flavor_pair(ExactMatrix.diagonal([1, 3])), spin=0)
    assert diagnosis.sector_signs == (1, 1, -1, -1)
    assert diagnosis.negative_norm
    assert diagnosis.inverted_connection_attempt


def test_zero_eigenvalues_carry_no_sign():
    diagnosis = flavor_diagnosis(flavor_pair(ExactMatrix.diagonal([1, 0])))
    assert diagnosis.sector_signs == (1, 0, 0, -1)
    assert diagnosis.negative_norm
    assert diagnosis.diagonalization is None


def test_irrational_pairing_signs_are_exact():
    # W = [[1, 1], [1, 0]] has eigenvalues (1 +- sqrt 5)/2, so the pairing's
    # spectrum is irrational; the signs come from an exact inertia all the same
    diagnosis = flavor_diagnosis(flavor_pair(ExactMatrix([[1, 1], [1, 0]])), 0)
    assert diagnosis.sector_signs == (1, 1, -1, -1)
    assert diagnosis.negative_norm
    assert diagnosis.inverted_connection_attempt
    assert diagnosis.witness.signature == (0, 1, 0)
    assert diagnosis.diagonalization is None
    assert "no diagonalization attached" in diagnosis.note


@pytest.mark.parametrize("spin", ["0", "1", "2", "4"])
def test_pair_diagnosis_runs_no_mirror_scan_of_k0(monkeypatch, spin):
    # the verdict and the split have classified this same K0 already, and
    # the matrix keeps its class, so the diagnosis scans no mirror entry
    diagnosed, scans = [], []
    is_antisymmetric = ExactMatrix.is_antisymmetric

    def counting(m):
        if diagnosed:
            scans.append(m)
        return is_antisymmetric(m)

    def diagnosing(k0, spin=None):
        diagnosed.append(k0)
        return flavor_diagnosis(k0, spin)

    monkeypatch.setattr(ExactMatrix, "is_antisymmetric", counting)
    monkeypatch.setattr(report, "flavor_diagnosis", diagnosing)
    result = report.analyze_theory(parse_theory(
        f"theory t\nfield x spin={spin} flavors=2\nflavor antisymmetric-pair\n"))
    assert diagnosed == [result.build.kinematic.matrix]
    assert result.flavor_by_field[0][1].negative_norm
    assert scans == []


def test_flavor_diagonal_theory_keeps_positive_signs():
    m = ExactMatrix([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    diagnosis = flavor_diagnosis(m, spin=0)
    assert not diagnosis.is_flavor_antisymmetric
    assert diagnosis.sector_signs == (1, 1)
    assert not diagnosis.negative_norm
    assert diagnosis.witness is None
    assert diagnosis.diagonalization is None
    # the whole record, every field spelled out
    assert diagnosis == FlavorDiagnosis(
        is_flavor_antisymmetric=False,
        diagonalization=None,
        sector_signs=(1, 1),
        negative_norm=False,
        inverted_connection_attempt=False,
        witness=None,
        note=None,
    )


def test_complex_pattern_is_flagged_but_not_diagonalized():
    diagnosis = flavor_diagnosis(ExactMatrix([[0, I], [-I, 0]]), spin=0)
    assert diagnosis.is_flavor_antisymmetric
    assert diagnosis.sector_signs == ()
    assert not diagnosis.negative_norm
    assert "not attempted" in diagnosis.note
    # the whole record, every field spelled out
    assert diagnosis == FlavorDiagnosis(
        is_flavor_antisymmetric=True,
        diagonalization=None,
        sector_signs=(),
        negative_norm=False,
        inverted_connection_attempt=False,
        witness=None,
        note="flavor block is not a real symmetric form; "
             "sector diagonalization not attempted",
    )


def test_odd_dimension_diagnosis_has_no_sectors():
    diagnosis = flavor_diagnosis(ExactMatrix.zeros(3))
    assert not diagnosis.is_flavor_antisymmetric
    assert diagnosis.sector_signs == ()
    assert "odd dimension" in diagnosis.note
    assert diagnosis == FlavorDiagnosis(
        False, None, (), False, False, None,
        "odd dimension cannot split into two flavors")
