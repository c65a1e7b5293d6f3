from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import dense_inverse, kinematic_term_is_trivial
from spinstat.algebra import ExactMatrix, Scalar, SymmetryClass, symmetry_decompose
from spinstat.invariance import constraint_split, momentum_map
from spinstat.model import parse_theory
from spinstat.report import analyze_theory
from spinstat.schwinger import (
    SurfaceVariation,
    statistics_for_class,
    surface_variation_consistency,
)

I = Scalar(0, 1)

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


def square_matrices(n_max=4):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(ExactMatrix)
    )


def doubled_scalar_k():
    return ExactMatrix([[Scalar(0), I], [-I, Scalar(0)]])


# -- surface variation --------------------------------------------------------


def test_antisymmetric_k_supports_bose_only():
    k = doubled_scalar_k()
    assert surface_variation_consistency(k, "bose") == SurfaceVariation(True)
    fermi = surface_variation_consistency(k, "fermi")
    assert not fermi.consistent
    assert "generator commutes with all fields" in fermi.reason
    assert "no symmetric part" in fermi.reason


def test_symmetric_k_supports_fermi_only():
    k = ExactMatrix.identity(4)
    assert surface_variation_consistency(k, "fermi").consistent
    bose = surface_variation_consistency(k, "bose")
    assert not bose.consistent
    assert "no antisymmetric part" in bose.reason


def test_zero_k_degenerate_for_both():
    z = ExactMatrix.zeros(2, 2)
    for statistics in ("bose", "fermi"):
        result = surface_variation_consistency(z, statistics)
        assert not result.consistent
        assert "K0 is zero" in result.reason


def test_mixed_k_supports_both():
    mixed = ExactMatrix([[Scalar(1), Scalar(1)], [Scalar(0), Scalar(1)]])
    assert surface_variation_consistency(mixed, "bose").consistent
    assert surface_variation_consistency(mixed, "fermi").consistent


def test_surface_variation_rejects_unknown_statistics():
    with pytest.raises(ValueError, match="'bose' or 'fermi'"):
        surface_variation_consistency(ExactMatrix.identity(2), "boltzmann")
    with pytest.raises(ValueError):
        surface_variation_consistency(ExactMatrix.zeros(2), "auto")


@given(square_matrices())
def test_consistency_agrees_with_symbolic_triviality(m):
    # independent route: the generator vanishes exactly when the kinematic
    # bilinear is the identically-zero polynomial
    for statistics in ("bose", "fermi"):
        expected = not kinematic_term_is_trivial(m, statistics)
        assert surface_variation_consistency(m, statistics).consistent == expected


@given(square_matrices())
def test_pure_classes_pick_exactly_one_statistics(m):
    cls = symmetry_decompose(m)[2]
    bose = surface_variation_consistency(m, "bose").consistent
    fermi = surface_variation_consistency(m, "fermi").consistent
    if cls is SymmetryClass.ANTISYMMETRIC:
        assert bose and not fermi
    elif cls is SymmetryClass.SYMMETRIC:
        assert fermi and not bose
    elif cls is SymmetryClass.ZERO:
        assert not bose and not fermi
    else:
        assert bose and fermi


# -- canonical momenta --------------------------------------------------------


def field_bracket(k, split):
    """[xi_a, xi_b] on the canonical block, pinned by [xi_n, Pi_j] = i*delta."""
    restricted = momentum_map(k, split.statistics).principal(split.canonical_indices)
    transposed = restricted.transpose()
    return ExactMatrix(dense_inverse([list(row) for row in transposed])).scale(I)


def test_doubled_scalar_momenta():
    k = doubled_scalar_k()
    p = momentum_map(k, "bose")
    # the momentum conjugate to the first component is the second one
    assert p == -k
    assert p[0, 0].is_zero
    assert not p[0, 1].is_zero
    assert constraint_split(k, "bose").canonical_indices == (0, 1)


def test_majorana_momentum_is_the_field_itself():
    k = ExactMatrix.identity(4)
    assert momentum_map(k, "fermi") == k
    assert field_bracket(k, constraint_split(k, "fermi")) == k.scale(I)


def test_zero_k_gives_empty_relations():
    split = constraint_split(ExactMatrix.zeros(3, 3), "bose")
    assert split.canonical_indices == ()
    assert split.nonsingular_block is None
    assert momentum_map(ExactMatrix.zeros(3, 3), "bose").is_zero()


def test_constrained_momenta_restrict_to_canonical_block():
    rows = 5
    data = [[Scalar(0)] * rows for _ in range(rows)]
    data[0][1] = I
    data[1][0] = -I
    k = ExactMatrix(data)
    split = constraint_split(k, "bose")
    assert split.canonical_indices == (0, 1)
    assert momentum_map(k, "bose").principal(split.canonical_indices) == (
        ExactMatrix([[0, -I], [I, 0]]))
    assert field_bracket(k, split) == ExactMatrix([[0, -1], [1, 0]])


@given(square_matrices(3), st.sampled_from(["bose", "fermi"]))
def test_bracket_tables_have_the_bracket_symmetry(m, statistics):
    half = Scalar(Fraction(1, 2))
    hermitian = (m + m.dagger()).scale(half)
    if surface_variation_consistency(hermitian, statistics).consistent:
        split = constraint_split(hermitian, statistics)
        cls = symmetry_decompose(field_bracket(hermitian, split))[2]
        expected = (SymmetryClass.ANTISYMMETRIC if statistics == "bose"
                    else SymmetryClass.SYMMETRIC)
        assert cls is expected


# -- verdicts -----------------------------------------------------------------


def test_statistics_for_class():
    assert statistics_for_class(SymmetryClass.ANTISYMMETRIC) == "bose"
    assert statistics_for_class(SymmetryClass.SYMMETRIC) == "fermi"
    assert statistics_for_class(SymmetryClass.ZERO) is None
    assert statistics_for_class(SymmetryClass.MIXED) is None


def test_doubled_scalar_verdict():
    spec = parse_theory("theory t\nfield phi spin=0 copies=2")
    result = analyze_theory(spec).verdict
    assert result.status == "CONSISTENT"
    (v,) = result.verdicts
    assert v.field == "phi"
    assert v.required_k0_symmetry is SymmetryClass.ANTISYMMETRIC
    assert v.consistent_statistics == "bose"
    assert v.michel_parity == 1
    assert v.contradiction is None


def test_majorana_verdict():
    spec = parse_theory("theory t\nfield psi spin=1/2")
    result = analyze_theory(spec).verdict
    assert result.status == "CONSISTENT"
    (v,) = result.verdicts
    assert v.required_k0_symmetry is SymmetryClass.SYMMETRIC
    assert v.consistent_statistics == "fermi"
    assert v.michel_parity == -1


@pytest.mark.parametrize("two_j", range(0, 9))
def test_verdict_sweep_matches_spin_parity(two_j):
    spin = Fraction(two_j, 2)
    copies = 1 if two_j % 2 else 2
    spec = parse_theory(f"theory t\nfield f spin={spin} copies={copies}")
    result = analyze_theory(spec).verdict
    assert result.status == "CONSISTENT"
    (v,) = result.verdicts
    expected = "fermi" if two_j % 2 else "bose"
    assert v.consistent_statistics == expected
    assert v.michel_parity == (-1) ** two_j
    parity_says_bose = v.michel_parity == 1
    assert parity_says_bose == (expected == "bose")


def test_pinned_wrong_statistics_contradicts():
    spec = parse_theory("theory t\nfield psi spin=1/2 statistics=bose")
    result = analyze_theory(spec).verdict
    assert result.status == "CONTRADICTION"
    (v,) = result.verdicts
    assert v.statistics_declared == "bose"
    assert "required symmetric K0" in v.contradiction
    assert "Bose requiring antisymmetric K0" in v.contradiction


def test_pinned_right_statistics_is_fine():
    spec = parse_theory("theory t\nfield psi spin=1/2 statistics=fermi")
    result = analyze_theory(spec).verdict
    assert result.status == "CONSISTENT"
    assert result.verdicts[0].contradiction is None


def test_single_scalar_has_no_kinematic_term():
    spec = parse_theory("theory t\nfield phi spin=0")
    result = analyze_theory(spec).verdict
    assert result.status == "NO_KINEMATIC_TERM"
    (v,) = result.verdicts
    assert v.consistent_statistics is None
    assert v.contradiction is None


def test_explicit_wrong_class_block_contradicts(tmp_path):
    matrix = tmp_path / "k.json"
    matrix.write_text(ExactMatrix.identity(2).dumps())
    text = "theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json"
    spec = parse_theory(text, base_dir=tmp_path)
    result = analyze_theory(spec).verdict
    assert result.status == "CONTRADICTION"
    (v,) = result.verdicts
    assert v.consistent_statistics is None
    assert "symmetric" in v.contradiction
    assert "Fermi" in v.contradiction


def test_explicit_mixed_block_contradicts(tmp_path):
    mixed = ExactMatrix([[Scalar(0), Scalar(1)], [Scalar(0), Scalar(0)]])
    matrix = tmp_path / "k.json"
    matrix.write_text(mixed.dumps())
    text = "theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json"
    spec = parse_theory(text, base_dir=tmp_path)
    result = analyze_theory(spec).verdict
    assert result.status == "CONTRADICTION"
    (v,) = result.verdicts
    assert "mixes symmetry classes" in v.contradiction


def test_multi_field_verdicts_are_per_field():
    spec = parse_theory(
        "theory t\nfield phi spin=0 copies=2\nfield psi spin=1/2")
    result = analyze_theory(spec).verdict
    assert result.status == "CONSISTENT"
    by_name = {v.field: v for v in result.verdicts}
    assert by_name["phi"].consistent_statistics == "bose"
    assert by_name["psi"].consistent_statistics == "fermi"
