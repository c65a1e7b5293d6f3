import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    dense_inverse,
    dense_rref,
    kinematic_term_is_trivial,
    momentum_map_by_transpose,
    theory_generators,
    whole_space_invariance,
)
from spinstat import cli, invariance
from spinstat.algebra import (ExactMatrix, Scalar, SelfCheckError, SymmetryClass,
                              _blockdiag, pivoted_elimination)
from spinstat.invariance import (
    ConstraintSplit,
    InvarianceReport,
    check_su2_invariance,
    constraint_split,
    momentum_map,
    required_symmetry,
)
from spinstat.model import FieldSpec, TheorySpec, build_kinematic, parse_theory
from spinstat.report import analyze_theory, report_to_json
from spinstat.su2 import hermitian_basis
from test_algebra import any_mirrored_matrix, classed_matrices
from test_cli import run_cli

# -- strategies -------------------------------------------------------------

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


def hermitian_matrices(n_max=4):
    def close(m):
        half = Scalar(Fraction(1, 2))
        return (m + m.dagger()).scale(half)

    return square_matrices(n_max).map(close)


def theory(text):
    return parse_theory(text)


I = Scalar(0, 1)


# -- required symmetry --------------------------------------------------------


@pytest.mark.parametrize("spin", [0, 1, 2, 3, 4, "0", "2", Fraction(3)])
def test_integral_spin_needs_antisymmetric(spin):
    assert required_symmetry(spin) is SymmetryClass.ANTISYMMETRIC


@pytest.mark.parametrize("spin", ["1/2", "3/2", Fraction(5, 2), Fraction(7, 2)])
def test_half_integral_spin_needs_symmetric(spin):
    assert required_symmetry(spin) is SymmetryClass.SYMMETRIC


# -- rotation invariance ------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "theory t\nfield phi spin=0 copies=2",
        "theory t\nfield a spin=1 copies=2",
        "theory t\nfield psi spin=1/2",
        "theory t\nfield phi spin=0 flavors=2\nflavor antisymmetric-pair",
        "theory t\nfield phi spin=0 copies=2\nfield psi spin=1/2",
    ],
)
def test_built_kinematic_is_invariant(text):
    spec = theory(text)
    build = build_kinematic(spec)
    assert build.status == "built"
    k = build.kinematic.matrix
    report = check_su2_invariance(k, spec.block_layout())
    assert report == InvarianceReport(True, ())
    assert report == whole_space_invariance(k, theory_generators(spec))


def test_perturbed_kinematic_fails_invariance():
    spec = theory("theory t\nfield a spin=1 copies=2")
    k = build_kinematic(spec).kinematic.matrix
    bump = ExactMatrix(
        [
            [Scalar(1) if (r, c) == (0, 0) else Scalar(0) for c in range(6)]
            for r in range(6)
        ]
    )
    report = check_su2_invariance(k + bump, spec.block_layout())
    assert not report.ok
    assert report.failing_axes
    assert set(report.failing_axes) <= {"x", "y", "z"}


SPIN1_COPIES = "theory t\nfield x spin=1 copies=2\n"


@pytest.mark.parametrize("explicit_first", [False, True])
def test_block_residuals_are_held_by_every_entry(tmp_path, explicit_first):
    # an explicit K0 equal to the auto one but for its first entry pair,
    # doubled: still antisymmetric, not invariant, and with the same spins
    # on the same blocks, so only the entries tell its residuals apart
    nested = build_kinematic(theory(SPIN1_COPIES)).kinematic.matrix.to_nested_strings()
    nested[0][3], nested[3][0] = "0+2i", "0-2i"
    (tmp_path / "k.json").write_text(json.dumps(nested))
    explicit = tmp_path / "explicit.th"
    explicit.write_text(SPIN1_COPIES + "kinematic explicit k.json\n")
    fresh = run_cli("analyze", str(explicit), "--json", str(tmp_path / "fresh.json"))
    assert fresh.returncode == 5

    texts = {"auto": SPIN1_COPIES, "explicit": explicit.read_text()}
    order = ["explicit", "auto"] if explicit_first else ["auto", "explicit"]
    reports = {kind: analyze_theory(parse_theory(texts[kind], base_dir=tmp_path))
               for kind in order}
    assert reports["auto"].status == "CONSISTENT"
    assert reports["explicit"].status == "NOT_ROTATION_INVARIANT"
    assert reports["explicit"].invariance.violations
    assert (report_to_json(reports["explicit"])
            == (tmp_path / "fresh.json").read_text())


def test_scalar_generators_leave_anything_invariant():
    spec = theory("theory t\nfield phi spin=0 copies=3")
    arbitrary = ExactMatrix(
        [[Scalar(r + 2 * c, r - c) for c in range(3)] for r in range(3)]
    )
    assert check_su2_invariance(arbitrary, spec.block_layout()).ok


def test_invariance_reports_each_axis():
    # the spin-1 form is the identity in the hermitian basis, so each
    # generator is antisymmetric and the residual of D is [D, G]
    report = check_su2_invariance(ExactMatrix.diagonal([1, 2, 3]), (2,))
    assert not report.ok
    assert report.failing_axes == ("x", "y", "z")
    for _, entries in report.violations:
        assert entries


def test_generator_as_kinematic_matrix_fails():
    gz = hermitian_basis(1).generators[2]
    report = check_su2_invariance(gz, (2,))
    assert not report.ok
    assert "x" in report.failing_axes


def test_invariance_rejects_dimension_mismatch():
    from spinstat.algebra import DimensionError

    with pytest.raises(DimensionError):
        check_su2_invariance(ExactMatrix.identity(2), (2,))


MAX_DRAWN_DIMENSION = 40
nonzero_scalars = scalars.filter(bool)


def _components(two_j):
    return 2 * (two_j + 1) if two_j % 2 else two_j + 1


@st.composite
def perturbed_invariant_forms(draw):
    """(spec, K0): fields of spin 0 to 4 with 1 or 2 flavors and copies,
    at most MAX_DRAWN_DIMENSION components, and K0 built from the
    invariant form of each spin, then changed at a few places: single
    entries anywhere (across spins too), a change inside one block (one
    of two identical blocks, when the layout repeats one), and the same
    local entry stamped into every off-diagonal block pair, so that block
    pairs of different spins hold equal entries."""
    fields, dim = [], 0
    for k in range(draw(st.integers(1, 3))):
        two_j = draw(st.integers(0, 8))
        flavors, copies = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        if dim + _components(two_j) * flavors * copies > MAX_DRAWN_DIMENSION:
            flavors = copies = 1
        if dim + _components(two_j) > MAX_DRAWN_DIMENSION:
            continue
        fields.append(FieldSpec(f"f{k}", two_j, flavors, copies))
        dim += _components(two_j) * flavors * copies
    spec = TheorySpec("t", tuple(fields))
    layout = spec.block_layout()
    starts = [sum(map(_components, layout[:b])) for b in range(len(layout))]
    block = st.integers(0, len(layout) - 1)
    rows = [[Scalar(0)] * dim for _ in range(dim)]

    def add(a, b, r, c, value):
        rows[starts[a] + r][starts[b] + c] += value

    # the invariant forms: one per block, and between blocks of one spin
    couplings = [(b, b) for b in range(len(layout))]
    couplings += draw(st.lists(st.tuples(block, block), max_size=3))
    for a, b in couplings:
        if layout[a] == layout[b]:
            coefficient = draw(scalars)
            for r, c, x in hermitian_basis(Fraction(layout[a], 2)).form.nonzeros():
                add(a, b, r, c, coefficient * x)
    index = st.integers(0, dim - 1)
    for i, j, value in draw(st.lists(st.tuples(index, index, nonzero_scalars),
                                     max_size=2)):
        rows[i][j] += value
    for b, value in draw(st.lists(st.tuples(block, nonzero_scalars), max_size=1)):
        local = st.integers(0, _components(layout[b]) - 1)
        add(b, b, draw(local), draw(local), value)
    local = st.integers(0, 3)
    for r, c, value in draw(st.lists(st.tuples(local, local, nonzero_scalars),
                                     max_size=1)):
        for a in range(len(layout)):
            for b in range(len(layout)):
                if (a != b and r < _components(layout[a])
                        and c < _components(layout[b])):
                    add(a, b, r, c, value)
    return spec, ExactMatrix(rows)


@given(perturbed_invariant_forms())
def test_invariance_matches_the_whole_space_oracle(case):
    spec, k0 = case
    report = check_su2_invariance(k0, spec.block_layout())
    assert report == whole_space_invariance(k0, theory_generators(spec))


# -- K0 assembled from diagonal blocks --------------------------------------

OFFSET_THEORY = ("theory t\nfield phi spin=0 copies=2\n"
                 "field a spin=1 copies=2 flavors=2\nfield psi spin=1/2\n")


@pytest.mark.parametrize("flavor", [0, 1])
def test_violations_of_a_stored_block_are_shifted_by_its_offset(flavor):
    # the spin-1 auto block with one entry changed, placed by _blockdiag as
    # one flavor of a field block between invariant blocks: its violations
    # must be at its offset, where the flat copy of the same rows and the
    # whole-space oracle put them
    spec = theory(OFFSET_THEORY)
    phi, a, psi = build_kinematic(spec).kinematic.matrix._blocks.values()
    auto = a._blocks[0]
    rows = [dict(row) for row in auto._rows]
    rows[0][3] = rows[0][3] * 2
    bumped = ExactMatrix._from_rows(auto.cols, rows)
    field = _blockdiag([bumped, auto] if flavor == 0 else [auto, bumped])
    k0 = _blockdiag([phi, field, psi])
    flat = ExactMatrix._from_rows(k0.cols, k0._rows)
    layout = spec.block_layout()

    report = check_su2_invariance(k0, layout)
    assert not report.ok
    assert report == check_su2_invariance(flat, layout)
    assert report == whole_space_invariance(flat, theory_generators(spec))
    start = phi.rows + flavor * auto.rows
    assert all(start <= i < start + auto.rows and start <= j < start + auto.rows
               for _, entries in report.violations for i, j in entries)
    # the check keeps no state: a second one gives the same report
    assert check_su2_invariance(k0, layout) == report


def test_stored_blocks_that_end_inside_a_layout_block_are_checked_whole():
    # one spin-1 block of three components over _blockdiag blocks of one
    # and two rows that do not fit the layout: K0 is checked by its
    # entries, as its flat copy is
    k0 = _blockdiag([ExactMatrix.diagonal([1]), ExactMatrix.diagonal([2, 3])])
    report = check_su2_invariance(k0, (2,))
    assert report == check_su2_invariance(ExactMatrix.diagonal([1, 2, 3]), (2,))
    assert report.failing_axes == ("x", "y", "z")


# -- triviality of the kinematic term ----------------------------------------


def test_wrong_parity_term_vanishes():
    anti = ExactMatrix([[Scalar(0), I], [-I, Scalar(0)]])
    sym = ExactMatrix.identity(4)
    assert kinematic_term_is_trivial(anti, "fermi")
    assert not kinematic_term_is_trivial(anti, "bose")
    assert kinematic_term_is_trivial(sym, "bose")
    assert not kinematic_term_is_trivial(sym, "fermi")


def test_mixed_matrix_never_trivial():
    mixed = ExactMatrix([[Scalar(0), Scalar(1)], [Scalar(2), Scalar(0)]])
    assert not kinematic_term_is_trivial(mixed, "bose")
    assert not kinematic_term_is_trivial(mixed, "fermi")


def test_zero_matrix_always_trivial():
    z = ExactMatrix.zeros(3, 3)
    assert kinematic_term_is_trivial(z, "bose")
    assert kinematic_term_is_trivial(z, "fermi")


def test_trivial_rejects_unknown_statistics():
    with pytest.raises(ValueError):
        kinematic_term_is_trivial(ExactMatrix.identity(2), "parastatistics")


@pytest.mark.parametrize("two_j", range(0, 5))
def test_spin_forces_statistics_through_triviality(two_j):
    # the built kinematic matrix survives exactly for one choice of statistics
    spin = Fraction(two_j, 2)
    copies = 1 if two_j % 2 else 2
    spec = theory(f"theory t\nfield f spin={spin} copies={copies}")
    k = build_kinematic(spec).kinematic.matrix
    surviving = "fermi" if two_j % 2 else "bose"
    dying = "bose" if two_j % 2 else "fermi"
    assert not kinematic_term_is_trivial(k, surviving)
    assert kinematic_term_is_trivial(k, dying)


@given(square_matrices())
def test_triviality_matches_transpose_decomposition(m):
    # independent route: expanding in placeholder fields must agree with
    # killing the symmetric or antisymmetric part wholesale, as momentum_map does
    for statistics in ("bose", "fermi"):
        assert (kinematic_term_is_trivial(m, statistics)
                == momentum_map(m, statistics).is_zero())


# -- momentum map -------------------------------------------------------------


def test_momentum_map_pins():
    k = ExactMatrix([[Scalar(0), I], [-I, Scalar(0)]])
    assert momentum_map(k, "bose") == -k
    assert momentum_map(k, "fermi") == ExactMatrix.zeros(2, 2)
    s = ExactMatrix.identity(2)
    assert momentum_map(s, "fermi") == s
    assert momentum_map(s, "bose") == ExactMatrix.zeros(2, 2)


@given(any_mirrored_matrix)
def test_momentum_map_matches_the_built_transpose_sum(m):
    for statistics in ("bose", "fermi"):
        assert momentum_map(m, statistics) == momentum_map_by_transpose(m, statistics)


def test_momentum_map_rejects_unknown_statistics():
    with pytest.raises(ValueError):
        momentum_map(ExactMatrix.identity(2), "neither")


# -- constraint split ---------------------------------------------------------


def wave_operator_kinematic():
    # scalar coupled to its gradient: only the (field, velocity) pair is
    # dynamical, the three gradient components are constraints
    rows = 5
    data = [[Scalar(0)] * rows for _ in range(rows)]
    data[0][1] = I
    data[1][0] = -I
    return ExactMatrix(data)


def test_wave_operator_split():
    split = constraint_split(wave_operator_kinematic(), "bose")
    assert split.canonical_indices == (0, 1)
    assert split.constraint_indices == (2, 3, 4)
    assert split.nonsingular_block == ExactMatrix(
        [[Scalar(0), I], [-I, Scalar(0)]]
    )


def test_zero_momentum_map_means_all_constraints():
    split = constraint_split(ExactMatrix.identity(4), "bose")
    assert split.canonical_indices == ()
    assert split.constraint_indices == (0, 1, 2, 3)
    assert split.nonsingular_block is None
    assert momentum_map(ExactMatrix.identity(4), "bose") == ExactMatrix.zeros(4)


def test_full_rank_antisymmetric_has_no_constraints():
    k = ExactMatrix([[Scalar(0), I], [-I, Scalar(0)]])
    split = constraint_split(k, "bose")
    assert split.canonical_indices == (0, 1)
    assert split.constraint_indices == ()
    assert split.nonsingular_block == k


def test_symmetric_split_uses_pair_pivot():
    k = ExactMatrix([[Scalar(0), Scalar(1)], [Scalar(1), Scalar(0)]])
    split = constraint_split(k, "fermi")
    assert split.canonical_indices == (0, 1)
    assert momentum_map(k, "fermi").principal(split.canonical_indices) == k


def test_single_diagonal_pivot():
    k = ExactMatrix.diagonal([Scalar(1), Scalar(0)])
    split = constraint_split(k, "fermi")
    assert split.canonical_indices == (0,)
    assert split.constraint_indices == (1,)
    assert split.nonsingular_block == ExactMatrix.identity(1)


def test_schur_elimination_exposes_dependent_row():
    k = ExactMatrix(
        [
            [Scalar(1), Scalar(1), Scalar(0)],
            [Scalar(1), Scalar(1), Scalar(0)],
            [Scalar(0), Scalar(0), Scalar(0)],
        ]
    )
    split = constraint_split(k, "fermi")
    assert split.canonical_indices == (0,)
    assert split.constraint_indices == (1, 2)


def test_pivot_skips_leading_null_direction():
    k = ExactMatrix.diagonal([Scalar(0), Scalar(1), Scalar(0)])
    split = constraint_split(k, "fermi")
    assert split.canonical_indices == (1,)
    assert split.constraint_indices == (0, 2)


def test_split_is_the_pivot_set_not_the_leftmost_invertible_set():
    # the only nonzero diagonal entry is pivoted first, so the split is
    # {0, 2} although the principal block on {0, 1} is invertible too
    k = ExactMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    split = constraint_split(k, "fermi")
    assert split.canonical_indices == (0, 2)
    assert split.constraint_indices == (1,)
    restricted = momentum_map(k, "fermi").principal(split.canonical_indices)
    assert restricted == k.principal((0, 2))
    assert restricted.rank() == 2
    assert k.principal((0, 1)).rank() == 2


def test_majorana_statistics_decide_dynamics():
    spec = theory("theory t\nfield psi spin=1/2")
    k = build_kinematic(spec).kinematic.matrix
    fermi = constraint_split(k, "fermi")
    assert fermi.canonical_indices == (0, 1, 2, 3)
    assert fermi.nonsingular_block == ExactMatrix.identity(4)
    bose = constraint_split(k, "bose")
    assert bose.canonical_indices == ()


@given(hermitian_matrices(), st.sampled_from(["bose", "fermi"]))
def test_split_counts_match_rank(m, statistics):
    split = constraint_split(m, statistics)
    p = momentum_map(m, statistics)
    assert len(split.canonical_indices) == len(dense_rref([list(r) for r in p])[1])
    combined = sorted(split.canonical_indices + split.constraint_indices)
    assert combined == list(range(m.rows))
    if split.canonical_indices:
        restricted = [list(r) for r in p.principal(split.canonical_indices)]
        assert dense_inverse(restricted) is not None
    assert constraint_split(m, statistics) == split


def test_split_result_shape():
    split = constraint_split(wave_operator_kinematic(), "bose")
    assert isinstance(split, ConstraintSplit)
    assert split._fields == ("statistics", "canonical_indices",
                             "constraint_indices", "nonsingular_block")
    assert split.statistics == "bose"
    assert momentum_map(wave_operator_kinematic(), "bose") == -wave_operator_kinematic()


@given(classed_matrices(), st.sampled_from(["bose", "fermi"]))
def test_split_matches_a_split_of_the_built_momentum_map(k0, statistics):
    # zero, symmetric, antisymmetric and mostly mixed K0s, so each
    # statistics meets K0s of the class it keeps, of the class it drops,
    # zero ones and mixed ones; a K0 of the kept class is split in place,
    # every other one through its momentum map, and both must agree with
    # pivoting the built (K0^T -+ K0)/2
    canonical = pivoted_elimination(momentum_map_by_transpose(k0, statistics))[0]
    split = constraint_split(k0, statistics)
    assert split.canonical_indices == canonical
    assert split.constraint_indices == tuple(
        i for i in range(k0.rows) if i not in canonical)
    assert split.nonsingular_block == (k0.principal(canonical) if canonical else None)


def test_kept_class_split_shares_k0():
    k = ExactMatrix([[0, 1], [-1, 0]])
    assert constraint_split(k, "bose").nonsingular_block is k
    assert k.principal(range(2)) is k
    assert k.principal((0, 1)) is k
    assert k.principal((1, 0)) == ExactMatrix([[0, -1], [1, 0]])


def test_kept_class_split_builds_only_its_block(monkeypatch):
    # the wave operator has the class bose keeps: it is neither negated
    # nor transposed, and restricted once, to the nonsingular block
    k = wave_operator_kinematic()
    restricted = []
    real = ExactMatrix.submatrix

    def counting(m, rows, cols):
        restricted.append(m)
        return real(m, rows, cols)

    def refuse(m):
        raise AssertionError("a copy of K0 built")

    monkeypatch.setattr(ExactMatrix, "submatrix", counting)
    monkeypatch.setattr(ExactMatrix, "__neg__", refuse)
    monkeypatch.setattr(ExactMatrix, "transpose", refuse)
    split = constraint_split(k, "bose")
    assert split.canonical_indices == (0, 1)
    assert len(restricted) == 1 and restricted[0] is k


# -- self-checks --------------------------------------------------------------


@pytest.fixture
def drop_last_pivot(monkeypatch):
    """Make the elimination lose its last pivot, as a kernel defect would."""
    real = invariance.pivoted_elimination

    def dropped(m):
        indices, blocks = real(m)
        return indices[:-1], blocks[:-1]

    monkeypatch.setattr(invariance, "pivoted_elimination", dropped)


@pytest.mark.self_check
def test_dropped_pivot_raises_self_check_error(drop_last_pivot):
    # written without assert statements so it also checks under python -O
    with pytest.raises(SelfCheckError, match="full-rank principal block"):
        constraint_split(wave_operator_kinematic(), "bose")
    # singular, so the split runs the pivoting rather than the full-rank path
    with pytest.raises(SelfCheckError, match="no pivot"):
        constraint_split(ExactMatrix([[1, 0], [0, 0]]), "fermi")


@pytest.fixture
def swap_in_a_constraint(monkeypatch):
    """Make the elimination return an index set of the right size on which
    the momentum map is singular: its last pivot is traded for the first
    constraint index."""
    real = invariance.pivoted_elimination

    def swapped(m):
        indices, blocks = real(m)
        spare = min(set(range(m.rows)) - set(indices))
        return tuple(sorted(indices[:-1] + (spare,))), blocks

    monkeypatch.setattr(invariance, "pivoted_elimination", swapped)


@pytest.mark.self_check
def test_singular_pivot_set_raises_self_check_error(swap_in_a_constraint):
    # written without assert statements so it also checks under python -O;
    # the wave operator's split (0, 1) becomes (0, 2), where P is zero
    with pytest.raises(SelfCheckError, match="full-rank principal block"):
        constraint_split(wave_operator_kinematic(), "bose")


@pytest.fixture
def claim_every_index(monkeypatch):
    """Make the elimination return every index as its pivot set, as if the
    momentum map were invertible."""
    real = invariance.pivoted_elimination

    def everything(m):
        return tuple(range(m.rows)), real(m)[1]

    monkeypatch.setattr(invariance, "pivoted_elimination", everything)


@pytest.mark.self_check
def test_full_pivot_set_of_a_singular_map_raises_self_check_error(
        claim_every_index):
    # written without assert statements so it also checks under python -O;
    # every index is claimed canonical, but the wave operator's P has rank 2
    with pytest.raises(SelfCheckError, match="full-rank principal block"):
        constraint_split(wave_operator_kinematic(), "bose")


@pytest.fixture
def claim_full_modular_rank(monkeypatch):
    """Make the modular rank report every matrix as invertible, as a
    defect in its elimination could."""
    monkeypatch.setattr(ExactMatrix, "modular_rank", lambda m: m.rows)


@pytest.mark.self_check
def test_full_rank_claim_on_odd_bose_map_raises_self_check_error(
        claim_full_modular_rank):
    # written without assert statements so it also checks under python -O;
    # an antisymmetric map of odd size is singular, so its claimed full
    # rank contradicts the parity
    k0 = ExactMatrix([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    with pytest.raises(SelfCheckError, match="odd size"):
        constraint_split(k0, "bose")


@pytest.fixture
def claim_odd_rank(monkeypatch):
    """Make the rank of a rank-deficient matrix come out one too high, as a
    defect in the exact elimination could."""
    real = ExactMatrix.rank

    def one_more(m):
        r = real(m)
        return r + 1 if r < min(m.rows, m.cols) else r

    monkeypatch.setattr(ExactMatrix, "rank", one_more)


@pytest.mark.self_check
def test_odd_rank_of_a_singular_bose_map_raises_self_check_error(claim_odd_rank):
    # written without assert statements so it also checks under python -O;
    # the wave operator's antisymmetric P has rank 2 of 4, claimed as 3
    with pytest.raises(SelfCheckError, match="odd size"):
        constraint_split(wave_operator_kinematic(), "bose")


def test_self_check_error_is_not_a_value_error():
    assert not issubclass(SelfCheckError, ValueError)


def test_cli_exits_4_on_a_failed_self_check(drop_last_pivot, capsys):
    assert cli.main(["dkp-check"]) == 4
    assert "internal self-check failed" in capsys.readouterr().err


def test_self_check_survives_python_O():
    nodes = [f"{__file__}::{name}" for name in (
        "test_dropped_pivot_raises_self_check_error",
        "test_singular_pivot_set_raises_self_check_error",
        "test_full_pivot_set_of_a_singular_map_raises_self_check_error",
        "test_full_rank_claim_on_odd_bose_map_raises_self_check_error",
        "test_odd_rank_of_a_singular_bose_map_raises_self_check_error")]
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", *nodes],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "5 passed" in proc.stdout
