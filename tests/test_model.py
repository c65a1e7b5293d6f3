import json
import os
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import invariant_form_space, theory_generators, two_loop_build_kinematic
from spinstat import model
from spinstat.algebra import MAX_LITERAL_DIGITS, ExactMatrix, ParseError, Scalar
from spinstat.model import (
    MAX_DIMENSION,
    MAX_MATRIX_BYTES,
    MAX_TWO_J,
    NOTE_NO_FORM,
    NOTE_NOT_UNIQUE,
    FieldSpec,
    TheoryParseError,
    TheorySpec,
    _form_space_dims,
    build_kinematic,
    parse_theory,
)
from spinstat.report import analyze_theory
from spinstat.su2 import hermitian_basis


# explicit matrix paths of the parse-error cases resolve here
GOLDEN = pathlib.Path(__file__).parent / "golden"


def parse(text, base_dir="."):
    return parse_theory(text, base_dir)


# -- parsing ------------------------------------------------------------------


def test_parse_minimal_defaults():
    spec = parse("theory t\nfield phi spin=0\n")
    assert spec.name == "t"
    (f,) = spec.fields
    assert (f.name, f.two_j, f.flavors, f.copies) == ("phi", 0, 1, 1)
    assert f.statistics == "auto"
    assert spec.explicit_matrix is None
    assert spec.flavor_mode == "diagonal"
    assert spec.dimension == 1


def test_parse_comments_and_blank_lines():
    spec = parse("# a scalar pair\ntheory t\n\nfield phi spin=0 copies=2  # doubled\n")
    assert spec.fields[0].copies == 2


def test_parse_half_integer_realifies_components():
    spec = parse("theory t\nfield psi spin=1/2\n")
    assert spec.fields[0].component_dimension == 4
    assert spec.dimension == 4


def test_parse_full_attribute_set():
    spec = parse(
        "theory t\nfield a spin=3/2 flavors=2 copies=1 hermitian=true statistics=fermi\n"
    )
    f = spec.fields[0]
    assert f.spin == Fraction(3, 2)
    assert f.flavors == 2 and f.statistics == "fermi"
    assert spec.dimension == 2 * 8


# text, a fragment of the error, and the line it names (0: the whole file)
PARSE_ERRORS = [
    ("field phi spin=0\n", "missing theory", 0),
    ("theory t\n", "no fields", 0),
    ("theory t\ntheory u\nfield a spin=0\n", "duplicate theory", 2),
    ("theory t\nfield a spin=0\nfield a spin=1\n", "duplicate field", 3),
    ("theory t\nfield a spin=2/3\n", "integer or half-integer", 2),
    ("theory t\nfield a spin=9/2\n", "outside the supported range", 2),
    ("theory t\nfield a spin=1/0\n", "line 2: spin '1/0' has a zero denominator", 2),
    # refused before the integer is built, not while printing it
    ("theory t\nfield a spin=1e100000\n",
     "line 2: literal '1e100000' exceeds 4300 digits", 2),
    ("theory t\nfield x spin=1 copies=2 flavors=99999999999\n",
     "line 2: theory has 599999999994 components, over the supported maximum", 2),
    ("theory t\nfield a spin=0 hermitian=false\n", "annihilation", 2),
    ("theory t\nfield a spin=0 statistics=maybe\n", "statistics", 2),
    ("theory t\nfield a spin=0 charge=1\n", "unknown field attribute", 2),
    ("theory t\nfield a spin=0\nbanana split\n", "unknown directive", 3),
    ("theory t\nfield a spin=0\nkinematic auto\nkinematic auto\n",
     "duplicate kinematic", 4),
    ("theory t\nfield a spin=0\nflavor sideways\n", "flavor must be", 3),
    # the rules of the pair and of an explicit matrix name the field or
    # the kinematic line they refuse; mixed_constraints.k0 is 4x4
    ("theory t\nfield a spin=0\nflavor antisymmetric-pair\n", "flavors=2", 2),
    ("theory t\nfield a spin=0 flavors=2\nkinematic explicit mixed_constraints.k0\n"
     "flavor antisymmetric-pair\n", "antisymmetric-pair and an explicit matrix conflict", 3),
    ("theory t\nfield a spin=0\nkinematic explicit mixed_constraints.k0\n",
     "explicit matrix is 4x4 but the theory has 1 components", 3),
    ("theory t\nfield a spin=0\n\nkinematic explicit missing.k0\n",
     "cannot read matrix file 'missing.k0'", 4),
    ("theory t\nfield a spin=0 flavors=0\n", ">= 1", 2),
    ("theory t\nfield a spin=0\nkinematic explicit\n", "needs a path", 3),
]


# a case's id names its text and fragment, not its line
@pytest.mark.parametrize("text,fragment,line", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in PARSE_ERRORS])
def test_parse_errors(text, fragment, line):
    with pytest.raises(TheoryParseError) as err:
        parse(text, base_dir=GOLDEN)
    assert fragment in str(err.value)
    assert err.value.line == line


def test_parse_error_reports_line_number():
    with pytest.raises(TheoryParseError) as err:
        parse("theory t\nfield a spin=bad\n")
    assert err.value.line == 2
    assert str(err.value).startswith("line 2:")
    # one typed parse error for both grammars
    assert isinstance(err.value, ParseError)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("attr", ["flavors=abc", "copies=1.5", "flavors="])
def test_non_integer_counts_report_line_number(attr):
    with pytest.raises(TheoryParseError) as err:
        parse(f"theory t\nfield a spin=0 {attr}\n")
    assert err.value.line == 2
    assert "must be an integer" in str(err.value)


def test_dimension_bound_counts_the_running_total():
    # 1000 + 24 components sit exactly on the bound; the next field crosses it
    text = ("theory t\nfield a spin=0 flavors=1000\n"
            "field b spin=1/2 copies=3 flavors=2\n")
    assert parse(text).dimension == MAX_DIMENSION
    with pytest.raises(TheoryParseError) as err:
        parse(text + "field c spin=0\n")
    assert err.value.line == 4
    assert f"{MAX_DIMENSION + 1} components" in str(err.value)


def test_fields_past_the_dimension_bound_are_not_built(monkeypatch):
    # each field has a component, so the refusal at the (MAX_DIMENSION + 1)-th
    # field line needs no later field
    built = []

    def counting(rest, line_no):
        built.append(line_no)
        return parse_field(rest, line_no)

    parse_field = model._parse_field
    monkeypatch.setattr(model, "_parse_field", counting)
    fields = "".join(f"field f{k} spin=0\n" for k in range(MAX_DIMENSION + 100))
    with pytest.raises(TheoryParseError) as err:
        parse("theory t\n" + fields)
    assert err.value.line == MAX_DIMENSION + 2
    assert f"{MAX_DIMENSION + 1} components" in str(err.value)
    assert len(built) == MAX_DIMENSION + 1


def test_explicit_matrix_loads_and_validates(tmp_path):
    (tmp_path / "k.json").write_text('[["0", "0+1i"], ["0-1i", "0"]]')
    spec = parse(
        "theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n",
        base_dir=tmp_path,
    )
    assert spec.explicit_matrix == ExactMatrix([["0", "0+1i"], ["0-1i", "0"]])

    with pytest.raises(TheoryParseError) as err:
        parse("theory t\nfield phi spin=0\nkinematic explicit k.json\n",
              base_dir=tmp_path)
    assert "2x2" in str(err.value) and "1 components" in str(err.value)

    with pytest.raises(TheoryParseError) as err:
        parse("theory t\nfield phi spin=0\nkinematic explicit missing.json\n",
              base_dir=tmp_path)
    assert "cannot read" in str(err.value)

    (tmp_path / "zero.json").write_text('[["1/0"]]')
    with pytest.raises(TheoryParseError) as err:
        parse("theory t\nfield phi spin=0\nkinematic explicit zero.json\n",
              base_dir=tmp_path)
    assert "zero denominator" in str(err.value)

    for literal in ("1e5000", "1e-5000"):
        (tmp_path / "huge.json").write_text(f'[["{literal}"]]')
        with pytest.raises(TheoryParseError) as err:
            parse("theory t\nfield phi spin=0\nkinematic explicit huge.json\n",
                  base_dir=tmp_path)
        assert "bad matrix file 'huge.json'" in str(err.value)
        assert "exceeds 4300 digits" in str(err.value)

    (tmp_path / "float.json").write_text('[[1.5]]')
    with pytest.raises(TheoryParseError, match="bad matrix file 'float.json': "
                       "cannot interpret 1.5 as a scalar"):
        parse("theory t\nfield phi spin=0\nkinematic explicit float.json\n",
              base_dir=tmp_path)


def test_explicit_matrix_shape_is_refused_before_any_entry_is_read(
        tmp_path, monkeypatch):
    (tmp_path / "k.json").write_text('[["1/3", "0", "2"], ["0", "1", "0"], ["2", "0", "1"]]')

    def refuse(value):
        raise AssertionError(f"entry {value!r} converted")

    monkeypatch.setattr(Scalar, "coerce", staticmethod(refuse))
    with pytest.raises(TheoryParseError) as err:
        parse("theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n",
              base_dir=tmp_path)
    assert str(err.value) == ("line 3: explicit matrix is 3x3 but the theory "
                              "has 2 components")
    # a ragged file is refused by its rows too
    (tmp_path / "k.json").write_text('[["1", "0"], ["0", "1", "0"]]')
    with pytest.raises(TheoryParseError, match="bad matrix file 'k.json': ragged rows"):
        parse("theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n",
              base_dir=tmp_path)


def test_explicit_matrix_file_over_the_byte_bound_is_not_read(tmp_path, monkeypatch):
    # os.truncate makes a sparse file of that size; no byte of it is written
    # or read, since the refusal needs only its size
    path = tmp_path / "k.json"
    path.write_text('[["0", "1"], ["-1", "0"]]')
    os.truncate(path, MAX_MATRIX_BYTES + 1)

    def refuse(text):
        raise AssertionError("matrix text parsed")

    monkeypatch.setattr(model, "_json_nesting", refuse)
    with pytest.raises(TheoryParseError) as err:
        parse("theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n",
              base_dir=tmp_path)
    assert err.value.line == 3
    assert str(err.value) == (f"line 3: matrix file 'k.json' has {MAX_MATRIX_BYTES + 1} "
                              f"bytes, over the maximum {MAX_MATRIX_BYTES}")
    # a file at the bound is read where the theory's dimension allows it:
    # from 45 components on, MAX_MATRIX_BYTES is the smaller bound
    os.truncate(path, MAX_MATRIX_BYTES)
    with pytest.raises(AssertionError, match="matrix text parsed"):
        parse("theory t\nfield phi spin=0 copies=64\nkinematic explicit k.json\n",
              base_dir=tmp_path)


def test_explicit_matrix_file_over_the_dimension_bound_is_not_read(tmp_path, monkeypatch):
    # two components bound the file far below MAX_MATRIX_BYTES
    limit = model._matrix_byte_bound(2)
    assert limit == 4 * model.MATRIX_ENTRY_BYTES + model.MATRIX_SPACE_BYTES
    assert model._matrix_byte_bound(44) < MAX_MATRIX_BYTES == model._matrix_byte_bound(45)
    theory = "theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n"
    # the bound leaves room for entries whose two parts have
    # MAX_LITERAL_DIGITS digits each, written with indentation
    half = MAX_LITERAL_DIGITS // 2
    part = "9" * half + "/" + "7" * half
    big = f"-{part}+{part}i"
    (tmp_path / "k.json").write_text(json.dumps([[big, big], [big, big]], indent=4))
    assert os.path.getsize(tmp_path / "k.json") < limit
    assert parse(theory, base_dir=tmp_path).explicit_matrix[0, 0] == Scalar.parse(big)

    def refuse(text):
        raise AssertionError("matrix text parsed")

    monkeypatch.setattr(model, "_json_nesting", refuse)
    path = tmp_path / "k.json"
    os.truncate(path, limit + 1)
    with pytest.raises(TheoryParseError) as err:
        parse(theory, base_dir=tmp_path)
    assert str(err.value) == (f"line 3: matrix file 'k.json' has {limit + 1} "
                              f"bytes, over the maximum {limit}")
    os.truncate(path, limit)
    with pytest.raises(AssertionError, match="matrix text parsed"):
        parse(theory, base_dir=tmp_path)


def test_explicit_matrix_path_that_is_no_regular_file_is_not_opened(tmp_path):
    # a FIFO reports size 0 and would block the open until a writer came;
    # a directory has no matrix either
    os.mkfifo(tmp_path / "pipe.json")
    (tmp_path / "dir.json").mkdir()
    for name in ("pipe.json", "dir.json"):
        with pytest.raises(TheoryParseError) as err:
            parse(f"theory t\nfield phi spin=0\nkinematic explicit {name}\n",
                  base_dir=tmp_path)
        assert str(err.value) == f"line 3: matrix file {name!r} is not a regular file"


def test_antisymmetric_pair_conflicts_with_explicit(tmp_path):
    (tmp_path / "k.json").write_text('[["0", "1"], ["-1", "0"]]')
    with pytest.raises(TheoryParseError) as err:
        parse(
            "theory t\nfield phi spin=0 flavors=2\n"
            "kinematic explicit k.json\nflavor antisymmetric-pair\n",
            base_dir=tmp_path,
        )
    assert "conflict" in str(err.value)
    assert err.value.line == 3
    # refused from the directives, before the matrix file is read, at the
    # kinematic line
    with pytest.raises(TheoryParseError, match="^line 4: .*conflict"):
        parse("theory t\nfield phi spin=0 flavors=2\n"
              "flavor antisymmetric-pair\nkinematic explicit missing.json\n",
              base_dir=tmp_path)


PAIR = "antisymmetric-pair"


@pytest.mark.parametrize("spec,message", [
    (TheorySpec("t", (FieldSpec("a", 0, 3, 1),), flavor_mode=PAIR),
     "antisymmetric-pair needs flavors=2 on every field (a has 3)"),
    (TheorySpec("t", ()), "theory has no fields"),
    (TheorySpec("t", (FieldSpec("a", 0, 2),), ExactMatrix([[0, 1], [-1, 0]]), PAIR),
     "choose one way to fix the flavor structure: "
     "antisymmetric-pair and an explicit matrix conflict"),
    (TheorySpec("t", (FieldSpec("a", 0, copies=2),), ExactMatrix([[1]])),
     "explicit matrix is 1x1 but the theory has 2 components"),
    # the per-field bounds: before them, flavors 0 raised a bare
    # DimensionError, copies 0 came back NO_KINEMATIC_TERM for a field with
    # no components, and spin 6 was analyzed to CONSISTENT
    (TheorySpec("t", (FieldSpec("a", 0, 0, 2),)),
     "field a: flavors and copies must be >= 1"),
    (TheorySpec("t", (FieldSpec("a", 0, 1, 0),)),
     "field a: flavors and copies must be >= 1"),
    (TheorySpec("t", (FieldSpec("a", 12, 1, 2),)),
     f"field a: spin 6 is outside the supported range 0 to {MAX_TWO_J // 2}"),
    (TheorySpec("t", (FieldSpec("a", -1),)),
     f"field a: spin -1/2 is outside the supported range 0 to {MAX_TWO_J // 2}"),
    (TheorySpec("t", (FieldSpec("a", 0, MAX_DIMENSION), FieldSpec("b", 0))),
     f"theory has {MAX_DIMENSION + 1} components, over the supported "
     f"maximum {MAX_DIMENSION}"),
    # the field rules of the grammar: before them, statistics "boson" raised
    # a bare KeyError, flavor mode "pairs" was analyzed as diagonal, and a
    # name with a space and a repeated name were analyzed as given
    (TheorySpec("t", (FieldSpec("a", 3, 1, 1, "boson"),)),
     "field a: statistics must be auto, bose or fermi, got 'boson'"),
    (TheorySpec("t", (FieldSpec("a", 0, 2),), flavor_mode="pairs"),
     "flavor must be diagonal or antisymmetric-pair, got 'pairs'"),
    (TheorySpec("t", (FieldSpec("a b", 0),)), "bad field name 'a b'"),
    (TheorySpec("t", (FieldSpec("a", 0), FieldSpec("a", 2))),
     "duplicate field 'a'"),
    # the theory name and the field types: before them, theory "a b" was
    # analyzed as given, field name 3 raised a bare AttributeError, and a
    # float 2j or flavors count a bare TypeError
    (TheorySpec("a b", (FieldSpec("x", 0),)), "bad theory name 'a b'"),
    (TheorySpec(None, (FieldSpec("x", 0),)), "bad theory name None"),
    (TheorySpec("t", (FieldSpec(3, 0),)), "bad field name 3"),
    (TheorySpec("t", (FieldSpec("x", 1.0),)),
     "field x: two_j must be an int, got 1.0"),
    (TheorySpec("t", (FieldSpec("x", 0, flavors=2.0),)),
     "field x: flavors must be an int, got 2.0"),
    (TheorySpec("t", (FieldSpec("x", 0, copies=True),)),
     "field x: copies must be an int, got True"),
], ids=["pair-flavors", "no-fields", "pair-explicit", "matrix-shape",
        "flavors-zero", "copies-zero", "spin-over", "spin-negative",
        "dimension-over", "statistics-unknown", "flavor-mode-unknown",
        "name-bad", "name-duplicate", "theory-name-bad", "theory-name-none",
        "name-not-str", "two-j-float", "flavors-float", "copies-bool"])
def test_spec_built_in_code_meets_the_theory_checks(spec, message):
    # the rules and bounds parse_theory applies hold for a spec that never
    # passed through it, each a TheoryParseError at line 0
    with pytest.raises(TheoryParseError) as err:
        analyze_theory(spec)
    assert err.value.line == 0
    assert str(err.value) == f"line 0: {message}"


def test_index_map_layout():
    spec = parse("theory t\nfield phi spin=0 copies=2\nfield psi spin=1/2\n")
    assert spec.index_map() == (
        "phi.c0.0", "phi.c1.0", "psi.0", "psi.1", "psi.2", "psi.3",
    )
    spec2 = parse("theory t\nfield phi spin=0 flavors=2\n")
    assert spec2.index_map() == ("phi.f0.0", "phi.f1.0")


def test_block_layout_lists_each_flavor_and_copy_block():
    spec = parse("theory t\nfield phi spin=0 copies=2\n"
                 "field a spin=1 flavors=2 copies=2\nfield psi spin=1/2\n")
    assert spec.block_layout() == (0, 0, 2, 2, 2, 2, 1)
    sizes = {0: 1, 1: 4, 2: 3}
    assert sum(sizes[t] for t in spec.block_layout()) == spec.dimension


# -- generators ---------------------------------------------------------------


def test_generators_trivial_for_scalars():
    spec = parse("theory t\nfield phi spin=0 copies=2\n")
    for g in theory_generators(spec):
        assert g == ExactMatrix.zeros(2)


def test_generators_match_hermitian_basis():
    spec = parse("theory t\nfield psi spin=1/2\n")
    assert theory_generators(spec) == hermitian_basis(Fraction(1, 2)).generators


def test_generators_block_structure():
    spec = parse("theory t\nfield phi spin=0\nfield v spin=1\n")
    gens = theory_generators(spec)
    h = hermitian_basis(1)
    for g, hg in zip(gens, h.generators):
        assert g.shape == (4, 4)
        assert g[0, 0].is_zero
        assert g.submatrix(range(1, 4), range(1, 4)) == hg


# -- kinematic construction ---------------------------------------------------


def test_build_single_scalar_has_no_form():
    build = build_kinematic(parse("theory t\nfield phi spin=0\n"))
    assert build.status == "no_form"
    assert build.note == NOTE_NO_FORM
    assert build.kinematic is None


def test_build_doubled_scalar_is_pinned_matrix():
    build = build_kinematic(parse("theory t\nfield phi spin=0 copies=2\n"))
    assert build.status == "built"
    assert build.kinematic.matrix == ExactMatrix([["0", "0+1i"], ["0-1i", "0"]])
    assert build.kinematic.index_map == ("phi.c0.0", "phi.c1.0")


def test_build_doubled_vector():
    build = build_kinematic(parse("theory t\nfield v spin=1 copies=2\n"))
    eye = ExactMatrix.identity(3)
    z = ExactMatrix.zeros(3)
    i_eye = eye.scale(ExactMatrix([["0+1i"]])[0, 0])
    expected = ExactMatrix([[*z.row(r), *i_eye.row(r)] for r in range(3)]
                           + [[*(-i_eye).row(r), *z.row(r)] for r in range(3)])
    assert build.kinematic.matrix == expected


def test_build_majorana_is_identity():
    build = build_kinematic(parse("theory t\nfield psi spin=1/2\n"))
    assert build.kinematic.matrix == ExactMatrix.identity(4)


def test_build_spin_three_half_weights():
    build = build_kinematic(parse("theory t\nfield psi spin=3/2\n"))
    assert build.kinematic.matrix == ExactMatrix.diagonal([1, 3, 3, 1, 1, 3, 3, 1])


def test_build_three_copies_not_unique():
    build = build_kinematic(parse("theory t\nfield phi spin=0 copies=3\n"))
    assert build.status == "not_unique"
    assert build.note == NOTE_NOT_UNIQUE


def test_build_flavor_antisymmetric_scalar():
    build = build_kinematic(parse(
        "theory t\nfield phi spin=0 flavors=2\nflavor antisymmetric-pair\n"))
    assert build.kinematic.matrix == ExactMatrix([[0, 1], [-1, 0]])


def test_build_flavor_antisymmetric_vector():
    build = build_kinematic(parse(
        "theory t\nfield v spin=1 flavors=2\nflavor antisymmetric-pair\n"))
    eye = ExactMatrix.identity(3)
    z = ExactMatrix.zeros(3)
    assert build.kinematic.matrix == ExactMatrix(
        [[*z.row(r), *eye.row(r)] for r in range(3)]
        + [[*(-eye).row(r), *z.row(r)] for r in range(3)])


def test_build_flavor_antisymmetric_spinor_is_ambiguous():
    build = build_kinematic(parse(
        "theory t\nfield psi spin=1/2 flavors=2\nflavor antisymmetric-pair\n"))
    assert build.status == "not_unique"


def test_build_charged_scalar_two_flavors():
    build = build_kinematic(parse("theory t\nfield phi spin=0 flavors=2 copies=2\n"))
    m = build.kinematic.matrix
    assert m.shape == (4, 4)
    pair = ExactMatrix([["0", "0+1i"], ["0-1i", "0"]])
    assert m.submatrix(range(2), range(2)) == pair
    assert m.submatrix(range(2, 4), range(2, 4)) == pair
    assert m.submatrix(range(2), range(2, 4)).is_zero()


def test_build_explicit_passthrough(tmp_path):
    (tmp_path / "k.json").write_text('[["0", "0+1i"], ["0-1i", "0"]]')
    spec = parse("theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n",
                 base_dir=tmp_path)
    build = build_kinematic(spec)
    assert build.status == "built"
    assert build.kinematic.matrix == spec.explicit_matrix


@pytest.mark.parametrize(
    "text",
    [
        "theory t\nfield phi spin=0 copies=2\n",
        "theory t\nfield v spin=1 copies=2\n",
        "theory t\nfield w spin=2 copies=2\n",
        "theory t\nfield psi spin=1/2\n",
        "theory t\nfield psi spin=3/2\n",
        "theory t\nfield psi spin=1/2 flavors=2\n",
    ],
)
def test_built_kinematic_is_hermitian(text):
    build = build_kinematic(parse(text))
    assert build.kinematic.matrix.is_hermitian()


@pytest.mark.parametrize("two_j", [0, 1, 2, 3, 4, 5, 6, 7, 8])
def test_built_kinematic_is_rotation_invariant(two_j):
    # dual route: the assembled matrix satisfies the invariance equation
    # against the assembled generators, for every spin in the supported range
    copies = 2 if two_j % 2 == 0 else 1
    spec = parse(f"theory t\nfield a spin={two_j}/2 copies={copies}\n"
                 if two_j % 2 else
                 f"theory t\nfield a spin={two_j // 2} copies={copies}\n")
    build = build_kinematic(spec)
    k = build.kinematic.matrix
    zero = ExactMatrix.zeros(k.rows)
    for g in theory_generators(spec):
        assert g.transpose() @ k + k @ g == zero


# at most 8 components each, so the n^2-unknown solver stays fast; two
# copies of spin 3/2 would be 16
@pytest.mark.parametrize("two_j,copies",
                         [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_form_space_dims_match_the_generic_solver(two_j, copies):
    f = FieldSpec("f", two_j, copies=copies)
    outer = ExactMatrix.identity(copies)
    gens = [ExactMatrix.kron(outer, g) for g in hermitian_basis(f.spin).generators]
    space = invariant_form_space(gens)
    assert _form_space_dims(f) == (space.sym_dim, space.antisym_dim)


@st.composite
def auto_theories(draw):
    """1-3 fields with 2j 0-8, flavors and copies 1-3, in either flavor
    mode; the antisymmetric pair takes flavors=2, as parse_theory demands."""
    pair = draw(st.booleans())
    fields = tuple(
        FieldSpec(f"f{k}", draw(st.integers(0, MAX_TWO_J)),
                  2 if pair else draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        for k in range(draw(st.integers(1, 3))))
    return TheorySpec("t", fields,
                      flavor_mode="antisymmetric-pair" if pair else "diagonal")


@settings(max_examples=200)
@given(auto_theories())
def test_one_loop_builder_matches_the_two_loop_oracle(spec):
    build, expected = build_kinematic(spec), two_loop_build_kinematic(spec)
    assert (build.status, build.note, build.details) == (
        expected.status, expected.note, expected.details)
    if expected.kinematic is not None:
        assert build.kinematic.matrix == expected.kinematic.matrix
        assert build.kinematic.index_map == expected.kinematic.index_map
