import json
import pathlib
import sys
from fractions import Fraction
from importlib import resources
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinstat.algebra import (
    MAX_LITERAL_DIGITS,
    MODULAR_I,
    MODULUS,
    DimensionError,
    ExactMatrix,
    Scalar,
    SymmetryClass,
    _blockdiag,
    hermitian_signature,
    pivoted_elimination,
    symmetry_class,
    symmetry_decompose,
)
from spinstat.model import parse_theory
from spinstat.report import analyze_theory
from oracles import (
    FractionPair,
    charpoly,
    dense_add,
    dense_dagger,
    dense_kron,
    dense_matmul,
    dense_pivoted_elimination,
    dense_rref,
    dense_scale,
    dense_sub,
    dense_submatrix,
    dense_transpose,
    descartes_signature,
    leibniz_determinant,
    antisymmetric_by_transpose,
    hermitian_by_dagger,
    nullspace,
    symmetric_by_transpose,
    symmetry_class_by_halves,
)

# -- strategies -------------------------------------------------------------

small_fractions = st.builds(
    Fraction,
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=1, max_value=8),
)
scalars = st.builds(Scalar, small_fractions, small_fractions)


def square_matrices(n_max=4):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.lists(
            st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(ExactMatrix)
    )


# -- Scalar -----------------------------------------------------------------


def test_scalar_text_forms():
    assert str(Scalar(3)) == "3"
    assert str(Scalar(Fraction(-1, 2))) == "-1/2"
    assert str(Scalar(0, 1)) == "0+1i"
    assert str(Scalar(Fraction(3, 4), -2)) == "3/4-2i"
    assert str(Scalar(Fraction(-1, 2), Fraction(1, 3))) == "-1/2+1/3i"


def test_scalar_parse_pinned():
    assert Scalar.parse("0+1i") == Scalar(0, 1)
    assert Scalar.parse("-1/2+0i") == Scalar(Fraction(-1, 2))
    assert Scalar.parse("3/4-2i") == Scalar(Fraction(3, 4), -2)
    assert Scalar.parse("-i") == Scalar(0, -1)
    assert Scalar.parse("2/3i") == Scalar(0, Fraction(2, 3))
    assert Scalar.parse(" 1/2 - 1/2i ") == Scalar(Fraction(1, 2), Fraction(-1, 2))


def test_scalar_parse_rejects_garbage():
    for bad in ("", "one", "1+", "i2"):
        with pytest.raises(ValueError):
            Scalar.parse(bad)


# parts of every sign, zero and units among them, and numerators and
# denominators past 2**64
text_parts = (st.fractions() | st.sampled_from([0, 1, -1]).map(Fraction)
              | st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**80)))


@given(text_parts, text_parts)
def test_scalar_text_is_the_fraction_text_of_each_part(re, im):
    # a real value is written from its ints without a gcd, a complex one
    # part by part, each part as Fraction writes it
    assert str(Scalar(re)) == str(re)
    assert str(Scalar(re, im)) == str(FractionPair(re, im))


@given(scalars)
def test_scalar_text_roundtrip(x):
    assert Scalar.parse(str(x)) == x


def test_scalar_arithmetic_hand_values():
    a = Scalar(1, 2)
    b = Scalar(3, -1)
    assert a * b == Scalar(5, 5)
    assert a + b == Scalar(4, 1)
    assert a - b == Scalar(-2, 3)
    assert (a / b) * b == a
    assert a.conjugate() == Scalar(1, -2)


@given(scalars, scalars)
def test_scalar_division_roundtrip(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


def test_scalar_mixed_coercion():
    assert Scalar(1, 1) * 2 == Scalar(2, 2)
    assert 1 + Scalar(0, 1) == Scalar(1, 1)
    assert Scalar(3) / Fraction(3, 2) == Scalar(2)


def test_scalar_takes_text_as_fraction_does():
    # the constructors read literals; the operators, like Fraction's, do not
    assert Scalar("1/2") == Scalar.coerce("1/2") == Fraction(1, 2)
    for text in ("x", "1", "1/2", ""):
        assert Scalar(1) != text and not Scalar(1) == text
        assert (Fraction(1) == text) is False
        for op in ("+", "-", "*", "/"):
            for expr in (f"Scalar(1) {op} text", f"text {op} Scalar(1)"):
                with pytest.raises(TypeError):
                    eval(expr)


def test_scalar_hash_agrees_with_equal_numbers():
    assert len({Scalar(1), 1}) == 1
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {Scalar(0, 1): "i"}[Scalar.parse("0+1i")] == "i"


# Wide parts as well as small ones, so that sums and products cancel across
# large common factors and the gcd normalization has work to do.
wide_fractions = st.one_of(small_fractions, st.builds(
    Fraction,
    st.integers(min_value=-10**12, max_value=10**12),
    st.integers(min_value=1, max_value=10**6),
))
gaussian_pairs = st.tuples(wide_fractions, wide_fractions)


def assert_same_value(got, want: FractionPair):
    """got is a canonical Scalar equal to the oracle's value."""
    assert type(got) is Scalar
    assert got._d > 0 and gcd(got._a, got._b, got._d) == 1
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    assert str(got) == str(want)
    assert Scalar.parse(str(got)) == got
    assert hash(got) == hash(want)


@given(gaussian_pairs, gaussian_pairs)
def test_scalar_matches_the_fraction_pair_oracle(x, y):
    a, b = Scalar(*x), Scalar(*y)
    fa, fb = FractionPair(*x), FractionPair(*y)
    for got, want in ((a, fa), (b, fb), (a + b, fa + fb), (a - b, fa - fb),
                      (a * b, fa * fb), (-a, -fa), (a.conjugate(), fa.conjugate())):
        assert_same_value(got, want)
    if fb.abs2() == 0:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert_same_value(a / b, fa / fb)
    assert (a == b) == (fa == fb)
    assert bool(a) == (fa.abs2() != 0)


@given(wide_fractions, st.integers(min_value=-10**20, max_value=10**20))
def test_scalar_of_a_rational_equals_and_hashes_like_it(q, n):
    for x in (q, n):
        s = Scalar(x)
        assert s == x and x == s
        assert hash(s) == hash(x)
        assert Scalar.coerce(x) == s
        assert_same_value(s * x, FractionPair(x) * FractionPair(x))


@given(gaussian_pairs)
def test_scalar_is_immutable(x):
    s = Scalar(*x)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 1)
    assert (s.re, s.im) == x


def test_scalar_literal_size_is_bounded_before_it_is_built():
    assert MAX_LITERAL_DIGITS == 4300
    assert Scalar.parse("1e4299") == Scalar(10**4299)
    assert Scalar.parse("1e-4299") == Scalar(Fraction(1, 10**4299))
    assert str(Scalar.parse("1e4299")) == "1" + "0" * 4299
    for bad in ("1e5000", "1e-5000", "1e4300", "2.5e4299", "1" * 4301,
                "1/" + "3" * 4300, "1e99999999999999999999", "1+1e5000i"):
        with pytest.raises(ValueError, match="exceeds 4300 digits"):
            Scalar.parse(bad)


# Real literals within the size bound: plain ratios (the fast path), decimals
# with a short exponent, and short random text over the characters of the
# grammar, Unicode digits included (Fraction reads them through int()).
_digit_runs = st.text("0123456789", min_size=1, max_size=14)
_ratio_literals = st.builds(
    lambda sign, n, d: sign + n + ("" if d is None else "/" + d),
    st.sampled_from(["", "+", "-"]), _digit_runs, st.none() | _digit_runs)
_decimal_literals = st.builds(
    lambda sign, n, frac, e: f"{sign}{n}.{frac}" + ("" if e is None else f"e{e}"),
    st.sampled_from(["", "+", "-"]), _digit_runs, _digit_runs,
    st.none() | st.integers(-60, 60))
_rough_literals = st.text("0123456789+-/._ ٣١", max_size=12)
literals = _ratio_literals | _decimal_literals | _rough_literals


def _outcome(make, *args):
    """The value made, or the text of the ValueError raised instead."""
    try:
        return make(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _fraction_of(text: str) -> Fraction:
    """Fraction(text), with a zero denominator reported as spinstat does
    and a literal of more than MAX_LITERAL_DIGITS digits plus exponent
    refused."""
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    mantissa, _, exponent = text.lower().partition("e")
    if sum(map(str.isdecimal, mantissa)) + abs(int(exponent or 0)) > MAX_LITERAL_DIGITS:
        raise ValueError(f"literal {text!r} exceeds {MAX_LITERAL_DIGITS} digits "
                         f"(digits plus exponent)")
    return value


# Text with a long exponent that is no literal gets Fraction's own error;
# Fraction reads "92e96_09" from Python 3.11 on, and spinstat then refuses
# it by its size.
@example("e5491260", "92e96_09")
@example(".e5", "1")
@given(literals, literals)
def test_scalar_literals_agree_with_fraction(x, y):
    # the value, or the very ValueError text that Fraction gives
    want_x, want_y = _outcome(_fraction_of, x), _outcome(_fraction_of, y)
    assert _outcome(Scalar, x) == want_x
    # parse drops every space before it reads the literal
    t = x.replace(" ", "")
    want = _outcome(_fraction_of, t) if t else "ValueError: empty scalar literal"
    assert _outcome(Scalar.parse, x) == want
    got = _outcome(Scalar, x, y)
    if isinstance(want_x, str) or isinstance(want_y, str):
        assert got in (want_x, want_y)
    else:
        assert got._d > 0 and gcd(got._a, got._b, got._d) == 1
        assert (got.re, got.im) == (want_x, want_y)


@given(st.sampled_from(["", "-"]),
       st.integers(MAX_LITERAL_DIGITS + 1, MAX_LITERAL_DIGITS + 50),
       st.integers(1, MAX_LITERAL_DIGITS - 1),
       st.integers(MAX_LITERAL_DIGITS + 1, 10**12))
def test_scalar_refuses_oversized_literals_fraction_would_build(sign, digits, left, exponent):
    # Fraction reads each of these; spinstat refuses them before any int is
    # built, in both the constructor and parse, and accepts the bound itself
    for text in (sign + "7" * digits, f"{sign}1e{exponent}", f"{sign}2.5E-{exponent}",
                 sign + "1" * left + "/" + "3" * (digits - left)):
        for make in (Scalar, Scalar.parse):
            with pytest.raises(ValueError, match=f"exceeds {MAX_LITERAL_DIGITS} digits"):
                make(text)
    at_bound = sign + "7" * MAX_LITERAL_DIGITS
    assert Scalar(at_bound) == Scalar.parse(at_bound) == Fraction(at_bound)


_HASH_PRIME = sys.hash_info.modulus


@given(st.integers(-10**30, 10**30),
       st.integers(1, 10**30) | st.sampled_from([_HASH_PRIME, 3 * _HASH_PRIME]))
def test_scalar_hash_is_the_hash_of_its_fraction_or_int(n, d):
    # a denominator the hash prime divides hashes as sys.hash_info.inf
    q = Fraction(n, d)
    assert hash(Scalar(q)) == hash(q) == hash(Scalar.coerce(q))
    assert hash(Scalar(n)) == hash(n)
    if n:
        assert hash(Scalar(q, n)) == hash((q, Fraction(n)))


# -- ExactMatrix basics -----------------------------------------------------


def test_matrix_shape_checks():
    with pytest.raises(DimensionError):
        ExactMatrix([[1, 2], [3]])
    a = ExactMatrix([[1, 2], [3, 4]])
    b = ExactMatrix([[1, 2, 3]])
    with pytest.raises(DimensionError):
        a @ b.transpose() @ b  # inner mismatch on second product: 1x3 times 2x2
    with pytest.raises(DimensionError):
        a + b


def test_matrix_matmul_hand_value():
    a = ExactMatrix([["1", "0+1i"], ["0", "2"]])
    b = ExactMatrix([["0+1i", "1"], ["1", "0"]])
    assert a @ b == ExactMatrix([["0+2i", "1"], ["2", "0"]])


def test_block_and_kron():
    c = ExactMatrix([["1", "0"], ["0", "1"]])
    # the block matrix [[0, c], [-c, 0]]
    m = ExactMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert m.rows == 4 and m.is_antisymmetric()
    eps = ExactMatrix([["0", "1"], ["-1", "0"]])
    assert ExactMatrix.kron(eps, c) == m


def test_serialization_roundtrip():
    m = ExactMatrix([["0", "0+1i"], ["0-1i", "0"]])
    text = m.dumps()
    assert text == '[["0", "0+1i"], ["0-1i", "0"]]'
    assert ExactMatrix.loads(text) == m
    with pytest.raises(ValueError):
        ExactMatrix.loads("not json")
    with pytest.raises(ValueError):
        ExactMatrix.loads('{"a": 1}')


def test_loads_drops_every_zero_spelling():
    # "0" is skipped unparsed; "-0", "0/3" and "0+0i" are parsed and dropped
    m = ExactMatrix.loads('[["0", "-0", "0/3"], ["0+0i", "2", "0"], ["0", "-0", "0"]]')
    assert m == ExactMatrix([[0, 0, 0], [0, 2, 0], [0, 0, 0]])
    assert [dict(row) for row in m._rows] == [{}, {1: Scalar(2)}, {}]
    for text, message in (('[[1.5]]', "cannot interpret 1.5 as a scalar"),
                          ('[["0", null]]', "cannot interpret None as a scalar"),
                          ('[["0", ["0"]]]', r"cannot interpret \['0'\] as a scalar"),
                          ('[["0", "1"], ["0"]]', "ragged rows"),
                          ('[["0"], ["0", 1.5]]', "cannot interpret 1.5"),
                          ('[["0"], ["1e5000"]]', "exceeds 4300 digits"),
                          ('[["0", "1/0"]]', "zero denominator"),
                          ('[]', "at least one row"),
                          ('[[]]', "at least one row")):
        with pytest.raises(ValueError, match=message):
            ExactMatrix.loads(text)


zero_spellings = st.sampled_from(["0", "-0", "0/3", "0+0i", "-0-0i", "0/7+0/2i"])


@given(st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(zero_spellings | scalars.map(str), min_size=c, max_size=c),
    min_size=1, max_size=4)))
def test_loads_matches_the_dense_constructor(nested_text):
    m = ExactMatrix.loads(json.dumps(nested_text))
    assert m == ExactMatrix(nested_text)
    assert all(x for row in m._rows for x in row.values())


# -- elimination ------------------------------------------------------------


def test_kernel_hand_value():
    m = ExactMatrix([[1, 2, 3], [4, 5, 6]])
    (vec,) = nullspace(m)
    assert vec == (Scalar(1), Scalar(-2), Scalar(1))
    assert all(x.is_zero for x in m.apply(vec))


def test_kernel_of_wave_operator_matrix():
    # first-order wave operator coefficient matrix: only the first two
    # directions are dynamical, the rest are constraints
    beta0 = ExactMatrix(
        [
            ["0", "0+1i", "0", "0", "0"],
            ["0-1i", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
        ]
    )
    basis = nullspace(beta0)
    assert len(basis) == 3
    expected = []
    for free in (2, 3, 4):
        v = [Scalar(0)] * 5
        v[free] = Scalar(1)
        expected.append(tuple(v))
    assert basis == expected


def test_charpoly_hand_value():
    m = ExactMatrix([[2, 1], [1, 2]])
    # det(tI - M) = (t-2)^2 - 1 = t^2 - 4t + 3
    assert charpoly(m) == (Scalar(3), Scalar(-4), Scalar(1))
    assert leibniz_determinant(m) == Scalar(3)


@given(square_matrices(3))
def test_charpoly_constant_term_is_det(m):
    # the two oracles agree: det(-M) = (-1)^n det(M)
    coeffs = charpoly(m)
    sign = 1 if m.rows % 2 == 0 else -1
    assert leibniz_determinant(m) == coeffs[0] * sign


# -- symmetry decomposition -------------------------------------------------


def test_symmetry_decompose_pinned_classes():
    anti = ExactMatrix([["0", "0+1i"], ["0-1i", "0"]])
    _, _, cls = symmetry_decompose(anti)
    assert cls is SymmetryClass.ANTISYMMETRIC

    sym = ExactMatrix([[2, 1], [1, 2]])
    assert symmetry_decompose(sym)[2] is SymmetryClass.SYMMETRIC

    assert symmetry_decompose(ExactMatrix.zeros(3))[2] is SymmetryClass.ZERO

    mixed = ExactMatrix([[1, 1], [0, 1]])
    s, a, cls = symmetry_decompose(mixed)
    assert cls is SymmetryClass.MIXED
    assert s == ExactMatrix([["1", "1/2"], ["1/2", "1"]])
    assert a == ExactMatrix([["0", "1/2"], ["-1/2", "0"]])


@given(square_matrices(4))
def test_symmetry_decompose_roundtrip(m):
    s, a, cls = symmetry_decompose(m)
    assert s + a == m
    assert s.is_symmetric()
    assert a.is_antisymmetric()
    if cls is SymmetryClass.SYMMETRIC:
        assert a.is_zero() and not s.is_zero()
    elif cls is SymmetryClass.ANTISYMMETRIC:
        assert s.is_zero() and not a.is_zero()
    elif cls is SymmetryClass.ZERO:
        assert m.is_zero()
    else:
        assert not s.is_zero() and not a.is_zero()


def test_symmetry_decompose_classes_are_exclusive():
    # a matrix cannot be both (nonzero) symmetric and antisymmetric
    m = ExactMatrix([["0", "1/2"], ["-1/2", "0"]])
    s, a, cls = symmetry_decompose(m)
    assert cls is SymmetryClass.ANTISYMMETRIC
    assert s.is_zero()


# -- eigen pair split -------------------------------------------------------


def rot_block(mu):
    return ExactMatrix([[0, mu], [-mu, 0]])


def blockdiag(*mats):
    n = sum(m.rows for m in mats)
    rows = []
    offset = 0
    for m in mats:
        rows.extend([0] * offset + list(row) + [0] * (n - offset - m.rows)
                    for row in m)
        offset += m.rows
    return ExactMatrix(rows)


def i_times(m):
    return m.scale(Scalar(0, 1))


# The spectrum of a real antisymmetric M is +-i*mu pairs plus zeros, and
# i*M is hermitian with eigenvalues +-mu, so the signature of i*M splits
# the spectrum exactly (Sylvester's law), with no eigenvalue computed.


def test_eigensplit_single_pair():
    assert hermitian_signature(i_times(rot_block(1))) == (1, 1, 0)


def test_eigensplit_two_blocks():
    m = blockdiag(rot_block(1), rot_block(3))
    assert hermitian_signature(i_times(m)) == (2, 2, 0)


def test_eigensplit_multiplicity():
    m = blockdiag(rot_block(2), rot_block(2))
    assert hermitian_signature(i_times(m)) == (2, 2, 0)


def test_eigensplit_zero_modes():
    m = blockdiag(rot_block(1), ExactMatrix.zeros(1))
    assert hermitian_signature(i_times(m)) == (1, 1, 1)


def test_eigensplit_rational_fraction():
    assert hermitian_signature(i_times(rot_block(Fraction(2, 3)))) == (1, 1, 0)


def test_eigensplit_hermitian_variant():
    m = ExactMatrix([["0", "0+1i"], ["0-1i", "0"]])
    assert hermitian_signature(m) == (1, 1, 0)


def test_eigensplit_hermitian_with_kernel():
    beta0 = ExactMatrix(
        [
            ["0", "0+1i", "0", "0", "0"],
            ["0-1i", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0"],
        ]
    )
    assert hermitian_signature(beta0) == (1, 1, 3)


def test_eigensplit_irrational_magnitudes():
    # charpoly is l^4 + 3 l^2 + 1, so mu are the golden ratio and its
    # inverse; the signature is still exact
    m = ExactMatrix(
        [
            [0, 1, 1, 0],
            [-1, 0, 0, 1],
            [-1, 0, 0, 0],
            [0, -1, 0, 0],
        ]
    )
    assert hermitian_signature(i_times(m)) == (2, 2, 0)
    assert descartes_signature(i_times(m)) == (2, 2, 0)


def test_eigensplit_rejects_non_antisymmetric():
    # i*M is hermitian exactly when M is real antisymmetric
    with pytest.raises(ValueError):
        hermitian_signature(i_times(ExactMatrix([[1, 0], [0, 1]])))
    with pytest.raises(ValueError):
        hermitian_signature(i_times(ExactMatrix([["0", "1+1i"], ["-1-1i", "0"]])))


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3))
def test_eigensplit_matches_block_construction(mus):
    blocks = [rot_block(mu) if mu else ExactMatrix.zeros(1) for mu in mus]
    m = blockdiag(*blocks)
    pairs = sum(1 for mu in mus if mu)
    zeros = len(mus) - pairs
    assert hermitian_signature(i_times(m)) == (pairs, pairs, zeros)


# -- pivoted elimination and the inertia ------------------------------------

sparse_scalars = st.one_of(st.just(Scalar(0)), scalars)


@st.composite
def hermitian_matrices(draw, n_max=6):
    """Hermitian matrices with complex entries, sometimes a zero diagonal,
    and sometimes rank-deficient as a congruence B^H H B through a thin B."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    zero_diagonal = draw(st.booleans())
    rows = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal:
            rows[i][i] = Scalar(draw(small_fractions))
        for j in range(i + 1, n):
            rows[i][j] = draw(sparse_scalars)
            rows[j][i] = rows[i][j].conjugate()
    h = ExactMatrix(rows)
    rank_cap = draw(st.integers(min_value=1, max_value=n))
    if rank_cap < n:
        b = ExactMatrix([[draw(sparse_scalars) for _ in range(n)]
                         for _ in range(rank_cap)])
        h = b.dagger() @ h.principal(range(rank_cap)) @ b
    return h


@given(hermitian_matrices())
def test_signature_matches_charpoly_descartes(m):
    assert hermitian_signature(m) == descartes_signature(m)


def test_signature_hand_values():
    assert hermitian_signature(ExactMatrix([[2, 1], [1, 2]])) == (2, 0, 0)
    assert hermitian_signature(ExactMatrix([[0, 1], [1, 0]])) == (1, 1, 0)
    assert hermitian_signature(ExactMatrix([[1, 1], [1, 1]])) == (1, 0, 1)
    assert hermitian_signature(ExactMatrix.diagonal([-1, 0, 3])) == (1, 1, 1)
    with pytest.raises(ValueError, match="hermitian"):
        hermitian_signature(ExactMatrix([[0, 1], [0, 0]]))


@given(st.sampled_from(["symmetric", "antisymmetric"]), square_matrices(5))
def test_pivoted_elimination_selects_a_full_rank_principal_block(kind, m):
    p = m + m.transpose() if kind == "symmetric" else m - m.transpose()
    indices, blocks = pivoted_elimination(p)
    assert list(indices) == sorted(set(indices))
    assert sum(b.rows for b in blocks) == len(indices) == p.rank()
    if indices:
        assert p.principal(indices).rank() == len(indices)


@given(hermitian_matrices())
def test_pivoted_elimination_rank_on_hermitian_input(m):
    indices, _ = pivoted_elimination(m)
    assert len(indices) == m.rank()
    if indices:
        assert m.principal(indices).rank() == len(indices)


def test_pivoted_elimination_takes_a_2x2_pivot_on_a_zero_diagonal():
    m = ExactMatrix([[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    indices, blocks = pivoted_elimination(m)
    assert indices == (0, 2)
    assert blocks == (ExactMatrix([[0, 1], [1, 0]]),)


# -- sparse storage against the dense reference -----------------------------

dims = st.integers(min_value=1, max_value=4)
# about two entries in three are zero
mostly_zero = st.tuples(st.integers(0, 2), scalars).map(
    lambda t: t[1] if t[0] == 0 else Scalar(0))


def nested(rows, cols):
    return st.lists(st.lists(mostly_zero, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def nested_any_shape():
    return st.tuples(dims, dims).flatmap(lambda rc: nested(*rc))


def assert_matches(got: ExactMatrix, want):
    """Same dense view, equal to the matrix built from the literal entries,
    zeros included, and no zero stored."""
    assert all(x for row in got._rows for x in row.values())
    assert [list(row) for row in got] == want
    assert got == ExactMatrix(want)
    assert hash(got) == hash(ExactMatrix(want))


@st.composite
def operand_triples(draw):
    """a and b of one shape r x k, c of shape k x m, and index lists into a
    with negative and repeated entries."""
    r, k, m = draw(dims), draw(dims), draw(dims)
    rows = draw(st.lists(st.integers(-r, r - 1), min_size=1, max_size=4))
    cols = draw(st.lists(st.integers(-k, k - 1), min_size=1, max_size=4))
    return draw(nested(r, k)), draw(nested(r, k)), draw(nested(k, m)), rows, cols


@given(operand_triples(), scalars)
def test_sparse_kernels_match_the_dense_reference(ops, f):
    a, b, c, rows, cols = ops
    ma, mb, mc = ExactMatrix(a), ExactMatrix(b), ExactMatrix(c)
    assert_matches(ma + mb, dense_add(a, b))
    assert_matches(ma - mb, dense_sub(a, b))
    assert_matches(-ma, dense_scale(Scalar(-1), a))
    assert_matches(ma.scale(f), dense_scale(f, a))
    assert_matches(ma.scale(0), dense_scale(Scalar(0), a))
    assert_matches(ma @ mc, dense_matmul(a, c))
    assert_matches(ma.transpose(), dense_transpose(a))
    assert_matches(ma.dagger(), dense_dagger(a))
    assert_matches(ExactMatrix.kron(ma, mc), dense_kron(a, c))
    assert_matches(ma.submatrix(rows, cols), dense_submatrix(a, rows, cols))
    assert_matches(ma.conjugate(), dense_transpose(dense_dagger(a)))
    gram = dense_matmul(a, dense_dagger(a))
    assert_matches((ma @ ma.dagger()).principal(rows),
                   dense_submatrix(gram, rows, rows))
    # the constructors that take entries from outside drop the zeros there
    diag = a[0]
    assert_matches(ExactMatrix.diagonal(diag),
                   [[x if i == j else Scalar(0) for j in range(len(diag))]
                    for i, x in enumerate(diag)])
    assert_matches(ExactMatrix.identity(len(diag)),
                   [[Scalar(int(i == j)) for j in range(len(diag))]
                    for i in range(len(diag))])
    assert_matches(ExactMatrix.zeros(len(a), len(diag)),
                   [[Scalar(0)] * len(diag) for _ in a])
    assert ma.is_zero() == all(not x for row in a for x in row)
    assert ma.is_real() == all(x.is_real for row in a for x in row)
    # hermiticity compares entries in place; a Gram matrix passes, and one
    # shifted corner entry decides it as the dense dagger does
    assert ma.is_hermitian() == (a == dense_dagger(a))
    assert ExactMatrix(gram).is_hermitian()
    bent = [list(row) for row in gram]
    bent[0][-1] += f
    assert ExactMatrix(bent).is_hermitian() == (bent == dense_dagger(bent))


@st.composite
def rank_cases(draw):
    """Mostly-zero matrices of every shape (1 x n, n x 1, tall, wide), some
    all zero, some with rows inserted as combinations of other rows, which
    cancel to zero when reduced."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["sparse", "zero", "dependent"]))
    if kind == "zero":
        return [[Scalar(0)] * c for _ in range(r)]
    a = draw(nested(r, c))
    if kind == "dependent":
        for _ in range(draw(st.integers(1, 3))):
            x, y = draw(st.sampled_from(a)), draw(st.sampled_from(a))
            f, g = draw(scalars), draw(scalars)
            a.insert(draw(st.integers(0, len(a))),
                     [f * u + g * v for u, v in zip(x, y)])
    return a


@given(rank_cases())
def test_rank_matches_the_dense_pivot_count(a):
    assert ExactMatrix(a).rank() == len(dense_rref(a)[1])


@pytest.mark.parametrize("short", [lambda m: None, lambda m: min(m.rows, m.cols) - 1],
                         ids=["none", "one-short"])
@given(a=rank_cases())
def test_exact_rank_matches_the_dense_pivot_count(short, a):
    # with the modular rank made useless (q divides a denominator) or too
    # low (an unlucky prime), every rank comes from the exact elimination
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "modular_rank", short)
        assert ExactMatrix(a).rank() == len(dense_rref(a)[1])


gaussian_entries = st.one_of(st.just(Scalar(0)), st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-10, 10), st.integers(-10, 10), st.sampled_from([1, 2, 3, 7])))


@st.composite
def modular_rank_cases(draw):
    """Gaussian-rational matrices up to 8x8, parts of numerators within 10
    and denominators 1, 2, 3 or 7, some with rows inserted as sums or
    differences of other rows, so that the rank falls short."""
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    a = [[draw(gaussian_entries) for _ in range(c)] for _ in range(r)]
    for _ in range(draw(st.integers(0, min(2, 8 - r)))):
        x, y = draw(st.sampled_from(a)), draw(st.sampled_from(a))
        sign = draw(st.sampled_from([1, -1]))
        a.insert(draw(st.integers(0, len(a))), [u + sign * v for u, v in zip(x, y)])
    return a


@given(modular_rank_cases())
def test_modular_rank_matches_the_dense_pivot_count(a):
    # the modular rank falls short only when every nonzero minor of the top
    # size maps to zero; the image of a Gaussian integer vanishes only when
    # it is a multiple of one fixed Gaussian prime of norm q, which minors
    # of entries this small are with a chance of about 1/q each
    assert ExactMatrix(a).modular_rank() == len(dense_rref(a)[1])


def test_modular_rank_of_a_denominator_the_prime_divides_is_none():
    assert ExactMatrix([[Scalar(Fraction(1, MODULUS))]]).modular_rank() is None
    assert ExactMatrix([[1, 0], [0, Scalar(0, Fraction(3, 2 * MODULUS))]]).modular_rank() is None
    # a numerator divisible by q is only a zero of the image
    assert ExactMatrix([[MODULUS, 0], [0, 1]]).modular_rank() == 1


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases up to 37, deterministic below
    3.3 * 10**24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_modular_constants():
    assert MODULUS < 2**61 and _is_prime(MODULUS) and MODULUS % 4 == 1
    assert not any(_is_prime(n) for n in range(MODULUS + 4, 2**61, 4))
    assert (MODULAR_I * MODULAR_I + 1) % MODULUS == 0


GOLDEN_THEORIES = sorted(
    [*pathlib.Path(__file__).parent.joinpath("golden").glob("*.th"),
     *pathlib.Path(str(resources.files("spinstat") / "theories")).glob("*.th")])


@pytest.mark.parametrize("short", [lambda m: None, lambda m: m.rows - 1],
                         ids=["none", "one-short"])
def test_exact_fallback_gives_every_golden_split_and_flavor_diagnosis(
        short, clear_analyze_caches):
    # with the modular rank made useless (q divides a denominator) or too
    # low (an unlucky prime), every split comes from the exact eliminations,
    # and equals the one the modular rank decides.  The flavor diagnoses
    # take no rank; with the caches cleared they are made again beside the
    # patched rank, and must not change either
    specs = [parse_theory(path.read_text(), base_dir=str(path.parent))
             for path in GOLDEN_THEORIES]
    want = [analyze_theory(spec) for spec in specs]
    clear_analyze_caches()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "modular_rank", short)
        got = [analyze_theory(spec) for spec in specs]
    assert len(specs) == 12
    for w, g in zip(want, got):
        assert (g.split, g.flavor_by_field) == (w.split, w.flavor_by_field)


@given(hermitian_matrices())
def test_sparse_pivoted_elimination_matches_the_dense_reference(m):
    indices, blocks = pivoted_elimination(m)
    want_indices, want_blocks = dense_pivoted_elimination([list(r) for r in m])
    assert indices == want_indices
    assert [[list(r) for r in b] for b in blocks] == want_blocks
    positives = sum(1 if len(b) == 2 else int(b[0][0].re > 0) for b in want_blocks)
    assert hermitian_signature(m) == (
        positives, len(want_indices) - positives, m.rows - len(want_indices))


@given(operand_triples())
def test_cancelled_entries_leave_no_stored_zero(ops):
    a, b, c, _, _ = ops
    ma, mb, mc = ExactMatrix(a), ExactMatrix(b), ExactMatrix(c)
    literal_zero = ExactMatrix([[0] * len(a[0]) for _ in a])
    for got, want in (((ma + mb) - mb, ExactMatrix(a)),
                      (ma - ma, literal_zero),
                      (ma + (-ma), literal_zero),
                      (ma @ (mc - mc), ExactMatrix([[0] * len(c[0]) for _ in a]))):
        assert got == want and hash(got) == hash(want)
    assert (ma - ma).is_zero()
    assert {ma + mb, mb + ma} == {ma + mb}


@given(nested_any_shape())
def test_indexing_matches_the_dense_reference(a):
    m = ExactMatrix(a)
    r, c = len(a), len(a[0])
    for i in range(-r, r):
        assert m.row(i) == tuple(a[i])
        for j in range(-c, c):
            assert m[i, j] == a[i][j]
    assert m.to_nested_strings() == [[str(x) for x in row] for row in a]
    for i, j in ((r, 0), (-r - 1, 0), (0, c), (0, -c - 1)):
        with pytest.raises(IndexError):
            m[i, j]
    with pytest.raises(IndexError):
        m.row(r)
    with pytest.raises(IndexError):
        m.submatrix([0], [c])


# -- symmetry class against the halves oracle -------------------------------


@st.composite
def classed_matrices(draw):
    """Sparse square matrices, some forced to be zero, symmetric or
    antisymmetric by mirroring the upper triangle; the rest keep their
    drawn entries, so many have an entry whose mirror entry is zero."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(sparse_scalars, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    kind = draw(st.sampled_from(["zero", "symmetric", "antisymmetric", "free"]))
    if kind == "zero":
        rows = [[Scalar(0)] * n for _ in range(n)]
    elif kind != "free":
        sign = 1 if kind == "symmetric" else -1
        for i in range(n):
            if sign < 0:
                rows[i][i] = Scalar(0)
            for j in range(i):
                rows[i][j] = rows[j][i] * sign
    return ExactMatrix(rows)


@given(classed_matrices())
def test_symmetry_class_matches_the_halves_oracle(m):
    cls = symmetry_class(m)
    assert cls is symmetry_class_by_halves(m)
    assert symmetry_decompose(m)[2] is cls


real_scalars = st.builds(Scalar, small_fractions)
nonzero_scalars = scalars.filter(bool)
complex_scalars = st.builds(Scalar, small_fractions,
                            small_fractions.filter(bool))
MIRRORS = {"symmetric": lambda x: x, "antisymmetric": lambda x: -x,
           "hermitian": Scalar.conjugate}
NEAR_MISSES = ("none", "shift", "orphan", "conjugate", "diagonal")


@st.composite
def mirrored_matrices(draw, miss="none"):
    """Sparse real or complex square matrices made symmetric,
    antisymmetric or hermitian by mirroring the upper triangle (or zero,
    or left free), then bent by one near miss: a mirrored entry shifted,
    an entry without a mirror, the conjugate of the mirror value where
    the value itself is needed (the value where the conjugate is), or a
    nonzero diagonal entry."""
    n = draw(st.integers(min_value=1, max_value=6))
    values = draw(st.sampled_from([scalars, real_scalars]))
    entry = st.one_of(st.just(Scalar(0)), values)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["zero", *MIRRORS, "free"]))
    if kind == "zero":
        rows = [[Scalar(0)] * n for _ in range(n)]
    elif kind in MIRRORS:
        mirror = MIRRORS[kind]
        for i in range(n):
            rows[i][i] = (Scalar(0) if kind == "antisymmetric"
                          else Scalar(rows[i][i].re) if kind == "hermitian"
                          else rows[i][i])
            for j in range(i):
                rows[i][j] = mirror(rows[j][i])
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if miss == "shift":
        rows[i][j] += draw(nonzero_scalars)
    elif miss == "orphan" and i != j:
        rows[i][j], rows[j][i] = draw(nonzero_scalars), Scalar(0)
    elif miss == "conjugate" and i != j:
        x = draw(complex_scalars)
        rows[i][j] = x
        rows[j][i] = MIRRORS.get(kind, MIRRORS["symmetric"])(x).conjugate()
    elif miss == "diagonal":
        rows[i][i] = draw(nonzero_scalars)
    return ExactMatrix(rows)


any_mirrored_matrix = st.sampled_from(NEAR_MISSES).flatmap(mirrored_matrices)


@pytest.mark.parametrize("miss", NEAR_MISSES)
@given(data=st.data())
def test_mirror_predicates_match_the_built_transpose(miss, data):
    m = data.draw(mirrored_matrices(miss))
    assert m.is_symmetric() == symmetric_by_transpose(m)
    assert m.is_antisymmetric() == antisymmetric_by_transpose(m)
    assert m.is_hermitian() == hermitian_by_dagger(m)
    assert symmetry_class(m) is symmetry_class_by_halves(m)


def test_mirror_predicates_of_a_non_square_matrix_are_false():
    m = ExactMatrix.zeros(2, 3)
    assert not (m.is_symmetric() or m.is_antisymmetric() or m.is_hermitian())


def test_symmetry_class_mirror_entry_zero_is_mixed():
    assert symmetry_class(ExactMatrix([[0, 1], [0, 0]])) is SymmetryClass.MIXED
    assert symmetry_class(ExactMatrix([[0, 1, 0], [-1, 0, 0], [0, 2, 0]])) is (
        SymmetryClass.MIXED)


@given(any_mirrored_matrix)
def test_symmetry_class_walks_each_matrix_once(m):
    calls = []
    walk = ExactMatrix._mirrors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactMatrix, "_mirrors",
                   lambda self, *signs: calls.append(signs) or walk(self, *signs))
        first = symmetry_class(m)
        walked = len(calls)
        assert symmetry_class(m) is first
        assert len(calls) == walked
    assert first is symmetry_class_by_halves(m)


def test_symmetry_class_slot_is_not_writable_from_outside():
    m = ExactMatrix([[0, 1], [-1, 0]])
    with pytest.raises(AttributeError):
        m._symmetry = SymmetryClass.SYMMETRIC
    assert symmetry_class(m) is SymmetryClass.ANTISYMMETRIC


@pytest.mark.parametrize("f", [symmetry_class, symmetry_decompose])
def test_symmetry_class_rejects_non_square(f):
    with pytest.raises(DimensionError):
        f(ExactMatrix([[1, 0, 0], [0, 1, 0]]))


# -- facts of a matrix with stored diagonal blocks ---------------------------

BLOCK_KINDS = ("zero", "symmetric", "antisymmetric", "hermitian", "mixed", "singular")


@st.composite
def diagonal_blocks(draw):
    """A square block of 1 to 3 rows with Gaussian-rational entries: zero,
    symmetric, antisymmetric or hermitian by mirroring the upper
    triangle, as drawn (mixed), or singular, its last row a multiple of
    its first (a zero row at size 1)."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(BLOCK_KINDS))
    rows = [[draw(gaussian_entries) for _ in range(n)] for _ in range(n)]
    if kind == "zero":
        rows = [[Scalar(0)] * n for _ in range(n)]
    elif kind == "singular":
        rows[-1] = [x * draw(gaussian_entries) for x in rows[0]] if n > 1 else [Scalar(0)]
    elif kind != "mixed":
        mirror = {"symmetric": lambda x: x, "antisymmetric": lambda x: -x,
                  "hermitian": Scalar.conjugate}[kind]
        for i in range(n):
            for j in range(i):
                rows[i][j] = mirror(rows[j][i])
            if kind != "symmetric":
                # the diagonal is its own mirror: zero or real
                rows[i][i] = mirror(rows[i][i]) + rows[i][i]
    return ExactMatrix(rows)


@st.composite
def blocked_matrices(draw):
    """(_blockdiag of 1 to 4 diagonal blocks, the index range of each),
    the first two sometimes stored as one nested _blockdiag, as the
    builder stores a field's flavor blocks."""
    blocks = draw(st.lists(diagonal_blocks(), min_size=1, max_size=4))
    if len(blocks) > 1 and draw(st.booleans()):
        blocks[:2] = [_blockdiag(blocks[:2])]
    ranges, start = [], 0
    for b in blocks:
        ranges.append(range(start, start + b.rows))
        start += b.rows
    return _blockdiag(blocks), ranges


@given(blocked_matrices())
def test_facts_composed_from_stored_blocks_equal_the_flat_facts(case):
    m, ranges = case
    # the same rows with no stored block take the whole-matrix paths
    flat = ExactMatrix._from_rows(m.cols, m._rows)
    assert not flat._blocks and list(m._blocks) == [r.start for r in ranges]
    assert m.modular_rank() == flat.modular_rank()
    assert m.rank() == flat.rank()
    assert symmetry_class(m) is symmetry_class(flat)
    assert m == flat and hash(m) == hash(flat)
    for r, block in zip(ranges, m._blocks.values()):
        assert m.principal(r) is block
        assert block == flat.submatrix(r, r) == flat.principal(r)
    if len(ranges) > 1:
        # a range over two stored blocks is cut as from the flat matrix
        both = range(ranges[0].start, ranges[1].stop)
        assert m.principal(both) == flat.submatrix(both, both)
