import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import descartes_signature, wick_gram_entry
from spinstat import fock
from spinstat.algebra import ExactMatrix, ParseError, Scalar
from spinstat.fock import (
    MAX_GRAM_STATES,
    MAX_WORD_SYMBOLS,
    ContractionLimitError,
    RelationTable,
    UnknownSymbolError,
    adjoint_word,
    gram_matrix,
    parse_relation_table,
    vacuum_expectation,
)

ONE = Scalar(1)
ZERO = Scalar(0)
I = Scalar(0, 1)

SYMBOLS = ("a", "b", "adag", "bdag")

BOSE_CROSS = parse_relation_table("""
bracket = commutator
pair a bdag = 1
pair b adag = 1
""")

FERMI_CROSS = parse_relation_table("""
bracket = anticommutator
pair a bdag = 1
pair b adag = 1
""")

FERMI_NEG = parse_relation_table("""
bracket = anticommutator
pair a bdag = -1
pair b adag = -1
""")

BOSE_DIAG = parse_relation_table("""
bracket = commutator
pair a adag = 1
pair b bdag = 1
""")

WITNESS = parse_relation_table("""
bracket = anticommutator
pair c ddag = -1
""")


# -- oracles -------------------------------------------------------------------
#
# Two independent routes to the same numbers.  The ladder oracle applies each
# symbol to an occupation-number dictionary (the matrix representation on a
# truncated Fock space, stored sparsely); the Wick oracle counts contraction
# sets directly.  Mode 1 is raised by bdag and lowered by a, mode 2 is raised
# by adag and lowered by b, so both cross-pair tables describe two modes.

CUTOFF = 4

_RAISES = {"bdag": 0, "adag": 1}
_LOWERS = {"a": 0, "b": 1}


def ladder_vev(word, value, cutoff=CUTOFF):
    """Bosonic truncated-ladder oracle; `value` is the elementary bracket."""
    state = {(0, 0): Fraction(1)}
    for s in reversed(word):
        nxt = {}
        for occ, coeff in state.items():
            if s in _RAISES:
                m = _RAISES[s]
                if occ[m] < cutoff:
                    new = list(occ)
                    new[m] += 1
                    key = tuple(new)
                    nxt[key] = nxt.get(key, Fraction(0)) + coeff
            else:
                m = _LOWERS[s]
                if occ[m] > 0:
                    new = list(occ)
                    new[m] -= 1
                    key = tuple(new)
                    nxt[key] = nxt.get(key, Fraction(0)) + coeff * value * occ[m]
        state = {k: v for k, v in nxt.items() if v}
    return Scalar(state.get((0, 0), Fraction(0)))


def wick_vev(word, values):
    """Sum over complete contraction sets, each annihilator left of its creator.

    Bosonic only (no permutation signs).  `values` maps (annihilator, creator)
    to the elementary bracket.
    """

    def go(remaining):
        if not remaining:
            return Fraction(1)
        first = remaining[0]
        if first not in _LOWERS:
            return Fraction(0)
        total = Fraction(0)
        for k in range(1, len(remaining)):
            v = values.get((first, remaining[k]))
            if v:
                total += v * go(remaining[1:k] + remaining[k + 1:])
        return total

    return Scalar(go(tuple(word)))


_M_A = ((0, 1), (0, 0))
_M_C = ((0, 0), (1, 0))
_M_Z = ((1, 0), (0, -1))
_M_I = ((1, 0), (0, 1))


def _kron2(x, y):
    out = []
    for i in range(2):
        for k in range(2):
            row = []
            for j in range(2):
                for l in range(2):
                    row.append(Fraction(x[i][j]) * Fraction(y[k][l]))
            out.append(tuple(row))
    return tuple(out)


def _matvec(m, v):
    return [sum(m[i][j] * v[j] for j in range(4)) for i in range(4)]


def fermi_reps(value):
    """Jordan-Wigner matrices for the two-mode fermionic cross table.

    For value −1 the annihilators pick up the sign, which is exactly the
    indefinite-metric adjoint eta X-dagger eta with eta = Z (x) Z.
    """
    return {
        "bdag": _kron2(_M_C, _M_I),
        "adag": _kron2(_M_Z, _M_C),
        "a": _scale(_kron2(_M_A, _M_I), value),
        "b": _scale(_kron2(_M_Z, _M_A), value),
    }


def _scale(m, value):
    return tuple(tuple(value * x for x in row) for row in m)


def fermi_vev(word, value):
    reps = fermi_reps(Fraction(value))
    vec = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    for s in reversed(word):
        vec = _matvec(reps[s], vec)
    return Scalar(vec[0])


def all_words(max_len, symbols=SYMBOLS):
    for length in range(max_len + 1):
        yield from itertools.product(symbols, repeat=length)


def test_fermi_reps_satisfy_their_table():
    for value in (Fraction(1), Fraction(-1)):
        reps = fermi_reps(value)
        for x, y, expect in [
            ("a", "bdag", value),
            ("b", "adag", value),
            ("a", "adag", 0),
            ("b", "bdag", 0),
            ("a", "b", 0),
        ]:
            anti = [
                [
                    sum(reps[x][i][k] * reps[y][k][j] + reps[y][i][k] * reps[x][k][j]
                        for k in range(4))
                    for j in range(4)
                ]
                for i in range(4)
            ]
            for i in range(4):
                for j in range(4):
                    assert anti[i][j] == (expect if i == j else 0)


# -- relation table parsing ----------------------------------------------------


def test_parse_reads_bracket_and_pairs():
    assert BOSE_CROSS.bracket == "commutator"
    assert BOSE_CROSS.annihilators == {"a", "b"}
    assert BOSE_CROSS.creators == {"adag", "bdag"}
    # <0| a c |0> is the bracket [a, c] of the pair, zero when undeclared
    assert vacuum_expectation(("a", "bdag"), BOSE_CROSS) == ONE
    assert vacuum_expectation(("a", "adag"), BOSE_CROSS) == ZERO


def test_parse_allows_comments_and_scalar_values():
    table = parse_relation_table("""
    # a lopsided pair
    bracket = anticommutator
    pair c ddag = -1/2   # elementary bracket
    """)
    assert table.bracket == "anticommutator"
    assert table.pairs == (("c", "ddag", Scalar(Fraction(-1, 2))),)


def test_parse_requires_bracket_line():
    with pytest.raises(ValueError, match="bracket"):
        parse_relation_table("pair a bdag = 1")


def test_parse_rejects_duplicate_bracket_line():
    with pytest.raises(ValueError, match="duplicate bracket"):
        parse_relation_table("bracket = commutator\nbracket = commutator\npair a bdag = 1")


def test_parse_rejects_unknown_directive():
    with pytest.raises(ValueError, match="unknown directive"):
        parse_relation_table("bracket = commutator\nrelation a b = 1")


def test_parse_needs_at_least_one_pair():
    with pytest.raises(ValueError, match="no pairs"):
        parse_relation_table("bracket = commutator")


def test_parse_enforces_dag_naming():
    with pytest.raises(ValueError, match="must end in 'dag'"):
        parse_relation_table("bracket = commutator\npair a b = 1")
    with pytest.raises(ValueError, match="must not end in 'dag'"):
        parse_relation_table("bracket = commutator\npair adag bdag = 1")


@pytest.mark.parametrize("value", ["1/0", "abc", "1/0+2i", "1e5000", "1e-5000"])
def test_parse_reports_the_line_of_a_bad_pair_value(value):
    with pytest.raises(ParseError, match=r"^line 3: bad pair value") as err:
        parse_relation_table(
            f"bracket = commutator\npair a adag = 1\npair c cdag = {value}")
    assert err.value.line == 3


@pytest.mark.parametrize("text,line", [
    ("bracket commutator", 1),
    ("bracket = commutator\n\nbracket = commutator", 3),
    ("bracket = commutator\npair a adag 1", 2),
    ("bracket = commutator\npair adag bdag = 1", 2),
    ("# comment\nbracket = commutator\npair a b = 1", 3),
    ("bracket = commutator\nrelation a b = 1", 2),
    ("bracket = poisson\npair a adag = 1", 1),
    ("bracket = commutator\npair a adag = 1\n\npair a adag = 2", 4),
    # the table's rules run once every line is read, so a grammar error on
    # a later line wins over a rule error on an earlier one
    ("bracket = poisson\npair a b = 1", 2),
    ("bracket = commutator\npair a adag = 1\npair a adag = 2\nrelation", 4),
    ("pair a adag = 1", None),
    ("bracket = commutator", None),
])
def test_every_parse_error_is_typed_and_carries_its_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_relation_table(text)
    assert isinstance(err.value, ValueError)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ") == (line is not None)


@pytest.mark.parametrize("bracket,pairs,text,line", [
    ("poisson", [("a", "adag", 1)], "bracket = poisson\npair a adag = 1", 1),
    ("commutator", [("a", "adag", 1), ("a", "adag", 2)],
     "bracket = commutator\npair a adag = 1\n# again\npair a adag = 2", 4),
], ids=["bracket-kind", "duplicate-pair"])
def test_each_table_rule_refuses_built_and_parsed_tables_alike(bracket, pairs, text, line):
    # one check holds the rules: a table built in code gets its text at
    # line None, the parsed one the same text at the line at fault; both
    # are ValueErrors
    with pytest.raises(ParseError) as built:
        RelationTable(bracket, pairs)
    with pytest.raises(ParseError) as parsed:
        parse_relation_table(text)
    assert isinstance(built.value, ValueError)
    assert built.value.line is None
    assert parsed.value.line == line
    assert str(parsed.value) == f"line {line}: {built.value}"


def test_a_parsed_table_is_checked_once_and_equals_the_built_one(monkeypatch):
    # the parser checks its table with line numbers and builds it without
    # a second check; the table is the one the constructor builds
    checks = []

    def counting(*args):
        checks.append(args)
        return check(*args)

    check = fock._check_table
    monkeypatch.setattr(fock, "_check_table", counting)
    parsed = parse_relation_table(
        "bracket = anticommutator\npair a adag = 1/2\npair b bdag = -1+2i")
    assert len(checks) == 1
    built = RelationTable("anticommutator", [("a", "adag", Fraction(1, 2)),
                                             ("b", "bdag", Scalar(-1, 2))])
    assert len(checks) == 2
    assert vars(parsed) == vars(built)


def test_table_rejects_symbol_on_both_sides():
    with pytest.raises(ValueError, match="both annihilator and creator"):
        RelationTable("commutator", [("a", "bdag", 1), ("bdag", "cdag", 1)])


def test_kind_lookup():
    assert BOSE_CROSS.kind("a") == "annihilator"
    assert BOSE_CROSS.kind("bdag") == "creator"
    with pytest.raises(UnknownSymbolError):
        BOSE_CROSS.kind("q")


# -- adjoint resolution ----------------------------------------------------------


def test_adjoint_resolves_by_name_first():
    assert FERMI_CROSS.adjoint_of("bdag") == "b"
    assert FERMI_CROSS.adjoint_of("adag") == "a"
    assert FERMI_CROSS.adjoint_of("a") == "adag"


def test_adjoint_falls_back_to_pair_partner():
    assert WITNESS.adjoint_of("ddag") == "c"
    assert WITNESS.adjoint_of("c") == "ddag"


def test_adjoint_ambiguity_is_an_error():
    table = RelationTable("commutator", [("c", "xdag", 1), ("c", "ydag", 1)])
    assert table.adjoint_of("xdag") == "c"
    with pytest.raises(ValueError, match="ambiguous"):
        table.adjoint_of("c")


def test_gram_matrix_checks_each_state_once(monkeypatch):
    # each bra is built from the symbols of its checked state, so no state
    # goes through the word check a second time
    states = [("adag",), ("bdag", "adag"), ("adag", "bdag"), ("bdag",)]
    expected = gram_matrix(states, BOSE_DIAG)
    checked = []
    check_word = fock._check_word

    def counting(word, table):
        checked.append(tuple(word))
        return check_word(word, table)

    monkeypatch.setattr(fock, "_check_word", counting)
    assert gram_matrix(states, BOSE_DIAG) == expected
    assert checked == states


def test_adjoint_word_reverses_and_conjugates():
    assert adjoint_word(("a", "a", "bdag"), BOSE_CROSS) == ("b", "adag", "adag")
    assert adjoint_word((), BOSE_CROSS) == ()


def test_adjoint_word_is_an_involution():
    rng = random.Random(11)
    for _ in range(50):
        word = tuple(rng.choices(SYMBOLS, k=rng.randrange(7)))
        assert adjoint_word(adjoint_word(word, FERMI_CROSS), FERMI_CROSS) == word


# -- Wick contraction ------------------------------------------------------------


def test_single_elementary_boson_step():
    assert vacuum_expectation(("a", "adag"), BOSE_DIAG) == ONE
    assert vacuum_expectation(("adag", "a"), BOSE_DIAG) == ZERO


def test_negative_anticommutator_step():
    assert vacuum_expectation(("c", "ddag"), WITNESS) == Scalar(-1)
    assert vacuum_expectation(("c", "ddag", "c", "ddag"), WITNESS) == ONE


def test_double_contraction_word():
    # two complete contraction sets of weight 1; under anticommutators
    # the crossed one carries a minus sign and they cancel
    word = ("a", "a", "bdag", "bdag")
    assert vacuum_expectation(word, BOSE_CROSS) == Scalar(2)
    assert vacuum_expectation(word, FERMI_CROSS) == ZERO


def test_empty_word_is_the_unit():
    for table in (BOSE_CROSS, FERMI_CROSS, FERMI_NEG, WITNESS):
        assert vacuum_expectation((), table) == ONE


def test_creator_blocks_sort_without_sign_for_bosons():
    value = vacuum_expectation(("b", "a", "bdag", "adag"), BOSE_CROSS)
    assert value == ONE
    assert vacuum_expectation(("b", "a", "adag", "bdag"), BOSE_CROSS) == value
    assert vacuum_expectation(("a", "b", "bdag", "adag"), BOSE_CROSS) == value


def test_creator_blocks_sort_with_sign_for_fermions():
    value = vacuum_expectation(("b", "a", "bdag", "adag"), FERMI_CROSS)
    assert value == ONE
    assert vacuum_expectation(("b", "a", "adag", "bdag"), FERMI_CROSS) == -value
    assert vacuum_expectation(("a", "b", "bdag", "adag"), FERMI_CROSS) == -value


def test_repeated_fermi_symbol_vanishes():
    assert vacuum_expectation(("a", "a", "bdag", "bdag"), FERMI_NEG) == ZERO
    assert vacuum_expectation(("b", "b", "adag", "adag"), FERMI_CROSS) == ZERO
    assert vacuum_expectation(("a", "a", "bdag"), FERMI_CROSS) == ZERO


def test_repeated_bose_symbol_survives():
    assert vacuum_expectation(("a", "a", "bdag", "bdag"), BOSE_CROSS) == Scalar(2)
    assert vacuum_expectation(("a",) * 3 + ("bdag",) * 3, BOSE_CROSS) == Scalar(6)


def test_long_bose_power_is_k_factorial_h_to_the_k():
    h = Fraction(3, 2)
    table = RelationTable("commutator", [("a", "adag", h)])
    k = 12
    word = ("a",) * k + ("adag",) * k
    assert vacuum_expectation(word, table) == Scalar(math.factorial(k) * h**k)


def test_word_length_is_bounded_before_any_contraction():
    table = RelationTable("commutator", [("a", "adag", 1)])
    # a leading creator short-circuits to 0, so the longest accepted word
    # costs nothing to evaluate
    assert vacuum_expectation(("adag",) * MAX_WORD_SYMBOLS, table) == ZERO
    word = ("a",) * (MAX_WORD_SYMBOLS // 2 + 1) + ("adag",) * (MAX_WORD_SYMBOLS // 2)
    with pytest.raises(ValueError, match=f"over the supported maximum {MAX_WORD_SYMBOLS}"):
        vacuum_expectation(word, table)
    with pytest.raises(ValueError, match="over the supported maximum"):
        gram_matrix([("adag",) * (MAX_WORD_SYMBOLS + 1)], table)
    with pytest.raises(ValueError, match="over the supported maximum"):
        adjoint_word(("adag",) * (MAX_WORD_SYMBOLS + 1), table)
    # each state is within the bound, but its bra+ket word is over it
    state = ("adag",) * (MAX_WORD_SYMBOLS // 2 + 1)
    assert len(adjoint_word(state, table)) <= MAX_WORD_SYMBOLS
    with pytest.raises(ValueError, match=f"over the supported maximum {MAX_WORD_SYMBOLS}"):
        gram_matrix([state], table)


def test_gram_refusal_names_the_first_state_at_fault():
    table = RelationTable("commutator", [("a", "adag", 1)])
    long_state = ("adag",) * (MAX_WORD_SYMBOLS // 2 + 1)
    cases = [
        ([("adag",), ("a",), ("b",)], 1, "'a' is not a creator"),
        ([("adag",), ("b",), ("a",)], 1, "unknown operator symbol 'b'"),
        ([long_state, ("adag",) * (MAX_WORD_SYMBOLS + 1)], 0,
         f"bra and ket of a {len(long_state)}-quantum state"),
    ]
    for states, index, text in cases:
        with pytest.raises(ValueError, match=text) as err:
            gram_matrix(states, table)
        assert err.value.state == index
    with pytest.raises(UnknownSymbolError) as err:
        gram_matrix([("b",)], table)
    assert err.value.state == 0


def test_gram_state_count_is_bounded_before_any_contraction():
    table = RelationTable("commutator", [("a", "adag", 1)])
    states = [("adag",)] * (MAX_GRAM_STATES + 1)
    with pytest.raises(ValueError, match=(
            f"^{MAX_GRAM_STATES + 1} gram states, over the supported maximum "
            f"{MAX_GRAM_STATES}$")):
        gram_matrix(states, table)


def _dense_bose_table(modes):
    return RelationTable("commutator", [
        (f"m{i}", f"m{j}dag", 1) for i in range(modes) for j in range(modes)])


def test_contraction_is_bounded_as_its_memo_grows(monkeypatch):
    # a1 a2 a3 a1dag a2dag a3dag on an all-ones table has 2**3 - 1 = 7
    # memoized subwords and the value 3! = 6, the permanent of a 3x3 ones
    table = _dense_bose_table(3)
    word = ("m0", "m1", "m2", "m0dag", "m1dag", "m2dag")
    monkeypatch.setattr(fock, "MAX_CONTRACTION_STATES", 7)
    assert vacuum_expectation(word, table) == Scalar(6)
    monkeypatch.setattr(fock, "MAX_CONTRACTION_STATES", 6)
    with pytest.raises(ContractionLimitError,
                       match="more than 6 subword values, over the supported maximum"):
        vacuum_expectation(word, table)
    # a Gram matrix counts one memo over all its entries: 3 one-quantum
    # states meet in 9 distinct words, which fit a bound of 9, not of 6
    states = [("m0dag",), ("m1dag",), ("m2dag",)]
    with pytest.raises(ContractionLimitError):
        gram_matrix(states, table)
    monkeypatch.setattr(fock, "MAX_CONTRACTION_STATES", 9)
    assert gram_matrix(states, table).matrix == ExactMatrix([[1] * 3] * 3)
    assert issubclass(ContractionLimitError, ValueError)


def test_unknown_symbol_raises():
    with pytest.raises(UnknownSymbolError):
        vacuum_expectation(("a", "q"), BOSE_CROSS)
    with pytest.raises(UnknownSymbolError):
        vacuum_expectation(("q",), BOSE_CROSS)
    # a leading creator makes the value 0, but the word is still checked
    with pytest.raises(UnknownSymbolError):
        vacuum_expectation(("adag", "q"), BOSE_CROSS)


# -- vacuum expectation values -----------------------------------------------------


def test_vev_pins():
    assert vacuum_expectation(("c", "ddag"), WITNESS) == Scalar(-1)
    assert vacuum_expectation(("adag", "a"), BOSE_DIAG) == ZERO
    assert vacuum_expectation(("a", "adag"), BOSE_DIAG) == ONE
    assert vacuum_expectation(("a", "a", "bdag", "bdag"), BOSE_CROSS) == Scalar(2)
    assert vacuum_expectation((), BOSE_CROSS) == ONE


def test_bose_vev_matches_both_oracles_exhaustively():
    values = {("a", "bdag"): Fraction(1), ("b", "adag"): Fraction(1)}
    for word in all_words(4):
        expected = ladder_vev(word, Fraction(1))
        assert wick_vev(word, values) == expected
        assert vacuum_expectation(word, BOSE_CROSS) == expected


def test_bose_vev_matches_oracle_on_long_words():
    rng = random.Random(29)
    values = {("a", "bdag"): Fraction(1), ("b", "adag"): Fraction(1)}
    for _ in range(250):
        word = tuple(rng.choices(SYMBOLS, k=rng.choice((5, 6))))
        expected = ladder_vev(word, Fraction(1))
        assert wick_vev(word, values) == expected
        assert vacuum_expectation(word, BOSE_CROSS) == expected


@pytest.mark.parametrize("value,table", [(1, FERMI_CROSS), (-1, FERMI_NEG)])
def test_fermi_vev_matches_matrix_oracle_exhaustively(value, table):
    for word in all_words(4):
        assert vacuum_expectation(word, table) == fermi_vev(word, value)


@pytest.mark.parametrize("value,table", [(1, FERMI_CROSS), (-1, FERMI_NEG)])
def test_fermi_vev_matches_matrix_oracle_on_long_words(value, table):
    rng = random.Random(31 + value)
    for _ in range(250):
        word = tuple(rng.choices(SYMBOLS, k=rng.choice((5, 6))))
        assert vacuum_expectation(word, table) == fermi_vev(word, value)


def test_vev_of_adjoint_is_the_conjugate():
    table = parse_relation_table("""
    bracket = anticommutator
    pair a bdag = 0+1i
    pair b adag = 0-1i
    """)
    rng = random.Random(47)
    checked_imaginary = False
    for _ in range(200):
        word = tuple(rng.choices(SYMBOLS, k=rng.randrange(7)))
        value = vacuum_expectation(word, table)
        flipped = vacuum_expectation(adjoint_word(word, table), table)
        assert flipped == value.conjugate()
        if not value.is_real:
            checked_imaginary = True
    assert checked_imaginary


def test_vev_of_adjoint_real_tables():
    rng = random.Random(53)
    for table in (BOSE_CROSS, FERMI_CROSS, FERMI_NEG):
        for _ in range(60):
            word = tuple(rng.choices(SYMBOLS, k=rng.randrange(7)))
            value = vacuum_expectation(word, table)
            flipped = vacuum_expectation(adjoint_word(word, table), table)
            assert flipped == value.conjugate()


# -- confluence ---------------------------------------------------------------------


def _random_order_normal_form(word, table, rng):
    """Rewrite bad pairs in random order; canonicalize blocks at the end."""
    fermi = table.bracket == "anticommutator"
    swap_sign = Scalar(-1) if fermi else ONE
    values = {(a, c): v for a, c, v in table.pairs}
    terms = {tuple(word): ONE}
    while True:
        sites = [
            (w, i)
            for w in sorted(terms)
            for i in range(len(w) - 1)
            if w[i] in table.annihilators and w[i + 1] in table.creators
        ]
        if not sites:
            break
        w, i = sites[rng.randrange(len(sites))]
        coeff = terms.pop(w)
        swapped = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        _acc(terms, swapped, coeff * swap_sign)
        v = values.get((w[i], w[i + 1]), ZERO)
        if not v.is_zero:
            _acc(terms, w[:i] + w[i + 2:], coeff * v)

    final = {}
    for w, coeff in terms.items():
        split = len(w)
        for k, s in enumerate(w):
            if s in table.annihilators:
                split = k
                break
        done = _sort_block(w[:split], fermi)
        if done is None:
            continue
        creators, sign_c = done
        done = _sort_block(w[split:], fermi)
        if done is None:
            continue
        annihilators, sign_a = done
        sign = ONE if sign_c * sign_a == 1 else Scalar(-1)
        _acc(final, creators + annihilators, coeff * sign)
    return final


def _acc(terms, word, coeff):
    total = terms.get(word, ZERO) + coeff
    if total.is_zero:
        terms.pop(word, None)
    else:
        terms[word] = total


def _sort_block(block, fermi):
    items = list(block)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    if fermi and any(x == y for x, y in zip(items, items[1:])):
        return None
    return tuple(items), sign if fermi else 1


def _random_word(table, rng):
    """A word of length <= 6; half the time a balanced one.

    A balanced word reads as a bracket sequence with annihilators opening
    and creators closing, so it admits complete contractions and usually
    has a nonzero vacuum expectation.
    """
    symbols = sorted(table.symbols)
    if rng.random() < 0.5:
        return tuple(rng.choices(symbols, k=rng.randrange(7)))
    annihilators, creators = sorted(table.annihilators), sorted(table.creators)
    k = rng.randrange(4)
    word, opened = [], 0
    while len(word) < 2 * k:
        if opened < k and (2 * opened == len(word) or rng.random() < 0.5):
            word.append(rng.choice(annihilators))
            opened += 1
        else:
            word.append(rng.choice(creators))
    return tuple(word)


def test_normal_order_is_confluent():
    # two random rewrite orders reach one normal form, whose empty-word
    # coefficient is the vacuum expectation
    rng = random.Random(101)
    for trial in range(100):
        table = (BOSE_CROSS, FERMI_CROSS, FERMI_NEG)[trial % 3]
        word = _random_word(table, rng)
        normal_form = _random_order_normal_form(word, table, rng)
        assert _random_order_normal_form(word, table, rng) == normal_form
        assert normal_form.get((), ZERO) == vacuum_expectation(word, table)


_GAUSSIAN_RATIONALS = st.builds(
    Scalar,
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
)


@st.composite
def relation_tables(draw):
    """Both brackets; diagonal and cross pairs over two modes."""
    links = draw(st.lists(
        st.sampled_from([("a", "adag"), ("a", "bdag"), ("b", "adag"), ("b", "bdag")]),
        min_size=1, max_size=4, unique=True))
    return RelationTable(
        draw(st.sampled_from(["commutator", "anticommutator"])),
        [(a, c, draw(_GAUSSIAN_RATIONALS)) for a, c in links])


@given(relation_tables(), st.randoms(use_true_random=False))
def test_vev_is_the_constant_term_of_the_normal_form(table, rng):
    word = _random_word(table, rng)
    expected = _random_order_normal_form(word, table, rng).get((), ZERO)
    assert vacuum_expectation(word, table) == expected


# -- gram matrices -------------------------------------------------------------------


def test_negative_norm_witness_gram():
    result = gram_matrix([("ddag",)], WITNESS)
    assert result.matrix == ExactMatrix([[-1]])
    assert result.signature == (0, 1, 0)


def test_positive_pair_gram():
    table = parse_relation_table("bracket = anticommutator\npair a bdag = 1")
    result = gram_matrix([("bdag",)], table)
    assert result.matrix == ExactMatrix([[1]])
    assert result.signature == (1, 0, 0)


def test_independent_bose_modes_gram_is_identity():
    result = gram_matrix([("adag",), ("bdag",)], BOSE_DIAG)
    assert result.matrix == ExactMatrix.identity(2)
    assert result.signature == (2, 0, 0)


def test_two_quantum_state_norm_counts_pairings():
    result = gram_matrix([("adag",), ("adag", "adag")], BOSE_DIAG)
    assert result.matrix == ExactMatrix.diagonal([1, 2])
    assert result.signature == (2, 0, 0)


def test_mixed_sector_gram_signature():
    table = parse_relation_table("""
    bracket = anticommutator
    pair a adag = 1
    pair c ddag = -1
    """)
    result = gram_matrix([("adag",), ("ddag",)], table)
    assert result.matrix == ExactMatrix.diagonal([1, -1])
    assert result.signature == (1, 1, 0)


# pair values over three denominators, 2, 3 and 12, one of them complex: the
# table denominator is their lcm 12, and a p-pair word sits over 12**p.  The
# pairing matrix [[1/2, 1/3+1/4i], [1/3-1/4i, 2/3]] is hermitian.
MIXED = parse_relation_table("""
bracket = commutator
pair a adag = 1/2
pair b bdag = 2/3
pair a bdag = 1/3+1/4i
pair b adag = 1/3-1/4i
""")
MIXED_PAIRING = {
    ("adag", "adag"): Scalar.parse("1/2"),
    ("bdag", "bdag"): Scalar.parse("2/3"),
    ("adag", "bdag"): Scalar.parse("1/3+1/4i"),
    ("bdag", "adag"): Scalar.parse("1/3-1/4i"),
}


def test_mixed_denominator_word_by_hand():
    assert MIXED.denominator == 12
    assert vacuum_expectation(("b", "adag"), MIXED) == Scalar.parse("1/3-1/4i")
    # a with adag leaves <a bdag>: 1/2 (1/3+1/4i); a with bdag leaves
    # <a adag>: (1/3+1/4i) 1/2; the sum is 1/3+1/4i = (48+36i)/12**2
    word = ("a", "a", "adag", "bdag")
    assert vacuum_expectation(word, MIXED) == Scalar.parse("1/3+1/4i")
    # one pair: the value itself, 1/2 = 6/12
    assert vacuum_expectation(("a", "adag"), MIXED) == Scalar.parse("1/2")
    # three pairs over 12**3: <a a a adag adag adag> = 3! (1/2)**3
    word = ("a",) * 3 + ("adag",) * 3
    assert vacuum_expectation(word, MIXED) == Scalar.parse("3/4")


def test_mixed_denominator_gram_by_hand():
    states = [("adag", "bdag"), ("adag",), ("bdag", "bdag")]
    result = gram_matrix(states, MIXED)
    # <0| b a adag bdag |0> = |1/3+1/4i|**2 + (2/3)(1/2) = 25/144 + 48/144;
    # <0| b a bdag bdag |0> = 2 (2/3)(1/3+1/4i); <0| b b bdag bdag |0> = 2 (2/3)**2;
    # the 1-quantum state meets the 2-quantum ones in no term
    g = Scalar.parse("4/9+1/3i")
    assert result.matrix == ExactMatrix([
        [Scalar.parse("73/144"), 0, g],
        [0, Scalar.parse("1/2"), 0],
        [g.conjugate(), 0, Scalar.parse("8/9")]])
    # det of the 2-quantum block: 73/144 * 8/9 - 25/81 = 23/162 > 0
    assert result.signature == (3, 0, 0)
    for r, m in enumerate(states):
        for c, n in enumerate(states):
            assert result.matrix[r, c] == wick_gram_entry(MIXED_PAIRING, m, n, False)


def test_gram_rejects_non_creator_states():
    with pytest.raises(ValueError, match="creator words"):
        gram_matrix([("a",)], BOSE_CROSS)
    with pytest.raises(ValueError, match="at least one state"):
        gram_matrix([], BOSE_CROSS)


def test_gram_rejects_self_inconsistent_table():
    table = parse_relation_table("bracket = anticommutator\npair c ddag = 0+1i")
    with pytest.raises(ValueError, match="non-hermitian"):
        gram_matrix([("ddag",)], table)


def test_witness_gram_agrees_with_metric_realization():
    """The -1 table is a positive-metric ladder viewed through eta = diag(1, -1).

    Route one: flipped annihilator, ordinary inner product.  Route two:
    ordinary ladder matrices with the indefinite metric sandwiched in.  Both
    must reproduce the symbolic Gram entry.
    """
    symbolic = gram_matrix([("ddag",)], WITNESS).matrix
    raise_vec = [Fraction(0), Fraction(1)]
    flipped_lower = [[Fraction(0), Fraction(-1)], [Fraction(0), Fraction(0)]]
    route_one = sum(flipped_lower[0][j] * raise_vec[j] for j in range(2))
    eta = [Fraction(1), Fraction(-1)]
    route_two = sum(raise_vec[i] * eta[i] * raise_vec[i] for i in range(2))
    assert symbolic == ExactMatrix([[route_one]])
    assert symbolic == ExactMatrix([[route_two]])


def test_fermi_neg_gram_matches_vev_oracle():
    """Cross-pair table with name adjoints: single-creator states are null.

    adjoint(bdag) = b, and b brackets only with adag, so the norm pairing is
    off-diagonal between the two creators.
    """
    words = [("bdag",), ("adag",), ("bdag", "adag")]
    result = gram_matrix(words, FERMI_NEG)
    via_oracle = [
        [fermi_vev(adjoint_word(m, FERMI_NEG) + n, -1) for n in words]
        for m in words
    ]
    assert result.matrix == ExactMatrix(via_oracle)
    assert result.matrix == ExactMatrix([[0, -1, 0], [-1, 0, 0], [0, 0, -1]])
    assert result.signature == (1, 2, 0)


def test_two_mode_witness_gram_agrees_with_metric_realization():
    """Identified two-mode -1 table versus ordinary ladders through (−1)^N.

    Route one is the symbolic engine; route two represents the creators as
    standard Jordan-Wigner matrices on a positive Fock space and carries the
    signs entirely in the metric eta = Z (x) Z, whose eigenvalue on an
    n-quantum state is (−1)^n.
    """
    table = parse_relation_table("""
    bracket = anticommutator
    pair c1 d1dag = -1
    pair c2 d2dag = -1
    """)
    words = [("d1dag",), ("d2dag",), ("d1dag", "d2dag")]
    result = gram_matrix(words, table)

    std = {"d1dag": _kron2(_M_C, _M_I), "d2dag": _kron2(_M_Z, _M_C)}
    eta = _kron2(_M_Z, _M_Z)
    vectors = []
    for w in words:
        vec = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        for s in reversed(w):
            vec = _matvec(std[s], vec)
        vectors.append(vec)
    via_eta = [
        [
            Scalar(sum(u[i] * eta[i][j] * v[j] for i in range(4) for j in range(4)))
            for v in vectors
        ]
        for u in vectors
    ]
    assert result.matrix == ExactMatrix(via_eta)
    assert result.matrix == ExactMatrix.diagonal([-1, -1, 1])
    assert result.signature == (1, 2, 0)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@st.composite
def hermitian_pairings(draw):
    """A 2-4-mode table whose pairing matrix P is hermitian, with cross pairs.

    P[i][j] = [m_i, m_j^dag] is real on the diagonal and P[j][i] is the
    conjugate of P[i][j], so every Gram matrix is hermitian and the table
    agrees with its own adjoint structure.  P[0][1] is never 0, and other
    entries often are.  Returns the table and the pairing
    <0| x^dagger y |0> between creators x and y.
    """
    n = draw(st.integers(min_value=2, max_value=4))
    values = {}
    for i in range(n):
        values[i, i] = Scalar(draw(_RATIONALS))
        for j in range(i + 1, n):
            v = draw(_GAUSSIAN_RATIONALS.filter(bool) if (i, j) == (0, 1)
                     else _GAUSSIAN_RATIONALS)
            values[i, j], values[j, i] = v, v.conjugate()
    table = RelationTable(
        draw(st.sampled_from(["commutator", "anticommutator"])),
        [(f"m{i}", f"m{j}dag", v) for (i, j), v in sorted(values.items())])
    pairing = {(f"m{i}dag", f"m{j}dag"): v for (i, j), v in values.items()}
    return table, pairing


@st.composite
def mixed_states(draw, creators):
    """One state each of 1, 2 and 3 quanta, up to three more, shuffled."""
    def word(quanta):
        return tuple(draw(st.lists(st.sampled_from(creators),
                                   min_size=quanta, max_size=quanta)))

    states = [word(1), word(2), word(3)]
    states += [word(draw(st.integers(1, 3)))
               for _ in range(draw(st.integers(0, 3)))]
    return draw(st.permutations(states))


@given(st.data())
def test_gram_entries_match_the_wick_oracle(data):
    table, pairing = data.draw(hermitian_pairings())
    states = data.draw(mixed_states(sorted(table.creators)))
    fermi = table.bracket == "anticommutator"
    result = gram_matrix(states, table)
    for r, m in enumerate(states):
        for c, n in enumerate(states):
            expected = wick_gram_entry(pairing, m, n, fermi)
            assert result.matrix[r, c] == expected
            assert vacuum_expectation(adjoint_word(m, table) + n, table) == expected


@st.composite
def exchange_states(draw, creators):
    """Creator words of 1-3 quanta, repeated creators allowed, and permuted
    copies of some of them, shuffled: several states share one exchange
    class, and a copy may come before the word it permutes."""
    words = [tuple(draw(st.lists(st.sampled_from(creators),
                                 min_size=quanta, max_size=quanta)))
             for quanta in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))]
    copies = [tuple(draw(st.permutations(draw(st.sampled_from(words)))))
              for _ in range(draw(st.integers(1, 4)))]
    return draw(st.permutations(words + copies))


@given(st.data())
def test_gram_by_exchange_class_matches_the_wick_oracle(data):
    """Permuted copies get their exchange-signed entries, and each state
    beyond its class's first adds one zero to the signature."""
    table, pairing = data.draw(hermitian_pairings())
    states = data.draw(exchange_states(sorted(table.creators)))
    fermi = table.bracket == "anticommutator"
    expected = ExactMatrix([[wick_gram_entry(pairing, m, n, fermi) for n in states]
                            for m in states])
    result = gram_matrix(states, table)
    assert result.matrix == expected
    assert result.signature == descartes_signature(expected)


@pytest.mark.parametrize("bracket", ["commutator", "anticommutator"])
@pytest.mark.parametrize("pairs,states", [
    # a non-real norm, met only by the class of two permuted states
    ("pair a adag = 0+1i\npair b bdag = 1\n",
     [("adag", "bdag"), ("bdag", "adag")]),
    # [b, cdag] = [c, bdag] = i, not conjugates: the entries between the
    # classes of adag bdag and adag cdag are not mirrored
    ("pair a adag = 1\npair b bdag = 1\npair c cdag = 1\n"
     "pair b cdag = 0+1i\npair c bdag = 0+1i\n",
     [("bdag", "adag"), ("adag", "cdag"), ("adag", "bdag"), ("cdag", "adag")]),
])
def test_gram_with_permuted_copies_rejects_self_inconsistent_table(
        bracket, pairs, states):
    table = parse_relation_table(f"bracket = {bracket}\n{pairs}")
    with pytest.raises(ValueError, match="non-hermitian"):
        gram_matrix(states, table)


def test_gram_of_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        gram_matrix([("qdag",)], BOSE_CROSS)
