"""Hypothesis fuzzing of the two input grammars.

Texts are drawn line by line from each grammar, with wrong tokens, wrong
values and junk lines mixed in.  Huge numbers appear only as literals
(``1e5000``, 4400 digits), never as built integers: the parsers must
refuse them by their size before they build them.  Every input either
parses or raises ``ParseError`` with the line at fault, and every theory
that parses is analyzed to a status or refused as ambiguous.
"""

import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from spinstat.algebra import ParseError
from spinstat.fock import parse_relation_table
from spinstat.model import TheoryParseError, parse_theory
from spinstat.report import STATUSES, AmbiguousKinematicError, analyze_theory
from spinstat.schwinger import surface_variation_consistency

# explicit matrix paths resolve here
GOLDEN = pathlib.Path(__file__).parent / "golden"

# numbers as text, right and wrong, the huge ones only as literals
huge_numbers = st.sampled_from([
    "1e5000", "1e-5000", "9e999999999", "1" * 4400, "1/" + "7" * 4400,
    "1e+0000000005000"])
numbers = st.one_of(
    st.integers(-3, 12).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 4)),
    st.sampled_from([
        "0.5", "-0", "+1", "1e0", "25e-1", "1e-4000", "1e+0000000003",
        "1_0", "0x10", "nan", "inf", "", "abc", "١", "1/2/3", "--1", "1/-2",
    ]),
    huge_numbers,
)
names = st.sampled_from(["a", "psi", "phi_2", "_x", "1bad", "a-b", "é", ""])
junk = st.text(max_size=12)
comments = st.sampled_from(["", "   ", "# comment", "  # indented comment"])


def _line(*tokens: str) -> str:
    return " ".join(tokens)


# -- theories -----------------------------------------------------------------

good_values = {
    "spin": st.sampled_from(["0", "1/2", "1", "3/2", "2", "5/2", "7/2", "4"]),
    "flavors": st.sampled_from(["1", "2", "3"]),
    "copies": st.sampled_from(["1", "2", "3"]),
    "hermitian": st.just("true"),
    "statistics": st.sampled_from(["auto", "bose", "fermi"]),
}
bad_values = {
    "spin": st.sampled_from(["9/2", "1/3", "-1", "1/0"]) | huge_numbers | numbers,
    "flavors": numbers,
    "copies": numbers,
    "hermitian": st.sampled_from(["false", "yes", ""]),
    "statistics": st.sampled_from(["maybe", "", "Bose"]),
    "charge": numbers,
}


def _attributes(values: dict, max_size: int):
    return st.lists(
        st.sampled_from(sorted(values)).flatmap(
            lambda key: values[key].map(lambda v: f"{key}={v}")),
        max_size=max_size)


def _render(attrs: dict) -> str:
    return _line(*(f"{key}={value}" for key, value in attrs.items()))


good_attrs = st.fixed_dictionaries(
    {"spin": good_values["spin"]},
    optional={key: good_values[key] for key in ("flavors", "copies", "statistics")})
good_fields = good_attrs.map(_render)
# a good field with one attribute given a wrong value, so that the check of
# that value is what the parser meets first
faulty_fields = st.builds(
    lambda attrs, fault: _render({**attrs, fault[0]: fault[1]}),
    good_attrs,
    st.sampled_from(sorted(bad_values)).flatmap(
        lambda key: bad_values[key].map(lambda value: (key, value))))
any_fields = st.builds(
    lambda name, attrs: _line("field", name, *attrs),
    names, _attributes({**good_values, **bad_values}, 4))
# the two explicit matrices are 4x4 and 16x16
good_kinematic = st.sampled_from([
    "kinematic auto", "kinematic explicit mixed_constraints.k0",
    "kinematic explicit not_invariant.k0"])
kinematic_lines = good_kinematic | st.sampled_from([
    "kinematic explicit missing.k0", "kinematic explicit", "kinematic sideways"])
good_flavor = st.sampled_from(["flavor diagonal", "flavor antisymmetric-pair"])
flavor_lines = good_flavor | st.just("flavor")



def _theory(fields: list[str], tail: list[str]) -> str:
    return "\n".join(
        ["theory t", *(f"field f{k} {attrs}" for k, attrs in enumerate(fields)),
         *tail]) + "\n"


tails = st.tuples(st.none() | good_kinematic, st.none() | good_flavor).map(
    lambda lines: [line for line in lines if line is not None])
# the theories of the golden cases, which reach every status, and files
# the grammar accepts line by line, whose whole-theory checks may still
# refuse them
well_formed_theories = st.sampled_from(sorted(
    path.read_text() for path in GOLDEN.glob("*.th"))) | st.builds(
    _theory, st.lists(good_fields, min_size=1, max_size=3), tails)
# a well-formed file whose last field has one wrong value, with that
# field's line number
faulty_theories = st.builds(
    lambda fields, fault, tail: (_theory([*fields, fault], tail), len(fields) + 2),
    st.lists(good_fields, max_size=2), faulty_fields, tails)
any_theories = st.one_of(
    well_formed_theories,
    faulty_theories.map(lambda case: case[0]),
    st.lists(st.one_of(
        st.builds(lambda n: f"theory {n}", names),
        good_fields.map(lambda attrs: f"field a {attrs}"), any_fields,
        kinematic_lines, flavor_lines, comments, junk,
    ), max_size=6).map("\n".join),
)


@settings(max_examples=300)
@given(any_theories)
def test_every_theory_parses_to_a_verdict_or_fails_at_its_line(text):
    try:
        spec = parse_theory(text, base_dir=GOLDEN)
    except ParseError as exc:
        assert isinstance(exc, TheoryParseError)
        # line 0 is an error of the whole file
        assert exc.line is not None and 0 <= exc.line <= len(text.splitlines())
        assert str(exc).startswith(f"line {exc.line}: ")
        return
    # the parser bounds spins, counts and dimension, so every spec that
    # comes out of it can be analyzed
    try:
        report = analyze_theory(spec)
    except AmbiguousKinematicError:
        return
    assert report.status in STATUSES
    # a statistics is set only when every field block has the class it
    # keeps, so K0 has that class or is mixed and its momentum map is not
    # zero: the surface variation is always consistent, which is why the
    # report does not state it
    if report.statistics is not None:
        k0 = report.build.kinematic.matrix
        assert surface_variation_consistency(k0, report.statistics).consistent
        assert report.split.canonical_indices


@settings(max_examples=300)
@given(faulty_theories)
def test_a_wrong_field_value_fails_at_its_line(case):
    text, line = case
    try:
        parse_theory(text, base_dir=GOLDEN)
    except TheoryParseError as exc:
        # the faulty field's own line, or the line of what a rule of the
        # whole theory refuses: a field without the pair's flavors=2, or
        # the kinematic line of an explicit matrix the pair or the
        # theory's dimension conflicts with
        directive = text.splitlines()[exc.line - 1].split()[0] if exc.line else None
        if "flavors=2" in str(exc):
            assert directive == "field"
        elif "explicit matrix" in str(exc):
            assert directive == "kinematic"
        else:
            assert exc.line == line


# -- relation tables ------------------------------------------------------------

scalars = st.one_of(
    numbers,
    st.builds("{}{}{}i".format, numbers, st.sampled_from(["+", "-"]), numbers),
    st.sampled_from(["i", "-i", "+i", "2i", "1/2 + 1/3 i", "1e5000i",
                     "1+1e-5000i", "i i", "1+"]),
)
annihilators = st.sampled_from(["a", "b", "c", "adag", ""])
creators = st.sampled_from(["adag", "bdag", "cdag", "b", "dag"])
bracket_lines = st.sampled_from([
    "bracket = commutator", "bracket = anticommutator", "bracket = poisson",
    "bracket commutator", "bracket = commutator extra"])
pair_lines = st.one_of(
    st.builds(lambda a, c, v: _line("pair", a, c, "=", v),
              annihilators, creators, scalars),
    st.builds(lambda a, c: _line("pair", a, c), annihilators, creators),
)
good_pairs = st.builds(
    lambda k, v: f"pair a{k} a{k}dag = {v}", st.integers(0, 3),
    numbers | st.sampled_from(["1", "-1", "1/2+1/3i"]))
well_formed_tables = st.builds(
    lambda bracket, pairs: "\n".join([f"bracket = {bracket}", *pairs]),
    st.sampled_from(["commutator", "anticommutator"]),
    st.lists(good_pairs, min_size=1, max_size=4))
table_texts = well_formed_tables | st.lists(
    st.one_of(bracket_lines, pair_lines, pair_lines, comments, junk),
    max_size=6).map("\n".join)

TABLE_LEVEL = {
    "relation table needs a 'bracket = ...' line",
    "relation table declares no pairs",
}


@settings(max_examples=300)
@given(table_texts)
def test_parse_relation_table_parses_or_raises_a_located_parse_error(text):
    try:
        table = parse_relation_table(text)
    except ParseError as exc:
        if exc.line is None:
            assert str(exc) in TABLE_LEVEL
        else:
            assert 1 <= exc.line <= len(text.splitlines())
            assert str(exc).startswith(f"line {exc.line}: ")
    else:
        assert table.pairs
