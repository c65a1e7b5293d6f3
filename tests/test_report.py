import importlib
import json
import pathlib
import pkgutil
import tempfile
from importlib import resources

import jsonschema
import oracles
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from stdlib_checks import GOLDEN_CASES
from test_invariance import perturbed_invariant_forms
from test_model import auto_theories as auto_specs

import spinstat
from spinstat import model
from spinstat import report as report_module
from spinstat.algebra import ExactMatrix, Scalar, SymmetryClass, symmetry_class
from spinstat.model import build_kinematic, parse_theory
from spinstat.report import (
    STATUSES,
    AmbiguousKinematicError,
    analyze_theory,
    json_text,
    render_text,
    report_to_dict,
    report_to_json,
)

SCHEMA = json.loads(
    (resources.files("spinstat") / "schemas" / "report.schema.json").read_text())


def analyze(text):
    return analyze_theory(parse_theory(text))


def test_the_status_table_names_every_status_of_the_schema():
    # STATUSES maps each status to the exit code that reports it
    assert set(STATUSES) == set(SCHEMA["properties"]["status"]["enum"])
    assert set(STATUSES.values()) == {0, 2, 3, 5}


def test_consistent_scalar_pair():
    report = analyze("theory t\nfield phi spin=0 copies=2\n")
    assert report.status == "CONSISTENT"
    assert report.statistics == "bose"
    assert report.invariance.ok
    assert report.split.constraint_indices == ()
    assert report.flavor_by_field == ()


def test_mixed_statistics_theory_skips_global_split():
    report = analyze(
        "theory mixed\nfield phi spin=0 copies=2\nfield psi spin=1/2\n")
    assert report.status == "CONSISTENT"
    by_name = {v.field: v.consistent_statistics
               for v in report.verdict.verdicts}
    assert by_name == {"phi": "bose", "psi": "fermi"}
    assert report.statistics is None
    assert report.split is None
    doc = report_to_dict(report)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kinematic"]["symmetry"] == "MIXED"
    assert doc["kinematic"]["constraints"] is None


def test_dimension_128_theory_is_analyzed():
    # 16 components x 8 flavors; the dense matrices of the baseline took
    # 15 s here, the sparse ones a fraction of a second (not asserted)
    report = analyze("theory t\nfield x spin=7/2 flavors=8\n")
    assert report.status == "CONSISTENT"
    assert report.statistics == "fermi"
    assert report.invariance.ok
    assert report.split.canonical_indices == tuple(range(128))
    assert report.split.constraint_indices == ()
    assert report_to_dict(report)["kinematic"]["invariant"] is True


def test_no_form_theory_reports_nulls():
    report = analyze("theory t\nfield phi spin=0\n")
    assert report.status == "NO_KINEMATIC_TERM"
    assert report.invariance is None and report.split is None
    doc = report_to_dict(report)
    jsonschema.validate(doc, SCHEMA)
    assert doc["kinematic"]["matrix"] is None


def test_ambiguous_kinematic_raises():
    with pytest.raises(AmbiguousKinematicError, match="not unique"):
        analyze("theory t\nfield psi spin=1/2 copies=2\n")


def test_two_field_flavor_pair_diagnosed_per_field():
    report = analyze(
        "theory t\nfield phi spin=0 flavors=2\nfield chi spin=0 flavors=2\n"
        "flavor antisymmetric-pair\n")
    assert report.status == "REJECTED_NEGATIVE_NORM"
    assert [name for name, _ in report.flavor_by_field] == ["phi", "chi"]
    assert all(d.negative_norm for _, d in report.flavor_by_field)
    assert all(d.sector_signs == (1, -1) for _, d in report.flavor_by_field)
    doc = report_to_dict(report)
    jsonschema.validate(doc, SCHEMA)
    assert [f["field"] for f in doc["flavor"]] == ["phi", "chi"]


def test_each_field_block_is_extracted_once(monkeypatch):
    # one block per field feeds both its verdict and its flavor diagnosis,
    # and it is the block the builder stored in K0, so no submatrix is cut
    sizes, judged = [], []

    def counting(self, row_idx, col_idx):
        sizes.append(len(row_idx))
        return submatrix(self, row_idx, col_idx)

    def judging(f, block, invariant):
        judged.append(block)
        return field_verdict(f, block, invariant)

    submatrix, field_verdict = ExactMatrix.submatrix, report_module.field_verdict
    monkeypatch.setattr(ExactMatrix, "submatrix", counting)
    monkeypatch.setattr(report_module, "field_verdict", judging)
    report = analyze(
        "theory t\nfield a spin=1 flavors=2\nfield b spin=2 flavors=2\n"
        "flavor antisymmetric-pair\n")
    assert [name for name, _ in report.flavor_by_field] == ["a", "b"]
    stored = list(report.build.kinematic.matrix._blocks.values())
    assert len(judged) == len(stored) == 2
    assert all(b is s for b, s in zip(judged, stored))
    assert judged[0] is model._field_block(2, SymmetryClass.SYMMETRIC, True, 2)
    assert sizes == []


@st.composite
def auto_theories(draw):
    """Field lines of 1 to 3 fields, 2j from 0 to 8, flavors times copies at
    most 4, statistics auto or pinned.  The copies a spin needs for a
    unique form (2 for integral spin, 1 for half-integral) are drawn three
    times in four."""
    lines = []
    for k in range(draw(st.integers(1, 3))):
        two_j = draw(st.integers(0, 8))
        needed = 1 if two_j % 2 else 2
        copies = needed if draw(st.integers(0, 3)) else 3 - needed
        flavors = draw(st.integers(1, 4 // copies))
        statistics = draw(st.sampled_from(["auto", "auto", "bose", "fermi"]))
        spin = f"{two_j}/2" if two_j % 2 else str(two_j // 2)
        lines.append(f"field f{k} spin={spin} flavors={flavors} copies={copies} "
                     f"statistics={statistics}\n")
    return "theory t\n" + "".join(lines)


@given(auto_theories())
def test_auto_k0_analyzes_as_its_explicit_copy(text):
    # the built K0 written out as `kinematic explicit` takes the
    # whole-matrix paths: the verdicts must not tell the two apart
    auto_spec = parse_theory(text)
    assume(build_kinematic(auto_spec).status == "built")
    auto = analyze_theory(auto_spec)
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, "k.json").write_text(auto.build.kinematic.matrix.dumps())
        explicit = analyze_theory(parse_theory(
            text + "kinematic explicit k.json\n", base_dir=tmp))
    assert not explicit.build.kinematic.matrix._blocks
    assert explicit.status == auto.status
    assert [(v.consistent_statistics, v.contradiction)
            for v in explicit.verdict.verdicts] == [
        (v.consistent_statistics, v.contradiction) for v in auto.verdict.verdicts]
    assert explicit.invariance == auto.invariance
    assert explicit.split == auto.split
    want, got = report_to_dict(auto), report_to_dict(explicit)
    assert (want["kinematic"].pop("mode"), got["kinematic"].pop("mode")) == (
        "auto", "explicit")
    assert json_text(got) == json_text(want)


def test_contradiction_outranks_negative_norm():
    report = analyze(
        "theory t\nfield phi spin=0 flavors=2 statistics=fermi\n"
        "flavor antisymmetric-pair\n")
    assert report.verdict.verdicts[0].contradiction is not None
    assert any(d.negative_norm for _, d in report.flavor_by_field)
    assert report.status == "CONTRADICTION"


def test_half_integral_flavor_pair_is_ambiguous():
    # the realified half-integral space carries three antisymmetric
    # invariants, so no single pairing can be singled out
    with pytest.raises(AmbiguousKinematicError, match="not unique"):
        analyze(
            "theory t\nfield psi spin=1/2 flavors=2\n"
            "flavor antisymmetric-pair\n")


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(spinstat.__path__, "spinstat."):
        if info.name == "spinstat.__main__":
            continue
        module = importlib.import_module(info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ lists {name}"
    for name in spinstat.__all__:
        assert hasattr(spinstat, name), f"spinstat.__all__ lists {name}"


def test_render_text_contains_verdict_tokens():
    report = analyze("theory t\nfield psi spin=1/2\n")
    text = render_text(report)
    assert text.startswith("theory: t\n")
    assert text.endswith("status: CONSISTENT\n")
    assert "statistics Fermi" in text
    assert "michel parity -1" in text


def test_json_rendering_is_stable_in_process():
    text = "theory t\nfield phi spin=0 flavors=2\nflavor antisymmetric-pair\n"
    first = report_to_json(analyze(text))
    second = report_to_json(analyze(text))
    assert first == second
    assert first.endswith("\n")


# JSON scalars, strings with non-ASCII and control characters among them
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(st.characters(blacklist_categories=("Cs",))))
# strings JSON writes as they are, like matrix entries, and strings with
# what it escapes: a quote, a backslash, DEL, control characters, non-ASCII
plain_strings = st.text(st.sampled_from("0123456789/+-i "), max_size=6)
escaped_strings = st.builds(
    lambda head, char, tail: head + char + tail, plain_strings,
    st.sampled_from('"\\\x7f\x00\n\x1f\xe9\u20ac\U0001d11e'), plain_strings)
# any Gaussian rational, numerators and denominators unbounded
any_scalars = st.builds(Scalar, st.fractions(), st.fractions())


@given(any_scalars)
def test_scalar_text_is_plain_ascii(x):
    # the matrix path of json_text writes rows of this text as it is
    text = str(x)
    assert text.isascii() and text.isprintable()
    assert '"' not in text and "\\" not in text
    assert set(text) <= set("0123456789/+-i")


# matrix rows exactly as to_nested_strings returns them, from sparse
# matrices of any shape with real and complex entries
matrix_rows = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda rc: st.lists(
        st.lists(st.just(Scalar(0)) | any_scalars, min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0]),
).map(lambda rows: ExactMatrix(rows).to_nested_strings())

# two whole reports: one split with every index canonical, and the golden
# mixed K0 whose split has constraints
GOLDEN = pathlib.Path(__file__).parent / "golden"
ALL_CANONICAL = analyze("theory t\nfield phi spin=0 copies=2\n")
WITH_CONSTRAINTS = analyze_theory(parse_theory(
    (GOLDEN / "mixed_constraints.th").read_text(), base_dir=GOLDEN))


def test_canonical_block_is_read_from_the_kinematic_matrix():
    # the split's nonsingular block is not written: it is the matrix on
    # the rows and columns of canonical_indices
    assert WITH_CONSTRAINTS.split.constraint_indices == (2, 3)
    doc = report_to_dict(WITH_CONSTRAINTS)["kinematic"]
    assert "nonsingular_block" not in doc["constraints"]
    assert doc["matrix"] == [["0", "1", "1", "2"], ["-1", "0", "0", "1"],
                             ["-1", "0", "0", "1"], ["2", "-1", "-1", "0"]]
    canonical = doc["constraints"]["canonical_indices"]
    assert [[doc["matrix"][i][j] for j in canonical] for i in canonical] == [
        ["0", "1"], ["-1", "0"]]


@pytest.mark.parametrize("change", [
    lambda doc: doc.pop("schema_version"),
    lambda doc: doc.update(schema_version=1),
    lambda doc: doc.update(flavor=doc["flavor"][0]),
], ids=["no-version", "version-1", "flavor-object"])
def test_schema_refuses_a_report_without_the_v2_layout(change):
    doc = report_to_dict(analyze(
        "theory t\nfield phi spin=0 flavors=2\nflavor antisymmetric-pair\n"))
    jsonschema.validate(doc, SCHEMA)
    change(doc)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, SCHEMA)


# dict members of every scalar kind: strings plain and escaped (written
# inline with the key when plain), true and false beside the ints 1 and 0,
# negative ints and ints past 2**64 (inline), floats with -0.0 and 1e300
# and null; keys plain and escaped
member_scalars = (plain_strings | escaped_strings | st.booleans() | st.integers()
                  | st.floats() | st.none()
                  | st.sampled_from([True, 1, False, 0, -1, 2**64 + 1, -2**70,
                                     -0.0, 1e300, None]))
members = st.dictionaries(plain_strings | escaped_strings, member_scalars,
                          min_size=1, max_size=8)


def nested(payload, depth):
    """payload inside depth containers, a dict and a list in turn, each
    beside a scalar member."""
    for level in range(depth):
        payload = {"up": payload, "level": level} if level % 2 else [payload, level]
    return payload


# nested dicts and lists, empty ones at every depth, lists that hold only
# scalars (the one-call path), lists of strings only (the joined path,
# when no string needs escaping), lists of ints only (the other joined
# path: negative, past 2**64, and mixed with bools, which take the
# item-by-item path), lists of such lists, matrix rows as
# to_nested_strings returns them (the MatrixText path), whole reports, dicts
# of scalar members, alone and 12 to 16 containers deep, and lists that
# mix scalars and containers
json_payloads = st.recursive(
    json_scalars | matrix_rows | members
    | st.builds(nested, members, st.integers(12, 16))
    | st.sampled_from([report_to_dict(r) for r in (ALL_CANONICAL, WITH_CONSTRAINTS)]),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(json_scalars, max_size=5)
                   | st.lists(st.integers(), min_size=1, max_size=5)
                   | st.lists(st.integers(-2**70, 2**70) | st.booleans(), max_size=5)
                   | st.lists(plain_strings, max_size=5)
                   | st.lists(plain_strings | escaped_strings, max_size=5)
                   | st.lists(st.lists(plain_strings, max_size=3), max_size=4)
                   | st.lists(st.lists(plain_strings | escaped_strings, max_size=3),
                              max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=5)
                   | st.dictionaries(plain_strings | escaped_strings,
                                     member_scalars | inner, max_size=6)),
    max_leaves=40)


@given(json_payloads)
@example({"canonical_indices": [0, -3, 2**64 + 1]})
@example([[1, True, -2**65], [False, 0]])
@example(nested({"t": True, "1": 1, "f": False, "0": 0, "big": -2**70,
                 "z": -0.0, "e": 1e300, "n": None, 'q"': 'a"b', "b\\": "c\\d",
                 "\x1f": "\n", "\u00e9": "\u20ac"}, 12))
def test_json_text_matches_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2) + "\n"


# -- the report writer against the dict oracle -------------------------------


def oracle_json(report):
    return json.dumps(oracles.report_dict(report), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(
    name for name, (_, argv) in GOLDEN_CASES.items() if argv[0] == "analyze"))
def test_report_json_matches_the_dict_oracle_on_every_golden_theory(name):
    path = pathlib.Path(GOLDEN_CASES[name][1][1])
    report = analyze_theory(parse_theory(path.read_text(), base_dir=path.parent))
    assert report_to_json(report) == oracle_json(report)


@st.composite
def drawn_specs(draw):
    """Theories of every report shape: auto K0s from field lines with
    pinned statistics (some contradicted, some with no form), auto K0s
    in either flavor mode, antisymmetric pairs of integral spin (negative
    norms), an auto K0 handed back as an explicit one (invariant) or with
    one entry and its mirror changed in the first field's block (mostly
    not invariant), and explicit K0s built from invariant forms and often
    changed at a few entries of any class."""
    kind = draw(st.sampled_from(
        ["lines", "auto", "pair", "explicit-copy", "explicit-changed", "explicit"]))
    if kind == "lines":
        return parse_theory(draw(auto_theories()))
    if kind == "pair":
        fields = "".join(
            f"field f{k} spin={draw(st.integers(0, 4))} flavors=2 statistics="
            f"{draw(st.sampled_from(['auto', 'bose', 'fermi']))}\n"
            for k in range(draw(st.integers(1, 2))))
        return parse_theory(f"theory t\n{fields}flavor antisymmetric-pair\n")
    if kind == "explicit":
        spec, k0 = draw(perturbed_invariant_forms())
        return spec._replace(explicit_matrix=k0)
    spec = draw(auto_specs())
    if kind == "auto":
        return spec
    spec = spec._replace(flavor_mode="diagonal")
    build = build_kinematic(spec)
    assume(build.status == "built")
    k0 = build.kinematic.matrix
    if kind == "explicit-changed":
        n = spec.fields[0].block_dimension
        assume(n > 1)
        i, j = draw(st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)]))
        sign = 1 if symmetry_class(k0.principal(range(n))) is SymmetryClass.SYMMETRIC else -1
        rows = [list(k0.row(r)) for r in range(k0.rows)]
        rows[i][j] += Scalar(1)
        rows[j][i] += Scalar(sign)
        k0 = ExactMatrix(rows)
    return spec._replace(explicit_matrix=k0)


@given(drawn_specs())
def test_report_json_matches_the_dict_oracle_on_drawn_theories(spec):
    try:
        report = analyze_theory(spec)
    except AmbiguousKinematicError:
        assume(False)
    assert report_to_json(report) == oracle_json(report)


# texts JSON escapes: a quote, a backslash, control characters, DEL and
# non-ASCII within and beyond the basic plane
ESCAPED_TEXTS = ['say "hi"', "back\\slash", "tab\tnew\nline", "nul\x00", "del\x7f",
                 "caf\u00e9", "\u20ac", "\U0001d11e"]
PAIR_REPORT = analyze(
    "theory t\nfield phi spin=0 flavors=2\nfield chi spin=0 flavors=2\n"
    "flavor antisymmetric-pair\n")


def _first_verdict(r, **change):
    verdicts = r.verdict.verdicts
    return r._replace(verdict=r.verdict._replace(
        verdicts=(verdicts[0]._replace(**change),) + verdicts[1:]))


def _first_flavor(r, name=None, **change):
    (first, d), *rest = r.flavor_by_field
    return r._replace(flavor_by_field=((name or first, d._replace(**change)), *rest))


def _first_label(r, text):
    kin = r.build.kinematic
    return r._replace(build=r.build._replace(
        kinematic=kin._replace(index_map=(text,) + kin.index_map[1:])))


STRING_EDITS = {
    "theory": lambda r, t: r._replace(spec=r.spec._replace(name=t)),
    "field": lambda r, t: _first_verdict(r, field=t),
    "contradiction": lambda r, t: _first_verdict(r, contradiction=t),
    "build-note": lambda r, t: r._replace(build=r.build._replace(note=t)),
    "flavor-field": lambda r, t: _first_flavor(r, name=t),
    "flavor-note": lambda r, t: _first_flavor(r, note=t),
    "label": _first_label,
}


@pytest.mark.parametrize("text", ESCAPED_TEXTS)
@pytest.mark.parametrize("edit", sorted(STRING_EDITS))
def test_report_json_escapes_strings_as_the_dict_oracle(edit, text):
    # no parsed theory holds such a string; a report edited to hold one
    # must still be written as json.dumps writes it
    report = STRING_EDITS[edit](PAIR_REPORT, text)
    assert report_to_json(report) == oracle_json(report)
