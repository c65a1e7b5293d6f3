import importlib
import json
import pathlib
import pkgutil
from importlib import resources

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import spinstat
from spinstat.algebra import ExactMatrix, Scalar
from spinstat.model import parse_theory
from spinstat.report import (
    STATUSES,
    AmbiguousKinematicError,
    _matrix_json,
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
    # one block per field feeds both its verdict and its flavor diagnosis
    sizes = []

    def counting(self, row_idx, col_idx):
        sizes.append(len(row_idx))
        return submatrix(self, row_idx, col_idx)

    submatrix = ExactMatrix.submatrix
    monkeypatch.setattr(ExactMatrix, "submatrix", counting)
    report = analyze(
        "theory t\nfield a spin=1 flavors=2\nfield b spin=2 flavors=2\n"
        "flavor antisymmetric-pair\n")
    assert [name for name, _ in report.flavor_by_field] == ["a", "b"]
    assert sizes == [6, 10]


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


# matrix rows exactly as _matrix_json returns them, from sparse matrices of
# any shape with real and complex entries
matrix_rows = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda rc: st.lists(
        st.lists(st.just(Scalar(0)) | any_scalars, min_size=rc[1], max_size=rc[1]),
        min_size=rc[0], max_size=rc[0]),
).map(lambda rows: _matrix_json(ExactMatrix(rows)))

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


# nested dicts and lists, empty ones at every depth, lists that hold only
# scalars (the one-call path), lists of strings only (the joined path,
# when no string needs escaping), lists of ints only (the other joined
# path: negative, past 2**64, and mixed with bools, which take the
# item-by-item path), lists of such lists, matrix rows as
# _matrix_json returns them (the MatrixText path), whole reports, and
# lists that mix scalars and containers
json_payloads = st.recursive(
    json_scalars | matrix_rows
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
                   | st.dictionaries(st.text(max_size=5), inner, max_size=5)),
    max_leaves=40)


@given(json_payloads)
@example({"canonical_indices": [0, -3, 2**64 + 1]})
@example([[1, True, -2**65], [False, 0]])
def test_json_text_matches_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2) + "\n"
