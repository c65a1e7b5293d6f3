import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from spinstat import cli, fock
from spinstat.algebra import ExactMatrix
from spinstat.fock import MAX_GRAM_STATES

THEORIES = resources.files("spinstat") / "theories"
SCHEMA = json.loads(
    (resources.files("spinstat") / "schemas" / "report.schema.json").read_text())

# name -> (status, exit code)
CORPUS = {
    "scalar_single": ("NO_KINEMATIC_TERM", 0),
    "scalar_doubled": ("CONSISTENT", 0),
    "scalar_charged": ("CONSISTENT", 0),
    "majorana": ("CONSISTENT", 0),
    "dirac": ("CONSISTENT", 0),
    "scalar_flavor_antisym": ("REJECTED_NEGATIVE_NORM", 3),
    "vector": ("CONSISTENT", 0),
}


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "spinstat", *args],
        capture_output=True, text=True, cwd=cwd)


def analyze_json(theory_path, tmp_path, name="out"):
    out = tmp_path / f"{name}.json"
    proc = run_cli("analyze", str(theory_path), "--json", str(out))
    return proc, out


# -- analyze over the bundled corpus ------------------------------------------


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_statuses_and_exit_codes(name, tmp_path):
    status, code = CORPUS[name]
    proc, out = analyze_json(THEORIES / f"{name}.th", tmp_path, name)
    assert proc.returncode == code, proc.stderr
    assert f"status: {status}" in proc.stdout
    report = json.loads(out.read_text())
    assert report["status"] == status
    assert report["theory"] == name


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_reports_validate_against_schema(name, tmp_path):
    _, out = analyze_json(THEORIES / f"{name}.th", tmp_path, name)
    jsonschema.validate(json.loads(out.read_text()), SCHEMA)


def test_corpus_json_byte_identical_across_runs(tmp_path):
    for name in sorted(CORPUS):
        _, first = analyze_json(THEORIES / f"{name}.th", tmp_path, f"{name}_1")
        _, second = analyze_json(THEORIES / f"{name}.th", tmp_path, f"{name}_2")
        assert first.read_bytes() == second.read_bytes()


def test_majorana_comes_out_fermi():
    proc = run_cli("analyze", str(THEORIES / "majorana.th"))
    assert proc.returncode == 0
    assert "statistics Fermi" in proc.stdout
    assert "michel parity -1" in proc.stdout


def test_flavor_antisym_diagnosis_details(tmp_path):
    proc, out = analyze_json(
        THEORIES / "scalar_flavor_antisym.th", tmp_path)
    assert proc.returncode == 3
    report = json.loads(out.read_text())
    flavor = report["flavor"]
    assert flavor["sector_signs"] == [1, -1]
    assert flavor["negative_norm"] is True
    assert flavor["inverted_connection_attempt"] is True
    assert flavor["witness"]["signature"] == [0, 1, 0]
    assert flavor["diagonalization"]["diagonal"] == [["0-1i", "0"], ["0", "0+1i"]]
    assert "negative-norm sector" in proc.stdout


def test_single_scalar_reports_missing_form(tmp_path):
    proc, out = analyze_json(THEORIES / "scalar_single.th", tmp_path)
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    assert report["kinematic"]["build_status"] == "no_form"
    assert report["kinematic"]["matrix"] is None
    assert "doubling" in report["kinematic"]["note"]


# -- analyze error and edge paths ---------------------------------------------


def test_missing_file_exits_1():
    proc = run_cli("analyze", "/nonexistent/theory.th")
    assert proc.returncode == 1
    assert "error:" in proc.stderr


def test_parse_error_exits_1(tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("theory t\nfield phi spin=7/3\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 1
    assert "line 2" in proc.stderr


def test_non_integer_flavors_exits_1_with_line(tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("theory t\nfield phi spin=0 flavors=abc\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 2:")


def test_zero_denominator_spin_exits_1_with_line(tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_text("theory t\nfield x spin=1/0\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 2:")


def test_declared_statistics_contradiction_exits_2(tmp_path):
    th = tmp_path / "contra.th"
    th.write_text("theory contra\nfield phi spin=0 copies=2 statistics=fermi\n")
    proc, out = analyze_json(th, tmp_path)
    assert proc.returncode == 2
    assert "status: CONTRADICTION" in proc.stdout
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["fields"][0]["contradiction"] is not None


def test_ambiguous_kinematic_exits_1(tmp_path):
    th = tmp_path / "ambig.th"
    th.write_text("theory ambig\nfield psi spin=1/2 copies=2\n")
    proc = run_cli("analyze", str(th))
    assert proc.returncode == 1
    assert "not unique" in proc.stderr


def test_explicit_matrix_relative_to_theory_file(tmp_path):
    (tmp_path / "k0.mat").write_text(
        ExactMatrix([[0, "0+1i"], ["0-1i", 0]]).dumps())
    th = tmp_path / "expl.th"
    th.write_text("theory expl\nfield phi spin=0 copies=2\n"
                  "kinematic explicit k0.mat\n")
    proc, out = analyze_json(th, tmp_path)
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["kinematic"]["mode"] == "explicit"
    assert report["status"] == "CONSISTENT"


def test_explicit_matrix_invariance_violations_reported(tmp_path):
    # v.c0.0 (index 0) coupled antisymmetrically to v.c1.1 (index 4): the
    # class Bose needs, but no rotation-invariant pairing of two copies
    coupled = [[0] * 6 for _ in range(6)]
    coupled[0][4], coupled[4][0] = 1, -1
    cases = {
        "lopsided": ("field psi spin=1/2", ExactMatrix.diagonal([1, 2, 3, 4])),
        "coupled": ("field v spin=1 copies=2", ExactMatrix(coupled)),
    }
    for name, (field, k0) in cases.items():
        (tmp_path / f"{name}.mat").write_text(k0.dumps())
        th = tmp_path / f"{name}.th"
        th.write_text(f"theory {name}\n{field}\nkinematic explicit {name}.mat\n")
        proc, out = analyze_json(th, tmp_path, name)
        assert proc.returncode == 5, proc.stderr
        assert "VIOLATED" in proc.stdout
        assert "status: NOT_ROTATION_INVARIANT" in proc.stdout
        # the statistics, the split and the surface check assume
        # invariance, so they are withheld
        assert "statistics undetermined" in proc.stdout
        assert "statistics Bose" not in proc.stdout
        assert "statistics Fermi" not in proc.stdout
        assert "canonical components" not in proc.stdout
        assert "surface variation" not in proc.stdout
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["status"] == "NOT_ROTATION_INVARIANT"
        assert [f["consistent_statistics"] for f in report["fields"]] == [None]
        assert [f["contradiction"] for f in report["fields"]] == [None]
        assert report["kinematic"]["statistics"] is None
        assert report["kinematic"]["invariant"] is False
        assert report["kinematic"]["constraints"] is None
        assert report["kinematic"]["surface_variation"] is None
        axes = [v["axis"] for v in report["kinematic"]["invariance_violations"]]
        assert set(axes) <= {"x", "y", "z"} and axes


# one successful call per subcommand; "{table}" is a witness relation table
EVERY_SUBCOMMAND = [
    ("analyze", str(THEORIES / "majorana.th")),
    ("dkp-check",),
    ("fock", "{table}", "--word", "c ddag"),
]


@pytest.mark.parametrize("args", EVERY_SUBCOMMAND)
def test_closed_stdout_exits_1_without_traceback(args, tmp_path):
    table = tmp_path / "witness.rel"
    table.write_text("bracket = anticommutator\npair c ddag = -1\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "spinstat",
             *(a.format(table=table) for a in args)],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("args", EVERY_SUBCOMMAND)
def test_unwritable_json_path_exits_1_without_traceback(args, tmp_path):
    table = tmp_path / "witness.rel"
    table.write_text("bracket = anticommutator\npair c ddag = -1\n")
    target = tmp_path / "missing" / "x.json"
    proc = run_cli(*(a.format(table=table) for a in args), "--json", str(target))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not target.exists()


def test_version_and_usage():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "spinstat 0.1.0"
    proc = run_cli()
    assert proc.returncode == 1


# -- dkp-check ----------------------------------------------------------------


def test_dkp_check_passes_by_default(tmp_path):
    out = tmp_path / "dkp.json"
    proc = run_cli("dkp-check", "--json", str(out))
    assert proc.returncode == 0
    assert "standard trilinear relation: PASS (64 of 64 triples)" in proc.stdout
    assert "minimal polynomial (beta.k)^3 = (k.k)(beta.k): PASS" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["standard"]["holds"] is True
    assert payload["metric"]["signature"] == "+---"
    assert all(c["holds"] for c in payload["minimal_polynomial"])
    assert payload["constraint_split"]["canonical"] == ["phi", "dphi/dt"]
    assert payload["constraint_split"]["constraints"] == [
        "dphi/dx", "dphi/dy", "dphi/dz"]
    assert payload["shorthand"] is None


def test_dkp_check_paper_relations_table(tmp_path):
    out = tmp_path / "dkp.json"
    proc = run_cli("dkp-check", "--paper-relations", "--json", str(out))
    assert proc.returncode == 0
    assert "cube (beta_mu^3 = beta_mu): 1/4 unweighted, 4/4 weighted" in proc.stdout
    assert "unweighted mismatches: 24" in proc.stdout
    assert "cube: (1) (2) (3)" in proc.stdout
    payload = json.loads(out.read_text())
    short = payload["shorthand"]
    assert len(short["cube"]) == 4
    assert len(short["sandwich"]) == 12
    assert len(short["square_sum"]) == 12
    assert len(short["distinct_sum"]) == 24
    assert len(short["mismatches"]) == 24
    assert all(c["weighted"] for fam in
               ("cube", "sandwich", "square_sum", "distinct_sum")
               for c in short[fam])


def test_dkp_check_wrong_metric_fails(tmp_path):
    out = tmp_path / "dkp.json"
    proc = run_cli("dkp-check", "--metric", "-+++", "--json", str(out))
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["standard"]["holds"] is False
    assert payload["metric"]["signature"] == "-+++"
    proc = run_cli("dkp-check", "--metric", "+---")
    assert proc.returncode == 0


def test_dkp_check_bad_metric_string_exits_1():
    proc = run_cli("dkp-check", "--metric", "+-")
    assert proc.returncode == 1
    assert "four signs" in proc.stderr


def test_dkp_check_deterministic(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("dkp-check", "--paper-relations", "--json", str(first))
    run_cli("dkp-check", "--paper-relations", "--json", str(second))
    assert first.read_bytes() == second.read_bytes()


# -- fock ---------------------------------------------------------------------


@pytest.fixture
def indefinite_table(tmp_path):
    path = tmp_path / "indefinite.rel"
    path.write_text("bracket = anticommutator\npair c ddag = -1\n")
    return path


@pytest.fixture
def bose_table(tmp_path):
    path = tmp_path / "bose.rel"
    path.write_text("bracket = commutator\npair a adag = 1\npair b bdag = 1\n")
    return path


def test_fock_negative_pairing_word(indefinite_table, tmp_path):
    out = tmp_path / "fock.json"
    proc = run_cli("fock", str(indefinite_table), "--word", "c ddag",
                   "--json", str(out))
    assert proc.returncode == 0
    assert "<0| c ddag |0> = -1" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["word"]["vacuum_expectation"] == "-1"
    assert payload["bracket"] == "anticommutator"


def test_fock_normal_ordered_word_vanishes(bose_table):
    proc = run_cli("fock", str(bose_table), "--word", "adag a")
    assert proc.returncode == 0
    assert "<0| adag a |0> = 0" in proc.stdout


def test_fock_two_mode_gram(bose_table, tmp_path):
    states = tmp_path / "states.txt"
    states.write_text("adag\nbdag\n")
    out = tmp_path / "fock.json"
    proc = run_cli("fock", str(bose_table), "--gram", str(states),
                   "--json", str(out))
    assert proc.returncode == 0
    assert "signature: (2, 0, 0)" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["gram"]["signature"] == [2, 0, 0]
    assert payload["gram"]["matrix"] == [["1", "0"], ["0", "1"]]


def test_fock_unknown_symbol_exits_1(bose_table):
    proc = run_cli("fock", str(bose_table), "--word", "c ddag")
    assert proc.returncode == 1
    assert "unknown operator symbol" in proc.stderr


def test_fock_over_long_word_exits_1(bose_table):
    # 2400 symbols: rejected before any contraction, no RecursionError
    word = " ".join(["a"] * 1200 + ["adag"] * 1200)
    proc = run_cli("fock", str(bose_table), "--word", word)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: word has 2400 symbols")
    assert "Traceback" not in proc.stderr


def test_fock_too_many_gram_states_exits_1(bose_table, tmp_path):
    # one state over the bound: rejected before any contraction
    states = tmp_path / "states.txt"
    states.write_text("adag\n" * (MAX_GRAM_STATES + 1))
    proc = run_cli("fock", str(bose_table), "--gram", str(states))
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        f"error: {MAX_GRAM_STATES + 1} gram states, over the supported maximum")
    assert "Traceback" not in proc.stderr


def test_fock_over_the_contraction_bound_exits_1(bose_table, monkeypatch, capsys):
    # a a adag adag memoizes itself and a adag: two subwords, over a bound
    # of one, so the contraction stops at the second
    monkeypatch.setattr(fock, "MAX_CONTRACTION_STATES", 1)
    assert cli.main(["fock", str(bose_table), "--word", "a a adag adag"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: contraction needs more than 1 subword values, "
        "over the supported maximum\n")


def test_fock_needs_word_or_gram(bose_table):
    proc = run_cli("fock", str(bose_table))
    assert proc.returncode == 1
    assert "--word" in proc.stderr


def test_fock_missing_table_exits_1():
    proc = run_cli("fock", "/nonexistent.rel", "--word", "a")
    assert proc.returncode == 1


@pytest.mark.parametrize("value", ["1/0", "abc", "1e5000"])
def test_fock_bad_pair_value_exits_1_with_line(value, tmp_path):
    table = tmp_path / "bad.rel"
    table.write_text(f"bracket = commutator\npair c cdag = {value}\n")
    proc = run_cli("fock", str(table), "--word", "c cdag")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line 2: bad pair value")
