import gc
import importlib
import json
import os
import pathlib
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from spinstat import __main__ as spinstat_main
from spinstat import cli, fock
from spinstat.algebra import MODULUS, ExactMatrix
from spinstat.fock import MAX_GRAM_STATES, MAX_STATES_BYTES, MAX_TABLE_BYTES, MAX_WORD_SYMBOLS
from spinstat.model import MAX_THEORY_BYTES

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


def run_cli(*args, **kwargs):
    """Run ``python -m spinstat`` with args; kwargs such as cwd, input and
    stdin go to subprocess.run.  PYTHONPATH is the package's absolute
    source directory, so the command runs from any working directory."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "spinstat", *args],
        capture_output=True, text=True, env=env, **kwargs)


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
    [flavor] = report["flavor"]
    assert flavor["field"] == "phi"
    assert flavor["sector_signs"] == [1, -1]
    assert flavor["negative_norm"] is True
    assert flavor["inverted_connection_attempt"] is True
    assert flavor["witness"]["signature"] == [0, 1, 0]
    assert flavor["diagonalization"]["diagonal"] == [["0-1i", "0"], ["0", "0+1i"]]
    assert "negative-norm sector" in proc.stdout


def test_every_diagnosed_flavor_pair_is_written_to_the_json(tmp_path):
    th = tmp_path / "pairs.th"
    th.write_text("theory pairs\nfield a spin=0 flavors=2\nfield b spin=0 flavors=2\n"
                  "flavor antisymmetric-pair\n")
    proc, out = analyze_json(th, tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "flavor sectors of a: signs (+1, -1)" in proc.stdout
    assert "flavor sectors of b: signs (+1, -1)" in proc.stdout
    report = json.loads(out.read_text())
    jsonschema.validate(report, SCHEMA)
    assert report["schema_version"] == 2
    assert [f["field"] for f in report["flavor"]] == ["a", "b"]
    assert all(f["negative_norm"] for f in report["flavor"])


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


def test_theory_file_that_is_not_utf8_exits_1_without_traceback(tmp_path):
    bad = tmp_path / "bad.th"
    bad.write_bytes(b"theory t\nfield \xff spin=0\n")
    proc = run_cli("analyze", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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


@pytest.mark.parametrize("entry", [str(MODULUS), f"1/{MODULUS}"])
def test_explicit_matrix_the_modular_rank_cannot_see(entry, tmp_path):
    # K0 = [[0, x], [-x, 0]] with x = q or 1/q for the prime q of
    # ExactMatrix.modular_rank: its image mod q is 0 or undefined, so the
    # constraint split takes the exact rank, with no patching
    k0 = ExactMatrix([["0", entry], [f"-{entry}", "0"]])
    assert k0.modular_rank() in (0, None)
    (tmp_path / "k0.mat").write_text(k0.dumps())
    th = tmp_path / "modq.th"
    th.write_text("theory modq\nfield phi spin=0 copies=2\n"
                  "kinematic explicit k0.mat\n")
    proc, out = analyze_json(th, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "canonical components: phi.c0.0, phi.c1.0\n" in proc.stdout
    assert "constraint components: none\n" in proc.stdout
    report = json.loads(out.read_text())
    assert report["status"] == "CONSISTENT"
    assert report["kinematic"]["matrix"] == k0.to_nested_strings()


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
        # the statistics and the split assume invariance, so they are
        # withheld
        assert "statistics undetermined" in proc.stdout
        assert "statistics Bose" not in proc.stdout
        assert "statistics Fermi" not in proc.stdout
        assert "canonical components" not in proc.stdout
        report = json.loads(out.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["status"] == "NOT_ROTATION_INVARIANT"
        assert [f["consistent_statistics"] for f in report["fields"]] == [None]
        assert [f["contradiction"] for f in report["fields"]] == [None]
        assert report["kinematic"]["statistics"] is None
        assert report["kinematic"]["invariant"] is False
        assert report["kinematic"]["constraints"] is None
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


# file kind -> (its byte bound, its text within bounds, the command line
# that reads it from the path given last)
BOUNDED_INPUTS = {
    "theory file": (MAX_THEORY_BYTES, "theory t\nfield phi spin=0 copies=2\n",
                    lambda table, path: ["analyze", path]),
    "relation table": (MAX_TABLE_BYTES, "bracket = commutator\npair a adag = 1\n",
                       lambda table, path: ["fock", path, "--word", "a adag"]),
    "states file": (MAX_STATES_BYTES, "adag\nadag adag\n",
                    lambda table, path: ["fock", table, "--gram", path]),
}


@pytest.mark.parametrize("kind", sorted(BOUNDED_INPUTS))
def test_input_file_over_its_byte_bound_exits_1(bose_table, tmp_path, capsys, kind):
    # a comment pads the file to its bound, which is read and used; one
    # byte more is refused with one error line that names file and bound
    limit, text, argv = BOUNDED_INPUTS[kind]
    path = tmp_path / "input"
    path.write_bytes(text.encode() + b"#" * (limit - len(text) - 1) + b"\n")
    assert path.stat().st_size == limit
    assert cli.main(argv(str(bose_table), str(path))) == 0
    assert capsys.readouterr().err == ""
    path.write_bytes(text.encode() + b"#" * (limit - len(text)) + b"\n")
    assert cli.main(argv(str(bose_table), str(path))) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {kind} {str(path)!r} is over the maximum {limit} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
@pytest.mark.parametrize("kind", sorted(BOUNDED_INPUTS))
def test_endless_input_is_refused_after_its_bound(bose_table, capsys, kind):
    # /dev/zero never ends, so only a read that stops one byte past the
    # bound returns at all
    limit, _, argv = BOUNDED_INPUTS[kind]
    assert cli.main(argv(str(bose_table), "/dev/zero")) == 1
    assert capsys.readouterr().err == (
        f"error: {kind} '/dev/zero' is over the maximum {limit} bytes\n")


def test_theory_piped_through_stdin_is_analyzed():
    # a pipe has no size to stat; the bounded read takes it as it comes
    proc = run_cli("analyze", "/dev/stdin", input=(THEORIES / "majorana.th").read_text())
    assert proc.returncode == 0, proc.stderr
    assert "status: CONSISTENT" in proc.stdout


EXPLICIT_PAIR = "theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n"


def test_piped_theory_reads_its_explicit_matrix_from_the_working_directory(tmp_path):
    # a pipe has no directory of its own, so the matrix path is taken
    # from where the command runs, not from /dev
    (tmp_path / "k.json").write_text('[["0", "1"], ["-1", "0"]]')
    proc = run_cli("analyze", "/dev/stdin", input=EXPLICIT_PAIR, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "kinematic: 2x2 antisymmetric matrix (explicit)" in proc.stdout
    assert "status: CONSISTENT" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_redirected_theory_reads_its_explicit_matrix_from_its_own_directory(tmp_path):
    # /dev/stdin redirected from a file names that file, so the matrix
    # path is taken from the theory's directory, not from /dev and not
    # from the working directory, which holds no k.json
    theory_dir, elsewhere = tmp_path / "theory", tmp_path / "elsewhere"
    theory_dir.mkdir()
    elsewhere.mkdir()
    (theory_dir / "k.json").write_text('[["0", "1"], ["-1", "0"]]')
    (theory_dir / "t.th").write_text(EXPLICIT_PAIR)
    with open(theory_dir / "t.th") as fh:
        proc = run_cli("analyze", "/dev/stdin", stdin=fh, cwd=elsewhere)
    assert proc.returncode == 0, proc.stderr
    assert "kinematic: 2x2 antisymmetric matrix (explicit)" in proc.stdout
    assert "status: CONSISTENT" in proc.stdout


def test_symlinked_theory_reads_its_explicit_matrix_from_the_link_directory(
        tmp_path, capsys):
    # the link's directory holds k.json and the target's does not
    real, link = tmp_path / "real", tmp_path / "link"
    real.mkdir()
    link.mkdir()
    (real / "t.th").write_text(EXPLICIT_PAIR)
    (link / "t.th").symlink_to(real / "t.th")
    (link / "k.json").write_text('[["0", "1"], ["-1", "0"]]')
    assert cli.main(["analyze", str(link / "t.th")]) == 0
    assert capsys.readouterr().out.endswith("status: CONSISTENT\n")


@pytest.mark.parametrize("field, k0, axes, contradiction", [
    ("field psi spin=1/2",
     [["0", "1", "0", "0"], ["-1", "0", "0", "0"], ["0"] * 4, ["0"] * 4],
     "x, z",
     "kinematic block for psi is antisymmetric, supporting Bose, but spin "
     "1/2 requires a symmetric block supporting Fermi"),
    ("field psi spin=1/2 statistics=bose",
     ExactMatrix.diagonal([1, 2, 1, 1]).to_nested_strings(),
     "x, y, z",
     "required symmetric K0 (half-integral spin) vs Bose requiring "
     "antisymmetric K0"),
], ids=["wrong-class", "pinned"])
def test_contradiction_outranks_a_failed_invariance_check(
        tmp_path, capsys, field, k0, axes, contradiction):
    (tmp_path / "k.json").write_text(json.dumps(k0))
    th = tmp_path / "t.th"
    th.write_text(f"theory t\n{field}\nkinematic explicit k.json\n")
    assert cli.main(["analyze", str(th)]) == 2
    out = capsys.readouterr().out
    assert "statistics undetermined" in out
    assert f"  contradiction: {contradiction}\n" in out
    assert f"rotation invariance: VIOLATED on axes {axes}\n" in out
    assert out.endswith("status: CONTRADICTION\n")


@pytest.mark.parametrize("state", [
    "cdag",                                            # unknown symbol
    "adag a",                                          # not a creator
    " ".join(["adag"] * (MAX_WORD_SYMBOLS // 2 + 1)),  # bra+ket too long
], ids=["unknown", "annihilator", "too-long"])
def test_fock_gram_refusal_names_the_state_line(bose_table, tmp_path, capsys, state):
    # the comment and the blank line keep their numbers, so the bad state,
    # the second one, is on line 4; the text is gram_matrix's own
    states = tmp_path / "states.txt"
    states.write_text(f"adag\n# a comment\n\n{state}\nbdag\n")
    with pytest.raises(ValueError) as direct:
        fock.gram_matrix([("adag",), tuple(state.split()), ("bdag",)],
                         fock.parse_relation_table(bose_table.read_text()))
    assert direct.value.state == 1
    assert cli.main(["fock", str(bose_table), "--gram", str(states)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line 4: {direct.value}\n"


def test_fock_gram_renders_its_matrix_once(tmp_path, capsys, monkeypatch):
    # the printed rows and the JSON matrix are one conversion to strings
    rendered = []
    to_nested_strings = ExactMatrix.to_nested_strings

    def counting(m):
        rendered.append(m)
        return to_nested_strings(m)

    monkeypatch.setattr(ExactMatrix, "to_nested_strings", counting)
    golden = pathlib.Path(__file__).parent / "golden"
    out = tmp_path / "fock.json"
    assert cli.main(["fock", str(golden / "fock.rel"), "--word", "a b adag bdag",
                     "--gram", str(golden / "fock_states.txt"),
                     "--json", str(out)]) == 0
    assert len(rendered) == 1
    assert capsys.readouterr().out == (golden / "fock.txt").read_text()
    assert out.read_bytes() == (golden / "fock.json").read_bytes()


def test_fock_gram_unknown_symbol_message(bose_table, tmp_path):
    states = tmp_path / "states.txt"
    states.write_text("adag\nbdag\ncdag\n")
    proc = run_cli("fock", str(bose_table), "--gram", str(states))
    assert proc.returncode == 1
    assert proc.stderr == "error: line 3: unknown operator symbol 'cdag'\n"


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


# -- the process entry ----------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"

# each case: what `python -m spinstat` does, through the entry that freezes
# the heap, must be what cli.main does in process: statuses 0, 2, 3 and 5,
# a parse error, three usage errors and --version
ENTRY_CASES = {
    "consistent": (0, ["analyze", str(THEORIES / "dirac.th")]),
    "contradiction": (2, ["analyze", str(GOLDEN / "contradiction.th")]),
    "negative-norm": (3, ["analyze", str(THEORIES / "scalar_flavor_antisym.th")]),
    "not-invariant": (5, ["analyze", str(GOLDEN / "not_invariant.th")]),
    "parse-error": (1, ["analyze", "{bad}"]),
    "usage-error": (1, ["analyze"]),
    "unknown-command": (1, ["bogus"]),
    "unknown-option": (1, ["analyze", str(THEORIES / "dirac.th"), "--bogus"]),
    "version": (0, ["--version"]),
}


def _main_in_process(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # usage errors, --help and --version
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(ENTRY_CASES))
def test_module_entry_keeps_output_and_exit_code(name, tmp_path, capsys):
    want_code, args = ENTRY_CASES[name]
    bad = tmp_path / "bad.th"
    bad.write_text("theory t\nfield a spin=bad\n")
    args = [a.format(bad=bad) for a in args]
    # an analyze call also writes its report, read back after exit
    reports = [tmp_path / "process.json", tmp_path / "main.json"]
    extra = [["--json", str(r)] if len(args) == 2 else [] for r in reports]

    proc = run_cli(*args, *extra[0])
    code, out, err = _main_in_process(args + extra[1], capsys)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert code == want_code
    written = [r.read_bytes() if r.exists() else None for r in reports]
    assert written[0] == written[1]


@pytest.mark.parametrize("args", [["analyze", str(THEORIES / "majorana.th")],
                                  ["--version"]])
def test_module_entry_freezes_the_heap_also_on_system_exit(args):
    # runpy runs the package's __main__ as `python -m` does; the atexit hook
    # reads the freeze count after the entry has returned or raised
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0,"
        " file=sys.stderr))\n"
        f"sys.argv = ['spinstat', *{args!r}]\n"
        "runpy.run_module('spinstat', run_name='__main__', alter_sys=True)\n")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == "frozen True\n"


def test_main_in_process_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["analyze", str(THEORIES / "majorana.th")]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--version"])
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_console_script_targets_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["spinstat"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is spinstat_main.run


# -- the command-line grammar ---------------------------------------------------

TOP_USAGE = "usage: spinstat [-h] [--version] command ..."
ANALYZE_USAGE = "usage: spinstat analyze [-h] [--json PATH] spec"

# each case: arguments, the usage line and the error line on stderr
USAGE_ERRORS = {
    "no-command": ([], TOP_USAGE,
                   "the following arguments are required: command"),
    "unknown-command": (["bogus"], TOP_USAGE,
                        "argument command: invalid choice: 'bogus' "
                        "(choose from 'analyze', 'dkp-check', 'fock')"),
    "unknown-option": (["analyze", "x.th", "--bogus"], ANALYZE_USAGE,
                       "unrecognized arguments: --bogus"),
    "abbreviated-option": (
        ["dkp-check", "--paper"],
        "usage: spinstat dkp-check [-h] [--paper-relations] [--metric SIGNS] "
        "[--json PATH]",
        "unrecognized arguments: --paper"),
    "missing-positional": (["analyze"], ANALYZE_USAGE,
                           "the following arguments are required: spec"),
    "extra-positional": (["analyze", "a.th", "b.th"], ANALYZE_USAGE,
                         "unrecognized arguments: b.th"),
    "missing-value": (
        ["fock", "t.rel", "--word"],
        "usage: spinstat fock [-h] [--word SYMBOLS] [--gram PATH] "
        "[--json PATH] table",
        "argument --word: expected one argument"),
    "flag-with-value": (
        ["dkp-check", "--paper-relations=yes"],
        "usage: spinstat dkp-check [-h] [--paper-relations] [--metric SIGNS] "
        "[--json PATH]",
        "argument --paper-relations: ignored explicit argument 'yes'"),
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_1_with_usage_and_error_lines(name, capsys):
    args, usage, error = USAGE_ERRORS[name]
    want = (1, "", f"{usage}\nspinstat: error: {error}\n")
    assert _main_in_process(args, capsys) == want
    proc = run_cli(*args)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


@pytest.mark.parametrize("args", [["-h"], ["--help"],
                                  ["analyze", "-h"], ["fock", "t.rel", "--help"]])
def test_help_anywhere_lists_the_three_commands(args, capsys):
    code, out, err = _main_in_process(args, capsys)
    assert (code, err) == (0, "")
    assert out.startswith(TOP_USAGE + "\n")
    for command in ("analyze", "dkp-check", "fock"):
        assert f"\n  spinstat {command} [-h]" in out


def _outputs(argv, capsys, path):
    """Exit code, stdout and the --json file that one in-process call gives."""
    code, out, err = _main_in_process(argv, capsys)
    assert err == ""
    return code, out, path.read_bytes()


def test_option_spellings_and_positions_give_identical_output(tmp_path, capsys):
    spec = str(THEORIES / "dirac.th")
    out = tmp_path / "out.json"
    spelled = [["analyze", spec, "--json", str(out)],
               ["analyze", spec, f"--json={out}"],
               ["analyze", "--json", str(out), spec],
               ["analyze", "--json", "unused.json", spec, "--json", str(out)]]
    results = [_outputs(argv, capsys, out) for argv in spelled]
    assert results[0][0] == 0
    assert all(r == results[0] for r in results)


def test_metric_value_with_a_leading_dash_needs_no_equals_sign(tmp_path, capsys):
    out = tmp_path / "out.json"
    spelled = [["dkp-check", "--metric", "-+++", "--json", str(out)],
               ["dkp-check", "--metric=-+++", "--json", str(out)],
               ["dkp-check", "--metric", "+---", "--metric", "-+++",
                "--json", str(out)]]
    results = [_outputs(argv, capsys, out) for argv in spelled]
    assert results[0][0] == 2
    assert "metric -+++" in results[0][1]
    assert all(r == results[0] for r in results)
