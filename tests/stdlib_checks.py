"""Checks of the command line that need the standard library alone.

Run with ``python -S tests/stdlib_checks.py`` from any directory.  Each
``check_`` function is one check, named by its docstring; they run in
order, each in a fresh temporary working directory, and print ``ok`` or
``FAIL`` and the reason.  The exit code is 1 if any check failed.
``GOLDEN_CASES`` is the one table of golden cases; ``test_golden.py``
imports it.
"""

import os
import pathlib
import re
import subprocess
import sys
import tempfile
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THEORIES = SRC / "spinstat" / "theories"
GOLDEN = ROOT / "tests" / "golden"

# name -> (exit code, argv) of each case under tests/golden/.  Every case
# exits 0 but REJECTED_NEGATIVE_NORM (3), CONTRADICTION (2),
# NOT_ROTATION_INVARIANT (5), and a dkp-check whose relations fail under the
# metric (2)
GOLDEN_CASES = {
    **{name: (0, ["analyze", str(THEORIES / f"{name}.th")]) for name in (
        "dirac", "majorana", "scalar_charged", "scalar_doubled", "scalar_single", "vector")},
    "scalar_flavor_antisym": (3, ["analyze", str(THEORIES / "scalar_flavor_antisym.th")]),
    "pair_spin2": (3, ["analyze", str(GOLDEN / "pair_spin2.th")]),
    "pair_spin4": (3, ["analyze", str(GOLDEN / "pair_spin4.th")]),
    "contradiction": (2, ["analyze", str(GOLDEN / "contradiction.th")]),
    "mixed_constraints": (0, ["analyze", str(GOLDEN / "mixed_constraints.th")]),
    "not_invariant": (5, ["analyze", str(GOLDEN / "not_invariant.th")]),
    "dkp-check": (0, ["dkp-check", "--paper-relations"]),
    "dkp-check-metric": (2, ["dkp-check", "--paper-relations", "--metric", "-+++"]),
    "fock": (0, ["fock", str(GOLDEN / "fock.rel"), "--word", "a b adag bdag",
                 "--gram", str(GOLDEN / "fock_states.txt")]),
}


def expect(condition, reason):
    # raised, not asserted, so that the checks hold under python -O too
    if not condition:
        raise AssertionError(reason)


def python(*args, code=0, flags=("-S",), cwd=None, stdin=subprocess.DEVNULL):
    """(stdout, stderr) of ``python <flags> <args>`` in a child with PYTHONPATH=src,
    which must exit with code; stdin is text to pipe in or a file to redirect."""
    feed = {"input": stdin.encode()} if isinstance(stdin, str) else {"stdin": stdin}
    argv = [sys.executable, *flags, *map(str, args)]
    proc = subprocess.run(argv, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, **feed)
    out, err = proc.stdout.decode(), proc.stderr.decode()
    expect(proc.returncode == code,
           f"{' '.join(argv[1:])} exited {proc.returncode}, not {code}: {err[-800:]!r}")
    return out, err


def spinstat(*args, **kwargs):
    return python("-m", "spinstat", *args, **kwargs)


def refused(args, prefix):
    """Expect spinstat to refuse its input: exit 1 with one stderr line,
    ``error: <prefix>...`` (prefix a regular expression), and no traceback."""
    _, err = spinstat(*args, code=1)
    expect(re.fullmatch(f"error: {prefix}.*\n", err) and "Traceback" not in err,
           f"not one 'error: {prefix}' line: {err!r}")


def write(name, text):
    pathlib.Path(name).write_text(text)


def starting(text, prefix):
    return [line for line in text.splitlines() if line.startswith(prefix)]


def same_as_golden(data, name):
    expect(data == (GOLDEN / name).read_bytes(), f"{name} differs from its golden")


def check_stdlib_alone():
    """CLI runs on the standard library alone (site-packages off)"""
    write("witness.rel", "bracket = anticommutator\npair c ddag = -1\n")
    spinstat("analyze", THEORIES / "majorana.th")
    spinstat("dkp-check")
    spinstat("fock", "witness.rel", "--word", "c ddag")


def check_no_heavy_imports():
    """No command imports fractions, decimal, numbers, json, enum or re (site-packages off)"""
    # -X importtime logs each module the process imports to stderr, one
    # line each, nested modules indented under the one that imports them
    heavy = re.compile(r"\| +(fractions|decimal|_decimal|numbers|json|enum|re)(\.[a-z_]+)?$")
    # scalar_flavor_antisym writes the flavor section of a report
    for name in ("dirac", "scalar_flavor_antisym", "dkp-check", "fock"):
        code, argv = GOLDEN_CASES[name]
        _, log = spinstat(*argv, "--json", f"{name}.json", code=code,
                          flags=("-S", "-X", "importtime"))
        expect(re.search(r"\| *spinstat\.cli$", log, re.M), f"{name}: no spinstat.cli")
        found = [line for line in log.splitlines() if heavy.search(line)]
        expect(not found, f"{name} imports {found}")
    # not_invariant, the one report with invariance violations, reads its
    # explicit K0 with json.loads; with json blocked once the report is
    # made, its JSON must still come out as the golden one
    out, _ = python("-c", _WRITE_BLOCKED, GOLDEN / "not_invariant.th")
    same_as_golden(out.encode(), "not_invariant.json")


# print the report JSON of the theory at argv[1], json blocked as it is written
_WRITE_BLOCKED = """import os, sys
from spinstat.model import parse_theory
from spinstat.report import analyze_theory, report_to_json
path = sys.argv[1]
with open(path, encoding="utf-8") as fh:
    report = analyze_theory(parse_theory(fh.read(), base_dir=os.path.dirname(path)))
sys.modules["json"] = None
sys.stdout.write(report_to_json(report))
"""


def check_usage_errors():
    """Usage errors exit 1 with a usage line (site-packages off)"""
    # the records are collections.namedtuple with defaults=, so on 3.10
    # the import alone exercises that too
    for args in ((), ("analyze",), ("analyze", "x.th", "--bogus"), ("fock", "t.rel", "--word")):
        out, err = spinstat(*args, code=1)
        expect(out == "" and re.fullmatch("usage: spinstat .*\nspinstat: error: .*\n", err),
               f"{args}: not a usage line and an error line: {out!r} {err!r}")
    out, _ = spinstat("--help")
    expect(starting(out, "  spinstat fock "), "--help lists no fock usage")


def check_gram_signature():
    """Gram signature on the standard library alone (site-packages off)"""
    write("two-mode.rel", "bracket = anticommutator\npair a adag = 1\npair c cdag = -1\n")
    write("states.txt", "adag\nadag cdag\n")
    out, _ = spinstat("fock", "two-mode.rel", "--gram", "states.txt")
    # different particle numbers do not overlap; <adag|adag> = 1 and
    # <adag cdag|adag cdag> = det diag(1, -1) = -1: one norm of each sign
    expect(starting(out, "signature:") == ["signature: (1, 1, 0)"], out)


def check_exchange_signs():
    """Exchange signs of permuted Fermi states (site-packages off)"""
    write("two-mode.rel", "bracket = anticommutator\npair a adag = 1\npair c cdag = -1\n")
    write("exchange.txt", "adag cdag\nadag\ncdag adag\nadag adag\n")
    out, _ = spinstat("fock", "two-mode.rel", "--gram", "exchange.txt")
    # cdag adag = -adag cdag, so its row and column are those of
    # adag cdag negated, and adag adag = 0 under anticommutators:
    # the two permuted states add one zero, the repeated one another
    rows = [" ".join(line.split()) for line in out.splitlines()]
    expect(rows[1] == "-1 0 1 0" and rows[3] == "1 0 -1 0", out)
    expect(starting(out, "signature:") == ["signature: (1, 1, 2)"], out)


def check_mixed_denominators():
    """Mixed-denominator complex table, exact value and signature (site-packages off)"""
    write("mixed.rel", "bracket = commutator\npair a adag = 1/2\npair b bdag = 2/3\n"
          "pair a bdag = 1/3+1/4i\npair b adag = 1/3-1/4i\n")
    write("mixed-states.txt", "adag bdag\nadag\nbdag bdag\n")
    out, _ = spinstat("fock", "mixed.rel", "--word", "a a adag bdag", "--gram", "mixed-states.txt")
    # pair values over 2, 3 and 12 share the denominator 12; by hand,
    # <a a adag bdag> = 1/2 (1/3+1/4i) + (1/3+1/4i) 1/2, and the
    # 2-quantum block [[73/144, 4/9+1/3i], [4/9-1/3i, 8/9]] has
    # determinant 23/162 > 0, so every norm is positive
    expect(out.splitlines()[0] == "<0| a a adag bdag |0> = 1/3+1/4i", out)
    expect(starting(out, "signature:") == ["signature: (3, 0, 0)"], out)


def check_oversized_scalar():
    """Oversized scalar literal rejected with its line (site-packages off)"""
    write("huge.rel", "bracket = commutator\npair a adag = 1e5000\n")
    # digits plus exponent exceed algebra.MAX_LITERAL_DIGITS: refused
    # before the integer is built, as a parse error with a line number
    refused(["fock", "huge.rel", "--word", "a adag"], "line 2: bad pair value")


def check_oversized_spin():
    """Oversized spin literal rejected with its line (site-packages off)"""
    write("huge.th", "theory huge\nfield a spin=1e100000\n")
    # refused by algebra.MAX_LITERAL_DIGITS before the integer is built
    refused(["analyze", "huge.th"], "line 2:")


def check_rules_refused():
    """Theory and table rules refused at the line at fault (site-packages off)"""
    # the pair rule names the field without flavors=2, and the bracket
    # rule, checked once the whole table is read, the bracket line
    write("pair.th", "theory t\nfield a spin=0 flavors=1\nflavor antisymmetric-pair\n")
    write("poisson.rel", "bracket = poisson\npair a adag = 1\n")
    refused(["analyze", "pair.th"], "line 2: antisymmetric-pair needs flavors=2")
    refused(["fock", "poisson.rel", "--word", "a adag"],
            "line 1: bracket must be commutator or anticommutator")


def check_gram_states_refused():
    """Gram states-file refusal names the state's line (site-packages off)"""
    write("one-mode.rel", "bracket = commutator\npair a adag = 1\n")
    write("bad-states.txt", "adag\nadag adag\nbdag\n")
    # bdag, on line 3, is no symbol of the table
    refused(["fock", "one-mode.rel", "--gram", "bad-states.txt"], "line 3: ")


def check_matrix_over_max_bytes():
    """Explicit matrix file over the byte bound refused unread (site-packages off)"""
    from spinstat.model import MAX_MATRIX_BYTES
    # a sparse file one byte over model.MAX_MATRIX_BYTES: refused by
    # its size at the kinematic line, before any byte is read
    size = MAX_MATRIX_BYTES + 1
    write("big.k0", "")
    os.truncate("big.k0", size)
    write("big.th", "theory big\nfield phi spin=0 copies=2\nkinematic explicit big.k0\n")
    refused(["analyze", "big.th"], f"line 3: matrix file 'big.k0' has {size} bytes")


def check_theory_over_max_bytes():
    """Theory file over its byte bound refused after a bounded read (site-packages off)"""
    from spinstat.model import MAX_THEORY_BYTES
    # one comment byte past model.MAX_THEORY_BYTES
    write("long.th", "theory t\nfield a spin=0\n" + "#" * MAX_THEORY_BYTES + "\n")
    refused(["analyze", "long.th"], "theory file '.*' is over the maximum")


def check_table_over_max_bytes():
    """Relation table over its byte bound refused after a bounded read (site-packages off)"""
    from spinstat.fock import MAX_TABLE_BYTES
    # pair lines past fock.MAX_TABLE_BYTES
    write("long.rel", "bracket = commutator\n" + "".join(
        f"pair a{k} a{k}dag = 1\n" for k in range(MAX_TABLE_BYTES // 20)) + "\n")
    refused(["fock", "long.rel", "--word", "a0 a0dag"], "relation table '.*' is over the maximum")


def check_states_over_max_bytes():
    """States file over its byte bound refused after a bounded read (site-packages off)"""
    from spinstat.fock import MAX_STATES_BYTES
    # one-symbol states past fock.MAX_STATES_BYTES
    write("one-mode.rel", "bracket = commutator\npair a adag = 1\n")
    write("long-states.txt", "adag\n" * (MAX_STATES_BYTES // 5 + 1) + "\n")
    refused(["fock", "one-mode.rel", "--gram", "long-states.txt"],
            "states file '.*' is over the maximum")


def check_matrix_over_dimension_bound():
    """Explicit matrix file over the theory's dimension bound refused unread (site-packages off)"""
    from spinstat.model import _matrix_byte_bound
    # a sparse file one byte over the bound of a 2-component theory,
    # far below model.MAX_MATRIX_BYTES
    write("wide.k0", "")
    os.truncate("wide.k0", _matrix_byte_bound(2) + 1)
    write("wide.th", "theory wide\nfield phi spin=0 copies=2\nkinematic explicit wide.k0\n")
    refused(["analyze", "wide.th"], "line 3: matrix file 'wide.k0' has .* bytes, over the maximum")


def check_pipe_resolution():
    """Theory from a pipe resolves its explicit matrix against the working directory, a redirected one against its own (site-packages off)"""
    theory = "theory t\nfield phi spin=0 copies=2\nkinematic explicit k.json\n"
    # a pipe has no directory of its own; k.json sits in the directory
    # the command runs from, not in /dev
    write("k.json", '[["0", "1"], ["-1", "0"]]')
    out, _ = spinstat("analyze", "/dev/stdin", stdin=theory)
    expect("status: CONSISTENT" in out.splitlines(), out)
    # a file redirected into /dev/stdin is named by it, so its k.json
    # is read beside it, not from /dev and not from the directory the
    # command runs from, which holds none
    os.mkdir("theory")
    os.mkdir("elsewhere")
    os.rename("k.json", "theory/k.json")
    write("theory/t.th", theory)
    with open("theory/t.th") as fh:
        out, _ = spinstat("analyze", "/dev/stdin", cwd="elsewhere", stdin=fh)
    expect("status: CONSISTENT" in out.splitlines(), out)


def check_flavor_pairs_in_json():
    """Every diagnosed flavor pair is in the JSON report (site-packages off)"""
    write("pairs.th", "theory pairs\nfield a spin=0 flavors=2\nfield b spin=0 flavors=2\n"
          "flavor antisymmetric-pair\n")
    # both pairs have a negative-norm sector: REJECTED_NEGATIVE_NORM
    spinstat("analyze", "pairs.th", "--json", "pairs.json", code=3)
    payload = pathlib.Path("pairs.json").read_text()
    for text in ('"schema_version": 2', '"field": "a"', '"field": "b"'):
        expect(text in payload, f"no {text} in {payload!r}")


def check_not_utf8():
    """Theory file that is not UTF-8 rejected without a traceback (site-packages off)"""
    pathlib.Path("latin.th").write_bytes(b"theory t\nfield \xff spin=0\n")
    # the 0xff byte fails the UTF-8 decode: one error line, exit 1
    refused(["analyze", "latin.th"], "")


def check_ambiguous_forms():
    """Ambiguous kinematic forms from both flavor modes (site-packages off)"""
    # name, file body, field: three copies of a scalar (auto), and the
    # antisymmetric pair of a spin-1/2 field or of two scalar copies
    for name, body, field in (
            ("auto_copies", "field phi spin=0 copies=3\n", "phi"),
            ("pair_spinor", "field psi spin=1/2 flavors=2\nflavor antisymmetric-pair\n", "psi"),
            ("pair_copies", "field phi spin=0 flavors=2 copies=2\nflavor antisymmetric-pair\n",
             "phi")):
        write(f"{name}.th", f"theory {name}\n{body}")
        refused(["analyze", f"{name}.th"],
                re.escape(f"kinematic form not unique; specify explicitly (field {field})") + "$")


def check_changed_entry_not_cached():
    """An explicit K0 one entry off an auto K0 is checked, not given the auto K0's invariant-by-construction report (site-packages off)"""
    # in one process, the auto K0 of a spin-1 field in two copies, then
    # the same K0 with its first entry pair doubled: the same spins on
    # the same blocks, so only the entries tell their residuals apart
    write("bumped.json", '[["0", "0", "0", "0+2i", "0", "0"], ["0", "0", "0", "0", "0+1i", "0"], '
          '["0", "0", "0", "0", "0", "0+1i"], ["0-2i", "0", "0", "0", "0", "0"], '
          '["0", "0-1i", "0", "0", "0", "0"], ["0", "0", "0-1i", "0", "0", "0"]]')
    write("auto.th", "theory auto\nfield x spin=1 copies=2\n")
    write("bumped.th", "theory bumped\nfield x spin=1 copies=2\nkinematic explicit bumped.json\n")
    out, _ = python("-c", 'import sys; from spinstat.cli import main; '
                    '[main(["analyze", path]) for path in sys.argv[1:]]', "auto.th", "bumped.th")
    statuses = starting(out, "status:")
    expect(statuses[0] == "status: CONSISTENT", out)
    expect(len(starting(out, "rotation invariance: VIOLATED")) == 1, out)
    expect(statuses[-1] == "status: NOT_ROTATION_INVARIANT", out)


def check_auto_k0_read_back():
    """Each shipped auto K0 read back as an explicit K0 gives the same verdict and split (site-packages off)"""
    # in one process: each shipped theory that is no flavor pair and
    # builds a K0 is analyzed with --json, then the same field lines
    # with that report's kinematic.matrix as `kinematic explicit`,
    # which takes the whole-matrix path; the status, canonical and
    # constraint lines must be identical
    python("-", *sorted(THEORIES.glob("*.th")), stdin=r"""
import contextlib, io, json, pathlib, sys
from spinstat.cli import main

def analyze(path, *extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["analyze", str(path), *extra])
    return [line for line in out.getvalue().splitlines() if line.startswith(
        ("status:", "canonical components:", "constraint components:"))]

checked = 0
for path in map(pathlib.Path, sys.argv[1:]):
    text = path.read_text()
    if "antisymmetric-pair" in text:
        continue
    auto = analyze(path, "--json", "auto.json")
    matrix = json.loads(pathlib.Path("auto.json").read_text())["kinematic"]["matrix"]
    if matrix is None:
        continue
    pathlib.Path("k0.json").write_text(json.dumps(matrix))
    explicit = pathlib.Path("explicit.th")
    explicit.write_text(text + "kinematic explicit k0.json\n")
    again = analyze(explicit)
    print(path.name, auto, again, sep="\n  ")
    if again != auto or len(auto) != 3:
        sys.exit(f"{path.name}: the explicit copy of its K0 reads differently")
    checked += 1
if checked != 5:
    sys.exit(f"{checked} shipped theories checked, expected 5")
""")


def check_files_closed():
    """Every file closed before exit (dev mode, warnings are errors)"""
    # the process entry freezes the heap on the way out, so the final
    # collection finalizes nothing still alive: a file left to it
    # would warn here (ResourceWarning) or lose its buffered text
    for name in ("dirac", "dkp-check", "fock"):
        code, argv = GOLDEN_CASES[name]
        _, err = spinstat(*argv, "--json", f"{name}.json", code=code,
                          flags=("-X", "dev", "-W", "error"))
        expect(err == "", f"{name} wrote to stderr: {err!r}")
        same_as_golden(pathlib.Path(f"{name}.json").read_bytes(), f"{name}.json")


def check_no_assert():
    """No assert statement in the package (python -O strips them)"""
    # a check that must hold under python -O goes through
    # algebra.self_check or a typed error, never through assert
    found = [f"{path}:{n}" for path in sorted(SRC.rglob("*")) if path.is_file()
             for n, line in enumerate(path.read_bytes().split(b"\n"), 1)
             if re.match(rb"\s*assert\b", line)]
    expect(not found, f"assert at {found}")


def check_golden_outputs():
    """Golden outputs byte for byte (site-packages off)"""
    for name, (code, argv) in GOLDEN_CASES.items():
        out, _ = spinstat(*argv, "--json", f"{name}.json", code=code)
        same_as_golden(out.encode(), f"{name}.txt")
        same_as_golden(pathlib.Path(f"{name}.json").read_bytes(), f"{name}.json")


def main():
    failed = False
    for fn in [fn for name, fn in globals().items() if name.startswith("check_")]:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                fn()
                print(f"ok   {fn.__doc__}", flush=True)
            except Exception as exc:
                failed = True
                if not isinstance(exc, AssertionError):
                    traceback.print_exc()
                print(f"FAIL {fn.__doc__}: {exc}", flush=True)
            finally:
                os.chdir(ROOT)
    return int(failed)


if __name__ == "__main__":
    # the byte bounds some checks exceed are read from the package
    sys.path.insert(0, str(SRC))
    sys.exit(main())
