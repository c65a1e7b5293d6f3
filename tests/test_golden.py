"""Byte-for-byte golden outputs of the CLI.

Each case of ``GOLDEN_CASES``, the table ``tests/stdlib_checks.py`` also
runs under ``python -S``, runs one command in process and compares its
exit code with the table's and its stdout and its ``--json`` file with the
files under ``tests/golden/``; an ``analyze`` report must also validate
against the report schema.  The cases cover
the shipped corpus, ``dkp-check --paper-relations`` under the metric the
betas close and under ``-+++``, which they do not (the failure path), two
antisymmetric-pair theories whose flavor block has repeated and
fractional entries, which pins the order of the diagonalization columns,
an explicit mixed K0 whose Bose split has constraints, an explicit K0
that fails rotation invariance both between two spins and in one of two
identical flavor blocks, a spin-3/2 field declared Bose, whose verdict
contradicts its declaration, and ``fock`` with a word and a Gram matrix over
a table with complex and fractional pairings.  Each ``analyze`` case also
runs after every other one and after a copy of itself with its fields
renamed, so the per-spin caches of the analyze path are warm, and again
with them cleared; both outputs must be the golden ones.

Regenerate after an intended change of output with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
from importlib import resources

import jsonschema
import pytest

from spinstat.cli import main
from spinstat.model import parse_theory
from spinstat.report import _pair_diagnosis, analyze_theory
from stdlib_checks import GOLDEN, GOLDEN_CASES

SCHEMA = json.loads(
    (resources.files("spinstat") / "schemas" / "report.schema.json").read_text())


def run_case(name: str, workdir: pathlib.Path) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, JSON file) of one case, the outputs as bytes."""
    out = workdir / f"{name}.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*GOLDEN_CASES[name][1], "--json", str(out)])
    return code, stdout.getvalue().encode(), out.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_output_matches_golden(name, tmp_path):
    code, text, payload = run_case(name, tmp_path)
    assert code == GOLDEN_CASES[name][0]
    assert text == (GOLDEN / f"{name}.txt").read_bytes()
    assert payload == (GOLDEN / f"{name}.json").read_bytes()
    if GOLDEN_CASES[name][1][0] == "analyze":
        jsonschema.validate(json.loads(payload), SCHEMA)


ANALYZE_CASES = sorted(name for name, (_, argv) in GOLDEN_CASES.items()
                       if argv[0] == "analyze")


def _renamed(spec):
    """The theory with every field renamed: a flavor pair of it has the
    blocks, and so the cached diagnoses, of the theory itself."""
    return spec._replace(name="renamed", fields=tuple(
        f._replace(name=f"renamed_{f.name}") for f in spec.fields))


@pytest.mark.parametrize("name", ANALYZE_CASES)
def test_analyze_matches_golden_with_warm_and_cleared_caches(
        name, tmp_path, clear_analyze_caches):
    # every other analyze case first, then the renamed copy of this one,
    # fill the per-spin caches of the analyze path; the case must come out
    # the same from them as after they are cleared
    for other in ANALYZE_CASES:
        if other != name:
            run_case(other, tmp_path)
    path = pathlib.Path(GOLDEN_CASES[name][1][1])
    spec = parse_theory(path.read_text(), base_dir=path.parent)
    renamed = analyze_theory(_renamed(spec))
    hits = _pair_diagnosis.cache_info().hits
    warm = run_case(name, tmp_path)
    # a flavor pair takes its diagnosis from the renamed copy's fields
    shared = len(renamed.flavor_by_field)
    assert _pair_diagnosis.cache_info().hits - hits == shared
    assert shared == (spec.flavor_mode == "antisymmetric-pair") * len(spec.fields)
    clear_analyze_caches()
    cold = run_case(name, tmp_path)
    for code, text, payload in (warm, cold):
        assert code == GOLDEN_CASES[name][0]
        assert text == (GOLDEN / f"{name}.txt").read_bytes()
        assert payload == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(GOLDEN_CASES):
            _, text, payload = run_case(case, pathlib.Path(tmp))
            (GOLDEN / f"{case}.txt").write_bytes(text)
            (GOLDEN / f"{case}.json").write_bytes(payload)
            print(f"wrote {case}", file=sys.stderr)
