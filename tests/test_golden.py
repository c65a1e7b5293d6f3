"""Byte-for-byte golden outputs of the CLI.

Each case runs one command in process and compares its exit code with
``EXIT_CODES`` and its stdout and its ``--json`` file with the files under
``tests/golden/``; an ``analyze`` report must also validate against the
report schema.  The cases cover
the shipped corpus, ``dkp-check --paper-relations`` under the metric the
betas close and under ``-+++``, which they do not (the failure path), two
antisymmetric-pair theories whose flavor block has repeated and
fractional entries, which pins the order of the diagonalization columns,
an explicit mixed K0 whose Bose split has constraints, an explicit K0
that fails rotation invariance both between two spins and in one of two
identical flavor blocks, a spin-3/2 field declared Bose, whose verdict
contradicts its declaration, and ``fock`` with a word and a Gram matrix over
a table with complex and fractional pairings.

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

GOLDEN = pathlib.Path(__file__).parent / "golden"
THEORIES = resources.files("spinstat") / "theories"
SCHEMA = json.loads(
    (resources.files("spinstat") / "schemas" / "report.schema.json").read_text())
CORPUS = (
    "dirac",
    "majorana",
    "scalar_charged",
    "scalar_doubled",
    "scalar_flavor_antisym",
    "scalar_single",
    "vector",
)


# every case exits 0 but these, as in the CI golden loop: REJECTED_NEGATIVE_NORM
# (3), CONTRADICTION (2), NOT_ROTATION_INVARIANT (5), and a dkp-check whose
# relations fail under the metric (2)
EXIT_CODES = {"scalar_flavor_antisym": 3, "pair_spin2": 3, "pair_spin4": 3,
              "contradiction": 2, "not_invariant": 5, "dkp-check-metric": 2}


def _cases() -> dict[str, tuple[int, list[str]]]:
    """name -> (exit code, argv)."""
    cases = {name: ["analyze", str(THEORIES / f"{name}.th")] for name in CORPUS}
    for name in ("contradiction", "mixed_constraints", "not_invariant", "pair_spin2",
                 "pair_spin4"):
        cases[name] = ["analyze", str(GOLDEN / f"{name}.th")]
    cases["dkp-check"] = ["dkp-check", "--paper-relations"]
    cases["dkp-check-metric"] = ["dkp-check", "--paper-relations", "--metric", "-+++"]
    cases["fock"] = ["fock", str(GOLDEN / "fock.rel"), "--word", "a b adag bdag",
                     "--gram", str(GOLDEN / "fock_states.txt")]
    return {name: (EXIT_CODES.get(name, 0), argv) for name, argv in cases.items()}


CASES = _cases()


def run_case(name: str, workdir: pathlib.Path) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, JSON file) of one case, the outputs as bytes."""
    out = workdir / f"{name}.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([*CASES[name][1], "--json", str(out)])
    return code, stdout.getvalue().encode(), out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    code, text, payload = run_case(name, tmp_path)
    assert code == CASES[name][0]
    assert text == (GOLDEN / f"{name}.txt").read_bytes()
    assert payload == (GOLDEN / f"{name}.json").read_bytes()
    if CASES[name][1][0] == "analyze":
        jsonschema.validate(json.loads(payload), SCHEMA)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            _, text, payload = run_case(case, pathlib.Path(tmp))
            (GOLDEN / f"{case}.txt").write_bytes(text)
            (GOLDEN / f"{case}.json").write_bytes(payload)
            print(f"wrote {case}", file=sys.stderr)
