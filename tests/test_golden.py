"""Byte-for-byte golden outputs of the CLI.

Each case runs one command in process and compares its stdout and its
``--json`` file with the files under ``tests/golden/``.  The cases cover
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
import pathlib
import sys
import tempfile
from importlib import resources

import pytest

from spinstat.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
THEORIES = resources.files("spinstat") / "theories"
CORPUS = (
    "dirac",
    "majorana",
    "scalar_charged",
    "scalar_doubled",
    "scalar_flavor_antisym",
    "scalar_single",
    "vector",
)


def _cases() -> dict[str, list[str]]:
    cases = {name: ["analyze", str(THEORIES / f"{name}.th")] for name in CORPUS}
    for name in ("contradiction", "mixed_constraints", "not_invariant", "pair_spin2",
                 "pair_spin4"):
        cases[name] = ["analyze", str(GOLDEN / f"{name}.th")]
    cases["dkp-check"] = ["dkp-check", "--paper-relations"]
    cases["dkp-check-metric"] = ["dkp-check", "--paper-relations", "--metric", "-+++"]
    cases["fock"] = ["fock", str(GOLDEN / "fock.rel"), "--word", "a b adag bdag",
                     "--gram", str(GOLDEN / "fock_states.txt")]
    return cases


CASES = _cases()


def run_case(name: str, workdir: pathlib.Path) -> tuple[bytes, bytes]:
    """(stdout, JSON file) of one case, as bytes."""
    out = workdir / f"{name}.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main([*CASES[name], "--json", str(out)])
    return stdout.getvalue().encode(), out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    text, payload = run_case(name, tmp_path)
    assert text == (GOLDEN / f"{name}.txt").read_bytes()
    assert payload == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            text, payload = run_case(case, pathlib.Path(tmp))
            (GOLDEN / f"{case}.txt").write_bytes(text)
            (GOLDEN / f"{case}.json").write_bytes(payload)
            print(f"wrote {case}", file=sys.stderr)
