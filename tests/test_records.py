"""The result records: immutable namedtuples, and a light import."""

import os
import pathlib
import subprocess
import sys

import pytest

import spinstat
from spinstat import flavor, fock, invariance, model, reduction, report, schwinger, su2

MODULES = (flavor, fock, invariance, model, reduction, report, schwinger, su2)

RECORDS = sorted(
    (obj for mod in MODULES for obj in vars(mod).values()
     if isinstance(obj, type) and issubclass(obj, tuple)
     and hasattr(obj, "_fields") and obj.__module__ == mod.__name__),
    key=lambda cls: cls.__name__)


def test_every_result_record_is_found():
    assert [cls.__name__ for cls in RECORDS] == sorted([
        "BetaSet", "ConstraintSplit", "DKPAlgebraReport", "DerivativePolynomial",
        "FieldSpec", "FlavorDiagnosis", "FlavorDiagonalization", "FlavorSplit",
        "GramResult", "HermitianBasis", "InvarianceReport", "KinematicBuild",
        "KinematicMatrix", "MomentumContractionCheck", "ReductionResult",
        "RelationCheck", "SpinGenerators", "StatisticsVerdict",
        "SurfaceVariation", "TheorySpec", "TheoryVerdict", "VerdictReport",
    ])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    # placeholder field values; tuple.__new__ skips any validating __new__
    record = tuple.__new__(cls, range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert tuple(record) == tuple(range(len(cls._fields)))


# modules no command uses: argparse (with gettext and the locale its first
# message lookup imports), typing, dataclasses, inspect, enum and re
NOT_IMPORTED = ("argparse", "dataclasses", "enum", "gettext", "inspect", "locale", "re",
                "typing")


def test_cli_import_loads_no_argparse_gettext_locale_typing_dataclasses_or_inspect():
    src = pathlib.Path(spinstat.__file__).resolve().parent.parent
    probe = ("import sys, spinstat.cli; "
             f"print(sorted(set({NOT_IMPORTED!r}) & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# modules a command never needs: exact scalars run on ints, the JSON writer
# on str, and file paths on os.path
NEVER_RUN = ("decimal", "fractions", "json", "numbers", "pathlib")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CORPUS = pathlib.Path(spinstat.__file__).resolve().parent / "theories"

# after cli.main returns (or exits on a usage error): its exit code and which
# of the modules above the process loaded
RUN_PROBE = """\
import sys
from spinstat import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stderr.write(f"\\n{code} {sorted(set(NEVER_RUN) & set(sys.modules))}\\n")
""".replace("NEVER_RUN", repr(NEVER_RUN))


@pytest.mark.parametrize("argv, code", [
    (["analyze", str(CORPUS / "dirac.th"), "--json", "{out}"], 0),
    (["dkp-check", "--paper-relations", "--json", "{out}"], 0),
    (["fock", str(GOLDEN / "fock.rel"), "--word", "a b adag bdag",
      "--gram", str(GOLDEN / "fock_states.txt"), "--json", "{out}"], 0),
    (["analyze", "--bogus"], 1),
], ids=["analyze", "dkp-check", "fock", "usage-error"])
def test_commands_run_without_fractions_decimal_numbers_json_or_pathlib(
        argv, code, tmp_path):
    src = pathlib.Path(spinstat.__file__).resolve().parent.parent
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", RUN_PROBE,
         *(a.replace("{out}", str(out)) for a in argv)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{code} []"
    assert out.exists() == (code == 0)
