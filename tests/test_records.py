"""The result records: immutable NamedTuples, and a light import."""

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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = pathlib.Path(spinstat.__file__).resolve().parent.parent
    probe = ("import sys, spinstat.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
