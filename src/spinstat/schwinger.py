"""Surface-variation quantization and the spin-statistics verdict.

The action principle reads the generator of field transformations off the
surface term of the varied action.  Whether that generator actually moves
the fields depends on the transpose symmetry of K0: commuting variations
keep only its antisymmetric part, anticommuting ones only its symmetric
part.  Combining this with the symmetry class rotational invariance forces
on K0 yields, per field, the statistics the theory can support.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import ExactMatrix, SymmetryClass, symmetry_class
from .invariance import STATISTICS_CLASS, class_for_statistics, required_symmetry
from .model import FieldSpec
from .su2 import michel_parity

__all__ = [
    "SurfaceVariation",
    "surface_variation_consistency",
    "StatisticsVerdict",
    "TheoryVerdict",
    "statistics_for_class",
    "field_verdict",
]

class SurfaceVariation(namedtuple(
        "SurfaceVariation", "consistent reason", defaults=(None,))):
    """Whether the surface variation implements the statistics, with the
    reason, a str, when it does not."""

    __slots__ = ()


def surface_variation_consistency(k0: ExactMatrix, statistics: str) -> SurfaceVariation:
    """Decide whether statistics can be implemented by the surface variation.

    The generator is G = sum_r Pi_r delta-xi_r with Pi = P xi.  When P
    vanishes, that is unless K0 is mixed or has the class the statistics
    keeps, [xi, G] = 0: the variation generates nothing, so the given
    statistics is degenerate for this K0.  The reason string names the
    symmetry part whose absence killed the generator.
    """
    needed = class_for_statistics(statistics)
    actual = symmetry_class(k0)
    if actual is needed or actual is SymmetryClass.MIXED:
        return SurfaceVariation(True)
    if actual is SymmetryClass.ZERO:
        detail = "K0 is zero"
    else:
        detail = f"K0 has no {needed.name.lower()} part"
    return SurfaceVariation(False, f"generator commutes with all fields: {detail}")


class StatisticsVerdict(namedtuple(
        "StatisticsVerdict",
        "field spin required_k0_symmetry consistent_statistics michel_parity"
        " statistics_declared contradiction")):
    """The verdict on one field: ``field`` is its name and ``spin`` its
    label, ``required_k0_symmetry`` a SymmetryClass and ``michel_parity``
    +1 or -1.  ``consistent_statistics`` and ``contradiction`` are str or
    None."""

    __slots__ = ()


class TheoryVerdict(namedtuple("TheoryVerdict", "status verdicts")):
    """The theory's status, a str, and a tuple of StatisticsVerdict."""

    __slots__ = ()


def statistics_for_class(cls: SymmetryClass) -> str | None:
    """Statistics whose surface variation survives a K0 of this pure class."""
    return next((s for s, c in STATISTICS_CLASS.items() if c is cls), None)


def _pinned_conflict(f: FieldSpec, required: SymmetryClass) -> str:
    kind = "half-integral" if f.is_half_integer else "integral"
    return (f"required {required.name.lower()} K0 ({kind} spin) vs "
            f"{f.statistics.capitalize()} requiring "
            f"{STATISTICS_CLASS[f.statistics].name.lower()} K0")


def field_verdict(f: FieldSpec, block: ExactMatrix | None,
                  invariant: bool) -> StatisticsVerdict:
    """The statistics verdict on one field, judged on its own diagonal
    block of K0, or on None when the theory has no kinematic term.

    Rotational invariance fixes which symmetry the spin allows, the block
    supports the statistics of its own class, and the two agree exactly
    when spin and statistics are paired the standard way.  A block of
    the wrong class, or a declared statistics that fights the one the
    block supports, is a contradiction.  The statistics is reported only
    when K0 is `invariant`, since the derivation assumes it.
    """
    required = required_symmetry(f.spin)
    natural = statistics_for_class(required)
    consistent: str | None = None
    contradiction: str | None = None

    if block is not None:
        actual = symmetry_class(block)
        if actual is required:
            consistent = natural
        elif actual is SymmetryClass.MIXED:
            contradiction = (
                f"kinematic block for {f.name} mixes symmetry classes: the "
                f"antisymmetric part supports Bose and the symmetric part "
                f"supports Fermi, and rotational invariance admits only the "
                f"{required.name.lower()} class for spin {f.spin_text}")
        elif actual is not SymmetryClass.ZERO:
            contradiction = (
                f"kinematic block for {f.name} is {actual.name.lower()}, "
                f"supporting {statistics_for_class(actual).capitalize()}, "
                f"but spin {f.spin_text} requires a {required.name.lower()} "
                f"block supporting {natural.capitalize()}")

    if (consistent is not None and f.statistics != "auto"
            and f.statistics != consistent):
        contradiction = _pinned_conflict(f, required)

    return StatisticsVerdict(
        field=f.name,
        spin=f.spin_text,
        required_k0_symmetry=required,
        consistent_statistics=consistent if invariant else None,
        michel_parity=michel_parity(f.spin),
        statistics_declared=f.statistics,
        contradiction=contradiction,
    )
