"""Assemble the full analysis verdict for one theory.

This is the glue between the parser and the checks: build the kinematic
matrix, test rotation invariance, judge each field's statistics, split
off the constraints and diagnose flavor-antisymmetric pairings.  The
result is a single report object with a stable JSON rendering, so
repeated runs on the same input are byte-identical.  The report states
only what the analysis derives from its input: the Kirchoff balance of
every field (each is hermitian) and the surface variation where a
statistics is set (the field blocks already have its class) hold for
every theory the parser accepts, so neither is written.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import ExactMatrix, MatrixText, _make, self_check, symmetry_class
from .flavor import FlavorDiagnosis, flavor_diagnosis
from .invariance import InvarianceReport, check_su2_invariance, constraint_split
from .model import TheorySpec, build_kinematic
from .schwinger import TheoryVerdict, field_verdict

# every status a report can have, with the exit code of `spinstat analyze`
# that reports it
STATUSES = {
    "CONSISTENT": 0,
    "CONTRADICTION": 2,
    "REJECTED_NEGATIVE_NORM": 3,
    "NO_KINEMATIC_TERM": 0,
    "NOT_ROTATION_INVARIANT": 5,
}


class AmbiguousKinematicError(ValueError):
    """The automatic builder found several candidate kinematic forms."""


class VerdictReport(namedtuple(
        "VerdictReport",
        "spec build verdict invariance statistics split flavor_by_field status")):
    """Everything the analysis derived about one theory.

    ``spec`` is the TheorySpec, ``build`` the KinematicBuild and
    ``verdict`` the TheoryVerdict.  ``invariance`` (an InvarianceReport),
    ``statistics`` (a str) and ``split`` (a ConstraintSplit) may each be
    None.  ``flavor_by_field`` is a tuple of (field name, FlavorDiagnosis)
    pairs.
    """

    __slots__ = ()


def analyze_theory(spec: TheorySpec) -> VerdictReport:
    """Run the full pipeline on a parsed theory.

    Raises AmbiguousKinematicError when the builder cannot single out a
    kinematic form; every other outcome, including theories with no form
    at all and theories rejected on norms, comes back as a report.  Each
    field's block of K0 is taken once (of an auto K0, the field block
    the builder stored) and judged once, for its statistics and, for
    flavor pairs, its norms.  Only an explicit K0 is checked for rotation
    invariance here: an auto K0 is invariant by construction, since the
    builder checked each of its blocks (model._auto_block).  The status
    is the first that holds of CONTRADICTION, NOT_ROTATION_INVARIANT,
    REJECTED_NEGATIVE_NORM and NO_KINEMATIC_TERM, else CONSISTENT.  A K0
    that fails the invariance check gets no statistics, and no
    constraint split.
    """
    build = build_kinematic(spec)
    if build.status == "not_unique":
        detail = f" (field {', '.join(build.details)})" if build.details else ""
        raise AmbiguousKinematicError(f"{build.note}{detail}")

    k0 = build.kinematic.matrix if build.status == "built" else None
    if k0 is None:
        invariance = None
    elif spec.explicit_matrix is None:
        invariance = InvarianceReport(True, ())
    else:
        invariance = check_su2_invariance(k0, spec.block_layout())
    invariant = invariance is None or invariance.ok
    pairs = spec.flavor_mode == "antisymmetric-pair"
    verdicts = []
    flavor_by_field: list[tuple[str, FlavorDiagnosis]] = []
    for f, idx in spec.field_ranges():
        block = None if k0 is None else k0.principal(idx)
        verdicts.append(field_verdict(f, block, invariant))
        if pairs and block is not None:
            flavor_by_field.append((f.name, _pair_diagnosis(block, f.two_j)))

    found = {v.consistent_statistics for v in verdicts}
    statistics = found.pop() if len(found) == 1 else None
    split = None if statistics is None else constraint_split(k0, statistics)

    if any(v.contradiction for v in verdicts):
        status = "CONTRADICTION"
    elif not invariant:
        status = "NOT_ROTATION_INVARIANT"
    elif any(d.negative_norm for _, d in flavor_by_field):
        status = "REJECTED_NEGATIVE_NORM"
    elif k0 is None or k0.is_zero():
        status = "NO_KINEMATIC_TERM"
    else:
        status = "CONSISTENT"

    return VerdictReport(
        spec=spec,
        build=build,
        verdict=TheoryVerdict(status, tuple(verdicts)),
        invariance=invariance,
        statistics=statistics,
        split=split,
        flavor_by_field=tuple(flavor_by_field),
        status=status,
    )


@lru_cache(maxsize=None)
def _pair_diagnosis(block: ExactMatrix, two_j: int) -> FlavorDiagnosis:
    """flavor_diagnosis of a field's block of K0 at spin two_j/2.  The
    diagnosis is immutable and depends on the block's entries and the spin
    alone, not on the field's name, so fields of equal blocks share it.
    Pair mode refuses an explicit K0, so every block is the builder's pair
    block (model._auto_block), one per spin, and the cache holds at most
    one entry per spin."""
    return flavor_diagnosis(block, _make(two_j, 0, 2))


def _matrix_json(m: ExactMatrix | None) -> MatrixText | None:
    return None if m is None else m.to_nested_strings()


def _kinematic_mode(spec: TheorySpec) -> str:
    return "auto" if spec.explicit_matrix is None else "explicit"


def _flavor_json(name: str, d: FlavorDiagnosis) -> dict:
    out = {
        "field": name,
        "is_flavor_antisymmetric": d.is_flavor_antisymmetric,
        "sector_signs": list(d.sector_signs),
        "negative_norm": d.negative_norm,
        "inverted_connection_attempt": d.inverted_connection_attempt,
        "note": d.note,
        "diagonalization": None,
        "witness": None,
    }
    if d.diagonalization is not None:
        dg = d.diagonalization
        out["diagonalization"] = {
            "exact": dg.exact,
            "eigenvalues": [str(v) for v in dg.eigenvalues],
            "diagonal": _matrix_json(dg.diagonal),
            "transformation": _matrix_json(dg.transformation),
            "column_norms_squared": [str(n) for n in dg.column_norms_squared],
        }
    if d.witness is not None:
        out["witness"] = {
            "matrix": d.witness.matrix.to_nested_strings(),
            "signature": list(d.witness.signature),
        }
    return out


def report_to_dict(report: VerdictReport) -> dict:
    """JSON-ready dict with a fixed key order throughout.

    The split's nonsingular block is not written: it is
    ``kinematic.matrix`` on the rows and columns of
    ``constraints.canonical_indices``."""
    spec = report.spec
    kin = report.build.kinematic

    fields = []
    for v in report.verdict.verdicts:
        fields.append({
            "name": v.field,
            "spin": v.spin,
            "required_k0_symmetry": v.required_k0_symmetry.name,
            "consistent_statistics": v.consistent_statistics,
            "michel_parity": v.michel_parity,
            "statistics_declared": v.statistics_declared,
            "contradiction": v.contradiction,
        })

    labels = kin.index_map if kin is not None else spec.index_map()
    matrix = kin.matrix if kin is not None else None
    kinematic = {
        "mode": _kinematic_mode(spec),
        "build_status": report.build.status,
        "note": report.build.note,
        "index_map": list(labels),
        "matrix": _matrix_json(matrix),
        "symmetry": None,
        "statistics": report.statistics,
        "invariant": None if report.invariance is None else report.invariance.ok,
        "invariance_violations": [
            {"axis": axis, "entries": [list(e) for e in entries]}
            for axis, entries in
            (report.invariance.violations if report.invariance else ())
        ],
        "constraints": None,
    }
    if matrix is not None:
        kinematic["symmetry"] = symmetry_class(matrix).name
    if report.split is not None:
        s = report.split
        kinematic["constraints"] = {
            "statistics": s.statistics,
            "canonical_indices": list(s.canonical_indices),
            "canonical_labels": [labels[i] for i in s.canonical_indices],
            "constraint_indices": list(s.constraint_indices),
            "constraint_labels": [labels[i] for i in s.constraint_indices],
        }

    return {
        "schema_version": 2,
        "theory": spec.name,
        "status": report.status,
        "fields": fields,
        "kinematic": kinematic,
        "flavor": [_flavor_json(name, d) for name, d in report.flavor_by_field],
    }


def report_to_json(report: VerdictReport) -> str:
    return json_text(report_to_dict(report))


_INDENT = "  "
_STR = frozenset((str,))
_INT = frozenset((int,))
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _plain(text: str) -> bool:
    """Whether JSON writes text as it is between quotes: printable ASCII
    without a quote or a backslash."""
    return (text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text)


def _scalar_text(value) -> str:
    """The JSON text of a scalar as ``json.dumps`` writes it.  ``null``,
    ``true``, ``false``, ints and strings that need no escaping are written
    here; ``json`` is imported only for a string that needs escaping, a
    float or any other type."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        if _plain(value):
            return '"' + value + '"'
    elif value is None or kind is bool:
        return _CONSTANTS[value]
    import json
    return json.dumps(value)


def json_text(payload) -> str:
    """The text ``json.dumps`` writes with a two-space indent, byte for
    byte, for dicts with str keys, lists and JSON scalars, and the newline
    that ends a JSON file, appended in the same join.  A dict member whose
    value is a string that needs no escaping, an int (not a bool), None or
    a bool is written in one piece with its key.  An array of strings that
    need no escaping, or of ints (not bools), is joined directly, and a
    ``MatrixText`` in one step for all its rows, unscanned; every other
    scalar is written by ``_scalar_text``."""
    out: list[str] = []
    _write_json_value(payload, 0, out)
    out.append("\n")
    return "".join(out)


def _write_json_value(value, depth: int, out: list[str]) -> None:
    inner = "\n" + _INDENT * (depth + 1)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {key!r}")
            head = sep + ('"' + key + '": ' if _plain(key) else _scalar_text(key) + ": ")
            sep = "," + inner
            kind = type(item)
            if kind is str and _plain(item):
                out.append(head + '"' + item + '"')
            elif kind is int:
                out.append(head + int.__repr__(item))
            elif item is None or kind is bool:
                out.append(head + _CONSTANTS[item])
            else:
                out.append(head)
                _write_json_value(item, depth + 1, out)
        out.append("\n" + _INDENT * depth + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        if type(value) is MatrixText:
            # every row in one join, each row's entries in another, and the
            # joined text appended as it is, never copied into a larger one
            row_inner = inner + _INDENT
            out.append("[" + inner + "[" + row_inner + '"')
            out.append(('"' + inner + "]," + inner + "[" + row_inner + '"').join(
                map(('",' + row_inner + '"').join, value)))
            out.append('"' + inner + "]")
        elif (kinds := set(map(type, value))) == _STR and _plain("".join(value)):
            out.append("[" + inner + '"' + ('",' + inner + '"').join(value) + '"')
        elif kinds == _INT:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)))
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write_json_value(item, depth + 1, out)
                sep = "," + inner
        out.append("\n" + _INDENT * depth + "]")
    else:
        out.append(_scalar_text(value))


def _field_lines(report: VerdictReport) -> list[str]:
    lines = []
    for v in report.verdict.verdicts:
        stat = v.consistent_statistics
        lines.append(
            f"field {v.field}: spin {v.spin}, K0 must be "
            f"{v.required_k0_symmetry.name.lower()}, statistics "
            f"{stat.capitalize() if stat else 'undetermined'}, "
            f"michel parity {v.michel_parity:+d}")
        if v.contradiction:
            lines.append(f"  contradiction: {v.contradiction}")
    return lines


def render_text(report: VerdictReport) -> str:
    """Human-readable report carrying the same verdict tokens as the JSON."""
    lines = [f"theory: {report.spec.name}"]
    lines.extend(_field_lines(report))

    if report.build.kinematic is None:
        lines.append(f"kinematic: none ({report.build.note})")
    else:
        m = report.build.kinematic.matrix
        cls = symmetry_class(m)
        lines.append(
            f"kinematic: {m.rows}x{m.cols} {cls.name.lower()} matrix "
            f"({_kinematic_mode(report.spec)})")
    if report.invariance is not None:
        if report.invariance.ok:
            lines.append("rotation invariance: ok")
        else:
            axes = ", ".join(report.invariance.failing_axes)
            lines.append(f"rotation invariance: VIOLATED on axes {axes}")
    if report.split is not None:
        labels = report.build.kinematic.index_map
        canon = ", ".join(labels[i] for i in report.split.canonical_indices)
        constr = ", ".join(labels[i] for i in report.split.constraint_indices)
        lines.append(f"canonical components: {canon or 'none'}")
        lines.append(f"constraint components: {constr or 'none'}")

    for name, d in report.flavor_by_field:
        signs = ", ".join(f"{s:+d}" if s else "0" for s in d.sector_signs)
        lines.append(f"flavor sectors of {name}: signs ({signs})")
        if d.negative_norm:
            self_check(d.witness is not None,
                       "negative-norm sector reported without a witness")
            p, n, z = d.witness.signature
            lines.append(
                f"  negative-norm sector: one-quantum gram signature "
                f"({p}, {n}, {z})")
        if d.inverted_connection_attempt:
            lines.append(
                "  inverted spin-statistics connection attempt detected")
        if d.note:
            lines.append(f"  note: {d.note}")

    lines.append(f"status: {report.status}")
    return "\n".join(lines) + "\n"
