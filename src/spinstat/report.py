"""Assemble the full analysis verdict for one theory.

This is the glue between the parser and the checks: build the kinematic
matrix, test rotation invariance, judge each field's statistics, split
off the constraints and diagnose flavor-antisymmetric pairings.  The
result is a single report object with a stable JSON rendering, which
``report_to_json`` writes straight from it, so repeated runs on the same
input are byte-identical.  The report states
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


def _kinematic_mode(spec: TheorySpec) -> str:
    return "auto" if spec.explicit_matrix is None else "explicit"


def report_to_dict(report: VerdictReport) -> dict:
    """The report's JSON parsed back: ``json.loads(report_to_json(report))``,
    with the key order of the text, every matrix a list of lists of str."""
    import json
    return json.loads(report_to_json(report))


def report_to_json(report: VerdictReport) -> str:
    """The schema-v2 JSON of the report, with a two-space indent as
    ``json.dumps`` writes it, and the newline that ends a JSON file.

    Each key, with its indent, is written as it is; each value goes
    through the helper of its JSON kind, and each array through the
    writer ``json_text`` uses for its shape.  The split's nonsingular
    block is not written: it is ``kinematic.matrix`` on the rows and
    columns of ``constraints.canonical_indices``."""
    spec, build, split = report.spec, report.build, report.split
    kin = build.kinematic
    out = ['{\n  "schema_version": 2,\n  "theory": ' + _string(spec.name)
           + ',\n  "status": ' + _string(report.status) + ',\n  "fields": ']
    sep = "[\n    {"
    for v in report.verdict.verdicts:
        out.append(
            sep + '\n      "name": ' + _string(v.field)
            + ',\n      "spin": ' + _string(v.spin)
            + ',\n      "required_k0_symmetry": "' + v.required_k0_symmetry.name
            + '",\n      "consistent_statistics": ' + _string(v.consistent_statistics)
            + ',\n      "michel_parity": ' + int.__repr__(v.michel_parity)
            + ',\n      "statistics_declared": ' + _string(v.statistics_declared)
            + ',\n      "contradiction": ' + _string(v.contradiction) + "\n    }")
        sep = ",\n    {"
    out.append("\n  ]" if report.verdict.verdicts else "[]")

    labels = kin.index_map if kin is not None else spec.index_map()
    matrix = kin.matrix if kin is not None else None
    out.append(',\n  "kinematic": {\n    "mode": "' + _kinematic_mode(spec)
               + '",\n    "build_status": ' + _string(build.status)
               + ',\n    "note": ' + _string(build.note) + ',\n    "index_map": ')
    _write_strings(labels, 2, out)
    out.append(',\n    "matrix": ')
    _write_matrix(matrix, 2, out)
    invariance = report.invariance
    out.append(
        ',\n    "symmetry": '
        + ("null" if matrix is None else '"' + symmetry_class(matrix).name + '"')
        + ',\n    "statistics": ' + _string(report.statistics)
        + ',\n    "invariant": ' + _CONSTANTS[None if invariance is None else invariance.ok]
        + ',\n    "invariance_violations": ')
    _write_json_value(
        [{"axis": axis, "entries": [list(e) for e in entries]}
         for axis, entries in (invariance.violations if invariance else ())], 2, out)
    out.append(',\n    "constraints": ')
    if split is None:
        out.append("null")
    else:
        out.append('{\n      "statistics": ' + _string(split.statistics)
                   + ',\n      "canonical_indices": ')
        _write_ints(split.canonical_indices, 3, out)
        out.append(',\n      "canonical_labels": ')
        _write_strings([labels[i] for i in split.canonical_indices], 3, out)
        out.append(',\n      "constraint_indices": ')
        _write_ints(split.constraint_indices, 3, out)
        out.append(',\n      "constraint_labels": ')
        _write_strings([labels[i] for i in split.constraint_indices], 3, out)
        out.append("\n    }")

    out.append('\n  },\n  "flavor": ')
    sep = "[\n    {"
    for name, d in report.flavor_by_field:
        out.append(sep + '\n      "field": ' + _string(name)
                   + ',\n      "is_flavor_antisymmetric": '
                   + _CONSTANTS[d.is_flavor_antisymmetric]
                   + ',\n      "sector_signs": ')
        _write_ints(d.sector_signs, 3, out)
        out.append(',\n      "negative_norm": ' + _CONSTANTS[d.negative_norm]
                   + ',\n      "inverted_connection_attempt": '
                   + _CONSTANTS[d.inverted_connection_attempt]
                   + ',\n      "note": ' + _string(d.note)
                   + ',\n      "diagonalization": ')
        dg = d.diagonalization
        if dg is None:
            out.append("null")
        else:
            out.append('{\n        "exact": ' + _CONSTANTS[dg.exact]
                       + ',\n        "eigenvalues": ')
            _write_strings([str(v) for v in dg.eigenvalues], 4, out)
            out.append(',\n        "diagonal": ')
            _write_matrix(dg.diagonal, 4, out)
            out.append(',\n        "transformation": ')
            _write_matrix(dg.transformation, 4, out)
            out.append(',\n        "column_norms_squared": ')
            _write_strings([str(n) for n in dg.column_norms_squared], 4, out)
            out.append("\n      }")
        out.append(',\n      "witness": ')
        if d.witness is None:
            out.append("null")
        else:
            out.append('{\n        "matrix": ')
            _write_matrix(d.witness.matrix, 4, out)
            out.append(',\n        "signature": ')
            _write_ints(d.witness.signature, 4, out)
            out.append("\n      }")
        out.append("\n    }")
        sep = ",\n    {"
    out.append(("\n  ]" if report.flavor_by_field else "[]") + "\n}\n")
    return "".join(out)


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


def _string(value: str | None) -> str:
    """The JSON text of a str or None."""
    if value is None:
        return "null"
    return '"' + value + '"' if _plain(value) else _scalar_text(value)


def json_text(payload) -> str:
    """The text ``json.dumps`` writes with a two-space indent, byte for
    byte, for dicts with str keys, lists and JSON scalars, and the newline
    that ends a JSON file, appended in the same join.  A dict member whose
    value is a string that needs no escaping, an int (not a bool), None or
    a bool is written in one piece with its key.  An array of strings, or
    of ints (not bools), and a ``MatrixText`` go to the writer of their
    shape, which ``report_to_json`` shares; every other scalar is written
    by ``_scalar_text``."""
    out: list[str] = []
    _write_json_value(payload, 0, out)
    out.append("\n")
    return "".join(out)


def _write_json_value(value, depth: int, out: list[str]) -> None:
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = "\n" + _INDENT * (depth + 1)
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
        if type(value) is MatrixText:
            _write_matrix_text(value, depth, out)
        elif (kinds := set(map(type, value))) == _STR:
            _write_strings(value, depth, out)
        elif kinds == _INT:
            _write_ints(value, depth, out)
        else:
            _write_items(value, depth, out)
    else:
        out.append(_scalar_text(value))


def _write_items(values, depth: int, out: list[str]) -> None:
    """An array written item by item."""
    if not values:
        out.append("[]")
        return
    inner = "\n" + _INDENT * (depth + 1)
    sep = "[" + inner
    for item in values:
        out.append(sep)
        _write_json_value(item, depth + 1, out)
        sep = "," + inner
    out.append("\n" + _INDENT * depth + "]")


def _write_strings(values, depth: int, out: list[str]) -> None:
    """An array of str: in one join when none needs escaping."""
    if not values:
        out.append("[]")
    elif _plain("".join(values)):
        inner = "\n" + _INDENT * (depth + 1)
        out.append("[" + inner + '"' + ('",' + inner + '"').join(values) + '"'
                   + "\n" + _INDENT * depth + "]")
    else:
        _write_items(values, depth, out)


def _write_ints(values, depth: int, out: list[str]) -> None:
    """An array of int (not bool) in one join."""
    if not values:
        out.append("[]")
        return
    inner = "\n" + _INDENT * (depth + 1)
    out.append("[" + inner + ("," + inner).join(map(int.__repr__, values))
               + "\n" + _INDENT * depth + "]")


def _write_matrix(m: ExactMatrix | None, depth: int, out: list[str]) -> None:
    """The rows of m as ``to_nested_strings`` writes them, or null."""
    if m is None:
        out.append("null")
    else:
        _write_matrix_text(m.to_nested_strings(), depth, out)


def _write_matrix_text(rows: MatrixText, depth: int, out: list[str]) -> None:
    """Every row in one join, each row's entries in another, and the
    joined text appended as it is, never copied into a larger one; no
    entry is scanned, since none needs escaping."""
    if not rows:
        out.append("[]")
        return
    inner = "\n" + _INDENT * (depth + 1)
    row_inner = inner + _INDENT
    out.append("[" + inner + "[" + row_inner + '"')
    out.append(('"' + inner + "]," + inner + "[" + row_inner + '"').join(
        map(('",' + row_inner + '"').join, rows)))
    out.append('"' + inner + "]\n" + _INDENT * depth + "]")


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
