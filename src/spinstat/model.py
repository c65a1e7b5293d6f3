"""Theory specifications: a small line grammar plus kinematic-term building.

A theory file lists hermitian fields with a spin, optional flavor/copy
multiplicities and an optional pinned statistics, then chooses how the
first-order kinematic matrix K0 arises: built automatically from the unique
invariant bilinear, loaded verbatim from a matrix file, or arranged in the
flavor-antisymmetrized pairing [[0, F], [-F, 0]].

Index ordering is field -> flavor -> copy -> component throughout, and
half-integral spins are realified at parse time (a spin-1/2 field
contributes four hermitian components).
"""

from __future__ import annotations

import os
from collections import namedtuple
from stat import S_ISREG

from .algebra import (MAX_LITERAL_DIGITS, I, ONE, ExactMatrix, ParseError, Scalar,
                      SymmetryClass, _blockdiag, _json_nesting, _make, _nesting_shape,
                      _numbered_lines)
from .invariance import required_symmetry
from .su2 import as_two_j, hermitian_basis, spin_label

__all__ = [
    "TheoryParseError",
    "FieldSpec",
    "TheorySpec",
    "KinematicMatrix",
    "KinematicBuild",
    "parse_theory",
    "build_kinematic",
    "NOTE_NO_FORM",
    "NOTE_NOT_UNIQUE",
]

MAX_TWO_J = 8
# largest total component count parse_theory accepts.  Matrices store only
# their nonzeros, so the bound limits time, not memory: analyze_theory on
# `field x spin=7/2 flavors=64` (dim 1024) takes about 0.2 s on a 2-core host
MAX_DIMENSION = 1024
# largest explicit matrix file, in bytes, checked by os.stat before the file
# is read: room for a dim-1024 K0 whose json.dumps entries have up to 12
# characters.  Reading and JSON-parsing a file at the bound takes about
# 0.15 s for such a matrix and 0.8 s for 8 million one-digit entries on a
# 2-core host
MAX_MATRIX_BYTES = 1 << 24
# a smaller explicit matrix file bound for a theory of n components,
# checked by os.stat with MAX_MATRIX_BYTES: room for n**2 entries of
# MATRIX_ENTRY_BYTES each, two literal parts (real and imaginary) of up to
# MAX_LITERAL_DIGITS digits, each with a sign and a '/', then the 'i', two
# quotes and the ', ' before the next entry, plus MATRIX_SPACE_BYTES of
# brackets, line breaks and indentation.  From n = 45 on, MAX_MATRIX_BYTES
# is the smaller; at n = 2 this bound is 99972 bytes
MATRIX_ENTRY_BYTES = 2 * (MAX_LITERAL_DIGITS + 2) + 5
MATRIX_SPACE_BYTES = 1 << 16
# largest theory file, in bytes, read as one more byte at most: 1024
# field lines of 40 bytes take 41 KiB, and the rest is room for comments.
# Reading and parsing a file at the bound takes about 0.03 s on a 2-core
# host, field lines (refused at the 1025th) or comments alike
MAX_THEORY_BYTES = 1 << 20

NOTE_NO_FORM = "no valid kinematic form; field doubling required"
NOTE_NOT_UNIQUE = "kinematic form not unique; specify explicitly"


def _is_name(text) -> bool:
    """A theory or field name: an ASCII letter or _, then letters, digits, _."""
    return isinstance(text, str) and text.isascii() and text.isidentifier()


class TheoryParseError(ParseError):
    """A theory file error; line 0 marks an error of the whole file."""


class FieldSpec(namedtuple(
        "FieldSpec", "name two_j flavors copies statistics",
        defaults=(1, 1, "auto"))):
    """One field line.  Every field is hermitian: the analysis assumes it.

    ``statistics`` is "auto", "bose" or "fermi".  ``spin`` is j as a
    real Scalar, equal to ``Fraction(two_j, 2)`` and hashing like it.
    """

    __slots__ = ()

    @property
    def spin(self) -> Scalar:
        return _make(self.two_j, 0, 2)

    @property
    def spin_text(self) -> str:
        return spin_label(self.two_j)

    @property
    def is_half_integer(self) -> bool:
        return self.two_j % 2 == 1

    @property
    def component_dimension(self) -> int:
        """Hermitian components per flavor per copy (doubled when realified)."""
        n = self.two_j + 1
        return 2 * n if self.is_half_integer else n

    @property
    def block_dimension(self) -> int:
        return self.flavors * self.copies * self.component_dimension


class TheorySpec(namedtuple(
        "TheorySpec", "name fields explicit_matrix flavor_mode",
        defaults=(None, "diagonal"))):
    """A parsed theory.  K0 is explicit exactly when ``explicit_matrix``, an
    ExactMatrix, is set; otherwise build_kinematic constructs it.
    ``fields`` is a tuple of FieldSpec and ``flavor_mode`` "diagonal" or
    "antisymmetric-pair"."""

    __slots__ = ()

    @property
    def dimension(self) -> int:
        return sum(f.block_dimension for f in self.fields)

    def field_ranges(self) -> list[tuple[FieldSpec, range]]:
        out, offset = [], 0
        for f in self.fields:
            out.append((f, range(offset, offset + f.block_dimension)))
            offset += f.block_dimension
        return out

    def block_layout(self) -> tuple[int, ...]:
        """The 2j of each (field, flavor, copy) block of components, in
        index order: rotations act on each block alone."""
        return tuple(f.two_j for f in self.fields
                     for _ in range(f.flavors * f.copies))

    def index_map(self) -> tuple[str, ...]:
        labels = []
        for f in self.fields:
            for fl in range(f.flavors):
                for cp in range(f.copies):
                    for comp in range(f.component_dimension):
                        parts = [f.name]
                        if f.flavors > 1:
                            parts.append(f"f{fl}")
                        if f.copies > 1:
                            parts.append(f"c{cp}")
                        parts.append(str(comp))
                        labels.append(".".join(parts))
        return tuple(labels)


# -- parsing -----------------------------------------------------------------


def _parse_bool(raw: str, line_no: int, key: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise TheoryParseError(line_no, f"{key} must be true or false, got {raw!r}")


def _parse_count(raw: str, line_no: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise TheoryParseError(line_no, f"{key} must be an integer, got {raw!r}") from None


def _parse_field(rest: str, line_no: int) -> FieldSpec:
    tokens = rest.split()
    if not tokens:
        raise TheoryParseError(line_no, "field needs a name")
    attrs: dict[str, str] = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise TheoryParseError(line_no, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in attrs:
            raise TheoryParseError(line_no, f"duplicate attribute {key!r}")
        attrs[key] = value
    if "spin" not in attrs:
        raise TheoryParseError(line_no, "field needs spin=<int or int/2>")

    try:
        two_j = as_two_j(attrs.pop("spin"))
    except (ValueError, TypeError) as exc:
        raise TheoryParseError(line_no, str(exc)) from exc
    flavors = _parse_count(attrs.pop("flavors", "1"), line_no, "flavors")
    copies = _parse_count(attrs.pop("copies", "1"), line_no, "copies")
    if not _parse_bool(attrs.pop("hermitian", "true"), line_no, "hermitian"):
        raise TheoryParseError(
            line_no,
            "non-hermitian fields are not supported: every field must carry "
            "both creation and annihilation parts; model a complex field as "
            "a doubled hermitian pair instead")
    statistics = attrs.pop("statistics", "auto")
    if attrs:
        raise TheoryParseError(line_no, f"unknown field attribute {sorted(attrs)[0]!r}")
    return FieldSpec(tokens[0], two_j, flavors, copies, statistics)


def parse_theory(text: str, base_dir: str | os.PathLike = ".") -> TheorySpec:
    """Parse a theory description; explicit matrices load relative to
    base_dir, once _check_spec has passed the theory's rules."""
    name = None
    fields: list[FieldSpec] = []
    explicit_path: str | None = None
    flavor_mode = "diagonal"
    lines: dict = {}  # of each directive, and of each field by its index

    for line_no, line in _numbered_lines(text):
        directive, _, rest = line.partition(" ")
        rest = rest.strip()

        if directive == "theory":
            if "theory" in lines:
                raise TheoryParseError(line_no, "duplicate theory line")
            name = rest
            lines["theory"] = line_no
        elif directive == "field":
            # every field has a component, so _check_spec refuses the first
            # MAX_DIMENSION + 1 fields already; later field lines are skipped
            if len(fields) <= MAX_DIMENSION:
                lines[len(fields)] = line_no
                fields.append(_parse_field(rest, line_no))
        elif directive == "kinematic":
            if "kinematic" in lines:
                raise TheoryParseError(line_no, "duplicate kinematic line")
            lines["kinematic"] = line_no
            if rest.startswith("explicit"):
                explicit_path = rest[len("explicit"):].strip()
                if not explicit_path:
                    raise TheoryParseError(line_no, "kinematic explicit needs a path")
                lines["explicit"] = line_no
            elif rest != "auto":
                raise TheoryParseError(
                    line_no, f"kinematic must be auto or explicit <path>, got {rest!r}")
        elif directive == "flavor":
            if "flavor" in lines:
                raise TheoryParseError(line_no, "duplicate flavor line")
            lines["flavor"] = line_no
            flavor_mode = rest
        else:
            raise TheoryParseError(line_no, f"unknown directive {directive!r}")

    if name is None:
        raise TheoryParseError(0, "missing theory line")
    spec = TheorySpec(name, tuple(fields), None, flavor_mode)
    _check_spec(spec, lines)
    if explicit_path is not None:
        spec = spec._replace(explicit_matrix=_read_matrix(
            base_dir, explicit_path, spec.dimension, lines["explicit"]))
    return spec


def _matrix_byte_bound(dimension: int) -> int:
    """Largest explicit matrix file for a theory of this many components."""
    return min(MAX_MATRIX_BYTES,
               dimension * dimension * MATRIX_ENTRY_BYTES + MATRIX_SPACE_BYTES)


def _read_matrix(base_dir, path: str, dimension: int, line_no: int) -> ExactMatrix:
    """The explicit K0 in the file at path, named on line line_no; its
    size is checked against the theory's dimension before it is read, and
    its shape on the JSON nesting, before any entry is converted.  Only a
    regular file has a size to check: a FIFO or a device reports 0 and
    could block or never end."""
    full = os.path.join(base_dir, path)
    limit = _matrix_byte_bound(dimension)
    try:
        info = os.stat(full)
        regular = S_ISREG(info.st_mode)
        if regular and info.st_size <= limit:
            with open(full, encoding="utf-8") as fh:
                nested = _json_nesting(fh.read())
            shape = _nesting_shape(nested)
            if shape == (dimension, dimension):
                return ExactMatrix._from_nesting(nested)
    except OSError as exc:
        raise TheoryParseError(line_no, f"cannot read matrix file {path!r}: {exc}")
    except ValueError as exc:
        raise TheoryParseError(line_no, f"bad matrix file {path!r}: {exc}")
    if not regular:
        raise TheoryParseError(line_no, f"matrix file {path!r} is not a regular file")
    if info.st_size > limit:
        # a file over MAX_MATRIX_BYTES is refused by it, whatever the theory
        if info.st_size > MAX_MATRIX_BYTES:
            limit = MAX_MATRIX_BYTES
        raise TheoryParseError(line_no, f"matrix file {path!r} has {info.st_size} "
                                        f"bytes, over the maximum {limit}")
    raise _shape_error(line_no, *shape, dimension)


def _shape_error(line_no: int, rows: int, cols: int, dimension: int) -> TheoryParseError:
    return TheoryParseError(line_no, f"explicit matrix is {rows}x{cols} but the "
                                     f"theory has {dimension} components")


def _check_spec(spec: TheorySpec, lines=None) -> None:
    """The theory's rules, for parse_theory and build_kinematic alike.
    ``lines`` holds the line of each directive of a file, and of each
    field by its index; an "explicit" line states an explicit matrix not
    yet read.  Each failure is a TheoryParseError of the line that
    ``lines`` gives its theory name, flavor mode, field or explicit
    matrix, else of line 0."""
    lines = lines or {}
    line = lines.get
    if not _is_name(spec.name):
        raise TheoryParseError(line("theory", 0), f"bad theory name {spec.name!r}")
    if not spec.fields:
        raise TheoryParseError(0, "theory has no fields")
    if spec.flavor_mode not in ("diagonal", "antisymmetric-pair"):
        raise TheoryParseError(
            line("flavor", 0), f"flavor must be diagonal or antisymmetric-pair, "
                               f"got {spec.flavor_mode!r}")
    names = set()
    dimension = 0
    for k, f in enumerate(spec.fields):
        at = line(k, 0)
        if not _is_name(f.name):
            raise TheoryParseError(at, f"bad field name {f.name!r}")
        if f.name in names:
            raise TheoryParseError(at, f"duplicate field {f.name!r}")
        names.add(f.name)
        for key in ("two_j", "flavors", "copies"):
            value = getattr(f, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TheoryParseError(
                    at, f"field {f.name}: {key} must be an int, got {value!r}")
        if not 0 <= f.two_j <= MAX_TWO_J:
            raise TheoryParseError(
                at, f"field {f.name}: spin {spin_label(f.two_j)} is outside "
                    f"the supported range 0 to {spin_label(MAX_TWO_J)}")
        if f.flavors < 1 or f.copies < 1:
            raise TheoryParseError(
                at, f"field {f.name}: flavors and copies must be >= 1")
        if f.statistics not in ("auto", "bose", "fermi"):
            raise TheoryParseError(
                at, f"field {f.name}: statistics must be auto, bose or fermi, "
                    f"got {f.statistics!r}")
        dimension += f.block_dimension
        if dimension > MAX_DIMENSION:
            raise TheoryParseError(
                at, f"theory has {dimension} components, over the supported "
                    f"maximum {MAX_DIMENSION}")
    matrix = spec.explicit_matrix
    explicit = line("explicit", 0)
    if spec.flavor_mode == "antisymmetric-pair":
        if matrix is not None or "explicit" in lines:
            raise TheoryParseError(
                explicit, "choose one way to fix the flavor structure: "
                          "antisymmetric-pair and an explicit matrix conflict")
        for k, f in enumerate(spec.fields):
            if f.flavors != 2:
                raise TheoryParseError(
                    line(k, 0), f"antisymmetric-pair needs flavors=2 on every "
                                f"field ({f.name} has {f.flavors})")
    if matrix is not None and matrix.shape != (dimension, dimension):
        raise _shape_error(explicit, matrix.rows, matrix.cols, dimension)


# -- kinematic construction --------------------------------------------------


class KinematicMatrix(namedtuple("KinematicMatrix", "matrix index_map")):
    """K0 as an ExactMatrix, with the tuple of component labels that
    names its rows."""

    __slots__ = ()


class KinematicBuild(namedtuple(
        "KinematicBuild", "status kinematic note details",
        defaults=(None, None, ()))):
    """Outcome of build_kinematic: a matrix, or the reason there is none.

    ``status`` is "built", "no_form" or "not_unique"; ``kinematic`` is the
    KinematicMatrix or None, ``note`` a str or None, and ``details`` a
    tuple of str.
    """

    __slots__ = ()


def _form_space_dims(f: FieldSpec) -> tuple[int, int]:
    """(symmetric, antisymmetric) invariant-form dimensions on one
    flavor-block of the field, i.e. on copies x components.

    Counting argument: for an irreducible integral spin the bilinear
    invariants of V (x) V form a one-dimensional symmetric space, so with c
    copies the split is (c(c+1)/2, c(c-1)/2).  The realified half-integral
    space carries one symmetric invariant (the positive metric) and three
    antisymmetric ones, giving c(c+1)/2 + 3c(c-1)/2 symmetric and
    c(c-1)/2 + 3c(c+1)/2 antisymmetric combinations.  The generic nullspace
    solver in tests/oracles.py confirms these numbers on small cases; it is
    not run here to keep building fast.
    """
    c = f.copies
    sym_pairs = c * (c + 1) // 2
    anti_pairs = c * (c - 1) // 2
    if not f.is_half_integer:
        return sym_pairs, anti_pairs
    return sym_pairs + 3 * anti_pairs, anti_pairs + 3 * sym_pairs


def _normalize_block(block: ExactMatrix, cls: SymmetryClass) -> ExactMatrix:
    """Fix the scale convention: first nonzero upper-triangle entry becomes
    +i for antisymmetric blocks and +1 for symmetric ones."""
    lead = next((x for i, j, x in block.nonzeros() if j >= i), None)
    if lead is None:
        return block
    target = I if cls is SymmetryClass.ANTISYMMETRIC else ONE
    return block.scale(target / lead)


_EPSILON = ExactMatrix([[0, 1], [-1, 0]])


def build_kinematic(spec: TheorySpec) -> KinematicBuild:
    """Construct K0 for the theory, or report why that is impossible.

    Auto mode picks, per field and flavor, the unique rotation-invariant
    bilinear of the symmetry class the spin demands (antisymmetric for
    integral spin, symmetric for half-integral).  A single-copy integral
    field has no antisymmetric invariant at all, hence "no form": pairing
    two copies is the standard fix.  The antisymmetric-pair mode instead
    couples the two flavors through [[0, F], [-F, 0]] where F is the
    invariant of the opposite class, which is exactly the structure whose
    quantization is later rejected.  A spec that breaks a whole-theory
    rule of parse_theory raises its TheoryParseError.
    """
    _check_spec(spec)
    index_map = spec.index_map()

    if spec.explicit_matrix is not None:
        return KinematicBuild("built", KinematicMatrix(spec.explicit_matrix, index_map))

    pair = spec.flavor_mode == "antisymmetric-pair"
    blocks: list[ExactMatrix] = []
    for f in spec.fields:
        cls = required_symmetry(f.spin)
        if pair:  # the opposite class, coupled over the two flavors below
            cls = (SymmetryClass.SYMMETRIC if cls is SymmetryClass.ANTISYMMETRIC
                   else SymmetryClass.ANTISYMMETRIC)
        sym_dim, antisym_dim = _form_space_dims(f)
        dim = antisym_dim if cls is SymmetryClass.ANTISYMMETRIC else sym_dim
        if dim != 1:
            status, note = (("no_form", NOTE_NO_FORM) if dim == 0
                            else ("not_unique", NOTE_NOT_UNIQUE))
            return KinematicBuild(status, note=note, details=(f.name,))
        w = hermitian_basis(f.spin).form
        # unique only for copies = 2 (antisymmetric: the symplectic pairing
        # of the copies) or copies = 1 (symmetric: the form itself)
        block = _normalize_block(
            ExactMatrix.kron(_EPSILON, w) if cls is SymmetryClass.ANTISYMMETRIC else w,
            cls)
        if pair:
            blocks.append(ExactMatrix.kron(_EPSILON, block))
        else:
            blocks.extend([block] * f.flavors)
    matrix = _blockdiag(blocks)
    return KinematicBuild("built", KinematicMatrix(matrix, index_map))
