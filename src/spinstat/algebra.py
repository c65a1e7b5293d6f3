"""Exact linear algebra over the Gaussian rationals.

Everything downstream (representation theory, kinematic-term analysis,
operator algebra) runs on the two types defined here: ``Scalar``, a complex
number with ``fractions.Fraction`` real and imaginary parts, and
``ExactMatrix``, an immutable dense matrix of scalars.  One pivoted
symmetric elimination, ``pivoted_elimination``, yields the canonical
principal index set of the constraint split and, by Sylvester's law of
inertia, every hermitian signature.  No floating point enters any
computation.
"""

from __future__ import annotations

import enum
import json
from fractions import Fraction

__all__ = [
    "DimensionError",
    "Scalar",
    "ExactMatrix",
    "SymmetryClass",
    "symmetry_decompose",
    "pivoted_elimination",
    "hermitian_signature",
]


class DimensionError(ValueError):
    """Shapes do not line up for the requested operation."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Scalar:
    """A Gaussian rational: exact rational real and imaginary parts.

    The text form is ``a/b`` for real values and ``a/b+c/di`` (or ``-``)
    otherwise, e.g. ``-1/2``, ``0+1i``, ``3/4-2i``.  ``str`` emits the
    canonical form; ``parse`` additionally tolerates spaces around the
    central sign and a bare imaginary part like ``2i`` or ``-i``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def parse(text: str) -> "Scalar":
        t = text.strip().replace(" ", "")
        if not t:
            raise ValueError("empty scalar literal")
        if not t.endswith("i"):
            return Scalar(t)
        body = t[:-1]
        # Find the sign separating the real part from the imaginary part.
        # Signs at position 0 or right after '/' belong to a single number.
        split = None
        for idx in range(len(body) - 1, 0, -1):
            if body[idx] in "+-" and body[idx - 1] not in "/+-":
                split = idx
                break
        if split is None:
            re_part, im_part = "0", body
        else:
            re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _as_fraction(im_part)
        return Scalar(re_part, im)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        if isinstance(value, str):
            return Scalar.parse(value)
        raise TypeError(f"cannot interpret {value!r} as a scalar")

    # -- arithmetic ---------------------------------------------------

    def _binary(self, other):
        try:
            return Scalar.coerce(other)
        except TypeError:
            return None

    def __add__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return Scalar(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        # real factors are the common case; skip the vanishing cross terms
        if not self.im:
            return Scalar(self.re * o.re, self.re * o.im)
        if not o.im:
            return Scalar(self.re * o.re, self.im * o.re)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar((self.re * o.re + self.im * o.im) / d,
                      (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Scalar(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._binary(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # equal values hash alike: Scalar(1) == 1, so hash(Scalar(1)) == hash(1)
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "Scalar":
        return Scalar(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    @property
    def is_imaginary(self) -> bool:
        """Purely imaginary (zero real part; zero counts)."""
        return self.re == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"Scalar('{self}')"


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


class SymmetryClass(enum.Enum):
    ZERO = "Zero"
    SYMMETRIC = "Symmetric"
    ANTISYMMETRIC = "Antisymmetric"
    MIXED = "Mixed"

    def __str__(self):
        return self.value


class ExactMatrix:
    """Immutable dense matrix of ``Scalar`` entries."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows):
        data = tuple(tuple(Scalar.coerce(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise DimensionError("matrix needs at least one row and column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return ExactMatrix([[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix([[ONE if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        vals = [Scalar.coerce(v) for v in values]
        n = len(vals)
        return ExactMatrix([[vals[i] if i == j else ZERO for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_columns(columns) -> "ExactMatrix":
        cols = [list(c) for c in columns]
        return ExactMatrix([[cols[j][i] for j in range(len(cols))]
                            for i in range(len(cols[0]))])

    @staticmethod
    def block(grid) -> "ExactMatrix":
        """Assemble from a 2-D grid of matrices with matching edges."""
        row_chunks = []
        for band in grid:
            height = band[0].rows
            if any(m.rows != height for m in band):
                raise DimensionError("block row heights differ")
            for i in range(height):
                row = []
                for m in band:
                    row.extend(m._data[i])
                row_chunks.append(row)
        return ExactMatrix(row_chunks)

    @staticmethod
    def kron(a: "ExactMatrix", b: "ExactMatrix") -> "ExactMatrix":
        out = []
        for i in range(a.rows):
            for k in range(b.rows):
                row = []
                for j in range(a.cols):
                    aij = a[i, j]
                    row.extend(aij * b[k, l] for l in range(b.cols))
                out.append(row)
        return ExactMatrix(out)

    @staticmethod
    def loads(text: str) -> "ExactMatrix":
        """Parse the serialized form: a JSON nested array of scalar strings."""
        try:
            nested = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"matrix text is not valid JSON: {exc}") from exc
        if not isinstance(nested, list) or not all(isinstance(r, list) for r in nested):
            raise ValueError("matrix JSON must be a nested array")
        return ExactMatrix(nested)

    def dumps(self) -> str:
        return json.dumps(self.to_nested_strings())

    def to_nested_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self._data]

    # -- access -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple[Scalar, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[Scalar, ...]:
        return tuple(row[j] for row in self._data)

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        return ExactMatrix([[self._data[i][j] for j in col_idx] for i in row_idx])

    def principal(self, idx) -> "ExactMatrix":
        return self.submatrix(idx, idx)

    def __iter__(self):
        return iter(self._data)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self._data)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return ExactMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self._data, other._data)])

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return ExactMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self._data, other._data)])

    def __neg__(self):
        return ExactMatrix([[-a for a in row] for row in self._data])

    def scale(self, factor) -> "ExactMatrix":
        f = Scalar.coerce(factor)
        return ExactMatrix([[f * a for a in row] for row in self._data])

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        # accumulate row by row, skipping zero factors; the matrices here
        # are mostly sparse (band generators, pairing forms) and exact
        # arithmetic is expensive enough to make the skip worthwhile
        out = [[ZERO] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self._data):
            target = out[i]
            for k, a in enumerate(row):
                if a.is_zero:
                    continue
                for j, b in enumerate(other._data[k]):
                    if not b.is_zero:
                        target[j] = target[j] + a * b
        return ExactMatrix(out)

    def apply(self, vector):
        """Matrix times a vector (any iterable of scalars)."""
        vec = [Scalar.coerce(v) for v in vector]
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum((a * v for a, v in zip(row, vec)), start=ZERO)
                     for row in self._data)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self._data)))

    @property
    def T(self) -> "ExactMatrix":
        return self.transpose()

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix([[a.conjugate() for a in row] for row in self._data])

    def dagger(self) -> "ExactMatrix":
        return self.conjugate().transpose()

    @property
    def H(self) -> "ExactMatrix":
        return self.dagger()

    def trace(self) -> Scalar:
        if not self.is_square:
            raise DimensionError("trace needs a square matrix")
        return sum((self._data[i][i] for i in range(self.rows)), start=ZERO)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(a.is_zero for row in self._data for a in row)

    def is_symmetric(self) -> bool:
        return self.is_square and self == self.transpose()

    def is_antisymmetric(self) -> bool:
        return self.is_square and self == -self.transpose()

    def is_hermitian(self) -> bool:
        return self.is_square and self == self.dagger()

    def is_real(self) -> bool:
        return all(a.is_real for row in self._data for a in row)

    def is_imaginary(self) -> bool:
        return all(a.is_imaginary for row in self._data for a in row)

    # -- elimination --------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...]]:
        """Reduced row echelon form with leftmost pivot selection."""
        data = [list(row) for row in self._data]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not data[i][c].is_zero:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            data[r], data[pivot_row] = data[pivot_row], data[r]
            inv = ONE / data[r][c]
            data[r] = [inv * x for x in data[r]]
            for i in range(self.rows):
                if i != r and not data[i][c].is_zero:
                    f = data[i][c]
                    data[i] = [x - f * y for x, y in zip(data[i], data[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return ExactMatrix(data), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "ExactMatrix":
        if not self.is_square:
            raise DimensionError("inverse needs a square matrix")
        n = self.rows
        aug = ExactMatrix([list(self._data[i]) + list(ExactMatrix.identity(n)._data[i])
                           for i in range(n)])
        reduced, pivots = aug.rref()
        if len(pivots) < n or any(p >= n for p in pivots):
            raise ZeroDivisionError("matrix is singular")
        return reduced.submatrix(range(n), range(n, 2 * n))


# ---------------------------------------------------------------------------
# module-level operations


def symmetry_decompose(m: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix, SymmetryClass]:
    """Split a square matrix into symmetric and antisymmetric parts.

    Returns (sym, antisym, classification).  Classification checks the zero
    matrix first, then pure symmetry, pure antisymmetry, and finally Mixed.
    """
    if not m.is_square:
        raise DimensionError("symmetry decomposition needs a square matrix")
    half = Scalar(Fraction(1, 2))
    mt = m.transpose()
    sym = (m + mt).scale(half)
    anti = (m - mt).scale(half)
    if m.is_zero():
        cls = SymmetryClass.ZERO
    elif anti.is_zero():
        cls = SymmetryClass.SYMMETRIC
    elif sym.is_zero():
        cls = SymmetryClass.ANTISYMMETRIC
    else:
        cls = SymmetryClass.MIXED
    return sym, anti, cls


def pivoted_elimination(m: ExactMatrix) -> tuple[tuple[int, ...], tuple[ExactMatrix, ...]]:
    """Exact symmetric elimination with 1x1 and 2x2 pivots (Bunch-Kaufman).

    For a symmetric, antisymmetric or hermitian matrix, returns the
    leftmost index set S with M[S,S] invertible and |S| = rank(M),
    ascending, and the pivot blocks in elimination order.  The pivot is
    the first active index with a nonzero diagonal entry; when every
    active diagonal entry is zero, the first nonzero off-diagonal entry in
    row order gives a 2x2 block with zero diagonal, invertible because its
    determinant is -b^2, +b^2 or -|b|^2 for the entry b.  Schur
    complements keep the transpose symmetry, so the loop stops only when
    the remaining block is zero.  Each step is a congruence, so for a
    hermitian matrix the blocks carry its inertia (Sylvester's law).
    """
    if not m.is_square:
        raise DimensionError("elimination needs a square matrix")
    work = [list(row) for row in m]
    active = list(range(m.rows))
    selected: list[int] = []
    blocks: list[ExactMatrix] = []
    while active:
        pivot = next(((i,) for i in active if not work[i][i].is_zero), None)
        if pivot is None:
            pivot = next(((i, j) for a, i in enumerate(active) for j in active[a + 1:]
                          if not work[i][j].is_zero), None)
        if pivot is None:
            break
        block = ExactMatrix([[work[r][c] for c in pivot] for r in pivot])
        selected.extend(pivot)
        blocks.append(block)
        active = [r for r in active if r not in pivot]
        _schur_update(work, pivot, block.inverse(), active)
    return tuple(sorted(selected)), tuple(blocks)


def _schur_update(work, pivot, inv: ExactMatrix, rest) -> None:
    """Replace work[rest, rest] by its Schur complement over the pivot,
    skipping the rows and columns the pivot does not couple to."""
    size = len(pivot)
    pivot_rows = [work[p] for p in pivot]
    cols = [c for c in rest if any(not row[c].is_zero for row in pivot_rows)]
    for r in rest:
        row = work[r]
        coupling = [row[p] for p in pivot]
        if all(x.is_zero for x in coupling):
            continue
        factors = [sum((coupling[a] * inv[a, b] for a in range(size)), start=ZERO)
                   for b in range(size)]
        for c in cols:
            row[c] = row[c] - sum((f * pr[c] for f, pr in zip(factors, pivot_rows)),
                                  start=ZERO)


def hermitian_signature(m: ExactMatrix) -> tuple[int, int, int]:
    """Signature (positives, negatives, zeros) of a hermitian matrix.

    The signature survives the congruences of pivoted_elimination
    (Sylvester's law of inertia), so it is read off the pivot blocks: a
    1x1 block counts by the sign of its real entry, a 2x2 block has zero
    diagonal and determinant -|b|^2 < 0, hence one eigenvalue of each
    sign, and the rank deficit counts the zeros.
    """
    if not m.is_hermitian():
        raise ValueError("signature is defined for hermitian matrices only")
    indices, blocks = pivoted_elimination(m)
    positives = sum(1 if b.rows == 2 else int(b[0, 0].re > 0) for b in blocks)
    return positives, len(indices) - positives, m.rows - len(indices)
