"""Exact linear algebra over the Gaussian rationals.

Everything downstream (representation theory, kinematic-term analysis,
operator algebra) runs on the two types defined here: ``Scalar``, a complex
number held as three integers (a + b*i) / d in lowest terms, and
``ExactMatrix``, an immutable matrix of scalars that stores only its
nonzero entries, so the cost of every kernel grows with the nonzeros
rather than with rows x cols.  One pivoted symmetric elimination,
``pivoted_elimination``, inverts its 1x1 and 2x2 pivot blocks in closed
form and yields the canonical principal index set of the constraint
split and, by Sylvester's law of inertia, every hermitian signature.
``ExactMatrix.rank`` is the one rank every check takes, and it shares
no code with the pivoting it checks.  It first runs
``ExactMatrix.modular_rank``: a forward elimination of the matrix's
image in GF(q), for the fixed 61-bit prime q = 2**61 - 31 (1 mod 4, so
i maps to a square root of -1), on machine-size ints with no gcd.  The
image is a ring homomorphism, so the modular rank never exceeds the
exact one, and when it is full it is the rank; a nonsingular momentum
map is decided without an exact elimination.  Only a
rank-deficient matrix, or an unlucky prime, pays for the exact forward
elimination.  No floating point enters any computation.
"""

from __future__ import annotations

import sys
from math import gcd, lcm

__all__ = [
    "DimensionError",
    "NotHermitianError",
    "ParseError",
    "SelfCheckError",
    "self_check",
    "Scalar",
    "ExactMatrix",
    "MatrixText",
    "SymmetryClass",
    "symmetry_class",
    "symmetry_decompose",
    "pivoted_elimination",
    "hermitian_signature",
]


class DimensionError(ValueError):
    """Shapes do not line up for the requested operation."""


class NotHermitianError(ValueError):
    """A matrix that must be hermitian is not."""


class ParseError(ValueError):
    """Bad input text, with the number of the line at fault in ``.line``.

    Both input grammars, theories and relation tables, raise it, and so does
    a ``RelationTable`` built in code that breaks a table rule.  The text
    starts with ``line N:``; an error of the whole text rather than of one
    line has ``.line`` None and no prefix.
    """

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line = line_no


def _numbered_lines(text: str):
    """(line number, text) of each line that holds anything once its ``#``
    comment and outer blanks are dropped: the one comment and blank-line
    rule of theories, relation tables and states files."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


class SelfCheckError(Exception):
    """A derived result failed the independent check that guards it.

    Raised instead of ``assert`` so the check also runs under
    ``python -O``.  It means a defect in spinstat, not bad input, so it is
    deliberately not a ValueError.
    """


def self_check(condition: bool, message: str) -> None:
    """Raise SelfCheckError with the message unless the condition holds."""
    if not condition:
        raise SelfCheckError(message)


# Python's default limit on int <-> str conversion: every accepted literal
# can be printed again.
MAX_LITERAL_DIGITS = 4300


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int, a literal, or any rational with
    int ``numerator`` and ``denominator`` (a ``Fraction``), in lowest terms."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, str):
        return _literal_ratio(value)
    n = getattr(value, "numerator", None)
    d = getattr(value, "denominator", None)
    if isinstance(n, int) and isinstance(d, int) and d > 0:
        g = gcd(n, d)
        return n // g, d // g
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _literal_ratio(text: str) -> tuple[int, int]:
    """_read_literal, with a zero denominator as a ValueError."""
    try:
        return _read_literal(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _read_literal(text: str) -> tuple[int, int]:
    """(numerator, denominator) of a real literal in lowest terms, checked
    for size first.  ``[+-]digits(/digits)?`` in ASCII is read by int();
    any other text goes to ``Fraction``, imported only then, so the grammar
    and its errors are Fraction's on every Python version.  A zero
    denominator raises ZeroDivisionError."""
    _check_literal_size(text)
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if (digits.isdigit() and digits.isascii()
            and (not slash or (den.isdigit() and den.isascii()))):
        n = int(num)
        if not slash:
            return n, 1
        d = int(den)
        if not d:
            raise ZeroDivisionError(f"zero denominator in {text!r}")
        g = gcd(n, d)
        return n // g, d // g
    from fractions import Fraction
    x = Fraction(text)
    return x.numerator, x.denominator


def _check_literal_size(text: str) -> None:
    """Reject a literal whose digits plus |exponent| exceed
    MAX_LITERAL_DIGITS, before Fraction builds its integers."""
    mantissa, _, exponent = text.lower().partition("e")
    if not exponent and len(mantissa) <= MAX_LITERAL_DIGITS:
        return  # no more digits than characters
    size = sum(ch.isdigit() for ch in mantissa)
    magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    # a malformed exponent is left for Fraction to reject; nine digits of a
    # longer one are already over the bound, and int() reads no more
    if magnitude.isdecimal():
        size += int(magnitude[:9])
    if size > MAX_LITERAL_DIGITS:
        # Fraction's grammar looks at no digit's value or count, so it reads
        # this text exactly when it reads it with each digit run cut to one
        # 1, which builds no large int: text that is no literal gets its error
        import re
        from fractions import Fraction
        try:
            Fraction(re.sub(r"\d+", "1", text))
        except ValueError:
            raise ValueError(f"Invalid literal for Fraction: {text!r}") from None
        shown = text if len(text) <= 24 else text[:20] + "..."
        raise ValueError(f"literal {shown!r} exceeds {MAX_LITERAL_DIGITS} digits "
                         f"(digits plus exponent)")


class Scalar:
    """A Gaussian rational (a + b*i) / d, held as three ints.

    The form is canonical: d > 0 and gcd(a, b, d) == 1, so equal values
    hold equal ints and ``==`` compares three ints.  Every result is built
    by ``_make``, which does one gcd; no ``Fraction`` enters the
    arithmetic, and ``hash`` follows Python's numeric rule on the ints, so
    ``hash(Scalar(q)) == hash(q)`` for every rational q.  ``re`` and ``im``
    read the parts back as ``Fraction``, imported on first use; nothing in
    the package calls them.

    The text form is ``a/b`` for real values and ``a/b+c/di`` (or ``-``)
    otherwise, e.g. ``-1/2``, ``0+1i``, ``3/4-2i``.  ``str`` emits the
    canonical form: a real value straight from its ints, which are in
    lowest terms, and each part of a complex one after one gcd;
    ``parse`` additionally tolerates spaces around the central sign and a
    bare imaginary part like ``2i`` or ``-i``.  It checks each part against
    ``MAX_LITERAL_DIGITS``, then reads ``[+-]digits(/digits)?`` with
    ``int`` and any other literal with ``Fraction``.  The constructor
    ``Scalar(re, im)`` takes each part as an int, such a literal, or a
    rational like ``Fraction``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        a, d = _ratio(re)
        b, e = _ratio(im)
        # both parts are in lowest terms, so over their lcm gcd(a, b, f) == 1
        f = d if d == e else lcm(d, e)
        _set_a(self, a * (f // d))
        _set_b(self, b * (f // e))
        _set_d(self, f)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def re(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        from fractions import Fraction
        return Fraction(self._b, self._d)

    @staticmethod
    def parse(text: str) -> "Scalar":
        t = text.strip().replace(" ", "")
        if not t:
            raise ValueError("empty scalar literal")
        if not t.endswith("i"):
            a, d = _literal_ratio(t)
            return _make(a, 0, d)
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
        a, d = _literal_ratio(re_part)
        if im_part in ("", "+"):
            b, e = 1, 1
        elif im_part == "-":
            b, e = -1, 1
        else:
            b, e = _literal_ratio(im_part)
        return _make(a * e, b * d, d * e)

    @staticmethod
    def coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, str):
            return Scalar.parse(value)
        try:
            n, d = _ratio(value)
        except TypeError:
            raise TypeError(f"cannot interpret {value!r} as a scalar") from None
        return _make(n, 0, d)

    # -- arithmetic ---------------------------------------------------
    #
    # Each operation takes the exact-type fast path first and coerces
    # other operands (int, Fraction) only when that misses.

    def __add__(self, o):
        if type(o) is not Scalar:
            o = _operand(o)
            if o is None:
                return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _make(self._a + o._a, self._b + o._b, d)
        return _make(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, o):
        if type(o) is not Scalar:
            o = _operand(o)
            if o is None:
                return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _make(self._a - o._a, self._b - o._b, d)
        return _make(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __rsub__(self, o):
        o = _operand(o)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, o):
        if type(o) is not Scalar:
            o = _operand(o)
            if o is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        # real factors are the common case; skip the vanishing cross terms
        if not b:
            return _make(a * c, a * e, self._d * o._d)
        if not e:
            return _make(a * c, b * c, self._d * o._d)
        return _make(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if type(o) is not Scalar:
            o = _operand(o)
            if o is None:
                return NotImplemented
        # (a + b*i)/d divided by (c + e*i)/f is f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        a, b, c, e = self._a, self._b, o._a, o._b
        if not e:
            if not c:
                raise ZeroDivisionError("scalar division by zero")
            if c < 0:
                a, b, c = -a, -b, -c
            return _make(a * o._d, b * o._d, self._d * c)
        f = o._d
        return _make((a * c + b * e) * f, (b * c - a * e) * f,
                     self._d * (c * c + e * e))

    def __rtruediv__(self, o):
        o = _operand(o)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, o):
        if type(o) is not Scalar:
            o = _operand(o)
            if o is None:
                return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # equal values hash alike: Scalar(q) == q, so hash(Scalar(q)) ==
        # hash(q) for an int or a Fraction q, and a complex value hashes as
        # the pair of its parts
        if not self._b:
            return _rational_hash(self._a, self._d)
        return hash((_rational_hash(self._a, self._d),
                     _rational_hash(self._b, self._d)))

    def __bool__(self):
        return bool(self._a or self._b)

    # -- structure ----------------------------------------------------

    def conjugate(self) -> "Scalar":
        return _make(self._a, -self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    @property
    def is_real(self) -> bool:
        return not self._b

    @property
    def is_imaginary(self) -> bool:
        """Purely imaginary (zero real part; zero counts)."""
        return not self._a

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if not b:
            # gcd(a, 0, d) == 1 is gcd(a, d) == 1: a/d is in lowest terms
            return str(a) if d == 1 else f"{a}/{d}"
        sign = "+" if b > 0 else "-"
        return f"{_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}i"

    def __repr__(self):
        return f"Scalar('{self}')"


_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__
_new = object.__new__


def _make(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i) / d for any ints with d > 0, reduced by one gcd.
    Every Scalar result is built here."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


_HASH_MODULUS = sys.hash_info.modulus

# ExactMatrix.modular_rank works in GF(MODULUS): 2**61 - 31, the largest
# prime below 2**61 that is 1 mod 4, so -1 has the square root MODULAR_I
MODULUS = 0x1FFFFFFFFFFFFFE1
MODULAR_I = 583529827753931384


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for d > 0, by Python's rule for numeric hashes:
    |n| times the inverse of d modulo the hash prime, with n's sign, and
    ``sys.hash_info.inf`` when the prime divides the reduced d."""
    if d == 1:
        return hash(n)
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    try:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    except ValueError:
        h = sys.hash_info.inf
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


def _ratio_text(n: int, d: int) -> str:
    """The text of the rational n/d (d > 0) as Fraction writes it, after
    one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _operand(value) -> Scalar | None:
    """The other operand as a Scalar, or None for a str, as Fraction takes
    none: ``==`` with text is then False and arithmetic a TypeError."""
    if isinstance(value, str):
        return None
    try:
        return Scalar.coerce(value)
    except TypeError:
        return None


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)
HALF = _make(1, 0, 2)


class SymmetryClass:
    """The symmetry of a square matrix: one of the four constants ZERO,
    SYMMETRIC, ANTISYMMETRIC and MIXED, compared with ``is``.  ``name`` is
    the constant's name."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"SymmetryClass.{self.name}"


SymmetryClass.ZERO = SymmetryClass("ZERO")
SymmetryClass.SYMMETRIC = SymmetryClass("SYMMETRIC")
SymmetryClass.ANTISYMMETRIC = SymmetryClass("ANTISYMMETRIC")
SymmetryClass.MIXED = SymmetryClass("MIXED")


class MatrixText(list):
    """A matrix's entries as text, one non-empty list of str per row, as
    ``ExactMatrix.to_nested_strings`` writes them.  It is a list like any
    other; its type tells a JSON writer that no entry needs escaping,
    because ``Scalar`` text is digits, ``/``, ``+``, ``-`` and ``i``."""

    __slots__ = ()


# the _blocks of every matrix that _blockdiag did not build; never written
_NO_BLOCKS: dict = {}


class ExactMatrix:
    """Immutable matrix of ``Scalar`` entries, stored by its nonzeros.

    Each row is a mapping from column to entry that holds the nonzero
    entries only, so every kernel costs the number of nonzeros rather than
    rows x cols, and equal matrices store equal mappings, which keeps
    ``==`` and ``hash`` exact.  Indexing, ``row``, iteration and the
    serialized forms still present every entry, zeros included.

    Zeros are dropped only where they can come in: the dense constructor,
    ``loads``, ``diagonal`` and ``scale`` by zero.  Every kernel keeps the
    rule itself (``_add_into`` deletes entries that cancel, and a product
    of nonzero Gaussian rationals is nonzero), so ``_from_rows`` takes
    kernel rows as they are and makes them the matrix's own.

    The matrix is immutable, so a fact derived from it is written once
    into its slot and read from there after: ``_symmetry`` holds
    ``symmetry_class``'s answer, ``_rank`` the ``modular_rank`` (-1 when
    q divides a denominator) and ``_hash`` the hash, each None until
    first asked.  ``_blocks``, written by ``_blockdiag`` and empty
    otherwise, maps the start index of each diagonal block to the block
    itself; the class and the modular rank are then composed from the
    blocks', and ``principal`` of exactly one block's range is that
    block.
    """

    __slots__ = ("rows", "cols", "_rows", "_symmetry", "_rank", "_hash", "_blocks")

    def __init__(self, rows):
        dense = [[Scalar.coerce(x) for x in row] for row in rows]
        if dense and any(len(row) != len(dense[0]) for row in dense):
            raise DimensionError("ragged rows")
        self._set(len(dense[0]) if dense else 0,
                  [{c: x for c, x in enumerate(row) if x} for row in dense])

    def _set(self, cols: int, entries) -> None:
        rows = tuple(entries)
        if not rows or cols < 1:
            raise DimensionError("matrix needs at least one row and column")
        _set_row_count(self, len(rows))
        _set_cols(self, cols)
        _set_rows(self, rows)
        _set_symmetry(self, None)
        _set_rank(self, None)
        _set_hash(self, None)
        _set_blocks(self, _NO_BLOCKS)

    @staticmethod
    def _from_rows(cols: int, entries) -> "ExactMatrix":
        """Build from one {column: entry} mapping per row, holding no zero.
        Each mapping becomes the matrix's own and is never written again."""
        m = object.__new__(ExactMatrix)
        m._set(cols, entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "ExactMatrix":
        cols = rows if cols is None else cols
        return ExactMatrix._from_rows(cols, [{}] * rows)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix._from_rows(n, [{i: ONE} for i in range(n)])

    @staticmethod
    def diagonal(values) -> "ExactMatrix":
        vals = [Scalar.coerce(v) for v in values]
        return ExactMatrix._from_rows(
            len(vals), [{i: v} if v else {} for i, v in enumerate(vals)])

    @staticmethod
    def kron(a: "ExactMatrix", b: "ExactMatrix") -> "ExactMatrix":
        width = b.cols
        return ExactMatrix._from_rows(a.cols * width, [
            {j * width + l: x * y for j, x in ra.items() for l, y in rb.items()}
            for ra in a._rows for rb in b._rows])

    @staticmethod
    def loads(text: str) -> "ExactMatrix":
        """Parse the serialized form: a JSON nested array of scalar strings."""
        return ExactMatrix._from_nesting(_json_nesting(text))

    @staticmethod
    def _from_nesting(nested: list) -> "ExactMatrix":
        """The matrix of a nested array from _json_nesting, its entries
        converted before its shape is checked."""
        parsed: dict[str, Scalar] = {}

        def convert(v):
            # coerced as by the dense constructor, each distinct string
            # literal once
            if not isinstance(v, str):
                return Scalar.coerce(v)
            x = parsed.get(v)
            if x is None:
                x = parsed[v] = Scalar.coerce(v)
            return x

        try:
            # the literal "0", most entries of a sparse K0 file, is a zero
            # without a parse; every other entry is converted and dropped
            # if it is zero ("-0", "0/3")
            entries = [{c: x for c, v in enumerate(row)
                        if v != "0" and (x := convert(v))} for row in nested]
        except TypeError as exc:  # a float, null or nested entry
            raise ValueError(str(exc)) from None
        return ExactMatrix._from_rows(_nesting_shape(nested)[1], entries)

    def dumps(self) -> str:
        import json
        return json.dumps(self.to_nested_strings())

    def to_nested_strings(self) -> MatrixText:
        zero, nested = [str(ZERO)], MatrixText()
        for row in self._rows:
            line = zero * self.cols
            for c, x in row.items():
                line[c] = str(x)
            nested.append(line)
        return nested

    # -- access -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _column_index(self, j: int) -> int:
        if not -self.cols <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return j % self.cols

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._rows[i].get(self._column_index(j), ZERO)

    def row(self, i: int) -> tuple[Scalar, ...]:
        row = self._rows[i]
        return tuple(row.get(c, ZERO) for c in range(self.cols))

    def nonzeros(self):
        """The nonzero entries as (row, column, value), in row-major order."""
        for i, row in enumerate(self._rows):
            for j in sorted(row):
                yield i, j, row[j]

    def submatrix(self, row_idx, col_idx) -> "ExactMatrix":
        col_idx = [self._column_index(j) for j in col_idx]
        targets: dict[int, list[int]] = {}
        for t, j in enumerate(col_idx):
            targets.setdefault(j, []).append(t)
        return ExactMatrix._from_rows(len(col_idx), [
            {t: x for j, x in self._rows[i].items() for t in targets.get(j, ())}
            for i in row_idx])

    def principal(self, idx) -> "ExactMatrix":
        """The block on the rows and columns idx.  The range of one stored
        diagonal block in order is that block, and the whole index range
        in order the matrix itself; both are immutable, so they are
        shared."""
        idx = list(idx)
        block = self._blocks.get(idx[0]) if idx else None
        if block is not None and idx == list(range(idx[0], idx[0] + block.rows)):
            return block
        if self.is_square and idx == list(range(self.rows)):
            return self
        return self.submatrix(idx, idx)

    def __iter__(self):
        return (self.row(i) for i in range(self.rows))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.shape, tuple(frozenset(row.items()) for row in self._rows)))
            _set_hash(self, h)
        return h

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self)
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch {self.shape} vs {other.shape}")

    def _plus(self, other, factor: Scalar | None):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        entries = [dict(row) for row in self._rows]
        for row, source in zip(entries, other._rows):
            _add_into(row, source, factor)
        return ExactMatrix._from_rows(self.cols, entries)

    def __add__(self, other):
        return self._plus(other, None)

    def __sub__(self, other):
        return self._plus(other, -ONE)

    def __neg__(self):
        return ExactMatrix._from_rows(
            self.cols, [{c: -x for c, x in row.items()} for row in self._rows])

    def scale(self, factor) -> "ExactMatrix":
        f = Scalar.coerce(factor)
        if not f:
            return ExactMatrix.zeros(self.rows, self.cols)
        return ExactMatrix._from_rows(
            self.cols, [{c: f * x for c, x in row.items()} for row in self._rows])

    def __mul__(self, factor):
        return self.scale(factor)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        entries = []
        for row in self._rows:
            acc: dict[int, Scalar] = {}
            for k, a in row.items():
                _add_into(acc, other._rows[k], a)
            entries.append(acc)
        return ExactMatrix._from_rows(other.cols, entries)

    def apply(self, vector):
        """Matrix times a vector (any iterable of scalars)."""
        vec = [Scalar.coerce(v) for v in vector]
        if len(vec) != self.cols:
            raise DimensionError("vector length does not match column count")
        return tuple(sum((a * vec[c] for c, a in row.items()), start=ZERO)
                     for row in self._rows)

    def transpose(self) -> "ExactMatrix":
        entries: list[dict[int, Scalar]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                entries[j][i] = x
        return ExactMatrix._from_rows(self.rows, entries)

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix._from_rows(
            self.cols,
            [{c: x.conjugate() for c, x in row.items()} for row in self._rows])

    def dagger(self) -> "ExactMatrix":
        return self.conjugate().transpose()

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_symmetric(self) -> bool:
        return self._mirrors(1, 1)

    def is_antisymmetric(self) -> bool:
        return self._mirrors(-1, -1)

    def is_hermitian(self) -> bool:
        return self._mirrors(1, -1)

    def _mirrors(self, re_sign: int, im_sign: int) -> bool:
        """Whether each stored entry (a + b*i)/d at (i, j) has
        (re_sign*a + im_sign*b*i)/d stored at (j, i): the transpose, its
        negation or the conjugate transpose, by the canonical ints in
        place, with no copy built.  No zero is ever stored, so an entry
        without a stored mirror has a zero mirror and fails."""
        if not self.is_square:
            return False
        rows = self._rows
        for i, row in enumerate(rows):
            for j, x in row.items():
                y = rows[j].get(i)
                if (y is None or y._a != re_sign * x._a
                        or y._b != im_sign * x._b or y._d != x._d):
                    return False
        return True

    def is_real(self) -> bool:
        return all(x.is_real for row in self._rows for x in row.values())

    def is_imaginary(self) -> bool:
        return all(x.is_imaginary for row in self._rows for x in row.values())

    # -- elimination --------------------------------------------------

    def rank(self) -> int:
        """``modular_rank()`` when that is full, else the exact forward
        elimination: each row is reduced against the rows kept so far,
        keyed by their leading column, until it leads in a new column
        (kept) or cancels to zero."""
        full = min(self.rows, self.cols)
        if self.modular_rank() == full:
            return full
        kept: dict[int, dict] = {}
        for source in self._rows:
            row = dict(source)
            while row:
                lead = min(row)
                if lead not in kept:
                    kept[lead] = row
                    break
                _add_into(row, kept[lead], -row[lead] / kept[lead][lead])
        return len(kept)

    def modular_rank(self) -> int | None:
        """The rank of the matrix's image in GF(q) for the prime
        q = MODULUS, with i sent to MODULAR_I, or None when q divides a
        denominator.  It is kept in ``_rank``.  The image of a block
        diagonal matrix is block diagonal, so its rank is the sum of the
        blocks' ranks, and None when one of them is None."""
        rank = self._rank
        if rank is None:
            if self._blocks:
                ranks = [b.modular_rank() for b in self._blocks.values()]
                rank = -1 if None in ranks else sum(ranks)
            else:
                rank = self._modular_elimination()
            _set_rank(self, rank)
        return None if rank < 0 else rank

    def _modular_elimination(self) -> int:
        """``modular_rank`` by elimination, with -1 for None.

        The map (a + b*i)/d -> (a + b*MODULAR_I) * d^-1 mod q is a ring
        homomorphism from the Gaussian rationals whose denominators q does
        not divide, so a minor that is nonzero mod q is nonzero exactly:
        the result never exceeds ``rank()``, and a square matrix whose
        modular rank is its size is invertible.  It comes out too low only
        when every nonzero minor of the top size maps to zero.  The
        elimination follows ``rank``'s, on plain ints with no gcd: each
        row is reduced against the rows kept so far, keyed by their
        leading column, and a kept row's lead is inverted the first time
        a later row needs it."""
        q = MODULUS
        kept: dict[int, dict[int, int]] = {}
        lead_inverses: dict[int, int] = {}
        for source in self._rows:
            row = {}
            for c, x in source.items():
                v = x._a + x._b * MODULAR_I
                if x._d != 1:
                    if not x._d % q:
                        return -1
                    v *= pow(x._d, -1, q)
                v %= q
                if v:
                    row[c] = v
            while row:
                lead = min(row)
                pivot = kept.get(lead)
                if pivot is None:
                    kept[lead] = row
                    break
                inverse = lead_inverses.get(lead)
                if inverse is None:
                    inverse = lead_inverses[lead] = pow(pivot[lead], -1, q)
                # factor * y is nonzero mod q, so only a stored entry cancels
                factor = q - row[lead] * inverse % q
                for c, y in pivot.items():
                    v = (row.get(c, 0) + factor * y) % q
                    if v:
                        row[c] = v
                    else:
                        del row[c]
        return len(kept)


# the slots' own setters, which ExactMatrix.__setattr__ refuses to callers
_set_row_count = ExactMatrix.rows.__set__
_set_cols = ExactMatrix.cols.__set__
_set_rows = ExactMatrix._rows.__set__
_set_symmetry = ExactMatrix._symmetry.__set__
_set_rank = ExactMatrix._rank.__set__
_set_hash = ExactMatrix._hash.__set__
_set_blocks = ExactMatrix._blocks.__set__


def _json_nesting(text: str) -> list:
    """The nested array of a serialized matrix, its entries unconverted."""
    import json
    try:
        nested = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"matrix text is not valid JSON: {exc}") from exc
    if not isinstance(nested, list) or not all(isinstance(r, list) for r in nested):
        raise ValueError("matrix JSON must be a nested array")
    return nested


def _nesting_shape(nested: list) -> tuple[int, int]:
    """(rows, columns) of a nested array from _json_nesting; rows of
    unequal length raise DimensionError."""
    cols = len(nested[0]) if nested else 0
    if any(len(row) != cols for row in nested):
        raise DimensionError("ragged rows")
    return len(nested), cols


def _add_into(target: dict, source: dict, factor: Scalar | None = None) -> None:
    """target += factor * source (factor 1 when None), row mappings in
    place; entries that cancel are deleted, so no zero is ever stored."""
    for c, x in source.items():
        if factor is not None:
            x = factor * x
        if c in target:
            x = target[c] + x
            if x:
                target[c] = x
            else:
                del target[c]
        else:
            target[c] = x


def _blockdiag(mats: list[ExactMatrix]) -> ExactMatrix:
    """The square blocks on the diagonal, each stored row shifted by the
    block's offset; no zero block is built.  The result keeps its blocks
    by their offsets in ``_blocks``."""
    entries, blocks, offset = [], {}, 0
    for m in mats:
        entries.extend({offset + c: x for c, x in row.items()} for row in m._rows)
        blocks[offset] = m
        offset += m.cols
    matrix = ExactMatrix._from_rows(offset, entries)
    _set_blocks(matrix, blocks)
    return matrix


# ---------------------------------------------------------------------------
# module-level operations


def symmetry_class(m: ExactMatrix) -> SymmetryClass:
    """Zero, Symmetric, Antisymmetric or Mixed, tested in that order (the
    zero matrix is both symmetric and antisymmetric); each test compares
    mirrored entries in place, so neither half nor a transpose is built.
    The matrix is immutable, so it is classified once and keeps the class.
    A block diagonal matrix takes the one class of its nonzero blocks: zero
    when it has none, mixed when they differ or one is mixed."""
    cls = m._symmetry
    if cls is None:
        if not m.is_square:
            raise DimensionError("symmetry classification needs a square matrix")
        if m._blocks:
            found = {symmetry_class(b) for b in m._blocks.values()}
            found.discard(SymmetryClass.ZERO)
            cls = (found.pop() if len(found) == 1 else
                   SymmetryClass.MIXED if found else SymmetryClass.ZERO)
        elif m.is_zero():
            cls = SymmetryClass.ZERO
        elif m.is_symmetric():
            cls = SymmetryClass.SYMMETRIC
        elif m.is_antisymmetric():
            cls = SymmetryClass.ANTISYMMETRIC
        else:
            cls = SymmetryClass.MIXED
        _set_symmetry(m, cls)
    return cls


def symmetry_decompose(m: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix, SymmetryClass]:
    """(sym, antisym, symmetry_class(m)): the two halves of a square matrix."""
    cls = symmetry_class(m)
    mt = m.transpose()
    return (m + mt).scale(HALF), (m - mt).scale(HALF), cls


def pivoted_elimination(m: ExactMatrix) -> tuple[tuple[int, ...], tuple[ExactMatrix, ...]]:
    """Exact symmetric elimination with 1x1 and 2x2 pivots (Bunch-Kaufman).

    For a symmetric, antisymmetric or hermitian matrix, returns the
    pivot index set S, ascending, with M[S,S] invertible and
    |S| = rank(M), and the pivot blocks in elimination order.  The pivot
    is the first active index whose diagonal entry in the current Schur
    complement is nonzero; when every active diagonal entry is zero, the
    first nonzero off-diagonal entry in row order gives a 2x2 block with
    zero diagonal, invertible because its determinant is -b^2, +b^2 or
    -|b|^2 for the entry b.  S need not be the leftmost such set: for
    [[0,1,1],[1,0,1],[1,1,2]] the first pivot is index 2, so S = {0, 2},
    although {0, 1} is invertible too.  Each block is inverted in closed
    form (see _schur_update).  Schur complements keep the transpose
    symmetry, so the loop stops only when the remaining block is zero.
    Each step is a congruence, so for a hermitian matrix the blocks carry
    its inertia (Sylvester's law).
    """
    if not m.is_square:
        raise DimensionError("elimination needs a square matrix")
    work = [dict(row) for row in m._rows]
    active = list(range(m.rows))
    done: set[int] = set()
    blocks: list[ExactMatrix] = []
    while active:
        pivot = next(((i,) for i in active if i in work[i]), None)
        if pivot is None:
            pivot = next(((i, j) for i in active for j in sorted(work[i])
                          if j > i and j not in done), None)
        if pivot is None:
            break
        blocks.append(ExactMatrix._from_rows(len(pivot), [
            {k: work[r][c] for k, c in enumerate(pivot) if c in work[r]}
            for r in pivot]))
        done.update(pivot)
        for r in pivot:
            active.remove(r)
        _schur_update(work, pivot, done)
    return tuple(sorted(done)), tuple(blocks)


def _schur_update(work, pivot, done) -> None:
    """Replace the rows and columns not yet done by their Schur complement
    over the pivot.

    The block [[a]] has inverse [[1/a]], and the zero-diagonal block
    [[0, b], [c, 0]] has inverse [[0, 1/c], [1/b, 0]], so each pivot row p
    pairs with one pivot column q (q = p, or the other index of the pair):
    row r loses (work[r][q] / work[p][q]) times row p.  Only the rows that
    hold an entry in a pivot column change, and only in the columns the
    pivot rows reach.  The input is symmetric, antisymmetric or hermitian,
    and so is every Schur complement, so its pattern is symmetric: the rows
    with an entry in column q are the columns row q reaches."""
    for p, q in zip(pivot, pivot[::-1]):
        inv = ONE / work[p][q]
        pivot_row = {c: x for c, x in work[p].items() if c not in done}
        for r in work[q]:
            row = work[r]
            if r not in done and q in row:
                _add_into(row, pivot_row, -row[q] * inv)


def hermitian_signature(m: ExactMatrix) -> tuple[int, int, int]:
    """Signature (positives, negatives, zeros) of a hermitian matrix.

    The signature survives the congruences of pivoted_elimination
    (Sylvester's law of inertia), so it is read off the pivot blocks: a
    1x1 block counts by the sign of its real entry, a 2x2 block has zero
    diagonal and determinant -|b|^2 < 0, hence one eigenvalue of each
    sign, and the rank deficit counts the zeros.  A matrix that is not
    hermitian raises ``NotHermitianError``.
    """
    if not m.is_hermitian():
        raise NotHermitianError("signature is defined for hermitian matrices only")
    indices, blocks = pivoted_elimination(m)
    positives = sum(1 if b.rows == 2 else int(b[0, 0]._a > 0) for b in blocks)
    return positives, len(indices) - positives, m.rows - len(indices)
