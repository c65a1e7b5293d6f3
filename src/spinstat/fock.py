"""Symbolic second quantization on operator words.

A relation table declares annihilator/creator pairs and the value of their
elementary bracket; every other bracket is zero.  Vacuum expectation values
of words follow by Wick contraction, which is enough machinery for Gram
matrices of multi-quantum states, and in particular to exhibit a
negative-norm state when a pairing carries the wrong sign.

One memoized recursion does every contraction, in exact integer
arithmetic: a table holds each pair value as a Gaussian-integer numerator
over one denominator D, the lcm of its value denominators, so a subword
with p pairs is a numerator pair (re, im) over D**p, and one ``Scalar`` is
built per word.  Under anticommutators the recursion signs each term by
the parity of its position instead of multiplying a running sign.  A word
whose creators are not half of it is 0 without any contraction, and so is
a Gram entry between states of different quanta counts.  States that
permute one multiset of creators are one Fock vector times an exchange
sign, so a Gram matrix is contracted and its signature eliminated only
between one representative state per multiset, sharing one memo, and the
other entries are signed copies.  Word length (``MAX_WORD_SYMBOLS``) and
the number of Gram states (``MAX_GRAM_STATES``) are bounded before any
contraction, and the memo (``MAX_CONTRACTION_STATES``) as it grows.
"""

from __future__ import annotations

from collections import namedtuple
from math import lcm

from .algebra import (
    ZERO,
    ExactMatrix,
    NotHermitianError,
    ParseError,
    Scalar,
    _make,
    _numbered_lines,
    hermitian_signature,
)

__all__ = [
    "UnknownSymbolError",
    "ContractionLimitError",
    "RelationTable",
    "parse_relation_table",
    "vacuum_expectation",
    "adjoint_word",
    "GramResult",
    "gram_matrix",
    "MAX_WORD_SYMBOLS",
    "MAX_GRAM_STATES",
    "MAX_TABLE_BYTES",
    "MAX_STATES_BYTES",
    "MAX_CONTRACTION_STATES",
]

# longest word whose vacuum expectation is taken; the contraction recurses
# once per annihilator-creator pair, so this keeps it far inside Python's
# default recursion limit of 1000
MAX_WORD_SYMBOLS = 256

# most states in one Gram matrix, checked before any contraction.  The
# exact signature is cubic in the number of exchange classes, at most the
# state count: 128 random dense 3-quantum states over 12 modes (108
# classes), pair values in -3..3, take about 3.7-4.5 s (Python 3.11,
# 2 cores), nearly all of it the signature, and each doubling costs about
# 8x more.  That is 8x the 16 states of the largest perfbench
# Gram matrix and leaves room for a 64-state bound workload.
MAX_GRAM_STATES = 128

# largest relation table and states file, in bytes, each read as one more
# byte at most.  A table at its bound holds about 41 000 one-digit pairs
# and takes about 0.2 s to read and parse; the perfbench tables are under
# 1 KiB.  The states bound is room for MAX_GRAM_STATES states of
# MAX_WORD_SYMBOLS / 2 symbols, each of up to 15 characters and a
# separator; a file at it of one-symbol lines takes about 0.04 s to read
# and split before MAX_GRAM_STATES refuses it (Python 3.11, 2 cores)
MAX_TABLE_BYTES = 1 << 20
MAX_STATES_BYTES = 1 << 18

# most memoized subwords in one vacuum expectation or one Gram matrix,
# whose entries share one memo, checked as the memo grows.  Each entry is
# one step of the recursion, so this bounds both time and memory: Bose
# values on dense tables are permanents, and the word a1..ak a1dag..akdag
# on a dense table needs 2**k - 1 entries.  k = 16 takes about 1.1 s and
# 25 MB (Python 3.11, 2 cores).  On perfbench gram-signature a long word
# needs 12 entries and a 16-state Gram matrix at most 93 (seeds 11-20).
MAX_CONTRACTION_STATES = 2 ** 16

_BRACKETS = frozenset(("commutator", "anticommutator"))
# numerator pairs of the empty word and of a word with no contraction
_UNIT = (1, 0)
_NULL = (0, 0)


class UnknownSymbolError(ValueError):
    """A word used a symbol the relation table does not declare."""


class ContractionLimitError(ValueError):
    """A contraction needed more memoized subwords than
    ``MAX_CONTRACTION_STATES``."""


class RelationTable:
    """Elementary brackets between annihilators and creators.

    Same-kind brackets are identically zero, so a vacuum expectation is a
    sum over annihilator-creator contractions only.  Adjoints are resolved
    by name (``x`` versus ``xdag``) when both symbols are declared, falling
    back to the pair partner: a table that declares only ``pair c ddag`` is
    the hermitian-identified presentation where d = c.  ``denominator`` is
    the lcm of the pair-value denominators, over which the contraction
    holds every value as a Gaussian-integer numerator.  A table that breaks
    a rule of ``_check_table`` raises its ``ParseError`` at line None.
    """

    def __init__(self, bracket: str, pairs) -> None:
        pairs = tuple(pairs)
        _check_table(bracket, pairs)
        self._fill(bracket, tuple((a, c, Scalar.coerce(v)) for a, c, v in pairs))

    @classmethod
    def _checked(cls, bracket: str, pairs: tuple[tuple[str, str, Scalar], ...]):
        """The table of pairs that ``_check_table`` has passed, each value
        a Scalar already, neither checked nor coerced again."""
        table = cls.__new__(cls)
        table._fill(bracket, pairs)
        return table

    def _fill(self, bracket: str, pairs: tuple[tuple[str, str, Scalar], ...]) -> None:
        self.bracket = bracket
        self.pairs = pairs
        self.annihilators: frozenset[str] = frozenset(a for a, _, _ in self.pairs)
        self.creators: frozenset[str] = frozenset(c for _, c, _ in self.pairs)

        # each symbol's pair partners, and each nonzero pair value
        # (A + B*i) / denominator as (A, B), keyed by annihilator, then creator
        self.denominator: int = lcm(*(v._d for _, _, v in self.pairs))
        self._partners: dict[str, list[str]] = {}
        self._numerators: dict[str, dict[str, tuple[int, int]]] = {}
        for a, c, v in self.pairs:
            self._partners.setdefault(a, []).append(c)
            self._partners.setdefault(c, []).append(a)
            if v:
                scale = self.denominator // v._d
                self._numerators.setdefault(a, {})[c] = (v._a * scale, v._b * scale)

    @property
    def symbols(self) -> frozenset[str]:
        return self.annihilators | self.creators

    def kind(self, symbol: str) -> str:
        if symbol in self.annihilators:
            return "annihilator"
        if symbol in self.creators:
            return "creator"
        raise UnknownSymbolError(f"unknown operator symbol {symbol!r}")

    def adjoint_of(self, symbol: str) -> str:
        self.kind(symbol)
        if symbol in self.creators and symbol.endswith("dag"):
            stripped = symbol[:-3]
            if stripped in self.annihilators:
                return stripped
        if symbol in self.annihilators and symbol + "dag" in self.creators:
            return symbol + "dag"
        partners = self._partners.get(symbol, [])
        if len(set(partners)) == 1:
            return partners[0]
        raise ValueError(
            f"adjoint of {symbol!r} is ambiguous: no name match and "
            f"{len(set(partners))} distinct pair partners")


def _check_table(bracket: str, pairs, lines=None) -> None:
    """The rules of a relation table, for RelationTable and
    parse_relation_table alike.  ``lines`` holds the line of the bracket
    (key 0) and of each pair (by its number from 1); each failure is a
    ParseError at the line it gives there, else at line None.  The
    parser's naming rule keeps the two sides apart, so only a table built
    in code can declare a symbol on both."""
    line = (lines or {}).get
    if bracket not in _BRACKETS:
        raise ParseError(
            line(0), f"bracket must be commutator or anticommutator, got {bracket!r}")
    overlap = {a for a, _, _ in pairs} & {c for _, c, _ in pairs}
    if overlap:
        raise ParseError(
            None, f"symbol declared as both annihilator and creator: {sorted(overlap)[0]}")
    declared: set[tuple[str, str]] = set()
    for k, (a, c, _) in enumerate(pairs, start=1):
        if (a, c) in declared:
            raise ParseError(line(k), f"duplicate pair declaration {a} {c}")
        declared.add((a, c))


def parse_relation_table(text: str) -> RelationTable:
    """Parse the line format: ``bracket = <kind>`` and ``pair <a> <cdag> = <value>``.

    A malformed line raises ``ParseError`` with its line number, and so,
    once every line is read, does an unknown bracket kind or a repeated
    pair; a table without a bracket line or without pairs raises it with
    line None.
    """
    bracket = None
    pairs = []
    lines = {}  # of the bracket (key 0) and of each pair by its number
    values: dict[str, Scalar] = {}  # each distinct literal is parsed once
    for line_no, line in _numbered_lines(text):
        tokens = line.split()
        if tokens[0] == "bracket":
            if len(tokens) != 3 or tokens[1] != "=":
                raise ParseError(line_no, "expected 'bracket = <kind>'")
            if bracket is not None:
                raise ParseError(line_no, "duplicate bracket line")
            bracket = tokens[2]
            lines[0] = line_no
        elif tokens[0] == "pair":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ParseError(line_no, "expected 'pair <a> <cdag> = <value>'")
            a, c = tokens[1], tokens[2]
            if a.endswith("dag"):
                raise ParseError(
                    line_no,
                    "first pair symbol is the annihilator and must not end in 'dag'")
            if not c.endswith("dag"):
                raise ParseError(
                    line_no,
                    "second pair symbol is the creator and must end in 'dag'")
            literal = "".join(tokens[4:])
            value = values.get(literal)
            if value is None:
                try:
                    value = values[literal] = Scalar.parse(literal)
                except ValueError as exc:
                    raise ParseError(line_no, f"bad pair value: {exc}") from None
            pairs.append((a, c, value))
            lines[len(pairs)] = line_no
        else:
            raise ParseError(line_no, f"unknown directive {tokens[0]!r}")
    if bracket is None:
        raise ParseError(None, "relation table needs a 'bracket = ...' line")
    if not pairs:
        raise ParseError(None, "relation table declares no pairs")
    _check_table(bracket, pairs, lines)
    return RelationTable._checked(bracket, tuple(pairs))


def _check_word(word, table: RelationTable) -> tuple[str, ...]:
    symbols = tuple(word)
    if len(symbols) > MAX_WORD_SYMBOLS:
        raise ValueError(
            f"word has {len(symbols)} symbols, over the supported maximum "
            f"{MAX_WORD_SYMBOLS}")
    for s in symbols:
        table.kind(s)
    return symbols


def _contract(table: RelationTable, memo: dict[tuple[str, ...], tuple[int, int]]):
    """The Wick recursion of `table` over `memo`, on integer numerators.

    It maps a checked word whose creators are half of it, with p
    annihilator-creator pairs, to (re, im), the word's value being
    (re + im*i) / D**p for the table denominator D.  That depends on
    nothing but the word and the table, so words may share `memo`, which
    caches the value of each subword met.  More than
    ``MAX_CONTRACTION_STATES`` entries in it raise
    ``ContractionLimitError``.
    """
    creators = table.creators
    fermi = table.bracket == "anticommutator"
    numerators = table._numerators
    limit = MAX_CONTRACTION_STATES

    def go(w: tuple[str, ...]) -> tuple[int, int]:
        if not w:
            return _UNIT
        if w[0] in creators or w[-1] not in creators:
            return _NULL
        cached = memo.get(w)
        if cached is not None:
            return cached
        re = im = 0
        # annihilators are never keys of a numerator row, so only the
        # creators that pair with w[0] are visited
        row = numerators.get(w[0], {})
        for k in range(1, len(w)):
            pair = row.get(w[k])
            if pair is None:
                continue
            r, s = go(w[1:k] + w[k + 1:])
            if not (r or s):
                continue
            a, b = pair
            x, y = (a * r - b * s, a * s + b * r) if b else (a * r, a * s)
            # moving w[0] past the k - 1 symbols before w[k] costs
            # (-1)^(k-1) under anticommutators
            if fermi and k % 2 == 0:
                re -= x
                im -= y
            else:
                re += x
                im += y
        if len(memo) >= limit:
            raise ContractionLimitError(
                f"contraction needs more than {limit} subword values, "
                f"over the supported maximum")
        memo[w] = value = (re, im)
        return value

    return go


def vacuum_expectation(word, table: RelationTable) -> Scalar:
    """<0|word|0> by Wick contraction.

    <0| kills a leading creator and |0> a trailing annihilator.  Otherwise
    the leading annihilator a is moved right: passing the creator x_k at
    position k leaves value(a, x_k) times the expectation of the word
    without a and x_k.  Same-kind brackets vanish, so no other terms
    appear.  Under anticommutators the term is signed by the parity of the
    k - 1 symbols passed: it is subtracted when k is even.  A word whose
    creators are not half of its symbols is 0 without any contraction, and
    a word that needs more than ``MAX_CONTRACTION_STATES`` memoized
    subwords raises ``ContractionLimitError``.
    """
    symbols = _check_word(word, table)
    # each contraction removes one annihilator and one creator, so a word
    # whose creators are not half of it has no complete contraction
    pairs, odd = divmod(len(symbols), 2)
    if odd or sum(s in table.creators for s in symbols) != pairs:
        return ZERO
    re, im = _contract(table, {})(symbols)
    return _make(re, im, table.denominator ** pairs)


def adjoint_word(word, table: RelationTable) -> tuple[str, ...]:
    """Adjoint of a product: reverse the order, conjugate each symbol."""
    symbols = _check_word(word, table)
    return tuple(table.adjoint_of(s) for s in reversed(symbols))


class GramResult(namedtuple("GramResult", "matrix signature")):
    """A Gram ExactMatrix and its signature, the (positive, negative,
    zero) eigenvalue counts."""

    __slots__ = ()


def gram_matrix(states, table: RelationTable) -> GramResult:
    """Gram matrix G_mn = <0| adjoint(word_m) word_n |0> of creator words.

    The state count is bounded by ``MAX_GRAM_STATES``, and each bra+ket
    word, twice its state, by ``MAX_WORD_SYMBOLS``, before any
    contraction.  The first state, in input order, that is too long or
    holds a symbol other than a declared creator raises the ValueError of
    its first broken rule, with the state's index in ``.state``.  A bra
    is all annihilators and a ket all creators, so states with different
    quanta counts have entry 0 and are not contracted.

    States are grouped by their sorted creators; the first state of each
    class in input order represents it.  A Wick value is a permanent
    (commutators) or a determinant (anticommutators) in the bra's
    annihilators and the ket's creators, so G_mn = s_m s_n H_(rep m)(rep n)
    for the matrix H between representatives, where s is 1 under
    commutators and the parity of the state's permutation of its
    representative under anticommutators (a state with a repeated creator
    is then the zero vector, whose sign is never seen).  Only H is
    contracted: each bra is built once per representative, and all its
    entries share one memo, since a memo key is a whole subword;
    ``MAX_CONTRACTION_STATES`` bounds it over the whole matrix.  G is
    C^T H C for a C of full row rank, so by Sylvester's law of inertia its
    signature is that of H plus one zero per state beyond its class's
    first, and only H is eliminated.  Every entry of H within a sector is
    computed, not half of it plus conjugates, and H is hermitian exactly
    when G is, so a table that contradicts its own adjoint structure shows
    up as a non-hermitian matrix, which the signature rejects once.  The
    signature is exact; a negative entry in it is the negative-norm
    witness.
    """
    words = list(states)
    if not words:
        raise ValueError("gram_matrix needs at least one state")
    if len(words) > MAX_GRAM_STATES:
        raise ValueError(
            f"{len(words)} gram states, over the supported maximum "
            f"{MAX_GRAM_STATES}")
    for n, w in enumerate(words):
        try:
            words[n] = w = _check_word(w, table)
            for s in w:
                if s not in table.creators:
                    raise ValueError(
                        f"gram states must be creator words; {s!r} is not a creator")
            if 2 * len(w) > MAX_WORD_SYMBOLS:
                raise ValueError(
                    f"bra and ket of a {len(w)}-quantum state have {2 * len(w)} "
                    f"symbols, over the supported maximum {MAX_WORD_SYMBOLS}")
        except ValueError as exc:
            exc.state = n
            raise
    # each state's exchange class, keyed by its sorted creators, and its
    # sign relative to the class representative, the first such state
    fermi = table.bracket == "anticommutator"
    classes: dict[tuple[str, ...], int] = {}
    reps = []
    members = []
    for w in words:
        key = tuple(sorted(w))
        k = classes.setdefault(key, len(reps))
        if k == len(reps):
            reps.append(w)
        # a Fermi state with a repeated creator is the zero vector, so
        # its sign is never seen
        odd = fermi and len(set(w)) == len(w) and (
            _inversions(w) + _inversions(reps[k])) % 2
        members.append((k, -1 if odd else 1))
    contract = _contract(table, {})
    rows = []
    for m in reps:
        bra = tuple(table.adjoint_of(s) for s in reversed(m))
        quanta = len(m)
        denominator = table.denominator ** quanta
        row = {}
        for j, n in enumerate(reps):
            if len(n) == quanta:
                re, im = contract(bra + n)
                if re or im:
                    row[j] = _make(re, im, denominator)
        rows.append(row)
    reduced = ExactMatrix._from_rows(len(reps), rows)
    matrix = reduced if len(reps) == len(words) else ExactMatrix._from_rows(
        len(words), [_signed_row(rows[k], s, members) for k, s in members])
    try:
        positives, negatives, zeros = hermitian_signature(reduced)
    except NotHermitianError:
        raise ValueError(
            "gram matrix came out non-hermitian; the relation table is not "
            "consistent with its own adjoint structure") from None
    return GramResult(matrix, (positives, negatives, zeros + len(words) - len(reps)))


def _inversions(word: tuple[str, ...]) -> int:
    """Pairs of positions of `word` whose symbols are out of sorted order."""
    return sum(x > y for i, x in enumerate(word) for y in word[i + 1:])


def _signed_row(row: dict, sign: int, members) -> dict:
    """The Gram row of a state with this sign, from its representative's
    row over the classes: entry n is sign * s_n * row[class of n]."""
    signed = {}
    for n, (k, s) in enumerate(members):
        x = row.get(k)
        if x is not None:
            signed[n] = x if s == sign else -x
    return signed
