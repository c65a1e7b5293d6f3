"""Symbolic second quantization on operator words.

A relation table declares annihilator/creator pairs and the value of their
elementary bracket; every other bracket is zero.  Vacuum expectation values
of words follow by Wick contraction, which is enough machinery for Gram
matrices of multi-quantum states, and in particular to exhibit a
negative-norm state when a pairing carries the wrong sign.

One memoized recursion does every contraction.  Under anticommutators it
signs each term by the parity of its position instead of multiplying a
running sign, it returns 0 at once for a word whose creators are not half
of it, and a Gram matrix shares one memo per bra.  Word length
(``MAX_WORD_SYMBOLS``) and the number of Gram states (``MAX_GRAM_STATES``)
are bounded before any contraction.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import ExactMatrix, Scalar, hermitian_signature

__all__ = [
    "UnknownSymbolError",
    "RelationTable",
    "parse_relation_table",
    "vacuum_expectation",
    "adjoint_word",
    "GramResult",
    "gram_matrix",
    "MAX_WORD_SYMBOLS",
    "MAX_GRAM_STATES",
]

# longest word whose vacuum expectation is taken; the contraction recurses
# once per annihilator-creator pair, so this keeps it far inside Python's
# default recursion limit of 1000
MAX_WORD_SYMBOLS = 256

# most states in one Gram matrix, checked before any contraction.  The
# exact signature is cubic in the state count: 128 dense 3-quantum states
# over 12 modes take about 11 s (Python 3.11, 2 cores), and each doubling
# costs about 8x more.  That is 8x the 16 states of the largest perfbench
# Gram matrix and leaves room for a 64-state bound workload.
MAX_GRAM_STATES = 128

_ZERO = Scalar(0)
_ONE = Scalar(1)


class UnknownSymbolError(ValueError):
    """A word used a symbol the relation table does not declare."""


class RelationTable:
    """Elementary brackets between annihilators and creators.

    Same-kind brackets are identically zero, so a vacuum expectation is a
    sum over annihilator-creator contractions only.  Adjoints are resolved
    by name (``x`` versus ``xdag``) when both symbols are declared, falling
    back to the pair partner: a table that declares only ``pair c ddag`` is
    the hermitian-identified presentation where d = c.
    """

    def __init__(self, bracket: str, pairs) -> None:
        if bracket not in ("commutator", "anticommutator"):
            raise ValueError(
                f"bracket must be commutator or anticommutator, got {bracket!r}")
        self.bracket = bracket
        self.pairs: tuple[tuple[str, str, Scalar], ...] = tuple(
            (a, c, Scalar.coerce(v)) for a, c, v in pairs)

        self.annihilators: frozenset[str] = frozenset(a for a, _, _ in self.pairs)
        self.creators: frozenset[str] = frozenset(c for _, c, _ in self.pairs)
        overlap = self.annihilators & self.creators
        if overlap:
            raise ValueError(
                f"symbol declared as both annihilator and creator: {sorted(overlap)[0]}")

        self._values: dict[tuple[str, str], Scalar] = {}
        for a, c, v in self.pairs:
            if (a, c) in self._values:
                raise ValueError(f"duplicate pair declaration {a} {c}")
            self._values[a, c] = v

        self._partners: dict[str, list[str]] = {}
        for a, c, _ in self.pairs:
            self._partners.setdefault(a, []).append(c)
            self._partners.setdefault(c, []).append(a)

    @property
    def symbols(self) -> frozenset[str]:
        return self.annihilators | self.creators

    def kind(self, symbol: str) -> str:
        if symbol in self.annihilators:
            return "annihilator"
        if symbol in self.creators:
            return "creator"
        raise UnknownSymbolError(f"unknown operator symbol {symbol!r}")

    def value(self, annihilator: str, creator: str) -> Scalar:
        return self._values.get((annihilator, creator), _ZERO)

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


def parse_relation_table(text: str) -> RelationTable:
    """Parse the line format: ``bracket = <kind>`` and ``pair <a> <cdag> = <value>``."""
    bracket = None
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "bracket":
            if len(tokens) != 3 or tokens[1] != "=":
                raise ValueError(f"line {line_no}: expected 'bracket = <kind>'")
            if bracket is not None:
                raise ValueError(f"line {line_no}: duplicate bracket line")
            bracket = tokens[2]
        elif tokens[0] == "pair":
            if len(tokens) < 5 or tokens[3] != "=":
                raise ValueError(
                    f"line {line_no}: expected 'pair <a> <cdag> = <value>'")
            a, c = tokens[1], tokens[2]
            if a.endswith("dag"):
                raise ValueError(
                    f"line {line_no}: first pair symbol is the annihilator "
                    f"and must not end in 'dag'")
            if not c.endswith("dag"):
                raise ValueError(
                    f"line {line_no}: second pair symbol is the creator "
                    f"and must end in 'dag'")
            try:
                value = Scalar.parse("".join(tokens[4:]))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: bad pair value: {exc}") from None
            pairs.append((a, c, value))
        else:
            raise ValueError(f"line {line_no}: unknown directive {tokens[0]!r}")
    if bracket is None:
        raise ValueError("relation table needs a 'bracket = ...' line")
    if not pairs:
        raise ValueError("relation table declares no pairs")
    return RelationTable(bracket, pairs)


def _check_word(word, table: RelationTable) -> tuple[str, ...]:
    symbols = tuple(word)
    if len(symbols) > MAX_WORD_SYMBOLS:
        raise ValueError(
            f"word has {len(symbols)} symbols, over the supported maximum "
            f"{MAX_WORD_SYMBOLS}")
    for s in symbols:
        table.kind(s)
    return symbols


def _contract(symbols: tuple[str, ...], table: RelationTable,
              memo: dict[tuple[str, ...], Scalar]) -> Scalar:
    """<0|symbols|0> of a checked word; `memo` caches subword values.

    Any word may share `memo` with this one, since a key is a whole subword
    and its value depends on nothing but the subword and the table.
    """
    creators = table.creators
    # each contraction removes one annihilator and one creator, so a word
    # whose creators are not half of it has no complete contraction
    if 2 * sum(s in creators for s in symbols) != len(symbols):
        return _ZERO
    fermi = table.bracket == "anticommutator"
    value = table.value

    def go(w: tuple[str, ...]) -> Scalar:
        if not w:
            return _ONE
        if w[0] in creators or w[-1] not in creators:
            return _ZERO
        cached = memo.get(w)
        if cached is not None:
            return cached
        total = _ZERO
        for k in range(1, len(w)):
            if w[k] not in creators:
                continue
            pair = value(w[0], w[k])
            if pair.is_zero:
                continue
            rest = go(w[1:k] + w[k + 1:])
            if rest.is_zero:
                continue
            # moving w[0] past the k - 1 symbols before w[k] costs
            # (-1)^(k-1) under anticommutators
            if fermi and k % 2 == 0:
                total = total - pair * rest
            else:
                total = total + pair * rest
        memo[w] = total
        return total

    return go(symbols)


def vacuum_expectation(word, table: RelationTable) -> Scalar:
    """<0|word|0> by Wick contraction.

    <0| kills a leading creator and |0> a trailing annihilator.  Otherwise
    the leading annihilator a is moved right: passing the creator x_k at
    position k leaves value(a, x_k) times the expectation of the word
    without a and x_k.  Same-kind brackets vanish, so no other terms
    appear.  Under anticommutators the term is signed by the parity of the
    k - 1 symbols passed: it is subtracted when k is even.  A word whose
    creators are not half of its symbols is 0 without any contraction.
    """
    return _contract(_check_word(word, table), table, {})


def adjoint_word(word, table: RelationTable) -> tuple[str, ...]:
    """Adjoint of a product: reverse the order, conjugate each symbol."""
    symbols = _check_word(word, table)
    return tuple(table.adjoint_of(s) for s in reversed(symbols))


class GramResult(NamedTuple):
    matrix: ExactMatrix
    signature: tuple[int, int, int]


def gram_matrix(states, table: RelationTable) -> GramResult:
    """Gram matrix G_mn = <0| adjoint(word_m) word_n |0> of creator words.

    The state count is bounded by ``MAX_GRAM_STATES`` before any adjoint
    or contraction.  Each bra adjoint(word_m) is built once per row, and
    the entries of a row share one contraction memo, since every subword
    met there starts with a suffix of that bra.  Every entry is computed,
    not half the matrix plus conjugates, so a table that contradicts its
    own adjoint structure shows up as a non-hermitian matrix and is
    rejected.  The signature is computed exactly; a negative entry in it
    is the negative-norm witness.
    """
    words = list(states)
    if not words:
        raise ValueError("gram_matrix needs at least one state")
    if len(words) > MAX_GRAM_STATES:
        raise ValueError(
            f"{len(words)} gram states, over the supported maximum "
            f"{MAX_GRAM_STATES}")
    words = [_check_word(w, table) for w in words]
    for w in words:
        for s in w:
            if s not in table.creators:
                raise ValueError(
                    f"gram states must be creator words; {s!r} is not a creator")
    entries = []
    for m in words:
        bra = adjoint_word(m, table)
        memo: dict[tuple[str, ...], Scalar] = {}
        entries.append(
            [_contract(_check_word(bra + n, table), table, memo) for n in words])
    matrix = ExactMatrix(entries)
    if not matrix.is_hermitian():
        raise ValueError(
            "gram matrix came out non-hermitian; the relation table is not "
            "consistent with its own adjoint structure")
    return GramResult(matrix, hermitian_signature(matrix))
