"""Answers the benchmark checks spinstat against, computed without spinstat.

Nothing here imports the package: statuses are written by hand, statistics
follow from the spin alone, Gram entries come from Wick's theorem and
signatures from a short exact elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

# Status and exit code of `spinstat analyze` on each shipped theory, as the
# README states them.
CORPUS = {
    "dirac": ("CONSISTENT", 0),
    "majorana": ("CONSISTENT", 0),
    "scalar_charged": ("CONSISTENT", 0),
    "scalar_doubled": ("CONSISTENT", 0),
    "scalar_flavor_antisym": ("REJECTED_NEGATIVE_NORM", 3),
    "scalar_single": ("NO_KINEMATIC_TERM", 0),
    "vector": ("CONSISTENT", 0),
}

# `dkp-check --paper-relations` on the five-component wave operator: all 64
# triples hold, 24 shorthand mismatches, 8 probe momenta, and beta0 splits
# into (phi, dphi/dt) against the three gradient constraints.
DKP_MISMATCHES = 24
DKP_MOMENTA = 8
DKP_CANONICAL = 2
DKP_CONSTRAINTS = 3


def statistics_for_spin(spin: str) -> str:
    """Spin -> symmetry class -> statistics: half-integral spin is Fermi."""
    return "fermi" if Fraction(spin).denominator == 2 else "bose"


def sector_signs(spin: str, copies: int = 1) -> list[int]:
    """An antisymmetric flavor pair of an integral-spin field splits into a
    +1 and a -1 sector, each as wide as one flavor of the field."""
    width = (int(Fraction(spin)) * 2 + 1) * copies
    return [1] * width + [-1] * width


def _leibniz(m, signed: bool) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(1)
        for r, c in enumerate(perm):
            term *= m[r][c]
        if signed:
            inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                             if perm[i] > perm[j])
            term = -term if inversions % 2 else term
        total += term
    return total


def wick_entry(pairing, bra, ket, fermi: bool) -> Fraction:
    """<0| adj(bra) ket |0> for creator words: the permanent (commutator) or
    determinant (anticommutator) of the pairing submatrix."""
    if len(bra) != len(ket):
        return Fraction(0)
    m = [[pairing.get((b[:-3], k), Fraction(0)) for k in ket] for b in bra]
    return _leibniz(m, signed=fermi)


def _symmetric_eliminate(rows):
    """Pivots of a congruence reduction of a real symmetric matrix."""
    a = [[Fraction(x) for x in row] for row in rows]
    active = list(range(len(a)))
    pivots = []
    while active:
        piv = next((i for i in active if a[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if j > i and a[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            # add row/column j to i: the new diagonal entry is 2 a_ij != 0
            for k in active:
                a[i][k] += a[j][k]
            for k in active:
                a[k][i] += a[k][j]
            piv = i
        d = a[piv][piv]
        pivots.append(d)
        active.remove(piv)
        for r in active:
            f = a[r][piv] / d
            if f:
                for c in active:
                    a[r][c] -= f * a[piv][c]
    return pivots


def inertia(rows) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of a real symmetric matrix, by
    Sylvester's law of inertia."""
    pivots = _symmetric_eliminate(rows)
    pos = sum(1 for d in pivots if d > 0)
    neg = sum(1 for d in pivots if d < 0)
    return pos, neg, len(rows) - pos - neg


def rank(rows) -> int:
    """Rank by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def long_word_value(k: int, h: Fraction) -> Fraction:
    """<0| a^k (a^dag)^k |0> = k! h^k for a commutator pairing [a, a^dag] = h."""
    value = Fraction(1)
    for i in range(1, k + 1):
        value *= i * h
    return value
