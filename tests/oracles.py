"""Independent oracles for the exact linear algebra.

Nothing here shares code with ``spinstat.algebra`` beyond the matrix type:
the characteristic polynomial comes from Faddeev-LeVerrier, signatures
from Descartes' rule of signs on it, and determinants from the Leibniz
sum over permutations.
"""

from fractions import Fraction
from itertools import permutations

from spinstat.algebra import ExactMatrix, Scalar


def charpoly(m: ExactMatrix) -> tuple[Scalar, ...]:
    """Coefficients of det(tI - M), ascending, leading coefficient 1.

    Faddeev-LeVerrier: exact over the scalar field, no pivoting.
    """
    n = m.rows
    coeffs = [Scalar(0)] * n + [Scalar(1)]
    acc = ExactMatrix.zeros(n)
    ident = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        acc = m @ acc + ident.scale(coeffs[n - k + 1])
        coeffs[n - k] = (m @ acc).trace() * Scalar(Fraction(-1, k))
    return tuple(coeffs)


def descartes_signature(m: ExactMatrix) -> tuple[int, int, int]:
    """(positives, negatives, zeros) of a hermitian matrix.

    Its eigenvalues are real, so Descartes' rule of signs on the
    characteristic polynomial counts them exactly: the zero multiplicity
    is the power of t dividing it, and the sign variations of p(t) and
    p(-t) give the positive and negative counts.
    """
    coeffs = []
    for c in charpoly(m):
        assert c.is_real, "hermitian matrix produced a complex charpoly"
        coeffs.append(c.re)
    zeros = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1

    def variations(seq):
        signs = [1 if c > 0 else -1 for c in seq if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    positives = variations(coeffs)
    negatives = variations([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return positives, negatives, zeros


def leibniz_determinant(m: ExactMatrix) -> Scalar:
    """Sum over permutations of signed diagonal products."""
    total = Scalar(0)
    for perm in permutations(range(m.rows)):
        inversions = sum(1 for a in range(len(perm)) for b in range(a)
                         if perm[b] > perm[a])
        term = Scalar(-1 if inversions % 2 else 1)
        for row, col in enumerate(perm):
            term = term * m[row, col]
        total = total + term
    return total
