"""Reduction of higher-derivative kinetic terms to first-order form.

A bilinear Lagrangian L = -(1/2) phi F(d_t) phi with F an even polynomial
of finite degree describes reversible motion whose equation of motion is
F(d_t) phi = 0.  Following Ostrogradsky, introducing one auxiliary field
per derivative order, xi_n = d_t^{n-1} phi, turns L into a form linear in
first time derivatives.  The momentum combinations conjugate to the
auxiliaries come out of the alternating variational derivative

    dL/dx = @L/@x - d_t @L/@(d_t x) + d_t^2 @L/@(d_t^2 x) - ...

and, because F is even, they pair the auxiliaries antisymmetrically: the
reduced kinematic matrix is exactly antisymmetric, which is the shape the
statistics analysis expects for an integral-spin field.

The classic second-order example is the scalar wave operator.  Its
first-order Duffin-Kemmer form uses five hermitian components
(phi, dphi/dt, and the spatial gradient) tied together by 5x5 beta
matrices; the gradient rows of beta_0 vanish, so those components are
constraints rather than dynamical fields, and the canonical core is the
familiar 2x2 block [[0, i], [-i, 0]].
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from collections import namedtuple
from itertools import product

from .algebra import ExactMatrix, Scalar, self_check
from .model import KinematicMatrix

__all__ = [
    "DerivativePolynomial",
    "ReductionResult",
    "ostrogradsky_reduce",
    "eliminate_auxiliaries",
    "BetaSet",
    "duffin_kemmer_construct",
    "RelationCheck",
    "DKPAlgebraReport",
    "verify_dkp_algebra",
    "MomentumContractionCheck",
    "dkp_minimal_polynomial_check",
]

_ZERO = Scalar(0)
_ONE = Scalar(1)
_I = Scalar(0, 1)
_HALF = Scalar(Fraction(1, 2))


class DerivativePolynomial(namedtuple("DerivativePolynomial", "coefficients")):
    """Polynomial F(d_t) stored as a tuple of Scalar coefficients by
    ascending power."""

    __slots__ = ()

    def __new__(cls, coefficients):
        coerced = tuple(Scalar.coerce(c) for c in coefficients)
        while coerced and coerced[-1].is_zero:
            coerced = coerced[:-1]
        if not coerced:
            raise ValueError("polynomial needs at least one nonzero coefficient")
        return super().__new__(cls, coerced)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so a replaced polynomial is checked too
        return cls(*iterable)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, power: int) -> Scalar:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return _ZERO

    @property
    def is_even_function(self) -> bool:
        """True when only even powers of d_t appear (reversible motion)."""
        return all(c.is_zero for c in self.coefficients[1::2])



class ReductionResult(namedtuple(
        "ReductionResult",
        "polynomial auxiliary_fields momentum_combinations first_order_K0"
        " potential")):
    """First-order rewrite of -(1/2) phi F(d_t) phi.

    The Lagrangian in the new variables is

        L = sum_rs K_rs xi_r d_t xi_s - (1/2) sum_rs M_rs xi_r xi_s

    with K = ``first_order_K0`` antisymmetric and M = ``potential``
    symmetric; for antisymmetric K this equals the explicitly
    antisymmetrized form (1/2) K_rs (xi_r d_t xi_s - d_t xi_r xi_s) up to
    a total derivative.  ``momentum_combinations`` holds the alternating
    variational-derivative momenta, row i giving Pi_i as a combination of
    the auxiliaries; K equals its transpose exactly.

    ``polynomial`` is the DerivativePolynomial, ``auxiliary_fields`` a
    tuple of names, ``first_order_K0`` a KinematicMatrix, and the other
    two fields ExactMatrix.
    """

    __slots__ = ()


def _aux_labels(n: int) -> tuple[str, ...]:
    labels = ["phi", "dphi/dt"]
    labels.extend(f"d{k}phi/dt{k}" for k in range(2, n))
    return tuple(labels[:n])


def _momentum_matrix(coeff, n: int) -> ExactMatrix:
    """Pi_i = dL/d(d_t^i phi) expanded over the auxiliaries (1-based i).

    Row i, column m carries (-1)^m c_{i+m-1} / 2: only the coefficient of
    d_t^{i+m-1} in F survives the alternating derivative at position m.
    """
    rows = []
    for i in range(1, n + 1):
        row = []
        for m in range(1, n + 1):
            j = i + m - 1
            c = coeff[j] if j <= n else _ZERO
            row.append(c * _HALF if m % 2 == 0 else -c * _HALF)
        rows.append(row)
    return ExactMatrix(rows)


def _kinetic_matrix(coeff, n: int, half_deg: int) -> ExactMatrix:
    """Antisymmetrized coefficient matrix of sum_n p_n(xi) d_t xi_n."""
    a = [[_ZERO] * n for _ in range(n)]
    for i in range(1, half_deg + 1):
        sign = _ONE if i % 2 == 1 else -_ONE
        for k in range(i, half_deg + 1):
            r = 2 * k - i + 1
            a[r - 1][i - 1] = a[r - 1][i - 1] + sign * coeff[2 * k]
    mat = ExactMatrix(a)
    return (mat - mat.transpose()).scale(_HALF)


def _potential_matrix(coeff, n: int, half_deg: int) -> ExactMatrix:
    """Symmetric M with H = (1/2) xi^T M xi, from the Legendre bookkeeping
    H = sum_n p_n xi_{n+1} - L restricted to its non-derivative terms."""
    m = [[_ZERO] * n for _ in range(n)]
    for i in range(1, half_deg + 1):
        sign = _ONE if i % 2 == 1 else -_ONE
        for k in range(i, half_deg + 1):
            r, s = 2 * k - i, i
            m[r][s] = m[r][s] + sign * coeff[2 * k]
            m[s][r] = m[s][r] + sign * coeff[2 * k]
    for j in range(0, half_deg + 1):
        sign = _ONE if j % 2 == 0 else -_ONE
        m[j][j] = m[j][j] + sign * coeff[2 * j]
    return ExactMatrix(m)


def ostrogradsky_reduce(f: DerivativePolynomial) -> ReductionResult:
    """Rewrite -(1/2) phi F(d_t) phi as a first-order bilinear system.

    The degree-N input yields N auxiliary fields xi_n = d_t^{n-1} phi.
    Eliminating the auxiliaries again (see ``eliminate_auxiliaries``)
    reproduces F exactly, coefficient by coefficient.
    """
    if not isinstance(f, DerivativePolynomial):
        f = DerivativePolynomial(tuple(f))
    if not f.is_even_function:
        raise ValueError(
            "F has odd powers of d_t; only even polynomials describe the "
            "reversible motions this reduction covers")
    n = f.degree
    if n < 2:
        raise ValueError("F needs at least a second time derivative to reduce")
    half_deg = n // 2
    coeff = [f.coefficient(j) for j in range(n + 1)]

    p = _momentum_matrix(coeff, n)
    k0 = _kinetic_matrix(coeff, n, half_deg)
    m = _potential_matrix(coeff, n, half_deg)

    # dual route: the variational-derivative momenta and the Legendre
    # kinetic term must produce the same pairing
    self_check(k0 == p.transpose(),
               "Legendre kinetic term differs from the transposed momenta")
    self_check(k0.is_antisymmetric(), "reduced kinetic matrix is not antisymmetric")
    self_check(m.is_symmetric(), "reduced potential matrix is not symmetric")

    labels = _aux_labels(n)
    return ReductionResult(
        polynomial=f,
        auxiliary_fields=labels,
        momentum_combinations=p,
        first_order_K0=KinematicMatrix(k0, labels),
        potential=m,
    )


def _poly_add(a, b):
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] + c
    while out and out[-1].is_zero:
        out.pop()
    return out


def _poly_scale(p, factor):
    return [] if factor.is_zero else [c * factor for c in p]


def eliminate_auxiliaries(result: ReductionResult) -> DerivativePolynomial:
    """Recover F by eliminating the auxiliaries from the reduced system.

    Varying the first-order Lagrangian gives M xi = 2 K d_t xi, or
    (M - 2sK) xi = 0 on substituting the symbol s for d_t.  Rows N down
    to 2 each determine one further component as a polynomial multiple of
    xi_1; back-substituting into the first row leaves a single scalar
    equation alpha(s) xi_1 = 0, and alpha is returned.
    """
    k0 = result.first_order_K0.matrix
    m = result.potential
    n = k0.rows

    def entry(r, c):
        # row r of (M - 2sK) as an ascending polynomial in s (1-based)
        return _poly_add([m[r - 1, c - 1]], [_ZERO, -Scalar(2) * k0[r - 1, c - 1]])

    exprs = {1: [_ONE]}
    for r in range(n, 1, -1):
        target = n - r + 2
        for c in range(target + 1, n + 1):
            self_check(not entry(r, c), "row touches a component not yet pinned")
        acc = []
        for c in range(1, target):
            for power, coef in enumerate(entry(r, c)):
                if coef.is_zero:
                    continue
                acc = _poly_add(acc, [_ZERO] * power + _poly_scale(exprs[c], coef))
        pivot = entry(r, target)
        self_check(len(pivot) == 1, "pivot must be free of the symbol s")
        exprs[target] = _poly_scale(acc, -_ONE / pivot[0])
    alpha = []
    for c in range(1, n + 1):
        for power, coef in enumerate(entry(1, c)):
            if coef.is_zero:
                continue
            alpha = _poly_add(alpha, [_ZERO] * power + _poly_scale(exprs[c], coef))
    return DerivativePolynomial(tuple(alpha))


# -- the five-component wave-operator form ---------------------------------


class BetaSet(namedtuple(
        "BetaSet", "betas metric psi_components psibar_components mass")):
    """The 5x5 Duffin-Kemmer matrices for a scalar field of mass ``mass``,
    a Fraction.

    ``betas`` is a tuple of four ExactMatrix.  ``psi_components`` names
    the entries of the column vector the first-order equation acts on and
    ``psibar_components`` the row vector conjugate to it; the metric is
    the unique diagonal ExactMatrix signature under which the matrices
    close the standard trilinear algebra.
    """

    __slots__ = ()

    @property
    def beta0(self) -> ExactMatrix:
        return self.betas[0]


def _beta_matrices() -> tuple[ExactMatrix, ...]:
    def sparse(entries):
        rows = [[_ZERO] * 5 for _ in range(5)]
        for (r, c), v in entries.items():
            rows[r][c] = v
        return ExactMatrix(rows)

    beta0 = sparse({(0, 1): _I, (1, 0): -_I})
    beta1 = sparse({(0, 2): -_I, (2, 0): -_I})
    beta2 = sparse({(0, 3): -_I, (3, 0): -_I})
    beta3 = sparse({(0, 4): -_I, (4, 0): -_I})
    return beta0, beta1, beta2, beta3


def _triple_products(b) -> dict[tuple[int, int, int], ExactMatrix]:
    """b_mu b_nu b_lam for all 64 index triples, built on the 16 pair
    products, so every trilinear identity reads its terms off one table."""
    pairs = {(mu, nu): b[mu] @ b[nu] for mu, nu in product(range(4), repeat=2)}
    return {(mu, nu, lam): pairs[mu, nu] @ b[lam]
            for mu, nu, lam in product(range(4), repeat=3)}


def _standard_failures(b, sym, metric: ExactMatrix):
    """Index triples, lazily and in row-major order, where the standard
    relation b_mu b_nu b_lam + b_lam b_nu b_mu = g_munu b_lam + g_lamnu b_mu
    fails for a diagonal metric; sym maps each triple to its left side."""
    zero = ExactMatrix.zeros(5)
    for (mu, nu, lam), lhs in sym.items():
        rhs = b[lam].scale(metric[nu, nu]) if mu == nu else zero
        if lam == nu:
            rhs = rhs + b[mu].scale(metric[nu, nu])
        if lhs != rhs:
            yield mu, nu, lam


@lru_cache(maxsize=1)
def _verified_metric() -> ExactMatrix:
    """Scan all diagonal +-1 signatures; exactly one closes the algebra."""
    betas = _beta_matrices()
    t = _triple_products(betas)
    sym = {(mu, nu, lam): x + t[lam, nu, mu] for (mu, nu, lam), x in t.items()}
    survivors = []
    for signs in product((1, -1), repeat=4):
        metric = ExactMatrix.diagonal(signs)
        if next(_standard_failures(betas, sym, metric), None) is None:
            survivors.append(metric)
    self_check(len(survivors) == 1, "metric signature must be unique")
    return survivors[0]


def duffin_kemmer_construct(mass) -> BetaSet:
    """First-order form of the scalar wave operator with the given mass.

    The column vector collects the field, its time derivative, and its
    spatial gradient; beta_0 couples only the first two, leaving the
    gradient components as constraints.
    """
    mass = Fraction(mass)
    if mass <= 0:
        raise ValueError("mass must be positive")
    betas = _beta_matrices()
    self_check(betas[0].is_antisymmetric(), "beta0 is not antisymmetric")
    self_check(all(b.scale(-_I).is_real() for b in betas),
               "a beta matrix is not i times a real matrix")
    return BetaSet(
        betas=betas,
        metric=_verified_metric(),
        psi_components=("phi", "dphi/dt", "dphi/dx", "dphi/dy", "dphi/dz"),
        psibar_components=("phi", "dphi/dt", "-dphi/dx", "-dphi/dy", "-dphi/dz"),
        mass=mass,
    )


class RelationCheck(namedtuple(
        "RelationCheck", "indices unweighted weighted")):
    """One index tuple of a trilinear identity, evaluated two ways.

    ``unweighted`` is whether the identity holds with all metric factors
    dropped, the shape the relations are usually quoted in; ``weighted``
    restores the metric entries.  The two agree wherever the relevant
    entry is +1.
    """

    __slots__ = ()


class DKPAlgebraReport(namedtuple(
        "DKPAlgebraReport",
        "standard_failures cube sandwich square_sum distinct_sum")):
    """Exhaustive evaluation of the trilinear algebra of a BetaSet.

    ``standard_failures`` is a tuple of the failing index triples; each
    other field is a tuple of RelationCheck.
    """

    __slots__ = ()

    @property
    def standard_holds(self) -> bool:
        return not self.standard_failures

    @property
    def unweighted_mismatches(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Index tuples where the metric-free shorthand breaks but the
        weighted identity holds; these are sign slips, not algebra errors."""
        found = []
        for name in ("cube", "sandwich", "square_sum", "distinct_sum"):
            for check in getattr(self, name):
                if check.weighted and not check.unweighted:
                    found.append((name, check.indices))
        return tuple(found)


def verify_dkp_algebra(betas: BetaSet) -> DKPAlgebraReport:
    """Check the standard metric-weighted relation on all 64 index triples
    and the four metric-free variants on their natural index ranges.

    The standard relation is
        b_mu b_nu b_lam + b_lam b_nu b_mu = g_munu b_lam + g_lamnu b_mu.
    Its specializations carry metric factors the shorthand forms drop:
    the cube is b_mu^3 = g_mumu b_mu, so the metric-free cube fails for
    the spatial matrices, whose cube is minus themselves.
    """
    b = betas.betas
    t = _triple_products(b)
    sym = {(mu, nu, lam): x + t[lam, nu, mu] for (mu, nu, lam), x in t.items()}
    failures = tuple(_standard_failures(b, sym, betas.metric))

    cube = []
    for mu in range(4):
        cubed = t[mu, mu, mu]
        cube.append(RelationCheck(
            indices=(mu,),
            unweighted=cubed == b[mu],
            weighted=cubed == b[mu].scale(betas.metric[mu, mu]),
        ))

    sandwich = []
    square_sum = []
    for mu, nu in product(range(4), repeat=2):
        if mu == nu:
            continue
        mid = t[mu, nu, mu]
        sandwich.append(RelationCheck(
            indices=(mu, nu),
            unweighted=mid == b[mu],
            weighted=mid.is_zero(),
        ))
        squares = t[mu, nu, nu] + t[nu, nu, mu]
        square_sum.append(RelationCheck(
            indices=(mu, nu),
            unweighted=squares == b[mu],
            weighted=squares == b[mu].scale(betas.metric[nu, nu]),
        ))

    distinct = []
    for mu, nu, lam in product(range(4), repeat=3):
        if len({mu, nu, lam}) != 3:
            continue
        vanished = sym[mu, nu, lam].is_zero()
        distinct.append(RelationCheck(
            indices=(mu, nu, lam), unweighted=vanished, weighted=vanished))

    return DKPAlgebraReport(
        standard_failures=failures,
        cube=tuple(cube),
        sandwich=tuple(sandwich),
        square_sum=tuple(square_sum),
        distinct_sum=tuple(distinct),
    )


class MomentumContractionCheck(namedtuple(
        "MomentumContractionCheck", "k k_dot_k holds")):
    """Result of the minimal-polynomial probe along a momentum vector:
    ``k`` is a tuple of four Scalar, ``k_dot_k`` a Scalar."""

    __slots__ = ()


def dkp_minimal_polynomial_check(betas: BetaSet, k) -> MomentumContractionCheck:
    """Verify (beta.k)^3 = (k.k)(beta.k) for a rational 4-vector k.

    beta.k is the plain sum k^mu beta_mu over contravariant components and
    k.k the metric square g_munu k^mu k^nu; the identity is the algebraic
    content behind the first-order system reproducing the second-order
    wave equation.
    """
    comps = tuple(Scalar.coerce(x) for x in k)
    if len(comps) != 4:
        raise ValueError("momentum vector needs exactly 4 components")
    contracted = ExactMatrix.zeros(5)
    for mu in range(4):
        contracted = contracted + betas.betas[mu].scale(comps[mu])
    square = _ZERO
    for mu in range(4):
        square = square + betas.metric[mu, mu] * comps[mu] * comps[mu]
    cubed = contracted @ contracted @ contracted
    return MomentumContractionCheck(
        k=comps,
        k_dot_k=square,
        holds=cubed == contracted.scale(square),
    )
