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

from functools import lru_cache
from collections import namedtuple
from itertools import product

from .algebra import HALF, I, ONE, ZERO, ExactMatrix, Scalar, self_check
from .model import KinematicMatrix

__all__ = [
    "DerivativePolynomial",
    "ReductionResult",
    "ostrogradsky_reduce",
    "eliminate_auxiliaries",
    "BetaSet",
    "duffin_kemmer_construct",
    "SHORTHAND_FAMILIES",
    "RelationCheck",
    "DKPAlgebraReport",
    "verify_dkp_algebra",
    "MomentumContractionCheck",
    "dkp_minimal_polynomial_check",
]

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
        return ZERO

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
            c = coeff[j] if j <= n else ZERO
            row.append(c * HALF if m % 2 == 0 else -c * HALF)
        rows.append(row)
    return ExactMatrix(rows)


def _kinetic_matrix(coeff, n: int, half_deg: int) -> ExactMatrix:
    """Antisymmetrized coefficient matrix of sum_n p_n(xi) d_t xi_n."""
    a = [[ZERO] * n for _ in range(n)]
    for i in range(1, half_deg + 1):
        sign = ONE if i % 2 == 1 else -ONE
        for k in range(i, half_deg + 1):
            r = 2 * k - i + 1
            a[r - 1][i - 1] = a[r - 1][i - 1] + sign * coeff[2 * k]
    mat = ExactMatrix(a)
    return (mat - mat.transpose()).scale(HALF)


def _potential_matrix(coeff, n: int, half_deg: int) -> ExactMatrix:
    """Symmetric M with H = (1/2) xi^T M xi, from the Legendre bookkeeping
    H = sum_n p_n xi_{n+1} - L restricted to its non-derivative terms."""
    m = [[ZERO] * n for _ in range(n)]
    for i in range(1, half_deg + 1):
        sign = ONE if i % 2 == 1 else -ONE
        for k in range(i, half_deg + 1):
            r, s = 2 * k - i, i
            m[r][s] = m[r][s] + sign * coeff[2 * k]
            m[s][r] = m[s][r] + sign * coeff[2 * k]
    for j in range(0, half_deg + 1):
        sign = ONE if j % 2 == 0 else -ONE
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
    out = list(a) + [ZERO] * (len(b) - len(a))
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
        return _poly_add([m[r - 1, c - 1]], [ZERO, -Scalar(2) * k0[r - 1, c - 1]])

    exprs = {1: [ONE]}
    for r in range(n, 1, -1):
        target = n - r + 2
        for c in range(target + 1, n + 1):
            self_check(not entry(r, c), "row touches a component not yet pinned")
        acc = []
        for c in range(1, target):
            for power, coef in enumerate(entry(r, c)):
                if coef.is_zero:
                    continue
                acc = _poly_add(acc, [ZERO] * power + _poly_scale(exprs[c], coef))
        pivot = entry(r, target)
        self_check(len(pivot) == 1, "pivot must be free of the symbol s")
        exprs[target] = _poly_scale(acc, -ONE / pivot[0])
    alpha = []
    for c in range(1, n + 1):
        for power, coef in enumerate(entry(1, c)):
            if coef.is_zero:
                continue
            alpha = _poly_add(alpha, [ZERO] * power + _poly_scale(exprs[c], coef))
    return DerivativePolynomial(tuple(alpha))


# -- the five-component wave-operator form ---------------------------------


class BetaSet(namedtuple(
        "BetaSet", "betas metric psi_components psibar_components mass")):
    """The 5x5 Duffin-Kemmer matrices for a scalar field of mass ``mass``,
    a real Scalar.

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
    """beta_mu couples the field with component mu + 1 alone: beta_0
    antisymmetrically, i above the diagonal, and each spatial beta_k
    symmetrically, with -i on both sides."""
    def beta(mu, upper, lower):
        rows = [{} for _ in range(5)]
        rows[0][mu + 1] = upper
        rows[mu + 1][0] = lower
        return ExactMatrix._from_rows(5, rows)

    return (beta(0, I, -I),) + tuple(beta(k, -I, -I) for k in (1, 2, 3))


@lru_cache(maxsize=4)
def _triple_products(b: tuple[ExactMatrix, ...]):
    """(t, sym): t maps each of the 64 index triples to b_mu b_nu b_lam,
    built on the 16 pair products, and sym maps it to
    b_mu b_nu b_lam + b_lam b_nu b_mu, so every trilinear identity reads
    its terms off one table.  The tables are built once per beta tuple and
    shared by every caller, which only reads them."""
    pairs = {(mu, nu): b[mu] @ b[nu] for mu, nu in product(range(4), repeat=2)}
    t = {(mu, nu, lam): pairs[mu, nu] @ b[lam]
         for mu, nu, lam in product(range(4), repeat=3)}
    sym = {(mu, nu, lam): x + t[lam, nu, mu] for (mu, nu, lam), x in t.items()}
    return t, sym


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
    """The one diagonal metric that closes the algebra.

    At mu = nu = lam the standard relation reads b_mu^3 = g_mumu b_mu, so
    with b_mu != 0 each g_mumu is read off the cube: no other diagonal
    metric can close the algebra.  The candidate is then checked on all 64
    triples."""
    betas = _beta_matrices()
    t, sym = _triple_products(betas)
    diagonal = []
    for mu, b in enumerate(betas):
        self_check(not b.is_zero(), "a beta matrix is zero")
        i, j, x = next(b.nonzeros())
        diagonal.append(t[mu, mu, mu][i, j] / x)
    metric = ExactMatrix.diagonal(diagonal)
    self_check(next(_standard_failures(betas, sym, metric), None) is None,
               "the metric read off the cubes does not close the algebra")
    return metric


def duffin_kemmer_construct(mass) -> BetaSet:
    """First-order form of the scalar wave operator with the given mass.

    The column vector collects the field, its time derivative, and its
    spatial gradient; beta_0 couples only the first two, leaving the
    gradient components as constraints.
    """
    mass = Scalar.coerce(mass)
    if not (mass.is_real and mass._a > 0):
        raise ValueError("mass must be positive")
    betas = _beta_matrices()
    self_check(betas[0].is_antisymmetric(), "beta0 is not antisymmetric")
    self_check(all(b.scale(-I).is_real() for b in betas),
               "a beta matrix is not i times a real matrix")
    return BetaSet(
        betas=betas,
        metric=_verified_metric(),
        psi_components=("phi", "dphi/dt", "dphi/dx", "dphi/dy", "dphi/dz"),
        psibar_components=("phi", "dphi/dt", "-dphi/dx", "-dphi/dy", "-dphi/dz"),
        mass=mass,
    )


# The shorthand families of the trilinear relation: name, metric-free text,
# the index pattern of the family's triples (each index numbered by its first
# appearance), and the multiple of beta_mu that the text sets the left side
# b_mu b_nu b_lam + b_lam b_nu b_mu equal to (it writes a doubled term once).
SHORTHAND_FAMILIES = (
    ("cube", "beta_mu^3 = beta_mu", (0, 0, 0), 2),
    ("sandwich", "beta_mu beta_nu beta_mu = beta_mu", (0, 1, 0), 2),
    ("square_sum", "beta_mu beta_nu^2 + beta_nu^2 beta_mu = beta_mu", (0, 1, 1), 1),
    ("distinct_sum", "beta_mu beta_nu beta_lam + beta_lam beta_nu beta_mu = 0",
     (0, 1, 2), 0),
)


class RelationCheck(namedtuple(
        "RelationCheck", "indices unweighted weighted")):
    """One index tuple of a trilinear identity, evaluated two ways.

    ``unweighted`` is whether the identity holds with all metric factors
    dropped, the shape the relations are usually quoted in; ``weighted``
    restores them: it is whether the standard relation holds at the
    check's index triple.
    """

    __slots__ = ()


class DKPAlgebraReport(namedtuple(
        "DKPAlgebraReport",
        ["standard_failures"] + [name for name, *_ in SHORTHAND_FAMILIES])):
    """Exhaustive evaluation of the trilinear algebra of a BetaSet.

    ``standard_failures`` is a tuple of the failing index triples; each
    other field is a tuple of RelationCheck, one field per entry of
    SHORTHAND_FAMILIES.
    """

    __slots__ = ()

    @property
    def standard_holds(self) -> bool:
        return not self.standard_failures

    @property
    def unweighted_mismatches(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        """Index tuples where the metric-free shorthand breaks but the
        weighted identity holds; these are sign slips, not algebra errors."""
        return tuple((name, check.indices)
                     for (name, *_), checks in zip(SHORTHAND_FAMILIES, self[1:])
                     for check in checks if check.weighted and not check.unweighted)


def verify_dkp_algebra(betas: BetaSet) -> DKPAlgebraReport:
    """Check the standard metric-weighted relation on all 64 index triples
    and the four metric-free variants on their natural index ranges.

    The standard relation is
        b_mu b_nu b_lam + b_lam b_nu b_mu = g_munu b_lam + g_lamnu b_mu.
    At a family's triples, with g_munu = 0 off the diagonal, it is the
    weighted shorthand: 2 b_mu^3 = 2 g_mumu b_mu at (mu,mu,mu) (so the
    metric-free cube fails for the spatial matrices, whose cube is minus
    themselves), 2 b_mu b_nu b_mu = 0 at (mu,nu,mu), the square sum =
    g_nunu b_mu at (mu,nu,nu), the sum = 0 at distinct indices.  2X = 2Y
    exactly when X = Y, so each weighted check is whether its triple did
    not fail; only the metric-free side is compared per check.
    """
    b = betas.betas
    _, sym = _triple_products(tuple(b))
    failures = tuple(_standard_failures(b, sym, betas.metric))
    failed = set(failures)
    families = {pattern: ([x.scale(multiple) for x in b], [])
                for _, _, pattern, multiple in SHORTHAND_FAMILIES}
    for triple, lhs in sym.items():
        pattern = tuple(map(triple.index, triple))
        if pattern in families:
            rhs, checks = families[pattern]
            checks.append(RelationCheck(
                indices=tuple(dict.fromkeys(triple)),
                unweighted=lhs == rhs[triple[0]],
                weighted=triple not in failed))
    return DKPAlgebraReport(failures, *(tuple(c) for _, c in families.values()))


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
    contracted, square = ExactMatrix.zeros(5), ZERO
    for mu, x in enumerate(comps):
        contracted = contracted + betas.betas[mu].scale(x)
        square = square + betas.metric[mu, mu] * x * x
    cubed = contracted @ contracted @ contracted
    return MomentumContractionCheck(
        k=comps,
        k_dot_k=square,
        holds=cubed == contracted.scale(square),
    )
