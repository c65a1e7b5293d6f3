"""Independent oracles the tests compare spinstat against.

Nothing here shares code with the routines under test beyond the matrix
type:

- the characteristic polynomial comes from Faddeev-LeVerrier, signatures
  from Descartes' rule of signs on it, and determinants from the Leibniz
  sum over permutations;
- Gram entries of creator words are permanents or determinants of the
  pairing submatrix, by the same sum over permutations, which checks the
  recursive Wick contraction of ``fock``;
- null spaces come straight from the reduced row echelon form of
  ``dense_rref``;
- the invariant bilinear forms of a generator set come from solving
  J^T M + M J = 0 as one linear system in the entries of M, which checks
  the counting argument behind ``model._form_space_dims``;
- rotation invariance comes from whole-space generators multiplied out
  against the whole K0, which checks the per-block, memoized
  ``invariance.check_su2_invariance``;
- whether a kinematic term vanishes comes from expanding it over
  placeholder symbols, which checks ``invariance.momentum_map``;
- the transpose symmetry class comes from building both halves of a
  matrix, which checks ``algebra.symmetry_class``;
- symmetry, antisymmetry and hermiticity come from comparing a matrix
  with its built transpose, negated transpose or dagger, the flavor
  pattern from four built quadrants, and the momentum map from the
  built (K0^T -+ K0)/2, which check the in-place mirror walks of
  ``ExactMatrix``, ``flavor.detect_flavor_antisymmetry`` and the
  class-driven ``invariance.momentum_map``;
- component labels written one at a time, each joined from its parts,
  check the per-prefix labels of ``model.TheorySpec.index_map``;
- the kinematic builder with one loop per flavor mode, each repeating the
  form count, the exits and the normalization, checks the single loop of
  ``model.build_kinematic`` (it shares the builder's counting and
  normalization helpers, which the oracles above check);
- sector signs read one by one off the sign of each eigenvalue's
  imaginary part check the inertia rule of
  ``flavor.sector_sign_analysis``;
- each shorthand family of the beta algebra, metric-free and
  metric-weighted, evaluated straight from the beta products and the
  metric, checks ``reduction.verify_dkp_algebra``, which reads the
  weighted column off the standard relation;
- the ``dense_*`` functions redo the matrix kernels on plain nested lists
  of scalars, every zero stored, which checks the sparse storage of
  ``ExactMatrix``;
- ``FractionPair`` does Gaussian-rational arithmetic on a pair of
  ``Fraction`` parts, which checks the integer-backed ``Scalar``;
- the report as a dict built member by member, for ``json.dumps`` to
  write, checks the direct writer ``report.report_to_json``.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from spinstat.algebra import ExactMatrix, Scalar, SymmetryClass, symmetry_class
from spinstat.flavor import FlavorDiagonalization, FlavorSplit
from spinstat.invariance import InvarianceReport, required_symmetry
from spinstat.model import (
    NOTE_NO_FORM,
    NOTE_NOT_UNIQUE,
    KinematicBuild,
    KinematicMatrix,
    _blockdiag,
    _form_space_dims,
    _normalize_block,
)
from spinstat.su2 import hermitian_basis


class FractionPair:
    """A Gaussian rational as a real and an imaginary ``Fraction``.

    Each operation is the textbook formula on the two parts, and each part
    is normalized by ``Fraction`` itself, so this shares no arithmetic
    with ``Scalar``'s integer numerators over one common denominator.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPair is immutable")

    def __add__(self, o):
        return FractionPair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPair(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("scalar division by zero")
        return FractionPair((self.re * o.re + self.im * o.im) / d,
                            (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def conjugate(self) -> "FractionPair":
        return FractionPair(self.re, -self.im)

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


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
        product = m @ acc
        trace = sum((product[i, i] for i in range(n)), start=Scalar(0))
        coeffs[n - k] = trace * Scalar(Fraction(-1, k))
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


def _permutation_sign(perm) -> int:
    inversions = sum(1 for a in range(len(perm)) for b in range(a)
                     if perm[b] > perm[a])
    return -1 if inversions % 2 else 1


def leibniz_determinant(m: ExactMatrix) -> Scalar:
    """Sum over permutations of signed diagonal products."""
    total = Scalar(0)
    for perm in permutations(range(m.rows)):
        term = Scalar(_permutation_sign(perm))
        for row, col in enumerate(perm):
            term = term * m[row, col]
        total = total + term
    return total


def wick_gram_entry(pairing, bra, ket, fermi: bool) -> Scalar:
    """<0| adjoint(bra) ket |0> of two creator words by Wick's theorem.

    `pairing` maps a (bra creator x, ket creator y) pair to
    <0| x^dagger y |0>, absent pairs being 0.  The entry is the permanent
    (commutator, ``fermi`` false) or the determinant (anticommutator) of
    the pairing submatrix between the two words' creators, summed over
    permutations, and 0 when the particle numbers differ.
    """
    if len(bra) != len(ket):
        return Scalar(0)
    total = Scalar(0)
    for perm in permutations(range(len(ket))):
        term = Scalar(_permutation_sign(perm) if fermi else 1)
        for row, col in enumerate(perm):
            term = term * pairing.get((bra[row], ket[col]), Scalar(0))
        total = total + term
    return total


def nullspace(m: ExactMatrix) -> list[tuple[Scalar, ...]]:
    """Basis of the right null space, one vector per free column.

    Each basis vector has a 1 in its free coordinate and the negated
    reduced coefficients in the pivot coordinates, so the result is
    deterministic given the matrix.
    """
    reduced, pivots = dense_rref([list(row) for row in m])
    basis = []
    for free in (c for c in range(m.cols) if c not in pivots):
        vec = [Scalar(0)] * m.cols
        vec[free] = Scalar(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][free]
        basis.append(tuple(vec))
    return basis


@dataclass(frozen=True)
class FormSpace:
    """Invariant bilinear forms of a generator set, split by transpose parity."""

    sym_dim: int
    antisym_dim: int
    sym_basis: tuple[ExactMatrix, ...]
    antisym_basis: tuple[ExactMatrix, ...]


def _span_basis(matrices, n: int) -> tuple[ExactMatrix, ...]:
    """Canonical basis (rref row space) of a list of vectorized matrices."""
    rows = [[m[i, k] for i in range(n) for k in range(n)] for m in matrices]
    rows = [r for r in rows if any(not x.is_zero for x in r)]
    if not rows:
        return ()
    reduced, pivots = dense_rref(rows)
    out = []
    for r in range(len(pivots)):
        flat = reduced[r]
        out.append(ExactMatrix([flat[i * n:(i + 1) * n] for i in range(n)]))
    return tuple(out)


def invariant_form_space(gens) -> FormSpace:
    """All bilinear forms M with J^T M + M J = 0 for every given generator.

    Solved exactly as one linear system in the n^2 matrix entries; the
    result is split into symmetric and antisymmetric parts (the space is
    closed under transposition because the defining equation is).
    """
    gens = list(gens)
    n = gens[0].rows
    rows = []
    for g in gens:
        for i in range(n):
            for k in range(n):
                # equation (i,k):  sum_l g_{li} M_{lk} + g_{lk} M_{il} = 0
                row = [Scalar(0)] * (n * n)
                for l in range(n):
                    row[l * n + k] += g[l, i]
                    row[i * n + l] += g[l, k]
                rows.append(row)

    half = Scalar(Fraction(1, 2))
    sym_parts, anti_parts = [], []
    for vec in nullspace(ExactMatrix(rows)):
        m = ExactMatrix([vec[i * n:(i + 1) * n] for i in range(n)])
        mt = m.transpose()
        sym_parts.append((m + mt).scale(half))
        anti_parts.append((m - mt).scale(half))

    sym_basis = _span_basis(sym_parts, n)
    antisym_basis = _span_basis(anti_parts, n)
    return FormSpace(len(sym_basis), len(antisym_basis), sym_basis, antisym_basis)


def theory_generators(spec) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
    """Rotation generators on the whole component space of a theory.

    Rotations act on components only, so each field contributes the
    identity on its flavor and copy axes tensored with its hermitian-basis
    generators; each generator is written out entry by entry.
    """
    n = spec.dimension
    out = []
    for axis in range(3):
        dense = [[Scalar(0)] * n for _ in range(n)]
        offset = 0
        for f in spec.fields:
            g = hermitian_basis(f.spin).generators[axis]
            for _ in range(f.flavors * f.copies):
                for r, c, x in g.nonzeros():
                    dense[offset + r][offset + c] = x
                offset += g.rows
        out.append(ExactMatrix(dense))
    return tuple(out)


def whole_space_invariance(k0: ExactMatrix, gens) -> InvarianceReport:
    """G^T K0 + K0 G for each whole-space generator G, multiplied out on
    the whole matrix: the reference for ``check_su2_invariance``."""
    violations = []
    for axis, g in zip("xyz", gens):
        residual = g.transpose() @ k0 + k0 @ g
        entries = tuple((r, c) for r, c, _ in residual.nonzeros())
        if entries:
            violations.append((axis, entries))
    return InvarianceReport(not violations, tuple(violations))


def kinematic_term_is_trivial(k0: ExactMatrix, statistics: str) -> bool:
    """Whether sum_rs K0_rs (xi_r xi-dot_s - xi-dot_r xi_s) vanishes identically.

    Expands the bilinear over placeholder symbols that commute (bose) or
    anticommute (fermi), canonical-orders every monomial and collects
    coefficients.  This is the machine form of the statement that K0 with
    the same symmetry as the field scalar product gives no Lagrangian:
    symmetric K0 with commuting fields dies, antisymmetric K0 with
    anticommuting fields dies.
    """
    if statistics not in ("bose", "fermi"):
        raise ValueError(f"statistics must be 'bose' or 'fermi', got {statistics!r}")
    fermi = statistics == "fermi"
    coeffs: dict[tuple, Scalar] = {}

    def accumulate(sym_a, sym_b, coeff):
        if fermi and sym_a == sym_b:
            return  # anticommuting square vanishes
        if sym_a <= sym_b:
            key, sign = (sym_a, sym_b), 1
        else:
            key, sign = (sym_b, sym_a), -1 if fermi else 1
        total = coeffs.get(key, Scalar(0)) + coeff * sign
        if total.is_zero:
            coeffs.pop(key, None)
        else:
            coeffs[key] = total

    for r in range(k0.rows):
        for s in range(k0.cols):
            krs = k0[r, s]
            if not krs.is_zero:
                # symbol = (index, dotted)
                accumulate((r, 0), (s, 1), krs)
                accumulate((r, 1), (s, 0), -krs)
    return not coeffs


def symmetry_class_by_halves(m: ExactMatrix) -> SymmetryClass:
    """Class of a square matrix read off its symmetric and antisymmetric
    halves (M + M^T)/2 and (M - M^T)/2: zero, one half zero, or neither."""
    half = Scalar(Fraction(1, 2))
    mt = m.transpose()
    sym = (m + mt).scale(half)
    anti = (m - mt).scale(half)
    if m.is_zero():
        return SymmetryClass.ZERO
    if anti.is_zero():
        return SymmetryClass.SYMMETRIC
    if sym.is_zero():
        return SymmetryClass.ANTISYMMETRIC
    return SymmetryClass.MIXED


def symmetric_by_transpose(m: ExactMatrix) -> bool:
    return m.is_square and m == m.transpose()


def antisymmetric_by_transpose(m: ExactMatrix) -> bool:
    return m.is_square and m == -m.transpose()


def hermitian_by_dagger(m: ExactMatrix) -> bool:
    return m.is_square and m == m.dagger()


def flavor_antisymmetry_by_quadrants(m: ExactMatrix) -> FlavorSplit:
    """The [[0, M], [-M, 0]] test on the four quadrants, each built."""
    if m.rows % 2:
        return FlavorSplit(False, None, "odd dimension cannot split into two flavors")
    h = m.rows // 2
    top, bottom = range(h), range(h, m.rows)
    m11 = m.submatrix(top, top)
    m22 = m.submatrix(bottom, bottom)
    m12 = m.submatrix(top, bottom)
    m21 = m.submatrix(bottom, top)
    if m11.is_zero() and m22.is_zero() and m21 == -m12 and not m12.is_zero():
        return FlavorSplit(True, m12)
    return FlavorSplit(False)


def momentum_map_by_transpose(k0: ExactMatrix, statistics: str) -> ExactMatrix:
    """(K0^T - K0)/2 for bose and (K0^T + K0)/2 for fermi, built."""
    kt = k0.transpose()
    return (kt - k0 if statistics == "bose" else kt + k0).scale(Scalar(Fraction(1, 2)))


def index_labels(fields) -> tuple[str, ...]:
    """The label of each component of the fields, in index order, each
    joined from the field name, ``f<flavor>`` when there are several
    flavors, ``c<copy>`` when there are several copies, and the component."""
    labels = []
    for f in fields:
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


def two_loop_build_kinematic(spec) -> KinematicBuild:
    """The kinematic builder with a separate loop for each flavor mode."""
    index_map = spec.index_map()
    if spec.explicit_matrix is not None:
        return KinematicBuild("built", KinematicMatrix(spec.explicit_matrix, index_map))
    epsilon = ExactMatrix([[0, 1], [-1, 0]])
    blocks = []
    if spec.flavor_mode == "antisymmetric-pair":
        for f in spec.fields:
            sym_dim, antisym_dim = _form_space_dims(f)
            pair_dim = sym_dim if not f.is_half_integer else antisym_dim
            if pair_dim == 0:
                return KinematicBuild("no_form", note=NOTE_NO_FORM, details=(f.name,))
            if pair_dim > 1:
                return KinematicBuild("not_unique", note=NOTE_NOT_UNIQUE,
                                      details=(f.name,))
            w = hermitian_basis(f.spin).form
            pair_block = _normalize_block(
                ExactMatrix.kron(ExactMatrix.identity(f.copies), w),
                SymmetryClass.SYMMETRIC)
            blocks.append(ExactMatrix.kron(epsilon, pair_block))
        return KinematicBuild("built", KinematicMatrix(_blockdiag(blocks), index_map))

    for f in spec.fields:
        sym_dim, antisym_dim = _form_space_dims(f)
        required = required_symmetry(f.spin)
        dim = antisym_dim if required is SymmetryClass.ANTISYMMETRIC else sym_dim
        if dim == 0:
            return KinematicBuild("no_form", note=NOTE_NO_FORM, details=(f.name,))
        if dim > 1:
            return KinematicBuild("not_unique", note=NOTE_NOT_UNIQUE, details=(f.name,))
        w = hermitian_basis(f.spin).form
        if required is SymmetryClass.ANTISYMMETRIC:
            block = ExactMatrix.kron(epsilon, w)
        else:
            block = w
        block = _normalize_block(block, required)
        for _ in range(f.flavors):
            blocks.append(block)
    return KinematicBuild("built", KinematicMatrix(_blockdiag(blocks), index_map))


def eigenvalue_sector_signs(diagonalization: FlavorDiagonalization) -> tuple[int, ...]:
    """One sign per eigenvalue: +1 for -i*mu, -1 for +i*mu, 0 for zero."""
    return tuple(1 if v.im < 0 else -1 if v.im > 0 else 0
                 for v in diagonalization.eigenvalues)


def dkp_algebra_by_family(betas, metric: ExactMatrix):
    """(standard failures, cube, sandwich, square sum, distinct sum) of the
    four betas under a diagonal metric, each family a tuple of
    (indices, unweighted, weighted), every form multiplied out on its own:

    - cube b_mu^3 = b_mu, weighted b_mu^3 = g_mumu b_mu;
    - sandwich b_mu b_nu b_mu = b_mu, weighted = 0 (mu != nu);
    - square sum b_mu b_nu^2 + b_nu^2 b_mu = b_mu, weighted = g_nunu b_mu;
    - distinct sum b_mu b_nu b_lam + b_lam b_nu b_mu = 0 either way.
    """
    b = betas
    zero = ExactMatrix.zeros(5)

    def g(mu):
        return metric[mu, mu]

    failures = []
    for mu, nu, lam in product(range(4), repeat=3):
        lhs = b[mu] @ b[nu] @ b[lam] + b[lam] @ b[nu] @ b[mu]
        rhs = zero
        if mu == nu:
            rhs = rhs + b[lam].scale(g(nu))
        if lam == nu:
            rhs = rhs + b[mu].scale(g(nu))
        if lhs != rhs:
            failures.append((mu, nu, lam))

    cube = tuple(((mu,), b[mu] @ b[mu] @ b[mu] == b[mu],
                  b[mu] @ b[mu] @ b[mu] == b[mu].scale(g(mu)))
                 for mu in range(4))
    pairs = [(mu, nu) for mu, nu in product(range(4), repeat=2) if mu != nu]
    sandwich = tuple(((mu, nu), b[mu] @ b[nu] @ b[mu] == b[mu],
                      b[mu] @ b[nu] @ b[mu] == zero) for mu, nu in pairs)
    square_sum = []
    for mu, nu in pairs:
        squares = b[mu] @ b[nu] @ b[nu] + b[nu] @ b[nu] @ b[mu]
        square_sum.append(((mu, nu), squares == b[mu],
                           squares == b[mu].scale(g(nu))))
    distinct = []
    for mu, nu, lam in product(range(4), repeat=3):
        if len({mu, nu, lam}) == 3:
            vanished = b[mu] @ b[nu] @ b[lam] + b[lam] @ b[nu] @ b[mu] == zero
            distinct.append(((mu, nu, lam), vanished, vanished))
    return (tuple(failures), cube, sandwich, tuple(square_sum), tuple(distinct))


# -- dense reference for the sparse matrix storage --------------------------
#
# A dense matrix is a list of rows, each a list of Scalar, zeros included.


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(f, a):
    return [[f * x for x in row] for row in a]


def dense_matmul(a, b):
    return [[sum((row[k] * b[k][j] for k in range(len(b))), start=Scalar(0))
             for j in range(len(b[0]))] for row in a]


def dense_transpose(a):
    return [list(col) for col in zip(*a)]


def dense_dagger(a):
    return [[x.conjugate() for x in row] for row in dense_transpose(a)]


def dense_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_submatrix(a, rows, cols):
    return [[a[i][j] for j in cols] for i in rows]


def dense_rref(a):
    """Gauss-Jordan with leftmost pivots: (reduced rows, pivot columns)."""
    data = [list(row) for row in a]
    pivots = []
    r = 0
    for c in range(len(data[0])):
        pivot_row = next((i for i in range(r, len(data)) if data[i][c]), None)
        if pivot_row is None:
            continue
        data[r], data[pivot_row] = data[pivot_row], data[r]
        inv = Scalar(1) / data[r][c]
        data[r] = [inv * x for x in data[r]]
        for i in range(len(data)):
            if i != r and data[i][c]:
                f = data[i][c]
                data[i] = [x - f * y for x, y in zip(data[i], data[r])]
        pivots.append(c)
        r += 1
        if r == len(data):
            break
    return data, tuple(pivots)


def dense_inverse(a):
    """Inverse by Gauss-Jordan on [A | I], or None when A is singular."""
    n = len(a)
    aug = [list(row) + [Scalar(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    reduced, pivots = dense_rref(aug)
    if pivots != tuple(range(n)):
        return None
    return [row[n:] for row in reduced]


def dense_pivoted_elimination(a):
    """The 1x1/2x2 symmetric pivot rule of ``algebra.pivoted_elimination``
    on a full dense copy, every Schur entry recomputed: (ascending index
    set, pivot blocks as nested lists)."""
    work = [list(row) for row in a]
    active = list(range(len(a)))
    selected, blocks = [], []
    while active:
        pivot = next(((i,) for i in active if work[i][i]), None)
        if pivot is None:
            pivot = next(((i, j) for k, i in enumerate(active)
                          for j in active[k + 1:] if work[i][j]), None)
        if pivot is None:
            break
        block = [[work[r][c] for c in pivot] for r in pivot]
        inv = dense_inverse(block)
        selected.extend(pivot)
        blocks.append(block)
        active = [r for r in active if r not in pivot]
        for r in active:
            factors = [sum((work[r][p] * inv[k][b] for k, p in enumerate(pivot)),
                           start=Scalar(0)) for b in range(len(pivot))]
            work[r] = [x - sum((f * work[p][c] for f, p in zip(factors, pivot)),
                               start=Scalar(0)) if c in active else x
                       for c, x in enumerate(work[r])]
    return tuple(sorted(selected)), blocks


def _matrix_json(m: ExactMatrix | None):
    return None if m is None else m.to_nested_strings()


def _flavor_json(name: str, d) -> dict:
    out = {
        "field": name,
        "is_flavor_antisymmetric": d.is_flavor_antisymmetric,
        "sector_signs": list(d.sector_signs),
        "negative_norm": d.negative_norm,
        "inverted_connection_attempt": d.inverted_connection_attempt,
        "note": d.note,
        "diagonalization": None,
        "witness": None,
    }
    if d.diagonalization is not None:
        dg = d.diagonalization
        out["diagonalization"] = {
            "exact": dg.exact,
            "eigenvalues": [str(v) for v in dg.eigenvalues],
            "diagonal": _matrix_json(dg.diagonal),
            "transformation": _matrix_json(dg.transformation),
            "column_norms_squared": [str(n) for n in dg.column_norms_squared],
        }
    if d.witness is not None:
        out["witness"] = {
            "matrix": d.witness.matrix.to_nested_strings(),
            "signature": list(d.witness.signature),
        }
    return out


def report_dict(report) -> dict:
    """The schema-v2 report as a dict with a fixed key order throughout,
    which ``json.dumps(..., indent=2)`` writes as the report JSON."""
    spec = report.spec
    kin = report.build.kinematic

    fields = []
    for v in report.verdict.verdicts:
        fields.append({
            "name": v.field,
            "spin": v.spin,
            "required_k0_symmetry": v.required_k0_symmetry.name,
            "consistent_statistics": v.consistent_statistics,
            "michel_parity": v.michel_parity,
            "statistics_declared": v.statistics_declared,
            "contradiction": v.contradiction,
        })

    labels = kin.index_map if kin is not None else spec.index_map()
    matrix = kin.matrix if kin is not None else None
    kinematic = {
        "mode": "auto" if spec.explicit_matrix is None else "explicit",
        "build_status": report.build.status,
        "note": report.build.note,
        "index_map": list(labels),
        "matrix": _matrix_json(matrix),
        "symmetry": None,
        "statistics": report.statistics,
        "invariant": None if report.invariance is None else report.invariance.ok,
        "invariance_violations": [
            {"axis": axis, "entries": [list(e) for e in entries]}
            for axis, entries in
            (report.invariance.violations if report.invariance else ())
        ],
        "constraints": None,
    }
    if matrix is not None:
        kinematic["symmetry"] = symmetry_class(matrix).name
    if report.split is not None:
        s = report.split
        kinematic["constraints"] = {
            "statistics": s.statistics,
            "canonical_indices": list(s.canonical_indices),
            "canonical_labels": [labels[i] for i in s.canonical_indices],
            "constraint_indices": list(s.constraint_indices),
            "constraint_labels": [labels[i] for i in s.constraint_indices],
        }

    return {
        "schema_version": 2,
        "theory": spec.name,
        "status": report.status,
        "fields": fields,
        "kinematic": kinematic,
        "flavor": [_flavor_json(name, d) for name, d in report.flavor_by_field],
    }
