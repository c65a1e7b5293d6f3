"""Flavor-antisymmetrized kinematic terms and their negative-norm states.

Antisymmetrizing the kinematic matrix over a 2-valued internal label makes
the full matrix block off-diagonal, [[0, M], [-M, 0]].  Diagonalizing that
flavor structure splits the theory into sectors whose kinematic terms carry
opposite signs, and the minus sector is a Hilbert space with negative-norm
states.  This module detects the pattern, reads the sector signs off the
inertia of the hermitian form i*K0 by elimination, so no eigenvalue is
needed, writes down the diagonalization in closed form for the diagonal
pairings the builder emits, and attaches the concrete one-quantum
negative-norm witness; all of it in exact arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import lcm

from .algebra import (
    I,
    ONE,
    DimensionError,
    ExactMatrix,
    Scalar,
    SymmetryClass,
    hermitian_signature,
    self_check,
    symmetry_class,
)
from .fock import GramResult, gram_matrix, parse_relation_table
from .invariance import required_symmetry

__all__ = [
    "FlavorSplit",
    "detect_flavor_antisymmetry",
    "FlavorDiagonalization",
    "diagonalize_flavor",
    "FlavorDiagnosis",
    "sector_sign_analysis",
    "flavor_diagnosis",
]


class FlavorSplit(namedtuple(
        "FlavorSplit", "is_flavor_antisymmetric block note",
        defaults=(None, None))):
    """Outcome of testing a kinematic matrix for flavor antisymmetry.

    ``block`` is the flavor ExactMatrix or None, ``note`` a str or None.
    """

    __slots__ = ()


def detect_flavor_antisymmetry(m: ExactMatrix) -> FlavorSplit:
    """Check for the [[0, M], [-M, 0]] pattern over two flavor halves.

    Returns the off-diagonal block M on success.  A matrix of odd dimension
    cannot carry a 2-valued flavor label, which is reported as a note rather
    than an error so callers can pass any kinematic matrix through.
    """
    if not m.is_square:
        raise DimensionError("flavor detection needs a square matrix")
    if m.rows % 2:
        return FlavorSplit(False, None, "odd dimension cannot split into two flavors")
    h = m.rows // 2
    rows = m._rows
    # Each bottom entry must be minus the block (M) entry at its position.
    # The block holds each top entry at its column less h, so a top-left
    # entry sits at a negative column and a bottom-right entry finds no
    # partner.  As many bottom entries as top entries then means each top
    # entry is an M entry with its partner, since no zero is stored.
    block = [{j - h: x for j, x in row.items()} for row in rows[:h]]
    count = 0
    for i, row in enumerate(rows[h:]):
        top = block[i]
        for j, x in row.items():
            y = top.get(j)
            if y is None or y._a != -x._a or y._b != -x._b or y._d != x._d:
                return FlavorSplit(False)
        count += len(row)
    if not count or count != sum(map(len, block)):
        return FlavorSplit(False)
    return FlavorSplit(True, ExactMatrix._from_rows(h, block))


class FlavorDiagonalization(namedtuple(
        "FlavorDiagonalization",
        "exact eigenvalues diagonal transformation column_norms_squared")):
    """Spectral data of an antisymmetric flavor matrix.

    `eigenvalues` is a tuple of Scalar, `diagonal` an ExactMatrix.
    `transformation` is an ExactMatrix of unnormalized eigenvector columns
    with rational-complex entries and `column_norms_squared` a tuple of
    real Scalar, their squared lengths, so unitarity reads V-dagger V =
    diag(norms) exactly.  Every entry is exact, so `exact` is always true.
    """

    __slots__ = ()


def diagonalize_flavor(lam: ExactMatrix) -> FlavorDiagonalization:
    """Diagonalize a flavor pairing [[0, W], [-W, 0]] with W diagonal and
    positive, the shape build_kinematic emits, eigenvalues ascending by
    imaginary part (so the 2x2 unit case gives diag(-i, i)).

    The spectrum is +-i*w_k: column e_k - i*e_{h+k} carries -i*w_k and its
    conjugate +i*w_k, each of squared norm 2.  The -i*w columns come first,
    largest w first, then the +i*w columns, smallest w first; equal w keep
    ascending k.  The pairing makes the diagonal traceless.  Any other
    matrix raises ValueError; its sector signs still come exactly from
    flavor_diagnosis.
    """
    return _diagonalize(lam, detect_flavor_antisymmetry(lam))


def _diagonalize(lam: ExactMatrix, split: FlavorSplit) -> FlavorDiagonalization:
    """diagonalize_flavor on a matrix whose detection outcome is known."""
    h = lam.rows // 2
    w = [split.block[k, k] for k in range(h)] if split.is_flavor_antisymmetric else []
    if (not w or split.block != ExactMatrix.diagonal(w)
            or not all(x.is_real and x._a > 0 for x in w)):
        raise ValueError(
            "flavor diagonalization needs a real antisymmetric pairing "
            "[[0, W], [-W, 0]] with W diagonal and positive")

    # column e_k + phase*e_{h+k} has eigenvalue phase*w_k; the weights
    # compare as their numerators over one common denominator
    scale = lcm(*(x._d for x in w))
    size = [x._a * (scale // x._d) for x in w]
    order = ([(k, -I) for k in sorted(range(h), key=lambda k: (-size[k], k))]
             + [(k, I) for k in sorted(range(h), key=lambda k: (size[k], k))])
    eigenvalues = [phase * w[k] for k, phase in order]
    # column t of V is e_k + phase*e_{h+k} for the t-th (k, phase)
    v_rows: list[dict[int, Scalar]] = [{} for _ in range(lam.rows)]
    for t, (k, phase) in enumerate(order):
        v_rows[k][t] = ONE
        v_rows[h + k][t] = phase
    v_matrix = ExactMatrix._from_rows(lam.rows, v_rows)
    norms = (Scalar(2),) * lam.rows
    diagonal = ExactMatrix.diagonal(eigenvalues)
    self_check(v_matrix.dagger() @ v_matrix == ExactMatrix.diagonal(norms),
               "flavor eigenvectors fail V-dagger V = diag(norms)")
    self_check(lam @ v_matrix == v_matrix @ diagonal,
               "flavor eigenvectors fail the eigen-equation")

    return FlavorDiagonalization(
        exact=True,
        eigenvalues=tuple(eigenvalues),
        diagonal=diagonal,
        transformation=v_matrix,
        column_norms_squared=norms,
    )


class FlavorDiagnosis(namedtuple(
        "FlavorDiagnosis",
        "is_flavor_antisymmetric diagonalization sector_signs negative_norm"
        " inverted_connection_attempt witness note",
        defaults=(None, (), False, False, None, None))):
    """Full flavor verdict: sector signs, norm defect, and the witness.

    ``diagonalization`` is a FlavorDiagonalization or None,
    ``sector_signs`` a tuple of +1/-1, ``witness`` the GramResult of the
    negative-norm state or None, and ``note`` a str or None.  The defaults
    are those of a matrix that is not diagnosed: no diagonalization, no
    signs, no negative norm, no inversion, no witness and no note.
    """

    __slots__ = ()


def _inertia_signs(x: ExactMatrix) -> list[int]:
    """Sector signs of a real antisymmetric or imaginary diagonal X: the
    inertia of the hermitian form i*X, +1 for each positive eigenvalue
    (i*X maps the -i*mu eigenvectors of X to +mu), then 0 for each zero,
    then -1 for each negative one."""
    positives, negatives, zeros = hermitian_signature(x.scale(I))
    return [1] * positives + [0] * zeros + [-1] * negatives


@lru_cache(maxsize=None)
def _negative_norm_witness() -> GramResult:
    """One-quantum state of squared norm -1 in the minus sector.

    Either bracket kind exhibits the same Gram entry from a -1 pairing;
    the anticommutator presentation is used throughout.  The result is a
    constant and immutable, so it is built once.
    """
    table = parse_relation_table("bracket = anticommutator\npair c ddag = -1")
    witness = gram_matrix([("ddag",)], table)
    self_check(witness.signature == (0, 1, 0),
               "negative-norm witness does not have gram signature (0, 1, 0)")
    return witness


def _diagnosis(signs, diagonalization, block, spin, note=None) -> FlavorDiagnosis:
    negative = -1 in signs
    inverted = (spin is not None and block is not None
                and required_symmetry(spin) is SymmetryClass.ANTISYMMETRIC
                and symmetry_class(block) is SymmetryClass.SYMMETRIC)
    return FlavorDiagnosis(
        is_flavor_antisymmetric=True,
        diagonalization=diagonalization,
        sector_signs=tuple(signs),
        negative_norm=negative,
        inverted_connection_attempt=inverted,
        witness=_negative_norm_witness() if negative else None,
        note=note,
    )


def sector_sign_analysis(
    diagonalization: FlavorDiagonalization,
    block: ExactMatrix | None = None,
    spin=None,
) -> FlavorDiagnosis:
    """Signs of the diagonalized kinematic terms, one per sector.

    Eigenvalue -i*mu carries the +1 sector and +i*mu the -1 sector; a zero
    eigenvalue contributes no kinematic term and is reported as 0.  The
    signs are the inertia of i*D for the diagonal D, the rule
    flavor_diagnosis applies to K0, so they follow the eigenvalues when
    those ascend by imaginary part, as diagonalize_flavor emits them.  Any
    -1 flags negative_norm and attaches a Fock-space witness.  The
    inverted connection attempt is the integral-spin theory whose flavor
    block is symmetric, the combination that would have made integral-spin
    fields anticommute.
    """
    signs = _inertia_signs(diagonalization.diagonal)
    return _diagnosis(signs, diagonalization, block, spin)


def flavor_diagnosis(k0: ExactMatrix, spin=None) -> FlavorDiagnosis:
    """Run the whole flavor pipeline on a kinematic matrix.

    Matrices without the flavor-antisymmetric pattern keep the usual
    arguments intact: every sector sign is +1 by the normalization
    convention and there is nothing to diagonalize.  For a real
    antisymmetric K0 the sector signs are the inertia of the hermitian
    form i*K0, the rule sector_sign_analysis applies to the diagonal.
    The eigenvalues of K0 come in pairs +-i*mu, so the +1 and -1 counts
    are checked to be equal.  No eigenvalue is needed, so the signs are
    exact for any such K0; the diagonalization is attached when K0 has
    the shape diagonalize_flavor handles.
    """
    split = detect_flavor_antisymmetry(k0)
    if not split.is_flavor_antisymmetric:
        if k0.rows % 2:  # no sectors
            return FlavorDiagnosis(False, note=split.note)
        return FlavorDiagnosis(False, sector_signs=(1, 1))
    if symmetry_class(k0) is not SymmetryClass.ANTISYMMETRIC or not k0.is_real():
        return FlavorDiagnosis(True, note="flavor block is not a real symmetric "
                                          "form; sector diagonalization not attempted")
    signs = _inertia_signs(k0)
    self_check(signs.count(1) == signs.count(-1),
               "a real antisymmetric kinematic matrix has unequal +1 and -1 sectors")
    try:
        diagonalization, note = _diagonalize(k0, split), None
    except ValueError:
        diagonalization = None
        note = ("flavor block is not diagonal and positive; sector signs "
                "from the inertia of i*K0, no diagonalization attached")
    return _diagnosis(signs, diagonalization, split.block, spin, note)
