"""Dense linear-algebra kernels shared by every index computation.

The rank, signature and symmetry decisions on the inputs and results of
a route read one ``Tolerances`` object, its fields in (0, 1).  A few
fixed thresholds do not: ``krein.CLUSTER_GAP`` and ``krein.EIGENSPACE_RANK``
(the partition of ``krein._clusters`` and the rank rule of its kernels),
``krein._MARGIN`` (the safety factor of the certificates of
``krein._certified_pass``), ``maslov.GRAY_FACTOR`` (the gray band of
crossing forms), the 1e-10 and 1e-12 checks of a ``SymplecticSpace``
form, and the condition bound 1e7 under which ``maslov._flow_record``
diagonalizes a generator.  Every signature is measured on one scale:
1 + the largest |eigenvalue| of its symmetric (or Hermitian) matrix,
which ``band_counts`` takes from the eigenvalues it classifies.
Matrices are plain numpy arrays; constructors validate shape and
finiteness at the operation boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import AsymmetricInput, InputError, NonHermitianInput, OddDimension


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds, each a float in (0, 1), else ValueError.

    eps_rank : singular values below ``eps_rank * sigma_max`` count as zero
    eps_sym  : admissible relative symmetry defect
    eps_sign : relative degeneracy band when counting eigenvalue signs
    """

    eps_rank: float = 1e-9
    eps_sym: float = 1e-8
    eps_sign: float = 1e-8

    def __post_init__(self):
        for name in ("eps_rank", "eps_sym", "eps_sign"):
            value = getattr(self, name)
            if not (isinstance(value, float) and 0.0 < value < 1.0):  # nan and inf fail
                raise ValueError("%s must be a float in (0, 1)" % name)


DEFAULT_TOL = Tolerances()


def as_tolerances(tol) -> Tolerances:
    """``tol`` itself if it is a ``Tolerances``, else InputError: the one
    check of every ``tol`` argument."""
    if not isinstance(tol, Tolerances):
        raise InputError("tol must be a Tolerances, got %r" % (tol,))
    return tol


def as_real(x, name: str) -> float:
    """``x`` as a float, else InputError for a bool or a non-``numbers.Real``:
    the one check of a real scalar.  An int beyond the doubles is inf."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InputError("%s must be a real number, got %r" % (name, x))
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def as_int(x, name: str) -> int:
    """``x`` (numpy integers too) as an int, else InputError for a bool or a
    non-``numbers.Integral``: the one check of an integer argument."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise InputError("%s must be an integer, got %r" % (name, x))
    return int(x)


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and numerically-zero eigenvalues."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def dim(self) -> int:
        return self.n_pos + self.n_neg + self.n_zero

    @property
    def signature(self) -> int:
        return self.n_pos - self.n_neg

    @property
    def pair(self) -> tuple:
        return (self.n_pos, self.n_neg)

    def __str__(self):
        return "(p=%d, q=%d, z=%d)" % (self.n_pos, self.n_neg, self.n_zero)


def as_matrix(a, name="matrix", dtype=float):
    """``a`` as a finite 2-d ndarray of ``dtype``: the one check of a
    matrix operand.

    Ragged or non-numeric input raises InputError.  For a real dtype a
    complex input is accepted only when every imaginary part is zero,
    so no imaginary part is ever dropped silently.
    """
    try:
        m = np.asarray(a)
        if np.iscomplexobj(m) and not np.issubdtype(dtype, np.complexfloating):
            if np.any(m.imag != 0):
                raise InputError("%s has a nonzero imaginary part" % name)
            m = m.real
        m = np.asarray(m, dtype=dtype)
    except (TypeError, ValueError):
        raise InputError("%s must be a rectangular array of numbers" % name)
    if m.ndim != 2:
        raise InputError("%s must be 2-dimensional, got ndim=%d" % (name, m.ndim))
    if not np.isfinite(m).all():
        raise InputError("%s contains non-finite entries" % name)
    return m


def as_square(a, name="matrix", dtype=float):
    m = as_matrix(a, name, dtype)
    if m.shape[0] != m.shape[1]:
        raise InputError("%s must be square, got shape %s" % (name, m.shape))
    return m


def as_even_square(a, name="matrix"):
    """``as_square`` of even size, else OddDimension: the one size check
    of symplectic forms, generators and symplectic matrices."""
    m = as_square(a, name)
    if m.shape[0] % 2 != 0:
        raise OddDimension("%s must have even size, got %d" % (name, m.shape[0]))
    return m


def spectral_norm(m) -> float:
    """The largest singular value of ``m``, 0 for an empty matrix; the
    same float as ``np.linalg.norm(m, 2)``, which also computes the
    smallest."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _signature(s, tol: Tolerances, margin: float, hermitian: bool):
    """(inertia, stable) of the symmetric or Hermitian part of ``s``; see
    ``sym_signature`` and ``stable_signature``.  Real input stays real."""
    tol = as_tolerances(tol)
    if hermitian:
        s = as_square(s, "hermitian matrix", dtype=complex)
    else:
        s = as_square(s, "symmetric matrix")
    n_pos, n_neg, stable = _signatures([s], tol, margin, hermitian)
    n_pos, n_neg = int(n_pos[0]), int(n_neg[0])
    return Inertia(n_pos, n_neg, s.shape[0] - n_pos - n_neg), bool(stable[0])


def _signatures(mats, tol: Tolerances, margin: float, hermitian: bool):
    """``band_counts`` of the symmetric or Hermitian part of each finite
    square matrix of the list ``mats``, in order: ``_form_counts`` with
    the check and the symmetrization of each stack of one size.  A
    matrix whose defect |s - s*|_F exceeds ``eps_sym`` (1 + |s|_F)
    raises NonHermitianInput or AsymmetricInput."""
    def part(s):
        adj = np.swapaxes(s.conj() if hermitian else s, -1, -2)
        defect = np.linalg.norm(s - adj, axis=(-2, -1))
        bad = defect > tol.eps_sym * (1.0 + np.linalg.norm(s, axis=(-2, -1)))
        if bad.any():
            first = float(defect[bad][0])
            if hermitian:
                raise NonHermitianInput("hermitian defect %.3e too large" % first)
            raise AsymmetricInput("symmetry defect %.3e too large" % first)
        return 0.5 * (s + adj)
    return _form_counts(mats, tol, margin, part)


def _form_counts(forms, tol: Tolerances, margin: float, part=None):
    """``band_counts`` of each matrix of the list ``forms``, in order:
    of the matrix itself, which must then be symmetric or Hermitian
    entry for entry (a form built so by construction), or, given
    ``part``, of ``part`` of the stack of the matrices of its size
    (``_signatures`` passes its check and symmetrization).  The forms of
    one size take one ``eigvalsh``, and without ``part`` a size held by
    one form takes that form, with no stack copy; all eigenvalue rows,
    padded with zeros (which change no count, scale or band), take one
    ``band_counts``: the one grouping of the package."""
    sizes = {}
    for j, m in enumerate(forms):
        sizes.setdefault(m.shape[0], []).append(j)
    eigs = np.zeros((len(forms), max(sizes, default=0)))
    for size, idx in sizes.items():
        lone = part is None and len(idx) == 1
        s = forms[idx[0]] if lone else np.array([forms[j] for j in idx])
        if part is not None:
            s = part(s)
        if size:
            eigs[idx, :size] = np.linalg.eigvalsh(s)
    return band_counts(eigs, tol, margin)


def band_counts(eigs, tol: Tolerances, margin: float):
    """(n_pos, n_neg, stable) of the eigenvalue rows ``eigs[..., k]``,
    the one gray-band decision of the package.

    Each row is measured against its scale, 1 + its largest |eigenvalue|
    (for a symmetric or Hermitian matrix, 1 + its spectral norm).
    Eigenvalues within ``eps_sign * scale`` of zero count as zero; a
    row is stable when none of its eigenvalues lies between that zero
    band and ``margin * scale``.
    """
    w = np.abs(eigs)
    scale = 1.0 + w.max(axis=-1, initial=0.0, keepdims=True)
    band = tol.eps_sign * scale
    n_pos = (eigs > band).sum(-1)
    n_neg = (eigs < -band).sum(-1)
    stable = ~((w > band) & (w < margin * scale)).any(-1)
    return n_pos, n_neg, stable


def sym_signature(s, tol: Tolerances = DEFAULT_TOL) -> Inertia:
    """Inertia of a real symmetric matrix.

    The input is symmetrized after checking that the symmetry defect is
    below ``eps_sym`` relative to the matrix norm.  Eigenvalues within
    ``eps_sign * (1 + the largest |eigenvalue|)`` of zero count as zero
    (``band_counts``), so the band is relative for large matrices and
    has an absolute floor for small ones.
    """
    return _signature(s, tol, 0.0, hermitian=False)[0]


def herm_signature(s, tol: Tolerances = DEFAULT_TOL) -> Inertia:
    """Inertia of a complex Hermitian matrix; see ``sym_signature``."""
    return _signature(s, tol, 0.0, hermitian=True)[0]


def stable_signature(s, margin: float,
                     tol: Tolerances = DEFAULT_TOL) -> Tuple[Inertia, bool]:
    """Inertia of a real symmetric matrix and whether it is stable.

    Stable means no eigenvalue falls in the gray band between the zero
    band of ``sym_signature`` and ``margin * (1 + the largest
    |eigenvalue|)``, so the signature cannot flip under perturbations
    of that size.
    """
    return _signature(s, tol, margin, hermitian=False)


def _pade_weights(coeffs):
    """Weights on the powers (I, a^2, a^4, ...) of the linear combinations
    of a diagonal Padé approximant: rows (odd, even) below degree 13, and
    at degree 13 (odd low, even low, odd high, even high), the high ones
    multiplied by a^6 (Higham 2005, (2.3) and (2.4))."""
    odd, even = coeffs[1::2], coeffs[::2]
    if len(coeffs) < 14:
        return np.array([odd, even])
    return np.array([odd[:4], even[:4], (0.0,) + odd[4:], (0.0,) + even[4:]])


#: (theta, weights) of the diagonal Padé approximants of degree 3, 5, 7,
#: 9 and 13: below 1-norm theta an approximant is exact to unit roundoff
#: in double precision (Higham 2005, Table 2.3)
_PADE = tuple((theta, _pade_weights(coeffs)) for theta, coeffs in (
    (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                            1512.0, 56.0, 1.0)),
    (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                           30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
                           1187353796428800.0, 129060195264000.0, 10559470521600.0,
                           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
                           960960.0, 16380.0, 182.0, 1.0)),
))


def expm(a):
    """exp of a square matrix, or of each matrix of a stack ``a[..., d, d]``,
    real or complex, by scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26, 2005).

    A matrix whose 1-norm is within one of the Padé thetas takes the
    lowest such degree; else degree 13 after halving it s times to within
    theta_13, and the result is squared s times.  Each matrix of a stack
    takes the degree and squarings of its own norm, through the same
    products as alone, so it equals ``expm`` of that matrix alone bit for
    bit.
    """
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(float)
    stack = a.reshape((-1,) + a.shape[-2:])
    groups = {}
    for k, norm in enumerate(np.abs(stack).sum(axis=-2).max(axis=-1, initial=0.0).tolist()):
        groups.setdefault(_pade_plan(norm), []).append(k)
    out = np.empty_like(stack)
    for plan, rows in groups.items():
        out[rows] = _pade_square(stack[rows], *plan)
    return out.reshape(a.shape)


def _pade_plan(norm: float):
    """(degree index into ``_PADE``, squarings) for a matrix of 1-norm
    ``norm``; a non-finite norm takes degree 13 unscaled."""
    for index, (theta, _) in enumerate(_PADE):
        if norm <= theta:
            return index, 0
    if not math.isfinite(norm):
        return len(_PADE) - 1, 0
    return len(_PADE) - 1, math.ceil(math.log2(norm / _PADE[-1][0]))


def _pade_square(a, index: int, squarings: int):
    """The stack exp(a) from the Padé approximant ``_PADE[index]`` at
    a / 2^squarings, squared back."""
    if squarings:
        a = a * 2.0 ** -squarings
    weights = _PADE[index][1]
    powers = np.empty((weights.shape[1],) + a.shape, dtype=a.dtype)
    powers[0] = np.eye(a.shape[-1])
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    combos = np.add.reduce(weights[:, :, None, None, None] * powers, axis=1)
    if len(combos) == 4:
        u_lo, v_lo, u_hi, v_hi = combos
        u = a @ (powers[3] @ u_hi + u_lo)
        v = powers[3] @ v_hi + v_lo
    else:
        u, v = a @ combos[0], combos[1]
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def singular_values(m):
    m = np.asarray(m)
    if m.size == 0:
        return np.empty(0)
    return np.linalg.svd(m, compute_uv=False)


def kernel_basis(m, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of the (right) null space, columns of the result.

    Works for real and complex input.  Rank is decided relative to the
    largest singular value; a zero matrix therefore has a full kernel.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise InputError("kernel_basis expects a 2-d array")
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=m.dtype)
    if rows == 0:
        return np.eye(cols, dtype=m.dtype)
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(np.imag(m))):
        raise InputError("kernel_basis input contains non-finite entries")
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    rank = int(np.sum(s > tol.eps_rank * s[0])) if s.size else 0
    return vh[rank:].conj().T


def orthonormal_columns(f, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of the column span (SVD based, rank-revealing)."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise InputError("orthonormal_columns expects a 2-d array")
    if f.shape[1] == 0 or f.size == 0:
        return np.zeros((f.shape[0], 0))
    u, s, _ = np.linalg.svd(f, full_matrices=False)
    rank = int(np.sum(s > tol.eps_rank * s[0])) if s.size else 0
    return u[:, :rank]
