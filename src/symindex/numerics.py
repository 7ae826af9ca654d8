"""Dense linear-algebra kernels shared by every index computation.

All rank, signature and symmetry decisions route through a single
``Tolerances`` object so the numerical hair-trigger points of the
package are controlled in one place.  Matrices are plain numpy arrays;
constructors validate shape and finiteness at the operation boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import AsymmetricInput, InputError, NonHermitianInput, OddDimension


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds.

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
            if not (isinstance(value, float) and value > 0.0):
                raise ValueError("%s must be a positive float" % name)


DEFAULT_TOL = Tolerances()


def as_tolerances(tol) -> Tolerances:
    """``tol`` itself if it is a ``Tolerances``, else InputError: the one
    check of every ``tol`` argument."""
    if not isinstance(tol, Tolerances):
        raise InputError("tol must be a Tolerances, got %r" % (tol,))
    return tol


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
    if not np.all(np.isfinite(m)):
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
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _signature(s, tol: Tolerances, scale, margin: float, hermitian: bool):
    """(inertia, stable) of the symmetric or Hermitian part of ``s``; see
    ``sym_signature`` and ``stable_signature``.  Real input stays real."""
    tol = as_tolerances(tol)
    if hermitian:
        s = as_square(s, "hermitian matrix", dtype=complex)
        adj = s.conj().T
    else:
        s = as_square(s, "symmetric matrix")
        adj = s.T
    defect = np.linalg.norm(s - adj)
    if defect > tol.eps_sym * (1.0 + np.linalg.norm(s)):
        if hermitian:
            raise NonHermitianInput("hermitian defect %.3e too large" % defect)
        raise AsymmetricInput("symmetry defect %.3e too large" % defect)
    eigs = np.linalg.eigvalsh(0.5 * (s + adj)) if s.size else np.empty(0)
    if scale is None:
        scale = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    n_pos, n_neg, stable = band_counts(eigs, np.asarray(scale), tol, margin)
    n_pos, n_neg = int(n_pos), int(n_neg)
    return Inertia(n_pos, n_neg, int(eigs.size - n_pos - n_neg)), bool(stable)


def band_counts(eigs, scale, tol: Tolerances, margin: float):
    """(n_pos, n_neg, stable) of the eigenvalue rows ``eigs[..., k]``
    against ``scale[...]``, the one gray-band decision of the package.

    Eigenvalues within ``eps_sign * scale`` of zero count as zero; a
    row is stable when none of its eigenvalues lies between that zero
    band and ``margin * scale``.
    """
    w = np.abs(eigs)
    band = tol.eps_sign * scale[..., None]
    n_pos = np.sum(eigs > band, axis=-1)
    n_neg = np.sum(eigs < -band, axis=-1)
    stable = ~np.any((w > band) & (w < margin * scale[..., None]), axis=-1)
    return n_pos, n_neg, stable


def sym_signature(s, tol: Tolerances = DEFAULT_TOL, scale=None) -> Inertia:
    """Inertia of a real symmetric matrix.

    The input is symmetrized after checking that the symmetry defect is
    below ``eps_sym`` relative to the matrix norm.  Eigenvalues within
    ``eps_sign * scale`` of zero are counted as zero; ``scale``
    defaults to the spectral radius of the symmetrized input, and may
    be overridden when an absolute floor is appropriate (for example
    when classifying crossing forms that are identically zero).
    """
    return _signature(s, tol, scale, 0.0, hermitian=False)[0]


def herm_signature(s, tol: Tolerances = DEFAULT_TOL, scale=None) -> Inertia:
    """Inertia of a complex Hermitian matrix; see ``sym_signature``."""
    return _signature(s, tol, scale, 0.0, hermitian=True)[0]


def stable_signature(s, margin: float, tol: Tolerances = DEFAULT_TOL,
                     scale=None) -> Tuple[Inertia, bool]:
    """Inertia of a real symmetric matrix and whether it is stable.

    Stable means no eigenvalue falls in the gray band between the zero
    band of ``sym_signature`` and ``margin * scale``, so the signature
    cannot flip under perturbations of that size.
    """
    return _signature(s, tol, scale, margin, hermitian=False)


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
