"""Krein signature theory for linear Hamiltonian generators.

For a Hamiltonian matrix H (so JH is symmetric, J the standard form) the
indefinite Hermitian product

    g(xi, eta) = <G xi, eta>,   G = -i J,

is invariant under exp(tH).  Its restriction to the generalized
eigenspace of a purely imaginary eigenvalue i*alpha is nondegenerate
exactly when that eigenvalue is semisimple, and its inertia (p, q) is
the Krein signature.  The inertias at i*alpha and -i*alpha are swapped.

A semisimple generator therefore decomposes, symplectically, into
planes: p rotation blocks with angular velocity +alpha and q with
-alpha for every elliptic pair, plus hyperbolic planes and loxodromic
quadruples which carry no Krein data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    InputError,
    NotAnEigenvalue,
    NotHamiltonian,
    NotSemisimple,
    UnclassifiableSpectrum,
)
from .numerics import (
    DEFAULT_TOL,
    Inertia,
    Tolerances,
    as_square,
    herm_signature,
    kernel_basis,
    spectral_norm,
)
from .symplectic import is_hamiltonian, loxodromic_generator, plane_block_generator

#: relative gap below which two eigenvalues are treated as one cluster
CLUSTER_GAP = 1e-6


def _require_hamiltonian(h, tol: Tolerances):
    h = as_square(h, "generator")
    if not is_hamiltonian(h, tol):
        raise NotHamiltonian("matrix is not in the symplectic Lie algebra")
    return h


def _gap(h) -> float:
    return CLUSTER_GAP * max(1.0, spectral_norm(h))


def _cluster_eigenvalues(vals, gap):
    """Greedy clustering of close eigenvalues; returns (mean, size) pairs."""
    used = np.zeros(len(vals), dtype=bool)
    clusters = []
    for i in range(len(vals)):
        if used[i]:
            continue
        members = [i]
        used[i] = True
        for j in range(i + 1, len(vals)):
            if not used[j] and abs(vals[j] - vals[i]) <= gap:
                used[j] = True
                members.append(j)
        clusters.append((complex(np.mean(vals[members])), len(members)))
    return clusters


def _invariant_subspace(h, target: complex, gap: float):
    """Orthonormal basis of the generalized eigenspace for the cluster
    of eigenvalues within ``gap`` of ``target``."""
    t, z, sdim = scipy.linalg.schur(
        h.astype(complex), output="complex",
        sort=lambda lam: abs(lam - target) <= gap,
    )
    if sdim == 0:
        raise NotAnEigenvalue("no eigenvalue within %.2e of %s" % (gap, target))
    return z[:, :sdim]


def krein_form_matrix(n: int):
    """The Hermitian matrix G = -i J on C^(2n)."""
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([[zero, 1j * eye], [-1j * eye, zero]])


def krein_signature(h, alpha: float, tol: Tolerances = DEFAULT_TOL) -> Inertia:
    """Inertia of the Krein form on the generalized eigenspace of i*alpha.

    ``alpha`` is the real number such that i*alpha is the eigenvalue of
    interest; it must match an actual eigenvalue of ``h`` up to the
    cluster gap, otherwise NotAnEigenvalue is raised.
    """
    h = _require_hamiltonian(h, tol)
    gap = _gap(h)
    target = 1j * float(alpha)
    z = _invariant_subspace(h, target, gap)
    g = krein_form_matrix(h.shape[0] // 2)
    m = z.conj().T @ g @ z
    return herm_signature(m, tol)


@dataclass(frozen=True)
class KreinEigenvalue:
    """One eigenvalue cluster of a Hamiltonian generator."""

    eigenvalue: complex
    multiplicity: int
    #: Krein inertia, present only for purely imaginary eigenvalues
    inertia: Optional[Inertia]


def krein_spectrum(h, tol: Tolerances = DEFAULT_TOL):
    """All eigenvalue clusters of ``h`` with Krein data where defined."""
    h = _require_hamiltonian(h, tol)
    gap = _gap(h)
    out = []
    for lam, mult in _cluster_eigenvalues(np.linalg.eigvals(h), gap):
        if abs(lam.real) <= gap:
            inertia = krein_signature(h, lam.imag, tol)
        else:
            inertia = None
        out.append(KreinEigenvalue(lam, mult, inertia))
    return out


def is_semisimple(h, tol: Tolerances = DEFAULT_TOL, rank_gap: float = 1e-7) -> bool:
    """Whether every eigenvalue of ``h`` has a full set of eigenvectors."""
    h = as_square(h, "generator")
    gap = _gap(h)
    scale = max(1.0, spectral_norm(h))
    loose = replace(tol, eps_rank=rank_gap)
    for lam, mult in _cluster_eigenvalues(np.linalg.eigvals(h), gap):
        shifted = h.astype(complex) - lam * np.eye(h.shape[0])
        # relative rank threshold keyed to the size of h, not of shifted
        geo = kernel_basis(shifted / scale, loose).shape[1]
        if geo != mult:
            return False
    return True


@dataclass(frozen=True)
class NormalFormBlock:
    """One plane (or quadruple) of the symplectic normal form."""

    kind: str  # "rotation" | "hyperbolic" | "loxodromic" | "zero"
    parameters: tuple
    multiplicity: int = 1

    @property
    def dim(self) -> int:
        size = 4 if self.kind == "loxodromic" else 2
        return size * self.multiplicity


def classify_normal_form(h, tol: Tolerances = DEFAULT_TOL):
    """Symplectic normal form of a semisimple Hamiltonian generator.

    Returns a list of NormalFormBlock whose total dimension is that of
    ``h``: rotation blocks with signed angular velocities determined by
    the Krein signature, hyperbolic planes for real pairs, loxodromic
    quadruples for genuinely complex eigenvalues.
    """
    h = _require_hamiltonian(h, tol)
    if not is_semisimple(h, tol):
        raise NotSemisimple("generator has a nontrivial Jordan block")
    gap = _gap(h)
    clusters = _cluster_eigenvalues(np.linalg.eigvals(h), gap)
    blocks = []
    seen_real = {}
    seen_quad = {}
    for lam, mult in clusters:
        if abs(lam) <= gap:
            if mult % 2 != 0:
                raise UnclassifiableSpectrum("odd multiplicity at zero")
            blocks.append(NormalFormBlock("zero", (), mult // 2))
        elif abs(lam.real) <= gap:
            alpha = lam.imag
            if alpha <= 0:
                continue  # handled together with the conjugate
            inertia = krein_signature(h, alpha, tol)
            if inertia.n_zero:
                raise NotSemisimple("degenerate Krein form at i*%g" % alpha)
            if inertia.n_pos:
                blocks.append(NormalFormBlock("rotation", (alpha,), inertia.n_pos))
            if inertia.n_neg:
                blocks.append(NormalFormBlock("rotation", (-alpha,), inertia.n_neg))
        elif abs(lam.imag) <= gap:
            beta = abs(lam.real)
            seen_real.setdefault(round(beta / gap), []).append((beta, mult))
        else:
            key = (round(abs(lam.real) / gap), round(abs(lam.imag) / gap))
            seen_quad.setdefault(key, []).append((lam, mult))
    for entries in seen_real.values():
        if len(entries) != 2 or entries[0][1] != entries[1][1]:
            raise UnclassifiableSpectrum("unpaired real eigenvalue")
        beta = entries[0][0]
        blocks.append(NormalFormBlock("hyperbolic", (beta,), entries[0][1]))
    for entries in seen_quad.values():
        if len(entries) != 4 or len({m for _, m in entries}) != 1:
            raise UnclassifiableSpectrum("incomplete loxodromic quadruple")
        lam = max((e[0] for e in entries), key=lambda z: (z.real, z.imag))
        blocks.append(NormalFormBlock("loxodromic", (lam.real, lam.imag), entries[0][1]))
    return blocks


def krein_positive_angles(h, tol: Tolerances = DEFAULT_TOL):
    """Signed angular velocities of the rotation planes of ``h``.

    Every elliptic eigenvalue pair +-i*alpha contributes its Krein
    inertia (p, q) as p copies of +alpha and q copies of -alpha; other
    spectrum contributes nothing.  Sorted ascending.
    """
    angles = []
    for block in classify_normal_form(h, tol):
        if block.kind == "rotation":
            angles.extend([block.parameters[0]] * block.multiplicity)
    return sorted(angles)


def normal_form_matrix(blocks):
    """Block-diagonal generator realizing a list of NormalFormBlock.

    The result lives in the standard space of total dimension
    sum(block.dim); planes are embedded so the global form stays the
    standard one.
    """
    pieces = []
    for block in blocks:
        for _ in range(block.multiplicity):
            if block.kind == "rotation":
                pieces.append(plane_block_generator([("elliptic", block.parameters[0])]))
            elif block.kind == "hyperbolic":
                pieces.append(plane_block_generator([("hyperbolic", block.parameters[0])]))
            elif block.kind == "zero":
                pieces.append(np.zeros((2, 2)))
            elif block.kind == "loxodromic":
                pieces.append(loxodromic_generator(*block.parameters))
            else:
                raise InputError("unknown block kind %r" % block.kind)
    return standard_direct_sum(pieces)


def standard_direct_sum(generators):
    """Assemble generators of standard spaces into one standard space.

    Plain block-diagonal stacking would scramble the (x, y) coordinate
    split, so each summand is scattered into the x- and y-index ranges
    it owns.
    """
    if not generators:
        raise InputError("need at least one generator")
    halves = []
    for g in generators:
        g = as_square(g, "generator")
        if g.shape[0] % 2 != 0:
            raise InputError("generators must have even size")
        halves.append(g.shape[0] // 2)
    n = sum(halves)
    out = np.zeros((2 * n, 2 * n))
    offset = 0
    for g, k in zip(generators, halves):
        idx = list(range(offset, offset + k)) + list(range(n + offset, n + offset + k))
        out[np.ix_(idx, idx)] = g
        offset += k
    return out
