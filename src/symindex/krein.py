"""Krein signature theory for linear Hamiltonian generators.

For a Hamiltonian matrix H (so JH is symmetric, J the standard form) the
indefinite Hermitian product

    g(xi, eta) = <G xi, eta>,   G = -i J,

is invariant under exp(tH).  Its restriction to the generalized
eigenspace of a purely imaginary eigenvalue i*alpha (the eigenspace, if
i*alpha is semisimple) is nondegenerate, semisimple or not; its inertia
(p, q) is the Krein signature, and the one at -i*alpha is (q, p).

A semisimple generator therefore decomposes, symplectically, into
planes: p rotation blocks with angular velocity +alpha and q with
-alpha for every elliptic pair, plus hyperbolic planes and loxodromic
quadruples which carry no Krein data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InputError, NotAnEigenvalue, NotSemisimple, UnclassifiableSpectrum
from .numerics import (DEFAULT_TOL, Inertia, Tolerances, as_even_square, as_square,
                       as_tolerances, herm_signature, kernel_basis, spectral_norm)
from .symplectic import SymplecticSpace, _generator, loxodromic_generator, plane_block_generator

#: relative gap below which two eigenvalues are treated as one cluster
CLUSTER_GAP = 1e-6


def _gap(h) -> float:
    return CLUSTER_GAP * max(1.0, spectral_norm(h))


def _cluster_eigenvalues(vals, gap):
    """Greedy clustering of close eigenvalues; returns (mean, size) pairs."""
    free, clusters = list(range(len(vals))), []
    while free:
        members = [j for j in free if abs(vals[j] - vals[free[0]]) <= gap]
        free = [j for j in free if j not in members]
        clusters.append((complex(np.mean(vals[members])), len(members)))
    return clusters


#: relative rank rule of eigenspaces (see ``_eigenspaces``)
EIGENSPACE_RANK = 1e-7


def _eigenspaces(h, tol: Tolerances):
    """(gap, eigenvalues, [(eigenvalue, multiplicity, kernel)]) for the
    clusters of a square ``h``, from one eigvals and one SVD per cluster.
    A cluster is semisimple when its kernel, an orthonormal basis of
    ker(h - eigenvalue I), has the cluster's multiplicity.

    Rank is relative to the largest singular value of h - eigenvalue I
    itself (``kernel_basis`` at eps_rank = EIGENSPACE_RANK).  A rule keyed
    to the size of h would give 1e-8 J a full kernel at zero: a semisimple
    zero block, whose spectral CZ index would silently be 0 where the scans
    give 1.
    """
    gap = _gap(h)
    loose = replace(tol, eps_rank=EIGENSPACE_RANK)
    eye = np.eye(h.shape[0])
    vals = np.linalg.eigvals(h)
    return gap, vals, [(lam, mult, kernel_basis(h - lam * eye, loose))
                       for lam, mult in _cluster_eigenvalues(vals, gap)]


def _invariant_subspace(h, vals, target: complex, gap: float):
    """(basis, k): an orthonormal basis of the generalized eigenspace of
    the k eigenvalues ``vals`` of ``h`` within ``gap`` of ``target``, from
    the kernel chain ker A, ker A^2, ... of A = h - lam I, lam their mean,
    one SVD per step.

    ker A^(m+1) is the set of x with A x in ker A^m, the kernel of
    (I - V V*) A for V an orthonormal basis of ker A^m.  Every step keeps
    the rank rule of the kernels, EIGENSPACE_RANK times the largest
    singular value of A; the powers of A would squash it, since their
    singular values on a Jordan cluster with nilpotent part nu fall like
    nu^m.  The chain stops at dimension k or when a step adds nothing.
    """
    members = vals[np.abs(vals - target) <= gap]
    if members.size == 0:
        raise NotAnEigenvalue("no eigenvalue within %.2e of %s" % (gap, target))
    a = h - np.mean(members) * np.eye(h.shape[0])
    _, s, vh = np.linalg.svd(a)
    cutoff = EIGENSPACE_RANK * s[0]
    basis = vh[np.sum(s > cutoff):].conj().T
    while 0 < basis.shape[1] < members.size:
        _, s, vh = np.linalg.svd(a - basis @ (basis.conj().T @ a))
        grown = vh[np.sum(s > cutoff):].conj().T
        if grown.shape[1] <= basis.shape[1]:
            break
        basis = grown
    return basis, members.size


def krein_form_matrix(n: int):
    """The Hermitian matrix G = -i J on C^(2n)."""
    return -1j * SymplecticSpace.standard(n).form


def _krein_inertia(basis, tol: Tolerances) -> Inertia:
    """Inertia of the Krein form on the span of orthonormal ``basis``."""
    g = krein_form_matrix(basis.shape[0] // 2)
    return herm_signature(basis.conj().T @ g @ basis, tol)


def krein_signature(h, alpha: float, tol: Tolerances = DEFAULT_TOL) -> Inertia:
    """Inertia of the Krein form on the generalized eigenspace of i*alpha.

    ``alpha`` is the real number such that i*alpha is the eigenvalue of
    interest; it must match an actual eigenvalue of ``h`` up to the
    cluster gap, otherwise NotAnEigenvalue is raised.  The eigenvalues
    within the gap form the cluster, independently of the clustering of
    ``krein_spectrum``; its basis is the kernel chain of
    ``_invariant_subspace`` at their mean.
    The form is nondegenerate on a whole generalized eigenspace of an
    imaginary eigenvalue, so a basis of another dimension or a degenerate
    form means rounding split the cluster beyond the gap (a Jordan block
    of size >= 3 can split by (eps cond)^(1/size)): NotAnEigenvalue.
    """
    h = _generator(h, None, tol)
    gap, target = _gap(h), 1j * float(alpha)
    basis, k = _invariant_subspace(h, np.linalg.eigvals(h), target, gap)
    inertia = _krein_inertia(basis, tol)
    if basis.shape[1] != k or inertia.n_zero:
        raise NotAnEigenvalue("the %d eigenvalues within %.2e of %s are part of a "
                              "cluster split beyond the gap" % (k, gap, target))
    return inertia


@dataclass(frozen=True)
class KreinEigenvalue:
    """One eigenvalue cluster of a Hamiltonian generator."""

    eigenvalue: complex
    multiplicity: int
    #: Krein inertia, present only for purely imaginary eigenvalues
    inertia: Optional[Inertia]


def _krein_pass(h, tol: Tolerances):
    """(spectrum, semisimple, gap) of ``h``: one generator check and one
    ``_eigenspaces``.  A cluster on the imaginary axis takes the Krein form
    on its kernel, or, if the kernel is short (a Jordan block), on its
    generalized eigenspace (``_invariant_subspace``)."""
    h = _generator(h, None, tol)
    gap, vals, clusters = _eigenspaces(h, tol)
    spectrum, semisimple = [], True
    for lam, mult, kernel in clusters:
        full = kernel.shape[1] == mult
        semisimple &= full
        inertia = None
        if abs(lam.real) <= gap:
            basis = kernel if full else _invariant_subspace(h, vals, 1j * lam.imag, gap)[0]
            inertia = _krein_inertia(basis, tol)
        spectrum.append(KreinEigenvalue(lam, mult, inertia))
    return spectrum, semisimple, gap


def krein_spectrum(h, tol: Tolerances = DEFAULT_TOL):
    """All eigenvalue clusters of ``h`` with Krein data where defined."""
    return _krein_pass(h, tol)[0]


def is_semisimple(h, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether every eigenvalue of ``h`` has a full set of eigenvectors."""
    tol = as_tolerances(tol)
    _, _, clusters = _eigenspaces(as_square(h, "generator"), tol)
    return all(kernel.shape[1] == mult for _, mult, kernel in clusters)


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
    return _normal_form(*_krein_pass(h, tol))


def _normal_form(spectrum, semisimple: bool, gap: float):
    """``classify_normal_form`` from a ``_krein_pass``."""
    if not semisimple:
        raise NotSemisimple("generator has a nontrivial Jordan block")
    blocks, seen_real, seen_quad = [], {}, {}
    for entry in spectrum:
        lam, mult, inertia = entry.eigenvalue, entry.multiplicity, entry.inertia
        if abs(lam) <= gap / 2:
            # such a cluster holds its conjugate: the clustering merges
            # every eigenvalue within the gap of its first one
            if mult % 2 != 0:
                raise UnclassifiableSpectrum("odd multiplicity at zero")
            blocks.append(NormalFormBlock("zero", (), mult // 2))
        elif abs(lam.real) <= min(gap, abs(lam.imag)):
            # on the imaginary axis, and near 0 nearer it than the real axis
            alpha = lam.imag
            if alpha <= 0:
                continue  # handled together with the conjugate
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
    return _rotation_speeds(classify_normal_form(h, tol))


def _rotation_speeds(blocks):
    return sorted(block.parameters[0] for block in blocks if block.kind == "rotation"
                  for _ in range(block.multiplicity))


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
    generators = [as_even_square(g, "generator") for g in generators]
    n = sum(g.shape[0] // 2 for g in generators)
    out = np.zeros((2 * n, 2 * n))
    offset = 0
    for g in generators:
        k = g.shape[0] // 2
        idx = list(range(offset, offset + k)) + list(range(n + offset, n + offset + k))
        out[np.ix_(idx, idx)] = g
        offset += k
    return out
