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

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (InputError, NotAnEigenvalue, NotHamiltonian, NotSemisimple,
                     UnclassifiableSpectrum)
from .halfint import ZERO, HalfInt
from .maslov import _flow_record, rotation_graph_index
from .numerics import (DEFAULT_TOL, Inertia, Tolerances, _signatures, as_even_square, as_real,
                       as_square, as_tolerances, spectral_norm)
from .symplectic import SymplecticSpace, loxodromic_generator, plane_block_generator

#: relative gap within which two eigenvalues are linked into one cluster
CLUSTER_GAP = 1e-6

#: relative rank rule of the cluster kernels and their chains (see ``_kernels``)
EIGENSPACE_RANK = 1e-7

#: safety factor of every certificate of ``_certified_pass``
_MARGIN = 10.0


def _square(links):
    """The boolean square of a link matrix, taken in float32 so that BLAS
    runs it (numpy's boolean product does not): a sum of 0/1 products is
    positive iff one of them is 1."""
    f = links.astype(np.float32)
    return f @ f > 0


def _components(vals, gap):
    """The connected components of ``vals`` linked within ``gap``, as the
    rows of a boolean mask array in the order of their first member;
    unlike a greedy rule, independent of that order.  The link matrix is
    squared until it is closed under composition; then row j is a
    component, and a new one iff its first member (its argmax) is j."""
    reach = np.abs(vals[:, None] - vals) <= gap
    closed = _square(reach)
    while not np.array_equal(closed, reach):
        reach, closed = closed, _square(closed)
    return reach[reach.argmax(axis=1) == np.arange(len(vals))] if len(vals) else reach


def _clusters(vals, norm: float):
    """(gap, parts, lams, mults): the one eigenvalue partition of the
    Krein layer: the ``_components`` of the eigenvalues ``vals`` of h
    within CLUSTER_GAP * max(1, ``norm``), norm = |h|, the complex
    cluster means (np.mean's bit for bit: a singleton x sums to 0.0 + x,
    as ``np.add.reduce`` starts from 0) and the cluster sizes."""
    gap = CLUSTER_GAP * max(1.0, norm)
    parts = _components(vals, gap)
    mults = parts.sum(axis=1).tolist()
    sums = 0.0 + vals[parts.argmax(axis=1)] if len(vals) else vals
    for j in [j for j, mult in enumerate(mults) if mult > 1]:
        sums[j] = vals[parts[j]].sum()
    return gap, parts, (sums / mults).astype(complex), mults


def _kernels(h, lams):
    """(A, kernels, cutoffs) for A_j = h - lams[j] I, from one stacked
    SVD: an orthonormal basis of each ker A_j under the rank rule
    EIGENSPACE_RANK times the largest singular value of A_j."""
    a = h - lams[:, None, None] * np.eye(h.shape[0])
    _, s, vh = np.linalg.svd(a)
    cutoffs = EIGENSPACE_RANK * s.max(axis=-1, initial=0.0)
    kernels = [v[np.count_nonzero(sv > c):].conj().T for v, sv, c in zip(vh, s, cutoffs)]
    return a, kernels, cutoffs


def _chain(a, kernel, cutoff: float, k: int):
    """The chain ker A^2, ... of ``kernel`` = ker A, up to dimension ``k``
    or a step that adds nothing, one SVD per step: ker A^(m+1) is the
    kernel of (I - V V*) A, V a basis of ker A^m.  Every step keeps the
    kernel's ``cutoff``: powers of A would squash it (like nu^m on a
    Jordan cluster with nilpotent part nu), and a rule keyed to |h| would
    give 1e-8 J a full kernel at zero."""
    basis = kernel
    while 0 < basis.shape[1] < k:
        _, s, vh = np.linalg.svd(a - basis @ (basis.conj().T @ a))
        grown = vh[np.count_nonzero(s > cutoff):].conj().T
        if grown.shape[1] <= basis.shape[1]:
            break
        basis = grown
    return basis


def _semisimple(kernels, multiplicities) -> bool:
    """Each cluster's kernel has its multiplicity and the stacked kernels
    pass the rank rule of ``_kernels``: split clusters of a nilpotent
    matrix can each measure the same kernel."""
    if any(k.shape[1] != m for k, m in zip(kernels, multiplicities)):
        return False
    if not kernels:
        return True
    s = np.linalg.svd(np.concatenate(kernels, axis=1), compute_uv=False)
    return bool(s[-1] > EIGENSPACE_RANK * s[0])


def _on_axis(lam: complex, gap: float) -> bool:
    """Whether a cluster mean ``lam`` lies on the imaginary axis, the one
    axis test of the Krein layer: within half the gap of zero, or within
    the gap of the axis and, near 0, nearer it than the real axis (so a
    real pair +-eps slower than the gap is hyperbolic, not a rotation)."""
    return abs(lam) <= gap / 2 or abs(lam.real) <= min(gap, abs(lam.imag))


def krein_form_matrix(n: int):
    """The Hermitian matrix G = -i J on C^(2n)."""
    return -1j * SymplecticSpace.standard(n).form


def _certified_pass(record, tol: Tolerances):
    """``_record_pass`` of the ``maslov._FlowRecord`` ``record`` read
    from its eigenbasis h = V Lambda V^-1 (unit columns, kappa = cond
    V); or None where that basis does not certify that the SVD route
    (``_svd_pass``) reaches the same verdicts.  It does when, with c =
    ``_MARGIN``:

    - kappa < 1 / (c EIGENSPACE_RANK): the stacked kernels are V up to
      rounding and column phases, so they pass ``_semisimple``'s rule
      (the third certificate implies it, as sep_j <= |h| + |lambda_j|;
      it is tested first because it is cheap);
    - every eigenvalue lies farther than the gap from every other, so
      each is a cluster of its own with mean 0.0 + lambda, as
      ``_clusters`` forms it;
    - sep_j, its distance to the others, exceeds c EIGENSPACE_RANK kappa
      (|h| + |lambda_j|): sigma_2(h - lambda_j I) >= sep_j / kappa then
      clears the rank rule of ``_kernels`` (whose largest singular value
      is at most |h| + |lambda_j|), so the cluster's kernel is v_j alone;
    - the Krein form g_j = v_j* G v_j of every cluster on the axis clears
      the zero band of ``band_counts`` by c max(eps_sign, EIGENSPACE_RANK)
      times its scale, so the rounding of v_j cannot move its sign.  For
      a Hamiltonian h, (conj(lambda_k) + lambda_j) v_k* G v_j = 0 puts
      column j of V* G V at g_j e_j, so |g_j| >= sigma_min(V) >= 1/kappa.

    Then the spectrum holds those clusters, of multiplicity 1, with the
    inertias of one ``_signatures`` call over the 1x1 Gram matrices, h
    is semisimple, and each eigenvalue owns its own cluster."""
    if record.eigen is None or not record.kappa * _MARGIN * EIGENSPACE_RANK < 1.0:
        return None
    vals, vecs = record.vals, record.eigen[0]
    gap = CLUSTER_GAP * max(1.0, record.norm)
    dist = np.abs(vals[:, None] - vals)
    np.fill_diagonal(dist, np.inf)
    sep = dist.min(axis=1, initial=np.inf)
    floor = _MARGIN * EIGENSPACE_RANK * record.kappa * (record.norm + np.abs(vals))
    if not ((sep > gap) & (sep > floor)).all():
        return None
    lams = (0.0 + vals).astype(complex)
    axis = [j for j, lam in enumerate(lams.tolist()) if _on_axis(lam, gap)]
    v = vecs[:, axis]
    grams = np.einsum("ij,ij->j", v.conj(), krein_form_matrix(len(vals) // 2) @ v)
    margin = _MARGIN * max(tol.eps_sign, EIGENSPACE_RANK)
    n_pos, n_neg, stable = _signatures(grams[:, None, None], tol, margin, hermitian=True)
    if not (stable.all() and (n_pos + n_neg == 1).all()):
        return None
    inertias = dict(zip(axis, map(Inertia, n_pos.tolist(), n_neg.tolist(), [0] * len(axis))))
    spectrum = tuple(KreinEigenvalue(lam, 1, inertias.get(j))
                     for j, lam in enumerate(lams.tolist()))
    return spectrum, True, gap, lams, np.arange(len(lams))


def _svd_pass(record, tol: Tolerances):
    """``_record_pass`` of the checked generator ``record.h`` by the
    ``_clusters`` of its eigenvalues and, for all of them at once, their
    ``_kernels``: the one route for Jordan, clustered and ill-conditioned
    generators.  Each cluster on the imaginary axis (``_on_axis``) takes
    the Krein form on the ``_chain`` of its kernel up to its
    multiplicity, all classified by one ``_signatures``; one that
    rounding split keeps a degenerate form.  ``vals`` are the record's
    eigenvalues, those of ``eigvals`` where its ``eig`` failed, and
    ``owner`` their clusters."""
    h = record.h
    vals = np.linalg.eigvals(h) if record.vals is None else record.vals
    gap, parts, lams, mults = _clusters(vals, record.norm)
    axis = [j for j, lam in enumerate(lams.tolist()) if _on_axis(lam, gap)]
    a, kernels, cutoffs = _kernels(h, lams)
    bases = [_chain(a[j], kernels[j], cutoffs[j], mults[j]) for j in axis]
    g = krein_form_matrix(h.shape[0] // 2)
    n_pos, n_neg, _ = _signatures([b.conj().T @ g @ b for b in bases], tol, 0.0, hermitian=True)
    inertias = {j: Inertia(p, q, b.shape[1] - p - q)
                for j, b, p, q in zip(axis, bases, n_pos.tolist(), n_neg.tolist())}
    spectrum = tuple(KreinEigenvalue(lam, mult, inertias.get(j))
                     for j, (lam, mult) in enumerate(zip(lams.tolist(), mults)))
    return spectrum, _semisimple(kernels, mults), gap, vals, parts.argmax(axis=0)


@functools.lru_cache(maxsize=1)
def _record_pass(record, tol: Tolerances):
    """(spectrum, semisimple, gap, vals, owner): the one Krein pass of
    the generator of the ``maslov._FlowRecord`` ``record``, which every
    Krein route of it reads: its ``_certified_pass`` where that
    certifies it, else its ``_svd_pass``.  ``spectrum`` is a tuple of
    frozen ``KreinEigenvalue``, and ``owner[i]`` is the cluster of
    ``vals[i]``, the eigenvalues in which a ``krein_signature`` query
    finds its nearest; both arrays refuse writes.  The one memo is keyed
    by the record, which reads a copy of h, so a generator changed in
    place gets a record and a pass of its own."""
    spectrum, semisimple, gap, vals, owner = _certified_pass(record, tol) or _svd_pass(record, tol)
    vals.flags.writeable = owner.flags.writeable = False
    return spectrum, semisimple, gap, vals, owner


def krein_signature(h, alpha: float, tol: Tolerances = DEFAULT_TOL) -> Inertia:
    """Inertia of the Krein form on the generalized eigenspace of i*alpha.

    A lookup in the ``_record_pass`` of h: the inertia of the cluster
    that owns the eigenvalue nearest to i*alpha, within the gap.  A
    cluster off the imaginary axis (``_on_axis``) has no Krein form.
    The form is nondegenerate on a whole generalized eigenspace, so a
    chain of another dimension or a degenerate form means rounding split
    the cluster (a Jordan block of size k >= 3, by about (eps
    cond)^(1/k)).  Both raise NotAnEigenvalue, as a non-finite
    ``alpha`` does; a bool or non-real one raises InputError.
    """
    target = 1j * as_real(alpha, "alpha")
    spectrum, _, gap, vals, owner = _record_pass(_flow_record(h, None, tol), tol)
    nearest = int(np.argmin(np.abs(vals - target)))
    if not abs(vals[nearest] - target) <= gap:
        raise NotAnEigenvalue("no eigenvalue within %.2e of %s" % (gap, target))
    cluster = spectrum[owner[nearest]]
    if not _on_axis(cluster.eigenvalue, gap):
        raise NotAnEigenvalue("the cluster at %s nearest to %s is off the imaginary axis"
                              % (cluster.eigenvalue, target))
    if cluster.inertia.dim != cluster.multiplicity or cluster.inertia.n_zero:
        raise NotAnEigenvalue("the %d eigenvalues of the cluster at %s are part of a "
                              "cluster split beyond the gap" % (cluster.multiplicity, target))
    return cluster.inertia


@dataclass(frozen=True)
class KreinEigenvalue:
    """One eigenvalue cluster of a Hamiltonian generator."""

    eigenvalue: complex
    multiplicity: int
    #: Krein inertia, present only for purely imaginary eigenvalues
    inertia: Optional[Inertia]


def _krein_pass(h, tol: Tolerances):
    """(spectrum, semisimple, gap) of the ``_record_pass`` of ``h``; the
    spectrum is a new list on every call."""
    spectrum, semisimple, gap, _, _ = _record_pass(_flow_record(h, None, tol), tol)
    return list(spectrum), semisimple, gap


def krein_spectrum(h, tol: Tolerances = DEFAULT_TOL):
    """All eigenvalue clusters of ``h`` with Krein data where defined."""
    return _krein_pass(h, tol)[0]


def is_semisimple(h, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether the eigenvectors of the square matrix ``h`` span the whole
    space: every cluster's kernel has the cluster's multiplicity and the
    kernels are independent (``_semisimple``).  A Hamiltonian generator
    reads the verdict of its ``_record_pass``; another matrix (empty,
    odd-sized or not Hamiltonian within ``tol``) takes the kernels of
    the clusters of its own ``eigvals``."""
    as_tolerances(tol)
    h = as_square(h, "generator")
    if h.size and h.shape[0] % 2 == 0:
        try:
            return _record_pass(_flow_record(h, None, tol), tol)[1]
        except NotHamiltonian:
            pass
    _, _, lams, mults = _clusters(np.linalg.eigvals(h), spectral_norm(h))
    return _semisimple(_kernels(h, lams)[1], mults)


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
    """``classify_normal_form`` from a ``_krein_pass``.

    A cluster within half the gap of zero is a zero block; another one
    on the imaginary axis (``_on_axis``) gives rotations by its Krein
    inertia at +i*alpha.  The rest are matched by ``_components`` of
    their folded means |Re| + i|Im| into hyperbolic pairs (on the real
    axis), then loxodromic quadruples.
    """
    if not semisimple:
        raise NotSemisimple("generator has a nontrivial Jordan block")
    blocks, paired = [], []
    for entry in spectrum:
        lam, mult, inertia = entry.eigenvalue, entry.multiplicity, entry.inertia
        if not _on_axis(lam, gap):
            paired.append((lam, mult))
        elif abs(lam) <= gap / 2:
            # the partition is closed under conjugation, so such a
            # cluster holds its conjugate unless rounding stretched it
            if mult % 2 != 0:
                raise UnclassifiableSpectrum("odd multiplicity at zero")
            blocks.append(NormalFormBlock("zero", (), mult // 2))
        else:
            alpha = lam.imag
            if alpha <= 0:
                continue  # handled together with the conjugate
            if inertia.n_zero:
                raise NotSemisimple("degenerate Krein form at i*%g" % alpha)
            if inertia.n_pos:
                blocks.append(NormalFormBlock("rotation", (alpha,), inertia.n_pos))
            if inertia.n_neg:
                blocks.append(NormalFormBlock("rotation", (-alpha,), inertia.n_neg))
    folded = np.array([complex(abs(lam.real), abs(lam.imag)) for lam, _ in paired])
    matched = []
    for part in _components(folded, gap):
        entries = [paired[j] for j in np.flatnonzero(part)]
        real = all(abs(lam.imag) <= gap for lam, _ in entries)
        if len(entries) != (2 if real else 4) or len({m for _, m in entries}) != 1:
            raise UnclassifiableSpectrum("unpaired real eigenvalue" if real
                                         else "incomplete loxodromic quadruple")
        mult = entries[0][1]
        if real:
            matched.append(NormalFormBlock("hyperbolic", (abs(entries[0][0].real),), mult))
        else:
            lam = max((e[0] for e in entries), key=lambda z: (z.real, z.imag))
            matched.append(NormalFormBlock("loxodromic", (lam.real, lam.imag), mult))
    return blocks + sorted(matched, key=lambda block: block.kind == "loxodromic")


def krein_positive_angles(h, tol: Tolerances = DEFAULT_TOL):
    """Signed angular velocities of the rotation planes of ``h``.

    Every elliptic eigenvalue pair +-i*alpha contributes its Krein
    inertia (p, q) as p copies of +alpha and q copies of -alpha; other
    spectrum contributes nothing.  Sorted ascending.
    """
    return sorted(block.parameters[0] for block in classify_normal_form(h, tol)
                  if block.kind == "rotation" for _ in range(block.multiplicity))


def spectral_conley_zehnder(h, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Graph-route index of a semisimple generator from its Krein normal
    form: the sum of ``rotation_graph_index`` over its signed rotation
    speeds.  The graph route is invariant under symplectic conjugation,
    so the normal form decides it; the vertical route is not.  A Jordan
    block raises NotSemisimple, a spectrum with no normal form
    UnclassifiableSpectrum."""
    return sum(map(rotation_graph_index, krein_positive_angles(h, tol)), ZERO)


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
