"""Symplectic vector spaces, Lagrangian frames and symplectic reduction.

Conventions, fixed once for the whole package:

* the standard form on R^(2n) is omega(u, v) = <J u, v> with
  J = [[0, -I], [I, 0]], coordinates split as (x, y);
* a product space used for graphs of symplectic maps carries the form
  (-omega) x omega, i.e. the block matrix diag(-J, J);
* a Lagrangian subspace is held as a 2n x n matrix with orthonormal
  columns, orthonormalized on construction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NotIsotropic,
    NotLagrangian,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_even_square,
    as_int,
    as_matrix,
    as_square,
    as_tolerances,
    expm,
    kernel_basis,
    orthonormal_columns,
    singular_values,
    spectral_norm,
)


def standard_J(n: int):
    """The matrix [[0, -I_n], [I_n, 0]] for an integer n >= 1, else InputError."""
    n = as_int(n, "n")
    if n < 1:
        raise InputError("n must be positive")
    eye = np.eye(n)
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -eye
    J[n:, :n] = eye
    return J


#: entries kept by each cache of per-dimension constants: the standard
#: and graph-product spaces and the reference Lagrangians
CACHED_DIMS = 32


@dataclass(frozen=True, eq=False)
class SymplecticSpace:
    """A real symplectic vector space with form omega(u, v) = <form @ u, v>.

    The space keeps a read-only copy of the form it is given, so the
    facts it caches about the form (``form_norm``,
    ``is_complex_structure``) cannot go stale.
    """

    form: np.ndarray

    def __post_init__(self):
        form = np.array(as_even_square(self.form, "symplectic form"))
        if np.linalg.norm(form + form.T) > 1e-10 * (1.0 + np.linalg.norm(form)):
            raise InputError("symplectic form must be antisymmetric")
        s = singular_values(form)
        if s.size == 0 or s[-1] <= 1e-12 * s[0]:
            raise InputError("symplectic form must be invertible")
        form.setflags(write=False)
        object.__setattr__(self, "form", form)

    @classmethod
    @functools.lru_cache(maxsize=CACHED_DIMS, typed=True)
    def standard(cls, n: int) -> "SymplecticSpace":
        """R^(2n) with the form ``standard_J(n)``; built once per n and
        shared."""
        return cls(standard_J(n))

    @classmethod
    @functools.lru_cache(maxsize=CACHED_DIMS, typed=True)
    def graph_product(cls, n: int) -> "SymplecticSpace":
        """R^(4n) with the form (-omega) x omega; graphs of symplectic
        maps of R^(2n) are Lagrangian here.  Built once per n and shared."""
        J = standard_J(n)
        zero = np.zeros((2 * n, 2 * n))
        return cls(np.block([[-J, zero], [zero, J]]))

    @functools.cached_property
    def form_norm(self) -> float:
        """Spectral norm of the form, the scale of isotropy defects."""
        return spectral_norm(self.form)

    @functools.cached_property
    def is_complex_structure(self) -> bool:
        """Whether the form is orthogonal with square -1, as the standard
        and the graph-product forms are; the phase chart and the
        crossing forms need it."""
        omega, eye = self.form, np.eye(self.dim)
        return bool(np.allclose(omega.T @ omega, eye, atol=1e-12)
                    and np.allclose(omega @ omega, -eye, atol=1e-12))

    @property
    def dim(self) -> int:
        return self.form.shape[0]

    @property
    def half_dim(self) -> int:
        return self.dim // 2

    def omega(self, u, v) -> float:
        """omega(u, v) of two 1-d vectors, as one-column frames."""
        columns = [as_matrix([x], "vector").T for x in (u, v)]
        return float(self.pairing(*columns)[0, 0])

    def pairing(self, fa, fb):
        """Matrix [omega(a_i, b_j)] for two column-frames."""
        return (self.form @ _frame_of(self, fa, "frame")).T @ _frame_of(self, fb, "frame")

    def is_standard(self) -> bool:
        standard = SymplecticSpace.standard(self.half_dim)
        return self is standard or bool(np.allclose(self.form, standard.form, atol=1e-12))

    def check_same(self, *operands):
        """Raise DimensionMismatch unless every operand (a space, or a
        frame or path with a ``space``) carries exactly this form.

        The one same-space test of the package: forms are compared entry
        for entry, so a space of equal dimension but another form, such
        as the graph product over R^(2n) against the standard R^(4n), is
        rejected.
        """
        for op in operands:
            space = op if isinstance(op, SymplecticSpace) else op.space
            if space is not self and not np.array_equal(space.form, self.form):
                raise DimensionMismatch("operands live in different symplectic spaces")


def _frame_of(space: SymplecticSpace, f, name: str):
    """``f`` checked as a frame of vectors of ``space``: ``as_matrix``
    with one row per coordinate, else DimensionMismatch."""
    f = as_matrix(f, name)
    if f.shape[0] != space.dim:
        raise DimensionMismatch("%s does not match the space" % name)
    return f


@dataclass(frozen=True, eq=False)
class LagrangianFrame:
    """A Lagrangian subspace given by an orthonormal 2n x n frame;
    ``lagrangian_frame`` returns the frame read-only."""

    space: SymplecticSpace
    frame: np.ndarray

    @property
    def n(self) -> int:
        return self.frame.shape[1]


def lagrangian_frame(space: SymplecticSpace, frame, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """Validate and orthonormalize a Lagrangian frame."""
    tol = as_tolerances(tol)
    f = as_matrix(frame, "lagrangian frame")
    if f.shape != (space.dim, space.half_dim):
        raise NotLagrangian(
            "frame must be %d x %d, got %s" % (space.dim, space.half_dim, f.shape)
        )
    q = orthonormal_columns(f, tol)
    if q.shape[1] != space.half_dim:
        raise NotLagrangian("frame is rank deficient")
    return _isotropic_frame(space, q, tol)


def _isotropic_frame(space: SymplecticSpace, q, tol: Tolerances) -> LagrangianFrame:
    """The orthonormal frame ``q`` as a read-only Lagrangian of ``space``, else NotLagrangian."""
    defect = np.linalg.norm((space.form @ q).T @ q)
    if defect > tol.eps_sym * (1.0 + space.form_norm):
        raise NotLagrangian("isotropy defect %.3e too large" % defect)
    q.setflags(write=False)
    return LagrangianFrame(space, q)


@functools.lru_cache(maxsize=CACHED_DIMS, typed=True)
def vertical_lagrangian(n: int, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """The subspace {0} x R^n of the standard space."""
    return lagrangian_frame(SymplecticSpace.standard(n), np.eye(2 * n)[:, n:], tol)


@functools.lru_cache(maxsize=CACHED_DIMS, typed=True)
def horizontal_lagrangian(n: int, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """The subspace R^n x {0} of the standard space."""
    return lagrangian_frame(SymplecticSpace.standard(n), np.eye(2 * n)[:, :n], tol)


def is_symplectic(m, tol: Tolerances = DEFAULT_TOL, space: SymplecticSpace = None) -> bool:
    """Whether m^T Omega m = Omega within tolerance, Omega the form of
    ``space`` (default: the standard space of m's size): ``tol`` and
    ``m`` checked, Omega of m's size, else DimensionMismatch, then
    ``_symplectic_for``."""
    tol = as_tolerances(tol)
    m = as_even_square(m, "matrix")
    omega = (SymplecticSpace.standard(m.shape[0] // 2) if space is None else space).form
    if omega.shape != m.shape:
        raise DimensionMismatch("matrix does not match the space")
    return _symplectic_for(m, omega, tol)


def _symplectic_for(m, form, tol: Tolerances) -> bool:
    """Whether |m^T form m - form|_F <= eps_sym (1 + |m|_2)^2 for a
    checked m of the size of ``form``.  Where the square overflows, the
    defect is compared with eps_sym (1 + |m|_2) after dividing it by
    1 + |m|_2, so a finite matrix never raises and an infinite defect
    never passes.  A product that overflows gives an inf or nan defect,
    which fails the comparison, so it is formed without numpy's
    warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.linalg.norm(m.T @ form @ m - form)
    scale = 1.0 + spectral_norm(m)
    try:
        return bool(defect <= tol.eps_sym * scale ** 2)
    except OverflowError:
        return bool(defect / scale <= tol.eps_sym * scale)


def is_hamiltonian(h, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether h^T J + J h = 0 within tolerance (standard space)."""
    tol = as_tolerances(tol)
    h = as_even_square(h, "matrix")
    return _hamiltonian_for(h, SymplecticSpace.standard(h.shape[0] // 2).form, tol)[0]


def _hamiltonian_for(h, form, tol: Tolerances):
    """(whether h^T form + form h = 0 within tolerance, the spectral norm
    of h that scales the tolerance, the defect |h^T form + form h|_F).
    The test is defect <= eps_sym (1 + norm).  Where the norm or the
    defect overflows, h is decided as h / m, m its largest |entry|, by
    defect(h / m) <= eps_sym (1 / m + norm(h / m)), the same test
    divided by m, so an overflow never passes a defect; the norm and the
    defect returned stay those of h.  The products that overflow are
    formed without numpy's warnings."""
    def defect_of(a):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.linalg.norm(a.T @ form + form @ a))

    defect, norm = defect_of(h), spectral_norm(h)
    if np.isfinite(norm) and np.isfinite(defect):
        return bool(defect <= tol.eps_sym * (1.0 + norm)), norm, defect
    m = float(np.abs(h).max())
    scaled = h / m
    return bool(defect_of(scaled) <= tol.eps_sym * (1.0 / m + spectral_norm(scaled))), norm, defect


def apply_symplectic(m, L: LagrangianFrame, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """Image of a Lagrangian under a symplectic matrix."""
    m = as_square(m, "matrix")
    if m.shape[0] != L.space.dim:
        raise DimensionMismatch("matrix does not match the frame")
    return lagrangian_frame(L.space, m @ L.frame, tol)


def graph_lagrangian(m, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """Graph {(v, m v)} as a Lagrangian of the product space: ``m`` and
    ``tol`` checked, then ``_graph_frame``."""
    m = as_even_square(m, "matrix")
    return _graph_frame(m, as_tolerances(tol))


def _graph_frame(m, tol: Tolerances) -> LagrangianFrame:
    """``graph_lagrangian`` of a checked m: [I; m] has no singular value
    below 1, so one QR orthonormalizes it, no rank rule; the isotropy
    check of ``_isotropic_frame`` stays."""
    q = np.linalg.qr(np.concatenate((np.eye(len(m)), m)))[0]
    return _isotropic_frame(SymplecticSpace.graph_product(len(m) // 2), q, tol)


@functools.lru_cache(maxsize=CACHED_DIMS, typed=True)
def diagonal_lagrangian(n: int, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """The diagonal {(v, v)} in the product space over R^(2n)."""
    space = SymplecticSpace.graph_product(n)
    eye = np.eye(2 * n)
    return lagrangian_frame(space, np.vstack([eye, eye]) / np.sqrt(2.0), tol)


def product_lagrangian(la: LagrangianFrame, lb: LagrangianFrame,
                       tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """L_a x L_b inside the product space."""
    n = la.space.half_dim
    SymplecticSpace.standard(n).check_same(la, lb)
    space = SymplecticSpace.graph_product(n)
    f = np.block([
        [la.frame, np.zeros((2 * n, n))],
        [np.zeros((2 * n, n)), lb.frame],
    ])
    return lagrangian_frame(space, f, tol)


def subspace_intersection(fa, fb, tol: Tolerances = DEFAULT_TOL):
    """Orthonormal basis of span(fa) & span(fb) for frames with orthonormal
    columns: ``orthonormal_columns`` of fa times the ``kernel_basis`` of [fa | -fb]."""
    tol = as_tolerances(tol)
    fa = as_matrix(fa, "frame")
    fb = as_matrix(fb, "frame")
    if fa.shape[0] != fb.shape[0]:
        raise DimensionMismatch("frames live in different ambient spaces")
    if fa.shape[0] == 0 or fa.shape[1] == 0 or fb.shape[1] == 0:
        return np.zeros((fa.shape[0], 0))
    kern = kernel_basis(np.hstack([fa, -fb]), tol)
    return orthonormal_columns(fa @ kern[:fa.shape[1]], tol)


def intersection_dim(la: LagrangianFrame, lb: LagrangianFrame,
                     tol: Tolerances = DEFAULT_TOL) -> int:
    """dim(L_a & L_b), the column count of ``subspace_intersection``."""
    la.space.check_same(lb)
    return subspace_intersection(la.frame, lb.frame, tol).shape[1]


def max_principal_angle(fa, fb) -> float:
    """Largest principal angle between two equal-dimension spans."""
    fa = as_matrix(fa, "frame")
    fb = as_matrix(fb, "frame")
    if fa.shape != fb.shape:
        raise DimensionMismatch("spans must have equal dimensions")
    if fa.shape[1] == 0:
        return 0.0
    qa = orthonormal_columns(fa, DEFAULT_TOL)
    qb = orthonormal_columns(fb, DEFAULT_TOL)
    if qa.shape[1] != qb.shape[1]:
        return 0.5 * np.pi
    # the arccos of the cosine alone loses half the digits near zero, so
    # the sine is computed from the projection residual as well
    cos = float(np.clip(singular_values(qa.T @ qb)[-1], 0.0, 1.0))
    sin = float(np.clip(np.linalg.norm(qb - qa @ (qa.T @ qb), 2), 0.0, 1.0))
    return float(np.arctan2(sin, cos))


def same_span(fa, fb) -> bool:
    return max_principal_angle(fa, fb) < 1e-8


def symplectic_orthogonal(space: SymplecticSpace, w, tol: Tolerances = DEFAULT_TOL):
    """Frame of W-perp with respect to omega: all v with omega(W, v) = 0."""
    return kernel_basis((space.form @ _frame_of(space, w, "frame")).T, as_tolerances(tol))


class SymplecticReduction:
    """Reduction of (V, omega) by an isotropic subspace K.

    The quotient K-perp / K is realized concretely as the Euclidean
    orthogonal complement S of K inside K-perp(omega); the reduced form
    is the restriction of omega to S expressed in the orthonormal basis
    held in ``basis``.  Lagrangians of V containing-or-compatible with
    K project to Lagrangians of the reduced space.
    """

    def __init__(self, space: SymplecticSpace, k_frame, tol: Tolerances = DEFAULT_TOL):
        tol = as_tolerances(tol)
        self.ambient = space
        self.tol = tol
        k = orthonormal_columns(_frame_of(space, k_frame, "K frame"), tol)
        defect = np.linalg.norm(space.pairing(k, k))
        if defect > tol.eps_sym * (1.0 + space.form_norm):
            raise NotIsotropic("K is not isotropic, defect %.3e" % defect)
        self.k = k
        sharp = symplectic_orthogonal(space, k, tol)
        # orthocomplement of K inside K-sharp
        self.basis = orthonormal_columns(sharp - k @ (k.T @ sharp), tol)
        expected = space.dim - 2 * k.shape[1]
        if self.basis.shape[1] != expected:
            raise NotIsotropic("reduction produced dimension %d, expected %d"
                               % (self.basis.shape[1], expected))
        self.space = SymplecticSpace(self.basis.T @ space.form @ self.basis) if expected else None
        for a in (self.k, self.basis):
            a.setflags(write=False)

    def project(self, L: LagrangianFrame) -> LagrangianFrame:
        """Image of L & K-sharp in the reduced space."""
        if self.space is None:
            raise DimensionMismatch("the reduced space is zero-dimensional")
        self.ambient.check_same(L)
        # L & K-sharp = Q ker((omega K)^T Q), Q the frame of L; the rank is read
        # against the form, as (omega K)^T Q is rounding when K lies in L
        _, s, vh = np.linalg.svd((self.ambient.form @ self.k).T @ L.frame)
        rank = int(np.count_nonzero(s > self.tol.eps_rank * self.ambient.form_norm))
        reduced = orthonormal_columns(self.basis.T @ (L.frame @ vh[rank:].T), self.tol)
        want = self.space.half_dim
        if reduced.shape[1] != want:
            raise NotLagrangian("projection has rank %d, expected %d"
                                % (reduced.shape[1], want))
        return _isotropic_frame(self.space, reduced, self.tol)

    def lift(self, l_red: LagrangianFrame) -> LagrangianFrame:
        """The Lagrangian of the ambient space containing K that
        projects onto ``l_red``."""
        if self.space is None:
            raise DimensionMismatch("the reduced space is zero-dimensional")
        self.space.check_same(l_red)
        f = np.hstack([self.k, self.basis @ l_red.frame])
        return lagrangian_frame(self.ambient, f, self.tol)


# -- normal-form generators and random ensembles -----------------------------

def plane_block_generator(kinds):
    """Hamiltonian matrix acting plane-by-plane on (x_j, y_j).

    ``kinds`` is a sequence of ("elliptic", alpha) or ("hyperbolic", beta)
    entries, one per plane.  An elliptic plane rotates with angular
    velocity alpha, a hyperbolic plane stretches with rate beta.
    """
    n = len(kinds)
    h = np.zeros((2 * n, 2 * n))
    for j, (kind, p) in enumerate(kinds):
        if kind == "elliptic":
            h[j, n + j] = -p
            h[n + j, j] = p
        elif kind == "hyperbolic":
            h[j, j] = p
            h[n + j, n + j] = -p
        else:
            raise InputError("unknown plane kind %r" % kind)
    return h


def loxodromic_generator(rho: float, alpha: float):
    """4x4 Hamiltonian generator whose time-one map has the spiral
    eigenvalue quadruple {rho' e^(+-i alpha), ...} with rho' = e^rho."""
    k = np.array([[0.0, -alpha], [alpha, 0.0]])
    r = rho * np.eye(2)
    zero = np.zeros((2, 2))
    return np.block([[r + k, zero], [zero, -r + k]])


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_hamiltonian(n: int, seed=0, spectrum_profile: str = "generic"):
    """Random Hamiltonian matrix with a controlled spectral type.

    Profiles: "generic" (J times random symmetric), "semisimple-elliptic",
    "hyperbolic", and "mixed" (conjugated plane-block generators).
    """
    as_int(n, "n")
    rng = _as_rng(seed)
    if spectrum_profile == "generic":
        s = rng.standard_normal((2 * n, 2 * n))
        s = 0.5 * (s + s.T)
        s *= 1.2 / max(spectral_norm(s), 1e-12)
        return standard_J(n) @ s
    if spectrum_profile == "semisimple-elliptic":
        kinds = [("elliptic", _safe_angle(rng)) for _ in range(n)]
    elif spectrum_profile == "hyperbolic":
        kinds = [("hyperbolic", rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
                 for _ in range(n)]
    elif spectrum_profile == "mixed":
        kinds = []
        for _ in range(n):
            if rng.uniform() < 0.5:
                kinds.append(("elliptic", _safe_angle(rng)))
            else:
                kinds.append(("hyperbolic", rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])))
    else:
        raise InputError("unknown spectrum profile %r" % spectrum_profile)
    h0 = plane_block_generator(kinds)
    s = random_symplectic(n, rng, scale=0.6)
    return s @ h0 @ np.linalg.inv(s)


def _safe_angle(rng):
    """Angle bounded away from multiples of pi (keeps crossings regular)."""
    for _ in range(200):
        a = rng.uniform(0.35, 5.9) * rng.choice([-1.0, 1.0])
        if abs(a - np.pi * np.round(a / np.pi)) > 0.2:
            return float(a)
    raise RuntimeError("could not sample a safe angle")


def random_symplectic(n: int, seed=0, scale: float = 1.0):
    """exp of a random Hamiltonian; always exactly in the group up to rounding."""
    rng = _as_rng(seed)
    h = random_hamiltonian(n, rng, "generic")
    return expm(scale * h)


def random_lagrangian(n: int, seed=0, tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """Image of the vertical under a random symplectic matrix."""
    m = random_symplectic(n, seed)
    return apply_symplectic(m, vertical_lagrangian(n, tol), tol)


def darboux_frame(space: SymplecticSpace, tol: Tolerances = DEFAULT_TOL):
    """Matrix T with T^T Omega T equal to the standard form.

    Built by symplectic Gram-Schmidt; maps standard-space Lagrangians
    to Lagrangians of ``space``.
    """
    tol = as_tolerances(tol)
    omega = space.form
    m = space.half_dim

    def w(u, v):
        return float(u @ omega.T @ v)

    es, fs = [], []
    pool = np.eye(space.dim)
    for _ in range(m):
        u = None
        for cand in pool.T:
            r = cand.copy()
            for e, f in zip(es, fs):
                r = r - w(r, f) * e + w(r, e) * f
            if np.linalg.norm(r) > 1e-8:
                u = r / np.linalg.norm(r)
                break
        if u is None:
            raise InputError("symplectic Gram-Schmidt ran out of directions")
        v = omega @ u
        for e, f in zip(es, fs):
            v = v - w(v, f) * e + w(v, e) * f
        c = w(u, v)
        if abs(c) < 1e-12:
            raise InputError("form degenerated during Gram-Schmidt")
        es.append(u)
        fs.append(v / c)
    t = np.column_stack(es + fs)
    defect = np.linalg.norm(t.T @ omega @ t - standard_J(m))
    if defect > tol.eps_sym * (1.0 + space.form_norm) * space.dim:
        raise InputError("Darboux frame defect %.3e" % defect)
    return t


def random_lagrangian_of(space: SymplecticSpace, seed=0,
                         tol: Tolerances = DEFAULT_TOL) -> LagrangianFrame:
    """Random Lagrangian of an arbitrary symplectic space."""
    t = darboux_frame(space, tol)
    l_std = random_lagrangian(space.half_dim, seed, tol)
    return lagrangian_frame(space, t @ l_std.frame, tol)
