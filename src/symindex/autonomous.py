"""Index identities for linear autonomous Hamiltonian systems w' = H w.

For the flow psi(t) = exp(t H) two path indices are computed directly:
the orbit route (the path psi(t) L0 against the fixed vertical L0) and
the graph route (the graph of psi(t) in the product space against the
diagonal).  When the time-one map has invertible upper-right block B,
the two are linked by a closed formula

    orbit = graph + sigma * sign(X) / 2,
    X = C + (D - I) B^(-1) (I - A),

with a coupling sign sigma that this package fixes empirically by
calibration against rotation systems, where every quantity is known in
closed form.  A triple-index cross-check ties the same correction to
the index of (diagonal, L0 x L0, graph of psi(1)), computed both on the
full product space and through reduction by their common isotropic
intersection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CalibrationFailure,
    InputError,
    NotSymplectic,
    SymmetryDefect,
    TransversalityViolated,
)
from .halfint import HalfInt
from .kashiwara import _admissible_reduction, kashiwara_form
from .maslov import _flow_indices, _flow_record, _grid_cells, conley_zehnder
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    _form_counts,
    as_even_square,
    as_int,
    as_tolerances,
    expm,
    singular_values,
    spectral_norm,
    sym_signature,
)
from .symplectic import (
    CACHED_DIMS,
    SymplecticSpace,
    _graph_frame,
    _symplectic_for,
    diagonal_lagrangian,
    product_lagrangian,
    standard_J,
    subspace_intersection,
    vertical_lagrangian,
)

#: the coupling sign the closed formula is usually quoted with
PUBLISHED_SIGN = 1


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """An autonomous linear Hamiltonian system, held by its generator: a
    finite square matrix of even size, else InputError or OddDimension.
    ``make_system`` also checks that it is Hamiltonian, by building its
    flow record."""

    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", as_even_square(self.h, "generator"))

    @property
    def n(self) -> int:
        return self.h.shape[0] // 2

    def psi(self, t: float):
        """Fundamental solution at time t, the Padé ``expm`` of t h (I
        exactly at t = 0).  The formula routes do not read it: they take
        psi(1) from the flow record of h (``_time_one``)."""
        return expm(t * self.h)


def make_system(h, tol: Tolerances = DEFAULT_TOL) -> HamiltonianSystem:
    """The system of the generator ``h``, checked by building its flow
    record (``maslov._flow_record``): ``tol`` a Tolerances, else
    InputError; the matrix, else InputError or OddDimension; Hamiltonian
    within ``tol``, else NotHamiltonian.  The routes on the system read
    that record while it stays kept, so ``validate(make_system(h))``
    checks and decomposes a fresh h once; a caller that only reads
    ``system.psi`` pays for the decomposition.  ``system.h`` is the
    caller's converted, writable array: a write to it in place is a new
    key, checked again by the next route."""
    tol = as_tolerances(tol)
    system = HamiltonianSystem(h)
    _flow_record(system.h, None, tol)
    return system


def _as_system(system) -> HamiltonianSystem:
    """``system`` itself if it is a HamiltonianSystem, else InputError:
    the one check of every route that takes a system."""
    if not isinstance(system, HamiltonianSystem):
        raise InputError("system must be a HamiltonianSystem, got %s"
                         % type(system).__name__)
    return system


def split_blocks(m):
    """(A, B, C, D) blocks of a 2n x 2n matrix in the (x, y) splitting."""
    m = as_even_square(m, "matrix")
    n = m.shape[0] // 2
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]


def _corner_invertible(s, tol: Tolerances) -> bool:
    """Whether the upper-right block B, of singular values ``s``, is numerically invertible."""
    return bool(s.size > 0 and s[-1] > tol.eps_rank * max(s[0], 1.0))


def _correction_formula(a, b, c, d):
    """X = C + (D - I) B^(-1) (I - A) from the blocks, not symmetrized."""
    eye = np.eye(b.shape[0])
    return c + (d - eye) @ np.linalg.solve(b, eye - a)


def _correction_matrix(psi1, tol: Tolerances, defect: float = math.inf):
    """The correction matrix X of a symplectic time-one map, returned as
    (X + X^T) / 2, so symmetric entry for entry.

    ``tol`` and the map are checked once (``as_even_square``), the map
    is symplectic (``_symplectic_for``), else NotSymplectic, and its
    blocks are slices of that array.  Raises TransversalityViolated when
    B is numerically singular and SymmetryDefect when the computed
    matrix fails to be symmetric, which signals an input too far from
    the symplectic group.

    ``defect`` bounds |psi1^T J psi1 - J|_2, as a flow record's D bounds
    its psi(1) (``maslov._FlowRecord.defect``); inf, the default, for a
    map of unknown origin such as ``triple_routes_from``'s.  Where
    sqrt(2n) D <= eps_sym the check is skipped, as it would pass: the
    Frobenius norm of a 2n x 2n matrix is at most sqrt(2n) times its
    spectral norm, so the exact defect is within eps_sym; the rounding of
    the check's product, at most 2 (d + 2) d u |psi1|^2 with d = 2n and
    |psi1| <= g, is below D / 16 by the terms of D that cover the
    products of the flow; and the check allows eps_sym (1 + |psi1|_2)^2,
    more than twice eps_sym for a map this close to symplectic.
    """
    tol = as_tolerances(tol)
    psi1 = as_even_square(psi1, "time-one map")
    n = len(psi1) // 2
    if not (math.sqrt(2 * n) * defect <= tol.eps_sym
            or _symplectic_for(psi1, SymplecticSpace.standard(n).form, tol)):
        raise NotSymplectic("time-one map does not preserve the form")
    a, b, c, d = psi1[:n, :n], psi1[:n, n:], psi1[n:, :n], psi1[n:, n:]
    if not _corner_invertible(singular_values(b), tol):
        raise TransversalityViolated("upper-right block of the time-one map "
                                     "is singular")
    x = _correction_formula(a, b, c, d)
    asymmetry = np.linalg.norm(x - x.T)
    if asymmetry > tol.eps_sym * (1.0 + spectral_norm(x)):
        raise SymmetryDefect("correction matrix defect %.3e" % asymmetry)
    return 0.5 * (x + x.T)


def _time_one(system, tol: Tolerances):
    """psi(1) of ``system`` as its flow record stacks it at t = 1: the one
    time-one map of every formula route, ``validate``'s (the scans'
    sample at 1) bit for bit.  The record checks ``tol``, then h."""
    return _flow_record(_as_system(system).h, None, tol).stack(np.ones(1))[0]


def correction_matrix(system: HamiltonianSystem, tol: Tolerances = DEFAULT_TOL):
    """Correction matrix of the system's time-one map, read from the flow
    record of its generator (``validate``'s psi(1), not ``system.psi``),
    whose bound D on its symplectic defect it passes on."""
    record = _flow_record(_as_system(system).h, None, tol)
    return _correction_matrix(record.stack(np.ones(1))[0], tol, record.defect)


def correction_sign(system: HamiltonianSystem, tol: Tolerances = DEFAULT_TOL) -> int:
    """Signature of the system's correction matrix."""
    return sym_signature(correction_matrix(system, tol), tol).signature


# -- triple-index cross-check -------------------------------------------------

@dataclass(frozen=True)
class TripleCheck:
    """Three routes to the index of (diagonal, L0 x L0, graph psi(1))."""

    tau_direct: int
    tau_reduced: int
    sign_x: int
    sign_y: int

    @property
    def consistent(self) -> bool:
        return self.tau_direct == self.tau_reduced == self.sign_x == self.sign_y


def reduced_form_matrix(x):
    """The block matrix [[0, -I, X], [-I, 0, I], [X, I, 0]] whose
    signature reproduces sign X; used as an algebraic cross-check of
    the reduction route."""
    n = x.shape[0]
    unit = np.repeat([-1.0, 1.0], n)  # the -I and I blocks, on the n-th diagonals
    y = np.diag(unit, n) + np.diag(unit, -n)
    y[:n, 2 * n:], y[2 * n:, :n] = x, x.T
    return y


@functools.lru_cache(maxsize=CACHED_DIMS, typed=True)
def _triple_constants(n: int, tol: Tolerances):
    """(product space, diagonal, L0 x L0, reduction by K = their
    intersection, projected diagonal, projected L0 x L0): all of the
    triple routes but the graph of psi(1), built once per (n, tol) and
    shared read-only.  K lies inside both Lagrangians, so the reduction
    is admissible for every graph."""
    space = SymplecticSpace.graph_product(n)
    vert = vertical_lagrangian(n, tol)
    diag = diagonal_lagrangian(n, tol)
    pair = product_lagrangian(vert, vert, tol)
    k = subspace_intersection(diag.frame, pair.frame, tol)
    red = _admissible_reduction(space, k, (diag, pair), tol)
    return space, diag, pair, red, red.project(diag), red.project(pair)


def _triple_routes(psi1, x, tol: Tolerances) -> TripleCheck:
    """The four routes for a checked time-one map whose correction
    matrix is x (``_correction_matrix``'s): tau directly and in the
    reduction by K (``kashiwara_reduced`` with K = diagonal & L0 x L0),
    -sign X (which ``validate`` reads back) and the block-matrix form of
    -X/2.  X and the block matrix of a symmetric X are symmetric entry
    for entry, and so is each Kashiwara form, t + t^T, so the four forms
    take ``_form_counts`` unchecked: one ``eigvalsh`` per size."""
    space, diag, pair, red, red_diag, red_pair = _triple_constants(x.shape[0], tol)
    graph = _graph_frame(psi1, tol)

    # the congruence diag(I/sqrt(s), sqrt(s) I, I/sqrt(s)) maps the block
    # matrix of X onto that of X/s, so its signature is taken at s = 1 +
    # |X|_F, where the unit blocks do not drown the eigenvalues of X
    half = -0.5 * x
    n_pos, n_neg, _ = _form_counts([
        x, kashiwara_form(red.space, red_diag, red_pair, red.project(graph)),
        reduced_form_matrix(half / (1.0 + np.linalg.norm(half))),
        kashiwara_form(space, diag, pair, graph)], tol, 0.0)
    sign_x, tau_reduced, sign_y, tau_direct = (n_pos - n_neg).tolist()
    return TripleCheck(tau_direct, tau_reduced, -sign_x, sign_y)


def triple_routes_from(psi1, tol: Tolerances = DEFAULT_TOL) -> TripleCheck:
    """All four routes to tau(diagonal, L0 x L0, graph) of a time-one
    map, converted once for both ``_correction_matrix`` and the graph."""
    tol = as_tolerances(tol)
    psi1 = as_even_square(psi1, "time-one map")
    return _triple_routes(psi1, _correction_matrix(psi1, tol), tol)


# -- calibration of the coupling sign -----------------------------------------

#: rotation speeds used to pin the coupling sign; they straddle the
#: first sign change of the correction matrix
_CALIBRATION_SPEEDS = (2.0, 5.0)


def calibrate_sign(*, tol: Tolerances = DEFAULT_TOL) -> int:
    """Coupling sign sigma fixed by rotation probes.

    For each probe speed the orbit and graph indices are the certified
    phase scans of ``validate`` (``maslov._flow_indices``, one record of
    the generator for both), and the correction sign is that of the
    time-one map those scans return; sigma is the unique sign making the
    closed formula hold.  The probes must agree, otherwise
    CalibrationFailure is raised.
    """
    sigmas = []
    for alpha in _CALIBRATION_SPEEDS:
        orbit, graph, psi1, defect = _flow_indices(alpha * standard_J(1), tol)
        sx = sym_signature(_correction_matrix(psi1, tol, defect), tol).signature
        gap = orbit - graph
        if abs(gap.twice) != 1 or sx not in (-1, 1):
            raise CalibrationFailure(
                "probe alpha=%g gave gap %s and correction sign %d"
                % (alpha, gap, sx))
        sigmas.append(gap.twice * sx)
    if len(set(sigmas)) != 1:
        raise CalibrationFailure("probes disagree: %s" % (sigmas,))
    return sigmas[0]


@functools.lru_cache(maxsize=32)
def _calibrated_sign(tol: Tolerances) -> int:
    """``calibrate_sign(tol=tol)``, run once per process for each tol,
    the only input the probes depend on; a failure is not cached and is
    raised again on the next call."""
    return calibrate_sign(tol=tol)


def _coupling_sign(sigma, tol: Tolerances) -> int:
    """The calibrated sign when ``sigma`` is None, else ``sigma`` checked
    to be the integer +1 or -1 (CalibrationFailure otherwise).  ``tol``
    is checked first, so the cache never hashes a tol that is not a
    Tolerances."""
    as_tolerances(tol)
    if sigma is None:
        return _calibrated_sign(tol)
    try:
        if as_int(sigma, "sigma") in (-1, 1):
            return int(sigma)
    except InputError:
        pass
    raise CalibrationFailure("sigma must be +1 or -1, got %r" % (sigma,))


# -- the closed formula and the validation report -----------------------------

def maslov_via_formula(system: HamiltonianSystem, sigma: Optional[int] = None, *,
                       tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Orbit index predicted by the closed formula.

    ``sigma`` defaults to the calibrated coupling sign; pass +1 or -1
    to force a convention.  The ``conley_zehnder`` scan and the
    correction read one flow record of the generator, and the correction
    its psi(1), so they answer as ``validate``'s graph and correction.
    """
    _as_system(system)
    sigma = _coupling_sign(sigma, tol)
    graph = conley_zehnder(system.h, tol=tol)
    return graph + HalfInt(sigma * correction_sign(system, tol))


@dataclass(frozen=True)
class IndexReport:
    """All index routes of one system, with their agreements."""

    orbit_index: HalfInt
    graph_index: HalfInt
    sigma: int
    correction: Optional[int]
    formula_index: Optional[HalfInt]
    tau_direct: Optional[int]
    tau_reduced: Optional[int]
    agree: bool


def validate(system: HamiltonianSystem, sigma: Optional[int] = None,
             grid: int = 256, tol: Tolerances = DEFAULT_TOL) -> IndexReport:
    """Run every available route and report their agreement.

    When the time-one map violates the transversality hypothesis (for
    instance for loops), the formula side is left out and only the
    direct scans are reported; ``agree`` then records that no computed
    routes disagreed.  ``grid`` is validated as in ``maslov_index``,
    before any scan, and does not change the certified scans.  Both
    scans read one record of the generator (``maslov._flow_indices``),
    so it is checked, diagonalized and decomposed once, and the formula
    reads psi(1) from their flow sample at t = 1: no second ``expm``, and
    no symplectic check where the record's bound on its defect certifies
    it (``_correction_matrix``).
    """
    _as_system(system)
    _grid_cells(grid)
    sigma = _coupling_sign(sigma, tol)
    orbit, graph, psi1, defect = _flow_indices(system.h, tol)
    try:
        x = _correction_matrix(psi1, tol, defect)
    except TransversalityViolated:
        return IndexReport(orbit, graph, sigma, None, None, None, None, True)
    check = _triple_routes(psi1, x, tol)
    correction = -check.sign_x
    formula = graph + HalfInt(sigma * correction)
    agree = bool(orbit == formula and check.consistent)
    return IndexReport(orbit, graph, sigma, correction, formula,
                       check.tau_direct, check.tau_reduced, agree)
