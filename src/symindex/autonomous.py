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
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    CalibrationFailure,
    InternalMismatch,
    NotSymplectic,
    SymmetryDefect,
    TransversalityViolated,
)
from .halfint import HalfInt
from .kashiwara import _admissible_reduction, kashiwara_index
from .maslov import _flow_indices, conley_zehnder, maslov_index_symplectic
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_even_square,
    as_square,
    as_tolerances,
    singular_values,
    spectral_norm,
    sym_signature,
)
from .symplectic import (
    CACHED_DIMS,
    SymplecticSpace,
    _generator,
    diagonal_lagrangian,
    graph_lagrangian,
    is_symplectic,
    product_lagrangian,
    standard_J,
    subspace_intersection,
    vertical_lagrangian,
)

#: the coupling sign the closed formula is usually quoted with
PUBLISHED_SIGN = 1


@dataclass(frozen=True, eq=False)
class HamiltonianSystem:
    """An autonomous linear Hamiltonian system, held by its generator."""

    h: np.ndarray

    @property
    def n(self) -> int:
        return self.h.shape[0] // 2

    def psi(self, t: float):
        """Fundamental solution at time t."""
        return scipy.linalg.expm(t * self.h)


def make_system(h, tol: Tolerances = DEFAULT_TOL) -> HamiltonianSystem:
    return HamiltonianSystem(_generator(h, None, tol))


def fundamental_solution(system, t: float = 1.0):
    """psi(t) of a system or of a raw generator matrix."""
    if not isinstance(system, HamiltonianSystem):
        system = make_system(system)
    return system.psi(t)


def split_blocks(m):
    """(A, B, C, D) blocks of a 2n x 2n matrix in the (x, y) splitting."""
    m = as_even_square(m, "matrix")
    n = m.shape[0] // 2
    return m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]


def _corner_invertible(b, tol: Tolerances) -> bool:
    """Whether the upper-right block B is numerically invertible."""
    s = singular_values(b)
    return bool(s.size > 0 and s[-1] > tol.eps_rank * max(s[0], 1.0))


def transversality_H(system: HamiltonianSystem, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Whether psi(1) L0 is transversal to the vertical L0, i.e. B invertible."""
    tol = as_tolerances(tol)
    return _corner_invertible(split_blocks(system.psi(1.0))[1], tol)


def _correction_formula(a, b, c, d):
    """X = C + (D - I) B^(-1) (I - A) from the blocks, not symmetrized."""
    eye = np.eye(b.shape[0])
    return c + (d - eye) @ np.linalg.solve(b, eye - a)


def _correction_matrix(psi1, tol: Tolerances):
    """The symmetric correction matrix X of a symplectic time-one map.

    Raises TransversalityViolated when B is numerically singular and
    SymmetryDefect when the computed matrix fails to be symmetric,
    which signals an input too far from the symplectic group.
    """
    psi1 = as_square(psi1, "time-one map")
    if not is_symplectic(psi1, tol):
        raise NotSymplectic("time-one map does not preserve the form")
    a, b, c, d = split_blocks(psi1)
    if not _corner_invertible(b, tol):
        raise TransversalityViolated("upper-right block of the time-one map "
                                     "is singular")
    x = _correction_formula(a, b, c, d)
    defect = np.linalg.norm(x - x.T)
    if defect > tol.eps_sym * (1.0 + spectral_norm(x)):
        raise SymmetryDefect("correction matrix defect %.3e" % defect)
    return 0.5 * (x + x.T)


def correction_matrix(system: HamiltonianSystem, tol: Tolerances = DEFAULT_TOL):
    """Correction matrix of the system's time-one map."""
    return _correction_matrix(system.psi(1.0), tol)


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
    eye = np.eye(n)
    zero = np.zeros((n, n))
    return np.block([
        [zero, -eye, x],
        [-eye, zero, eye],
        [x.T, eye, zero],
    ])


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
    """The four routes for a time-one map whose correction matrix is x:
    tau directly and in the reduction by K (``kashiwara_reduced`` with
    K = diagonal & L0 x L0), sign(-X/2) and its block-matrix form."""
    space, diag, pair, red, red_diag, red_pair = _triple_constants(psi1.shape[0] // 2, tol)
    graph = graph_lagrangian(psi1, tol)
    tau_direct = kashiwara_index(space, diag, pair, graph, tol)
    tau_reduced = kashiwara_index(red.space, red_diag, red_pair, red.project(graph), tol)

    # minus one half of the correction matrix carries the same signature
    half = -0.5 * x
    return TripleCheck(tau_direct, tau_reduced, sym_signature(half, tol).signature,
                       sym_signature(reduced_form_matrix(half), tol).signature)


def triple_routes_from(psi1, tol: Tolerances = DEFAULT_TOL) -> TripleCheck:
    """All four routes to tau(diagonal, L0 x L0, graph) of a time-one map."""
    psi1 = as_square(psi1, "time-one map")
    return _triple_routes(psi1, _correction_matrix(psi1, tol), tol)


def triple_index_cross_check(system: HamiltonianSystem,
                             tol: Tolerances = DEFAULT_TOL) -> TripleCheck:
    """Evaluate all routes to the triple index and insist they agree."""
    check = triple_routes_from(system.psi(1.0), tol)
    if not check.consistent:
        raise InternalMismatch(
            "triple index routes disagree: direct %d, reduced %d, "
            "sign X %d, sign Y %d"
            % (check.tau_direct, check.tau_reduced, check.sign_x, check.sign_y))
    return check


# -- calibration of the coupling sign -----------------------------------------

#: rotation speeds used to pin the coupling sign; they straddle the
#: first sign change of the correction matrix
_CALIBRATION_SPEEDS = (2.0, 5.0)


def calibrate_sign(*, tol: Tolerances = DEFAULT_TOL) -> int:
    """Coupling sign sigma fixed by rotation probes.

    For each probe speed the orbit and graph indices are the certified
    phase scans of ``maslov_index_symplectic`` and ``conley_zehnder``,
    and the correction sign comes from the time-one map; sigma is the
    unique sign making the closed formula hold.  The probes must agree,
    otherwise CalibrationFailure is raised.
    """
    sigmas = []
    for alpha in _CALIBRATION_SPEEDS:
        system = make_system(alpha * standard_J(1), tol)
        orbit = maslov_index_symplectic(system.h, tol=tol)
        graph = conley_zehnder(system.h, tol=tol)
        sx = correction_sign(system, tol)
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
    if isinstance(sigma, bool) or not isinstance(sigma, numbers.Integral) or sigma not in (-1, 1):
        raise CalibrationFailure("sigma must be +1 or -1, got %r" % (sigma,))
    return int(sigma)


# -- the closed formula and the validation report -----------------------------

def maslov_via_formula(system: HamiltonianSystem, sigma: Optional[int] = None, *,
                       tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Orbit index predicted by the closed formula.

    ``sigma`` defaults to the calibrated coupling sign; pass +1 or -1
    to force a convention.
    """
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
    routes disagreed.  ``grid`` is validated as in ``maslov_index`` and
    does not change the certified scans.  Both scans read one record of
    the generator (``maslov._flow_indices``), so it is checked,
    diagonalized and decomposed once.
    """
    sigma = _coupling_sign(sigma, tol)
    orbit, graph = _flow_indices(system.h, grid, tol)
    psi1 = system.psi(1.0)
    try:
        x = _correction_matrix(psi1, tol)
    except TransversalityViolated:
        return IndexReport(orbit, graph, sigma, None, None, None, None, True)
    check = _triple_routes(psi1, x, tol)
    correction = sym_signature(x, tol).signature
    formula = graph + HalfInt(sigma * correction)
    agree = bool(orbit == formula and check.consistent)
    return IndexReport(orbit, graph, sigma, correction, formula,
                       check.tau_direct, check.tau_reduced, agree)
