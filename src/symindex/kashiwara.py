"""Triple and quadruple indices of Lagrangian subspaces.

The triple index tau(L1, L2, L3) is the signature of the quadratic form

    Q(x1, x2, x3) = omega(x1, x2) + omega(x2, x3) + omega(x3, x1)

on L1 + L2 + L3.  It is antisymmetric in its arguments, invariant under
the symplectic group, and additive under direct sums.  The quadruple
(difference) index built from it computes the change of a path index
when the reference Lagrangian is swapped.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateForm, InputError, KNotAdmissible
from .halfint import HalfInt
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    as_tolerances,
    spectral_norm,
    sym_signature,
)
from .symplectic import (
    LagrangianFrame,
    SymplecticReduction,
    SymplecticSpace,
    _frame_of,
    horizontal_lagrangian,
    lagrangian_frame,
    vertical_lagrangian,
)


def kashiwara_form(space: SymplecticSpace, l1: LagrangianFrame,
                   l2: LagrangianFrame, l3: LagrangianFrame):
    """Symmetric matrix of Q on L1 + L2 + L3 in the frame coordinates."""
    space.check_same(l1, l2, l3)
    n = space.half_dim
    t = np.zeros((3 * n, 3 * n))
    t[0:n, n:2 * n] = 0.5 * space.pairing(l1.frame, l2.frame)
    t[n:2 * n, 2 * n:] = 0.5 * space.pairing(l2.frame, l3.frame)
    t[2 * n:, 0:n] = 0.5 * space.pairing(l3.frame, l1.frame)
    return t + t.T


def kashiwara_index(space: SymplecticSpace, l1: LagrangianFrame,
                    l2: LagrangianFrame, l3: LagrangianFrame,
                    tol: Tolerances = DEFAULT_TOL) -> int:
    """Triple index tau(L1, L2, L3) as an integer."""
    return sym_signature(kashiwara_form(space, l1, l2, l3), tol).signature


def kashiwara_transversal(a, tol: Tolerances = DEFAULT_TOL) -> int:
    """Closed form of the transversal triple: for symmetric invertible A,

        tau(horizontal, graph of A, vertical) = sign A,

    where the graph sits over the horizontal factor, {(x, A x)}.
    """
    tol = as_tolerances(tol)
    a = as_square(a, "matrix")
    defect = np.linalg.norm(a - a.T)
    if defect > tol.eps_sym * (1.0 + spectral_norm(a)):
        raise InputError("transversal closed form needs a symmetric matrix")
    inertia = sym_signature(a, tol)
    if inertia.n_zero:
        raise DegenerateForm("matrix is singular; the triple is not transversal")
    return inertia.signature


def transversal_triple(a, tol: Tolerances = DEFAULT_TOL):
    """(space, horizontal, graph of A, vertical) for a symmetric A."""
    a = as_square(a, "matrix")
    n = a.shape[0]
    space = SymplecticSpace.standard(n)
    graph = lagrangian_frame(space, np.vstack([np.eye(n), a]), tol)
    return space, horizontal_lagrangian(n, tol), graph, vertical_lagrangian(n, tol)


def _contains(l: LagrangianFrame, k, tol: Tolerances) -> bool:
    if k.shape[1] == 0:
        return True
    resid = k - l.frame @ (l.frame.T @ k)
    return bool(np.linalg.norm(resid) <= 1e3 * tol.eps_rank * max(1.0, np.linalg.norm(k)))


def _admissible_reduction(space: SymplecticSpace, k_frame, lagrangians,
                         tol: Tolerances = DEFAULT_TOL) -> SymplecticReduction:
    """The reduction of ``space`` by an isotropic K that lies inside at
    least two of ``lagrangians``, else KNotAdmissible.  Any triple
    holding two such Lagrangians keeps its index in the reduced space:
    the one admissibility decision of the reduction route."""
    k = _frame_of(space, k_frame, "K frame")
    if sum(_contains(l, k, tol) for l in lagrangians) < 2:
        raise KNotAdmissible("K must lie inside two of the three Lagrangians")
    return SymplecticReduction(space, k, tol)


def kashiwara_reduced(space: SymplecticSpace, k_frame, l1: LagrangianFrame,
                      l2: LagrangianFrame, l3: LagrangianFrame,
                      tol: Tolerances = DEFAULT_TOL) -> int:
    """Triple index computed in the reduction by an isotropic K.

    Requires K to lie inside at least two of the three Lagrangians;
    then tau is unchanged by passing to K-perp/K, which this function
    evaluates on the reduced frames.
    """
    tol = as_tolerances(tol)
    space.check_same(l1, l2, l3)
    red = _admissible_reduction(space, k_frame, (l1, l2, l3), tol)
    if red.space is None:
        return 0
    return kashiwara_index(red.space, red.project(l1), red.project(l2),
                           red.project(l3), tol)


def hormander_index(space: SymplecticSpace, l0: LagrangianFrame,
                    l1: LagrangianFrame, l0p: LagrangianFrame,
                    l1p: LagrangianFrame, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Quadruple index s(L0, L1; L0', L1') as an exact half integer.

    Normalized so that for any Lagrangian path l with l(a) = L0' and
    l(b) = L1', the difference of path indices relative to the two
    references is

        index(l; L1) - index(l; L0) = s(L0, L1; L0', L1'),

    and in terms of the triple index

        s = ( tau(L0, L1, L1') - tau(L0, L1, L0') ) / 2.
    """
    space.check_same(l0, l1, l0p, l1p)
    t1 = kashiwara_index(space, l0, l1, l1p, tol)
    t0 = kashiwara_index(space, l0, l1, l0p, tol)
    return HalfInt(t1 - t0)
