"""Maslov-type indices of Lagrangian paths from the phase of det Z.

A path l(t) is a frame function F(t).  In the chart of a reference L
with orthonormal frame Q, Z(t) = Q^T (I - i Omega) F(t); dim(l(t) & L)
counts the eigenphases at 0 of W = Z conj(Z)^(-1).  With Phi the lift
of 2 arg det Z and theta_j in [0, 2 pi) the eigenphases at the ends
(those near 0 set to 0 and counted as the dimension),

    index = [Phi(b) - Phi(a) - sum theta(b) + sum theta(a)] / 2 pi
            + 1/2 dim(a) - 1/2 dim(b),

the spectral flow form of the Robbin-Salamon index.  ``find_crossings``
also classifies each crossing t0 by its form Gamma(v) = d/dt omega(v,
w(t, v)) on l(t0) & L; their half sum must equal the phase index.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InputError,
    InternalMismatch,
    NonRegularCrossing,
    NotHamiltonian,
    NotLagrangian,
    SymindexError,
)
from .halfint import ZERO, HalfInt
from .numerics import (
    DEFAULT_TOL,
    Inertia,
    Tolerances,
    as_even_square,
    as_int,
    as_matrix,
    as_real,
    as_tolerances,
    band_counts,
    expm,
)
from .symplectic import (
    CACHED_DIMS,
    LagrangianFrame,
    SymplecticSpace,
    _hamiltonian_for,
    diagonal_lagrangian,
    lagrangian_frame,
    vertical_lagrangian,
)

#: smallest admissible number of grid cells
MIN_GRID = 64
#: located crossing times closer than this are treated as one crossing
MERGE_TOL = 1e-9
#: width to which a bracketed crossing time is narrowed (or 4 float spacings)
REFINE_XTOL = 1e-12
#: relative floor below which a nonzero form eigenvalue is ambiguous
GRAY_FACTOR = 1e-6
#: most cells a certified scan may take; a path that needs more raises GridTooCoarse
MAX_CELLS = 2 ** 20
#: largest move of arg det Z a certified cell may bound: ``_lift`` (``np.unwrap``)
#: lifts every step below pi exactly, and pi/8 covers the rounding of the samples
CELL_PHASE = 7.0 * math.pi / 8.0


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """A path of Lagrangian subspaces given by a raw frame function.

    ``frame_fn(t)`` returns a 2n x n frame with independent (not
    necessarily orthonormal) columns.  ``dframe_fn`` is its derivative;
    when absent the frames at t -+ 1e-6 are differenced over the float
    distance of those two times (InputError where both round to t), so
    ``frame_fn`` should be smooth slightly beyond the interval ends.
    The built-in factories set ``_rate_bound``, a bound on |d arg det Z
    / dt| in any reference chart; ``dataclasses.replace`` keeps it, so a
    new ``frame_fn`` must trace the same path.  The frame functions of
    the flow paths of a certified record are ``certified`` (``_Stacked``);
    a new ``frame_fn`` may return other frames of the path and drops the
    flag, so its frames take every check of the scan.
    """

    space: SymplecticSpace
    frame_fn: Callable[[float], np.ndarray]
    dframe_fn: Optional[Callable[[float], np.ndarray]]
    interval: Tuple[float, float]
    _rate_bound: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "interval", _interval(self.interval))

    def frame(self, t: float):
        f = as_matrix(self.frame_fn(t), "path frame")
        if f.shape != (self.space.dim, self.space.half_dim):
            raise DimensionMismatch("path frame has shape %s" % (f.shape,))
        return f

    def dframe(self, t: float):
        if self.dframe_fn is not None:
            d = as_matrix(self.dframe_fn(t), "path frame derivative")
            if d.shape != (self.space.dim, self.space.half_dim):
                raise DimensionMismatch("derivative has shape %s" % (d.shape,))
            return d
        lo, hi = t - 1e-6, t + 1e-6
        if lo == hi:
            raise InputError("no finite difference of the path frame at t=%g: "
                             "t +- 1e-6 round to t" % t)
        return (self.frame(hi) - self.frame(lo)) / (hi - lo)


def _interval(interval) -> Tuple[float, float]:
    """``interval`` as a pair of floats (a, b), finite with a < b, else
    InputError; the check of every path."""
    try:
        a, b = (as_real(t, "interval bound") for t in interval)
    except (TypeError, ValueError):  # not iterable, or not two values
        raise InputError("interval must be a pair (a, b), got %r" % (interval,))
    if not (a < b and math.isfinite(b - a)):  # nan, inf and overflow fail
        raise InputError("interval must be finite with a < b")
    return a, b


def path_from_frames(space: SymplecticSpace, frame_fn, interval=(0.0, 1.0),
                     dframe_fn=None) -> LagrangianPath:
    return LagrangianPath(space, frame_fn, dframe_fn, interval)


class _Stacked:
    """Frame function of a built-in path: ``stack(ts)`` evaluates a whole
    array of times, a call the batch of one.  Scan batches must also fit
    the complex flow matrix of ``sample_bytes`` behind each sample.

    ``certified`` is set where the certificate of a flow record
    (``_record_of``) proves that every frame the function returns at a
    time in [0, 1] passes the rank and the Lagrangian checks of a scan
    (``_flow_scans``, (a)-(c)); ``_frames`` and ``_chart_samples`` skip
    them on a batch of such times.  The proof is drawn at the ``tol`` of
    the factory; a scan under another ``tol`` trusts it too, where only
    an eps_rank above (eps_rank / 1e-3)^(1/2) of the factory's could
    have refused a frame.  The flag belongs to the function, not to the
    path, so a path given another frame function by
    ``dataclasses.replace`` is not certified."""

    def __init__(self, stack, flow_dim: int, certified: bool = False):
        self.stack = stack
        self.sample_bytes = 16 * flow_dim * flow_dim
        self.certified = certified

    def __call__(self, t):
        return self.stack(np.array([t], dtype=float))[0]


@dataclass(frozen=True, eq=False)
class _FlowRecord:
    """The flow of a generator h checked once, shared read-only: ``h``,
    ``vals`` and the arrays of ``eigen``, ``exponent`` and ``factors``
    refuse writes.  ``norm`` is the spectral norm of h that the
    generator check measured, ``vals`` the eigenvalues of its one ``eig``
    (None where ``eig`` fails).  ``stack(ts)`` is the stack of exp(t h)
    at the times ts, each matrix equal bit for bit to the flow at its
    time alone.  When kappa = cond V of the eigenvectors V of h is below
    1e7 and the flow at 0 is I within 1e-10, ``eigen`` is (V, V^-1) and
    exp(t h) = Re (V * exp(t exponent)) @ V^-1, where ``exponent`` is
    ``vals`` with the eigenvalues that ``_record_of`` snaps onto i pi k
    set to i pi k exactly (``vals`` itself where none is) and ``snaps``
    holds (index, k, distance, bound) of each snap; else (a defective or
    ill-conditioned h, kappa inf when ``eig`` fails) ``eigen`` and
    ``exponent`` are None, ``snaps`` is empty and the stack is
    ``numerics.expm`` of t h.  ``origin_defect`` is delta0 = |F0 - I|_F
    for the flow F0 at 0 as ``stack`` forms it: Re V V^-1 on the eigen
    branch, whose exp(0 exponent) are all 1, and 0 on the ``expm``
    branch, where expm(0) is I exactly.  The frame functions of the flow
    paths (``orbit_path``, ``graph_path``) and the scans of the flow
    routes (``_flow_scans``) read the flow through ``stack``; none keeps
    a copy of it.

    ``defect`` is D, a bound on the symplectic defect |Phi(t)^T J Phi(t)
    - J|_2 over t in [0, 1] of the flow Phi(t) as ``stack`` forms it,
    derived in ``_record_of``; inf on the ``expm`` branch, for a space
    other than the standard one and where the rank premise of
    ``_record_of`` fails.  With g = kappa exp(max |Re lambda|), which
    bounds |Phi(t)| and |Phi(t)^-1| on [0, 1], the record is certified
    where 16 n D g^2 <= 1; then ``factors`` is (L, R), the eigen factors
    of Z(t) = L (exp(t exponent) o R) of the flow routes "orbit" and
    "graph" stacked in that order (``_flow_scans``), and the frame
    functions of ``orbit_path`` from the vertical and of ``graph_path``
    are ``certified`` (``_Stacked``); else it is None.

    ``bound`` is the rate bound B of both paths: with S = sym(-Omega h),
    the Hamiltonian form of h on the space of form Omega, B = max(sum of
    the n largest eigenvalues of S, -sum of the n smallest).  In a space
    whose form is orthogonal with square -1, arg det Z of a Lagrangian
    moved by w' = h w turns at tr(S P) (Robbin-Salamon's crossing form,
    traced) with P = Q Q^T for the orbit's orthonormal frame Q and the
    lower block Q_b Q_b^T of the graph's; 0 <= P <= I and tr P = n (P +
    Omega P Omega^T = I), so |tr(S P)| <= B, which rotations attain.  B
    is at most the Ky Fan sum of the n largest singular values of h.

    The Krein layer reads the same record: ``krein._record_pass`` keeps
    one Krein pass per record, taken from ``eigen``, ``kappa`` and
    ``norm`` where they certify it and else from the checked ``h``,
    ``vals`` and ``norm``, so the scans and the spectral routes of one
    generator share one generator check and one ``eig``."""

    h: np.ndarray
    norm: float
    bound: float
    kappa: float
    origin_defect: float
    vals: Optional[np.ndarray]
    eigen: Optional[Tuple[np.ndarray, np.ndarray]]
    exponent: Optional[np.ndarray] = None
    snaps: Tuple[Tuple[int, int, float, float], ...] = ()
    defect: float = math.inf
    factors: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def stack(self, ts):
        if self.eigen is None:
            return expm(ts[:, None, None] * self.h)
        vecs, vinv = self.eigen
        return ((vecs * np.exp(ts[:, None] * self.exponent)[:, None, :]) @ vinv).real


def _flow_record(h, space: Optional[SymplecticSpace], tol: Tolerances) -> _FlowRecord:
    """The record of the generator ``h`` of ``space`` (default: the
    standard space of its size), the one generator check of every route:
    ``tol`` a Tolerances, else InputError; a finite square matrix of even
    size, else InputError or OddDimension; the size of ``space``, else
    DimensionMismatch; Hamiltonian within ``tol``, else NotHamiltonian.

    The three records used last are kept, keyed by the C-order bytes of
    h as a float64 matrix, its size, ``space`` and ``tol``, so the routes
    of one generator check and diagonalize it once while it stays kept
    (``make_system`` builds it, so a route on the system it returns
    finds it kept).  A ``space`` whose form is the standard form entry
    for entry is keyed as the standard space, so h has one record
    however that space was built.  Three is just enough for h and the
    records of the two calibration probes, so the first
    ``validate(make_system(h))`` of a process with the calibrated sign
    still finds h's record kept.
    ``tol`` and the matrix are checked before the key is formed, so
    their typed errors come first; a miss runs the rest of the check on
    the float64 copy of the key, so h is converted once.  A generator
    that raises is not kept and leaves the kept records in place.  The
    record reads a copy of h, so a caller's later write to its array
    does not reach it."""
    tol = as_tolerances(tol)
    h = as_even_square(h, "generator")
    if space is not None and np.array_equal(space.form,
                                            SymplecticSpace.standard(h.shape[0] // 2).form):
        space = None
    return _record_of(h.tobytes(), h.shape[0], space, tol)


#: unit roundoff of the record's error bounds, 2^-52 (twice that of one
#: rounding)
_U = 2.0 ** -52
#: the c of the snap rule of ``_record_of``: an exponent within c cond_i u
#: |h| of i pi k becomes i pi k
_SNAP = 10.0


@functools.lru_cache(maxsize=3)
# a generator near the largest doubles overflows to bounds that refuse: a
# rate bound that is not finite raises GridTooCoarse (``_scan_times``), a
# defect that is not finite certifies nothing
@np.errstate(over="ignore", invalid="ignore")
def _record_of(data: bytes, d: int, space: Optional[SymplecticSpace],
               tol: Tolerances) -> _FlowRecord:
    """``_flow_record`` of the d x d float64 matrix h of C-order bytes
    ``data`` (read-only over them) within a checked ``tol``: the size
    check, then the Hamiltonian check, whose spectral norm |h| the record
    keeps and whose defect delta_h = |h^T J + J h|_F its certificate
    reads, then the flow.

    The snap (eigen branch, ``_snap``).  An eigenvalue lambda_i of ``eig``
    is off by about cond_i u |h|, with cond_i = |V e_i| |e_i^T V^-1|
    (Wilkinson) and u = 2^-52.  Where lambda_i lies within c cond_i u |h|
    of i pi k, k = round(Im lambda_i / pi), and so does its Hamiltonian
    partner -conj(lambda_i), its exponent is i pi k exactly, so the flow
    at 1 of a loop or of a k pi turn is exp(i pi k) = +-1 on that
    eigenvector.  ``eig`` of a real matrix returns conjugates exactly, so
    lambda, -conj(lambda), conj(lambda) and -lambda snap together.
    c = 10 is set by the margins |lambda - i pi k| / (cond_i u |h|):
    every one of the 2600 draws of the censuses of tests/test_census.py,
    whose ends are degenerate, has an eigenvalue within 3.2; the inputs of
    tools/parity_sweep.py whose ends are not degenerate keep at least 717
    (``near 2pi +-1e-12``); and the near loops S (2 pi + delta) J_1 S^-1
    of the census recipe, not degenerate either, reach down to 2.6 at
    delta = 1e-8, where c = 10 snaps 7 of 400 draws (c = 48 would snap
    33, and 2 of 400 at delta = +-1e-7), none with a margin above 100,
    where the computed spectrum resolves the side of 2 pi.  Only |k| <
    2^23 snaps, the lattice on which the closed forms place a speed
    (``_turns``): beyond it the doubles cannot tell i pi k from its
    neighbours, and from |h| of about pi / (2 c u) = 7e14 every exponent
    would lie within its bound of some i pi k.  ``vals`` stays the output
    of ``eig``.

    The rank premise.  The singular values of the orbit frames V exp(t
    Lambda') V^-1 F0, F0 orthonormal, lie within kappa exp(t max Re
    lambda') and exp(t min Re lambda') / kappa, and those of the graph
    frames [I; Phi] in [1, 1 + |Phi|], so for t in [0, 1] their cond F(t)
    is at most B = kappa^2 exp(max Re lambda' - min Re lambda') and B = 2
    kappa exp(max |Re lambda'|).  The certificate is formed only where
    both have B^2 <= 1e-3 / eps_rank, six orders inside the rank rule's
    cut at the default tol.

    The certificate D (``_certificate``), for the standard form J where
    the rank premise holds.  Write V, W for the computed V^-1, Lambda'
    for the exponent, kappa = cond V, g = kappa exp(max |Re lambda'|), e
    = 4 (d + 2) d u, and h' = V Lambda' V^-1 with the exact inverse.  The
    columns of V and the exponents come in exact conjugate pairs, so h'
    is real; the columns are unit vectors, so |V^-1| <= kappa, and Psi(t)
    = exp(t h') = V exp(t Lambda') V^-1 and its inverse have norms at
    most g on [0, 1].

    - Generator: h' - h = (V Lambda - h V) V^-1 + V (Lambda' - Lambda)
      V^-1, so rho = |h' - h|_2 <= kappa (|h V - V Lambda|_F + max |lambda'
      - lambda| + 3 e |h|), from one product per record, 3 e |h| covering
      its rounding: ``eig`` is backward stable, so every computed
      eigenvalue is at most 2 |h| in modulus.  The snap adds its kappa max
      |lambda' - lambda|.
    - Flow: d/dt Psi^T J Psi = Psi^T (h'^T J + J h') Psi, and h'^T J + J
      h' = (h^T J + J h) + (h' - h)^T J + J (h' - h), so |Psi(t)^T J
      Psi(t) - J|_2 <= t g^2 (delta_h + 2 rho).
    - Rounding of ``stack``: Phi = Re fl(fl(V o E^) W) with E^ the
      computed exp(t lambda').  Phi - Psi is the real part of V E (W -
      V^-1) + V (E^ - E) W plus the rounding of the products, where V E
      (W - V^-1) = Psi (V W - I), |E^ - E| <= (|t lambda'| + 4) u |E|,
      |V|_F = sqrt d, |W|_F <= sqrt d kappa, and a complex product of
      length d errs by at most 2 (d + 2) u times the product of the
      absolute values.  So epsilon = g (|fl(V W) - I|_F + e (1 + kappa +
      2 |h|)) bounds |Phi(t) - Psi(t)|_2 on [0, 1]: the defect of
      the computed inverse (e kappa covering the rounding of fl(V W)),
      the imaginary part that ``Re`` drops (|Re Y| <= |Y|) and the
      products.

    With Delta = Phi - Psi, Phi^T J Phi - J = (Psi^T J Psi - J) + Delta^T
    J Psi + Psi^T J Delta + Delta^T J Delta, so

        D = 2 [g^2 (delta_h + 2 rho) + 2 g epsilon + epsilon^2]

    bounds the defect on [0, 1]; the factor 2 covers the rounding of the
    bound's own arithmetic and of the computed kappa, norms and
    exponentials.  The record is certified where 16 n D g^2 <= 1;
    ``_flow_scans`` shows what that certifies."""
    h = np.frombuffer(data).reshape(d, d)
    form = (SymplecticSpace.standard(d // 2) if space is None else space).form
    if form.shape != h.shape:
        raise DimensionMismatch("generator does not match the space")
    hamiltonian, norm, delta_h = _hamiltonian_for(h, form, tol)
    if not hamiltonian:
        raise NotHamiltonian("generator is not Hamiltonian for the form of its space")
    n = d // 2
    s = -form @ h
    eigs = np.linalg.eigvalsh(0.5 * (s + s.T))
    bound = float(max(eigs[n:].sum(), -eigs[:n].sum()))
    kappa, vals = math.inf, None
    try:
        vals, vecs = np.linalg.eig(h)
        vals.flags.writeable = False
        kappa = float(np.linalg.cond(vecs))
        if kappa < 1e7:
            vinv = np.linalg.inv(vecs)
            product = vecs @ vinv
            # the flow at 0 as ``stack`` forms it, whose exp(0 exponent) are all 1
            defect = float(np.linalg.norm(product.real - np.eye(d)))
            if defect <= 1e-10:
                vecs.flags.writeable = vinv.flags.writeable = False
                exponent, snaps = _snap(vals, vinv, norm, kappa)
                re = exponent.real
                reach = float(np.abs(re).max())
                # log B of the orbit and the graph frames, the rank premise
                logs = (2.0 * math.log(kappa) + float(re.max() - re.min()),
                        math.log(2.0 * kappa) + reach)
                certificate = math.inf, None
                if space is None and all(2.0 * c <= math.log(1e-3 / tol.eps_rank)
                                         for c in logs):
                    certificate = _certificate(h, norm, delta_h, vecs, vinv, vals, product, defect,
                                               snaps, kappa, reach)
                return _FlowRecord(h, norm, bound, kappa, defect, vals, (vecs, vinv),
                                   exponent, snaps, *certificate)
    except np.linalg.LinAlgError:
        pass
    return _FlowRecord(h, norm, bound, kappa, 0.0, vals, None)


def _snap(vals, vinv, norm, kappa):
    """(exponent, snaps) of the snap rule of ``_record_of``: ``vals`` with
    each eigenvalue lambda_i within ``_SNAP`` cond_i u |h| of i pi k, k =
    round(Im lambda_i / pi) below 2^23 in modulus, whose partner
    -conj(lambda_i) is too, set to i pi k, and (i, k, distance, bound) of
    each; ``vals`` itself and () where none is near.  ``eig`` returns
    unit eigenvectors, so cond_i is the norm of row i of V^-1, at most
    |V^-1| <= kappa; the partner of lambda_i is the eigenvalue nearest
    -conj(lambda_i)."""
    k = np.rint(vals.imag / math.pi)
    distance = np.abs(vals - 1j * math.pi * k)
    if distance.min() > _SNAP * _U * norm * 2.0 * kappa:  # beyond every bound
        return vals, ()
    bound = np.linalg.norm(vinv, axis=1) * (_SNAP * _U * norm)
    near = (distance <= bound) & (np.abs(k) < 2.0 ** 23)  # on the lattice of ``_turns``
    if not near.any():
        return vals, ()
    near &= near[np.abs(vals[:, None] + vals.conj()).argmin(axis=0)]  # and its partner
    # i pi k; a real spectrum snaps onto 0 only
    exponent = np.where(near, 1j * math.pi * k if np.iscomplexobj(vals) else 0.0, vals)
    exponent.flags.writeable = False
    return exponent, tuple((int(i), int(k[i]), float(distance[i]), float(bound[i]))
                           for i in np.flatnonzero(near))


def _certificate(h, norm, delta_h, vecs, vinv, vals, product, origin_defect, snaps, kappa, reach):
    """(D, factors) of ``_record_of``: the bound D on the symplectic
    defect of the stacked flow on [0, 1], from the checked h of spectral
    norm ``norm`` and Hamiltonian defect ``delta_h``, its unit
    eigenvectors, their computed inverse and their computed product, whose
    real part is ``origin_defect`` from I, its eigenvalues and ``snaps``,
    kappa and max |Re lambda'| = ``reach``; and, where the record is
    certified, the (L, R) of ``_flow_scans``' factored source, the
    orbit's then the graph's stacked and read-only, else None."""
    d, n = len(h), len(h) // 2
    g, rounding = kappa * math.exp(reach), 4.0 * (d + 2) * d * _U
    rho = kappa * (float(np.linalg.norm(h @ vecs - vecs * vals))
                   + max((snap[2] for snap in snaps), default=0.0) + rounding * 3.0 * norm)
    # |fl(V W) - I|_F from the defects of its real and imaginary parts
    epsilon = g * (math.hypot(origin_defect, float(np.linalg.norm(product.imag)))
                   + rounding * (1.0 + kappa + 2.0 * norm))
    defect = 2.0 * (g * g * (delta_h + 2.0 * rho) + (2.0 * g + epsilon) * epsilon)
    if 16.0 * n * defect * g * g > 1.0:
        return defect, None
    # Z(t) is D - iB for the orbit and (A + D) + i (C - B) for the graph
    factors = (np.array((vecs[n:] - 1j * vecs[:n], vecs[:n] + 1j * vecs[n:])),
               np.array((vinv[:, n:], vinv[:, :n] - 1j * vinv[:, n:])))
    factors[0].flags.writeable = factors[1].flags.writeable = False
    return defect, factors


def orbit_path(h, start: Optional[LagrangianFrame] = None,
               interval=(0.0, 1.0), tol: Tolerances = DEFAULT_TOL) -> LagrangianPath:
    """t -> exp(t h) . start, a Lagrangian path.

    ``h`` must be Hamiltonian within ``tol`` for the form of start's
    space, else NotHamiltonian; ``start`` defaults to the vertical of
    the standard space.  Rate bound: moved by its horizontal lift
    (I - P) h Q = Omega Q A, an orthonormal frame Q turns arg det Z at
    tr A = tr(Q^T S Q) for S = sym(-Omega h), at most the bound B of
    ``_FlowRecord``.  Its frames are ``record.stack(ts)`` times the frame
    of ``start``.  A start of the standard form (the default, or any
    ``start`` whose space has that form entry for entry) reads the one
    record of h, and the path's frame function is ``certified`` where
    that record has ``factors`` and the start's frame is the vertical's
    bit for bit; every other start keeps every check.  The flow routes
    scan the orbit of the vertical of a certified record without a path
    (``_flow_scans``)."""
    record = _flow_record(h, None if start is None else start.space, tol)
    h, flow = record.h, record.stack
    d = h.shape[0]
    vertical = vertical_lagrangian(d // 2, tol)
    start = vertical if start is None else start
    f0 = start.frame
    certified = record.factors is not None and np.array_equal(f0, vertical.frame)

    def frs(ts):
        return flow(ts) @ f0

    def dfrs(ts):
        return h @ flow(ts) @ f0

    return LagrangianPath(start.space, _Stacked(frs, d, certified), _Stacked(dfrs, d),
                          interval, record.bound)


def graph_path(h, interval=(0.0, 1.0), tol: Tolerances = DEFAULT_TOL) -> LagrangianPath:
    """t -> graph of exp(t h) in the product space carrying (-w) x w.

    ``h`` must be Hamiltonian within ``tol`` for the standard form,
    else NotHamiltonian.  As the orbit of the diagonal under diag(0, h)
    its phase turns at tr(S P_b), with P_b the lower block of the
    graph's orthogonal projector and S = sym(-J h); its rate bound is
    the orbit's, B of ``_FlowRecord``.  Its frames [I; Phi] are read
    from ``record.stack``, and its frame function is ``certified`` where
    the record has ``factors``; the flow routes scan the graph of a
    certified record without a path (``_flow_scans``)."""
    record = _flow_record(h, None, tol)
    h, flow = record.h, record.stack
    d = h.shape[0]
    eye = np.eye(d)

    def frs(ts):
        return _graph_frames(flow(ts), eye)

    def dfrs(ts):
        return _graph_frames(h @ flow(ts), 0.0)

    return LagrangianPath(SymplecticSpace.graph_product(d // 2),
                          _Stacked(frs, d, record.factors is not None), _Stacked(dfrs, d),
                          interval, record.bound)


def _graph_frames(flows, top):
    """The stack [top; Phi] of each flow Phi of a stack: the graph frames
    for ``top`` the identity, their derivatives for 0."""
    d = flows.shape[-1]
    out = np.empty((len(flows), 2 * d, d))
    out[:, :d] = top
    out[:, d:] = flows
    return out


def unitary_geodesic(start: LagrangianFrame, end: LagrangianFrame,
                     k: int = 0) -> LagrangianPath:
    """Path from start to end through the unitary parametrization.

    A Lagrangian frame [X; Y] of the standard space corresponds to the
    unitary U = X + iY; the path follows U0 Q diag(exp(i t theta)) Q*,
    with U0* U1 = Q diag(lambda) Q* from ``eig`` and theta = arg lambda
    + pi k.  Different integers k give mutually non-homotopic paths with
    the same endpoints.  arg det Z turns at exactly |sum theta|.  No
    certificate covers its frames, so its scans take every check.
    """
    if not start.space.is_standard():
        raise InputError("unitary parametrization needs the standard space")
    start.space.check_same(end)
    k = as_int(k, "k")
    n = start.space.half_dim
    u0 = start.frame[:n] + 1j * start.frame[n:]
    u1 = end.frame[:n] + 1j * end.frame[n:]
    # U0* U1 is unitary, so normal: its eigenspaces are orthogonal, and the
    # QR factor Q of its eigenvectors holds an orthonormal basis of each
    vals, vecs = np.linalg.eig(u0.conj().T @ u1)
    q = np.linalg.qr(vecs)[0]
    theta = np.angle(vals) + np.pi * k
    u0q, qh = u0 @ q, q.conj().T

    def frames(rates, ts):
        u = (u0q * (rates * np.exp(1j * ts[:, None] * theta))[:, None, :]) @ qh
        return np.concatenate([u.real, u.imag], axis=1)

    def frs(ts):
        return frames(1.0, ts)

    def dfrs(ts):
        return frames(1j * theta, ts)

    return LagrangianPath(start.space, _Stacked(frs, n), _Stacked(dfrs, n), (0.0, 1.0),
                          abs(float(theta.sum())))


# -- the phase scan ------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    """One crossing with the reference Lagrangian."""

    time: float
    inertia: Inertia
    at_endpoint: bool

    @property
    def dim(self) -> int:
        """dim(l(t) & ref), the order of the crossing form."""
        return self.inertia.dim

    @property
    def contribution(self) -> HalfInt:
        s = self.inertia.signature
        return HalfInt(s) if self.at_endpoint else HalfInt(2 * s)


@dataclass(frozen=True)
class CrossingScan:
    """Full record of a crossing computation."""

    crossings: Tuple[Crossing, ...]
    index: HalfInt
    baseline_dim: int

    @property
    def interval_mode(self) -> bool:
        """Whether the path keeps a constant intersection core."""
        return self.baseline_dim > 0


#: byte budget of one stacked array of per-sample matrices; a scan
#: handles its samples in batches that keep every stack within it, so
#: its memory does not grow with the grid
_BATCH_BYTES = 1 << 18

_TWO_PI = 2.0 * math.pi


def _tr(a):
    """Transpose of each matrix in a stack."""
    return a.swapaxes(-1, -2)


def _batches(path: LagrangianPath, count: int):
    """Slices of ``count`` samples whose stacks fit in ``_BATCH_BYTES``:
    the 2n x 2n matrices of the intersections and the flow of a
    built-in path."""
    dim = path.space.dim
    sizes = [8 * dim * dim] + [fn.sample_bytes for fn in (path.frame_fn, path.dframe_fn)
                               if isinstance(fn, _Stacked)]
    step = max(1, _BATCH_BYTES // max(sizes))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _evaluate(path: LagrangianPath, ts, derivative: bool = False):
    """(stack of the frames or derivatives at the times ts, error).

    When a sample fails with a SymindexError the stack holds the values
    before it, so the caller checks those first and then raises, in the
    order of a loop over the samples.  A built-in path is evaluated by
    one stacked call with the checks of ``LagrangianPath.frame``, any
    other frame function one time at a time.
    """
    fn = path.dframe_fn if derivative else path.frame_fn
    shape = (path.space.dim, path.space.half_dim)
    if not isinstance(fn, _Stacked):
        sample = path.dframe if derivative else path.frame
        out = np.empty((len(ts),) + shape)
        for i, t in enumerate(ts):
            try:
                out[i] = sample(t)
            except SymindexError as exc:
                return out[:i], exc
        return out, None
    values = fn.stack(np.asarray(ts, dtype=float))
    if values.shape[1:] != shape:
        return values[:0], DimensionMismatch("%s has shape %s" % (
            "derivative" if derivative else "path frame", values.shape[1:]))
    return _finite(values, "path frame derivative" if derivative else "path frame")


def _finite(values, name: str):
    """(values, None), or the values before the first sample with a
    non-finite entry and the InputError that names it."""
    if np.isfinite(values).all():
        return values, None
    first = int(np.argmin(np.isfinite(values).all(axis=(1, 2))))
    return values[:first], InputError("%s contains non-finite entries" % name)


def _volumes(ts, frames, tol: Tolerances):
    """Sum log s over the singular values s of each frame F of the stack
    ``frames`` at the times ts, from one stacked SVD, the one rule of
    every frame that no certificate covers.  NotLagrangian names the
    first time whose frame lost rank under the relative rank rule of
    ``orthonormal_columns``.
    """
    s = np.linalg.svd(frames, compute_uv=False)
    full = s[:, -1] > tol.eps_rank * s[:, 0]  # every singular value above the cut
    if not full.all():
        raise NotLagrangian("path frame lost rank at t=%g" % ts[int(np.argmin(full))])
    return np.log(s).sum(axis=1)


def _frames(path: LagrangianPath, ts, tol: Tolerances):
    """(frames, sum log s over the singular values s of each frame, or
    None) of the path at the times ts.  A ``certified`` frame function
    (``_Stacked``) on times that all lie in [0, 1], the domain of its
    certificate, takes no check and gives None; every other batch takes
    ``_volumes``, whose rank check runs before the error of a failing
    sample is raised."""
    frames, error = _evaluate(path, ts)
    fn = path.frame_fn
    certified = isinstance(fn, _Stacked) and fn.certified and 0.0 <= np.min(ts)
    log_s = None if certified and np.max(ts) <= 1.0 else _volumes(ts, frames, tol)
    if error is not None:
        raise error
    return frames, log_s


@functools.lru_cache(maxsize=CACHED_DIMS)
def _check_reference(ref: LagrangianFrame, tol: Tolerances):
    """``lagrangian_frame`` of the frame of ``ref``, its result dropped:
    the shape, rank and isotropy checks of a reference, once per
    reference object and ``tol``."""
    lagrangian_frame(ref.space, ref.frame, tol)


def _chart(space: SymplecticSpace, ref: LagrangianFrame, tol: Tolerances):
    """(Re C, Im C) = (Q^T, -Q^T Omega), contiguous, of the chart C = Q^T
    (I - i Omega) of the reference frame Q in ``space``, so Z(t) = C F(t);
    the first check of every scan and crossing form.  For a form that is
    orthogonal with square -1, [Q | Omega Q] is orthogonal, symplectic
    and maps the horizontal onto ``ref``.  ``tol`` must be a Tolerances,
    else InputError; ``ref`` must be Lagrangian (``_check_reference``),
    else NotLagrangian, as the certified scans, which check no sample,
    read its chart."""
    as_tolerances(tol)
    space.check_same(ref)
    if not space.is_complex_structure:
        raise InputError("crossing forms need an orthogonal complex-structure form")
    _check_reference(ref, tol)
    q = ref.frame
    return np.ascontiguousarray(q.T), -(q.T @ space.form)


def _in_chart(chart, frames):
    """The stack C F of real frames F as two real products, Re C F and
    Im C F; a complex product would first upcast every F."""
    re, im = chart[0], chart[1]
    z = np.empty(frames.shape[:-2] + (re.shape[0], frames.shape[-1]), dtype=complex)
    z.real = re @ frames
    z.imag = im @ frames
    return z


def _check_flat(ts, logdet, log_s, tol: Tolerances):
    """NotLagrangian naming the first time ts whose log |det Z| falls
    short of its sum log s by more than -log eps_rank: the two are equal
    exactly when the frame is Lagrangian."""
    flat = logdet - log_s <= math.log(tol.eps_rank)
    if flat.any():
        raise NotLagrangian("path frame is not Lagrangian at t=%g" % ts[np.argmax(flat)])


def _chart_samples(path: LagrangianPath, chart, ts, tol: Tolerances):
    """(frames, Z = C F, sign of det Z) of the path at the times ts, each
    frame checked for rank by ``_frames`` and for Lagrangian by
    ``_check_flat``, but for a certified batch of ``_frames``, whose
    certificate proves that both checks pass."""
    frames, log_s = _frames(path, ts, tol)
    z = _in_chart(chart, frames)
    sign, logdet = np.linalg.slogdet(z)
    if log_s is not None:
        _check_flat(ts, logdet, log_s, tol)
    return frames, z, sign


#: W from this size on takes its eigenphases from one real ``eigh``: on
#: the pairs of end Z of the orbit and graph scans of 8 generators,
#: ``eigvals`` took 33 us and this route 38 us per pair at size 8, 58.6 and
#: 52.6 us at size 12, 93 and 72 us at size 16 (solve included; 2 vCPU,
#: Python 3.11, numpy 2.4, OpenBLAS at one thread)
_EIGH_SIZE = 12
#: mu of Re W + mu Im W: two eigenphases a, b of W meet there where a + b
#: = 2 atan(mu) mod 2 pi.  Of the 65373 W of size 8 or more that the
#: parity sweep's scans sample, 5954 took the fallback at mu = 0, 605 at
#: 0.618, 429 at 1, 296 at 2.5, 269 at 3.7 and 243 to 340 for mu in
#: [2.5, 20]
_EIGH_MU = 3.7
#: a structured eigenphase stands where the residual |W U - U diag(U^T W
#: U)|_F of its matrix is below this fraction of eps_rank
_EIGH_RESIDUAL = 1e-3


def _eigenphases(z, tol: Tolerances):
    """Eigenphases in [0, 2 pi] of W = Z conj(Z)^(-1) for a stack of Z.

    W is symmetric and unitary, so Re W and Im W are commuting real
    symmetric matrices.  From size ``_EIGH_SIZE`` on, the orthogonal U of
    one ``eigh`` of Re W + ``_EIGH_MU`` Im W diagonalizes both unless that
    sum merges two distinct eigenphases, and the phases are those of the
    diagonal of U^T W U.  W is normal, so by Hoffman-Wielandt the
    residual |W U - U diag(U^T W U)|_F bounds the distance of that
    diagonal to the eigenvalues; a matrix whose residual is not below
    ``_EIGH_RESIDUAL`` eps_rank takes ``eigvals``, as smaller ones do."""
    # W is symmetric, and conj(Z)^(-T) Z^T is its transpose
    w = np.linalg.solve(_tr(z.conj()), _tr(z))
    if w.shape[-1] < _EIGH_SIZE:
        return np.angle(np.linalg.eigvals(w)) % _TWO_PI
    u = np.linalg.eigh(w.real + _EIGH_MU * w.imag)[1]
    wu_re, wu_im = w.real @ u, w.imag @ u
    vals_re, vals_im = (u * wu_re).sum(axis=-2), (u * wu_im).sum(axis=-2)
    residual = (np.square(wu_re - u * vals_re[..., None, :]).sum(axis=(-2, -1))
                + np.square(wu_im - u * vals_im[..., None, :]).sum(axis=(-2, -1)))
    vals = vals_re + 1j * vals_im
    for i in np.flatnonzero(~(residual < np.square(_EIGH_RESIDUAL * tol.eps_rank))):
        vals[i] = np.linalg.eigvals(w[i])
    return np.angle(vals) % _TWO_PI


def _phase_samples(path: LagrangianPath, chart, ts, tol: Tolerances,
                   phases: bool = True, rated: bool = False):
    """(arg det Z, eigenphases in [0, 2 pi] of W = Z conj(Z)^(-1) at every
    time if ``phases``, else at the first and last, |Im tr(Z^-1 Z')| when
    ``rated``) at the times ts, in one pass over the samples.  Every Z =
    C F, and C F' on the rated branch, is formed by ``_in_chart`` from
    the real and imaginary parts of the ``chart``; the end phases take
    one ``_eigenphases`` call after the last batch."""
    out = ([], [], [])
    last, ends = len(ts) - 1, []
    for sl in _batches(path, len(ts)):
        frames, z, sign = _chart_samples(path, chart, ts[sl], tol)
        out[0].append(np.angle(sign))
        if phases:
            out[1].append(_eigenphases(z, tol))
        else:
            ends += [z[i - sl.start] for i in (0, last) if sl.start <= i < sl.stop]
        if rated:
            dframes, error = _evaluate(path, ts[sl], derivative=True)
            dz = np.linalg.solve(z[:len(dframes)], _in_chart(chart, dframes))
            out[2].append(np.abs(np.trace(dz, axis1=1, axis2=2).imag))
            if error is not None:
                raise error
    if not phases:
        out[1].append(_eigenphases(np.array(ends), tol))
    return tuple(None if not x else x[0] if len(x) == 1 else np.concatenate(x) for x in out)


def _phase_grid(path: LagrangianPath, ref: LagrangianFrame, grid, tol: Tolerances,
                phases: bool):
    """(chart, times, lifted arg det Z, eigenphases at every time if
    ``phases``, else at the ends) on the scan grid of ``_scan_times``.
    Every sample is checked for rank and Lagrangian.  A path without a
    bound takes ``grid`` cells, and a cell whose width times the larger
    sampled rate at its ends exceeds pi/2 raises GridTooCoarse.
    """
    grid = _grid_cells(grid)
    chart = _chart(path.space, ref, tol)
    bound = path._rate_bound
    ts = _scan_times(path.interval, bound, grid, phases)
    args, thetas, rates = _phase_samples(path, chart, ts, tol, phases, bound is None)
    if bound is None:
        fast = np.diff(ts) * np.maximum(rates[:-1], rates[1:]) > 0.5 * math.pi
        if fast.any():
            raise GridTooCoarse("the phase of det Z turns by more than pi/2 in [%g, %g]; "
                                "increase grid" % tuple(ts[np.argmax(fast):][:2]))
    return chart, ts, _lift(args), thetas


def _scan_times(interval, bound: Optional[float], grid: int, phases: bool):
    """The times of a scan grid of ``grid`` checked cells on the checked
    ``interval`` of a path of rate bound ``bound`` (None: no bound).

    A path with a rate bound B needs ceil(B (b - a) / ``CELL_PHASE``)
    cells, none moving arg det Z by more than ``CELL_PHASE``, so by less
    than the pi up to which ``_lift`` (``np.unwrap``) lifts exactly, and
    may take at most ``MAX_CELLS``: more, or a count that is not finite,
    raises GridTooCoarse.
    An index scan (not ``phases``) takes exactly those cells, at least
    one; ``find_crossings`` takes at least ``grid``, since its core is the
    smallest dimension sampled and its bisection starts from the cells.
    A path without a bound takes ``grid`` cells.
    """
    a, b = interval
    if bound is None:
        cells = grid
    else:
        need = bound * (b - a) / CELL_PHASE
        if not need <= MAX_CELLS:  # NaN too, from a bound that overflowed
            raise GridTooCoarse("the phase of this path needs %s cells, more than %d"
                                % (math.ceil(need) if math.isfinite(need) else need, MAX_CELLS))
        cells = max(grid if phases else 1, math.ceil(need))
    return _grid_times(a, b, cells)


def _grid_times(a, b, cells):
    """``np.linspace(a, b, cells + 1)`` bit for bit, without its general
    path: i times the step (b - a) / cells (i / cells times b - a where
    that step underflows to 0) plus a, for i = 0 .. cells, and b last."""
    ts = np.arange(cells + 1.0)
    step = (b - a) / cells
    if step == 0.0:
        ts /= cells
        ts *= b - a
    else:
        ts *= step
    ts += a
    ts[-1] = b
    return ts


def _lift(args):
    """``np.unwrap(args)`` of finite args bit for bit, without its general
    path.  Each sample after the first gains the sum of the corrections
    of the steps before it: 0 for a step below pi, which every step of a
    certified cell is unless arg det Z crosses its cut at pi, and else
    the step taken into [-pi, pi] by ``np.unwrap``'s arithmetic, less the
    step."""
    steps = args[1:] - args[:-1]
    cut = np.abs(steps) >= math.pi
    lifted = args.copy()
    if cut.any():
        turned = (steps + math.pi) % _TWO_PI - math.pi
        turned[(turned == -math.pi) & (steps > 0)] = math.pi
        lifted[1:] += np.where(cut, turned - steps, 0.0).cumsum()
    else:
        lifted[1:] += 0.0  # as np.unwrap, which turns -0.0 into 0.0
    return lifted


def _snapped(thetas, tol: Tolerances, core=None, slack=0.0):
    """(sums, dims) of rows of eigenphases: a dim counts the phases within
    eps_rank + ``slack`` (a scalar, or a column of one per row) of 0, and
    a sum sets the ``core`` phases nearest 0 (an int or one per row;
    default the dims, which are the phases within the band) to 0."""
    near = np.minimum(thetas, _TWO_PI - thetas)
    inside = near <= tol.eps_rank + slack
    if core is None:
        snap = inside
    else:
        snap = np.argsort(np.argsort(near, axis=-1), axis=-1) < np.asarray(core)[..., None]
    return np.where(snap, 0.0, thetas).sum(axis=-1), inside.sum(axis=-1)


def _phase_index(lifted, ends, tol: Tolerances) -> HalfInt:
    """The index of the module docstring from the lift and the
    eigenphases at the two ends; more than 1e-6 off the half-integer
    lattice raises InternalMismatch."""
    sums, dims = _snapped(ends, tol)
    twice = (2.0 * (lifted[-1] - lifted[0]) - sums[1] + sums[0]) / math.pi + dims[0] - dims[1]
    if abs(twice - round(twice)) > 2e-6:
        raise InternalMismatch("phase index %.9g is not a half integer" % (0.5 * twice))
    return HalfInt(int(round(twice)))


def _locate(path: LagrangianPath, chart, ts, lifted, sums, counts, stop, baseline: int,
            tol: Tolerances):
    """(time, count, offset: 0 at an end, else half the closed bracket) of
    the crossings in the cells whose counts are not 0, halved in rounds of
    one batched sample of all midpoints down to max(``REFINE_XTOL``, 4
    float spacings); a bracket whose halves both count splits, one at an
    end flagged in ``stop`` stops there."""
    a, b = ts[0], ts[-1]
    live = [(ts[i], ts[i + 1], lifted[i], sums[i], int(counts[i]))
            for i in np.flatnonzero(counts)]
    located = []
    while live:
        running = []
        for lo, hi, lift, total, count in live:
            if (lo == a and stop[0]) or (hi == b and stop[1]):
                located.append((a if lo == a and stop[0] else b, count, 0.0))
            elif hi - lo <= max(REFINE_XTOL, 4.0 * math.ulp(abs(lo) + abs(hi))):
                located.append((0.5 * (lo + hi), count, 0.5 * (hi - lo)))
            else:
                running.append((lo, hi, lift, total, count))
        if not running:
            break
        mids = np.array([0.5 * (lo + hi) for lo, hi, _, _, _ in running])
        args, thetas, _ = _phase_samples(path, chart, mids, tol)
        live = []
        for (lo, hi, lift, total, count), mid, arg, mid_total in zip(
                running, mids, args, _snapped(thetas, tol, baseline)[0]):
            mid_lift = lift + (arg - lift + math.pi) % _TWO_PI - math.pi
            left = int(round((2.0 * (mid_lift - lift) - mid_total + total) / _TWO_PI))
            live += [(lo, mid, lift, total, left)] if left else []
            live += [(mid, hi, mid_lift, mid_total, count - left)] if count != left else []
    return located


def _forms(path: LagrangianPath, ref: LagrangianFrame, ts, tol: Tolerances, offsets=None):
    """Yields (V, gamma, inertia, stable) of the crossing form at each
    time ts in order, the one form evaluator; see ``crossing_form``.

    With Q the orthonormal frame of l(t), P its raw frame and dP the
    derivative, A = (omega Q)^T dP (Q^T P)^(-1) (InputError if not finite)
    is the form of all of l(t) in the coordinates of Q, the horizontal
    lift Q' = omega Q A.  As Z = C Q = sqrt(2) U, U unitary, W = U U^T
    moves by W' = 2i U A U^T: each eigenphase at most at 2 |A|.  l(t) &
    ref has the dimension k of the eigenphases within ``eps_rank`` of 0 on
    the scan's checked samples (``_chart_samples``, ``_snapped``), plus
    2 |A|_F times ``offsets`` (one per time, default 0) at a time the scan
    located within them of a crossing.  Y = Im(C Q) has kernel l(t) & ref
    in the coordinates of Q, so V = Q xi for xi the right singular vectors
    of the k smallest singular values of Y; no rank rule is applied.  A
    form with an eigenvalue between the zero band and ``GRAY_FACTOR`` times
    1 + |gamma| cannot be classified (a tangential crossing leaves one of
    ~sqrt(machine eps)) and is not stable.  A failing derivative is raised
    after the forms of the times before it.
    """
    chart = _chart(path.space, ref, tol)
    omega = path.space.form
    n = path.space.half_dim
    offsets = np.zeros(len(ts)) if offsets is None else offsets
    for sl in _batches(path, len(ts)):
        frames, z, _ = _chart_samples(path, chart, ts[sl], tol)
        dframes, error = _evaluate(path, ts[sl], derivative=True)
        frames = frames[:len(dframes)]
        q = np.linalg.svd(frames, full_matrices=False)[0]
        x0, dy = _tr(q) @ frames, _tr(omega @ q) @ dframes
        full = _tr(np.linalg.solve(_tr(x0), _tr(dy)))  # A = dy @ inv(x0)
        if not np.all(np.isfinite(full)):
            raise InputError("symmetric matrix contains non-finite entries")
        slack = 2.0 * np.linalg.norm(full, axis=(1, 2)) * offsets[sl][:len(frames)]
        dims = _snapped(_eigenphases(z[:len(frames)], tol), tol, slack=slack[:, None])[1]
        coords = _tr(np.linalg.svd(chart[1] @ q)[2])
        forms = [None] * len(frames)
        for k in map(int, np.unique(dims)):
            idx = np.flatnonzero(dims == k)
            xi = coords[idx, :, n - k:]
            gammas = _tr(xi) @ full[idx] @ xi
            gammas = 0.5 * (gammas + _tr(gammas))
            n_pos, n_neg, stable = band_counts(np.linalg.eigvalsh(gammas), tol,
                                               GRAY_FACTOR)
            v = q[idx] @ xi
            for j, i in enumerate(idx):
                p, m = int(n_pos[j]), int(n_neg[j])
                forms[i] = (v[j], gammas[j], Inertia(p, m, k - p - m), bool(stable[j]))
        yield from forms
        if error is not None:
            raise error


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise typed errors
def crossing_form(path: LagrangianPath, ref: LagrangianFrame, t0: float,
                  tol: Tolerances = DEFAULT_TOL):
    """(V, gamma) at time t0: V holds orthonormal ambient coordinates of
    l(t0) & ref, gamma is the symmetric crossing form matrix in those
    columns, as many as the phase scan's dimension at t0 (``_forms``): none
    where l(t0) meets ref at an angle above about eps_rank / 2.  The frame
    must be Lagrangian (else NotLagrangian) and the form of the space
    orthogonal with square -1, as in the standard and the graph-product
    spaces."""
    v, gamma, _, _ = next(_forms(path, ref, [t0], tol))
    return v, gamma


def _grid_cells(grid) -> int:
    """``grid`` as an int, checked: an integer (numpy integers too) from
    ``MIN_GRID`` to ``MAX_CELLS``, else InputError."""
    grid = as_int(grid, "grid")
    if grid < MIN_GRID:
        raise InputError("grid must be at least %d" % MIN_GRID)
    if grid > MAX_CELLS:
        raise InputError("grid must be at most %d" % MAX_CELLS)
    return grid


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise typed errors
def find_crossings(path: LagrangianPath, ref: LagrangianFrame, grid: int = 256,
                   tol: Tolerances = DEFAULT_TOL) -> CrossingScan:
    """The index of ``maslov_index`` with its crossings as evidence.

    A built-in path takes ``grid`` cells or, if more, the
    ceil(B (b - a) / ``CELL_PHASE``) its rate bound B needs.  The core
    (``baseline_dim``) is the smallest dimension on the grid.  A cell
    counts (2 delta arg det Z - delta sum theta) / 2 pi phases
    passing 0 upward, all phases near 0 snapped at the ends and only the
    core's elsewhere.  An end is a crossing when this scan counts its
    dimension (its phases within ``eps_rank`` of 0) above the core, or
    when the core is not empty.  ``_locate`` bisects the cells that
    count; located times within ``MERGE_TOL`` of each other or of a
    crossing end are one, and a zero total is dropped.  ``_forms``
    classifies each crossing on the intersection of the dimension this
    scan's rule counts there (at a located time widened by the most a
    phase moves within its offset), the one dimension rule of the list.
    A form too small to classify or with null space other than the core
    raises NonRegularCrossing.
    Counts that cancel in one cell (a tangency, a +/- pair) are not
    listed.  A half sum of forms other than the phase index raises
    InternalMismatch.
    """
    chart, ts, lifted, thetas = _phase_grid(path, ref, grid, tol, phases=True)
    index = _phase_index(lifted, thetas[[0, -1]], tol)
    a, b = path.interval
    dims = _snapped(thetas, tol)[1]
    baseline = int(dims.min())
    sums = _snapped(thetas, tol, np.r_[dims[0], np.full(len(ts) - 2, baseline), dims[-1]])[0]
    counts = np.rint((2.0 * np.diff(lifted) - np.diff(sums)) / _TWO_PI).astype(int)
    stop = dims[[0, -1]] > baseline
    located = _locate(path, chart, ts, lifted, sums, counts, stop, baseline, tol)
    ends = [(t, 0, 0.0) for t, kept in zip((a, b), stop | (baseline > 0)) if kept]
    groups = np.array(sorted(ends + located)).reshape(-1, 3).T
    cuts = np.flatnonzero(np.diff(groups[0]) > MERGE_TOL) + 1
    # the mean of a group is within its spread and largest offset of each crossing
    candidates = [(a, 0.0) if times[0] == a else (b, 0.0) if times[-1] == b
                  else (float(np.mean(times)), times[-1] - times[0] + offsets.max())
                  for times, counts, offsets in zip(*(np.split(g, cuts) for g in groups))
                  if times.size and (times[0] == a or times[-1] == b or counts.sum())]
    times, offsets = [t for t, _ in candidates], np.array([o for _, o in candidates])

    crossings = []
    for t, (_, _, inertia, stable) in zip(times, _forms(path, ref, times, tol, offsets)):
        if not stable:
            raise NonRegularCrossing("crossing form at t=%g has an eigenvalue too small "
                                     "to classify" % t)
        if inertia.n_zero != baseline:
            raise NonRegularCrossing("crossing form at t=%g has %d null directions, "
                                     "expected %d" % (t, inertia.n_zero, baseline))
        crossings.append(Crossing(t, inertia, t in (a, b)))
    total = sum((c.contribution for c in crossings), ZERO)
    if total != index:
        raise InternalMismatch("crossing forms sum to %s, the phase index is %s"
                               % (total, index))
    return CrossingScan(tuple(crossings), index, baseline)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise typed errors
def maslov_index(path: LagrangianPath, ref: LagrangianFrame, grid: int = 256,
                 tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of the path relative to ``ref`` from the winding of the
    phase of det Z (module docstring); no crossing is located.

    Built-in paths are certified by their rate bound B and take exactly
    the max(1, ceil(B (b - a) / ``CELL_PHASE``)) cells it needs, whatever
    ``grid``: no cell moves arg det Z by pi or more, so the lift
    (``_lift``, ``np.unwrap`` bit for bit) is exact.  Their frames are
    checked for rank and Lagrangian at those samples only.
    ``path_from_frames`` paths take ``grid`` cells and are checked only
    at their samples, so a full turn between two samples goes unseen.
    Each frame is evaluated once, in batches within ``_BATCH_BYTES``,
    and the eigenphases of the two ends in one call after them.
    """
    _, _, lifted, thetas = _phase_grid(path, ref, grid, tol, phases=False)
    return _phase_index(lifted, thetas, tol)


def maslov_index_symplectic(h, grid: int = 256, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of the orbit t -> exp(t h) . V, t in [0, 1], of the vertical
    V against V (``_flow_scans``: on a certified record from its eigen
    factors with no path built).  The scan is certified: ``grid`` is
    validated and does not change it.  Another start, reference or
    interval is a scan of the orbit path: ``maslov_index(orbit_path(h,
    start, interval, tol), ref)``."""
    record = _flow_record(h, None, tol)
    _grid_cells(grid)
    return _flow_scans(record, ("orbit",), tol)[0][0]


def conley_zehnder(h, grid: int = 256, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of the graph path of exp(t h), t in [0, 1], against the
    diagonal (``_flow_scans``: on a certified record from its eigen
    factors with no path built).  The scan is certified: ``grid`` is
    validated and does not change it.  Another interval is a scan of the
    graph path, ``maslov_index(graph_path(h, interval, tol),
    diagonal_lagrangian(n, tol))``; a period T is ``conley_zehnder(T *
    h)``."""
    record = _flow_record(h, None, tol)
    _grid_cells(grid)
    return _flow_scans(record, ("graph",), tol)[0][0]


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise typed errors
def _flow_indices(h, tol: Tolerances) -> Tuple[HalfInt, HalfInt, np.ndarray, float]:
    """(``maslov_index_symplectic(h)``, ``conley_zehnder(h)``, psi(1), D)
    on [0, 1] from one ``_flow_record`` of h, the two scans of
    ``validate`` and of each calibration probe, in one ``_flow_scans``.
    psi(1) is the scans' own flow sample at t = 1, ``record.stack`` at
    1.0 bit for bit (on the ``expm`` branch also ``expm(h)`` alone), and D
    the record's bound on its symplectic defect (``_FlowRecord.defect``)."""
    indices, psi1 = _flow_scans(record := _flow_record(h, None, tol), ("orbit", "graph"), tol)
    return (*indices, psi1, record.defect)


def _block_z(flows, route: str, out):
    """Writes the Z of a flow route into ``out`` from a stack of flows Phi
    = [[A, B], [C, D]]: D - iB for "orbit", (A + D) + i (C - B) for
    "graph" (``_flow_scans``)."""
    n = out.shape[-1]
    if route == "orbit":
        # -B by assignment: numpy 2.4.6's np.negative(x, out=z.imag) wrote
        # wrong values for a (T, 1, 1) slice x of a real view of a complex stack
        out.real, out.imag = flows[:, n:, n:], -flows[:, :n, n:]
    else:
        np.add(flows[:, :n, :n], flows[:, n:, n:], out=out.real)
        np.subtract(flows[:, n:, :n], flows[:, :n, n:], out=out.imag)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise typed errors
def _flow_scans(record: _FlowRecord, routes, tol: Tolerances):
    """([index of each route], the flow at t = 1): the index scans on [0,
    1] of the flow routes of ``record``, each "orbit" (the orbit of the
    vertical against the vertical) or "graph" (the graph path against
    the diagonal), and psi(1) from one ``record.stack`` at t = 0 and 1.

    A record without ``factors`` (the ``expm`` branch, growth beyond the
    rank premise of ``_record_of``, or a bound above 1/(16 n g^2)) takes
    the generic scan of each route, one after the other, with all of its
    checks and errors:
    ``maslov_index`` of ``orbit_path`` against the vertical, and of
    ``graph_path`` against the diagonal, whose paths find the kept record.

    A certified record (``_record_of``) is read from its eigen factors
    without a path, a frame or a chart product.  The routes share the
    record's rate bound, so their grid (``_scan_times``); they are sampled
    in the batches of the generic scan of the largest path, the graph's
    where it is scanned, with one ``slogdet`` per batch for all of them.
    With Phi = exp(t h) = [[A, B], [C, D]], the vertical's frame [0; -I]
    gives Z = D - iB, the generic chart's bit for bit.  For the graph
    frame [I; Phi] against an orthonormal frame of the diagonal, Z is, up
    to unitary factors, 2 [[M, *], [0, I]] in the eigenbasis of J, with M
    = 1/2 [(A + D) + i (C - B)] the complex-linear part of Phi; so arg det
    Z = arg det(2 M) up to one constant of the frame (Conley-Zehnder's
    winding of det M).  Every sample's Z is L (exp(t exponent) o R) with
    its route's eigen factors, L = V[n:] - i V[:n] and R = V^-1[:, n:] for
    the orbit (D - iB of V exp(t Lambda) V^-1) and L = V[:n] + i V[n:] and
    R = V^-1[:, :n] - i V^-1[:, n:] for the graph ((A + D) + i (C - B)).
    The end samples are instead the block Z (``_block_z``) of the stack at
    0 and 1, and the graph's end phases are read in its chart from the
    graph frames of that stack.  No check of the generic scan can fire on
    a certified record, and both scans give one index:

    (a) For an orthonormal frame G and the chart C = Q^T (I - i Omega)
        of an orthonormal Lagrangian frame Q, Omega orthogonal with
        square -1: Q Q^T + Omega Q Q^T Omega^T = I gives C^* C = I - i
        Omega, so (C G)^* (C G) = I - i G^T Omega G, whose eigenvalues
        are 1 +- mu_k for the singular values mu_k of the antisymmetric
        G^T Omega G, which come in pairs: |det C G| = prod_k (1 -
        mu_k^2)^(1/4).  For F = G R (QR), |det Z| / prod s(F) = |det C
        G|.
    (b) |G^T Omega G| <= |F^T Omega F| / sigma_min(F)^2.  Orbit: F = Phi
        F0 with F0^T J F0 = 0, so |F^T J F| <= D, and sigma_min(Phi) >=
        1/g - epsilon with epsilon <= D / 4g (``_record_of``), so mu <=
        1.04 D g^2 <= 1/(15 n).  Graph: [I; Phi] in (-J) x J gives Phi^T
        J Phi - J, and sigma_min >= 1, so mu <= D.  By (a) the ratio of
        the Lagrangian check ``_check_flat`` is at least (1 - 1/(225
        n^2))^(n/4) > 0.99, while it fires only at eps_rank <= 1e-3 (the
        rank premise needs B^2 <= 1e-3 / eps_rank with B >= 1).
    (c) Rank and finiteness: the rank premise bounds cond F by B on [0,
        1], so the SVD rule of ``_volumes``, whose ratio 1 / cond F >=
        (eps_rank / 1e-3)^(1/2), passes, and |Phi| <= g + epsilon is
        finite.
    (d) Phase: with |exp(s h)| <= g exp(g rho) on [0, 1] (h = h' + (h -
        h'), Van Loan's bound), variation of constants gives |Psi(t) -
        exp(t h)| <= g^2 rho exp(g rho) <= D / 4, so each sample of either
        scan is the Z of a flow within D / 2 of exp(t h) (epsilon <= D / 4
        covers the factored products too, the products of ``stack`` in
        another order).  Z is linear in the flow with norm at most 2, and
        the Lagrangian frames of exp(t h) have |Z^-1| <= 1.02 g by (a)
        with mu = 0, so each sampled arg det Z is within n arcsin (1.02 g
        D) < 1/15 rad of that of exp(t h), which a certified cell moves by
        at most 7 pi/8 (``bound``).  Each sampled step is below 7 pi/8 +
        2/15 < pi, inside the pi/8 rounding headroom of ``CELL_PHASE``:
        both lifts are exact, and with the same end arguments, up to the
        graph's constant, they give the same index.

    (a)-(c) hold for every frame at a time in [0, 1] of ``orbit_path``
    from the vertical and of ``graph_path`` of a certified record, in
    the chart of any orthonormal Lagrangian reference, so the generic
    scans of those paths skip both checks on such times (``certified``
    of ``_Stacked``, ``_frames``), and their references are checked once
    (``_chart``).

    Every scan starts at t = 0 on its reference.  Where 4 delta0 <=
    eps_rank, delta0 the record's ``origin_defect``, the certified scan's
    first end takes the phases 0 without ``_eigenphases``, which
    ``_snapped`` reads as the sum 0 and the dimension the size of W, as it
    reads the computed phases.  Write F0 = I + E, |E|_F = delta0.  On the
    orbit Z0 = D0 - iB0 = I + Delta with |Delta|_2 <= |Delta|_F <= delta0,
    and W0 - I = (Delta - conj Delta) conj(Z0)^-1, so |W0 - I|_2 <= 2
    delta0 / (1 - delta0).  On the graph, in the chart of the diagonal [I;
    I] / sqrt 2 (another orthonormal frame R of it gives R^T W0 R), Z0 =
    [(I + F0) - iJ (F0 - I)] / sqrt 2 = sqrt 2 (I + Delta) with Delta = (I
    - iJ) E / 2 and Delta - conj Delta = -iJE, so |W0 - I|_2 <= delta0 /
    (1 - delta0).  An eigenvalue within r < 1 of 1 has a phase of at most
    arcsin r, here arcsin(2 eps_rank / (4 - eps_rank)) < 3/4 eps_rank, so
    every computed phase at 0 lies in the band eps_rank where ``_snapped``
    zeroes it while eps_rank is well above the rounding of W, and the
    index is the same bit for bit.  Otherwise the first end's phases are
    computed."""
    h = record.h
    d = h.shape[0]
    n = d // 2
    ts = _scan_times((0.0, 1.0), record.bound, MIN_GRID, False)
    at_ends = record.stack(ts[[0, -1]])  # psi(1) and the end samples, the batches' bit for bit
    if record.factors is None:  # the generic scans, one after the other
        paths = {"orbit": lambda: (orbit_path(h, None, (0.0, 1.0), tol),
                                   vertical_lagrangian(n, tol)),
                 "graph": lambda: (graph_path(h, (0.0, 1.0), tol), diagonal_lagrangian(n, tol))}
        return [maslov_index(*paths[route](), MIN_GRID, tol) for route in routes], at_ends[-1]
    # per sample, the generic scan's 2d x 2d real intersections of the
    # graph, else the d x d complex flow
    step = max(1, _BATCH_BYTES // (16 * d * d * (1 + ("graph" in routes))))
    # one stack of blocks for every batch: a stack per batch took
    # _flow_indices up to 1.14 times as long at n = 16 in full
    # tools/layer_bench.py runs, on the heap the earlier layers left
    blocks = np.empty((len(routes), min(step, len(ts)), n, n), dtype=complex)
    ends = np.empty((len(routes), 2, n, n), dtype=complex)
    for route, out in zip(routes, ends):
        _block_z(at_ends, route, out)
    left, right = (factor[[("orbit", "graph").index(route) for route in routes], None]
                   for factor in record.factors)
    args = []
    for first in range(0, len(ts), step):
        times = ts[first:first + step]
        z = blocks[:, :len(times)]
        np.matmul(left, np.exp(times[:, None] * record.exponent)[:, :, None] * right, out=z)
        for i, end in ((0, 0), (len(ts) - 1, 1)):  # the end samples
            if 0 <= i - first < len(times):
                z[:, i - first] = ends[:, end]
        args.append(np.angle(np.linalg.slogdet(z)[0]))
    # 1 where the t = 0 end is certified by the bound above, else 0
    zero = int(4.0 * record.origin_defect <= tol.eps_rank)
    indices = []
    for route, route_args, rows in zip(routes, np.concatenate(args, axis=1), ends):
        if route == "graph":
            diagonal = diagonal_lagrangian(n, tol)
            rows = _in_chart(_chart(diagonal.space, diagonal, tol),
                             _graph_frames(at_ends, np.eye(d)))
        thetas = np.concatenate((np.zeros((zero, rows.shape[-1])), _eigenphases(rows[zero:], tol)))
        indices.append(_phase_index(_lift(route_args), thetas, tol))
    return indices, at_ends[-1]


# -- closed forms for rotation blocks ------------------------------------------

#: absolute distance below which alpha/pi is snapped onto the lattice; the
#: spacing of doubles at alpha/pi must not exceed it
SNAP_TOL = 1e-9


def _turns(alpha) -> float:
    """alpha/pi in double precision (a float32 speed divided in float32
    would snap onto a multiple of pi it is not), or InputError when alpha
    is not a finite real number or the spacing of doubles at alpha/pi
    exceeds ``SNAP_TOL`` (|alpha/pi| >= 2^23), where a multiple of pi
    cannot be told from its neighbours."""
    x = as_real(alpha, "rotation speed") / math.pi
    if not math.ulp(x) <= SNAP_TOL:
        raise InputError("rotation speed %r is not finite or too large to place "
                         "against the multiples of pi" % (alpha,))
    return x


def rotation_orbit_index(alpha: float) -> HalfInt:
    """Closed form for the vertical-route index of one rotation plane:
    the half integer nearest alpha/pi if within ``SNAP_TOL``, else
    floor(alpha/pi) + 1/2."""
    x = _turns(alpha)
    twice = round(2.0 * x)
    if abs(x - 0.5 * twice) <= SNAP_TOL:
        return HalfInt(int(twice))
    return HalfInt(2 * math.floor(x) + 1)


def rotation_graph_index(alpha: float) -> HalfInt:
    """Closed form for the graph-route index of one rotation plane: the
    integer nearest alpha/pi if within ``SNAP_TOL``, else the odd member
    of {floor(alpha/pi), floor(alpha/pi) + 1}."""
    x = _turns(alpha)
    nearest = round(x)
    if abs(x - nearest) <= SNAP_TOL:
        return HalfInt.from_int(nearest)
    m = math.floor(x)
    return HalfInt.from_int(m if m % 2 else m + 1)
