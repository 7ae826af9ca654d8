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

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InputError,
    InternalMismatch,
    NonRegularCrossing,
    NotLagrangian,
    SymindexError,
)
from .halfint import ZERO, HalfInt
from .krein import krein_positive_angles
from .numerics import (
    DEFAULT_TOL,
    Inertia,
    Tolerances,
    as_matrix,
    as_tolerances,
    band_counts,
)
from .symplectic import (
    LagrangianFrame,
    SymplecticSpace,
    _generator,
    diagonal_lagrangian,
    subspace_intersections,
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


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """A path of Lagrangian subspaces given by a raw frame function.

    ``frame_fn(t)`` returns a 2n x n frame with independent (not
    necessarily orthonormal) columns.  ``dframe_fn`` is its derivative;
    when absent a central finite difference is used, so ``frame_fn``
    should be smooth slightly beyond the interval ends.  The built-in
    factories set ``_rate_bound``, a bound on |d arg det Z / dt| in any
    reference chart; ``dataclasses.replace`` keeps it, so a new
    ``frame_fn`` must trace the same path.  Their frame functions also
    bound the condition number of the frames (``_Stacked``); a new
    ``frame_fn`` may return other frames of the path and drops it.
    """

    space: SymplecticSpace
    frame_fn: Callable[[float], np.ndarray]
    dframe_fn: Optional[Callable[[float], np.ndarray]]
    interval: Tuple[float, float]
    _rate_bound: Optional[float] = field(default=None, repr=False)

    def __post_init__(self):
        a, b = self.interval
        if not (a < b and math.isfinite(float(b) - float(a))):  # nan, inf and overflow fail
            raise InputError("interval must be finite with a < b")

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
        return (self.frame(t + 1e-6) - self.frame(t - 1e-6)) / 2e-6


def path_from_frames(space: SymplecticSpace, frame_fn, interval=(0.0, 1.0),
                     dframe_fn=None) -> LagrangianPath:
    return LagrangianPath(space, frame_fn, dframe_fn, tuple(map(float, interval)))


def _flow(m):
    """(stacked flow, spectrum) of m: the flow maps an array of times ts
    to the stack of exp(t m), real for a real m and complex for a
    complex one.

    With a well conditioned eigenvector basis V the stack comes from one
    diagonalization, (V * exp(t vals)) @ inv(V) at each t, and the
    spectrum is (kappa, re): the condition number of V and the real
    parts of the eigenvalues, from which the factories bound the
    condition number of their frames.  Else the stack comes from expm
    matrix by matrix and the spectrum is None.  Each matrix of a stack
    equals the flow evaluated at its time alone, bit for bit.
    """
    m = np.asarray(m)
    d = m.shape[0]
    real = not np.iscomplexobj(m)
    try:
        vals, vecs = np.linalg.eig(m)
        kappa = np.linalg.cond(vecs)
        if kappa < 1e7:
            vinv = np.linalg.inv(vecs)

            def phi(ts):
                out = (vecs * np.exp(ts[:, None] * vals)[:, None, :]) @ vinv
                return out.real if real else out

            if np.linalg.norm(phi(np.zeros(1))[0] - np.eye(d)) <= 1e-10:
                return phi, (float(kappa), vals.real)
    except np.linalg.LinAlgError:
        pass

    def phi_expm(ts):
        return scipy.linalg.expm(ts[:, None, None] * m)

    return phi_expm, None


def _orbit_growth(spectrum):
    """(c, r) with log cond F(t) <= c + r |t| for F(t) = exp(t m) F0, F0
    orthonormal, from the spectrum of m (``_flow``): the singular values
    of V exp(t Lambda) V^-1 F0 lie within kappa exp(t max Re lambda) and
    exp(t min Re lambda) / kappa.  None without a spectrum."""
    if spectrum is None:
        return None
    kappa, re = spectrum
    return 2.0 * math.log(kappa), float(re.max() - re.min())


class _Stacked:
    """Frame function of a built-in path: ``stack(ts)`` evaluates a whole
    array of times, a call the batch of one.  Scan batches must also fit
    the complex flow matrix of ``sample_bytes`` behind each sample.

    ``growth`` is None or (c, r) with log cond F(t) <= c + r |t| for
    every frame F(t) the function returns; ``_frames`` skips the SVD
    rank rule where it holds.  It belongs to the function, not to the
    path, so a path given another frame function by
    ``dataclasses.replace`` carries no bound."""

    def __init__(self, stack, flow_dim: int, growth=None):
        self.stack = stack
        self.sample_bytes = 16 * flow_dim * flow_dim
        self.growth = growth

    def __call__(self, t):
        return self.stack(np.array([t], dtype=float))[0]


@dataclass(frozen=True, eq=False)
class _FlowRecord:
    """A generator checked once, with what the built-in paths of its
    flow read: the stacked flow and spectrum of ``_flow`` and the
    singular values of h, descending."""

    h: np.ndarray
    phi: Callable
    spectrum: Optional[Tuple[float, np.ndarray]]
    svals: np.ndarray


def _flow_record(h, space: Optional[SymplecticSpace], tol: Tolerances) -> _FlowRecord:
    """The record of ``h`` checked by ``_generator`` against ``space``."""
    h = _generator(h, space, tol)
    phi, spectrum = _flow(h)
    return _FlowRecord(h, phi, spectrum, np.linalg.svd(h, compute_uv=False))


def orbit_path(h, start: Optional[LagrangianFrame] = None,
               interval=(0.0, 1.0), tol: Tolerances = DEFAULT_TOL) -> LagrangianPath:
    """t -> exp(t h) . start, a Lagrangian path.

    ``h`` must be Hamiltonian within ``tol`` for the form of start's
    space, else NotHamiltonian; ``start`` defaults to the vertical of
    the standard space.  Rate bound: moved by its horizontal lift
    (I - P) h Q = Omega Q A, an orthonormal frame Q turns arg det Z at
    tr A, at most the sum of the n largest singular values of h (Ky Fan)."""
    record = _flow_record(h, None if start is None else start.space, tol)
    return _orbit_path(record, start, interval, tol)


def _orbit_path(record: _FlowRecord, start: Optional[LagrangianFrame], interval,
                tol: Tolerances) -> LagrangianPath:
    """``orbit_path`` of a checked generator."""
    h, phi = record.h, record.phi
    d = h.shape[0]
    if start is None:
        start = vertical_lagrangian(d // 2, tol)
    f0 = start.frame

    def frs(ts):
        return phi(ts) @ f0

    def dfrs(ts):
        return h @ phi(ts) @ f0

    return LagrangianPath(start.space, _Stacked(frs, d, _orbit_growth(record.spectrum)),
                          _Stacked(dfrs, d), tuple(map(float, interval)),
                          float(record.svals[:d // 2].sum()))


def graph_path(h, interval=(0.0, 1.0), tol: Tolerances = DEFAULT_TOL) -> LagrangianPath:
    """t -> graph of exp(t h) in the product space carrying (-w) x w.

    ``h`` must be Hamiltonian within ``tol`` for the standard form,
    else NotHamiltonian.  As the orbit of the diagonal under diag(0, h)
    its rate bound is the sum of all singular values of h."""
    return _graph_path(_flow_record(h, None, tol), interval)


def _graph_path(record: _FlowRecord, interval) -> LagrangianPath:
    """``graph_path`` of a checked generator.  The frame [I; Phi] has
    F^T F = I + Phi^T Phi, so its singular values lie in [1, 1 + |Phi|]
    and cond F(t) <= 1 + kappa exp(|t| max |Re lambda|) <= 2 kappa
    exp(|t| max |Re lambda|)."""
    h, phi = record.h, record.phi
    d = h.shape[0]
    space = SymplecticSpace.graph_product(d // 2)
    growth = None
    if record.spectrum is not None:
        kappa, re = record.spectrum
        growth = (math.log(2.0 * kappa), float(np.abs(re).max()))

    def graphs(top, bottom):
        out = np.empty((len(bottom), 2 * d, d))
        out[:, :d] = top
        out[:, d:] = bottom
        return out

    def frs(ts):
        return graphs(np.eye(d), phi(ts))

    def dfrs(ts):
        return graphs(0.0, h @ phi(ts))

    return LagrangianPath(space, _Stacked(frs, d, growth), _Stacked(dfrs, d),
                          tuple(map(float, interval)), float(record.svals.sum()))


def unitary_geodesic(start: LagrangianFrame, end: LagrangianFrame,
                     k: int = 0) -> LagrangianPath:
    """Path from start to end through the unitary parametrization.

    A Lagrangian frame [X; Y] of the standard space corresponds to the
    unitary U = X + iY; the path follows U0 exp(t(A + i pi k)) with
    A = log(U0* U1).  Different integers k give mutually non-homotopic
    paths with the same endpoints.  arg det Z turns at exactly
    |Im tr(A + i pi k)|.  The frame [Re U; Im U] keeps its singular
    values within those of U, so it takes the bound of an orbit frame.
    """
    if not start.space.is_standard():
        raise InputError("unitary parametrization needs the standard space")
    start.space.check_same(end)
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise InputError("k must be an integer, got %r" % (k,))
    n = start.space.half_dim
    u0 = start.frame[:n] + 1j * start.frame[n:]
    u1 = end.frame[:n] + 1j * end.frame[n:]
    a = scipy.linalg.logm(u0.conj().T @ u1)
    a = 0.5 * (a - a.conj().T)
    gen = a + 1j * np.pi * int(k) * np.eye(n)
    phi, spectrum = _flow(gen)
    u0_gen = u0 @ gen

    def frames(u):
        return np.concatenate([u.real, u.imag], axis=1)

    def frs(ts):
        return frames(u0 @ phi(ts))

    def dfrs(ts):
        return frames(u0_gen @ phi(ts))

    return LagrangianPath(start.space, _Stacked(frs, n, _orbit_growth(spectrum)),
                          _Stacked(dfrs, n), (0.0, 1.0), abs(float(np.trace(gen).imag)))


# -- the phase scan ------------------------------------------------------------

@dataclass(frozen=True)
class Crossing:
    """One crossing with the reference Lagrangian."""

    time: float
    dim: int
    inertia: Inertia
    at_endpoint: bool

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
    return np.swapaxes(a, -1, -2)


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
    finite = np.isfinite(values).all(axis=(1, 2))
    if not finite.all():
        first = int(np.argmin(finite))
        return values[:first], InputError("%s contains non-finite entries" % (
            "path frame derivative" if derivative else "path frame"))
    return values, None


def _frames(path: LagrangianPath, ts, tol: Tolerances):
    """(frames, sum log s over the singular values s of each frame) of
    the path at the times ts; NotLagrangian names the first time whose
    frame lost rank under the relative rank rule of
    ``orthonormal_columns``.

    A frame function whose ``growth`` bounds cond F(t) at every ts by B
    with B^2 <= 1e-3 / eps_rank passes the rank rule at every sample,
    six orders inside the cut at the default tol, and its sums come from
    one batched Cholesky factor R of F^T F as sum log diag R.  Any other
    frame function, or a Cholesky factor that fails, takes one stacked
    SVD, which also applies the rank rule.
    """
    frames, error = _evaluate(path, ts)
    growth = path.frame_fn.growth if isinstance(path.frame_fn, _Stacked) else None
    log_bound = math.inf if growth is None else growth[0] + growth[1] * float(np.abs(ts).max())
    if 2.0 * log_bound <= math.log(1e-3 / tol.eps_rank):
        try:
            r = np.linalg.cholesky(_tr(frames) @ frames)
        except np.linalg.LinAlgError:
            pass
        else:
            if error is not None:
                raise error
            return frames, np.log(np.diagonal(r, axis1=1, axis2=2)).sum(axis=1)
    s = np.linalg.svd(frames, compute_uv=False)
    full = s[:, -1] > tol.eps_rank * s[:, 0]  # every singular value above the cut
    if not full.all():
        raise NotLagrangian("path frame lost rank at t=%g" % ts[int(np.argmin(full))])
    if error is not None:
        raise error
    return frames, np.log(s).sum(axis=1)


def _chart(path: LagrangianPath, ref: LagrangianFrame, tol: Tolerances):
    """C = Q^T (I - i Omega) for the reference frame Q, so Z(t) = C F(t);
    the first check of every scan and crossing form.  For a form that is
    orthogonal with square -1, [Q | Omega Q] is orthogonal, symplectic
    and maps the horizontal onto ``ref``.  ``tol`` must be a Tolerances,
    else InputError."""
    as_tolerances(tol)
    path.space.check_same(ref)
    if not path.space.is_complex_structure:
        raise InputError("crossing forms need an orthogonal complex-structure form")
    return ref.frame.T @ (np.eye(path.space.dim) - 1j * path.space.form)


def _phase_samples(path: LagrangianPath, chart, ts, tol: Tolerances,
                   phases: bool = True, rated: bool = False):
    """(arg det Z, eigenphases in [0, 2 pi] of W = Z conj(Z)^(-1) at every
    time if ``phases``, else at the first and last, |Im tr(Z^-1 Z')| when
    ``rated``) at the times ts, in one pass over the samples."""
    out = ([], [], [])
    ends = (0, len(ts) - 1)
    for sl in _batches(path, len(ts)):
        frames, log_s = _frames(path, ts[sl], tol)
        z = chart @ frames
        sign, logdet = np.linalg.slogdet(z)
        # log |det Z| = sum log s exactly when the frame is Lagrangian
        flat = logdet - log_s <= math.log(tol.eps_rank)
        if flat.any():
            raise NotLagrangian("path frame is not Lagrangian at t=%g" % ts[sl][np.argmax(flat)])
        out[0].append(np.angle(sign))
        zw = z if phases else z[[i - sl.start for i in ends if sl.start <= i < sl.stop]]
        # W is symmetric, and conj(Z)^(-T) Z^T is its transpose
        w = np.linalg.solve(_tr(zw.conj()), _tr(zw))
        out[1].append(np.angle(np.linalg.eigvals(w)) % _TWO_PI)
        if rated:
            dframes, error = _evaluate(path, ts[sl], derivative=True)
            dz = np.linalg.solve(z[:len(dframes)], chart @ dframes)
            out[2].append(np.abs(np.trace(dz, axis1=1, axis2=2).imag))
            if error is not None:
                raise error
    return tuple(np.concatenate(x) if x else None for x in out)


def _phase_grid(path: LagrangianPath, ref: LagrangianFrame, grid, tol: Tolerances,
                phases: bool):
    """(chart, times, lifted arg det Z, eigenphases at every time if
    ``phases``, else at the ends) on the scan grid.

    A path with a rate bound B needs ceil(2 B (b - a) / pi) cells, none
    moving arg det Z by more than pi/2, and may take at most ``MAX_CELLS``.
    An index scan (not ``phases``) takes exactly those cells, at least
    one; ``find_crossings`` takes at least ``grid``, since its core is the
    smallest dimension sampled and its bisection starts from the cells.
    A path without a bound takes ``grid`` cells, and a cell whose width
    times the larger sampled rate at its ends exceeds pi/2 raises
    GridTooCoarse.  Every sample is checked for rank and Lagrangian.
    """
    grid = _grid_cells(grid)
    chart = _chart(path, ref, tol)
    a, b = path.interval
    bound = path._rate_bound
    if bound is None:
        cells = grid
    else:
        need = math.ceil(2.0 * bound * (b - a) / math.pi)
        if need > MAX_CELLS:
            raise GridTooCoarse("the phase of this path needs %d cells, more than %d"
                                % (need, MAX_CELLS))
        cells = max(grid if phases else 1, need)
    ts = np.linspace(a, b, cells + 1)
    args, thetas, rates = _phase_samples(path, chart, ts, tol, phases, bound is None)
    fast = [] if rates is None else np.diff(ts) * np.maximum(rates[:-1], rates[1:]) > 0.5 * math.pi
    if np.any(fast):
        raise GridTooCoarse("the phase of det Z turns by more than pi/2 in [%g, %g]; "
                            "increase grid" % tuple(ts[np.argmax(fast):][:2]))
    return chart, ts, np.unwrap(args), thetas


def _snapped(thetas, tol: Tolerances, core=None):
    """(sums, dims) of rows of eigenphases: a dim counts the phases within
    ``eps_rank`` of 0, and a sum sets the ``core`` phases nearest 0 (an
    int or one per row; default the dims) to 0."""
    near = np.minimum(thetas, _TWO_PI - thetas)
    dims = (near <= tol.eps_rank).sum(axis=-1)
    rank = np.argsort(np.argsort(near, axis=-1), axis=-1)
    snap = np.asarray(dims if core is None else core)[..., None]
    return np.where(rank < snap, 0.0, thetas).sum(axis=-1), dims


def _phase_index(lifted, thetas, tol: Tolerances) -> HalfInt:
    """The index of the module docstring; more than 1e-6 off the
    half-integer lattice raises InternalMismatch."""
    sums, dims = _snapped(thetas[[0, -1]], tol)
    twice = (2.0 * (lifted[-1] - lifted[0]) - sums[1] + sums[0]) / math.pi + dims[0] - dims[1]
    if abs(twice - round(twice)) > 2e-6:
        raise InternalMismatch("phase index %.9g is not a half integer" % (0.5 * twice))
    return HalfInt(int(round(twice)))


def _locate(path: LagrangianPath, chart, ts, lifted, sums, counts, stop, baseline: int,
            tol: Tolerances):
    """(time, count) of the crossings in the cells whose counts are not
    0, halved in rounds of one batched sample of all midpoints down to
    max(``REFINE_XTOL``, 4 float spacings); a bracket whose halves both
    count splits, one at an end flagged in ``stop`` stops there."""
    a, b = ts[0], ts[-1]
    live = [(ts[i], ts[i + 1], lifted[i], sums[i], int(counts[i]))
            for i in np.flatnonzero(counts)]
    located = []
    while live:
        running = []
        for lo, hi, lift, total, count in live:
            if (lo == a and stop[0]) or (hi == b and stop[1]):
                located.append((a if lo == a and stop[0] else b, count))
            elif hi - lo <= max(REFINE_XTOL, 4.0 * math.ulp(abs(lo) + abs(hi))):
                located.append((0.5 * (lo + hi), count))
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


def _chart_forms(omega, q, frames, dframes, v):
    """Crossing forms of stacked samples in the graph chart over Q: the
    symmetrized xi^T (dy x0^(-1)) xi with x0 = Q^T P, dy = (omega Q)^T dP
    and xi = Q^T V for the raw frame P, its derivative dP and the
    intersection basis V."""
    x0 = _tr(q) @ frames
    dy = _tr(omega @ q) @ dframes
    m = _tr(np.linalg.solve(_tr(x0), _tr(dy)))  # dy @ inv(x0)
    xi = _tr(q) @ v
    gamma = _tr(xi) @ m @ xi
    return 0.5 * (gamma + _tr(gamma))


def _forms(path: LagrangianPath, ref: LagrangianFrame, ts, tol: Tolerances):
    """Yields (V, gamma, inertia, stable) of the crossing form at each
    time ts in order, the one form evaluator; see ``crossing_form``.

    A form with an eigenvalue between the zero band and ``GRAY_FACTOR``
    times 1 + |gamma| cannot be classified (a tangential crossing leaves
    one of ~sqrt(machine eps)) and is not stable.  A failing derivative
    is raised after the forms of the times before it.
    """
    _chart(path, ref, tol)
    omega = path.space.form
    for sl in _batches(path, len(ts)):
        frames = _frames(path, ts[sl], tol)[0]
        q = np.linalg.svd(frames, full_matrices=False)[0]
        dframes, error = _evaluate(path, ts[sl], derivative=True)
        forms = [None] * len(dframes)
        for idx, v in subspace_intersections(q[:len(dframes)], ref.frame, tol):
            gammas = _chart_forms(omega, q[idx], frames[idx], dframes[idx], v)
            if not np.all(np.isfinite(gammas)):
                raise InputError("symmetric matrix contains non-finite entries")
            n_pos, n_neg, stable = band_counts(np.linalg.eigvalsh(gammas), tol,
                                               GRAY_FACTOR)
            k = v.shape[2]
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
    columns.  The form of the space must be orthogonal with square -1,
    as in the standard and the graph-product spaces."""
    v, gamma, _, _ = next(_forms(path, ref, [t0], tol))
    return v, gamma


def _grid_cells(grid) -> int:
    """``grid`` as an int, checked: an integer (numpy integers too) from
    ``MIN_GRID`` to ``MAX_CELLS``, else InputError."""
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral):
        raise InputError("grid must be an integer, got %r" % (grid,))
    if grid < MIN_GRID:
        raise InputError("grid must be at least %d" % MIN_GRID)
    if grid > MAX_CELLS:
        raise InputError("grid must be at most %d" % MAX_CELLS)
    return int(grid)


@np.errstate(over="ignore", invalid="ignore")  # non-finite values raise typed errors
def find_crossings(path: LagrangianPath, ref: LagrangianFrame, grid: int = 256,
                   tol: Tolerances = DEFAULT_TOL) -> CrossingScan:
    """The index of ``maslov_index`` with its crossings as evidence.

    The core (``baseline_dim``) is the smallest dimension on the grid.
    A cell counts (2 delta arg det Z - delta sum theta) / 2 pi phases
    passing 0 upward, all phases near 0 snapped at the ends and only the
    core's elsewhere.  ``_locate`` bisects the cells that count; located
    times within ``MERGE_TOL`` are one and a zero total is dropped.
    ``_forms`` classifies them and the ends, kept when their intersection
    exceeds the core or the core is not empty; a form too small to
    classify or with null space other than the core raises
    NonRegularCrossing.  Counts that cancel in one cell (a tangency, a
    +/- pair) are not listed.  A half sum of forms other than the phase
    index raises InternalMismatch.
    """
    chart, ts, lifted, thetas = _phase_grid(path, ref, grid, tol, phases=True)
    index = _phase_index(lifted, thetas, tol)
    a, b = path.interval
    dims = _snapped(thetas, tol)[1]
    baseline = int(dims.min())
    sums = _snapped(thetas, tol, np.r_[dims[0], np.full(len(ts) - 2, baseline), dims[-1]])[0]
    counts = np.rint((2.0 * np.diff(lifted) - np.diff(sums)) / _TWO_PI).astype(int)
    located = _locate(path, chart, ts, lifted, sums, counts, dims[[0, -1]] > baseline,
                      baseline, tol)
    times, counts = np.array(sorted([(a, 0), (b, 0)] + located)).T
    cuts = np.flatnonzero(np.diff(times) > MERGE_TOL) + 1
    candidates = [a if group[0] == a else b if group[-1] == b else float(np.mean(group))
                  for group, count in zip(np.split(times, cuts), np.split(counts, cuts))
                  if group[0] == a or group[-1] == b or count.sum()]

    crossings = []
    for t, (v, _, inertia, stable) in zip(candidates, _forms(path, ref, candidates, tol)):
        if t in (a, b) and not (v.shape[1] > baseline or baseline > 0):
            continue
        if not stable:
            raise NonRegularCrossing("crossing form at t=%g has an eigenvalue too small "
                                     "to classify" % t)
        if inertia.n_zero != baseline:
            raise NonRegularCrossing("crossing form at t=%g has %d null directions, "
                                     "expected %d" % (t, inertia.n_zero, baseline))
        crossings.append(Crossing(t, v.shape[1], inertia, t in (a, b)))
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

    Built-in paths are certified by their rate bound and take exactly
    the max(1, ceil(2 B (b - a) / pi)) cells it needs, whatever ``grid``;
    their frames are checked for rank and Lagrangian at those samples
    only.  ``path_from_frames`` paths take ``grid`` cells and are checked
    only at their samples, so a full turn between two samples goes
    unseen.  Each frame is evaluated once, in batches within
    ``_BATCH_BYTES``.
    """
    _, _, lifted, thetas = _phase_grid(path, ref, grid, tol, phases=False)
    return _phase_index(lifted, thetas, tol)


def maslov_index_symplectic(h, start: Optional[LagrangianFrame] = None,
                            ref: Optional[LagrangianFrame] = None,
                            interval=(0.0, 1.0), grid: int = 256,
                            tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of t -> exp(t h) . start against ref (both default vertical).
    The path is certified: ``grid`` is validated and does not change
    the scan."""
    path = orbit_path(h, start, interval, tol)
    if ref is None:
        ref = vertical_lagrangian(path.space.half_dim, tol)
    return maslov_index(path, ref, grid, tol)


def conley_zehnder(h, interval=(0.0, 1.0), grid: int = 256,
                   tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of the graph path of exp(t h) against the diagonal.  The
    path is certified: ``grid`` is validated and does not change the
    scan."""
    path = graph_path(h, interval, tol)
    ref = diagonal_lagrangian(path.space.dim // 4, tol)
    return maslov_index(path, ref, grid, tol)


def _flow_indices(h, grid: int, tol: Tolerances) -> Tuple[HalfInt, HalfInt]:
    """(``maslov_index_symplectic(h)``, ``conley_zehnder(h)``) on [0, 1]
    from one ``_flow_record`` of h, the two scans of ``validate``."""
    record = _flow_record(h, None, tol)
    n = record.h.shape[0] // 2
    orbit = maslov_index(_orbit_path(record, None, (0.0, 1.0), tol),
                         vertical_lagrangian(n, tol), grid, tol)
    graph = maslov_index(_graph_path(record, (0.0, 1.0)), diagonal_lagrangian(n, tol),
                         grid, tol)
    return orbit, graph


# -- closed forms for rotation blocks and spectral routes ---------------------

#: absolute distance below which a float is snapped onto the lattice
SNAP_TOL = 1e-9


def snap_half_integer(x: float) -> HalfInt:
    """Nearest half integer if within ``SNAP_TOL``, else floor(x) + 1/2:
    at alpha/pi, the orbit index of the rotation with speed alpha."""
    twice = round(2.0 * x)
    if abs(x - 0.5 * twice) <= SNAP_TOL:
        return HalfInt(int(twice))
    return HalfInt(2 * math.floor(x) + 1)


def snap_odd_integer(x: float) -> HalfInt:
    """Nearest integer if within ``SNAP_TOL``, else the odd member of
    {floor(x), floor(x)+1}: at alpha/pi, the graph index of the
    rotation with speed alpha."""
    nearest = round(x)
    if abs(x - nearest) <= SNAP_TOL:
        return HalfInt(2 * int(nearest))
    m = math.floor(x)
    odd = m if m % 2 != 0 else m + 1
    return HalfInt(2 * odd)


def rotation_orbit_index(alpha: float) -> HalfInt:
    """Closed form for the vertical-route index of one rotation plane."""
    return snap_half_integer(alpha / math.pi)


def rotation_graph_index(alpha: float) -> HalfInt:
    """Closed form for the graph-route index of one rotation plane."""
    return snap_odd_integer(alpha / math.pi)


def spectral_conley_zehnder(h, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Graph-route index of a semisimple generator from its Krein normal
    form: the sum of ``rotation_graph_index`` over its signed rotation
    speeds.  The graph route is invariant under symplectic conjugation,
    so the normal form decides it; the vertical route is not.  A Jordan
    block raises NotSemisimple, a spectrum with no normal form
    UnclassifiableSpectrum."""
    return sum(map(rotation_graph_index, krein_positive_angles(h, tol)), ZERO)
