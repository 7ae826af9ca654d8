"""Maslov-type indices of Lagrangian paths through crossing forms.

A path of Lagrangians l(t) is held as a raw frame function; at a
crossing time t0 with a fixed reference Lagrangian L the crossing form
is the derivative quadratic form on l(t0) & L,

    Gamma(v) = d/dt omega(v, w(t, v)) |_{t=t0},

computed in the graph chart over l(t0).  The index over [a, b] is

    index = 1/2 sign Gamma(a) + sum over interior crossings of
            sign Gamma(t) + 1/2 sign Gamma(b),

an exact half integer.  Paths whose intersection with the reference has
a constant positive dimension are handled separately: the constant part
must carry an identically vanishing form (otherwise the path is
rejected as non-regular) and only the transient excess contributes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    InputError,
    NonRegularCrossing,
    NotLagrangian,
    OddDimension,
    SymindexError,
)
from .halfint import ZERO, HalfInt
from .numerics import (
    DEFAULT_TOL,
    Inertia,
    Tolerances,
    as_matrix,
    as_square,
    band_counts,
)
from .symplectic import (
    LagrangianFrame,
    SymplecticSpace,
    diagonal_lagrangian,
    subspace_intersections,
    vertical_lagrangian,
)

#: smallest admissible number of grid cells for crossing detection
MIN_GRID = 64
#: refined crossing times closer than this are treated as one crossing
MERGE_TOL = 1e-9
#: sampled-signal gate below which a local minimum is refined
SIGNAL_GATE = 0.25
#: width to which a bracketed crossing time is narrowed (or 4 float spacings)
REFINE_XTOL = 1e-12
#: relative floor below which a nonzero form eigenvalue is ambiguous
GRAY_FACTOR = 1e-6


@dataclass(frozen=True, eq=False)
class LagrangianPath:
    """A path of Lagrangian subspaces given by a raw frame function.

    ``frame_fn(t)`` returns a 2n x n frame (orthonormality is not
    required; columns must stay independent).  ``dframe_fn`` is the
    entrywise time derivative; when absent a central finite difference
    is used, so ``frame_fn`` should be smooth slightly beyond the
    interval ends.
    """

    space: SymplecticSpace
    frame_fn: Callable[[float], np.ndarray]
    dframe_fn: Optional[Callable[[float], np.ndarray]]
    interval: Tuple[float, float]

    def __post_init__(self):
        a, b = self.interval
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise InputError("interval must be finite with a < b")

    def frame(self, t: float):
        f = as_matrix(self.frame_fn(t), "path frame")
        if f.shape != (self.space.dim, self.space.half_dim):
            raise DimensionMismatch("path frame has shape %s" % (f.shape,))
        return f

    def dframe(self, t: float, step: float = 1e-6):
        if self.dframe_fn is not None:
            d = as_matrix(self.dframe_fn(t), "path frame derivative")
            if d.shape != (self.space.dim, self.space.half_dim):
                raise DimensionMismatch("derivative has shape %s" % (d.shape,))
            return d
        return (self.frame(t + step) - self.frame(t - step)) / (2.0 * step)


def path_from_frames(space: SymplecticSpace, frame_fn, interval=(0.0, 1.0),
                     dframe_fn=None) -> LagrangianPath:
    return LagrangianPath(space, frame_fn, dframe_fn, tuple(map(float, interval)))


def _flow(m, real_output: bool = True):
    """Stacked flow: an array of times ts -> the stack of exp(t m).

    Crossing scans evaluate the flow for whole batches of times, so when
    the eigenvector basis is well conditioned the stack is taken from one
    diagonalization, (vecs * exp(t vals)) @ vinv at each t; otherwise it
    falls back to expm, matrix by matrix.  Each matrix of a stack equals
    the flow evaluated at its time alone, bit for bit.
    """
    m = np.asarray(m)
    d = m.shape[0]
    phi = None
    try:
        vals, vecs = np.linalg.eig(m)
        if np.linalg.cond(vecs) < 1e7:
            vinv = np.linalg.inv(vecs)

            def phi(ts):
                out = (vecs * np.exp(ts[:, None] * vals)[:, None, :]) @ vinv
                return out.real if real_output else out

            if np.linalg.norm(phi(np.zeros(1))[0] - np.eye(d)) > 1e-10:
                phi = None
    except np.linalg.LinAlgError:
        phi = None
    if phi is not None:
        return phi

    def phi_expm(ts):
        out = scipy.linalg.expm(ts[:, None, None] * m)
        if real_output and np.iscomplexobj(out):
            out = out.real
        return out

    return phi_expm


class _Stacked:
    """Frame function of a built-in path: ``stack(ts)`` evaluates a whole
    array of times at once, a call at one time is the batch of one.
    ``sample_bytes`` is the size of the complex flow matrix behind each
    sample, which scan batches must also fit."""

    def __init__(self, stack, flow_dim: int):
        self.stack = stack
        self.sample_bytes = 16 * flow_dim * flow_dim

    def __call__(self, t):
        return self.stack(np.array([t], dtype=float))[0]


def _generator(h):
    h = as_square(h, "generator")
    if h.shape[0] % 2 != 0:
        raise OddDimension("generator must have even size")
    return h


def orbit_path(h, start: Optional[LagrangianFrame] = None,
               interval=(0.0, 1.0)) -> LagrangianPath:
    """t -> exp(t h) . start, a Lagrangian path when h is Hamiltonian.

    ``start`` defaults to the vertical of the standard space."""
    h = _generator(h)
    if start is None:
        start = vertical_lagrangian(h.shape[0] // 2)
    if h.shape[0] != start.space.dim:
        raise DimensionMismatch("generator does not match the frame")
    f0 = start.frame
    phi = _flow(h)
    d = h.shape[0]

    def frs(ts):
        return phi(ts) @ f0

    def dfrs(ts):
        return h @ phi(ts) @ f0

    return LagrangianPath(start.space, _Stacked(frs, d), _Stacked(dfrs, d),
                          tuple(map(float, interval)))


def graph_path(h, interval=(0.0, 1.0)) -> LagrangianPath:
    """t -> graph of exp(t h) in the product space carrying (-w) x w."""
    h = _generator(h)
    d = h.shape[0]
    space = SymplecticSpace.graph_product(d // 2)
    phi = _flow(h)

    def graphs(top, bottom):
        out = np.empty((len(bottom), 2 * d, d))
        out[:, :d] = top
        out[:, d:] = bottom
        return out

    def frs(ts):
        return graphs(np.eye(d), phi(ts))

    def dfrs(ts):
        return graphs(0.0, h @ phi(ts))

    return LagrangianPath(space, _Stacked(frs, d), _Stacked(dfrs, d),
                          tuple(map(float, interval)))


def unitary_geodesic(start: LagrangianFrame, end: LagrangianFrame,
                     k: int = 0) -> LagrangianPath:
    """Path from start to end through the unitary parametrization.

    A Lagrangian frame [X; Y] of the standard space corresponds to the
    unitary U = X + iY; the path follows U0 exp(t(A + i pi k)) with
    A = log(U0* U1).  Different integers k give mutually non-homotopic
    paths with the same endpoints.
    """
    if not start.space.is_standard():
        raise InputError("unitary parametrization needs the standard space")
    if start.space.dim != end.space.dim:
        raise DimensionMismatch("endpoint frames live in different spaces")
    n = start.space.half_dim
    u0 = start.frame[:n] + 1j * start.frame[n:]
    u1 = end.frame[:n] + 1j * end.frame[n:]
    a = scipy.linalg.logm(u0.conj().T @ u1)
    a = 0.5 * (a - a.conj().T)
    gen = a + 1j * np.pi * int(k) * np.eye(n)
    phi = _flow(gen, real_output=False)
    u0_gen = u0 @ gen

    def frames(u):
        return np.concatenate([u.real, u.imag], axis=1)

    def frs(ts):
        return frames(u0 @ phi(ts))

    def dfrs(ts):
        return frames(u0_gen @ phi(ts))

    return LagrangianPath(start.space, _Stacked(frs, n), _Stacked(dfrs, n), (0.0, 1.0))


# -- crossing detection -------------------------------------------------------

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
    interval_mode: bool
    baseline_dim: int


#: byte budget of one stacked array of per-sample matrices; a scan
#: handles its samples in batches that keep every stack within it, so
#: its memory does not grow with the grid
_BATCH_BYTES = 1 << 18

_GRAY_MESSAGE = "crossing form at t=%g has an eigenvalue too small to classify"


def _tr(a):
    """Transpose of each matrix in a stack."""
    return np.swapaxes(a, -1, -2)


def _batches(path: LagrangianPath, count: int):
    """Slices of ``count`` samples whose stacks fit in ``_BATCH_BYTES``:
    the 2n x 2n matrices of the scan and the flow of a built-in path."""
    dim = path.space.dim
    sizes = [8 * dim * dim] + [fn.sample_bytes for fn in (path.frame_fn, path.dframe_fn)
                               if isinstance(fn, _Stacked)]
    step = max(1, _BATCH_BYTES // max(sizes))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _evaluate(path: LagrangianPath, ts, derivative: bool = False):
    """Stack of the path's frames (or frame derivatives) at the times ts.

    Returns (values, error).  When a sample fails with a SymindexError
    the stack holds the values before it, so the caller can check those
    samples first and then raise the error, in the order a loop over
    the samples would.  A built-in path is evaluated by one stacked call
    with the checks of ``LagrangianPath.frame``; any other frame
    function is called one time at a time.
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


def _orth_frames(path: LagrangianPath, ts, tol: Tolerances):
    """(orthonormal frames, raw frames) of the path at the times ts.

    One stacked SVD orthonormalizes every frame with the relative rank
    rule of ``orthonormal_columns``; NotLagrangian names the first time
    whose frame lost rank.
    """
    frames, error = _evaluate(path, ts)
    u, s, _ = np.linalg.svd(frames, full_matrices=False)
    full = s[:, -1] > tol.eps_rank * s[:, 0]  # every singular value above the cut
    if not full.all():
        raise NotLagrangian("path frame lost rank at t=%g" % ts[int(np.argmin(full))])
    if error is not None:
        raise error
    return u, frames


def _spectra(q, ref_q, tol: Tolerances):
    """(intersection dims, singular values) of the stacked [Q | Q_ref].

    The spectrum of [Q(t) | Q_ref] encodes the principal angles; the
    k smallest singular values vanish exactly when the intersection has
    dimension k.
    """
    n = q.shape[2]
    stacked = np.empty(q.shape[:2] + (2 * n,))
    stacked[:, :, :n] = q
    stacked[:, :, n:] = ref_q
    s = np.linalg.svd(stacked, compute_uv=False)
    return (s <= tol.eps_rank * s[:, :1]).sum(axis=1), s


def _detect(path: LagrangianPath, ref_q, ts, tol: Tolerances):
    """(intersection dims, singular values) against ``ref_q`` at the times
    ts, batch by batch: the sampler of every grid point, probe and candidate."""
    parts = [_spectra(_orth_frames(path, ts[sl], tol)[0], ref_q, tol)
             for sl in _batches(path, len(ts))]
    if len(parts) == 1:  # most calls; skips the copy
        return parts[0]
    dims, spectra = zip(*parts)
    return np.concatenate(dims), np.concatenate(spectra)


def _golden_min(lo, hi, max_iter=200):
    """Golden-section search in [lo, hi]: yields probe times, is sent the signal."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = yield c
    fd = yield d
    for _ in range(max_iter):
        if b - a <= max(REFINE_XTOL, 4.0 * math.ulp(abs(a) + abs(b))):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = yield d
    return 0.5 * (a + b)


def _refine(path: LagrangianPath, ref_q, brackets, column: int, tol: Tolerances):
    """Minima of the signal ``spectra[:, column]`` in the (lo, hi) brackets,
    one golden-section search each, advanced in rounds of one ``_detect``."""
    minima = [None] * len(brackets)
    searches = [_golden_min(lo, hi) for lo, hi in brackets]
    live = [(i, search, next(search)) for i, search in enumerate(searches)]
    while live:
        _, spectra = _detect(path, ref_q, [t for _, _, t in live], tol)
        running = []
        for (i, search, _), value in zip(live, spectra[:, column]):
            try:
                running.append((i, search, search.send(float(value))))
            except StopIteration as stop:
                minima[i] = stop.value
        live = running
    return minima


def _chart_forms(omega, q, frames, dframes, v):
    """Crossing forms of stacked samples in the graph chart over Q.

    Per sample gamma = xi^T (dy x0^(-1)) xi with x0 = Q^T P, dy =
    (omega Q)^T dP and xi = Q^T V, symmetrized; P and dP are the raw
    frame and its derivative, V the intersection basis.
    """
    x0 = _tr(q) @ frames
    dy = _tr(omega @ q) @ dframes
    m = _tr(np.linalg.solve(_tr(x0), _tr(dy)))  # dy @ inv(x0)
    xi = _tr(q) @ v
    gamma = _tr(xi) @ m @ xi
    return 0.5 * (gamma + _tr(gamma))


def _forms(path: LagrangianPath, ref: LagrangianFrame, ts, tol: Tolerances):
    """Yields (V, gamma, inertia, stable) of the crossing form at each
    time ts in order, the one form evaluator of the scan; see
    ``crossing_form`` for V, gamma and the chart, checked once here.

    A tangential crossing localizes only to ~sqrt(machine eps), so the
    form evaluated at the refined time picks up an eigenvalue of that
    size.  Anything between the zero band and a clear-signal floor of
    ``GRAY_FACTOR`` relative to 1 + |gamma| cannot be classified either
    way; such a form is not stable.  A failing frame derivative is
    raised after the forms of the times before it.
    """
    omega = path.space.form
    d = path.space.dim
    if not (np.allclose(omega.T @ omega, np.eye(d), atol=1e-12)
            and np.allclose(omega @ omega, -np.eye(d), atol=1e-12)):
        raise InputError("crossing forms need an orthogonal complex-structure form")
    if ref.space.dim != d:
        raise DimensionMismatch("reference frame does not match the path")
    for sl in _batches(path, len(ts)):
        q, frames = _orth_frames(path, ts[sl], tol)
        dframes, error = _evaluate(path, ts[sl], derivative=True)
        forms = [None] * len(dframes)
        for idx, v in subspace_intersections(q[:len(dframes)], ref.frame, tol):
            gammas = _chart_forms(omega, q[idx], frames[idx], dframes[idx], v)
            if not np.all(np.isfinite(gammas)):
                raise InputError("symmetric matrix contains non-finite entries")
            scale = 1.0 + np.linalg.norm(gammas, 2, axis=(1, 2))
            n_pos, n_neg, stable = band_counts(np.linalg.eigvalsh(gammas), scale,
                                               tol, GRAY_FACTOR)
            k = v.shape[2]
            for j, i in enumerate(idx):
                p, m = int(n_pos[j]), int(n_neg[j])
                forms[i] = (v[j], gammas[j], Inertia(p, m, k - p - m), bool(stable[j]))
        yield from forms
        if error is not None:
            raise error


def crossing_form(path: LagrangianPath, ref: LagrangianFrame, t0: float,
                  tol: Tolerances = DEFAULT_TOL):
    """Intersection basis and crossing form matrix at time t0.

    Returns (V, gamma): V holds orthonormal ambient coordinates of
    l(t0) & ref, gamma is the symmetric form matrix in those columns.
    The chart construction needs the form matrix to be orthogonal with
    square -1, which holds for the standard and the graph-product
    spaces.
    """
    v, gamma, _, _ = next(_forms(path, ref, [t0], tol))
    return v, gamma


def _grid_cells(grid) -> int:
    """``grid`` as an int, checked: an integer (numpy integers too) of at
    least ``MIN_GRID``, else InputError."""
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral):
        raise InputError("grid must be an integer, got %r" % (grid,))
    if grid < MIN_GRID:
        raise InputError("grid must be at least %d" % MIN_GRID)
    return int(grid)


def find_crossings(path: LagrangianPath, ref: LagrangianFrame, grid: int = 256,
                   tol: Tolerances = DEFAULT_TOL) -> CrossingScan:
    """Locate all crossings of the path with ``ref`` and evaluate forms.

    The interval is sampled at ``grid``+1 points; sampled local minima
    of the detection signal are narrowed by golden section and accepted
    when the rank test confirms an intersection.  When two accepted
    times land in the same grid cell GridTooCoarse is raised.

    Every sample goes through one batched sampler, ``_detect``: a batch
    of frames is orthonormalized by one stacked SVD and its detection
    spectra come from one more.  The frames of a built-in path
    (``orbit_path``, ``graph_path``, ``unitary_geodesic``) come from one
    stacked flow evaluation per batch; other frame functions are called
    one time at a time.  A batch keeps each stacked array, the complex
    flow matrices included, within ``_BATCH_BYTES`` (256 KB), so the
    memory of a scan stays bounded at any grid and dimension.  The
    golden-section searches of all sampled minima advance in rounds, one
    ``_detect`` call each, and one more confirms the candidates.  Their
    crossing forms, and in interval mode the spot-check of the constant
    core, come from one batched form evaluator, ``_forms``.

    Known limit: the scan does not certify that it found every crossing.
    A sampled minimum above ``SIGNAL_GATE`` is skipped without an error,
    so crossings closer together than the sampling resolves can be
    missed and a wrong index returned.  With the default grid,
    ``maslov_index_symplectic(300 * standard_J(1))`` gives 117/2 where
    the closed form is 191/2.  ``grid`` must oversample the expected
    crossing spacing; ROADMAP item 2 (a certified adaptive scan) removes
    this limit.
    """
    grid = _grid_cells(grid)
    if ref.space.dim != path.space.dim:
        raise DimensionMismatch("reference frame does not match the path")
    a, b = path.interval
    ts = np.linspace(a, b, grid + 1)
    ref_q = ref.frame

    dims, spectra = _detect(path, ref_q, ts, tol)
    interval_mode = bool(np.mean(dims > 0) > 0.25)
    baseline = int(dims.min()) if interval_mode else 0
    if interval_mode and baseline == 0:
        raise GridTooCoarse("widespread degeneracy without a constant core; "
                            "increase grid or reparametrize")

    signal = spectra[:, -(baseline + 1)]

    # candidate minima of the sampled signal; the first and last cell
    # are bracketed from the boundary so near-endpoint crossings are
    # not skipped
    brackets = []
    for i in range(1, grid):
        if signal[i] <= SIGNAL_GATE and signal[i] <= signal[i - 1] and signal[i] <= signal[i + 1]:
            brackets.append((ts[i - 1], ts[i + 1]))
    if signal[0] <= SIGNAL_GATE and signal[0] <= signal[1]:
        brackets.append((ts[0], ts[1]))
    if signal[grid] <= SIGNAL_GATE and signal[grid] <= signal[grid - 1]:
        brackets.append((ts[grid - 1], ts[grid]))
    times = [float(a), float(b)] + _refine(path, ref_q, brackets, -(baseline + 1), tol)

    times.sort()
    merged = []
    for t in times:
        if merged and abs(t - merged[-1][-1]) <= MERGE_TOL:
            merged[-1].append(t)
        else:
            merged.append([t])
    candidates = []
    for group in merged:
        if abs(group[0] - a) <= MERGE_TOL:
            candidates.append(float(a))
        elif abs(group[-1] - b) <= MERGE_TOL:
            candidates.append(float(b))
        else:
            candidates.append(float(np.mean(group)))

    crossings = []
    cell = (b - a) / grid
    # spurious minima and plain baseline interior points are dropped
    dims_at = _detect(path, ref_q, candidates, tol)[0]
    confirmed = [(t, int(k)) for t, k in zip(candidates, dims_at)
                 if k > baseline or (interval_mode and t in (a, b))]
    forms = _forms(path, ref, [t for t, _ in confirmed], tol)  # zip starts it only if any
    for (t, dim), (v, _, inertia, stable) in zip(confirmed, forms):
        if not stable:
            raise NonRegularCrossing(_GRAY_MESSAGE % t)
        if v.shape[1] != dim:
            raise NonRegularCrossing("intersection dimension unstable at t=%g" % t)
        if inertia.n_zero != baseline:
            raise NonRegularCrossing(
                "crossing form at t=%g has %d null directions, expected %d"
                % (t, inertia.n_zero, baseline))
        crossings.append(Crossing(t, dim, inertia, t in (a, b)))

    interior = [c.time for c in crossings if not c.at_endpoint]
    for t1, t2 in zip(interior, interior[1:]):
        if t2 - t1 < cell:
            raise GridTooCoarse("crossings at t=%g and t=%g share a grid cell" % (t1, t2))

    if interval_mode:
        # the constant core must carry no form anywhere, else the index
        # formula does not apply; spot-check all plain baseline samples
        core = ts[dims == baseline]
        for t, (_, _, inertia, stable) in zip(core, _forms(path, ref, core, tol)):
            if not stable:
                raise NonRegularCrossing(_GRAY_MESSAGE % t)
            if inertia.n_pos + inertia.n_neg:
                raise NonRegularCrossing("constant-dimensional intersection carries a "
                                         "nonvanishing form at t=%g" % t)

    total = ZERO
    for c in crossings:
        total = total + c.contribution
    return CrossingScan(tuple(crossings), total, interval_mode, baseline)


def maslov_index(path: LagrangianPath, ref: LagrangianFrame, grid: int = 256,
                 tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of the path relative to ``ref`` by the half-sum rule."""
    return find_crossings(path, ref, grid, tol).index


def maslov_index_symplectic(h, start: Optional[LagrangianFrame] = None,
                            ref: Optional[LagrangianFrame] = None,
                            interval=(0.0, 1.0), grid: int = 256,
                            tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of t -> exp(t h) . start against ref (both default vertical)."""
    path = orbit_path(h, start, interval)
    if ref is None:
        ref = vertical_lagrangian(path.space.half_dim, tol)
    return maslov_index(path, ref, grid, tol)


def conley_zehnder(h, interval=(0.0, 1.0), grid: int = 256,
                   tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Index of the graph path of exp(t h) against the diagonal."""
    path = graph_path(h, interval)
    ref = diagonal_lagrangian(path.space.dim // 4, tol)
    return maslov_index(path, ref, grid, tol)


# -- closed forms for rotation blocks and spectral routes ---------------------

#: absolute distance below which a float is snapped onto the lattice
SNAP_TOL = 1e-9


def snap_half_integer(x: float, snap: float = SNAP_TOL) -> HalfInt:
    """Nearest half integer if within ``snap``, else floor(x) + 1/2.

    This is the function whose values at alpha/pi give the index of the
    rotation orbit path with angular velocity alpha.
    """
    twice = round(2.0 * x)
    if abs(x - 0.5 * twice) <= snap:
        return HalfInt(int(twice))
    return HalfInt(2 * math.floor(x) + 1)


def snap_odd_integer(x: float, snap: float = SNAP_TOL) -> HalfInt:
    """Nearest integer if within ``snap``, else the odd member of
    {floor(x), floor(x)+1}.

    Values at alpha/pi give the graph-path index of the rotation with
    angular velocity alpha.
    """
    nearest = round(x)
    if abs(x - nearest) <= snap:
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


def spectral_maslov(h, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Vertical-route index from the signed rotation angles alone.

    Valid for semisimple generators whose plane decomposition is
    aligned with the standard coordinate splitting (block generators);
    hyperbolic and loxodromic planes contribute nothing.
    """
    from .krein import krein_positive_angles

    total = ZERO
    for alpha in krein_positive_angles(h, tol):
        total = total + rotation_orbit_index(alpha)
    return total


def spectral_conley_zehnder(h, tol: Tolerances = DEFAULT_TOL) -> HalfInt:
    """Graph-route index from the signed rotation angles alone.

    Valid for any semisimple generator: the graph route is invariant
    under symplectic conjugation, so only the normal form matters.
    """
    from .krein import krein_positive_angles

    total = ZERO
    for alpha in krein_positive_angles(h, tol):
        total = total + rotation_graph_index(alpha)
    return total
