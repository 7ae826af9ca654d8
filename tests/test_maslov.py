"""Crossing forms, crossing scans, and the two path indices."""

import collections
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from symindex import (
    HalfInt,
    SymplecticSpace,
    conley_zehnder,
    crossing_form,
    find_crossings,
    graph_path,
    lagrangian_frame,
    make_system,
    maslov_index,
    maslov_index_symplectic,
    orbit_path,
    plane_block_generator,
    spectral_conley_zehnder,
    spectral_maslov,
    standard_direct_sum,
    standard_J,
    unitary_geodesic,
    validate,
    vertical_lagrangian,
)
from symindex import horizontal_lagrangian, maslov
from symindex.errors import (
    DimensionMismatch,
    GridTooCoarse,
    InputError,
    NonRegularCrossing,
    NotHamiltonian,
    NotLagrangian,
    OddDimension,
    SymindexError,
)
from symindex.halfint import ZERO
from symindex.maslov import (
    path_from_frames,
    rotation_graph_index,
    rotation_orbit_index,
    snap_half_integer,
    snap_odd_integer,
)
from symindex.numerics import (
    DEFAULT_TOL,
    kernel_basis,
    orthonormal_columns,
    singular_values,
)
from symindex.symplectic import diagonal_lagrangian, is_hamiltonian, random_lagrangian
TWO_PI = 2.0 * np.pi

# (speed, orbit index doubled, graph index doubled)
ROTATION_TABLE = [
    (-7.0, -5, -6),
    (-2.0, -1, -2),
    (0.5, 1, 2),
    (2.0, 1, 2),
    (TWO_PI, 4, 4),
    (5.0, 3, 2),
    (3.0 * np.pi, 6, 6),
    (8.0, 5, 6),
]


@pytest.mark.parametrize("alpha,orbit2,graph2", ROTATION_TABLE)
def test_rotation_indices_match_closed_forms(alpha, orbit2, graph2):
    h = plane_block_generator([("elliptic", alpha)])
    assert maslov_index_symplectic(h) == HalfInt(orbit2)
    assert conley_zehnder(h) == HalfInt(graph2)
    assert rotation_orbit_index(alpha) == HalfInt(orbit2)
    assert rotation_graph_index(alpha) == HalfInt(graph2)


def test_snap_rules():
    assert snap_half_integer(0.5) == HalfInt(1)
    assert snap_half_integer(0.63) == HalfInt(1)
    assert snap_half_integer(1.0) == HalfInt(2)
    assert snap_half_integer(1.0 + 1e-12) == HalfInt(2)
    assert snap_half_integer(-0.2) == HalfInt(-1)
    assert snap_odd_integer(0.63) == HalfInt.from_int(1)
    assert snap_odd_integer(1.8) == HalfInt.from_int(1)
    assert snap_odd_integer(2.0) == HalfInt.from_int(2)
    assert snap_odd_integer(2.546) == HalfInt.from_int(3)
    assert snap_odd_integer(-0.4) == HalfInt.from_int(-1)


def test_vertical_crossing_form_of_rotation():
    """At t=0 the orbit path sits on the reference; the crossing form in
    the intersection direction is the rotation speed itself."""
    alpha = 2.0
    h = plane_block_generator([("elliptic", alpha)])
    path = orbit_path(h)
    v, gamma = crossing_form(path, vertical_lagrangian(1), 0.0)
    assert v.shape == (2, 1)
    assert gamma[0, 0] == pytest.approx(alpha, abs=1e-9)


def test_crossing_layout_for_speed_five():
    h = plane_block_generator([("elliptic", 5.0)])
    scan = find_crossings(orbit_path(h), vertical_lagrangian(1))
    assert not scan.interval_mode
    times = [c.time for c in scan.crossings]
    assert len(times) == 2
    assert times[0] == 0.0
    assert times[1] == pytest.approx(np.pi / 5.0, abs=1e-9)
    assert scan.crossings[0].at_endpoint
    assert not scan.crossings[1].at_endpoint
    assert scan.index == HalfInt(3)


def test_geodesic_family_shifts_index_by_k():
    space = SymplecticSpace.standard(1)
    start = horizontal_lagrangian(1)
    end = lagrangian_frame(space, np.array([[1.0], [1.0]]))
    ref = vertical_lagrangian(1)
    for k in range(-2, 3):
        path = unitary_geodesic(start, end, k)
        from symindex.symplectic import same_span
        assert same_span(path.frame(0.0), start.frame)
        assert same_span(path.frame(1.0), end.frame)
        assert maslov_index(path, ref) == HalfInt.from_int(k)


def test_graph_path_lives_in_product_space():
    h = plane_block_generator([("elliptic", 2.0)])
    path = graph_path(h)
    assert path.space.dim == 8 or path.space.dim == 4
    f = path.frame(0.37)
    lagrangian_frame(path.space, f)  # must not raise


def test_constant_path_has_zero_index():
    assert maslov_index_symplectic(np.zeros((4, 4))) == ZERO


def test_mixed_block_uses_interval_mode():
    h = plane_block_generator([("hyperbolic", 1.0), ("elliptic", 2.0)])
    scan = find_crossings(orbit_path(h), vertical_lagrangian(2))
    assert scan.interval_mode
    assert scan.baseline_dim == 1
    assert scan.index == HalfInt(1)
    assert maslov_index_symplectic(h) == HalfInt(1)
    assert conley_zehnder(h) == HalfInt(2)


def test_spectral_routes_agree_with_scans():
    h = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
    assert spectral_maslov(h) == maslov_index_symplectic(h)
    assert spectral_conley_zehnder(h) == conley_zehnder(h)


def test_quadratic_tangency_is_rejected():
    space = SymplecticSpace.standard(1)

    def frames(t):
        return np.array([[t * t], [1.0]])

    path = path_from_frames(space, frames, (-0.5, 0.5))
    with pytest.raises(NonRegularCrossing):
        maslov_index(path, vertical_lagrangian(1))


def test_degenerate_plateau_without_core_is_rejected():
    # sits on the reference for 30% of the interval, then leaves it:
    # neither a regular crossing pattern nor a constant-core interval
    space = SymplecticSpace.standard(1)

    def frames(t):
        g = max(0.0, t - 0.3) ** 2 * 10.0
        return np.array([[np.sin(g)], [np.cos(g)]])

    path = path_from_frames(space, frames, (0.0, 1.0))
    with pytest.raises(GridTooCoarse):
        maslov_index(path, vertical_lagrangian(1))


def test_crossing_chart_requires_orthogonal_form():
    space = SymplecticSpace(2.0 * standard_J(1))
    path = path_from_frames(
        space, lambda t: np.array([[np.cos(t)], [np.sin(t)]]), (0.0, 2.0))
    ref = lagrangian_frame(space, np.array([[0.0], [1.0]]))
    with pytest.raises(InputError):
        maslov_index(path, ref)


@pytest.mark.parametrize(
    "entry", [maslov_index_symplectic, orbit_path, conley_zehnder, graph_path,
              pytest.param(lambda h: standard_direct_sum([h]), id="standard_direct_sum")])
def test_odd_generator_rejected(entry):
    with pytest.raises(OddDimension):
        entry(np.zeros((3, 3)))


def test_grid_floor():
    h = plane_block_generator([("elliptic", 2.0)])
    with pytest.raises(InputError):
        maslov_index_symplectic(h, grid=16)


def test_nilpotent_shear_indices():
    """Persistent eigenvalue 1: both scans run in interval mode and both
    routes give -1/2."""
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert maslov_index_symplectic(shear) == HalfInt(-1)
    assert conley_zehnder(shear) == HalfInt(-1)


def test_constant_core_carrying_a_form_is_rejected():
    """The core stays on the vertical but the supplied derivative moves
    it; the first grid sample where its form is clearly nonzero is
    named."""
    path = path_from_frames(
        SymplecticSpace.standard(1), lambda t: np.array([[0.0], [1.0]]), (0.0, 1.0),
        dframe_fn=lambda t: np.sin(np.pi * t) * np.array([[1.0], [0.0]]))
    with pytest.raises(NonRegularCrossing) as err:
        find_crossings(path, vertical_lagrangian(1))
    assert str(err.value) == ("constant-dimensional intersection carries a "
                              "nonvanishing form at t=0.00390625")


def test_rank_loss_names_the_first_sample():
    def frames(t):
        f = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
        if min(abs(t - 0.25), abs(t - 0.75)) < 1e-12:
            f[:, 1] = f[:, 0]
        return f

    path = path_from_frames(SymplecticSpace.standard(2), frames)
    with pytest.raises(NotLagrangian) as err:
        find_crossings(path, vertical_lagrangian(2))
    assert str(err.value) == "path frame lost rank at t=0.25"


def _reference_form(path, ref, t, tol):
    """Per-sample intersection and graph-chart form from the numerics
    primitives, the way a loop over the samples computes them."""
    f0 = orthonormal_columns(path.frame(t), tol)
    kern = kernel_basis(np.hstack([f0, -ref.frame]), tol)
    v = orthonormal_columns(f0 @ kern[:f0.shape[1]], tol)
    if v.shape[1] == 0:
        return v, np.zeros((0, 0))
    x0 = f0.T @ path.frame(t)
    dy = (path.space.form @ f0).T @ path.dframe(t)
    xi = f0.T @ v
    gamma = xi.T @ np.linalg.solve(x0.T, dy.T).T @ xi
    return v, 0.5 * (gamma + gamma.T)


def _detection_cases():
    """(id, path, reference, interval mode expected) per case."""
    elliptic = [2.0, -3.0, 5.0, 0.7]
    cases = []
    for n in (1, 2, 4):
        h = plane_block_generator([("elliptic", a) for a in elliptic[:n]])
        cases.append(("orbit n=%d" % n, orbit_path(h), vertical_lagrangian(n), False))
        cases.append(("graph n=%d" % n, graph_path(h), diagonal_lagrangian(n), False))
    mixed = plane_block_generator([("hyperbolic", 1.0), ("elliptic", 5.0)])
    cases.append(("mixed orbit", orbit_path(mixed), vertical_lagrangian(2), True))
    cases.append(("mixed graph", graph_path(mixed), diagonal_lagrangian(2), False))
    space = SymplecticSpace.standard(1)
    end = lagrangian_frame(space, np.array([[1.0], [1.0]]))
    cases.append(("unitary geodesic k=2",
                  unitary_geodesic(horizontal_lagrangian(1), end, 2),
                  vertical_lagrangian(1), False))
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("path,ref,interval_mode", _detection_cases())
def test_batched_detection_equals_per_point(path, ref, interval_mode):
    tol = DEFAULT_TOL
    ts = np.linspace(*path.interval, 257)
    dims, spectra = maslov._detect(path, ref.frame, ts, tol)
    for i, t in enumerate(ts):
        (dim,), (s,) = maslov._detect(path, ref.frame, [t], tol)
        looped = singular_values(np.hstack([orthonormal_columns(path.frame(t), tol),
                                            ref.frame]))
        np.testing.assert_allclose(spectra[i], s, rtol=0, atol=1e-14)
        np.testing.assert_allclose(spectra[i], looped, rtol=0, atol=1e-14)
        assert dims[i] == dim

    formed = 0
    for i, (v, gamma, inertia, _) in enumerate(maslov._forms(path, ref, ts, tol)):
        v_pt, gamma_pt = crossing_form(path, ref, ts[i], tol)
        v_ref, gamma_ref = _reference_form(path, ref, ts[i], tol)
        assert v.shape == v_pt.shape == v_ref.shape
        assert inertia.dim == v.shape[1]
        np.testing.assert_allclose(v, v_pt, rtol=0, atol=1e-14)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-14)
        if v.shape[1]:
            formed += 1
            np.testing.assert_allclose(gamma, gamma_pt, rtol=0, atol=1e-14)
            np.testing.assert_allclose(gamma, gamma_ref, rtol=0, atol=1e-14)
    assert formed == int(np.count_nonzero(dims))
    scan = find_crossings(path, ref)
    assert scan.interval_mode == interval_mode
    assert scan.baseline_dim == (1 if interval_mode else 0)


def test_scan_memory_is_bounded():
    """Samples are stacked in bounded batches, so an n=16 scan stays
    far below what stacking the whole grid would take (~11 MB)."""
    kinds = [("hyperbolic", 0.7)] + [("elliptic", 0.5 + 0.3 * j) for j in range(15)]
    h = plane_block_generator(kinds)
    tracemalloc.start()
    try:
        maslov_index_symplectic(h)
        conley_zehnder(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def _serial_golden_min(f, lo, hi, xtol=maslov.REFINE_XTOL, max_iter=200):
    """Reference: one golden-section search at a time, one probe per
    call of f, with the absolute stopping width."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= xtol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize("path,ref,interval_mode,grid", [
    pytest.param(*case.values, 256, id=case.id) for case in _detection_cases()] + [
    pytest.param(orbit_path(300.0 * standard_J(1)), vertical_lagrangian(1), False, 1024,
                 id="orbit 300J grid=1024")])
def test_round_refinement_equals_serial(path, ref, interval_mode, grid):
    """Searches advanced together in rounds land on exactly the minima
    that one search at a time finds."""
    tol = DEFAULT_TOL
    column = -2 if interval_mode else -1
    ts = np.linspace(*path.interval, grid + 1)
    signal = maslov._detect(path, ref.frame, ts, tol)[1][:, column]
    padded = np.concatenate([[np.inf], signal, [np.inf]])
    lows = np.flatnonzero((padded[1:-1] <= padded[:-2]) & (padded[1:-1] <= padded[2:]))
    brackets = [(ts[max(i - 1, 0)], ts[min(i + 1, grid)]) for i in lows]
    assert brackets

    def sig_at(t):
        return float(maslov._detect(path, ref.frame, [t], tol)[1][0, column])

    serial = [_serial_golden_min(sig_at, lo, hi) for lo, hi in brackets]
    assert maslov._refine(path, ref.frame, brackets, column, tol) == serial


def _counted(path):
    """The path with frame_fn and dframe_fn wrapped to count their calls."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapped(t):
            calls[name] += 1
            return fn(t)
        return wrapped

    return dataclasses.replace(path, frame_fn=counting("frame", path.frame_fn),
                               dframe_fn=counting("dframe", path.dframe_fn)), calls


def test_crossing_form_evaluates_each_frame_once():
    path, calls = _counted(orbit_path(2.0 * standard_J(1)))
    crossing_form(path, vertical_lagrangian(1), 0.0)
    assert calls == {"frame": 1, "dframe": 1}


def test_refinement_far_from_zero_stops_at_float_spacing():
    """Near t = 1e4 the float spacing exceeds REFINE_XTOL; the searches
    stop at the spacing instead of running out their steps."""
    ref = vertical_lagrangian(1)
    counts = []
    for interval, index in [((0.0, 1.0), HalfInt(3)), ((1e4, 1e4 + 1.0), HalfInt(4))]:
        path, calls = _counted(orbit_path(5.0 * standard_J(1), interval=interval))
        assert find_crossings(path, ref).index == index
        counts.append(calls["frame"])
    near, far = counts  # 360 and 351; 362 and 669 with an absolute width only
    assert abs(far - near) <= 20


def test_forms_raise_a_failing_derivative_after_earlier_samples():
    def dframe(t):
        if t > 0.5:
            raise InputError("derivative fails at t=%g" % t)
        return np.zeros((2, 1))

    path = path_from_frames(SymplecticSpace.standard(1),
                            lambda t: np.array([[0.0], [1.0]]), dframe_fn=dframe)
    seen = []
    with pytest.raises(InputError, match="t=0.625"):
        for form in maslov._forms(path, vertical_lagrangian(1), np.linspace(0, 1, 9),
                                  DEFAULT_TOL):
            seen.append(form)
    assert len(seen) == 5
    assert all(inertia.n_zero == 1 and stable for _, _, inertia, stable in seen)


def _stacked_cases():
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])  # defective: the expm fallback
    vertical = vertical_lagrangian(1).frame
    start = random_lagrangian(2, seed=3)
    mixed = plane_block_generator([("elliptic", 2.0), ("hyperbolic", 0.7)])
    return [
        pytest.param(orbit_path(mixed), None, id="orbit default start"),
        pytest.param(orbit_path(mixed, start, interval=(-0.5, 2.0)), None,
                     id="orbit custom start"),
        pytest.param(graph_path(mixed), None, id="graph"),
        pytest.param(unitary_geodesic(vertical_lagrangian(2), start, k=1), None, id="geodesic"),
        pytest.param(orbit_path(shear), lambda t: scipy.linalg.expm(t * shear) @ vertical,
                     id="orbit expm fallback"),
        pytest.param(graph_path(shear),
                     lambda t: np.vstack([np.eye(2), scipy.linalg.expm(t * shear)]),
                     id="graph expm fallback"),
    ]


@pytest.mark.parametrize("path,expm_frame", _stacked_cases())
def test_stacked_frames_equal_per_time_calls(path, expm_frame):
    """A built-in path evaluated for a whole batch gives, bit for bit,
    the frames and derivatives of one call per time."""
    ts = np.concatenate([np.linspace(*path.interval, 257), [0.1, np.pi / 7, 0.0]])
    for fn in (path.frame_fn, path.dframe_fn):
        stack = fn.stack(ts)
        assert stack.shape == (len(ts), path.space.dim, path.space.half_dim)
        assert np.array_equal(stack, np.stack([fn(t) for t in ts]))
        assert np.array_equal(stack[:5], fn.stack(ts[:5]))
    if expm_frame is not None:  # the fallback is expm itself, one time at a time
        assert np.array_equal(path.frame_fn.stack(ts), np.stack([expm_frame(t) for t in ts]))


def _looped(path):
    """The path with its frame functions wrapped, so every sample is one call."""
    frame_fn, dframe_fn = path.frame_fn, path.dframe_fn
    return dataclasses.replace(path, frame_fn=lambda t: frame_fn(t),
                               dframe_fn=lambda t: dframe_fn(t))


def _scan_or_error(path, ref, grid):
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow cases
            return find_crossings(path, ref, grid)
    except SymindexError as exc:
        return type(exc), str(exc)


def _parity_cases():
    mixed = plane_block_generator([("elliptic", 2.0), ("hyperbolic", 0.7), ("elliptic", 5.0)])
    overflow = np.diag([800.0, -800.0])
    cases = []
    for h, grid in [(123.5 * standard_J(1), 256), (-400.0 * standard_J(1), 1024),
                    (100 * TWO_PI * standard_J(1), 256), (mixed, 256), (overflow, 256)]:
        n = h.shape[0] // 2
        cases.append((orbit_path(h), vertical_lagrangian(n), grid))
        cases.append((graph_path(h), diagonal_lagrangian(n), grid))
    # a frame of the wrong shape for the space
    misfit = dataclasses.replace(orbit_path(standard_J(1)), space=SymplecticSpace.standard(2))
    cases.append((misfit, vertical_lagrangian(2), 256))
    return cases


def test_stacked_scan_equals_per_time_loop():
    """find_crossings on a built-in path gives the crossings, or the
    error, that one frame call per sample gives."""
    outcomes = []
    for path, ref, grid in _parity_cases():
        stacked = _scan_or_error(path, ref, grid)
        assert stacked == _scan_or_error(_looped(path), ref, grid)
        outcomes.append(stacked)
    assert outcomes[8] == (InputError, "path frame contains non-finite entries")
    assert outcomes[9] == (NotLagrangian, "path frame lost rank at t=0.0273438")
    assert outcomes[10] == (DimensionMismatch, "path frame has shape (2, 1)")
    assert all(isinstance(scan, maslov.CrossingScan) for scan in outcomes[:8])


@pytest.mark.parametrize("route", [
    lambda grid: maslov_index_symplectic(5.0 * standard_J(1), grid=grid),
    lambda grid: conley_zehnder(5.0 * standard_J(1), grid=grid),
    lambda grid: validate(make_system(5.0 * standard_J(1)), grid=grid).orbit_index,
    lambda grid: validate(make_system(5.0 * standard_J(1)), sigma=-1, grid=grid).graph_index,
], ids=["orbit", "graph", "validate", "validate sigma=-1"])
def test_grid_must_be_an_integer(route):
    for grid in (256.0, "256", [256], True):
        with pytest.raises(InputError, match="grid must be an integer"):
            route(grid)
    assert route(np.int64(256)) == route(256)


def test_overflowing_flow_raises_only_the_typed_error():
    """The stacked flow of diag(800, -800) overflows past t=0.887; the
    scans raise their typed errors and no numpy warning escapes."""
    h = np.diag([800.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^path frame contains non-finite entries$"):
            find_crossings(orbit_path(h), vertical_lagrangian(1))
        with pytest.raises(NotLagrangian, match=r"^path frame lost rank at t=0\.0273438$"):
            find_crossings(graph_path(h), diagonal_lagrangian(1))


@pytest.mark.parametrize(
    "entry", [orbit_path, graph_path, maslov_index_symplectic, conley_zehnder])
def test_non_hamiltonian_generator_rejected(entry):
    h = np.random.default_rng(0).standard_normal((4, 4))
    with pytest.raises(NotHamiltonian):
        entry(h)


def test_orbit_generator_is_checked_against_the_start_space():
    """With a start in a space of another form, the generator must be
    Hamiltonian for that form, not for J."""
    form = np.zeros((4, 4))
    form[[1, 3], [0, 2]] = 1.0
    form[[0, 2], [1, 3]] = -1.0  # the symplectic pairs are (e1, e2) and (e3, e4)
    space = SymplecticSpace(form)
    start = lagrangian_frame(space, np.eye(4)[:, [1, 3]])
    own = -form @ np.diag([1.0, 2.0, 3.0, 4.0])  # form @ own is symmetric
    assert not is_hamiltonian(own)
    assert orbit_path(own, start).space is space
    elliptic = plane_block_generator([("elliptic", 2.0), ("elliptic", 3.0)])
    assert is_hamiltonian(elliptic)
    with pytest.raises(NotHamiltonian):
        orbit_path(elliptic, start)


def test_reference_from_another_space_of_equal_dimension_rejected():
    """A graph path lives in the graph product over R^2, which has the
    dimension of the standard R^4 but not its form."""
    path = graph_path(2.0 * standard_J(1))
    with pytest.raises(DimensionMismatch):
        find_crossings(path, vertical_lagrangian(2))
    with pytest.raises(DimensionMismatch):
        crossing_form(path, vertical_lagrangian(2), 0.0)
    with pytest.raises(DimensionMismatch):
        unitary_geodesic(vertical_lagrangian(2), diagonal_lagrangian(1))


def test_geodesic_winding_must_be_an_integer():
    space = SymplecticSpace.standard(1)
    end = lagrangian_frame(space, np.array([[1.0], [1.0]]))
    for k in (1.5, "1", True):
        with pytest.raises(InputError, match="k must be an integer"):
            unitary_geodesic(horizontal_lagrangian(1), end, k)
    ref = vertical_lagrangian(1)
    assert (maslov_index(unitary_geodesic(horizontal_lagrangian(1), end, np.int64(1)), ref)
            == maslov_index(unitary_geodesic(horizontal_lagrangian(1), end, 1), ref))


def test_crossing_chart_is_checked_on_scans_without_crossings():
    """The ends of the interval are always candidates, so a space whose
    form is not an orthogonal complex structure is rejected even when
    the path never meets the reference."""
    space = SymplecticSpace(2.0 * standard_J(1))
    path = path_from_frames(
        space, lambda t: np.array([[np.cos(t)], [np.sin(t)]]), (0.1, 1.0))
    ref = lagrangian_frame(space, np.array([[0.0], [1.0]]))
    with pytest.raises(InputError, match="orthogonal complex-structure form"):
        find_crossings(path, ref)
