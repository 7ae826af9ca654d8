"""Crossing forms, crossing scans, and the two path indices."""

import collections
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

import symindex
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
    random_hamiltonian,
    spectral_conley_zehnder,
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
    InternalMismatch,
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
    # fast rotations and k-turn loops: more crossings than the default grid has cells
    (300.0, 191, 190),
    (1000.0, 637, 638),
    (2000.0, 1273, 1274),
    (20 * TWO_PI, 80, 80),
    (60 * TWO_PI, 240, 240),
    (100 * TWO_PI, 400, 400),
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
    assert spectral_conley_zehnder(h) == conley_zehnder(h)


def test_spectral_orbit_route_is_gone_and_the_graph_route_is_exact():
    """Summing the orbit closed form over the Krein speeds is right only
    for plane-aligned generators: on [[0, 1], [1, 0]] it gave 0 where the
    orbit scan gives -1/2, and it was wrong on conjugated generators.
    The graph route depends on the normal form alone."""
    assert not hasattr(symindex, "spectral_maslov")
    assert maslov_index_symplectic(np.array([[0.0, 1.0], [1.0, 0.0]])) == HalfInt(-1)
    for s in range(30):
        profile = ("semisimple-elliptic", "mixed", "generic")[s % 3]
        h = random_hamiltonian(1 + s % 3, 8000 + s, profile)
        assert spectral_conley_zehnder(h) == conley_zehnder(h), s


def test_quadratic_tangency_adds_nothing():
    """The phase touches 0 and turns back: index 0, and no crossing is
    listed, since the counts cancel."""
    path = path_from_frames(SymplecticSpace.standard(1),
                            lambda t: np.array([[t * t], [1.0]]), (-0.5, 0.5))
    assert maslov_index(path, vertical_lagrangian(1)) == ZERO
    scan = find_crossings(path, vertical_lagrangian(1))
    assert scan.index == ZERO and scan.crossings == ()


def test_cubic_crossing_has_an_index_but_no_regular_form():
    """The phase passes 0 with zero speed: the phase route gives -1, and
    find_crossings rejects the zero form at the located crossing."""
    path = path_from_frames(SymplecticSpace.standard(1),
                            lambda t: np.array([[t ** 3], [1.0]]), (-0.5, 0.5))
    assert maslov_index(path, vertical_lagrangian(1)) == HalfInt(-2)
    with pytest.raises(NonRegularCrossing, match="1 null directions, expected 0"):
        find_crossings(path, vertical_lagrangian(1))


def test_degenerate_plateau_without_core_is_rejected():
    # sits on the reference for 30% of the interval, then leaves it:
    # neither a regular crossing pattern nor a constant-core interval.
    # The phase route still has the Robbin-Salamon value.
    space = SymplecticSpace.standard(1)

    def frames(t):
        g = max(0.0, t - 0.3) ** 2 * 10.0
        return np.array([[np.sin(g)], [np.cos(g)]])

    path = path_from_frames(space, frames, (0.0, 1.0))
    assert maslov_index(path, vertical_lagrangian(1)) == HalfInt(-3)
    with pytest.raises(NonRegularCrossing, match="at t=0 has 1 null directions"):
        find_crossings(path, vertical_lagrangian(1))


def test_frames_turning_too_fast_between_samples_are_rejected():
    """A frame function has no rate bound; its sampled phase rate must
    keep every cell within a quarter turn of arg det Z."""
    path = path_from_frames(SymplecticSpace.standard(1),
                            lambda t: np.array([[np.cos(500.0 * t)], [np.sin(500.0 * t)]]))
    with pytest.raises(GridTooCoarse, match="increase grid"):
        maslov_index(path, vertical_lagrangian(1))
    assert maslov_index(path, vertical_lagrangian(1), grid=1024) == HalfInt(318)


def test_certified_cell_count_is_capped():
    with pytest.raises(GridTooCoarse, match="more than %d" % maslov.MAX_CELLS):
        maslov_index_symplectic(1e7 * standard_J(1))


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


def test_grid_above_the_cell_cap_is_rejected_before_sampling():
    """A grid above MAX_CELLS is an InputError, not an allocation of
    that many samples; the cap itself is accepted."""
    h = 5.0 * standard_J(1)
    frames = path_from_frames(SymplecticSpace.standard(1),
                              lambda t: np.array([[np.cos(t)], [np.sin(t)]]))
    scans = [lambda grid: find_crossings(orbit_path(h), vertical_lagrangian(1), grid=grid),
             lambda grid: maslov_index(frames, vertical_lagrangian(1), grid=grid),
             lambda grid: maslov_index_symplectic(h, grid=grid)]
    for scan in scans:
        for grid in (maslov.MAX_CELLS + 1, 2 ** 40):
            with pytest.raises(InputError, match="grid must be at most %d" % maslov.MAX_CELLS):
                scan(grid)
    assert maslov_index_symplectic(h, grid=maslov.MAX_CELLS) == rotation_orbit_index(5.0)


@pytest.mark.parametrize("h", [5.0 * standard_J(1), np.zeros((2, 2))], ids=["rotation", "zero"])
def test_interval_length_must_be_finite(h):
    """b - a overflowing to inf is an InputError, not an untyped error
    from the cell count."""
    huge = (-1e308, 1e308)
    for route in (maslov_index_symplectic, conley_zehnder):
        with pytest.raises(InputError, match="interval must be finite"):
            route(h, interval=huge)
    with pytest.raises(InputError, match="interval must be finite"):
        path_from_frames(SymplecticSpace.standard(1), lambda t: np.eye(2)[:, :1], huge)


def test_nilpotent_shear_indices():
    """Persistent eigenvalue 1: the orbit scan keeps a constant core and
    both routes give -1/2, and +1/2 for the opposite shear."""
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    for sense, twice in [(1.0, -1), (-1.0, 1)]:
        assert maslov_index_symplectic(sense * shear) == HalfInt(twice)
        assert conley_zehnder(sense * shear) == HalfInt(twice)


def test_derivative_contradicting_the_frames_is_rejected():
    """The supplied derivative points against the frames, so the forms
    at the located crossings have the wrong signs and their half sum
    misses the phase index."""
    def frames(t):
        return np.array([[np.cos(5.0 * t)], [np.sin(5.0 * t)]])

    space = SymplecticSpace.standard(1)
    ref = vertical_lagrangian(1)
    assert find_crossings(path_from_frames(space, frames), ref).index == HalfInt(4)
    path = path_from_frames(space, frames,
                            dframe_fn=lambda t: -5.0 * np.array([[-np.sin(5.0 * t)],
                                                                 [np.cos(5.0 * t)]]))
    with pytest.raises(InternalMismatch, match="crossing forms sum to -2, the phase "
                                               "index is 2"):
        find_crossings(path, ref)


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


def test_non_lagrangian_frames_are_rejected():
    """e1 + t e2 and e3 pair to 1 under omega at every t: Z loses rank
    although the frame does not, and the first sample is named."""
    def frames(t):
        return np.array([[1.0, 0.0], [t, 0.0], [0.0, 1.0], [0.0, 0.0]])

    path = path_from_frames(SymplecticSpace.standard(2), frames)
    for scan in (maslov_index, find_crossings):
        with pytest.raises(NotLagrangian, match="^path frame is not Lagrangian at t=0$"):
            scan(path, vertical_lagrangian(2))


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
    """The batched form evaluator gives, at every grid time, the form of
    one call per time and of the numerics primitives."""
    tol = DEFAULT_TOL
    ts = np.linspace(*path.interval, 257)
    for i, (v, gamma, inertia, _) in enumerate(maslov._forms(path, ref, ts, tol)):
        v_pt, gamma_pt = crossing_form(path, ref, ts[i], tol)
        v_ref, gamma_ref = _reference_form(path, ref, ts[i], tol)
        assert v.shape == v_pt.shape == v_ref.shape
        assert inertia.dim == v.shape[1]
        np.testing.assert_allclose(v, v_pt, rtol=0, atol=1e-14)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-14)
        if v.shape[1]:
            np.testing.assert_allclose(gamma, gamma_pt, rtol=0, atol=1e-14)
            np.testing.assert_allclose(gamma, gamma_ref, rtol=0, atol=1e-14)
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


def _serial_bisection(path, chart, bracket, baseline, tol):
    """Reference: one bracket at a time, one sample per call, halved
    down to the stopping width of the scan."""
    out, todo = [], [bracket]
    while todo:
        lo, hi, lift, total, count = todo.pop(0)
        if hi - lo <= max(maslov.REFINE_XTOL, 4.0 * np.spacing(abs(lo) + abs(hi))):
            out.append((0.5 * (lo + hi), count))
            continue
        mid = 0.5 * (lo + hi)
        (arg,), thetas, _ = maslov._phase_samples(path, chart, np.array([mid]), tol)
        (mid_total,) = maslov._snapped(thetas, tol, baseline)[0]
        mid_lift = lift + (arg - lift + np.pi) % TWO_PI - np.pi
        left = int(round((2.0 * (mid_lift - lift) - mid_total + total) / TWO_PI))
        todo += [(lo, mid, lift, total, left)] if left else []
        todo += [(mid, hi, mid_lift, mid_total, count - left)] if count != left else []
    return out


@pytest.mark.parametrize("path,ref,interval_mode,grid", [
    pytest.param(*case.values, 256, id=case.id) for case in _detection_cases()] + [
    pytest.param(orbit_path(300.0 * standard_J(1)), vertical_lagrangian(1), False, 1024,
                 id="orbit 300J grid=1024")])
def test_round_refinement_equals_serial(path, ref, interval_mode, grid):
    """The batched grid samples equal one sample per time, and brackets
    halved together in rounds land on exactly the times that one
    bracket at a time finds.  End brackets are halved too here (no end
    stops), so every case with a counting cell has a bracket."""
    tol = DEFAULT_TOL
    chart, ts, lifted, thetas = maslov._phase_grid(path, ref, grid, tol, phases=True)
    args, batched, _ = maslov._phase_samples(path, chart, ts, tol)
    np.testing.assert_array_equal(np.unwrap(args), lifted)
    np.testing.assert_array_equal(batched, thetas)
    for i, t in enumerate(ts):
        (arg,), theta, _ = maslov._phase_samples(path, chart, np.array([t]), tol)
        assert arg == args[i]
        np.testing.assert_array_equal(theta[0], thetas[i])
    dims = maslov._snapped(thetas, tol)[1]
    baseline = int(dims.min())
    assert baseline == (1 if interval_mode else 0)
    snap = np.full(len(ts), baseline)
    snap[[0, -1]] = dims[[0, -1]]
    sums = maslov._snapped(thetas, tol, snap)[0]
    counts = np.rint((2.0 * np.diff(lifted) - np.diff(sums)) / TWO_PI).astype(int)
    located = maslov._locate(path, chart, ts, lifted, sums, counts, (False, False),
                             baseline, tol)
    serial = [found for i in np.flatnonzero(counts)
              for found in _serial_bisection(
                  path, chart, (ts[i], ts[i + 1], lifted[i], sums[i], int(counts[i])),
                  baseline, tol)]
    assert sorted(located) == sorted(serial)
    assert len(located) >= np.count_nonzero(counts)


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


@pytest.mark.parametrize("speed,cells", [(5.0, 4), (300.0, 191), (0.0, 1)])
def test_certified_index_takes_the_cells_its_bound_needs(speed, cells):
    """maslov_index evaluates each of the max(1, ceil(2 B (b - a) / pi)) + 1
    samples of a certified path once, and no derivative, whatever grid."""
    path, calls = _counted(orbit_path(speed * standard_J(1)))
    assert cells == max(1, int(np.ceil(2.0 * path._rate_bound / np.pi)))
    for grid in (64, 256, 4096):
        calls.clear()
        assert maslov_index(path, vertical_lagrangian(1), grid) == rotation_orbit_index(speed)
        assert calls == {"frame": cells + 1}


def test_find_crossings_keeps_grid_as_a_floor(monkeypatch):
    """find_crossings samples its 257 grid times before bisecting; the
    index scan of the same path samples its 5 certified times in one
    pass."""
    sampled = []
    samples = maslov._phase_samples

    def recording(path, chart, ts, *args):
        sampled.append(len(ts))
        return samples(path, chart, ts, *args)

    monkeypatch.setattr(maslov, "_phase_samples", recording)
    path, ref = orbit_path(5.0 * standard_J(1)), vertical_lagrangian(1)
    assert find_crossings(path, ref).index == HalfInt(3)
    assert sampled[0] == 257 and len(sampled) > 1
    sampled.clear()
    assert maslov_index(path, ref) == HalfInt(3)
    assert sampled == [5]


@pytest.mark.parametrize("h", [
    5.0 * standard_J(1),
    300.0 * standard_J(1),
    200.0 * np.pi * standard_J(1),
    2.0 * random_hamiltonian(2, 1081, "mixed"),
    3.0 * random_hamiltonian(3, 7, "generic"),
], ids=["5J", "300J", "100-turn loop", "mixed n=2", "generic n=3"])
def test_certified_routes_do_not_depend_on_grid(h):
    values = {(maslov_index_symplectic(h, grid=grid), conley_zehnder(h, grid=grid))
              for grid in (64, 256, 4096)}
    assert len(values) == 1


def _sweep_generators(count=48):
    """Seeded generators: plane blocks, conjugated blocks and random J S,
    n = 1..4, scaled by 0.3..12."""
    rng = np.random.default_rng(2024)
    for k in range(count):
        n = 1 + k % 4
        kind = ("block", "mixed", "generic")[k % 3]
        if kind == "block":
            h = plane_block_generator([("elliptic", rng.uniform(0.4, 3.0)) if rng.uniform() < 0.6
                                       else ("hyperbolic", rng.uniform(0.3, 1.5))
                                       for _ in range(n)])
        else:
            h = random_hamiltonian(n, 5000 + k, kind)
        yield rng.uniform(0.3, 12.0) * h


def test_certified_index_equals_a_fine_crossing_scan():
    """On seeded generators both index routes equal the grid-1024
    crossing scan wherever both return."""
    compared = 0
    for h in _sweep_generators():
        for route, path, ref in [
                (maslov_index_symplectic, orbit_path(h), vertical_lagrangian(len(h) // 2)),
                (conley_zehnder, graph_path(h), diagonal_lagrangian(len(h) // 2))]:
            try:
                expected = find_crossings(path, ref, grid=1024).index
                value = route(h)
            except SymindexError:
                continue
            assert value == expected
            compared += 1
    assert compared >= 80


def test_refinement_far_from_zero_stops_at_float_spacing():
    """Near t = 1e4 the float spacing exceeds REFINE_XTOL; the bisection
    stops at 4 spacings instead of halving a bracket that no longer
    shrinks."""
    ref = vertical_lagrangian(1)
    rounds = []
    for interval, index in [((0.0, 1.0), HalfInt(3)), ((1e4, 1e4 + 1.0), HalfInt(4))]:
        path, calls = _counted(orbit_path(5.0 * standard_J(1), interval=interval))
        scan = find_crossings(path, ref)
        assert scan.index == index
        interior = sum(not c.at_endpoint for c in scan.crossings)
        # frames: 257 grid samples, one per bisection round of each
        # interior crossing, one per crossing form (as many as dframes)
        bisection = calls["frame"] - 257 - calls["dframe"]
        assert bisection % interior == 0
        rounds.append(bisection // interior)
    # log2 of the cell width over the stopping width: 1e-12, then 4 spacings of 2e4
    assert rounds == [32, 28]


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


CONJUGATED_ELLIPTIC = 3.0 * random_hamiltonian(3, 6, "semisimple-elliptic")
CONJUGATED_MIXED = 4.0 * random_hamiltonian(2, 5, "mixed")
HYPERBOLIC_PAIR = plane_block_generator([("hyperbolic", 20.0), ("hyperbolic", -20.0)])


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
    # conjugated generators, whose frames carry a condition bound (both
    # paths of the first, the graph path of the second), and a constant
    # orbit whose raw frame loses rank
    for h in (CONJUGATED_ELLIPTIC, CONJUGATED_MIXED, HYPERBOLIC_PAIR):
        n = h.shape[0] // 2
        cases.append((orbit_path(h), vertical_lagrangian(n), 256))
        cases.append((graph_path(h), diagonal_lagrangian(n), 256))
    return cases


def _index_or_error(path, ref, grid):
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow cases
            return maslov_index(path, ref, grid)
    except SymindexError as exc:
        return type(exc), str(exc)


def test_stacked_scan_equals_per_time_loop():
    """find_crossings and maslov_index on a built-in path give the
    crossings, the index, or the error, that one frame call per sample
    gives; the looped frame function carries no condition bound, so a
    certified path also matches the SVD rank rule."""
    outcomes, indices = [], []
    for path, ref, grid in _parity_cases():
        stacked = _scan_or_error(path, ref, grid)
        assert stacked == _scan_or_error(_looped(path), ref, grid)
        outcomes.append(stacked)
        index = _index_or_error(path, ref, grid)
        assert index == _index_or_error(_looped(path), ref, grid)
        indices.append(index)
    assert outcomes[8] == (InputError, "path frame contains non-finite entries")
    assert outcomes[9] == (NotLagrangian, "path frame lost rank at t=0.0264966")
    assert outcomes[10] == (DimensionMismatch, "path frame has shape (2, 1)")
    assert all(isinstance(scan, maslov.CrossingScan) for scan in outcomes[:8])
    assert all(isinstance(scan, maslov.CrossingScan) for scan in outcomes[11:15])
    assert [scan.index for scan in outcomes[11:15]] == indices[11:15]
    assert outcomes[15] == (NotLagrangian, "path frame lost rank at t=0.519531")
    assert indices[15] == (NotLagrangian, "path frame lost rank at t=0.538462")
    assert outcomes[16].index == indices[16] == ZERO


def _svd_counter(monkeypatch):
    """A list that records the shape of every numpy SVD from here on."""
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("path", [
    orbit_path(CONJUGATED_ELLIPTIC),
    graph_path(CONJUGATED_ELLIPTIC),
    graph_path(CONJUGATED_MIXED),
    unitary_geodesic(horizontal_lagrangian(2), random_lagrangian(2, 3), 2),
], ids=["orbit", "graph", "graph mixed", "geodesic"])
def test_certified_frames_take_the_cholesky_volumes(path, monkeypatch):
    """On a path whose frames carry a condition bound inside the rank
    cut, sum log s comes from a Cholesky factor with no SVD, and equals
    the SVD's of the same frames within 1e-9."""
    ts = np.linspace(*path.interval, 129)
    svds = _svd_counter(monkeypatch)
    frames, log_s = maslov._frames(path, ts, DEFAULT_TOL)
    assert svds == []
    looped_frames, looped_log_s = maslov._frames(_looped(path), ts, DEFAULT_TOL)
    assert svds == [frames.shape]
    assert np.array_equal(frames, looped_frames)
    assert np.max(np.abs(log_s - looped_log_s)) < 1e-9


def test_replaced_frame_function_drops_the_condition_bound(monkeypatch):
    """The bound belongs to the frame function: dataclasses.replace with
    another frame_fn keeps the rate bound but not the condition bound,
    so the new frames go through the SVD rank rule."""
    path = orbit_path(CONJUGATED_ELLIPTIC)
    assert path.frame_fn.growth is not None
    replaced = dataclasses.replace(path, frame_fn=lambda t: path.frame_fn(t))
    assert replaced._rate_bound == path._rate_bound
    assert not hasattr(replaced.frame_fn, "growth")
    svds = _svd_counter(monkeypatch)
    maslov._frames(replaced, np.linspace(0.0, 1.0, 9), DEFAULT_TOL)
    assert svds == [(9, 6, 3)]


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
    scans raise their typed errors and no numpy warning escapes.  The
    graph scan takes the 1019 cells its rate bound 1600 needs."""
    h = np.diag([800.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^path frame contains non-finite entries$"):
            find_crossings(orbit_path(h), vertical_lagrangian(1))
        with pytest.raises(NotLagrangian, match=r"^path frame lost rank at t=0\.0264966$"):
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
