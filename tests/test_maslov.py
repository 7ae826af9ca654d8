"""Crossing forms, crossing scans, and the two path indices."""

import collections
import dataclasses
import importlib.util
import inspect
import json
import tracemalloc
import types
import warnings
from pathlib import Path

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
from symindex import horizontal_lagrangian, maslov, numerics
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
)
from symindex.numerics import (
    DEFAULT_TOL,
    Inertia,
    Tolerances,
    expm,
    kernel_basis,
    orthonormal_columns,
)
from symindex.symplectic import (
    LagrangianFrame,
    diagonal_lagrangian,
    is_hamiltonian,
    product_lagrangian,
    random_lagrangian,
    same_span,
)
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
    (3000.0, 1909, 1910),
    (-8000.0, -5093, -5094),
    (20 * TWO_PI, 80, 80),
    (60 * TWO_PI, 240, 240),
    (100 * TWO_PI, 400, 400),
]


@pytest.mark.parametrize("alpha,orbit2,graph2", ROTATION_TABLE)
def test_rotation_indices_match_closed_forms(alpha, orbit2, graph2):
    """The scans, the crossing lists and the closed forms agree.  A
    located crossing is known to half its closed bracket, up to 5e-13,
    where a plane turning at alpha still has an eigenphase of up to
    2 |alpha| 5e-13, above eps_rank once |alpha| passes about 1e3; each
    crossing still has the dimension of one plane, 1 on the orbit and 2
    on the graph."""
    h = plane_block_generator([("elliptic", alpha)])
    assert maslov_index_symplectic(h) == HalfInt(orbit2)
    assert conley_zehnder(h) == HalfInt(graph2)
    for path, ref, index2, dim in ((orbit_path(h), vertical_lagrangian(1), orbit2, 1),
                                   (graph_path(h), diagonal_lagrangian(1), graph2, 2)):
        scan = find_crossings(path, ref)
        assert scan.index == HalfInt(index2)
        assert {c.dim for c in scan.crossings} == {dim}
    assert rotation_orbit_index(alpha) == HalfInt(orbit2)
    assert rotation_graph_index(alpha) == HalfInt(graph2)


def test_snap_rules():
    """The closed forms snap alpha/pi onto the lattice within SNAP_TOL."""
    pi = np.pi
    assert rotation_orbit_index(0.5 * pi) == HalfInt(1)
    assert rotation_orbit_index(0.63 * pi) == HalfInt(1)
    assert rotation_orbit_index(1.0 * pi) == HalfInt(2)
    assert rotation_orbit_index((1.0 + 1e-12) * pi) == HalfInt(2)
    assert rotation_orbit_index(-0.2 * pi) == HalfInt(-1)
    assert rotation_graph_index(0.63 * pi) == HalfInt.from_int(1)
    assert rotation_graph_index(1.8 * pi) == HalfInt.from_int(1)
    assert rotation_graph_index(2.0 * pi) == HalfInt.from_int(2)
    assert rotation_graph_index(2.546 * pi) == HalfInt.from_int(3)
    assert rotation_graph_index(-0.4 * pi) == HalfInt.from_int(-1)


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf"), 3e15, 1e17])
def test_closed_forms_refuse_speeds_a_double_cannot_place(alpha):
    """Beyond |alpha/pi| = 2^23 the spacing of doubles exceeds SNAP_TOL.
    Without this refusal rotation_graph_index(3e15) read 954929658551372,
    an even graph index for a speed that is no multiple of pi."""
    for route in (rotation_orbit_index, rotation_graph_index):
        with pytest.raises(InputError, match="rotation speed"):
            route(alpha)


@pytest.mark.parametrize("route", [rotation_orbit_index, rotation_graph_index],
                         ids=["orbit", "graph"])
def test_closed_forms_refuse_an_int_beyond_the_doubles(route):
    """float(10**400) raises OverflowError; the closed forms refuse such a
    speed with the InputError of an infinite one."""
    for alpha in (10 ** 400, -10 ** 400):
        with pytest.raises(InputError, match="rotation speed"):
            route(alpha)


@pytest.mark.parametrize("route", [rotation_orbit_index, rotation_graph_index],
                         ids=["orbit", "graph"])
@pytest.mark.parametrize("alpha", [True, False, np.bool_(True), "1.0", None])
def test_closed_forms_refuse_a_speed_that_is_not_a_real_number(route, alpha):
    """A bool is no speed: rotation_orbit_index(True) read 1/2."""
    with pytest.raises(InputError, match="rotation speed must be a real number"):
        route(alpha)


def test_closed_forms_divide_a_float32_speed_in_double_precision():
    """float32(pi) exceeds pi by 8.7e-8; divided in float32 it read
    exactly 1 and snapped onto the multiple of pi the scans do not see."""
    for alpha, route, scan in [(np.float32(np.pi), rotation_orbit_index, maslov_index_symplectic),
                               (np.float32(2 * np.pi), rotation_graph_index, conley_zehnder)]:
        assert route(alpha) == route(float(alpha)) == scan(alpha * standard_J(1))
    assert rotation_orbit_index(np.float32(np.pi)) == HalfInt(3)
    with pytest.raises(InputError, match="real number"):
        rotation_graph_index(2j)


def test_closed_forms_keep_the_largest_certified_speeds():
    h = 2e6 * standard_J(1)
    assert rotation_graph_index(2e6) == conley_zehnder(h) == spectral_conley_zehnder(h)
    with pytest.raises(InputError, match="rotation speed"):
        spectral_conley_zehnder(1e17 * standard_J(1))


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


@pytest.mark.parametrize("route", ["orbit", "graph"])
@pytest.mark.parametrize("delta", [10 ** -9.25, 1e-9, 10 ** -8.75, 10 ** -8.5],
                         ids=["5.6e-10", "1e-9", "1.8e-9", "3.2e-9"])
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("turns", [1, 2], ids=["pi", "2pi"])
def test_crossing_ends_are_the_ends_the_scan_counts(turns, sign, delta, route):
    """Where the path of (k pi +- delta) J_1 returns to the reference at
    time 1 up to an angle delta, its eigenphase 2 delta there exceeds
    eps_rank, so the scan leaves that end out, while an SVD rank rule on
    [Q | -Q_ref] would still find an intersection.
    The ends listed are the ends whose scanned dimension exceeds the
    core, the forms sum to the phase index (they once raised
    InternalMismatch), and ``crossing_form`` at either end has the
    scanned dimension."""
    h = (turns * np.pi + sign * delta) * standard_J(1)
    if route == "orbit":
        path, ref = orbit_path(h), vertical_lagrangian(1)
    else:
        path, ref = graph_path(h), diagonal_lagrangian(1)
    scan = find_crossings(path, ref)
    assert scan.index == maslov_index(path, ref)
    thetas = maslov._phase_grid(path, ref, 256, DEFAULT_TOL, phases=False)[3]
    dims = maslov._snapped(thetas, DEFAULT_TOL)[1]
    assert [c.time for c in scan.crossings if c.at_endpoint] == [
        t for t, dim in zip(path.interval, dims) if dim > scan.baseline_dim]
    assert [crossing_form(path, ref, t)[0].shape[1] for t in path.interval] == list(dims)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_geodesic_log_equals_the_general_matrix_log(n):
    """The geodesic's log of the unitary U0* U1, taken from its
    eigenvectors orthonormalized by QR, gives the frames of the principal
    scipy.linalg.logm within 1e-12 on seeded pairs, and its frame at t=1
    spans end."""
    for seed in range(8):
        start, end = random_lagrangian(n, seed), random_lagrangian(n, 100 + seed)
        u0 = start.frame[:n] + 1j * start.frame[n:]
        u1 = end.frame[:n] + 1j * end.frame[n:]
        a = scipy.linalg.logm(u0.conj().T @ u1)
        a = 0.5 * (a - a.conj().T)
        path = unitary_geodesic(start, end)
        for t in (0.3, 1.0):
            u = u0 @ scipy.linalg.expm(t * a)
            assert np.abs(path.frame_fn(t) - np.vstack([u.real, u.imag])).max() < 1e-12
        assert same_span(path.frame_fn(1.0), end.frame)


def _unitary_frame(u):
    """The frame [Re U; Im U] of a unitary U, taken as it is:
    ``lagrangian_frame`` would orthonormalize it again and move U by a
    real orthogonal factor."""
    return LagrangianFrame(SymplecticSpace.standard(u.shape[0]), np.vstack([u.real, u.imag]))


def _geodesic_edge_cases():
    """(kind, U0, U1, indices against the vertical for k = -1, 0, 1).

    "same": U0* U1 = I up to rounding, one eigenvalue cluster of
    multiplicity n.  "repeated": two planes turned by the same angle.
    "minus one": U0* U1 has the eigenvalue -1, where the sign of a
    rounding-level imaginary part picks the branch of log and so the
    turn count; the indices are those of the complex Schur route the
    geodesic used before, on the same inputs."""
    expected = {
        ("same", 1): (-1, 0, 1), ("minus one", 1): (0, 1, 2),
        ("same", 2): (-2, 0, 2), ("repeated", 2): (-2, 0, 2), ("minus one", 2): (-2, 0, 2),
        ("same", 3): (-3, 0, 3), ("repeated", 3): (-3, 0, 3), ("minus one", 3): (-2, 1, 4),
        ("same", 4): (-4, 0, 4), ("repeated", 4): (-6, -2, 2), ("minus one", 4): (-3, 1, 5),
    }
    cases = []
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(40 + n)
        u0, q = (np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
                 for _ in range(2))
        angles = rng.uniform(-3.0, 3.0, size=n)
        repeated, minus = angles.copy(), angles.copy()
        repeated[:2] = angles[0]
        minus[0] = np.pi
        ends = {"same": u0, "repeated": u0 @ (q * np.exp(1j * repeated)) @ q.conj().T,
                "minus one": u0 @ (q * np.exp(1j * minus)) @ q.conj().T}
        for kind, u1 in ends.items():
            if (kind, n) in expected:
                cases.append(pytest.param(kind, u0, u1, expected[kind, n], id="%s n=%d" % (kind, n)))
    return cases


@pytest.mark.parametrize("kind,u0,u1,indices", _geodesic_edge_cases())
def test_geodesic_edge_cases(kind, u0, u1, indices):
    """Each geodesic runs from start to end, gives the indices of the
    former route, and off the branch cut follows the logm geodesic
    within 1e-12; from start back to start with k = 0 it stands still."""
    n = u0.shape[0]
    w = u0.conj().T @ u1
    if kind == "minus one":
        assert np.min(np.abs(np.linalg.eigvals(w) + 1.0)) < 1e-14
    start, end = _unitary_frame(u0), _unitary_frame(u1)
    for k, index in zip((-1, 0, 1), indices):
        path = unitary_geodesic(start, end, k)
        assert same_span(path.frame_fn(0.0), start.frame)
        assert same_span(path.frame_fn(1.0), end.frame)
        assert maslov_index(path, vertical_lagrangian(n)) == HalfInt.from_int(index)
        if kind != "minus one":
            a = scipy.linalg.logm(w) + 1j * np.pi * k * np.eye(n)
            for t in (0.3, 1.0):
                u = u0 @ scipy.linalg.expm(t * a)
                assert np.abs(path.frame_fn(t) - np.vstack([u.real, u.imag])).max() < 1e-12
    if kind == "same":
        still = unitary_geodesic(start, end)
        for t in (0.25, 0.5, 1.0):
            assert np.abs(still.frame_fn(t) - start.frame).max() < 1e-14


def test_geodesic_through_an_exact_minus_one_takes_the_principal_branch():
    """U0* U1 = diag(-1, i) exactly: log(-1) = i pi, Im in (-pi, pi], so
    with k = 0 the first plane turns by +pi."""
    start = _unitary_frame(np.eye(2, dtype=complex))
    end = _unitary_frame(np.diag([-1.0, 1j]))
    path = unitary_geodesic(start, end)
    np.testing.assert_allclose(path._rate_bound, 1.5 * np.pi, rtol=1e-15)
    u = np.diag(np.exp(0.5j * np.array([np.pi, np.pi / 2])))
    assert np.abs(path.frame_fn(0.5) - np.vstack([u.real, u.imag])).max() < 1e-15


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


@pytest.mark.parametrize("route", [
    lambda path, ref: crossing_form(path, ref, 0.0),
    find_crossings,
], ids=["crossing_form", "find_crossings"])
def test_a_derivative_of_the_wrong_shape_is_refused(route):
    """[t; 1] crosses the vertical at t = 0; a ``dframe_fn`` that returns
    a 3 x 1 array there raises DimensionMismatch in the crossing form."""
    path = path_from_frames(SymplecticSpace.standard(1), lambda t: np.array([[t], [1.0]]),
                            (-0.5, 0.5), lambda t: np.zeros((3, 1)))
    with pytest.raises(DimensionMismatch, match=r"^derivative has shape \(3, 1\)$"):
        route(path, vertical_lagrangian(1))


def test_an_orbit_start_of_another_size_than_the_generator_is_refused():
    with pytest.raises(DimensionMismatch, match="^generator does not match the space$"):
        orbit_path(random_hamiltonian(2, 1000, "semisimple-elliptic"), vertical_lagrangian(1))


def test_cubic_crossing_has_an_index_but_no_regular_form():
    """The phase passes 0 with zero speed: the phase route gives -1, and
    find_crossings rejects the zero form at the located crossing."""
    path = path_from_frames(SymplecticSpace.standard(1),
                            lambda t: np.array([[t ** 3], [1.0]]), (-0.5, 0.5))
    assert maslov_index(path, vertical_lagrangian(1)) == HalfInt(-2)
    with pytest.raises(NonRegularCrossing, match="1 null directions, expected 0"):
        find_crossings(path, vertical_lagrangian(1))


@pytest.mark.parametrize("small,inertia", [(1e-7, None), (1e-5, Inertia(2, 0, 0))])
def test_crossing_form_in_the_gray_band_is_not_classified(small, inertia):
    """[I; t diag(1, small)] crosses the horizontal at t = 0 with form
    diag(1, small).  Within GRAY_FACTOR of 1 + |form| (1e-7) the sign of
    the small eigenvalue is not trusted and find_crossings refuses the
    crossing, though the phase route gives 2; outside it (1e-5) the scan
    lists the one crossing."""
    d = np.diag([1.0, small])
    path = path_from_frames(SymplecticSpace.standard(2), lambda t: np.vstack([np.eye(2), t * d]),
                            (-1.0, 1.0), lambda t: np.vstack([np.zeros((2, 2)), d]))
    ref = horizontal_lagrangian(2)
    assert maslov_index(path, ref) == HalfInt.from_int(2)
    if inertia is None:
        with pytest.raises(NonRegularCrossing, match="too small to classify"):
            find_crossings(path, ref)
        return
    (crossing,) = find_crossings(path, ref).crossings
    assert crossing.time == pytest.approx(0.0, abs=1e-9)
    assert (crossing.dim, crossing.inertia) == (2, inertia)


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


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e308])
def test_a_generator_near_the_largest_doubles_is_too_coarse(scale):
    """A rotation whose speed nears the largest double needs more than
    ``MAX_CELLS`` cells: its flow routes raise GridTooCoarse and no numpy
    warning escapes the build of its record.  At 1e308 the symmetric part
    of its Hamiltonian form overflows, so that record's rate bound is not
    finite."""
    h = scale * standard_J(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bound = maslov._flow_record(h, None, DEFAULT_TOL).bound
        assert np.isfinite(bound) == (scale < 1e308)
        for route in (maslov_index_symplectic, conley_zehnder,
                      lambda h: validate(make_system(h), sigma=-1)):
            with pytest.raises(GridTooCoarse, match="more than %d$" % maslov.MAX_CELLS):
                route(h)


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
    from the cell count; so is an interval that is not a pair of reals
    a < b (one of three values, or "ab", raised a bare ValueError)."""
    huge = (-1e308, 1e308)
    with pytest.raises(InputError, match="interval must be finite"):
        orbit_path(h, interval=huge)
    with pytest.raises(InputError, match="interval must be finite"):
        path_from_frames(SymplecticSpace.standard(1), lambda t: np.eye(2)[:, :1], huge)
    frames = lambda t: np.eye(2)[:, :1]  # noqa: E731
    for bad in [(0, 1, 2), (0.0,), 5.0, "ab", (0.0, "1"), (0.0, 1j), (True, 2.0), (1.0, 1.0),
                (0.0, float("nan")), (-1e308, float("inf"))]:
        with pytest.raises(InputError, match="interval"):
            path_from_frames(SymplecticSpace.standard(1), frames, bad)
        for route in (orbit_path, graph_path):
            with pytest.raises(InputError, match="interval"):
                route(h, interval=bad)


def test_the_flow_routes_take_only_the_generator_grid_and_tol():
    """The two flow routes scan [0, 1] from the vertical against the
    vertical and the diagonal: no start, reference or interval."""
    for route in (maslov_index_symplectic, conley_zehnder):
        assert list(inspect.signature(route).parameters) == ["h", "grid", "tol"]


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


def test_finite_difference_divides_by_the_distance_of_its_sampled_times():
    """Without a derivative function a path differences its frames at t
    +- 1e-6 over the float distance of those two times: at t = 3e9 they
    round 1.9e-6 apart and the rotation's derivative is exact.  At t =
    1e12 both round to t, so no derivative exists and a scan raises
    InputError naming t, where a fixed step of 2e-6 read 0, so the rate
    check never fired and the scan returned 62 for the index 318 that
    the same rotation has on (0, 1)."""
    def rotation(speed):
        return lambda t: np.array([[np.cos(speed * t)], [np.sin(speed * t)]])

    space, ref = SymplecticSpace.standard(1), vertical_lagrangian(1)
    t = 3e9
    derivative = path_from_frames(space, rotation(1.0)).dframe(t)
    assert np.abs(derivative - np.array([[-np.sin(t)], [np.cos(t)]])).max() <= 1e-8
    assert maslov_index(path_from_frames(space, rotation(1000.0)), ref, 4096) == HalfInt(636)
    late = path_from_frames(space, rotation(1000.0), (1e12, 1e12 + 1.0))
    message = "^no finite difference of the path frame at t=1e\\+12: t \\+- 1e-6 round to t$"
    with pytest.raises(InputError, match=message):
        late.dframe(1e12)
    with pytest.raises(InputError, match=message):
        maslov_index(late, ref, 64)


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
    although the frame does not, and the first sample is named.  A
    crossing form reads the scan's checked samples, so it is refused
    too."""
    def frames(t):
        return np.array([[1.0, 0.0], [t, 0.0], [0.0, 1.0], [0.0, 0.0]])

    path = path_from_frames(SymplecticSpace.standard(2), frames)
    for scan in (maslov_index, find_crossings, lambda p, ref: crossing_form(p, ref, 0.0)):
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
    one call per time and of the numerics primitives.  An intersection
    of dimension 2 or more has no unique orthonormal basis, so against
    the primitives the projector V V^T and the form V gamma V^T are
    compared, which do not depend on the basis."""
    tol = DEFAULT_TOL
    ts = np.linspace(*path.interval, 257)
    for i, (v, gamma, inertia, _) in enumerate(maslov._forms(path, ref, ts, tol)):
        v_pt, gamma_pt = crossing_form(path, ref, ts[i], tol)
        v_ref, gamma_ref = _reference_form(path, ref, ts[i], tol)
        assert v.shape == v_pt.shape == v_ref.shape
        assert inertia.dim == v.shape[1]
        np.testing.assert_allclose(v, v_pt, rtol=0, atol=1e-14)
        np.testing.assert_allclose(v @ v.T, v_ref @ v_ref.T, rtol=0, atol=1e-14)
        if v.shape[1]:
            np.testing.assert_allclose(gamma, gamma_pt, rtol=0, atol=1e-14)
            np.testing.assert_allclose(v @ gamma @ v.T, v_ref @ gamma_ref @ v_ref.T,
                                       rtol=0, atol=1e-14)
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
    down to the stopping width of the scan; (time, count, half width)."""
    out, todo = [], [bracket]
    while todo:
        lo, hi, lift, total, count = todo.pop(0)
        if hi - lo <= max(maslov.REFINE_XTOL, 4.0 * np.spacing(abs(lo) + abs(hi))):
            out.append((0.5 * (lo + hi), count, 0.5 * (hi - lo)))
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


@pytest.mark.parametrize("speed,cells", [(5.0, 2), (300.0, 110), (0.0, 1)])
def test_certified_index_takes_the_cells_its_bound_needs(speed, cells):
    """maslov_index evaluates each of the max(1, ceil(B (b - a) / CELL_PHASE))
    + 1 samples of a certified path once, and no derivative, whatever grid.
    The rotation speed*J attains B = |speed| on the orbit and the graph
    path, so both scans take the same cells."""
    for factory, ref, closed_form in [(orbit_path, vertical_lagrangian, rotation_orbit_index),
                                      (graph_path, diagonal_lagrangian, rotation_graph_index)]:
        path, calls = _counted(factory(speed * standard_J(1)))
        assert path._rate_bound == abs(speed)
        assert cells == max(1, int(np.ceil(path._rate_bound / maslov.CELL_PHASE)))
        for grid in (64, 256, 4096):
            calls.clear()
            assert maslov_index(path, ref(1), grid) == closed_form(speed)
            assert calls == {"frame": cells + 1}


def _rate_cases():
    """Seeded generators of the four profiles, n = 1..4, scales 1..3."""
    for k, profile in enumerate(("generic", "semisimple-elliptic", "hyperbolic", "mixed")):
        for n in range(1, 5):
            for scale in (1.0, 2.0, 3.0):
                yield scale * random_hamiltonian(n, 7000 + 10 * k + n, profile)


def test_sampled_phase_rate_stays_within_the_rate_bound():
    """|d arg det Z / dt| sampled on orbit and graph paths, against the
    standard references and random ones, never exceeds B (1 + 1e-9)."""
    ts = np.linspace(0.0, 1.0, 33)
    for k, h in enumerate(_rate_cases()):
        n = len(h) // 2
        other = random_lagrangian(n, k)
        for path, ref in [
                (orbit_path(h), vertical_lagrangian(n)),
                (orbit_path(h), other),
                (graph_path(h), diagonal_lagrangian(n)),
                (graph_path(h), product_lagrangian(other, random_lagrangian(n, k + 1)))]:
            chart = maslov._chart(path.space, ref, DEFAULT_TOL)
            rates = maslov._phase_samples(path, chart, ts, DEFAULT_TOL, False, True)[2]
            assert rates.max() <= path._rate_bound * (1.0 + 1e-9)


def test_rotations_at_whole_cell_budgets_equal_their_closed_forms():
    """A rotation whose bound B = |speed| is a whole number of cell
    budgets CELL_PHASE, or 1e-9 off it either way, fills its last cell
    to within rounding; both routes still give the closed forms (at a
    multiple of 8 cells the end t=1 is a crossing of the orbit)."""
    for cells in list(range(1, 25)) + [110, 291, 292]:
        for rel in (-1e-9, 0.0, 1e-9):
            speed = cells * maslov.CELL_PHASE * (1.0 + rel)
            for alpha in (speed, -speed):
                h = plane_block_generator([("elliptic", alpha)])
                assert maslov_index_symplectic(h) == rotation_orbit_index(alpha), (cells, rel)
                assert conley_zehnder(h) == rotation_graph_index(alpha), (cells, rel)


def test_k_turn_loops_give_2k_on_both_routes():
    """The k-turn loop exp(2 pi k t J), k = 1..200, has index 2k on the
    orbit and on the graph route."""
    for k in range(1, 201):
        h = TWO_PI * k * standard_J(1)
        assert maslov_index_symplectic(h) == HalfInt(4 * k)
        assert conley_zehnder(h) == HalfInt(4 * k)


def _certified_scans():
    """(path, reference) of the orbit and graph paths of ``_rate_cases``
    and of rotations, which turn the phase at their bound, against the
    vertical, the diagonal and seeded random references, on [0, 1] and
    on [-0.5, 1.75]."""
    rotations = [plane_block_generator([("elliptic", speed)]) for speed in (5.0, -37.0, 300.0)]
    rotations.append(plane_block_generator([("elliptic", 3.0), ("elliptic", 40.0)]))
    for k, h in enumerate(list(_rate_cases()) + rotations):
        n = len(h) // 2
        other = random_lagrangian(n, k)
        for interval in ((0.0, 1.0), (-0.5, 1.75)):
            yield orbit_path(h, interval=interval), vertical_lagrangian(n)
            yield orbit_path(h, interval=interval), other
            yield graph_path(h, interval), diagonal_lagrangian(n)
            yield graph_path(h, interval), product_lagrangian(other, random_lagrangian(n, k + 1))


def test_certified_cells_move_the_phase_by_at_most_the_cell_budget():
    """On every certified scan of ``_certified_scans`` each cell moves the
    lifted arg det Z by at most CELL_PHASE (1 + 1e-9), and the lift is
    the one of a scan with 8 times the samples at the shared times, so
    no cell hides a turn."""
    for path, ref in _certified_scans():
        chart, ts, lifted, _ = maslov._phase_grid(path, ref, 256, DEFAULT_TOL, phases=False)
        assert np.abs(np.diff(lifted)).max() <= maslov.CELL_PHASE * (1.0 + 1e-9)
        fine = np.linspace(ts[0], ts[-1], 8 * (len(ts) - 1) + 1)
        args = maslov._phase_samples(path, chart, fine, DEFAULT_TOL, False)[0]
        fine_lift = np.unwrap(args)[::8]
        np.testing.assert_allclose(fine_lift - fine_lift[0], lifted - lifted[0], rtol=0.0,
                                   atol=1e-9)


def test_certified_scans_take_no_more_cells_than_the_quarter_turn_rule():
    """A certified index scan takes max(1, ceil(B (b - a) / CELL_PHASE))
    cells, never more than the max(1, ceil(2 B (b - a) / pi)) of cells
    of at most pi/2."""
    for path, ref in _certified_scans():
        a, b = path.interval
        ts = maslov._phase_grid(path, ref, 256, DEFAULT_TOL, phases=False)[1]
        budget = max(1, int(np.ceil(path._rate_bound * (b - a) / maslov.CELL_PHASE)))
        assert len(ts) - 1 == budget
        assert budget <= max(1, int(np.ceil(2.0 * path._rate_bound * (b - a) / np.pi)))


def test_rate_bound_never_exceeds_the_ky_fan_sums():
    """B, shared by both paths, is at most the sum of the n largest
    singular values of h (the former orbit bound), and so at most the
    sum of all of them (the former graph bound)."""
    for h in _rate_cases():
        bound = orbit_path(h)._rate_bound
        assert graph_path(h)._rate_bound == bound
        svals = np.linalg.svd(h, compute_uv=False)
        assert bound <= svals[:len(h) // 2].sum() * (1.0 + 1e-12)


def test_find_crossings_keeps_grid_as_a_floor(monkeypatch):
    """find_crossings samples its 257 grid times before bisecting; the
    index scan of the same path samples its 3 certified times in one
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
    assert sampled == [3]


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
        pytest.param(orbit_path(shear), lambda exp, t: exp(t * shear) @ vertical,
                     id="orbit expm fallback"),
        pytest.param(graph_path(shear),
                     lambda exp, t: np.vstack([np.eye(2), exp(t * shear)]),
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
    if expm_frame is not None:  # the fallback is the library's expm, one time at a time
        stack = path.frame_fn.stack(ts)
        assert np.array_equal(stack, np.stack([expm_frame(expm, t) for t in ts]))
        for frame, t in zip(stack, ts):  # and scipy's within rounding
            reference = expm_frame(scipy.linalg.expm, t)
            assert np.linalg.norm(frame - reference) <= 1e-12 * np.linalg.norm(reference)


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
    # conjugated generators, the first certified (its paths skip the
    # per-sample checks) and the second not, and a constant orbit whose
    # raw frame loses rank
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
    gives; the looped frame function is not certified, so a certified
    path also matches the per-sample checks."""
    outcomes, indices = [], []
    for path, ref, grid in _parity_cases():
        stacked = _scan_or_error(path, ref, grid)
        assert stacked == _scan_or_error(_looped(path), ref, grid)
        outcomes.append(stacked)
        index = _index_or_error(path, ref, grid)
        assert index == _index_or_error(_looped(path), ref, grid)
        indices.append(index)
    assert outcomes[8] == (InputError, "path frame contains non-finite entries")
    assert outcomes[9] == (NotLagrangian, "path frame lost rank at t=0.0273973")
    assert outcomes[10] == (DimensionMismatch, "path frame has shape (2, 1)")
    assert all(isinstance(scan, maslov.CrossingScan) for scan in outcomes[:8])
    assert all(isinstance(scan, maslov.CrossingScan) for scan in outcomes[11:15])
    assert [scan.index for scan in outcomes[11:15]] == indices[11:15]
    assert outcomes[15] == (NotLagrangian, "path frame lost rank at t=0.519531")
    assert indices[15] == (NotLagrangian, "path frame lost rank at t=0.533333")
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


@pytest.mark.parametrize("path,certified", [
    (orbit_path(CONJUGATED_ELLIPTIC), True),
    (graph_path(CONJUGATED_ELLIPTIC), True),
    (graph_path(CONJUGATED_MIXED), False),
    (unitary_geodesic(horizontal_lagrangian(2), random_lagrangian(2, 3), 2), False),
], ids=["orbit", "graph", "graph mixed", "geodesic"])
def test_certified_frames_take_no_volumes(path, certified, monkeypatch):
    """The flow paths of a certified record have a ``certified`` frame
    function, whose frames on [0, 1] take no ``_volumes`` and so no SVD;
    the same frames of the path with its frame function replaced take
    one stacked SVD.  The graph path of the mixed generator, whose record
    is not certified, and the geodesic take that SVD rule as well, with
    the sums of the replaced path bit for bit."""
    assert path.frame_fn.certified is certified
    ts = np.linspace(*path.interval, 129)
    svds = _svd_counter(monkeypatch)
    frames, log_s = maslov._frames(path, ts, DEFAULT_TOL)
    assert svds == ([] if certified else [frames.shape])
    svds.clear()
    looped_frames, looped_log_s = maslov._frames(_looped(path), ts, DEFAULT_TOL)
    assert svds == [frames.shape]
    assert np.array_equal(frames, looped_frames)
    assert log_s is None if certified else _bits(log_s) == _bits(looped_log_s)


def test_replaced_frame_function_drops_the_certificate(monkeypatch):
    """The flag belongs to the frame function: dataclasses.replace with
    another frame_fn keeps the rate bound but not ``certified``, so the
    new frames go through the SVD rank rule."""
    path = orbit_path(CONJUGATED_ELLIPTIC)
    assert path.frame_fn.certified
    replaced = dataclasses.replace(path, frame_fn=lambda t: path.frame_fn(t))
    assert replaced._rate_bound == path._rate_bound
    assert not hasattr(replaced.frame_fn, "certified")
    svds = _svd_counter(monkeypatch)
    maslov._frames(replaced, np.linspace(0.0, 1.0, 9), DEFAULT_TOL)
    assert svds == [(9, 6, 3)]


@pytest.mark.parametrize("route", [
    lambda path, ref: maslov_index(path, ref),
    lambda path, ref: find_crossings(path, ref).index,
    lambda path, ref: crossing_form(path, ref, 0.5)[1].shape,
], ids=["maslov_index", "find_crossings", "crossing_form"])
def test_a_raw_reference_is_checked_as_a_lagrangian_frame(route):
    """A raw ``LagrangianFrame`` that breaks its invariant raises the
    NotLagrangian of ``lagrangian_frame`` on every scan route, before any
    sample (a certified path checks none): a frame of shape (4, 3), and
    the span of e1 and e3, which is not isotropic.  A raw frame with the
    span of the horizontal but columns of length 2 still answers as the
    horizontal."""
    path = orbit_path(random_hamiltonian(2, 1000, "semisimple-elliptic"))
    assert path.frame_fn.certified
    space = path.space
    with pytest.raises(NotLagrangian, match=r"^frame must be 4 x 2, got \(4, 3\)$"):
        route(path, LagrangianFrame(space, np.eye(4)[:, :3]))
    with pytest.raises(NotLagrangian, match="^isotropy defect .* too large$"):
        route(path, LagrangianFrame(space, np.eye(4)[:, [0, 2]]))
    scaled = LagrangianFrame(space, 2.0 * np.eye(4)[:, :2])
    assert route(path, scaled) == route(path, horizontal_lagrangian(2))


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
    graph scan takes the 292 cells its rate bound 800 needs, and its
    first rank loss is at the 8th sample, t = 8/292."""
    h = np.diag([800.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="^path frame contains non-finite entries$"):
            find_crossings(orbit_path(h), vertical_lagrangian(1))
        with pytest.raises(NotLagrangian, match=r"^path frame lost rank at t=0\.0273973$"):
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


@pytest.mark.parametrize("start,end,error,message", [
    (diagonal_lagrangian(1), product_lagrangian(vertical_lagrangian(1), vertical_lagrangian(1)),
     InputError, "unitary parametrization needs the standard space"),
    (vertical_lagrangian(1), diagonal_lagrangian(1), DimensionMismatch, None),
], ids=["graph-product-frames", "frames-of-two-spaces"])
def test_unitary_geodesic_needs_standard_frames_of_one_space(start, end, error, message):
    with pytest.raises(error, match=None if message is None else "^%s$" % message):
        unitary_geodesic(start, end)


def _bits(a):
    """The bytes of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).tobytes()


# a budget of three samples: the largest per-sample stack is the 2 x 2
# complex flow (64 bytes) of the orbit at n = 1 and the 8 x 8 real
# intersection matrix (512 bytes) of the graph at n = 2
@pytest.mark.parametrize("h,route,budget", [
    (60.0 * standard_J(1), "orbit", 3 * 64),
    (random_hamiltonian(2, 3, "semisimple-elliptic"), "graph", 3 * 8 * 8 * 8),
    (4.0 * random_hamiltonian(16, 1016, "semisimple-elliptic"), "graph", None),
], ids=["orbit 60J, 3 samples a batch", "graph n=2, 3 samples a batch",
        "graph n=16, default batches"])
def test_index_scan_takes_its_end_phases_in_one_call(h, route, budget, monkeypatch):
    """An index scan of ``_flow_scans`` of the certified record of h over
    several batches, those of the generic scan of its path, stacks the
    flow once, at the two ends, and takes the eigenphases of the ends it
    computes in one ``_eigenphases`` call, here the last end only, as
    the record certifies the first; its lift and end phases equal those
    of the same scan in one batch bit for bit."""
    path = _own_scan(h, route)[0]
    assert maslov._flow_record(h, None, DEFAULT_TOL).factors is not None
    monkeypatch.setattr(maslov, "_BATCH_BYTES", 1 << 40)
    whole = _flow_scan_parts(h, route)
    ts, ((whole_lift, whole_ends),) = whole.ts, whole.scans
    assert len(maslov._batches(path, len(ts))) == len(whole.records) == 1
    monkeypatch.undo()
    if budget is not None:
        monkeypatch.setattr(maslov, "_BATCH_BYTES", budget)
    batches = len(maslov._batches(path, len(ts)))
    assert batches > 1
    calls = []
    eigenphases = maslov._eigenphases

    def counting(z, tol):
        calls.append(len(z))
        return eigenphases(z, tol)

    monkeypatch.setattr(maslov, "_eigenphases", counting)
    batched = _flow_scan_parts(h, route)
    (lifted, ends), = batched.scans
    assert len(batched.records) == 1
    assert calls == [1]
    assert _bits(batched.ts) == _bits(ts)
    assert _bits(lifted) == _bits(whole_lift)
    assert ends.shape == (2, path.space.half_dim)
    assert _bits(ends) == _bits(whole_ends)


def test_lift_equals_unwrap_bit_for_bit():
    """``_lift`` is ``np.unwrap`` bit for bit: on the sampled arg det Z
    of every certified scan, whose cells cross the cut at pi, and on
    sequences with steps of pi and more, exact multiples of pi and
    signed zeros."""
    tol, crossed = DEFAULT_TOL, 0
    for path, ref in _certified_scans():
        chart, ts, lifted, _ = maslov._phase_grid(path, ref, 256, tol, phases=False)
        args = maslov._phase_samples(path, chart, ts, tol, False)[0]
        crossed += bool(np.any(np.abs(np.diff(args)) >= np.pi))
        assert _bits(lifted) == _bits(np.unwrap(args)) == _bits(maslov._lift(args))
    assert crossed > 0
    pi = np.pi
    for args in ([-0.0, -0.0, 0.0, -0.0],
                 [0.0, pi, -pi, pi, -0.0, -pi, 0.5, -3.0, 3.0, -0.0],
                 [3.0, -3.0, 2.9, -2.9, np.nextafter(pi, 0.0), -pi, 1e-300, -1e-300],
                 [0.1, 0.1 + pi, 0.1, 0.1 - pi, 0.1 + 2.0 * pi],
                 [2.5],
                 list(np.random.default_rng(26).uniform(-pi, pi, 200))):
        args = np.array(args)
        assert _bits(maslov._lift(args)) == _bits(np.unwrap(args))


def test_grid_times_equal_linspace_bit_for_bit():
    """The scan grid is ``np.linspace(a, b, cells + 1)`` bit for bit, also
    where the step (b - a) / cells underflows to 0."""
    rng = np.random.default_rng(26)
    intervals = [(0.0, 1.0), (-0.5, 1.75), (-2.0, -1.0), (1.0, np.nextafter(1.0, 2.0)),
                 (0.0, 5e-324), (0.0, 1e-320), (-1e300, 1e300)]
    intervals += [tuple(sorted(rng.uniform(-10.0, 10.0, 2))) for _ in range(50)]
    intervals += [tuple(sorted(rng.standard_normal(2) * 10.0 ** rng.integers(-300, 300)))
                  for _ in range(50)]
    for a, b in intervals:
        for cells in (1, 2, 3, 64, 257, 4096):
            assert _bits(maslov._grid_times(a, b, cells)) == _bits(np.linspace(a, b, cells + 1))


def test_snapped_sums_without_a_core_zero_the_phases_in_the_band():
    """Without a core, ``_snapped`` sets the phases within the band to 0,
    bit for bit what it does with the dims as the core, also on rows
    with ties and with phases exactly at the edge of the band."""
    tol = DEFAULT_TOL
    eps = tol.eps_rank
    edge = TWO_PI - eps  # near this phase is 2 pi - edge, within rounding of eps
    rows = np.array([
        [0.0, 0.0, 1.0, 1.0],
        [eps, eps, eps, 3.0],
        [eps, edge, 0.5, 0.5],
        [np.nextafter(eps, 1.0), eps, 0.0, TWO_PI],
        [2.0 * eps, 2.0 * eps, 1e-20, 6.0],
        [3.0, 3.0, 3.0, 3.0],
        [edge, edge, TWO_PI, 1e-30],
    ])
    for slack in (0.0, np.array([[0.0], [0.0], [0.0], [0.0], [eps], [0.0], [0.0]])):
        sums, dims = maslov._snapped(rows, tol, slack=slack)
        cored, cored_dims = maslov._snapped(rows, tol, dims, slack)
        assert _bits(sums) == _bits(cored)
        np.testing.assert_array_equal(dims, cored_dims)
        near = np.minimum(rows, TWO_PI - rows)
        inside = near <= eps + slack
        np.testing.assert_array_equal(dims, inside.sum(axis=1))
        assert _bits(sums) == _bits(np.where(inside, 0.0, rows).sum(axis=1))
    at_edge = int(TWO_PI - edge <= eps)
    assert list(maslov._snapped(rows, tol)[1]) == [2, 3, 1 + at_edge, 3, 1, 0, 2 + 2 * at_edge]


# -- the flow record of the last generator ------------------------------------

def test_both_routes_of_one_generator_share_its_flow_record(monkeypatch):
    h = random_hamiltonian(2, 4, "semisimple-elliptic")
    calls = collections.Counter()
    eig, check = np.linalg.eig, maslov._hamiltonian_for

    def counted_eig(a, *args, **kwargs):
        calls["eig(h)"] += np.shape(a) == h.shape and np.array_equal(a, h)
        return eig(a, *args, **kwargs)

    def counted_check(*args, **kwargs):
        calls["_hamiltonian_for"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    monkeypatch.setattr(maslov, "_hamiltonian_for", counted_check)
    maslov_index_symplectic(h)
    conley_zehnder(h)
    assert calls == {"eig(h)": 1, "_hamiltonian_for": 1}
    assert maslov._record_of.cache_info().misses == 1


def test_the_record_snaps_exponents_within_rounding_of_i_pi_k():
    """The record of a conjugated loop S (2 pi J_1) S^-1 snaps both
    exponents onto +-2 pi i exactly and keeps (index, k, distance,
    bound) of each, its distance within its bound; ``vals`` stays the
    output of ``eig``.  Two conjugated loops side by side snap all four
    eigenvalues, as Hamiltonian pairs.  A rotation at 2 pi + 1e-12, 72
    bounds from 2 pi, snaps nothing and exponentiates ``vals`` itself, as
    does one at 1e14, whose bound (0.222) exceeds its distance to i pi k
    (0.219) but whose k lies beyond the 2^23 that doubles resolve."""
    tol = DEFAULT_TOL

    def loop(a, c):
        s = np.array([[a, 0.0], [c, 1.0 / a]])
        return s @ (TWO_PI * standard_J(1)) @ np.linalg.inv(s)

    h = loop(3.0, -7.0)
    record = maslov._flow_record(h, None, tol)
    assert record.vals.tobytes() == np.linalg.eig(h)[0].tobytes()
    assert sorted(k for _, k, _, _ in record.snaps) == [-2, 2]
    for i, k, distance, bound in record.snaps:
        assert distance == abs(record.vals[i] - 1j * np.pi * k) <= bound
        assert record.exponent[i] == 1j * (np.pi * k)
    pair = maslov._flow_record(standard_direct_sum([h, loop(0.5, 2.0)]), None, tol)
    assert sorted(k for _, k, _, _ in pair.snaps) == [-2, -2, 2, 2]
    for speed in (TWO_PI + 1e-12, 1e14):
        near = maslov._flow_record(speed * standard_J(1), None, tol)
        assert near.snaps == () and near.exponent is near.vals


def test_a_flow_record_miss_converts_the_generator_once(monkeypatch):
    """A miss converts and checks the matrix once, in ``_flow_record``
    before the key; ``_record_of`` runs the rest of the generator check
    on the float64 copy of the key.  The record keeps the spectral norm
    that check measured, and the caller's tol still decides the check."""
    calls = collections.Counter()
    convert = numerics.as_matrix

    def counted(*args, **kwargs):
        calls["as_matrix"] += 1
        return convert(*args, **kwargs)

    monkeypatch.setattr(numerics, "as_matrix", counted)
    h = random_hamiltonian(2, 4, "semisimple-elliptic")
    record = maslov._flow_record(h.tolist(), None, DEFAULT_TOL)
    assert calls == {"as_matrix": 1} and maslov._record_of.cache_info().misses == 1
    assert record.norm == np.linalg.norm(h, 2)
    bent = h + 1e-7 * np.eye(4)
    with pytest.raises(NotHamiltonian):
        maslov._flow_record(bent, None, DEFAULT_TOL)
    assert maslov._flow_record(bent, None, Tolerances(eps_sym=1e-5)).h.tobytes() == bent.tobytes()


def test_a_generator_changed_in_place_gets_a_fresh_record():
    h = 3.0 * standard_J(1)
    assert maslov_index_symplectic(h) == rotation_orbit_index(3.0)
    assert conley_zehnder(h) == rotation_graph_index(3.0)
    h *= 2.0
    assert maslov_index_symplectic(h) == rotation_orbit_index(6.0)
    assert conley_zehnder(h) == rotation_graph_index(6.0)
    assert maslov._flow_record(h, None, DEFAULT_TOL).h[1, 0] == 6.0


def test_a_raising_generator_is_not_kept_and_keeps_the_kept_record():
    h = 3.0 * standard_J(1)
    record = maslov._flow_record(h, None, DEFAULT_TOL)
    for _ in range(2):
        with pytest.raises(NotHamiltonian):
            maslov_index_symplectic(np.eye(2))
    with pytest.raises(OddDimension):
        maslov._flow_record(np.eye(3), None, DEFAULT_TOL)
    with pytest.raises(InputError, match="tol must be a Tolerances"):
        maslov._flow_record(h, None, [1e-9])  # unhashable: checked before the key
    assert maslov._record_of.cache_info().currsize == 1
    assert maslov._flow_record(h, None, DEFAULT_TOL) is record


def test_another_tol_or_space_builds_its_own_record():
    """Each call differs from the one before in one part of the key; a
    space of the standard form, shared or built anew, is keyed as the
    standard space."""
    h = 3.0 * standard_J(1)
    space = SymplecticSpace(2.0 * standard_J(1))
    record = maslov._flow_record(h, None, DEFAULT_TOL)
    spaced = maslov._flow_record(h, space, DEFAULT_TOL)
    loose = maslov._flow_record(h, space, Tolerances(eps_sym=1e-5))
    assert len({id(record), id(spaced), id(loose)}) == 3
    info = maslov._record_of.cache_info()
    assert (info.misses, info.hits) == (3, 0)
    np.testing.assert_array_equal(spaced.h, record.h)
    for standard in (SymplecticSpace.standard(1), SymplecticSpace(standard_J(1))):
        assert maslov._flow_record(h, standard, DEFAULT_TOL) is record


def test_a_flow_record_refuses_writes():
    h = random_hamiltonian(2, 4, "semisimple-elliptic")
    record = maslov._flow_record(h, None, DEFAULT_TOL)
    assert record.eigen is not None
    for a in (record.h, record.vals) + record.eigen:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    defective = maslov._flow_record(np.array([[0.0, 1.0], [0.0, 0.0]]), None, DEFAULT_TOL)
    assert defective.eigen is None and defective.vals is not None
    for a in (defective.h, defective.vals):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_the_origin_defect_is_that_of_the_stacked_flow_at_0():
    """delta0 is |F0 - I|_F of the flow at 0 as ``stack`` forms it, bit
    for bit, alone or first in a batch; on the ``expm`` branch that flow
    is I exactly and delta0 is 0."""
    ts = np.linspace(0.0, 1.0, 5)
    for _, h, expm_branch in _block_cases():
        record = maslov._flow_record(h, None, DEFAULT_TOL)
        assert (record.eigen is None) == expm_branch
        f0 = record.stack(np.zeros(1))[0]
        assert _bits(record.stack(ts)[0]) == _bits(f0)
        assert record.origin_defect == np.linalg.norm(f0 - np.eye(len(h)))
        assert 4.0 * record.origin_defect <= DEFAULT_TOL.eps_rank
        if expm_branch:
            assert record.origin_defect == 0.0 and _bits(f0) == _bits(np.eye(len(h)))


def test_one_generator_in_any_array_form_shares_one_record():
    """A list, an int array, an F-ordered array and a complex array with
    zero imaginary part hold the same checked float64 matrix, so they
    share its record and its answers, those of a cold scan."""
    for h, forms in [
            (3.0 * standard_J(1), [[[0, -3], [3, 0]], np.array([[0, -3], [3, 0]])]),
            (random_hamiltonian(2, 4, "mixed"), [])]:
        forms += [h.tolist(), np.asfortranarray(h), h + 0j]
        maslov._record_of.cache_clear()
        want = (maslov_index_symplectic(h), conley_zehnder(h))
        record = maslov._flow_record(h, None, DEFAULT_TOL)
        for form in forms:
            assert maslov._flow_record(form, None, DEFAULT_TOL) is record
            assert (maslov_index_symplectic(form), conley_zehnder(form)) == want
        assert maslov._record_of.cache_info().misses == 1


def _load_sweep():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("parity_sweep",
                                                  root / "tools" / "parity_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_every_route_answers_alike_with_a_cold_and_a_warm_record():
    """On the first input of each parity-sweep ensemble every route gives
    the same answer, bit for bit, with the record cache cleared before
    the call as after the routes have run on that input."""
    sweep = _load_sweep()
    firsts = {}
    for name, h in sweep.ensemble():
        firsts.setdefault(name.split()[0], (name, h))
    assert set(firsts) == {"random", "growth", "rotation", "loop", "fast", "slow", "shear",
                           "jordan", "near"}
    for name, h in firsts.values():
        skipped = sweep.SKIPPED.get(name.split()[0], set())
        routes = {route: run for route, run in sweep.ROUTES.items() if route not in skipped}
        cold = {}
        for route, run in routes.items():
            maslov._record_of.cache_clear()
            cold[route] = json.dumps(sweep._answer(run, h), sort_keys=True)
        warm = {}
        for route, run in routes.items():
            sweep._answer(sweep.ROUTES["maslov_index_symplectic"], h)
            warm[route] = json.dumps(sweep._answer(run, h), sort_keys=True)
        assert warm == cold, name


# -- flow scans of the two flow routes --------------------------------------------

def _own_scan(h, route):
    """(path, reference) of the orbit path of h from the vertical or its
    graph path, and the vertical or the diagonal the public routes scan
    them against."""
    n = np.shape(h)[0] // 2
    if route == "orbit":
        return orbit_path(h), vertical_lagrangian(n, DEFAULT_TOL)
    return graph_path(h), diagonal_lagrangian(n, DEFAULT_TOL)


def _block_cases():
    """(id, generator, whether its record takes the expm branch): the
    eigen branch at n = 1, 2, 4, 8 and 16, and a rotation, whose flow
    stack is the real view of a complex one (n = 1 above is hyperbolic,
    with a real stack), the expm branch (a shear, and a Jordan block
    beside a rotation) and a fast generator whose scan takes 21 cells."""
    for n in (1, 2, 4, 8, 16):
        yield "eigen n=%d" % n, 2.0 * random_hamiltonian(n, 3100 + n, "mixed"), False
    yield "rotation n=1", 5.0 * standard_J(1), False
    yield "shear", np.array([[0.0, 1.0], [0.0, 0.0]]), True
    jordan = np.zeros((4, 4))
    jordan[0, 1], jordan[3, 2] = 1.0, -1.0
    yield "jordan", standard_direct_sum([jordan, 3.0 * standard_J(1)]), True
    yield "21 cells", 6.75 * random_hamiltonian(2, 3107, "semisimple-elliptic"), False


def _flow_scan_parts(h, route, ts=None, tol=DEFAULT_TOL):
    """The run of the ``_flow_scans`` of one route of h on [0, 1] on the
    record of h, at the times ``ts`` where given, else at its own:
    ``record`` the record it scans, ``ts`` its times, ``records`` the
    records whose stack it reads, one for the two ends on the factored
    source and on the generic scan of an uncertified record also one per
    batch, ``samples`` the (arg det Z, log |det Z|, sum log s) of its
    samples (arg det Z alone on the factored source, which runs no
    ``_check_flat``), ``flat`` the (log |det Z|, sum log s) of each
    ``_check_flat``, ``scans`` the (lift, end phases) it passes
    ``_phase_index``, and ``indices`` and ``flow`` what it returns;
    recorded by wrapping those functions."""
    run = types.SimpleNamespace(records=[], flat=[], lifts=[], scans=[])
    scan_times, phase_index = maslov._scan_times, maslov._phase_index
    check_flat, lift, stack = maslov._check_flat, maslov._lift, maslov._FlowRecord.stack

    def times(*args):
        run.ts = scan_times(*args) if ts is None else ts
        return run.ts

    def stacking(record, times):
        run.records.append(record)
        return stack(record, times)

    def flat(times, logdet, log_s, tol):
        run.flat.append((logdet, log_s))
        return check_flat(times, logdet, log_s, tol)

    def lifting(args):
        run.lifts.append(args)
        return lift(args)

    def index(lifted, ends, tol):
        run.scans.append((lifted, ends))
        return phase_index(lifted, ends, tol)

    run.record = maslov._flow_record(h, None, tol)
    with pytest.MonkeyPatch.context() as patch:
        for name, fn in (("_scan_times", times), ("_check_flat", flat), ("_lift", lifting),
                         ("_phase_index", index)):
            patch.setattr(maslov, name, fn)
        patch.setattr(maslov._FlowRecord, "stack", stacking)
        run.indices, run.flow = maslov._flow_scans(run.record, (route,), tol)
    run.samples = (run.lifts[0],) + tuple(np.concatenate(x) for x in zip(*run.flat))
    return run


@pytest.mark.parametrize("route", ["orbit", "graph"])
@pytest.mark.parametrize("h,expm_branch", [case[1:] for case in _block_cases()],
                         ids=[case[0] for case in _block_cases()])
def test_block_samples_equal_the_chart_samples(h, expm_branch, route):
    """The block Z of ``_block_z`` from the stack of the record of h, the
    end samples of the certified scans, give the arg det Z of the generic
    chart of the route's path and reference up to one constant per scan,
    and its log |det Z| within 1e-12 relative; on the orbit both are the
    chart's bit for bit.  This holds on every record: ``expm``,
    uncertified and certified alike."""
    tol = DEFAULT_TOL
    path, ref = _own_scan(h, route)
    record = maslov._flow_record(h, None, tol)
    assert (record.eigen is None) == expm_branch
    ts, n = np.linspace(0.0, 1.0, 41), len(h) // 2
    z = np.empty((len(ts), n, n), dtype=complex)
    maslov._block_z(record.stack(ts), route, z)
    sign, logdet = np.linalg.slogdet(z)
    chart_z, chart_sign = maslov._chart_samples(path, maslov._chart(path.space, ref, tol), ts,
                                                tol)[1:]
    chart_logdet = np.linalg.slogdet(chart_z)[1]
    constant = chart_sign / sign
    assert np.abs(constant - constant[0]).max() <= 1e-12
    assert np.abs(logdet - chart_logdet).max() <= 1e-12 * (1.0 + np.abs(chart_logdet).max())
    if route == "orbit":
        assert _bits(np.angle(sign)) == _bits(np.angle(chart_sign))
        assert _bits(logdet) == _bits(chart_logdet)


def _certified_cases():
    """The cases of ``_block_cases`` whose record is certified."""
    return [case for case in _block_cases()
            if maslov._flow_record(case[1], None, DEFAULT_TOL).factors is not None]


def _uncertified_cases():
    """The cases of ``_block_cases`` whose record is not certified."""
    return [case for case in _block_cases()
            if maslov._flow_record(case[1], None, DEFAULT_TOL).factors is None]


@pytest.mark.parametrize("route", ["orbit", "graph"])
@pytest.mark.parametrize("h", [case[1] for case in _uncertified_cases()],
                         ids=[case[0] for case in _uncertified_cases()])
def test_an_uncertified_record_takes_the_generic_scan_of_its_path(h, route):
    """On a record without factors ``_flow_scans`` is the generic scan of
    the route's path against its reference (``maslov_index`` at
    ``MIN_GRID``): the same lift and end phases bit for bit, with the
    Lagrangian check of every sample, and the same index; its paths read
    the stack of the kept record, and psi(1) is that record's flow at 1
    bit for bit."""
    tol = DEFAULT_TOL
    path, ref = _own_scan(h, route)
    run = _flow_scan_parts(h, route)
    assert run.record.factors is None and run.flat
    assert run.records and all(r is run.record for r in run.records)
    _, ts, lifted, ends = maslov._phase_grid(path, ref, maslov.MIN_GRID, tol, phases=False)
    ((run_lifted, run_ends),) = run.scans
    assert _bits(run.ts) == _bits(ts)
    assert _bits(run_lifted) == _bits(lifted) and _bits(run_ends) == _bits(ends)
    assert run.indices == [maslov_index(path, ref, maslov.MIN_GRID, tol)]
    assert _bits(run.flow) == _bits(run.record.stack(np.ones(1))[0])


@pytest.mark.parametrize("route", ["orbit", "graph"])
@pytest.mark.parametrize("h", [case[1] for case in _certified_cases()],
                         ids=[case[0] for case in _certified_cases()])
def test_factored_samples_equal_the_chart_samples(h, route, monkeypatch):
    """On a certified record ``_flow_scans`` reads every sample from the
    eigen factors: it stacks the flow once, at the two ends, runs no
    ``_check_flat``, and its arg det Z is the generic chart's
    (``_phase_samples`` of the route's path) up to one constant per scan
    within 1e-12.  The orbit's end arguments are the chart's bit for bit,
    the graph's are within 1e-12 up to one constant; its last end phases
    are the chart's bit for bit and its first end's read alike by
    ``_snapped`` (the record certifies them, so they are 0), and its
    index and psi(1) are the chart scan's and the record's flow at 1 bit
    for bit."""
    tol = DEFAULT_TOL
    monkeypatch.setattr(maslov, "_BATCH_BYTES", 1 << 40)
    path, ref = _own_scan(h, route)
    record = maslov._flow_record(h, None, tol)
    ts = np.linspace(0.0, 1.0, 41)
    run = _flow_scan_parts(h, route, ts)
    assert run.records == [record] and run.flat == []
    args, ends, _ = maslov._phase_samples(path, maslov._chart(path.space, ref, tol), ts, tol,
                                          False)
    (arg,), ((lifted, run_ends),) = run.samples, run.scans
    constant = np.exp(1j * (args - arg))
    assert np.abs(constant - constant[0]).max() <= 1e-12
    if route == "orbit":
        assert _bits(arg[[0, -1]]) == _bits(args[[0, -1]])
    assert abs(constant[-1] - constant[0]) <= 1e-12
    assert _bits(run_ends[1:]) == _bits(ends[1:])
    for got, want in zip(maslov._snapped(run_ends, tol), maslov._snapped(ends, tol)):
        assert _bits(got) == _bits(want)
    assert run.indices == [maslov._phase_index(maslov._lift(args), ends, tol)]
    assert _bits(run.flow) == _bits(record.stack(np.ones(1))[0])


def _answer_or_error(fn, *args):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args)
    except SymindexError as exc:
        return "error", type(exc), str(exc)


def _two_scans(h):
    """The orbit scan of h then its graph scan, run one after the other:
    both indices, or the first error."""
    orbit = _answer_or_error(maslov_index_symplectic, h)
    if isinstance(orbit, tuple):
        return orbit
    graph = _answer_or_error(conley_zehnder, h)
    return graph if isinstance(graph, tuple) else (orbit, graph)


@pytest.mark.parametrize("route", ["orbit", "graph"])
@pytest.mark.parametrize("h", [case[1] for case in _block_cases()],
                         ids=[case[0] for case in _block_cases()])
def test_block_scans_give_the_index_of_the_chart_scan(h, route):
    """An index scan of ``_flow_scans``, from the eigen factors of a
    certified record or the generic scan of an uncertified one, gives the
    index of the same scan on the generic chart, which ``maslov_index``
    takes; a scan never mixes the two samplers, so its lift differs from
    the generic lift by one constant.  Its end phases are the generic
    ones bit for bit, except a certified t = 0 end, whose zeros
    ``_snapped`` reads as it reads the computed phases."""
    tol = DEFAULT_TOL
    path, ref = _own_scan(h, route)
    run = _flow_scan_parts(h, route)
    ts, ((lifted, ends),) = run.ts, run.scans
    assert run.records and all(r is maslov._flow_record(h, None, tol) for r in run.records)
    args, generic_ends, _ = maslov._phase_samples(path, maslov._chart(path.space, ref, tol), ts,
                                                  tol, False)
    offset = lifted - maslov._lift(args)
    assert np.abs(offset - offset[0]).max() <= 1e-10
    assert _bits(ends[1:]) == _bits(generic_ends[1:])  # the row both scans compute
    for got, want in zip(maslov._snapped(ends, tol), maslov._snapped(generic_ends, tol)):
        assert _bits(got) == _bits(want)
    assert run.indices == [maslov._phase_index(lifted, ends, tol)]
    assert maslov._phase_index(lifted, ends, tol) == maslov._phase_index(
        maslov._lift(args), generic_ends, tol) == maslov_index(path, ref) == maslov_index(
        _looped(path), ref)


def test_other_references_and_starts_take_the_generic_chart(monkeypatch):
    """A graph path scanned against any other reference and an orbit path
    from a given start or against another reference take no flow scan:
    with ``_flow_scans`` patched away they give the index of
    the same scan of the path with a plain frame function, or the public
    route's index."""
    h = random_hamiltonian(2, 3111, "mixed")
    n, tol = 2, DEFAULT_TOL
    orbit_index, graph_index = maslov_index_symplectic(h), conley_zehnder(h)
    monkeypatch.setattr(maslov, "_flow_scans", None)
    graph = _own_scan(h, "graph")[0]
    other = product_lagrangian(random_lagrangian(n, 1), random_lagrangian(n, 2))
    assert maslov_index(graph, other) == maslov_index(_looped(graph), other)
    loose = diagonal_lagrangian(n, Tolerances(eps_sym=1e-7))
    assert maslov_index(graph, loose) == maslov_index(_looped(graph), loose) == graph_index
    vertical = vertical_lagrangian(n, tol)
    assert maslov_index(orbit_path(h, start=vertical), vertical) == orbit_index
    assert maslov_index(orbit_path(h, vertical, (0.0, 1.0), tol), vertical, 256, tol) == \
        orbit_index
    assert maslov_index(orbit_path(h), vertical_lagrangian(n)) == orbit_index
    orbit, horizontal = _own_scan(h, "orbit")[0], horizontal_lagrangian(n, tol)
    assert maslov_index(orbit, horizontal) == maslov_index(_looped(orbit), horizontal) == \
        maslov_index(orbit_path(h, None, (0.0, 1.0), tol), horizontal, 256, tol)


@pytest.mark.parametrize("n", [3, 16])
def test_every_spelling_of_a_reference_takes_the_generic_chart(n, monkeypatch):
    """A scan of the public routes' paths against ``vertical_lagrangian(n)``,
    ``diagonal_lagrangian(n)`` or ``horizontal_lagrangian(n)``, however
    tol is passed, takes no flow scan (``_flow_scans`` is patched away)
    and gives the index of the public route."""
    h = random_hamiltonian(n, 3120 + n, "mixed")
    orbit, graph = _own_scan(h, "orbit")[0], _own_scan(h, "graph")[0]
    wants = (maslov_index_symplectic(h), conley_zehnder(h),
             maslov_index(orbit_path(h), horizontal_lagrangian(n)))
    monkeypatch.setattr(maslov, "_flow_scans", None)
    for make, path, want in ((vertical_lagrangian, orbit, wants[0]),
                             (diagonal_lagrangian, graph, wants[1]),
                             (horizontal_lagrangian, orbit, wants[2])):
        for ref in (make(n), make(n, DEFAULT_TOL), make(n, tol=DEFAULT_TOL),
                    make(n, Tolerances(eps_sym=1e-7))):
            assert maslov_index(path, ref) == want


def test_find_crossings_keeps_the_generic_chart(monkeypatch):
    """Only the public flow routes take the flow scans: with
    ``_flow_scans`` patched away, ``find_crossings`` and ``maslov_index`` of a
    flow path sample through the generic chart, while
    ``maslov_index_symplectic`` and ``conley_zehnder`` fail."""
    h = 5.0 * standard_J(1)
    monkeypatch.setattr(maslov, "_flow_scans", None)
    path, ref = _own_scan(h, "orbit")
    assert find_crossings(path, ref).index == HalfInt(3)
    assert maslov_index(path, ref) == HalfInt(3)
    for route in (maslov_index_symplectic, conley_zehnder):
        with pytest.raises(TypeError):
            route(h)


def test_flow_indices_stack_the_flow_once_per_batch(monkeypatch):
    """``_flow_indices`` gives the two public scans and evaluates the
    flow of a certified record for both routes at once, at the two ends:
    the factored source reads no other flow.  A copy of the record
    without its factors takes the generic scan of each path, which
    stacks the flow of the kept record once per batch of each, after the
    two ends.  Both give the same indices, and their psi(1) is the
    record's flow at 1 bit for bit."""
    tol = DEFAULT_TOL
    stacks = []
    stack = maslov._FlowRecord.stack

    def counting(record, ts):
        stacks.append(len(ts))
        return stack(record, ts)

    for n, batches in ((1, (1, 1)), (16, (6, 11))):
        h = 4.0 * random_hamiltonian(n, 1016, "semisimple-elliptic")
        want = maslov_index_symplectic(h), conley_zehnder(h)
        record = maslov._flow_record(h, None, tol)
        assert record.factors is not None
        paths = orbit_path(h), graph_path(h)
        ts = maslov._scan_times((0.0, 1.0), record.bound, 256, False)
        assert tuple(len(maslov._batches(path, len(ts))) for path in paths) == batches
        monkeypatch.setattr(maslov._FlowRecord, "stack", counting)
        orbit, graph, psi1, _ = maslov._flow_indices(h, tol)
        assert (orbit, graph) == want and stacks == [2]
        stacks.clear()
        indices, generic_psi1 = maslov._flow_scans(dataclasses.replace(record, factors=None),
                                                   ("orbit", "graph"), tol)
        assert indices == list(want)
        monkeypatch.undo()
        assert _bits(psi1) == _bits(generic_psi1) == _bits(record.stack(np.ones(1))[0])
        assert stacks[0] == 2 and len(stacks) == 1 + sum(batches)
        assert sum(stacks) == 2 + 2 * len(ts)
        stacks.clear()


def test_flow_indices_raise_what_the_two_scans_raise():
    """On the sweep's growth generators and two hyperbolic ones (one whose
    graph frames alone lose rank, one whose orbit frames do too),
    ``_flow_indices`` returns or raises what the orbit scan then the
    graph scan return or raise."""
    sweep = _load_sweep()
    hs = [h for name, h in sweep.ensemble() if name.startswith("growth")]
    hs += [plane_block_generator([("hyperbolic", 22.0)]), HYPERBOLIC_PAIR,
           np.diag([800.0, -800.0])]
    outcomes = []
    for h in hs:
        got = _answer_or_error(maslov._flow_indices, h, DEFAULT_TOL)
        got = got if got[0] == "error" else got[:2]
        assert got == _two_scans(h)
        outcomes.append(got[1] if got[0] == "error" else HalfInt)
    assert outcomes[-3:] == [NotLagrangian, NotLagrangian, InputError]
    assert HalfInt in outcomes
    with pytest.raises(NotLagrangian, match="^path frame lost rank at t=1$"):
        conley_zehnder(plane_block_generator([("hyperbolic", 22.0)]))
    with pytest.raises(NotLagrangian, match="^path frame lost rank at t=1$"):
        maslov._flow_indices(plane_block_generator([("hyperbolic", 22.0)]), DEFAULT_TOL)


def test_a_growth_beyond_the_rank_rule_still_loses_rank():
    """exp(22 t) on a hyperbolic plane fails the rank premise of the
    certificate, so its record is not certified and its scans keep the
    per-sample rank check: ``conley_zehnder`` raises NotLagrangian at t =
    1, and the orbit scan answers."""
    h = plane_block_generator([("hyperbolic", 22.0)])
    with pytest.raises(NotLagrangian, match="^path frame lost rank at t=1$"):
        conley_zehnder(h)
    assert maslov_index_symplectic(h) == HalfInt(0)


def test_a_generator_near_the_hamiltonian_tolerance_keeps_the_per_sample_checks(monkeypatch):
    """S (3 J_1) S^-1 + 5e-8 I with S = diag(5, 1/5) is Hamiltonian within
    the default tol and its frames meet the rank premise of the
    certificate, but its flow is too far from symplectic for the record to
    certify the frames (16 n D g^2 > 1): both scans run the Lagrangian
    check of ``_check_flat`` on their samples and give 1/2 and 1."""
    s = np.diag([5.0, 0.2])
    h = s @ (3.0 * standard_J(1)) @ np.linalg.inv(s) + 5e-8 * np.eye(2)
    checked = []
    check_flat = maslov._check_flat

    def counted(ts, *args):
        checked.append(len(ts))
        return check_flat(ts, *args)

    monkeypatch.setattr(maslov, "_check_flat", counted)
    assert maslov._flow_indices(h, DEFAULT_TOL)[:2] == (HalfInt(1), HalfInt(2))
    assert len(checked) == 2 and checked[0] == checked[1] > 2


def _counting_eigenphases(monkeypatch):
    """The row counts of the stacks ``_eigenphases`` receives."""
    rows = []
    eigenphases = maslov._eigenphases

    def counting(z, tol):
        rows.append(len(z))
        return eigenphases(z, tol)

    monkeypatch.setattr(maslov, "_eigenphases", counting)
    return rows


def test_a_certified_first_end_gives_the_index_of_its_computed_phases(monkeypatch):
    """On the first input of each parity-sweep ensemble, ``_flow_indices``
    and the two public scans answer alike, psi(1) bit for bit, whether
    a certified record certifies their t = 0 end, whose phases then skip
    ``_eigenphases``, or a record without that certificate has every end
    computed.  A record without factors takes the generic scans, which
    compute both ends either way."""
    sweep = _load_sweep()
    firsts = {}
    for name, h in sweep.ensemble():
        firsts.setdefault(name.split()[0], h)
    rows = _counting_eigenphases(monkeypatch)
    record_of = maslov._record_of

    def uncertified(*key):
        return dataclasses.replace(record_of(*key), origin_defect=np.inf)

    def answers(h):
        got = _answer_or_error(maslov._flow_indices, h, DEFAULT_TOL)
        got = got if got[0] == "error" else got[:2] + (_bits(got[2]),)
        return got, _two_scans(h)

    answered = factored = 0
    for h in firsts.values():
        ends = 1 if maslov._flow_record(h, None, DEFAULT_TOL).factors is not None else 2
        factored += ends == 1
        certified = answers(h)
        assert set(rows) <= {ends}
        answered += bool(rows)
        rows.clear()
        monkeypatch.setattr(maslov, "_record_of", uncertified)
        assert answers(h) == certified
        monkeypatch.setattr(maslov, "_record_of", record_of)
        assert set(rows) <= {2}
        rows.clear()
    assert answered == len(firsts) == 9 and 0 < factored < 9


def test_an_uncertified_first_end_computes_its_phases(monkeypatch):
    """A record whose delta0 is above eps_rank / 4 (a tol with eps_rank =
    delta0) and a scan that does not start at 0 pass the first end to
    ``_eigenphases`` beside the last; at the default tol the scans from
    0 pass the last end only."""
    h = random_hamiltonian(2, 4, "semisimple-elliptic")
    defect = maslov._flow_record(h, None, DEFAULT_TOL).origin_defect
    assert defect > 0.0
    rows = _counting_eigenphases(monkeypatch)
    for tol, count in ((DEFAULT_TOL, 1), (Tolerances(eps_rank=defect), 2)):
        maslov._flow_indices(h, tol)
        maslov_index_symplectic(h, tol=tol)
        conley_zehnder(h, tol=tol)
        assert rows == [count] * 4
        rows.clear()
    late = orbit_path(h, interval=(-0.5, 1.0))
    maslov_index(late, vertical_lagrangian(2))
    assert rows == [2]


# -- eigenphases of W -------------------------------------------------------------

def _symmetric_unitary_charts(size, seed, phases=None):
    """A stack of two Z = Q diag(exp(i phi)) R, Q orthogonal and R real
    invertible, whose W = Z conj(Z)^-1 = Q diag(exp(2 i phi)) Q^T is
    symmetric and unitary with the eigenphases 2 phi, drawn off 0 and
    2 pi unless given."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(2):
        q = np.linalg.qr(rng.standard_normal((size, size)))[0]
        r = rng.standard_normal((size, size)) + 3.0 * np.eye(size)
        theta = rng.uniform(0.01, TWO_PI - 0.01, size) if phases is None else np.asarray(phases)
        out.append((q * np.exp(0.5j * theta)) @ r)
    return np.array(out)


def _reference_phases(z):
    w = np.linalg.solve(maslov._tr(z.conj()), maslov._tr(z))
    return np.angle(np.linalg.eigvals(w)) % TWO_PI


@pytest.mark.parametrize("size", range(1, 33))
def test_eigenphases_match_eigvals(size):
    """On random symmetric unitary W of sizes 1 to 32, the eigenphases
    (from one real eigh from size 12 on) match np.angle(eigvals(W))
    within 1e-12."""
    z = _symmetric_unitary_charts(size, 3200 + size)
    got, want = maslov._eigenphases(z, DEFAULT_TOL), _reference_phases(z)
    assert got.shape == want.shape == (2, size)
    assert np.abs(np.sort(got) - np.sort(want)).max() <= 1e-12


def test_eigenphases_merged_by_the_real_pencil_take_eigvals(monkeypatch):
    """Two distinct eigenphases a and b = 2 atan(mu) - a meet in one
    eigenvalue of Re W + mu Im W; that W takes eigvals, matrix by
    matrix, and its phases still match."""
    size = 16
    gamma = np.arctan(maslov._EIGH_MU)
    phases = np.linspace(0.3, 6.0, size)
    phases[:2] = gamma + 0.9, gamma - 0.9
    z = _symmetric_unitary_charts(size, 3300, phases)
    z[1] = _symmetric_unitary_charts(size, 3301)[1]  # a W the pencil separates
    calls = []
    eigvals = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    got = maslov._eigenphases(z, DEFAULT_TOL)
    assert calls == [(size, size)]
    monkeypatch.undo()
    assert np.abs(np.sort(got) - np.sort(_reference_phases(z))).max() <= 1e-12
    assert np.abs(np.sort(got[0]) - np.sort(phases)).max() <= 1e-9
