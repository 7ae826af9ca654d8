"""Crossing forms, crossing scans, and the two path indices."""

import numpy as np
import pytest

from symindex import (
    HalfInt,
    SymplecticSpace,
    conley_zehnder,
    crossing_form,
    find_crossings,
    graph_path,
    lagrangian_frame,
    maslov_index,
    maslov_index_symplectic,
    orbit_path,
    plane_block_generator,
    spectral_conley_zehnder,
    spectral_maslov,
    standard_J,
    unitary_geodesic,
    vertical_lagrangian,
)
from symindex import horizontal_lagrangian
from symindex.errors import (
    GridTooCoarse,
    InputError,
    NonRegularCrossing,
    OddDimension,
)
from symindex.halfint import ZERO
from symindex.maslov import (
    path_from_frames,
    rotation_graph_index,
    rotation_orbit_index,
    snap_half_integer,
    snap_odd_integer,
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
    "entry", [maslov_index_symplectic, orbit_path, conley_zehnder, graph_path])
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
