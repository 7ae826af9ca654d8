"""Correction matrix, sign calibration, and the closed index formula."""

import collections
import sys

import numpy as np
import pytest

from symindex import (
    HalfInt,
    HamiltonianSystem,
    PUBLISHED_SIGN,
    calibrate_sign,
    correction_matrix,
    correction_sign,
    fundamental_solution,
    make_system,
    maslov_via_formula,
    plane_block_generator,
    random_hamiltonian,
    spectral_conley_zehnder,
    standard_J,
    transversality_H,
    triple_index_cross_check,
    triple_routes_from,
    validate,
)
from symindex import autonomous, checks, kashiwara_reduced, maslov, numerics, symplectic
from symindex.autonomous import split_blocks
from symindex.errors import (
    CalibrationFailure,
    NotHamiltonian,
    NotSymplectic,
    OddDimension,
    TransversalityViolated,
)
from symindex.halfint import ZERO
from symindex.maslov import graph_path, orbit_path
from symindex.numerics import Tolerances
from symindex.symplectic import (
    SymplecticSpace,
    diagonal_lagrangian,
    graph_lagrangian,
    product_lagrangian,
    random_symplectic,
    subspace_intersection,
    vertical_lagrangian,
)


def test_make_system_validation():
    with pytest.raises(OddDimension):
        make_system(np.zeros((3, 3)))
    with pytest.raises(NotHamiltonian):
        make_system(np.eye(2))


def test_generator_is_checked_with_the_callers_tol():
    """A generator 1e-6 off the Lie algebra passes a loose eps_sym; every
    route of validate checks it with that tol, not the default."""
    loose = Tolerances(eps_sym=1e-5)
    h = standard_J(1) @ np.diag([2.0, 3.0])
    h[0, 0] += 1e-6
    report = validate(make_system(h, loose), tol=loose)
    assert (report.orbit_index, report.graph_index) == (HalfInt(1), HalfInt(2))
    assert orbit_path(h, tol=loose).space.dim == 2
    assert graph_path(h, tol=loose).space.dim == 4
    with pytest.raises(NotHamiltonian):
        orbit_path(h)


def test_fundamental_solution_is_symplectic_flow():
    h = plane_block_generator([("elliptic", 2.0), ("hyperbolic", 0.7)])
    system = make_system(h)
    j = standard_J(2)
    for t in (0.0, 0.31, 1.0):
        psi = system.psi(t)
        np.testing.assert_allclose(psi.T @ j @ psi, j, atol=1e-10)
    np.testing.assert_allclose(fundamental_solution(h, 1.0), system.psi(1.0), atol=0)


def test_block_split():
    m = np.arange(16.0).reshape(4, 4)
    a, b, c, d = split_blocks(m)
    np.testing.assert_array_equal(a, [[0.0, 1.0], [4.0, 5.0]])
    np.testing.assert_array_equal(b, [[2.0, 3.0], [6.0, 7.0]])
    np.testing.assert_array_equal(c, [[8.0, 9.0], [12.0, 13.0]])
    np.testing.assert_array_equal(d, [[10.0, 11.0], [14.0, 15.0]])


def test_rotation_correction_matrix_closed_form():
    # for a single rotating plane the correction is 2 tan(alpha/2)
    for alpha in (2.0, 5.0):
        system = make_system(plane_block_generator([("elliptic", alpha)]))
        x = correction_matrix(system)
        assert x.shape == (1, 1)
        assert x[0, 0] == pytest.approx(2.0 * np.tan(alpha / 2.0), abs=1e-9)
    assert correction_sign(make_system(plane_block_generator([("elliptic", 2.0)]))) == 1
    assert correction_sign(make_system(plane_block_generator([("elliptic", 5.0)]))) == -1


def test_transversality_detection():
    assert transversality_H(make_system(plane_block_generator([("elliptic", 2.0)])))
    # hyperbolic flows keep the vertical: off-diagonal block stays zero
    assert not transversality_H(make_system(plane_block_generator([("hyperbolic", 0.8)])))
    # a full turn returns to the identity
    assert not transversality_H(make_system(plane_block_generator([("elliptic", 2.0 * np.pi)])))


def test_correction_requires_symplectic_input():
    with pytest.raises(NotSymplectic):
        triple_routes_from(np.eye(2) * 2.0)


def test_correction_requires_invertible_corner():
    system = make_system(plane_block_generator([("hyperbolic", 0.8)]))
    with pytest.raises(TransversalityViolated):
        correction_matrix(system)


def test_time_one_map_J_triple_routes():
    """psi(1) = J is the smallest nontrivial fixed point of the whole
    route comparison: every route gives -1."""
    check = triple_routes_from(standard_J(1))
    assert check.tau_direct == -1
    assert check.tau_reduced == -1
    assert check.sign_x == -1
    assert check.sign_y == -1
    assert check.consistent


def test_triple_routes_on_random_flows():
    for seed in (3, 4, 6):
        m = random_symplectic(2, seed, scale=0.8)
        check = triple_routes_from(m)
        assert check.consistent


def test_cross_check_runs_on_system():
    system = make_system(plane_block_generator([("elliptic", 2.0)]))
    check = triple_index_cross_check(system)
    assert check.consistent


def test_calibration_is_minus_one():
    assert calibrate_sign() == -1
    assert PUBLISHED_SIGN == 1


def test_formula_for_rotations():
    system = make_system(plane_block_generator([("elliptic", 2.0)]))
    assert maslov_via_formula(system) == HalfInt(1)
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    assert maslov_via_formula(system) == HalfInt(3)


def test_validate_full_report():
    report = validate(make_system(plane_block_generator([("elliptic", 5.0)])))
    assert report.orbit_index == HalfInt(3)
    assert report.graph_index == HalfInt(2)
    assert report.sigma == -1
    assert report.correction == -1
    assert report.formula_index == HalfInt(3)
    assert report.tau_direct == report.tau_reduced
    assert report.agree


def test_validate_evaluates_time_one_map_once(monkeypatch):
    calls = []
    psi = HamiltonianSystem.psi

    def counting_psi(self, t):
        calls.append(t)
        return psi(self, t)

    monkeypatch.setattr(HamiltonianSystem, "psi", counting_psi)
    report = validate(make_system(plane_block_generator([("elliptic", 5.0)])), sigma=-1)
    assert report.formula_index == HalfInt(3)
    assert calls == [1.0]


def test_validate_skips_formula_off_transversality():
    report = validate(make_system(plane_block_generator([("hyperbolic", 0.8)])))
    assert report.orbit_index == ZERO
    assert report.graph_index == ZERO
    assert report.formula_index is None
    assert report.agree


def test_validate_handles_degenerate_correction():
    # persistent eigenvalue 1: the correction matrix is 0, its sign is 0,
    # and the formula reduces to the graph index
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = validate(make_system(shear))
    assert report.orbit_index == HalfInt(-1)
    assert report.graph_index == HalfInt(-1)
    assert report.correction == 0
    assert report.formula_index == HalfInt(-1)
    assert report.agree


def test_validate_is_deterministic():
    h = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
    r1 = validate(make_system(h))
    r2 = validate(make_system(h))
    assert r1 == r2


def test_mixed_system_agreement():
    h = plane_block_generator([("hyperbolic", 1.0), ("elliptic", 2.0)])
    report = validate(make_system(h))
    assert report.orbit_index == HalfInt(1)
    assert report.graph_index == HalfInt(2)
    assert report.agree


@pytest.mark.parametrize("n,seed,profile,orbit2,graph2", [
    (2, 1081, "mixed", -14, -12),
    (3, 1098, "semisimple-elliptic", -7, -6),
])
def test_close_crossings_of_random_systems(n, seed, profile, orbit2, graph2):
    """Crossings closer together than the default grid resolves: both
    routes give the values of a grid-16384 crossing scan, the graph
    route that of the spectral route, and the formula agrees."""
    h = 2.0 * random_hamiltonian(n, seed, profile)
    report = validate(make_system(h))
    assert report.orbit_index == HalfInt(orbit2)
    assert report.graph_index == HalfInt(graph2) == spectral_conley_zehnder(h)
    assert report.agree


@pytest.fixture
def cold_calibration():
    autonomous._calibrated_sign.cache_clear()
    yield
    autonomous._calibrated_sign.cache_clear()


@pytest.fixture
def scan_count(monkeypatch):
    scans = []
    index = maslov.maslov_index

    def counting_index(*args, **kwargs):
        scans.append(args)
        return index(*args, **kwargs)

    monkeypatch.setattr(maslov, "maslov_index", counting_index)
    return scans


def test_validate_calibrates_once_per_process(cold_calibration, scan_count):
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    assert validate(system).agree and validate(system).sigma == -1
    # two scans per validate, the four probe scans once
    assert len(scan_count) == 2 * 2 + 4
    assert maslov_via_formula(system) == HalfInt(3)
    assert len(scan_count) == 2 * 2 + 4 + 1
    # the probes scan certified paths, so another grid reuses the sign
    assert validate(system, grid=4096).agree
    assert len(scan_count) == 2 * 2 + 4 + 1 + 2


def test_validate_checks_and_decomposes_the_generator_once(monkeypatch):
    """At n=8 one validate runs one eig and one SVD of h and one
    Hamiltonian check of it, and the frames of its two certified scans
    take no SVD in _frames."""
    system = make_system(2.0 * random_hamiltonian(8, 0, "semisimple-elliptic"))
    h = system.h
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(a, *args, **kwargs):
            if np.shape(a) == h.shape and np.array_equal(a, h):
                calls[name + "(h)"] += 1
            if sys._getframe(1).f_code.co_name == "_frames":
                calls[name + " in _frames"] += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eig")
    count(np.linalg, "svd")
    count(symplectic, "_hamiltonian_for")
    assert validate(system, sigma=-1).agree
    assert calls == {"eig(h)": 1, "svd(h)": 1, "_hamiltonian_for(h)": 1}
    with pytest.raises(NotHamiltonian):
        validate(HamiltonianSystem(np.random.default_rng(0).standard_normal((4, 4))), sigma=1)


def test_validate_measures_spectral_norms_only_in_input_checks(monkeypatch):
    """At n=8 one validate takes three spectral norms, all in input
    checks: of the generator, of the time-one map and of the correction
    matrix's symmetry.  Every signature takes its scale from its own
    eigenvalues.  The shared constants of n=8 are built beforehand."""
    system = make_system(2.0 * random_hamiltonian(8, 0, "semisimple-elliptic"))
    assert validate(system, sigma=-1).agree
    original, callers = numerics.spectral_norm, []

    def counted(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(m)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("symindex")
                and getattr(module, "spectral_norm", None) is original):
            monkeypatch.setattr(module, "spectral_norm", counted)
    assert validate(system, sigma=-1).agree
    assert sorted(callers) == ["_correction_matrix", "_hamiltonian_for", "is_symplectic"]


def test_calibration_entry_points_rerun_probes(cold_calibration, scan_count):
    assert calibrate_sign() == -1
    assert len(scan_count) == 4
    assert checks.check_calibration().passed
    assert len(scan_count) == 8


def test_calibration_failure_is_not_cached(cold_calibration, monkeypatch):
    calls = []

    def failing_sign(system, tol):
        calls.append(system)
        return 0

    monkeypatch.setattr(autonomous, "correction_sign", failing_sign)
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    for _ in range(2):
        with pytest.raises(CalibrationFailure):
            validate(system)
    assert len(calls) == 2


@pytest.mark.parametrize("check,per_system", [
    (checks.check_main_identity, 2),
    (checks.check_reduction_equality, 1),
])
def test_checks_evaluate_time_one_map_once_per_draw(monkeypatch, check, per_system):
    calls = {}
    psi = HamiltonianSystem.psi

    def counting_psi(self, t):
        key = self.h.tobytes()
        calls[key] = calls.get(key, 0) + 1
        return psi(self, t)

    monkeypatch.setattr(HamiltonianSystem, "psi", counting_psi)
    assert check(samples=6).passed
    # validate evaluates psi(1) once more for an accepted main-identity draw
    assert calls and max(calls.values()) <= per_system


def test_routes_without_grid_reject_an_old_grid_argument():
    """Calibration, the formula route and the checks take no grid; an
    old grid, positional or by name, is a TypeError, never a tol."""
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    routes = [(calibrate_sign, ()), (maslov_via_formula, (system, None)),
              (checks.run_property_suite, ()), (checks.check_rotation_closed_forms, ()),
              (checks.check_calibration, ()), (checks.check_loop_identity, ()),
              (checks.check_quadruple_path_independence, (1,)),
              (checks.check_main_identity, (1,)), (checks.check_spectral_identities, (1,)),
              (checks.check_zero_property, (1,))]
    for route, args in routes:
        with pytest.raises(TypeError):
            route(*args, 256)
        with pytest.raises(TypeError):
            route(*args, grid=256)


def test_collect_rejects_only_none_draws():
    """A draw that raises fails its check at once instead of being
    resampled; a None draw is counted as rejected."""
    attempts = []

    def raising(attempt):
        attempts.append(attempt)
        raise TransversalityViolated("upper-right block of the time-one map is singular")

    with pytest.raises(TransversalityViolated):
        checks._collect(raising, 1)
    assert attempts == [0]
    assert checks._collect(lambda attempt: attempt if attempt >= 2 else None, 1) == ([2], 2)


def test_sigma_must_be_plus_or_minus_one():
    """Both formula entry points share one check of an explicit sigma."""
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    for sigma in (3, 1.0, True, "+1"):
        for route in (validate, maslov_via_formula):
            with pytest.raises(CalibrationFailure, match="sigma must be"):
                route(system, sigma=sigma)
    report = validate(system, sigma=np.int64(-1))
    assert report.sigma == -1 and type(report.sigma) is int and report.agree
    assert maslov_via_formula(system, sigma=np.int64(-1)) == HalfInt(3)


def _clear_constant_caches():
    for cache in (SymplecticSpace.standard, SymplecticSpace.graph_product,
                  symplectic.vertical_lagrangian, symplectic.horizontal_lagrangian,
                  symplectic.diagonal_lagrangian, autonomous._triple_constants):
        cache.cache_clear()


def test_validate_reduces_as_kashiwara_reduced_from_scratch():
    """The reduction by K = diagonal & L0 x L0 that validate builds once
    per (n, tol) gives the tau of a from-scratch kashiwara_reduced, and
    the reports do not change when every constant is rebuilt."""
    compared = 0
    for seed in range(24):
        n = 1 + seed % 4
        system = make_system(random_hamiltonian(n, 3100 + seed, ("generic", "mixed")[seed % 2]))
        report = validate(system, sigma=-1)
        if report.tau_reduced is None:
            continue
        space = SymplecticSpace.graph_product(n)
        diag = diagonal_lagrangian(n)
        pair = product_lagrangian(vertical_lagrangian(n), vertical_lagrangian(n))
        k = subspace_intersection(diag.frame, pair.frame)
        graph = graph_lagrangian(system.psi(1.0))
        assert report.tau_reduced == kashiwara_reduced(space, k, diag, pair, graph)
        _clear_constant_caches()
        assert validate(system, sigma=-1) == report
        compared += 1
    assert compared >= 20
