"""Correction matrix, sign calibration, and the closed index formula."""

import collections
import dataclasses
import functools
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from symindex import (
    HalfInt,
    HamiltonianSystem,
    PUBLISHED_SIGN,
    TripleCheck,
    calibrate_sign,
    conley_zehnder,
    correction_matrix,
    correction_sign,
    kashiwara_index,
    make_system,
    maslov_index_symplectic,
    maslov_via_formula,
    plane_block_generator,
    random_hamiltonian,
    spectral_conley_zehnder,
    standard_J,
    standard_direct_sum,
    triple_routes_from,
    validate,
)
from symindex import autonomous, checks, kashiwara_reduced, maslov, numerics, symplectic
from symindex.autonomous import split_blocks
from symindex.errors import (
    CalibrationFailure,
    InputError,
    NotHamiltonian,
    NotSymplectic,
    OddDimension,
    SymmetryDefect,
    TransversalityViolated,
)
from symindex.halfint import ZERO
from symindex.maslov import graph_path, orbit_path
from symindex.numerics import Tolerances, sym_signature
from symindex.symplectic import (
    SymplecticSpace,
    diagonal_lagrangian,
    graph_lagrangian,
    product_lagrangian,
    random_symplectic,
    subspace_intersection,
    vertical_lagrangian,
)


SWEEP = pathlib.Path(__file__).resolve().parent.parent / "tools" / "parity_sweep.py"


def test_make_system_validation():
    with pytest.raises(OddDimension):
        make_system(np.zeros((3, 3)))
    with pytest.raises(NotHamiltonian):
        make_system(np.eye(2))


@pytest.mark.parametrize("route", [validate, maslov_via_formula, correction_matrix,
                                   correction_sign])
@pytest.mark.parametrize("given", [3.0 * standard_J(1), None, "J"], ids=["ndarray", "None", "str"])
def test_system_routes_refuse_a_non_system(route, given):
    with pytest.raises(InputError, match="system must be a HamiltonianSystem"):
        route(given)


def test_system_built_from_a_list_holds_a_float_generator():
    system = HamiltonianSystem([[0, -3], [3, 0]])
    assert system.h.dtype == np.float64
    np.testing.assert_array_equal(system.psi(1.0), make_system(3.0 * standard_J(1)).psi(1.0))
    assert validate(system, sigma=-1) == validate(make_system(3.0 * standard_J(1)), sigma=-1)
    assert correction_sign(system) == 1
    with pytest.raises(OddDimension):
        HamiltonianSystem([[0.0]])
    with pytest.raises(InputError):
        HamiltonianSystem("J")


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
    np.testing.assert_array_equal(system.psi(0.0), np.eye(4))
    np.testing.assert_allclose(system.psi(0.31) @ system.psi(0.69), system.psi(1.0),
                               atol=1e-12)


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
    """Transversality is read where it is decided: the correction matrix
    raises TransversalityViolated and validate leaves the formula out."""
    cases = [(("elliptic", 2.0), True),
             # hyperbolic flows keep the vertical: off-diagonal block stays zero
             (("hyperbolic", 0.8), False),
             # a full turn returns to the identity
             (("elliptic", 2.0 * np.pi), False)]
    for plane, transversal in cases:
        system = make_system(plane_block_generator([plane]))
        report = validate(system)
        assert (report.formula_index is not None) == transversal
        assert report.agree
        if transversal:
            correction_matrix(system)
        else:
            with pytest.raises(TransversalityViolated):
                correction_matrix(system)


def test_correction_requires_symplectic_input():
    with pytest.raises(NotSymplectic):
        triple_routes_from(np.eye(2) * 2.0)


def test_triple_routes_from_checks_the_map_it_is_given():
    """``triple_routes_from`` takes the caller's map, so it keeps the
    symplectic check where validate reads a certified psi(1): the
    record's psi(1) passes it, and the same map scaled by 1 + 1e-6, or
    diag(2, 1), raises NotSymplectic."""
    psi1 = autonomous._time_one(make_system(plane_block_generator([("elliptic", 5.0)])),
                                numerics.DEFAULT_TOL)
    assert triple_routes_from(psi1).consistent
    for m in (psi1 * (1.0 + 1e-6), np.diag([2.0, 1.0])):
        with pytest.raises(NotSymplectic, match="^time-one map does not preserve the form$"):
            triple_routes_from(m)


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


@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (8, 0), (8, 1), (12, 0), (12, 2)])
def test_block_form_signature_holds_for_widely_spread_correction(n, seed):
    """psi(1) = [[I, I], [X, I + X]] is symplectic with correction
    matrix X.  With |eigenvalues| of X from 0.33 to 1e5, the unit blocks
    of [[0, -I, Y], [-I, 0, I], [Y, I, 0]] at Y = -X/2 push an eigenvalue
    into the zero band; taken at Y/s, the block route equals sign X."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = np.geomspace(0.33, 1e5, n) * rng.choice([-1.0, 1.0], n)
    x = (q * eigs) @ q.T
    x = 0.5 * (x + x.T)
    eye = np.eye(n)
    check = triple_routes_from(np.block([[eye, eye], [x, eye + x]]))
    assert check.sign_x == -int(np.sign(eigs).sum())
    assert check.consistent


def test_sign_x_is_minus_the_signature_of_x():
    """sign_x is -sign X from the one signature of X that validate takes
    too: X = diag(2.5e-8, 1) has signature 2, while -X/2 would put its
    small eigenvalue inside its own zero band and give -1."""
    x, eye = np.diag([2.5e-8, 1.0]), np.eye(2)
    assert sym_signature(x).signature == 2
    check = triple_routes_from(np.block([[eye, eye], [x, eye + x]]))
    assert check.sign_x == -2


def test_block_form_signature_on_a_benchmark_system(workloads):
    """Pass 0 of index-large at seed 13 holds an n = 16 system whose
    correction matrix spans |eigenvalues| 0.33 to 9.6e4; unscaled, its
    block route counted one eigenvalue too few and validate reported
    agree=False."""
    system = make_system(workloads.make_pass("index-large", 13, 0)[5].h)
    assert system.n == 16
    check = triple_routes_from(system.psi(1.0))
    assert (check.tau_direct, check.tau_reduced, check.sign_x, check.sign_y) == (-6,) * 4
    assert validate(system, sigma=-1).agree


def test_cross_check_runs_on_system():
    system = make_system(plane_block_generator([("elliptic", 2.0)]))
    check = triple_routes_from(system.psi(1.0))
    assert check.consistent
    report = validate(system)
    assert (report.tau_direct, report.tau_reduced) == (check.tau_direct, check.tau_reduced)
    assert report.correction == -check.sign_x


def test_reduced_form_matrix_is_the_block_layout():
    x = np.arange(9.0).reshape(3, 3)
    eye, zero = np.eye(3), np.zeros((3, 3))
    np.testing.assert_array_equal(autonomous.reduced_form_matrix(x),
                                  np.block([[zero, -eye, x], [-eye, zero, eye], [x.T, eye, zero]]))


def _elliptic_blocks(n, rng):
    """An elliptic plane-block generator whose speeds keep 0.2 from the
    multiples of pi, so the upper-right block of psi(1) is invertible."""
    speeds = rng.uniform(0.35, 5.9, 4 * n) * rng.choice([-1.0, 1.0], 4 * n)
    speeds = speeds[np.abs(speeds - np.pi * np.round(speeds / np.pi)) > 0.2][:n]
    return plane_block_generator([("elliptic", a) for a in speeds])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
@pytest.mark.parametrize("conjugated", [False, True], ids=["block", "conjugated"])
def test_triple_routes_equal_the_generic_routes(n, conjugated):
    """validate's routes read the frames of one graph_lagrangian and one
    projection, and classify the two 3n x 3n forms in one eigvalsh; they
    equal the generic public routes: kashiwara_index on graph_lagrangian,
    kashiwara_reduced with K = diagonal & L0 x L0 built from scratch, and
    the signatures of X and of reduced_form_matrix at -X/2 scaled by
    1 + |X/2|_F."""
    space = SymplecticSpace.graph_product(n)
    diag = diagonal_lagrangian(n)
    pair = product_lagrangian(vertical_lagrangian(n), vertical_lagrangian(n))
    k = subspace_intersection(diag.frame, pair.frame)
    rng = np.random.default_rng(4400 + n)
    for seed in range(4):
        h = _elliptic_blocks(n, rng)
        if conjugated:
            s = random_symplectic(n, 4500 + 10 * n + seed, scale=0.6)
            h = s @ h @ np.linalg.inv(s)
        psi1 = make_system(h).psi(1.0)
        x = autonomous._correction_matrix(psi1, numerics.DEFAULT_TOL)
        graph = graph_lagrangian(psi1)
        half = -0.5 * x
        generic = TripleCheck(
            kashiwara_index(space, diag, pair, graph),
            kashiwara_reduced(space, k, diag, pair, graph),
            -sym_signature(x).signature,
            sym_signature(autonomous.reduced_form_matrix(half / (1.0 + np.linalg.norm(half))))
            .signature)
        assert autonomous._triple_routes(psi1, x, numerics.DEFAULT_TOL) == generic
        assert generic.consistent


def _transversal_time_one_maps(n):
    """(psi(1), X) of the seeded generators random_hamiltonian(n, 1000 +
    s, profile), s < 2, of the four profiles, whose psi(1) is
    transversal: the time-one maps ``validate`` reads."""
    maps = []
    for profile in ("generic", "semisimple-elliptic", "hyperbolic", "mixed"):
        for s in range(2):
            psi1 = autonomous._time_one(make_system(random_hamiltonian(n, 1000 + s, profile)),
                                        numerics.DEFAULT_TOL)
            try:
                maps.append((psi1, autonomous._correction_matrix(psi1, numerics.DEFAULT_TOL)))
            except TransversalityViolated:
                pass
    return maps


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_triple_forms_are_symmetric_entry_for_entry(monkeypatch, n):
    """The four forms ``_triple_routes`` classifies unchecked (X, the two
    Kashiwara forms and the block matrix) equal their transposes bit for
    bit, so symmetrizing them changes nothing, and their counts are
    those of the checked ``_signatures``."""
    forms_seen = []
    form_counts = numerics._form_counts

    def recording(forms, tol, margin):
        forms_seen.append(forms)
        return form_counts(forms, tol, margin)

    monkeypatch.setattr(autonomous, "_form_counts", recording)
    maps = _transversal_time_one_maps(n)
    assert len(maps) >= 4
    for psi1, x in maps:
        forms_seen.clear()
        autonomous._triple_routes(psi1, x, numerics.DEFAULT_TOL)
        (forms,) = forms_seen
        assert len(forms) == 4
        for m in forms:
            assert np.array_equal(m, m.T) and np.array_equal(0.5 * (m + m.T), m)
        got = form_counts(forms, numerics.DEFAULT_TOL, 0.0)
        want = numerics._signatures(forms, numerics.DEFAULT_TOL, 0.0, False)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


def test_triple_routes_from_refuses_a_huge_symplectic_map_by_its_corner():
    """diag(1e160, 1e-160) is symplectic; its (1 + |m|_2)^2 overflows a
    float, and its upper-right block is 0."""
    with pytest.raises(TransversalityViolated):
        triple_routes_from(np.diag([1e160, 1e-160]))


def test_inconsistent_triple_routes_turn_agree_false(monkeypatch):
    """Rotation 5: the formula matches the orbit index, so a triple-route
    disagreement alone must turn agree to False."""
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    assert validate(system, sigma=-1).agree
    monkeypatch.setattr(autonomous, "_triple_routes",
                        lambda psi1, x, tol: TripleCheck(1, 1, 1, -1))
    report = validate(system, sigma=-1)
    assert report.formula_index == report.orbit_index == HalfInt(3)
    assert not report.agree


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
    """validate evaluates the flow at t = 1 once, in its scans: it calls
    no HamiltonianSystem.psi, and the formula and the triple routes both
    read the last row of the scans' last flow stack."""
    calls, stacks, maps = [], [], []
    psi = HamiltonianSystem.psi
    stack = maslov._FlowRecord.stack

    def counting_psi(self, t):
        calls.append(t)
        return psi(self, t)

    def kept_stack(record, ts):
        stacks.append((ts[-1], stack(record, ts)))
        return stacks[-1][1]

    def spy(name):
        original = getattr(autonomous, name)

        def spied(psi1, *args):
            maps.append(psi1)
            return original(psi1, *args)

        monkeypatch.setattr(autonomous, name, spied)

    monkeypatch.setattr(HamiltonianSystem, "psi", counting_psi)
    monkeypatch.setattr(maslov._FlowRecord, "stack", kept_stack)
    spy("_correction_matrix")
    spy("_triple_routes")
    report = validate(make_system(plane_block_generator([("elliptic", 5.0)])), sigma=-1)
    assert report.formula_index == HalfInt(3)
    assert calls == []
    assert len(maps) == 2 and maps[0] is maps[1]
    last_time, last_stack = stacks[-1]
    assert last_time == 1.0 and np.shares_memory(maps[0], last_stack[-1])
    assert maps[0].tobytes() == last_stack[-1].tobytes()


def _jordan_beside_rotation():
    jordan = np.zeros((4, 4))
    jordan[0, 1], jordan[3, 2] = 1.0, -1.0
    return standard_direct_sum([jordan, 3.0 * standard_J(1)])


#: (generator, whether its record takes the expm branch)
_TIME_ONE_CASES = [
    pytest.param(plane_block_generator([("elliptic", 5.0)]), False, id="rotation"),
    pytest.param(2.0 * random_hamiltonian(8, 0, "semisimple-elliptic"), False, id="n=8"),
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), True, id="shear"),
    pytest.param(_jordan_beside_rotation(), True, id="jordan"),
]


def _spied_time_one_maps(monkeypatch, expm_branch):
    """The list of the maps ``_correction_matrix`` gets from now on, with
    ``HamiltonianSystem.psi`` and, unless ``expm_branch``, the ``expm`` of
    every symindex module patched to None, so a call raises TypeError."""
    maps = []
    correction = autonomous._correction_matrix

    def spied(psi1, tol, *args):
        maps.append(psi1)
        return correction(psi1, tol, *args)

    monkeypatch.setattr(autonomous, "_correction_matrix", spied)
    monkeypatch.setattr(HamiltonianSystem, "psi", None)
    expm = numerics.expm
    if not expm_branch:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("symindex")
                    and getattr(module, "expm", None) is expm):
                monkeypatch.setattr(module, "expm", None)
    return maps


@pytest.mark.parametrize("h,expm_branch", _TIME_ONE_CASES)
def test_validate_reads_psi1_from_the_flow_of_its_scans(monkeypatch, h, expm_branch):
    """The psi(1) that validate passes to ``_correction_matrix`` is the
    record's flow at 1 bit for bit.  On the eigen branch validate runs
    no expm and no HamiltonianSystem.psi; on the expm branch (Jordan
    blocks) that psi(1) is also ``make_system(h).psi(1.0)`` bit for bit."""
    tol = numerics.DEFAULT_TOL
    system = make_system(h)
    maps = _spied_time_one_maps(monkeypatch, expm_branch)
    validate(system, sigma=-1)
    monkeypatch.undo()
    record = maslov._flow_record(h, None, tol)
    assert (record.eigen is None) == expm_branch
    assert len(maps) == 1
    assert maps[0].tobytes() == record.stack(np.ones(1))[0].tobytes()
    if expm_branch:
        assert maps[0].tobytes() == system.psi(1.0).tobytes()


@pytest.mark.parametrize("h,expm_branch", _TIME_ONE_CASES)
def test_formula_routes_read_psi1_from_the_flow_record(monkeypatch, h, expm_branch):
    """``correction_matrix``, ``correction_sign`` and ``maslov_via_formula``
    pass ``_correction_matrix`` the psi(1) of ``_flow_indices`` bit for
    bit, and each probe of ``calibrate_sign`` that of its generator; on
    the expm branch it is also ``make_system(h).psi(1.0)`` bit for bit.
    None calls ``HamiltonianSystem.psi``, and on the eigen branch none
    runs an expm.  Their answers are validate's, None where they raise
    TransversalityViolated (the Jordan case)."""
    tol = numerics.DEFAULT_TOL
    system = make_system(h)

    def answer(route, *args, **kwargs):
        try:
            return route(*args, **kwargs)
        except TransversalityViolated:
            return None

    maps = _spied_time_one_maps(monkeypatch, expm_branch)
    x = answer(correction_matrix, system)
    answers = answer(correction_sign, system), answer(maslov_via_formula, system, sigma=-1)
    assert calibrate_sign() == -1
    monkeypatch.undo()
    psi1 = maslov._flow_indices(h, tol)[2]
    probes = [maslov._flow_indices(a * standard_J(1), tol)[2]
              for a in autonomous._CALIBRATION_SPEEDS]
    assert [m.tobytes() for m in maps] == [psi1.tobytes()] * 3 + [p.tobytes() for p in probes]
    if x is not None:
        assert x.tobytes() == autonomous._correction_matrix(psi1, tol).tobytes()
    if expm_branch:
        assert psi1.tobytes() == system.psi(1.0).tobytes()
    report = validate(system, sigma=-1)
    assert answers == (report.correction, report.formula_index)


@functools.lru_cache(maxsize=1)
def _sweep_inputs():
    """{name: generator} of the ensembles of tools/parity_sweep.py."""
    spec = importlib.util.spec_from_file_location("parity_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return dict(sweep.ensemble())


@pytest.mark.parametrize("name", [
    "growth 5 hyperbolic", "near 1pi +1 0x1.12e0be826d695p-30",
    "near 2pi +1 0x1.12e0be826d695p-30", "near 2pi -1 0x1.5798ee2308c3ap-27", "loop 1"])
def test_formula_routes_answer_as_validate_where_the_pade_map_did_not(name):
    """On the four parity-sweep inputs where the Padé psi(1) decided the
    symmetry of X, transversality or the sign of X unlike the record's,
    and on a loop, ``correction_sign`` and ``maslov_via_formula`` give
    validate's correction and formula, or TransversalityViolated where
    validate has none (the loop)."""
    system = make_system(_sweep_inputs()[name])
    report = validate(system, sigma=-1)
    assert (report.correction is None) == (name == "loop 1")
    if report.correction is None:
        with pytest.raises(TransversalityViolated):
            correction_sign(system)
        with pytest.raises(TransversalityViolated):
            maslov_via_formula(system, sigma=-1)
    else:
        assert correction_sign(system) == report.correction
        assert maslov_via_formula(system, sigma=-1) == report.formula_index


def test_validate_of_a_fresh_system_checks_its_generator_once(monkeypatch):
    """``validate(make_system(h))`` on a fresh h runs one Hamiltonian
    check: ``make_system`` builds the flow record, and the scans of
    validate find it kept.  A write to ``system.h`` in place gives a new
    key, so the next validate checks h again and refuses a generator no
    longer Hamiltonian."""
    checked = []
    check = maslov._hamiltonian_for

    def counted(h, *args):
        checked.append(h.tobytes())
        return check(h, *args)

    monkeypatch.setattr(maslov, "_hamiltonian_for", counted)
    system = make_system(2.0 * random_hamiltonian(2, 7, "mixed"))
    assert validate(system, sigma=-1).orbit_index is not None
    assert checked == [system.h.tobytes()]
    system.h[:] *= 2.0
    validate(system, sigma=-1)
    assert checked == [checked[0], system.h.tobytes()]
    system.h[0, 0] += 1.0
    with pytest.raises(NotHamiltonian):
        validate(system, sigma=-1)
    assert len(checked) == 3


def test_make_system_builds_the_flow_record_its_routes_read(monkeypatch):
    """``make_system`` checks h by building its flow record, one miss of
    ``_record_of`` that keeps h's record; ``validate``, ``correction_sign``
    and ``maslov_via_formula`` on the system then read it, with no miss
    and no eig of h.  A generator that raises is not kept and leaves the
    kept record in place, and ``tol`` is checked before the matrix."""
    h = plane_block_generator([("elliptic", 5.0)])
    eigs = []
    eig = np.linalg.eig

    def counted_eig(a, *args, **kwargs):
        eigs.append(np.shape(a) == h.shape and np.array_equal(a, h))
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    system = make_system(h)
    info = maslov._record_of.cache_info()
    assert (info.misses, info.currsize, eigs) == (1, 1, [True])
    record = maslov._flow_record(system.h, None, numerics.DEFAULT_TOL)
    assert record.h.tobytes() == h.tobytes() and maslov._record_of.cache_info().misses == 1
    assert validate(system, sigma=-1).agree
    assert correction_sign(system) == -1
    assert maslov_via_formula(system, sigma=-1) == HalfInt(3)
    assert maslov._record_of.cache_info().misses == 1 and eigs == [True]
    with pytest.raises(NotHamiltonian):
        make_system(np.eye(2))
    assert maslov._flow_record(system.h, None, numerics.DEFAULT_TOL) is record
    assert maslov._record_of.cache_info().misses == 2
    with pytest.raises(InputError, match="tol must be a Tolerances"):
        make_system(np.zeros((3, 3)), [1e-9])


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
    """The index scans run, counted by the ``_phase_index`` call that
    ends each of them (``maslov_index`` and both scans of
    ``_flow_indices``)."""
    scans = []
    index = maslov._phase_index

    def counting_index(*args, **kwargs):
        scans.append(args)
        return index(*args, **kwargs)

    monkeypatch.setattr(maslov, "_phase_index", counting_index)
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
    """At n=8 ``validate(make_system(h))`` runs one eig of h, one
    eigvalsh of its Hamiltonian form S = sym(-J h), one Hamiltonian
    check of it (all in the flow record that ``make_system`` builds and
    the scans find kept), whose spectral norm is the one SVD of h, and
    the frames of its two certified scans take no SVD in _frames."""
    h = 2.0 * random_hamiltonian(8, 0, "semisimple-elliptic")
    s = -standard_J(8) @ h
    s = 0.5 * (s + s.T)
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(a, *args, **kwargs):
            if np.shape(a) == h.shape and np.array_equal(a, h):
                calls[name + "(h)"] += 1
            if np.shape(a) == s.shape and np.allclose(a, s, rtol=0.0, atol=1e-12):
                calls[name + "(S)"] += 1
            if sys._getframe(1).f_code.co_name == "_frames":
                calls[name + " in _frames"] += 1
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eig")
    count(np.linalg, "eigvalsh")
    count(np.linalg, "svd")
    count(maslov, "_hamiltonian_for")
    assert validate(make_system(h), sigma=-1).agree
    assert calls == {"eig(h)": 1, "eigvalsh(S)": 1, "svd(h)": 1, "_hamiltonian_for(h)": 1}
    with pytest.raises(NotHamiltonian):
        validate(HamiltonianSystem(np.random.default_rng(0).standard_normal((4, 4))), sigma=1)


def test_validate_measures_spectral_norms_only_in_input_checks(monkeypatch):
    """At n=8 one validate takes two spectral norms, both in input
    checks: of the generator and of the correction matrix's symmetry.
    The time-one map takes none: the bound D of its flow record certifies
    it symplectic (sqrt(2n) D <= eps_sym), so ``_symplectic_for`` does not
    run, while ``triple_routes_from`` of the same map, whose origin it
    cannot know, takes that third norm.  Every signature takes its scale
    from its own eigenvalues.  The shared constants of n=8 are built
    beforehand, and the generator's flow record is dropped after them."""
    system = make_system(2.0 * random_hamiltonian(8, 0, "semisimple-elliptic"))
    assert validate(system, sigma=-1).agree
    maslov._record_of.cache_clear()
    original, callers = numerics.spectral_norm, []

    def counted(m):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(m)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("symindex")
                and getattr(module, "spectral_norm", None) is original):
            monkeypatch.setattr(module, "spectral_norm", counted)
    assert validate(system, sigma=-1).agree
    assert sorted(callers) == ["_correction_matrix", "_hamiltonian_for"]
    callers.clear()
    triple_routes_from(autonomous._time_one(system, numerics.DEFAULT_TOL))
    assert sorted(callers) == ["_correction_matrix", "_symplectic_for"]


#: the generators of the cost table: the certified records of n = 1, 4 and
#: 16 (the first transversal), a Jordan block beside a rotation on the
#: ``expm`` branch, and an eigen record whose growth fails the rank
#: premise of its certificate, so uncertified
COST_GENERATORS = {
    "n=1": random_hamiltonian(1, 1000, "semisimple-elliptic"),
    "n=4": random_hamiltonian(4, 1000, "semisimple-elliptic"),
    "n=16": random_hamiltonian(16, 1000, "semisimple-elliptic"),
    "expm": _jordan_beside_rotation(),
    "growth": 5.0 * random_hamiltonian(2, 5000, "hyperbolic"),
}

#: route -> generator -> cost of the route on the record a call before kept
#: (warm): the ``numpy.linalg`` calls of one call by name and the rows of
#: ``record.stack`` it reads ("stack rows"); ``validate`` runs with sigma = -1
#: and the shared constants built
COST_TABLE = {
    "validate": {
        "n=1": {"eigvals": 2, "eigvalsh": 3, "norm": 4, "qr": 1, "slogdet": 1, "solve": 3,
                "stack rows": 2, "svd": 4},
        "n=4": {"eigvals": 2, "eigvalsh": 3, "norm": 4, "qr": 1, "slogdet": 1, "solve": 3,
                "stack rows": 2, "svd": 4},
        "n=16": {"eigh": 2, "eigvalsh": 3, "norm": 5, "qr": 1, "slogdet": 3, "solve": 3,
                 "stack rows": 2, "svd": 5},
        "expm": {"eigvals": 2, "norm": 1, "slogdet": 2, "solve": 10, "stack rows": 10, "svd": 4},
        "growth": {"eigvals": 2, "eigvalsh": 3, "norm": 5, "qr": 1, "slogdet": 2, "solve": 3,
                   "stack rows": 14, "svd": 7},
    },
    "maslov_index_symplectic": {
        "n=1": {"eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 2},
        "n=4": {"eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 2},
        "n=16": {"eigh": 1, "slogdet": 2, "solve": 1, "stack rows": 2},
        "expm": {"eigvals": 1, "slogdet": 1, "solve": 6, "stack rows": 6, "svd": 1},
        "growth": {"eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 8, "svd": 1},
    },
    "conley_zehnder": {
        "n=1": {"eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 2},
        "n=4": {"eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 2},
        "n=16": {"eigh": 1, "slogdet": 3, "solve": 1, "stack rows": 2},
        "expm": {"eigvals": 1, "slogdet": 1, "solve": 6, "stack rows": 6, "svd": 1},
        "growth": {"eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 8, "svd": 1},
    },
}

#: the cost a cold record adds, the record built by the call: by the kind of
#: the generator's record, certified, ``expm`` branch or uncertified eigen
#: record (growth)
RECORD_COST = {
    "certified": {"cond": 1, "eig": 1, "eigvalsh": 1, "inv": 1, "norm": 4, "svd": 1},
    "expm": {"cond": 1, "eig": 1, "eigvalsh": 1, "norm": 1, "svd": 1},
    "growth": {"cond": 1, "eig": 1, "eigvalsh": 1, "inv": 1, "norm": 2, "svd": 1},
}

#: the kind of record of each generator of the cost table
COST_KINDS = {"n=1": "certified", "n=4": "certified", "n=16": "certified", "expm": "expm",
              "growth": "growth"}


def _route(route, h):
    """The call of ``route`` on the generator h; ``validate`` on the
    system ``make_system(h)`` built here."""
    system = make_system(h)
    return {"validate": lambda: validate(system, sigma=-1),
            "maslov_index_symplectic": lambda: maslov_index_symplectic(h),
            "conley_zehnder": lambda: conley_zehnder(h)}[route]


def _costs(call, *spied):
    """(the answer of ``call()``, its cost as in ``COST_TABLE``, and the
    calls of each (module, name) of ``spied``, counted under that name)."""
    calls = collections.Counter()

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    stack = maslov._FlowRecord.stack

    def stacking(record, ts):
        calls["stack rows"] += len(ts)
        return stack(record, ts)

    with pytest.MonkeyPatch.context() as patch:
        for name in np.linalg.__all__:
            fn = getattr(np.linalg, name)
            if callable(fn) and not isinstance(fn, type):
                patch.setattr(np.linalg, name, counter(name, fn))
        for module, name in spied:
            patch.setattr(module, name, counter(name, getattr(module, name)))
        patch.setattr(maslov._FlowRecord, "stack", stacking)
        answer = call()
    return answer, {k: v for k, v in calls.items() if all(k != name for _, name in spied)}, {
        name: calls[name] for _, name in spied}


def test_the_cost_generators_take_both_batch_sources():
    """The table covers both kinds of record of ``_flow_scans``: the
    records of n = 1, 4 and 16 are certified and take the factored
    source, the Jordan one takes the ``expm`` branch and the growth one
    is an eigen record that is not, so both take the generic scans."""
    records = {g: maslov._flow_record(h, None, numerics.DEFAULT_TOL)
               for g, h in COST_GENERATORS.items()}
    assert all(records[g].factors is not None for g in ("n=1", "n=4", "n=16"))
    assert records["expm"].eigen is None and records["expm"].factors is None
    assert records["growth"].eigen is not None and records["growth"].factors is None


def test_a_warm_validate_takes_a_pinned_set_of_linalg_calls():
    """One warm ``validate(system, sigma=-1)`` of each generator of the
    cost table (its flow record kept, the shared constants built) makes
    exactly the pinned ``numpy.linalg`` calls, counted by name, and reads
    the pinned stack rows, and classifies every signature without
    ``numerics._signatures``: a new decomposition on this path shows here.
    At n = 1 and 4 the three ``eigvalsh`` are one per size of the four
    triple forms, and the certified psi(1) takes no symplectic check."""
    assert validate(make_system(COST_GENERATORS["n=1"]), sigma=-1).formula_index is not None
    spied = [(module, "_signatures") for module in list(sys.modules.values())
             if getattr(module, "__name__", "").startswith("symindex")
             and getattr(module, "_signatures", None) is numerics._signatures]
    for g, h in COST_GENERATORS.items():
        call = _route("validate", h)
        want = call()
        answer, cost, others = _costs(call, *spied)
        assert answer == want and cost == COST_TABLE["validate"][g], g
        assert not any(others.values()), g


@pytest.mark.parametrize("route,pinned", [
    ("maslov_index_symplectic", COST_TABLE["maslov_index_symplectic"]),
    ("conley_zehnder", COST_TABLE["conley_zehnder"]),
    ("validate", COST_TABLE["validate"]),
])
def test_warm_flow_routes_scan_the_record_without_a_path(route, pinned):
    """A warm flow route of each generator of the cost table makes
    exactly the pinned ``numpy.linalg`` calls and stack rows.  On a
    certified record it scans the record without constructing a
    ``LagrangianPath``: one ``slogdet`` per batch for all its routes, one
    ``solve`` and ``eigvals`` (``eigh`` from size 12) for the last end's
    eigenphases, the t = 0 end being certified, and the two end rows of
    the stack.  The ``expm`` and the growth records take the generic scan
    of one path per route, which stacks every sample, takes its volumes
    (the SVD rank rule) and the phases of both ends, beside the two end
    rows of psi(1)."""
    scans = {"maslov_index_symplectic": 1, "conley_zehnder": 1, "validate": 2}[route]
    for g, h in COST_GENERATORS.items():
        call = _route(route, h)
        want = call()
        answer, cost, paths = _costs(call, (maslov.LagrangianPath, "__post_init__"))
        built = 0 if COST_KINDS[g] == "certified" else scans
        assert answer == want and cost == pinned[g] and paths == {"__post_init__": built}, g


@pytest.mark.parametrize("route", ["maslov_index_symplectic", "conley_zehnder", "validate"])
def test_a_cold_flow_route_takes_a_pinned_set_of_linalg_calls(route):
    """A flow route of each generator of the cost table on a cold record
    (the record cache cleared, the shared constants built) makes exactly
    the pinned ``numpy.linalg`` calls and stack rows of the warm route
    plus those of one record of its kind (``RECORD_COST``): the generator
    check, ``eigvalsh`` of its Hamiltonian form, ``eig`` with its ``cond``,
    and on the eigen branch ``inv``, the origin defect and, where the
    rank premise holds, the two norms of the certificate."""
    for g, h in COST_GENERATORS.items():
        call = _route(route, h)
        want = call()
        maslov._record_of.cache_clear()
        answer, cost, _ = _costs(call)
        cold = collections.Counter(COST_TABLE[route][g]) + collections.Counter(
            RECORD_COST[COST_KINDS[g]])
        assert answer == want and cost == cold, g


#: scan -> generator -> warm cost of a generic scan of a flow path built
#: in the call, as in ``COST_TABLE``, with the cells of its grid ("cells")
#: and the bisection rounds of ``_locate`` ("rounds"); a scan of a
#: certified record takes no ``_volumes``, so no SVD, on its samples
SCAN_COST_TABLE = {
    "orbit index": {
        "n=1": {"cells": 1, "eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 2},
        "n=4": {"cells": 5, "eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 6},
        "n=16": {"cells": 22, "eigh": 1, "slogdet": 2, "solve": 1, "stack rows": 23},
        "expm": {"cells": 3, "eigvals": 1, "slogdet": 1, "solve": 4, "stack rows": 4, "svd": 1},
        "growth": {"cells": 5, "eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 6, "svd": 1},
    },
    "graph index": {
        "n=1": {"cells": 1, "eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 2},
        "n=4": {"cells": 5, "eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 6},
        "n=16": {"cells": 22, "eigh": 1, "slogdet": 3, "solve": 1, "stack rows": 23},
        "expm": {"cells": 3, "eigvals": 1, "slogdet": 1, "solve": 4, "stack rows": 4, "svd": 1},
        "growth": {"cells": 5, "eigvals": 1, "slogdet": 1, "solve": 1, "stack rows": 6, "svd": 1},
    },
    "orbit crossings": {
        "n=1": {"cells": 256, "eigvals": 2, "eigvalsh": 1, "norm": 1, "slogdet": 2, "solve": 3,
                "stack rows": 259, "svd": 2},
        "n=4": {"cells": 256, "eigvals": 35, "eigvalsh": 2, "norm": 1, "rounds": 32,
                "slogdet": 35, "solve": 36, "stack rows": 293, "svd": 2},
        "n=16": {"cells": 256, "eigh": 50, "eigvals": 8, "eigvalsh": 2, "norm": 1, "rounds": 32,
                 "slogdet": 50, "solve": 51, "stack rows": 395, "svd": 2},
        "expm": {"cells": 256, "eigvals": 2, "eigvalsh": 2, "norm": 1, "slogdet": 2, "solve": 12,
                 "stack rows": 261, "svd": 4},
        "growth": {"cells": 256, "eigvals": 2, "eigvalsh": 1, "norm": 1, "slogdet": 2,
                   "solve": 3, "stack rows": 259, "svd": 4},
    },
}


def _scan_route(scan, h):
    """The call of ``scan`` of ``SCAN_COST_TABLE`` on the generator h."""
    n = len(h) // 2
    return {"orbit index": lambda: maslov.maslov_index(orbit_path(h), vertical_lagrangian(n)),
            "graph index": lambda: maslov.maslov_index(graph_path(h), diagonal_lagrangian(n)),
            "orbit crossings": lambda: maslov.find_crossings(orbit_path(h),
                                                             vertical_lagrangian(n))}[scan]


@pytest.mark.parametrize("scan", list(SCAN_COST_TABLE))
def test_a_warm_generic_scan_takes_a_pinned_set_of_linalg_calls(scan, monkeypatch):
    """A warm generic scan of a flow path of each generator of the cost
    table makes exactly the pinned ``numpy.linalg`` calls and stack rows,
    on the pinned cells and bisection rounds.  On a certified record the
    index scans take no SVD, and ``find_crossings`` only the two of
    ``_forms``, whose crossing forms take the orthonormal frames of
    their samples."""
    cost = collections.Counter()
    scan_times, phase_samples = maslov._scan_times, maslov._phase_samples

    def times(*args):
        ts = scan_times(*args)
        cost["cells"] += len(ts) - 1
        return ts

    def samples(*args, **kwargs):
        cost["rounds"] += int(sys._getframe(1).f_code.co_name == "_locate")
        return phase_samples(*args, **kwargs)

    monkeypatch.setattr(maslov, "_scan_times", times)
    monkeypatch.setattr(maslov, "_phase_samples", samples)
    for g, h in COST_GENERATORS.items():
        call = _scan_route(scan, h)
        want = call()
        cost.clear()
        answer, calls, _ = _costs(call)
        assert answer == want, g
        assert dict(calls, **{k: v for k, v in cost.items() if v}) == SCAN_COST_TABLE[scan][g], g


def _replaced(path):
    """The path with its frame function replaced, so it is not certified."""
    frame_fn = path.frame_fn
    return dataclasses.replace(path, frame_fn=lambda t: frame_fn(t))


def _scan_answers(path, ref):
    """Bit for bit: the index, the crossings (time, inertia,
    ``at_endpoint``) of ``find_crossings`` and the crossing form at each
    crossing time and at 1/2."""
    index = maslov.maslov_index(path, ref)
    scan = maslov.find_crossings(path, ref)
    crossings = [(float.hex(c.time), c.inertia, c.at_endpoint) for c in scan.crossings]
    forms = [tuple(np.ascontiguousarray(x).tobytes() for x in maslov.crossing_form(path, ref, t))
             for t in [c.time for c in scan.crossings] + [0.5]]
    return index, scan.index, scan.baseline_dim, crossings, forms


def _spied_checks(monkeypatch):
    """A counter of the calls of ``_volumes`` and ``_check_flat``."""
    calls = collections.Counter()

    def spy(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in ("_volumes", "_check_flat"):
        monkeypatch.setattr(maslov, name, spy(name, getattr(maslov, name)))
    return calls


@pytest.mark.parametrize("g", ["n=1", "n=4", "n=16"])
def test_certified_generic_scans_skip_the_checks_and_keep_their_answers(g, monkeypatch):
    """``maslov_index``, ``find_crossings`` and ``crossing_form`` of the
    orbit path against the vertical and of the graph path against the
    diagonal of a certified record call neither ``_volumes`` nor
    ``_check_flat``, and answer bit for bit as the same path with its
    frame function replaced, which takes both checks on every sample."""
    h = COST_GENERATORS[g]
    n = len(h) // 2
    calls = _spied_checks(monkeypatch)
    for path, ref in ((orbit_path(h), vertical_lagrangian(n)),
                      (graph_path(h), diagonal_lagrangian(n))):
        assert path.frame_fn.certified
        certified = _scan_answers(path, ref)
        assert not calls
        assert _scan_answers(_replaced(path), ref) == certified
        assert calls["_volumes"] == calls["_check_flat"] > 0
        calls.clear()


@pytest.mark.parametrize("g", ["n=1", "n=4", "n=16"])
def test_an_explicit_vertical_start_reads_the_one_certified_record(g, monkeypatch):
    """An orbit from an explicit vertical start, ``vertical_lagrangian(n)``
    or the same frame in a standard space built anew, builds no second
    flow record, calls neither ``_volumes`` nor ``_check_flat``, and
    answers bit for bit as ``orbit_path(h)``.  A start of the standard
    form with another frame reads the same record uncertified."""
    h = COST_GENERATORS[g]
    n = len(h) // 2
    vertical = vertical_lagrangian(n)
    anew = symplectic.lagrangian_frame(SymplecticSpace(symplectic.standard_J(n)),
                                       np.eye(2 * n)[:, n:])
    horizontal = symplectic.horizontal_lagrangian(n)
    want = _scan_answers(orbit_path(h), vertical)
    misses = maslov._record_of.cache_info().misses
    calls = _spied_checks(monkeypatch)
    for start in (vertical, anew):
        path = orbit_path(h, start)
        assert path.frame_fn.certified
        assert _scan_answers(path, vertical) == want
    assert not calls
    assert not orbit_path(h, horizontal).frame_fn.certified
    assert maslov._record_of.cache_info().misses == misses


def test_uncertified_batches_still_take_the_volumes(monkeypatch):
    """``_volumes`` runs on every batch of times not all in [0, 1] of a
    certified path on interval (-0.5, 1.5), and on no other of its
    batches (here the form at 1/2), and on every batch of an
    orbit from the horizontal, of the flow paths of the ``expm`` and
    growth generators of the cost table, and of a geodesic."""
    batches = []
    frames, volumes = maslov._frames, maslov._volumes

    def framing(path, ts, tol):
        batches.append([np.asarray(ts, dtype=float), False])
        return frames(path, ts, tol)

    def volume(ts, *args):
        batches[-1][1] = True
        return volumes(ts, *args)

    monkeypatch.setattr(maslov, "_frames", framing)
    monkeypatch.setattr(maslov, "_volumes", volume)
    h = COST_GENERATORS["n=4"]
    wide = orbit_path(h, None, (-0.5, 1.5))
    maslov.maslov_index(wide, vertical_lagrangian(4))
    maslov.find_crossings(wide, vertical_lagrangian(4))
    for t in (0.5, 1.25):
        maslov.crossing_form(wide, vertical_lagrangian(4), t)
    assert wide.frame_fn.certified
    windowed = [((ts >= 0.0) & (ts <= 1.0)).all() for ts, _ in batches]
    assert [took for _, took in batches] == [not inside for inside in windowed]
    assert any(windowed) and not all(windowed)
    batches.clear()
    paths = [(orbit_path(h, symplectic.horizontal_lagrangian(4)), vertical_lagrangian(4)),
             (maslov.unitary_geodesic(symplectic.horizontal_lagrangian(2),
                                      symplectic.random_lagrangian(2, 3), 2),
              symplectic.horizontal_lagrangian(2))]
    for g in ("expm", "growth"):
        n = len(COST_GENERATORS[g]) // 2
        paths += [(orbit_path(COST_GENERATORS[g]), vertical_lagrangian(n)),
                  (graph_path(COST_GENERATORS[g]), diagonal_lagrangian(n))]
    for path, ref in paths:
        assert not path.frame_fn.certified
        maslov.maslov_index(path, ref)
        maslov.find_crossings(path, ref)
    assert batches and all(took for _, took in batches)


def test_the_first_validate_of_a_process_decomposes_the_generator_once(
        cold_calibration, monkeypatch):
    """The calibration probes keep their records beside the one
    ``make_system`` built, so the first ``validate(make_system(h))`` with
    the calibrated sign finds h's record kept: one eig of h, and three
    record misses, h and the two probes."""
    h = random_hamiltonian(1, 1000, "semisimple-elliptic")
    eigs = []
    eig = np.linalg.eig

    def counted_eig(a, *args, **kwargs):
        eigs.append(np.shape(a) == h.shape and np.array_equal(a, h))
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted_eig)
    assert validate(make_system(h)).agree
    assert eigs.count(True) == 1 and maslov._record_of.cache_info().misses == 3


def test_validate_checks_grid_before_any_scan(cold_calibration, scan_count):
    system = make_system(plane_block_generator([("elliptic", 5.0)]))
    with pytest.raises(InputError, match="grid must be at least 64"):
        validate(system, grid=10)
    assert scan_count == []


def test_calibration_builds_one_flow_record_per_probe(monkeypatch, scan_count):
    """Each probe scans both routes from one record of its generator."""
    records = []
    record = maslov._flow_record

    def counting_record(*args, **kwargs):
        records.append(args)
        return record(*args, **kwargs)

    monkeypatch.setattr(maslov, "_flow_record", counting_record)
    assert calibrate_sign() == -1
    assert len(records) == 2
    assert len(scan_count) == 4


def test_calibration_entry_points_rerun_probes(cold_calibration, scan_count):
    assert calibrate_sign() == -1
    assert len(scan_count) == 4
    assert checks.check_calibration().passed
    assert len(scan_count) == 8


def test_calibration_failure_is_not_cached(cold_calibration, monkeypatch):
    calls = []

    def failing_matrix(psi1, tol, *args):
        calls.append(psi1)
        return np.zeros((1, 1))  # correction sign 0

    monkeypatch.setattr(autonomous, "_correction_matrix", failing_matrix)
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
    """Each draw evaluates psi(1) at most ``per_system`` times, as a
    ``HamiltonianSystem.psi`` call or a flow stack that reaches t = 1.
    Check 5 calls ``system.psi(1.0)``.  Check 9 calls no
    ``HamiltonianSystem.psi``: its guard stacks the flow record of the
    draw at 1, and the validate it gates samples the flow of that same
    record at 1 in its scans, so each draw builds one record."""
    psi_calls, stacks, misses = (collections.Counter() for _ in range(3))
    psi = HamiltonianSystem.psi
    stack = maslov._FlowRecord.stack
    record_of = maslov._record_of

    def counting_psi(self, t):
        psi_calls[self.h.tobytes()] += 1
        return psi(self, t)

    def counting_stack(record, ts):
        stacks[record.h.tobytes()] += int(ts[-1] == 1.0)
        return stack(record, ts)

    def counting_record(data, *key):
        before = record_of.cache_info().misses
        record = record_of(data, *key)
        misses[data] += record_of.cache_info().misses - before
        return record

    checks._coupling_sign(None, numerics.DEFAULT_TOL)  # calibrated before the draws
    monkeypatch.setattr(HamiltonianSystem, "psi", counting_psi)
    monkeypatch.setattr(maslov._FlowRecord, "stack", counting_stack)
    monkeypatch.setattr(maslov, "_record_of", counting_record)
    assert check().passed
    evaluations = psi_calls + stacks
    assert evaluations and max(evaluations.values()) <= per_system
    if check is checks.check_main_identity:
        assert not psi_calls
        assert len(misses) >= 50 and set(misses.values()) == {1}


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


def _growth_map():
    """psi(1) of 20 random_hamiltonian(2, 5007, "hyperbolic"), |psi(1)| ~ 1.6e12:
    X = C + (D - I) B^-1 (I - A) cancels to an asymmetry about 1.7e4
    times the bound (ROADMAP item 9's k = 20 census)."""
    return make_system(20.0 * random_hamiltonian(2, 5007, "hyperbolic")).psi(1.0)


@pytest.mark.parametrize("call,patch,error,message", [
    (lambda: autonomous._correction_matrix(_growth_map(), numerics.DEFAULT_TOL), None,
     SymmetryDefect, "correction matrix defect "),
    (lambda: calibrate_sign(), ("_correction_matrix", lambda psi1, tol, *args: np.ones((1, 1))),
     CalibrationFailure, "probes disagree: [-1, 1]"),
], ids=["symmetry-defect", "probes-disagree"])
def test_formula_layer_refusals(monkeypatch, call, patch, error, message):
    """A correction matrix that rounding left asymmetric, and probes
    that fix opposite signs (a constant correction sign against the
    gaps -1/2 at speed 2 and +1/2 at speed 5)."""
    if patch is not None:
        monkeypatch.setattr(autonomous, *patch)
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


def test_correction_symmetry_draws_imply_the_corner_rule(monkeypatch):
    """Check 4's guard s_min(B) > 1e-3 implies ``_corner_invertible``
    (s_min(B) > 1e-9 max(|B|, 1)) while |B| < 1e6, so adding that rule to
    the one transversal guard moves none of its draws: their largest
    |B| is about 2.4."""
    norms = []
    transversal = checks._transversal

    def recording(psi1, tol):
        norms.append(np.linalg.norm(split_blocks(psi1)[1], 2))
        return transversal(psi1, tol)

    monkeypatch.setattr(checks, "_transversal", recording)
    assert checks.check_correction_symmetry().passed
    assert len(norms) == 50 and max(norms) < 1e6
