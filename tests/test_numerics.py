"""Inertia bookkeeping, signature bands, and exact half-integers."""

import inspect

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from symindex import (
    DEFAULT_TOL,
    HalfInt,
    Inertia,
    Tolerances,
    plane_block_generator,
    random_hamiltonian,
    standard_J,
)
from symindex.errors import AsymmetricInput, NonHermitianInput
from symindex import numerics
from symindex.halfint import ZERO
from symindex.numerics import (
    _PADE,
    _pade_plan,
    band_counts,
    expm,
    herm_signature,
    kernel_basis,
    orthonormal_columns,
    spectral_norm,
    stable_signature,
    sym_signature,
)


def test_inertia_of_known_diagonal():
    inertia = sym_signature(np.diag([2.0, -3.0, 0.0]), DEFAULT_TOL)
    assert inertia == Inertia(1, 1, 1)
    assert inertia.signature == 0
    assert inertia.dim == 3
    assert inertia.pair == (1, 1)


def test_zero_band_has_an_absolute_floor():
    # the band is eps_sign * (1 + the largest |eigenvalue|), never below 1e-8
    tiny = np.diag([1e-9, -2e-9])
    assert sym_signature(tiny, DEFAULT_TOL) == Inertia(0, 0, 2)
    assert herm_signature(tiny.astype(complex), DEFAULT_TOL) == Inertia(0, 0, 2)
    assert sym_signature(np.zeros((3, 3)), DEFAULT_TOL) == Inertia(0, 0, 3)


@pytest.mark.parametrize("fn", [sym_signature, herm_signature, stable_signature, band_counts])
def test_signature_scale_is_not_a_parameter(fn):
    assert "scale" not in inspect.signature(fn).parameters


def test_signature_band_is_relative():
    m = np.diag([5.0, 1e-12])
    assert sym_signature(m, DEFAULT_TOL) == Inertia(1, 0, 1)
    assert sym_signature(np.diag([5.0, 1e-3]), DEFAULT_TOL) == Inertia(2, 0, 0)


def test_asymmetric_input_rejected():
    with pytest.raises(AsymmetricInput):
        sym_signature(np.array([[0.0, 1.0], [0.0, 0.0]]), DEFAULT_TOL)


def test_hermitian_signature_of_minus_i_J():
    g = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    assert herm_signature(g, DEFAULT_TOL) == Inertia(1, 1, 0)
    with pytest.raises(NonHermitianInput):
        herm_signature(np.array([[0.0, 1.0j], [1.0j, 0.0]]), DEFAULT_TOL)


def test_gray_band_flags_only_ambiguous_eigenvalues():
    # band 2e-8, margin 2e-5 at scale 1 + 1: 1e-7 is neither zero nor clear
    inertia, stable = stable_signature(np.diag([1.0, 1e-7]), 1e-5, DEFAULT_TOL)
    assert inertia == Inertia(2, 0, 0)
    assert not stable
    inertia, stable = stable_signature(np.diag([1.0, -1e-3]), 1e-5, DEFAULT_TOL)
    assert inertia == Inertia(1, 1, 0)
    assert stable


def test_gray_band_keeps_zero_band_and_symmetry_check():
    m = np.diag([1.0, 1e-12, 0.0])
    inertia, stable = stable_signature(m, 1e-5, DEFAULT_TOL)
    assert inertia == sym_signature(m, DEFAULT_TOL) == Inertia(1, 0, 2)
    assert stable
    with pytest.raises(AsymmetricInput):
        stable_signature(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-5, DEFAULT_TOL)


@pytest.mark.parametrize("hermitian", [False, True], ids=["symmetric", "hermitian"])
def test_signatures_of_mixed_sizes_equal_the_signature_of_each(hermitian):
    """Matrices of several sizes share one band_counts, their eigenvalue
    rows padded with zeros; every count and gray-band flag equals that of
    the matrix alone, zero-band, gray and empty matrices included."""
    rng = np.random.default_rng(17)
    mats = [np.diag([1.0, 1e-7]), np.zeros((0, 0)), np.diag([5.0, 1e-12, -2.0]),
            np.diag([-1e-9]), np.zeros((3, 3))]
    for m in (1, 3, 6, 3, 2):
        a = rng.standard_normal((m, m)) + (1j * rng.standard_normal((m, m)) if hermitian else 0)
        mats.append(a + a.conj().T)
    if hermitian:
        mats = [m.astype(complex) for m in mats]
    n_pos, n_neg, stable = numerics._signatures(mats, DEFAULT_TOL, 1e-5, hermitian)
    alone = [numerics._signatures([m], DEFAULT_TOL, 1e-5, hermitian) for m in mats]
    assert [(p[0], q[0], ok[0]) for p, q, ok in alone] == list(zip(n_pos, n_neg, stable))
    signature = herm_signature if hermitian else sym_signature
    assert [signature(m).pair for m in mats] == list(zip(n_pos.tolist(), n_neg.tolist()))
    assert not stable[0] and stable[2]


def test_spectral_norm_is_the_2_norm_bit_for_bit():
    """The largest singular value alone is the float np.linalg.norm(m, 2)
    gives, on seeded real and complex matrices of every shape up to 6 x 6;
    an empty matrix has norm 0."""
    rng = np.random.default_rng(17)
    for rows in range(1, 7):
        for cols in range(1, 7):
            for scale in (1e-8, 1.0, 1e6):
                m = scale * rng.standard_normal((rows, cols))
                c = m + 1j * scale * rng.standard_normal((rows, cols))
                assert spectral_norm(m) == np.linalg.norm(m, 2)
                assert spectral_norm(c) == np.linalg.norm(c, 2)
    for shape in ((0, 0), (0, 3), (3, 0)):
        assert spectral_norm(np.zeros(shape)) == 0.0 == np.linalg.norm(np.zeros(shape), 2)


def test_kernel_basis():
    k = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), DEFAULT_TOL)
    assert k.shape == (2, 1)
    np.testing.assert_allclose(np.abs(k.ravel()), [0.0, 1.0], atol=1e-12)


def test_rank_and_orthonormalization():
    f = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    q = orthonormal_columns(f, DEFAULT_TOL)
    assert q.shape == (3, 2)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def test_expm_matches_scipy_on_seeded_generators():
    """The library's expm is within 1e-12 of scipy.linalg.expm (relative,
    Frobenius) on 240 seeded generators: n = 1..8, four profiles, scales
    1..4, so every Padé degree from 7 up and up to 5 squarings."""
    profiles = ("generic", "semisimple-elliptic", "hyperbolic", "mixed")
    plans = set()
    for s in range(240):
        h = (1 + s % 4) * random_hamiltonian(1 + s % 8, 4000 + s, profiles[s % 4])
        e = expm(h)
        assert e.dtype == np.float64
        assert _relative(e, scipy.linalg.expm(h)) < 1e-12, s
        plans.add(_pade_plan(float(np.abs(h).sum(axis=0).max())))
    assert len(plans) >= 6


def _complex_generator(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("m", [
    pytest.param(300.0 * standard_J(1), id="300 J"),
    pytest.param(plane_block_generator([("hyperbolic", 22.0)]), id="hyperbolic 22"),
    pytest.param(SHEAR, id="nilpotent shear"),
    pytest.param(-7.5 * SHEAR.T, id="scaled shear"),
    pytest.param(np.array([[2.5]]), id="1x1"),
    pytest.param(np.array([[-40.0 + 3.0j]]), id="1x1 complex"),
    pytest.param(_complex_generator(3, 1), id="complex"),
    pytest.param(3.0 * _complex_generator(5, 2), id="complex squared"),
    pytest.param(1j * np.pi * np.eye(4) + 0.5 * (_complex_generator(4, 3)
                                                 - _complex_generator(4, 3).conj().T),
                 id="skew-hermitian geodesic generator"),
    pytest.param(1e-9 * standard_J(2), id="tiny"),
    pytest.param(np.zeros((4, 4)), id="zero"),
])
def test_expm_matches_scipy_on_edge_inputs(m):
    e = expm(m)
    assert e.shape == m.shape and e.dtype == np.result_type(m.dtype, float)
    assert _relative(e, scipy.linalg.expm(m)) < 1e-12


def test_expm_of_the_shear_is_exact():
    """exp(t N) = I + t N for the nilpotent shear: every Padé degree is
    exact on it."""
    for t in (0.01, 1.0, 37.0):
        np.testing.assert_allclose(expm(t * SHEAR), np.eye(2) + t * SHEAR, rtol=0, atol=1e-15 * t)


@pytest.mark.parametrize("m", [3.0 * random_hamiltonian(3, 5, "mixed"), SHEAR,
                               _complex_generator(2, 4), np.array([[1.5]])],
                         ids=["mixed", "shear", "complex", "1x1"])
def test_expm_of_a_stack_equals_one_call_per_time(m):
    """A stack of t m, whose matrices take different Padé degrees and
    squarings, equals expm at each time alone, bit for bit."""
    ts = np.concatenate([np.linspace(-3.0, 3.0, 257), [0.0, 1e-9, np.pi / 7, 40.0]])
    stack = expm(ts[:, None, None] * m)
    assert stack.shape == (len(ts),) + m.shape
    assert np.array_equal(stack, np.stack([expm(t * m) for t in ts]))
    assert len({_pade_plan(float(np.abs(t * m).sum(axis=0).max())) for t in ts}) >= 5


def test_pade_degree_is_the_lowest_whose_theta_bounds_the_norm():
    """Degrees 3, 5, 7, 9 and 13 up to their thetas, then degree 13 with
    one squaring per doubling of the norm."""
    for index, (theta, _) in enumerate(_PADE):
        assert _pade_plan(theta) == (index, 0)
        above = np.nextafter(theta, np.inf)
        assert _pade_plan(above) == ((index + 1, 0) if index < 4 else (4, 1))
    assert _pade_plan(0.0) == (0, 0)
    assert _pade_plan(300.0) == (4, 6)
    assert _pade_plan(float("nan")) == (4, 0)


def test_tolerances_are_frozen_defaults():
    assert DEFAULT_TOL.eps_rank == 1e-9
    assert DEFAULT_TOL.eps_sym == 1e-8
    assert DEFAULT_TOL.eps_sign == 1e-8
    with pytest.raises(Exception):
        DEFAULT_TOL.eps_rank = 1.0
    loose = Tolerances(eps_rank=1e-6, eps_sym=DEFAULT_TOL.eps_sym,
                       eps_sign=DEFAULT_TOL.eps_sign)
    assert loose.eps_rank == 1e-6


@pytest.mark.parametrize("field", ["eps_rank", "eps_sym", "eps_sign"])
@pytest.mark.parametrize("value", [0.0, -1e-9, 1.0, 2.0, float("inf"), float("nan"), 1])
def test_tolerances_lie_in_the_open_unit_interval(field, value):
    """A band of 1 or more holds every defect and eigenvalue: with
    eps_sym = inf a random 2 x 2 matrix passed as Hamiltonian, and with
    eps_sign = 2 sym_signature(I_2) read (0, 0, 2)."""
    with pytest.raises(ValueError, match="%s must be a float in \\(0, 1\\)" % field):
        Tolerances(**{field: value})


def test_halfint_rendering():
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt(-1)) == "-1/2"
    assert str(ZERO) == "0"
    assert HalfInt.parse("-5/2") == HalfInt(-5)
    assert HalfInt.parse("7") == HalfInt.from_int(7)


def test_halfint_from_int_takes_only_integers():
    """An index value is never rounded through a float: a float, numpy
    float, bool, string or None raises TypeError (2.7 read as 2 and a
    numpy 0.5 as 0); Python and numpy integers pass."""
    for bad in (2.7, 2.0, np.float64(0.5), True, np.bool_(True), "2", None):
        with pytest.raises(TypeError):
            HalfInt.from_int(bad)
    for k in (3, -4, np.int64(3), np.int32(-4), np.uint8(3)):
        assert HalfInt.from_int(k) == HalfInt(2 * int(k))
        assert type(HalfInt.from_int(k).twice) is int


def test_halfint_refuses_a_bool_and_scales_by_numpy_integers():
    """A bool is no index value: ``HalfInt(True)`` and a scale by True
    raise TypeError, as ``from_int`` does.  A scale takes every other
    Integral, numpy integers too, and keeps a Python int; a float
    scale raises TypeError."""
    for bad in (lambda: HalfInt(True), lambda: HalfInt(np.int64(1)),
                lambda: HalfInt(1) * True, lambda: False * HalfInt(1),
                lambda: HalfInt(1) * 2.0, lambda: HalfInt(1) * np.float64(2.0)):
        with pytest.raises(TypeError):
            bad()
    for k in (3, np.int64(2), np.int32(-4), np.uint8(3)):
        scaled = HalfInt(3) * k
        assert scaled == HalfInt(3 * int(k)) and type(scaled.twice) is int


def test_halfint_arithmetic():
    a = HalfInt(3)   # 3/2
    b = HalfInt(-1)  # -1/2
    assert a + b == HalfInt.from_int(1)
    assert a - b == HalfInt(4)
    assert -a == HalfInt(-3)
    assert a.is_integer is False
    assert (a + a).is_integer is True
    assert HalfInt(1) < HalfInt(2)


@settings(max_examples=50, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_halfint_addition_is_exact_and_associative(x, y, z):
    a, b, c = HalfInt(x), HalfInt(y), HalfInt(z)
    assert (a + b) + c == a + (b + c)
    assert a + b - b == a
    assert float(a) == x / 2.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from([-4.0, -1.0, 0.0, 2.0, 7.0]), min_size=1, max_size=6),
       st.integers(-6, 6))
def test_signature_matches_diagonal_count(diag, k):
    d = np.array(diag) * 10.0 ** k
    inertia = sym_signature(np.diag(d), DEFAULT_TOL)
    assert inertia.n_pos == int(np.sum(d > 0))
    assert inertia.n_neg == int(np.sum(d < 0))
    assert inertia.n_zero == int(np.sum(d == 0))
