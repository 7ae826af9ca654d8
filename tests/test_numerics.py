"""Inertia bookkeeping, signature bands, and exact half-integers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symindex import DEFAULT_TOL, HalfInt, Inertia, Tolerances
from symindex.errors import AsymmetricInput, NonHermitianInput
from symindex.halfint import ZERO
from symindex.numerics import (
    herm_signature,
    kernel_basis,
    numerical_rank,
    orthonormal_columns,
    stable_signature,
    sym_signature,
)


def test_inertia_of_known_diagonal():
    inertia = sym_signature(np.diag([2.0, -3.0, 0.0]), DEFAULT_TOL)
    assert inertia == Inertia(1, 1, 1)
    assert inertia.signature == 0
    assert inertia.dim == 3
    assert inertia.pair == (1, 1)


def test_zero_form_needs_scale_override():
    # a relative band alone would call the zero matrix empty of zeros
    z = np.zeros((3, 3))
    assert sym_signature(z, DEFAULT_TOL, scale=1.0) == Inertia(0, 0, 3)


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
    # band 1e-8, margin 1e-5 at scale 1: 1e-7 is neither zero nor clear
    inertia, stable = stable_signature(np.diag([1.0, 1e-7]), 1e-5, DEFAULT_TOL, scale=1.0)
    assert inertia == Inertia(2, 0, 0)
    assert not stable
    inertia, stable = stable_signature(np.diag([1.0, -1e-3]), 1e-5, DEFAULT_TOL, scale=1.0)
    assert inertia == Inertia(1, 1, 0)
    assert stable


def test_gray_band_keeps_zero_band_and_symmetry_check():
    m = np.diag([1.0, 1e-12, 0.0])
    inertia, stable = stable_signature(m, 1e-5, DEFAULT_TOL, scale=1.0)
    assert inertia == sym_signature(m, DEFAULT_TOL, scale=1.0) == Inertia(1, 0, 2)
    assert stable
    with pytest.raises(AsymmetricInput):
        stable_signature(np.array([[0.0, 1.0], [0.0, 0.0]]), 1e-5, DEFAULT_TOL)


def test_kernel_basis():
    k = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]), DEFAULT_TOL)
    assert k.shape == (2, 1)
    np.testing.assert_allclose(np.abs(k.ravel()), [0.0, 1.0], atol=1e-12)


def test_rank_and_orthonormalization():
    f = np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    assert numerical_rank(f, DEFAULT_TOL) == 2
    q = orthonormal_columns(f, DEFAULT_TOL)
    assert q.shape == (3, 2)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)


def test_tolerances_are_frozen_defaults():
    assert DEFAULT_TOL.eps_rank == 1e-9
    assert DEFAULT_TOL.eps_sym == 1e-8
    assert DEFAULT_TOL.eps_sign == 1e-8
    with pytest.raises(Exception):
        DEFAULT_TOL.eps_rank = 1.0
    loose = Tolerances(eps_rank=1e-6, eps_sym=DEFAULT_TOL.eps_sym,
                       eps_sign=DEFAULT_TOL.eps_sign)
    assert loose.eps_rank == 1e-6


def test_halfint_rendering():
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt(-1)) == "-1/2"
    assert str(ZERO) == "0"
    assert HalfInt.parse("-5/2") == HalfInt(-5)
    assert HalfInt.parse("7") == HalfInt.from_int(7)


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
@given(st.lists(st.sampled_from([-4.0, -1.0, 0.0, 2.0, 7.0]), min_size=1, max_size=6))
def test_signature_matches_diagonal_count(diag):
    d = np.array(diag)
    inertia = sym_signature(np.diag(d), DEFAULT_TOL, scale=float(max(np.max(np.abs(d)), 1.0)))
    assert inertia.n_pos == int(np.sum(d > 0))
    assert inertia.n_neg == int(np.sum(d < 0))
    assert inertia.n_zero == int(np.sum(d == 0))
