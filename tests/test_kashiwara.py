"""Triple index of Lagrangian frames and its reductions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symindex import (
    HalfInt,
    SymplecticSpace,
    hormander_index,
    horizontal_lagrangian,
    kashiwara_form,
    kashiwara_index,
    kashiwara_reduced,
    kashiwara_transversal,
    lagrangian_frame,
    maslov_index,
    random_lagrangian,
    transversal_triple,
    unitary_geodesic,
    vertical_lagrangian,
)
from symindex.errors import DegenerateForm, DimensionMismatch, KNotAdmissible
from symindex.symplectic import diagonal_lagrangian


def _line(c, s):
    space = SymplecticSpace.standard(1)
    return lagrangian_frame(space, np.array([[float(c)], [float(s)]]))


def test_normalization_triple():
    # (horizontal, first diagonal, vertical) is the positively oriented
    # elementary triple; its index is +1
    space = SymplecticSpace.standard(1)
    tau = kashiwara_index(space, _line(1, 0), _line(1, 1), _line(0, 1))
    assert tau == 1


def test_form_of_normalization_triple():
    space = SymplecticSpace.standard(1)
    m = kashiwara_form(space, _line(1, 0), _line(1, 1), _line(0, 1))
    assert m.shape == (3, 3)
    np.testing.assert_allclose(m, m.T, atol=1e-12)
    # frozen characteristic polynomial: l^3 - l/2 + 1/8
    coeffs = np.poly(m)
    np.testing.assert_allclose(coeffs, [1.0, 0.0, -0.5, 0.125], atol=1e-9)


def test_hand_evaluated_line_triples():
    space = SymplecticSpace.standard(1)
    h, v = _line(1, 0), _line(0, 1)
    assert kashiwara_index(space, h, v, _line(1, 1)) == -1
    assert kashiwara_index(space, h, v, _line(1, -1)) == 1


def test_repeated_slot_gives_zero():
    space = SymplecticSpace.standard(1)
    h, v = _line(1, 0), _line(0, 1)
    assert kashiwara_index(space, h, h, v) == 0
    assert kashiwara_index(space, h, v, v) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_antisymmetry_under_swaps(seed):
    rng = np.random.default_rng(seed)
    space = SymplecticSpace.standard(2)
    l1, l2, l3 = (random_lagrangian(2, rng) for _ in range(3))
    tau = kashiwara_index(space, l1, l2, l3)
    assert kashiwara_index(space, l2, l1, l3) == -tau
    assert kashiwara_index(space, l1, l3, l2) == -tau
    assert kashiwara_index(space, l2, l3, l1) == tau  # cyclic


def test_transversal_closed_form():
    for d in ([2.0, 3.0], [2.0, -3.0], [-1.0, -4.0]):
        a = np.diag(d)
        want = int(np.sum(np.sign(d)))
        assert kashiwara_transversal(a) == want
        space, l1, l2, l3 = transversal_triple(a)
        assert kashiwara_index(space, l1, l2, l3) == want


def test_transversal_rejects_singular():
    with pytest.raises(DegenerateForm):
        kashiwara_transversal(np.diag([1.0, 0.0]))


def test_hormander_line_quadruple():
    space = SymplecticSpace.standard(1)
    h, v = _line(1, 0), _line(0, 1)
    s = hormander_index(space, h, v, _line(1, 1), _line(1, -1))
    assert s == HalfInt.from_int(1)


def test_hormander_equals_index_difference():
    """The four-slot index measures how the path index changes when the
    reference moves, independently of the connecting path."""
    space = SymplecticSpace.standard(2)
    l_start = random_lagrangian(2, 101)
    l_end = random_lagrangian(2, 202)
    ref0 = random_lagrangian(2, 303)
    ref1 = random_lagrangian(2, 404)
    path = unitary_geodesic(l_start, l_end, 0)
    diff = maslov_index(path, ref1) - maslov_index(path, ref0)
    assert hormander_index(space, ref0, ref1, l_start, l_end) == diff


def test_reduced_index_matches_ambient():
    space = SymplecticSpace.standard(2)
    k = np.zeros((4, 1))
    k[0, 0] = 1.0  # span(e1), inside horizontal and inside span(e1, e4)
    l1 = horizontal_lagrangian(2)
    f2 = np.zeros((4, 2))
    f2[0, 0] = 1.0
    f2[3, 1] = 1.0
    l2 = lagrangian_frame(space, f2)
    l3 = random_lagrangian(2, 9)
    ambient = kashiwara_index(space, l1, l2, l3)
    reduced = kashiwara_reduced(space, k, l1, l2, l3)
    assert reduced == ambient


def test_reduction_requires_containment_in_two():
    space = SymplecticSpace.standard(2)
    k = np.zeros((4, 1))
    k[0, 0] = 1.0
    v = vertical_lagrangian(2)
    f2 = np.zeros((4, 2))
    f2[1, 0] = 1.0
    f2[2, 1] = 1.0
    l2 = lagrangian_frame(space, f2)  # span(e2, e3), does not contain e1
    l3 = random_lagrangian(2, 10)
    with pytest.raises(KNotAdmissible):
        kashiwara_reduced(space, k, v, l2, l3)


def test_index_parity_matches_dimension_defects():
    # tau has the parity of n + dim sums of pairwise meets; spot-check on
    # transversal triples where all meets vanish
    space = SymplecticSpace.standard(3)
    a = np.diag([1.0, 2.0, -1.0])
    _, l1, l2, l3 = transversal_triple(a)
    tau = kashiwara_index(space, l1, l2, l3)
    assert (tau - 3) % 2 == 0


def test_frames_of_another_space_of_equal_dimension_rejected():
    """The diagonal of the graph product over R^2 is a 4-dimensional
    frame too, but of a different form than the standard R^4."""
    with pytest.raises(DimensionMismatch):
        kashiwara_index(SymplecticSpace.standard(2), diagonal_lagrangian(1),
                        vertical_lagrangian(2), horizontal_lagrangian(2))
