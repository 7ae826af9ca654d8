"""Symplectic linear algebra: spaces, frames, reduction, ensembles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symindex import (
    DEFAULT_TOL,
    NotLagrangian,
    SymplecticSpace,
    darboux_frame,
    diagonal_lagrangian,
    graph_lagrangian,
    horizontal_lagrangian,
    intersection_dim,
    is_hamiltonian,
    is_symplectic,
    lagrangian_frame,
    maslov_index_symplectic,
    plane_block_generator,
    random_hamiltonian,
    random_lagrangian,
    random_symplectic,
    standard_J,
    subspace_intersection,
    symplectic_orthogonal,
    vertical_lagrangian,
)
from symindex.errors import (DimensionMismatch, InputError, KNotAdmissible, NotHamiltonian,
                             NotIsotropic, OddDimension)
from symindex.numerics import orthonormal_columns
from symindex.symplectic import (
    SymplecticReduction,
    loxodromic_generator,
    product_lagrangian,
    random_lagrangian_of,
    same_span,
)


def test_standard_form():
    j = standard_J(2)
    expected = np.block([
        [np.zeros((2, 2)), -np.eye(2)],
        [np.eye(2), np.zeros((2, 2))],
    ])
    np.testing.assert_array_equal(j, expected)
    space = SymplecticSpace.standard(2)
    assert space.dim == 4 and space.half_dim == 2
    # omega(e1, e3) = 1 in the x,y split
    e = np.eye(4)
    assert space.omega(e[:, 0], e[:, 2]) == pytest.approx(1.0)
    assert space.omega(e[:, 2], e[:, 0]) == pytest.approx(-1.0)


def test_product_space_form():
    space = SymplecticSpace.graph_product(1)
    j = standard_J(1)
    np.testing.assert_array_equal(space.form[:2, :2], -j)
    np.testing.assert_array_equal(space.form[2:, 2:], j)
    assert space.dim == 4


def test_space_copies_its_form():
    j = standard_J(1)
    space = SymplecticSpace(j)
    j[0, 1] = 7.0
    assert space.form[0, 1] == -1.0
    with pytest.raises(ValueError):
        space.form[0, 1] = 7.0


def test_standard_spaces_and_reference_frames_are_shared_and_read_only():
    for make in (SymplecticSpace.standard, SymplecticSpace.graph_product,
                 vertical_lagrangian, horizontal_lagrangian, diagonal_lagrangian):
        shared = make(2)
        assert make(2) is shared
        data = shared.form if isinstance(shared, SymplecticSpace) else shared.frame
        with pytest.raises(ValueError):
            data[0, 0] = 1.0
    assert vertical_lagrangian(2).space is SymplecticSpace.standard(2)
    assert diagonal_lagrangian(2).space is SymplecticSpace.graph_product(2)


def test_reference_caches_keep_argument_types_apart():
    """SymplecticSpace.standard and vertical_lagrangian at 2.0 and True
    raise the InputError of standard_J, whether or not 2 and 1 are in
    the cache: 2.0 == 2 and True == 1 would collide as keys of an untyped
    cache."""
    makers = (SymplecticSpace.standard, vertical_lagrangian,
              lambda n: vertical_lagrangian(n, DEFAULT_TOL))

    def outcomes():
        got = []
        for make in makers:
            for n in (2.0, True):
                try:
                    got.append(make(n).dim if make is makers[0] else make(n).n)
                except InputError:
                    got.append(InputError)
        return got

    SymplecticSpace.standard.cache_clear()
    vertical_lagrangian.cache_clear()
    cold = outcomes()
    assert cold == [InputError] * 6
    for make in makers:
        make(2)
        make(1)
    assert outcomes() == cold


def test_is_standard():
    assert SymplecticSpace(standard_J(2)).is_standard()
    assert SymplecticSpace.standard(3).is_standard()
    assert not SymplecticSpace(2.0 * standard_J(1)).is_standard()
    assert not SymplecticSpace(-standard_J(1)).is_standard()
    assert not SymplecticSpace.graph_product(1).is_standard()


def test_pairing_of_horizontal_and_vertical():
    # raw coordinate frames, so the answer is exactly the identity and
    # not spoiled by sign choices of the orthonormalizer
    space = SymplecticSpace.standard(3)
    h = np.vstack([np.eye(3), np.zeros((3, 3))])
    v = np.vstack([np.zeros((3, 3)), np.eye(3)])
    np.testing.assert_allclose(space.pairing(h, v), np.eye(3), atol=1e-12)
    np.testing.assert_allclose(space.pairing(v, h), -np.eye(3), atol=1e-12)


def test_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        SymplecticSpace(np.array([[0.0, 1.0, 0.0],
                                  [-1.0, 0.0, 0.0],
                                  [0.0, 0.0, 0.0]])[:3, :3])


def test_non_isotropic_span_is_not_lagrangian():
    space = SymplecticSpace.standard(2)
    f = np.zeros((4, 2))
    f[0, 0] = 1.0  # e1
    f[2, 1] = 1.0  # e3, and omega(e1, e3) = 1
    with pytest.raises(NotLagrangian):
        lagrangian_frame(space, f)


def test_rank_deficient_frame_rejected():
    space = SymplecticSpace.standard(2)
    f = np.zeros((4, 2))
    f[0, 0] = 1.0
    f[0, 1] = 2.0
    with pytest.raises(NotLagrangian):
        lagrangian_frame(space, f)


def test_subspace_intersection():
    space = SymplecticSpace.standard(2)
    h = horizontal_lagrangian(2)
    other = np.zeros((4, 2))
    other[0, 0] = 1.0
    other[3, 1] = 1.0
    meet = subspace_intersection(h.frame, other)
    assert meet.shape[1] == 1
    assert same_span(meet, np.array([[1.0], [0.0], [0.0], [0.0]]))
    assert intersection_dim(h, lagrangian_frame(space, other)) == 1


def test_graph_and_diagonal_lagrangians():
    m = random_symplectic(2, 5)
    gr = graph_lagrangian(m)
    assert gr.space.dim == 8
    # identity graph equals the diagonal
    diag = diagonal_lagrangian(2)
    assert same_span(graph_lagrangian(np.eye(4)).frame, diag.frame)
    assert intersection_dim(gr, diag) == intersection_dim(diag, gr)


def test_symplectic_orthogonal_of_isotropic_line():
    space = SymplecticSpace.standard(2)
    k = np.array([[1.0], [0.0], [1.0], [0.0]])
    perp = symplectic_orthogonal(space, k)
    assert perp.shape[1] == 3
    # K-perp = {w3 = w1}
    for col in perp.T:
        assert col[2] == pytest.approx(col[0], abs=1e-12)


def test_reduction_known_lifts():
    """Reducing by K = span(1,0,1,0) sends both coordinate Lagrangians
    to frozen spans through lift(project(.))."""
    space = SymplecticSpace.standard(2)
    k = np.array([[1.0], [0.0], [1.0], [0.0]])
    red = SymplecticReduction(space, k)
    assert red.space.dim == 2
    lift_h = red.lift(red.project(horizontal_lagrangian(2)))
    lift_v = red.lift(red.project(vertical_lagrangian(2)))
    want_h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])
    want_v = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert same_span(lift_h.frame, want_h)
    assert same_span(lift_v.frame, want_v)


def _quotient_image(red, l):
    """The reduced frame of ``l`` as project built it before: the span of
    l & K-sharp from ``subspace_intersection``, in the reduced basis."""
    sharp = symplectic_orthogonal(red.ambient, red.k)
    return orthonormal_columns(red.basis.T @ subspace_intersection(l.frame, sharp))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_projection_of_lagrangians_that_contain_k(n):
    """K = diagonal & L0 x L0 lies in both, so (omega K)^T Q is rounding:
    its rank is read against the form, and the whole of L is in K-sharp.
    Both project to their former spans, and so does a graph that does
    not contain K."""
    space = SymplecticSpace.graph_product(n)
    diag = diagonal_lagrangian(n)
    pair = product_lagrangian(vertical_lagrangian(n), vertical_lagrangian(n))
    red = SymplecticReduction(space, subspace_intersection(diag.frame, pair.frame))
    for l in (diag, pair, graph_lagrangian(random_symplectic(n, 60 + n))):
        p = red.project(l)
        assert p.space is red.space and p.frame.shape == (2 * n, n)
        np.testing.assert_allclose(p.frame.T @ p.frame, np.eye(n), atol=1e-12)
        assert same_span(p.frame, _quotient_image(red, l))


def test_graph_frame_is_orthonormal_and_needs_a_symplectic_map():
    """[I; m] has every singular value at least 1, so one QR orthonormalizes
    it, even for a map of norm 1e6; a map that is not symplectic fails the
    isotropy check."""
    for m in (random_symplectic(3, 2), np.diag([1e6, 2.0, 1e-6, 0.5])):
        d = m.shape[0]
        f = graph_lagrangian(m).frame
        np.testing.assert_allclose(f.T @ f, np.eye(d), atol=1e-12)
        assert same_span(f, np.vstack([np.eye(d), m]))
    with pytest.raises(NotLagrangian, match="isotropy"):
        graph_lagrangian(2.0 * random_symplectic(2, 3))


def test_is_symplectic_of_a_map_whose_bound_overflows():
    """Past |m|_2 of about 1.3e154, (1 + |m|_2)^2 overflows a float: a
    finite symplectic map still passes, and a map whose defect is itself
    infinite still fails, with no OverflowError."""
    for m in (np.diag([1e160, 1e-160]), np.diag([1e300, 1e-300]),
              np.array([[1e200, 1e200], [0.0, 1e-200]])):
        assert is_symplectic(m)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not is_symplectic(np.diag([1e200, 1e200]))
        assert not is_symplectic(np.diag([1e160, 2e160]))


def test_is_symplectic_of_a_map_whose_defect_overflows_warns_nothing():
    """m^T J m of diag(1e200, 1e200) overflows: the check answers False
    with no RuntimeWarning, whatever the caller's warning filters."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_symplectic(np.diag([1e200, 1e200]))
        assert not is_symplectic(np.diag([1e160, 2e160]))
        assert is_symplectic(np.diag([1e160, 1e-160]))


def test_is_hamiltonian_of_a_generator_whose_norm_overflows():
    """1e308 ones (trace 2e308) and [[1.5e308, 0], [1e308, 1.5e308]]
    (trace 3e308) are not Hamiltonian, though their spectral norms
    overflow: the check answers False and the flow route raises
    NotHamiltonian, with no RuntimeWarning.  [[1e308, 1e308], [1e308,
    -1e308]], of trace 0 and a finite norm, stays Hamiltonian."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (1e308 * np.ones((2, 2)), np.array([[1.5e308, 0.0], [1e308, 1.5e308]])):
            assert not is_hamiltonian(h)
            with pytest.raises(NotHamiltonian):
                maslov_index_symplectic(h)
        assert is_hamiltonian(np.array([[1e308, 1e308], [1e308, -1e308]]))


@pytest.mark.parametrize("call", [
    lambda: product_lagrangian(diagonal_lagrangian(1), vertical_lagrangian(2)),
    lambda: intersection_dim(vertical_lagrangian(2), diagonal_lagrangian(1)),
    lambda: SymplecticReduction(SymplecticSpace.standard(2), vertical_lagrangian(2).frame[:, :1])
    .project(diagonal_lagrangian(1)),
    lambda: SymplecticReduction(SymplecticSpace.standard(3), vertical_lagrangian(3).frame[:, :1])
    .lift(vertical_lagrangian(2)),
], ids=["product", "intersection_dim", "project", "lift"])
def test_operands_of_another_space_of_equal_dimension_rejected(call):
    """The graph product over R^2 and the reduction of R^6 by a line have
    the dimension of the standard R^4 but not its form."""
    with pytest.raises(DimensionMismatch):
        call()


def test_zero_dimensional_reduction_neither_projects_nor_lifts():
    red = SymplecticReduction(SymplecticSpace.standard(1), [[1.0], [0.0]])
    assert red.space is None
    with pytest.raises(DimensionMismatch, match="zero-dimensional"):
        red.project(horizontal_lagrangian(1))
    with pytest.raises(DimensionMismatch, match="zero-dimensional"):
        red.lift(horizontal_lagrangian(1))


def test_reduction_rejects_non_isotropic_k():
    space = SymplecticSpace.standard(2)
    k = np.eye(4)[:, [0, 2]]  # omega(e1, e3) = 1
    with pytest.raises((NotIsotropic, KNotAdmissible)):
        SymplecticReduction(space, k)


def test_plane_block_generator_layout():
    h = plane_block_generator([("elliptic", 2.0), ("hyperbolic", 0.7)])
    assert h.shape == (4, 4)
    assert is_hamiltonian(h)
    assert h[2, 0] == 2.0 and h[0, 2] == -2.0
    assert h[1, 1] == 0.7 and h[3, 3] == -0.7


def test_loxodromic_generator_spectrum():
    h = loxodromic_generator(0.5, 1.3)
    assert is_hamiltonian(h)
    eig = np.sort_complex(np.linalg.eigvals(h))
    want = np.sort_complex(np.array([
        0.5 + 1.3j, 0.5 - 1.3j, -0.5 + 1.3j, -0.5 - 1.3j]))
    np.testing.assert_allclose(eig, want, atol=1e-12)


def test_random_ensembles_satisfy_contracts():
    for seed in range(5):
        h = random_hamiltonian(3, seed)
        assert is_hamiltonian(h)
        m = random_symplectic(3, seed)
        assert is_symplectic(m)
        j = standard_J(3)
        np.testing.assert_allclose(m.T @ j @ m, j, atol=1e-9)
        l = random_lagrangian(3, seed)
        assert l.n == 3


def test_darboux_frame_of_scaled_space():
    # a valid symplectic form that is neither standard nor orthogonal
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6))
    form = a.T @ standard_J(3) @ a
    space = SymplecticSpace(form)
    t = darboux_frame(space)
    np.testing.assert_allclose(t.T @ form @ t, standard_J(3), atol=1e-9)
    l = random_lagrangian_of(space, seed=4)
    defect = np.linalg.norm(space.pairing(l.frame, l.frame))
    assert defect < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pairing_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    space = SymplecticSpace.standard(2)
    u = rng.normal(size=4)
    v = rng.normal(size=4)
    assert space.omega(u, v) == pytest.approx(-space.omega(v, u), abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_lagrangian_frame_is_basis_independent(seed):
    rng = np.random.default_rng(seed)
    l = random_lagrangian(2, rng)
    g = rng.normal(size=(2, 2)) + 3.0 * np.eye(2)
    respanned = lagrangian_frame(l.space, l.frame @ g)
    assert same_span(l.frame, respanned.frame)


@pytest.mark.parametrize("call,message", [
    (lambda: SymplecticSpace(np.array([[0.0, 1.0], [1.0, 0.0]])),
     "symplectic form must be antisymmetric"),
    (lambda: SymplecticSpace(np.zeros((2, 2))), "symplectic form must be invertible"),
    (lambda: standard_J(0), "n must be positive"),
    (lambda: plane_block_generator([("parabolic", 1.0)]), "unknown plane kind 'parabolic'"),
    (lambda: random_hamiltonian(2, 0, "chaotic"), "unknown spectrum profile 'chaotic'"),
], ids=["asymmetric-form", "singular-form", "n-zero", "unknown-plane", "unknown-profile"])
def test_constructor_refusals(call, message):
    with pytest.raises(InputError, match="^%s$" % message):
        call()
