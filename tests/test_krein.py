"""Krein signatures, spectra, and normal-form classification."""

import collections

import numpy as np
import pytest
import scipy.linalg

from symindex import (
    Inertia,
    classify_normal_form,
    conley_zehnder,
    is_semisimple,
    krein_positive_angles,
    krein_signature,
    krein_spectrum,
    normal_form_matrix,
    plane_block_generator,
    random_hamiltonian,
    spectral_conley_zehnder,
    standard_direct_sum,
)
from symindex.errors import NotAnEigenvalue, NotHamiltonian, NotSemisimple, SymindexError
from symindex.krein import krein_form_matrix
from symindex.symplectic import (
    is_hamiltonian,
    loxodromic_generator,
    random_symplectic,
    standard_J,
)


def test_krein_form_is_minus_iJ():
    g = krein_form_matrix(1)
    np.testing.assert_allclose(g, -1j * standard_J(1), atol=0)
    np.testing.assert_allclose(g, g.conj().T, atol=0)


def test_rotation_anchor_signatures():
    """A positively rotating plane carries Krein signature (1,0) at +i alpha
    and (0,1) at -i alpha; a negatively rotating plane is swapped."""
    plus = plane_block_generator([("elliptic", 2.0)])
    assert krein_signature(plus, 2.0) == Inertia(1, 0, 0)
    assert krein_signature(plus, -2.0) == Inertia(0, 1, 0)
    minus = plane_block_generator([("elliptic", -3.0)])
    assert krein_signature(minus, 3.0) == Inertia(0, 1, 0)
    assert krein_signature(minus, -3.0) == Inertia(1, 0, 0)


def test_krein_signature_needs_an_eigenvalue():
    h = plane_block_generator([("elliptic", 2.0)])
    with pytest.raises(NotAnEigenvalue):
        krein_signature(h, 1.0)


def test_spectrum_pairing_and_totals():
    h = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
    spec = krein_spectrum(h)
    assert sum(e.multiplicity for e in spec) == 4
    by_imag = {round(e.eigenvalue.imag, 6): e for e in spec}
    assert by_imag[2.0].inertia == Inertia(1, 0, 0)
    assert by_imag[-2.0].inertia == Inertia(0, 1, 0)
    assert by_imag[3.0].inertia == Inertia(0, 1, 0)
    assert by_imag[-3.0].inertia == Inertia(1, 0, 0)
    # off-axis eigenvalues carry no signature
    lox = loxodromic_generator(0.5, 1.3)
    for e in krein_spectrum(lox):
        assert e.inertia is None


def test_positive_angles_are_signed_speeds():
    h = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
    np.testing.assert_allclose(krein_positive_angles(h), [-3.0, 2.0], atol=1e-9)


def test_classification_of_mixed_system():
    h = standard_direct_sum([
        plane_block_generator([("elliptic", 2.0)]),
        plane_block_generator([("hyperbolic", 0.7)]),
        loxodromic_generator(0.4, 1.1),
    ])
    assert is_hamiltonian(h)
    blocks = classify_normal_form(h)
    kinds = sorted(b.kind for b in blocks)
    assert kinds == ["hyperbolic", "loxodromic", "rotation"]
    assert sum(b.dim for b in blocks) == 8
    rot = [b for b in blocks if b.kind == "rotation"][0]
    assert rot.parameters[0] == pytest.approx(2.0, abs=1e-9)


def test_classification_survives_conjugation():
    base = standard_direct_sum([
        plane_block_generator([("elliptic", 1.7)]),
        plane_block_generator([("hyperbolic", 0.9)]),
    ])
    m = random_symplectic(2, 13, scale=0.5)
    h = m @ base @ np.linalg.inv(m)
    assert is_hamiltonian(h)
    blocks = classify_normal_form(h)
    assert sorted(b.kind for b in blocks) == ["hyperbolic", "rotation"]
    angles = krein_positive_angles(h)
    np.testing.assert_allclose(angles, [1.7], atol=1e-7)


def test_zero_block():
    blocks = classify_normal_form(np.zeros((2, 2)))
    assert [b.kind for b in blocks] == ["zero"]
    assert blocks[0].dim == 2


def test_normal_form_round_trip():
    h = standard_direct_sum([
        plane_block_generator([("elliptic", 2.0)]),
        plane_block_generator([("hyperbolic", 0.7)]),
    ])
    rebuilt = normal_form_matrix(classify_normal_form(h))
    assert is_hamiltonian(rebuilt)
    np.testing.assert_allclose(
        np.sort_complex(np.linalg.eigvals(rebuilt)),
        np.sort_complex(np.linalg.eigvals(h)), atol=1e-8)


def test_nilpotent_shear_is_not_semisimple():
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert is_hamiltonian(shear)
    assert not is_semisimple(shear)
    with pytest.raises(NotSemisimple):
        classify_normal_form(shear)


def test_non_hamiltonian_rejected():
    with pytest.raises(NotHamiltonian):
        krein_spectrum(np.eye(2))


def _jordan_at_2i():
    """[[A, 0], [I, A]] with A = 2 J_1: one Jordan block at +2i and one
    at -2i, each of size 2."""
    a = 2.0 * standard_J(1)
    return np.block([[a, np.zeros((2, 2))], [np.eye(2), a]])


def test_jordan_block_keeps_its_generalized_eigenspace_inertia():
    """The Krein form on a generalized eigenspace is nondegenerate even
    when the eigenvalue is not semisimple."""
    h = _jordan_at_2i()
    assert is_hamiltonian(h)
    spec = krein_spectrum(h)
    assert sorted(round(e.eigenvalue.imag, 6) for e in spec) == [-2.0, 2.0]
    assert [(e.multiplicity, e.inertia) for e in spec] == [(2, Inertia(1, 1, 0))] * 2
    assert not is_semisimple(h)
    with pytest.raises(NotSemisimple):
        classify_normal_form(h)


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-7, 6e-7, 9e-7, 1e-6])
def test_slow_rotation_is_exact_or_refused(eps):
    """eps J_1 and eps J_2 have their eigenvalues within the cluster gap
    (1e-6) of zero; the spectral route refuses them or agrees with the
    scan, never returns another value (a full kernel at zero, or a zero
    block read from +-i eps apart, would have made it 0)."""
    for n in (1, 2):
        h = eps * standard_J(n)
        try:
            got = spectral_conley_zehnder(h)
        except SymindexError:
            continue
        assert got == conley_zehnder(h)


@pytest.mark.parametrize("eps", [6e-7, 9e-7, 1e-6])
def test_rotation_slower_than_the_gap_is_classified(eps):
    """+-i eps more than half the gap from zero fall in two clusters: a
    rotation pair, not two zero blocks.  A real pair +-eps is likewise
    a hyperbolic plane."""
    for n in (1, 2):
        h = eps * standard_J(n)
        assert spectral_conley_zehnder(h) == conley_zehnder(h)
        assert krein_positive_angles(h) == pytest.approx([eps] * n, rel=1e-9)
    blocks = classify_normal_form(plane_block_generator([("hyperbolic", eps)]))
    assert [(b.kind, b.dim) for b in blocks] == [("hyperbolic", 2)]


def _count_decompositions(monkeypatch):
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(np.linalg, "eigvals")
    count(np.linalg, "svd")
    count(scipy.linalg, "schur")
    return calls


@pytest.mark.parametrize("route", [krein_spectrum, classify_normal_form, spectral_conley_zehnder])
def test_one_eigvals_and_no_schur_per_semisimple_generator(monkeypatch, route):
    """At n=8 a semisimple generator takes one eigvals and one kernel SVD
    per eigenvalue cluster (16 of them), and no Schur form."""
    h = random_hamiltonian(8, 0, "semisimple-elliptic")
    route(h)  # builds the cached standard space of dimension 16
    calls = _count_decompositions(monkeypatch)
    route(h)
    assert calls == {"eigvals": 1, "svd": 16}


def test_jordan_clusters_take_the_schur_basis(monkeypatch):
    krein_spectrum(_jordan_at_2i())
    calls = _count_decompositions(monkeypatch)
    krein_spectrum(_jordan_at_2i())
    assert calls == {"eigvals": 1, "svd": 2, "schur": 2}


def test_spectrum_matches_the_schur_signature():
    """The kernel inertia of krein_spectrum equals krein_signature's, from
    a sorted Schur basis, at every cluster on the imaginary axis."""
    profiles = ("generic", "semisimple-elliptic", "hyperbolic", "mixed")
    compared = 0
    for seed in range(40):
        h = random_hamiltonian(1 + seed % 6, 9000 + seed, profiles[seed % 4])
        for entry in krein_spectrum(h):
            if entry.inertia is not None:
                assert entry.inertia == krein_signature(h, entry.eigenvalue.imag), seed
                compared += 1
    assert compared >= 40
