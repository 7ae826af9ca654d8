"""Krein signatures, spectra, and normal-form classification."""

import collections
import dataclasses
import importlib.util
import pathlib

import numpy as np
import pytest
import scipy.linalg

from symindex import (
    Inertia,
    KreinEigenvalue,
    NormalFormBlock,
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
from symindex.errors import (InputError, NotAnEigenvalue, NotHamiltonian, NotSemisimple,
                             SymindexError, UnclassifiableSpectrum)
from symindex import maslov
from symindex.checks import check_krein_pairing
from symindex.krein import (_certified_pass, _chain, _clusters, _kernels, _krein_pass,
                            _normal_form, _record_pass, _svd_pass, krein_form_matrix)
from symindex.numerics import DEFAULT_TOL, Tolerances, herm_signature, spectral_norm
from symindex.symplectic import (
    SymplecticSpace,
    darboux_frame,
    is_hamiltonian,
    loxodromic_generator,
    random_symplectic,
    standard_J,
)

SWEEP = pathlib.Path(__file__).resolve().parent.parent / "tools" / "parity_sweep.py"


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


@pytest.mark.parametrize("h", [2.0 * standard_J(1),
                               plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])],
                         ids=["rotation", "two planes"])
@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_krein_signature_of_a_query_that_is_not_finite(h, alpha):
    """Every distance to 1j * nan is NaN, so the gap test must fail on NaN."""
    with pytest.raises(NotAnEigenvalue):
        krein_signature(h, alpha)


@pytest.mark.parametrize("alpha", [10 ** 400, -10 ** 400])
def test_krein_signature_of_an_int_beyond_the_doubles(alpha):
    """float(10**400) raises OverflowError; such a query is refused as
    the infinite ones are."""
    with pytest.raises(NotAnEigenvalue):
        krein_signature(2.0 * standard_J(1), alpha)


@pytest.mark.parametrize("alpha", [2j, np.complex128(2.0), "2.0", None, True, np.bool_(True)])
def test_krein_signature_query_must_be_real(alpha):
    with pytest.raises(InputError, match="alpha must be a real number"):
        krein_signature(2.0 * standard_J(1), alpha)


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


def test_empty_and_scalar_matrices_are_semisimple():
    """is_semisimple takes any square matrix; the empty one has no
    cluster, so no shifted matrix to take a kernel of."""
    assert is_semisimple(np.zeros((0, 0)))
    assert is_semisimple(np.zeros((1, 1)))
    assert is_semisimple(np.eye(3))


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


@pytest.mark.parametrize("eps", [1e-12, 1e-8, 1e-7, 5e-7, 6e-7, 8e-7, 9e-7, 1e-6])
def test_slow_rotation_is_exact_or_refused(eps):
    """eps J_1, eps J_2 and the planes at +eps and -2 eps have their
    eigenvalues within the cluster gap (1e-6) of zero or of each other;
    the spectral route refuses them or agrees with the scan, never
    returns another value (a full kernel at zero, or a zero block read
    from +-i eps apart, would have made it 0)."""
    pair = plane_block_generator([("elliptic", eps), ("elliptic", -2 * eps)])
    for h in (eps * standard_J(1), eps * standard_J(2), pair):
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

    count(np.linalg, "eig")
    count(np.linalg, "eigvals")
    count(np.linalg, "svd")
    return calls


def _warm_krein_routes(h):
    """Every Krein route of ``h``, a signature query at each cluster on
    the imaginary axis included."""
    for e in krein_spectrum(h):
        if e.inertia is not None:
            krein_signature(h, e.eigenvalue.imag)
    classify_normal_form(h)
    spectral_conley_zehnder(h)
    is_semisimple(h)


@pytest.mark.parametrize("route", [krein_spectrum, classify_normal_form, spectral_conley_zehnder])
def test_one_eigvals_and_no_schur_per_semisimple_generator(monkeypatch, route):
    """At n=8 a cold route on a semisimple generator takes the
    decompositions of its flow record only: one eig and the
    spectral-norm SVD of the generator check (cond V takes its SVD
    inside numpy, which the counter does not see).  Its eigenbasis
    certifies the pass, so there is no eigvals, no kernel SVD and no
    Schur form; a warm Krein route on the same h takes none."""
    h = random_hamiltonian(8, 0, "semisimple-elliptic")
    route(h)  # builds the cached standard space of dimension 16
    maslov._record_of.cache_clear()
    calls = _count_decompositions(monkeypatch)
    route(h)
    assert calls == {"eig": 1, "svd": 1}
    calls.clear()
    _warm_krein_routes(h)
    assert calls == {}


def test_one_eigvals_and_one_cluster_kernel_per_signature_query(monkeypatch):
    """A cold krein_signature query at n=8 takes its flow record's eig
    and spectral-norm SVD, no eigvals and no kernel SVD; every further
    query on h, at +-Im of each of its 16 clusters, is a lookup of the
    nearest cluster of the record's pass and takes none."""
    h = random_hamiltonian(8, 0, "semisimple-elliptic")
    alphas = [e.eigenvalue.imag for e in krein_spectrum(h)]
    assert len(alphas) == 16
    maslov._record_of.cache_clear()
    calls = _count_decompositions(monkeypatch)
    krein_signature(h, alphas[0])
    assert calls == {"eig": 1, "svd": 1}
    calls.clear()
    for alpha in alphas:
        q, p = krein_signature(h, -alpha).pair
        assert krein_signature(h, alpha) == Inertia(p, q, 0)
    assert calls == {}


def test_jordan_clusters_take_a_kernel_chain(monkeypatch):
    """The kernels ker A of both size-2 Jordan clusters come from one
    stacked SVD, and each short kernel takes one more SVD for ker A^2
    (``_chain``); a short kernel already decides that the generator is
    not semisimple, so the kernels are not stacked.  The other eig and
    SVD are the flow record's: its eigenbasis, whose eigenvalues the
    clusters read (the ill-conditioned basis gives the record no flow
    eigenbasis, and no eigvals is taken), and the spectral norm of its
    generator check, which also sets the cluster gap; the pass runs no
    generator check of its own.  A warm pass reads the record's pass and
    takes none."""
    krein_spectrum(_jordan_at_2i())  # builds the cached standard space
    maslov._record_of.cache_clear()
    calls = _count_decompositions(monkeypatch)
    krein_spectrum(_jordan_at_2i())
    assert maslov._flow_record(_jordan_at_2i(), None, DEFAULT_TOL).eigen is None
    assert calls == {"eig": 1, "svd": 4}
    calls.clear()
    krein_spectrum(_jordan_at_2i())
    assert calls == {}


@pytest.mark.parametrize("route", [krein_spectrum, is_semisimple, krein_positive_angles])
def test_a_cold_svd_route_takes_no_eigvals(monkeypatch, route):
    """A cold Krein route on the SVD route clusters the eigenvalues of
    the flow record's one eig and takes no eigvals, whether the record
    keeps a flow eigenbasis (a doubled rotation, whose repeated
    eigenvalues are never certified) or not (a Jordan block at +-2i)."""
    doubled = standard_direct_sum([2.0 * standard_J(1)] * 2)
    for h, eigen in ((doubled, True), (_jordan_at_2i(), False)):
        assert _certified_pass(maslov._flow_record(h, None, DEFAULT_TOL), DEFAULT_TOL) is None
        assert (maslov._flow_record(h, None, DEFAULT_TOL).eigen is not None) == eigen
        maslov._record_of.cache_clear()
        calls = _count_decompositions(monkeypatch)
        try:
            route(h)
        except NotSemisimple:
            pass
        assert calls["eig"] == 1 and "eigvals" not in calls
        monkeypatch.undo()


def test_a_record_whose_eig_fails_clusters_eigvals(monkeypatch):
    """Where eig raises, the record keeps no eigenvalues, and the SVD
    route takes its partition from one eigvals of the record's h: the
    same spectrum as a record whose eig returns."""
    h = _jordan_at_2i()
    want = krein_spectrum(h)
    maslov._record_of.cache_clear()

    def failing(a):
        raise np.linalg.LinAlgError("eig did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)
    record = maslov._flow_record(h, None, DEFAULT_TOL)
    assert record.vals is None and record.eigen is None and record.kappa == np.inf
    assert krein_spectrum(h) == want
    maslov._record_of.cache_clear()


def test_the_record_eigenvalues_are_those_of_eigvals():
    """On every generator of the parity sweep, the eigenvalues that the
    flow record keeps from its eig equal eigvals of its generator byte
    for byte, dtype included, so the SVD route reads them in place of an
    eigvals of its own with the same partition."""
    inputs = _sweep_inputs("random", "growth", "rotation", "loop", "fast", "slow", "shear",
                           "jordan", "near")
    assert len(inputs) == 992
    for h in inputs:
        record = maslov._flow_record(h, None, DEFAULT_TOL)
        want = np.linalg.eigvals(record.h)
        assert record.vals.dtype == want.dtype and record.vals.tobytes() == want.tobytes()


def test_svd_route_queries_read_the_record_pass(monkeypatch):
    """On two generators of the SVD route, a Jordan block at +-2i and a
    doubled rotation system (doubled eigenvalues are never certified),
    every Krein route after ``krein_spectrum`` reads the record's pass:
    the queries at +-Im of every cluster on the axis, is_semisimple and
    classify_normal_form take no eig, eigvals or SVD."""
    doubled = standard_direct_sum([random_hamiltonian(2, 1000, "semisimple-elliptic")] * 2)
    calls = _count_decompositions(monkeypatch)
    for h, semisimple in ((_jordan_at_2i(), False), (doubled, True)):
        assert _certified_pass(maslov._flow_record(h, None, DEFAULT_TOL), DEFAULT_TOL) is None
        spectrum = krein_spectrum(h)
        calls.clear()
        for e in spectrum:
            if e.inertia is not None:
                assert krein_signature(h, e.eigenvalue.imag) == e.inertia
                q, p = e.inertia.pair
                assert krein_signature(h, -e.eigenvalue.imag) == Inertia(p, q, e.inertia.n_zero)
        assert is_semisimple(h) is semisimple
        if semisimple:
            assert len(classify_normal_form(h)) == 2
        else:
            with pytest.raises(NotSemisimple):
                classify_normal_form(h)
        assert calls == {}


def _cluster_basis(h, lam, k):
    """The kernel of h - lam I alone and its ``_chain`` up to dimension
    ``k`` (0: the kernel alone)."""
    (a,), (kernel,), (cutoff,) = _kernels(h, np.array([lam], dtype=complex))
    return _chain(a, kernel, cutoff, k)


def test_batched_krein_pass_equals_one_cluster_at_a_time():
    """krein_spectrum, which takes the kernels of all clusters from one
    stacked SVD and the Krein inertias of each basis size from one
    stacked product, equals the loop of one ``_cluster_basis`` and one
    herm_signature per cluster on seeded generators of every profile,
    n = 1..4, and on conjugated Jordan blocks."""
    generators = [(1 + s % 3) * random_hamiltonian(1 + s % 4, 9000 + s, profile)
                  for s in range(24)
                  for profile in ("generic", "semisimple-elliptic", "hyperbolic", "mixed")]
    for size in (2, 3, 4):
        for seed in range(3):
            base = _jordan_generator(size, 0.7, 1.0, nilpotent=1e-2)
            s = random_symplectic(base.shape[0] // 2, seed, scale=0.5)
            generators.append(s @ base @ np.linalg.inv(s))
    generators.append(_jordan_at_2i())
    for h in generators:
        gap, _, lams, mults = _clusters(np.linalg.eigvals(h), spectral_norm(h))
        g = krein_form_matrix(h.shape[0] // 2)
        expected = []
        for lam, mult in zip(lams.tolist(), mults):
            on_axis = abs(lam.real) <= gap
            basis = _cluster_basis(h, lam, mult if on_axis else 0)
            inertia = herm_signature(basis.conj().T @ g @ basis) if on_axis else None
            expected.append((lam, mult, inertia))
        assert [(e.eigenvalue, e.multiplicity, e.inertia) for e in krein_spectrum(h)] == expected


def _jordan_generator(size, omega, sign, nilpotent=1e-3):
    """A Hamiltonian generator with Jordan blocks of ``size`` at +-i omega
    (at 0 when omega is 0), in the standard space.

    On R^2 (x) R^size the generator is omega J_1 (x) I + I (x) N, N
    nilpotent with one Jordan block, scaled by ``nilpotent``; at 1e-3
    rounding splits no cluster beyond the cluster gap.  Even size: form
    I (x) J and N in sp(size).  Odd size: form J_1 (x) G with G the
    antidiagonal ``sign`` flip and N in o(G); the Krein signature at
    +i omega is then ``sign``.  The Darboux frame of the form carries
    it to the standard space."""
    if size % 2 == 0:
        n = np.zeros((size, size))
        n[0, 1] = 1.0
        if size == 4:
            n[1, 3], n[3, 2] = 1.0, -1.0
        if omega == 0.0:
            return nilpotent * n
        form = np.kron(np.eye(2), standard_J(size // 2))
    else:
        n = np.diag([(-1.0) ** j for j in range(size - 1)], 1)
        form = np.kron(standard_J(1), sign * np.fliplr(np.eye(size)))
    h = omega * np.kron(standard_J(1), np.eye(size)) + np.kron(np.eye(2), nilpotent * n)
    t = darboux_frame(SymplecticSpace(form))
    return np.linalg.solve(t, h @ t)


def _schur_basis(h, target, gap):
    """The reference basis: a sorted complex Schur basis of the
    generalized eigenspace of the eigenvalues within ``gap`` of ``target``."""
    _, z, sdim = scipy.linalg.schur(h.astype(complex), output="complex",
                                    sort=lambda lam: abs(lam - target) <= gap)
    return z[:, :sdim]


@pytest.mark.parametrize("omega", [0.0, 0.7, 2.0])
@pytest.mark.parametrize("size", [2, 3, 4])
def test_jordan_cluster_inertia_matches_the_schur_basis(size, omega):
    """Jordan blocks of size 2, 3 and 4 at +-i omega and at 0, conjugated
    by seeded random symplectic matrices: every cluster keeps the size of
    its blocks; its kernel chain (``_cluster_basis``) is orthonormal and
    spans the sorted Schur subspace (projectors within
    1e-12); and krein_spectrum and krein_signature give the inertia of the
    Schur basis and of the normal form (p - q = sign at +i omega for one
    odd block, p = q otherwise)."""
    blocks = 2 if size == 3 and omega == 0.0 else 1  # odd blocks at 0 pair up
    for sign in (1.0, -1.0):
        base = _jordan_generator(size, omega, sign)
        for seed in range(4):
            s = random_symplectic(base.shape[0] // 2, seed, scale=0.5)
            h = s @ base @ np.linalg.inv(s)
            assert is_hamiltonian(h) and not is_semisimple(h)
            spec = krein_spectrum(h)
            assert [e.multiplicity for e in spec] == [blocks * size] * (1 if omega == 0 else 2)
            gap = _clusters(np.linalg.eigvals(h), spectral_norm(h))[0]
            g = krein_form_matrix(h.shape[0] // 2)
            for e in spec:
                alpha = e.eigenvalue.imag
                basis = _cluster_basis(h, e.eigenvalue, e.multiplicity)
                reference = _schur_basis(h, e.eigenvalue, gap)
                assert basis.shape == reference.shape
                np.testing.assert_allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                                           atol=1e-12)
                assert np.abs(basis @ basis.conj().T
                              - reference @ reference.conj().T).max() < 1e-12
                if omega == 0.0 or size % 2 == 0:
                    expected = Inertia(blocks * size // 2, blocks * size // 2, 0)
                else:
                    p = (size + int(sign * np.sign(alpha))) // 2
                    expected = Inertia(p, size - p, 0)
                assert herm_signature(reference.conj().T @ g @ reference) == expected
                assert e.inertia == expected, (sign, seed, alpha)
                assert krein_signature(h, alpha) == expected


def test_split_jordan_clusters_are_refused():
    """A size-3 Jordan block with nilpotent part 1, conjugated by a
    random symplectic matrix, splits by about (eps cond)^(1/3), beyond
    the cluster gap.  krein_spectrum then reports smaller clusters with a
    degenerate form; krein_signature refuses a query whose eigenvalues
    within the gap are not the whole block (NotAnEigenvalue) and returns
    the block's signature when they are (clusters more than the gap off
    the imaginary axis carry no Krein data).  Seed 0 keeps both blocks whole;
    seed 2 splits them into six singletons, every query refused."""
    outcomes = {}
    for sign in (1.0, -1.0):
        base = _jordan_generator(3, 2.0, sign, nilpotent=1.0)
        for seed in range(6):
            s = random_symplectic(3, seed, scale=0.5)
            h = s @ base @ np.linalg.inv(s)
            spec = krein_spectrum(h)
            assert sum(e.multiplicity for e in spec if e.eigenvalue.imag > 0) == 3
            for e in (e for e in spec if e.inertia is not None):
                alpha = e.eigenvalue.imag
                p = (3 + int(sign * np.sign(alpha))) // 2
                block = Inertia(p, 3 - p, 0)
                if e.multiplicity == 3:
                    assert e.inertia == block
                else:
                    assert e.inertia.n_zero > 0
                try:
                    got = krein_signature(h, alpha)
                except NotAnEigenvalue:
                    got = None
                if e.multiplicity == 3:
                    assert got == block
                assert got in (None, block), (sign, seed, alpha)
                outcomes.setdefault((sign, seed), []).append(got)
    assert outcomes[(1.0, 0)] == [Inertia(2, 1, 0), Inertia(1, 2, 0)]
    assert outcomes[(1.0, 2)] == [None] * 6


def test_widely_spread_cluster_keeps_its_eigenspace():
    """Four elliptic planes at +-1e-3 beside one at 100, conjugated by
    random symplectic matrices: the cluster at -1e-3 i is 2e-5 of |h|
    from its conjugate, and krein_signature there is the swap of
    krein_spectrum's inertia at +1e-3 i, the normal form's count."""
    for signs in ((1, 1, 1, 1), (1, 1, -1, 1), (1, -1, 1, -1)):
        base = plane_block_generator([("elliptic", 1e-3 * k) for k in signs]
                                     + [("elliptic", 100.0)])
        p = signs.count(1)
        for seed in range(3):
            s = random_symplectic(5, seed, scale=0.5)
            h = s @ base @ np.linalg.inv(s)
            slow = [e for e in krein_spectrum(h) if abs(e.eigenvalue.imag) < 1.0]
            assert [e.multiplicity for e in slow] == [4, 4]
            for e in slow:
                alpha = e.eigenvalue.imag
                expected = (p, 4 - p) if alpha > 0 else (4 - p, p)
                assert e.inertia == Inertia(*expected, 0)
                assert krein_signature(h, -alpha) == Inertia(*expected[::-1], 0), (signs, seed)


def _conjugated_jordan_generators():
    """Jordan blocks of size 2 to 4 at 0, +-0.7i and +-2i, both signs,
    nilpotent parts 1e-3, 1e-2 and 1, conjugated by five seeded random
    symplectic matrices; the larger nilpotent parts split some clusters."""
    for size in (2, 3, 4):
        for omega in (0.0, 0.7, 2.0):
            for sign in (1.0, -1.0):
                for nilpotent in (1e-3, 1e-2, 1.0):
                    base = _jordan_generator(size, omega, sign, nilpotent)
                    for seed in range(5):
                        s = random_symplectic(base.shape[0] // 2, seed, scale=0.5)
                        yield (size, omega, sign, nilpotent, seed), s @ base @ np.linalg.inv(s)


def test_spectrum_matches_the_schur_signature():
    """At every cluster on the imaginary axis, krein_signature at any of
    its members reads the inertia of krein_spectrum when that inertia is
    nondegenerate with the cluster's dimension, and refuses otherwise
    (a cluster that rounding split), on random generators and on
    conjugated Jordan blocks."""
    profiles = ("generic", "semisimple-elliptic", "hyperbolic", "mixed")
    randoms = [(seed, random_hamiltonian(1 + seed % 6, 9000 + seed, profiles[seed % 4]))
               for seed in range(40)]
    compared = refused = 0
    for label, h in randoms + list(_conjugated_jordan_generators()):
        for entry in krein_spectrum(h):
            if entry.inertia is None:
                continue
            whole = entry.inertia.n_zero == 0 and entry.inertia.dim == entry.multiplicity
            try:
                got = krein_signature(h, entry.eigenvalue.imag)
            except NotAnEigenvalue:
                got = None
            assert got == (entry.inertia if whole else None), label
            compared += whole
            refused += not whole
    assert compared >= 40 and refused > 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("size,seed", [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5),
                                       (4, 1), (4, 3), (4, 4)])
def test_split_nilpotent_blocks_are_not_semisimple(size, seed, sign):
    """Conjugated nilpotent blocks with nilpotent part 1 that rounding
    splits into clusters; the generator is never semisimple.  Two size-3
    blocks at seeds 1 to 4 give clusters of multiplicity 1 with
    2-dimensional kernels, which only a kernel SVD per cluster sees (an
    eigenvector read from ``eig`` would not).  At seed 5 they give three
    clusters of multiplicity 2 that each measure the same 2-dimensional
    kernel of h, and one size-4 block splits into a quadruple off both
    axes, which a pairing blind to kernel independence reads as a
    loxodromic block with spectral index 0 where the scan gives -1/2:
    each kernel has its cluster's multiplicity, but the kernels are not
    independent."""
    base = _jordan_generator(size, 0.0, sign, nilpotent=1.0)
    s = random_symplectic(base.shape[0] // 2, seed, scale=0.5)
    h = s @ base @ np.linalg.inv(s)
    assert np.linalg.matrix_rank(h) == (4 if size == 3 else 3)
    assert not is_semisimple(h)
    with pytest.raises(NotSemisimple):
        classify_normal_form(h)
    with pytest.raises(NotSemisimple):
        spectral_conley_zehnder(h)


def _linked_components(vals, gap):
    """The reference partition: components of the links within ``gap``,
    grown one member at a time, in the order of their first member."""
    parts, seen = [], set()
    for i in range(len(vals)):
        if i in seen:
            continue
        part, frontier = {i}, [i]
        while frontier:
            k = frontier.pop()
            linked = {j for j in range(len(vals)) if abs(vals[j] - vals[k]) <= gap} - part
            part |= linked
            frontier.extend(linked)
        seen |= part
        parts.append([j in part for j in range(len(vals))])
    return parts


def _sweep_inputs(*ensembles):
    """The generators of the ``ensembles`` of tools/parity_sweep.py."""
    spec = importlib.util.spec_from_file_location("parity_sweep", SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return [h for name, h in sweep.ensemble() if name.split()[0] in ensembles]


def test_signature_queries_and_semisimplicity_read_one_partition():
    """On the ``jordan`` and ``slow`` inputs of the parity sweep and on
    seeded random generators at n <= 4: krein_signature at +-Im of every
    cluster that carries a Krein inertia gives that inertia (swapped at
    -Im) when it is whole, nondegenerate with the cluster's dimension,
    and raises NotAnEigenvalue otherwise; and is_semisimple is False
    exactly when classify_normal_form raises NotSemisimple."""
    profiles = ("generic", "semisimple-elliptic", "hyperbolic", "mixed")
    randoms = [(1 + s % 3) * random_hamiltonian(1 + s % 4, 9000 + s, profiles[s % 4])
               for s in range(80)]
    counts = collections.Counter()
    for h in _sweep_inputs("jordan", "slow") + randoms:
        for e in krein_spectrum(h):
            if e.inertia is None:
                continue
            whole = e.inertia.n_zero == 0 and e.inertia.dim == e.multiplicity
            swapped = Inertia(e.inertia.n_neg, e.inertia.n_pos, 0)
            for alpha, expected in ((e.eigenvalue.imag, e.inertia), (-e.eigenvalue.imag, swapped)):
                try:
                    got = krein_signature(h, alpha)
                except NotAnEigenvalue:
                    got = None
                assert got == (expected if whole else None), (h, alpha)
            counts["whole" if whole else "refused"] += 1
        try:
            classify_normal_form(h)
            refused = False
        except NotSemisimple:
            refused = True
        except UnclassifiableSpectrum:
            refused = False
        assert is_semisimple(h) is not refused
        counts["not semisimple"] += refused
    assert min(counts.values()) > 0, counts


def test_cluster_means_and_masks_equal_the_member_loop():
    """``_clusters`` takes its masks from the closed link matrix and its
    means without an np.mean per cluster; both equal the loop over the
    members bit for bit (signed zeros too: the rotations have eigenvalues
    -0.0 +- i alpha), on the rotation, jordan and slow sweep inputs,
    seeded generators and the empty matrix."""
    profiles = ("generic", "semisimple-elliptic", "hyperbolic", "mixed")
    randoms = [random_hamiltonian(1 + s % 8, 9000 + s, profiles[s % 4]) for s in range(40)]
    for h in _sweep_inputs("rotation", "jordan", "slow") + randoms + [np.zeros((0, 0))]:
        vals = np.linalg.eigvals(h)
        gap, parts, lams, mults = _clusters(vals, spectral_norm(h))
        reference = _linked_components(vals, gap)
        assert parts.tolist() == reference
        assert mults == [part.count(True) for part in reference]
        means = np.array([np.mean(vals[np.array(part, dtype=bool)]) for part in reference],
                         dtype=complex)
        assert lams.tobytes() == means.tobytes()


def test_real_pair_slower_than_the_gap_has_no_krein_data():
    """+-7e-7 lie more than half the cluster gap (1e-6) from zero and off
    the imaginary axis: the pass gives them no Krein inertia, the normal
    form reads a hyperbolic plane, and a query at 0 is refused as off
    the axis, all by the one axis test."""
    h = plane_block_generator([("hyperbolic", 7e-7)])
    assert [e.inertia for e in krein_spectrum(h)] == [None, None]
    assert [(b.kind, b.dim) for b in classify_normal_form(h)] == [("hyperbolic", 2)]
    with pytest.raises(NotAnEigenvalue, match="off the imaginary axis"):
        krein_signature(h, 0.0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: normal_form_matrix([NormalFormBlock("parabolic", (1.0,))]), InputError,
     "unknown block kind 'parabolic'"),
    (lambda: standard_direct_sum([]), InputError, "need at least one generator"),
], ids=["unknown-block", "empty-sum"])
def test_normal_form_constructor_refusals(call, error, message):
    with pytest.raises(error, match="^%s$" % message):
        call()


@pytest.mark.parametrize("spectrum,error,message", [
    ([KreinEigenvalue(0j, 1, None)], UnclassifiableSpectrum, "odd multiplicity at zero"),
    ([KreinEigenvalue(2j, 1, Inertia(0, 0, 1)), KreinEigenvalue(-2j, 1, Inertia(0, 0, 1))],
     NotSemisimple, "degenerate Krein form at i*2"),
    ([KreinEigenvalue(1 + 0j, 1, None)], UnclassifiableSpectrum, "unpaired real eigenvalue"),
    ([KreinEigenvalue(1 + 1j, 1, None), KreinEigenvalue(1 - 1j, 1, None)],
     UnclassifiableSpectrum, "incomplete loxodromic quadruple"),
], ids=["odd-zero", "degenerate-krein", "unpaired-real", "incomplete-quadruple"])
def test_normal_form_refuses_a_crafted_spectrum(spectrum, error, message):
    """The four refusals of ``_normal_form`` on a semisimple pass with
    the cluster gap 1e-6, each on the smallest spectrum that reaches it."""
    with pytest.raises(error) as raised:
        _normal_form(spectrum, True, 1e-6)
    assert str(raised.value) == message


def test_normal_form_matrix_builds_zero_and_loxodromic_blocks():
    blocks = [NormalFormBlock("zero", (), 2), NormalFormBlock("loxodromic", (0.5, 1.5))]
    h = normal_form_matrix(blocks)
    assert h.shape == (8, 8) and is_hamiltonian(h)
    np.testing.assert_array_equal(h[np.ix_([0, 1, 4, 5], [0, 1, 4, 5])], np.zeros((4, 4)))
    np.testing.assert_array_equal(h[np.ix_([2, 3, 6, 7], [2, 3, 6, 7])],
                                  loxodromic_generator(0.5, 1.5))
    assert [(b.kind, b.multiplicity) for b in classify_normal_form(h)] == [
        ("zero", 2), ("loxodromic", 1)]


def _pass_bytes(spectrum, semisimple, gap):
    """A pass as bytes and exact values, so that equal means bit for bit."""
    eigenvalues = np.array([e.eigenvalue for e in spectrum], dtype=complex).tobytes()
    return (eigenvalues, [(e.multiplicity, e.inertia) for e in spectrum], semisimple,
            float.hex(gap))


def _svd_bytes(h, tol=DEFAULT_TOL):
    """``_pass_bytes`` of the SVD route (``_svd_pass``) on the flow record
    of ``h``."""
    return _pass_bytes(*_svd_pass(maslov._flow_record(h, None, tol), tol)[:3])


def test_certified_pass_equals_the_svd_pass_on_every_sweep_input_it_accepts():
    """Every input of tools/parity_sweep.py whose flow record certifies
    the pass (``_certified_pass``) gets from ``krein_spectrum``'s pass
    the (spectrum, semisimple, gap) of the SVD route (``_svd_pass``),
    bit for bit; the shears and the conjugated Jordan blocks are never
    certified and keep the SVD route."""
    ensembles = ("random", "growth", "rotation", "loop", "fast", "slow", "near")
    certified = 0
    for h in _sweep_inputs(*ensembles):
        if _certified_pass(maslov._flow_record(h, None, DEFAULT_TOL), DEFAULT_TOL) is None:
            continue
        certified += 1
        assert _pass_bytes(*_krein_pass(h, DEFAULT_TOL)) == _svd_bytes(h), h
    assert certified >= 600
    for h in _sweep_inputs("shear", "jordan"):
        assert _certified_pass(maslov._flow_record(h, None, DEFAULT_TOL), DEFAULT_TOL) is None


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-8, 1e-7, 4e-7])
def test_slow_rotations_within_the_gap_keep_their_refusal(eps):
    """eps J_1 and the planes at +eps and -2 eps with their eigenvalues
    within the cluster gap (1e-6) of each other: ``eig`` separates them
    with kappa = 1, but they form one cluster of several members, so the
    record does not certify the pass and spectral_conley_zehnder keeps
    the SVD route's NotSemisimple, never an index (reading +-i eps as
    semisimple rotations of one cluster would give speed 0)."""
    pair = plane_block_generator([("elliptic", eps), ("elliptic", -2 * eps)])
    for h in (eps * standard_J(1), pair):
        assert _certified_pass(maslov._flow_record(h, None, DEFAULT_TOL), DEFAULT_TOL) is None
        with pytest.raises(NotSemisimple):
            spectral_conley_zehnder(h)
        assert not is_semisimple(h)


def test_a_returned_spectrum_or_a_changed_generator_does_not_change_the_next_answer():
    """The pass kept with a flow record, on either route, is a tuple of
    frozen entries whose eigenvalue and owner arrays refuse writes:
    changing the list ``krein_spectrum`` returned changes neither the
    next pass nor the normal form, and a generator changed in place gets
    the answers of its new values.  The SVD-route generator is a doubled
    rotation system, whose doubled eigenvalues are never certified."""
    g = random_hamiltonian(2, 3, "semisimple-elliptic")
    for h, certified in ((g, True), (standard_direct_sum([g, g]), False)):
        expected = _svd_bytes(h.copy())
        blocks = classify_normal_form(h)
        record = maslov._flow_record(h, None, DEFAULT_TOL)
        assert (_certified_pass(record, DEFAULT_TOL) is not None) is certified
        _, _, _, vals, owner = _record_pass(record, DEFAULT_TOL)
        for array in (vals, owner):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[-1]
        spectrum = krein_spectrum(h)
        spectrum[0] = spectrum.pop()
        spectrum.append(KreinEigenvalue(0j, 7, None))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spectrum[1].multiplicity = 2
        assert _pass_bytes(*_krein_pass(h, DEFAULT_TOL)) == expected
        assert classify_normal_form(h) == blocks
        h *= 2.0
        doubled = _svd_bytes(h.copy())
        assert _pass_bytes(*_krein_pass(h, DEFAULT_TOL)) == doubled != expected
        reference = _normal_form(*_svd_pass(maslov._flow_record(h.copy(), None, DEFAULT_TOL),
                                            DEFAULT_TOL)[:3])
        assert classify_normal_form(h) == reference != blocks


def test_krein_pairing_check_takes_one_eig_per_sampled_generator(monkeypatch):
    """``check_krein_pairing`` reads the spectrum, the signature queries
    and the normal form of each sampled generator from one flow record:
    one eig per generator (and one per anchor generator), no eigvals."""
    check_krein_pairing()  # builds the cached standard spaces
    calls = _count_decompositions(monkeypatch)
    assert check_krein_pairing().passed
    assert calls["eig"] == 50 + 2 and "eigvals" not in calls


def test_is_semisimple_reads_the_record_pass_of_a_hamiltonian_generator(monkeypatch):
    """A cold is_semisimple of a certified generator at n=8 takes its
    flow record's eig and spectral-norm SVD only; a non-Hamiltonian or
    odd-sized matrix keeps the kernel route, shears and all."""
    h = random_hamiltonian(8, 0, "semisimple-elliptic")
    is_semisimple(h)  # builds the cached standard space of dimension 16
    maslov._record_of.cache_clear()
    calls = _count_decompositions(monkeypatch)
    assert is_semisimple(h)
    assert calls == {"eig": 1, "svd": 1}
    assert is_semisimple(h + np.diag(np.arange(16.0)))
    assert not is_semisimple(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not is_semisimple(np.eye(3, k=1))
    assert is_semisimple(np.diag([1.0, 2.0, 3.0]))


def _interleaved_near_jordan_generator(delta):
    """diag(A, -A^T) for A = diag(J_3(1) + delta^3 E_31, J_3(1) - delta^3 E_31):
    two perturbed Jordan blocks whose eigenvalues 1 + delta w (w^3 = +-1)
    interleave on one circle, delta apart, and their partners at -1."""
    def block(e):
        b = np.eye(3) + np.eye(3, k=1)
        b[2, 0] = e
        return b

    a = scipy.linalg.block_diag(block(delta ** 3), block(-delta ** 3))
    return scipy.linalg.block_diag(a, -a.T)


def test_interleaved_near_jordan_blocks_keep_the_svd_route():
    """At delta = 5e-3 every eigenvalue is a cluster of its own (delta
    apart, far beyond the gap) and kappa is about 4e4, below the kappa
    certificate; but h - lambda_j I has two singular values under the
    rank rule of the kernels, so the SVD route calls h not semisimple.
    Only the certificate sep_j > c EIGENSPACE_RANK kappa (|h| +
    |lambda_j|) sees it, so the record does not certify the pass and
    every route keeps the SVD route's verdict."""
    h = _interleaved_near_jordan_generator(5e-3)
    assert is_hamiltonian(h)
    record = maslov._flow_record(h, None, DEFAULT_TOL)
    assert record.kappa < 1e5
    assert min(e.multiplicity for e in _svd_pass(record, DEFAULT_TOL)[0]) == 1
    assert _certified_pass(record, DEFAULT_TOL) is None
    assert not is_semisimple(h)
    assert not _krein_pass(h, DEFAULT_TOL)[1]
    with pytest.raises(NotSemisimple):
        classify_normal_form(h)


def test_a_krein_form_near_its_zero_band_keeps_the_svd_route():
    """The record route needs each 1x1 Krein form to clear its zero band
    (eps_sign times its scale) by the margin c = 10.  With eps_sign =
    0.25 no form of a unit vector can, so a caller's wide band sends
    even a well-conditioned generator to the SVD route, whose pass is
    then the one reported."""
    h = random_hamiltonian(2, 3, "semisimple-elliptic")
    assert _certified_pass(maslov._flow_record(h, None, DEFAULT_TOL), DEFAULT_TOL) is not None
    wide = Tolerances(eps_sign=0.25)
    assert _certified_pass(maslov._flow_record(h, None, wide), wide) is None
    assert _pass_bytes(*_krein_pass(h, wide)) == _svd_bytes(h, wide)
