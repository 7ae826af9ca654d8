"""Property checks behind the acceptance suite.

Each check draws a deterministic ensemble, exercises one contract of
the library, and reports a one-line verdict.  A sampler discards a draw
that fails a numerical genericity guard (near-singular blocks,
borderline signatures, speeds near a multiple of pi), and the discarded
draws are counted.  A check fails on an identity violation; an error
raised by a draw propagates and fails it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autonomous import (
    PUBLISHED_SIGN,
    _corner_invertible,
    _correction_formula,
    _correction_matrix,
    _coupling_sign,
    calibrate_sign,
    make_system,
    reduced_form_matrix,
    split_blocks,
    validate,
)
from .halfint import ZERO, HalfInt
from .kashiwara import (
    kashiwara_form,
    kashiwara_index,
    kashiwara_reduced,
    kashiwara_transversal,
    transversal_triple,
)
from .krein import classify_normal_form, krein_signature, krein_spectrum, standard_direct_sum
from .maslov import (
    conley_zehnder,
    maslov_index,
    maslov_index_symplectic,
    rotation_graph_index,
    rotation_orbit_index,
    spectral_conley_zehnder,
    unitary_geodesic,
)
from .numerics import (
    DEFAULT_TOL,
    Tolerances,
    orthonormal_columns,
    singular_values,
    stable_signature,
    sym_signature,
)
from .symplectic import (
    SymplecticReduction,
    SymplecticSpace,
    apply_symplectic,
    diagonal_lagrangian,
    graph_lagrangian,
    horizontal_lagrangian,
    lagrangian_frame,
    loxodromic_generator,
    plane_block_generator,
    product_lagrangian,
    random_hamiltonian,
    random_lagrangian,
    random_lagrangian_of,
    random_symplectic,
    standard_J,
    subspace_intersection,
    vertical_lagrangian,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str


def _collect(sampler, want):
    """Run ``sampler(attempt)`` until ``want`` draws are accepted.

    The sampler returns None to discard a draw; an error it raises is
    not caught.  Returns (accepted draws, number rejected).
    """
    max_attempts = 60 * want + 100
    got, rejected, attempt = [], 0, 0
    while len(got) < want:
        if attempt >= max_attempts:
            raise RuntimeError("rejection sampling exhausted after %d attempts"
                               % attempt)
        item = sampler(attempt)
        attempt += 1
        if item is None:
            rejected += 1
        else:
            got.append(item)
    return got, rejected


#: relative gray band of a sampled form: a draw whose form has an
#: eigenvalue between the zero band and this margin is resampled
STABLE_MARGIN = 1e-5


def _pm(rng) -> float:
    return 1.0 if rng.uniform() < 0.5 else -1.0


def _safe_speed(rng, lo=0.35, hi=5.9, clearance=0.25, avoid=()):
    """Angular speed bounded away from multiples of pi and from the
    magnitudes in ``avoid`` (keeps crossings regular and separated)."""
    for _ in range(300):
        a = rng.uniform(lo, hi) * _pm(rng)
        if abs(a - math.pi * round(a / math.pi)) <= clearance:
            continue
        if any(abs(abs(a) - abs(u)) <= 0.15 for u in avoid):
            continue
        return float(a)
    return None


# -- 1: rotation closed forms --------------------------------------------------

ROTATION_SPEEDS = (-7.0, -2.0, 0.5, 2.0, 2.0 * math.pi, 5.0, 3.0 * math.pi, 8.0)


def check_rotation_closed_forms(*, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Orbit and graph indices of one rotation plane match the closed
    forms at every probe speed, exactly."""
    bad = []
    for alpha in ROTATION_SPEEDS:
        h = alpha * standard_J(1)
        orbit = maslov_index_symplectic(h, tol=tol)
        graph = conley_zehnder(h, tol=tol)
        if orbit != rotation_orbit_index(alpha) or graph != rotation_graph_index(alpha):
            bad.append("alpha=%g: orbit %s vs %s, graph %s vs %s"
                       % (alpha, orbit, rotation_orbit_index(alpha),
                          graph, rotation_graph_index(alpha)))
    if bad:
        return CheckResult("rotation closed forms", False, "; ".join(bad))
    return CheckResult("rotation closed forms", True,
                       "%d speeds, scans equal closed forms exactly" % len(ROTATION_SPEEDS))


# -- 2: triple-index axioms ----------------------------------------------------

def check_triple_axioms(samples: int = 12, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Antisymmetry, cyclicity, symplectic invariance, the cocycle
    identity, and the normalization on the standard plane."""

    def sampler(attempt):
        n = 1 + attempt % 3
        seed = 7000 + 13 * attempt
        space = SymplecticSpace.standard(n)
        ls = [random_lagrangian(n, seed + i, tol) for i in range(4)]
        m = random_symplectic(n, seed + 5)
        combos = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0),
                  (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        taus = {}
        for c in combos:
            f = kashiwara_form(space, ls[c[0]], ls[c[1]], ls[c[2]])
            _, stable = stable_signature(f, STABLE_MARGIN, tol)
            if not stable:
                return None
        # recompute through the public entry point for the verdict
        for c in combos:
            taus[c] = kashiwara_index(space, ls[c[0]], ls[c[1]], ls[c[2]], tol)
        moved = [apply_symplectic(m, l, tol) for l in ls[:3]]
        taus["inv"] = kashiwara_index(space, moved[0], moved[1], moved[2], tol)
        return taus

    got, rejected = _collect(sampler, samples)
    ok = True
    for taus in got:
        t123 = taus[(0, 1, 2)]
        ok &= taus[(1, 0, 2)] == -t123
        ok &= taus[(0, 2, 1)] == -t123
        ok &= taus[(1, 2, 0)] == t123
        ok &= taus["inv"] == t123
        ok &= t123 - taus[(0, 1, 3)] + taus[(0, 2, 3)] - taus[(1, 2, 3)] == 0

    space1 = SymplecticSpace.standard(1)
    diag_line = lagrangian_frame(space1, np.array([[1.0], [1.0]]), tol)
    norm_ok = kashiwara_index(space1, horizontal_lagrangian(1, tol), diag_line,
                              vertical_lagrangian(1, tol), tol) == 1
    ok = bool(ok and norm_ok)
    return CheckResult("triple-index axioms", ok,
                       "%d triples (n in 1..3), %d resampled, normalization +1"
                       % (samples, rejected))


# -- 3: transversal closed form -------------------------------------------------

def check_transversal_triple(samples: int = 20, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """tau(horizontal, graph A, vertical) equals sign A for symmetric
    invertible A."""

    def sampler(attempt):
        n = 1 + attempt % 3
        rng = np.random.default_rng(8100 + attempt)
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        inertia, stable = stable_signature(a, 5e-2, tol)
        if inertia.n_zero or not stable:
            return None
        return a

    got, rejected = _collect(sampler, samples)
    ok = True
    for a in got:
        space, hor, gr, ver = transversal_triple(a, tol)
        ok &= kashiwara_index(space, hor, gr, ver, tol) == kashiwara_transversal(a, tol)
    return CheckResult("transversal triple closed form", bool(ok),
                       "%d matrices (n in 1..3), %d resampled" % (samples, rejected))


# -- 4: symmetry of the correction matrix ---------------------------------------

def check_correction_symmetry(samples: int = 50, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """The raw correction matrix of psi(1) is symmetric to 1e-8
    whenever the B block is well invertible."""

    def sampler(attempt):
        n = 1 + attempt % 4
        profile = ("generic", "mixed", "semisimple-elliptic")[attempt % 3]
        system = make_system(random_hamiltonian(n, 9200 + attempt, profile), tol)
        a, b, c, d = split_blocks(system.psi(1.0))
        if singular_values(b)[-1] <= 1e-3:
            return None
        x = _correction_formula(a, b, c, d)
        return float(np.linalg.norm(x - x.T))

    defects, rejected = _collect(sampler, samples)
    worst = max(defects)
    return CheckResult("correction matrix symmetry", worst < 1e-8,
                       "%d systems, max defect %.2e, %d resampled"
                       % (samples, worst, rejected))


# -- 5: reduction equality -------------------------------------------------------

def check_reduction_equality(samples: int = 18, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """The triple index is unchanged by reduction, both for the
    system triple (diagonal, L0 x L0, graph) and for engineered triples
    sharing a random isotropic subspace."""

    def sampler(attempt):
        if attempt % 2 == 0:
            n = 1 + (attempt // 2) % 3
            profile = ("mixed", "generic")[(attempt // 2) % 2]
            system = make_system(random_hamiltonian(n, 9900 + attempt, profile), tol)
            psi1 = system.psi(1.0)
            _, b, _, _ = split_blocks(psi1)
            if not _corner_invertible(b, tol) or singular_values(b)[-1] <= 1e-3:
                return None
            space = SymplecticSpace.graph_product(n)
            vert = vertical_lagrangian(n, tol)
            diag = diagonal_lagrangian(n, tol)
            pair = product_lagrangian(vert, vert, tol)
            graph = graph_lagrangian(psi1, tol)
            f = kashiwara_form(space, diag, pair, graph)
            _, stable = stable_signature(f, STABLE_MARGIN, tol)
            if not stable:
                return None
            k = subspace_intersection(diag.frame, pair.frame, tol)
            direct = kashiwara_index(space, diag, pair, graph, tol)
            reduced = kashiwara_reduced(space, k, diag, pair, graph, tol)
            return (direct, reduced, direct)
        n, k = 3, 1 + (attempt // 2) % 2
        seed = 11000 + attempt
        ambient = SymplecticSpace.standard(n)
        k_frame = random_lagrangian(n, seed, tol).frame[:, :k]
        red = SymplecticReduction(ambient, k_frame, tol)
        l_red = [random_lagrangian_of(red.space, seed + 1 + i, tol) for i in range(3)]
        lifted = [red.lift(l) for l in l_red]
        f = kashiwara_form(ambient, *lifted)
        _, stable = stable_signature(f, STABLE_MARGIN, tol)
        if not stable:
            return None
        f = kashiwara_form(red.space, l_red[0], l_red[1], l_red[2])
        _, stable = stable_signature(f, STABLE_MARGIN, tol)
        if not stable:
            return None
        direct = kashiwara_index(ambient, lifted[0], lifted[1], lifted[2], tol)
        on_quotient = kashiwara_index(red.space, l_red[0], l_red[1], l_red[2], tol)
        via_reduction = kashiwara_reduced(ambient, k_frame, lifted[0], lifted[1],
                                          lifted[2], tol)
        return (direct, on_quotient, via_reduction)

    got, rejected = _collect(sampler, samples)
    ok = all(a == b == c for a, b, c in got)
    return CheckResult("reduction equality", bool(ok),
                       "%d triples (systems and engineered lifts), %d resampled"
                       % (samples, rejected))


# -- 6: block-matrix signature identity ------------------------------------------

def check_reduced_form_signature(samples: int = 30, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """sign [[0,-I,X],[-I,0,I],[X,I,0]] equals sign X, including
    singular X."""
    ok = True
    for i in range(samples):
        n = 1 + i % 4
        rng = np.random.default_rng(12000 + i)
        q = orthonormal_columns(rng.standard_normal((n, n)), tol)
        n_zero = i % (n + 1)
        d = np.zeros(n)
        for j in range(n - n_zero):
            d[j] = rng.uniform(0.3, 2.0) * _pm(rng)
        x = q @ np.diag(d) @ q.T
        want = int(np.sum(d > 0.0) - np.sum(d < 0.0))
        sx = sym_signature(x, tol).signature
        y = reduced_form_matrix(x)
        sy = sym_signature(y, tol).signature
        ok &= sx == want == sy
    return CheckResult("reduced form signature identity", bool(ok),
                       "%d matrices (n in 1..4) including singular ones" % samples)


# -- 7: path independence of the quadruple index ----------------------------------

def check_quadruple_path_independence(quadruples: int = 20, *,
                                      tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """The difference of path indices against two references depends
    only on the endpoints, across five non-homotopic paths, and equals
    the triple-index prediction."""

    def sampler(attempt):
        n = 1 + attempt % 2
        seed = 13000 + 17 * attempt
        space = SymplecticSpace.standard(n)
        l0, l1, l0p, l1p = (random_lagrangian(n, seed + i, tol) for i in range(4))
        taus = []
        for third in (l1p, l0p):
            f = kashiwara_form(space, l0, l1, third)
            inertia, stable = stable_signature(f, STABLE_MARGIN, tol)
            if not stable:
                return None
            taus.append(inertia.signature)
        predicted = HalfInt(taus[0] - taus[1])
        diffs = []
        for k in range(-2, 3):
            path = unitary_geodesic(l0p, l1p, k)
            diffs.append(maslov_index(path, l1, tol=tol)
                         - maslov_index(path, l0, tol=tol))
        return predicted, diffs

    got, rejected = _collect(sampler, quadruples)
    ok = all(all(d == pred for d in diffs) for pred, diffs in got)
    return CheckResult("quadruple index path independence", bool(ok),
                       "%d quadruples x 5 paths (n in 1..2), %d resampled"
                       % (quadruples, rejected))


# -- 8: calibration ---------------------------------------------------------------

def check_calibration(*, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """The empirically calibrated coupling sign is -1 under this
    package's conventions; the commonly quoted value is +1."""
    sigma = calibrate_sign(tol=tol)
    return CheckResult("coupling-sign calibration", sigma == -1,
                       "calibrated sigma = %+d; commonly quoted sign = %+d "
                       "(convention dependent)" % (sigma, PUBLISHED_SIGN))


# -- 9: the index formula ----------------------------------------------------------

def check_main_identity(samples: int = 50, *, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Direct orbit scan equals graph scan plus the correction term on
    random semisimple transversal systems, with the triple-index routes
    agreeing as well."""
    sigma = _coupling_sign(None, tol)

    def sampler(attempt):
        n = 1 + attempt % 4
        profile = ("semisimple-elliptic", "mixed", "hyperbolic")[attempt % 3]
        system = make_system(random_hamiltonian(n, 15000 + attempt, profile), tol)
        psi1 = system.psi(1.0)
        _, b, _, _ = split_blocks(psi1)
        if not _corner_invertible(b, tol) or singular_values(b)[-1] <= 1e-3:
            return None
        inertia, stable = stable_signature(_correction_matrix(psi1, tol), 1e-4, tol)
        if inertia.n_zero or not stable:
            return None
        report = validate(system, sigma=sigma, tol=tol)
        if report.formula_index is None:
            return None
        return report

    reports, rejected = _collect(sampler, samples)
    ok = all(r.agree for r in reports)
    return CheckResult("orbit index = graph index + correction", bool(ok),
                       "%d systems (n in 1..4), %d resampled, sigma=%+d"
                       % (samples, rejected, sigma))


# -- 10: loops ----------------------------------------------------------------------

def check_loop_identity(*, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Full-turn rotations: both routes give 2 per turn, additively."""
    one = 2.0 * math.pi * standard_J(1)
    two = standard_direct_sum([one, 2.0 * one])
    vals = (
        conley_zehnder(one, tol=tol),
        maslov_index_symplectic(one, tol=tol),
        conley_zehnder(two, tol=tol),
        maslov_index_symplectic(two, tol=tol),
    )
    want = (HalfInt.from_int(2), HalfInt.from_int(2),
            HalfInt.from_int(6), HalfInt.from_int(6))
    return CheckResult("loop indices", vals == want,
                       "single turn: graph %s orbit %s; turn + double turn: "
                       "graph %s orbit %s" % vals)


# -- 11: spectral identities ----------------------------------------------------------

def check_spectral_identities(samples: int = 30, *,
                              tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """For plane-aligned block systems the orbit scan matches the sum of
    the orbit closed form over the drawn speeds, and the graph scan the
    spectral route."""

    def sampler(attempt):
        n = 1 + attempt % 4
        rng = np.random.default_rng(16000 + attempt)
        kinds, speeds = [], []
        for _ in range(n):
            if rng.uniform() < 0.7:
                a = _safe_speed(rng, hi=9.0, avoid=speeds)
                if a is None:
                    return None
                speeds.append(a)
                kinds.append(("elliptic", a))
            else:
                kinds.append(("hyperbolic", rng.uniform(0.3, 1.2) * _pm(rng)))
        h = plane_block_generator(kinds)
        return (maslov_index_symplectic(h, tol=tol),
                sum(map(rotation_orbit_index, speeds), ZERO),
                conley_zehnder(h, tol=tol),
                spectral_conley_zehnder(h, tol))

    got, rejected = _collect(sampler, samples)
    ok = all(a == b and c == d for a, b, c, d in got)
    return CheckResult("spectral index identities", bool(ok),
                       "%d block systems (n in 1..4), %d resampled"
                       % (samples, rejected))


# -- 12: vanishing off the unit circle -------------------------------------------------

def check_zero_property(samples: int = 16, *, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Generators with no purely imaginary spectrum have graph index
    zero (and orbit index zero in block form)."""

    def sampler(attempt):
        rng = np.random.default_rng(17000 + attempt)
        kind = attempt % 4
        orbit_zero = True
        if kind in (0, 1):
            n = 1 + attempt % 3
            h = plane_block_generator(
                [("hyperbolic", rng.uniform(0.3, 1.3) * _pm(rng)) for _ in range(n)])
            if kind == 1:
                s = random_symplectic(n, rng)
                h = s @ h @ np.linalg.inv(s)
            else:
                orbit_zero = maslov_index_symplectic(h, tol=tol) == ZERO
        else:
            h = loxodromic_generator(rng.uniform(0.3, 0.9), rng.uniform(0.5, 2.5))
            if kind == 3:
                s = random_symplectic(2, rng)
                h = s @ h @ np.linalg.inv(s)
            else:
                orbit_zero = maslov_index_symplectic(h, tol=tol) == ZERO
        graph_zero = conley_zehnder(h, tol=tol) == ZERO
        spectral_zero = spectral_conley_zehnder(h, tol) == ZERO
        return bool(orbit_zero and graph_zero and spectral_zero)

    got, rejected = _collect(sampler, samples)
    return CheckResult("zero property off the unit circle", all(got),
                       "%d hyperbolic/loxodromic generators, %d resampled"
                       % (samples, rejected))


# -- 13: Krein pairing -----------------------------------------------------------------

def check_krein_pairing(samples: int = 50, tol: Tolerances = DEFAULT_TOL) -> CheckResult:
    """Krein inertias at conjugate eigenvalues are swapped, dimensions
    add up, and the sign convention matches the rotation oracle."""

    def sampler(attempt):
        n = 1 + attempt % 4
        h = random_hamiltonian(n, 18000 + attempt, "semisimple-elliptic")
        total, ok = 0, True
        for entry in krein_spectrum(h, tol):
            if entry.inertia is None or entry.eigenvalue.imag <= 1e-6:
                continue
            p, q = entry.inertia.pair
            ok &= entry.inertia.n_zero == 0
            other = krein_signature(h, -entry.eigenvalue.imag, tol)
            ok &= other.pair == (q, p) and other.n_zero == 0
            total += p + q
        ok &= total == n
        ok &= sum(b.dim for b in classify_normal_form(h, tol)) == 2 * n
        return bool(ok)

    got, rejected = _collect(sampler, samples)

    plus = plane_block_generator([("elliptic", 2.0)])
    anchor = (krein_signature(plus, 2.0, tol).pair == (1, 0)
              and krein_signature(plus, -2.0, tol).pair == (0, 1))
    mixed = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
    anchor &= (krein_signature(mixed, 2.0, tol).pair == (1, 0)
               and krein_signature(mixed, 3.0, tol).pair == (0, 1))

    return CheckResult("Krein signature pairing", bool(all(got) and anchor),
                       "%d elliptic systems (n in 1..4), %d resampled, "
                       "rotation anchors fixed" % (samples, rejected))


def run_property_suite(*, tol: Tolerances = DEFAULT_TOL):
    """All checks, in the order they are reported."""
    return [
        check_rotation_closed_forms(tol=tol),
        check_triple_axioms(tol=tol),
        check_transversal_triple(tol=tol),
        check_correction_symmetry(tol=tol),
        check_reduction_equality(tol=tol),
        check_reduced_form_signature(tol=tol),
        check_quadruple_path_independence(tol=tol),
        check_calibration(tol=tol),
        check_main_identity(tol=tol),
        check_loop_identity(tol=tol),
        check_spectral_identities(tol=tol),
        check_zero_property(tol=tol),
        check_krein_pairing(tol=tol),
    ]
