"""Parity sweep: the answer of every index route on seeded generators.

    PYTHONPATH=src python tools/parity_sweep.py > change.jsonl
    PYTHONPATH=/path/to/parent/src python tools/parity_sweep.py > parent.jsonl
    diff parent.jsonl change.jsonl

Writes one JSON line per input generator: its name and, for each route
(``maslov_index_symplectic``, ``conley_zehnder``, ``validate`` with
sigma = -1, ``triple_routes_from`` of psi(1) with all four of its
routes, ``krein_spectrum``, ``spectral_conley_zehnder``,
``is_semisimple``, ``krein_signature`` at +-Im of every
``krein_spectrum`` cluster that carries a Krein inertia, and
``find_crossings`` of the orbit path against the vertical and of the
graph path against the diagonal, each with its index, ``baseline_dim``
and (time, dim, inertia pair, ``at_endpoint``) of every crossing, and
``crossing_form`` of the same two paths at both interval ends, each
with the column count of V and the inertia pair of gamma, and
``maslov_index`` of the orbit path on (-0.5, 1.5) against the vertical,
whose samples outside [0, 1] no certificate covers, and of the orbit
path from the explicit start ``vertical_lagrangian(n)`` against the
vertical), the answer or the class and message of the typed error (for
``triple_routes_from``, TransversalityViolated where the upper-right
block of psi(1) is singular).  ``find_crossings``, ``crossing_form``
and the wide and explicit orbits are not run on the ``fast`` ensemble,
whose first speed needs about 3.6e5 cells in a scan.  Floats
are written as ``float.hex``, so two trees agree on a line only when
they agree bit for bit.  Run the same script against the ``src`` of two
trees and diff the outputs to see every answer a change moved.
``--limit N`` stops after N inputs.

The ensembles:

- ``random``: k * random_hamiltonian(1 + s % 4, 9000 + s, profile),
  k = 1 + s % 3, the four profiles in turn, s < 400; 15 more at each of
  n = 8 and n = 16;
- ``growth``: 20 * random_hamiltonian(1 + s % 3, 5000 + s, profile),
  mixed and hyperbolic in turn, s < 30, where frames lose rank;
- ``rotation``: alpha J_1 for 97 speeds in [-400, 400] and for 2000,
  3000 and 8000, where a crossing located to 1e-12 still has an
  eigenphase of up to 2 alpha 5e-13 there, and loops of 1, 3, 10 and 100
  turns;
- ``fast``: alpha J_1 for 12 log-spaced alpha in [1e6, 1e17], where the
  scans need more than ``MAX_CELLS`` cells and the closed forms meet the
  spacing of doubles at alpha/pi;
- ``slow``: eps J_1 and the plane pair of speeds eps and -2 eps for 19
  log-spaced eps in [1e-12, 2e-6], around the cluster gap;
- ``shear``: the nilpotent shears [[0, +-1], [0, 0]];
- ``jordan``: one Jordan block of size 2, 3 or 4 at +-i omega
  (omega 0, 0.7, 2), Krein sign +-1, nilpotent part 1e-3, 1e-2 or 1,
  conjugated by random_symplectic(n, seed, 0.5), seeds 0-5;
- ``near``: (pi +- delta) J_1 and (2 pi +- delta) J_1 for 13 log-spaced
  delta in [1e-12, 1e-6], where the orbit paths, and the graph paths
  near 2 pi, end within an angle delta of the reference.
"""

import argparse
import json
import sys

import numpy as np

from symindex import (
    SymindexError,
    SymplecticSpace,
    conley_zehnder,
    crossing_form,
    darboux_frame,
    find_crossings,
    graph_path,
    is_semisimple,
    krein_signature,
    krein_spectrum,
    make_system,
    maslov_index,
    maslov_index_symplectic,
    orbit_path,
    plane_block_generator,
    random_hamiltonian,
    random_symplectic,
    spectral_conley_zehnder,
    standard_J,
    sym_signature,
    triple_routes_from,
    validate,
    vertical_lagrangian,
)
from symindex.symplectic import diagonal_lagrangian

PROFILES = ("generic", "semisimple-elliptic", "hyperbolic", "mixed")


def jordan_generator(size, omega, sign, nilpotent):
    """A Hamiltonian generator with one Jordan block of ``size`` at
    +-i omega (at 0 when omega is 0) in the standard space: omega J_1 (x)
    I + I (x) N on R^2 (x) R^size, N nilpotent.  Even size: form I (x) J,
    N in sp(size).  Odd size: form J_1 (x) G, G the antidiagonal ``sign``
    flip, N in o(G), so the Krein sign at +i omega is ``sign``.  The
    construction of ``_jordan_generator`` in tests/test_krein.py, kept
    here so the sweep imports nothing from the tests of either tree."""
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


def ensemble():
    """Yields (name, generator) of every input, in a fixed order."""
    for s in range(400):
        profile = PROFILES[s % 4]
        yield ("random %d %s" % (s, profile),
               (1 + s % 3) * random_hamiltonian(1 + s % 4, 9000 + s, profile))
    for n in (8, 16):
        for s in range(15):
            profile = PROFILES[s % 4]
            yield "random n=%d %d %s" % (n, s, profile), random_hamiltonian(n, 9500 + s, profile)
    for s in range(30):
        profile = ("mixed", "hyperbolic")[s % 2]
        yield ("growth %d %s" % (s, profile),
               20.0 * random_hamiltonian(1 + s % 3, 5000 + s, profile))
    for alpha in np.linspace(-400.0, 400.0, 97).tolist() + [2000.0, 3000.0, 8000.0]:
        yield "rotation %s" % float.hex(alpha), alpha * standard_J(1)
    for turns in (1, 3, 10, 100):
        yield "loop %d" % turns, 2.0 * np.pi * turns * standard_J(1)
    for alpha in np.geomspace(1e6, 1e17, 12).tolist():
        yield "fast %s" % float.hex(alpha), alpha * standard_J(1)
    for eps in np.geomspace(1e-12, 2e-6, 19).tolist():
        yield "slow %s" % float.hex(eps), eps * standard_J(1)
        yield ("slow pair %s" % float.hex(eps),
               plane_block_generator([("elliptic", eps), ("elliptic", -2.0 * eps)]))
    for sign in (1.0, -1.0):
        yield "shear %+g" % sign, np.array([[0.0, sign], [0.0, 0.0]])
    for size in (2, 3, 4):
        for omega in (0.0, 0.7, 2.0):
            for sign in (1.0, -1.0):
                for nilpotent in (1e-3, 1e-2, 1.0):
                    base = jordan_generator(size, omega, sign, nilpotent)
                    for seed in range(6):
                        s = random_symplectic(base.shape[0] // 2, seed, scale=0.5)
                        yield ("jordan size=%d omega=%g sign=%+g nilpotent=%g seed=%d"
                               % (size, omega, sign, nilpotent, seed),
                               s @ base @ np.linalg.inv(s))
    for turns in (1, 2):
        for sign in (1.0, -1.0):
            for delta in np.geomspace(1e-12, 1e-6, 13).tolist():
                yield ("near %dpi %+g %s" % (turns, sign, float.hex(delta)),
                       (turns * np.pi + sign * delta) * standard_J(1))


def _report(report):
    return {field: value if value is None or isinstance(value, int) else str(value)
            for field, value in vars(report).items()}


def _spectrum(spectrum):
    return [[float.hex(e.eigenvalue.real), float.hex(e.eigenvalue.imag), e.multiplicity,
             None if e.inertia is None else [e.inertia.n_pos, e.inertia.n_neg, e.inertia.n_zero]]
            for e in spectrum]


def _answer(run, *args):
    """``run(*args)``, or {"error": class name, "message": text} for a
    typed error."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return run(*args)
    except SymindexError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _inertia(h, alpha):
    inertia = krein_signature(h, alpha)
    return [inertia.n_pos, inertia.n_neg, inertia.n_zero]


def _signatures(h):
    """[alpha, answer of krein_signature(h, alpha)] for alpha = +-Im of
    every cluster of ``krein_spectrum`` that carries a Krein inertia."""
    return [[float.hex(alpha), _answer(_inertia, h, alpha)]
            for e in krein_spectrum(h) if e.inertia is not None
            for alpha in (e.eigenvalue.imag, -e.eigenvalue.imag)]


def _scan(path, ref):
    """Index, ``baseline_dim`` and crossings of ``find_crossings``."""
    scan = find_crossings(path, ref)
    return {"index": str(scan.index), "baseline_dim": scan.baseline_dim,
            "crossings": [[float.hex(c.time), c.dim, list(c.inertia.pair), c.at_endpoint]
                          for c in scan.crossings]}


def _paths(h, run):
    """{path: answer of ``run(path, reference)``} on the orbit path
    against the vertical and the graph path against the diagonal."""
    n = len(h) // 2
    return {"orbit": _answer(lambda: run(orbit_path(h), vertical_lagrangian(n))),
            "graph": _answer(lambda: run(graph_path(h), diagonal_lagrangian(n)))}


def _end_forms(path, ref):
    """[column count of V, inertia pair of gamma] of ``crossing_form``
    at each end of the path's interval."""
    return [[v.shape[1], list(sym_signature(gamma).pair)]
            for v, gamma in (crossing_form(path, ref, t) for t in path.interval)]


def _explicit_orbit(h):
    """``maslov_index`` of the orbit from an explicit vertical start."""
    vertical = vertical_lagrangian(len(h) // 2)
    return str(maslov_index(orbit_path(h, vertical), vertical))


ROUTES = {
    "maslov_index_symplectic": lambda h: str(maslov_index_symplectic(h)),
    "conley_zehnder": lambda h: str(conley_zehnder(h)),
    "validate": lambda h: _report(validate(make_system(h), sigma=-1)),
    "triple_routes_from": lambda h: vars(triple_routes_from(make_system(h).psi(1.0))),
    "krein_spectrum": lambda h: _spectrum(krein_spectrum(h)),
    "spectral_conley_zehnder": lambda h: str(spectral_conley_zehnder(h)),
    "is_semisimple": is_semisimple,
    "krein_signature": _signatures,
    "find_crossings": lambda h: _paths(h, _scan),
    "crossing_form": lambda h: _paths(h, _end_forms),
    "wide_orbit": lambda h: str(maslov_index(orbit_path(h, None, (-0.5, 1.5)),
                                             vertical_lagrangian(len(h) // 2))),
    "explicit_orbit": _explicit_orbit,
}
#: routes not run on an ensemble
SKIPPED = {"fast": {"find_crossings", "crossing_form", "wide_orbit", "explicit_orbit"}}


def record(name, h):
    """The JSON object of one input: its name and each route's answer
    (``_answer``)."""
    skipped = SKIPPED.get(name.split()[0], set())
    return dict({"input": name}, **{route: _answer(run, h) for route, run in ROUTES.items()
                                    if route not in skipped})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit", type=int, default=None, help="stop after this many inputs")
    args = parser.parse_args(argv)
    for k, (name, h) in enumerate(ensemble()):
        if args.limit is not None and k >= args.limit:
            break
        sys.stdout.write(json.dumps(record(name, h), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
