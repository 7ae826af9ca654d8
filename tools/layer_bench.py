"""Per-layer timings of symindex, written to a BENCH_<pr>.json file.

    python tools/layer_bench.py --tree parent=/path/to/parent/src \
        --tree change=src --out BENCH_29.json

Each layer is called directly, not through a tracer.  On warm records
(``_warm``, so no timed call builds a record): ``autonomous.validate``
with the calibrated sign, ``maslov._flow_indices``, ``route_pair`` (the
public ``maslov_index_symplectic`` then ``conley_zehnder`` of one
generator, reported per pair) and the two public flow routes, which
read the eigen factors of a certified record where the tree has them,
``maslov.maslov_index_symplectic`` (``orbit_scan``) and
``maslov.conley_zehnder`` (``graph_scan``) of each generator;
``maslov._flow_record`` (its generators taken in turn, so each call
builds a record), ``autonomous.make_system`` (the same, so each call is
a cold generator check);
``maslov._eigenphases`` of W at the two ends of the scans of the orbit
path of each generator against ``vertical_lagrangian(n, tol)`` and of
its graph path against ``diagonal_lagrangian(n, tol)``
(``_eigenphases_orbit`` of size n, ``_eigenphases_graph`` of size 2 n;
reported per end, Z formed by the generic chart outside the timing);
``autonomous._correction_matrix``, ``autonomous._triple_routes``,
``autonomous.correction_sign`` and ``autonomous.maslov_via_formula``
with sigma = -1 (its ``conley_zehnder`` scan and its correction read one
flow record, which each call builds, the generators taken in turn),
``kashiwara.kashiwara_reduced`` of (diagonal, L0 x L0, graph of psi(1))
by their intersection K, where psi(1) is the one the library's formula
routes decide on, ``autonomous._time_one`` (``system.psi(1.0)`` in a
tree without it); on cold flow records (``_cold``, so every call builds
the record of its generator, as the ``_flow_record`` layer does by
taking its generators in turn) ``krein._krein_pass``, ``krein.krein_signature``,
``krein.is_semisimple``, ``krein_routes`` (per generator: its
``krein_spectrum``, ``krein_signature`` at +-Im of each cluster that
carries a Krein inertia, then ``classify_normal_form``; the record is
cleared once per generator), ``krein_routes_svd`` (the same on
standard_direct_sum([g, g]) for the generators g of size n // 2, whose
doubled eigenvalues are never certified, so every one takes the SVD
route; none at n = 1), ``spectral_conley_zehnder`` and
``conley_zehnder``; and
``maslov.find_crossings`` of the orbit path of each generator against
the vertical with three of its layers: ``_phase_samples`` on its grid
(reported per sample), ``_locate`` on that grid's counts (reported per
bisection round, its ``_phase_samples`` calls, counted on one call
outside the timing) and ``_forms`` at its crossing candidates (reported
per crossing), each at n = 1, 2,
4, 8 and 16, plus ``autonomous.calibrate_sign`` and
``checks.run_property_suite``.  The inputs are fixed and built outside
the timing: the generators random_hamiltonian(n, 1000 + s,
"semisimple-elliptic"), s < SYSTEMS, of the first tree; for
``_correction_matrix``, ``_triple_routes``, ``correction_sign`` and
``maslov_via_formula`` those whose time-one map is transversal; for ``krein_signature`` one query per cluster that
carries a Krein inertia in the first tree's ``krein_spectrum``, at the
imaginary part of its eigenvalue; and for the three scan layers the
arguments each tree's own ``find_crossings`` passes them, recorded on
one call.

Every tree (a ``src`` directory under a label) is imported into this one
interpreter as a package of its own, with BLAS pinned to one thread, so
the trees take turns pass by pass.  A layer is first called once on
each input of each tree to fill its caches (the property suite
excepted); then each of REPEATS repeats times one pass over the inputs
in every tree, and the tree that goes first alternates from repeat to
repeat, so a change of host speed falls on all trees alike.  The first
tree is always loaded a second time, as a package of its own under the
label "<first> copy", and measured as one more tree: an A/A control, whose
ratio to the first tree shows what identical code reads on this host and
in this order, so a change/parent ratio is read beside it.  The report
holds, for each tree, the milliseconds per call of every repeat and
their median; the ratio of each later tree's medians to the first
tree's, the copy's among them, with ``control`` naming the copy's; and
the host factor of perfbench/hostref.py (the median seconds of its
reference kernel, sampled after each layer, over REF_S; above 1 the host
ran slow).
"""

import os

# pin BLAS before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import hostref  # noqa: E402

#: generators per size
SYSTEMS = 8
SIZES = (1, 2, 4, 8, 16)
PER_SIZE = ("validate", "_flow_indices", "_flow_record", "make_system", "route_pair",
            "orbit_scan", "graph_scan", "_eigenphases_orbit", "_eigenphases_graph",
            "_correction_matrix", "_triple_routes", "correction_sign", "maslov_via_formula",
            "kashiwara_reduced", "_krein_pass", "krein_signature", "is_semisimple",
            "krein_routes", "krein_routes_svd", "spectral_conley_zehnder", "conley_zehnder",
            "find_crossings", "_phase_samples", "_locate", "_forms")
#: the layers called once per repeat: (name, module, warmed first)
SINGLE = (("calibrate_sign", "autonomous", True), ("run_property_suite", "checks", False))


def load(index, src):
    """The modules of the symindex package under ``src``, imported as
    the package ``symindex_tree<index>``."""
    init = Path(src) / "symindex" / "__init__.py"
    name = "symindex_tree%d" % index
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = {m: importlib.import_module(name + "." + m)
               for m in ("autonomous", "checks", "krein", "maslov", "numerics")}
    return dict(modules, package=package)


def _pass_ms(calls):
    """Milliseconds per unit of one pass over ``calls``, a list of
    (function, args, units): per call where units is 1, else per sample,
    per bisection round or per crossing."""
    t0 = time.perf_counter()
    for fn, args, _ in calls:
        fn(*args)
    return 1e3 * (time.perf_counter() - t0) / sum(units for _, _, units in calls)


def _time_layer(calls_by_tree, repeats, warm=True):
    """Per tree, the ms per call of each repeat, the trees taking turns;
    None for a tree without inputs."""
    if warm:
        for calls in calls_by_tree:
            for fn, args, _ in calls:
                fn(*args)
    runs = [[] if calls else None for calls in calls_by_tree]
    order = [k for k, calls in enumerate(calls_by_tree) if calls]
    for r in range(repeats):
        for k in order[::-1] if r % 2 else order:
            runs[k].append(_pass_ms(calls_by_tree[k]))
    return runs


def _scan_layers(ma, path, ref):
    """{name: args} of the first call of ``_phase_samples`` (the grid),
    ``_locate`` and ``_forms`` in one ``find_crossings`` of ``path``
    against ``ref``, recorded by wrapping them in the module."""
    names = ("_phase_samples", "_locate", "_forms")
    originals = {name: getattr(ma, name) for name in names}
    seen = {}

    def recorder(name):
        def call(*args):
            seen.setdefault(name, args)
            return originals[name](*args)
        return call

    for name in names:
        setattr(ma, name, recorder(name))
    try:
        ma.find_crossings(path, ref)
    finally:
        for name, fn in originals.items():
            setattr(ma, name, fn)
    return seen


def _rounds(ma, args):
    """Bisection rounds of ``_locate(*args)``: the ``_phase_samples``
    calls it makes, counted on one call by wrapping that function in the
    module."""
    original, rounds = ma._phase_samples, []

    def counted(*a, **kw):
        rounds.append(1)
        return original(*a, **kw)

    ma._phase_samples = counted
    try:
        ma._locate(*args)
    finally:
        ma._phase_samples = original
    return len(rounds)


def _end_phases(ma, path, ref, tol):
    """(``_eigenphases``, its arguments, 2) for W at the two ends of the
    scan of ``path`` against ``ref``; a tree whose ``_chart`` takes the
    path, not its space, is passed the path, and one whose
    ``_eigenphases`` takes no tolerances is passed none."""
    space = path.space if "space" in inspect.signature(ma._chart).parameters else path
    z = ma._chart_samples(path, ma._chart(space, ref, tol), numpy.array(path.interval), tol)[1]
    takes_tol = len(inspect.signature(ma._eigenphases).parameters) > 1
    return ma._eigenphases, (z, tol) if takes_tol else (z,), 2


def _cold(ma, fn):
    """``fn`` called on empty caches of the generator, whichever of the
    two a tree's ``maslov`` holds: the flow-record cache ``_record_of``
    (three entries, one in an older tree) and, in an older tree, the
    one-entry memo of its generator check (a tree without them builds
    every record and runs every check anyway).  The per-dimension caches
    it imports keep more entries and stay."""
    caches = [c for c in vars(ma).values()
              if hasattr(c, "cache_clear") and c.cache_info().maxsize in (1, 3)]

    def call(*args):
        for cache in caches:
            cache.cache_clear()
        return fn(*args)
    return call


def _warm(ma, fn):
    """``fn`` with every flow record it reads kept: for the call a tree's
    three-entry record cache ``_record_of`` gives way to an unbounded one
    over the same function, so that on more than three generators taken
    in turn each call finds the record its warm-up call built."""
    bounded = getattr(ma, "_record_of", None)
    if bounded is None:
        return fn
    kept = functools.lru_cache(maxsize=None)(bounded.__wrapped__)

    def call(*args):
        ma._record_of = kept
        try:
            return fn(*args)
        finally:
            ma._record_of = bounded
    return call


def _generators(tree, n):
    """The generators of size n: random_hamiltonian(n, 1000 + s,
    "semisimple-elliptic"), s < SYSTEMS."""
    return [tree["package"].random_hamiltonian(n, 1000 + s, "semisimple-elliptic")
            for s in range(SYSTEMS)]


def _doubled(tree, n):
    """The inputs of ``krein_routes_svd`` at size n: standard_direct_sum
    of two copies of each generator of size n // 2 (none at n = 1);
    ValueError if the flow record of one of them certifies its Krein
    pass, as then it would not take the SVD route."""
    kr, ma, tol = tree["krein"], tree["maslov"], tree["numerics"].DEFAULT_TOL
    hs = [kr.standard_direct_sum([g, g]) for g in _generators(tree, n // 2)] if n >= 2 else []
    if any(kr._certified_pass(ma._flow_record(h, None, tol), tol) is not None for h in hs):
        raise ValueError("a doubled generator of size %d is certified" % n)
    return hs


def _layer_calls(tree, hs, queries, doubled):
    """{layer: calls} of one tree for the generators ``hs``, the
    ``krein_signature`` queries, (h, alpha) pairs, and the SVD-route
    generators ``doubled``; a call is (function, args, units)."""
    au, kr, ma = tree["autonomous"], tree["krein"], tree["maslov"]
    tol = tree["numerics"].DEFAULT_TOL
    systems = [au.make_system(h) for h in hs]
    time_one = getattr(au, "_time_one", None)
    psi1s = [s.psi(1.0) if time_one is None else time_one(s, tol) for s in systems]
    transversal = []
    for system, psi1 in zip(systems, psi1s):
        try:
            transversal.append((system, psi1, au._correction_matrix(psi1, tol)))
        except tree["package"].SymindexError:
            pass
    space, diag, pair, red = au._triple_constants(systems[0].n, tol)[:4]
    graphs = [tree["package"].graph_lagrangian(psi1, tol) for psi1 in psi1s]
    scans = [(ma.orbit_path(s.h), ma.vertical_lagrangian(s.n, tol)) for s in systems]
    graph_scans = [(ma.graph_path(s.h), ma.diagonal_lagrangian(s.n, tol)) for s in systems]
    layers = [_scan_layers(ma, *scan) for scan in scans]
    rounds = [_rounds(ma, r["_locate"]) for r in layers]

    def forms(*args):
        return list(ma._forms(*args))

    def both_routes(h):
        return ma.maslov_index_symplectic(h), ma.conley_zehnder(h)

    validate, flow_indices, route_pair, orbit_scan, graph_scan = (
        _warm(ma, fn) for fn in (au.validate, ma._flow_indices, both_routes,
                                 ma.maslov_index_symplectic, ma.conley_zehnder))

    def krein_routes(h):
        for e in kr.krein_spectrum(h, tol):
            if e.inertia is not None:
                kr.krein_signature(h, e.eigenvalue.imag, tol)
                kr.krein_signature(h, -e.eigenvalue.imag, tol)
        return kr.classify_normal_form(h, tol)

    return {
        "validate": [(validate, (s,), 1) for s in systems],
        "_flow_indices": [(flow_indices, (s.h, tol), 1) for s in systems],
        "_flow_record": [(ma._flow_record, (s.h, None, tol), 1) for s in systems],
        "make_system": [(au.make_system, (h,), 1) for h in hs],
        "route_pair": [(route_pair, (s.h,), 1) for s in systems],
        "orbit_scan": [(orbit_scan, (s.h,), 1) for s in systems],
        "graph_scan": [(graph_scan, (s.h,), 1) for s in systems],
        "_eigenphases_orbit": [_end_phases(ma, *scan, tol) for scan in scans],
        "_eigenphases_graph": [_end_phases(ma, *scan, tol) for scan in graph_scans],
        "_correction_matrix": [(au._correction_matrix, (p, tol), 1) for _, p, _ in transversal],
        "_triple_routes": [(au._triple_routes, (p, x, tol), 1) for _, p, x in transversal],
        "correction_sign": [(au.correction_sign, (s,), 1) for s, _, _ in transversal],
        "maslov_via_formula": [(au.maslov_via_formula, (s, -1), 1) for s, _, _ in transversal],
        "kashiwara_reduced": [(tree["package"].kashiwara_reduced,
                               (space, red.k, diag, pair, g, tol), 1) for g in graphs],
        "_krein_pass": [(_cold(ma, kr._krein_pass), (s.h, tol), 1) for s in systems],
        "krein_signature": [(_cold(ma, kr.krein_signature), (h, alpha, tol), 1)
                            for h, alpha in queries],
        "is_semisimple": [(_cold(ma, kr.is_semisimple), (s.h, tol), 1) for s in systems],
        "krein_routes": [(_cold(ma, krein_routes), (s.h,), 1) for s in systems],
        "krein_routes_svd": [(_cold(ma, krein_routes), (h,), 1) for h in doubled],
        "spectral_conley_zehnder": [(_cold(ma, tree["package"].spectral_conley_zehnder),
                                     (s.h, tol), 1) for s in systems],
        "conley_zehnder": [(_cold(ma, ma.conley_zehnder), (s.h,), 1) for s in systems],
        "find_crossings": [(ma.find_crossings, scan, 1) for scan in scans],
        "_phase_samples": [(ma._phase_samples, r["_phase_samples"], len(r["_phase_samples"][2]))
                           for r in layers],
        "_locate": [(ma._locate, r["_locate"], k) for r, k in zip(layers, rounds) if k],
        "_forms": [(forms, r["_forms"], len(r["_forms"][2])) for r in layers if r["_forms"][2]],
    }


def _combine(fn, *tables):
    """``fn`` applied leaf by leaf to layer tables of one shape; a leaf
    is a number, a list of repeats or None (which stays None)."""
    if isinstance(tables[0], dict):
        return {key: _combine(fn, *(t[key] for t in tables)) for key in tables[0]}
    return None if any(t is None for t in tables) else fn(*tables)


def bench(trees, repeats, sizes):
    """The report of ``trees``, a list of (label, src), and of the A/A
    copy of the first tree, measured last."""
    trees = list(trees) + [("%s copy" % trees[0][0], trees[0][1])]
    loaded = [load(k, src) for k, (_, src) in enumerate(trees)]
    host = hostref.HostReference()
    runs = [{name: {} for name in PER_SIZE} for _ in trees]
    for n in sizes:
        hs = _generators(loaded[0], n)
        queries = [(h, e.eigenvalue.imag) for h in hs
                   for e in loaded[0]["krein"].krein_spectrum(h) if e.inertia is not None]
        doubled = _doubled(loaded[0], n)
        calls = [_layer_calls(tree, hs, queries, doubled) for tree in loaded]
        for name in PER_SIZE:
            for k, r in enumerate(_time_layer([c[name] for c in calls], repeats)):
                runs[k][name][str(n)] = r
            host.sample()
    for name, module, warm in SINGLE:
        per_tree = [[(getattr(tree[module], name), (), 1)] for tree in loaded]
        for k, r in enumerate(_time_layer(per_tree, repeats, warm)):
            runs[k][name] = r
        host.sample()
    medians = [_combine(statistics.median, r) for r in runs]
    return {
        "script": "tools/layer_bench.py",
        "unit": "ms per call; route_pair per pair, krein_routes and krein_routes_svd "
                "per generator, orbit_scan and graph_scan per scan, _eigenphases_orbit and "
                "_eigenphases_graph per end, _phase_samples per sample, _locate per bisection round, _forms per crossing",
        "settings": {"repeats": repeats, "sizes": list(sizes), "systems_per_size": SYSTEMS,
                     "blas_threads": 1},
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "machine": platform.machine(), "cpus": os.cpu_count()},
        "host_factor": statistics.median(host.samples) / hostref.REF_S,
        "trees": {label: {"median_ms": m, "runs_ms": r}
                  for (label, _), m, r in zip(trees, medians, runs)},
        "ratios": {"%s/%s" % (label, trees[0][0]): _combine(lambda a, b: a / b, m, medians[0])
                   for (label, _), m in zip(trees[1:], medians[1:])},
        "control": "%s/%s" % (trees[-1][0], trees[0][0]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[], metavar="LABEL=SRC",
                        help="a src directory to measure under a label; repeat to compare, "
                             "the first is the base of the ratios and is measured again as "
                             "its A/A copy (default: change=src)")
    parser.add_argument("--out", help="write the report here (default: standard output)")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args(argv)
    trees = [tuple(t.split("=", 1)) for t in args.tree] or [("change", "src")]
    trees = [(label, (ROOT / src).resolve()) for label, src in trees]
    sizes = tuple(int(n) for n in args.sizes.split(","))
    text = json.dumps(bench(trees, args.repeats, sizes), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
