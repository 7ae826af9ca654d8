"""The parity sweep writes one JSON record per input."""

import functools
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROUTES = {"maslov_index_symplectic", "conley_zehnder", "validate", "triple_routes_from",
          "krein_spectrum", "spectral_conley_zehnder", "is_semisimple", "krein_signature",
          "find_crossings", "crossing_form", "wide_orbit", "explicit_orbit"}


def test_parity_sweep_records_every_route_of_its_first_inputs():
    """``--limit 3`` writes the records of the first three inputs (n = 1,
    2, 3), each with every route; on them the routes agree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "parity_sweep.py"),
                        "--limit", "3"], cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=120)
    assert r.returncode == 0, r.stderr
    records = [json.loads(line) for line in r.stdout.splitlines()]
    assert [rec["input"] for rec in records] == [
        "random 0 generic", "random 1 semisimple-elliptic", "random 2 hyperbolic"]
    for n, rec in enumerate(records, 1):
        assert set(rec) == ROUTES | {"input"}
        assert rec["validate"]["orbit_index"] == rec["maslov_index_symplectic"]
        assert rec["validate"]["graph_index"] == rec["conley_zehnder"]
        assert rec["validate"]["agree"] is True
        triple = rec["triple_routes_from"]
        assert set(triple) == {"tau_direct", "tau_reduced", "sign_x", "sign_y"}
        assert len(set(triple.values())) == 1
        assert (triple["tau_direct"], triple["tau_reduced"], -triple["sign_x"]) == (
            rec["validate"]["tau_direct"], rec["validate"]["tau_reduced"],
            rec["validate"]["correction"])
        assert rec["spectral_conley_zehnder"] == rec["conley_zehnder"]
        assert isinstance(rec["wide_orbit"], str)  # an index, not a typed error
        assert rec["explicit_orbit"] == rec["maslov_index_symplectic"]
        assert sum(entry[2] for entry in rec["krein_spectrum"]) == 2 * n
        scans = rec["find_crossings"]
        assert (scans["orbit"]["index"], scans["graph"]["index"]) == (
            rec["maslov_index_symplectic"], rec["conley_zehnder"])
        for path, scan in scans.items():
            assert scan["baseline_dim"] == 0
            times = [float.fromhex(time) for time, _, _, _ in scan["crossings"]]
            assert times == sorted(times) and times[0] == 0.0
            for time, (_, dim, pair, at_endpoint) in zip(times, scan["crossings"]):
                assert sum(pair) == dim and at_endpoint == (time in (0.0, 1.0))
            # the forms at the ends are those of the end crossings, or empty
            ends = {float.fromhex(time): [dim, pair]
                    for time, dim, pair, at_endpoint in scan["crossings"] if at_endpoint}
            assert rec["crossing_form"][path] == [ends.get(t, [0, [0, 0]]) for t in (0.0, 1.0)]


def _load_sweep():
    spec = importlib.util.spec_from_file_location("parity_sweep", ROOT / "tools" / "parity_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_parity_sweep_queries_the_krein_signature_of_a_slow_rotation():
    """The last ``slow`` input, 2e-6 J_1, lies beyond the cluster gap:
    its two eigenvalues are two clusters, each queried by
    ``krein_signature`` at +-Im of its eigenvalue."""
    sweep = _load_sweep()
    name, h = [(name, h) for name, h in sweep.ensemble() if name.startswith("slow 0x")][-1]
    rec = sweep.record(name, h)
    eps = float.fromhex(name.split()[1])
    assert eps == 2e-6 and set(rec) == ROUTES | {"input"}
    assert rec["is_semisimple"] is True
    assert rec["spectral_conley_zehnder"] == rec["conley_zehnder"] == "1"
    assert rec["krein_signature"] == [[float.hex(eps), [1, 0, 0]], [float.hex(-eps), [0, 1, 0]],
                                      [float.hex(-eps), [0, 1, 0]], [float.hex(eps), [1, 0, 0]]]


def test_parity_sweep_records_the_refusals_of_the_fastest_rotation():
    """The last ``fast`` input, 1e17 J_1, needs more cells than either
    scan may take, and its speed is too large for the closed form; the
    sweep runs no ``find_crossings``, ``crossing_form``, wide orbit or
    explicit orbit on it."""
    sweep = _load_sweep()
    name, h = [(name, h) for name, h in sweep.ensemble() if name.startswith("fast ")][-1]
    rec = sweep.record(name, h)
    assert float.fromhex(name.split()[1]) == 1e17
    for route in ("maslov_index_symplectic", "conley_zehnder"):
        assert rec[route]["error"] == "GridTooCoarse"
    assert rec["spectral_conley_zehnder"]["error"] == "InputError"
    assert set(rec) == ROUTES - {"find_crossings", "crossing_form", "wide_orbit",
                                 "explicit_orbit"} | {"input"}


def test_parity_sweep_lists_the_crossings_of_paths_that_end_near_the_reference():
    """The ``near`` ensemble holds 52 rotations within 1e-12 to 1e-6 of pi
    and 2 pi.  At 2 pi +- 1e-9 both crossing lists once raised
    InternalMismatch at their end; each now sums to the phase index.
    Both paths end at an angle 1e-9 from the reference, an eigenphase of
    2e-9 that the scan does not count, so ``crossing_form`` has no
    columns there and neither list has a crossing at that end."""
    sweep = _load_sweep()
    near = [(name, h) for name, h in sweep.ensemble() if name.startswith("near ")]
    assert len(near) == 52
    picked = [(name, h) for name, h in near
              if name.startswith("near 2pi") and float.fromhex(name.split()[-1]) == 1e-9]
    assert len(picked) == 2
    for name, h in picked:
        rec = sweep.record(name, h)
        assert rec["find_crossings"]["orbit"]["index"] == rec["maslov_index_symplectic"]
        assert rec["find_crossings"]["graph"]["index"] == rec["conley_zehnder"]
        for path in ("orbit", "graph"):
            assert rec["crossing_form"][path][1] == [0, [0, 0]]
            assert all(time != float.hex(1.0)
                       for time, _, _, _ in rec["find_crossings"][path]["crossings"])


def test_layer_bench_reports_every_layer_of_a_tree(tmp_path):
    """One repeat at n = 1 writes, for the tree measured and for its A/A
    copy, loaded again under its own label, every layer's time per call
    and its median, the copy's ratios to the tree as the control, and the
    host factor.  ``_locate`` is timed per bisection round, a part of one
    ``find_crossings``."""
    out = tmp_path / "bench.json"
    r = subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "layer_bench.py"),
                        "--tree", "change=src", "--repeats", "1", "--sizes", "1",
                        "--out", str(out)],
                       cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert set(report) == {"script", "unit", "settings", "environment", "host_factor", "trees",
                           "ratios", "control"}
    assert report["host_factor"] > 0 and report["control"] == "change copy/change"
    assert set(report["trees"]) == {"change", "change copy"} and set(report["ratios"]) == {
        "change copy/change"}
    assert report["ratios"]["change copy/change"]["validate"]["1"] > 0
    tree = report["trees"]["change"]
    per_size = {"validate", "_flow_indices", "_flow_record", "make_system", "route_pair",
                "orbit_scan", "graph_scan", "_eigenphases_orbit", "_eigenphases_graph",
                "_correction_matrix",
                "_triple_routes", "correction_sign", "maslov_via_formula", "kashiwara_reduced",
                "_krein_pass", "krein_signature", "is_semisimple", "krein_routes",
                "spectral_conley_zehnder", "conley_zehnder", "find_crossings", "_phase_samples",
                "_locate", "_forms"}
    for key in ("median_ms", "runs_ms"):
        assert set(tree[key]) == per_size | {"krein_routes_svd", "calibrate_sign",
                                             "run_property_suite"}
        for layer in per_size:
            assert set(tree[key][layer]) == {"1"}
        assert tree[key]["krein_routes_svd"] == {"1": None}  # no generator of size 1 / 2
    for layer in per_size:
        assert len(tree["runs_ms"][layer]["1"]) == 1
        assert tree["median_ms"][layer]["1"] == tree["runs_ms"][layer]["1"][0] > 0
    assert tree["median_ms"]["run_property_suite"] > 0
    assert "_locate per bisection round" in report["unit"]


def _load_bench(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins them on import; restored after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layer_bench", ROOT / "tools" / "layer_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_layer_bench_counts_the_bisection_rounds_of_a_recorded_locate(monkeypatch):
    """The unit of ``_locate`` is one bisection round: on the call that
    ``find_crossings`` makes for 5 J_1 (a crossing at pi / 5), whose
    cells of width 1/256 halve down to ``REFINE_XTOL`` = 1e-12 in 32
    rounds, ``_rounds`` counts 32."""
    import numpy as np
    from symindex import maslov, orbit_path, standard_J, vertical_lagrangian

    bench = _load_bench(monkeypatch)
    layers = bench._scan_layers(maslov, orbit_path(5.0 * standard_J(1)), vertical_lagrangian(1))
    assert len(layers["_locate"][2]) == 257  # the grid times
    assert int(np.ceil(np.log2((1.0 / 256) / maslov.REFINE_XTOL))) == 32
    assert bench._rounds(maslov, layers["_locate"]) == 32


def test_layer_bench_builds_a_flow_record_on_every_call_of_its_layer(monkeypatch):
    """The ``_flow_record`` and ``make_system`` layers take their
    generators in turn, so a pass, after the warm-up pass, builds all of
    their records: the one kept record is never the next one asked for.
    A ``correction_sign`` builds one record for its psi(1), and a
    ``maslov_via_formula`` one for its scan and its correction.  The
    warm layers (``validate``, ``_flow_indices``, ``route_pair`` and the
    two public flow routes) build none after their warm-up pass, though
    their 8 generators taken in turn outnumber the three kept records.
    The Krein layers and the two CZ routes clear the cache before each
    call, so each builds its record, and
    ``krein_routes`` and ``krein_routes_svd`` build one record per
    generator for all their calls."""
    import numpy as np
    import symindex
    from symindex import autonomous, krein, maslov, numerics, random_hamiltonian

    bench = _load_bench(monkeypatch)
    built, build = [], maslov._record_of.__wrapped__

    def building(*args):
        built.append(1)
        return build(*args)

    monkeypatch.setattr(maslov, "_record_of", functools.lru_cache(maxsize=3)(building))
    tree = {"autonomous": autonomous, "krein": krein, "maslov": maslov, "numerics": numerics,
            "package": symindex}
    hs = [random_hamiltonian(1, 1000 + s, "semisimple-elliptic") for s in range(bench.SYSTEMS)]
    queries = [(h, e.eigenvalue.imag) for h in hs for e in krein.krein_spectrum(h)]
    calls = bench._layer_calls(tree, hs, queries, bench._doubled(tree, 2))
    assert len(calls["correction_sign"]) == len(calls["maslov_via_formula"]) > 1
    for layer, hits in (("_flow_record", 0), ("make_system", 0), ("correction_sign", 0),
                        ("maslov_via_formula", 1)):
        bench._pass_ms(calls[layer])
        before = maslov._record_of.cache_info()
        bench._pass_ms(calls[layer])
        after = maslov._record_of.cache_info()
        count = len(calls[layer])
        assert (after.misses - before.misses, after.hits - before.hits) == (count, hits * count)
    for layer in ("validate", "_flow_indices", "route_pair", "orbit_scan", "graph_scan"):
        assert len(calls[layer]) == bench.SYSTEMS > 3
        bench._pass_ms(calls[layer])
        built.clear()
        bench._pass_ms(calls[layer])
        assert not built, layer
    # clearing the cache resets its counts, so the cold layers count the eig of each record
    eigs = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: (eigs.append(1), eig(a))[1])
    for layer, records in (("_krein_pass", bench.SYSTEMS), ("is_semisimple", bench.SYSTEMS),
                           ("spectral_conley_zehnder", bench.SYSTEMS),
                           ("conley_zehnder", bench.SYSTEMS), ("krein_routes", bench.SYSTEMS),
                           ("krein_routes_svd", bench.SYSTEMS),
                           ("krein_signature", len(queries))):
        bench._pass_ms(calls[layer])
        eigs.clear()
        bench._pass_ms(calls[layer])
        assert len(eigs) == records, layer


_SNIPPET = '''"""A module docstring,
on two lines."""

import math  # a comment after code

TEXT = """a string that is
not a docstring"""


def f(x):
    """A function docstring."""
    # a comment line
    return math.fsum([x,
                      x])
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    """``tools/code_lines.py`` counts each line of a statement that spans
    several lines, a string that is not a docstring among them, and no
    docstring, comment or blank line: 6 on the snippet.  Its report
    lists every module of the package and their total."""
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.code_lines(_SNIPPET) == 6
    r = subprocess.run([sys.executable, "-B", str(ROOT / "tools" / "code_lines.py")],
                       cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()]
    modules = sorted(p.name for p in (ROOT / "src" / "symindex").glob("*.py"))
    assert [name for name, _ in rows] == modules + ["total"]
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
