"""The calls the benchmark makes still run: a signature change that
breaks ``perfbench/workloads.py`` fails here, not in a benchmark run.
Nor may a change break its traced run: ``perfbench/tracing.py`` must
still find every layer boundary it wraps, and the public flow routes
must sample the same code traced as untraced.

``perfbench/`` is only read, through the ``workloads`` fixture of
``conftest.py`` and, for the traced run, by a subprocess that writes no
bytecode.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import symindex
import symindex.checks  # noqa: F401  (``execute`` runs a check by name)
from symindex import maslov


@pytest.mark.parametrize("workload,first_pass", [
    ("index-small", True),       # validate, calibrated sigma
    ("dense-crossings", True),   # orbit and graph scans at grids 256 and 1024
    ("index-large", False),      # validate, sigma = -1
    ("acceptance", False),       # one property check by name
])
def test_benchmark_ops_run(workloads, workload, first_pass):
    ops = (workloads.make_pass(workload, 0, 0) if first_pass
           else [workloads.reference_op(workload)])
    outcomes = [o for op in ops for o in workloads.execute(op, symindex)]
    assert outcomes
    assert not [o for o in outcomes if o.failed], [o.error for o in outcomes if o.failed]


ROOT = pathlib.Path(__file__).resolve().parent.parent

#: installs the tracer, runs the reference op of every workload, and
#: prints the boundaries left unwrapped, the failed outcomes and the spans
_TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import symindex, symindex.checks
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer, symindex)
names = [(m, f) for m, f, _ in tracing.SPANS]
names += [("maslov", f) for f in tracing.PATH_FACTORIES]
names += [("numerics", f) for f in tracing.SVD_FUNCTIONS]
unwrapped = [m + "." + f for m, f in names
             if not hasattr(getattr(sys.modules["symindex." + m], f), "__wrapped__")]
if not hasattr(symindex.HamiltonianSystem.psi, "__wrapped__"):
    unwrapped.append("autonomous.HamiltonianSystem.psi")
spans, failed = {}, []
for w in workloads.WORKLOADS:
    start = len(tracer.spans)
    outcomes = workloads.execute(workloads.reference_op(w), symindex)
    failed += [(w, o.error) for o in outcomes if o.failed]
    spans[w] = sorted({rec[0] for rec in tracer.spans[start:]})
print(json.dumps({"unwrapped": unwrapped, "failed": failed, "spans": spans}))
"""


def test_traced_run_wraps_every_layer_boundary():
    """With ``tracing.install``, every name of ``SPANS``,
    ``PATH_FACTORIES`` and ``SVD_FUNCTIONS`` and
    ``HamiltonianSystem.psi`` is a wrapper; the reference op of every
    workload runs without failure, and the index op leaves an
    ``autonomous.validate`` span."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-B", "-c", _TRACED_RUN, str(ROOT / "perfbench")],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["unwrapped"] == []
    assert report["failed"] == []
    assert set(report["spans"]) == {"index-small", "index-large", "dense-crossings",
                                    "acceptance"}
    assert "autonomous.validate" in report["spans"]["index-small"]
    assert "autonomous.validate" in report["spans"]["index-large"]


#: counts the ``maslov._chart_samples`` calls of the two public flow
#: routes on 5 J_1, untraced and then traced, and prints them
_FLOW_ROUTES_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import symindex, symindex.checks
from symindex import maslov
import tracing
calls = []
chart_samples = maslov._chart_samples

def counting(*args):
    calls.append(1)
    return chart_samples(*args)

maslov._chart_samples = counting
h = 5.0 * symindex.standard_J(1)
report = {}
for run in ("untraced", "traced"):
    if run == "traced":
        tracing.install(tracing.Tracer(), symindex)
    for route in ("maslov_index_symplectic", "conley_zehnder"):
        del calls[:]
        index = getattr(symindex, route)(h)
        report[run + " " + route] = [str(index), len(calls)]
print(json.dumps(report))
"""


def test_traced_flow_routes_sample_as_untraced():
    """After ``tracing.install``, whose path factories replace a path's
    frame function, ``maslov_index_symplectic(5 J_1)`` and
    ``conley_zehnder(5 J_1)`` give the untraced indices and, as untraced,
    read the eigen factors of their certified record: no
    ``maslov._chart_samples`` call."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-B", "-c", _FLOW_ROUTES_RUN, str(ROOT / "perfbench")],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == {
        "untraced maslov_index_symplectic": ["3/2", 0], "untraced conley_zehnder": ["1", 0],
        "traced maslov_index_symplectic": ["3/2", 0], "traced conley_zehnder": ["1", 0]}


def test_the_benchmark_scans_only_certified_flow_records(workloads, monkeypatch):
    """Every flow record that ``maslov._flow_scans`` scans in the first
    pass of index-small, index-large and dense-crossings, and in one
    ``run_property_suite()``, is certified (has ``factors``): the generic
    scan that a record without factors takes, one path per route, is
    slower, and none of these calls takes it."""
    flow_scans, records = maslov._flow_scans, []

    def recording(record, routes, tol):
        records.append(record)
        return flow_scans(record, routes, tol)

    monkeypatch.setattr(maslov, "_flow_scans", recording)
    for workload in ("index-small", "index-large", "dense-crossings"):
        start = len(records)
        ops = workloads.make_pass(workload, workloads.REFERENCE_SEED, 0)
        outcomes = [o for op in ops for o in workloads.execute(op, symindex)]
        assert not [o for o in outcomes if o.failed], workload
        assert len(records) > start, workload
    start = len(records)
    assert all(r.passed for r in symindex.checks.run_property_suite())
    assert len(records) > start
    assert [r for r in records if r.factors is None] == []
