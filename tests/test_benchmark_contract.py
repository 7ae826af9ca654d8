"""The calls the benchmark makes still run: a signature change that
breaks ``perfbench/workloads.py`` fails here, not in a benchmark run.

``perfbench/`` is only read: it is put on ``sys.path`` and imported
without writing bytecode next to it.
"""

import pathlib
import sys

import pytest

import symindex
import symindex.checks  # noqa: F401  (``execute`` runs a check by name)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return workloads


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
