"""The calls the benchmark makes still run: a signature change that
breaks ``perfbench/workloads.py`` fails here, not in a benchmark run.

``perfbench/`` is only read, through the ``workloads`` fixture of
``conftest.py``.
"""

import pytest

import symindex
import symindex.checks  # noqa: F401  (``execute`` runs a check by name)


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
