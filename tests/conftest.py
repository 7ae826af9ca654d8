"""Settings shared by every test module.

Hypothesis draws its examples from a fixed seed, so every run tests the
same examples; with a fixed seed it keeps no example database.  Its one
remaining cache, of the constants it reads from the source files, goes
to the temporary directory, so a run writes nothing into the checkout.

The ``workloads`` fixture is the benchmark's input generator,
``perfbench/workloads.py``.  ``perfbench/`` is only read: it is put on
``sys.path`` for the import and no bytecode is written next to it.

Every test starts with an empty flow-record cache (``maslov._record_of``),
so what a test counts of the records it builds does not depend on the
tests run before it.
"""

import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from symindex import maslov

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "symindex-hypothesis")


@pytest.fixture(autouse=True)
def cold_flow_records():
    maslov._record_of.cache_clear()


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
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
