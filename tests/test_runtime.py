"""The runtime needs numpy only: importing symindex and running every
route that once called scipy loads no scipy module.

A lazy import would only move scipy's import cost into the first call,
so the routes run in the same fresh interpreter before the check.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROUTES = """
import sys

import numpy as np

import symindex as si
from symindex.maslov import _flow_record
from symindex.numerics import DEFAULT_TOL

shear = np.array([[0.0, 1.0], [0.0, 0.0]])
jordan = np.block([[2.0 * si.standard_J(1), np.zeros((2, 2))],
                   [np.eye(2), 2.0 * si.standard_J(1)]])
assert si.validate(si.make_system(3.0 * si.random_hamiltonian(2, 7, "mixed"))).agree
assert _flow_record(shear, None, DEFAULT_TOL).eigen is None  # the expm fallback
assert si.conley_zehnder(shear) == si.HalfInt(-1)
assert [e.inertia for e in si.krein_spectrum(jordan)] == [si.Inertia(1, 1, 0)] * 2
assert si.krein_signature(jordan, 2.0) == si.Inertia(1, 1, 0)
path = si.unitary_geodesic(si.vertical_lagrangian(2), si.random_lagrangian(2, 3), 1)
si.maslov_index(path, si.horizontal_lagrangian(2))
assert si.is_symplectic(si.random_symplectic(3, 0))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_routes_run_without_scipy():
    r = _python("-c", ROUTES)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_import_names_no_scipy_module():
    r = _python("-X", "importtime", "-c", "import symindex")
    assert r.returncode == 0, r.stderr
    modules = [line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines()
               if line.startswith("import time:")]
    assert "symindex" in modules
    assert not [name for name in modules if name.split(".")[0] == "scipy"]
