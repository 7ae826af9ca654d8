"""The parity sweep writes one JSON record per input."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROUTES = {"maslov_index_symplectic", "conley_zehnder", "validate", "krein_spectrum",
          "spectral_conley_zehnder"}


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
        assert rec["spectral_conley_zehnder"] == rec["conley_zehnder"]
        assert sum(entry[2] for entry in rec["krein_spectrum"]) == 2 * n
