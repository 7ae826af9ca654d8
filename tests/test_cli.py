"""End-to-end command-line behavior: payloads, formats, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from symindex import TripleCheck, autonomous, cli, plane_block_generator, standard_J
from symindex.cli import main
from symindex.errors import CalibrationFailure, InternalMismatch
from symindex.symplectic import random_symplectic
from test_krein import _jordan_generator


def _payload(n, **fields):
    body = {"schema_version": "1", "n": n}
    body.update(fields)
    return json.dumps(body)


def _write(tmp_path, text):
    p = tmp_path / "payload.json"
    p.write_text(text)
    return str(p)


def test_index_text_output(tmp_path, capsys):
    h = plane_block_generator([("elliptic", 2.0)])
    path = _write(tmp_path, _payload(1, hamiltonian=h.tolist()))
    code = main(["index", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "orbit index   : 1/2" in out
    assert "graph index   : 1" in out
    assert "agree         : yes" in out


def test_index_json_round_trip(tmp_path, capsys):
    h = plane_block_generator([("elliptic", 5.0)])
    path = _write(tmp_path, _payload(1, hamiltonian=h.tolist()))
    code = main(["index", "--input", path, "--format", "json"])
    first = capsys.readouterr().out
    assert code == 0
    body = json.loads(first)
    assert body["orbit_index"] == "3/2"
    assert body["graph_index"] == "1"
    assert body["formula_index"] == "3/2"
    assert body["sigma"] == -1
    assert body["correction_sign"] == -1
    assert body["agree"] is True
    # canonical serialization is reproducible byte for byte
    code = main(["index", "--input", path, "--format", "json"])
    second = capsys.readouterr().out
    assert second == first
    assert first == json.dumps(body, indent=2, sort_keys=True) + "\n"


def test_index_reads_stdin(tmp_path, monkeypatch, capsys):
    h = plane_block_generator([("elliptic", 2.0)])
    payload = _payload(1, hamiltonian=h.tolist())
    r = subprocess.run(
        [sys.executable, "-m", "symindex.cli", "index", "--format", "json"],
        input=payload, capture_output=True, text=True)
    assert r.returncode == 0
    assert json.loads(r.stdout)["orbit_index"] == "1/2"


def test_index_fixed_sigma_flag(tmp_path, capsys):
    h = plane_block_generator([("elliptic", 2.0)])
    path = _write(tmp_path, _payload(1, hamiltonian=h.tolist()))
    code = main(["index", "--input", path, "--sigma", "+1", "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    # the wrong sign makes the formula miss the orbit index
    assert code == 2
    assert body["agree"] is False
    assert body["formula_index"] == "3/2"


def test_malformed_json_reports_position(tmp_path, capsys):
    path = _write(tmp_path, "{not json")
    code = main(["index", "--input", path])
    err = capsys.readouterr().err
    assert code == 1
    assert ":1:2:" in err


def test_schema_version_checked(tmp_path, capsys):
    path = _write(tmp_path, json.dumps({"schema_version": "2", "n": 1}))
    assert main(["index", "--input", path]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_bad_payloads(tmp_path, capsys):
    cases = [
        json.dumps({"schema_version": "1"}),                     # no n
        _payload(1),                                             # no matrix
        _payload(1, hamiltonian=[[0.0, 1.0]]),                   # wrong shape
        _payload(1, hamiltonian=[[0.0, "x"], [0.0, 0.0]]),       # non-numeric
        _payload(1, hamiltonian=[[0.0, 1.0], [0.0]]),            # ragged
        _payload(1, hamiltonian=[[1.0, 0.0], [0.0, 1.0]]),       # not Hamiltonian
    ]
    for text in cases:
        path = _write(tmp_path, text)
        assert main(["index", "--input", path]) == 1
        capsys.readouterr()


def test_boolean_n_rejected(tmp_path, capsys):
    """JSON true is an int to Python but not a dimension."""
    h = plane_block_generator([("elliptic", 2.0)])
    path = _write(tmp_path, _payload(True, hamiltonian=h.tolist()))
    assert main(["index", "--input", path, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"n" must be a positive integer' in captured.err


def test_kashiwara_frames_mode(tmp_path, capsys):
    frames = [[[1.0, 0.0]], [[1.0, 1.0]], [[0.0, 1.0]]]
    path = _write(tmp_path, _payload(1, frames=frames))
    code = main(["kashiwara", "--input", path, "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["tau"] == 1


def test_kashiwara_time_one_mode(tmp_path, capsys):
    path = _write(tmp_path, _payload(1, psi1=standard_J(1).tolist()))
    code = main(["kashiwara", "--input", path, "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["tau_direct"] == -1
    assert body["tau_reduced"] == -1
    assert body["sign_x"] == -1
    assert body["consistent"] is True


def test_kashiwara_of_a_huge_symplectic_map_is_a_typed_error(tmp_path):
    """psi(1) = diag(1e160, 1e-160) is symplectic with a zero corner: the
    command reports the transversality error, exit 1, no traceback."""
    path = _write(tmp_path, _payload(1, psi1=[[1e160, 0.0], [0.0, 1e-160]]))
    r = subprocess.run([sys.executable, "-m", "symindex.cli", "kashiwara", "--input", path],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and "Traceback" not in r.stderr


def test_kashiwara_of_a_map_whose_defect_overflows_reports_only_the_error(tmp_path):
    """psi(1) = diag(1e200, 1e200) is not symplectic and m^T J m
    overflows: the command prints the typed error alone on stderr, no
    numpy warning, and exits 1."""
    path = _write(tmp_path, _payload(1, psi1=[[1e200, 0.0], [0.0, 1e200]]))
    r = subprocess.run([sys.executable, "-m", "symindex.cli", "kashiwara", "--input", path],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert r.stderr == "error: time-one map does not preserve the form\n"


def test_inconsistent_triple_routes_exit_2(tmp_path, capsys, monkeypatch):
    """A triple-route disagreement alone fails both commands that read it."""
    mismatch = TripleCheck(1, 1, 1, -1)
    monkeypatch.setattr(autonomous, "_triple_routes", lambda psi1, x, tol: mismatch)
    h = plane_block_generator([("elliptic", 5.0)])
    path = _write(tmp_path, _payload(1, hamiltonian=h.tolist()))
    code = main(["index", "--input", path, "--sigma", "-1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "formula       : 1 + (-1) * (-1)/2 = 3/2" in out
    assert "agree         : NO" in out
    monkeypatch.setattr(cli, "triple_routes_from", lambda psi1, tol: mismatch)
    path = _write(tmp_path, _payload(1, psi1=standard_J(1).tolist()))
    code = main(["kashiwara", "--input", path])
    assert code == 2
    assert capsys.readouterr().out == "tau direct 1, reduced 1, sign X 1, sign Y -1 -> MISMATCH\n"


def test_krein_output(tmp_path, capsys):
    h = plane_block_generator([("elliptic", 2.0), ("elliptic", -3.0)])
    path = _write(tmp_path, _payload(2, hamiltonian=h.tolist()))
    code = main(["krein", "--input", path, "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["semisimple"] is True
    np.testing.assert_allclose(body["rotation_angles"], [-3.0, 2.0], atol=1e-9)
    rows = {round(r["imag"], 6): r["krein"] for r in body["spectrum"]}
    assert rows[2.0] == [1, 0]
    assert rows[-3.0] == [1, 0]


def test_krein_non_semisimple(tmp_path, capsys):
    """A shear, and a conjugated nilpotent matrix of rank 4 whose three
    split clusters all measure one kernel (``tests/test_krein.py``)."""
    s = random_symplectic(3, 5, scale=0.5)
    split = s @ _jordan_generator(3, 0.0, 1.0, nilpotent=1.0) @ np.linalg.inv(s)
    for h in (np.array([[0.0, 1.0], [0.0, 0.0]]), split):
        path = _write(tmp_path, _payload(h.shape[0] // 2, hamiltonian=h.tolist()))
        code = main(["krein", "--input", path, "--format", "json"])
        body = json.loads(capsys.readouterr().out)
        assert code == 0
        assert body["semisimple"] is False
        assert body["rotation_angles"] is None


def test_krein_flag_is_semisimplicity_not_classifiability(tmp_path, capsys):
    """1e-6 J is semisimple, and its eigenvalues +-1e-6 i, within the
    cluster gap of zero but not of each other, form one rotation plane."""
    path = _write(tmp_path, _payload(1, hamiltonian=(1e-6 * standard_J(1)).tolist()))
    code = main(["krein", "--input", path, "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["semisimple"] is True
    assert body["rotation_angles"] == pytest.approx([1e-6], rel=1e-9)
    assert [r["krein"] for r in body["spectrum"]] == [[1, 0], [0, 1]]


def test_calibrate(capsys):
    code = main(["calibrate", "--format", "json"])
    body = json.loads(capsys.readouterr().out)
    assert code == 0
    assert body["sigma"] == -1
    assert body["published_sign"] == 1


def test_check_suite(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 13
    assert all(l.startswith("PASS") for l in lines)
    assert "all passed" in out


@pytest.mark.parametrize("command", ["index", "calibrate", "check"])
@pytest.mark.parametrize("grid,message", [("16", "grid must be at least 64"),
                                          (str(2 ** 20 + 1), "grid must be at most 1048576")])
def test_grid_out_of_range_exits_1(tmp_path, capsys, command, grid, message):
    argv = [command, "--grid", grid]
    if command == "index":
        h = plane_block_generator([("elliptic", 2.0)])
        argv += ["--input", _write(tmp_path, _payload(1, hamiltonian=h.tolist()))]
    assert main(argv) == 1
    assert message in capsys.readouterr().err


def test_krein_ignores_grid(tmp_path, capsys):
    h = plane_block_generator([("elliptic", 2.0)])
    path = _write(tmp_path, _payload(1, hamiltonian=h.tolist()))
    assert main(["krein", "--grid", "16", "--input", path]) == 0
    assert "krein (1, 0)" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["calibrate", "--grid", "abc"], ["index", "--tol", "x"],
                                  ["check", "--grid", "1.5"], ["index", "--format", "xml"], []],
                         ids=["grid-abc", "tol-x", "grid-float", "format-xml", "no-command"])
def test_usage_error_exits_1(capsys, argv):
    """argparse's own exit code 2 would read as "routes disagree"."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: symindex")


@pytest.mark.parametrize("argv", [["--help"], ["index", "--help"]])
def test_help_exits_0(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: symindex")


def test_usage_error_exit_code_of_the_process():
    r = subprocess.run([sys.executable, "-m", "symindex.cli", "calibrate", "--grid", "abc"],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert "invalid int value: 'abc'" in r.stderr


def _raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


_ROTATION = _payload(1, hamiltonian=plane_block_generator([("elliptic", 2.0)]).tolist())


@pytest.mark.parametrize("argv,payload,patch,code,stream,text", [
    (["index", "--tol", "1e-9"], _ROTATION, None, 0, "out", "agree         : yes"),
    (["index", "--tol", "0"], _ROTATION, None, 1, "err", "error: --tol must be in (0, 1)"),
    (["index", "--tol", "1.5"], _ROTATION, None, 1, "err", "error: --tol must be in (0, 1)"),
    (["calibrate"], None, ("calibrate_sign", CalibrationFailure("probes disagree: [-1, 1]")),
     3, "err", "calibration failure: probes disagree: [-1, 1]"),
    (["index"], _ROTATION, ("validate", InternalMismatch("crossing forms sum to 1")),
     2, "err", "route disagreement: crossing forms sum to 1"),
    (["index"], _payload(1, hamiltonian=(2.0 * math.pi * standard_J(1)).tolist()), None,
     0, "out", "formula       : unavailable (time-one map not transversal)\n"),
    (["index", "--input", "missing.json"], None, None, 1, "err", "error: cannot read missing.json"),
    (["index"], "[1, 2]", None, 1, "err", "error: payload must be a JSON object"),
    (["kashiwara"], _payload(1, frames=[[[1.0, 0.0]]] * 2), None,
     1, "err", 'error: "frames" must be a list of three frames'),
    (["kashiwara"], _payload(1, frames=[[[1.0, 0.0, 0.0]]] * 3), None,
     1, "err", "error: frame 1 must be 1 columns of length 2"),
    (["kashiwara"], _payload(1), None, 1, "err", 'error: payload needs either "frames" or "psi1"'),
    (["krein"], _payload(1, hamiltonian=plane_block_generator([("hyperbolic", 7e-7)]).tolist()),
     None, 0, "out", "eigenvalue +7e-07+0i  x1\neigenvalue -7e-07+0i  x1\nrotation angles: []\n"),
], ids=["tol-valid", "tol-zero", "tol-above-one", "calibration-failure", "internal-mismatch",
        "formula-unavailable", "unreadable-input", "payload-not-object", "two-frames",
        "frame-shape", "kashiwara-no-key", "krein-real-pair-below-gap"])
def test_option_payload_and_exit_code_branches(tmp_path, capsys, monkeypatch, argv, payload,
                                               patch, code, stream, text):
    """Each branch of ``main`` and of the payload readers that the other
    tests leave out: its exit code and the line it writes."""
    monkeypatch.chdir(tmp_path)
    if payload is not None:
        argv = argv + ["--input", _write(tmp_path, payload)]
    if patch is not None:
        monkeypatch.setattr(cli, patch[0], _raising(patch[1]))
    assert main(argv) == code
    captured = capsys.readouterr()
    assert text in getattr(captured, stream)
