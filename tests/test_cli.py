"""End-to-end command-line behavior: payloads, formats, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from symindex import plane_block_generator, standard_J
from symindex.cli import main


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
    shear = [[0.0, 1.0], [0.0, 0.0]]
    path = _write(tmp_path, _payload(1, hamiltonian=shear))
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
