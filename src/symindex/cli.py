"""Command-line interface.

Payloads are JSON objects with a "schema_version" of "1".  Operators
(Hamiltonian generators, time-one maps) are given row-major as nested
lists; Lagrangian frames are given column-major, i.e. as lists of basis
vectors of length 2n.  Index values are reported as exact strings like
"2" or "-3/2", never as decimals.

Exit codes: 0 success and all computed routes agree, 1 bad input or a
usage error, 2 routes disagree, 3 calibration failure.

Each ``_cmd_*`` maps (args, tol) to (payload, text lines, exit code);
``main`` parses, builds the Tolerances, writes the payload or the lines
and maps a typed error to its exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .autonomous import (
    PUBLISHED_SIGN,
    calibrate_sign,
    make_system,
    triple_routes_from,
    validate,
)
from .checks import run_property_suite
from .errors import (
    CalibrationFailure,
    InputError,
    InternalMismatch,
    SymindexError,
)
from .kashiwara import kashiwara_index
from .krein import is_semisimple, krein_positive_angles, krein_spectrum
from .maslov import _grid_cells
from .numerics import DEFAULT_TOL, Tolerances, as_int, as_matrix
from .symplectic import SymplecticSpace, lagrangian_frame

SCHEMA_VERSION = "1"


def _read_payload(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
        where = "stdin"
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError("cannot read %s: %s" % (path, exc))
        where = path
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s:%d:%d: %s" % (where, exc.lineno, exc.colno, exc.msg))
    if not isinstance(obj, dict):
        raise InputError("payload must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError("unsupported schema_version %r (expected %r)"
                         % (version, SCHEMA_VERSION))
    return obj


def _payload_n(obj: dict) -> int:
    n = obj.get("n")
    try:
        if as_int(n, '"n"') >= 1:  # JSON true is no count
            return n
    except InputError:
        pass
    raise InputError('"n" must be a positive integer')


def _payload_matrix(obj: dict, key: str, shape):
    data = obj.get(key)
    if data is None:
        raise InputError('missing "%s"' % key)
    arr = as_matrix(data, '"%s"' % key)
    if arr.shape != shape:
        raise InputError('"%s" must have shape %s, got %s' % (key, shape, arr.shape))
    return arr


def _read_generator(path: str):
    """(n, h) of a payload that carries "n" and a 2n x 2n "hamiltonian"."""
    obj = _read_payload(path)
    n = _payload_n(obj)
    return n, _payload_matrix(obj, "hamiltonian", (2 * n, 2 * n))


def _payload_frames(obj: dict, n: int, tol: Tolerances):
    data = obj.get("frames")
    if not isinstance(data, list) or len(data) != 3:
        raise InputError('"frames" must be a list of three frames')
    space = SymplecticSpace.standard(n)
    frames = []
    for i, cols in enumerate(data):
        arr = as_matrix(cols, "frame %d" % (i + 1))
        if arr.shape != (n, 2 * n):
            raise InputError("frame %d must be %d columns of length %d"
                             % (i + 1, n, 2 * n))
        frames.append(lagrangian_frame(space, arr.T, tol))
    return space, frames


def _tolerances(args) -> Tolerances:
    if args.tol is None:
        return DEFAULT_TOL
    if not (0.0 < args.tol < 1.0):
        raise InputError("--tol must be in (0, 1)")
    return dataclasses.replace(DEFAULT_TOL, eps_rank=args.tol)


def _half_str(value):
    return None if value is None else str(value)


def _cmd_index(args, tol: Tolerances):
    n, h = _read_generator(args.input)
    sigma = {"auto": None, "+1": 1, "-1": -1}[args.sigma]
    report = validate(make_system(h, tol), sigma=sigma, grid=args.grid, tol=tol)
    out = {
        "n": n,
        "orbit_index": _half_str(report.orbit_index),
        "graph_index": _half_str(report.graph_index),
        "sigma": report.sigma,
        "correction_sign": report.correction,
        "formula_index": _half_str(report.formula_index),
        "tau_direct": report.tau_direct,
        "tau_reduced": report.tau_reduced,
        "agree": report.agree,
    }
    lines = ["orbit index   : %s" % out["orbit_index"],
             "graph index   : %s" % out["graph_index"]]
    if report.formula_index is None:
        lines.append("formula       : unavailable (time-one map not transversal)")
    else:
        lines.append("formula       : %s + (%+d) * (%+d)/2 = %s"
                     % (out["graph_index"], report.sigma, report.correction,
                        out["formula_index"]))
        lines.append("triple index  : direct %d, reduced %d"
                     % (report.tau_direct, report.tau_reduced))
    lines.append("agree         : %s" % ("yes" if report.agree else "NO"))
    return out, lines, 0 if report.agree else 2


def _cmd_kashiwara(args, tol: Tolerances):
    obj = _read_payload(args.input)
    n = _payload_n(obj)
    if "frames" in obj:
        space, frames = _payload_frames(obj, n, tol)
        tau = kashiwara_index(space, frames[0], frames[1], frames[2], tol)
        return {"n": n, "tau": tau}, ["tau = %d" % tau], 0
    if "psi1" in obj:
        check = triple_routes_from(_payload_matrix(obj, "psi1", (2 * n, 2 * n)), tol)
        out = {
            "n": n,
            "tau_direct": check.tau_direct,
            "tau_reduced": check.tau_reduced,
            "sign_x": check.sign_x,
            "sign_y": check.sign_y,
            "consistent": check.consistent,
        }
        line = ("tau direct %d, reduced %d, sign X %d, sign Y %d -> %s"
                % (check.tau_direct, check.tau_reduced, check.sign_x, check.sign_y,
                   "consistent" if check.consistent else "MISMATCH"))
        return out, [line], 0 if check.consistent else 2
    raise InputError('payload needs either "frames" or "psi1"')


def _cmd_krein(args, tol: Tolerances):
    n, h = _read_generator(args.input)
    spectrum = [{
        "real": entry.eigenvalue.real,
        "imag": entry.eigenvalue.imag,
        "multiplicity": entry.multiplicity,
        "krein": None if entry.inertia is None else list(entry.inertia.pair),
    } for entry in krein_spectrum(h, tol)]
    try:
        angles = [float(a) for a in krein_positive_angles(h, tol)]
    except SymindexError:
        angles = None
    lines = ["eigenvalue %+.6g%+.6gi  x%d%s"
             % (row["real"], row["imag"], row["multiplicity"],
                "" if row["krein"] is None else "  krein (%d, %d)" % tuple(row["krein"]))
             for row in spectrum]
    if angles is not None:
        lines.append("rotation angles: %s" % (angles,))
    out = {"n": n, "spectrum": spectrum, "semisimple": is_semisimple(h, tol),
           "rotation_angles": angles}
    return out, lines, 0


def _cmd_calibrate(args, tol: Tolerances):
    grid = _grid_cells(args.grid)
    sigma = calibrate_sign(tol=tol)
    out = {"sigma": sigma, "published_sign": PUBLISHED_SIGN, "grid": grid}
    return out, ["calibrated sigma = %+d (commonly quoted sign: %+d)"
                 % (sigma, PUBLISHED_SIGN)], 0


def _cmd_check(args, tol: Tolerances):
    _grid_cells(args.grid)
    results = run_property_suite(tol=tol)
    ok = all(r.passed for r in results)
    out = {"results": [{"name": r.name, "passed": r.passed, "details": r.details}
                       for r in results],
           "all_passed": ok}
    lines = ["%s %s: %s" % ("PASS" if r.passed else "FAIL", r.name, r.details)
             for r in results]
    lines.append("all passed" if ok else "FAILURES present")
    return out, lines, 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symindex",
        description="Maslov-type indices of linear Hamiltonian systems")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("index", "all index routes of a system w' = H w", _cmd_index),
        ("kashiwara", "triple index of frames, or of a time-one map", _cmd_kashiwara),
        ("krein", "Krein spectrum of a generator", _cmd_krein),
        ("calibrate", "calibrate the coupling sign", _cmd_calibrate),
        ("check", "run the property-check suite", _cmd_check),
    )
    for name, text, fn in commands:
        p = sub.add_parser(name, help=text)
        if name not in ("calibrate", "check"):
            p.add_argument("--input", default="-",
                           help="JSON payload file, or - for stdin")
        p.add_argument("--grid", type=int, default=256,
                       help="scan cells of a path without a rate bound, "
                            "from 64 to 2^20; index, calibrate and check "
                            "reject a value out of range, and their certified "
                            "paths take exactly the cells their bound needs")
        p.add_argument("--tol", type=float, default=None,
                       help="override the relative rank tolerance")
        p.add_argument("--format", choices=("text", "json"), default="text")
        if name == "index":
            p.add_argument("--sigma", choices=("auto", "+1", "-1"), default="auto",
                           help="coupling sign; auto calibrates it")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    try:
        tol = _tolerances(args)
        out, lines, code = args.fn(args, tol)
    except CalibrationFailure as exc:
        print("calibration failure: %s" % exc, file=sys.stderr)
        return 3
    except InternalMismatch as exc:
        print("route disagreement: %s" % exc, file=sys.stderr)
        return 2
    except SymindexError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION, **out}, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
