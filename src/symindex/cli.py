"""Command-line interface.

Payloads are JSON objects with a "schema_version" of "1".  Operators
(Hamiltonian generators, time-one maps) are given row-major as nested
lists; Lagrangian frames are given column-major, i.e. as lists of basis
vectors of length 2n.  Index values are reported as exact strings like
"2" or "-3/2", never as decimals.

Exit codes: 0 success and all computed routes agree, 1 bad input,
2 routes disagree, 3 calibration failure.
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
from .krein import _krein_pass, _normal_form, _rotation_speeds
from .maslov import _grid_cells
from .numerics import DEFAULT_TOL, Tolerances, as_matrix
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
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:  # JSON true is no count
        raise InputError('"n" must be a positive integer')
    return n


def _payload_matrix(obj: dict, key: str, shape):
    data = obj.get(key)
    if data is None:
        raise InputError('missing "%s"' % key)
    arr = as_matrix(data, '"%s"' % key)
    if arr.shape != shape:
        raise InputError('"%s" must have shape %s, got %s' % (key, shape, arr.shape))
    return arr


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


def _emit_json(obj: dict):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _half_str(value):
    return None if value is None else str(value)


def _cmd_index(args) -> int:
    tol = _tolerances(args)
    obj = _read_payload(args.input)
    n = _payload_n(obj)
    h = _payload_matrix(obj, "hamiltonian", (2 * n, 2 * n))
    system = make_system(h, tol)
    sigma = {"auto": None, "+1": 1, "-1": -1}[args.sigma]
    report = validate(system, sigma=sigma, grid=args.grid, tol=tol)
    out = {
        "schema_version": SCHEMA_VERSION,
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
    if args.format == "json":
        _emit_json(out)
    else:
        print("orbit index   : %s" % out["orbit_index"])
        print("graph index   : %s" % out["graph_index"])
        if report.formula_index is None:
            print("formula       : unavailable (time-one map not transversal)")
        else:
            print("formula       : %s + (%+d) * (%+d)/2 = %s"
                  % (out["graph_index"], report.sigma, report.correction,
                     out["formula_index"]))
            print("triple index  : direct %d, reduced %d"
                  % (report.tau_direct, report.tau_reduced))
        print("agree         : %s" % ("yes" if report.agree else "NO"))
    return 0 if report.agree else 2


def _cmd_kashiwara(args) -> int:
    tol = _tolerances(args)
    obj = _read_payload(args.input)
    n = _payload_n(obj)
    if "frames" in obj:
        space, frames = _payload_frames(obj, n, tol)
        tau = kashiwara_index(space, frames[0], frames[1], frames[2], tol)
        out = {"schema_version": SCHEMA_VERSION, "n": n, "tau": tau}
        if args.format == "json":
            _emit_json(out)
        else:
            print("tau = %d" % tau)
        return 0
    if "psi1" in obj:
        psi1 = _payload_matrix(obj, "psi1", (2 * n, 2 * n))
        check = triple_routes_from(psi1, tol)
        out = {
            "schema_version": SCHEMA_VERSION,
            "n": n,
            "tau_direct": check.tau_direct,
            "tau_reduced": check.tau_reduced,
            "sign_x": check.sign_x,
            "sign_y": check.sign_y,
            "consistent": check.consistent,
        }
        if args.format == "json":
            _emit_json(out)
        else:
            print("tau direct %d, reduced %d, sign X %d, sign Y %d -> %s"
                  % (check.tau_direct, check.tau_reduced, check.sign_x,
                     check.sign_y, "consistent" if check.consistent else "MISMATCH"))
        return 0 if check.consistent else 2
    raise InputError('payload needs either "frames" or "psi1"')


def _cmd_krein(args) -> int:
    tol = _tolerances(args)
    obj = _read_payload(args.input)
    n = _payload_n(obj)
    h = _payload_matrix(obj, "hamiltonian", (2 * n, 2 * n))
    entries, semisimple, gap = _krein_pass(h, tol)
    spectrum = []
    for entry in entries:
        spectrum.append({
            "real": entry.eigenvalue.real,
            "imag": entry.eigenvalue.imag,
            "multiplicity": entry.multiplicity,
            "krein": None if entry.inertia is None else list(entry.inertia.pair),
        })
    try:
        angles = [float(a) for a in _rotation_speeds(_normal_form(entries, semisimple, gap))]
    except SymindexError:
        angles = None
    out = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "spectrum": spectrum,
        "semisimple": semisimple,
        "rotation_angles": angles,
    }
    if args.format == "json":
        _emit_json(out)
    else:
        for row in spectrum:
            krein = "" if row["krein"] is None else "  krein (%d, %d)" % tuple(row["krein"])
            print("eigenvalue %+.6g%+.6gi  x%d%s"
                  % (row["real"], row["imag"], row["multiplicity"], krein))
        if angles is not None:
            print("rotation angles: %s" % (angles,))
    return 0


def _cmd_calibrate(args) -> int:
    tol = _tolerances(args)
    grid = _grid_cells(args.grid)
    sigma = calibrate_sign(tol=tol)
    out = {
        "schema_version": SCHEMA_VERSION,
        "sigma": sigma,
        "published_sign": PUBLISHED_SIGN,
        "grid": grid,
    }
    if args.format == "json":
        _emit_json(out)
    else:
        print("calibrated sigma = %+d (commonly quoted sign: %+d)"
              % (sigma, PUBLISHED_SIGN))
    return 0


def _cmd_check(args) -> int:
    tol = _tolerances(args)
    _grid_cells(args.grid)
    results = run_property_suite(tol=tol)
    ok = all(r.passed for r in results)
    if args.format == "json":
        _emit_json({
            "schema_version": SCHEMA_VERSION,
            "results": [{"name": r.name, "passed": r.passed, "details": r.details}
                        for r in results],
            "all_passed": ok,
        })
    else:
        for r in results:
            print("%s %s: %s" % ("PASS" if r.passed else "FAIL", r.name, r.details))
        print("all passed" if ok else "FAILURES present")
    return 0 if ok else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symindex",
        description="Maslov-type indices of linear Hamiltonian systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
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

    p = sub.add_parser("index", help="all index routes of a system w' = H w")
    common(p)
    p.add_argument("--sigma", choices=("auto", "+1", "-1"), default="auto",
                   help="coupling sign; auto calibrates it")
    p.set_defaults(fn=_cmd_index)

    p = sub.add_parser("kashiwara",
                       help="triple index of frames, or of a time-one map")
    common(p)
    p.set_defaults(fn=_cmd_kashiwara)

    p = sub.add_parser("krein", help="Krein spectrum of a generator")
    common(p)
    p.set_defaults(fn=_cmd_krein)

    p = sub.add_parser("calibrate", help="calibrate the coupling sign")
    common(p, with_input=False)
    p.set_defaults(fn=_cmd_calibrate)

    p = sub.add_parser("check", help="run the property-check suite")
    common(p, with_input=False)
    p.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CalibrationFailure as exc:
        print("calibration failure: %s" % exc, file=sys.stderr)
        return 3
    except InternalMismatch as exc:
        print("route disagreement: %s" % exc, file=sys.stderr)
        return 2
    except SymindexError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
