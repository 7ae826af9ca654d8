"""Workload inputs, the call each input makes, and the check of its answer.

Inputs are generated here from the workload seed with numpy and scipy
alone, so a change to the library cannot change them; the library
receives only the finished matrices.  A workload is a list of passes;
pass ``p`` of seed ``s`` is drawn from ``default_rng([s, p])``, so every
pass brings fresh inputs and the same seed always gives the same ones.
"""

import importlib
import json
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg

import oracle

#: grid of the library's default scan, used by `symindex index`
DEFAULT_GRID = 256
#: elliptic speeds of the index workloads: magnitudes in this range,
#: at least SPEED_CLEARANCE from a multiple of pi and SPEED_SPACING
#: from each other, so every crossing is regular and well separated
SPEED_RANGE = (0.35, 6.0)
SPEED_CLEARANCE = 0.25
SPEED_SPACING = 0.15
#: share of the planes of a system that are elliptic, not hyperbolic
ELLIPTIC_SHARE = 0.7
#: dense-crossings: per pass DENSE_POINTS rotation speeds log-spaced
#: over DENSE_RANGE, ends included, each scanned at every grid in
#: DENSE_GRIDS, the k-turn loops alpha = 2 pi k for k in LOOP_TURNS, and
#: one two-plane block sum.  The seed moves each speed by up to half of
#: DENSE_JITTER of the log-spacing and picks every rotation sense, so
#: passes cost the same and fail alike while still covering the range.
DENSE_RANGE = (10.0, 400.0)
DENSE_POINTS = 5
DENSE_GRIDS = (1024, 256)
DENSE_JITTER = 0.1
LOOP_TURNS = (1, 10, 100)
#: dense speeds stay this far from a multiple of pi, so that no
#: crossing sits within rounding of the end of the interval
DENSE_CLEARANCE = 0.05


@dataclass
class Op:
    """One call into the library and the answer the oracle expects.

    ``kind`` is "validate", "orbit" (maslov_index_symplectic), "graph"
    (conley_zehnder), "suite" (run_property_suite) or "check" (one
    property check by name).  ``want_orbit`` and ``want_graph`` are
    twice the expected indices, None where no closed form exists.
    """

    kind: str
    h: Optional[np.ndarray] = None
    grid: int = DEFAULT_GRID
    sigma: Optional[int] = None
    want_orbit: Optional[int] = None
    want_graph: Optional[int] = None
    name: str = ""

    def to_json(self) -> str:
        d = dict(self.__dict__)
        if self.h is not None:
            d["h"] = self.h.tolist()
        return json.dumps(d)

    @classmethod
    def from_json(cls, text: str) -> "Op":
        d = json.loads(text)
        if d["h"] is not None:
            d["h"] = np.array(d["h"], dtype=float)
        return cls(**d)


@dataclass
class Outcome:
    """Verdict on one answer: wrong (an index differs from the oracle),
    failed (wrong, raised, or reported disagreeing routes), checked
    (false when there was no answer to compare with the oracle)."""

    wrong: bool = False
    failed: bool = False
    error: Optional[str] = None
    checked: bool = True


# -- generators ---------------------------------------------------------------

def _sign(rng) -> float:
    return 1.0 if rng.uniform() < 0.5 else -1.0


def block_generator(kinds) -> np.ndarray:
    """Hamiltonian matrix acting plane by plane on (x_j, y_j); ``kinds``
    holds ("elliptic", speed) or ("hyperbolic", rate) per plane."""
    n = len(kinds)
    h = np.zeros((2 * n, 2 * n))
    for j, (kind, p) in enumerate(kinds):
        if kind == "elliptic":
            h[j, n + j] = -p
            h[n + j, j] = p
        else:
            h[j, j] = p
            h[n + j, n + j] = -p
    return h


def random_planes(rng, n: int):
    """n seeded planes in random order, round(ELLIPTIC_SHARE * n) of them
    elliptic with speeds kept away from multiples of pi, the rest
    hyperbolic; a fixed mix keeps the cost of a system steady."""
    elliptic = set(rng.permutation(n)[:round(ELLIPTIC_SHARE * n)].tolist())
    kinds, speeds = [], []
    for j in range(n):
        if j not in elliptic:
            kinds.append(("hyperbolic", rng.uniform(0.3, 1.2) * _sign(rng)))
            continue
        while True:
            a = rng.uniform(*SPEED_RANGE) * _sign(rng)
            if (abs(a - math.pi * round(a / math.pi)) > SPEED_CLEARANCE
                    and all(abs(abs(a) - abs(u)) > SPEED_SPACING for u in speeds)):
                break
        speeds.append(a)
        kinds.append(("elliptic", a))
    return kinds, speeds


def random_symplectic(rng, n: int, scale: float = 0.6) -> np.ndarray:
    """exp(scale J S) for a random symmetric S of spectral norm 1.2."""
    s = rng.standard_normal((2 * n, 2 * n))
    s = 0.5 * (s + s.T)
    s *= 1.2 / np.linalg.norm(s, 2)
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    return scipy.linalg.expm(scale * (j @ s))


def _index_pass(rng, sizes, sigma):
    """validate on each size, once as a block system (both routes known)
    and once conjugated by a random symplectic map (graph route known)."""
    ops = []
    for n in sizes:
        kinds, speeds = random_planes(rng, n)
        h = block_generator(kinds)
        orbit, graph = oracle.block_twice(speeds)
        ops.append(Op("validate", h, sigma=sigma, want_orbit=orbit, want_graph=graph))
        s = random_symplectic(rng, n)
        ops.append(Op("validate", s @ h @ np.linalg.inv(s), sigma=sigma,
                      want_graph=graph))
    return ops


def _log_points(rng, lo, hi, count):
    """count speeds log-spaced over [lo, hi], jittered by the seed and
    kept off the lattice of multiples of pi, with random senses."""
    out = []
    for i in range(count):
        pos = (i + DENSE_JITTER * (rng.uniform() - 0.5)) / (count - 1)
        pos = min(max(pos, 0.0), 1.0)
        a = lo * (hi / lo) ** pos
        if abs(a - math.pi * round(a / math.pi)) <= DENSE_CLEARANCE:
            a += 2.0 * DENSE_CLEARANCE
        out.append(a * _sign(rng))
    return out


def _scans(h, speeds, grid):
    orbit, graph = oracle.block_twice(speeds)
    return [Op("orbit", h, grid=grid, want_orbit=orbit),
            Op("graph", h, grid=grid, want_graph=graph)]


def _dense_pass(rng):
    """Both direct scans of fast rotation planes, full-turn loops and a
    two-plane block sum."""
    ops = []
    for a in _log_points(rng, *DENSE_RANGE, DENSE_POINTS):
        for grid in DENSE_GRIDS:
            ops += _scans(block_generator([("elliptic", a)]), [a], grid)
    for k in LOOP_TURNS:
        a = 2.0 * math.pi * k * _sign(rng)
        ops += _scans(block_generator([("elliptic", a)]), [a], DEFAULT_GRID)
    pair = _log_points(rng, *DENSE_RANGE, 2)
    ops += _scans(block_generator([("elliptic", a) for a in pair]), pair,
                  DEFAULT_GRID)
    return ops


def make_pass(workload: str, seed: int, p: int) -> List[Op]:
    rng = np.random.default_rng([seed, p])
    if workload == "index-small":
        return _index_pass(rng, (1, 2, 4), None)
    if workload == "index-large":
        # two n=8 systems per n=16 one, so the median call lies inside
        # the n=8 mode instead of in the gap between the two sizes
        return _index_pass(rng, (8, 8, 16), -1)
    if workload == "dense-crossings":
        return _dense_pass(rng)
    if workload == "acceptance":
        return [Op("suite")]
    raise ValueError("unknown workload %r" % workload)


WORKLOADS = ("index-small", "index-large", "dense-crossings", "acceptance")

#: seed of the reference input every fresh-process probe calls first
REFERENCE_SEED = 0


def reference_op(workload: str) -> Op:
    """The first call of every fresh-process probe, the same for every
    seed so that first_call_s measures cold-start cost rather than the
    input mix: the opening input of pass 0 of REFERENCE_SEED, or for the
    acceptance suite its first check."""
    if workload == "acceptance":
        return Op("check", name="check_rotation_closed_forms")
    return make_pass(workload, REFERENCE_SEED, 0)[0]


# -- execution ----------------------------------------------------------------

#: number of checks run_property_suite reports
SUITE_CHECKS = 13


def execute(op: Op, si) -> List[Outcome]:
    """Run ``op`` against the library module ``si``; one outcome per
    answer (13 for the suite, one per check)."""
    if op.kind == "suite":
        try:
            results = si.checks.run_property_suite()
        except Exception as exc:  # counted as 13 failed checks, never dropped
            return [Outcome(False, True, type(exc).__name__, False)] * SUITE_CHECKS
        if len(results) != SUITE_CHECKS:
            # the verdicts cannot be matched to the 13 checks
            return [Outcome(False, True, "suite size", False)] * SUITE_CHECKS
        return [Outcome(False, not r.passed) for r in results]
    got_orbit = got_graph = None
    agree = True
    try:
        if op.kind == "validate":
            r = si.validate(si.make_system(op.h), sigma=op.sigma, grid=op.grid)
            got_orbit, got_graph, agree = r.orbit_index.twice, r.graph_index.twice, r.agree
        elif op.kind == "orbit":
            got_orbit = si.maslov_index_symplectic(op.h, grid=op.grid).twice
        elif op.kind == "graph":
            got_graph = si.conley_zehnder(op.h, grid=op.grid).twice
        elif op.kind == "check":
            checks = importlib.import_module(si.__name__ + ".checks")
            agree = getattr(checks, op.name)().passed
        else:
            raise ValueError("unknown op kind %r" % op.kind)
    except Exception as exc:  # counted as failed, never dropped
        name = type(exc).__name__
        if not isinstance(exc, si.SymindexError):
            name = "untyped " + name
        return [Outcome(False, True, name)]
    wrong = ((op.want_orbit is not None and got_orbit != op.want_orbit)
             or (op.want_graph is not None and got_graph != op.want_graph))
    return [Outcome(wrong, wrong or not agree)]
