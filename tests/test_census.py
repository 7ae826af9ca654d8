"""A ratchet on wrong and silent-wrong indices of ``validate``.

Three seeded censuses run ``validate(make_system(h), sigma=-1)`` on
generators whose indices are known and count, exactly, the draws whose
index differs from its truth (wrong) and those of them that report
``agree=True`` (silent).  A typed error counts as neither.  The counts
are pinned as the code gives them, not as they should be: a change that
moves one re-pins it and states the old and the new count.

- Conjugated loops: h = S (2 pi J_1) S^-1 with S = [[a, 0], [c, 1/a]],
  drawn per generator as a = exp(U(-3, 3)), then c = N(0, 1) U(0, 20);
  400 draws from ``default_rng(0)``.  Both indices are 2.
- Conjugated k pi turns: the same S around k pi J_1, k = 1 .. 4, 400
  draws from ``default_rng(10 + k)``; the truths are
  ``rotation_orbit_index`` and ``rotation_graph_index`` of k pi.
- General conjugates: draw s of 300 is one elliptic plane at k pi, k =
  1 + s % 4, beside n - 1 planes, n = 1 + s % 3, each elliptic at
  U(0.4, 2.9) with probability 0.6, else hyperbolic at U(0.2, 1.5)
  (one ``default_rng(1)`` per scale), conjugated by
  ``random_symplectic(n, 9100 + s, scale)``.  The truth of the graph
  index is ``conley_zehnder`` of the unconjugated generator; conjugation
  moves the orbit index, which has no truth here.
- Near loops: the conjugated turns around 2 pi + delta, 400 draws from
  ``default_rng(100 + |log10 delta|)``, for delta = 1e-8, +-1e-7 and
  1e-6: not loops, but within delta of one.  A draw is kept where its
  computed eigenvalue lambda (Im lambda > 0) resolves its side of 2 pi,
  |Im lambda - 2 pi| > 100 cond u |h|_2 with cond = |e^T V^-1| of its
  unit eigenvector and u = 2^-52; the truths of a kept draw are
  ``rotation_orbit_index`` and ``rotation_graph_index`` of Im lambda
  (S preserves the vertical, so an elliptic 2 x 2 orbit index depends
  on the speed alone).  The census counts (kept, wrong, silent) on the
  kept draws and (wrong, silent) on all 400 against the closed forms
  of 2 pi + delta; the second count also holds the draws whose
  eigenvalue the flow record snaps onto 2 pi i, which are not kept.
"""

import math

import numpy as np
import pytest

from symindex import (
    HalfInt,
    conley_zehnder,
    make_system,
    plane_block_generator,
    random_symplectic,
    rotation_graph_index,
    rotation_orbit_index,
    standard_J,
    validate,
)
from symindex.errors import SymindexError


def _conjugated_turns(alpha, seed, draws=400):
    """(h, orbit truth, graph truth) of S (alpha J_1) S^-1 for the lower
    triangular S of the module docstring."""
    rng = np.random.default_rng(seed)
    truths = rotation_orbit_index(alpha), rotation_graph_index(alpha)
    for _ in range(draws):
        a = math.exp(rng.uniform(-3.0, 3.0))
        c = rng.standard_normal() * rng.uniform(0.0, 20.0)
        s = np.array([[a, 0.0], [c, 1.0 / a]])
        yield (s @ (alpha * standard_J(1)) @ np.linalg.inv(s),) + truths


def _general_conjugates(scale, draws=300):
    """(h, None, graph truth) of the general conjugates at ``scale``."""
    rng = np.random.default_rng(1)
    for s in range(draws):
        kinds = [("elliptic", (1 + s % 4) * math.pi)]
        for _ in range(s % 3):
            if rng.uniform() < 0.6:
                kinds.append(("elliptic", rng.uniform(0.4, 2.9)))
            else:
                kinds.append(("hyperbolic", rng.uniform(0.2, 1.5)))
        g = plane_block_generator(kinds)
        m = random_symplectic(len(kinds), 9100 + s, scale)
        yield m @ g @ np.linalg.inv(m), None, conley_zehnder(g)


def _near_loops(delta, draws=400):
    """(h, orbit truth, graph truth, truths from the spectrum of a kept
    draw, else None) of the near loops around 2 pi + ``delta``."""
    seed = 100 + round(abs(math.log10(abs(delta))))
    for h, orbit, graph in _conjugated_turns(2.0 * math.pi + delta, seed, draws):
        vals, vecs = np.linalg.eig(h)
        i = int(np.argmax(vals.imag))
        speed, cond = vals[i].imag, np.linalg.norm(np.linalg.inv(vecs)[i])
        kept = abs(speed - 2.0 * math.pi) > 100.0 * cond * 2.0 ** -52 * np.linalg.norm(h, 2)
        truths = (rotation_orbit_index(speed), rotation_graph_index(speed)) if kept else None
        yield h, orbit, graph, truths


def _report(h):
    """``validate(make_system(h), sigma=-1)``, or None for a typed error."""
    try:
        return validate(make_system(h), sigma=-1)
    except SymindexError:
        return None


def _verdict(report, orbit, graph):
    """(wrong, silent), each 0 or 1, of a report against its truths; a
    truth of None is not compared."""
    wrong = orbit not in (None, report.orbit_index) or graph not in (None, report.graph_index)
    return int(wrong), int(wrong and report.agree)


def _census(draws):
    """(wrong, silent) of ``validate`` over (h, orbit truth, graph truth)
    draws."""
    counts = np.zeros(2, dtype=int)
    for h, orbit, graph in draws:
        report = _report(h)
        if report is not None:
            counts += _verdict(report, orbit, graph)
    return tuple(counts.tolist())


def _near_loop_census(delta):
    """((kept, wrong, silent) on the kept draws, (wrong, silent) on all
    draws) of the near loops around 2 pi + ``delta``, one ``validate``
    per draw."""
    kept, on_kept, on_all = 0, np.zeros(2, dtype=int), np.zeros(2, dtype=int)
    for h, orbit, graph, truths in _near_loops(delta):
        kept += truths is not None
        report = _report(h)
        if report is not None:
            on_all += _verdict(report, orbit, graph)
            if truths is not None:
                on_kept += _verdict(report, *truths)
    return (kept, *on_kept.tolist()), tuple(on_all.tolist())


#: (draws, pinned (wrong, silent) counts) of each census; the snap of the
#: flow record's exponents onto i pi k (``maslov._record_of``) took them
#: from 27/26, 13/4, 30/29, 26/12, 35/34, 0/0 and 8/8 to 0/0
CENSUSES = {
    "loops": (lambda: _conjugated_turns(2.0 * math.pi, 0), (0, 0)),
    "turns k=1": (lambda: _conjugated_turns(math.pi, 11), (0, 0)),
    "turns k=2": (lambda: _conjugated_turns(2.0 * math.pi, 12), (0, 0)),
    "turns k=3": (lambda: _conjugated_turns(3.0 * math.pi, 13), (0, 0)),
    "turns k=4": (lambda: _conjugated_turns(4.0 * math.pi, 14), (0, 0)),
    "general scale=1.5": (lambda: _general_conjugates(1.5), (0, 0)),
    "general scale=2.5": (lambda: _general_conjugates(2.5), (0, 0)),
}


#: delta -> pinned ((kept, wrong, silent) on the kept draws, (wrong,
#: silent) on all draws) of the near-loop census.  The graph end's
#: smallest eigenphase is about delta / cond, so at small delta it falls
#: inside the absolute band ``eps_rank`` that counts an end as degenerate
NEAR_LOOPS = {
    1e-8: ((341, 292, 212), (351, 261)),
    1e-7: ((393, 198, 116), (205, 118)),
    -1e-7: ((393, 198, 116), (205, 118)),
    1e-6: ((400, 10, 2), (10, 2)),
}


@pytest.mark.parametrize("delta", list(NEAR_LOOPS))
def test_near_loop_census_counts(delta):
    """The near-loop census at each delta gives exactly its pinned
    counts."""
    assert _near_loop_census(delta) == NEAR_LOOPS[delta]


@pytest.mark.parametrize("name", list(CENSUSES))
def test_census_counts_of_wrong_and_silent_indices(name):
    """Each census gives exactly its pinned (wrong, silent) counts."""
    draws, pin = CENSUSES[name]
    assert _census(draws()) == pin


def test_census_truths_are_the_closed_forms():
    """The truths the censuses compare against: 2 for both indices of a
    loop, and the closed forms of a k pi turn, which the graph route of
    an unconjugated plane block gives."""
    h, orbit, graph = next(_conjugated_turns(2.0 * math.pi, 0))
    assert orbit == graph == HalfInt.from_int(2)
    for k in (1, 2, 3, 4):
        g = plane_block_generator([("elliptic", k * math.pi)])
        assert conley_zehnder(g) == rotation_graph_index(k * math.pi)
