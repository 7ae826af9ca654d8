"""Closed-form indices that every benchmark answer is checked against.

Values are held as twice the index (ints), like the library's HalfInt,
and computed here from the speeds that generated an input, never from
the library under test.

For one rotation plane with angular speed alpha over t in [0, 1], and
x = alpha / pi:

* orbit route (vertical start against the vertical):
  x if x is an integer, else floor(x) + 1/2;
* graph route (graph of the flow against the diagonal):
  x if x is an integer, else the odd one of floor(x), floor(x) + 1.

A hyperbolic plane contributes 0 to both routes.  Indices add over a
block sum of planes.  The graph route is invariant under symplectic
conjugation, so it is known for conjugated systems too; the orbit route
is known only for unconjugated block systems.
"""

import math

#: |alpha/pi - k| below which alpha is taken to sit on the lattice k*pi
SNAP = 1e-9


def _lattice(alpha):
    x = alpha / math.pi
    k = round(x)
    return x, (k if abs(x - k) <= SNAP else None)


def orbit_twice(alpha):
    """Twice the orbit-route index of one rotation plane."""
    x, k = _lattice(alpha)
    if k is not None:
        return 2 * k
    return 2 * math.floor(x) + 1


def graph_twice(alpha):
    """Twice the graph-route index of one rotation plane."""
    x, k = _lattice(alpha)
    if k is not None:
        return 2 * k
    m = math.floor(x)
    return 2 * (m if m % 2 else m + 1)


def block_twice(speeds):
    """(orbit, graph) twice-indices of a block sum of rotation planes;
    hyperbolic planes are left out of ``speeds`` since they add 0."""
    return (sum(orbit_twice(a) for a in speeds),
            sum(graph_twice(a) for a in speeds))


def self_test():
    """Raise AssertionError unless the closed forms give known values."""
    cases = [
        (5.0, 3, 2),                   # orbit 3/2, graph 1
        (2.0 * math.pi, 4, 4),         # one full turn: 2 and 2
        (-5.0, -3, -2),                # reversing the speed negates both
        (0.5, 1, 2),                   # first half turn: 1/2 and 1
        (2.0 * math.pi * 100, 400, 400),  # k-turn loop: 2k
    ]
    for alpha, orbit, graph in cases:
        got = (orbit_twice(alpha), graph_twice(alpha))
        if got != (orbit, graph):
            raise AssertionError("oracle at alpha=%g gives %s, want %s"
                                 % (alpha, got, (orbit, graph)))
    if block_twice([5.0, 2.0 * math.pi]) != (7, 6):
        raise AssertionError("oracle block sum is not additive")


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
