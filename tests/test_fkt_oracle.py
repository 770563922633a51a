"""FKT against the Kasteleyn/Temperley-Fisher count at the sizes it claims.

``kasteleyn.domino_count`` is checked first against a plain enumeration of
perfect matchings on every lattice up to 4 x 6, then ``fkt_count_pm`` is
checked against it on square and odd-by-even rectangles.
"""

import math

import pytest

from planar_holant.algebra import AN, ONE
from planar_holant.solvers import WeightedPlanarGraph, fkt_count_pm

from kasteleyn import domino_count


def rectangle(m, n):
    """(vertices, neighbours) of the m-by-n grid graph."""
    cells = [(r, c) for r in range(m) for c in range(n)]
    nbrs = {(r, c): [(r + dr, c + dc)
                     for (dr, dc) in ((0, 1), (-1, 0), (0, -1), (1, 0))
                     if 0 <= r + dr < m and 0 <= c + dc < n]
            for (r, c) in cells}
    return cells, nbrs


def enumerated_matchings(m, n):
    """Perfect matchings counted by matching the least free cell each way."""
    cells, nbrs = rectangle(m, n)

    def count(free):
        if not free:
            return 1
        v = min(free)
        return sum(count(free - {v, w}) for w in nbrs[v] if w in free)

    return count(frozenset(cells))


def rectangle_graph(m, n):
    """The m-by-n grid graph, unit weights, rotations from the plane."""
    cells, nbrs = rectangle(m, n)
    rot = {v: ["%r.%r" % (v, w) for w in sorted(
        nbrs[v], key=lambda w: math.atan2(v[0] - w[0], w[1] - v[1]))]
        for v in cells}
    edges = [("%r.%r" % (v, w), "%r.%r" % (w, v), ONE)
             for v in cells for w in nbrs[v] if v < w]
    return WeightedPlanarGraph(cells, rot, edges)


@pytest.mark.parametrize("m", range(1, 5))
def test_oracle_matches_enumeration_up_to_4x6(m):
    for n in range(1, 7):
        assert domino_count(m, n) == enumerated_matchings(m, n), (m, n)


def test_oracle_known_values():
    # Kasteleyn's 8 x 8 chessboard, and the squares of test_solvers
    assert domino_count(8, 8) == 12988816
    assert domino_count(10, 10) == 258584046368
    assert domino_count(5, 5) == 0


@pytest.mark.parametrize("m,n", [(24, 24), (32, 32), (5, 6), (7, 8),
                                 (9, 12)])
def test_fkt_matches_oracle(m, n):
    assert fkt_count_pm(rectangle_graph(m, n)) == AN(domino_count(m, n))


def test_fkt_matches_oracle_at_40x40():
    # a count of 198 digits, through the field's large-coefficient products
    assert fkt_count_pm(rectangle_graph(40, 40)) == AN(domino_count(40, 40))


@pytest.mark.parametrize("k", [16, 24])
@pytest.mark.parametrize("c", ["2/3", "1/3 + 1/3*w", "-5/7"])
def test_fkt_with_non_integral_weights_matches_oracle(c, k):
    # every weight is c, and every perfect matching of the k x k grid has
    # k^2 / 2 edges, so the weighted count is c^(k^2/2) times the count
    c, g = AN(c), rectangle_graph(k, k)
    g = WeightedPlanarGraph(g.vertex_ids, g.rotation,
                            [(a, b, c) for a, b, _ in g.edges])
    assert fkt_count_pm(g) == c ** (k * k // 2) * domino_count(k, k)
