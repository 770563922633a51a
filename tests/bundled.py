"""The bundled grid: a case-7 family of any size with a closed form.

H is the k-by-k grid graph.  Each edge of H is a bundle of 5 strands; a
strand is an exact-one [0, c, 0] joined to both ends of the edge through
[0, 2, 0] disequalities.  Each vertex v of H is a weighted equality
[a_v, 0, ..., 0, b_v] of arity 5 deg(v), so the equality arities have
gcd 5 and the grid is an EO-side instance of the pinning solver.

A strand's exact-one reads the flipped values of the two equalities it
joins and holds exactly when they differ.  So the assignments that count
are the proper 2-colourings of H, which has two of them, and

    Holant = 2^#disequalities * prod c
             * sum over both colourings of prod_v (a_v or b_v).
"""

import random

from planar_holant.algebra import AN, AlgebraicNumber, ONE, ZERO
from planar_holant.grid import PlanarGrid, Vertex
from planar_holant.sigcalc import sig

STRANDS = 5


def _weight(rnd):
    while True:
        x = AlgebraicNumber(rnd.randint(-2, 2), rnd.randint(-1, 1), 0, 0)
        if not x.is_zero():
            return x


def bundled_grid(k, seed=0):
    """(planar bipartition-tagged EO-side grid, its Holant) for a k-by-k H
    with weights drawn from ``random.Random(seed)``."""
    rnd = random.Random("bundled-%d-%d" % (k, seed))
    cells = [(i, j) for i in range(k) for j in range(k)]
    a = {p: _weight(rnd) for p in cells}
    b = {p: _weight(rnd) for p in cells}
    rots = {p: {} for p in cells}  # cell -> direction -> its halves
    verts, edges, side = [], [], {}
    strand_weights = ONE
    for (i, j) in cells:
        for (di, dj), out, back in (((0, 1), "E", "W"), ((1, 0), "S", "N")):
            q = (i + di, j + dj)
            if q not in rots:
                continue
            here, there = [], []
            for t in range(STRANDS):
                s = "s%d_%d%s%d" % (i, j, out, t)
                c = _weight(rnd)
                strand_weights = strand_weights * c
                verts.append(Vertex(s, sig([ZERO, c, ZERO]),
                                    [s + "p", s + "q"]))
                side[s] = "R"
                for end, half in (("p", s + "u"), ("q", s + "w")):
                    d = s + end + "d"
                    verts.append(Vertex(d, sig([ZERO, AN(2), ZERO]),
                                        [d + "0", d + "1"]))
                    side[d] = "L"
                    edges += [(half, d + "0"), (d + "1", s + end)]
                here.append(s + "u")
                there.append(s + "w")
            rots[(i, j)][out] = here
            rots[q][back] = there[::-1]
    for p in cells:
        rotation = [h for d in "ENWS" for h in rots[p].get(d, ())]
        n = len(rotation)
        verts.append(Vertex("v%d_%d" % p, sig([a[p]] + [ZERO] * (n - 1)
                                              + [b[p]]), rotation))
        side["v%d_%d" % p] = "R"
    grid = PlanarGrid(verts, edges, side=side)
    colour = [ONE, ONE]  # the two colourings: (i + j) % 2 reads a or b
    for p in cells:
        even = (p[0] + p[1]) % 2 == 0
        colour[0] = colour[0] * (a[p] if even else b[p])
        colour[1] = colour[1] * (b[p] if even else a[p])
    diseqs = sum(side[v] == "L" for v in side)
    return grid, AN(2) ** diseqs * strand_weights * (colour[0] + colour[1])
