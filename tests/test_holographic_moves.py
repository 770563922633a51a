"""Holographic moves as an oracle at sizes brute force cannot reach.

Valiant's Holant theorem keeps Pl-Holant(F) when every signature is moved
by one orthogonal H, so a tractable grid moved by H must still evaluate in
polynomial time, to the unmoved value.  A lattice of product or affine
signatures, 2-stretched and moved, is no longer product or affine itself:
``evaluate`` reaches ``product_eval`` or ``affine_eval`` only through the
verdict's witness transform.
"""

import os
import random
import sys

import pytest

from planar_holant.grid import holographic_transform_bipartite, two_stretch
from planar_holant.solvers import evaluate

from test_classify import rand_orth

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")

sys.path.insert(0, BENCH)
try:
    import gen
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [4, 8, 16])
@pytest.mark.parametrize("family", ["product", "affine"])
def test_moved_lattice_keeps_its_value(family, k, seed):
    rnd = random.Random("moved-%s-%d-%d" % (family, k, seed))
    palette = getattr(gen, family + "_palette")(rnd)
    g, _ = gen.signature_lattice(rnd, k, k, palette)
    value = evaluate(g, cap=1)
    for _ in range(5):
        moved = holographic_transform_bipartite(two_stretch(g), rand_orth(rnd))
        assert evaluate(moved, cap=1) == value
