"""The pinning solver on the bundled grid, checked against its closed form
(``tests/bundled.py``).

Every EO-side signature of this family is product type, so
``evaluate(method="auto")`` on the EO side takes ``product_eval``; the
solver is called directly here, or reached through the Z basis.
"""

import random

import pytest

from planar_holant.grid import holographic_transform_bipartite, two_stretch
from planar_holant.solvers import EOInstance, eo_geneq_eval, evaluate

from bundled import bundled_grid
from test_classify import rand_orth
from test_solvers import z_side_grid


def test_closed_form_matches_brute_force():
    g, value = bundled_grid(2)
    assert g.holant(cap=80) == value


@pytest.mark.parametrize("k", [4, 8, 16])
def test_pinning_solver_matches_closed_form(k):
    g, value = bundled_grid(k)
    _, ok = g.validate()
    assert ok
    assert eo_geneq_eval(EOInstance(g)) == value
    if k == 4:
        assert evaluate(z_side_grid(g), method="eo") == value


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_orthogonal_move_keeps_closed_form(k, seed):
    # case 7 moved by an orthogonal H: Valiant's Holant theorem keeps the
    # value, and the verdict's witness transform finds the pinning route
    g, value = bundled_grid(k, seed)
    H = rand_orth(random.Random("bundled-move-%d-%d" % (k, seed)))
    moved = holographic_transform_bipartite(two_stretch(z_side_grid(g)), H)
    assert evaluate(moved, cap=1) == value
    assert evaluate(moved, method="eo") == value
