"""Race every polynomial-time solver against brute-force contraction, or
against a closed form at sizes brute force cannot reach; the pruned
witness search of the set dichotomy against the unpruned one; and the
square root in Q(zeta_8) against its Fraction-pair reference.

Generates random in-precondition instances per solver family, checks exact
agreement, and reports instance sizes and wall-clock totals.

Usage: python scripts/compare_solvers.py [--trials N] [--seed S]
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from planar_holant.algebra import sqrt_in_field
from planar_holant.solvers import (
    fkt_count_pm, product_eval, affine_eval, vanishing_eval,
    EOInstance, WeightedPlanarGraph, eo_geneq_eval, evaluate,
)

from test_solvers import (
    brute_pm, random_weighted_graph, random_q_weighted_graph,
    random_product_grid,
    random_affine_grid, random_vanishing_grid, build_instance_biased,
    z_side_grid, with_self_loop,
)
from test_weighted_graph import mixed_id_graph
from test_algebra import ref_sqrt_in_field, sqrt_draw
from test_anchor_routes import anchored_pairs, pruned_verdict, unpruned_verdict
from bundled import bundled_grid

sys.path.insert(0, str(ROOT / "perfbench"))
try:
    import gen  # the benchmark's seeded instance generators
finally:
    sys.path.remove(str(ROOT / "perfbench"))


def case7_draw(seed):
    """(Z-side grid, EO-side grid) of one ``gen.case7_grid`` draw, with
    the equality palette the benchmark's case-7 ops use."""
    rnd = random.Random("case7-%d" % seed)
    eq_pal = [(gen.small_weight(rnd), gen.small_weight(rnd))
              for _ in range(2)]
    return gen.case7_grid(rnd, eq_pal)


def race(name, fast, slow, instances):
    t_fast = t_slow = 0.0
    mismatches = 0
    for inst in instances:
        t0 = time.perf_counter()
        a = fast(inst)
        t1 = time.perf_counter()
        b = slow(inst)
        t2 = time.perf_counter()
        t_fast += t1 - t0
        t_slow += t2 - t1
        if a != b:
            mismatches += 1
    status = "ok" if mismatches == 0 else "%d MISMATCHES" % mismatches
    print("%-12s %4d instances  fast %7.3fs  ref %7.3fs  %s"
          % (name, len(instances), t_fast, t_slow, status))
    return mismatches


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=60)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    base = args.seed
    n = args.trials
    bad = 0
    bad += race("fkt", fkt_count_pm, brute_pm,
                [random_weighted_graph(base + s) for s in range(n)])
    # weights with a denominator and all four zeta_8 coordinates
    bad += race("fkt-q", fkt_count_pm, brute_pm,
                [random_q_weighted_graph(base + s) for s in range(n)])
    # ids mixing ints, strings and tuples; isolated vertices, several
    # components, self-loops and parallel arcs that cancel
    bad += race("fkt-mixed", fkt_count_pm, brute_pm,
                [WeightedPlanarGraph(*mixed_id_graph(base + s))
                 for s in range(n)])
    bad += race("product", product_eval, lambda g: g.holant(cap=40),
                [random_product_grid(base + s) for s in range(n)])
    bad += race("affine", affine_eval, lambda g: g.holant(cap=40),
                [random_affine_grid(base + s) for s in range(n)])
    bad += race("vanishing", vanishing_eval, lambda g: g.holant(cap=40),
                [random_vanishing_grid(base + s, "+-"[s % 2])
                 for s in range(n)])
    bad += race("eo-pinning", lambda g: eo_geneq_eval(EOInstance(g)),
                lambda g: g.holant(cap=80),
                [build_instance_biased(base + s) for s in range(n)])
    bad += race("eo-z-side", lambda g: evaluate(g, method="eo"),
                lambda g: g.holant(cap=80),
                [z_side_grid(build_instance_biased(base + s))
                 for s in range(n)])
    bad += race("eo-self-loop", lambda g: evaluate(g, method="eo"),
                lambda g: g.holant(cap=80),
                [z_side_grid(with_self_loop(build_instance_biased(base + s),
                                            base + s)[0])
                 for s in range(n)])
    # the bundled grid at k = 2..6, against its closed form
    bad += race("eo-bundled", lambda gv: eo_geneq_eval(EOInstance(gv[0])),
                lambda gv: gv[1],
                [bundled_grid(2 + s % 5, base + s) for s in range(n)])
    # case-7 cycles of weighted equalities with pins and exact-ones
    bad += race("eo-case7", lambda ze: evaluate(ze[0], method="eo"),
                lambda ze: ze[1].holant(cap=10 ** 6),
                [case7_draw(base + s) for s in range(n)])
    # two-member sets with an anchor in P1, M2, A3 or M3: the verdict with
    # only the routes the anchor's bits allow equals the one with every
    # route searched, and each dropped route finds no witness
    bad += race("route-bits", pruned_verdict, unpruned_verdict,
                anchored_pairs(base, n))
    # squares and non-squares from Q, Q(i), Q(sqrt2), Q(i sqrt2), Q(zeta_8):
    # the same root, not just one equal up to sign
    bad += race("sqrt", sqrt_in_field, ref_sqrt_in_field,
                [sqrt_draw(random.Random("sqrt-%d" % (base + s)))
                 for s in range(n)])
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
