"""Single-shot size ladders and a probe of known wrong verdicts (ungated).

    python3 perfbench/ladder.py

Each ladder runs one op per rung, smallest first, and stops after the first
rung that takes longer than BUDGET_S seconds.  A rung records its wall time,
its count of AlgebraicNumber multiplications (which does not depend on the
machine), a digest of the value and whether the value matched an
independent reference.  The ladders follow the baseline rows of ROADMAP.md:
FKT on k-by-k grid graphs, the dichotomy of {Z =_a, Z EO_3}, and the
product and affine solvers on k-by-k lattice grids.

The probe runs signature sets whose true verdict is known but which the
program decides wrongly at the time of writing; each row shows the verdict
it gave.  None of this is part of the timed workloads in run.py.
"""

import hashlib
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from planar_holant import classify, solvers  # noqa: E402
from planar_holant.algebra import ONE  # noqa: E402
from planar_holant.sigcalc import (  # noqa: E402
    Z, equality, exact_one, transform)

import gen  # noqa: E402
import spans  # noqa: E402

BUDGET_S = 30.0


def counted(call):
    """(value, seconds, multiplications) of one call."""
    tracer = spans.Tracer()
    tracer.count_arithmetic()
    try:
        t = time.perf_counter()
        value = call()
        seconds = time.perf_counter() - t
    finally:
        tracer.uninstall()
    return value, seconds, tracer.counts["mul"]


def fkt_rung(k):
    vertices, rotation, edges = gen.lattice(k, k)
    weighted = [(a, b, ONE) for (a, b) in edges]

    def call():
        return solvers.fkt_count_pm(
            solvers.WeightedPlanarGraph(vertices, rotation, weighted))

    return call, lambda: gen.lattice_pm(k, k, False, lambda v, u: ONE)


def dichotomy_rung(a):
    F = [transform(Z, equality(a)), transform(Z, exact_one(3))]
    return (lambda: classify.dichotomy_plholant_set(F).tractable,
            lambda: a % 5 == 0)


def product_rung(k):
    rnd = random.Random("ladder-product-%d" % k)
    grid, described = gen.signature_lattice(rnd, k, k,
                                            gen.product_palette(rnd))
    return (lambda: solvers.product_eval(grid),
            lambda: gen.product_holant(grid, described))


def affine_rung(k):
    rnd = random.Random("ladder-affine-%d" % k)
    grid, _ = gen.signature_lattice(rnd, k, k, gen.affine_palette(rnd))
    return lambda: solvers.affine_eval(grid), None


LADDERS = {
    "fkt_kxk": (fkt_rung, [4, 6, 8, 10, 12, 14, 16, 20, 24, 32, 40]),
    "dichotomy_a": (dichotomy_rung, [5, 10, 20, 40, 80]),
    "product_kxk": (product_rung, [8, 12, 16, 24, 32, 40]),
    "affine_kxk": (affine_rung, [8, 12, 16, 24, 32, 40]),
}


def digest(value):
    return hashlib.sha256(str(value).encode()).hexdigest()[:16]


def climb(name, budget):
    rung_of, sizes = LADDERS[name]
    rows = []
    for size in sizes:
        call, reference = rung_of(size)
        value, seconds, muls = counted(call)
        row = {"size": size, "seconds": seconds, "mul_calls": muls,
               "digest": digest(value),
               "matches_reference": (None if reference is None
                                     else value == reference())}
        rows.append(row)
        print("%-12s %4d  %9.3f s  %12d muls  %s" % (
            name, size, seconds, muls, row["matches_reference"]), flush=True)
        if seconds > budget:
            break
    within = [r["size"] for r in rows if r["seconds"] <= budget]
    return {"rungs": rows, "largest_within_budget": max(within, default=None)}


def known_defects():
    """(label, signature set, true tractability) of sets that the program
    decides wrongly, some or all of the time."""
    sets = [("[1,0,3,0,9]", [gen.sig([1, 0, 3, 0, 9])], True),
            ("[1,0,5,0,25,0,125]", [gen.sig([1, 0, 5, 0, 25, 0, 125])], True)]
    for n in (4, 6, 8):
        F, expected = gen.set_rational_matchgate(
            random.Random("probe-%d" % n), n)
        sets.append(("rational matchgate, arity %d" % n, F, expected))
    for seed in range(6):
        F, expected = gen.set_affine(random.Random("probe-%d" % seed), 3,
                                     arities=(3, 2))
        sets.append(("affine arities 3 and 2, seed %d" % seed, F, expected))
    return sets


def probe():
    rows = []
    for label, F, expected in known_defects():
        verdict = classify.dichotomy_plholant_set(F)
        rows.append({"set": label, "expected_tractable": expected,
                     "got_tractable": verdict.tractable,
                     "caveat": verdict.caveat})
        print("probe  %-40s expected %s got %s (caveat %s)" % (
            label[:40], expected, verdict.tractable, verdict.caveat),
            flush=True)
    return rows


def main():
    result = {"budget_s": BUDGET_S,
              "ladders": {name: climb(name, BUDGET_S) for name in LADDERS},
              "known_defects": probe()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
