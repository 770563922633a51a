"""The anchor's family bits decide which witness searches can succeed.

A signature with a distinct, non-isotropic decomposition x u^n + y v^n is
A-transformable iff it is in A1 or A3, P-transformable iff in P1, and
M-transformable iff in M1, M2 or M3.  A transform that moves a set into A,
P or M moves each member alone, so ``_plholant_verdict`` searches only the
routes its anchor's bits allow.  Here the bits are checked against the full
finders on single anchors, and the routes they drop against the finders on
two-member sets.
"""

import random

from planar_holant import classify
from planar_holant.algebra import AN, I, ZETA
from planar_holant.classify import (
    ROUTE_A,
    ROUTE_M,
    ROUTE_P,
    SetVerdict,
    _apm_verdict,
    _pair,
    dichotomy_plholant_set,
    in_matchgate,
    in_P2,
    in_transformable_family,
)
from planar_holant.sigcalc import (
    degenerate,
    exact_one,
    gen_eq,
    identity2,
    sig,
    transform,
)

from test_classify import ALPHA, gen_member, rand_nonzero, rand_orth, two_dir
from test_witness_search import verdict_tuple


def is_plain_anchor(f):
    """f = x u^n + y v^n with x, y nonzero and u, v not isotropic."""
    d = f.decomposition()
    return (d.kind == "distinct" and not d.x.is_zero() and not d.y.is_zero()
            and not _pair(d.u, d.u).is_zero()
            and not _pair(d.v, d.v).is_zero())


def eq_ratio(rnd):
    """r random, i^k, zeta^j or +-1."""
    kind = rnd.randrange(4)
    if kind == 0:
        return rand_nonzero(rnd)
    if kind == 1:
        return I ** rnd.randrange(4)
    if kind == 2:
        return ZETA ** rnd.randrange(8)
    return AN(rnd.choice([1, -1]))


def framed_anchor(rnd, H):
    """A P1, A1, M1, A3, M2 or M3 anchor, or none of them, in the frame of
    the orthogonal H."""
    n, c = rnd.randint(3, 6), rand_nonzero(rnd)
    kind = rnd.randrange(4)
    if kind == 0:
        return transform(H, gen_eq(1, eq_ratio(rnd), n)).scale(c)
    if kind == 1:
        return two_dir(H, ALPHA, -ALPHA, c, c * I ** rnd.randrange(4), n)
    if kind == 2:
        gamma = rand_nonzero(rnd)
        while gamma == I or gamma == -I:
            gamma = rand_nonzero(rnd)
        return two_dir(H, gamma, -gamma, c, c * rnd.choice([1, -1, 2]), n)
    return transform(H, exact_one(n)).scale(c)


def free_anchor(rnd):
    """x u^n + y v^n with u, v, x, y drawn at random."""
    n = rnd.randint(3, 6)
    while True:
        a, b = rand_nonzero(rnd), rand_nonzero(rnd)
        if a != b and not (1 + a * a).is_zero() \
                and not (1 + b * b).is_zero():
            break
    return (degenerate((1, a), n).scale(rand_nonzero(rnd))
            + degenerate((1, b), n).scale(rand_nonzero(rnd)))


def anchors(seed, count):
    """``count`` signatures with a distinct, non-isotropic decomposition."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rnd.randrange(3)
        if kind == 0:
            f = gen_member(rnd.choice(["A1", "A3", "P1", "M1", "M2", "M3"]),
                           rnd)
        elif kind == 1:
            f = transform(rand_orth(rnd), gen_eq(1, eq_ratio(rnd),
                                                 rnd.randint(3, 6)))
        else:
            f = free_anchor(rnd)
        if is_plain_anchor(f):
            out.append(f)
    return out


def test_bits_agree_with_the_finders():
    found = {"A": 0, "P": 0, "M": 0}
    for g in anchors(28, 2000):
        fam = in_transformable_family(g)
        for name, bit, finder in (
                ("A", fam.a1 or fam.a3, classify.a_transformable),
                ("P", fam.p1, classify.p_transformable),
                ("M", fam.m1 or fam.m2 or fam.m3, classify.m_transformable)):
            assert bit == (finder([g]) is not None), (name, g)
            found[name] += bit
    # each route is found on some anchors and fails on others
    assert all(50 < k < 1950 for k in found.values()), found


# -- two-member sets -----------------------------------------------------------

ANCHOR_BRANCHES = (
    (lambda fam, g: fam.p1 or (fam.m2 and not in_P2(g)), "P1/M2",
     (ROUTE_A, ROUTE_P, ROUTE_M), "A-, P-, or M-"),
    (lambda fam, g: fam.a3, "A3", (ROUTE_A, ROUTE_M), "A- or M-"),
    (lambda fam, g: fam.m3, "M3", (ROUTE_M,), "M-"),
)


def picked_anchor(F):
    """(g, the unpruned routes of its branch, the obstruction, the routes
    its bits drop) for the first member that settles the verdict by a
    witness search, or None."""
    for g in F:
        if g.arity < 3 or g.is_zero() or g.degenerate_form() is not None:
            continue
        fam = in_transformable_family(g)
        allowed = {ROUTE_A: fam.a1 or fam.a3, ROUTE_P: fam.p1,
                   ROUTE_M: fam.m1 or fam.m2 or fam.m3}
        for test, where, routes, which in ANCHOR_BRANCHES:
            if test(fam, g):
                return (g, routes, "anchor %%r in %s but the set is not "
                        "%stransformable" % (where, which),
                        [r for r in routes if not allowed[r]])
    return None


def pruned_verdict(F):
    """The library's verdict, and no witnesses (see ``unpruned_verdict``)."""
    return verdict_tuple(dichotomy_plholant_set(F)), []


def unpruned_verdict(F):
    """``dichotomy_plholant_set`` with every route of the anchor's branch
    searched, and the witnesses that the routes its bits drop find."""
    g, routes, obstruction, dropped = picked_anchor(F)
    v = _apm_verdict(F, routes, obstruction, g)
    if not v.tractable and all(in_matchgate(f) for f in F if f.arity):
        v = SetVerdict("plholant", True, case=ROUTE_M[0], witness=identity2())
    found = [T for T in (finder(F) for _, finder in dropped) if T is not None]
    return verdict_tuple(v), found


def second_member(rnd, H):
    kind = rnd.randrange(4)
    if kind == 0:
        return framed_anchor(rnd, H)
    if kind == 1:
        return framed_anchor(rnd, rand_orth(rnd))
    if kind == 2:
        return gen_member(rnd.choice(["A1", "A3", "P1", "M1", "M2", "M3",
                                      "P", "A", "Matchgate"]), rnd)
    binary = rnd.choice([gen_eq(1, eq_ratio(rnd), 2), sig([0, 1, 0]),
                         sig([rand_nonzero(rnd) for _ in range(3)])])
    return transform(H, binary)


def anchored_pairs(seed, count):
    """``count`` anchors, each with a second member, in both orders."""
    rnd = random.Random(seed)
    out = []
    while len(out) < 2 * count:
        H = rand_orth(rnd)
        g = framed_anchor(rnd, H)
        if picked_anchor([g]) is not None:
            h = second_member(rnd, H)
            out.append([g, h])
            out.append([h, g])
    return out


def test_dropped_routes_find_nothing():
    sets = anchored_pairs(28, 1000)
    # more than half the sets drop a route, and some drop two
    assert sum(len(picked_anchor(F)[3]) for F in sets) > 1000
    for F in sets:
        assert pruned_verdict(F) == unpruned_verdict(F), F
