"""The Z image a signature carries, and the Z-side class tests read off its
support, checked against their definitions on images computed here."""

import itertools
import random

from planar_holant.algebra import AN, I, ONE, ZERO
from planar_holant.sigcalc import (
    Z,
    Z_INV,
    all_but_one,
    exact_one,
    gen_eq,
    sig,
    transform,
    vanishing_degrees,
)
from planar_holant.classify import (
    in_M4_minus,
    in_M4_plus,
    in_P2,
    in_R2,
    in_vanishing_minus,
    in_vanishing_plus,
)


def _proportional(h, g):
    """h = c g for some nonzero c, by cross-multiplication."""
    return (not h.is_zero() and not g.is_zero()
            and all(h[i] * g[j] == h[j] * g[i]
                    for i in range(len(g)) for j in range(i + 1, len(g))))


_UNIT_IMAGES = {}


def _z_image(f):
    """transform(Z_INV, f), summed by linearity from the images of the unit
    signatures, which costs a fraction of one transform per signature."""
    n = f.arity
    if n not in _UNIT_IMAGES:
        _UNIT_IMAGES[n] = [transform(Z_INV, sig([ONE if j == k else ZERO
                                                 for j in range(n + 1)]))
                           for k in range(n + 1)]
    out = [ZERO] * (n + 1)
    for fk, image in zip(f, _UNIT_IMAGES[n]):
        if not fk.is_zero():
            out = [acc + fk * e for acc, e in zip(out, image)]
    return sig(out)


def _reference(f):
    """Each predicate's value from its definition on the Z image of f."""
    n = f.arity
    h = _z_image(f)
    nz = [k for k in range(n + 1) if not h[k].is_zero()]
    if nz:
        rdp, rdm = nz[-1], n - nz[0]
        degrees = (rdp, n - rdp, rdm, n - rdm)
    else:
        degrees = (-1, n + 1, -1, n + 1)
    return {
        "M4+": n >= 1 and _proportional(h, exact_one(n)),
        "M4-": n >= 1 and _proportional(h, all_but_one(n)),
        "P2": n >= 2 and not h[0].is_zero() and not h[n].is_zero()
        and _proportional(h, gen_eq(h[0], h[n], n)),
        "V+": all(2 * k < n for k in nz),
        "V-": all(2 * k > n for k in nz),
        "R2+": all(k <= 1 for k in nz),
        "R2-": all(k >= n - 1 for k in nz),
        "degrees": degrees,
    }


def _predicates(f):
    return {
        "M4+": in_M4_plus(f), "M4-": in_M4_minus(f), "P2": in_P2(f),
        "V+": in_vanishing_plus(f), "V-": in_vanishing_minus(f),
        "R2+": in_R2(f, "+"), "R2-": in_R2(f, "-"),
        "degrees": vanishing_degrees(f),
    }


def _small_signatures():
    """The recogniser sweep's signatures: every nonzero symmetric signature
    of arity 1-4 with entries in {0, +-1, +-i, 2} (9,320 of them)."""
    values = [ZERO, ONE, -ONE, I, -I, AN(2)]
    for n in range(1, 5):
        for entries in itertools.product(values, repeat=n + 1):
            f = sig(entries)
            if not f.is_zero():
                yield f


def _weight(rnd):
    return AN(rnd.choice([1, -1, 2, 3, -5])) * I ** rnd.randrange(4)


def _z_side_signatures(seed):
    """Z images of seeded exact-one, all-but-one, weighted-equality and
    vanishing signatures of arity 5-12, each also with one entry moved off
    its pattern."""
    rnd = random.Random(seed)
    for n in range(5, 13):
        low = [_weight(rnd) if 2 * k < n else ZERO for k in range(n + 1)]
        high = [_weight(rnd) if 2 * k > n else ZERO for k in range(n + 1)]
        for g in (exact_one(n).scale(_weight(rnd)),
                  all_but_one(n).scale(_weight(rnd)),
                  gen_eq(_weight(rnd), _weight(rnd), n), sig(low), sig(high)):
            yield transform(Z, g)
            k = rnd.randrange(n + 1)
            moved = list(g.entries)
            moved[k] = moved[k] + _weight(rnd)
            yield transform(Z, sig(moved))


def test_support_lists_the_nonzero_indices():
    assert sig([0, 1, 0, 2]).support() == (1, 3)
    assert sig([0, 0, 0]).support() == ()
    assert sig([I]).support() == (0,)


def test_zhat_is_computed_once_and_is_the_z_image():
    f = sig([1, 2, 0, I])
    assert f.zhat() is f.zhat()
    assert f.zhat() == transform(Z_INV, f)
    assert transform(Z, exact_one(4)).zhat().support() == (1,)


def test_z_side_predicates_match_their_definitions():
    z_side = list(_z_side_signatures(0))
    for f in z_side:
        assert _z_image(f) == transform(Z_INV, f)
    hits = dict.fromkeys(_predicates(z_side[0]), 0)
    for f in itertools.chain(_small_signatures(), z_side):
        got = _predicates(f)
        assert got == _reference(f), f
        assert f.zhat() is f.zhat()
        for name, value in got.items():
            hits[name] += value is True
    # every class has members among the signatures checked
    assert all(hits[name] for name in hits if name != "degrees"), hits
