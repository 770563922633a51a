"""The signature-calculus kernels that run on integer numerators, checked
against the AlgebraicNumber kernels they replaced, kept here as references:
``transform`` by Taylor shifts on field elements, and ``nth_roots_in_field``
by 16 candidate bases, each raised to the n-th power and inverted."""

import random
from fractions import Fraction
from functools import reduce
from operator import mul

from planar_holant import algebra
from planar_holant import sigcalc as sc
from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, SQRT2, ZERO, ZETA
from planar_holant.classify import _rational_nth_root, nth_roots_in_field
from planar_holant.sigcalc import (
    H2, SymmetricSignature, Transform2x2, Z, Z_INV, degenerate, identity2,
    sym_n_n1, tensor_decompose, transform)


# -- the references ------------------------------------------------------------

def _inverses(xs):
    """1/x for each x in xs, all nonzero, from one field inversion."""
    if not xs:
        return []
    w = reduce(mul, xs).inv()
    return [reduce(mul, xs[:k] + xs[k + 1:], w) for k in range(len(xs))]


def _scale(h, r):
    """h_k *= r^k in place."""
    if r != ONE:
        p = ONE
        for k in range(1, len(h)):
            p = p * r
            h[k] = h[k] * p


def _shift(h):
    """h_j <- sum_i C(n-j, i) h_{j+i} in place, by additions."""
    for top in range(len(h) - 1, 0, -1):
        for k in range(top):
            h[k] = h[k] + h[k + 1]


def transform_reference(T, f):
    """T^{tensor n} f by Taylor shifts on AlgebraicNumbers."""
    n = f.arity
    t00, t01, t10, t11 = T.t00, T.t01, T.t10, T.t11
    h = list(f.entries)
    swap_out = t00.is_zero() and t01.is_zero()
    if swap_out:
        t00, t01, t10, t11 = t10, t11, t00, t01
    if t00.is_zero():
        t00, t01, t10, t11 = t01, t00, t11, t10
        h.reverse()
    if t00.is_zero():
        return SymmetricSignature(h if n == 0 else [ZERO] * (n + 1))
    shift_y, shift_x = not t01.is_zero(), not t10.is_zero()
    inv = _inverses([t00, t01] * shift_y + [t10] * shift_x)
    if shift_y:
        _scale(h, t01 * inv[0])
        _shift(h)
        _scale(h, (t00 * t11 - t01 * t10) * inv[1])
    else:
        _scale(h, t11)
    h.reverse()
    if shift_x:
        _scale(h, t10)
        _shift(h)
        _scale(h, t00 * inv[-1])
    else:
        _scale(h, t00)
    if not swap_out:
        h.reverse()
    return SymmetricSignature(h)


def nth_roots_reference(w, n):
    """The q sqrt2^e zeta^j with n-th power w, tried base by base."""
    roots = []
    if w.is_zero():
        return roots
    for e in (0, 1):
        for j in range(8):
            base = (SQRT2 ** e) * (ZETA ** j)
            residual = w * (base ** n).inv()
            if not residual.is_rational():
                continue
            q = _rational_nth_root(residual.rational(), n)
            if q is not None and q != 0:
                cand = AN(q) * base
                if cand ** n == w and cand not in roots:
                    roots.append(cand)
    return roots


# -- seeded inputs ---------------------------------------------------------------

def _scalar(rnd, zero_share=0.0):
    """A field element with up to four nonzero numerators over a random
    denominator, or zero."""
    if rnd.random() < zero_share:
        return ZERO
    den = rnd.choice([1, 1, 2, 3, 4, 5, 6, 9, 12, 25])
    cs = [Fraction(rnd.randint(-6, 6), den) if rnd.random() < 0.6 else 0
          for _ in range(4)]
    x = AlgebraicNumber(*cs)
    return x if not x.is_zero() else AN(Fraction(1, den))


def _matrix(rnd):
    kind = rnd.randrange(6)
    if kind == 0:
        return rnd.choice([Z, Z_INV, H2, identity2(), Transform2x2(0, 1, 1, 0)])
    if kind == 1:
        # rational orthogonal, as the dichotomy's witnesses often are
        t = Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        return Transform2x2(c, -s, s, c)
    return Transform2x2(*(_scalar(rnd, zero_share=0.3) for _ in range(4)))


def _signature(rnd, n):
    return SymmetricSignature([_scalar(rnd, zero_share=0.2)
                               for _ in range(n + 1)])


def _seeded_transforms(seed, count):
    rnd = random.Random(seed)
    for _ in range(count):
        n = rnd.choice([0, 0, 1, 2, 3, 4, 5, 6, 8, 12])
        yield _matrix(rnd), _signature(rnd, n)


# -- transform ---------------------------------------------------------------------

def test_transform_equals_field_reference_on_seeded_inputs():
    kinds = set()
    for T, f in _seeded_transforms(11, 2500):
        assert transform(T, f) == transform_reference(T, f), (T, f)
        kinds.add((f.arity == 0, any(t.is_zero() for t in
                                     (T.t00, T.t01, T.t10, T.t11))))
    assert kinds == {(False, False), (False, True), (True, False),
                     (True, True)}


def test_transform_makes_at_most_one_number_per_entry(monkeypatch):
    calls = []
    make = algebra._make

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(algebra, "_make", counted)
    monkeypatch.setattr(sc, "_make", counted)
    for T, f in _seeded_transforms(12, 500):
        calls.clear()
        transform(T, f)
        assert len(calls) <= f.arity + 1, (T, f)


def test_inverse_inverts_the_determinant_once(monkeypatch):
    calls = []
    inv = AlgebraicNumber.inv

    def counted(x):
        calls.append(x)
        return inv(x)

    rnd = random.Random(13)
    for _ in range(200):
        T = _matrix(rnd)
        if not T.is_invertible():
            continue
        monkeypatch.setattr(AlgebraicNumber, "inv", counted)
        calls.clear()
        S = T.inverse()
        assert len(calls) == 1
        monkeypatch.undo()
        assert T @ S == identity2() and S @ T == identity2()


# -- tensor decompositions ---------------------------------------------------------

def _direction(rnd):
    if rnd.random() < 0.15:
        return (ZERO, ONE)
    return (ONE, _scalar(rnd, zero_share=0.1))


def test_decompositions_expand_to_their_signature():
    rnd = random.Random(14)
    seen = {"distinct": 0, "double": 0}
    tried = 0
    while min(seen.values()) < 1000:
        tried += 1
        n = rnd.randint(2, 9)
        u, v = _direction(rnd), _direction(rnd)
        pick = rnd.random()
        if pick < 0.45:
            f = degenerate(u, n).scale(_scalar(rnd)) \
                + degenerate(v, n).scale(_scalar(rnd))
        elif pick < 0.9:
            f = sym_n_n1(u, (_scalar(rnd), _scalar(rnd)), n)
        else:
            f = _signature(rnd, n)
        d = tensor_decompose(f)
        if d.kind in seen:
            seen[d.kind] += 1
            assert d.expand() == f, (f, d.kind)
    assert tried < 4000


# -- n-th roots ----------------------------------------------------------------------

def test_nth_roots_equal_field_reference_on_seeded_inputs():
    rnd = random.Random(15)
    found = 0
    for _ in range(3000):
        n = rnd.randint(1, 12)
        if rnd.random() < 0.7:
            q = Fraction(rnd.randint(-6, 6), rnd.randint(1, 6))
            w = (AN(q) * SQRT2 ** rnd.randint(0, 1) * ZETA ** rnd.randint(0, 7)) ** n
        else:
            w = _scalar(rnd, zero_share=0.1) * rnd.choice([ONE, I, ZETA, SQRT2])
        roots = nth_roots_in_field(w, n)
        assert roots == nth_roots_reference(w, n), (w, n)
        assert all(r ** n == w for r in roots)
        found += bool(roots)
    assert found > 1500
