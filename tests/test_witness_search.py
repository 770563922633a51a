"""The one witness search behind A-, P- and M-transformability (cases 2, 3
and 6 of the planar Holant set dichotomy): the candidates it tries, the
symmetries that let it try one per coset, and its verdicts against the
three separate finders it replaced, kept here as a reference."""

import random
from fractions import Fraction

from planar_holant import classify
from planar_holant.algebra import (
    AN, I, ONE, SQRT2, ZERO, ZETA, sqrt_in_field,
)
from planar_holant.classify import (
    _a_candidates,
    _distinct_anchors,
    _pair,
    dichotomy_plholant_set,
    in_A,
    in_P,
    in_P2,
    in_ZM,
    in_matchgate,
    nth_roots_in_field,
)
from planar_holant.sigcalc import (
    SymmetricSignature,
    Transform2x2,
    Z,
    Z_INV,
    degenerate,
    diag,
    equality,
    exact_one,
    gen_eq,
    identity2,
    row_transform,
    sig,
    transform,
)

from test_classify import gen_member, rand_nonzero, rand_orth


# -- the A-candidates need no check of (=_2) T^{tensor 2} ---------------------

def rand_delta(rnd):
    """q sqrt2^e zeta^j, a shape whose n-th roots the harvest finds."""
    return AN(Fraction(rnd.randint(1, 5), rnd.randint(1, 3))) \
        * SQRT2 ** rnd.randint(0, 1) * ZETA ** rnd.randint(0, 7)


def p2_anchor(rnd, n, T=None):
    """T [c, 0, ..., 0, c i^r] for T = Z diag(1, delta): in P2, with
    delta^n i^r the ratio of its Z image's ends."""
    T = T or Z @ diag(1, rand_delta(rnd))
    return transform(T, gen_eq(1, I ** rnd.randint(0, 3), n)
                     .scale(rand_nonzero(rnd)))


def test_every_a_candidate_keeps_the_binary_equality_affine():
    rnd = random.Random(20)
    tried = {"A1": 0, "A3": 0, "P2": 0}
    for cls in tried:
        for _ in range(25):
            F = [p2_anchor(rnd, rnd.randint(3, 6)) if cls == "P2"
                 else gen_member(cls, rnd)]
            assert cls != "P2" or in_P2(F[0])
            for T in _a_candidates(F):
                assert in_A(row_transform(equality(2), T)), (cls, F, T)
                tried[cls] += 1
    assert all(tried.values()), tried


def test_binary_equality_shapes_for_every_harvested_tau():
    """(=_2) T^{tensor 2} for T = [u | tau v] over every tau the harvest
    could draw, both signs and all r, is one of the three affine shapes."""
    rnd = random.Random(21)
    for cls in ("A1", "A3", "P2"):
        for _ in range(15):
            f = gen_member(cls, rnd)
            (u, v, uu, uv, vv), = _distinct_anchors([f])
            base = Transform2x2(u[0], v[0], u[1], v[1])
            for r in range(4):
                if cls == "A1":
                    assert uv.is_zero()
                    tau = sqrt_in_field(uu / vv * I ** r)
                    assert tau is not None
                    taus = [(tau, sig([1, 0, I ** r]).scale(uu)),
                            (-tau, sig([1, 0, I ** r]).scale(uu))]
                elif cls == "A3":
                    assert uv * uv == -(uu * vv) and not uv.is_zero()
                    shape = sig([1, I ** r, -(I ** (2 * r))]).scale(uu)
                    taus = [(uu / uv * I ** r, shape)]
                else:
                    delta = rand_nonzero(rnd) * ZETA ** r
                    b = row_transform(equality(2), Z @ diag(1, delta))
                    assert b == sig([0, 2 * delta, 0]) and in_A(b)
                    continue
                for tau, shape in taus:
                    b = row_transform(equality(2), base @ diag(1, tau))
                    assert b == shape and in_A(b), (cls, f, r)


# -- the classes are fixed by a diagonal, so one candidate per coset ---------

D_A = diag(1, I)
D_M = Transform2x2(0, -I, I, 0)


def test_a_and_m_are_fixed_by_their_diagonals():
    assert D_M == Z @ diag(1, -1) @ Z_INV
    rnd = random.Random(22)
    for _ in range(60):
        for cls, member, D in (("A", in_A, D_A),
                               ("Matchgate", in_matchgate, D_M)):
            g = gen_member(cls, rnd)
            for E in (D, D.inverse()):
                assert member(transform(E, g)), (cls, g)
            # a non-member stays out: other classes and dense signatures
            for h in (gen_member("Adagger", rnd), gen_member("Mhat", rnd),
                      dense(rnd, rnd.randint(2, 5))):
                assert member(transform(D, h)) == member(h), (cls, h)


# -- the three finders as they were before they shared one check loop ---------
#
# Each A-candidate was filtered by (=_2) T^{tensor 2} in A, and every tau i^k
# and +-kappa was tried.  The shared loop must keep the first success.

def ref_anchor_decompositions(F):
    out = []
    for f in F:
        if f.arity >= 3 and not f.is_zero():
            d = f.decomposition()
            if d.kind in ("distinct", "double"):
                out.append((f, d))
    return out


def ref_distinct_anchors(F):
    for _, d in ref_anchor_decompositions(F):
        if d.kind == "distinct" and not d.x.is_zero() and not d.y.is_zero():
            u, v = d.u, d.v
            yield u, v, _pair(u, u), _pair(u, v), _pair(v, v)


def ref_p_transformable(F):
    if all(in_P(f) for f in F):
        return identity2()
    for u, v, uu, uv, vv in ref_distinct_anchors(F):
        legit = (uv.is_zero() and not uu.is_zero() and not vv.is_zero()) or \
            (uu.is_zero() and vv.is_zero() and not uv.is_zero())
        if not legit:
            continue
        T = Transform2x2(u[0], v[0], u[1], v[1])
        S = T.inverse()
        if all(in_P(transform(S, g)) for g in F):
            return T
    return None


def ref_a_harvest(F):
    """Every transform the A-finder tried, in its order."""
    out = []
    for u, v, uu, uv, vv in ref_distinct_anchors(F):
        taus = []
        if uu.is_zero() and vv.is_zero() and not uv.is_zero():
            deltas = []
            for g in F:
                if g.is_zero() or not in_P2(g):
                    continue
                a, b = g.zhat()[0], g.zhat()[-1]
                for r in range(4):
                    for target in (b / a * I ** r, a / b * I ** r):
                        deltas.extend(nth_roots_in_field(target, g.arity))
            out += [Z @ diag(1, delta) for delta in deltas]
            continue
        if uu.is_zero() or vv.is_zero():
            continue
        if uv.is_zero():
            for r in range(4):
                s = sqrt_in_field(uu / vv * I ** r)
                if s is not None and not s.is_zero():
                    taus.extend([s, -s])
        if not uv.is_zero() and uv * uv == -(uu * vv):
            taus.extend(uu / uv * I ** r for r in range(4))
        base = Transform2x2(u[0], v[0], u[1], v[1])
        out += [base @ diag(1, tau) for tau in taus]
    return out


def ref_a_transformable(F):
    # the P2-anchor candidates skipped the filter; it passes them anyway
    if all(in_A(f) for f in F):
        return identity2()
    for T in ref_a_harvest(F):
        if not in_A(row_transform(equality(2), T)):
            continue
        S = T.inverse()
        if all(in_A(transform(S, g)) for g in F):
            return T
    return None


def ref_m_harvest(F):
    """Every transform the M-finder tried, in its order."""
    kappas = []
    for f, d in ref_anchor_decompositions(F):
        p, q = Z_INV.apply(d.u)
        if d.kind == "double":
            if not q.is_zero():
                kappas.extend([p / q, -(p / q)])
            continue
        pp, qq = Z_INV.apply(d.v)
        if not (p.is_zero() or q.is_zero() or pp.is_zero() or qq.is_zero()):
            s = sqrt_in_field(p * pp / (q * qq))
            if s is not None and not s.is_zero():
                kappas.extend([s, -s])
        elif in_P2(f):
            a, b = f.zhat()[0], f.zhat()[-1]
            kappas.extend(nth_roots_in_field(a / b, f.arity))
            kappas.extend(nth_roots_in_field(-(a / b), f.arity))
    return [(Z @ diag(1, kappa) @ Z_INV).inverse() for kappa in kappas
            if not kappa.is_zero()]


def ref_m_transformable(F):
    if all(in_ZM(f) for f in F):
        return Z
    for T in ref_m_harvest(F):
        C = T.inverse()
        if all(in_matchgate(transform(C, g)) for g in F):
            return T
    return None


# -- seeded sets reaching the witness search ----------------------------------

def affine_member(rnd, n):
    dirs = rnd.choice([((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, I), (1, -I))])
    f = degenerate(dirs[0], n) \
        + degenerate(dirs[1], n).scale(I ** rnd.randint(0, 3))
    return f.scale(rand_nonzero(rnd))


def dense(rnd, n):
    return sig([rand_nonzero(rnd) for _ in range(n + 1)])


def affine_set(rnd, arities):
    """Affine members moved by one rational rotation (case 2)."""
    H = rand_orth(rnd)
    return [transform(H, affine_member(rnd, a)) for a in arities]


def z_side_p2_set(rnd):
    """A weighted equality in the Z basis, moved by Z diag(1, delta), with a
    binary that is affine under the same move or dense (cases 2 and 3)."""
    n = rnd.randint(3, 6)
    T = Z @ diag(1, rand_delta(rnd) if rnd.random() < 0.8
                 else rand_nonzero(rnd))
    F = [p2_anchor(rnd, n, T)]
    F.append(transform(T, affine_member(rnd, 2)) if rnd.random() < 0.7
             else dense(rnd, 2))
    if rnd.random() < 0.3:
        F.append(p2_anchor(rnd, n + rnd.randint(1, 3), T))
    return F


def rotated_matchgate_set(rnd):
    """An exact-one and an even matchgate of square ratio, moved by one
    rational rotation (case 6); sometimes with a dense binary."""
    n = rnd.choice([3, 4, 6])
    H = rand_orth(rnd)
    s = rnd.choice([AN(2), AN(3), ONE + I, ZETA, AN(2) * I])
    entries, val = [ZERO] * (n + 1), rand_nonzero(rnd)
    for k in range(0, n + 1, 2):
        entries[k], val = val, val * s * s
    F = [transform(H, exact_one(n).scale(rand_nonzero(rnd))),
         transform(H, SymmetricSignature(entries))]
    return F + [dense(rnd, 2)] if rnd.random() < 0.2 else F


def rotated_rational_matchgate_set(rnd):
    """An even matchgate whose ratio is not a square, moved by a rotation."""
    r, v = AN(rnd.choice([3, 5, 6, 7])), rand_nonzero(rnd)
    f = sig([v * r ** (k // 2) if k % 2 == 0 else 0 for k in range(5)])
    return [transform(rand_orth(rnd), f)]


def product_set(rnd):
    H = rand_orth(rnd)
    return [transform(H, gen_eq(rand_nonzero(rnd), rand_nonzero(rnd), a))
            for a in (3, rnd.randint(2, 5))]


def anchored_set(rnd):
    """One A1, A3, P1, M1, M2 or M3 anchor with a binary or a second member."""
    F = [gen_member(rnd.choice(["A1", "A3", "P1", "M1", "M2", "M3"]), rnd)]
    extra = rnd.random()
    if extra < 0.3:
        F.append(dense(rnd, 2))
    elif extra < 0.6:
        F.append(gen_member(rnd.choice(["A", "P", "Matchgate"]), rnd))
    return F


def reference_sets():
    rnd = random.Random(23)
    sets = [affine_set(rnd, (3, 2)) for _ in range(150)]
    sets += [affine_set(rnd, (n, n + 1)) for n in (3, 4) for _ in range(25)]
    sets += [z_side_p2_set(rnd) for _ in range(120)]
    sets += [rotated_matchgate_set(rnd) for _ in range(100)]
    sets += [rotated_rational_matchgate_set(rnd) for _ in range(30)]
    sets += [product_set(rnd) for _ in range(50)]
    sets += [anchored_set(rnd) for _ in range(120)]
    sets += [[dense(rnd, 3), dense(rnd, 2)] for _ in range(10)]
    return sets


def verdict_tuple(v):
    return (v.tractable, v.case, v.obstruction, v.witness, v.caveat, v.route)


def test_set_verdicts_match_the_reference_finders(monkeypatch):
    sets = reference_sets()
    assert len(sets) >= 600
    got = [verdict_tuple(dichotomy_plholant_set(F)) for F in sets]
    for name, ref in (("ROUTE_A", ref_a_transformable),
                      ("ROUTE_P", ref_p_transformable),
                      ("ROUTE_M", ref_m_transformable)):
        monkeypatch.setattr(classify, name, (getattr(classify, name)[0], ref))
    want = [verdict_tuple(dichotomy_plholant_set(F)) for F in sets]
    for F, g, w in zip(sets, got, want):
        assert g == w, F
    # the sets reach each transformable case with a witness the search
    # found, and hard verdicts after a failed search
    found = {v[1] for v in got if v[0] and v[3] not in (None, identity2(), Z)}
    for case in ("A-transformable (case 2)", "P-transformable (case 3)",
                 "M-transformable (case 6)"):
        assert case in found
    assert any(not v[0] and "transformable" in v[2] for v in got)


def test_finders_match_the_reference_finders():
    for F in reference_sets()[::3]:
        assert classify.p_transformable(F) == ref_p_transformable(F), F
        assert classify.a_transformable(F) == ref_a_transformable(F), F
        assert classify.m_transformable(F) == ref_m_transformable(F), F


def first_per_coset(Ts, fixers):
    """The Ts in order, less each T D with T earlier and D in fixers."""
    kept = []
    for T in Ts:
        if not any(K.inverse() @ T in fixers for K in kept):
            kept.append(T)
    return kept


def test_candidates_are_the_reference_ones_one_per_coset(monkeypatch):
    tried = []
    monkeypatch.setattr(classify, "_first_witness",
                        lambda in_class, F, cands: tried.extend(cands))
    a_fixers = [diag(1, I ** k) for k in range(4)]
    m_fixers = [identity2(), D_M]
    reached = 0
    for F in reference_sets()[::2]:
        # one anchor, so no candidate repeats across anchors
        if len(ref_anchor_decompositions(F)) == 1 and not all(map(in_A, F)):
            tried.clear()
            classify.a_transformable(F)
            assert tried == first_per_coset(ref_a_harvest(F), a_fixers), F
            reached += len(tried) > 1
        if not all(map(in_ZM, F)):
            tried.clear()
            classify.m_transformable(F)
            assert tried == first_per_coset(ref_m_harvest(F), m_fixers), F
            reached += len(tried) > 1
    assert reached > 10


def test_p2_anchors_share_one_delta_harvest():
    rnd = random.Random(24)
    a_fixers = [diag(1, I ** k) for k in range(4)]
    for _ in range(20):
        T = Z @ diag(1, rand_delta(rnd))
        F = [p2_anchor(rnd, n, T) for n in (3, 4, 6)] + [dense(rnd, 2)]
        candidates = list(_a_candidates(F))
        assert candidates, F
        assert first_per_coset(candidates, a_fixers) == candidates, F
