import random
from fractions import Fraction

import pytest

from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, ZERO, ZETA
from planar_holant.sigcalc import (
    ArityError,
    SymmetricSignature,
    Transform2x2,
    Z,
    all_but_one,
    degenerate,
    diag,
    equality,
    exact_one,
    gen_eq,
    identity2,
    sig,
    transform,
)
from planar_holant.classify import (
    BadS,
    _plholant_verdict,
    classify_signature,
    dichotomy_binary_eq,
    dichotomy_plcsp,
    dichotomy_plcsp2,
    dichotomy_plholant_set,
    dichotomy_single,
    hypergraph_verdict,
    in_A,
    in_Adagger,
    in_M4,
    in_M4_minus,
    in_M4_plus,
    in_Mhat,
    in_MhatDagger,
    in_P,
    in_P2,
    in_ZP,
    in_matchgate,
    in_transformable_family,
    in_vanishing_minus,
    in_vanishing_plus,
)

ALPHA = ZETA


def orth(t):
    c = AN(Fraction(1 - t * t, 1 + t * t))
    s = AN(Fraction(2 * t, 1 + t * t))
    return Transform2x2(c, -s, s, c)


def rand_orth(rnd):
    t = Fraction(rnd.randint(-9, 9), rnd.randint(1, 9))
    H = orth(t)
    if rnd.random() < 0.5:
        H = H @ diag(1, -1)
    return H


def rand_nonzero(rnd):
    while True:
        x = AlgebraicNumber(rnd.randint(-4, 4), rnd.randint(-2, 2),
                            rnd.randint(-2, 2), 0)
        if not x.is_zero():
            return x


def two_dir(H, u_ratio, v_ratio, x, y, n):
    u = H.apply((1, u_ratio))
    v = H.apply((1, v_ratio))
    return degenerate(u, n).scale(x) + degenerate(v, n).scale(y)


# -- generated members accepted by the membership tests ------------------------

def gen_member(cls, rnd):
    n = rnd.randint(3, 6)
    c = rand_nonzero(rnd)
    H = rand_orth(rnd)
    if cls == "P1":
        return two_dir(H, 1, -1, c, c * rand_nonzero(rnd), n)
    if cls == "A1":
        t, r = rnd.randint(0, 1), rnd.randint(0, 3)
        beta = ALPHA ** (t * n + 2 * r)
        return two_dir(H, 1, -1, c, c * beta, n)
    if cls == "M1":
        return two_dir(H, 1, -1, c, c * I ** n * (-1) ** rnd.randint(0, 1), n)
    if cls == "A3":
        return two_dir(H, ALPHA, -ALPHA, c, c * I ** rnd.randint(0, 3), n)
    if cls == "P2":
        return two_dir(Transform2x2(1, 0, 0, 1), I, -I,
                       c, rand_nonzero(rnd), n)
    if cls == "M2":
        gamma = rand_nonzero(rnd)
        while gamma == I or gamma == -I:
            gamma = rand_nonzero(rnd)
        return two_dir(H, gamma, -gamma, c, c * (-1) ** rnd.randint(0, 1), n)
    if cls == "M3":
        return transform(H, exact_one(n)).scale(c)
    if cls == "M4":
        base = exact_one(n) if rnd.random() < 0.5 else all_but_one(n)
        return transform(Z, base).scale(c)
    if cls == "P":
        kind = rnd.randint(0, 2)
        if kind == 0:
            return gen_eq(rand_nonzero(rnd), rand_nonzero(rnd), n)
        if kind == 1:
            return sig([0, c, 0])
        return degenerate((rand_nonzero(rnd), rand_nonzero(rnd)), n).scale(c)
    if cls == "A":
        r = rnd.randint(0, 3)
        kind = rnd.randint(0, 2)
        dirs = [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, I), (1, -I))][kind]
        return (degenerate(dirs[0], n) + degenerate(dirs[1], n).scale(I ** r)
                ).scale(c)
    if cls == "Adagger":
        g = gen_member("A", rnd)
        return transform(diag(1, ZETA), g)
    if cls == "Matchgate":
        r = rand_nonzero(rnd)
        entries = [ZERO] * (n + 1)
        start = rnd.randint(0, 1)
        val = c
        for k in range(start, n + 1, 2):
            entries[k] = val
            val = val * r
        return SymmetricSignature(entries)
    if cls == "Mhat":
        return transform(Transform2x2(1, 1, 1, -1), gen_member("Matchgate", rnd))
    if cls == "MhatDagger":
        return transform(Z, gen_member("Matchgate", rnd))
    if cls == "Vplus":
        hat = [rand_nonzero(rnd) if k <= (n - 1) // 2 else ZERO
               for k in range(n + 1)]
        return transform(Z, SymmetricSignature(hat))
    raise ValueError(cls)


MEMBERSHIP = {
    "P": in_P,
    "A": in_A,
    "Adagger": in_Adagger,
    "Matchgate": in_matchgate,
    "Mhat": in_Mhat,
    "MhatDagger": in_MhatDagger,
    "P2": in_P2,
    "M4": in_M4,
    "Vplus": in_vanishing_plus,
}

FAMILY = {
    "P1": lambda r: r.p1,
    "A1": lambda r: r.a1,
    "A3": lambda r: r.a3,
    "M1": lambda r: r.m1,
    "M2": lambda r: r.m2,
    "M3": lambda r: r.m3,
}


@pytest.mark.parametrize("cls", sorted(MEMBERSHIP))
def test_generated_members_accepted(cls):
    rnd = random.Random("members-" + cls)
    for _ in range(60):
        f = gen_member(cls, rnd)
        assert MEMBERSHIP[cls](f), (cls, f)


@pytest.mark.parametrize("cls", sorted(FAMILY))
def test_generated_family_members_accepted(cls):
    rnd = random.Random("family-" + cls)
    for _ in range(60):
        f = gen_member(cls, rnd)
        res = in_transformable_family(f)
        assert FAMILY[cls](res), (cls, f)
        for wit in res.witness.values():
            assert wit.verify(f)


def test_hierarchy_on_samples():
    rnd = random.Random(7)
    for cls in ("M1", "A1", "P1", "P2", "M2"):
        for _ in range(40):
            f = gen_member(cls, rnd)
            res = in_transformable_family(f)
            if res.m1:
                assert res.a1
            if res.a1:
                assert res.p1
            if in_P2(f):
                assert res.m2 or in_P2(f)  # P2 is the isotropic part of M2
                assert in_transformable_family(f).m2


# -- membership fixtures -------------------------------------------------------

def test_base_class_fixtures():
    assert in_A(sig([2, 0, 2, 0]))
    assert in_P(sig([1, 0, 0, 5])) and not in_A(sig([1, 0, 0, 5]))
    f = sig([1, 3, 1])
    assert in_Mhat(f)
    assert not in_P(f) and not in_A(f) and not in_Adagger(f)
    g = sig([1, 3, -1])
    assert in_MhatDagger(g) and not in_Mhat(g)
    h = sig([1, ALPHA, -(ALPHA * ALPHA)])
    assert in_Adagger(h) and not in_A(h)
    assert in_matchgate(sig([1, 0, 3, 0, 9]))
    assert not in_matchgate(sig([1, 0, 3, 0, 10]))
    assert in_matchgate(sig([0, 1, 0, 0]))
    assert not in_matchgate(sig([0, 0, 1, 0, 0]))


def test_z_side_fixtures():
    assert in_M4_plus(transform(Z, exact_one(5)))
    assert in_M4_minus(transform(Z, all_but_one(4)))
    assert in_P2(transform(Z, sig([1, 0, 0, 0, 3])))
    assert in_ZP(transform(Z, gen_eq(2, 3, 4)))
    # canonical vanishing form that is not a matching signature
    f = transform(Z, sig([5, 1, 0, 0, 0]))
    assert in_vanishing_plus(f) and not in_M4_plus(f)


def test_degenerate_directions_in_A():
    assert in_A(degenerate((1, I), 4))
    assert in_A(degenerate((1, -1), 3).scale(AN(7)))
    assert in_A(degenerate((0, 1), 5))
    assert not in_A(degenerate((1, 2), 3))


def test_family_fixtures():
    f = degenerate((1, 1), 4) + degenerate((1, -1), 4).scale(5)
    res = in_transformable_family(f)
    assert res.p1 and not res.a1  # beta^2 = 25 is not a root of unity
    res = in_transformable_family(exact_one(5))
    assert res.m3 and res.witness["M3"].verify(exact_one(5))
    a3 = degenerate((1, ALPHA), 4) + degenerate((1, -ALPHA), 4).scale(I)
    assert in_transformable_family(a3).a3
    with pytest.raises(ArityError):
        in_transformable_family(sig([1, 0, 1]))
    with pytest.raises(ArityError):
        in_transformable_family(degenerate((1, 2), 4))


def test_irrational_decomposition_caveat():
    res = in_transformable_family(sig([1, 1, 2, 3]))
    assert res.caveat and not res.any()


def test_canonical_vplus_not_m4():
    # hat form [x, 1, 0, ..., 0] with x != 0
    f = transform(Z, sig([3, 1, 0, 0, 0]))
    assert in_vanishing_plus(f) and not in_M4_plus(f)


# -- dichotomies ----------------------------------------------------------------

def test_binary_eq_dichotomy():
    assert dichotomy_binary_eq([1, 2, 4], {3, 6}).tractable
    assert dichotomy_binary_eq([0, 1, 0], {4}).tractable
    assert not dichotomy_binary_eq([3, 1, 0], {3}).tractable
    assert dichotomy_binary_eq([1, 2, -1], {4}).case == "condition 5"
    v = dichotomy_binary_eq([1, 1, -1], {3})  # f0 f2 = -f1^2, odd gcd
    assert v.tractable and v.case == "condition 4"
    with pytest.raises(BadS):
        dichotomy_binary_eq([1, 2, 3], {2})


def test_binary_eq_rejects_invalid_arities():
    for S in ([3.5], ["3"], [True, 3], [3, 0], [3, None], [3.0]):
        with pytest.raises(BadS):
            dichotomy_binary_eq([1, 0, 1], S)
    assert issubclass(BadS, ValueError)
    with pytest.raises(OverflowError):
        dichotomy_binary_eq([1, 0, 1], [3, float("inf")])


def test_route_ids_name_the_solver():
    F = [transform(Z, equality(5)), transform(Z, exact_one(3))]
    assert dichotomy_plholant_set(F).route == "eo"
    assert dichotomy_plholant_set([exact_one(3)]).route is None
    assert hypergraph_verdict([5, 10]).route == "eo"
    assert hypergraph_verdict([2, 2]).route == "fkt"
    assert hypergraph_verdict([1, 2]).route is None
    assert hypergraph_verdict([3, 6]).route is None


def test_plcsp_dichotomies():
    b = AN(3)
    f = sig([1, b, 1])
    assert dichotomy_plcsp2([f]).tractable
    assert dichotomy_plcsp2([f]).case == "Mhat"
    g = sig([1, ALPHA, -(ALPHA * ALPHA)])
    assert not dichotomy_plcsp2([f, g]).tractable
    assert dichotomy_plcsp([equality(3)]).tractable
    assert not dichotomy_plcsp([sig([3, 1, 0])]).tractable


def test_single_dichotomy():
    assert dichotomy_single(exact_one(7)).case == "M3"
    assert not dichotomy_single(sig([2, 1, 0, 0, 0])).tractable
    z = transform(Z, sig([3, 1, 0, 0, 5]))
    assert not dichotomy_single(z).tractable
    assert dichotomy_single(degenerate((2, 3), 4)).case == "degenerate"
    v = transform(Z, sig([3, 1, 0, 0, 0]))
    assert dichotomy_single(v).case == "vanishing"
    assert dichotomy_single(transform(Z, exact_one(4))).tractable
    assert dichotomy_single(transform(Z, gen_eq(1, 7, 5))).case == "M2"


def test_plholant_set_fixtures():
    F = [transform(Z, equality(5)), transform(Z, exact_one(3))]
    v = dichotomy_plholant_set(F)
    assert v.tractable and "case 7" in v.case
    F = [transform(Z, equality(4)), transform(Z, exact_one(3))]
    assert not dichotomy_plholant_set(F).tractable
    f = transform(Z, sig([1, 1, 1, 0, 0, 0]))
    g = transform(Z, sig([0, 0, 0, 1, 1, 1]))
    assert in_vanishing_plus(f) and not in_M4(f)
    assert in_vanishing_minus(g) and not in_M4(g)
    assert not dichotomy_plholant_set([f, g]).tractable
    assert dichotomy_plholant_set([f]).tractable
    assert dichotomy_plholant_set([sig([1, 2, 3])]).tractable  # arity <= 2


def test_plholant_set_transform_routes():
    rnd = random.Random(11)
    H = rand_orth(rnd)
    T = H @ diag(2, AN(Fraction(1, 3)))
    F = [transform(T, gen_eq(1, 5, 4)), transform(T, gen_eq(2, 3, 3))]
    v = dichotomy_plholant_set(F)
    assert v.tractable and "case 3" in v.case
    F = [transform(H, exact_one(4)), transform(H, sig([1, 0, 2, 0, 4, 0]))]
    v = dichotomy_plholant_set(F)
    assert v.tractable and "case 6" in v.case
    # an A-route set: shared orthogonal transform of affine canonical forms
    F = [transform(H, degenerate((1, 1), 4) + degenerate((1, -1), 4).scale(I)),
         transform(H, degenerate((1, 1), 3) + degenerate((1, -1), 3).scale(-1))]
    v = dichotomy_plholant_set(F)
    assert v.tractable and ("case 2" in v.case or "case 3" in v.case
                            or "case 6" in v.case)


def test_plholant_set_m4_sides():
    fp = transform(Z, exact_one(4))
    fm = transform(Z, all_but_one(4))
    v = dichotomy_plholant_set([fp, fm])
    assert v.tractable and "case 6" in v.case
    # mixing both matching sides with a weighted equality is hard
    g = transform(Z, gen_eq(1, 1, 5))
    assert not dichotomy_plholant_set([fp, fm, g]).tractable
    # one matching side with a compatible weighted equality of arity 5
    v = dichotomy_plholant_set([fp, g])
    assert v.tractable and "case 7" in v.case


def z_image(entries):
    """The signature whose Z image is ``entries``."""
    return transform(Z, sig(entries))


ZEO3, ZABO3, ZEQ5 = z_image([0, 1, 0, 0]), z_image([0, 0, 1, 0]), \
    z_image([1, 0, 0, 0, 0, 1])

# one small set per outcome of the plholant dichotomy's later branches:
# (set, tractable, case or obstruction prefix)
PLHOLANT_OUTCOMES = [
    # an A3 anchor settles the set by A- or M-transformability
    ([sig([ZETA ** j + I * (-ZETA) ** j for j in range(5)])], True,
     "A-transformable (case 2)"),
    # a vanishing member outside M4 fixes the vanishing side
    ([z_image([1, 2, 0, 0]), z_image([1, 0, 1])], False,
     "binary Sig[2, 0, -2] is incompatible with vanishing side +"),
    ([z_image([1, 2, 0, 0])], True, "all non-degenerate in R2^+ (case 5)"),
    ([z_image([1, 2, 3, 0, 0, 0]), sig([1, 0])], False,
     "degenerate Sig[1, 0] is incompatible with vanishing side +"),
    # matching sides without weighted equalities
    ([ZEO3], True, "all non-degenerate in R2^+ (case 5)"),
    ([ZEO3, z_image([0, 1, 1])], False,
     "binary Sig[3, -w^2, 1] is incompatible with the matching side"),
    ([ZEO3, ZABO3, z_image([0, 1, 1])], False,
     "binary Sig[3, -w^2, 1] is incompatible with mixed matching sides"),
    ([ZEO3, ZABO3, sig([1, 0])], False,
     "degenerate Sig[1, 0] is incompatible with mixed matching sides"),
    ([ZEO3, z_image([1, 0, 2]), sig([1, 1])], False,
     "matching-side set is not contained in the Z image of the matchgates"),
    # weighted equalities alone
    ([transform(Z, equality(3))], True, "P-transformable (case 3)"),
    # weighted equalities with one matching side
    ([ZEQ5, ZEO3, sig([1, 1])], False,
     "weighted equalities of Z-arity gcd 1 <= 4"),
    ([ZEQ5, ZEO3, z_image([1, 1, 2])], False,
     "binary Sig[5, -w^2, -1] leaves the Z image of the product type"),
]

CASE_CLASS = {"case 2": in_A, "case 3": in_P, "case 6": in_matchgate}


@pytest.mark.parametrize("F, tractable, text", PLHOLANT_OUTCOMES)
def test_plholant_verdict_outcomes(F, tractable, text):
    v = _plholant_verdict(F)
    assert v.tractable is tractable
    assert (v.case if tractable else v.obstruction).startswith(text)
    if tractable and v.witness is not None:
        member = next(test for case, test in CASE_CLASS.items()
                      if case in v.case)
        S = v.witness.inverse()
        assert all(member(transform(S, f)) for f in F)


def test_hypergraph_verdict():
    assert hypergraph_verdict([5, 10]).tractable
    assert not hypergraph_verdict([1, 2, 2]).tractable  # monomer-dimer
    assert not hypergraph_verdict([3, 6]).tractable
    assert not hypergraph_verdict([2, 3]).tractable
    assert hypergraph_verdict([6, 8]).tractable is False  # gcd 2, size 6 > 2
    with pytest.raises(ValueError):
        hypergraph_verdict([])


# (sizes, tractable).  gcd >= 5 by the pinning algorithm and {2} by FKT:
# Cai, Fu, Guo, Williams, "A Holant dichotomy: is the FKT algorithm
# universal?", FOCS 2015, which makes gcd <= 4 with a size >= 3 #P-hard.
# {1}: each vertex takes one of its singletons.  {1, 2}: with a singleton
# at every vertex these count the matchings of a planar graph, #P-complete
# (Jerrum, J. Stat. Phys. 48, 1987; Vadhan, SIAM J. Comput. 31, 2001).
HYPERGRAPH_VERDICTS = [
    ([1], True), ([1, 1, 1], True), ([2], True), ([2, 2, 2], True),
    ([5], True), ([5, 10], True), ([6, 12], True), ([7, 14, 21], True),
    ([1, 2], False), ([1, 1, 2], False), ([1, 2, 2], False),
    ([3], False), ([4], False), ([3, 6], False), ([2, 3], False),
    ([1, 3], False), ([2, 4], False), ([6, 8], False), ([5, 7], False),
    ([1, 5], False), ([1, 2, 5], False),
]


@pytest.mark.parametrize("sizes,tractable", HYPERGRAPH_VERDICTS)
def test_hypergraph_verdict_table(sizes, tractable):
    v = hypergraph_verdict(sizes)
    assert v.tractable is tractable
    if set(sizes) == {1, 2}:
        assert "monomer-dimer" in v.obstruction


def test_hypergraph_verdict_rejects_invalid_sizes():
    for sizes in ([-3], [0], [2.5], ["3"], [True], [5, 0], [2, False],
                  [4, None]):
        with pytest.raises(ValueError):
            hypergraph_verdict(sizes)


def test_classify_signature_table():
    t = classify_signature(transform(Z, exact_one(4)))
    assert t["M4plus"] and t["Vplus"] and not t["P"]
    t = classify_signature(equality(3))
    assert t["P"] and t["A"] and t["Mhat"] and not t["M4plus"]
    t = classify_signature(exact_one(5))
    assert t["M3"] and t["Matchgate"]


def test_rational_nth_root_is_exact_beyond_float_range():
    from planar_holant.classify import _rational_nth_root
    big = 10 ** 20 + 39
    assert _rational_nth_root(Fraction(big ** 3), 3) == big
    assert _rational_nth_root(Fraction(big ** 3 + 1), 3) is None
    assert _rational_nth_root(Fraction(3 ** 700), 700) == 3
    assert _rational_nth_root(Fraction(-(big ** 5), 3 ** 700), 5) == \
        Fraction(-big, 3 ** 140)
    assert _rational_nth_root(Fraction(3 ** 700), 3) is None


def test_constant_signature_leaves_the_set_verdict_unchanged():
    c = sig([2])
    assert in_P(c) and in_A(c)
    for F in ([transform(Z, sig([1, 2, 3, 0, 0, 0]))],
              [transform(Z, equality(5)), transform(Z, exact_one(3))],
              [sig([1, 0, 1, 0]), sig([1, 1, 0, 0])]):
        plain = dichotomy_plholant_set(F)
        with_c = dichotomy_plholant_set(F + [c])
        assert (with_c.tractable, with_c.case, with_c.obstruction) == \
            (plain.tractable, plain.case, plain.obstruction)


def test_route_obstructions_are_written_only_for_a_hard_set(monkeypatch):
    hard = {
        "anchor Sig[1, 0, 0, 1] in P1/M2 but the set is not A-, P-, or "
        "M-transformable": [sig([1, 0, 0, 1]), sig([1, 2, 3])],
        "anchor Sig[0, 0, 1, 0] in M3 but the set is not M-transformable":
            [sig([0, 0, 1, 0]), sig([1, 2, 3])],
        "binary Sig[1, 2, 3] leaves the Z image of the product type and the "
        "set is not A-, P-, or M-transformable":
            [sig([0, 1, 0, -1]), sig([1, 2, 3])],
    }
    for obstruction, F in hard.items():
        v = dichotomy_plholant_set(F)
        assert (v.tractable, v.obstruction) == (False, obstruction)
    # a tractable set reached through the same routes writes no signature
    calls = []
    monkeypatch.setattr(SymmetricSignature, "__repr__",
                        lambda f: calls.append(f) or "Sig")
    for F in ([sig([1, 0, 0, 1])], [sig([0, 0, 1, 0])],
              [sig([0, 1, 0, -1]), sig([1, 0, 1])]):
        assert dichotomy_plholant_set(F).tractable, F
    assert calls == []


# -- rational matchgates ----------------------------------------------------------

def rational_matchgate(rnd, n):
    """An even matchgate [v, 0, v r, 0, v r^2, ...] whose ratio r is not a
    square in the field, so its tensor decomposition leaves the field."""
    r, v = AN(rnd.choice([3, 5, 6, 7])), rand_nonzero(rnd)
    return sig([v * r ** (k // 2) if k % 2 == 0 else 0 for k in range(n + 1)])


def test_rational_matchgates_are_tractable_by_fkt():
    rnd = random.Random(11)
    sigs = [sig([1, 0, 3, 0, 9]), sig([1, 0, 5, 0, 25, 0, 125])]
    sigs += [rational_matchgate(rnd, n) for n in (4, 6, 8) for _ in range(3)]
    for f in sigs:
        assert in_matchgate(f)
        v = dichotomy_plholant_set([f])
        assert (v.tractable, v.case, v.caveat) == \
            (True, "M-transformable (case 6)", False), f
        assert v.witness == identity2()
        s = dichotomy_single(f)
        assert (s.tractable, s.case, s.caveat) == (True, "matchgate", False)
        assert s.witness.transform == identity2() and s.witness.verify(f)


def test_matchgate_with_a_non_matchgate_binary_stays_hard():
    F = [sig([1, 0, 3, 0, 9]), sig([1, 1, 2])]
    assert not in_matchgate(F[1])
    assert not dichotomy_plholant_set(F).tractable


def test_binary_eq_needs_a_binary_f():
    for f in ([1, 2], [1, 2, 4, 8], sig([1, 2, 4, 8]), sig([5])):
        with pytest.raises(ArityError):
            dichotomy_binary_eq(f, [3])


def test_binary_eq_reads_a_huge_arity_mod_8():
    # f0^d and f2^d would each have about 10^21 digits; the ratio decides
    d = 10 ** 21 + 1
    v = dichotomy_binary_eq([1, 1, -1], [d])
    assert v.tractable and v.case == "condition 4"
    assert dichotomy_binary_eq([ZETA, 1, 1], [d - 1]).case == "condition 5"
    assert not dichotomy_binary_eq([1, 3, 4], [d]).tractable
