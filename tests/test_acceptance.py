"""Acceptance gate: end-to-end checks of every headline guarantee.

Each section stresses one promise: solver/oracle equivalence, the hypergraph
matching algorithm, exact gadget and derivative identities, holographic
invariance, vanishing signatures, classifier soundness, the compressed-matrix
determinant, and the binary-with-equalities dichotomy.
"""

import random
from math import gcd

import pytest

from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, ZERO, ZETA
from planar_holant.sigcalc import (
    Transform2x2, sig, equality, exact_one, gen_eq,
    degenerate, derivative, partial, transform, vanishing_degrees,
    signature_matrix_ops, Z,
)
from planar_holant.grid import (
    PlanarGrid, Vertex, two_stretch, holographic_transform_bipartite,
    orthogonal_transform,
)
from planar_holant.classify import (
    in_P, in_A, in_Adagger, in_Mhat, in_P2, in_transformable_family,
    classify_signature,
    dichotomy_single, dichotomy_plholant_set, dichotomy_binary_eq,
    hypergraph_verdict,
)
from planar_holant.solvers import (
    fkt_count_pm, product_eval, affine_eval, vanishing_eval, EOInstance,
    eo_geneq_eval, hypergraph_pm,
)
from planar_holant.cli import (
    triangle_gate_grid, tetrahedron_gate_grid, chain_gate_grid,
    quad_gate_grid,
)

from test_grid import simple_random_grid
from test_classify import (
    gen_member, rand_orth, rand_nonzero, MEMBERSHIP, FAMILY,
)
from test_solvers import (
    brute_pm, random_weighted_graph, grid_graph, random_product_grid,
    random_affine_grid, random_vanishing_grid, build_instance,
    build_instance_biased, brute_hpm, random_hypergraph5,
)


# -- 1. oracle equivalence of every polynomial-time solver ------------------------


def pm_holant_grid(g):
    """The signature grid whose Holant value is g's weighted PM count."""
    verts = []
    edges = []
    for vid, rot in g.rotation.items():
        verts.append(Vertex(vid, exact_one(len(rot)), list(rot)))
    for ei, (a, b, w) in enumerate(g.edges):
        mid = ("w", ei)
        verts.append(Vertex(mid, gen_eq(ONE, w, 2), [("wa", ei), ("wb", ei)]))
        edges.append((a, ("wa", ei)))
        edges.append((("wb", ei), b))
    return PlanarGrid(verts, edges)


@pytest.mark.parametrize("seed", range(110))
def test_fkt_matches_bruteforce_holant(seed):
    g = random_weighted_graph(seed)
    assert len(g.edges) <= 18
    grid = pm_holant_grid(g)
    assert fkt_count_pm(g) == grid.holant(cap=40)
    assert fkt_count_pm(g) == brute_pm(g)


def test_fkt_k4_and_grid_graph():
    k4 = {v: [w for w in range(4) if w != v] for v in range(4)}
    rot = {0: [1, 2, 3], 1: [0, 3, 2], 2: [0, 1, 3], 3: [0, 2, 1]}
    from planar_holant.solvers import WeightedPlanarGraph
    edges = [(("h", v, w), ("h", w, v), ONE)
             for v in k4 for w in k4[v] if v < w]
    rotation = {v: [("h", v, w) for w in rot[v]] for v in rot}
    g = WeightedPlanarGraph(list(k4), rotation, edges)
    assert fkt_count_pm(g) == AN(3)
    assert brute_pm(g) == AN(3)
    g4 = grid_graph(4)
    assert fkt_count_pm(g4) == enumerate_pm(g4)
    assert fkt_count_pm(g4) == AN(36)


def enumerate_pm(g):
    """Exhaustive matching enumeration, branching on the lowest free vertex."""
    owner = {}
    for v, rot in g.rotation.items():
        for h in rot:
            owner[h] = v
    adj = {v: [] for v in g.rotation}
    for (a, b, w) in g.edges:
        adj[owner[a]].append((owner[b], w))
        adj[owner[b]].append((owner[a], w))
    order = sorted(g.rotation, key=repr)

    def count(free):
        if not free:
            return ONE
        v = min(free, key=order.index)
        total = ZERO
        rest = free - {v}
        for (u, w) in adj[v]:
            if u in rest:
                total = total + w * count(rest - {u})
        return total

    return count(frozenset(order))


@pytest.mark.parametrize("seed", range(110))
def test_product_eval_matches_bruteforce(seed):
    grid = random_product_grid(seed)
    assert len(grid.edges) <= 18
    assert product_eval(grid) == grid.holant(cap=40)


@pytest.mark.parametrize("seed", range(110))
def test_affine_eval_matches_bruteforce(seed):
    grid = random_affine_grid(seed)
    assert len(grid.edges) <= 18
    assert affine_eval(grid) == grid.holant(cap=40)


@pytest.mark.parametrize("seed", range(55))
@pytest.mark.parametrize("side", ["+", "-"])
def test_vanishing_eval_matches_bruteforce(seed, side):
    grid = random_vanishing_grid(seed, side)
    assert len(grid.edges) <= 18
    assert vanishing_eval(grid) == grid.holant(cap=40)


def eo_acceptance_instances():
    """At least 100 in-precondition instances with at most 18 edges."""
    picked = []
    for gen in (build_instance, build_instance_biased):
        seed = 0
        found = 0
        while found < 55:
            grid = gen(seed)
            seed += 1
            if len(grid.edges) <= 18:
                picked.append(grid)
                found += 1
    return picked


def test_eo_geneq_eval_matches_bruteforce():
    grids = eo_acceptance_instances()
    assert len(grids) >= 100
    for grid in grids:
        assert eo_geneq_eval(EOInstance(grid)) == grid.holant(cap=40)


# -- 2. hypergraph perfect matchings -----------------------------------------------


@pytest.mark.parametrize("seed", range(55))
def test_hypergraph_pm_matches_enumeration(seed):
    h = random_hypergraph5(seed)
    assert sum(len(m) for _, m in h.hyperedges) <= 18
    assert gcd(*h.sizes()) >= 5 if len(h.sizes()) > 1 else h.sizes()[0] >= 5
    verdict, value = hypergraph_pm(h)
    assert verdict.tractable
    assert value == brute_hpm(h)


def test_hypergraph_verdicts_split_on_gcd():
    rnd = random.Random(20240818)
    for _ in range(200):
        k = rnd.randint(1, 4)
        sizes = [k * rnd.randint(1, 4) for _ in range(rnd.randint(1, 5))]
        d = 0
        for s in sizes:
            d = gcd(d, s)
        if d >= 5 or max(sizes) < 3:
            continue
        assert not hypergraph_verdict(sizes).tractable
    for _ in range(200):
        d = rnd.randint(5, 9)
        sizes = [d * rnd.randint(1, 3) for _ in range(rnd.randint(1, 5))]
        assert hypergraph_verdict(sizes).tractable


# -- 3. exact gadget and derivative identities --------------------------------------


def test_triangle_gadget():
    g = triangle_gate_grid().gate_signature().symmetrize()
    assert g == sig([0, 1, 0, 1])


def test_tetrahedron_gadget():
    g = tetrahedron_gate_grid().gate_signature().symmetrize()
    assert g == sig([0, 2, 0, 1, 0])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_chain_gadget(k):
    a = AN("1/2") + I
    g = chain_gate_grid(a, k).gate_signature().symmetrize()
    assert g == sig([1] + [0] * (2 * k - 1) + [a ** k])


@pytest.mark.parametrize("r", range(4))
def test_quad_gadget_realizes_equality(r):
    g = quad_gate_grid(r).gate_signature().symmetrize()
    assert g == equality(4)


def rand_scalar(rnd):
    while True:
        x = AN(rnd.randint(-3, 3)) + AN(rnd.randint(-2, 2)) * I
        if not x.is_zero():
            return x


def test_calculus_degenerate_identities():
    rnd = random.Random(11)
    for _ in range(40):
        n = rnd.randint(3, 10)
        s, t = rand_scalar(rnd), rand_scalar(rnd)
        f = degenerate((s, t), n)
        a, b, c = rand_scalar(rnd), rand_scalar(rnd), rand_scalar(rnd)
        k = rnd.randint(1, n - 1)
        g = f
        for _ in range(k):
            g = derivative(g, sig([a, b]))
        assert g == degenerate((s, t), n - k).scale((a * s + b * t) ** k)
        k2 = rnd.randint(1, (n - 1) // 2)
        g = f
        for _ in range(k2):
            g = derivative(g, sig([a, b, c]))
        coef = a * s * s + AN(2) * b * s * t + c * t * t
        assert g == degenerate((s, t), n - 2 * k2).scale(coef ** k2)
        g = f
        for _ in range(k2):
            g = partial(g)
        assert g == degenerate((s, t), n - 2 * k2).scale((s * s + t * t) ** k2)
        if n > 4:
            k4 = rnd.randint(1, (n - 1) // 4)
            g = f
            for _ in range(k4):
                g = derivative(g, equality(4))
            assert g == degenerate((s, t), n - 4 * k4).scale(
                (s ** 4 + t ** 4) ** k4)


def test_calculus_equality_identities():
    rnd = random.Random(12)
    for _ in range(40):
        n = rnd.randint(3, 10)
        m = rnd.randint(1, n - 1)
        g = sig([rand_scalar(rnd) for _ in range(m + 1)])
        got = derivative(equality(n), g)
        assert got == sig([g[0]] + [0] * (n - m - 1) + [g[m]])
    for k in range(1, 6):
        w = rand_scalar(rnd)
        f = equality(2 * k)
        for _ in range(k):
            f = derivative(f, sig([1, w]))
        assert f == sig([1] + [0] * (k - 1) + [w ** k])


@pytest.mark.parametrize("pm", [1, -1])
def test_calculus_linear_coefficient_identities(pm):
    for n in range(3, 11):
        f = sig([AN(pm) ** k * AN(n - 2 * k) for k in range(n + 1)])
        p = partial(f)
        assert p == sig([AN(2) * AN(pm) ** k * AN(n - 2 - 2 * k)
                         for k in range(n - 1)])
        if n % 2 == 1:
            g = f
            for _ in range((n - 1) // 2):
                g = partial(g)
            assert g == sig([1, -pm]).scale(AN(2) ** ((n - 1) // 2))
        if n > 4:
            g = derivative(f, equality(4))
            assert g == sig([AN(2) * AN(pm) ** k * AN(n - 4 - 2 * k)
                             for k in range(n - 3)])
        if n % 4 == 1 and n > 4:
            g = f
            for _ in range((n - 1) // 4):
                g = derivative(g, equality(4))
            assert g == sig([1, -pm]).scale(AN(2) ** ((n - 1) // 4))
        if n % 4 == 3 and n > 4:
            g = f
            for _ in range((n - 3) // 4):
                g = derivative(g, equality(4))
            assert partial(g) == sig([1, -pm]).scale(AN(2) ** ((n + 1) // 4))


@pytest.mark.parametrize("pm", [1, -1])
def test_calculus_imaginary_coefficient_identities(pm):
    u = I if pm == 1 else -I
    for n in range(3, 11):
        f = sig([u ** k * AN(n - 2 * k) for k in range(n + 1)])
        assert partial(f) == degenerate((ONE, u), n - 2).scale(AN(4))
        if n > 4:
            g = derivative(f, equality(4))
            assert g == sig([AN(2) * u ** k * AN(n - 4 - 2 * k)
                             for k in range(n - 3)])
        if n % 4 == 1 and n > 4:
            g = f
            for _ in range((n - 1) // 4):
                g = derivative(g, equality(4))
            assert g == sig([1, -u]).scale(AN(2) ** ((n - 1) // 4))
        if n % 4 == 3 and n > 4:
            g = f
            for _ in range((n - 3) // 4):
                g = derivative(g, equality(4))
            assert partial(g) == sig([1, u]).scale(AN(2) ** ((n + 5) // 4))


# -- 4. holographic invariance -------------------------------------------------------


def rand_invertible(rnd):
    while True:
        T = Transform2x2(*[AlgebraicNumber(rnd.randint(-2, 2),
                                           rnd.randint(-1, 1),
                                           rnd.randint(-1, 1), 0)
                           for _ in range(4)])
        if T.is_invertible():
            return T


@pytest.mark.parametrize("seed", range(200))
def test_holant_theorem_on_random_grids(seed):
    grid = simple_random_grid(seed)
    assert len(grid.edges) <= 12
    bip = two_stretch(grid)
    T = rand_invertible(random.Random(seed + 5000))
    assert holographic_transform_bipartite(bip, T).holant() == grid.holant()


@pytest.mark.parametrize("seed", range(200))
def test_orthogonal_invariance_on_random_grids(seed):
    grid = simple_random_grid(seed)
    H = rand_orth(random.Random(seed + 9000))
    assert orthogonal_transform(grid, H).holant() == grid.holant()


# -- 5. vanishing signatures ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(100))
@pytest.mark.parametrize("side", ["+", "-"])
def test_vanishing_grids_evaluate_to_zero(seed, side):
    grid = random_vanishing_grid(seed, side)
    assert vanishing_eval(grid) == ZERO
    assert grid.holant(cap=40) == ZERO


def test_vanishing_degree_sum_is_arity():
    rnd = random.Random(20240819)
    for _ in range(1000):
        n = rnd.randint(1, 8)
        f = sig([AlgebraicNumber(rnd.randint(-4, 4), rnd.randint(-2, 2),
                                 rnd.randint(-2, 2), rnd.randint(-2, 2))
                 for _ in range(n + 1)])
        rdp, vdp, rdm, vdm = vanishing_degrees(f)
        assert rdp + vdp == n
        assert rdm + vdm == n


# -- 6. classifier soundness ------------------------------------------------------------


@pytest.mark.parametrize("cls", sorted(MEMBERSHIP))
def test_500_members_per_class_accepted(cls):
    rnd = random.Random("members-500-" + cls)
    for _ in range(500):
        f = gen_member(cls, rnd)
        assert MEMBERSHIP[cls](f), (cls, f)


@pytest.mark.parametrize("cls", sorted(FAMILY))
def test_500_members_per_family_accepted(cls):
    rnd = random.Random("family-500-" + cls)
    for _ in range(500):
        f = gen_member(cls, rnd)
        assert FAMILY[cls](in_transformable_family(f)), (cls, f)


def test_family_hierarchy_inclusions():
    rnd = random.Random(20240820)
    for _ in range(300):
        fam = in_transformable_family(gen_member("M1", rnd))
        assert fam.m1 and fam.a1 and fam.p1
        fam = in_transformable_family(gen_member("A1", rnd))
        assert fam.a1 and fam.p1
        f = gen_member("P2", rnd)
        assert in_P2(f)
        assert classify_signature(f)["M2"]


def test_family_hierarchy_strictness():
    # a P1 member outside A1: second weight not a power of alpha
    f = degenerate((1, 1), 4) + degenerate((1, -1), 4).scale(AN(3))
    fam = in_transformable_family(f)
    assert fam.p1 and not fam.a1
    # an A1 member outside M1: weight ratio i, not +-1 as M1 needs at arity 4
    g = degenerate((1, 1), 4) + degenerate((1, -1), 4).scale(I)
    fam = in_transformable_family(g)
    assert fam.a1 and not fam.m1
    # an M2 member outside P2: directions [1,2], [1,-2] are not [1,+-i]
    h = degenerate((1, 2), 4) + degenerate((1, -2), 4)
    fam = in_transformable_family(h)
    assert fam.m2 and not in_P2(h)


def test_verdict_fixture_mhat_separation():
    f = sig([1, 2, 1])
    assert in_Mhat(f)
    assert not in_P(f) and not in_A(f) and not in_Adagger(f)


def test_verdict_fixture_adagger_separation():
    f = sig([1, ZETA, -(ZETA ** 2)])
    assert in_Adagger(f) and not in_A(f)


def test_verdict_fixture_double_root_hard():
    for v in (AN(1), AN(-2), I):
        assert not dichotomy_single(sig([v, 1, 0, 0, 0])).tractable


def test_verdict_fixture_z_two_ends_hard():
    rnd = random.Random(20240821)
    for _ in range(10):
        n = rnd.randint(3, 6)
        a, b = rand_nonzero(rnd), rand_nonzero(rnd)
        f = transform(Z, sig([a, 1] + [0] * (n - 2) + [b]))
        assert not dichotomy_single(f).tractable


def test_verdict_fixture_gcd_split():
    F5 = [transform(Z, equality(5)), transform(Z, exact_one(3))]
    v = dichotomy_plholant_set(F5)
    assert v.tractable and "7" in str(v.case)
    F4 = [transform(Z, equality(4)), transform(Z, exact_one(3))]
    assert not dichotomy_plholant_set(F4).tractable


# -- 7. compressed signature matrix -----------------------------------------------------


def det3_cofactor(M):
    (a, b, c), (d, e, f), (g, h, i) = M
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_eulerian_signature_determinant_nonzero():
    M, red, Mt, d, _ = signature_matrix_ops(sig([0, 0, 1, 0, 0]))
    assert red
    assert not d.is_zero()
    assert d == det3_cofactor(Mt)


def test_compressed_determinant_matches_independent():
    rnd = random.Random(20240822)
    for _ in range(100):
        f = sig([AlgebraicNumber(rnd.randint(-3, 3), rnd.randint(-2, 2), 0, 0)
                 for _ in range(5)])
        M, red, Mt, d, _ = signature_matrix_ops(f)
        assert red
        assert d == det3_cofactor(Mt)
        ind = [[f[0], AN(2) * f[1], f[2]],
               [f[1], AN(2) * f[2], f[3]],
               [f[2], AN(2) * f[3], f[4]]]
        assert d == det3_cofactor(ind)


# -- 8. binary signatures with equalities -------------------------------------------------


def binary_eq_reference(f0, f1, f2, S):
    """Independent restatement of the five tractability conditions."""
    d = 0
    for k in S:
        d = gcd(d, k)
    if f0 * f2 == f1 * f1:
        return True
    if f0.is_zero() and f2.is_zero():
        return True
    if f1.is_zero():
        return True
    if (f0 * f2 == -(f1 * f1) and not (f0 ** d).is_zero()
            and f0 ** d == -(f2 ** d)):
        return True
    if not (f0 ** d).is_zero() and f0 ** d == f2 ** d:
        return True
    return False


def test_binary_eq_condition_fixtures():
    cases = [
        (sig([1, 2, 4]), [3], True),       # degenerate product type
        (sig([0, 1, 0]), [4], True),       # support only on the ends
        (sig([3, 0, 5]), [3], True),       # zero middle entry
        (sig([1, ZETA, -I]), [6], True),   # f0 f2 = -f1^2 with f0^d = -f2^d
        (sig([1, 2, I]), [4], True),       # f0^d = f2^d
        (sig([1, 1, 2]), [3], False),      # all five conditions fail
    ]
    for f, S, want in cases:
        got = dichotomy_binary_eq(f, S).tractable
        ref = binary_eq_reference(AN(f[0]), AN(f[1]), AN(f[2]), S)
        assert got == ref == want, (f, S, got, ref, want)


def test_binary_eq_all_conditions_reachable():
    hit = set()
    rnd = random.Random(20240823)
    for _ in range(4000):
        f = sig([rnd.choice([0, 1, -1, 2]) * ZETA ** rnd.randint(0, 7)
                 for _ in range(3)])
        S = sorted(rnd.sample(range(3, 9), rnd.randint(1, 3)))
        v = dichotomy_binary_eq(f, S)
        if v.tractable:
            hit.add(v.case)
    assert hit >= {"condition %d" % k for k in range(1, 6)}


def test_binary_eq_matches_reference_on_1000_pairs():
    rnd = random.Random(20240824)
    for _ in range(1000):
        f = sig([AlgebraicNumber(rnd.randint(-2, 2), rnd.randint(-1, 1),
                                 rnd.randint(-1, 1), rnd.randint(-1, 1))
                 for _ in range(3)])
        S = sorted(rnd.sample(range(1, 10), rnd.randint(1, 4)))
        if max(S) < 3:
            S.append(rnd.randint(3, 9))
        got = dichotomy_binary_eq(f, S).tractable
        ref = binary_eq_reference(AN(f[0]), AN(f[1]), AN(f[2]), S)
        assert got == ref, (f, S)
