import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import planar_holant.algebra as algebra
import planar_holant.solvers as solvers
from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, ZERO
from planar_holant.classify import in_A, in_P, in_vanishing_minus, in_vanishing_plus
from planar_holant.grid import (
    EmbeddingError, PlanarGrid, StructureError, TooLarge, Vertex,
    holographic_transform_bipartite, two_stretch)
from planar_holant.sigcalc import (
    SymmetricSignature,
    Transform2x2,
    Z,
    all_but_one,
    degenerate,
    diag,
    diseq2,
    equality,
    exact_one,
    gen_eq,
    sig,
    transform,
)
from planar_holant.solvers import (
    ClassError,
    EOInstance,
    GcdError,
    PinSearchError,
    PlanarHypergraph,
    WeightedPlanarGraph,
    affine_eval,
    eo_geneq_eval,
    evaluate,
    fkt_count_pm,
    hypergraph_from_json,
    hypergraph_pm,
    hypergraph_to_json,
    product_eval,
    vanishing_eval,
    weighted_graph_from_json,
    weighted_graph_to_json,
)

from test_grid import k4_grid, naive_holant, self_loop_grid


def rnd_w(rnd, r=3):
    while True:
        x = AlgebraicNumber(rnd.randint(-r, r), rnd.randint(-1, 1), 0, 0)
        if not x.is_zero():
            return x


def cycle_hub_topology(rnd, maxn=5, maxb=2, loops=False):
    """A random planar multigraph: a cycle with parallel bundles plus a hub.

    Returns (rotations, edges) with edges as half-id pairs.
    """
    n = rnd.randint(2, maxn)
    halves = itertools.count()
    rots = {v: [] for v in range(n)}
    edges = []
    bundles = []
    for v in range(n):
        a_side, b_side = [], []
        for _ in range(rnd.randint(1, maxb)):
            x, y = next(halves), next(halves)
            a_side.append(x)
            b_side.append(y)
            edges.append((x, y))
        bundles.append((v, (v + 1) % n, a_side, b_side))
    for v, w, a_side, b_side in bundles:
        rots[v].extend(a_side)
    for v, w, a_side, b_side in bundles:
        rots[w] = list(reversed(b_side)) + rots[w]
    hub = []
    for v in sorted(rnd.sample(range(n), rnd.randint(0, n))):
        x, y = next(halves), next(halves)
        rots[v].append(x)
        hub.append(y)
        edges.append((x, y))
    if hub:
        rots[n] = hub
    if loops and rnd.random() < 0.3:
        v = rnd.choice(sorted(rots))
        x, y = next(halves), next(halves)
        rots[v].extend([x, y])
        edges.append((x, y))
    return rots, edges


# ---------------------------------------------------------------------------
# perfect matchings of weighted planar graphs
# ---------------------------------------------------------------------------

def brute_pm(g):
    """Independent oracle: enumerate all edge subsets."""
    owner = g.half_owner
    real = [(a, b, w) for (a, b, w) in g.edges if owner[a] != owner[b]]
    total = ZERO
    for chosen in itertools.product((0, 1), repeat=len(real)):
        cover = set()
        ok = True
        w = ONE
        for pick, (a, b, wt) in zip(chosen, real):
            if not pick:
                continue
            u, v = owner[a], owner[b]
            if u in cover or v in cover:
                ok = False
                break
            cover.add(u)
            cover.add(v)
            w = w * wt
        if ok and len(cover) == len(g.vertex_ids):
            total = total + w
    return total


def random_weighted_graph(seed):
    rnd = random.Random(seed)
    rots, raw = cycle_hub_topology(rnd, loops=True)
    return WeightedPlanarGraph(
        sorted(rots), rots, [(a, b, rnd_w(rnd)) for (a, b) in raw])


def test_fkt_single_edge():
    w = AN(7) + I
    g = WeightedPlanarGraph([0, 1], {0: ["a"], 1: ["b"]}, [("a", "b", w)])
    assert fkt_count_pm(g) == w


def test_fkt_bigon():
    w1, w2 = AN(3), AN(5) * I
    g = WeightedPlanarGraph([0, 1], {0: ["a1", "a2"], 1: ["b2", "b1"]},
                            [("a1", "b1", w1), ("a2", "b2", w2)])
    assert fkt_count_pm(g) == w1 + w2


def test_fkt_self_loop_ignored():
    g = WeightedPlanarGraph(
        [0, 1], {0: ["a", "l1", "l2"], 1: ["b"]},
        [("a", "b", AN(4)), ("l1", "l2", AN(9))])
    assert fkt_count_pm(g) == AN(4)


def test_fkt_odd_component():
    rot = {0: ["0a", "0b"], 1: ["1a", "1b"], 2: ["2a", "2b"]}
    edges = [("0a", "1b", ONE), ("1a", "2b", ONE), ("2a", "0b", ONE)]
    g = WeightedPlanarGraph([0, 1, 2], rot, edges)
    assert fkt_count_pm(g) == ZERO


def test_fkt_two_components():
    g = WeightedPlanarGraph(
        [0, 1, 2, 3], {0: ["a"], 1: ["b"], 2: ["c"], 3: ["d"]},
        [("a", "b", AN(2)), ("c", "d", AN(3))])
    assert fkt_count_pm(g) == AN(6)


def test_fkt_k4():
    rot = {
        1: ["1_2", "1_4", "1_3"],
        2: ["2_3", "2_4", "2_1"],
        3: ["3_1", "3_4", "3_2"],
        4: ["4_3", "4_1", "4_2"],
    }
    edges = [("1_2", "2_1", ONE), ("1_3", "3_1", ONE), ("1_4", "4_1", ONE),
             ("2_3", "3_2", ONE), ("2_4", "4_2", ONE), ("3_4", "4_3", ONE)]
    g = WeightedPlanarGraph([1, 2, 3, 4], rot, edges)
    assert fkt_count_pm(g) == AN(3)


def grid_graph(n):
    """The n-by-n grid graph with rotations from the plane embedding."""
    def nbrs(r, c):
        out = []
        for (dr, dc) in ((0, 1), (-1, 0), (0, -1), (1, 0)):
            rr, cc = r + dr, c + dc
            if 0 <= rr < n and 0 <= cc < n:
                out.append((rr, cc))
        return sorted(out, key=lambda p: math.atan2(r - p[0], p[1] - c))
    rot = {}
    edges = []
    for r in range(n):
        for c in range(n):
            rot[(r, c)] = ["%r.%r" % ((r, c), w) for w in nbrs(r, c)]
    done = set()
    for v in rot:
        for w in nbrs(*v):
            key = tuple(sorted((v, w)))
            if key not in done:
                done.add(key)
                edges.append(("%r.%r" % (v, w), "%r.%r" % (w, v), ONE))
    return WeightedPlanarGraph(list(rot), rot, edges)


def test_fkt_grid_graph():
    assert fkt_count_pm(grid_graph(2)) == AN(2)
    assert fkt_count_pm(grid_graph(4)) == AN(36)


@pytest.mark.parametrize("seed", range(120))
def test_fkt_matches_brute(seed):
    g = random_weighted_graph(seed)
    assert fkt_count_pm(g) == brute_pm(g)


def test_weighted_graph_json_round_trip():
    g = random_weighted_graph(3)
    g2 = weighted_graph_from_json(weighted_graph_to_json(g))
    assert fkt_count_pm(g2) == fkt_count_pm(g)


def naive_pfaffian(a, zero):
    """Independent oracle: expansion along the first row."""
    n = len(a)
    if n % 2:
        return zero
    if n == 0:
        return zero + 1
    total = zero
    for j in range(1, n):
        if a[0][j]:
            rest = [k for k in range(1, n) if k != j]
            minor = [[a[p][q] for q in rest] for p in rest]
            sign = (-1) ** (j + 1)
            total = total + sign * a[0][j] * naive_pfaffian(minor, zero)
    return total


def skew(n, entry, density, rnd):
    """A random skew-symmetric n-by-n matrix as dense rows: each entry above
    the diagonal is ``entry(rnd)`` with probability ``density``, else 0."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rnd.random() < density:
                a[i][j] = entry(rnd)
                a[j][i] = -a[i][j]
    return a


def sparse_rows(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def an_entry(rnd):
    return AlgebraicNumber(*(rnd.randint(-2, 2) for _ in range(4)))


def int_entry(rnd):
    return rnd.choice([-3, -2, -1, 1, 2, 3])


def skew_cases():
    """(label, matrix over Q(zeta_8)) of orders 0-8: random ones of several
    densities, ones whose a_01 is zero (the first row needs a pivot
    search), and rank-2 ones, singular from order 4 on."""
    cases = []
    for n in range(9):
        for seed in range(6):
            rnd = random.Random("pf-%d-%d" % (n, seed))
            cases.append(("random-%d-%d" % (n, seed),
                          skew(n, an_entry, (0.3, 0.6, 1.0)[seed % 3], rnd)))
            if n >= 2:
                a = skew(n, an_entry, 0.7, rnd)
                a[0][1] = a[1][0] = ZERO
                cases.append(("a01-zero-%d-%d" % (n, seed), a))
                u = [an_entry(rnd) for _ in range(n)]
                v = [an_entry(rnd) for _ in range(n)]
                cases.append(("rank2-%d-%d" % (n, seed),
                              [[u[i] * v[j] - v[i] * u[j] for j in range(n)]
                               for i in range(n)]))
    return [(label, [[AN(x) for x in row] for row in a])
            for label, a in cases]


@pytest.mark.parametrize("label,a", [pytest.param(label, a, id=label)
                                     for label, a in skew_cases()])
def test_pfaffian_matches_expansion(label, a):
    assert solvers._pfaffian(sparse_rows(a)) == naive_pfaffian(a, ZERO)
    # the integer sign path on the same support
    rnd = random.Random(label)
    b = [[0] * len(a) for _ in a]
    for i, row in enumerate(a):
        for j in range(i + 1, len(a)):
            if row[j]:
                b[i][j] = int_entry(rnd)
                b[j][i] = -b[i][j]
    assert solvers._pfaffian(sparse_rows(b), Fraction(1)) == naive_pfaffian(b, 0)


def test_pfaffian_zero_and_singular_cases():
    assert solvers._pfaffian([]) == ONE
    assert solvers._pfaffian([{}, {}]) == ZERO
    # odd order; then a zero row with nonzero rows around it
    assert solvers._pfaffian([{1: ONE}, {0: -ONE}, {}]) == ZERO
    rows = [{1: ONE}, {0: -ONE}, {}, {4: I}, {3: -I}, {}]
    assert solvers._pfaffian(rows) == ZERO
    # an order-4 matrix with a_01 = 0: Pf = -a_02 a_13 + a_03 a_12
    a = [[0, 0, 2, 3], [0, 0, 5, 7], [-2, -5, 0, 0], [-3, -7, 0, 0]]
    assert solvers._pfaffian(sparse_rows(a), Fraction(1)) == -2 * 7 + 3 * 5
    # an entry that cancels: pivoting on a_01 turns a_23 into
    # 1 + (a_12 a_03 - a_02 a_13) / a_01 = 0, so Pf = 1 - 3 + 2 = 0
    a = [[0, 1, 1, 2], [-1, 0, 1, 3], [-1, -1, 0, 1], [-2, -3, -1, 0]]
    assert solvers._pfaffian(sparse_rows(a), Fraction(1)) == 0
    assert naive_pfaffian(a, 0) == 0


@pytest.mark.parametrize("n,count", [(6, 6728), (8, 12988816),
                                     (10, 258584046368)])
def test_fkt_larger_grid_graphs(n, count):
    assert fkt_count_pm(grid_graph(n)) == AN(count)


def test_fkt_cancelling_and_unmatchable():
    # a 4-cycle weighted 1, 1, 1, -1: matchings {01, 23} and {12, 30}
    # weigh 1 and -1
    rot = {0: ["0a", "0b"], 1: ["1a", "1b"], 2: ["2a", "2b"],
           3: ["3a", "3b"]}
    edges = [("0a", "1b", ONE), ("1a", "2b", ONE), ("2a", "3b", ONE),
             ("3a", "0b", -ONE)]
    g = WeightedPlanarGraph([0, 1, 2, 3], rot, edges)
    assert fkt_count_pm(g) == ZERO == brute_pm(g)
    # K_{1,3}: four vertices and no perfect matching
    rot = {"c": ["c1", "c2", "c3"], 1: ["l1"], 2: ["l2"], 3: ["l3"]}
    edges = [("c%d" % k, "l%d" % k, ONE) for k in (1, 2, 3)]
    g = WeightedPlanarGraph(["c", 1, 2, 3], rot, edges)
    assert fkt_count_pm(g) == ZERO == brute_pm(g)


def has_perfect_matching(m, pairs):
    """Independent oracle: exhaustive search, matching the lowest free
    vertex each way it can be."""
    adj = {frozenset(p) for p in pairs}

    def search(free):
        if not free:
            return True
        v = min(free)
        return any(frozenset((v, u)) in adj and search(free - {v, u})
                   for u in free if u != v)
    return search(frozenset(range(m)))


def odd_cycles_graph(rnd, m):
    """Odd cycles glued at shared vertices and joined by chords and
    pendants, under a random labelling: blossoms inside blossoms."""
    pairs, used = [], [0]
    while len(used) < m:
        start = rnd.choice(used)
        new = list(range(len(used), min(m, len(used) + rnd.choice((2, 4)))))
        cycle = [start] + new
        if len(cycle) % 2 == 0:  # too few vertices left: a pendant path
            pairs += list(zip(cycle, cycle[1:]))
        else:
            pairs += list(zip(cycle, cycle[1:] + cycle[:1]))
        used += new
    pairs += [tuple(rnd.sample(range(m), 2))
              for _ in range(rnd.randint(0, 2))]
    label = list(range(m))
    rnd.shuffle(label)
    return [(label[i], label[j]) for i, j in pairs]


def matching_graphs():
    """(m, pairs) of 330 seeded graphs of at most 12 vertices: random ones
    at several densities, with parallel edges, and glued odd cycles."""
    graphs = []
    for seed in range(330):
        rnd = random.Random("matching-%d" % seed)
        m = rnd.randint(0, 12)
        if seed % 3 == 2 and m >= 3:
            pairs = odd_cycles_graph(rnd, m)
        else:
            p = (0.15, 0.3, 0.6)[seed % 3]
            pairs = [(i, j) if rnd.random() < 0.5 else (j, i)
                     for i in range(m) for j in range(i + 1, m)
                     if rnd.random() < p]
        if pairs:
            pairs += rnd.sample(pairs, min(len(pairs), rnd.randint(0, 3)))
        rnd.shuffle(pairs)
        graphs.append((m, pairs))
    return graphs


def test_perfect_matching_matches_exhaustive_search():
    found = 0
    for m, pairs in matching_graphs():
        mate = solvers._perfect_matching(m, pairs)
        assert (mate is not None) == has_perfect_matching(m, pairs), (m, pairs)
        if mate is not None:
            found += 1
            edges = {frozenset(p) for p in pairs}
            assert all(mate[mate[i]] == i != mate[i]
                       and frozenset((i, mate[i])) in edges
                       for i in range(m))
    assert 50 < found < 280  # both answers are well represented


def test_perfect_matching_needs_blossoms():
    # the 5-cycle 4 0 1 2 3 with a pendant 5 at 0: the greedy pass takes
    # 0-1 and 2-3, and the only augmenting path, 4 3 2 1 0 5, leaves the
    # tree at 0, an inner vertex until the cycle is shrunk
    pairs = [(0, 1), (2, 3), (1, 2), (3, 4), (4, 0), (0, 5)]
    assert solvers._perfect_matching(6, pairs) == [5, 2, 1, 4, 3, 0]
    # three triangles hung from vertex 0: removing it leaves three odd
    # components, so there is no perfect matching
    star = [p for t in (1, 4, 7)
            for p in ((0, t), (t, t + 1), (t + 1, t + 2), (t + 2, t))]
    assert solvers._perfect_matching(10, star) is None
    assert solvers._perfect_matching(10, star + [(3, 4)]) is not None
    assert solvers._perfect_matching(3, []) is None
    assert solvers._perfect_matching(0, []) == []


def tri_lattice(k, m, rnd, keep=None):
    """The k-by-m grid graph with the diagonal (r, c)-(r+1, c+1) in every
    square, drawn with straight lines and random weights; with ``keep``, a
    random ``keep`` of its edges."""
    pairs = [((r, c), (r + dr, c + dc)) for r in range(k) for c in range(m)
             for dr, dc in ((0, 1), (1, 0), (1, 1))
             if r + dr < k and c + dc < m]
    if keep is not None:
        pairs = rnd.sample(pairs, min(keep, len(pairs)))
    around = {(r, c): [] for r in range(k) for c in range(m)}
    for v, w in pairs:
        around[v].append(w)
        around[w].append(v)
    rot = {v: ["%r.%r" % (v, w) for w in sorted(
               ws, key=lambda p, v=v: math.atan2(v[0] - p[0], p[1] - v[1]))]
           for v, ws in around.items()}
    return WeightedPlanarGraph(
        list(rot), rot,
        [("%r.%r" % (v, w), "%r.%r" % (w, v), rnd_w(rnd)) for v, w in pairs])


def sign_graphs():
    """220 seeded planar graphs small enough for ``brute_pm``: cycle-hub
    multigraphs with parallel edges and self-loops, whole triangulated
    2x2 and 2x3 lattices, and 12 edges of larger ones."""
    graphs = []
    for seed in range(220):
        rnd = random.Random("sign-%d" % seed)
        if seed % 2:
            rots, raw = cycle_hub_topology(rnd, loops=True)
            graphs.append(WeightedPlanarGraph(
                sorted(rots), rots, [(a, b, rnd_w(rnd)) for (a, b) in raw]))
        else:
            k, m = rnd.choice([(2, 2), (2, 3), (2, 4), (3, 4), (4, 4)])
            graphs.append(tri_lattice(k, m, rnd, keep=12))
    return graphs


def test_matching_sign_matches_the_all_ones_pfaffian(monkeypatch):
    # the sign of one matching term against the sign of the Pfaffian of
    # the all-ones Kasteleyn matrix over Q, the sign FKT used to compute
    kasteleyn, seen = solvers._kasteleyn, []

    def recording(m, arcs):
        seen.append((m, arcs))
        return kasteleyn(m, arcs)

    monkeypatch.setattr(solvers, "_kasteleyn", recording)
    signed = unmatchable = 0
    for g in sign_graphs():
        seen.clear()
        assert fkt_count_pm(g) == brute_pm(g)
        for m, arcs in seen:
            pf = solvers._pfaffian(kasteleyn(m, [(t, h, 1) for t, h, _ in arcs]),
                                   Fraction(1))
            if pf:
                signed += 1
                assert solvers._matching_sign(m, arcs) == (1 if pf > 0 else -1)
            else:
                unmatchable += 1
                with pytest.raises(RuntimeError):
                    solvers._matching_sign(m, arcs)
    assert signed > 100 and unmatchable > 0


def test_fkt_runs_one_pfaffian_per_component(monkeypatch):
    pfaffian, calls = solvers._pfaffian, []

    def counting(rows, *one):
        calls.append(one)
        return pfaffian(rows, *one)

    monkeypatch.setattr(solvers, "_pfaffian", counting)
    assert fkt_count_pm(grid_graph(6)) == AN(6728)
    g = tri_lattice(3, 4, random.Random("two"))
    two = WeightedPlanarGraph(g.vertex_ids + ["u", "v"],
                              dict(g.rotation, u=["x"], v=["y"]),
                              g.edges + [("x", "y", AN(5))])
    assert fkt_count_pm(two) == AN(5) * enumerate_pm(g)
    assert calls == [()] * 3  # the weighted one, over Q(zeta_8)


def enumerate_pm(g):
    """Independent oracle: the weighted sum over perfect matchings, matching
    the first unmatched vertex along each of its edges in turn."""
    owner = g.half_owner
    edges = {v: [] for v in g.vertex_ids}
    for a, b, w in g.edges:
        if owner[a] != owner[b]:
            edges[owner[a]].append((owner[b], w))
            edges[owner[b]].append((owner[a], w))

    def total(free):
        if not free:
            return ONE
        v = next(u for u in g.vertex_ids if u in free)
        out = ZERO
        for u, w in edges[v]:
            if u in free:
                out = out + w * total(free - {v, u})
        return out
    return total(frozenset(g.vertex_ids))


@pytest.mark.parametrize("k,m", [(2, 2), (2, 3), (3, 4), (4, 4), (2, 7),
                                 (4, 6), (5, 6)])
def test_fkt_triangulated_lattices(k, m):
    g = tri_lattice(k, m, random.Random("tri-%d-%d" % (k, m)))
    value = fkt_count_pm(g)
    assert value == enumerate_pm(g)
    assert not value.is_zero()


# ---------------------------------------------------------------------------
# product-type grids
# ---------------------------------------------------------------------------

def random_product_grid(seed):
    rnd = random.Random(seed)
    rots, raw = cycle_hub_topology(rnd)
    verts = []
    for v in sorted(rots):
        rot = rots[v]
        deg = len(rot)
        kind = rnd.randint(0, 2)
        if kind == 0 and deg >= 2:
            f = gen_eq(rnd_w(rnd), rnd_w(rnd), deg)
        elif kind == 1 and deg == 2:
            f = SymmetricSignature([ZERO, rnd_w(rnd), ZERO])
        else:
            u = (AN(rnd.randint(-2, 2)), AN(rnd.randint(-2, 2)))
            if u[0].is_zero() and u[1].is_zero():
                u = (ONE, ONE)
            f = degenerate(u, deg).scale(rnd_w(rnd))
        assert in_P(f)
        verts.append(Vertex(v, f, rot))
    return PlanarGrid(verts, [(a, b) for (a, b) in raw])


@pytest.mark.parametrize("seed", range(120))
def test_product_matches_naive(seed):
    g = random_product_grid(seed)
    assert product_eval(g) == naive_holant(g)


def test_product_fixtures():
    assert product_eval(self_loop_grid()) == AN(2)
    # a generalized equality with two self-loops sums its support weights
    g = PlanarGrid([Vertex(0, gen_eq(ONE, AN(3), 4), [0, 1, 2, 3])],
                   [(0, 1), (2, 3)])
    assert product_eval(g) == AN(4)
    assert naive_holant(g) == AN(4)
    # an odd cycle of disequalities has no consistent assignment
    rot = {0: ["0a", "0b"], 1: ["1a", "1b"], 2: ["2a", "2b"]}
    edges = [("0a", "1b"), ("1a", "2b"), ("2a", "0b")]
    g = PlanarGrid([Vertex(v, diseq2(), rot[v]) for v in rot], edges)
    assert product_eval(g) == ZERO
    assert naive_holant(g) == ZERO


def test_product_rejects_non_product():
    with pytest.raises(ClassError):
        product_eval(k4_grid())


# ---------------------------------------------------------------------------
# affine grids
# ---------------------------------------------------------------------------

def random_affine_sig(rnd, deg):
    kind = rnd.randint(0, 3)
    if kind < 3:
        dirs = [((1, 0), (0, 1)), ((1, 1), (1, -1)), ((1, I), (1, -I))][kind]
        f = degenerate(dirs[0], deg) + \
            degenerate(dirs[1], deg).scale(I ** rnd.randint(0, 3))
    else:
        u = rnd.choice([(1, 1), (1, -1), (1, I), (1, -I), (1, 0), (0, 1)])
        f = degenerate(u, deg)
    f = f.scale(AN(rnd.choice([1, 2, 3])) * I ** rnd.randint(0, 3))
    assert in_A(f)
    return f


def random_affine_grid(seed):
    rnd = random.Random(seed)
    rots, raw = cycle_hub_topology(rnd)
    verts = [Vertex(v, random_affine_sig(rnd, len(rots[v])), rots[v])
             for v in sorted(rots)]
    return PlanarGrid(verts, [(a, b) for (a, b) in raw])


@pytest.mark.parametrize("seed", range(120))
def test_affine_matches_naive(seed):
    g = random_affine_grid(seed)
    assert affine_eval(g) == naive_holant(g)


def test_affine_fixtures():
    g = PlanarGrid([Vertex(0, sig([1, 0, 1]), [0, 1])], [(0, 1)])
    assert affine_eval(g) == AN(2)
    g = PlanarGrid([Vertex(0, sig([1, I]), ["a"]),
                    Vertex(1, sig([1, 1]), ["b"])], [("a", "b")])
    assert affine_eval(g) == ONE + I


def test_affine_rejects_non_affine():
    g = PlanarGrid([Vertex(0, sig([1, 2, 1]), [0, 1])], [(0, 1)])
    with pytest.raises(ClassError):
        affine_eval(g)


# ---------------------------------------------------------------------------
# vanishing grids
# ---------------------------------------------------------------------------

def random_vanishing_grid(seed, side="+"):
    rnd = random.Random(seed)
    d = rnd.randint(3, 6)

    def van_sig():
        hat = [ZERO] * (d + 1)
        for k in range(d + 1):
            keep = k <= (d - 1) // 2 if side == "+" else k >= (d + 2) // 2
            if keep:
                hat[k] = rnd_w(rnd)
        f = transform(Z, SymmetricSignature(hat))
        assert in_vanishing_plus(f) if side == "+" else in_vanishing_minus(f)
        return f

    # a bundle of d parallel edges between two vertices
    rot0 = ["a%d" % k for k in range(d)]
    rot1 = ["b%d" % k for k in reversed(range(d))]
    verts = [Vertex(0, van_sig(), rot0), Vertex(1, van_sig(), rot1)]
    return PlanarGrid(verts, [("a%d" % k, "b%d" % k) for k in range(d)])


@pytest.mark.parametrize("seed", range(50))
def test_vanishing_plus_is_zero(seed):
    g = random_vanishing_grid(seed, "+")
    assert vanishing_eval(g) == ZERO
    assert naive_holant(g) == ZERO


@pytest.mark.parametrize("seed", range(50))
def test_vanishing_minus_is_zero(seed):
    g = random_vanishing_grid(seed, "-")
    assert vanishing_eval(g) == ZERO
    assert naive_holant(g) == ZERO


def test_vanishing_rejects_mixed():
    gp = random_vanishing_grid(0, "+")
    gm = random_vanishing_grid(0, "-")
    fp = gp.vertices[0].sig
    fm = gm.vertices[0].sig
    d = fp.arity
    rot0 = ["a%d" % k for k in range(d)]
    rot1 = ["b%d" % k for k in reversed(range(d))]
    g = PlanarGrid([Vertex(0, fp, rot0), Vertex(1, fm, rot1)],
                   [("a%d" % k, "b%d" % k) for k in range(d)])
    with pytest.raises(ClassError):
        vanishing_eval(g)
    with pytest.raises(ClassError):
        vanishing_eval(PlanarGrid([], [], scalar=AN(3)))


# ---------------------------------------------------------------------------
# the pinning solver for weighted equalities with exact-one signatures
# ---------------------------------------------------------------------------

def build_instance(seed, k=5):
    """Random closed bipartite instance: weighted equalities, exact-one
    signatures and pins on the right, one disequality per edge on the left."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 4)
    halves = itertools.count()
    rots = {v: [] for v in range(n)}
    raw_edges = []
    bundles = []
    for v in range(n):
        a_side, b_side = [], []
        for _ in range(rnd.randint(1, 3)):
            x, y = next(halves), next(halves)
            a_side.append(x)
            b_side.append(y)
            raw_edges.append((x, y))
        bundles.append((v, (v + 1) % n, a_side, b_side))
    for v, w, a_side, b_side in bundles:
        rots[v].extend(a_side)
    for v, w, a_side, b_side in bundles:
        rots[w] = list(reversed(b_side)) + rots[w]
    hub = []
    for v in sorted(rnd.sample(range(n), rnd.randint(0, n))):
        x, y = next(halves), next(halves)
        rots[v].append(x)
        hub.append(y)
        raw_edges.append((x, y))
    if hub:
        rots[n] = hub
    vids = list(rots)
    flip = rnd.random() < 0.3
    roles = {v: rnd.choice(["eq", "eo"]) for v in vids}
    verts = []
    side = {}
    pin_id = itertools.count()

    def add_pin(v):
        x, y = next(halves), next(halves)
        rots[v].append(x)
        pv = ("pin", next(pin_id))
        pin = [rnd_w(rnd), ZERO] if rnd.random() < 0.5 else [ZERO, rnd_w(rnd)]
        verts.append(Vertex(pv, SymmetricSignature(pin), [y]))
        side[pv] = "R"
        raw_edges.append((x, y))

    for v in vids:
        if roles[v] == "eq":
            deg = len(rots[v])
            pad = (-deg) % k
            if deg + pad < k:
                pad += k
            for _ in range(pad):
                add_pin(v)
            sigv = gen_eq(rnd_w(rnd), rnd_w(rnd), len(rots[v]))
        else:
            if rnd.random() < 0.3:
                add_pin(v)
            deg = len(rots[v])
            base = all_but_one(deg) if (flip and deg >= 3) else exact_one(deg)
            sigv = base.scale(rnd_w(rnd))
        verts.append(Vertex(v, sigv, rots[v]))
        side[v] = "R"
    edges = []
    for mi, (x, y) in enumerate(raw_edges):
        la, lb = ("ne", mi, "a"), ("ne", mi, "b")
        c = rnd_w(rnd)
        verts.append(Vertex(("ne", mi), SymmetricSignature([ZERO, c, ZERO]),
                            [la, lb]))
        side[("ne", mi)] = "L"
        edges.append((x, la))
        edges.append((y, lb))
    return PlanarGrid(verts, edges, side=side)


def build_instance_biased(seed, k=5):
    """Like build_instance but biased toward satisfiable instances: more
    equality roles and a consistent pin side per equality vertex."""
    rnd = random.Random(seed ^ 0x5A5A5A)
    n = rnd.randint(2, 4)
    halves = itertools.count()
    rots = {v: [] for v in range(n)}
    raw_edges = []
    bundles = []
    for v in range(n):
        a_side, b_side = [], []
        for _ in range(rnd.randint(1, 3)):
            x, y = next(halves), next(halves)
            a_side.append(x)
            b_side.append(y)
            raw_edges.append((x, y))
        bundles.append((v, (v + 1) % n, a_side, b_side))
    for v, w, a_side, b_side in bundles:
        rots[v].extend(a_side)
    for v, w, a_side, b_side in bundles:
        rots[w] = list(reversed(b_side)) + rots[w]
    hub = []
    for v in sorted(rnd.sample(range(n), rnd.randint(0, n))):
        x, y = next(halves), next(halves)
        rots[v].append(x)
        hub.append(y)
        raw_edges.append((x, y))
    if hub:
        rots[n] = hub
    vids = list(rots)
    roles = {v: ("eq" if rnd.random() < 0.7 else "eo") for v in vids}
    verts = []
    side = {}
    pin_id = itertools.count()

    def add_pin(v, pin_side):
        x, y = next(halves), next(halves)
        rots[v].append(x)
        pv = ("pin", next(pin_id))
        pin = [rnd_w(rnd), ZERO] if pin_side == 0 else [ZERO, rnd_w(rnd)]
        verts.append(Vertex(pv, SymmetricSignature(pin), [y]))
        side[pv] = "R"
        raw_edges.append((x, y))

    for v in vids:
        if roles[v] == "eq":
            ps = rnd.randint(0, 1)
            deg = len(rots[v])
            pad = (-deg) % k
            if deg + pad < k:
                pad += k
            for _ in range(pad):
                add_pin(v, ps)
            sigv = gen_eq(rnd_w(rnd), rnd_w(rnd), len(rots[v]))
        else:
            sigv = exact_one(len(rots[v])).scale(rnd_w(rnd))
        verts.append(Vertex(v, sigv, rots[v]))
        side[v] = "R"
    edges = []
    for mi, (x, y) in enumerate(raw_edges):
        la, lb = ("ne", mi, "a"), ("ne", mi, "b")
        verts.append(Vertex(("ne", mi), SymmetricSignature([ZERO, rnd_w(rnd),
                                                            ZERO]),
                            [la, lb]))
        side[("ne", mi)] = "L"
        edges.append((x, la))
        edges.append((y, lb))
    return PlanarGrid(verts, edges, side=side)


@pytest.mark.parametrize("seed", range(150))
def test_eo_matches_brute(seed):
    g = build_instance(seed)
    _, ok = g.validate()
    assert ok
    assert eo_geneq_eval(EOInstance(g)) == g.holant(cap=80)


@pytest.mark.parametrize("seed", range(150))
def test_eo_matches_brute_biased(seed):
    g = build_instance_biased(seed)
    _, ok = g.validate()
    assert ok
    assert eo_geneq_eval(EOInstance(g)) == g.holant(cap=80)


def z_side_grid(g):
    """The closed grid whose Z-basis reading is the EO-side grid g: each
    right signature f becomes Z f and each left disequality [0, c, 0] a
    plain edge, with c / 2 folded into the scalar."""
    verts, edges, scalar = [], [], g.scalar
    for v in g.vertices.values():
        if g.side[v.id] == "R":
            verts.append(Vertex(v.id, transform(Z, v.sig), v.rotation))
        else:
            scalar = scalar * v.sig[1] / AN(2)
            edges.append(tuple(g.partner[h] for h in v.rotation))
    return PlanarGrid(verts, edges, scalar=scalar)


@pytest.mark.parametrize("seed", range(150))
def test_eo_z_side_reader(seed):
    g = build_instance_biased(seed)
    z = z_side_grid(g)
    assert evaluate(z, method="eo") == g.holant(cap=80)
    # the former route: stretch, transform by Z, fold the stretch back
    old = EOInstance(holographic_transform_bipartite(two_stretch(z), Z))
    assert eo_geneq_eval(EOInstance.z_side(z)) == eo_geneq_eval(old)


def with_self_loop(g, seed):
    """The EO-side grid g with one self-loop added through a disequality
    between two new consecutive halves, so the grid stays genus 0.  By seed:
    at an exact-one; at an exact-one of arity 3 that takes the place of a
    pin [w, 0], which scales the value by 2c for the loop's [0, c, 0]; or
    at an equality, which also takes three pins so that its arity stays a
    multiple of 5.  A kind g has no room for gives way to the next one.
    Returns the grid and the kind looped."""
    rnd = random.Random("loop-%d" % seed)
    verts = {v.id: v for v in g.vertices.values()}
    side, edges = dict(g.side), list(g.edges)
    right = [v for v in verts.values() if side[v.id] == "R"]
    room = {"eo": [v for v in right if v.sig.support() == (1,)],
            "pin": [v for v in right if v.sig.support() == (0,)],
            "eq": [v for v in right
                   if v.sig.arity >= 2 and v.sig.support() != (1,)]}
    kinds = ["eo", "pin", "eq"] * 2
    kind = next(k for k in kinds[seed % 3:] if room[k])
    v = rnd.choice(sorted(room[kind], key=lambda u: repr(u.id)))
    rot = list(v.rotation)
    p = rnd.randint(0, len(rot))
    rot[p:p] = [("loop", 0), ("loop", 1)]
    links = [(("loop", 0), ("loop", 1))]
    if kind == "eq":
        for j in range(3):
            pin = ("loop-pin", j)
            rot.append(pin)
            verts[pin] = Vertex(pin, SymmetricSignature(
                [rnd_w(rnd), ZERO] if rnd.random() < 0.5
                else [ZERO, rnd_w(rnd)]), [pin + ("end",)])
            side[pin] = "R"
            links.append((pin, pin + ("end",)))
        f = gen_eq(v.sig[0], v.sig[v.sig.arity], len(rot))
    else:
        f = exact_one(len(rot)).scale(v.sig[kind == "eo"])
    verts[v.id] = Vertex(v.id, f, rot)
    for m, (x, y) in enumerate(links):
        ne = ("loop-ne", m)
        verts[ne] = Vertex(ne, SymmetricSignature([ZERO, rnd_w(rnd), ZERO]),
                           [ne + ("a",), ne + ("b",)])
        side[ne] = "L"
        edges += [(x, ne + ("a",)), (y, ne + ("b",))]
    return PlanarGrid(list(verts.values()), edges, side=side), kind


def test_eo_route_with_self_loops_matches_brute():
    kinds = {"eo": 0, "pin": 0, "eq": 0}
    nonzero = 0
    for seed in range(90):
        g, kind = with_self_loop(build_instance_biased(seed), seed)
        assert g.validate()[1]
        z = z_side_grid(g)
        value = evaluate(z, method="eo")
        assert value == z.holant(cap=80) == g.holant(cap=80), seed
        assert eo_geneq_eval(EOInstance(g)) == value, seed
        kinds[kind] += 1
        nonzero += not value.is_zero()
    assert min(kinds.values()) >= 15 and nonzero >= 3, (kinds, nonzero)


def nonplanar_case7_grid():
    """6 copies of Z gen_eq(1, 2, 5) and 10 of Z EO_3 joined by a random
    simple bipartite graph of 30 edges, which is not genus 0."""
    f, g = transform(Z, gen_eq(1, 2, 5)), transform(Z, exact_one(3))
    verts = [Vertex("q%d" % i, f, ["q%d_%d" % (i, j) for j in range(5)])
             for i in range(6)]
    verts += [Vertex("e%d" % i, g, ["e%d_%d" % (i, j) for j in range(3)])
              for i in range(10)]
    rnd = random.Random(0)
    eo_halves = [v.rotation[j] for v in verts[6:] for j in range(3)]
    while True:
        rnd.shuffle(eo_halves)
        edges = list(zip((h for v in verts[:6] for h in v.rotation),
                         eo_halves))
        owners = {(a.split("_")[0], b.split("_")[0]) for a, b in edges}
        if len(owners) == len(edges):
            return PlanarGrid(verts, edges)


def test_eo_route_refuses_nonplanar_grid():
    g = nonplanar_case7_grid()
    assert not g.validate()[1]
    for kw in ({}, {"cap": 40}, {"method": "eo"}):
        with pytest.raises(EmbeddingError):
            evaluate(g, **kw)


def test_eo_sees_nonzero_values():
    hits = 0
    for seed in range(150):
        if not build_instance_biased(seed).holant(cap=80).is_zero():
            hits += 1
    assert hits >= 15


def test_eo_gcd_too_small():
    for seed in range(20):
        g = build_instance(seed, k=4)
        inst = EOInstance(g)
        if inst.k:
            with pytest.raises(GcdError):
                eo_geneq_eval(inst)
            return
    raise AssertionError("no instance with an equality was generated")


def _bundle_instance(sig0, sig1):
    d = sig0.arity
    rot0 = ["a%d" % k for k in range(d)]
    rot1 = ["b%d" % k for k in reversed(range(d))]
    verts = [Vertex(0, sig0, rot0), Vertex(1, sig1, rot1)]
    side = {0: "R", 1: "R"}
    edges = []
    for mi in range(d):
        la, lb = ("ne", mi, "a"), ("ne", mi, "b")
        verts.append(Vertex(("ne", mi), diseq2(), [la, lb]))
        side[("ne", mi)] = "L"
        edges.append(("a%d" % mi, la))
        edges.append(("b%d" % mi, lb))
    return PlanarGrid(verts, edges, side=side)


def test_eo_rejects_mixed_matching_sides():
    g = _bundle_instance(exact_one(3), all_but_one(3))
    with pytest.raises(ClassError):
        EOInstance(g)


def test_eo_rejects_bad_left_side():
    g = _bundle_instance(exact_one(3), exact_one(3))
    bad = [Vertex(v.id, equality(2) if g.side[v.id] == "L" else v.sig,
                  v.rotation) for v in g.vertices.values()]
    g2 = PlanarGrid(bad, g.edges, side=g.side)
    with pytest.raises(ClassError):
        EOInstance(g2)


def test_eo_flipped_instance():
    g = _bundle_instance(all_but_one(3).scale(AN(2)), all_but_one(3))
    assert eo_geneq_eval(EOInstance(g)) == g.holant()


# -- polyhedral fixtures exercising the structural pin search ----------------

def polyhedron(name):
    if name == "octa":
        pos = {"A": (0, 10), "B": (-8.66, -5), "C": (8.66, -5),
               "a": (2.6, 1.5), "b": (-2.6, 1.5), "c": (0, -3)}
        adj = {"A": ["B", "C", "a", "b"], "B": ["A", "C", "b", "c"],
               "C": ["A", "B", "c", "a"], "a": ["A", "C", "b", "c"],
               "b": ["A", "B", "a", "c"], "c": ["B", "C", "a", "b"]}
        rot = {v: sorted(adj[v], key=lambda w: math.atan2(
            pos[w][1] - pos[v][1], pos[w][0] - pos[v][0])) for v in pos}
    else:
        rot = {"T": ["u%d" % i for i in range(4, -1, -1)],
               "B": ["l%d" % i for i in range(5)]}
        for i in range(5):
            rot["u%d" % i] = ["T", "u%d" % ((i + 1) % 5), "l%d" % i,
                              "l%d" % ((i - 1) % 5), "u%d" % ((i - 1) % 5)]
            rot["l%d" % i] = ["B", "l%d" % ((i - 1) % 5), "u%d" % i,
                              "u%d" % ((i + 1) % 5), "l%d" % ((i + 1) % 5)]
    verts, edges, done = [], [], set()
    for v in rot:
        verts.append(Vertex(v, SymmetricSignature([1] * (len(rot[v]) + 1)),
                            ["%s.%s" % (v, w) for w in rot[v]]))
    for v in rot:
        for w in rot[v]:
            key = tuple(sorted((v, w)))
            if key not in done:
                done.add(key)
                edges.append(("%s.%s" % (v, w), "%s.%s" % (w, v)))
    g = PlanarGrid(verts, edges)
    faces, ok = g.validate()
    assert ok
    return g, faces


def incidence_instance(name, seed, split4=False):
    """Equality blocks at polyhedron vertices, exact-ones at faces, every
    incidence subdivided by a disequality.  With split4 each degree-4 vertex
    becomes two 5-ary equalities joined by three internal disequalities."""
    g, faces = polyhedron(name)
    rnd = random.Random(seed)
    face_of_dart = {}
    for fi, face in enumerate(faces):
        for h in face:
            face_of_dart[h] = fi
    verts, side, edges = [], {}, []
    nid = itertools.count()

    def neq(x, y):
        m = next(nid)
        la, lb = ("ne", m, 0), ("ne", m, 1)
        verts.append(Vertex(("ne", m),
                            SymmetricSignature([ZERO, rnd_w(rnd, 2), ZERO]),
                            [la, lb]))
        side[("ne", m)] = "L"
        edges.append((x, la))
        edges.append((y, lb))

    for fi, face in enumerate(faces):
        rotf = [("f", fi, h) for h in reversed(face)]
        verts.append(Vertex(("f", fi),
                            exact_one(len(face)).scale(rnd_w(rnd, 2)), rotf))
        side[("f", fi)] = "R"
    for vid, v in g.vertices.items():
        darts = list(v.rotation)
        if not split4:
            verts.append(Vertex(("b", vid),
                                gen_eq(rnd_w(rnd, 2), rnd_w(rnd, 2),
                                       len(darts)),
                                [("b", vid, h) for h in darts]))
            side[("b", vid)] = "R"
        else:
            assert len(darts) == 4
            a_sl = [("b", vid, "A", k) for k in range(5)]
            b_sl = [("b", vid, "B", k) for k in range(5)]
            verts.append(Vertex(("b", vid, "A"),
                                gen_eq(rnd_w(rnd, 2), rnd_w(rnd, 2), 5),
                                [("b", vid, darts[0]),
                                 ("b", vid, darts[1])] + a_sl[2:]))
            verts.append(Vertex(("b", vid, "B"),
                                gen_eq(rnd_w(rnd, 2), rnd_w(rnd, 2), 5),
                                [b_sl[4], b_sl[3], b_sl[2],
                                 ("b", vid, darts[2]), ("b", vid, darts[3])]))
            side[("b", vid, "A")] = side[("b", vid, "B")] = "R"
            for k in (2, 3, 4):
                neq(a_sl[k], b_sl[k])
        for h in darts:
            neq(("b", vid, h), ("f", face_of_dart[h], h))
    return PlanarGrid(verts, edges, side=side)


def eq_oracle(grid):
    """Independent oracle for disequality-subdivided instances: enumerate the
    values of the generalized-equality vertices and propagate."""
    eqs, eos, neqs = [], [], []
    for vid, v in grid.vertices.items():
        if grid.side[vid] == "L":
            neqs.append(v)
            continue
        f = v.sig
        if all(e.is_zero() for e in f.entries[1:-1]) and f.arity >= 3:
            eqs.append(v)
        else:
            eos.append(v)
    total = ZERO
    for bits in itertools.product((0, 1), repeat=len(eqs)):
        val = {}
        w = ONE
        for v, x in zip(eqs, bits):
            w = w * v.sig[x * v.sig.arity]
            for h in v.rotation:
                val[h] = x
        ok = True
        for nv in neqs:
            w = w * nv.sig[1]
            a, b = (grid.partner[h] for h in nv.rotation)
            if a in val and b in val:
                if val[a] == val[b]:
                    ok = False
                    break
            elif a in val:
                val[b] = 1 - val[a]
            elif b in val:
                val[a] = 1 - val[b]
            else:
                raise AssertionError("oracle needs equality-adjacent edges")
        if not ok:
            continue
        for v in eos:
            w = w * v.sig[sum(val[h] for h in v.rotation)]
            if w.is_zero():
                break
        if not w.is_zero():
            total = total + w
    return total * grid.scalar


def _count_pins(monkeypatch):
    calls = {"pin": 0, "cycle": 0, "wheel": 0}
    op, oc, ow = solvers._pin_step, solvers._find_cycle, solvers._wheel_step

    def pin(st):
        calls["pin"] += 1
        return op(st)

    def fc(pairs):
        r = oc(pairs)
        if r is not None:
            calls["cycle"] += 1
        return r

    def ws(*a):
        calls["wheel"] += 1
        return ow(*a)

    monkeypatch.setattr(solvers, "_pin_step", pin)
    monkeypatch.setattr(solvers, "_find_cycle", fc)
    monkeypatch.setattr(solvers, "_wheel_step", ws)
    return calls


@pytest.mark.parametrize("seed", range(3))
def test_eo_octahedron_cycle_pins(seed, monkeypatch):
    calls = _count_pins(monkeypatch)
    g = incidence_instance("octa", seed, split4=True)
    _, ok = g.validate()
    assert ok
    assert eo_geneq_eval(EOInstance(g)) == eq_oracle(g)
    assert calls["pin"] >= 1 and calls["cycle"] >= 1


@pytest.mark.parametrize("seed", range(3))
def test_eo_icosahedron_wheel_pins(seed, monkeypatch):
    calls = _count_pins(monkeypatch)
    g = incidence_instance("icosa", seed)
    _, ok = g.validate()
    assert ok
    assert eo_geneq_eval(EOInstance(g)) == eq_oracle(g)
    assert calls["pin"] >= 1 and calls["wheel"] >= 1


# -- direct working-state fixtures with nonzero values -----------------------

def eo_state_value(state):
    """Independent oracle on the working state: enumerate block values.

    Every edge must touch a block, which holds for all fixtures here.
    """
    eqs = sorted(v for v in state.kind if state.kind[v] == "eq")
    eos = sorted(v for v in state.kind if state.kind[v] == "eo")
    total = ZERO
    for bits in itertools.product((0, 1), repeat=len(eqs)):
        val = dict(zip(eqs, bits))
        w = ONE
        for v in eqs:
            w = w * state.eqw[v][val[v]]
        ok = True
        ends_at = {v: [] for v in eos}
        for eid, ((va, da), (vb, db)) in state.ends.items():
            if va in val and vb in val:
                if (val[va] ^ da) != 1 - (val[vb] ^ db):
                    ok = False
                    break
            elif va in val:
                ends_at[vb].append((1 - (val[va] ^ da), db))
            else:
                ends_at[va].append((1 - (val[vb] ^ db), da))
        if not ok:
            continue
        for v in eos:
            ones = [lam for (x, lam) in ends_at[v] if x == 1]
            if len(ones) != 1:
                ok = False
                break
            w = w * ones[0]
        if ok:
            total = total + w
    return total * state.scalar


def run_state(state):
    while not state.zero and (state.ends or state.kind):
        before = state.measure()
        if not solvers._simplify_step(state):
            if state.zero:
                break
            solvers._pin_step(state)
        assert state.zero or state.measure() < before
    return ZERO if state.zero else state.scalar


def build_wheel_state(seed, heavy=False, mixed=False):
    """A stuck wheel: center block C (degree 5, all signs equal), spokes
    T1..T5, rim blocks R1..R5 (degree 5), and exact-ones e1..e5 whose third
    end carries the opposite sign, which makes the value nonzero."""
    rnd = random.Random(seed)
    st = solvers._EOState()
    C = st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
    R = [st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
         for _ in range(5)]
    T = [st.add_vertex("eo") for _ in range(5)]
    E = [st.add_vertex("eo") for _ in range(5)]
    for i in range(5):
        st.add_edge(C, 0, T[i], rnd_w(rnd, 2))
    for i in range(5):
        st.add_edge(R[i], 0, T[i], rnd_w(rnd, 2))
        s = 1 if (mixed and i == 0) else 0
        st.add_edge(R[i], s, T[(i + 1) % 5], rnd_w(rnd, 2))
    for i in range(5):
        st.add_edge(R[i], 0, E[i], rnd_w(rnd, 2))
        st.add_edge(R[(i + 1) % 5], 0, E[i], rnd_w(rnd, 2))
        st.add_edge(R[(i + 2) % 5], 1, E[i], rnd_w(rnd, 2))
    if heavy:
        st.add_edge(R[2], 0, T[0], rnd_w(rnd, 2))
    return st


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["type1", "type2", "mixed"])
def test_wheel_pin_preserves_value(kind, seed, monkeypatch):
    kw = {"heavy": kind == "type2", "mixed": kind == "mixed"}
    st = build_wheel_state(seed, **kw)
    expected = eo_state_value(st)
    if kind == "mixed":
        assert expected.is_zero()
    else:
        assert not expected.is_zero()
    assert not solvers._simplify_step(st)
    calls = _count_pins(monkeypatch)
    solvers._pin_step(st)
    assert calls["wheel"] == 1
    assert (ZERO if st.zero else eo_state_value(st)) == expected
    assert run_state(build_wheel_state(seed, **kw)) == expected


def random_pin_state(seed):
    """A random stuck state: two degree-4 blocks, two degree-5 blocks and six
    exact-ones of arity 3, or None when the wiring comes out inconsistent."""
    rnd = random.Random(seed)
    st = solvers._EOState()
    Bs = [st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
          for _ in range(2)]
    Gs = [st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
          for _ in range(2)]
    Es = [st.add_vertex("eo") for _ in range(6)]
    slots = [e for e in Es for _ in range(3)]
    rnd.shuffle(slots)
    plan = [(Bs[0], 4), (Bs[1], 4), (Gs[0], 5), (Gs[1], 5)]
    assign = []
    pool = slots[:]
    for blk, d in plan:
        mine = []
        for s in list(pool):
            if len(mine) == d:
                break
            if s not in mine:
                mine.append(s)
                pool.remove(s)
        if len(mine) != d:
            return None
        assign.append((blk, mine))
    if pool:
        return None
    for (blk, mine), d in zip(assign, (4, 4, 5, 5)):
        if d == 4:
            signs = [0, 0, 1, 1]
            rnd.shuffle(signs)
        else:
            signs = [rnd.randint(0, 1) for _ in range(5)]
        for e, s in zip(mine, signs):
            st.add_edge(blk, s, e, rnd_w(rnd, 2))
    return st


@pytest.mark.parametrize("seed", [1030, 2311, 2886])
def test_cycle_pin_preserves_value(seed, monkeypatch):
    st = random_pin_state(seed)
    expected = eo_state_value(st)
    assert not expected.is_zero()
    assert not solvers._simplify_step(st)
    calls = _count_pins(monkeypatch)
    solvers._pin_step(st)
    assert calls["cycle"] == 1
    assert (ZERO if st.zero else eo_state_value(st)) == expected
    assert run_state(random_pin_state(seed)) == expected


@pytest.mark.parametrize("seed,same_sign", [(264, True), (969, True),
                                            (1255, False), (1960, False)])
def test_parallel_pin_preserves_value(seed, same_sign, monkeypatch):
    st = random_pin_state(seed)
    expected = eo_state_value(st)
    assert not expected.is_zero()
    assert not solvers._simplify_step(st)
    ends_before = {eid: tuple(ends) for eid, ends in st.ends.items()}
    calls = _count_pins(monkeypatch)
    captured = []
    orig = solvers._resolve

    def spy(state, reqs):
        captured.append(list(reqs))
        return orig(state, reqs)

    monkeypatch.setattr(solvers, "_resolve", spy)
    solvers._pin_step(st)
    assert calls["cycle"] == 0 and calls["wheel"] == 0
    # same-sign pairs pin the two parallel edges; opposite-sign pairs pin
    # every other slot of the super node instead
    reqs = captured[0]
    pinned_pair = None
    if len(reqs) == 2:
        (ea, _, _), (eb, _, _) = reqs
        sides = {}
        for eid in (ea, eb):
            for (v, d) in ends_before[eid]:
                if st.kind.get(v) != "eo":
                    sides.setdefault(v, []).append(d)
        for v, ds in sides.items():
            if len(ds) == 2 and ds[0] == ds[1]:
                pinned_pair = v
    assert (pinned_pair is not None) == same_sign
    assert (ZERO if st.zero else eo_state_value(st)) == expected
    assert run_state(random_pin_state(seed)) == expected


def connector_ring_state(seed, n):
    """A ring of n arity-2 blocks and n arity-2 exact-ones, alternating; each
    block has opposite signs on its two ends, so the value is nonzero."""
    rnd = random.Random("ring-%d" % seed)
    st = solvers._EOState()
    B = [st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
         for _ in range(n)]
    E = [st.add_vertex("eo") for _ in range(n)]
    for i in range(n):
        s = rnd.randint(0, 1)
        st.add_edge(B[i], s, E[i], rnd_w(rnd, 2))
        st.add_edge(B[i], 1 - s, E[(i + 1) % n], rnd_w(rnd, 2))
    return st, B[0]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3])
def test_arity2_block_connector_preserves_value(seed, n):
    st, first = connector_ring_state(seed, n)
    expected = eo_state_value(st)
    assert not expected.is_zero()
    eos = sum(kind == "eo" for kind in st.kind.values())
    assert solvers._simplify_step(st)
    # the first block joined its two exact-ones into one
    assert first not in st.kind
    assert sum(kind == "eo" for kind in st.kind.values()) == eos - 1
    assert eo_state_value(st) == expected
    assert run_state(connector_ring_state(seed, n)[0]) == expected


def pin_state(seed):
    """A block of degree 1 built as (c, 0) or (0, c), with either sign on its
    one end, on an exact-one that a block of arity 2 joins to a second
    exact-one; that one ends at a block of degree 1 with both weights
    nonzero, which is no pin and sorts first."""
    rnd = random.Random("pin-%d" % seed)
    st = solvers._EOState()
    leaf = st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
    c = rnd_w(rnd, 2)
    pin = st.add_vertex("eq", (c, ZERO) if seed % 2 else (ZERO, c))
    B = st.add_vertex("eq", (rnd_w(rnd, 2), rnd_w(rnd, 2)))
    u, w = st.add_vertex("eo"), st.add_vertex("eo")
    st.add_edge(pin, seed // 2 % 2, u, rnd_w(rnd, 2))
    s = rnd.randint(0, 1)
    st.add_edge(B, s, u, rnd_w(rnd, 2))
    st.add_edge(B, 1 - s, w, rnd_w(rnd, 2))
    st.add_edge(leaf, rnd.randint(0, 1), w, rnd_w(rnd, 2))
    return st, pin


@pytest.mark.parametrize("seed", range(8))
def test_degree1_block_with_zero_weight_is_a_pin(seed):
    st, pin = pin_state(seed)
    expected = eo_state_value(st)
    assert solvers._simplify_step(st)
    assert pin not in st.kind
    assert (ZERO if st.zero else eo_state_value(st)) == expected
    assert run_state(pin_state(seed)[0]) == expected


def test_pin_search_needs_mixed_instance():
    st = solvers._EOState()
    st.add_vertex("eq", (ONE, ONE))
    with pytest.raises(PinSearchError):
        solvers._pin_step(st)


@pytest.mark.parametrize("seed", [1030, 2311, 2886])
def test_arity2_exact_one_between_blocks_becomes_their_edge(seed):
    # a stuck state plus an exact-one of arity 2 between two blocks: only
    # that rule applies, and the block rule then merges the two blocks
    st = random_pin_state(seed)
    b1, b2 = sorted(v for v in st.kind if st.kind[v] == "eq")[:2]
    rnd = random.Random("eo2-%d" % seed)
    d1, d2 = rnd.randint(0, 1), rnd.randint(0, 1)
    v = st.add_vertex("eo")
    st.add_edge(b1, d1, v, rnd_w(rnd, 2))
    st.add_edge(b2, d2, v, rnd_w(rnd, 2))
    expected = eo_state_value(st)
    assert solvers._simplify_step(st)
    assert v not in st.kind
    assert [ends for ends in st.ends.values()
            if st.kind[ends[0][0]] == st.kind[ends[1][0]] == "eq"] == \
        [[[b1, d1], [b2, d2]]]
    assert eo_state_value(st) == expected
    assert solvers._simplify_step(st)
    assert b1 in st.kind and b2 not in st.kind
    assert (ZERO if st.zero else eo_state_value(st)) == expected


def merged_pin_state():
    """Reduced from a case-7 benchmark grid: block B joins a pin of higher
    id and two exact-ones of arity 2, each leading to a leaf block.  B pops
    before the pin and merges it, which leaves B a zero weight at degree 2
    with the same sign on both ends.  Returns (state, B, pin)."""
    st = solvers._EOState()
    u, v = st.add_vertex("eo"), st.add_vertex("eo")
    B = st.add_vertex("eq", (AN(2), AN(2) - I))
    pin = st.add_vertex("eq", (ZERO, ONE))
    leaves = [st.add_vertex("eq", (AN(2), AN(2) - I)) for _ in range(2)]
    st.add_edge(B, 0, u, AN(3))
    st.add_edge(u, AN(3), leaves[0], 0)
    st.add_edge(leaves[1], 0, v, AN(3))
    st.add_edge(v, AN(3), B, 0)
    st.add_edge(B, 0, pin, 0)
    return st, B, pin


def test_merged_pin_leaves_no_zero_weight_block():
    st, B, pin = merged_pin_state()
    expected = eo_state_value(st)
    assert not expected.is_zero()
    zero_at_degree2 = False
    while solvers._simplify_step(st):
        assert (ZERO if st.zero else eo_state_value(st)) == expected
        zero_at_degree2 |= (pin not in st.kind and B in st.kind
                            and len(st.inc[B]) == 2
                            and any(w.is_zero() for w in st.eqw[B]))
    assert zero_at_degree2 and not st.todo
    assert not any(w.is_zero() for ws in st.eqw.values() for w in ws)
    assert run_state(merged_pin_state()[0]) == expected


def test_mod4_cross_terms_are_partners_at_both_ends():
    form = solvers._Mod4Form()
    form.add_cross(1, 2, 2)
    form.add_cross(2, 3, 6)
    form.add_cross(3, 1, 4)  # 0 mod 4: no term
    assert form.adj == {1: {2}, 2: {1, 3}, 3: {2}}
    form.add_cross(2, 1, 2)  # 2 + 2 = 0 mod 4
    assert form.adj == {1: set(), 2: {3}, 3: {2}}
    with pytest.raises(AssertionError):
        form.add_cross(1, 3, 1)
    form.add_cross(3, 3, 1)  # x * x = x: a linear term
    assert form.pop_var(3) == (1, {2})
    assert not any(form.adj.values()) and not form.lin


# ---------------------------------------------------------------------------
# hypergraph perfect matchings
# ---------------------------------------------------------------------------

def brute_hpm(h):
    """Independent oracle: enumerate all hyperedge subsets."""
    total = 0
    vset = set(h.vertices)
    for chosen in itertools.product((0, 1), repeat=len(h.hyperedges)):
        covered = []
        for pick, (_, members) in zip(chosen, h.hyperedges):
            if pick:
                covered.extend(members)
        if len(covered) == len(set(covered)) and set(covered) == vset:
            total += 1
    return AN(total)


def random_hypergraph5(seed):
    """A chain of size-5 hyperedges sharing at most one vertex with the next,
    with an optional twin hyperedge over the same five vertices."""
    rnd = random.Random(seed)
    twin = rnd.random() < 0.5
    k = rnd.randint(1, 2 if twin else 3)
    inc = itertools.count()
    rotation = {}
    hyperedges = []
    vertices = []
    prev_shared = None
    for hi in range(k):
        he = ("h", hi)
        members = []
        slots = []
        if prev_shared is not None:
            x = next(inc)
            rotation[prev_shared].append(x)
            members.append(prev_shared)
            slots.append(x)
        share_next = hi + 1 < k and rnd.random() < 0.6
        while len(members) < 5:
            v = ("v", hi, len(members))
            x = next(inc)
            vertices.append(v)
            rotation[v] = [x]
            members.append(v)
            slots.append(x)
        prev_shared = members[-1] if share_next else None
        rotation[he] = slots
        hyperedges.append((he, members))
    if twin:
        # twin hyperedge over the first flower's five vertices
        he, members = hyperedges[0]
        twin = ("h", "twin")
        slots = []
        for v in reversed(members):
            x = next(inc)
            rotation[v] = [x] + rotation[v]
            slots.append(x)
        rotation[twin] = slots
        hyperedges.append((twin, list(reversed(members))))
    return PlanarHypergraph(vertices, hyperedges, rotation)


@pytest.mark.parametrize("seed", range(60))
def test_hypergraph_pm_gcd5(seed):
    h = random_hypergraph5(seed)
    assert sum(len(r) for r in
               (h.rotation[he] for (he, _) in h.hyperedges)) <= 18
    verdict, value = hypergraph_pm(h)
    assert verdict.tractable
    assert value == brute_hpm(h)


def cycle_hypergraph(n):
    """A cycle of n vertices with n size-2 hyperedges."""
    vertices = list(range(n))
    rotation = {}
    hyperedges = []
    for i in range(n):
        he = ("e", i)
        a, b = "i%d_a" % i, "i%d_b" % i
        rotation[he] = [a, b]
        hyperedges.append((he, sorted([i, (i + 1) % n])))
        rotation.setdefault(i, []).append(a)
        rotation.setdefault((i + 1) % n, []).insert(0, b)
    return PlanarHypergraph(vertices, hyperedges, rotation)


@pytest.mark.parametrize("n", range(2, 9))
def test_hypergraph_pm_graph_case(n):
    h = cycle_hypergraph(n)
    assert set(h.sizes()) == {2}
    verdict, value = hypergraph_pm(h)
    assert verdict.tractable
    assert value == brute_hpm(h)
    assert value == (AN(2) if n % 2 == 0 else ZERO)


def test_hypergraph_pm_monomer_dimer():
    # one dimer plus two monomers: either the dimer or both monomers; sizes
    # {1, 2} are #P-hard (planar monomer-dimer), small instances get a value
    rotation = {"u": ["a", "m1"], "v": ["m2", "b"],
                "d": ["a", "b"], "s1": ["m1"], "s2": ["m2"]}
    h = PlanarHypergraph(["u", "v"],
                         [("d", ["u", "v"]), ("s1", ["u"]), ("s2", ["v"])],
                         rotation)
    verdict, value = hypergraph_pm(h)
    assert not verdict.tractable
    assert value == AN(2)
    assert brute_hpm(h) == AN(2)


def test_hypergraph_pm_singletons_in_closed_form():
    # sizes {1}: each vertex takes one of its singletons; cap 1 shows that
    # no brute force runs
    rnd = random.Random("singletons")
    for _ in range(20):
        counts = [rnd.randint(0, 3) for _ in range(rnd.randint(1, 5))]
        if not any(counts):
            continue
        rotation, hyperedges = {}, []
        for v, c in enumerate(counts):
            rotation[v] = ["i%d_%d" % (v, k) for k in range(c)]
            for k in range(c):
                rotation["h%d_%d" % (v, k)] = ["i%d_%d" % (v, k)]
                hyperedges.append(("h%d_%d" % (v, k), [v]))
        h = PlanarHypergraph(list(range(len(counts))), hyperedges, rotation)
        verdict, value = hypergraph_pm(h, cap=1)
        assert verdict.tractable
        assert value == AN(math.prod(counts)) == brute_hpm(h)


def test_hypergraph_pm_hard_sizes():
    # sizes {3}: the dichotomy says #P-hard; small instances still get a value
    rotation = {"h": ["a", "b", "c"],
                0: ["a"], 1: ["b"], 2: ["c"]}
    h = PlanarHypergraph([0, 1, 2], [("h", [0, 1, 2])], rotation)
    verdict, value = hypergraph_pm(h)
    assert not verdict.tractable
    assert value == ONE == brute_hpm(h)
    _, capped = hypergraph_pm(h, cap=1)
    assert capped is None


def test_hypergraph_pm_no_hyperedges():
    v, value = hypergraph_pm(PlanarHypergraph([], [], {}))
    assert v.tractable and value == ONE
    v, value = hypergraph_pm(PlanarHypergraph([0], [], {}))
    assert v.tractable and value == ZERO


def test_hypergraph_pm_uncovered_vertex():
    # sizes {5} take the pinning route; vertex 5 lies in no hyperedge
    rotation = dict({v: ["i%d" % v] for v in range(5)},
                    h=["i%d" % v for v in range(5)])
    h = PlanarHypergraph(list(range(6)), [("h", list(range(5)))], rotation)
    verdict, value = hypergraph_pm(h)
    assert verdict.route == "eo"
    assert value == ZERO == brute_hpm(h)


def test_hypergraph_json_round_trip():
    import json
    rotation = {"u": ["a", "m1"], "v": ["m2", "b"],
                "d": ["a", "b"], "s1": ["m1"], "s2": ["m2"]}
    h = PlanarHypergraph(["u", "v"],
                         [("d", ["u", "v"]), ("s1", ["u"]), ("s2", ["v"])],
                         rotation)
    doc = json.loads(json.dumps(hypergraph_to_json(h)))
    h2 = hypergraph_from_json(doc)
    assert hypergraph_pm(h2)[1] == hypergraph_pm(h)[1] == AN(2)


def test_hypergraph_structure_errors():
    with pytest.raises(StructureError):
        PlanarHypergraph([0], [(0, [0])], {0: ["a"]})
    with pytest.raises(StructureError):
        PlanarHypergraph([0, 1], [("h", [0])], {"h": ["a"], 0: ["a"],
                                                1: ["a"]})
    with pytest.raises(StructureError):
        PlanarHypergraph([0, 1], [("h", [0, 1])],
                         {"h": ["a"], 0: ["a"], 1: []})


# ---------------------------------------------------------------------------
# the dispatcher
# ---------------------------------------------------------------------------

def test_evaluate_empty_grid():
    assert evaluate(PlanarGrid([], [], scalar=AN(5))) == AN(5)


def test_evaluate_method_overrides():
    g = k4_grid()
    assert evaluate(g, method="brute") == AN(3)
    assert evaluate(g, method="fkt") == AN(3)
    assert evaluate(g) == AN(3)
    p = random_product_grid(1)
    assert evaluate(p, method="product") == naive_holant(p)
    a = random_affine_grid(1)
    assert evaluate(a, method="affine") == naive_holant(a)
    with pytest.raises(ValueError):
        evaluate(g, method="magic")


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_auto_product(seed):
    g = random_product_grid(seed)
    assert evaluate(g) == naive_holant(g)


@pytest.mark.parametrize("seed", range(40))
def test_evaluate_auto_affine(seed):
    g = random_affine_grid(seed)
    assert evaluate(g) == naive_holant(g)


@pytest.mark.parametrize("seed", range(20))
def test_evaluate_auto_vanishing(seed):
    assert evaluate(random_vanishing_grid(seed, "+")) == ZERO
    assert evaluate(random_vanishing_grid(seed, "-")) == ZERO


def test_evaluate_weighted_exact_one():
    g = k4_grid(lambda v: exact_one(3).scale(AN(v)))
    assert evaluate(g) == naive_holant(g)


def test_evaluate_stretched_grid():
    # the routes stretch again: the new equalities must not reuse the ids
    # of the equalities already there
    g = k4_grid(lambda v: exact_one(3).scale(AN(v)))
    assert evaluate(two_stretch(g)) == evaluate(g) == naive_holant(g)


def z_wheel_grid(scale5=1, scale3=1):
    """A degree-5 hub of Z-transformed equalities amid Z-transformed
    exact-ones: the mixed tractable case of the set dichotomy."""
    f5 = transform(Z, equality(5)).scale(AN(scale5))
    f3 = transform(Z, exact_one(3)).scale(AN(scale3))
    rot = {"hub": ["s%d" % i for i in range(5)]}
    verts = [Vertex("hub", f5, rot["hub"])]
    edges = []
    for i in range(5):
        rot_i = ["s%d'" % i, "c%d_p" % i, "c%d_n" % i]
        verts.append(Vertex("w%d" % i, f3, rot_i))
        edges.append(("s%d" % i, "s%d'" % i))
        edges.append(("c%d_n" % i, "c%d_p" % ((i + 1) % 5)))
    return PlanarGrid(verts, edges)


def test_evaluate_mixed_matching_route(monkeypatch):
    g = z_wheel_grid(2, 3)
    _, ok = g.validate()
    assert ok
    used = []
    orig = solvers._eo_route
    monkeypatch.setattr(solvers, "_eo_route",
                        lambda grid: used.append(1) or orig(grid))
    assert evaluate(g) == naive_holant(g)
    assert used


def orth(t):
    from fractions import Fraction
    c = AN(Fraction(1 - t * t, 1 + t * t))
    s = AN(Fraction(2 * t, 1 + t * t))
    return Transform2x2(c, -s, s, c)


def transformed_pair_grid(T):
    """Two signatures sharing a hidden transform: vertex X of arity 4 joined
    to two arity-3 vertices."""
    f4 = transform(T, gen_eq(ONE, AN(5), 4))
    f3 = transform(T, gen_eq(AN(2), AN(3), 3))
    verts = [
        Vertex("X", f4, ["xa1", "xa2", "xb1", "xb2"]),
        Vertex("Y1", f3, ["ya2", "ya1", "yc"]),
        Vertex("Y2", f3, ["zc", "zb2", "zb1"]),
    ]
    edges = [("xa1", "ya1"), ("xa2", "ya2"), ("xb1", "zb1"),
             ("xb2", "zb2"), ("yc", "zc")]
    return PlanarGrid(verts, edges)


def test_evaluate_transformed_product_route():
    T = orth(2) @ diag(2, AN(3))
    g = transformed_pair_grid(T)
    _, ok = g.validate()
    assert ok
    assert evaluate(g) == naive_holant(g)


def test_evaluate_matchgate_sides():
    f = transform(Z, exact_one(4))
    g = transform(Z, all_but_one(4))
    verts = [Vertex(0, f, ["a1", "a2", "a3", "a4"]),
             Vertex(1, g, ["b4", "b3", "b2", "b1"])]
    grid = PlanarGrid(verts, [("a%d" % k, "b%d" % k) for k in (1, 2, 3, 4)])
    assert evaluate(grid) == naive_holant(grid)


def test_evaluate_hard_fallback():
    f = sig([2, 1, 0, 0, 0])
    verts = [Vertex(0, f, ["a1", "a2", "a3", "a4"]),
             Vertex(1, f, ["b4", "b3", "b2", "b1"])]
    grid = PlanarGrid(verts, [("a%d" % k, "b%d" % k) for k in (1, 2, 3, 4)])
    assert evaluate(grid) == naive_holant(grid)
    with pytest.raises(TooLarge) as e:
        evaluate(grid, cap=2)
    assert "#P-hard" in str(e.value)


def test_weighted_graph_rejects_malformed_embeddings():
    from planar_holant.grid import EmbeddingError
    k5 = {v: ["%d_%d" % (v, w) for w in range(5) if w != v] for v in range(5)}
    k5_edges = [("%d_%d" % (v, w), "%d_%d" % (w, v), ONE)
                for v in range(5) for w in range(v + 1, 5)]
    with pytest.raises(EmbeddingError):
        WeightedPlanarGraph(list(k5), k5, k5_edges)
    with pytest.raises(StructureError):
        WeightedPlanarGraph([0, 0], {0: ["a", "b"]}, [("a", "b", ONE)])
    with pytest.raises(StructureError):
        WeightedPlanarGraph([0, 1], {0: ["a"], 1: ["b"]}, [("a", "c", ONE)])
    with pytest.raises(StructureError):
        WeightedPlanarGraph([0, 1], {0: ["a", "x"], 1: ["b"]},
                            [("a", "b", ONE)])
    with pytest.raises(StructureError):
        WeightedPlanarGraph([0, 1], {0: ["a"], 1: ["a"]}, [("a", "a", ONE)])


def _closed_grid(f):
    """f with its slots paired into self-loops; an odd last slot goes to a
    unary [1, 1], which is product type and affine."""
    halves = ["h%d" % k for k in range(f.arity)]
    verts = [Vertex("x", f, halves)]
    edges = [(halves[k], halves[k + 1]) for k in range(0, f.arity - 1, 2)]
    if f.arity % 2:
        verts.append(Vertex("y", sig([1, 1]), ["u"]))
        edges.append((halves[-1], "u"))
    return PlanarGrid(verts, edges)


def test_recognisers_agree_with_solvers():
    """in_P / in_A accept f exactly when product_eval / affine_eval accept a
    grid of f, and then the values match brute force, for every nonzero
    symmetric f of arity 1-4 with entries in {0, +-1, +-i, 2}."""
    values = [ZERO, ONE, -ONE, I, -I, AN(2)]
    for n in range(1, 5):
        for entries in itertools.product(values, repeat=n + 1):
            f = sig(entries)
            if f.is_zero():
                continue
            grid = _closed_grid(f)
            brute = grid.holant()
            for member, solver in ((in_P, product_eval), (in_A, affine_eval)):
                try:
                    value = solver(grid)
                except ClassError:
                    value = None
                assert member(f) == (value is not None), (f, solver)
                assert value is None or value == brute, (f, solver)


def test_grids_with_isolated_constant():
    """A constant vertex scales the case-7 and the exact-one (FKT) routes;
    cap=1 rules out brute force."""
    for g in (z_wheel_grid(2, 3), k4_grid(lambda v: exact_one(3).scale(AN(v)))):
        with_c = PlanarGrid(list(g.vertices.values()) + [Vertex("c", sig([3]), [])],
                            g.edges)
        assert evaluate(with_c, cap=1) == AN(3) * naive_holant(g)
    assert evaluate(with_c, method="fkt") == AN(3) * naive_holant(g)


def test_weighted_graph_json_keeps_string_ids_that_look_like_lists():
    g = WeightedPlanarGraph(["[0]", "[1]"], {"[0]": ["a"], "[1]": ["b"]},
                            [("a", "b", AN(5))])
    g2 = weighted_graph_from_json(json.loads(json.dumps(weighted_graph_to_json(g))))
    assert list(g2.vertex_ids) == ["[0]", "[1]"]
    assert fkt_count_pm(g2) == AN(5)


def vanishing_pair_with_constant():
    """Z[1,2,0,0] and Z[2,1,0,0] joined by three edges (vanishing, Holant 0)
    beside an isolated constant [3]."""
    f = transform(Z, sig([1, 2, 0, 0]))
    g = transform(Z, sig([2, 1, 0, 0]))
    return PlanarGrid([Vertex(0, f, ["a1", "a2", "a3"]),
                       Vertex(1, g, ["b3", "b2", "b1"]),
                       Vertex("c", sig([3]), [])],
                      [("a%d" % k, "b%d" % k) for k in (1, 2, 3)])


def test_vanishing_eval_looks_past_constants():
    g = vanishing_pair_with_constant()
    assert vanishing_eval(g) == ZERO
    assert evaluate(g, cap=1) == ZERO == naive_holant(g)


DISPATCH_GRIDS = {
    "product": lambda: random_product_grid(1),
    "affine": lambda: random_affine_grid(1),
    "vanishing+": lambda: random_vanishing_grid(3, "+"),
    "vanishing-": lambda: random_vanishing_grid(3, "-"),
    "vanishing-with-constant": vanishing_pair_with_constant,
    "exact-one": lambda: k4_grid(lambda v: exact_one(3).scale(AN(v))),
    "case-7": lambda: z_wheel_grid(2, 3),
    "transformed-product": lambda: transformed_pair_grid(
        orth(2) @ diag(2, AN(3))),
}


@pytest.mark.parametrize("name", sorted(DISPATCH_GRIDS))
def test_evaluate_routes_without_brute_force(name):
    """At cap 1 brute force refuses every grid here, so auto must reach the
    value through a polynomial route."""
    g = DISPATCH_GRIDS[name]()
    assert len(g.edges) > 1
    with pytest.raises(TooLarge):
        evaluate(g, method="brute", cap=1)
    assert evaluate(g, cap=1) == g.holant(cap=64)


def lattice_hypergraph(k, m):
    """The k x m grid graph as a hypergraph of size-2 hyperedges; each
    vertex lists its neighbours right, up, left, down (counterclockwise)."""
    vertices = [(i, j) for i in range(k) for j in range(m)]
    rotation = {v: [] for v in vertices}
    hyperedges = []
    for (i, j) in vertices:
        for (di, dj) in ((0, 1), (-1, 0), (0, -1), (1, 0)):
            w = (i + di, j + dj)
            if w in rotation:
                rotation[(i, j)].append(("inc", (i, j), w))
                if (i, j) < w:
                    he = ("e", (i, j), w)
                    hyperedges.append((he, [(i, j), w]))
                    rotation[he] = [("inc", (i, j), w), ("inc", w, (i, j))]
    return PlanarHypergraph(vertices, hyperedges, rotation)


@pytest.mark.parametrize("k, m, count", [(2, 3, 3), (3, 4, 11), (4, 4, 36)])
def test_hypergraph_pm_lattice_follows_fkt_route(k, m, count):
    verdict, value = hypergraph_pm(lattice_hypergraph(k, m), cap=1)
    assert verdict.route == "fkt"
    assert value == AN(count)


@pytest.mark.parametrize("seed", range(5))
def test_hypergraph_pm_gcd5_follows_eo_route(seed):
    h = random_hypergraph5(seed)
    verdict, value = hypergraph_pm(h, cap=1)
    assert verdict.route == "eo"
    assert value == brute_hpm(h)



# -- the Pfaffian on integer numerators over a denominator --------------------

def q_weight(rnd):
    """A weight of Q(zeta_8) with a denominator and four nonzero
    coordinates."""
    den = rnd.choice((2, 3, 5, 6, 7))
    return AlgebraicNumber(*(Fraction(rnd.choice((-3, -2, -1, 1, 2, 3)), den)
                             for _ in range(4)))


def random_q_weighted_graph(seed):
    """``random_weighted_graph``'s multigraphs, with ``q_weight`` weights."""
    rnd = random.Random("q-%d" % seed)
    rots, raw = cycle_hub_topology(rnd, loops=True)
    return WeightedPlanarGraph(
        sorted(rots), rots, [(a, b, q_weight(rnd)) for (a, b) in raw])


def rational_entry(rnd):
    return AN(Fraction(rnd.choice((-5, -3, -2, -1, 1, 2, 3, 4)),
                       rnd.choice((1, 2, 3, 7))))


@pytest.mark.parametrize("seed", range(60))
def test_pfaffian_with_denominators_matches_expansion(seed):
    rnd = random.Random("pf-den-%d" % seed)
    a = skew(seed % 9, q_weight if seed % 2 else rational_entry,
             (0.4, 0.7, 1.0)[seed % 3], rnd)
    a = [[AN(x) for x in row] for row in a]
    assert solvers._pfaffian(sparse_rows(a)) == naive_pfaffian(a, ZERO)
    if seed % 2 == 0:  # the same matrix over Q
        b = [[x.rational() for x in row] for row in a]
        pf = solvers._pfaffian(sparse_rows(b), Fraction(1))
        assert type(pf) is Fraction and pf == naive_pfaffian(b, Fraction(0))


@pytest.mark.parametrize("seed", range(30))
def test_pfaffian_negative_rational_pivots(seed):
    # every entry is a negative fraction, so the first pivot is one, and
    # _cofactor gives a rational pivot back as its own "norm"
    assert algebra._cofactor(-5, 0, 0, 0) == ((1, 0, 0, 0), -5)
    rnd = random.Random("pf-neg-%d" % seed)
    a = skew(2 * (seed % 4 + 1),
             lambda r: AN(Fraction(-r.randint(1, 9), r.choice((1, 3, 7)))),
             0.8, rnd)
    a = [[AN(x) for x in row] for row in a]
    assert solvers._pfaffian(sparse_rows(a)) == naive_pfaffian(a, ZERO)
    b = [[x.rational() for x in row] for row in a]
    assert (solvers._pfaffian(sparse_rows(b), Fraction(1))
            == naive_pfaffian(b, Fraction(0)))


@pytest.mark.parametrize("seed", range(40))
def test_pfaffian_mixed_rational_and_irrational_rows(seed):
    # rows in ``rational`` meet each other in rational entries and every
    # other row in q_weight entries
    rnd = random.Random("pf-mixed-%d" % seed)
    n = 2 + seed % 7
    rational = set(rnd.sample(range(n), rnd.randint(1, n)))
    a = [[ZERO] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if rnd.random() < 0.7:
            a[i][j] = (rational_entry(rnd) if {i, j} <= rational
                       else q_weight(rnd))
            a[j][i] = -a[i][j]
    assert solvers._pfaffian(sparse_rows(a)) == naive_pfaffian(a, ZERO)


def test_pfaffian_pendant_vertex_inverts_no_pivot(monkeypatch):
    cofactor, calls = algebra._cofactor, []

    def counting(*x):
        calls.append(x)
        return cofactor(*x)

    monkeypatch.setattr(algebra, "_cofactor", counting)
    rnd = random.Random("pendant")
    # the path 0-1-2-3: each pivot's partner row is left empty
    w = [q_weight(rnd) for _ in range(3)]
    a = [[ZERO] * 4 for _ in range(4)]
    for i in range(3):
        a[i][i + 1], a[i + 1][i] = w[i], -w[i]
    assert solvers._pfaffian(sparse_rows(a)) == w[0] * w[2]
    assert calls == []
    # pendants 0 and 5 on the triangle 2-3-4
    b = [[ZERO] * 6 for _ in range(6)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)):
        b[i][j] = q_weight(rnd)
        b[j][i] = -b[i][j]
    assert solvers._pfaffian(sparse_rows(b)) == naive_pfaffian(b, ZERO)


@pytest.mark.parametrize("seed", range(60))
def test_fkt_matches_brute_with_q_weights(seed):
    g = random_q_weighted_graph(seed)
    assert fkt_count_pm(g) == brute_pm(g)


def test_fkt_pendant_vertices():
    # the 4-cycle 1-2-3-4 with pendants 0 at 1 and 5 at 2, which force
    # their edges and leave the edge 3-4 (a graph with one cycle is planar
    # under every rotation)
    rnd = random.Random("fkt-pendant")
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (2, 5)]
    rot = {v: [] for v in range(6)}
    w, edges = {}, []
    for v, u in pairs:
        rot[v].append("%d-%d" % (v, u))
        rot[u].append("%d-%d" % (u, v))
        w[v, u] = q_weight(rnd)
        edges.append(("%d-%d" % (v, u), "%d-%d" % (u, v), w[v, u]))
    g = WeightedPlanarGraph(list(rot), rot, edges)
    assert fkt_count_pm(g) == w[0, 1] * w[2, 5] * w[3, 4] == brute_pm(g)
