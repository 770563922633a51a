"""The census folds of ``product_eval`` and ``affine_eval``.

``product_eval`` evaluates each distinct census of a linked component once
and raises it to the number of components that share it; ``affine_eval``
raises each distinct signature's factor, and each Gauss-sum factor, to its
count.  Product grids are checked, at lattice sizes brute force cannot
reach, against ``product_eval_per_edge``, the per-edge fold the census
replaced, kept here as a reference; affine grids with repeated signatures
are checked against brute force.
"""

import random

import pytest

from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, ZERO
from planar_holant.classify import in_A, in_P, product_form
from planar_holant.grid import PlanarGrid, Vertex, _DisjointSet
from planar_holant.sigcalc import SymmetricSignature, degenerate, gen_eq
from planar_holant.solvers import affine_eval, product_eval

from test_solvers import random_affine_sig


def product_eval_per_edge(grid):
    """The Holant of a product-type grid by one weight pair per edge, each
    half-edge's weights multiplied in where it is met, and one sum of two
    patterns per linked component."""
    edge_of = grid.edge_index()
    uf = _DisjointSet()
    slot_w = [[ONE, ONE] for _ in grid.edges]
    scalar = grid.scalar
    for v in grid.vertices.values():
        form = product_form(v.sig)
        if form is None:
            assert v.sig.is_zero()
            return ZERO
        scalar = scalar * form.scalar
        weighted = v.rotation
        if form.link is not None:
            e0 = edge_of[v.rotation[0]]
            for h in v.rotation[1:]:
                if not uf.union(e0, edge_of[h], form.link):
                    return ZERO
            weighted = v.rotation[:1] if form.link == 0 else ()
        for h in weighted:
            w = slot_w[edge_of[h]]
            w[0], w[1] = w[0] * form.w0, w[1] * form.w1
    comp_edges = {}
    for e in range(len(grid.edges)):
        root, off = uf.locate(e)
        comp_edges.setdefault(root, []).append((e, off))
    total = scalar
    for members in comp_edges.values():
        val = ZERO
        for bit in (0, 1):
            w = ONE
            for (e, off) in members:
                w = w * slot_w[e][bit ^ off]
            val = val + w
        total = total * val
    return total


# ---------------------------------------------------------------------------
# lattices with self-loops, parallel edges and chains of binaries
# ---------------------------------------------------------------------------

def lattice_topology(rnd, k, m, loops=0.0, doubled=0.0, chains=0.0):
    """A plane k-by-m grid graph: {vertex: rotation}, edges and the binary
    vertices that subdivide its edges.  A vertex gets a self-loop with
    probability ``loops``, an edge is doubled with probability ``doubled``
    and split by a chain of 1-3 binaries with probability ``chains``."""
    lattice = [(r, c) for r in range(k) for c in range(m)]
    rot = {v: [] for v in lattice}
    edges, binaries = [], []
    ids = iter(range(10 ** 9))

    def fresh():
        return "h%d" % next(ids)

    def join(a, b):
        """An edge from half a to half b, or a chain of binaries."""
        if rnd.random() < chains:
            for _ in range(rnd.randint(1, 3)):
                x = ("b", next(ids))
                rot[x] = [fresh(), fresh()]
                binaries.append(x)
                edges.append((a, rot[x][0]))
                a = rot[x][1]
        edges.append((a, b))

    # counterclockwise at each vertex: east, north, west, south; the edges
    # to a neighbour are made at the first of the two ends met, and the far
    # halves wait, in reversed order, for the neighbour's turn
    pending = {}
    for v in lattice:
        r, c = v
        if rnd.random() < loops:
            rot[v] += [fresh(), fresh()]
            edges.append(tuple(rot[v][-2:]))
        for w in ((r, c + 1), (r - 1, c), (r, c - 1), (r + 1, c)):
            if w not in rot:
                continue
            if (v, w) in pending:
                rot[v] += pending.pop((v, w))
                continue
            far = []
            for _ in range(2 if rnd.random() < doubled else 1):
                a, b = fresh(), fresh()
                rot[v].append(a)
                join(a, b)
                far.append(b)
            pending[(w, v)] = far[::-1]
    assert not pending
    return rot, edges, binaries


def weight(rnd):
    """A small nonzero weight; -1 and 1 are common, so sums cancel."""
    return rnd.choice([ONE, -ONE, ONE, -ONE, AN(2), AN(-3), I, -I, ONE + I,
                       AlgebraicNumber(1, 2, 0, 0) / 3])


def product_spec(rnd, diseq):
    """One product form: a generalized equality ("eq", a, b), a degenerate
    ("deg", c, u0, u1) with u0 or u1 possibly 0, or with ``diseq`` a binary
    disequality ("diseq", c)."""
    kind = rnd.choice(["eq", "eq", "deg", "diseq"] if diseq else ["eq", "deg"])
    if kind == "eq":
        return ("eq", weight(rnd), weight(rnd))
    if kind == "deg":
        u = rnd.choice([(weight(rnd), weight(rnd)), (ZERO, weight(rnd)),
                        (weight(rnd), ZERO), (ONE, -ONE), (ONE, ONE)])
        return ("deg", weight(rnd)) + u
    return ("diseq", weight(rnd))


def product_sig(spec, arity):
    if spec[0] == "eq":
        return gen_eq(spec[1], spec[2], arity)
    if spec[0] == "deg":
        return degenerate(spec[2:], arity).scale(spec[1])
    return SymmetricSignature([ZERO, spec[1], ZERO])


def product_lattice(seed):
    """A product-type grid on a 16x16 to 24x24 lattice built from 1-6
    distinct forms: disequalities only on the binaries of edge chains."""
    rnd = random.Random(seed)
    k = rnd.randint(16, 24)
    m = rnd.randint(16, 24)
    rot, edges, binaries = lattice_topology(
        rnd, k, m, loops=rnd.choice([0, 0.05]),
        doubled=rnd.choice([0, 0.05]), chains=rnd.choice([0, 0.1, 0.4]))
    specs = [product_spec(rnd, diseq=False)]
    specs += [product_spec(rnd, diseq=True) for _ in range(rnd.randint(0, 5))]
    vertex_specs = [s for s in specs if s[0] != "diseq"]
    # some grids lean on one form, so most components share a census
    bias = rnd.choice([None, 0])
    binary_set = set(binaries)
    verts = []
    for v, r in rot.items():
        pool = specs if v in binary_set else vertex_specs
        spec = pool[0] if bias == 0 and rnd.random() < 0.8 else rnd.choice(pool)
        f = product_sig(spec, len(r))
        assert in_P(f)
        verts.append(Vertex(v, f, r))
    scalar = rnd.choice([ONE, AN(5), I])
    return PlanarGrid(verts, edges, scalar=scalar), specs


PRODUCT_SEEDS = range(210)


@pytest.mark.parametrize("seed", PRODUCT_SEEDS)
def test_product_census_matches_per_edge_fold(seed):
    grid, _ = product_lattice(seed)
    assert 16 * 16 <= len(grid.vertices)
    assert product_eval(grid) == product_eval_per_edge(grid)


def loops_and_parallels(grid):
    """(whether the grid has a self-loop, whether it has parallel edges)."""
    owner = grid.half_owner
    ends = [(owner[a], owner[b]) for (a, b) in grid.edges]
    return (any(u == w for (u, w) in ends),
            len(set(map(frozenset, ends))) < len(ends))


def test_product_lattices_cover_their_cases():
    """The seeded product lattices hold what the census must get right:
    1 to 6 forms, each kind, self-loops, parallel edges, disequality
    chains, and both zero and nonzero values."""
    seen = {"forms": set(), "kinds": set(), "zero": 0, "nonzero": 0,
            "loop": 0, "parallel": 0, "diseq chain": 0}
    for seed in PRODUCT_SEEDS:
        grid, specs = product_lattice(seed)
        seen["forms"].add(len(set(map(repr, specs))))
        seen["kinds"] |= {s[0] for s in specs}
        loop, parallel = loops_and_parallels(grid)
        seen["loop"] += loop
        seen["parallel"] += parallel
        seen["diseq chain"] += any(
            v.sig.arity == 2 and v.sig[0].is_zero() and v.sig[2].is_zero()
            for v in grid.vertices.values())
        seen["zero" if product_eval(grid).is_zero() else "nonzero"] += 1
    assert seen["forms"] == {1, 2, 3, 4, 5, 6}
    assert seen["kinds"] == {"eq", "deg", "diseq"}
    for key in ("zero", "nonzero", "loop", "parallel", "diseq chain"):
        assert seen[key] >= 20, (key, seen[key])


@pytest.mark.parametrize("center, around, zero", [
    # the two patterns cancel: 1 * 1 + (-1) * 1 = 0
    ((ONE, -ONE), [(ONE, ONE)] * 3, True),
    # zero weights: pattern 0 meets u0 = 0 and pattern 1 meets u1 = 0
    ((ONE, ONE), [(ZERO, ONE), (ONE, ZERO), (ONE, ONE)], True),
    ((ONE, ONE), [(ONE, ONE)] * 3, False),
])
def test_product_census_zero_component(center, around, zero):
    """A 16x16 lattice of degenerate (1, 2) signatures but for one
    generalized equality and its three neighbours: their component alone
    decides whether the Holant is 0."""
    rot, edges, _ = lattice_topology(random.Random(0), 16, 16)
    star = dict(zip([(0, 4), (0, 6), (1, 5)], around))
    verts = []
    for v, r in rot.items():
        if v == (0, 5):
            f = gen_eq(*center, len(r))
        else:
            f = degenerate(star.get(v, (ONE, AN(2))), len(r))
        verts.append(Vertex(v, f, r))
    grid = PlanarGrid(verts, edges)
    assert product_eval(grid) == product_eval_per_edge(grid)
    assert product_eval(grid).is_zero() == zero


def diseq_cycle(name, length, c):
    """A cycle of ``length`` disequalities [0, c, 0]: (vertices, edges)."""
    verts = [Vertex((name, i), SymmetricSignature([ZERO, c, ZERO]),
                    [(name, i, "in"), (name, i, "out")])
             for i in range(length)]
    edges = [((name, i, "out"), (name, (i + 1) % length, "in"))
             for i in range(length)]
    return verts, edges


@pytest.mark.parametrize("lengths", [[2], [2, 4, 6], [4, 4, 4, 8]])
def test_product_census_disequality_cycles(lengths):
    """A component with no weight pair, a cycle of disequalities, has the
    two patterns 1 + 1: each even cycle of [0, c, 0] adds a factor 2 c^L,
    beside a lattice whose components all carry weights."""
    rot, edges, _ = lattice_topology(random.Random(1), 16, 16)
    verts = [Vertex(v, degenerate((ONE, AN(2)), len(r)), r)
             for v, r in rot.items()]
    lattice = PlanarGrid(verts, edges)
    expected = product_eval(lattice)
    for k, length in enumerate(lengths):
        more_verts, more_edges = diseq_cycle(("cycle", k), length, I)
        verts += more_verts
        edges += more_edges
        expected = expected * 2 * I ** length
    grid = PlanarGrid(verts, edges)
    assert product_eval(grid) == product_eval_per_edge(grid) == expected
    assert product_eval(PlanarGrid(*diseq_cycle("odd", 5, I))) == ZERO


# ---------------------------------------------------------------------------
# affine grids with repeated signatures
# ---------------------------------------------------------------------------

def affine_sig(rnd, arity):
    """``random_affine_sig``, or a degenerate (c, c i^r)^n with c not 1,
    whose scalar c^n each vertex of that arity multiplies in."""
    if rnd.random() < 0.7:
        return random_affine_sig(rnd, arity)
    c = rnd.choice([AN(2), -ONE, ONE + I])
    return degenerate((c, c * I ** rnd.randint(0, 3)), arity)


def affine_lattice(seed):
    """An affine grid on a small lattice, every vertex of one arity drawing
    from the same 1-3 signatures, with self-loops and parallel edges."""
    rnd = random.Random(seed)
    k, m = rnd.choice([(3, 3), (3, 4), (2, 5), (4, 4)])
    rot, edges, _ = lattice_topology(
        rnd, k, m, loops=rnd.choice([0, 0.2]), doubled=rnd.choice([0, 0.2]),
        chains=rnd.choice([0, 0.2]))
    palettes = {}
    n_sigs = rnd.randint(1, 3)
    verts = []
    for v, r in rot.items():
        pal = palettes.get(len(r))
        if pal is None:
            pal = palettes[len(r)] = [affine_sig(rnd, len(r))
                                      for _ in range(n_sigs)]
        f = rnd.choice(pal)
        assert in_A(f)
        verts.append(Vertex(v, f, r))
    return PlanarGrid(verts, edges, scalar=rnd.choice([ONE, AN(3), -I]))


@pytest.mark.parametrize("seed", range(210))
def test_affine_census_matches_bruteforce(seed):
    grid = affine_lattice(seed)
    sigs = [v.sig for v in grid.vertices.values()]
    assert len(set(sigs)) < len(sigs)
    assert affine_eval(grid) == grid.holant(cap=80)


def test_affine_lattices_cover_their_cases():
    seen = {"zero": 0, "nonzero": 0, "loop": 0, "parallel": 0}
    for seed in range(210):
        grid = affine_lattice(seed)
        loop, parallel = loops_and_parallels(grid)
        seen["loop"] += loop
        seen["parallel"] += parallel
        seen["zero" if affine_eval(grid).is_zero() else "nonzero"] += 1
    for key in seen:
        assert seen[key] >= 20, (key, seen[key])


# ---------------------------------------------------------------------------
# vertex order and ids
# ---------------------------------------------------------------------------

def relabelled(grid, rnd):
    """The same grid with vertices in a shuffled order, and vertex and
    half-edge ids renamed."""
    vid = {v: ("v", i) for i, v in enumerate(rnd.sample(
        list(grid.vertices), len(grid.vertices)))}
    hid = {h: "x%d" % i for i, h in enumerate(
        rnd.sample(list(grid.half_owner), len(grid.half_owner)))}
    verts = [Vertex(vid[v.id], v.sig, [hid[h] for h in v.rotation])
             for v in grid.vertices.values()]
    rnd.shuffle(verts)
    return PlanarGrid(verts, [(hid[a], hid[b]) for (a, b) in grid.edges],
                      scalar=grid.scalar)


@pytest.mark.parametrize("seed", range(6))
def test_census_ignores_vertex_order_and_ids(seed):
    rnd = random.Random(seed)
    grid, _ = product_lattice(seed)
    value = product_eval(grid)
    for _ in range(3):
        assert product_eval(relabelled(grid, rnd)) == value
    grid = affine_lattice(seed)
    value = affine_eval(grid)
    for _ in range(3):
        assert affine_eval(relabelled(grid, rnd)) == value
