"""Seeded instance generators and their independent reference values.

Every generator takes a ``random.Random`` and returns plain inputs for the
program: signatures, rotation systems and grids whose vertex and half-edge
ids are ints or strings, so that they survive a JSON round trip.  Each
instance carries the value or verdict it must produce, computed by a route
that does not go through the solver under test.
"""

import itertools
import math
import random
from fractions import Fraction

from planar_holant.algebra import AN, ONE, ZERO, I, ZETA, AlgebraicNumber
from planar_holant.grid import PlanarGrid, Vertex
from planar_holant.sigcalc import (
    SymmetricSignature, Transform2x2, Z, all_but_one, degenerate, diag,
    equality, exact_one, gen_eq, sig, sym_n_n1, transform,
)


def op_rng(workload, seed, index):
    """The generator for op ``index`` of a run: one stream per op, so a
    prefix of a run does not depend on how many ops follow it."""
    return random.Random("%s:%d:%d" % (workload, seed, index))


# -- scalars -----------------------------------------------------------------

# small nonzero elements of Z[zeta_8], at most two nonzero coordinates
SMALL_WEIGHTS = [AN(1), AN(2), AN(3), AN(-1), I, -I, ZETA, ONE + I,
                 ONE + ZETA, AN(2) - I]


def small_weight(rnd):
    return rnd.choice(SMALL_WEIGHTS)


def cone_weight(rnd):
    """a + b*zeta with a in 1..3 and b in 0..1: every such weight lies within
    a 45 degree cone, so products over a few dozen of them rarely cancel."""
    return AlgebraicNumber(rnd.randint(1, 3), rnd.randint(0, 1))


def rand_nonzero(rnd):
    while True:
        x = AlgebraicNumber(rnd.randint(-4, 4), rnd.randint(-2, 2),
                            rnd.randint(-2, 2), 0)
        if not x.is_zero():
            return x


# tangent half-angles whose rotations have denominators 5 to 41, so that
# transforms of equal arity cost about the same
HALF_ANGLES = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
               Fraction(3, 4), Fraction(2, 5), Fraction(4, 5), Fraction(1, 5)]


def rand_orth(rnd):
    """A rational rotation from the tangent half-angle, times a reflection
    half of the time: T T^t = identity, so Pl-Holant complexity is kept."""
    t = rnd.choice(HALF_ANGLES) * rnd.choice((1, -1))
    c = AN(Fraction(1 - t * t, 1 + t * t))
    s = AN(Fraction(2 * t, 1 + t * t))
    H = Transform2x2(c, -s, s, c)
    if rnd.random() < 0.5:
        H = H @ diag(1, -1)
    return H


# -- planar lattices ----------------------------------------------------------

def lattice(k, m, tri=False):
    """The k-by-m grid graph, with a diagonal in every square when ``tri``.

    Returns (vertex ids, rotation, edges): int vertex ids r*m+c, half-edge
    ids "v.w", rotations counterclockwise from the plane embedding, and
    edges as (half, half) pairs.
    """
    pos = {r * m + c: (c, -r) for r in range(k) for c in range(m)}
    nbrs = {v: [] for v in pos}
    for r in range(k):
        for c in range(m):
            v = r * m + c
            right = [v + 1] if c + 1 < m else []
            down = [v + m] if r + 1 < k else []
            diag_ = [v + m + 1] if tri and right and down else []
            for w in right + down + diag_:
                nbrs[v].append(w)
                nbrs[w].append(v)
    rotation = {}
    for v, (x, y) in pos.items():
        ws = sorted(nbrs[v], key=lambda w: math.atan2(pos[w][1] - y,
                                                      pos[w][0] - x))
        rotation[v] = ["%d.%d" % (v, w) for w in ws]
    edges = [("%d.%d" % (v, w), "%d.%d" % (w, v))
             for v in pos for w in nbrs[v] if v < w]
    return list(pos), rotation, edges


def pm_reference_grid(vertices, rotation, weighted_edges):
    """The exact-one grid whose Holant is the weighted perfect matching
    sum: an exact-one vertex per graph vertex and a [1, 0, w] vertex on
    each edge."""
    verts = [Vertex(v, exact_one(len(rotation[v])), rotation[v])
             for v in vertices]
    edges = []
    for i, (a, b, w) in enumerate(weighted_edges):
        ha, hb = "w%d.a" % i, "w%d.b" % i
        verts.append(Vertex("w%d" % i, SymmetricSignature([ONE, ZERO, w]),
                            [ha, hb]))
        edges += [(a, ha), (b, hb)]
    return PlanarGrid(verts, edges)


def weighted_lattice(rnd, k, m, tri):
    vertices, rotation, edges = lattice(k, m, tri)
    weighted = [(a, b, small_weight(rnd)) for (a, b) in edges]
    return vertices, rotation, weighted


def signature_lattice(rnd, k, m, palette):
    """A k-by-m lattice grid whose vertices draw from ``palette[degree]``,
    a list of (signature, description) pairs.  Returns the grid and the
    description of each vertex's signature."""
    vertices, rotation, edges = lattice(k, m)
    verts, described = [], {}
    for v in vertices:
        f, what = rnd.choice(palette[len(rotation[v])])
        verts.append(Vertex(v, f, rotation[v]))
        described[v] = what
    return PlanarGrid(verts, edges), described


def product_palette(rnd, size=2):
    """Product-type signatures for degrees 2-4: generalized equalities
    ("eq", a, b) and degenerate signatures ("deg", u0, u1), with cone
    weights.  No binary disequality: on a lattice of equalities one would
    force a zero value."""
    pal = {}
    for d in (2, 3, 4):
        out = []
        for _ in range(size):
            x, y = cone_weight(rnd), cone_weight(rnd)
            if rnd.random() < 0.7:
                out.append((gen_eq(x, y, d), ("eq", x, y)))
            else:
                out.append((degenerate((x, y), d), ("deg", x, y)))
        pal[d] = out
    return pal


def affine_palette(rnd, size=2):
    """Affine signatures for degrees 2-4, as (signature, None) pairs:
    equalities, even-parity signatures and (1,1)-degenerates times a power
    of i.  With nonnegative entries up to that factor, a lattice of them is
    nonzero.  The degree-2 palette also holds one binary with an inner
    i-phase, so the corners exercise the quadratic part of the affine
    solver; such a lattice can sum to zero (about one in six)."""
    pal = {}
    for d in (2, 3, 4):
        out = []
        for _ in range(size):
            kind = rnd.randint(0, 2)
            if kind == 0:
                f = equality(d)
            elif kind == 1:
                f = degenerate((1, 1), d) + degenerate((1, -1), d)
            else:
                f = degenerate((1, 1), d)
            out.append((f.scale(I ** rnd.randint(0, 3)), None))
        pal[d] = out
    r = rnd.randint(1, 3)
    if rnd.random() < 0.5:
        phased = degenerate((1, 0), 2) + degenerate((0, 1), 2).scale(I ** r)
    else:
        phased = degenerate((1, I), 2) + degenerate((1, -I), 2).scale(I ** r)
    pal[2].append((phased, None))
    return pal


# -- signature sets with known verdicts ---------------------------------------
#
# Each maker takes the arity n of its slot and fixes how many signatures of
# which arities the set holds, so that one slot costs about the same in
# every cycle; only weights and transforms are drawn.

def set_case1(rnd, n):
    """Degenerate signatures and a non-degenerate binary (case 1)."""
    return [degenerate((rand_nonzero(rnd), rand_nonzero(rnd)), n),
            degenerate((rand_nonzero(rnd), rand_nonzero(rnd)), n - 1),
            sig([rand_nonzero(rnd), rand_nonzero(rnd), rand_nonzero(rnd)])
            ], True


def set_affine(rnd, n, arities=None):
    """Affine members of arities n and n + 1, or of ``arities``, moved by
    one orthogonal transform (case 2)."""
    H = rand_orth(rnd)
    F = []
    for a in arities or (n, n + 1):
        dirs = rnd.choice([((1, 0), (0, 1)), ((1, 1), (1, -1)),
                           ((1, I), (1, -I))])
        f = (degenerate(dirs[0], a)
             + degenerate(dirs[1], a).scale(I ** rnd.randint(0, 3)))
        F.append(transform(H, f.scale(rand_nonzero(rnd))))
    return F, True


def set_product(rnd, n):
    """Generalized equalities moved by one orthogonal transform (case 3)."""
    H = rand_orth(rnd)
    return [transform(H, gen_eq(rand_nonzero(rnd), rand_nonzero(rnd), a))
            for a in (n, n - 1)], True


def set_matchgate(rnd, n):
    """An exact-one and an even matchgate signature moved by one orthogonal
    transform (case 6); the matchgate ratio is a square in the field."""
    H = rand_orth(rnd)
    s = rnd.choice([AN(2), AN(3), ONE + I, ZETA, AN(2) * I])
    entries = [ZERO] * n
    val = rand_nonzero(rnd)
    for k in range(0, n, 2):
        entries[k] = val
        val = val * s * s
    return [transform(H, exact_one(n).scale(rand_nonzero(rnd))),
            transform(H, SymmetricSignature(entries))], True


def set_case7(rnd, n):
    """Z images of a weighted equality of arity 5 (10 for n >= 10) and of
    exact-ones or all-but-ones of arity 3 and 4 (case 7)."""
    base = exact_one if rnd.random() < 0.5 else all_but_one
    return [transform(Z, gen_eq(rand_nonzero(rnd), rand_nonzero(rnd),
                                5 * max(1, n // 5)))] + \
        [transform(Z, base(a).scale(rand_nonzero(rnd))) for a in (3, 4)], True


def _vanishing(rnd, n, plus):
    """A vanishing signature that is not in M4 (vanishing degree >= 2)."""
    low = (n - 1) // 2
    hat = [rand_nonzero(rnd) if k <= low else ZERO for k in range(n + 1)]
    if not plus:
        hat.reverse()
    return transform(Z, SymmetricSignature(hat))


def set_vanishing(rnd, n):
    """Vanishing signatures of one side (case 4/5)."""
    plus = rnd.random() < 0.5
    return [_vanishing(rnd, a, plus) for a in (n, n - 1)], True


def set_gcd_hard(rnd, n):
    """Z-side weighted equalities whose arities have gcd <= 4, with an
    exact-one of arity n."""
    arities = {3: (3,), 5: (4, 6), 7: (6, 8)}.get(n, (4, 10))
    F = [transform(Z, gen_eq(rand_nonzero(rnd), rand_nonzero(rnd), a))
         for a in arities]
    return F + [transform(Z, exact_one(n).scale(rand_nonzero(rnd)))], False


def set_mixed_vanishing(rnd, n):
    """Vanishing signatures from both sides."""
    m = max(4, n)
    return [_vanishing(rnd, m, True), _vanishing(rnd, m - 1, False)], False


def set_double_root(rnd, n):
    """Sym(u^{n-1} v) with <u, v> != 0 and u not isotropic, moved by an
    orthogonal transform."""
    H = rand_orth(rnd)
    k = rnd.randint(0, 2)
    v0 = rnd.randint(1, 3)
    v1 = rnd.choice([x for x in range(1, 4) if x != k * v0])
    u, v = (ONE, AN(k)), (AN(v0), AN(v1))
    return [transform(H, sym_n_n1(u, v, n))], False


def set_generic(rnd, n):
    """A dense random signature, outside every tractable family."""
    return [sig([rand_nonzero(rnd) for _ in range(n + 1)])], False


def set_two_ends(rnd, n):
    """Z image of [a, b, 0, ..., 0, c]: in no family, not vanishing."""
    m = max(4, n)
    hat = [rand_nonzero(rnd), rand_nonzero(rnd)] + [ZERO] * (m - 2) + \
        [rand_nonzero(rnd)]
    return [transform(Z, SymmetricSignature(hat))], False


def set_rational_matchgate(rnd, n):
    """An even matchgate signature whose ratio is not a square in the field,
    such as [1, 0, 3, 0, 9].  Tractable by FKT with T = I."""
    r = rnd.choice([AN(3), AN(5), AN(6), AN(7)])
    entries = [ZERO] * (n + 1)
    val = rand_nonzero(rnd)
    for k in range(0, n + 1, 2):
        entries[k] = val
        val = val * r
    return [SymmetricSignature(entries)], True


# -- grids for the solver routes ----------------------------------------------

def icosahedron():
    """(darts per vertex, faces) of the icosahedron, with string ids; the
    faces are traced from the rotation system."""
    rot = {"T": ["u%d" % i for i in range(4, -1, -1)],
           "B": ["l%d" % i for i in range(5)]}
    for i in range(5):
        rot["u%d" % i] = ["T", "u%d" % ((i + 1) % 5), "l%d" % i,
                          "l%d" % ((i - 1) % 5), "u%d" % ((i - 1) % 5)]
        rot["l%d" % i] = ["B", "l%d" % ((i - 1) % 5), "u%d" % i,
                          "u%d" % ((i + 1) % 5), "l%d" % ((i + 1) % 5)]
    darts = {v: ["%s>%s" % (v, w) for w in ws] for v, ws in rot.items()}
    nxt = {}
    for v, ds in darts.items():
        for i, d in enumerate(ds):
            nxt[d] = ds[(i + 1) % len(ds)]
    faces, seen = [], set()
    for d0 in sorted(nxt):
        if d0 in seen:
            continue
        face, d = [], d0
        while d not in seen:
            seen.add(d)
            face.append(d)
            v, w = d.split(">")
            d = nxt["%s>%s" % (w, v)]
        faces.append(face)
    return darts, faces


def eo_incidence(rnd, eq_pal, eo_pal):
    """The case-7 incidence instance of the icosahedron, in two forms.

    EO side: a weighted 5-ary equality per vertex, an exact-one per face,
    and a [0, 2, 0] disequality on every incidence.  Z side: the same
    instance before ``two_stretch`` and the Z transform, with the Z images
    of those signatures joined by plain edges.  The two have one value.
    Returns (Z-side grid, EO-side grid).
    """
    darts, faces = icosahedron()
    face_of = {d: fi for fi, face in enumerate(faces) for d in face}
    sigs, edges = {}, []
    for fi, face in enumerate(faces):
        sigs["f%d" % fi] = (rnd.choice(eo_pal),
                            ["f%d:%s" % (fi, d) for d in reversed(face)])
    for v, ds in darts.items():
        sigs["b" + v] = (rnd.choice(eq_pal), ["b%s:%s" % (v, d) for d in ds])
        edges += [("b%s:%s" % (v, d), "f%d:%s" % (face_of[d], d)) for d in ds]
    return _two_forms(sigs, edges)


def hard_grid(rnd, n_edges_max=10):
    """A small cycle-with-hub multigraph of dense random signatures."""
    while True:
        n = rnd.randint(2, 4)
        halves = itertools.count()
        rots = {v: [] for v in range(n)}
        edges = []
        bundles = []
        for v in range(n):
            a_side, b_side = [], []
            for _ in range(rnd.randint(1, 2)):
                x, y = "h%d" % next(halves), "h%d" % next(halves)
                a_side.append(x)
                b_side.append(y)
                edges.append((x, y))
            bundles.append((v, (v + 1) % n, a_side, b_side))
        for v, w, a_side, b_side in bundles:
            rots[v].extend(a_side)
        for v, w, a_side, b_side in bundles:
            rots[w] = list(reversed(b_side)) + rots[w]
        hub = []
        for v in sorted(rnd.sample(range(n), rnd.randint(1, n))):
            x, y = "h%d" % next(halves), "h%d" % next(halves)
            rots[v].append(x)
            hub.append(y)
            edges.append((x, y))
        rots[n] = hub
        if (len(edges) <= n_edges_max
                and all(len(r) >= 2 for r in rots.values())):
            break
    verts = [Vertex(v, sig([rand_nonzero(rnd) for _ in range(len(r) + 1)]), r)
             for v, r in rots.items()]
    return PlanarGrid(verts, edges)


def gadget_grid(rnd):
    """A small exact-one or [1,0,a] chain gadget with dangling edges."""
    kind = rnd.randint(0, 2)
    if kind == 0:
        rot = {0: ["0_1", "0_2", "d0"], 1: ["1_2", "1_0", "d1"],
               2: ["d2", "2_0", "2_1"]}
        edges = [("0_1", "1_0"), ("1_2", "2_1"), ("2_0", "0_2")]
        verts = [Vertex(v, exact_one(3).scale(small_weight(rnd)), rot[v])
                 for v in rot]
        return PlanarGrid(verts, edges, dangling=["d0", "d1", "d2"])
    if kind == 1:
        rot = {1: ["1_2", "1_3", "d1", "1_5"], 2: ["2_7", "2_3", "2_1", "2_5"],
               3: ["d3", "3_1", "3_2", "3_7"], 5: ["5_7", "5_2", "5_1", "d5"],
               7: ["d7", "7_3", "7_2", "7_5"]}
        edges = [("1_2", "2_1"), ("1_3", "3_1"), ("1_5", "5_1"),
                 ("2_3", "3_2"), ("2_5", "5_2"), ("2_7", "7_2"),
                 ("3_7", "7_3"), ("5_7", "7_5")]
        verts = [Vertex(v, exact_one(4).scale(small_weight(rnd)), rot[v])
                 for v in rot]
        return PlanarGrid(verts, edges, dangling=["d1", "d5", "d7", "d3"])
    k = rnd.randint(2, 3)
    a = small_weight(rnd)
    fhat = sig([1, 0, 0, 0, a])
    verts = [Vertex("tri", sig([1, 0, a]), ["d0", "t_r"])]
    edges, ups, downs = [], [], []
    left = "t_r"
    for j in range(1, k):
        verts.append(Vertex("sq%d" % j, equality(2),
                            ["s%d_l" % j, "s%d_r" % j]))
        edges.append((left, "s%d_l" % j))
        verts.append(Vertex("c%d" % j, fhat, ["c%d_l" % j, "dn%d" % j,
                                              "c%d_r" % j, "up%d" % j]))
        edges.append(("s%d_r" % j, "c%d_l" % j))
        ups.append("up%d" % j)
        downs.append("dn%d" % j)
        left = "c%d_r" % j
    return PlanarGrid(verts, edges,
                      dangling=["d0"] + downs + [left] + list(reversed(ups)))


def hypergraph_flowers(rnd, sizes):
    """Disjoint hyperedges of the given sizes, each doubled by a twin over
    the same vertices half of the time, so the matching count is a power
    of two.  Returns the hypergraph JSON document."""
    inc = itertools.count()
    rotation, hyperedges, vertices = {}, [], []
    for hi, size in enumerate(sizes):
        members = ["v%d_%d" % (hi, j) for j in range(size)]
        vertices += members
        slots = []
        for v in members:
            x = "i%d" % next(inc)
            rotation[v] = [x]
            slots.append(x)
        rotation["h%d" % hi] = slots
        hyperedges.append(("h%d" % hi, members))
        if rnd.random() < 0.5:
            slots = []
            for v in reversed(members):
                x = "i%d" % next(inc)
                rotation[v] = [x] + rotation[v]
                slots.append(x)
            rotation["t%d" % hi] = slots
            hyperedges.append(("t%d" % hi, list(reversed(members))))
    return {"vertices": vertices,
            "hyperedges": [{"id": h, "members": m} for h, m in hyperedges],
            "rotation": rotation}


def hypergraph_lattice(rnd, k, m):
    """The k-by-m lattice as a hypergraph of size-2 hyperedges.  Every id
    is shifted by a random seven-digit offset, so no two draws give the
    same document, while the ids keep their order as numbers and as
    strings."""
    vertices, rotation, edges = lattice(k, m)
    off = rnd.randrange(10 ** 6, 9 * 10 ** 6)

    def half(h):
        v, w = h.split(".")
        return "%d.%d" % (int(v) + off, int(w) + off)

    owner = {half(h): v + off for v, hs in rotation.items() for h in hs}
    doc_rot = {str(v + off): [half(h) for h in hs]
               for v, hs in rotation.items()}
    hyperedges = []
    for i, (a, b) in enumerate(edges):
        e, a, b = "e%d" % (i + off), half(a), half(b)
        doc_rot[e] = [b, a]
        hyperedges.append({"id": e, "members": [owner[a], owner[b]]})
    return {"vertices": [v + off for v in vertices],
            "hyperedges": hyperedges, "rotation": doc_rot}


def case7_grid(rnd, eq_pal, k=5):
    """A closed case-7 instance whose value is nonzero by construction.

    A cycle of 4 or 6 weighted equalities; consecutive ones are joined by
    1-2 parallel strands, some through an exact-one of arity 2, and an
    exact-one hub is joined to one even-numbered and every odd-numbered
    equality.  With the equalities reading 0, 1, 0, 1, ... around the cycle
    every exact-one sees exactly one 1, and unary pins on each equality
    (which pad its arity to a multiple of k) force those readings, so
    exactly one assignment contributes.  Returns (Z-side grid, EO-side
    grid) as ``eo_incidence`` does.
    """
    n = rnd.choice((4, 6))
    halves = itertools.count()

    def half():
        return "h%d" % next(halves)

    pin_pal = [small_weight(rnd) for _ in range(2)]
    eo2_pal = [exact_one(2).scale(small_weight(rnd)) for _ in range(2)]
    rots = {"v%d" % v: [] for v in range(n)}
    edges, bundles, sigs = [], [], {}
    for v in range(n):
        a_side, b_side = [], []
        for j in range(rnd.randint(1, 2)):
            x, y = half(), half()
            a_side.append(x)
            b_side.append(y)
            if rnd.random() < 0.3:
                p, q = half(), half()
                sigs["t%d_%d" % (v, j)] = (rnd.choice(eo2_pal), [p, q])
                edges += [(x, p), (q, y)]
            else:
                edges.append((x, y))
        bundles.append(("v%d" % v, "v%d" % ((v + 1) % n), a_side, b_side))
    for v, w, a_side, b_side in bundles:
        rots[v].extend(a_side)
    for v, w, a_side, b_side in bundles:
        rots[w] = list(reversed(b_side)) + rots[w]
    hub = []
    for v in sorted([rnd.randrange(0, n, 2)] + list(range(1, n, 2))):
        x, y = half(), half()
        rots["v%d" % v].append(x)
        hub.append(y)
        edges.append((x, y))
    sigs["hub"] = (exact_one(len(hub)).scale(small_weight(rnd)), hub)
    for v in range(n):
        vid = "v%d" % v
        for j in range((-len(rots[vid])) % k):
            x, y = half(), half()
            rots[vid].append(x)
            edges.append((x, y))
            w = rnd.choice(pin_pal)
            # the pin reads 1 - (v % 2) through its disequality edge
            sigs["%sp%d" % (vid, j)] = (sig([w, 0] if v % 2 else [0, w]), [y])
        a, b = rnd.choice(eq_pal)
        sigs[vid] = (gen_eq(a, b, len(rots[vid])), rots[vid])
    return _two_forms(sigs, edges)


def _two_forms(sigs, edges):
    """(Z-side grid, EO-side grid) from EO-side signatures and raw edges."""
    z_verts = [Vertex(v, transform(Z, f), rot) for v, (f, rot) in sigs.items()]
    eo_verts = [Vertex(v, f, rot) for v, (f, rot) in sigs.items()]
    side = {v: "R" for v in sigs}
    eo_edges = []
    for i, (x, y) in enumerate(edges):
        la, lb = "n%d.a" % i, "n%d.b" % i
        eo_verts.append(Vertex("n%d" % i, sig([0, 2, 0]), [la, lb]))
        side["n%d" % i] = "L"
        eo_edges += [(x, la), (y, lb)]
    return (PlanarGrid(z_verts, edges),
            PlanarGrid(eo_verts, eo_edges, side=side))


# -- independent references ---------------------------------------------------

def product_holant(grid, described):
    """The Holant of a grid of generalized equalities and degenerate
    signatures, in closed form from their descriptions.

    A degenerate u^{tensor d} sends the unary u along each of its edges;
    equalities joined by edges share one value, so each cluster of them
    sums two products, and an edge between two degenerates is <u, w>.
    """
    owner = grid.half_owner
    parent = {v: v for v in grid.vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    unaries = {v: [] for v in grid.vertices}
    total = grid.scalar
    for (a, b) in grid.edges:
        u, w = owner[a], owner[b]
        ku, kw = described[u][0], described[w][0]
        if ku == kw == "eq":
            parent[find(u)] = find(w)
        elif ku == kw == "deg":
            total = total * (described[u][1] * described[w][1]
                             + described[u][2] * described[w][2])
        elif ku == "eq":
            unaries[u].append(described[w][1:])
        else:
            unaries[w].append(described[u][1:])
    clusters = {}
    for v in grid.vertices:
        if described[v][0] == "eq":
            clusters.setdefault(find(v), []).append(v)
    for members in clusters.values():
        side = []
        for x in (0, 1):
            p = ONE
            for v in members:
                p = p * described[v][1 + x]
                for un in unaries[v]:
                    p = p * un[x]
            side.append(p)
        total = total * (side[0] + side[1])
    return total


def lattice_pm(k, m, tri, weight):
    """Weighted perfect matchings of ``lattice(k, m, tri)`` by a row-major
    transfer over which of the next m + 2 vertices are already matched.
    ``weight(v, w)`` gives the weight of edge v-w for v < w."""
    n = k * m
    states = {0: ONE}
    for v in range(n):
        r, c = divmod(v, m)
        partners = []
        if c + 1 < m:
            partners.append(1)
        if r + 1 < k:
            partners.append(m)
            if tri and c + 1 < m:
                partners.append(m + 1)
        nxt = {}
        for mask, val in states.items():
            if mask & 1:
                key = mask >> 1
                nxt[key] = nxt.get(key, ZERO) + val
                continue
            for d in partners:
                if not mask >> d & 1:
                    key = (mask | 1 << d) >> 1
                    nxt[key] = nxt.get(key, ZERO) + val * weight(v, v + d)
        states = nxt
    return states.get(0, ZERO)


def count_exact_covers(doc):
    """Perfect matchings of a hypergraph document by exact-cover search."""
    edges = [frozenset(h["members"]) for h in doc["hyperedges"]]
    by_vertex = {v: [e for e in edges if v in e] for v in doc["vertices"]}

    def search(uncovered):
        if not uncovered:
            return 1
        v = min(uncovered, key=lambda x: len(by_vertex[x]))
        return sum(search(uncovered - e) for e in by_vertex[v]
                   if e <= uncovered)

    return AN(search(frozenset(doc["vertices"])))


def naive_gate(grid):
    """The gate signature by enumerating every internal edge assignment."""
    m = len(grid.dangling)
    ents = []
    for idx in range(1 << m):
        bits = {h: (idx >> (m - 1 - i)) & 1
                for i, h in enumerate(grid.dangling)}
        ents.append(grid.scalar * naive_holant(grid, bits))
    return ents


def naive_holant(grid, pinned=None):
    """Sum over all assignments of the matched edges; O(2^edges)."""
    pinned = pinned or {}
    total = ZERO
    for bits in itertools.product((0, 1), repeat=len(grid.edges)):
        val = dict(pinned)
        for (a, b), x in zip(grid.edges, bits):
            val[a] = val[b] = x
        w = ONE
        for v in grid.vertices.values():
            w = w * v.sig[sum(val[h] for h in v.rotation)]
            if w.is_zero():
                break
        total = total + w
    return total
