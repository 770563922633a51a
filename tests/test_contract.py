"""Brute-force contraction against a plain enumeration.

``grid._contract`` opens each variable at its first end and sums it out at
its last; these tests check it, and the ``holant``/``gate_signature``
readings of it, against enumerations written here from the definition.
"""

import itertools
import random

import planar_holant.grid as grid_module
from planar_holant.algebra import AlgebraicNumber, ONE, ZERO
from planar_holant.grid import PlanarGrid, Vertex
from planar_holant.sigcalc import GeneralSignature, SymmetricSignature


def entry(s, bits):
    """The entry of a vertex signature on its inputs in rotation order."""
    if isinstance(s, SymmetricSignature):
        return s[sum(bits)]
    return s.value(bits)


def enumerated_sums(grid):
    """{dangling bits: nonzero sum}: every assignment of the matched edges
    and the dangling half-edges, one product of vertex entries each."""
    sums = {}
    m = len(grid.dangling)
    for bits in itertools.product((0, 1), repeat=len(grid.edges) + m):
        val = dict(zip(grid.dangling, bits[:m]))
        for (a, b), x in zip(grid.edges, bits[m:]):
            val[a] = val[b] = x
        term = ONE
        for v in grid.vertices.values():
            term = term * entry(v.sig, [val[h] for h in v.rotation])
        sums[bits[:m]] = sums.get(bits[:m], ZERO) + term
    return {k: w for k, w in sums.items() if not w.is_zero()}


def old_contract(grid, pinned):
    """The former contraction, one run per dangling assignment ``pinned``:
    pinned, closing and fresh slots and the two halves of each self-loop
    kept apart."""
    edge_of = grid.edge_index()
    states = {(): ONE}
    open_edges = []
    for vid in grid_module._vertex_order(grid):
        v = grid.vertices[vid]
        fixed, closing, fresh, loop_first, loop_pairs = {}, {}, [], {}, {}
        for i, h in enumerate(v.rotation):
            if h in pinned:
                fixed[i] = pinned[h]
                continue
            ei = edge_of[h]
            if grid.half_owner[grid.partner[h]] == vid:
                if ei in loop_first:
                    loop_pairs[i] = loop_first[ei]
                else:
                    loop_first[ei] = i
            elif ei in open_edges:
                closing[i] = open_edges.index(ei)
            else:
                fresh.append(i)
        closed = {open_edges[p] for p in closing.values()}
        keep_pos = [p for p, e in enumerate(open_edges) if e not in closed]
        enum_slots = fresh + sorted(loop_first.values())
        new_states = {}
        for key, weight in states.items():
            base = [None] * len(v.rotation)
            for i, bit in fixed.items():
                base[i] = bit
            for i, pos in closing.items():
                base[i] = key[pos]
            kept = tuple(key[p] for p in keep_pos)
            for mask in range(1 << len(enum_slots)):
                bits = list(base)
                for j, i in enumerate(enum_slots):
                    bits[i] = (mask >> j) & 1
                for i, first in loop_pairs.items():
                    bits[i] = bits[first]
                val = entry(v.sig, bits)
                if val.is_zero():
                    continue
                nkey = kept + tuple(bits[i] for i in fresh)
                new_states[nkey] = new_states.get(nkey, ZERO) + weight * val
        open_edges = [open_edges[p] for p in keep_pos] + \
            [edge_of[v.rotation[i]] for i in fresh]
        states = new_states
    total = ZERO
    for w in states.values():
        total = total + w
    return total


def small(rnd):
    return AlgebraicNumber(rnd.randint(-2, 2), rnd.randint(-1, 1), 0, 0)


def random_grid(seed, connected=False):
    """A seeded grid with no planarity asked of it: 1-5 vertices, up to 7
    matched edges with self-loops and parallel edges, up to 3 dangling
    half-edges (often on a vertex with a self-loop), isolated vertices,
    signatures that are zero, and in every third grid one general
    (non-symmetric) signature.  With ``connected``, the edges begin with a
    spanning tree, as a gate needs.  Returns the grid and the features it
    has."""
    rnd = random.Random("contract-%d" % seed)
    n = rnd.randint(1, 5)
    halves = itertools.count()
    rots = {v: [] for v in range(n)}
    ends = [(v, rnd.randrange(v)) for v in range(1, n)] if connected else []
    ends += [(rnd.randrange(n), rnd.randrange(n))
             for _ in range(rnd.randint(0, 7 - len(ends)))]
    edges = []
    for a, b in ends:
        x, y = next(halves), next(halves)
        rots[a].append(x)
        rots[b].append(y)
        edges.append((x, y))
    loops = sorted({a for a, b in ends if a == b})
    dangling = []
    for _ in range(rnd.randint(0, 3)):
        v = rnd.choice(loops) if loops and rnd.random() < 0.5 \
            else rnd.randrange(n)
        h = "d%d" % next(halves)
        rots[v].append(h)
        dangling.append(h)
    general = rnd.randrange(n) if seed % 3 == 0 else None
    verts = []
    for v, rot in rots.items():
        rnd.shuffle(rot)
        k = len(rot)
        if v == general:
            f = GeneralSignature(k, [small(rnd) for _ in range(1 << k)])
        elif rnd.random() < 0.1:
            f = SymmetricSignature([ZERO] * (k + 1))
        else:
            f = SymmetricSignature([small(rnd) for _ in range(k + 1)])
        verts.append(Vertex(v, f, rot))
    scalar = small(rnd)
    g = PlanarGrid(verts, edges, dangling,
                   scalar=ONE if scalar.is_zero() else scalar)
    features = {
        "self-loop": bool(loops),
        "parallel": any(ends.count((a, b)) + ends.count((b, a)) > 1
                        for a, b in ends if a != b),
        "dangling on a loop vertex": any(g.half_owner[h] in loops
                                         for h in dangling),
        "isolated": any(not rot for rot in rots.values()),
        "zero signature": any(isinstance(u.sig, SymmetricSignature)
                              and u.sig.is_zero() for u in verts),
        "general": general is not None,
    }
    return g, features


def test_contraction_matches_enumeration_on_seeded_grids():
    seen = dict.fromkeys(random_grid(0)[1], 0)
    for seed in range(240):
        g, features = random_grid(seed)
        assert grid_module._contract(g) == enumerated_sums(g), seed
        for name, present in features.items():
            seen[name] += present
    assert all(count >= 10 for count in seen.values()), seen


def test_holant_and_gate_read_the_one_contraction():
    for seed in range(240):
        g, _ = random_grid(seed, connected=True)
        sums = enumerated_sums(g)
        if not g.dangling:
            assert g.holant(cap=10) == g.scalar * sums.get((), ZERO), seed
            continue
        m = len(g.dangling)
        want = [g.scalar * sums.get(bits, ZERO)
                for bits in itertools.product((0, 1), repeat=m)]
        assert list(g.gate_signature(cap=10).entries) == want, seed


def test_gate_entries_match_the_former_per_assignment_loop():
    gates = 0
    for seed in range(240):
        g, _ = random_grid(seed, connected=True)
        m = len(g.dangling)
        if not m:
            continue
        gates += 1
        old = [g.scalar * old_contract(g, {
                   h: (idx >> (m - 1 - i)) & 1
                   for i, h in enumerate(g.dangling)})
               for idx in range(1 << m)]
        assert list(g.gate_signature(cap=10).entries) == old, seed
    assert gates >= 100


def test_gate_of_any_grid_reads_the_one_contraction():
    # without a spanning tree: disconnected gates, isolated vertices, and
    # components with no dangling edge, whose sum scales every entry
    components = 0
    for seed in range(240):
        g, _ = random_grid(seed)
        m = len(g.dangling)
        if not m:
            continue
        sums = enumerated_sums(g)
        want = [g.scalar * sums.get(bits, ZERO)
                for bits in itertools.product((0, 1), repeat=m)]
        assert list(g.gate_signature(cap=10).entries) == want, seed
        components += len(set(
            grid_module._embedding(g._rotations(), g.half_owner,
                                   g.partner)[1].values())) > 1
    assert components >= 50, components


def test_general_signature_is_read_in_rotation_order():
    # f(x1, x2) = 1 only at x1 = 0, x2 = 1; the gate pins x2 through an edge
    f = GeneralSignature(2, [0, 1, 0, 0])
    g = PlanarGrid([Vertex("f", f, ["x1", "x2"]),
                    Vertex("u", SymmetricSignature([0, 1]), ["y"])],
                   [("x2", "y")], dangling=["x1"])
    assert list(g.gate_signature().entries) == [ONE, ZERO]
    mirrored = PlanarGrid([Vertex("f", f, ["x2", "x1"]),
                           Vertex("u", SymmetricSignature([0, 1]), ["y"])],
                          [("x2", "y")], dangling=["x1"])
    assert list(mirrored.gate_signature().entries) == [ZERO, ZERO]


def test_gate_bits_follow_the_dangling_order():
    # a vertex with a self-loop between its two dangling ends
    f = GeneralSignature(4, range(16))
    gates = []
    for dangling in (["a", "b"], ["b", "a"]):
        g = PlanarGrid([Vertex(0, f, ["a", "l0", "l1", "b"])],
                       [("l0", "l1")], dangling=dangling)
        assert grid_module._contract(g) == enumerated_sums(g)
        gates.append(g.gate_signature().entries)
    # f(a, t, t, b) summed over t is 16a + 2b + 6: swapping a, b transposes
    assert [str(e) for e in gates[0]] == ["6", "8", "22", "24"]
    assert [gates[1][2 * b + a] for a in (0, 1) for b in (0, 1)] == \
        list(gates[0])
