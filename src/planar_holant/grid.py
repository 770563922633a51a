"""Planar signature grids with rotation systems.

A grid is a set of vertices carrying signatures, a counterclockwise rotation
(cyclic list of half-edge ids) per vertex, matched edges as unordered pairs
of half-edge ids, and an ordered list of dangling half-edges for F-gates.
Faces come from rotation-system traversal; planarity is verified through the
Euler formula per connected component, never computed.  One pass over an
embedding, ``_embedding``, gives its faces, components and a spanning forest.
"""

import itertools
import json
import os

from .algebra import AN, ONE, ZERO
from .sigcalc import (
    GeneralSignature,
    SymmetricSignature,
    equality,
    row_transform,
    transform,
)


class StructureError(ValueError):
    pass


class EmbeddingError(ValueError):
    pass


class OrderError(EmbeddingError):
    pass


class TooLarge(RuntimeError):
    pass


class NotBipartite(ValueError):
    pass


class SingularTransform(ValueError):
    pass


DEFAULT_CAP = 24


def edge_cap(override=None):
    """The brute-force edge cap: ``override``, else $HOLANT_CAP, else
    DEFAULT_CAP; ValueError unless it is an integer >= 0."""
    if override is None:
        override = int(os.environ.get("HOLANT_CAP") or DEFAULT_CAP)
    if override < 0:
        raise ValueError("the edge cap must be >= 0, got %d" % override)
    return override


class Vertex:
    __slots__ = ("id", "sig", "rotation")

    def __init__(self, vid, sig, rotation):
        self.id = vid
        self.sig = sig
        self.rotation = tuple(rotation)


class PlanarGrid:
    def __init__(self, vertices, edges, dangling=(), side=None, scalar=ONE):
        self.vertices = {v.id: v for v in vertices}
        if len(self.vertices) != len(vertices):
            raise StructureError("duplicate vertex ids")
        self.edges = [tuple(e) for e in edges]
        self.dangling = tuple(dangling)
        self.side = dict(side) if side else {}
        self.scalar = AN(scalar)
        self._index()

    def _index(self):
        for v in self.vertices.values():
            if len(v.rotation) != v.sig.arity:
                raise StructureError(
                    "vertex %r degree %d != signature arity %d"
                    % (v.id, len(v.rotation), v.sig.arity))
        self.half_owner, self.partner = _link(
            {v.id: v.rotation for v in self.vertices.values()}, self.edges,
            self.dangling)

    def edge_index(self):
        """Half-edge id -> index of its edge in ``edges``."""
        return {h: ei for ei, e in enumerate(self.edges) for h in e}

    # -- faces and planarity ------------------------------------------------

    def faces(self):
        """Face orbits of the rotation system, as lists of out-dart half-edges.

        Dangling half-edges are ignored; only matched darts trace faces.
        """
        return _trace_faces((v.rotation for v in self.vertices.values()),
                            self.partner)

    def _rotations(self):
        return {v.id: v.rotation for v in self.vertices.values()}

    def validate(self):
        """(faces, genus_ok): Euler characteristic 2 per component.

        Dangling edges are closed off through a virtual outer vertex whose
        rotation reverses the declared counterclockwise order, which also
        checks that the dangling edges can sit on a common outer face.
        """
        rotations = self._rotations()
        if not self.dangling:
            faces, _, _, ok = _embedding(rotations, self.half_owner,
                                         self.partner)
            return faces, ok
        virt_halves = ["__virt_%d" % k for k in range(len(self.dangling))]
        closed = dict(rotations)
        closed[_VIRTUAL] = list(reversed(virt_halves))
        faces, _, _, ok = _embedding(closed, *_link(
            closed, self.edges + list(zip(self.dangling, virt_halves))))
        if not ok and _embedding(rotations, self.half_owner, self.partner)[3]:
            raise OrderError("dangling order inconsistent with an outer face")
        return faces, ok

    # -- evaluation -----------------------------------------------------------

    def holant(self, cap=None):
        """Exact Holant value by frontier contraction over all edge assignments."""
        if self.dangling:
            raise StructureError("holant needs a closed grid; use gate_signature")
        self._check_cap(cap)
        return self.scalar * _contract(self, {})

    def _check_cap(self, cap):
        if len(self.edges) > edge_cap(cap):
            raise TooLarge("edge count %d over cap %d"
                           % (len(self.edges), edge_cap(cap)))

    def gate_signature(self, cap=None):
        """The F-gate signature over the dangling edges, as a GeneralSignature."""
        if not self.dangling:
            raise StructureError("gate needs dangling edges")
        label = _embedding(self._rotations(), self.half_owner, self.partner)[1]
        if len(set(label.values())) > 1:
            raise StructureError("multi-component gates are not supported")
        self._check_cap(cap)
        m = len(self.dangling)
        ents = []
        for idx in range(1 << m):
            pins = {h: (idx >> (m - 1 - i)) & 1 for i, h in enumerate(self.dangling)}
            ents.append(self.scalar * _contract(self, pins))
        return GeneralSignature(m, ents)


# the id of the virtual vertex that closes off dangling edges in validate
_VIRTUAL = object()


def _link(rotations, edges, dangling=()):
    """(half_owner, partner) of a rotation system.

    ``rotations`` maps each vertex id to its half-edge ids and ``edges``
    pairs half-edges; every half-edge must be in exactly one edge or in
    ``dangling``.
    """
    half_owner = {}
    for vid, rot in rotations.items():
        for h in rot:
            if h in half_owner:
                raise StructureError("half-edge %r used twice" % (h,))
            half_owner[h] = vid
    partner = {}
    seen = set()
    for (a, b) in edges:
        for h in (a, b):
            if h not in half_owner:
                raise StructureError("edge uses unknown half-edge %r" % (h,))
            if h in seen:
                raise StructureError("half-edge %r in two edges" % (h,))
            seen.add(h)
        partner[a] = b
        partner[b] = a
    for h in dangling:
        if h not in half_owner:
            raise StructureError("dangling unknown half-edge %r" % (h,))
        if h in seen:
            raise StructureError("half-edge %r both matched and dangling" % (h,))
        seen.add(h)
    missing = set(half_owner) - seen
    if missing:
        raise StructureError("half-edges neither matched nor dangling: %r"
                             % sorted(missing))
    return half_owner, partner


def _trace_faces(rotations, partner):
    """Face orbits of the rotation system given by the half-edge lists in
    ``rotations``, as lists of out-dart half-edges; half-edges without a
    partner are skipped.  Orbits start at their least half-edge by repr."""
    nxt = {}
    for rot in rotations:
        rot = [h for h in rot if h in partner]
        nxt.update(zip(rot, rot[1:] + rot[:1]))
    faces, seen = [], set()
    for h0 in sorted(nxt, key=repr):
        if h0 not in seen:
            face, h = [h0], nxt[partner[h0]]
            while h != h0:
                face.append(h)
                h = nxt[partner[h]]
            seen.update(face)
            faces.append(face)
    return faces


def _embedding(rotations, half_owner, partner):
    """(faces, component, tree, ok) of the rotation system ``rotations``
    (vertex id -> half-edge ids): the face orbits; from one depth-first
    search, a component label 0, 1, ... per vertex and the spanning forest
    it followed (the half each forest edge was left by); and whether every
    component has V - E + F = 2, an edgeless one counting one face."""
    faces = _trace_faces(rotations.values(), partner)
    component, tree, count = {}, [], []  # count per label: [V - E, F]
    for root in rotations:
        if root in component:
            continue
        component[root] = len(count)
        stack, n_vertices, n_halves = [root], 0, 0
        while stack:
            v = stack.pop()
            n_vertices += 1
            for h in rotations[v]:
                if h in partner:
                    n_halves += 1
                    w = half_owner[partner[h]]
                    if w not in component:
                        component[w] = len(count)
                        tree.append(h)
                        stack.append(w)
        count.append([n_vertices - n_halves // 2, 0])
    for face in faces:
        count[component[half_owner[face[0]]]][1] += 1
    return faces, component, tree, all(ve + max(f, 1) == 2 for ve, f in count)


class _DisjointSet:
    """Union-find over hashable elements, added on first use, that also
    tracks the parity of each element relative to its root."""

    def __init__(self):
        self.parent = {}
        self.offset = {}

    def locate(self, x):
        """(root of x, parity of x relative to its root)."""
        path = []
        while self.parent.setdefault(x, x) != x:
            path.append(x)
            x = self.parent[x]
        off = 0
        for node in reversed(path):
            off ^= self.offset[node]
            self.offset[node] = off
            self.parent[node] = x
        return x, off

    def find(self, x):
        return self.locate(x)[0]

    def union(self, a, b, parity=0):
        """Record parity(a) xor parity(b) = parity, putting the root of a
        under the root of b; False when that contradicts what is known."""
        ra, oa = self.locate(a)
        rb, ob = self.locate(b)
        if ra == rb:
            return oa ^ ob == parity
        self.parent[ra] = rb
        self.offset[ra] = oa ^ ob ^ parity
        return True


def _contract(grid, pinned):
    """Sum over assignments of matched edges; dangling bits fixed by `pinned`."""
    edge_of = grid.edge_index()
    states = {(): ONE}
    open_edges = []  # edges with exactly one processed endpoint, in state-key order
    for vid in _vertex_order(grid):
        v = grid.vertices[vid]
        fixed = {}       # slot -> pinned bit
        closing = {}     # slot -> position in open_edges
        fresh = []       # slots opening edges toward unprocessed vertices
        loop_first = {}  # self-loop edge id -> first slot
        loop_pairs = {}  # second self-loop slot -> first slot
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
        deg = len(v.rotation)
        for key, weight in states.items():
            base = [None] * deg
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
                val = _sig_value(v.sig, bits)
                if val.is_zero():
                    continue
                nkey = kept + tuple(bits[i] for i in fresh)
                w = weight * val
                if nkey in new_states:
                    new_states[nkey] = new_states[nkey] + w
                else:
                    new_states[nkey] = w
        open_edges = [open_edges[p] for p in keep_pos] + \
            [edge_of[v.rotation[i]] for i in fresh]
        states = new_states
        if not states:
            return ZERO
    total = ZERO
    for key, w in states.items():
        assert key == ()
        total = total + w
    return total


def _sig_value(s, bits):
    if isinstance(s, SymmetricSignature):
        return s[sum(bits)]
    return s.value(bits)


def _vertex_order(grid):
    """Greedy order keeping the open frontier small."""
    adj = {v: set() for v in grid.vertices}
    for (a, b) in grid.edges:
        va, vb = grid.half_owner[a], grid.half_owner[b]
        if va != vb:
            adj[va].add(vb)
            adj[vb].add(va)
    order, placed, remaining = [], set(), set(grid.vertices)
    while remaining:
        # fewest edges out of the placed set minus edges into it
        best = min(remaining, key=lambda v: (
            len(adj[v] - placed) - len(adj[v] & placed), repr(v)))
        order.append(best)
        placed.add(best)
        remaining.discard(best)
    return order


# -- grid rewrites -----------------------------------------------------------

def _fresh_ids(grid, count):
    """The first ``count`` of "s0", "s1", ... that grid does not use."""
    ids = ("s%d" % k for k in itertools.count())
    return list(itertools.islice(
        (h for h in ids if h not in grid.half_owner), count))


def two_stretch(grid):
    """Insert an equality vertex in the middle of every matched edge.

    The result is bipartition-tagged: new equalities on the left, original
    vertices on the right.  The Holant value is unchanged.  The equality on
    edge ei is ``("eq", ei)``, or, if the grid already has a vertex of that
    id, ``("eq", ei, k)`` with the least free k >= 1.
    """
    fresh = _fresh_ids(grid, 2 * len(grid.edges))
    new_vertices = list(grid.vertices.values())
    new_edges = []
    side = {v: "R" for v in grid.vertices}
    for ei, (a, b) in enumerate(grid.edges):
        ha, hb = fresh[2 * ei], fresh[2 * ei + 1]
        vid, k = ("eq", ei), 0
        while vid in grid.vertices:
            k += 1
            vid = ("eq", ei, k)
        new_vertices.append(Vertex(vid, equality(2), [ha, hb]))
        side[vid] = "L"
        new_edges.append((a, ha))
        new_edges.append((b, hb))
    return PlanarGrid(new_vertices, new_edges, grid.dangling, side, grid.scalar)


def holographic_transform_bipartite(grid, T):
    """Valiant's Holant theorem: left signatures f -> f T^{tensor}, right
    g -> (T^{-1})^{tensor} g; the Holant value is exactly preserved."""
    if not grid.side or any(v not in grid.side for v in grid.vertices):
        raise NotBipartite("grid is not bipartition-tagged")
    for (a, b) in grid.edges:
        if grid.side[grid.half_owner[a]] == grid.side[grid.half_owner[b]]:
            raise NotBipartite("edge inside one side of the bipartition")
    if not T.is_invertible():
        raise SingularTransform("transform must be invertible")
    Tinv = T.inverse()
    new_vertices = []
    done = {}  # (side, signature) -> transformed signature
    for v in grid.vertices.values():
        if not isinstance(v.sig, SymmetricSignature):
            raise StructureError("holographic transforms need symmetric signatures")
        key = (grid.side[v.id], v.sig)
        if key not in done:
            done[key] = (row_transform(v.sig, T) if key[0] == "L"
                         else transform(Tinv, v.sig))
        new_vertices.append(Vertex(v.id, done[key], v.rotation))
    return PlanarGrid(new_vertices, grid.edges, grid.dangling, grid.side, grid.scalar)


def orthogonal_transform(grid, T):
    """One-sided transform of every vertex by an orthogonal T; value preserved."""
    if not T.is_orthogonal():
        raise SingularTransform("transform must be orthogonal")
    new_vertices = [Vertex(v.id, transform(T, v.sig), v.rotation)
                    for v in grid.vertices.values()]
    return PlanarGrid(new_vertices, grid.edges, grid.dangling, grid.side, grid.scalar)


# -- JSON ----------------------------------------------------------------------

def _json_object(value, field):
    """value, read from a document's field, when it is a JSON object;
    ValueError naming the field otherwise."""
    if not isinstance(value, dict):
        raise ValueError("%r must be a JSON object, got %s"
                         % (field, type(value).__name__))
    return value


def _json_list(value, field):
    """value, read from a document's field, when it is a JSON list;
    ValueError naming the field otherwise (a string would read as its
    characters)."""
    if not isinstance(value, list):
        raise ValueError("%r must be a JSON list, got %s"
                         % (field, type(value).__name__))
    return value


def _json_scalar(x):
    """A field scalar read from a document: ``AN(x)``, except that a JSON
    boolean, which ``AN`` would read as 0 or 1, is a ValueError."""
    if isinstance(x, bool):
        raise ValueError("a scalar must be a number or a string, got %s"
                         % json.dumps(x))
    return AN(x)


def _signatures_from_json(doc):
    """The document's "signatures" object as {name: SymmetricSignature}."""
    return {name: SymmetricSignature([_json_scalar(e)
                                      for e in _json_list(entries, name)])
            for name, entries in _json_object(doc["signatures"],
                                             "signatures").items()}


def grid_from_json(doc):
    sigs = _signatures_from_json(doc)
    vertices = []
    for vd in doc["vertices"]:
        if vd["sig"] not in sigs:
            raise StructureError("unknown signature %r" % vd["sig"])
        vid = vd["id"]
        if isinstance(vid, list):  # a tuple id; other ids stay as written
            vid = _json_id(vid)
        vertices.append(Vertex(vid, sigs[vd["sig"]],
                               _json_list(vd["rotation"], "rotation")))
    ids = {v.id for v in vertices}
    side = {}
    for k, s in _json_object(doc.get("side") or {}, "side").items():
        key = _json_id(k)
        if key not in ids and str(k).startswith("["):
            try:  # a tuple key, written as a JSON list by grid_to_json
                key = _json_id(json.loads(k))
            except ValueError:
                pass
        side[key] = s
    scalar = _json_scalar(doc["scalar"]) if "scalar" in doc else ONE
    return PlanarGrid(vertices,
                      [tuple(_json_list(e, "edges")) for e in doc["edges"]],
                      _json_list(doc.get("dangling", []), "dangling"),
                      side, scalar)


def _json_id(x):
    """An id as it was before a JSON round trip, which writes tuples as
    lists and object keys as strings: a list becomes a tuple again and a
    key holding an int becomes the int."""
    if isinstance(x, list):
        return tuple(_json_id(e) if isinstance(e, list) else e for e in x)
    try:
        return int(x)
    except (TypeError, ValueError):
        return x


def grid_to_json(grid):
    sigs = {}
    names = {}
    for v in grid.vertices.values():
        key = v.sig.entries
        if key not in names:
            names[key] = "f%d" % len(names)
            sigs[names[key]] = [str(e) for e in v.sig.entries]
    return {
        "signatures": sigs,
        "vertices": [{"id": v.id, "sig": names[v.sig.entries],
                      "rotation": list(v.rotation)}
                     for v in grid.vertices.values()],
        "edges": [list(e) for e in grid.edges],
        "dangling": list(grid.dangling),
        # tuple keys as JSON lists, which grid_from_json reads back as tuples
        "side": {(json.dumps(k) if isinstance(k, tuple) else str(k)): v
                 for k, v in grid.side.items()},
        "scalar": str(grid.scalar),
    }


def load_grid(path):
    with open(path) as fh:
        return grid_from_json(json.load(fh))
