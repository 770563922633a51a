"""Planar signature grids with rotation systems.

A grid is a set of vertices carrying signatures, a counterclockwise rotation
(cyclic list of half-edge ids) per vertex, matched edges as unordered pairs
of half-edge ids, and an ordered list of dangling half-edges for F-gates.
Faces come from rotation-system traversal; planarity is verified through the
Euler formula per connected component, never computed.  One pass over an
embedding, ``_embed``, gives its faces, components and a spanning forest on
lists indexed by half-edge numbers (``_number``); ``_embedding`` reads it in
ids.
"""

import itertools
import json
import os
from collections import Counter

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
        for e in self.edges:
            if len(e) != 2:
                raise ValueError("edge %r in 'edges' needs two ends" % (e,))
        self.dangling = tuple(dangling)
        self.side = dict(side) if side else {}
        for vid, tag in self.side.items():
            if vid not in self.vertices:
                raise StructureError("side of unknown vertex %r" % (vid,))
            if tag not in ("L", "R"):
                raise StructureError('side of vertex %r must be "L" or "R", '
                                     "got %r" % (vid, tag))
        self.scalar = AN(scalar)
        for v in self.vertices.values():
            if len(v.rotation) != v.sig.arity:
                raise StructureError(
                    "vertex %r degree %d != signature arity %d"
                    % (v.id, len(v.rotation), v.sig.arity))
        self.half_owner, self.partner = _link(self._rotations(), self.edges,
                                              self.dangling)

    def edge_index(self):
        """Half-edge id -> index of its edge in ``edges``."""
        return {h: ei for ei, e in enumerate(self.edges) for h in e}

    # -- faces and planarity ------------------------------------------------

    def faces(self):
        """Face orbits of the rotation system, as lists of out-dart half-edges.

        Dangling half-edges are ignored; only matched darts trace faces.
        """
        return _embedding(self._rotations(), self.half_owner,
                          self.partner)[0]

    def _rotations(self):
        return {v.id: v.rotation for v in self.vertices.values()}

    def validate(self):
        """(faces, genus_ok): Euler characteristic 2 per component.  Dangling
        edges are closed off through a virtual outer vertex whose rotation
        reverses their declared counterclockwise order, so they must sit on
        one outer face; with none, that vertex is a component of its own."""
        rotations = self._rotations()
        virt_halves = _fresh_ids(self, len(self.dangling), "__virt_")
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
        return self.scalar * _contract(self).get((), ZERO)

    def _check_cap(self, cap):
        if len(self.edges) > edge_cap(cap):
            raise TooLarge("edge count %d over cap %d"
                           % (len(self.edges), edge_cap(cap)))

    def gate_signature(self, cap=None):
        """The F-gate signature over the dangling edges, as a GeneralSignature."""
        if not self.dangling:
            raise StructureError("gate needs dangling edges")
        self._check_cap(cap)
        sums, m = _contract(self), len(self.dangling)
        # product() lists the bits with x1 as the top one
        return GeneralSignature(m, [
            self.scalar * sums.get(bits, ZERO)
            for bits in itertools.product((0, 1), repeat=m)])


# the id of the virtual vertex that closes off dangling edges in validate
_VIRTUAL = object()


def _link(rotations, edges, dangling=()):
    """(half_owner, partner) of a rotation system.

    ``rotations`` maps each vertex id to its half-edge ids and ``edges``
    pairs half-edges; every half-edge must be in exactly one edge or in
    ``dangling``.  ``partner`` lists the halves edge by edge.
    """
    half_owner = {}
    for vid, rot in rotations.items():
        for h in rot:
            if h in half_owner:
                raise StructureError("half-edge %r used twice" % (h,))
            half_owner[h] = vid
    partner = {}
    for (a, b) in edges:
        if a not in half_owner:
            raise StructureError("edge uses unknown half-edge %r" % (a,))
        if a in partner:
            raise StructureError("half-edge %r in two edges" % (a,))
        partner[a] = b
        if b not in half_owner:
            raise StructureError("edge uses unknown half-edge %r" % (b,))
        if b in partner:
            raise StructureError("half-edge %r in two edges" % (b,))
        partner[b] = a
    free = set()
    for h in dangling:
        if h not in half_owner:
            raise StructureError("dangling unknown half-edge %r" % (h,))
        if h in partner or h in free:
            raise StructureError("half-edge %r both matched and dangling" % (h,))
        free.add(h)
    if len(half_owner) != len(partner) + len(free):
        raise StructureError("half-edges neither matched nor dangling: %r"
                             % sorted((h for h in half_owner
                                       if h not in partner and h not in free),
                                      key=repr))
    return half_owner, partner


def _number(rotations, halves):
    """(rot, owner) of the rotation system ``rotations`` (vertex id -> half
    ids), its vertices numbered in that order and its matched ``halves``
    listed edge by edge (as ``_link``'s ``partner`` is), so edge e's are 2e
    and 2e + 1: v's halves in rotation order ``rot[v]``, h's vertex
    ``owner[h]``."""
    number = dict(zip(halves, range(len(halves))))
    rot, owner = [], [0] * len(halves)
    for v, halves in enumerate(rotations.values()):
        halves = [number[h] for h in halves if h in number]
        for h in halves:
            owner[h] = v
        rot.append(halves)
    return rot, owner


def _trace_faces(rot, size):
    """Face orbits of the rotation system ``rot`` on halves 0 .. size - 1
    (h ^ 1 is h's partner), as lists of out-dart halves, each starting at
    its least half: after h comes the half that follows h ^ 1."""
    step = [0] * size
    for r in rot:
        if r:
            a = r[-1]
            for b in r:
                step[a ^ 1] = b
                a = b
    faces = []
    for h0 in range(size):
        h = step[h0]
        if h < 0:
            continue
        face, step[h0] = [h0], -1
        while h != h0:
            face.append(h)
            step[h], h = -1, step[h]
        faces.append(face)
    return faces


def _embed(rot, owner):
    """(faces, component, tree, ok) of the numbered rotation system ``rot``
    with half owners ``owner``, as ``_number`` gives them: the face orbits;
    from one depth-first search, a component label 0, 1, ... per vertex
    and the spanning forest it followed (the half each forest edge was left
    by); and whether every component has V - E + F = 2, an edgeless one
    counting one face."""
    faces = _trace_faces(rot, len(owner))
    component, tree, count = [-1] * len(rot), [], []  # V - E + F per label
    for root in range(len(rot)):
        if component[root] >= 0:
            continue
        label = component[root] = len(count)
        stack, n_vertices, n_halves = [root], 0, 0
        while stack:
            v = stack.pop()
            n_vertices += 1
            n_halves += len(rot[v])
            for h in rot[v]:
                w = owner[h ^ 1]
                if component[w] < 0:
                    component[w] = label
                    tree.append(h)
                    stack.append(w)
        count.append(n_vertices - n_halves // 2 + (not n_halves))
    for face in faces:
        count[component[owner[face[0]]]] += 1
    return faces, component, tree, all(c == 2 for c in count)


def _embedding(rotations, half_owner, partner):
    """``_embed`` of ``rotations`` (vertex id -> half-edge ids), with
    ``_link``'s ``partner``, read back in ids: (faces, {vertex id: component
    label}, tree halves, ok)."""
    faces, component, tree, ok = _embed(*_number(rotations, partner))
    halves = list(partner)
    return ([[halves[h] for h in face] for face in faces],
            dict(zip(rotations, component)), [halves[h] for h in tree], ok)


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


def _contract(grid):
    """{dangling bits, in ``grid.dangling`` order: the nonzero sum over the
    matched edges' assignments of the product of the vertex signatures}.

    Each edge is one variable, named by both its halves, and each dangling
    half-edge one that is never summed out.  A vertex enumerates only the
    variables it opens; a variable is summed out at its last end.
    """
    var = grid.edge_index()
    var.update((h, ~i) for i, h in enumerate(grid.dangling))
    states, open_vars = {(): ONE}, []  # open_vars: the keys' variables
    for vid in _vertex_order(grid):
        v = grid.vertices[vid]
        # an input set to 1 adds its weight to the entry index: 1 for a
        # symmetric signature, its bit in rotation order for a general one
        general = not isinstance(v.sig, SymmetricSignature)
        reads = {}  # key position -> weight, of the variables closed here
        opens, loops = {}, set()  # opened here: variable -> weight; self-loops
        for i, h in enumerate(v.rotation):
            x, wt = var[h], 1 << (v.sig.arity - 1 - i) if general else 1
            if x in open_vars:
                reads[open_vars.index(x)] = wt
            else:
                if x in opens:  # the second half of a self-loop
                    loops.add(x)
                opens[x] = opens.get(x, 0) + wt
        keep = [p for p in range(len(open_vars)) if p not in reads]
        # per assignment of the opened variables: (index added, key bits of
        # those that stay open)
        choices = [(sum(b * opens[x] for b, x in zip(bits, opens)),
                    tuple(b for b, x in zip(bits, opens) if x not in loops))
                   for bits in itertools.product((0, 1), repeat=len(opens))]
        table = [None if e.is_zero() else e for e in v.sig.entries]
        new_states = {}
        for key, weight in states.items():
            kept = tuple([key[p] for p in keep])
            base = sum([key[p] * wt for p, wt in reads.items()])
            for add, tail in choices:
                val = table[base + add]
                if val is not None:
                    w, nkey = weight * val, kept + tail
                    old = new_states.get(nkey)
                    new_states[nkey] = w if old is None else old + w
        states = new_states
        open_vars = [open_vars[p] for p in keep] + \
            [x for x in opens if x not in loops]
    order = [open_vars.index(var[h]) for h in grid.dangling]
    return {tuple([key[p] for p in order]): w
            for key, w in states.items() if not w.is_zero()}


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

def _fresh_ids(grid, count, prefix="s"):
    """The first ``count`` of prefix + "0", "1", ... not used by grid."""
    ids = (prefix + str(k) for k in itertools.count())
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
        new_edges += [(a, ha), (b, hb)]
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


_NOT_A_SCALAR = "a scalar in %r must be an integer or a string, got %s"


def _json_scalar(x, field):
    """A field scalar read from a document's ``field``: ``AN(x)``.  A value
    ``AN`` cannot read (a float, a list, null) is a TypeError, and a JSON
    boolean, which it would read as 0 or 1, a ValueError; both name the
    field."""
    if isinstance(x, bool):
        raise ValueError(_NOT_A_SCALAR % (field, json.dumps(x)))
    try:
        return AN(x)
    except TypeError:
        raise TypeError(_NOT_A_SCALAR % (
            field, json.dumps(x, default=repr))) from None


def _signatures_from_json(doc):
    """The document's "signatures" object as {name: SymmetricSignature}."""
    return {name: SymmetricSignature([_json_scalar(e, name)
                                      for e in _json_list(entries, name)])
            for name, entries in _json_object(doc["signatures"],
                                             "signatures").items()}


def _json_id(x, field):
    """An id read from a document's field: the JSON value, but a list becomes
    a tuple; a JSON object, which has no hash, is a ValueError naming the
    field."""
    if isinstance(x, dict):
        raise ValueError("an id in %r cannot be a JSON object" % (field,))
    return tuple(_json_id(y, field) for y in x) if isinstance(x, list) else x


_PLAIN_IDS = frozenset((int, str))  # the id types _json_id returns as they are


def _json_ids(values, field):
    """A document's JSON list of ids, as ``_json_id`` reads each."""
    values = _json_list(values, field)
    if _PLAIN_IDS.issuperset(map(type, values)):
        return values
    return [_json_id(x, field) for x in values]


def _json_key(x):
    """The object key of an id: JSON text for a tuple, else ``str(x)``."""
    return json.dumps(x) if isinstance(x, tuple) else str(x)


def _json_keyed(obj, ids, field, unknown):
    """The object ``obj`` of a document's ``field`` as {id: value}, each key
    read as the id of ``ids`` written under it.  A key that names two ids,
    or none, is a StructureError; ``unknown`` is the message for none, like
    "rotation of unknown vertex %r"."""
    obj = _json_object(obj, field)
    ids = set(ids) if obj else set()
    named = {_json_key(x): x for x in ids}
    shared = Counter(map(_json_key, ids)) if len(named) < len(ids) else {}
    out = {}
    for k, value in obj.items():
        k = _json_key(k)  # the key as written, also for a dict built in Python
        if shared.get(k, 0) > 1:
            raise StructureError("%s key %r names %d ids" % (field, k, shared[k]))
        if k not in named:  # a key that spells an int shows as one
            raise StructureError(unknown % (
                int(k) if k.lstrip("-").isdecimal() else k,))
        out[named[k]] = value
    return out


def grid_from_json(doc):
    sigs = _signatures_from_json(doc)
    vertices = []
    for vd in _json_list(doc["vertices"], "vertices"):
        vd = _json_object(vd, "vertices")
        if ({"id", "rotation"} - vd.keys()
                or not isinstance(vd.get("sig"), str)):
            raise ValueError("each 'vertices' object needs an id, a rotation "
                             "and a sig that is a string")
        if vd["sig"] not in sigs:
            raise StructureError("unknown signature %r" % vd["sig"])
        vertices.append(Vertex(_json_id(vd["id"], "vertices"),
                               sigs[vd["sig"]],
                               _json_ids(vd["rotation"], "rotation")))
    return PlanarGrid(
        vertices, [_json_ids(e, "edges")
                   for e in _json_list(doc["edges"], "edges")],
        _json_ids(doc.get("dangling", []), "dangling"),
        _json_keyed(doc.get("side") or {}, (v.id for v in vertices), "side",
                    "side of unknown vertex %r"),
        _json_scalar(doc["scalar"], "scalar") if "scalar" in doc else ONE)


def grid_to_json(grid):
    names = {}  # entries -> signature name
    for v in grid.vertices.values():
        names.setdefault(v.sig.entries, "f%d" % len(names))
    return {
        "signatures": {name: [str(e) for e in entries]
                       for entries, name in names.items()},
        "vertices": [{"id": v.id, "sig": names[v.sig.entries],
                      "rotation": list(v.rotation)}
                     for v in grid.vertices.values()],
        "edges": [list(e) for e in grid.edges],
        "dangling": list(grid.dangling),
        "side": {_json_key(k): v for k, v in grid.side.items()},
        "scalar": str(grid.scalar),
    }

