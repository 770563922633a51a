"""Exact polynomial-time evaluators for the tractable planar Holant cases.

Five solver families live here:

* ``fkt_count_pm``: weighted perfect matchings of a planar graph through a
  Pfaffian orientation and a sparse skew-symmetric elimination in
  minimum-degree order, run on each entry's integer numerators over its
  denominator (``algebra._skew_pivot``): a pivot is inverted at most once,
  and only the pivot-row entries some update uses are scaled by it.  The
  orientation fixes the faces and spanning forest that the graph's genus-0
  check read (FKT traces none of its own) by dual-tree face fixing, on
  lists indexed by the check's half-edge numbers; a self-loop takes part
  there and is left out of the matrix.  The sign every matching term
  shares is read off one perfect matching, found by Edmonds' blossom
  search;
* ``product_eval``: product-type grids, by the at-most-two consistent
  patterns per linked component, summed once per distinct census;
* ``affine_eval``: affine grids, by Gauss-sum variable elimination of one
  quadratic exponent mod 4 with even cross terms, folded from each distinct
  signature's ``classify`` form; each support constraint is one more
  summed variable, so a single loop does all the F_2 elimination;
* ``vanishing_eval``: grids built from one vanishing class are exactly 0;
* ``eo_geneq_eval``: the pinning algorithm for weighted equalities (of
  arity gcd >= 5, or pins: arity 1 with one zero weight) mixed with
  exact-one signatures, connected by disequalities; an ``EOInstance`` reads
  a bipartite grid, or a grid's Z images directly.  The local rewrites run
  only at the vertices whose neighbourhood changed, kept in a heap, and
  each fires wherever it fits; the pin step, the one global search, waits
  until no rewrite fits.

``evaluate(grid, method)`` takes the route ``ROUTES[method]``; "auto" tries
(1) product, affine, vanishing and exact-one FKT on the grid, (2) the route
its set verdict names (``eo``: case 7 read in the Z basis), (3) the four
again after a 2-stretch and the verdict's witness transform, unless that
is I, (4) capped brute force.
``hypergraph_pm`` follows the route of its ``hypergraph_verdict``.
"""

from collections import Counter, defaultdict
from heapq import heappop, heappush
from itertools import combinations, permutations
from math import gcd, prod

from .algebra import (AN, AlgebraicNumber, I, ONE, SQRT2, ZERO, ZETA,
                      _entry, _make, _skew_pivot, _skew_rows)
from .classify import (
    SetVerdict,
    _is_diseq,
    affine_form,
    dichotomy_plholant_set,
    hypergraph_verdict,
    in_vanishing_minus,
    in_vanishing_plus,
    product_form,
)
from .grid import (
    EmbeddingError,
    PlanarGrid,
    StructureError,
    TooLarge,
    Vertex,
    _DisjointSet,
    _embed,
    _json_id,
    _json_ids,
    _json_key,
    _json_keyed,
    _json_list,
    _json_object,
    _json_scalar,
    _link,
    _number,
    edge_cap,
    holographic_transform_bipartite,
    two_stretch,
)
from .sigcalc import (
    SymmetricSignature,
    all_but_one,
    diseq2,
    equality,
    identity2,
)


class ClassError(ValueError):
    """A signature is outside the class a solver requires."""


class GcdError(ValueError):
    """Equality arities whose gcd is below 5 cannot be pinned."""


class PinSearchError(RuntimeError):
    """The structural pin search came up empty (impossible on genus-0 input)."""


# ---------------------------------------------------------------------------
# FKT: weighted perfect matchings of planar graphs
# ---------------------------------------------------------------------------

class WeightedPlanarGraph:
    """A planar multigraph with a rotation system and nonzero edge weights.

    ``rotation`` maps each vertex id to the counterclockwise list of its
    half-edge ids; ``edges`` is a list of (half, half, weight) triples.  The
    genus-0 check keeps what it read for FKT, on ``grid._number``'s numbers
    (vertices in ``vertex_ids`` order, halves 2e and 2e + 1 of edge e):
    rotations ``_rot``, half owners ``_owner``, faces ``_faces``, component
    labels ``_label`` and a spanning forest ``_tree``.
    """

    def __init__(self, vertices, rotation, edges):
        self.vertex_ids = list(vertices)
        self.rotation = {v: list(rotation.get(v, ())) for v in self.vertex_ids}
        self.edges = [(a, b, AN(w)) for (a, b, w) in edges]
        for (_, _, w) in self.edges:
            if w.is_zero():
                raise ValueError("edge weights must be nonzero")
        if len(self.rotation) != len(self.vertex_ids):
            raise StructureError("duplicate vertex ids")
        for v in rotation:
            if v not in self.rotation:
                raise StructureError("rotation of unknown vertex %r" % (v,))
        self.half_owner, self.partner = _link(
            self.rotation, [(a, b) for (a, b, _) in self.edges])
        self._rot, self._owner = _number(self.rotation, self.partner)
        self._faces, self._label, self._tree, ok = _embed(self._rot,
                                                          self._owner)
        if not ok:
            raise EmbeddingError("the rotation system is not genus 0")

    @property
    def component(self):
        return dict(zip(self.vertex_ids, self._label))


def _pfaffian(rows, one=ONE):
    """Pfaffian of the skew matrix with sparse rows ``rows[i] = {j: a_ij}``
    (nonzero entries only; ``_kasteleyn``'s are used up) over the field of
    ``one``: Q(zeta_8), or Q with ``one=Fraction(1)``, where the result is
    a Fraction.  Each step pivots on the live row with the fewest nonzeros
    and its sparsest neighbour (minimum degree), and ``algebra._skew_pivot``
    applies the rank-2 Schur update to the pairs of rows in the support of
    the two pivot rows, on integer numerators over a denominator, each
    entry read once."""
    rows, total, flip = _skew_rows(rows), ONE, False
    while rows:  # live rows, in their original order
        n, r = min(zip(map(len, rows.values()), rows))
        if not n:
            return one - one
        c = min(rows[r], key=lambda j: len(rows[j]))
        # moving r, c to the front of the live order flips the sign once per
        # position passed, and once more if c comes first (a_cr = -a_rc)
        pr, pc = map(list(rows).index, (r, c))
        flip ^= (pr + pc + (pr < pc)) % 2 == 1
        total = total * _skew_pivot(rows, r, c)
    total = -total if flip else total
    return total if isinstance(one, AlgebraicNumber) else total.rational()


def _kasteleyn(m, arcs):
    """Sparse rows of the m x m skew matrix with a_th = w and a_ht = -w for
    each arc (t, h, w), in the form ``algebra._skew_rows`` gives, which
    ``_pfaffian`` eliminates in place; w is a numerator tuple
    (n0, n1, n2, n3, d) or a field value.  Parallel arcs add up, and
    entries that sum to zero are left out."""
    rows = {i: {} for i in range(m)}
    for t, h, w in arcs:
        if type(w) is not tuple:
            w = _entry(w)
        if h in rows[t]:
            x = _make(*rows[t][h]) + _make(*w)
            if not x:
                del rows[t][h], rows[h][t]
                continue
            w = _entry(x)
        rows[t][h], rows[h][t] = w, (-w[0], -w[1], -w[2], -w[3], w[4])
    return rows


def _perfect_matching(m, pairs):
    """A perfect matching of the graph on 0..m-1 with edges ``pairs`` as the
    list of each vertex's mate, or None when there is none: a greedy pass,
    then, from each vertex left free, one search for an augmenting path that
    shrinks odd cycles to blossoms (Edmonds, "Paths, trees, and flowers",
    1965).  While a perfect matching exists, every free vertex ends an
    augmenting path, so the first search that fails shows there is none."""
    adj = [[] for _ in range(m)]
    for i, j in pairs:
        adj[i].append(j)
        adj[j].append(i)
    mate = [-1] * m
    for i in range(m):
        if mate[i] < 0:
            for j in adj[i]:
                if mate[j] < 0:
                    mate[i], mate[j] = j, i
                    break
    for root in range(m):
        if mate[root] < 0 and not _augment(adj, mate, root):
            return None
    return mate


def _augment(adj, mate, root):
    """Grow an alternating tree from the free vertex ``root`` and flip the
    first augmenting path it finds in ``mate``; False when there is none.
    ``base[v]`` is the base of the blossom holding v, ``parent[v]`` the tree
    parent of an inner vertex (or of an outer one inside a blossom)."""
    base, parent = list(range(len(adj))), [-1] * len(adj)
    outer = [False] * len(adj)
    outer[root] = True
    queue, tree = [root], [root]  # tree: the vertices a blossom can take in

    def common_base(a, b):  # nearest common blossom base of two outer ends
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if a == root:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v, b, child, inside):  # the tree path from v down to base b
        while base[v] != b:
            inside.add(base[v])
            inside.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[child]

    for v in queue:  # grows while it is read
        for u in adj[v]:
            if base[v] == base[u] or mate[v] == u:
                continue
            if u == root or mate[u] >= 0 and parent[mate[u]] >= 0:
                # u is outer too: shrink the odd cycle through v and u
                b, inside = common_base(v, u), set()
                mark(v, b, u, inside)
                mark(u, b, v, inside)
                for x in tree:
                    if base[x] in inside:
                        base[x] = b
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[u] < 0:
                parent[u] = v
                if mate[u] < 0:  # augment along root ... v u
                    while u >= 0:
                        v = parent[u]
                        w = mate[v]
                        mate[u], mate[v] = v, u
                        u = w
                    return True
                tree += (u, mate[u])
                outer[mate[u]] = True
                queue.append(mate[u])
    return False


def _matching_sign(m, arcs):
    """The sign that every matching term of the Pfaffian of
    ``_kasteleyn(m, arcs)`` shares when the arcs are a Pfaffian orientation,
    read off one perfect matching M: the sign of the permutation
    (i1 j1 i2 j2 ...) of M's pairs i < j, flipped once for each pair whose
    arc runs from j to i (of parallel arcs, the first).  Raises RuntimeError
    when there is no perfect matching."""
    forward = {}  # (i, j) with i < j -> whether the first arc runs i to j
    for t, h, _ in arcs:
        forward.setdefault((t, h) if t < h else (h, t), t < h)
    mate = _perfect_matching(m, forward)
    if mate is None:
        raise RuntimeError("internal error: a nonzero Pfaffian but no "
                           "perfect matching")
    pairs = [(i, mate[i]) for i in range(m) if i < mate[i]]
    seq = [k for pair in pairs for k in pair]
    # a permutation's parity is m minus its number of cycles
    flips = m + sum(not forward[pair] for pair in pairs)
    seen = [False] * m
    for k in range(m):
        if not seen[k]:
            flips -= 1
            while not seen[k]:
                seen[k] = True
                k = seq[k]
    return -1 if flips % 2 else 1


def fkt_count_pm(g):
    """Exact weighted sum over perfect matchings of a planar graph, one
    component at a time, on the numbered halves of g's genus-0 check: its
    faces, component labels and spanning forest."""
    owner, faces, label = g._owner, g._faces, g._label
    # orientation: per edge e, its half on the tail side; tree edges point
    # away from the root
    orient = [-1] * (len(owner) // 2)
    for h in g._tree:
        orient[h >> 1] = h
    # dual-tree face fixing: in each component, every face but one becomes
    # odd.  A self-loop is never a tree edge; it lies between two distinct
    # faces and runs clockwise on exactly one, so once its arc is left out
    # below, the two faces merge into one odd face, or into the other one.
    face_of, undecided = [0] * len(owner), []
    for fi, face in enumerate(faces):
        n = 0
        for h in face:
            face_of[h] = fi
            n += orient[h >> 1] < 0
        undecided.append(n)
    # the undecided edges form a spanning tree of each component's dual,
    # peeled leaf by leaf; the last face of each, its root, is left
    queue = [fi for fi, n in enumerate(undecided) if n == 1]
    while queue:
        fi = queue.pop()
        if not undecided[fi]:
            continue
        agree = free = 0
        for h in faces[fi]:
            t = orient[h >> 1]
            if t < 0:
                free = h
            elif t == h:
                agree += 1
        # the face's one undecided edge makes its clockwise count odd
        orient[free >> 1] = free ^ (agree & 1)
        for fj in (face_of[free], face_of[free ^ 1]):
            undecided[fj] -= 1
            if undecided[fj] == 1:
                queue.append(fj)
    assert -1 not in orient
    # per component: its vertices' positions and the arcs between them,
    # with each weight read once into its numerator tuple
    local, sizes = [], [0] * (max(label, default=-1) + 1)
    for c in label:
        local.append(sizes[c])
        sizes[c] += 1
    arcs = [[] for _ in sizes]
    for (_, _, w), t in zip(g.edges, orient):
        tail, head = owner[t], owner[t ^ 1]
        if tail != head:  # a self-loop has no entry in the matrix
            arcs[label[tail]].append(
                (local[tail], local[head], w.num + (w.den,)))
    # every matching term of the Pfaffian has the same sign, so one perfect
    # matching gives it; a nonzero Pfaffian proves that one exists
    total = ONE
    for m, comp in zip(sizes, arcs):
        if m % 2:
            return ZERO
        pf = _pfaffian(_kasteleyn(m, comp))
        if not pf:
            return ZERO
        total = total * (pf if _matching_sign(m, comp) > 0 else -pf)
    return total


def weighted_graph_from_json(doc):
    vertices = _json_ids(doc["vertices"], "vertices")
    edges = [_json_list(e, "edges") for e in _json_list(doc["edges"], "edges")]
    if any(len(e) != 3 for e in edges):
        raise ValueError("each 'edges' entry must be [half, half, weight]")
    return WeightedPlanarGraph(
        vertices,
        {v: _json_ids(r, "rotation")
         for v, r in _json_keyed(doc["rotation"], vertices, "rotation",
                                 "rotation of unknown vertex %r").items()},
        [(_json_id(a, "edges"), _json_id(b, "edges"), _json_scalar(w, "edges"))
         for a, b, w in edges])


def weighted_graph_to_json(g):
    return {
        "vertices": list(g.vertex_ids),
        "rotation": {_json_key(v): list(r) for v, r in g.rotation.items()},
        "edges": [[a, b, str(w)] for (a, b, w) in g.edges],
    }


# ---------------------------------------------------------------------------
# product-type grids
# ---------------------------------------------------------------------------

def _forms(recognise, grid, kind):
    """Recognise each distinct signature of the grid once: {f: form}, where
    a zero f maps to None; ClassError at the first nonzero f without one."""
    forms = {}
    for v in grid.vertices.values():
        if v.sig not in forms:
            form = forms[v.sig] = recognise(v.sig)
            if form is None and not v.sig.is_zero():
                raise ClassError("%r is not %s" % (v.sig, kind))
    return forms


def _scaled(grid, scalar_of):
    """The grid's scalar times scalar_of(f) ** uses, for each distinct
    signature f and the number of vertices that carry it."""
    total = grid.scalar
    for f, uses in Counter(v.sig for v in grid.vertices.values()).items():
        total = total * scalar_of(f) ** uses
    return total


def product_eval(grid):
    """Exact Holant of a grid whose signatures are all product-type.

    Linked edges carry one value up to a parity; each distinct census of a
    component (the weights of each signature at parity 0 and 1) sums its
    two patterns once, raised to the number of components that share it."""
    if grid.dangling:
        raise StructureError("product_eval needs a closed grid")
    forms = _forms(product_form, grid, "product-type")
    if None in forms.values():
        return ZERO
    edge_of = grid.edge_index()
    uf = _DisjointSet()
    weighted = []  # (edge, signature) per half-edge that carries (w0, w1)
    for v in grid.vertices.values():
        form = forms[v.sig]
        if form.link is None:
            weighted += [(edge_of[h], v.sig) for h in v.rotation]
            continue
        e0 = edge_of[v.rotation[0]]
        for h in v.rotation[1:]:
            if not uf.union(e0, edge_of[h], form.link):
                return ZERO
        if form.link == 0:  # all its edges carry one value, weighed once
            weighted.append((e0, v.sig))
    census = defaultdict(list)  # root -> [(signature, parity, count)]
    for ((root, off), f), n in Counter((uf.locate(e), f)
                                       for e, f in weighted).items():
        census[root].append((f, off, n))
    counts = Counter(map(frozenset, census.values()))
    # each edge that is its own root heads a component; those with no
    # weight pair are cycles of disequalities, each worth 1 + 1
    counts[frozenset()] += sum(uf.parent.get(e, e) == e
                               for e in range(len(grid.edges))) - len(census)
    total = _scaled(grid, lambda f: forms[f].scalar)
    for key, count in counts.items():
        val = ZERO
        for bit in (0, 1):
            term = ONE
            for f, off, n in key:
                form = forms[f]
                term = term * (form.w1 if bit ^ off else form.w0) ** n
            val = val + term
        if val.is_zero():
            return ZERO
        total = total * val ** count
    return total


# ---------------------------------------------------------------------------
# affine grids
# ---------------------------------------------------------------------------

class _Mod4Form:
    """A quadratic exponent mod 4 in 0-1 variables with even cross terms.

    A cross coefficient is 0 or 2 mod 4, so ``adj`` keeps, at both ends of
    each term with coefficient 2, the other variable."""

    __slots__ = ("const", "lin", "adj")

    def __init__(self):
        self.const = 0
        self.lin = {}
        self.adj = defaultdict(set)

    def add_const(self, c):
        self.const = (self.const + c) % 4

    def add_lin(self, x, c):
        c = (self.lin.get(x, 0) + c) % 4
        if c:
            self.lin[x] = c
        else:
            self.lin.pop(x, None)

    def add_cross(self, x, y, c):
        if x == y:
            self.add_lin(x, c)
            return
        assert c % 2 == 0
        if c % 4:
            for (a, b) in ((x, y), (y, x)):
                if b in self.adj[a]:
                    self.adj[a].remove(b)
                else:
                    self.adj[a].add(b)

    def add_parity(self, xs, c):
        """Add c * (x_1 xor ... xor x_m) to the exponent."""
        xs = list(xs)
        for x in xs:
            self.add_lin(x, c)
        for x, y in combinations(xs, 2):
            self.add_cross(x, y, 2 * c)

    def pop_var(self, t):
        """Remove t; return (linear coefficient, cross partners)."""
        partners = self.adj.pop(t, set())
        for other in partners:
            self.adj[other].remove(t)
        return self.lin.pop(t, 0), partners

    def substitute(self, t, vs, bit):
        """Replace variable t by the F_2 expression bit xor (xor of vs)."""
        c, partners = self.pop_var(t)
        if c:
            # c (bit xor X) = c bit + (1 - 2 bit) c X over the integers
            self.add_const(c * bit)
            self.add_parity(vs, c * (1 - 2 * bit))
        for other in partners:
            self.add_lin(other, 2 * bit)
            for v in vs:
                self.add_cross(v, other, 2)


def _fold_affine(form, slots, mod4, y):
    """Add one vertex's AffineForm over its slot variables to the exponent.
    Each support constraint X = b becomes a summed variable y, y - 1, ...
    with the term 2 y (X + b), since sum_y i^(2y (X + b)) = 2 [X = b];
    return the next unused constraint variable."""
    support = form.support
    if support in ("zeros", "ones"):
        constraints = [((x,), support == "ones") for x in slots]
    elif support == "equal":
        constraints = [((slots[0], x), 0) for x in slots[1:]]
    else:
        constraints = [(slots, support == "odd")] if support else []
    for xs, bit in constraints:
        mod4.add_lin(y, 2 * bit)
        for x in xs:
            mod4.add_cross(y, x, 2)
        y -= 1
    if form.lin:
        for x in (slots[:1] if support == "equal" else slots):
            mod4.add_lin(x, form.lin)
    if form.parity:
        mod4.add_parity(slots, form.parity)
    mod4.add_const(form.const)
    return y


def affine_eval(grid):
    """Exact Holant of a grid whose signatures are all affine.  Each
    distinct signature's scalar is raised to its number of vertices, and
    each factor of the Gauss sums to its count, once.

    The edges are the variables 0, 1, ... and the support constraints the
    variables -1, -2, ..., all summed out in one loop in increasing order.
    Summing t with an even linear coefficient c leaves the F_2 constraint
    that its partners' sum is c/2, solved by substituting the least
    partner, which is above t and is then skipped."""
    if grid.dangling:
        raise StructureError("affine_eval needs a closed grid")
    forms = _forms(affine_form, grid, "affine")
    if None in forms.values():
        return ZERO
    edge_of = grid.edge_index()
    form = _Mod4Form()
    y = -1
    for v in grid.vertices.values():
        y = _fold_affine(forms[v.sig], [edge_of[h] for h in v.rotation], form,
                         y)
    substituted = set()
    # the counts of 2, sqrt2 * zeta and sqrt2 * zeta^7; each of the
    # -(y + 1) support constraints takes one 2 back
    factors = [y + 1, 0, 0]
    for t in range(y + 1, len(grid.edges)):
        if t in substituted:
            continue
        c, partners = form.pop_var(t)
        if c == 1:
            factors[1] += 1
            form.add_parity(partners, 3)
        elif c == 3:
            factors[2] += 1
            form.add_parity(partners, 1)
        else:
            factors[0] += 1
            if partners:
                pivot = min(partners)
                partners.remove(pivot)
                form.substitute(pivot, partners, c // 2)
                substituted.add(pivot)
            elif c:
                return ZERO
    assert not form.lin and not any(form.adj.values())
    total = _scaled(grid, lambda f: forms[f].scalar)
    for x, n in zip((AN(2), SQRT2 * ZETA, SQRT2 * ZETA ** 7), factors):
        total = total * x ** n
    return total * I ** form.const


# ---------------------------------------------------------------------------
# vanishing grids
# ---------------------------------------------------------------------------

def _signatures(grid):
    """The distinct signatures of arity >= 1 in vertex id order: constants
    only scale the Holant, so the class tests look past them."""
    return list(dict.fromkeys(grid.vertices[vid].sig
                              for vid in sorted(grid.vertices, key=repr)
                              if grid.vertices[vid].sig.arity))


def vanishing_eval(grid):
    """Grids built entirely inside one vanishing class evaluate to zero."""
    sigs = _signatures(grid)
    if sigs and (all(in_vanishing_plus(f) for f in sigs)
                 or all(in_vanishing_minus(f) for f in sigs)):
        return ZERO
    raise ClassError("the grid is not built from one vanishing class")


# ---------------------------------------------------------------------------
# the pinning algorithm for weighted equalities with exact-one signatures
# ---------------------------------------------------------------------------

class EOInstance:
    """A closed instance of the pinning solver: weighted equalities and
    exact-one signatures, their half-edges joined in pairs by disequalities.

    ``EOInstance(grid)`` reads a bipartition-tagged grid, whose left
    disequalities [0, c, 0] link the right signatures' half-edges.
    ``EOInstance.z_side(grid)`` reads a closed grid in the Z basis: each
    signature is its Z image ``f.zhat()``, each edge the disequality
    (=_2) Z^{tensor 2} = [0, 2, 0].  One reader serves both.  It splits a
    degenerate signature c (w0, w1)^{tensor n} with w0 or w1 zero into n
    pins, each the weighted equality (w0, w1) of arity 1.  When the matching
    side arrives reversed (all-but-one, not exact-one), it reads every
    signature reversed; flipping every bit keeps each disequality, so the
    value holds.

    ``nodes`` holds (kind, payload, end): "eq" with (w0, w1) and end sign 0,
    "eo" with its weight on every end.  ``edges`` pairs node indices; ``k``
    is the gcd of the arities of the generalized equalities, pins left out
    (0 without them).
    """

    def __init__(self, grid):
        if grid.dangling:
            raise StructureError("EO instances must be closed")
        if not grid.side or any(v not in grid.side for v in grid.vertices):
            raise StructureError("EO instances need a bipartition tagging")
        right, links, scalar = [], [], grid.scalar
        for vid in sorted(grid.vertices, key=repr):
            v = grid.vertices[vid]
            if grid.side[vid] == "R":
                right.append((v.sig, v.rotation))
            elif not _is_diseq(v.sig):
                raise ClassError(
                    "left side must be disequalities, got %r" % v.sig)
            else:
                scalar = scalar * v.sig[1]
                links.append([grid.partner[h] for h in v.rotation])
        self._read(right, links, scalar)

    @classmethod
    def z_side(cls, grid):
        """The instance of a closed grid read in the Z basis."""
        if grid.dangling:
            raise StructureError("EO instances must be closed")
        first = {}  # equal signatures share the first one's Z image
        right = [(first.setdefault(v.sig, v.sig).zhat(), v.rotation)
                 for v in map(grid.vertices.get,
                              sorted(grid.vertices, key=repr))]
        inst = cls.__new__(cls)
        inst._read(right, grid.edges, grid.scalar * AN(2) ** len(grid.edges))
        return inst

    def _read(self, right, links, scalar):
        """Build ``nodes`` and ``edges`` from the right signatures with their
        half-edges, and one disequality link per pair of half-edges."""
        self.nodes, self.edges, self.k, self.scalar = [], [], 0, scalar
        sigs = [f for (f, _) in right]
        if any(f.is_zero() for f in sigs):  # the Holant is 0
            self.scalar = ZERO
            return
        flip = any(f.arity >= 3 and f.support() == (f.arity - 1,)
                   for f in sigs)
        if flip and any(f.arity >= 3 and f.support() == (1,) for f in sigs):
            raise ClassError("exact-one and all-but-one signatures mix")
        node_of = {}  # right half-edge -> node index
        for (f, halves) in right:
            for (kind, payload, end, hs) in self._parse(
                    f.reversed() if flip else f, halves):
                node_of.update(dict.fromkeys(hs, len(self.nodes)))
                self.nodes.append((kind, payload, end))
        for link in links:
            if any(h not in node_of for h in link):
                raise ClassError("disequalities must connect to the right")
            self.edges.append(tuple(node_of[h] for h in link))
        if 2 * len(links) != len(node_of):
            raise StructureError("every right slot needs a left disequality")

    def _parse(self, f, halves):
        """The nodes (kind, payload, end, half-edges) of one signature."""
        if f.arity >= 2 and f.support() == (1,):
            return [("eo", None, f[1], halves)]
        form = product_form(f)
        if form is not None and form.link == 0:
            self.k = gcd(self.k, f.arity)
            return [("eq", (form.w0, form.w1), 0, halves)]
        if form is None or form.link is not None or not (
                form.w0.is_zero() or form.w1.is_zero()):
            raise ClassError(
                "%r is not a weighted equality, exact-one or pin" % f)
        self.scalar = self.scalar * form.scalar
        return [("eq", (form.w0, form.w1), 0, (h,)) for h in halves]


class _EOState:
    """Mutable working instance for the pinning algorithm.

    Vertex kinds: "eq", a block, carries support weights (w0, w1) and a sign
    bit on each incident end; "eo" carries a weight on each end (the value
    when that end holds the single 1).  A block with a zero weight (a pin,
    at any degree) is fixed to its other side when the rules look at it, so
    once ``todo`` is empty every block has both weights nonzero.  Every
    edge is a disequality between its two ends.

    Every rule but the pin step is local, so ``todo`` is a heap of the vertex
    ids whose neighbourhood changed since the rules last looked at them:
    ``add_vertex``, ``add_edge`` and ``detach_edge`` push their endpoints,
    and a state built through them starts with every vertex queued.  A
    merge moves edges onto the kept vertex, which is queued; a rule on a
    pair fits at both of its ends, so the far ends need not be.
    """

    def __init__(self):
        self.scalar = ONE
        self.kind = {}
        self.eqw = {}
        self.ends = {}      # eid -> [[vid, data], [vid, data]]
        self.inc = {}       # vid -> set of (eid, end index)
        self.done = {}      # resolved edges -> value of end 0
        self.todo = []      # heap of touched vertex ids
        self.zero = False
        self._next = 0

    def fresh(self):
        self._next += 1
        return self._next

    def measure(self):
        return len(self.ends) + len(self.kind)

    def add_vertex(self, kind, payload=None):
        vid = self.fresh()
        self.kind[vid] = kind
        self.inc[vid] = set()
        if kind == "eq":
            self.eqw[vid] = list(payload)
        heappush(self.todo, vid)
        return vid

    def add_edge(self, va, da, vb, db):
        eid = self.fresh()
        self.ends[eid] = [[va, da], [vb, db]]
        self.inc[va].add((eid, 0))
        self.inc[vb].add((eid, 1))
        heappush(self.todo, va)
        heappush(self.todo, vb)
        return eid

    def drop_vertex(self, vid):
        del self.kind[vid]
        del self.inc[vid]
        self.eqw.pop(vid, None)

    def detach_edge(self, eid):
        for idx, (v, _) in enumerate(self.ends.pop(eid)):
            if v in self.inc:
                self.inc[v].discard((eid, idx))
                heappush(self.todo, v)

    def mul(self, w):
        self.scalar = self.scalar * w
        if self.scalar.is_zero():
            self.zero = True


def _resolve(state, requests):
    """Assign edge-end values and propagate all forced consequences."""
    while requests and not state.zero:
        eid, idx, val = requests.pop()
        val0 = val if idx == 0 else 1 - val
        if eid in state.done:
            if state.done[eid] != val0:
                state.zero = True
            continue
        if eid not in state.ends:
            raise AssertionError("resolving an unknown edge")
        state.done[eid] = val0
        (va, da), (vb, db) = state.ends[eid]
        # a self-loop is resolved only by the collapse of its own vertex,
        # which drops the vertex; the request for its other end then meets
        # ``done`` above, which zeroes an equal-sign equality loop
        assert va != vb or va not in state.kind
        state.detach_edge(eid)
        _absorb(state, va, da, val0, requests)
        if not state.zero:
            _absorb(state, vb, db, 1 - val0, requests)


def _absorb(state, v, data, endval, requests):
    if v not in state.kind:
        return
    if state.kind[v] == "eq":
        requests += _collapse_eq(state, v, endval ^ data)
    elif endval == 1:
        state.mul(data)
        requests += _collapse_eo(state, v)
    elif not state.inc[v]:
        state.zero = True


def _collapse_eq(state, v, value):
    """Fix block v to value: its requests, one per incident end."""
    state.mul(state.eqw[v][value])
    requests = [(eid, idx, value ^ state.ends[eid][idx][1])
                for (eid, idx) in sorted(state.inc[v])]
    state.drop_vertex(v)
    return requests


def _collapse_eo(state, v):
    """Drop exact-one v, whose 1 is placed: every end of it reads 0."""
    requests = [(eid, idx, 0) for (eid, idx) in sorted(state.inc[v])]
    state.drop_vertex(v)
    return requests


def _merge_eq(state, keep, gone, t):
    """Fold block `gone` (value = value(keep) xor t) into `keep`."""
    w0, w1 = state.eqw[gone]
    k0, k1 = state.eqw[keep]
    state.eqw[keep] = [k0 * (w0 if t == 0 else w1),
                       k1 * (w1 if t == 0 else w0)]
    for (eid, idx) in sorted(state.inc[gone]):
        sign = state.ends[eid][idx][1]
        state.ends[eid][idx] = [keep, sign ^ t]
        state.inc[keep].add((eid, idx))
    state.inc[gone].clear()
    state.drop_vertex(gone)
    if state.eqw[keep][0].is_zero() and state.eqw[keep][1].is_zero():
        state.zero = True


def _merge_eo(state, keep, gone, w_keep_side, w_gone_side):
    """Merge eo `gone` into `keep` after removing their connecting edge.

    Ends kept from `keep` get their weight multiplied by w_keep_side, ends
    from `gone` by w_gone_side.
    """
    for (eid, idx) in sorted(state.inc[keep]):
        state.ends[eid][idx][1] = state.ends[eid][idx][1] * w_keep_side
    for (eid, idx) in sorted(state.inc[gone]):
        state.ends[eid][idx] = [keep, state.ends[eid][idx][1] * w_gone_side]
        state.inc[keep].add((eid, idx))
    state.inc[gone].clear()
    state.drop_vertex(gone)


def _simplify_step(state):
    """Apply one local rewrite; True when something fired.

    Touched vertices leave ``state.todo`` in id order until a rule fires at
    one.  Every rule is an exact identity, so none waits for another.
    """
    todo = state.todo
    while todo:
        v = heappop(todo)
        while todo and todo[0] == v:
            heappop(todo)
        if v in state.kind and _rewrite_at(state, v):
            return True
    return False


def _rewrite_at(state, v):
    """Apply the first rule that fits at v: a block of degree 0 or with a
    zero weight, an exact-one of degree 0 or 1, a self-loop, a merge with a
    neighbour of its kind, parallel edges between a block and an exact-one,
    then a connector of arity 2.  True when one fired."""
    kind, inc = state.kind[v], state.inc[v]
    if kind == "eq":
        w0, w1 = state.eqw[v]
        if not inc:
            state.mul(w0 + w1)
            state.drop_vertex(v)
            return True
        if w0.is_zero() or w1.is_zero():
            # a pin forces every end of it to the nonzero side
            _resolve(state, _collapse_eq(state, v, int(w0.is_zero())))
            return True
    elif len(inc) <= 1:
        if inc:
            [(eid, idx)] = inc
            _resolve(state, [(eid, idx, 1)])
        else:
            state.zero = True
        return True
    by = defaultdict(list)  # neighbour -> v's ends (eid, idx) toward it
    for (eid, idx) in sorted(inc):
        by[state.ends[eid][1 - idx][0]].append((eid, idx))
    if v in by:  # a self-loop
        eid = by[v][0][0]
        (_, da), (_, db) = state.ends[eid]
        if kind == "eo":
            # an exact-one self-loop holds its 1; every other end becomes 0
            state.mul(da + db)
            state.detach_edge(eid)
            _resolve(state, _collapse_eo(state, v))
        elif da == db:
            state.zero = True
        else:
            state.detach_edge(eid)
        return True
    same = [u for u in sorted(by) if state.kind[u] == kind]
    if same and kind == "eq":
        eid = by[same[0]][0][0]
        (keep, da), (gone, db) = state.ends[eid]
        state.detach_edge(eid)
        _merge_eq(state, keep, gone, 1 ^ da ^ db)
        return True
    if same:  # edges between two exact-ones
        u = same[0]
        ends = [(state.ends[eid][idx][1], state.ends[eid][1 - idx][1])
                for (eid, idx) in by[u]]
        if len(ends) >= 3:
            state.zero = True
            return True
        for (eid, _) in by[u]:
            state.detach_edge(eid)
        if len(ends) == 2:
            (l1, m1), (l2, m2) = ends
            state.mul(l1 * m2 + l2 * m1)
            _resolve(state, _collapse_eo(state, min(v, u))
                     + _collapse_eo(state, max(v, u)))
        else:
            # one edge: the 1 sits on exactly one side of it
            [(lv, lu)] = ends
            if v < u:
                _merge_eo(state, v, u, w_keep_side=lu, w_gone_side=lv)
            else:
                _merge_eo(state, u, v, w_keep_side=lv, w_gone_side=lu)
        return True
    for u in sorted(by):
        if len(by[u]) < 2:
            continue
        # parallel edges between a block and an exact-one: (sign, weight)
        ends = [(state.ends[eid][idx][1], state.ends[eid][1 - idx][1])
                for (eid, idx) in by[u]]
        blk, eo = (v, u) if kind == "eq" else (u, v)
        if kind == "eo":
            ends = [(s, lam) for (lam, s) in ends]
        signs = [s for (s, _) in ends]
        # the first sign that a later edge repeats
        s = next((x for i, x in enumerate(signs) if x in signs[i + 1:]), None)
        if s is not None:
            _resolve(state, _collapse_eq(state, blk, 1 - s))
            return True
        # exactly two edges with opposite signs: the exact-one is satisfied
        lam = dict(ends)
        w0, w1 = state.eqw[blk]
        state.eqw[blk] = [w0 * lam[0], w1 * lam[1]]
        for (eid, _) in by[u]:
            state.detach_edge(eid)
        _resolve(state, _collapse_eo(state, eo))
        return True
    return len(inc) == 2 and _connect(state, v)


def _connect(state, v):
    """The connector rules at v, of arity 2, whose two neighbours are
    distinct and of the other kind.  A block with opposite signs joins two
    exact-ones into one; an exact-one becomes an edge between two blocks,
    which the merge rule folds next.  A same-sign block fits no rule and
    waits: True when one fired."""
    kind = state.kind[v]
    (e1, i1), (e2, i2) = sorted(state.inc[v])
    (a, da), (b, db) = state.ends[e1][1 - i1], state.ends[e2][1 - i2]
    x1, x2 = state.ends[e1][i1][1], state.ends[e2][i2][1]
    assert a != b and state.kind[a] == state.kind[b] != kind
    if kind == "eq" and x1 == x2:
        return False
    w0, w1 = state.eqw[v if kind == "eq" else a]
    state.detach_edge(e1)
    state.detach_edge(e2)
    state.drop_vertex(v)
    if kind == "eq":
        # a's surviving ends: the 1 sits on a, block value = 1 xor x1;
        # b's surviving ends: the 1 sits on b, block value = x1
        _merge_eo(state, a, b, w_keep_side=db * (w1 if x1 == 0 else w0),
                  w_gone_side=da * (w0 if x1 == 0 else w1))
    else:
        # the 1 sits on the end at a exactly when a's value is da, so the
        # end weights move onto a
        state.eqw[a] = [w0 * (x1 if da == 0 else x2),
                        w1 * (x2 if da == 0 else x1)]
        state.add_edge(a, da, b, db)
    return True


def _pin_step(state):
    """Locate guaranteed pinned edges in the relaxed instance and apply them."""
    blocks = {v for v in state.kind if state.kind[v] == "eq"}
    eos = {v for v in state.kind if state.kind[v] == "eo"}
    if not blocks or not eos:
        raise PinSearchError("pin search on a non-mixed instance")
    small = []
    big = []
    for b in sorted(blocks):
        deg = len(state.inc[b])
        if deg == 4:
            small.append(b)
        elif deg >= 5:
            big.append(b)
        else:
            raise PinSearchError("block of arity %d in the pin phase" % deg)
    # relax arity-4 blocks into paired pseudo-disequalities
    pseudo = []   # (eoA, endA, eoB, endB) with end = (eid, idx at the eo)
    for b in small:
        plus = []
        minus = []
        for (eid, idx) in sorted(state.inc[b]):
            sign = state.ends[eid][idx][1]
            other = state.ends[eid][1 - idx][0]
            entry = (eid, 1 - idx, other)
            (plus if sign == 0 else minus).append(entry)
        if len(plus) != 2 or len(minus) != 2:
            raise PinSearchError("arity-4 block without a (2,2) sign split")
        pseudo.append((plus[0], minus[0]))
        pseudo.append((plus[1], minus[1]))
    # cycle search in the exact-one / pseudo-edge graph
    cycle = _find_cycle([(ea[2], eb[2]) for (ea, eb) in pseudo])
    if cycle is not None:
        cyc_eos, cyc_pseudos = cycle
        used = set()
        for pi in cyc_pseudos:
            ea, eb = pseudo[pi]
            used.add((ea[2], ea[0]))
            used.add((eb[2], eb[0]))
        reqs = []
        for v in cyc_eos:
            for (eid, idx) in sorted(state.inc[v]):
                if (v, eid) not in used:
                    reqs.append((eid, idx, 0))
        assert reqs
        _resolve(state, reqs)
        return
    # no cycles: pseudo edges form trees; group exact-ones into super nodes
    uf = _DisjointSet()
    for (ea, eb) in pseudo:
        uf.union(ea[2], eb[2])
    find = uf.find
    pseudo_ends = {(ea[2], ea[0]) for (ea, eb) in pseudo} | \
                  {(eb[2], eb[0]) for (ea, eb) in pseudo}
    super_slots = {}
    for v in sorted(eos):
        root = find(v)
        for (eid, idx) in sorted(state.inc[v]):
            if (v, eid) not in pseudo_ends:
                super_slots.setdefault(root, []).append((eid, idx, v))
    # parallel edges between a big block and one super node
    b_adj = {}  # big block -> {super root: its slots on the block}
    for b in big:
        by_super = b_adj[b] = {}
        for (eid, idx) in sorted(state.inc[b]):
            other = state.ends[eid][1 - idx][0]
            by_super.setdefault(find(other), []).append((eid, idx))
        for root, slots in sorted(by_super.items()):
            if len(slots) < 2:
                continue
            signs = [state.ends[eid][idx][1] for (eid, idx) in slots]
            same = [(slots[i], slots[j]) for i, j in
                    combinations(range(len(slots)), 2) if signs[i] == signs[j]]
            if same:
                reqs = [(eid, 1 - idx, 0) for (eid, idx) in same[-1]]
                _resolve(state, reqs)
                return
            pair = {slots[0][0], slots[1][0]}
            reqs = [(eid, idx, 0) for (eid, idx, _) in super_slots[root]
                    if eid not in pair]
            assert reqs, "a super exact-one of arity >= 3 keeps a free end"
            _resolve(state, reqs)
            return
    # a simple bipartite graph, one slot per block and super: only the
    # wheel structure remains (k = 5)
    _wheel_step(state, {b: {root: slot for root, [slot] in by_super.items()}
                        for b, by_super in b_adj.items()}, super_slots)


def _find_cycle(pairs):
    """The first simple cycle closed while growing a forest edge by edge.

    Returns (set of vertices on the cycle, set of edge indices) or None.
    """
    uf = _DisjointSet()
    tree = {}
    for pi, (a, b) in enumerate(pairs):
        tree.setdefault(a, [])
        tree.setdefault(b, [])
        assert a != b, "a pseudo pair never returns to its own exact-one"
        if uf.find(a) != uf.find(b):
            uf.union(a, b)
            tree[a].append((pi, b))
            tree[b].append((pi, a))
            continue
        # the tree path from a to b plus this edge closes a cycle
        prev = {a: (None, None)}
        stack = [a]
        while b not in prev:
            v = stack.pop()
            for (ei, w) in tree[v]:
                if w not in prev:
                    prev[w] = (v, ei)
                    stack.append(w)
        verts, eids = set(), {pi}
        v = b
        while v is not None:
            verts.add(v)
            v, ei = prev[v]
            if ei is not None:
                eids.add(ei)
        return verts, eids
    return None


def _wheel_step(state, b_adj, super_slots):
    """Pin through a wheel: a degree-5 all-equal-sign block whose five
    neighbors close a 5-cycle via five distinct rim blocks.  ``b_adj`` maps
    each big block to {super root: the one slot (eid, idx) between them}."""
    super_deg = {root: len(slots) for root, slots in super_slots.items()}
    for c in sorted(b_adj):
        if len(b_adj[c]) != 5:  # one slot per super: the degree of c
            continue
        signs = {state.ends[eid][idx][1] for (eid, idx) in state.inc[c]}
        if len(signs) != 1:
            continue
        supers = sorted(b_adj[c])
        heavy = [t for t in supers if super_deg[t] > 3]
        if len(heavy) > 1:
            continue
        arrangement = _arrange_wheel(supers, b_adj, c)
        if arrangement is None:
            continue
        order, rims = arrangement
        # different rim signs along the cycle pin the center to 0
        mixed = False
        for i in range(5):
            rim = rims[i]
            e1 = b_adj[rim][order[i]]
            e2 = b_adj[rim][order[(i + 1) % 5]]
            s1 = state.ends[e1[0]][e1[1]][1]
            s2 = state.ends[e2[0]][e2[1]][1]
            if s1 != s2:
                mixed = True
        if mixed:
            reqs = [(eid, 1 - idx, 0) for (eid, idx) in sorted(state.inc[c])]
            _resolve(state, reqs)
            return
        if not heavy:
            # type 1: the center is pinned to 1 on the matching side
            reqs = [(eid, 1 - idx, 1) for (eid, idx) in sorted(state.inc[c])]
            _resolve(state, reqs)
            return
        # type 2: the heavy neighbor's two rim edges are pinned to 0
        t = heavy[0]
        i = order.index(t)
        reqs = []
        for rim in (rims[(i - 1) % 5], rims[i]):
            eid, idx = b_adj[rim][t]
            reqs.append((eid, 1 - idx, 0))
        _resolve(state, reqs)
        return
    raise PinSearchError("no parallel edges, cycle, or wheel: "
                         "is the instance genus 0 with gcd >= 5?")


def _arrange_wheel(supers, b_adj, center):
    """Order the five neighbors into a cycle closed by distinct rim blocks."""
    rim_between = {}
    for b in sorted(b_adj):
        if b == center:
            continue
        for s, t in combinations(supers, 2):
            if s in b_adj[b] and t in b_adj[b]:
                rim_between.setdefault((s, t), []).append(b)
    first = supers[0]
    for perm in permutations(supers[1:]):
        order = [first] + list(perm)
        if order[1] > order[-1]:
            continue  # each cycle once
        chosen = []
        for i in range(5):
            a, b = order[i], order[(i + 1) % 5]
            key = (min(a, b), max(a, b))
            cands = [r for r in rim_between.get(key, ()) if r not in chosen]
            if not cands:
                break
            chosen.append(cands[0])
        else:
            return order, chosen
    return None


def eo_geneq_eval(inst):
    """Exact Holant of an EO instance by repeated rewriting and pinning."""
    if inst.k and inst.k < 5:
        raise GcdError("equality arities have gcd %d < 5" % inst.k)
    state = _EOState()
    vids = [state.add_vertex(kind, payload)
            for (kind, payload, _) in inst.nodes]
    for (a, b) in inst.edges:
        state.add_edge(vids[a], inst.nodes[a][2], vids[b], inst.nodes[b][2])
    state.mul(inst.scalar)
    while not state.zero and (state.ends or state.kind):
        before = state.measure()
        if not _simplify_step(state):
            if state.zero:
                break
            _pin_step(state)
        assert state.zero or state.measure() < before, \
            "the rewrite system failed to make progress"
    return ZERO if state.zero else state.scalar


# ---------------------------------------------------------------------------
# hypergraph perfect matchings
# ---------------------------------------------------------------------------

class PlanarHypergraph:
    """A hypergraph with a genus-0 incidence embedding.

    ``rotation`` maps every node (hypergraph vertex or hyperedge id) to the
    counterclockwise list of its incidence half-edge ids; an incidence is one
    id shared between a hyperedge's rotation and a member vertex's rotation.
    The genus-0 check reads that rotation system, whose edges are the
    incidences; the Holant grid, which only subdivides each incidence, has
    the same Euler characteristic and is built when ``holant_grid`` is first
    called.
    """

    def __init__(self, vertices, hyperedges, rotation):
        self.vertices = list(vertices)
        self.hyperedges = [(h, list(members)) for (h, members) in hyperedges]
        self.rotation = {k: list(v) for k, v in rotation.items()}
        self._grid = None
        vset = set(self.vertices)
        hset = {h for (h, _) in self.hyperedges}
        if len(vset) != len(self.vertices):
            raise StructureError("duplicate vertex ids")
        if len(hset) != len(self.hyperedges):
            raise StructureError("duplicate hyperedge ids")
        if vset & hset:
            raise StructureError("vertex and hyperedge ids must be disjoint")
        for node in self.rotation:
            if node not in vset and node not in hset:
                raise StructureError("rotation of unknown node %r" % (node,))
        nodes = self.vertices + [h for (h, _) in self.hyperedges]
        owners = {}  # incidence -> [its vertex, its hyperedge]
        for node in nodes:
            for half in self.rotation.get(node, ()):
                owners.setdefault(half, []).append(node)
        for half, who in owners.items():
            if len(who) != 2 or ((who[0] in vset) == (who[1] in vset)):
                raise StructureError(
                    "incidence %r must join one vertex and one hyperedge"
                    % (half,))
        for (h, members) in self.hyperedges:
            touched = [owners[half][0] for half in self.rotation.get(h, ())]
            if sorted(members, key=repr) != sorted(touched, key=repr):
                raise StructureError(
                    "hyperedge %r members disagree with its rotation" % (h,))
        # each incidence is an edge between the darts (node, incidence) of
        # its vertex and its hyperedge
        darts = {node: [(node, half) for half in self.rotation.get(node, ())]
                 for node in nodes}
        links = [(node, half) for half, who in owners.items() for node in who]
        if not _embed(*_number(darts, links))[3]:
            raise EmbeddingError("the incidence embedding is not genus 0")

    def sizes(self):
        return [len(members) for (_, members) in self.hyperedges]

    def _incidence_grid(self):
        """The disequality-connected Holant grid whose value is the PM count.

        Hyperedges carry equalities and vertices carry all-but-one (each
        vertex sees the negation of the hyperedge indicator through the
        disequality edge), so selecting exactly one incident hyperedge per
        vertex is exactly a perfect matching.  An uncovered vertex carries
        [0]: it admits no perfect matching.  Every node id is a pair tagged
        "v", "he" or "ne", and every half-edge id its node's pair plus one
        entry, so no hypergraph id names a node or half-edge of the grid.
        """
        verts, owner = [], {}
        for node in self.vertices:
            rot = self.rotation.get(node, ())
            owner.update(dict.fromkeys(rot, node))
            verts.append(Vertex(
                ("v", node),
                all_but_one(len(rot)) if rot else SymmetricSignature([0]),
                [("v", node, half) for half in rot]))
        for (h, _) in self.hyperedges:
            rot = self.rotation.get(h, ())
            if rot:
                verts.append(Vertex(("he", h), equality(len(rot)),
                                    [("he", h, half) for half in rot]))
        side = dict.fromkeys((v.id for v in verts), "R")
        edges = []
        for (h, _) in self.hyperedges:
            for half in self.rotation.get(h, ()):
                mid = ("ne", len(edges) // 2)
                verts.append(Vertex(mid, diseq2(), [mid + (0,), mid + (1,)]))
                side[mid] = "L"
                edges += [(("he", h, half), mid + (0,)),
                          (("v", owner[half], half), mid + (1,))]
        return PlanarGrid(verts, edges, side=side)

    def holant_grid(self):
        if self._grid is None:
            self._grid = self._incidence_grid()
        return self._grid


def hypergraph_pm(h, cap=None):
    """(verdict, value): exact along the verdict's route or, for sizes {1},
    in closed form, else capped brute force (value None past the cap)."""
    sizes = h.sizes()
    if not sizes:
        # no hyperedges: a perfect matching exists only for no vertices
        return (SetVerdict("hpm", True, case="no hyperedges"),
                ZERO if h.vertices else ONE)
    verdict = hypergraph_verdict(sizes)
    if verdict.route == "eo":
        return verdict, eo_geneq_eval(EOInstance(h.holant_grid()))
    if verdict.route == "fkt":
        # ordinary graph: count perfect matchings through FKT
        edges = [(*h.rotation[he], ONE) for (he, _) in h.hyperedges]
        return verdict, fkt_count_pm(WeightedPlanarGraph(
            h.vertices, {v: h.rotation.get(v, ()) for v in h.vertices}, edges))
    if verdict.tractable:  # sizes {1}: each vertex takes one singleton
        at = Counter(members[0] for _, members in h.hyperedges)
        return verdict, AN(prod(at[v] for v in h.vertices))
    try:  # PHard sizes
        return verdict, h.holant_grid().holant(cap)
    except TooLarge:
        return verdict, None


def hypergraph_from_json(doc):
    vertices = _json_ids(doc["vertices"], "vertices")
    hyperedges = []
    for e in _json_list(doc["hyperedges"], "hyperedges"):
        e = _json_object(e, "hyperedges")
        hyperedges.append((_json_id(e["id"], "hyperedges"),
                           _json_ids(e["members"], "members")))
    return PlanarHypergraph(
        vertices, hyperedges,
        {k: _json_ids(r, "rotation")
         for k, r in _json_keyed(doc["rotation"],
                                 vertices + [h for h, _ in hyperedges],
                                 "rotation",
                                 "rotation of unknown node %r").items()})


def hypergraph_to_json(h):
    return {
        "vertices": list(h.vertices),
        "hyperedges": [{"id": he, "members": list(m)}
                       for (he, m) in h.hyperedges],
        "rotation": {_json_key(k): list(v) for k, v in h.rotation.items()},
    }


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def _fkt_route(grid):
    """Grids of exact-one signatures count weighted perfect matchings."""
    def weight(f):  # a constant only scales the count
        if f.arity and f.support() != (1,):
            raise ClassError("%r is not an exact-one signature" % f)
        return f[min(f.arity, 1)]

    scalar = _scaled(grid, weight)
    rotation = {vid: list(v.rotation) for vid, v in grid.vertices.items()
                if v.sig.arity}
    g = WeightedPlanarGraph(list(rotation), rotation,
                            [(a, b, ONE) for (a, b) in grid.edges])
    return scalar * fkt_count_pm(g)


def _eo_route(grid):
    """Case 7: pin the grid read in the Z basis, where each signature is its
    Z image and each edge the disequality [0, 2, 0]."""
    if not grid.validate()[1]:
        raise EmbeddingError("the grid is not genus 0")
    return eo_geneq_eval(EOInstance.z_side(grid))


# the routes by name, each route(grid, cap); the lambdas look the solvers up
# when called, so a solver replaced on the module is the one that runs
ROUTES = {
    "brute": lambda grid, cap: grid.holant(cap),
    "product": lambda grid, cap: product_eval(grid),
    "affine": lambda grid, cap: affine_eval(grid),
    "eo": lambda grid, cap: _eo_route(grid),
    "fkt": lambda grid, cap: _fkt_route(grid),
}


def _direct(grid):
    """The first value among product, affine, vanishing and exact-one FKT
    that takes the grid as it stands, or None."""
    for solver in (product_eval, affine_eval, vanishing_eval, _fkt_route):
        try:
            return solver(grid)
        except ClassError:
            pass
    return None


def evaluate(grid, method="auto", cap=None):
    """Exact Holant value by the ``ROUTES`` entry ``method``.  "auto" takes
    the first that applies of: (1) ``_direct``; (2) the route of the verdict
    on the distinct non-constant signatures; (3) ``_direct`` on the
    2-stretched grid moved by the verdict's witness, unless that is absent
    or the identity; (4) brute force within the edge cap, else TooLarge."""
    if method != "auto":
        if method not in ROUTES:
            raise ValueError("unknown method %r" % method)
        return ROUTES[method](grid, cap)
    value = _direct(grid)
    if value is not None:
        return value
    verdict = dichotomy_plholant_set(_signatures(grid))
    if verdict.route is not None:
        return ROUTES[verdict.route](grid, cap)
    if verdict.witness is not None and verdict.witness != identity2():
        value = _direct(holographic_transform_bipartite(
            two_stretch(grid), verdict.witness))
        if value is not None:
            return value
    try:
        return grid.holant(cap)
    except TooLarge:
        if verdict.tractable:
            raise TooLarge(
                "tractable (%s) but no polynomial route is implemented and "
                "%d edges exceed the cap %d"
                % (verdict.case, len(grid.edges), edge_cap(cap)))
        raise TooLarge(
            "classified #P-hard (%s) and %d edges exceed the brute-force "
            "cap %d" % (verdict.obstruction, len(grid.edges), edge_cap(cap)))
