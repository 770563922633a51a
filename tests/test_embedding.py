"""One reading of each planar embedding: the genus-0 check's faces and
components feed FKT, and a hypergraph checks its own incidence rotation and
builds its Holant grid only on demand."""

import random

import pytest

import planar_holant.grid as grid_module
from planar_holant.algebra import AN, ONE
from planar_holant.grid import EmbeddingError, StructureError
from planar_holant.solvers import (
    PlanarHypergraph,
    WeightedPlanarGraph,
    fkt_count_pm,
    hypergraph_pm,
)

from test_solvers import (
    brute_pm,
    cycle_hub_topology,
    cycle_hypergraph,
    random_hypergraph5,
    rnd_w,
)


# -- FKT on graphs with self-loops ----------------------------------------------

def _relabel(rots, edges, tag):
    return ({(tag, v): [(tag, h) for h in rot] for v, rot in rots.items()},
            [((tag, a), (tag, b)) for a, b in edges])


def _sides(rotation, x, y):
    """The halves strictly between x and y, and between y and x, going
    around one rotation."""
    i, j = rotation.index(x), rotation.index(y)
    if i > j:
        i, j = j, i
    return rotation[i + 1:j], rotation[j + 1:] + rotation[:i]


def looped_graph(seed):
    """A planar multigraph of two or three components (cycles with parallel
    bundles and a hub, plus pendant edges), at most 12 edges that are not
    loops, and 1-3 self-loops, each put at two random places in one
    rotation until the embedding is genus 0, so loops enclose pendant
    edges and other loops or sit empty inside a face."""
    rnd = random.Random("loops-%d" % seed)
    while True:
        rots, edges = {}, []
        for c in range(rnd.randint(2, 3)):
            r, e = _relabel(*cycle_hub_topology(rnd, maxn=3, maxb=2), c)
            rots.update(r)
            edges += e
        for k in range(rnd.randint(0, 3)):
            v = rnd.choice(sorted(rots, key=repr))
            x, y = ("p", k, 0), ("p", k, 1)
            rots[v].insert(rnd.randint(0, len(rots[v])), x)
            rots[("leaf", k)] = [y]
            edges.append((x, y))
        if len(edges) <= 12:
            break
    plain = (rots, edges)
    for _ in range(100):
        rots = {v: list(rot) for v, rot in plain[0].items()}
        loops = []
        for k in range(rnd.randint(1, 3)):
            v = rnd.choice(sorted(rots, key=repr))
            x, y = ("l", k, 0), ("l", k, 1)
            rots[v].insert(rnd.randint(0, len(rots[v])), x)
            rots[v].insert(rnd.randint(0, len(rots[v])), y)
            loops.append((x, y))
        try:
            g = WeightedPlanarGraph(
                sorted(rots, key=repr), rots,
                [(a, b, rnd_w(rnd)) for a, b in plain[1] + loops])
        except EmbeddingError:
            continue
        return g, loops
    raise AssertionError("no genus-0 placement of the loops")


def test_fkt_with_self_loops_matches_brute_force():
    nonzero = enclosing = both_sides = 0
    for seed in range(240):
        g, loops = looped_graph(seed)
        assert len(set(g.component.values())) >= 2
        value = fkt_count_pm(g)
        assert value == brute_pm(g), seed
        nonzero += not value.is_zero()
        for x, y in loops:
            inside, outside = _sides(g.rotation[g.half_owner[x]], x, y)
            enclosing += bool(inside) and bool(outside)
            both_sides += any(h[0] != "l" for h in inside) and any(
                h[0] != "l" for h in outside)
    assert nonzero >= 30 and enclosing >= 30 and both_sides >= 20


def test_loops_do_not_change_the_count():
    # at vertex 0, loop l encloses loop m, which encloses the pendant edge
    # p-q; loop n sits empty at vertex 4
    rot = {0: ["l0", "m0", "p", "m1", "l1", "a"], 1: ["b"], 2: ["q"],
           3: ["c"], 4: ["d", "n0", "n1"]}
    edges = [("a", "b", AN(3)), ("p", "q", AN(5)), ("c", "d", AN(7)),
             ("l0", "l1", AN(2)), ("m0", "m1", AN(-1)), ("n0", "n1", AN(4))]
    g = WeightedPlanarGraph(sorted(rot), rot, edges)
    assert fkt_count_pm(g) == brute_pm(g) == AN(0)  # 2-0-1 is odd
    rot[1] = ["b", "r"]
    rot[5] = ["s"]
    g = WeightedPlanarGraph(sorted(rot), rot, edges + [("r", "s", AN(11))])
    assert fkt_count_pm(g) == brute_pm(g) == AN(5 * 11 * 7)


# -- one face trace per check ------------------------------------------------------

@pytest.fixture
def traces(monkeypatch):
    """The number of face traces run so far."""
    calls = []
    trace = grid_module._trace_faces

    def counting(*args):
        calls.append(args)
        return trace(*args)

    monkeypatch.setattr(grid_module, "_trace_faces", counting)
    return calls


@pytest.fixture
def grids(monkeypatch):
    """The number of incidence grids built so far."""
    calls = []
    build = PlanarHypergraph._incidence_grid

    def counting(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(PlanarHypergraph, "_incidence_grid", counting)
    return calls


def test_fkt_traces_no_faces_of_its_own(traces):
    g, _ = looped_graph(0)
    assert len(traces) == 1
    fkt_count_pm(g)
    assert len(traces) == 1


def test_hypergraph_builds_its_grid_only_for_routes_that_read_it(traces, grids):
    h = cycle_hypergraph(6)  # sizes {2}: FKT on the graph
    assert len(traces) == 1
    assert hypergraph_pm(h)[1] == AN(2)
    assert len(traces) == 2 and not grids  # the graph's own check
    rotation = {0: ["a"], 1: ["b"], "e": ["a"], "f": ["b"]}
    h = PlanarHypergraph([0, 1], [("e", [0]), ("f", [1])], rotation)
    assert hypergraph_pm(h)[1] == ONE and not grids  # closed form
    h = random_hypergraph5(3)  # gcd 5: pinning on the grid, built once
    verdict, value = hypergraph_pm(h)
    assert verdict.route == "eo" and len(grids) == 1
    assert h.holant_grid() is h.holant_grid() and len(grids) == 1


# -- the lazy grid keeps the eager grid's refusals -------------------------------

class EagerHypergraph(PlanarHypergraph):
    """Reference: the checks of the hypergraph itself, then its incidence
    grid, built and validated at once.  A rotation key that is neither a
    vertex nor a hyperedge is refused too; the grid would leave it out."""

    def __init__(self, vertices, hyperedges, rotation):
        self.vertices = list(vertices)
        self.hyperedges = [(h, list(members)) for (h, members) in hyperedges]
        self.rotation = {k: list(v) for k, v in rotation.items()}
        vset = set(self.vertices)
        hset = {h for (h, _) in self.hyperedges}
        if vset & hset or not set(self.rotation) <= vset | hset:
            raise StructureError("bad ids")
        owners = {}
        for node in list(vset) + sorted(hset, key=repr):
            for half in self.rotation.get(node, ()):
                owners.setdefault(half, []).append(node)
        for who in owners.values():
            if len(who) != 2 or ((who[0] in vset) == (who[1] in vset)):
                raise StructureError("bad incidence")
        for (h, members) in self.hyperedges:
            touched = [w for half in self.rotation.get(h, ())
                       for w in owners[half] if w in vset]
            if sorted(members, key=repr) != sorted(touched, key=repr):
                raise StructureError("bad members")
        self._grid = self._incidence_grid()
        if not self._grid.validate()[1]:
            raise EmbeddingError("not genus 0")


def _raw(h):
    return (list(h.vertices), [(e, list(m)) for e, m in h.hyperedges],
            {k: list(v) for k, v in h.rotation.items()})


def hypergraph_input(seed):
    """(vertices, hyperedges, rotation) of a seeded hypergraph: the size-2
    hyperedges of a cycle-and-hub multigraph with singletons at random
    places, a chain of size-5 flowers, or singletons only; about half of
    them then get one change that may make them invalid."""
    rnd = random.Random("hypergraph-%d" % seed)
    kind = seed % 3
    if kind == 0:
        rots, edges = cycle_hub_topology(rnd, maxn=4, maxb=2, loops=True)
        vertices = sorted(rots)
        hyperedges = [("e%d" % k, [v for v in vertices for h in rots[v]
                                   if h in (a, b)])
                      for k, (a, b) in enumerate(edges)]
        rotation = dict(rots)
        for k, (a, b) in enumerate(edges):
            rotation["e%d" % k] = [a, b]
        for k in range(rnd.choice([0, 0, 1, 2])):
            v = rnd.choice(vertices)
            rotation[v].insert(rnd.randint(0, len(rotation[v])), "s%d" % k)
            rotation["one%d" % k] = ["s%d" % k]
            hyperedges.append(("one%d" % k, [v]))
    elif kind == 1:
        vertices, hyperedges, rotation = _raw(random_hypergraph5(seed))
    else:
        vertices, hyperedges, rotation = list(range(rnd.randint(1, 3))), [], {}
        for v in vertices:
            rotation[v] = []
            for k in range(rnd.randint(1, 2)):
                rotation[v].append((v, k))
                rotation[("one", v, k)] = [(v, k)]
                hyperedges.append((("one", v, k), [v]))
    change = rnd.choice([None] * 8 + ["vertex twice", "hyperedge twice",
                                      "shuffle", "member", "unknown key",
                                      "shared id", "drop half", "chord",
                                      "chord"])
    vertex, (he, members) = rnd.choice(vertices), rnd.choice(hyperedges)
    if change == "vertex twice":
        vertices.append(vertex)
    elif change == "hyperedge twice":
        hyperedges.append((he, list(members)))
    elif change == "shuffle":
        node = rnd.choice(sorted(rotation, key=repr))
        rnd.shuffle(rotation[node])
    elif change == "member":
        members[rnd.randrange(len(members))] = rnd.choice(vertices)
    elif change == "unknown key":
        rotation["zz"] = ["q", "r"]
    elif change == "shared id":
        vertices.append(he)
    elif change == "drop half":
        rotation[vertex] = rotation[vertex][1:]
    elif change == "chord":  # a size-2 hyperedge between two random corners
        ends = rnd.sample(vertices, 2) if len(vertices) > 1 else vertices * 2
        for end, half in zip(ends, ("c0", "c1")):
            rotation[end].insert(rnd.randint(0, len(rotation[end])), half)
        rotation["chord"] = ["c0", "c1"]
        hyperedges.append(("chord", ends))
    return vertices, hyperedges, rotation


def outcome(cls, args):
    try:
        return hypergraph_pm(cls(*args))
    except (StructureError, EmbeddingError, ValueError) as exc:
        return type(exc)


def test_lazy_grid_refuses_what_the_eager_grid_refused():
    kinds = {}
    for seed in range(900):
        args = hypergraph_input(seed)
        want = outcome(EagerHypergraph, args)
        got = outcome(PlanarHypergraph, args)
        if isinstance(want, type):
            assert got is want, (seed, args)
            kinds[want.__name__] = kinds.get(want.__name__, 0) + 1
        else:
            assert got[1] == want[1] and got[0].route == want[0].route, seed
            kinds[want[0].route] = kinds.get(want[0].route, 0) + 1
    assert all(kinds.get(k, 0) >= 10 for k in (
        "StructureError", "EmbeddingError", "fkt", "eo", None)), kinds


def test_hypergraph_refuses_duplicate_and_unknown_ids():
    # a vertex listed twice: the closed form would count 4
    with pytest.raises(StructureError, match="duplicate vertex"):
        PlanarHypergraph([1, 1], [("e", [1]), ("f", [1])],
                         {1: ["a", "b"], "e": ["a"], "f": ["b"]})
    with pytest.raises(StructureError, match="duplicate hyperedge"):
        PlanarHypergraph([1, 2], [("e", [1, 2]), ("e", [1, 2])],
                         {1: ["a"], 2: ["b"], "e": ["a", "b"]})
    with pytest.raises(StructureError, match="'zz'"):
        PlanarHypergraph([1, 2], [("e", [1, 2])],
                         {1: ["a"], 2: ["b"], "e": ["a", "b"],
                          "zz": ["q", "r"]})


def test_hypergraph_ids_never_name_incidence_grid_nodes():
    # ids equal to the node and half-edge names the grid used before
    he, ne = ("he", "e"), ("ne", 0)
    h = PlanarHypergraph([he, 1], [("e", [he, 1])],
                         {he: ["a"], 1: ["b"], "e": ["a", "b"]})
    assert hypergraph_pm(h)[1] == ONE  # fkt
    assert h.holant_grid().holant() == ONE
    members = [he, ne, ("v", 1), ("iso", 2), "v1_'a'"]
    rotation = dict({m: ["i%d" % j] for j, m in enumerate(members)},
                    e=["i%d" % j for j in range(5)])
    h = PlanarHypergraph(members + [("iso", 3)], [("e", members)], rotation)
    assert hypergraph_pm(h)[1] == AN(0)  # ("iso", 3) is uncovered
    h = PlanarHypergraph(members, [("e", members)], rotation)
    verdict, value = hypergraph_pm(h)
    assert verdict.route == "eo" and value == ONE
    assert h.holant_grid().holant() == ONE
    # sizes {1, 2} are hard: brute force on the grid
    h = PlanarHypergraph([he, ("he", "f")],
                         [("e", [he]), ("f", [he, ("he", "f")]),
                          ("g", [("he", "f")])],
                         {he: ["a", "b"], ("he", "f"): ["c", "d"],
                          "e": ["a"], "f": ["b", "c"], "g": ["d"]})
    verdict, value = hypergraph_pm(h)
    assert not verdict.tractable and value == AN(2)


def test_weighted_graph_refuses_rotation_of_unknown_vertex():
    with pytest.raises(StructureError, match="unknown vertex 3"):
        WeightedPlanarGraph([1, 2], {1: ["a"], 2: ["b"], 3: ["c", "d"]},
                            [("a", "b", 1)])


def test_embedding_labels_components_and_counts_euler():
    rotations = {0: ["a"], 1: ["b"], 2: [], 3: ["c", "d"]}
    faces, label, tree, ok = grid_module._embedding(
        rotations, *grid_module._link(rotations, [("a", "b"), ("c", "d")]))
    assert ok and len(faces) == 3 and tree == ["a"]  # c-d is a loop
    assert label[0] == label[1] and len({label[0], label[2], label[3]}) == 3
    # two interleaved loops at one vertex: V - E + F = 1 - 2 + 1
    rotations = {0: ["a", "b", "c", "d"]}
    faces, label, tree, ok = grid_module._embedding(
        rotations, *grid_module._link(rotations, [("a", "c"), ("b", "d")]))
    assert not ok and len(faces) == 1 and label == {0: 0} and tree == []
