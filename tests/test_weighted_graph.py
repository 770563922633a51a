"""WeightedPlanarGraph on awkward input: one refusal per malformed graph,
and FKT against brute force on graphs whose ids mix ints, strings and
tuples, with isolated vertices, several components, self-loops and
parallel arcs whose Kasteleyn entries cancel."""

import random

import pytest

import planar_holant.solvers as solvers
from planar_holant.grid import EmbeddingError, StructureError
from planar_holant.solvers import WeightedPlanarGraph, fkt_count_pm

from test_embedding import _relabel
from test_solvers import brute_pm, cycle_hub_topology, rnd_w

# -- refusals ----------------------------------------------------------------

K5 = {v: ["%d_%d" % (v, w) for w in range(5) if w != v] for v in range(5)}
K5_EDGES = [("%d_%d" % (v, w), "%d_%d" % (w, v), 1)
            for v in range(5) for w in range(v + 1, 5)]

# (vertices, rotation, edges, exception type, message), one per refusal;
# the last two show which check comes first when a graph breaks two
REFUSALS = {
    "duplicate vertex ids": (
        [0, "u", 0], {0: ["a"], "u": ["b"]}, [("a", "b", 1)],
        StructureError, "duplicate vertex ids"),
    "rotation of an unknown vertex": (
        [0, "u"], {0: ["a"], "u": ["b"], (1, "w"): ["c"]}, [("a", "b", 1)],
        StructureError, "rotation of unknown vertex (1, 'w')"),
    "half-edge used twice": (
        [0, "u"], {0: ["a", ("h", 1)], "u": ["b", ("h", 1)]},
        [("a", "b", 1)],
        StructureError, "half-edge ('h', 1) used twice"),
    "edge with an unknown half-edge": (
        [0, "u"], {0: ["a"], "u": ["b"]}, [("a", ("z", 2), 1)],
        StructureError, "edge uses unknown half-edge ('z', 2)"),
    "half-edge in two edges": (
        [0, "u", 2], {0: ["a", "x"], "u": ["b"], 2: ["c"]},
        [("a", "b", 1), ("c", "a", 1)],
        StructureError, "half-edge 'a' in two edges"),
    "edge from a half-edge to itself": (
        [0], {0: ["a"]}, [("a", "a", 1)],
        StructureError, "half-edge 'a' in two edges"),
    "unmatched half-edge": (
        [0, "u"], {0: ["a", 7, ("t",)], "u": ["b"]}, [("a", "b", 1)],
        StructureError,
        "half-edges neither matched nor dangling: [('t',), 7]"),
    "zero weight": (
        [0, "u"], {0: ["a"], "u": ["b"]}, [("a", "b", "1 - 1")],
        ValueError, "edge weights must be nonzero"),
    "genus of K5": (
        list(K5), K5, K5_EDGES,
        EmbeddingError, "the rotation system is not genus 0"),
    "genus of two interleaved loops": (
        ["v"], {"v": ["a", "b", "c", "d"]}, [("a", "c", 1), ("b", "d", 1)],
        EmbeddingError, "the rotation system is not genus 0"),
    "zero weight before duplicate ids": (
        [0, 0], {0: ["a", "b"]}, [("a", "b", 0)],
        ValueError, "edge weights must be nonzero"),
    "half-edge used twice before an unknown one": (
        [0, 1], {0: ["a", "x"], 1: ["x"]}, [("a", "q", 1)],
        StructureError, "half-edge 'x' used twice"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_weighted_graph_refusal(name):
    vertices, rotation, edges, kind, message = REFUSALS[name]
    with pytest.raises(Exception) as e:
        WeightedPlanarGraph(vertices, rotation, edges)
    assert type(e.value) is kind and str(e.value) == message


# -- FKT on mixed ids --------------------------------------------------------

def _mixed_id(rnd, k, tag):
    """An id for k: an int, a string or a (nested) tuple, drawn at random;
    ids of distinct k never collide."""
    return rnd.choice((k, "%s%d" % (tag, k), (tag, k), (k, (tag,))))


def mixed_id_graph(seed):
    """(vertices, rotation, edges) of a planar multigraph small enough for
    ``brute_pm``: one to three components (cycles with parallel bundles and
    a hub), each edge weighted afresh or plus or minus the weight before it,
    so that parallel arcs can cancel in the Kasteleyn matrix; up to two
    self-loops put at two random places in a rotation until the embedding
    is genus 0; and, in a quarter of the graphs, an isolated vertex, listed
    with an empty rotation or none.  Vertex and half-edge ids mix ints,
    strings and tuples, and both the vertex list and the rotation's keys
    come in a random order."""
    rnd = random.Random("mixed-%d" % seed)
    while True:
        rots, edges = {}, []
        for c in range(rnd.randint(1, 3)):
            r, e = _relabel(*cycle_hub_topology(rnd, maxn=4, maxb=2), c)
            rots.update(r)
            edges += e
        if len(edges) <= 11:
            break
    weights = []
    for _ in edges:
        if weights and rnd.random() < 0.5:
            weights.append(rnd.choice((weights[-1], -weights[-1])))
        else:
            weights.append(rnd_w(rnd))
    plain = rots
    for _ in range(100):
        rots = {v: list(rot) for v, rot in plain.items()}
        loops = []
        for k in range(rnd.randint(0, 2)):
            v = rnd.choice(sorted(rots, key=repr))
            x, y = ("l", k, 0), ("l", k, 1)
            rots[v].insert(rnd.randint(0, len(rots[v])), x)
            rots[v].insert(rnd.randint(0, len(rots[v])), y)
            loops.append((x, y))
        try:
            WeightedPlanarGraph(list(rots), rots, [
                (a, b, 1) for a, b in edges + loops])
            break
        except EmbeddingError:
            continue
    else:
        rots, loops = plain, []
    weights += [rnd_w(rnd) for _ in loops]
    if rnd.random() < 0.25:
        rots["isolated"] = []
    vid = {v: _mixed_id(rnd, k, "v") for k, v in enumerate(rots)}
    hid = {h: _mixed_id(rnd, k, "h")
           for k, h in enumerate(h for rot in rots.values() for h in rot)}
    rotation = {vid[v]: [hid[h] for h in rot] for v, rot in rots.items()
                if rot or rnd.random() < 0.5}
    rotation = dict(rnd.sample(list(rotation.items()), len(rotation)))
    vertices = rnd.sample(list(vid.values()), len(vid))
    return vertices, rotation, [(hid[a], hid[b], w) for (a, b), w in
                                zip(edges + loops, weights)]


def test_fkt_matches_brute_force_on_mixed_ids(monkeypatch):
    kasteleyn, cancelled = solvers._kasteleyn, []

    def recording(m, arcs):
        rows = kasteleyn(m, arcs)
        cancelled.extend(h not in rows[t] for t, h, _ in arcs)
        return rows

    monkeypatch.setattr(solvers, "_kasteleyn", recording)
    seen = dict.fromkeys(("nonzero", "isolated", "components", "loops",
                          "tuple ids", "string ids", "int ids"), 0)
    for seed in range(240):
        vertices, rotation, edges = mixed_id_graph(seed)
        g = WeightedPlanarGraph(vertices, rotation, edges)
        value = fkt_count_pm(g)
        assert value == brute_pm(g), seed
        owner = g.half_owner
        seen["nonzero"] += not value.is_zero()
        seen["isolated"] += any(not g.rotation[v] for v in vertices)
        seen["components"] += len(set(g.component.values())) > 1
        seen["loops"] += any(owner[a] == owner[b] for a, b, _ in edges)
        ids = vertices + list(owner)
        for kind, name in ((tuple, "tuple"), (str, "string"), (int, "int")):
            seen[name + " ids"] += any(type(x) is kind for x in ids)
    assert min(seen.values()) >= 30, seen
    assert sum(cancelled) >= 20


@pytest.mark.parametrize("seed", range(40))
def test_fkt_ignores_vertex_and_rotation_order(seed):
    vertices, rotation, edges = mixed_id_graph(seed)
    value = fkt_count_pm(WeightedPlanarGraph(vertices, rotation, edges))
    rnd = random.Random(seed)
    for _ in range(5):
        order = rnd.sample(vertices, len(vertices))
        keys = rnd.sample(list(rotation), len(rotation))
        g = WeightedPlanarGraph(order, {v: rotation[v] for v in keys}, edges)
        assert fkt_count_pm(g) == value
