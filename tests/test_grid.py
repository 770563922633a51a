import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planar_holant.algebra import AN, AlgebraicNumber, I, ONE, ZERO
from planar_holant.sigcalc import (
    SymmetricSignature,
    Transform2x2,
    Z,
    all_but_one,
    degenerate,
    equality,
    exact_one,
    sig,
)
from planar_holant.grid import (
    EmbeddingError,
    NotBipartite,
    OrderError,
    PlanarGrid,
    StructureError,
    TooLarge,
    Vertex,
    grid_from_json,
    grid_to_json,
    holographic_transform_bipartite,
    orthogonal_transform,
    two_stretch,
)
from planar_holant.solvers import PlanarHypergraph


def naive_holant(grid):
    """Independent oracle: plain enumeration over all 2^E edge assignments."""
    total = ZERO
    for bits in itertools.product((0, 1), repeat=len(grid.edges)):
        val = {}
        for (a, b), x in zip(grid.edges, bits):
            val[a] = x
            val[b] = x
        term = ONE
        for v in grid.vertices.values():
            term = term * v.sig[sum(val[h] for h in v.rotation)]
            if term.is_zero():
                break
        total = total + term
    return total * grid.scalar


def self_loop_grid():
    return PlanarGrid([Vertex(0, equality(2), [0, 1])], [(0, 1)])


def k4_grid(sig_of=None):
    # planar K4: outer triangle 1,2,3 with 4 inside
    rot = {
        1: ["1_2", "1_4", "1_3"],
        2: ["2_3", "2_4", "2_1"],
        3: ["3_1", "3_4", "3_2"],
        4: ["4_3", "4_1", "4_2"],
    }
    edges = [("1_2", "2_1"), ("1_3", "3_1"), ("1_4", "4_1"),
             ("2_3", "3_2"), ("2_4", "4_2"), ("3_4", "4_3")]
    make = sig_of or (lambda v: exact_one(3))
    return PlanarGrid([Vertex(v, make(v), rot[v]) for v in rot], edges)


def triangle_gate():
    # three ExactOne_3 vertices in a triangle, one dangling edge each
    rot = {
        0: ["0_1", "0_2", "d0"],
        1: ["1_2", "1_0", "d1"],
        2: ["d2", "2_0", "2_1"],
    }
    edges = [("0_1", "1_0"), ("1_2", "2_1"), ("2_0", "0_2")]
    return PlanarGrid([Vertex(v, exact_one(3), rot[v]) for v in rot],
                      edges, dangling=["d0", "d1", "d2"])


def wheel_gate():
    # 4-cycle 1-3-7-5 around a center 2; all five vertices ExactOne_4,
    # dangling edges on the cycle vertices
    rot = {
        1: ["1_2", "1_3", "d1", "1_5"],
        2: ["2_7", "2_3", "2_1", "2_5"],
        3: ["d3", "3_1", "3_2", "3_7"],
        5: ["5_7", "5_2", "5_1", "d5"],
        7: ["d7", "7_3", "7_2", "7_5"],
    }
    edges = [("1_2", "2_1"), ("1_3", "3_1"), ("1_5", "5_1"),
             ("2_3", "3_2"), ("2_5", "5_2"), ("2_7", "7_2"),
             ("3_7", "7_3"), ("5_7", "7_5")]
    return PlanarGrid([Vertex(v, exact_one(4), rot[v]) for v in rot],
                      edges, dangling=["d1", "d5", "d7", "d3"])


def test_self_loop():
    g = self_loop_grid()
    faces, ok = g.validate()
    assert ok and len(faces) == 2
    assert g.holant() == AN(2)


def test_k4():
    g = k4_grid()
    faces, ok = g.validate()
    assert ok and len(faces) == 4
    assert g.holant() == AN(3)  # perfect matchings of K4
    assert naive_holant(g) == AN(3)


def test_k5_not_planar():
    rot = {v: ["%d_%d" % (v, w) for w in range(5) if w != v] for v in range(5)}
    edges = [("%d_%d" % (v, w), "%d_%d" % (w, v))
             for v in range(5) for w in range(v + 1, 5)]
    g = PlanarGrid([Vertex(v, sig([1] * 5), rot[v]) for v in range(5)], edges)
    _, ok = g.validate()
    assert not ok


def test_parallel_exact_one():
    rot = {0: ["a1", "a2", "a3"], 1: ["b3", "b2", "b1"]}
    edges = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
    g = PlanarGrid([Vertex(v, exact_one(3), rot[v]) for v in rot], edges)
    _, ok = g.validate()
    assert ok
    assert g.holant() == AN(3)
    assert naive_holant(g) == AN(3)


def test_structure_errors():
    with pytest.raises(StructureError):
        PlanarGrid([Vertex(0, equality(2), [0, 1])], [(0, 2)])
    with pytest.raises(StructureError):
        PlanarGrid([Vertex(0, equality(3), [0, 1])], [(0, 1)])
    with pytest.raises(StructureError):
        PlanarGrid([Vertex(0, equality(2), [0, 1])], [])


def test_cap():
    g = k4_grid()
    with pytest.raises(TooLarge):
        g.holant(cap=5)
    assert g.holant(cap=6) == AN(3)


def test_negative_cap_is_invalid(monkeypatch):
    g = k4_grid()
    with pytest.raises(ValueError, match="must be >= 0"):
        g.holant(cap=-1)
    monkeypatch.setenv("HOLANT_CAP", "-2")
    with pytest.raises(ValueError, match="must be >= 0"):
        g.holant()
    monkeypatch.setenv("HOLANT_CAP", "6")
    assert g.holant() == AN(3)


def test_triangle_gate():
    g = triangle_gate()
    _, ok = g.validate()
    assert ok
    gate = g.gate_signature()
    assert gate.symmetrize() == sig([0, 1, 0, 1])


def test_wheel_gate():
    g = wheel_gate()
    _, ok = g.validate()
    assert ok
    gate = g.gate_signature()
    assert gate.symmetrize() == sig([0, 2, 0, 1, 0])


def test_gate_of_single_vertex():
    f = sig([3, 1, 0, 2])
    g = PlanarGrid([Vertex(0, f, ["a", "b", "c"])], [], dangling=["a", "b", "c"])
    assert g.gate_signature().symmetrize() == f


def test_scalar_and_empty():
    g = PlanarGrid([], [], scalar=AN(5))
    assert g.holant() == AN(5)


def simple_random_grid(seed):
    """Random planar grid: a cycle with chords to a hub, random signatures."""
    import random
    rnd = random.Random(seed)
    n = rnd.randint(2, 5)
    # cycle vertices 0..n-1, hub vertex n connected to a subset
    halves = itertools.count()
    rots = {v: [] for v in range(n)}
    cyc = []
    for v in range(n):
        cyc.append((next(halves), next(halves)))
    edges = []
    for v in range(n):
        a = cyc[v][1]
        b = cyc[(v + 1) % n][0]
        edges.append((a, b))
    hub_rot = []
    spokes = sorted(rnd.sample(range(n), rnd.randint(0, n)))
    for v in range(n):
        rots[v] = [cyc[v][0], cyc[v][1]]
    for v in spokes:
        x, y = next(halves), next(halves)
        rots[v].append(x)
        hub_rot.append(y)
        edges.append((x, y))
    if hub_rot:
        rots[n] = hub_rot
    verts = []
    for v, rot in rots.items():
        entries = [AlgebraicNumber(rnd.randint(-3, 3), 0, rnd.randint(-1, 1), 0)
                   for _ in range(len(rot) + 1)]
        verts.append(Vertex(v, SymmetricSignature(entries), rot))
    return PlanarGrid(verts, edges)


@pytest.mark.parametrize("seed", range(25))
def test_contraction_matches_naive(seed):
    g = simple_random_grid(seed)
    _, ok = g.validate()
    assert ok
    assert g.holant() == naive_holant(g)


@pytest.mark.parametrize("seed", range(15))
def test_two_stretch_preserves_value(seed):
    g = simple_random_grid(seed)
    s = two_stretch(g)
    _, ok = s.validate()
    assert ok
    assert s.holant() == g.holant()


@pytest.mark.parametrize("seed", range(15))
def test_holographic_transform_preserves_value(seed):
    g = two_stretch(simple_random_grid(seed))
    base = g.holant()
    for T in [Z, Transform2x2(1, 2, 0, 1), Transform2x2(2, 1, 1, 1)]:
        t = holographic_transform_bipartite(g, T)
        assert t.holant() == base


def test_two_stretch_ids_avoid_existing_vertices():
    once = two_stretch(k4_grid())
    assert {("eq", ei) for ei in range(6)} <= set(once.vertices)
    twice = two_stretch(once)
    new = set(twice.vertices) - set(once.vertices)
    assert new == ({("eq", ei, 1) for ei in range(6)}
                   | {("eq", ei) for ei in range(6, 12)})
    assert all(twice.side[v] == "L" for v in new)
    assert twice.validate()[1]
    assert twice.holant() == once.holant() == k4_grid().holant()


def test_holographic_transform_shares_each_distinct_signature():
    g = two_stretch(k4_grid(
        lambda v: exact_one(3).scale(AN(2)) if v == 4 else exact_one(3)))
    t = holographic_transform_bipartite(g, Transform2x2(2, 1, 1, 1))
    left = [t.vertices[v].sig for v in g.vertices if g.side[v] == "L"]
    right = [t.vertices[v].sig for v in (1, 2, 3)]
    assert len(left) == 6 and all(f is left[0] for f in left)
    assert right[1] is right[0] and right[2] is right[0]
    assert t.vertices[4].sig is not right[0]
    assert t.holant() == g.holant() == naive_holant(g)


@pytest.mark.parametrize("seed", range(10))
def test_orthogonal_transform_preserves_value(seed):
    g = simple_random_grid(seed)
    t = Fraction(seed + 1, 3)
    c = AN(Fraction((1 - t * t), (1 + t * t)))
    s = AN(Fraction(2 * t, (1 + t * t)))
    T = Transform2x2(c, -s, s, c)
    assert orthogonal_transform(g, T).holant() == g.holant()


def test_not_bipartite():
    g = simple_random_grid(0)
    with pytest.raises(NotBipartite):
        holographic_transform_bipartite(g, Z)


def test_json_round_trip():
    g = k4_grid()
    doc = grid_to_json(g)
    g2 = grid_from_json(doc)
    assert g2.holant() == g.holant()


def test_json_parse():
    doc = {
        "signatures": {"eq": ["1", "0", "1"]},
        "vertices": [{"id": 0, "sig": "eq", "rotation": [0, 1]}],
        "edges": [[0, 1]],
        "scalar": "i",
    }
    g = grid_from_json(doc)
    assert g.holant() == AN(2) * I


def test_dangling_order_off_the_outer_face():
    g = wheel_gate()
    bad = PlanarGrid(list(g.vertices.values()), g.edges,
                     dangling=["d1", "d7", "d5", "d3"])
    with pytest.raises(OrderError):
        bad.validate()
    faces, ok = g.validate()
    assert ok and any("__virt_0" in face for face in faces)


def test_virtual_halves_skip_names_in_use():
    # a dangling grid whose own half-edges are named like validate's
    g = PlanarGrid([Vertex(0, equality(3), ["__virt_0", "__virt_2", "x"]),
                    Vertex(1, exact_one(1), ["y"])],
                   [("x", "y")], dangling=["__virt_0", "__virt_2"])
    faces, ok = g.validate()
    assert ok and any("__virt_1" in face for face in faces)
    assert [str(e) for e in g.gate_signature().entries] == ["0", "0", "0", "1"]


def test_json_round_trip_keeps_tuple_ids():
    eq = sig([1, 0, 1])
    g = PlanarGrid([Vertex(("v", 0), eq, [("h", 0), ("h", 1)]),
                    Vertex(("v", (1, 2)), sig([1, 2, 3, 4]),
                           [("h", 2), ("h", 3), ("d", 0)])],
                   [(("h", 0), ("h", 2)), (("h", 1), ("h", 3))],
                   dangling=[("d", 0)], side={("v", 0): "L",
                                              ("v", (1, 2)): "R"})
    g2 = grid_from_json(json.loads(json.dumps(grid_to_json(g))))
    assert {v.id: v.rotation for v in g2.vertices.values()} == \
        {v.id: v.rotation for v in g.vertices.values()}
    assert (g2.edges, g2.dangling, g2.side) == (g.edges, g.dangling, g.side)
    assert g2.gate_signature().entries == g.gate_signature().entries


def test_json_ids_keep_their_type():
    # string ids that read as ints stay strings; side keys name them
    doc = {"signatures": {"eq": ["1", "0", "1"]},
           "vertices": [{"id": "1", "sig": "eq", "rotation": ["a", "b"]},
                        {"id": 2, "sig": "eq", "rotation": ["c", "d"]}],
           "edges": [["a", "c"], ["b", "d"]],
           "side": {"1": "L", "2": "R"}}
    g = grid_from_json(doc)
    assert set(g.vertices) == {"1", 2} and g.side == {"1": "L", 2: "R"}
    doc["vertices"][1]["id"] = 1  # ids 1 and "1" share the key "1"
    with pytest.raises(StructureError, match="names 2 ids"):
        grid_from_json(doc)


def test_json_side_of_unknown_vertex_is_refused():
    doc = {"signatures": {"eq": ["1", "0", "1"]},
           "vertices": [{"id": 0, "sig": "eq", "rotation": ["a", "b"]}],
           "edges": [["a", "b"]],
           "side": {"0": "L", "zz": "R"}}
    with pytest.raises(StructureError, match="side of unknown vertex 'zz'"):
        grid_from_json(doc)
    doc["side"] = {"0": "L", "7": "R"}
    with pytest.raises(StructureError, match="side of unknown vertex 7$"):
        grid_from_json(doc)
    del doc["side"]["7"]
    assert grid_from_json(doc).side == {0: "L"}


def test_json_keeps_string_ids_that_look_like_lists():
    eq = sig([1, 0, 1])
    g = PlanarGrid([Vertex("[0]", eq, ["a", "b"]), Vertex("[1, 2]", eq, ["c", "d"])],
                   [("a", "c"), ("b", "d")], side={"[0]": "L", "[1, 2]": "R"})
    g2 = grid_from_json(json.loads(json.dumps(grid_to_json(g))))
    assert set(g2.vertices) == {"[0]", "[1, 2]"}
    assert g2.side == g.side
    assert g2.holant() == g.holant()


def test_json_reads_every_present_scalar():
    doc = {
        "signatures": {"f": ["1", "1", "1"]},
        "vertices": [{"id": 0, "sig": "f", "rotation": [0, 1]}],
        "edges": [[0, 1]],
    }
    assert grid_from_json(doc).holant() == AN(2)
    for scalar, value in ((0, 0), ("0", 0), (3, 6), ("i", 2 * I)):
        assert grid_from_json(dict(doc, scalar=scalar)).holant() == AN(value)
    for bad in ([], None, ""):
        with pytest.raises((TypeError, ValueError)):
            grid_from_json(dict(doc, scalar=bad))


def test_side_tags_are_checked_at_construction():
    verts = [Vertex(0, equality(2), ["a", "b"]),
             Vertex(1, equality(2), ["c", "d"])]
    edges = [("a", "c"), ("b", "d")]
    with pytest.raises(StructureError, match="side of unknown vertex 'zz'"):
        PlanarGrid(verts, edges, side={0: "L", "zz": "R"})
    for tag in ("Q", "l", "", None, 1, ["L"]):
        with pytest.raises(StructureError, match='"L" or "R"'):
            PlanarGrid(verts, edges, side={0: "L", 1: tag})
    assert PlanarGrid(verts, edges, side={1: "R"}).side == {1: "R"}


def test_tagged_grids_the_library_builds_read_back():
    h = PlanarHypergraph(
        [1, "b", ("c", 3)], [("h", [1, "b", ("c", 3)]), (("h", 2), [1])],
        {1: ["i1", "j1"], "b": ["ib"], ("c", 3): ["ic"],
         "h": ["i1", "ib", "ic"], ("h", 2): ["j1"]})
    for g in (two_stretch(k4_grid()), h.holant_grid()):
        g2 = grid_from_json(json.loads(json.dumps(grid_to_json(g))))
        assert g2.side == g.side and set(g2.vertices) == set(g.vertices)
        assert g2.holant() == g.holant()


def test_edge_ends_are_checked_at_construction():
    verts = [Vertex(0, equality(2), ["a", "b"])]
    for bad in (("a", "b", "c"), ("a",), ()):
        with pytest.raises(ValueError, match="edge .* in 'edges' needs two"):
            PlanarGrid(verts, [bad])
    assert PlanarGrid(verts, [["a", "b"]]).edges == [("a", "b")]
