"""The three benchmark workloads: their schedules and how each op is made.

A workload is a fixed cycle of slots.  Op ``i`` of a run fills slot
``i % len(cycle)`` with an instance drawn from its own seeded stream, so no
instance repeats within a run and every whole cycle has the same mix of
kinds and sizes.  ``make_op`` returns an ``Op``: the call the benchmark
times, and the reference its output is checked against afterwards.
"""

import contextlib
import io
import json
import os

from planar_holant import classify, cli, solvers
from planar_holant.algebra import ONE
from planar_holant.grid import PlanarGrid, Vertex, grid_to_json
from planar_holant.sigcalc import exact_one, gen_eq

import gen


class Op:
    """One timed call and the untimed check of its output.  ``inputs`` is
    what the call hands the program, kept for failure reports."""

    __slots__ = ("kind", "call", "ref", "compare", "inputs")

    def __init__(self, kind, call, ref, compare, inputs):
        self.kind = kind
        self.call = call
        self.ref = ref
        self.compare = compare
        self.inputs = inputs

    def check(self, output):
        return self.compare(output, self.ref)

    @property
    def zero(self):
        """Whether the reference value is zero (for the zero-share report)."""
        return str(self.ref) == "0"


def interleave(groups):
    """Spread each (slot, count) group evenly over one cycle."""
    keyed = []
    for gi, (slot, count) in enumerate(groups):
        for j in range(count):
            keyed.append(((j + 0.5) / count, gi, slot))
    return [slot for _, _, slot in sorted(keyed, key=lambda t: t[:2])]


# -- pm-lattice ---------------------------------------------------------------

# 14 of 21 ops are 16-vertex, so the median falls inside that group, and
# the 90th percentile inside the three square 4x6 slots: one kind of graph,
# whose cost does not depend on how squares and triangles mix in a run
PM_CYCLE = interleave([
    ((4, 4, False), 7), ((4, 4, True), 7),
    ((4, 5, False), 1), ((4, 5, True), 2),
    ((4, 6, False), 3),
    ((6, 6, False), 1),
])


def make_pm(rnd, slot, workdir, index):
    """Build a WeightedPlanarGraph (which checks planarity) and count its
    weighted perfect matchings with FKT."""
    k, m, tri = slot
    vertices, rotation, edges = gen.weighted_lattice(rnd, k, m, tri)
    weight = {}
    for (a, b, w) in edges:
        v, u = int(a.split(".")[0]), int(b.split(".")[0])
        weight[min(v, u), max(v, u)] = w
    ref = gen.lattice_pm(k, m, tri, lambda v, u: weight[v, u])

    def call():
        g = solvers.WeightedPlanarGraph(vertices, rotation, edges)
        return solvers.fkt_count_pm(g)

    kind = "%s%dx%d" % ("tri" if tri else "sq", k, m)
    return Op(kind, call, ref, lambda out, ref: out == ref, edges)


# -- classify-sets ------------------------------------------------------------

SET_KINDS = ["case1", "affine", "product", "matchgate", "case7", "vanishing",
             "gcd_hard", "mixed_vanishing", "double_root", "generic",
             "two_ends"]

# Every kind at arity 3 and 5.  The 8 one-signature slots of arity 7
# (about 0.1 s each at the seed commit) hold the median, and the 6 slots
# of 0.3-0.45 s below the two largest hold the 90th percentile, so neither
# percentile falls in a gap between slot costs.
CLASSIFY_CYCLE = interleave(
    [((kind, 3), 1) for kind in SET_KINDS]
    + [((kind, 5), 1) for kind in SET_KINDS if kind != "vanishing"]
    + [(("double_root", 7), 3), (("generic", 7), 3), (("two_ends", 7), 2),
       (("matchgate", 7), 1), (("case7", 7), 1), (("affine", 7), 1),
       (("vanishing", 5), 1), (("vanishing", 7), 1),
       (("mixed_vanishing", 7), 1), (("product", 5), 1),
       (("gcd_hard", 5), 1), (("double_root", 12), 1), (("two_ends", 12), 1),
       (("generic", 16), 1), (("two_ends", 20), 1)])


def make_classify(rnd, slot, workdir, index):
    """Decide the planar Holant dichotomy for a fresh signature set."""
    kind, n = slot
    F, expected = getattr(gen, "set_" + kind)(rnd, n)

    def call():
        return classify.dichotomy_plholant_set(F)

    return Op("%s/%d" % (kind, n), call, expected,
              lambda out, ref: out.tractable == ref, F)


# -- cli-grids ----------------------------------------------------------------

# 30 slots.  The median falls among the nine slots of 0.12-0.16 s at the
# seed commit (affine 6x6, product 6x6, hpm on the 4x4 lattice, exact-one
# 4x4), and the 90th percentile among the four of about 0.5 s (product
# 12x12 and three hpm on the 4x6 lattice, whose cost varies least) just
# below the two largest (icosahedron, exact-one 5x6): inside a group of one
# cost, not at its edge.
CLI_CYCLE = interleave([
    (("product", 6), 2), (("product", 8), 1), (("product", 10), 1),
    (("product", 12), 1),
    (("affine", 4), 1), (("affine", 5), 1), (("affine", 6), 2),
    (("case7",), 2), (("ico",), 1),
    (("eo-lattice", 4, 4, False), 2), (("eo-lattice", 4, 5, True), 1),
    (("eo-lattice", 5, 6, True), 1),
    (("hard",), 3),
    (("hpm5",), 3), (("hpm2", 4, 4), 3), (("hpm2", 4, 6), 3),
    (("gate",), 2),
])

HARD_CAP = 16


def run_cli(argv):
    """``holant`` in-process: (exit code, parsed JSON report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, json.loads(buf.getvalue())


def _write(workdir, index, doc):
    path = os.path.join(workdir, "op%06d.json" % index)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _value_is(out, ref):
    code, report = out
    return code == 0 and report.get("value") == ref


def _gate_is(out, ref):
    code, report = out
    return code == 0 and report.get("entries") == ref


def make_cli(rnd, slot, workdir, index):
    """Write one JSON input; the op is one ``holant`` command on it."""
    kind = slot[0]
    argv_extra = []
    compare = _value_is
    if kind == "product":
        grid, described = gen.signature_lattice(
            rnd, slot[1], slot[1], gen.product_palette(rnd))
        doc, ref = grid_to_json(grid), gen.product_holant(grid, described)
        command = "eval"
    elif kind == "affine":
        grid, _ = gen.signature_lattice(rnd, slot[1], slot[1],
                                        gen.affine_palette(rnd))
        doc, ref = grid_to_json(grid), grid.holant(cap=10 ** 6)
        command = "eval"
    elif kind == "case7":
        eq_pal = [(gen.small_weight(rnd), gen.small_weight(rnd))
                  for _ in range(2)]
        z_grid, eo_grid = gen.case7_grid(rnd, eq_pal)
        doc, ref = grid_to_json(z_grid), eo_grid.holant(cap=10 ** 6)
        command = "eval"
    elif kind == "ico":
        eq_pal = [gen_eq(gen.small_weight(rnd), gen.small_weight(rnd), 5)
                  for _ in range(3)]
        eo_pal = [exact_one(3).scale(gen.small_weight(rnd)) for _ in range(3)]
        z_grid, eo_grid = gen.eo_incidence(rnd, eq_pal, eo_pal)
        doc, ref = grid_to_json(z_grid), eo_grid.holant(cap=10 ** 6)
        command = "eval"
    elif kind == "eo-lattice":
        _, k, m, tri = slot
        vertices, rotation, edges = gen.lattice(k, m, tri)
        scales = [gen.small_weight(rnd) for _ in range(3)]
        grid_vertices = []
        scalar = ONE
        for v in vertices:
            c = rnd.choice(scales)
            scalar = scalar * c
            grid_vertices.append(Vertex(
                v, exact_one(len(rotation[v])).scale(c), rotation[v]))
        doc = grid_to_json(PlanarGrid(grid_vertices, edges))
        ref = scalar * gen.lattice_pm(k, m, tri, lambda v, u: ONE)
        command = "eval"
    elif kind == "hard":
        grid = gen.hard_grid(rnd)
        doc, ref = grid_to_json(grid), gen.naive_holant(grid)
        command, argv_extra = "eval", ["--cap", str(HARD_CAP)]
    elif kind == "hpm5":
        doc = gen.hypergraph_flowers(
            rnd, [rnd.choice((5, 5, 10)) for _ in range(rnd.randint(1, 3))])
        ref, command = gen.count_exact_covers(doc), "hpm"
    elif kind == "hpm2":
        _, k, m = slot
        doc = gen.hypergraph_lattice(rnd, k, m)
        ref, command = gen.lattice_pm(k, m, False, lambda v, u: ONE), "hpm"
    elif kind == "gate":
        grid = gen.gadget_grid(rnd)
        doc, command = grid_to_json(grid), "gate"
        ref, compare = [str(e) for e in gen.naive_gate(grid)], _gate_is
    else:
        raise ValueError("unknown cli slot %r" % (slot,))
    if not isinstance(ref, list):
        ref = str(ref)
    argv = [command] + argv_extra + [_write(workdir, index, doc)]
    return Op(kind, lambda: run_cli(argv), ref, compare, argv)


WORKLOADS = {
    "pm-lattice": (PM_CYCLE, make_pm),
    "classify-sets": (CLASSIFY_CYCLE, make_classify),
    "cli-grids": (CLI_CYCLE, make_cli),
}


def make_cycle(workload, seed, cycle, workdir):
    """The ops of one whole cycle of ``workload``."""
    slots, maker = WORKLOADS[workload]
    ops = []
    for j, slot in enumerate(slots):
        index = cycle * len(slots) + j
        ops.append(maker(gen.op_rng(workload, seed, index), slot, workdir,
                         index))
    return ops
