"""Command-line front door for the planar Holant toolkit.

Subcommands: classify, eval, gate, transform, pm, hpm, verify.  Input is JSON
(a file path or "-" for standard input), output is a JSON report on standard
output with every scalar serialized through the algebra grammar.  Exit codes:
0 on success, 1 when a value is out of reach (brute-force cap exceeded, a
hard verdict with no fallback, or a pin search that found no pin), 2 on
parse or validation errors, 141 when the reader of standard output closed
it before the report was written.
"""

import argparse
import json
import os
import random
import sys
from contextlib import nullcontext

from .algebra import AN, ZERO, ONE, I, ZETA
from .sigcalc import (
    SymmetricSignature, Transform2x2, sig, equality, exact_one,
    transform, row_transform, derivative, partial, recurrence_analysis,
    vanishing_degrees, tensor_decompose, Z,
)
from .grid import (
    PlanarGrid, Vertex, TooLarge, _json_list, _json_object, _json_scalar,
    _signatures_from_json, edge_cap, grid_from_json, grid_to_json,
    holographic_transform_bipartite, orthogonal_transform,
)
from .classify import (
    Witness, classify_signature, in_transformable_family,
    in_P, in_A, in_Adagger, in_matchgate, in_Mhat,
    in_MhatDagger, in_M4_plus, in_M4_minus, in_vanishing_plus,
    in_vanishing_minus, dichotomy_binary_eq, dichotomy_plcsp,
    dichotomy_plcsp2, dichotomy_single, dichotomy_plholant_set,
    hypergraph_verdict,
)
from .solvers import (
    fkt_count_pm, weighted_graph_from_json, EOInstance, eo_geneq_eval,
    hypergraph_from_json, hypergraph_pm, evaluate, PinSearchError, ROUTES,
)

EXIT_OK = 0
EXIT_UNAVAILABLE = 1
EXIT_INVALID = 2
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, as a shell reports a piped writer


# -- plumbing -------------------------------------------------------------------

class JSONObject(dict):
    """A JSON object of the input: a missing key is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError("missing key %r" % (key,))


def load_doc(path):
    with open(path) if path != "-" else nullcontext(sys.stdin) as fh:
        return _json_object(json.load(fh, object_hook=JSONObject), "document")


def emit(report):
    sys.stdout.write(json.dumps(report, indent=2, sort_keys=True))
    sys.stdout.write("\n")
    sys.stdout.flush()


def parse_matrix(text):
    """Parse "a,b;c,d" into a 2x2 transform of exact scalars."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError("matrix needs two ';'-separated rows")
    cells = []
    for row in rows:
        parts = row.split(",")
        if len(parts) != 2:
            raise ValueError("matrix rows need two ','-separated entries")
        cells.extend(AN(p.strip()) for p in parts)
    return Transform2x2(*cells)


def sig_from_doc(entries, field):
    return SymmetricSignature([_json_scalar(e, field)
                               for e in _json_list(entries, field)])


def transform_json(T):
    return [[str(T.t00), str(T.t01)], [str(T.t10), str(T.t11)]]


def witness_json(w):
    if w is None:
        return None
    if isinstance(w, Transform2x2):
        return {"transform": transform_json(w)}
    if isinstance(w, Witness):
        return {"transform": transform_json(w.transform),
                "canonical": [str(e) for e in w.canonical.entries]}
    return str(w)


def verdict_json(v):
    return {
        "framework": v.framework,
        "tractable": v.tractable,
        "case": v.case,
        "obstruction": v.obstruction,
        "witness": witness_json(v.witness),
        "caveat": v.caveat,
    }


# -- subcommands ----------------------------------------------------------------

def cmd_classify(args):
    doc = load_doc(args.input)
    if args.framework == "binary-eq":
        f = sig_from_doc(doc["f"], "f")
        verdict = dichotomy_binary_eq(f, doc["S"])
        return {"f": [str(e) for e in f.entries], "S": sorted(set(doc["S"])),
                "verdict": verdict_json(verdict)}, EXIT_OK
    if args.framework == "hpm":
        sizes = _json_list(doc["sizes"], "sizes") if "sizes" in doc else [
            len(_json_list(_json_object(h, "hyperedges")["members"],
                           "members"))
            for h in _json_list(doc["hyperedges"], "hyperedges")]
        verdict = hypergraph_verdict(sizes)  # refuses bad sizes first
        return {"sizes": sorted(sizes), "verdict": verdict_json(verdict)}, \
            EXIT_OK
    sigs = _signatures_from_json(doc)
    per_sig = {}
    for name, f in sigs.items():
        table = dict(classify_signature(f))
        witnesses = {}
        if f.arity >= 3 and not table["degenerate"]:
            fam = in_transformable_family(f)
            witnesses = {k: witness_json(w) for k, w in fam.witness.items()}
        per_sig[name] = {"classes": table, "witnesses": witnesses}
    F = list(sigs.values())
    if args.framework == "plcsp":
        verdict = dichotomy_plcsp(F)
    elif args.framework == "plcsp2":
        verdict = dichotomy_plcsp2(F)
    else:
        verdict = dichotomy_plholant_set(F)
    return {"signatures": per_sig, "verdict": verdict_json(verdict)}, EXIT_OK


def cmd_eval(args):
    grid = grid_from_json(load_doc(args.input))
    value = evaluate(grid, method=args.method, cap=args.cap)
    return {"method": args.method, "value": str(value)}, EXIT_OK


def cmd_gate(args):
    grid = grid_from_json(load_doc(args.input))
    g = grid.gate_signature(cap=args.cap)
    symm = g.symmetrize()
    return {
        "arity": g.arity,
        "entries": [str(e) for e in g.entries],
        "symmetric": [str(e) for e in symm.entries] if symm else None,
    }, EXIT_OK


def cmd_transform(args):
    if not args.matrix:
        raise ValueError("transform needs --matrix \"a,b;c,d\"")
    T = parse_matrix(args.matrix)
    doc = load_doc(args.input)
    if "signature" in doc:
        g = transform(T, sig_from_doc(doc["signature"], "signature"))
        return {"matrix": transform_json(T),
                "signature": [str(e) for e in g.entries]}, EXIT_OK
    grid = grid_from_json(doc)
    out = (holographic_transform_bipartite(grid, T) if grid.side
           else orthogonal_transform(grid, T))
    return {"matrix": transform_json(T), "grid": grid_to_json(out)}, EXIT_OK


def cmd_pm(args):
    g = weighted_graph_from_json(load_doc(args.input))
    return {"value": str(fkt_count_pm(g))}, EXIT_OK


def cmd_hpm(args):
    h = hypergraph_from_json(load_doc(args.input))
    verdict, value = hypergraph_pm(h, cap=args.cap)
    return {"verdict": verdict_json(verdict),
            "value": str(value) if value is not None else None}, \
        EXIT_OK if value is not None else EXIT_UNAVAILABLE


def cmd_verify(args):
    results = []
    for name, fn in FIXTURES:
        entry = {"name": name}
        try:
            entry["ok"] = bool(fn())
        except Exception as exc:  # a fixture must never crash silently
            entry.update(ok=False, error="%s: %s" % (type(exc).__name__, exc))
        results.append(entry)
    failed = sum(not entry["ok"] for entry in results)
    return {"fixtures": results, "passed": len(results) - failed,
            "failed": failed}, EXIT_OK if failed == 0 else EXIT_UNAVAILABLE


# -- built-in identity fixtures (used by the verify subcommand) ------------------

def triangle_gate_grid():
    """Three exact-one vertices in a triangle, one dangling edge each."""
    rot = {0: ["0_1", "0_2", "d0"], 1: ["1_2", "1_0", "d1"],
           2: ["d2", "2_0", "2_1"]}
    edges = [("0_1", "1_0"), ("1_2", "2_1"), ("2_0", "0_2")]
    return PlanarGrid([Vertex(v, exact_one(3), rot[v]) for v in rot],
                      edges, dangling=["d0", "d1", "d2"])


def tetrahedron_gate_grid():
    """Planar tetrahedron of exact-one vertices, four dangling edges."""
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


def chain_gate_grid(a, k):
    """A [1,0,a] triangle extended by k-1 equality/[1,0,0,0,a] boxes.

    The gate signature is [1,0,...,0,a^k] of arity 2k.
    """
    a = AN(a)
    fhat = sig([1, 0, 0, 0, a])
    verts = [Vertex("tri", sig([1, 0, a]), ["d0", "t_r"])]
    edges = []
    left = "t_r"
    ups, downs = [], []
    for j in range(1, k):
        verts.append(Vertex("sq%d" % j, equality(2),
                            ["s%d_l" % j, "s%d_r" % j]))
        edges.append((left, "s%d_l" % j))
        verts.append(Vertex("c%d" % j, fhat,
                            ["c%d_l" % j, "dn%d" % j, "c%d_r" % j, "up%d" % j]))
        edges.append(("s%d_r" % j, "c%d_l" % j))
        ups.append("up%d" % j)
        downs.append("dn%d" % j)
        left = "c%d_r" % j
    dangling = ["d0"] + downs + [left] + list(reversed(ups))
    return PlanarGrid(verts, edges, dangling=dangling)


def quad_gate_grid(r):
    """Four [1,0,0,0,i^r] vertices chained by doubled equality edges.

    The gate signature is the arity-4 equality for every 0 <= r <= 3.
    """
    fhat = sig([1, 0, 0, 0, I ** r])
    order = ("lu", "ld", "rd", "ru")
    verts, edges = [], []
    for j in range(4):
        verts.append(Vertex("c%d" % j, fhat,
                            ["c%d_%s" % (j, c) for c in order]))
    for j in range(3):
        for pos in ("u", "d"):
            box = "s%d%s" % (j, pos)
            verts.append(Vertex(box, equality(2), [box + "_l", box + "_r"]))
            edges.append(("c%d_r%s" % (j, pos), box + "_l"))
            edges.append((box + "_r", "c%d_l%s" % (j + 1, pos)))
    return PlanarGrid(verts, edges,
                      dangling=["c0_lu", "c0_ld", "c3_rd", "c3_ru"])


def bundle_grid(f, g):
    """Two vertices joined by arity(f) parallel edges, f on the left."""
    n = f.arity
    ha = ["a%d" % j for j in range(n)]
    hb = ["b%d" % j for j in range(n)]
    return PlanarGrid([Vertex("x", f, ha),
                       Vertex("y", g, list(reversed(hb)))],
                      list(zip(ha, hb)))


def neq_cycle_eo_grid():
    """One arity-5 equality with a disequality loop; value must be zero."""
    verts = [
        Vertex("E", equality(5), ["e1", "e2", "e3", "e4", "e5"]),
        Vertex("loop", sig([0, 1, 0]), ["n1", "n2"]),
        Vertex("O", exact_one(3), ["o3", "o2", "o1"]),
    ]
    edges = [("e1", "n1"), ("e2", "n2")]
    side = {"E": "R", "loop": "L", "O": "R"}
    for j in (3, 4, 5):
        verts.append(Vertex("m%d" % j, sig([0, 1, 0]),
                            ["m%d_a" % j, "m%d_b" % j]))
        side["m%d" % j] = "L"
        edges.append(("e%d" % j, "m%d_a" % j))
        edges.append(("m%d_b" % j, "o%d" % (j - 2)))
    return PlanarGrid(verts, edges, side=side)


def rational_orthogonal(t):
    """A rational rotation matrix from the tangent half-angle t."""
    t = AN(t)
    d = ONE + t * t
    return Transform2x2((ONE - t * t) / d, AN(2) * t / d,
                        -(AN(2) * t) / d, (ONE - t * t) / d)


def fx_partial():
    return partial(sig([1, 0, 1, 0, 1])) == sig([2, 0, 2])


def fx_weighted_derivative():
    return derivative(sig([0, 1, 0, 0, 0]), sig([0, 1, 0])) == sig([2, 0, 0])


def fx_iterated_derivative():
    for k in range(1, 6):
        f = equality(2 * k)
        for _ in range(k):
            f = derivative(f, sig([1, ZETA]))
        if f != sig([1] + [0] * (k - 1) + [ZETA ** k]):
            return False
    return True


def fx_row_transform_Z():
    return row_transform(sig([1, 0, 1]), Z) == sig([0, 2, 0])


def fx_recurrence_gen_eq():
    rec = recurrence_analysis(sig([1, 0, 0, 5]))
    if rec.rank != 2:
        return False
    a, b, c = rec.basis[0]
    return a.is_zero() and c.is_zero() and not b.is_zero()


def fx_vanishing_degree_zero_sig():
    return vanishing_degrees(sig([0, 0, 0, 0])) == (-1, 4, -1, 4)


def fx_vanishing_degree_sum():
    rnd = random.Random(20240817)
    for _ in range(25):
        n = rnd.randint(1, 6)
        f = sig([rnd.randint(-3, 3) for _ in range(n + 1)])
        rdp, vdp, rdm, vdm = vanishing_degrees(f)
        if rdp + vdp != n or rdm + vdm != n:
            return False
    return True


def fx_exact_one_decomposition():
    dec = tensor_decompose(exact_one(5))
    return (dec.kind == "double" and dec.u == (ONE, ZERO)
            and dec.v == (ZERO, ONE))


def fx_vanishing_grid_zero():
    f = transform(Z, sig([1, 2, 0, 0]))
    g = transform(Z, sig([2, 1, 0, 0]))
    return evaluate(bundle_grid(f, g)) == ZERO


def fx_triangle_gate():
    g = triangle_gate_grid().gate_signature().symmetrize()
    return g == sig([0, 1, 0, 1])


def fx_tetrahedron_gate():
    g = tetrahedron_gate_grid().gate_signature().symmetrize()
    return g == sig([0, 2, 0, 1, 0])


def fx_chain_gate():
    a = AN("1/2") + I
    for k in (2, 3):
        g = chain_gate_grid(a, k).gate_signature().symmetrize()
        if g != sig([1] + [0] * (2 * k - 1) + [a ** k]):
            return False
    return True


def fx_quad_gate():
    return all(quad_gate_grid(r).gate_signature().symmetrize() == equality(4)
               for r in range(4))


def fx_orthogonal_invariance():
    grid = bundle_grid(sig([1, 2, 0, 1]), sig([0, 1, 1, 3]))
    T = rational_orthogonal("1/2")
    return orthogonal_transform(grid, T).holant() == grid.holant()


def fx_binary_adagger():
    f = sig([1, ZETA, -(ZETA ** 2)])
    return in_Adagger(f) and not in_A(f)


def fx_gen_eq_P_not_A():
    f = sig([1, 0, 0, 5])
    return in_P(f) and not in_A(f)


def fx_matchgate_stride():
    return in_matchgate(sig([1, 0, 3, 0, 9]))


def fx_mhat_only():
    f = sig([1, 2, 1])
    return (in_Mhat(f) and not in_P(f) and not in_A(f)
            and not in_Adagger(f))


def fx_mhat_dagger():
    f = sig([1, 2, -1])
    return in_MhatDagger(f) and not in_Mhat(f)


def fx_vplus_not_m4plus():
    f = transform(Z, sig([2, 1, 0, 0, 0, 0]))
    return in_vanishing_plus(f) and not in_M4_plus(f)


def fx_exact_one_m3():
    return in_transformable_family(exact_one(5)).m3


def fx_a3_member():
    f = sig([ZETA ** j + I * (-ZETA) ** j for j in range(5)])
    return in_transformable_family(f).a3


def fx_binary_eq_product_type():
    return dichotomy_binary_eq(sig([1, 2, 4]), [3]).tractable


def fx_binary_eq_parity_type():
    return dichotomy_binary_eq(sig([0, 1, 0]), [4]).tractable


def fx_plcsp2_mhat_mixing():
    base = sig([1, 2, 1])
    hard = sig([1, ZETA, -(ZETA ** 2)])
    return (dichotomy_plcsp2([base]).tractable
            and not dichotomy_plcsp2([base, hard]).tractable)


def fx_single_exact_one_7():
    return dichotomy_single(exact_one(7)).tractable


def fx_single_Z_two_ends_hard():
    f = transform(Z, sig([1, 1, 0, 0, 2]))
    return not dichotomy_single(f).tractable


def fx_single_double_root_hard():
    return not dichotomy_single(sig([2, 1, 0, 0, 0])).tractable


def fx_set_gcd5_tractable():
    F = [transform(Z, equality(5)), transform(Z, exact_one(3))]
    return dichotomy_plholant_set(F).route == "eo"


def fx_set_gcd4_hard():
    F = [transform(Z, equality(4)), transform(Z, exact_one(3))]
    return not dichotomy_plholant_set(F).tractable


def fx_mixed_vanishing_hard():
    f = transform(Z, sig([1, 2, 3, 0, 0, 0]))
    g = transform(Z, sig([0, 0, 0, 3, 2, 1]))
    return (in_vanishing_plus(f) and not in_M4_plus(f)
            and in_vanishing_minus(g) and not in_M4_minus(g)
            and not dichotomy_plholant_set([f, g]).tractable)


def fx_hypergraph_verdicts():
    return (hypergraph_verdict([5, 10]).tractable
            and not hypergraph_verdict([1, 2]).tractable
            and not hypergraph_verdict([3, 6]).tractable)


def fx_eo_odd_neq_cycle():
    grid = neq_cycle_eo_grid()
    return eo_geneq_eval(EOInstance(grid)) == ZERO


def fx_hard_sizes_brute_value():
    doc = {"vertices": [1, 2, 3],
           "hyperedges": [{"id": "h", "members": [1, 2, 3]}],
           "rotation": {"1": ["i1"], "2": ["i2"], "3": ["i3"],
                        "h": ["i1", "i2", "i3"]}}
    verdict, value = hypergraph_pm(hypergraph_from_json(doc))
    return not verdict.tractable and value == ONE


def fx_eulerian_too_large():
    grid = bundle_grid(sig([0, 0, 1, 0, 0]), sig([0, 0, 1, 0, 0]))
    try:
        evaluate(grid, cap=2)
    except TooLarge as exc:
        return "#P-hard" in str(exc)
    return False


FIXTURES = [
    ("calculus/partial", fx_partial),
    ("calculus/weighted-derivative", fx_weighted_derivative),
    ("calculus/iterated-derivative-equalities", fx_iterated_derivative),
    ("calculus/row-transform-disequality", fx_row_transform_Z),
    ("calculus/recurrence-gen-eq", fx_recurrence_gen_eq),
    ("calculus/vanishing-degrees-zero", fx_vanishing_degree_zero_sig),
    ("calculus/vanishing-degree-sum", fx_vanishing_degree_sum),
    ("calculus/exact-one-decomposition", fx_exact_one_decomposition),
    ("grid/vanishing-grid-zero", fx_vanishing_grid_zero),
    ("gadget/triangle", fx_triangle_gate),
    ("gadget/tetrahedron", fx_tetrahedron_gate),
    ("gadget/chain", fx_chain_gate),
    ("gadget/quad-equality", fx_quad_gate),
    ("grid/orthogonal-invariance", fx_orthogonal_invariance),
    ("classes/binary-adagger", fx_binary_adagger),
    ("classes/gen-eq-P-not-A", fx_gen_eq_P_not_A),
    ("classes/matchgate-stride", fx_matchgate_stride),
    ("classes/mhat-only", fx_mhat_only),
    ("classes/mhat-dagger", fx_mhat_dagger),
    ("classes/vplus-not-m4plus", fx_vplus_not_m4plus),
    ("families/exact-one-m3", fx_exact_one_m3),
    ("families/a3-member", fx_a3_member),
    ("dichotomy/binary-eq-product", fx_binary_eq_product_type),
    ("dichotomy/binary-eq-parity", fx_binary_eq_parity_type),
    ("dichotomy/plcsp2-mhat-mixing", fx_plcsp2_mhat_mixing),
    ("dichotomy/single-exact-one-7", fx_single_exact_one_7),
    ("dichotomy/single-z-two-ends", fx_single_Z_two_ends_hard),
    ("dichotomy/single-double-root", fx_single_double_root_hard),
    ("dichotomy/set-gcd5", fx_set_gcd5_tractable),
    ("dichotomy/set-gcd4", fx_set_gcd4_hard),
    ("dichotomy/mixed-vanishing", fx_mixed_vanishing_hard),
    ("dichotomy/hypergraph-sizes", fx_hypergraph_verdicts),
    ("solver/eo-odd-neq-cycle", fx_eo_odd_neq_cycle),
    ("solver/hard-sizes-brute-value", fx_hard_sizes_brute_value),
    ("solver/eulerian-too-large", fx_eulerian_too_large),
]


# -- entry point ----------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="holant",
        description="Exact evaluation and classification for planar Holant "
                    "problems.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name, needs_input=True):
        sp = sub.add_parser(name)
        if needs_input:
            sp.add_argument("input", help="input JSON file, or - for stdin")
        return sp

    sp = add("classify")
    sp.add_argument("--framework", default="plholant",
                    choices=["plcsp", "plcsp2", "plholant", "binary-eq",
                             "hpm"])
    sp = add("eval")
    sp.add_argument("--method", default="auto", choices=["auto", *ROUTES])
    sp.add_argument("--cap", type=int, default=None)
    sp = add("gate")
    sp.add_argument("--cap", type=int, default=None)
    sp = add("transform")
    sp.add_argument("--matrix", required=True,
                    help="2x2 transform as \"a,b;c,d\"")
    add("pm")
    sp = add("hpm")
    sp.add_argument("--cap", type=int, default=None)
    add("verify", needs_input=False)
    return p


PARSER = build_parser()


def run(argv=None):
    try:
        args = PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        if "cap" in args:  # a bad --cap or $HOLANT_CAP fails on every route
            args.cap = edge_cap(args.cap)
        # cmd_<subcommand> is looked up per call, so a replaced one runs
        report, code = globals()["cmd_" + args.subcommand](args)
    except (TooLarge, PinSearchError, ValueError, KeyError, TypeError,
            OSError, ArithmeticError) as exc:
        report = {"error": type(exc).__name__, "message": str(exc)}
        code = (EXIT_UNAVAILABLE if isinstance(exc, (TooLarge, PinSearchError))
                else EXIT_INVALID)
    try:
        emit(report)
    except BrokenPipeError:
        # the reader is gone: what is left, and the flush at exit, go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    return code


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
