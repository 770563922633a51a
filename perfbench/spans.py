"""Spans and counters at the program's module boundaries, from outside it.

``Tracer.install`` replaces each public function of the six modules of
``planar_holant`` with a wrapper in every module namespace that binds it
(``classify.transform`` is ``sigcalc.transform`` imported by name), wraps a
few methods at their class, and counts ``AlgebraicNumber`` multiplications
and inversions at the class.  Each wrapped call records a span: name, start,
end and the index of the enclosing span.  ``uninstall`` puts every original
back.  Spans stay in memory until ``dump`` writes them out.
"""

import functools
import importlib
import inspect
import json
import time

LAYERS = ("algebra", "sigcalc", "grid", "classify", "solvers", "cli")

# value constructors that run in the innermost loops: a span around each
# call would cost more than the work it measures
UNTRACED = {"AN", "sig", "equality", "diseq2", "exact_one", "all_but_one",
            "gen_eq", "degenerate", "identity2", "diag", "self_pow",
            "edge_cap"}

# public methods traced at their class: (module, class, method)
METHODS = [
    ("grid", "PlanarGrid", "validate"),
    ("grid", "PlanarGrid", "faces"),
    ("grid", "PlanarGrid", "holant"),
    ("grid", "PlanarGrid", "gate_signature"),
    ("solvers", "WeightedPlanarGraph", "__init__"),
    ("solvers", "EOInstance", "__init__"),
    ("solvers", "PlanarHypergraph", "__init__"),
]

COUNTED = {"__mul__": "mul", "__rmul__": "mul", "inv": "inv"}


class Tracer:
    def __init__(self):
        self.spans = []     # [name, start, end, parent]
        self.stack = []
        self.counts = {"mul": 0, "inv": 0}
        self.pfaffian_orders = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, note=None):
        """``fn`` recording a span per call; ``note(args)`` runs after the
        call inside a ``trace.note`` span, which belongs to no layer."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if note is not None:
                    inner = tracer.open("trace.note")
                    note(*args)
                    tracer.close(inner)

        return traced

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    # -- installing --------------------------------------------------------

    def install(self):
        package = importlib.import_module("planar_holant")
        modules = {name: importlib.import_module("planar_holant." + name)
                   for name in LAYERS}
        notes = {"solvers.fkt_count_pm": self._note_order}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and attr not in UNTRACED):
                    name = "%s.%s" % (layer, attr)
                    wrapped[obj] = self.wrap(name, obj, notes.get(name))
        for mod in [package] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = "%s.%s.%s" % (layer, cls_name, meth)
            self._set(cls, meth, self.wrap(name, vars(cls)[meth]))
        self.count_arithmetic()

    def count_arithmetic(self):
        """Count AlgebraicNumber multiplications and inversions."""
        algebra = importlib.import_module("planar_holant.algebra")
        number = algebra.AlgebraicNumber
        for meth, key in COUNTED.items():
            self._set(number, meth, self.counter(key, vars(number)[meth]))

    def _note_order(self, g):
        self.pfaffian_orders += pfaffian_order_sum(g)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def pfaffian_order_sum(g):
    """Vertices in the components of g that have an edge: the summed orders
    of the Kasteleyn matrices FKT eliminates."""
    owner = g.half_owner
    parent = {v: v for v in g.vertex_ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    touched = set()
    for (a, b, _) in g.edges:
        u, w = owner[a], owner[b]
        if u != w:
            touched.update((u, w))
            parent[find(u)] = find(w)
    return len(touched)


# -- per-layer metrics --------------------------------------------------------

def _layer(name):
    return name.split(".", 1)[0]


GROUPS = {
    "algebra.parse_format_s": {"algebra.parse_scalar",
                               "algebra.format_scalar"},
    "sigcalc.transform_s": {"sigcalc.transform"},
    "sigcalc.tensor_decompose_s": {"sigcalc.tensor_decompose"},
    "grid.validate_s": {"grid.PlanarGrid.validate", "grid.PlanarGrid.faces"},
    "grid.rewrite_s": {"grid.two_stretch",
                       "grid.holographic_transform_bipartite",
                       "grid.orthogonal_transform"},
    "grid.contract_s": {"grid.PlanarGrid.holant",
                        "grid.PlanarGrid.gate_signature"},
    "solvers.fkt_s": {"solvers.fkt_count_pm"},
    "solvers.product_s": {"solvers.product_eval"},
    "solvers.affine_s": {"solvers.affine_eval"},
    "solvers.eo_s": {"solvers.eo_geneq_eval", "solvers.EOInstance.__init__"},
    "cli.parse_s": {"cli.load_doc", "cli.sig_from_doc", "cli.parse_matrix",
                    "grid.grid_from_json", "solvers.hypergraph_from_json",
                    "solvers.weighted_graph_from_json"},
    "cli.emit_s": {"cli.emit"},
}

CALLS = {
    "sigcalc.transform_calls": lambda n: n == "sigcalc.transform",
    "sigcalc.tensor_decompose_calls":
        lambda n: n == "sigcalc.tensor_decompose",
    "classify.dichotomy_calls": lambda n: n.startswith("classify.dichotomy_"),
    "classify.membership_calls": lambda n: n.startswith("classify.in_"),
}

ROUTES = {
    "product": {"solvers.product_eval"},
    "affine": {"solvers.affine_eval"},
    "fkt": {"solvers.fkt_count_pm"},
    "eo": {"solvers.eo_geneq_eval"},
    "brute": {"grid.PlanarGrid.holant", "grid.PlanarGrid.gate_signature"},
}

ENTRY_POINTS = {"solvers.evaluate", "solvers.hypergraph_pm"}


def durations(spans):
    """(duration, self time) per span; self time is the duration minus the
    durations of its direct children."""
    dur = [end - start for _, start, end, _ in spans]
    self_t = list(dur)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]
    return dur, self_t


def layer_metrics(tracer, n_ops):
    """Per-layer totals from a finished trace, as means per op."""
    spans = tracer.spans
    dur, self_t = durations(spans)
    out = {layer + ".self_s": 0.0 for layer in LAYERS if layer != "algebra"}
    out.update({metric: 0.0 for metric in GROUPS})
    out.update({metric: 0 for metric in CALLS})
    out.update({"solvers.route." + r: 0 for r in ROUTES})
    route_of = {name: r for r, names in ROUTES.items() for name in names}
    in_route = [False] * len(spans)   # some ancestor is a route span
    in_group = [set() for _ in spans]  # groups of the span and its ancestors
    entry = [-1] * len(spans)          # outermost enclosing entry point
    routed = set()
    for i, (name, _, _, parent) in enumerate(spans):
        groups = {m for m, names in GROUPS.items() if name in names}
        if parent >= 0:
            in_route[i] = in_route[parent] or spans[parent][0] in route_of
            entry[i] = entry[parent]
            inherited = in_group[parent]
        else:
            inherited = set()
        if entry[i] < 0 and name in ENTRY_POINTS:
            entry[i] = i
        for metric in groups - inherited:
            out[metric] += dur[i]
        in_group[i] = inherited | groups
        key = _layer(name) + ".self_s"
        if key in out:
            out[key] += self_t[i]
        for metric, match in CALLS.items():
            if match(name):
                out[metric] += 1
        if name in route_of and not in_route[i]:
            out["solvers.route." + route_of[name]] += 1
            routed.add(entry[i])
    out["solvers.route.zero"] = sum(
        1 for i, s in enumerate(spans) if entry[i] == i and i not in routed)
    out["algebra.mul_calls"] = tracer.counts["mul"]
    out["algebra.inv_calls"] = tracer.counts["inv"]
    out["solvers.pfaffian_order_sum"] = tracer.pfaffian_orders
    order = sorted(out, key=lambda k: (LAYERS.index(_layer(k)), k))
    return {k: out[k] / n_ops for k in order}


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "1"
    return "count"
