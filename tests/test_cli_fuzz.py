"""The command-line contract under seeded input mutations.

Each case takes a document that the tests or the ``cli-grids`` benchmark
workload write, changes it one to three times (drop or duplicate a key or
an item, change a value's JSON type, put a list where an object belongs,
rename an id, flip a list, empty a container) and feeds it to a
subcommand on standard input.  Whatever the input, ``holant`` must answer
with exit 0, 1 or 2 and one JSON report, never with a traceback.
"""

import copy
import io
import json
import os
import random
import sys

from planar_holant import cli
from planar_holant.grid import grid_to_json, two_stretch

from test_grid import k4_grid
from test_solvers import nonplanar_case7_grid

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")

COMMANDS = ["eval", "gate", "transform", "pm", "hpm", "classify"]
MATRICES = ["1,1;0,1", "0,1;1,0", "3/5,4/5;-4/5,3/5", "1,1;1,1", "i,0;0,1"]
METHODS = ["auto", "brute", "product", "affine", "fkt", "eo"]
FRAMEWORKS = ["plholant", "plcsp", "plcsp2", "binary-eq", "hpm"]
# odd values for the type mutation: each JSON type, and scalars that parse
ODD = [None, True, False, 0, -1, 2.5, "", "x", "1/2", "i", [], {}, [[]],
       {"0": 0}, 10 ** 30]


def bench_documents(tmp_path):
    """(subcommand, document) of one cycle of the cli-grids workload, but
    the largest grids, whose valid mutations would each take a second."""
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    out = []
    for op in workloads.make_cycle("cli-grids", 1, 0, str(tmp_path)):
        if os.path.getsize(op.inputs[-1]) < 4000:
            with open(op.inputs[-1]) as fh:
                out.append((op.inputs[0], json.load(fh)))
    return out


def written_documents():
    """(subcommand, document) pairs written the way the tests write them."""
    return [
        ("eval", grid_to_json(k4_grid())),
        ("eval", grid_to_json(two_stretch(k4_grid()))),
        ("eval", grid_to_json(nonplanar_case7_grid())),
        ("gate", {"signatures": {"eo": [0, 1, 0, 0]},
                  "vertices": [{"id": v, "sig": "eo",
                                "rotation": ["%d_%d" % (v, w)
                                             for w in (1, 2, 3) if w != v]
                                + ["d%d" % v]} for v in (1, 2, 3)],
                  "edges": [["1_2", "2_1"], ["2_3", "3_2"], ["3_1", "1_3"]],
                  "dangling": ["d1", "d2", "d3"]}),
        ("hpm", {"vertices": [1, 2, 3],
                 "hyperedges": [{"id": "h", "members": [1, 2, 3]}],
                 "rotation": {"1": ["i1"], "2": ["i2"], "3": ["i3"],
                              "h": ["i1", "i2", "i3"]}}),
        ("pm", {"vertices": [0, 1, 2, 3],
                "rotation": {"0": ["a", "d"], "1": ["b", "a2"],
                             "2": ["c", "b2"], "3": ["d2", "c2"]},
                "edges": [["a", "a2", "2"], ["b", "b2", "1"],
                          ["c", "c2", "i"], ["d", "d2", "1/2"]]}),
        ("classify", {"signatures": {"f": ["1", "0", "0", "1"],
                                     "g": [0, 1, 0]}}),
        ("classify", {"f": [1, 2, 4], "S": [3]}),
        ("classify", {"sizes": [5, 10]}),
        ("transform", {"signature": [1, 0, 0, 1]}),
    ]


def nodes(x, path=()):
    """Every (path, value) of a JSON document, the root included."""
    yield path, x
    if isinstance(x, dict):
        for k, v in x.items():
            yield from nodes(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from nodes(v, path + (i,))


def put(doc, path, value):
    """doc with the node at ``path`` replaced by value."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return doc


def leaves(x):
    """Every string or integer in x, dict keys included."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield k
            yield from leaves(v)
    elif isinstance(x, list):
        for v in x:
            yield from leaves(v)
    elif isinstance(x, (str, int)) and not isinstance(x, bool):
        yield x


def renamed(x, old, new, pick):
    """x with the id ``old`` replaced by ``new`` where ``pick()`` holds."""
    if isinstance(x, dict):
        key = new if isinstance(new, str) else json.dumps(new)
        return {key if k == str(old) and pick() else k:
                renamed(v, old, new, pick) for k, v in x.items()}
    if isinstance(x, list):
        return [renamed(v, old, new, pick) for v in x]
    return new if type(x) is type(old) and x == old and pick() else x


KINDS = {  # mutation -> the values it applies to
    "drop": lambda x: isinstance(x, (dict, list)) and x,
    "dup": lambda x: isinstance(x, (dict, list)) and x,
    "type": lambda x: True,
    "list": lambda x: isinstance(x, dict),
    "rename": lambda x: True,
    "flip": lambda x: isinstance(x, list) and len(x) > 1,
    "empty": lambda x: isinstance(x, (dict, list)) and x,
}


def mutate(doc, rnd):
    """One seeded change to doc (a copy is changed and returned)."""
    doc = copy.deepcopy(doc)
    kind = rnd.choice(sorted(KINDS))
    spots = [(p, x) for p, x in nodes(doc) if KINDS[kind](x)]
    if not spots:
        kind, spots = "type", list(nodes(doc))
    path, value = rnd.choice(spots)
    if kind == "drop":
        del value[rnd.choice(list(value) if isinstance(value, dict)
                             else range(len(value)))]
    elif kind == "dup" and isinstance(value, dict):
        key = rnd.choice(list(value))
        other = rnd.choice(list(value) + [key + "'", str(rnd.randint(0, 9))])
        value[other] = copy.deepcopy(value[key])
    elif kind == "dup":
        value.insert(rnd.randint(0, len(value)),
                     copy.deepcopy(rnd.choice(value)))
    elif kind == "list":
        doc = put(doc, path, rnd.choice([list(value.values()),
                                         [list(kv) for kv in value.items()],
                                         list(value)]))
    elif kind == "rename":
        ids = sorted(set(leaves(doc)), key=repr) or [doc]
        old = rnd.choice(ids)
        new = rnd.choice([str(old) + "'", rnd.randint(0, 12), [old],
                          rnd.choice(ids)])
        everywhere = rnd.random() < 0.5
        doc = renamed(doc, old, new,
                      lambda: everywhere or rnd.random() < 0.5)
    elif kind == "flip":
        if rnd.random() < 0.5:
            value.reverse()
        else:
            i, j = rnd.sample(range(len(value)), 2)
            value[i], value[j] = value[j], value[i]
    elif kind == "empty":
        value.clear()
    else:
        doc = put(doc, path, copy.deepcopy(rnd.choice(
            [x for x in ODD if type(x) is not type(value)])))
    return doc


def argv_for(command, rnd):
    if command == "eval":
        method = rnd.choice(METHODS) if rnd.random() < 0.3 else "auto"
        return ["eval", "--method", method, "--cap", "10"]
    if command in ("gate", "hpm"):
        return [command, "--cap", "10"]
    if command == "transform":
        return ["transform", "--matrix", rnd.choice(MATRICES)]
    if command == "classify":
        return ["classify", "--framework", rnd.choice(FRAMEWORKS)]
    return [command]


def test_cli_survives_seeded_mutations(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HOLANT_CAP", raising=False)
    docs = written_documents() + bench_documents(tmp_path)
    codes = {}
    for seed in range(2400):
        rnd = random.Random("cli-fuzz-%d" % seed)
        command, doc = docs[seed % len(docs)]
        for _ in range(rnd.choice((1, 1, 2, 3))):
            doc = mutate(doc, rnd)
        if rnd.random() < 0.2:
            command = rnd.choice(COMMANDS)
        argv = argv_for(command, rnd)
        text = json.dumps(doc)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        try:
            code = cli.run(argv + ["-"])
        except Exception as exc:  # the contract: no traceback, whatever
            raise AssertionError("seed %d: %s on %s %s" % (
                seed, type(exc).__name__, argv, text[:300])) from exc
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (seed, argv, text[:300])
        assert "Traceback" not in err, (seed, argv)
        report = json.loads(out)
        assert isinstance(report, dict), (seed, argv)
        codes[code] = codes.get(code, 0) + 1
    # the mutations reach every outcome
    assert all(codes.get(c, 0) >= 10 for c in (0, 1, 2)), codes
