"""End-to-end tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys

from planar_holant import cli, solvers
from planar_holant.algebra import AN, I
from planar_holant.grid import grid_to_json, grid_from_json
from planar_holant.sigcalc import sig, equality, transform, Z

from test_grid import k4_grid, naive_holant
from test_solvers import (
    build_instance_biased, nonplanar_case7_grid, z_side_grid,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_doc(tmp_path, doc, name="in.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def self_loop_doc():
    return {
        "signatures": {"eq": ["1", "0", "1"]},
        "vertices": [{"id": 0, "sig": "eq", "rotation": ["a", "b"]}],
        "edges": [["a", "b"]],
    }


# -- eval -----------------------------------------------------------------------


def test_eval_brute_self_loop(tmp_path, capsys):
    path = write_doc(tmp_path, self_loop_doc())
    code, doc = run_cli(capsys, ["eval", "--method", "brute", path])
    assert code == 0
    assert doc == {"method": "brute", "value": "2"}


def test_eval_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(self_loop_doc())))
    code, doc = run_cli(capsys, ["eval", "-"])
    assert code == 0
    assert doc["value"] == "2"


def test_eval_auto_matches_naive(tmp_path, capsys):
    grid = k4_grid()
    path = write_doc(tmp_path, grid_to_json(grid))
    code, doc = run_cli(capsys, ["eval", path])
    assert code == 0
    assert AN(doc["value"]) == naive_holant(grid)


def test_eval_nonplanar_case7_is_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, grid_to_json(nonplanar_case7_grid()))
    for extra in ([], ["--cap", "40"]):
        code, doc = run_cli(capsys, ["eval"] + extra + [path])
        assert code == 2
        assert doc["error"] == "EmbeddingError"


def test_eval_pin_search_failure_is_exit_1(tmp_path, capsys, monkeypatch):
    def no_pin(inst):
        raise solvers.PinSearchError("no pin found")

    monkeypatch.setattr(solvers, "eo_geneq_eval", no_pin)
    grid = z_side_grid(build_instance_biased(0))
    path = write_doc(tmp_path, grid_to_json(grid))
    code, doc = run_cli(capsys, ["eval", "--method", "eo", path])
    assert code == 1
    assert doc == {"error": "PinSearchError", "message": "no pin found"}


def test_eval_method_mismatch_is_invalid(tmp_path, capsys):
    path = write_doc(tmp_path, grid_to_json(k4_grid()))
    code, doc = run_cli(capsys, ["eval", "--method", "product", path])
    assert code == 2
    assert doc["error"] == "ClassError"


def test_eval_cap_exceeded(tmp_path, capsys):
    grid = cli.bundle_grid(sig([2, 1, 0, 0, 0]), sig([2, 1, 0, 0, 0]))
    path = write_doc(tmp_path, grid_to_json(grid))
    code, doc = run_cli(capsys, ["eval", "--cap", "2", path])
    assert code == 1
    assert doc["error"] == "TooLarge"
    code, doc = run_cli(capsys, ["eval", "--cap", "8", path])
    assert code == 0
    assert AN(doc["value"]) == naive_holant(grid)


def test_eval_honors_cap_env(tmp_path, capsys, monkeypatch):
    grid = cli.bundle_grid(sig([2, 1, 0, 0, 0]), sig([2, 1, 0, 0, 0]))
    path = write_doc(tmp_path, grid_to_json(grid))
    monkeypatch.setenv("HOLANT_CAP", "1")
    code, doc = run_cli(capsys, ["eval", "--method", "brute", path])
    assert code == 1
    assert doc["error"] == "TooLarge"


def test_negative_or_malformed_cap_is_exit_2(tmp_path, capsys, monkeypatch):
    loop = write_doc(tmp_path, self_loop_doc(), "loop.json")
    gate = write_doc(tmp_path, grid_to_json(cli.triangle_gate_grid()),
                     "gate.json")
    hpm = write_doc(tmp_path, hpm_doc([1, 2, 3]), "hpm.json")
    for argv in (["eval", "--cap", "-1", loop],
                 ["eval", "--method", "brute", "--cap", "-3", loop],
                 ["gate", "--cap", "-1", gate],
                 ["hpm", "--cap", "-1", hpm]):
        assert run_cli(capsys, argv) == (2, {
            "error": "ValueError",
            "message": "the edge cap must be >= 0, got %s" % argv[-2]})
    for env in ("-2", "2.5", "ten"):
        monkeypatch.setenv("HOLANT_CAP", env)
        for argv in (["eval", loop], ["eval", "--method", "brute", loop]):
            code, doc = run_cli(capsys, argv)
            assert code == 2 and doc["error"] == "ValueError", (env, argv)
    monkeypatch.setenv("HOLANT_CAP", "0")
    assert run_cli(capsys, ["eval", "--cap", "2", loop]) == (
        0, {"method": "auto", "value": "2"})


# -- gate -----------------------------------------------------------------------


def test_gate_triangle(tmp_path, capsys):
    path = write_doc(tmp_path, grid_to_json(cli.triangle_gate_grid()))
    code, doc = run_cli(capsys, ["gate", path])
    assert code == 0
    assert doc["arity"] == 3
    assert doc["symmetric"] == ["0", "1", "0", "1"]


def test_gate_tetrahedron(tmp_path, capsys):
    path = write_doc(tmp_path, grid_to_json(cli.tetrahedron_gate_grid()))
    code, doc = run_cli(capsys, ["gate", path])
    assert code == 0
    assert doc["symmetric"] == ["0", "2", "0", "1", "0"]


def test_gate_quad_round_trip(tmp_path, capsys):
    path = write_doc(tmp_path, grid_to_json(cli.quad_gate_grid(3)))
    code, doc = run_cli(capsys, ["gate", path])
    assert code == 0
    assert doc["symmetric"] == ["1", "0", "0", "0", "1"]


def test_gate_asymmetric_reports_null(tmp_path, capsys):
    doc = {
        "signatures": {"f": ["1", "2", "0", "1"]},
        "vertices": [{"id": 0, "sig": "f", "rotation": ["a", "d0", "d1"]},
                     {"id": 1, "sig": "f", "rotation": ["b", "d2", "d3"]}],
        "edges": [["a", "b"]],
        "dangling": ["d0", "d1", "d2", "d3"],
    }
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["gate", path])
    assert code == 0
    assert out["arity"] == 4 and len(out["entries"]) == 16


# -- transform ------------------------------------------------------------------


def test_transform_signature(tmp_path, capsys):
    path = write_doc(tmp_path, {"signature": ["0", "1", "0"]})
    code, doc = run_cli(capsys, ["transform", "--matrix", "1,1;i,-i", path])
    assert code == 0
    want = transform(Z, sig([0, 1, 0]))
    assert [AN(e) for e in doc["signature"]] == list(want.entries)


def test_transform_orthogonal_grid_preserves_value(tmp_path, capsys):
    grid = cli.bundle_grid(sig([1, 2, 0, 1]), sig([0, 1, 1, 3]))
    path = write_doc(tmp_path, grid_to_json(grid))
    code, doc = run_cli(capsys,
                        ["transform", "--matrix", "3/5,4/5;-4/5,3/5", path])
    assert code == 0
    assert naive_holant(grid_from_json(doc["grid"])) == naive_holant(grid)


def test_transform_bipartite_grid_preserves_value(tmp_path, capsys):
    doc = {
        "signatures": {"eq2": ["1", "0", "1"], "f": ["1", "2", "0", "1"]},
        "vertices": [
            {"id": 0, "sig": "f", "rotation": ["a0", "a1", "a2"]},
            {"id": 1, "sig": "f", "rotation": ["b2", "b1", "b0"]},
            {"id": 2, "sig": "eq2", "rotation": ["m0", "n0"]},
            {"id": 3, "sig": "eq2", "rotation": ["m1", "n1"]},
            {"id": 4, "sig": "eq2", "rotation": ["m2", "n2"]},
        ],
        "edges": [["a0", "m0"], ["n0", "b0"], ["a1", "m1"], ["n1", "b1"],
                  ["a2", "m2"], ["n2", "b2"]],
        "side": {"0": "R", "1": "R", "2": "L", "3": "L", "4": "L"},
    }
    grid = grid_from_json(doc)
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["transform", "--matrix", "1,2;1,3", path])
    assert code == 0
    assert naive_holant(grid_from_json(out["grid"])) == naive_holant(grid)


def test_transform_bad_matrix(tmp_path, capsys):
    path = write_doc(tmp_path, {"signature": ["1", "0"]})
    code, doc = run_cli(capsys, ["transform", "--matrix", "1,2,3", path])
    assert code == 2
    assert "rows" in doc["message"]


def test_transform_non_orthogonal_unsided_grid(tmp_path, capsys):
    path = write_doc(tmp_path, self_loop_doc())
    code, doc = run_cli(capsys, ["transform", "--matrix", "1,2;1,3", path])
    assert code == 2
    assert doc["error"] == "SingularTransform"


# -- classify -------------------------------------------------------------------


def test_classify_plcsp2(tmp_path, capsys):
    path = write_doc(tmp_path, {"signatures": {"f": ["1", "2", "1"]}})
    code, doc = run_cli(capsys, ["classify", "--framework", "plcsp2", path])
    assert code == 0
    assert doc["verdict"]["tractable"] is True
    assert doc["signatures"]["f"]["classes"]["Mhat"] is True
    assert doc["signatures"]["f"]["classes"]["P"] is False


def test_classify_plholant_witness_serialized(tmp_path, capsys):
    f = transform(Z, equality(5))
    g = transform(Z, sig([0, 1, 0, 0]))
    doc = {"signatures": {
        "f": [str(e) for e in f.entries],
        "g": [str(e) for e in g.entries]}}
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["classify", path])
    assert code == 0
    assert out["verdict"]["tractable"] is True
    assert "7" in out["verdict"]["case"]


def test_classify_plholant_hard(tmp_path, capsys):
    f = transform(Z, equality(4))
    g = transform(Z, sig([0, 1, 0, 0]))
    doc = {"signatures": {
        "f": [str(e) for e in f.entries],
        "g": [str(e) for e in g.entries]}}
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["classify", path])
    assert code == 0
    assert out["verdict"]["tractable"] is False


def test_classify_binary_eq(tmp_path, capsys):
    path = write_doc(tmp_path, {"f": ["1", "2", "4"], "S": [3, 6]})
    code, doc = run_cli(capsys, ["classify", "--framework", "binary-eq", path])
    assert code == 0
    assert doc["verdict"]["tractable"] is True


def test_classify_binary_eq_bad_s(tmp_path, capsys):
    path = write_doc(tmp_path, {"f": ["1", "2", "3"], "S": [2]})
    code, doc = run_cli(capsys, ["classify", "--framework", "binary-eq", path])
    assert code == 2
    assert doc["error"] == "BadS"


def test_classify_hpm_sizes(tmp_path, capsys):
    path = write_doc(tmp_path, {"sizes": [5, 10]})
    code, doc = run_cli(capsys, ["classify", "--framework", "hpm", path])
    assert code == 0
    assert doc["verdict"]["tractable"] is True
    path = write_doc(tmp_path, {"sizes": [3, 6]})
    code, doc = run_cli(capsys, ["classify", "--framework", "hpm", path])
    assert code == 0
    assert doc["verdict"]["tractable"] is False


def test_classify_hpm_invalid_sizes_are_exit_2(tmp_path, capsys):
    for sizes in ([-3], [0], [2.5], ["3"], [True]):
        path = write_doc(tmp_path, {"sizes": sizes})
        code, doc = run_cli(capsys, ["classify", "--framework", "hpm", path])
        assert code == 2
        assert doc["error"] == "ValueError"


# -- pm / hpm -------------------------------------------------------------------


def test_pm_weighted_edge(tmp_path, capsys):
    doc = {"vertices": [1, 2],
           "rotation": {"1": ["a"], "2": ["b"]},
           "edges": [["a", "b", "3"]]}
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["pm", path])
    assert code == 0
    assert out == {"value": "3"}


def hpm_doc(members):
    n = len(members)
    return {
        "vertices": members,
        "hyperedges": [{"id": "h", "members": members}],
        "rotation": dict({str(v): ["i%d" % j] for j, v in enumerate(members)},
                         h=["i%d" % j for j in range(n)]),
    }


def test_hpm_single_hyperedge(tmp_path, capsys):
    path = write_doc(tmp_path, hpm_doc([1, 2, 3, 4, 5]))
    code, doc = run_cli(capsys, ["hpm", path])
    assert code == 0
    assert doc["value"] == "1"
    assert doc["verdict"]["tractable"] is True


def test_hpm_uncovered_vertex(tmp_path, capsys):
    doc = dict(hpm_doc([0, 1, 2, 3, 4]), vertices=[0, 1, 2, 3, 4, 5])
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["hpm", path])
    assert code == 0
    assert out["value"] == "0"
    assert out["verdict"]["case"] == "gcd 5"


def test_classify_hpm_monomer_dimer_sizes_are_hard(tmp_path, capsys):
    for sizes in ([1, 2], [1, 2, 2]):
        path = write_doc(tmp_path, {"sizes": sizes})
        code, doc = run_cli(capsys, ["classify", "--framework", "hpm", path])
        assert code == 0
        assert doc["verdict"]["tractable"] is False
        assert "monomer-dimer" in doc["verdict"]["obstruction"]


def test_hpm_hard_capped(tmp_path, capsys):
    path = write_doc(tmp_path, hpm_doc([1, 2, 3]))
    code, doc = run_cli(capsys, ["hpm", "--cap", "1", path])
    assert code == 1
    assert doc["value"] is None
    assert doc["verdict"]["tractable"] is False
    code, doc = run_cli(capsys, ["hpm", path])
    assert code == 0
    assert doc["value"] == "1"


def assert_string_for_list_is_exit_2(tmp_path, capsys, argv, doc, field):
    code, out = run_cli(capsys, argv + [write_doc(tmp_path, doc)])
    assert code == 2, (field, out)
    assert out == {"error": "ValueError",
                   "message": "%r must be a JSON list, got str" % field}


def test_eval_string_for_list_is_exit_2(tmp_path, capsys):
    # read as lists of characters, all but the dangling one evaluated to 2
    loop = self_loop_doc()
    for field, doc in [
            ("rotation", dict(loop, vertices=[dict(loop["vertices"][0],
                                                   rotation="ab")])),
            ("edges", dict(loop, edges=["ab"])),
            ("dangling", dict(loop, edges=[], dangling="ab")),
            ("eq", dict(loop, signatures={"eq": "101"}))]:
        assert_string_for_list_is_exit_2(tmp_path, capsys, ["eval"], doc,
                                         field)


def test_classify_and_transform_string_signature_is_exit_2(tmp_path, capsys):
    # read as lists of characters, each of these was the signature [1, 0, 1]
    for argv, doc, field in [
            (["classify"], {"signatures": {"f": "101"}}, "f"),
            (["classify", "--framework", "binary-eq"],
             {"f": "101", "S": [3]}, "f"),
            (["transform", "--matrix", "1,0;0,1"], {"signature": "101"},
             "signature")]:
        assert_string_for_list_is_exit_2(tmp_path, capsys, argv, doc, field)


def test_pm_string_for_list_is_exit_2(tmp_path, capsys):
    doc = {"vertices": [1, 2],
           "rotation": {"1": ["a"], "2": ["b"]},
           "edges": [["a", "b", "3"]]}
    for field, bad in [("vertices", dict(doc, vertices="12")),
                       ("rotation", dict(doc, rotation={"1": "a", "2": "b"})),
                       ("edges", dict(doc, edges=["ab3"]))]:
        assert_string_for_list_is_exit_2(tmp_path, capsys, ["pm"], bad, field)


def test_hpm_string_for_list_is_exit_2(tmp_path, capsys):
    doc = {"vertices": [1, 2],
           "hyperedges": [{"id": "h", "members": [1, 2]}],
           "rotation": {"1": ["a"], "2": ["b"], "h": ["a", "b"]}}
    for field, bad in [
            ("vertices", dict(doc, vertices="12")),
            ("members", dict(doc, hyperedges=[{"id": "h", "members": "12"}])),
            ("rotation", dict(doc, rotation=dict(doc["rotation"], h="ab")))]:
        assert_string_for_list_is_exit_2(tmp_path, capsys, ["hpm"], bad,
                                         field)


def test_pm_rotation_of_unknown_vertex_is_exit_2(tmp_path, capsys):
    # vertex 3 and its two unmatched half-edges were dropped: value "1"
    doc = {"vertices": [1, 2],
           "rotation": {"1": ["a"], "2": ["b"], "3": ["c", "d"]},
           "edges": [["a", "b", "1"]]}
    code, out = run_cli(capsys, ["pm", write_doc(tmp_path, doc)])
    assert code == 2
    assert out == {"error": "StructureError",
                   "message": "rotation of unknown vertex 3"}


def test_hpm_rotation_of_unknown_node_is_exit_2(tmp_path, capsys):
    doc = hpm_doc([1, 2])
    doc["rotation"]["zz"] = ["q", "r"]
    code, out = run_cli(capsys, ["hpm", write_doc(tmp_path, doc)])
    assert code == 2
    assert out == {"error": "StructureError",
                   "message": "rotation of unknown node 'zz'"}


def test_hpm_duplicate_vertex_is_exit_2(tmp_path, capsys):
    # with the incidence grid built lazily, the closed form would count 4
    doc = {"vertices": [1, 1],
           "hyperedges": [{"id": "e", "members": [1]},
                          {"id": "f", "members": [1]}],
           "rotation": {"1": ["a", "b"], "e": ["a"], "f": ["b"]}}
    code, out = run_cli(capsys, ["hpm", write_doc(tmp_path, doc)])
    assert code == 2
    assert out["error"] == "StructureError"


# -- verify ---------------------------------------------------------------------


def test_verify_all_pass(capsys):
    code, doc = run_cli(capsys, ["verify"])
    assert code == 0
    assert doc["failed"] == 0
    assert doc["passed"] == len(cli.FIXTURES)
    assert all(f["ok"] for f in doc["fixtures"])


def test_verify_reports_failures(capsys, monkeypatch):
    broken = [("broken/always-false", lambda: False),
              ("broken/raises", lambda: 1 / 0)]
    monkeypatch.setattr(cli, "FIXTURES", broken)
    code, doc = run_cli(capsys, ["verify"])
    assert code == 1
    assert doc["failed"] == 2
    assert "ZeroDivisionError" in doc["fixtures"][1]["error"]


# -- diagnostics and determinism --------------------------------------------------


def test_invalid_json_is_exit_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    code, doc = run_cli(capsys, ["eval", "-"])
    assert code == 2
    assert doc["error"] == "JSONDecodeError"


def test_missing_file_is_exit_2(capsys):
    code, doc = run_cli(capsys, ["eval", "/nonexistent/path.json"])
    assert code == 2
    assert doc["error"] == "FileNotFoundError"


def test_unknown_signature_name_is_exit_2(tmp_path, capsys):
    doc = self_loop_doc()
    doc["vertices"][0]["sig"] = "nope"
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["eval", path])
    assert code == 2
    assert out["error"] == "StructureError"


def test_bad_flags_are_exit_2(capsys):
    assert cli.run(["eval", "--method", "magic", "x.json"]) == 2
    capsys.readouterr()


def test_output_is_deterministic(tmp_path, capsys):
    path = write_doc(tmp_path, grid_to_json(k4_grid()))
    cli.run(["eval", path])
    first = capsys.readouterr().out
    cli.run(["eval", path])
    second = capsys.readouterr().out
    assert first == second


def test_scalars_round_trip_through_grammar(tmp_path, capsys):
    f = transform(Z, sig([1, 0, 0, I]))
    doc = {"signatures": {"f": [str(e) for e in f.entries],
                          "u": ["1", "w"]},
           "vertices": [{"id": 0, "sig": "f", "rotation": ["a", "b", "c"]},
                        {"id": 1, "sig": "u", "rotation": ["d"]}],
           "edges": [["a", "b"], ["c", "d"]]}
    path = write_doc(tmp_path, doc)
    code, out = run_cli(capsys, ["eval", "--method", "brute", path])
    assert code == 0
    grid = grid_from_json(doc)
    assert AN(out["value"]) == naive_holant(grid)


# -- inputs that used to end in a traceback ------------------------------------


def test_classify_huge_weight_reports_a_verdict(tmp_path, capsys):
    f = transform(Z, sig([3 ** 700, 0, 0, 1]))
    path = write_doc(tmp_path, {"signatures": {
        "f": [str(e) for e in f.entries], "g": ["1", "2", "1"]}})
    code, doc = run_cli(capsys, ["classify", path])
    assert code == 0
    assert doc["verdict"]["framework"] == "plholant"


def test_arithmetic_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text('{"f": ["1", "0", "1"], "S": [3, 1e999]}')
    code, doc = run_cli(capsys, ["classify", "--framework", "binary-eq",
                                 str(path)])
    assert code == 2
    assert doc["error"] == "OverflowError"


def test_eval_isolated_constant_vertex(tmp_path, capsys):
    doc = self_loop_doc()
    doc["signatures"]["c"] = ["2"]
    doc["vertices"].append({"id": 1, "sig": "c", "rotation": []})
    path = write_doc(tmp_path, doc)
    for method in ("auto", "product", "affine", "brute"):
        code, out = run_cli(capsys, ["eval", "--method", method, path])
        assert code == 0
        assert out["value"] == "4"


def test_stretched_grid_round_trips_through_json(tmp_path, capsys):
    from planar_holant.grid import two_stretch
    grid = k4_grid(lambda v: equality(3))
    stretched = two_stretch(grid)
    doc = json.loads(json.dumps(grid_to_json(stretched)))
    assert grid_to_json(grid_from_json(doc)) == grid_to_json(stretched)
    path = write_doc(tmp_path, doc)
    for method in ("auto", "brute"):
        code, out = run_cli(capsys, ["eval", "--method", method, path])
        assert code == 0
        assert AN(out["value"]) == naive_holant(grid)


def test_classify_rational_matchgate_is_tractable(tmp_path, capsys):
    path = write_doc(tmp_path, {"signatures": {"f": ["1", "0", "3", "0", "9"]}})
    code, doc = run_cli(capsys, ["classify", path])
    assert code == 0
    assert doc["verdict"] == {
        "framework": "plholant", "tractable": True,
        "case": "M-transformable (case 6)", "obstruction": None,
        "witness": {"transform": [["1", "0"], ["0", "1"]]}, "caveat": False}


# -- JSON fields of the wrong type -------------------------------------------


def assert_not_an_object(capsys, argv, field):
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert doc["error"] == "ValueError" and field in doc["message"]


def test_classify_signatures_not_an_object(tmp_path, capsys):
    path = write_doc(tmp_path, {"signatures": []})
    assert_not_an_object(capsys, ["classify", path], "signatures")


def test_eval_signatures_not_an_object(tmp_path, capsys):
    path = write_doc(tmp_path, dict(self_loop_doc(), signatures=[]))
    assert_not_an_object(capsys, ["eval", path], "signatures")


def test_gate_signatures_not_an_object(tmp_path, capsys):
    path = write_doc(tmp_path, dict(self_loop_doc(), signatures=[]))
    assert_not_an_object(capsys, ["gate", path], "signatures")


def test_eval_side_not_an_object(tmp_path, capsys):
    for side in ([1], 5):
        path = write_doc(tmp_path, dict(self_loop_doc(), side=side))
        assert_not_an_object(capsys, ["eval", path], "side")


def test_eval_side_of_unknown_vertex_is_exit_2(tmp_path, capsys):
    doc = dict(self_loop_doc(), side={"0": "L", "zz": "R"})
    code, out = run_cli(capsys, ["eval", write_doc(tmp_path, doc)])
    assert code == 2
    assert out == {"error": "StructureError",
                   "message": "side of unknown vertex 'zz'"}


def test_gate_of_two_components(tmp_path, capsys):
    # [1, 2] and [3, 5], one dangling edge each: the gate is their product
    doc = {"signatures": {"u": ["1", "2"], "w": ["3", "5"]},
           "vertices": [{"id": 0, "sig": "u", "rotation": ["a"]},
                        {"id": 1, "sig": "w", "rotation": ["b"]}],
           "edges": [], "dangling": ["a", "b"]}
    code, out = run_cli(capsys, ["gate", write_doc(tmp_path, doc)])
    assert code == 0
    assert out == {"arity": 2, "entries": ["3", "5", "6", "10"],
                   "symmetric": None}


def test_pm_rotation_not_an_object(tmp_path, capsys):
    doc = {"vertices": [1, 2], "rotation": [["a"], ["b"]],
           "edges": [["a", "b", "3"]]}
    path = write_doc(tmp_path, doc)
    assert_not_an_object(capsys, ["pm", path], "rotation")


def test_hpm_rotation_not_an_object(tmp_path, capsys):
    doc = hpm_doc([1, 2, 3, 4, 5])
    doc["rotation"] = list(doc["rotation"].values())
    path = write_doc(tmp_path, doc)
    assert_not_an_object(capsys, ["hpm", path], "rotation")


def assert_boolean_refused(capsys, argv):
    code, doc = run_cli(capsys, argv)
    assert code == 2
    assert doc["error"] == "ValueError" and "true" in doc["message"]


def test_eval_boolean_scalars_are_exit_2(tmp_path, capsys):
    # read as 1/0 these gave value "2" with exit 0
    both = dict(self_loop_doc(), signatures={"eq": [True, False, True]},
                scalar=True)
    for doc in (both, dict(both, signatures=self_loop_doc()["signatures"]),
                dict(both, scalar="1")):
        assert_boolean_refused(capsys, ["eval", write_doc(tmp_path, doc)])


def test_pm_boolean_weight_is_exit_2(tmp_path, capsys):
    # read as 1 this gave value "1" with exit 0
    doc = {"vertices": [1, 2], "rotation": {"1": ["a"], "2": ["b"]},
           "edges": [["a", "b", True]]}
    assert_boolean_refused(capsys, ["pm", write_doc(tmp_path, doc)])


def test_classify_boolean_entries_are_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, {"signatures": {"f": [True, "0", "1"]}})
    assert_boolean_refused(capsys, ["classify", path])
    path = write_doc(tmp_path, {"f": ["1", "0", True], "S": [3]})
    assert_boolean_refused(capsys, ["classify", "--framework", "binary-eq",
                                    path])


def test_classify_binary_eq_invalid_arities_are_exit_2(tmp_path, capsys):
    for S in ([3.5], ["3"], [True, 3]):
        path = write_doc(tmp_path, {"f": ["1", "0", "1"], "S": S})
        code, doc = run_cli(capsys, ["classify", "--framework", "binary-eq",
                                     path])
        assert code == 2
        assert doc["error"] == "BadS"


def bundle_doc(entries, n):
    """Two vertices of one signature joined by n parallel edges."""
    left = ["a%d" % k for k in range(n)]
    right = ["b%d" % k for k in reversed(range(n))]
    return {"signatures": {"f": entries},
            "vertices": [{"id": 0, "sig": "f", "rotation": left},
                         {"id": 1, "sig": "f", "rotation": right}],
            "edges": [["a%d" % k, "b%d" % k] for k in range(n)]}


def test_eval_too_large_texts(tmp_path, capsys):
    k4 = grid_to_json(k4_grid(lambda v: sig([1, 0, 3, 0])))
    path = write_doc(tmp_path, k4)
    assert run_cli(capsys, ["eval", "--cap", "2", path]) == (1, {
        "error": "TooLarge",
        "message": "tractable (M-transformable (case 6)) but no polynomial "
                   "route is implemented and 6 edges exceed the cap 2"})
    path = write_doc(tmp_path, bundle_doc(["2", "1", "0", "0", "0"], 4))
    assert run_cli(capsys, ["eval", "--cap", "2", path]) == (1, {
        "error": "TooLarge",
        "message": "classified #P-hard (Sig[2, 1, 0, 0, 0] is outside every "
                   "tractable family) and 4 edges exceed the brute-force "
                   "cap 2"})


def test_classify_binary_eq_needs_a_binary_f(tmp_path, capsys):
    for f in (["1", "2"], ["1", "2", "4", "8"]):
        path = write_doc(tmp_path, {"f": f, "S": [3]})
        code, doc = run_cli(capsys, ["classify", "--framework", "binary-eq",
                                     path])
        assert code == 2
        assert doc["error"] == "ArityError"


def test_eval_reads_every_present_scalar(tmp_path, capsys):
    doc = dict(self_loop_doc(), scalar=0)
    doc["signatures"] = {"eq": ["1", "1", "1"]}
    code, out = run_cli(capsys, ["eval", write_doc(tmp_path, doc)])
    assert (code, out["value"]) == (0, "0")
    doc["scalar"] = []
    code, out = run_cli(capsys, ["eval", write_doc(tmp_path, doc)])
    assert (code, out["error"]) == (2, "TypeError")


def test_malformed_vertex_and_edge_entries_name_their_field(tmp_path,
                                                           capsys):
    cases = []
    for vertex in ("v0", ["eq", 0], {"id": 0, "rotation": ["a", "b"]},
                   {"sig": "eq", "rotation": ["a", "b"]},
                   {"id": 0, "sig": "eq"},
                   {"id": 0, "sig": ["eq"], "rotation": ["a", "b"]},
                   {"id": 0, "sig": 1, "rotation": ["a", "b"]}):
        cases.append(("vertices", dict(self_loop_doc(), vertices=[vertex])))
    cases.append(("vertices", dict(self_loop_doc(), vertices="v0")))
    for edges in ([["a", "b", "c"]], [["a"]], [[]], ["ab"], "ab"):
        cases.append(("edges", dict(self_loop_doc(), edges=edges)))
    for field, doc in cases:
        path = write_doc(tmp_path, doc)
        for command in ("eval", "gate"):
            code, out = run_cli(capsys, [command, path])
            assert (code, out["error"]) == (2, "ValueError"), (doc, out)
            assert repr(field) in out["message"], (doc, out)


# -- JSON ids ------------------------------------------------------------------


def test_pm_string_vertex_ids(tmp_path, capsys):
    doc = {"vertices": ["1", "2"], "rotation": {"1": ["a"], "2": ["b"]},
           "edges": [["a", "b", "3"]]}
    assert run_cli(capsys, ["pm", write_doc(tmp_path, doc)]) == \
        (0, {"value": "3"})


def test_hpm_ids_that_read_as_one_int_stay_apart(tmp_path, capsys):
    doc = {"vertices": ["1", "01"],
           "hyperedges": [{"id": "h", "members": ["1", "01"]}],
           "rotation": {"1": ["a"], "01": ["b"], "h": ["a", "b"]}}
    code, out = run_cli(capsys, ["hpm", write_doc(tmp_path, doc)])
    assert (code, out["value"]) == (0, "1")


def test_hpm_member_must_be_written_as_its_vertex(tmp_path, capsys):
    doc = hpm_doc([1, 2])
    doc["hyperedges"][0]["members"] = ["1", 2]
    code, out = run_cli(capsys, ["hpm", write_doc(tmp_path, doc)])
    assert (code, out["error"]) == (2, "StructureError")
    assert "members disagree" in out["message"]


def test_rotation_key_naming_two_ids_is_exit_2(tmp_path, capsys):
    doc = {"vertices": [1, "1"], "rotation": {"1": ["a", "b"]},
           "edges": [["a", "b", "1"]]}
    code, out = run_cli(capsys, ["pm", write_doc(tmp_path, doc)])
    assert out == {"error": "StructureError",
                   "message": "rotation key '1' names 2 ids"}
    assert code == 2


def test_transform_side_keys_name_string_ids(tmp_path, capsys):
    eq2, f = ["1", "0", "1"], ["1", "2", "0", "1"]
    doc = {"signatures": {"eq2": eq2, "f": f},
           "vertices": [{"id": "1", "sig": "f", "rotation": ["a0", "a1", "a2"]},
                        {"id": "2", "sig": "f", "rotation": ["b2", "b1", "b0"]}]
           + [{"id": "m%d" % j, "sig": "eq2", "rotation": ["m%d" % j, "n%d" % j]}
              for j in range(3)],
           "edges": [pair for j in range(3)
                     for pair in (["a%d" % j, "m%d" % j], ["n%d" % j, "b%d" % j])],
           "side": dict({"1": "R", "2": "R"},
                        **{"m%d" % j: "L" for j in range(3)})}
    code, out = run_cli(capsys, ["transform", "--matrix", "1,2;1,3",
                                 write_doc(tmp_path, doc)])
    assert code == 0
    assert out["grid"]["side"] == doc["side"]
    assert naive_holant(grid_from_json(out["grid"])) == \
        naive_holant(grid_from_json(doc))


def test_tuple_ids_survive_every_writer(tmp_path, capsys):
    g = solvers.WeightedPlanarGraph(
        [("v", 0), ("v", 1)], {("v", 0): [("h", 0)], ("v", 1): [("h", 1)]},
        [(("h", 0), ("h", 1), 3)])
    doc = json.loads(json.dumps(solvers.weighted_graph_to_json(g)))
    assert solvers.weighted_graph_from_json(doc).rotation == g.rotation
    assert run_cli(capsys, ["pm", write_doc(tmp_path, doc)]) == \
        (0, {"value": "3"})
    h = solvers.PlanarHypergraph(
        [("v", 0), ("v", 1)], [(("e", 0), [("v", 0), ("v", 1)])],
        {("v", 0): [("i", 0)], ("v", 1): [("i", 1)],
         ("e", 0): [("i", 0), ("i", 1)]})
    doc = json.loads(json.dumps(solvers.hypergraph_to_json(h)))
    h2 = solvers.hypergraph_from_json(doc)
    assert (h2.vertices, h2.hyperedges, h2.rotation) == \
        (h.vertices, h.hyperedges, h.rotation)
    code, out = run_cli(capsys, ["hpm", write_doc(tmp_path, doc)])
    assert (code, out["value"]) == (0, "1")


def test_side_tag_other_than_L_or_R_is_exit_2(tmp_path, capsys):
    doc = {"signatures": {"f": [0, 1, 0], "g": [1, 0, 1]},
           "vertices": [{"id": 0, "sig": "f", "rotation": ["a", "b"]},
                        {"id": 1, "sig": "g", "rotation": ["c", "d"]}],
           "edges": [["a", "c"], ["b", "d"]],
           "side": {"0": "Q", "1": "R"}}
    path = write_doc(tmp_path, doc)
    for argv in (["eval", path], ["transform", "--matrix", "1,1;0,1", path]):
        code, out = run_cli(capsys, argv)
        assert code == 2 and out["error"] == "StructureError", argv
        assert "'Q'" in out["message"]


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    # the report runs to megabytes, so the reader leaves mid-write
    path = write_doc(tmp_path, {"signature": list(range(1, 3001))})
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "planar_holant.cli", "transform", "--matrix",
         "1,1;0,1", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=600) == cli.EXIT_CLOSED_PIPE
    assert "Traceback" not in err and "Error" not in err, err


def test_document_shape_refusals_name_the_document_or_key(tmp_path,
                                                          capsys):
    cases = [
        (["eval"], [1, 2], "'document'"),
        (["classify"], ["signatures"], "'document'"),
        (["pm"], "text", "'document'"),
        (["eval"], {"vertices": [], "edges": []}, "'signatures'"),
        (["classify"], {"sizes": [2]}, "'signatures'"),
        (["classify", "--framework", "binary-eq"], {"S": [3]}, "'f'"),
        (["classify", "--framework", "binary-eq"], {"f": ["1", "0", "1"]},
         "'S'"),
        (["classify", "--framework", "hpm"], {"vertices": []},
         "'hyperedges'"),
        (["hpm"], {"vertices": [], "rotation": {}}, "'hyperedges'"),
        (["pm"], {"vertices": [], "edges": []}, "'rotation'"),
    ]
    for argv, doc, name in cases:
        code, out = run_cli(capsys, argv + [write_doc(tmp_path, doc)])
        assert (code, out["error"]) == (2, "ValueError"), (argv, doc, out)
        assert name in out["message"], (argv, doc, out)


def test_entry_shape_refusals_name_their_field(tmp_path, capsys):
    pm = {"vertices": [0, 1], "rotation": {"0": ["a"], "1": ["b"]},
          "edges": [["a", "b", "1"]]}
    hpm = hpm_doc([1, 2])
    grid = grid_to_json(k4_grid())
    object_id = {"0": 0}
    cases = [
        (["pm"], dict(pm, edges=[["a", "b"]]), "'edges'"),
        (["pm"], dict(pm, edges=[["a", "b", "1", "2"]]), "'edges'"),
        (["pm"], dict(pm, edges=[["a", object_id, "1"]]), "'edges'"),
        (["pm"], dict(pm, vertices=[0, object_id]), "'vertices'"),
        (["hpm"], dict(hpm, hyperedges=[["h", [1, 2]]]), "'hyperedges'"),
        (["hpm"], dict(hpm, hyperedges="h"), "'hyperedges'"),
        (["hpm"], dict(hpm, hyperedges=[{"id": object_id, "members": [1]}]),
         "'hyperedges'"),
        (["hpm"], dict(hpm, hyperedges=[{"id": "h", "members": [{}]}]),
         "'members'"),
        (["classify", "--framework", "hpm"], {"hyperedges": [[1, 2]]},
         "'hyperedges'"),
        (["classify", "--framework", "hpm"],
         {"hyperedges": [{"members": 3}]}, "'members'"),
        (["eval"], dict(grid, vertices=[dict(grid["vertices"][0],
                                             id=object_id)]
                        + grid["vertices"][1:]), "'vertices'"),
        (["eval"], dict(grid, edges=[[object_id, "x"]]), "'edges'"),
    ]
    for argv, doc, name in cases:
        code, out = run_cli(capsys, argv + [write_doc(tmp_path, doc)])
        assert (code, out["error"]) == (2, "ValueError"), (argv, doc, out)
        assert name in out["message"], (argv, doc, out)


def test_unmatched_half_edges_of_mixed_id_types_are_listed(tmp_path,
                                                            capsys):
    # the refusal lists the unmatched half-edges, an int and a string
    doc = {"signatures": {"f": ["1", "0", "1"]},
           "vertices": [{"id": 0, "sig": "f", "rotation": [1, "b"]}],
           "edges": []}
    code, out = run_cli(capsys, ["eval", write_doc(tmp_path, doc)])
    assert (code, out["error"]) == (2, "StructureError"), out
    assert "neither matched nor dangling" in out["message"], out


def test_values_that_are_not_scalars_name_their_field(tmp_path, capsys):
    pm = {"vertices": [1, 2], "rotation": {"1": ["a"], "2": ["b"]},
          "edges": [["a", "b", [1]]]}
    cases = [
        (["eval"], dict(self_loop_doc(), signatures={"eq": ["1", 2.5, "1"]}),
         "'eq'", "2.5"),
        (["eval"], dict(self_loop_doc(), scalar={"0": 0}), "'scalar'",
         '{"0": 0}'),
        (["pm"], pm, "'edges'", "[1]"),
        (["classify"], {"signatures": {"f": [None, "0", "1"]}}, "'f'",
         "null"),
        (["classify", "--framework", "binary-eq"],
         {"f": ["1", [], "1"], "S": [3]}, "'f'", "[]"),
        (["transform", "--matrix", "1,1;0,1"], {"signature": [1, 0.5]},
         "'signature'", "0.5"),
    ]
    for argv, doc, field, value in cases:
        code, out = run_cli(capsys, argv + [write_doc(tmp_path, doc)])
        assert (code, out["error"]) == (2, "TypeError"), (argv, out)
        assert out["message"] == ("a scalar in %s must be an integer or a "
                                  "string, got %s" % (field, value)), out
    code, out = run_cli(capsys, ["classify", "--framework", "hpm",
                                 write_doc(tmp_path, {"sizes": True})])
    assert (code, out["error"]) == (2, "ValueError"), out
    assert "'sizes'" in out["message"], out
