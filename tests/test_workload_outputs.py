"""The benchmark's own output checks, run on its ops in tier-1.

``perfbench/run.py`` times each op and then checks its output against the
op's reference; a run whose check fails still exits 0.  Here every op of
the first three cycles of each workload must pass that check.
"""

import os
import sys

import pytest

from planar_holant import classify, sigcalc

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def workloads_module():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("workload", ["pm-lattice", "classify-sets",
                                      "cli-grids"])
def test_ops_pass_their_benchmark_check(workload, seed, tmp_path):
    workloads = workloads_module()
    for cycle in range(3):
        for op in workloads.make_cycle(workload, seed, cycle, str(tmp_path)):
            assert op.check(op.call()), (op.kind, op.inputs)


@pytest.mark.parametrize("workload", ["classify-sets", "cli-grids"])
def test_degenerate_form_runs_once_per_signature(workload, tmp_path):
    # every call of the function is seen, whichever module's name it is
    # called through; the signatures are kept, so that no id is reused
    code, seen = sigcalc._degenerate_form.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(frame.f_locals["f"])

    ops = workloads_module().make_cycle(workload, 1, 0, str(tmp_path))
    sys.setprofile(profile)
    try:
        for op in ops:
            op.call()
    finally:
        sys.setprofile(None)
    assert seen
    assert len({id(f) for f in seen}) == len(seen)


@pytest.mark.parametrize("seed", range(1, 6))
def test_every_witness_search_finds_a_witness(seed, tmp_path):
    # the anchor's family bits leave out the searches that must fail, so on
    # the benchmark's sets each search that runs returns a transform
    codes = {f.__code__: f.__name__ for f in (
        classify.a_transformable, classify.p_transformable,
        classify.m_transformable)}
    returned = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code in codes:
            returned.append((codes[frame.f_code], arg))

    workloads = workloads_module()
    ops = [op for cycle in range(3)
           for op in workloads.make_cycle("classify-sets", seed, cycle,
                                          str(tmp_path))]
    sys.setprofile(profile)
    try:
        for op in ops:
            op.call()
    finally:
        sys.setprofile(None)
    assert returned
    assert [name for name, T in returned if T is None] == []


# (seed, cycle) of cli-grids runs, past cycle 1, whose case-7 op has a
# block that merges a pin before the pin's own pop
FAR_CASE7 = [(16, 54), (5, 245), (13, 159), (14, 202)]


def test_case7_ops_pass_their_benchmark_check(tmp_path):
    workloads = workloads_module()
    gen = workloads.gen
    slots = [j for j, slot in enumerate(workloads.CLI_CYCLE)
             if slot[0] == "case7"]
    assert slots == [6, 23]
    coords = [(seed, cycle) for seed in range(1, 201) for cycle in (0, 1)]
    for seed, cycle in coords + FAR_CASE7:
        for slot in slots:
            index = cycle * len(workloads.CLI_CYCLE) + slot
            op = workloads.make_cli(gen.op_rng("cli-grids", seed, index),
                                    workloads.CLI_CYCLE[slot], str(tmp_path),
                                    index)
            assert op.check(op.call()), (seed, cycle, slot, op.inputs)
