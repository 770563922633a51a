"""Tests of the benchmark itself: generators, references, checks, spans.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

from planar_holant import solvers
from planar_holant.algebra import ONE
from planar_holant.grid import grid_from_json, grid_to_json

import gen
import run
import spans
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def fingerprint(ops, workdir):
    """Everything an op hands the program, plus its reference."""
    out = []
    for op in ops:
        inputs = op.inputs
        if (isinstance(inputs, list) and inputs
                and str(inputs[-1]).startswith(workdir)):
            with open(inputs[-1]) as fh:
                inputs = inputs[:-1] + [fh.read()]
        out.append((op.kind, repr(inputs), repr(op.ref)))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    a, b, c = (str(tmp_path / d) for d in "abc")
    for d in (a, b, c):
        os.mkdir(d)
    first = fingerprint(workloads.make_cycle(workload, 7, 0, a), a)
    again = fingerprint(workloads.make_cycle(workload, 7, 0, b), b)
    other = fingerprint(workloads.make_cycle(workload, 8, 0, c), c)
    assert first == [(k, i.replace(b, a), r) for k, i, r in again]
    assert first != [(k, i.replace(c, a), r) for k, i, r in other]


def corrupt(ref):
    if isinstance(ref, bool):
        return not ref
    if isinstance(ref, list):
        return ref[:-1] + ["1 + " + ref[-1]]
    if isinstance(ref, str):
        return "1 + " + ref
    return ref + ONE


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corrupted_reference_fails_the_op(workload, tmp_path):
    ops = workloads.make_cycle(workload, 3, 0, str(tmp_path))[:4]
    _, oks = run.run_ops(ops)
    assert all(oks)
    for op in ops:
        op.ref = corrupt(op.ref)
    _, oks = run.run_ops(ops)
    assert not any(oks)


class Raising:
    kind = "raising"
    inputs = None
    ref = None

    def call(self):
        raise ValueError("boom")

    def check(self, out):
        return True


def test_failed_op_counts_as_infinite_latency(tmp_path):
    ops = workloads.make_cycle("cli-grids", 1, 0, str(tmp_path))[:8]
    cycle = ops + [Raising(), Raising()]
    times, oks = run.run_ops(cycle)
    assert oks == [True] * 8 + [False, False]
    m = run.summarize([times], [oks])
    assert m["latency_p90_s"] == math.inf
    assert m["latency_p50_s"] < math.inf
    assert m["ok_ops_per_s"] == pytest.approx(
        0.8 * len(cycle) / sum(times))


class TwiceAsSlow(run.HostClock):
    TICK_S = 60  # no sample while the op runs

    def slowdown(self):
        return 2.0


class Sleeping:
    kind = "sleeping"
    inputs = None

    def call(self):
        time.sleep(0.05)

    def check(self, out):
        return True


def test_host_clock_divides_wall_time_by_the_slowdown():
    (wall,), _ = run.run_ops([Sleeping()])
    (scaled,), oks = run.run_ops([Sleeping()], clock=TwiceAsSlow())
    assert oks == [True]
    assert wall == pytest.approx(0.05, rel=0.2)
    assert scaled == pytest.approx(0.025, rel=0.2)
    _, wall, ref_s = TwiceAsSlow().measure(lambda: time.sleep(0.01))
    assert ref_s == wall / 2


def test_host_clock_samples_during_an_op_and_takes_its_own_time_off():
    clock = run.HostClock()

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    t = time.perf_counter()
    _, wall, _ = clock.measure(busy)
    outside = time.perf_counter() - t
    assert len(clock._samples) >= 2 + 3
    assert clock._ticks_s > 0
    assert wall <= outside - clock._ticks_s


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values[:99] + [math.inf], 0.9) == 90
    assert run.percentile(values[:89] + [math.inf] * 11, 0.9) == math.inf


def test_span_self_times_sum_to_op_wall_time(tmp_path):
    ops = workloads.make_cycle("cli-grids", 2, 0, str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        times, oks = run.run_ops(ops, tracer)
    finally:
        tracer.uninstall()
    assert all(oks)
    _, self_t = spans.durations(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[0] == "bench.op"]
    assert len(roots) == len(ops)
    ends = roots[1:] + [len(tracer.spans)]
    for root, end, wall in zip(roots, ends, times):
        duration = tracer.spans[root][2] - tracer.spans[root][1]
        assert sum(self_t[root:end]) == pytest.approx(duration, abs=1e-9)
        # only the root span's own bookkeeping lies outside it
        assert 0 <= wall - duration <= 0.01 * wall + 1e-4


def test_tracer_uninstall_restores_every_binding():
    import planar_holant.cli as cli
    import planar_holant.classify as classify
    from planar_holant.algebra import AlgebraicNumber
    before = (cli.evaluate, classify.transform, AlgebraicNumber.__mul__,
              solvers.PlanarGrid.holant)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.evaluate is not before[0]
    tracer.uninstall()
    after = (cli.evaluate, classify.transform, AlgebraicNumber.__mul__,
             solvers.PlanarGrid.holant)
    assert after == before


def traced_counts(env):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "cli-grids", "--seed", "5", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def test_two_traced_runs_give_identical_counts():
    runs = [traced_counts(dict(os.environ, PYTHONHASHSEED=h)) for h in "12"]
    assert runs[0] == runs[1]
    assert runs[0]["algebra.mul_calls"] > 0


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pm-lattice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the independent references agree with the program on small inputs --------

@pytest.mark.parametrize("seed", range(6))
def test_lattice_pm_matches_fkt_and_contraction(seed):
    rnd = random.Random(seed)
    k, m = rnd.choice([(2, 2), (2, 3), (3, 4), (4, 4)])
    tri = rnd.random() < 0.5
    vertices, rotation, edges = gen.weighted_lattice(rnd, k, m, tri)
    weight = {}
    for (a, b, w) in edges:
        v, u = int(a.split(".")[0]), int(b.split(".")[0])
        weight[min(v, u), max(v, u)] = w
    ref = gen.lattice_pm(k, m, tri, lambda v, u: weight[v, u])
    g = solvers.WeightedPlanarGraph(vertices, rotation, edges)
    assert ref == solvers.fkt_count_pm(g)
    assert ref == gen.pm_reference_grid(vertices, rotation, edges).holant(
        cap=10 ** 6)


@pytest.mark.parametrize("seed", range(6))
def test_product_closed_form_matches_contraction(seed):
    rnd = random.Random(seed)
    grid, described = gen.signature_lattice(rnd, 4, 4,
                                            gen.product_palette(rnd))
    assert gen.product_holant(grid, described) == grid.holant(cap=10 ** 6)


@pytest.mark.parametrize("seed", range(4))
def test_case7_forms_agree(seed):
    rnd = random.Random(seed)
    eq_pal = [(gen.small_weight(rnd), gen.small_weight(rnd)) for _ in range(2)]
    z_grid, eo_grid = gen.case7_grid(rnd, eq_pal)
    assert z_grid.validate()[1]
    value = eo_grid.holant(cap=10 ** 6)
    assert not value.is_zero()
    assert z_grid.holant(cap=10 ** 6) == value


@pytest.mark.parametrize("seed", range(4))
def test_exact_covers_match_the_incidence_grid(seed):
    rnd = random.Random(seed)
    doc = gen.hypergraph_flowers(rnd, [5, 5])
    h = solvers.hypergraph_from_json(json.loads(json.dumps(doc)))
    assert gen.count_exact_covers(doc) == h.holant_grid().holant(cap=10 ** 6)


def test_inputs_survive_a_json_round_trip():
    rnd = random.Random(0)
    z_grid, _ = gen.case7_grid(rnd, [(ONE, ONE)])
    doc = json.loads(json.dumps(grid_to_json(z_grid)))
    back = grid_from_json(doc)
    assert set(back.vertices) == set(z_grid.vertices)
