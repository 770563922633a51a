"""Benchmark of the planar_holant library on seeded closed-loop workloads.

    python3 perfbench/run.py --workload pm-lattice --seed 1 --seconds 25 \
        --trace 0

One client runs the ops of the workload back to back in this process (a
closed loop, no extra threads).  The workload is a fixed cycle of op kinds
and sizes; every op gets a fresh instance from the seed.  The run goes on
in whole cycles until ``--seconds`` of wall time have passed and at least
MIN_OPS ops ran.  Each output is checked against its reference after the
op, outside the timed region.

Times are reported in reference seconds (see ``HostClock``): the wall time
of each op divided by how much slower the host ran a fixed reference loop
around and during it.  Other tenants of a shared host slow every instruction by a
third or more for stretches of tens of seconds; the scaling takes that out
while keeping the units close to seconds on an idle host.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one cycle
with spans and counters at the program's module boundaries and prints the
per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPS = 5
MIN_OPS = 100
TRACE_DIR = ".perfbench-trace"

# median time of one reference_loop() on an idle 2-vCPU host running
# Python 3.11.7; only fixes the scale of a reference second
REF_LOOP_S = 0.0017


def reference_loop():
    """Fixed exact arithmetic of the kind the library spends its time on:
    products and sums of growing fractions."""
    for _ in range(5):
        x = Fraction(1)
        for k in range(1, 40):
            x = x * Fraction(k + 2, k) - Fraction(1, k + 1)
    return x


class HostClock:
    """Turns the wall time of an op into reference seconds.

    The reference loop is timed (median of three) just before and just
    after the op, and once every TICK_S of wall time while the op runs,
    from a SIGALRM handler whose own time is taken off the op's.  The op's
    wall time is divided by the mean of these slowdowns against
    REF_LOOP_S.  The loop does not touch the program, so a change to the
    program moves the scaled time as it moves the wall time."""

    REPS = 3
    TICK_S = 0.05

    def __init__(self):
        self._samples = []
        self._ticks_s = 0.0

    def slowdown(self):
        times = []
        for _ in range(self.REPS):
            t = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t)
        return statistics.median(times) / REF_LOOP_S

    def _tick(self, signum, frame):
        t = time.perf_counter()
        reference_loop()
        self._samples.append((time.perf_counter() - t) / REF_LOOP_S)
        self._ticks_s += time.perf_counter() - t

    def measure(self, fn):
        """(fn's result, its wall time, its time in reference seconds)."""
        self._samples, self._ticks_s = [self.slowdown()], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)
        t = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._ticks_s
        self._samples.append(self.slowdown())
        return out, wall, wall / statistics.fmean(self._samples)


class WallClock:
    """HostClock's interface without the scaling: times in wall seconds."""

    def measure(self, fn):
        t = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t
        return out, wall, wall


def import_seconds(reps, clock):
    """Median time, in reference seconds, to import the library afresh.
    Each fresh copy is dropped again, so the benchmark keeps running on
    the first one."""
    def ours():
        return [k for k in sys.modules
                if k == "planar_holant" or k.startswith("planar_holant.")]

    times = []
    for _ in range(reps):
        saved = {k: sys.modules.pop(k) for k in ours()}
        times.append(clock.measure(
            lambda: importlib.import_module("planar_holant.cli"))[2])
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank percentile; a failed op is +inf, above every limit."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_ops(ops, tracer=None, clock=None):
    """Run ops back to back: (time per op, ok per op), in reference
    seconds if a HostClock is given and in wall seconds if not.  An op is
    not ok if it raises or its output fails the check."""
    clock = clock or WallClock()
    times, oks = [], []
    for op in ops:
        def call():
            root = tracer.open("bench.op") if tracer else None
            try:
                return op.call(), False
            except Exception as exc:  # a failing op is recorded, not fatal
                return exc, True
            finally:
                if tracer:
                    tracer.close(root)

        (out, raised), _, dt = clock.measure(call)
        try:
            ok = not raised and bool(op.check(out))
        except Exception:  # an output of the wrong shape fails its check
            ok = False
        if not ok:
            print("FAILED op %s: got %s; inputs %s"
                  % (op.kind, str(out)[:200], str(op.inputs)[:200]),
                  file=sys.stderr)
        times.append(dt)
        oks.append(ok)
    return times, oks


def timed_run(cycles, make, seconds, clock):
    """Whole cycles until ``seconds`` of wall time have passed and MIN_OPS
    ran: (reference seconds per op, per cycle; oks per cycle; zero-valued
    references)."""
    times, oks, zero = [], [], 0
    c = 0
    # the garbage collector skips the inputs made so far, as it would in a
    # process that had read them long ago
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or sum(map(len, oks)) < MIN_OPS):
        if c < len(cycles):
            ops = cycles[c]
        else:
            ops = make(c)
            gc.collect()
            gc.freeze()
        t, ok = run_ops(ops, clock=clock)
        times.append(t)
        oks.append(ok)
        zero += sum(op.zero for op in ops)
        if c < len(cycles):
            cycles[c] = None
        c += 1
    return times, oks, zero


def cycle_seconds(times):
    """Seconds of one cycle, each op's time the median of its slot over the
    cycles: a slow stretch of the machine or one hard instance moves it
    less than the mean would."""
    return sum(statistics.median(slot) for slot in zip(*times))


def summarize(times, oks):
    """Throughput and latency percentiles from per-cycle wall times and
    check outcomes; a failed op's latency is +inf."""
    flat_t, flat_ok = sum(times, []), sum(oks, [])
    latencies = [t if ok else math.inf for t, ok in zip(flat_t, flat_ok)]
    share_ok = sum(flat_ok) / len(flat_ok)
    return {
        "ok_ops_per_s": share_ok * len(times[0]) / cycle_seconds(times),
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_p90_s": percentile(latencies, 0.9),
    }


def report(workload, metrics, units, notes):
    for name, value in metrics.items():
        extra = notes.get(name, "")
        print("%s %s = %.6g %s%s"
              % (workload, name, value, units[name], extra))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import workloads
        import spans
    except ImportError as exc:
        print("cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        def make(c):
            return workloads.make_cycle(args.workload, args.seed, c, workdir)

        if args.trace:
            return traced_run(args, spans, make(0), make(0))

        clock = HostClock()
        import_s = import_seconds(SETUP_REPS, clock)
        cycles, setup = [], []
        for c in range(SETUP_REPS):
            ops, _, ref_s = clock.measure(lambda: make(c))
            cycles.append(ops)
            setup.append(ref_s)
        setup_s = import_s + statistics.median(setup)

        start = time.perf_counter()
        times, oks, zero = timed_run(cycles, make, args.seconds, clock)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    n, n_ok = sum(map(len, oks)), sum(map(sum, oks))
    busy = sum(map(sum, times))
    metrics = dict(
        summarize(times, oks), setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    units = {"ok_ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1"}
    beyond = n - math.ceil(0.9 * n)
    notes = {
        "ok_ops_per_s": "  (%d ok of %d ops, %d cycles in %.1f s of wall "
                        "time; ops took %.2f reference s, per-slot median "
                        "cycle %.2f)" % (n_ok, n, len(times), elapsed, busy,
                                         cycle_seconds(times)),
        "latency_p50_s": "  (samples %d)" % n,
        "latency_p90_s": "  (samples %d, %d beyond)" % (n, beyond),
        "setup_s": "  (median of %d imports %.3f s + median of %d cycle "
                   "set-ups %.3f s)" % (SETUP_REPS, import_s, len(setup),
                                        statistics.median(setup)),
        "failed_frac": "  (%d failed; zero-valued references %d of %d)"
                       % (n - n_ok, zero, n),
    }
    report(args.workload, dict(metrics, failed_frac=(n - n_ok) / n), units,
           notes)
    print(json.dumps({
        "correct": n_ok == n, "attempted": n, "failed": n - n_ok,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def traced_run(args, spans, traced_ops, plain_ops):
    """Cycle 0 with spans and counters, then a second copy of cycle 0
    without them: the gap in ok ops per reference second is the tracing
    overhead."""
    tracer, clock = spans.Tracer(), HostClock()
    gc.collect()
    gc.freeze()
    tracer.install()
    try:
        traced_t, traced_ok = run_ops(traced_ops, tracer, clock)
    finally:
        tracer.uninstall()
    gc.collect()
    gc.freeze()
    plain_t, plain_ok = run_ops(plain_ops, clock=clock)
    traced_s, plain_s = sum(traced_t), sum(plain_t)
    n = len(traced_ok)
    metrics = spans.layer_metrics(tracer, n)
    overhead = 1 - (sum(traced_ok) / traced_s) / (sum(plain_ok) / plain_s)
    metrics["trace.overhead_frac"] = overhead
    os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
    path = os.path.join(ROOT, TRACE_DIR,
                        "%s-seed%d.jsonl" % (args.workload, args.seed))
    tracer.dump(path)
    units = {k: spans.unit(k) for k in metrics}
    notes = {"trace.overhead_frac": "  (traced %.2f, untraced %.2f reference"
                                    " s; spans in %s)"
                                    % (traced_s, plain_s, path)}
    report(args.workload, metrics, units, notes)
    failed = n - sum(traced_ok)
    print(json.dumps({
        "correct": failed == 0, "attempted": n, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
