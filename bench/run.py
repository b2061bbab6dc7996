#!/usr/bin/env python3
"""Benchmark for minorsum: one workload, one seed, one process, one thread.

    python3 bench/run.py --workload int-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; minorsum is imported from `src/`
there, never from an installed copy.  The workload's fixed, seeded list of
operations runs in whole rounds, the same list every round, until
`--seconds` have passed at the end of a round.  A fixed pure-Python
reference loop is sampled between operations all through the timed phase,
and each operation's time is reported in units of the samples taken near
it, which takes out the speed changes of a shared host.  Every output is
checked against a reference computed by `oracle`.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json when `--trace 0` and its per-layer
metrics, per round, when `--trace 1`.

Exit status: 0 when every output was correct, 1 when one was not, 2 when
the checkout holds no minorsum source.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_PROBES = 4  # extra set-ups, each in a fresh process, for setup_s
REF_ITERATIONS = 6000  # the reference sample's in-cache part: about 3 ms
REF_ENTRIES = 10_000  # its dict part: about 4 ms
REF_EVERY = 0.15  # seconds of timed phase per reference sample
REF_BURST = 20  # most samples taken at once, after a long operation
REF_WINDOW = 2.5  # an operation's time is divided by the median sample this near it

sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own modules, beside this file)
from workloads import CheckError  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_minorsum():
    """Import minorsum from this checkout's src/ or exit with status 2."""
    init = os.path.join(SRC, "minorsum", "__init__.py")
    if not os.path.isfile(init):
        fail(f"no minorsum source at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import minorsum

    if os.path.abspath(minorsum.__file__) != init:
        fail(f"imported minorsum from {minorsum.__file__}, expected {init}")
    return minorsum


def fail(message):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def set_up(args, workdir, tracer=None):
    """Import the program and build the workload's operations; returns
    (seconds taken, ops)."""
    t0 = perf_counter()
    ms = import_minorsum()
    if tracer is not None:
        import tracing

        tracing.install(ms, tracer)
    ops = workloads.WORKLOADS[args.workload](ms, args.seed, workdir)
    return perf_counter() - t0, ops


def setup_probe(args):
    """One set-up in this process; prints its duration."""
    workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
    try:
        seconds, _ = set_up(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(seconds))


def probe_setups(args) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(done.returncode or 2)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def reference_sample() -> float:
    """One run of a fixed pure-Python loop, in seconds.  Its first part
    works in cache: dict updates on a few tuple keys, big-integer
    products, text and a sort, the kinds of work minorsum's kernels do.
    Its second part builds and scans a dict of REF_ENTRIES entries, about
    2 MB, as the ring's large polynomials do.  It is the unit of the timing
    metrics: sampled all through the timed phase, it tracks the machine's
    speed, which on a shared host moves by tens of percent within seconds."""
    t0 = perf_counter()
    terms = {}
    x = 3
    for i in range(REF_ITERATIONS):
        key = (i % 31, i % 7)
        terms[key] = terms.get(key, 0) + i * x
        if i % 50 == 0:
            x = x * 1_000_003 % (1 << 200) + 1
    text = [str(v) for v in terms.values()]
    order = sorted(terms.items())
    big = {}
    for i in range(REF_ENTRIES):
        big[(i, i % 97)] = x * i
        if i % 64 == 0:
            x = x * 1_000_003 % (1 << 300) + 1
    low = 0
    for key in list(big)[::3]:
        low += big[key] & 255
    if len(text) != len(order) or low < 0:
        raise AssertionError("reference loop")
    return perf_counter() - t0


class Timeline:
    """Reference samples and operation times of one timed phase."""

    def __init__(self, n_ops):
        self.ref_at = []  # midpoint of each reference sample
        self.ref_s = []  # its duration
        self.runs = [[] for _ in range(n_ops)]  # per op: (start, end) of each run
        self.last_ref = float("-inf")

    def sample(self):
        t0 = perf_counter()
        dur = reference_sample()
        self.ref_at.append(t0 + dur / 2)
        self.ref_s.append(dur)
        self.last_ref = perf_counter()

    def catch_up(self):
        """One sample per REF_EVERY seconds since the last one, so that a
        long operation has as many samples near it as the short ones that
        would fill its time."""
        owed = min(int((perf_counter() - self.last_ref) / REF_EVERY), REF_BURST)
        for _ in range(owed):
            self.sample()

    def speed_at(self, start, end):
        """Median reference sample within REF_WINDOW seconds of a run."""
        lo = bisect.bisect_left(self.ref_at, start - REF_WINDOW)
        hi = bisect.bisect_right(self.ref_at, end + REF_WINDOW)
        return statistics.median(self.ref_s[lo:hi])

    def raw_s(self):
        """Each operation's median time over the rounds, in seconds."""
        return [statistics.median(e - s for s, e in runs) for runs in self.runs if runs]

    def ref_units(self):
        """Each operation's median time over the rounds, in units of the
        reference sample taken about the same moment."""
        return [
            statistics.median((e - s) / self.speed_at(s, e) for s, e in runs)
            for runs in self.runs
            if runs
        ]


def timed_rounds(ops, seconds, tracer=None):
    """Run whole rounds of `ops` until `seconds` have passed, with
    reference samples between operations, one per REF_EVERY seconds.  Returns
    (rounds, timeline, attempted, failed, wrong-output messages, error
    messages)."""
    timeline = Timeline(len(ops))
    verified = [None] * len(ops)
    attempted = failed = rounds = 0
    wrong, errors = [], []
    timeline.sample()
    start = perf_counter()
    while True:
        for i, op in enumerate(ops):
            timeline.catch_up()
            # every operation starts with the collector's counts at zero, so
            # the collections inside it are its own; otherwise each round
            # repeats the same allocations and a collection lands on
            # whichever operation the seeded order puts at that point
            gc.collect()
            attempted += 1
            t0 = perf_counter()
            try:
                out = tracer.op(op.run, op.label) if tracer is not None else op.run()
            except Exception:  # a failing operation is counted, and the run goes on
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                continue
            timeline.runs[i].append((t0, perf_counter()))
            view = op.view(out)
            if view != verified[i]:
                try:
                    op.check(view)
                    verified[i] = view
                except CheckError as exc:
                    wrong.append(str(exc))
        rounds += 1
        if tracer is not None:
            tracer.recording = False
        if perf_counter() - start >= seconds:
            break
    timeline.sample()
    return rounds, timeline, attempted, failed, wrong, errors


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spread_metrics(per_op):
    """(sum, median, 90th percentile) of per-operation times."""
    deciles = statistics.quantiles(per_op, n=10, method="inclusive") if len(per_op) > 1 else per_op * 9
    return sum(per_op), deciles[4], deciles[8]


def end_to_end(spec, timeline, setup_times):
    round_ref, p50, p90 = spread_metrics(timeline.ref_units())
    values = {
        "round_ref": round_ref,
        "op_p50_ref": p50,
        "op_p90_ref": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = load_spec()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    probes = [] if tracer else probe_setups(args)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        own_setup, ops = set_up(args, workdir, tracer)
        # the set-up's objects (inputs, checks, modules) stay out of the
        # collector's passes, so that the collection run before each
        # operation costs next to nothing
        gc.collect()
        gc.freeze()
        rounds, timeline, attempted, failed, wrong, errors = timed_rounds(
            ops, args.seconds, tracer
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in errors:
        sys.stderr.write(f"bench: operation failed: {message}\n")
    for message in wrong[:10]:
        sys.stderr.write(f"bench: wrong output: {message}\n")
    raw_round, raw_p50, raw_p90 = spread_metrics(timeline.raw_s())
    ref_q = statistics.quantiles(timeline.ref_s, n=4)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_round": len(ops),
        "rounds": rounds,
        "raw_round_s": raw_round,
        "raw_op_p50_ms": raw_p50 * 1000,
        "raw_op_p90_ms": raw_p90 * 1000,
        "reference_sample_ms": {"q1": ref_q[0] * 1000, "median": ref_q[1] * 1000,
                                "q3": ref_q[2] * 1000, "samples": len(timeline.ref_s)},
        "setup_samples_s": probes + [own_setup],
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    if tracer is not None:
        values = tracer.metrics(rounds, [m["name"] for m in spec["per_layer"]])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
        trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                                 "ops": [op.label for op in ops]})
        info["trace_file"] = os.path.relpath(trace_path, ROOT)
        info["absent"] = tracer.absent
    else:
        metrics = end_to_end(spec, timeline, probes + [own_setup])
    print("info " + json.dumps(info))
    correct = not wrong
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
