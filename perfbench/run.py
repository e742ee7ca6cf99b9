"""houghton-kit benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload classify-suite --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout and nowhere else.
With ``--trace 0`` the run repeats whole passes of the workload for
``--seconds`` and reports end-to-end metrics; with ``--trace 1`` it runs one
pass untraced and the same pass traced, and reports per-layer metrics.
The times of ``--trace 0`` are given at a fixed reference speed of the
machine (see ``Speed``), so that a slow phase of a shared host moves them
less.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from bisect import bisect_left
from math import ceil
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("rays", "elements", "finperm", "intlattice", "subgroups", "blocks",
           "wreath", "subdirect", "bns", "classify", "cli", "errors")
SETUP_REPEATS = 15
# the reference work takes about this long on an Intel Xeon with 2 CPUs in a
# fast phase; times are reported as if every run had that speed
REFERENCE_S = 0.004
PROBE_EVERY_S = 0.25
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75)
MAX_REPORTED_FAILURES = 5

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "fail_ratio": "ratio",
    "inconclusive_ratio": "ratio",
    "peak_rss_mib": "MiB",
}
# the metrics on the result line: each is defined on every workload and never 0
GATED = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "peak_rss_mib": "MiB",
    "conclusive_ratio": "ratio",
}


class SetupError(RuntimeError):
    pass


def reference_work() -> int:
    """Fixed pure-Python work that touches nothing of houghton_kit.

    A union-find over tuple-keyed points with small objects and method
    calls, the kind of work the program's window closures do.
    """

    class Point:
        __slots__ = ("ray", "pos")

        def __init__(self, ray, pos):
            self.ray, self.pos = ray, pos

        def key(self):
            return (self.ray, self.pos)

    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    total = 0
    for _ in range(3):
        parent.clear()
        table = {(r, q): (r % 3 + 1, q + r) for r in range(1, 4) for q in range(300)}
        for (r, q), image in table.items():
            a, b = find(Point(r, q).key()), find(image)
            if a != b:
                parent[max(a, b)] = min(a, b)
        total += sum(find(k)[1] for k in table)
    return total


class Speed:
    """The machine's speed, sampled with the reference work on a timer.

    The CPU of a shared host runs at speeds up to twice apart, in phases of a
    second to minutes.  While a Speed is entered, SIGALRM interrupts whatever
    runs, the program included, every PROBE_EVERY_S to time the reference
    work.  ``scaled`` gives an interval's time less the probes inside it, at
    the median speed of the probes inside it and the two on either side, so
    that one probe slowed by something else does not skew it.
    """

    def __init__(self):
        self.samples = []  # (start, end) of each probe, in order

    def probe(self, *_):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's garbage is not reference work
        try:
            start = perf_counter()
            reference_work()
            self.samples.append((start, perf_counter()))
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()

    def durations(self) -> list:
        return [end - start for start, end in self.samples]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from start to end, less probes, at the reference speed.

        A probe runs between two bytecodes, so each one lies wholly inside
        or wholly outside an interval timed around a call.
        """
        lo = bisect_left(self.samples, (start,))
        hi = bisect_left(self.samples, (end,))
        work = end - start - sum(b - a for a, b in self.samples[lo:hi])
        near = self.samples[max(lo - 2, 0):hi + 2]
        return work * REFERENCE_S / statistics.median(b - a for a, b in near)


def import_kit() -> SimpleNamespace:
    """Import houghton_kit afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "houghton_kit" or m.startswith("houghton_kit.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"houghton_kit.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"houghton_kit was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


class Runner:
    """Times operations one after another and checks each output."""

    def __init__(self, inconclusive_error, tracer=None):
        self.inconclusive_error = inconclusive_error
        self.tracer = tracer
        self.intervals = []  # (start, end) of each operation
        self.failed = 0
        self.inconclusive = 0
        self.failures = []
        self.digest = hashlib.sha256()
        self.digesting = True

    def op(self, name, fn, check=None, canon=None, inconclusive=None):
        """Run one operation; return its result, or None when it raised."""
        tr = self.tracer
        if tr is not None:
            tr.active = True
        start = perf_counter()
        try:
            result = fn()
        except self.inconclusive_error as exc:
            self.intervals.append((start, perf_counter()))
            self.inconclusive += 1
            self._record(name, f"inconclusive: {exc}")
            return None
        except Exception:
            self.intervals.append((start, perf_counter()))
            self._fail(name, traceback.format_exc(limit=3))
            self._record(name, "raised")
            return None
        finally:
            if tr is not None:
                tr.active = False
        self.intervals.append((start, perf_counter()))
        if inconclusive is not None and inconclusive(result):
            self.inconclusive += 1
        elif check is not None:
            problem = check(result)
            if problem:
                self._fail(name, problem)
        self._record(name, canon(result) if canon is not None else "")
        return result

    def _fail(self, name, message):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{name}: {message}")

    def _record(self, name, text):
        if self.digesting:
            self.digest.update(f"{name}\n{text}\n".encode())

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    @property
    def latencies(self) -> list:
        return [end - start for start, end in self.intervals]


def setup(workload_cls, name, seed, size, workdir):
    """Import the program and build the first pass's inputs, several times.

    Returns the (start, end) of each repetition with the objects of the last
    one.  The heap left by set-up is collected and frozen, so that the
    garbage collector's work during the operations is the program's own.
    """
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        hk = import_kit()
        wl = workload_cls(hk, size)
        inputs = wl.make_inputs(pass_rng(name, seed, 0), workdir)
        intervals.append((start, perf_counter()))
    gc.collect()
    gc.freeze()
    return intervals, hk, wl, inputs


def tail(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    count = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = ceil(pct / 100 * count)
        if count - rank >= 10:
            return ordered[rank - 1], pct, count - rank
    return None


def measure(args, workload_cls, workdir):
    with Speed() as speed:
        setup_times, hk, wl, inputs = setup(workload_cls, args.workload, args.seed, args.size,
                                            workdir)
        runner = Runner(hk.errors.InconclusiveError)
        starts = []  # index of each pass's first operation
        loop_start = perf_counter()
        while True:
            if starts:
                inputs = wl.make_inputs(pass_rng(args.workload, args.seed, len(starts)), workdir)
            starts.append(runner.attempted)
            wl.run_pass(inputs, runner)
            runner.digesting = False
            # stop where the run ends nearest to --seconds, in whole passes
            elapsed = perf_counter() - loop_start
            if elapsed + (elapsed / len(starts)) / 2 >= args.seconds:
                break
    setup_s = statistics.median(speed.scaled(a, b) for a, b in setup_times)
    lat = [speed.scaled(a, b) for a, b in runner.intervals]
    n = runner.attempted
    passes = len(starts)
    # per pass: operations per second of operation time
    rates = [(b - a) / sum(lat[a:b]) for a, b in zip(starts, starts[1:] + [n])]
    values = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(rates),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail(lat),
        "fail_ratio": runner.failed / n,
        "inconclusive_ratio": runner.inconclusive / n,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = speed.durations()
    print(f"workload {args.workload} seed {args.seed}: {passes} passes, {n} ops, "
          f"output digest {runner.digest.hexdigest()}")
    print(f"  reference work {statistics.median(raw):.6g} s median over {len(raw)} probes "
          f"(min {min(raw):.6g}, max {max(raw):.6g}); times below are at {REFERENCE_S} s")
    for name, unit in END_TO_END.items():
        value = values[name]
        if name != "op_tail_s":
            print(f"  {name:<20} {value:.6g} {unit}")
        elif value is None:
            print(f"  {name:<20} n/a {unit} (not reported: {n} ops leave fewer than 10 beyond p75)")
        else:
            value, pct, beyond = value
            print(f"  {name:<20} {value:.6g} {unit} (p{pct:g} of {n} ops, {beyond} beyond)")
    values["conclusive_ratio"] = 1 - values["inconclusive_ratio"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in GATED.items()}
    return runner.failed == 0, n, runner.failed, metrics, runner.failures


def trace(args, workload_cls, workdir):
    _, hk, wl, inputs = setup(workload_cls, args.workload, args.seed, args.size, workdir)
    plain = Runner(hk.errors.InconclusiveError)
    wl.run_pass(inputs, plain)
    tr = tracing.Tracer()
    traced = Runner(hk.errors.InconclusiveError, tracer=tr)
    inputs = wl.make_inputs(pass_rng(args.workload, args.seed, 0), workdir)
    tr.install()
    try:
        wl.run_pass(inputs, traced)
    finally:
        tr.uninstall()
    leftover = tracing.leftover_wrappers()
    overhead = sum(traced.latencies) / sum(plain.latencies)
    same = plain.digest.hexdigest() == traced.digest.hexdigest()
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write_spans(spans_path)
    print(f"workload {args.workload} seed {args.seed}: traced pass of {traced.attempted} ops")
    print(f"  output digest untraced {plain.digest.hexdigest()}")
    print(f"  output digest traced   {traced.digest.hexdigest()}")
    print(f"  trace overhead {overhead:.3f}x, {len(tr.spans)} spans "
          f"({tr.dropped_spans} dropped) in {spans_path.relative_to(ROOT)}")
    total = sum(traced.latencies)
    for label, incl in sorted(tr.inclusive_times().items(), key=lambda kv: -kv[1])[:3]:
        print(f"  inclusive {label:<36} {incl:9.4f} s {100 * incl / total:5.1f}%")
    for label, (calls, self_s) in sorted(tr.stats.items(), key=lambda kv: -kv[1][1])[:5]:
        print(f"  self time {label:<36} {self_s:9.4f} s {100 * self_s / total:5.1f}% ({calls} calls)")
    failures = plain.failures + traced.failures
    if not same:
        failures.append("traced and untraced output digests differ")
    if leftover:
        failures.append(f"wrappers left installed: {leftover}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in tr.metrics().items()}
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    failed = plain.failed + traced.failed
    correct = failed == 0 and same and not leftover
    return correct, plain.attempted + traced.attempted, failed, metrics, failures


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload for the benchmark's own tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "houghton_kit" / "__init__.py").is_file():
        print(f"error: no houghton_kit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    step = trace if args.trace else measure
    try:
        correct, attempted, failed, metrics, failures = step(
            args, WORKLOADS[args.workload], workdir
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
