"""Child process of bench/run.py: runs one workload in a fresh interpreter
and prints its figures as one JSON line.

The loop runs whole passes over the workload's ops, each op once per
pass, and stops before a pass would end past the time budget (at least
one pass always runs).

Times are scaled to a fixed processor speed (bench/speed.py): the
reference loop runs between ops, at least every REF_EVERY_S, and also
every REF_EVERY_S inside an op that runs longer, from a timer signal.
The machine's speed drifts over seconds, so an op of a second or more
often starts and ends at different speeds; the references taken inside
it follow the drift.  Each op's time, less the time its in-op references
took, is scaled by the references just before, inside and just after
it.  The traced pass takes no in-op references, so that they add
nothing to the spans.  The unscaled throughput is reported beside the
scaled one.

Every op's time is the median of its scaled repeats:

    ops_per_s            ops / sum of the per-op times
    op_p50_ms, op_p90_ms percentiles of the per-op times
    ok_frac              ops that neither raised nor failed a check, / ops
    decided_frac         rings with a yes or no verdict, / rings
    peak_rss_mb          peak resident memory once the timed loop ends

The result line's ``attempted`` and ``failed`` count ops, not repeats.

With --trace 1 the timed loop runs for half the budget, untraced, then
one more pass runs traced and the per-layer figures come from it.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import cyclicideals  # noqa: E402  (PYTHONPATH is set by bench/run.py)
import numpy  # noqa: E402  (already loaded by cyclicideals)
import tracing  # noqa: E402
from speed import reference_loop, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REF_EVERY_S = 0.25


class Run:
    """Samples and first-pass results of one workload's ops."""

    def __init__(self, ops):
        self.ops = ops
        self.raw = [[] for _ in ops]   # unscaled seconds per repeat
        self.at = [[] for _ in ops]    # (first, last) index of its references
        self.refs: list[float] = []
        self._ref_at = 0.0
        self._in_op_s = 0.0            # time the in-op references took
        signal.signal(signal.SIGALRM, self._in_op_reference)
        self.first = [None] * len(ops)
        self.drifted = set()  # ops whose output changed between passes

    def reference(self) -> None:
        self.refs.append(reference_loop())
        self._ref_at = time.perf_counter()

    def _in_op_reference(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.reference()
        self._in_op_s += time.perf_counter() - t0

    def one_pass(self, tracer=None) -> float:
        prepared = set()
        start = time.perf_counter()
        for k, op in enumerate(self.ops):
            if op.ring is not None and id(op.ring) not in prepared:
                op.ring.prepare()
                prepared.add(id(op.ring))
            if not self.refs or time.perf_counter() - self._ref_at >= REF_EVERY_S:
                self.reference()
            # the garbage of earlier ops (algebras are reference cycles) is
            # not this op's: a CLI call starts from a fresh process
            gc.collect()
            first_ref = len(self.refs) - 1
            self._in_op_s = 0.0
            root = tracer.begin("op") if tracer else None
            if not tracer:
                signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is a result: keep measuring
                out = exc
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            if tracer:
                tracer.end(root)
            self.raw[k].append(t1 - t0 - self._in_op_s)
            # the next reference, taken after the op, closes its range
            self.at[k].append((first_ref, len(self.refs)))
            self._record(k, out)
        self.reference()
        return time.perf_counter() - start

    def _record(self, k: int, out) -> None:
        first = self.first[k]
        if first is None:
            self.first[k] = out
        elif isinstance(out, Exception) or isinstance(first, Exception):
            if repr(out) != repr(first):
                self.drifted.add(k)
        elif out[0] != first[0]:
            self.drifted.add(k)

    def measure(self, seconds: float) -> None:
        passes: list[float] = []
        while not passes or sum(passes) + statistics.median(passes) <= seconds:
            passes.append(self.one_pass())

    def scaled(self, k: int, j: int) -> float:
        first, last = self.at[k][j]
        return scale(self.raw[k][j], *self.refs[first:last + 1])

    def op_times(self, last_only: bool = False) -> list[float]:
        """Scaled time per op: the median of its repeats, or its last one."""
        if last_only:
            return [self.scaled(k, -1) for k in range(len(self.ops))]
        return [statistics.median(self.scaled(k, j) for j in range(len(self.raw[k])))
                for k in range(len(self.ops))]

    def unscaled_ops_per_s(self) -> float:
        return len(self.ops) / sum(statistics.median(r) for r in self.raw)


def check(run: Run, workload) -> tuple[list[int], list[str]]:
    """Failed ops, and the problems that make the run incorrect (anything
    but a known refusal)."""
    failed, problems = [], []
    for k, (op, first) in enumerate(zip(run.ops, run.first)):
        if isinstance(first, Exception):
            failed.append(k)
            if not workload.known_refusal(first):
                problems.append(f"{op.label}: raised {first!r}")
            continue
        try:
            found = op.check(*first)
        except Exception as exc:  # a check that cannot run is a failed check
            found = [f"check raised {exc!r}"]
        if k in run.drifted:
            found.append("output changed between passes")
        if found:
            failed.append(k)
            problems += [f"{op.label}: {p}" for p in found]
    return failed, problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if Path(cyclicideals.__file__).resolve().parent != ROOT / "src" / "cyclicideals":
        print(f"error: cyclicideals imported from {cyclicideals.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ops = workload.make_ops(random.Random(args.seed))
    run = Run(ops)
    n = len(ops)
    metrics = {}
    if args.trace == 0:
        run.measure(args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        times = run.op_times()
        pct = statistics.quantiles(times, n=10, method="inclusive")
        unscaled = run.unscaled_ops_per_s()
        metrics.update(ops_per_s=(n / sum(times), "1/s"),
                       op_p50_ms=(pct[4] * 1e3, "ms"),
                       op_p90_ms=(pct[8] * 1e3, "ms"),
                       peak_rss_mb=(peak_mb, "MB"))
    else:
        run.measure(args.seconds / 2)
        untraced = n / sum(run.op_times())
        unscaled = run.unscaled_ops_per_s()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run.one_pass(tracer)
        finally:
            tracer.uninstall()
        traced = n / sum(run.op_times(last_only=True))
        stats = tracer.stats()
        stats.update({"trace.untraced_ops_per_s": untraced,
                      "trace.traced_ops_per_s": traced,
                      "trace.overhead_ops_per_s": traced - untraced})
        metrics.update({name: (stats.get(name, 0), unit)
                        for name, unit, _ in tracing.metric_names()})

    failed, problems = check(run, workload)
    decided, rings = workload.decided(ops, run.first)
    if args.trace == 0:
        metrics.update(ok_frac=((n - len(failed)) / n, "frac"),
                       decided_frac=(decided / rings, "frac"))
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    refusals = sum(isinstance(run.first[k], Exception)
                   and workload.known_refusal(run.first[k]) for k in failed)
    result = {
        "correct": not problems,
        # an op is one seeded input; its repeats re-time it and must
        # reproduce its first output, so each op counts once and the
        # counts depend on the seed alone, not on how many passes fit
        "attempted": n,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "info": {
            "ops": n,
            "passes": min(len(r) for r in run.raw),
            "unscaled_ops_per_s": unscaled,
            "ref_median_s": statistics.median(run.refs),
            "timed_repeats": sum(len(r) for r in run.raw),
            "known_refusals": refusals,
            "failed_frac": len(failed) / n,
            "rings_decided": f"{decided}/{rings}",
            "numpy": numpy.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
