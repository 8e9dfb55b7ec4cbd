"""One benchmark process: set up one workload, then time passes over it.

Started by run.py, which times the set-up: the worker prints ``ready``
once the interpreter is up, the program and mpmath are imported and the
operations are built, then reads one command from stdin.  ``exit`` ends a
set-up probe; ``run`` times whole passes for the given seconds, checks the
first pass's outputs, compares every later pass with it, and prints one
JSON line of raw results.  With ``--trace 1`` every operation runs twice
in a row, untraced and traced, and the spans are written to ``--spans``
at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

import calibrate


def timed_call(op, before):
    """Run one operation; return its output, its seconds, its reference
    seconds (see calibrate.py) and the calibration chunk timed after it."""
    t0 = time.perf_counter()
    out = op.run()
    took = time.perf_counter() - t0
    after = calibrate.chunk_seconds()
    return out, took, took * calibrate.REFERENCE_S * 2 / (before + after), after


def typical_pass(op_seconds):
    """One pass's time as the sum of each operation's median over passes.

    Slow spells of the machine hit a few operations of a pass, not the
    same ones in every pass, so per-operation medians shed them where the
    median of whole passes keeps part of them."""
    return sum(statistics.median(per_op) for per_op in zip(*op_seconds))


class Passes:
    """Whole passes over `ops` until the next one would overrun `budget`
    seconds; every pass must reproduce the first pass's outputs.

    With a tracer, each operation runs twice in a row, untraced and
    traced, so that the two timings of a pair see the same machine speed
    and their difference is the tracing overhead."""

    def __init__(self, ops, budget, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.seconds, self.op_ref = [], []  # untraced, per pass (per op)
        self.traced_seconds, self.traced_op_ref = [], []
        self.span_ranges = []  # traced spans of each pass
        self.attempted = self.failed = 0
        self.mismatched = set()
        self.reference = None
        self.first_pass_rss_mb = None
        start = time.perf_counter()
        while True:
            gc.collect()
            self._one_pass()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(self.seconds) > budget:
                break

    def _one_pass(self):
        tracer = self.tracer
        outputs, seconds, ref = [], [], []
        traced_seconds, traced_ref = [], []
        first = tracer.span_count if tracer else 0
        before = calibrate.chunk_seconds()
        for i, op in enumerate(self.ops):
            # The second call of a pair finds warmer caches, so which call
            # goes first alternates from one operation and pass to the next.
            order = (False, True) if (i + len(self.seconds)) % 2 == 0 else (True, False)
            calls = {}
            for traced in order if tracer else (False,):
                if traced:
                    tracer.enable()
                calls[traced] = timed_call(op, before)
                if traced:
                    tracer.disable()
                before = calls[traced][3]
            out, took, ref_took, _ = calls[False]
            self._count(op, out, self.reference[i] if self.reference else None)
            outputs.append(out)
            seconds.append(took)
            ref.append(ref_took)
            if tracer:
                traced_out, took, ref_took, _ = calls[True]
                self._count(op, traced_out, out)
                traced_seconds.append(took)
                traced_ref.append(ref_took)
        if self.reference is None:
            self.reference = outputs
            self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.seconds.append(sum(seconds))
        self.op_ref.append(ref)
        if tracer:
            self.traced_seconds.append(sum(traced_seconds))
            self.traced_op_ref.append(traced_ref)
            self.span_ranges.append((first, tracer.span_count))

    def _count(self, op, out, expected):
        self.attempted += 1
        self.failed += bool(op.failed(out))
        if expected is not None and out != expected:
            self.mismatched.add(op.label)

    @property
    def typical_ref_s(self) -> float:
        return typical_pass(self.op_ref)


def layer_metrics(tracer, passes: Passes, spans_path) -> dict:
    """The per-layer metrics of the traced calls, median over passes."""
    import layertrace

    layers, unattributed = [], []
    for (first, last), wall in zip(passes.span_ranges, passes.traced_seconds):
        per_function = tracer.aggregate(first, last)
        layers.append(layertrace.layer_metrics(per_function))
        unattributed.append(wall - sum(v["self_s"] for v in per_function.values()))
    metrics = {k: statistics.median_low(p[k] for p in layers) for k in layers[0]}
    metrics["trace.overhead_s"] = typical_pass(passes.traced_op_ref) - passes.typical_ref_s
    metrics["trace.unattributed_s"] = statistics.median(unattributed)
    if spans_path:
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import aurifeuille  # imports mpmath too

    if Path(aurifeuille.__file__).resolve().parent != src / "aurifeuille":
        print(f"error: aurifeuille imported from {aurifeuille.__file__}", file=sys.stderr)
        return 2
    import workloads

    ops = workloads.build(args.workload, args.seed)
    proto = sys.stdout
    proto.write("ready\n")
    proto.flush()
    if sys.stdin.readline().strip() != "run":
        return 0

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
        tracer.disable()
    passes = Passes(ops, args.seconds, tracer)
    result = {
        "labels": [op.label for op in ops],
        "pass_s": passes.seconds,
        "op_ref_s": passes.op_ref,
        "wall_ref_s": passes.typical_ref_s,
        "peak_rss_mb": passes.first_pass_rss_mb,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, passes, args.spans)
        result["traced_pass_s"] = passes.traced_seconds

    problems = [f"{label}: output differs between passes" for label in sorted(passes.mismatched)]
    for op, out in zip(ops, passes.reference):
        problems += op.check(out, random.Random(f"{args.seed}/{op.label}"))
    result.update(
        attempted=passes.attempted,
        failed=passes.failed,
        failed_ops=sorted(op.label for op, out in zip(ops, passes.reference) if op.failed(out)),
        problems=problems,
    )
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
