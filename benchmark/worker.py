"""One worker process of a benchmark run (started by run.py).

Set-up runs from process start to the first timed operation: import ftk,
build the benchmark's own fields and the inputs, build ftk's field tables
for every field the workload uses, and run one untimed warm-up of each
operation kind.  Then the worker runs whole passes over the fixed list,
timing each operation's ftk calls, probing the host's speed during and
after each operation (calib.py) and checking each result outside the
timed region.
It starts another pass while its time budget allows one and always runs
at least --min-passes.  It prints one JSON line with everything it
measured.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--min-passes", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True, help="seconds of passes")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--started", type=float, required=True, help="perf_counter at spawn")
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    sys.path[:0] = [args.src, HERE]
    import calib

    # an untraced worker probes the host's speed during set-up and every
    # operation; a traced one only between operations, so its spans hold
    # no probe
    sampler = None if args.trace else calib.Sampler()
    if sampler:
        sampler.start()
    import ftk
    import ftk.cli
    import ftk.oracles

    import workloads

    wl = workloads.WORKLOADS[args.workload](ftk, args.seed)
    t_tables = time.perf_counter()
    for p, e in wl.fields:
        ftk.field(p, e).generator  # builds the field's cached tables
    tables_s = time.perf_counter() - t_tables
    for op in wl.warmup:
        op.check(op.run())
    setup_s = time.perf_counter() - args.started
    inside, spent = sampler.stop() if sampler else ([], 0.0)
    probe = calib.block()

    result = {"setup_s": setup_s - spent, "setup_probe": inside + probe}
    tracer = None
    if args.trace:
        import ftk.parallel  # imported lazily by ftk; patched like the rest
        import spans

        result["micro"] = field_microbench(ftk)
        result["tables_s"] = tables_s
        tracer = spans.Tracer()

    latencies, probes, traced, traced_probes, failed, wrong, per_pass = [], [], [], [], 0, [], []
    started, i = time.perf_counter(), 0
    # another pass while the mean pass so far still fits in the budget
    while i < max(1, args.min_passes) or (time.perf_counter() - started) * (i + 1) / i <= args.budget:
        # a traced worker alternates untraced and traced passes, so both
        # see the same phases of the host
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.install()
            mark = tracer.mark()
        row, probe_row = [], []
        for op in wl.ops:
            if sampler:
                sampler.start()
            t0 = time.perf_counter()
            try:
                out = op.run()
                row.append(time.perf_counter() - t0)
            except Exception:
                row.append(None)
                failed += 1
                print(f"{op.label}: failed\n{traceback.format_exc()}", file=sys.stderr)
            inside, spent = sampler.stop() if sampler else ([], 0.0)
            if row[-1] is not None:
                row[-1] -= spent
            # the probe pieces before (the last block), during and after the operation
            after = calib.block()
            probe_row.append(probe + inside + after)
            probe = after
            if row[-1] is None:
                continue
            try:
                op.check(out)
            except Exception as exc:  # a malformed output is a wrong answer too
                wrong.append(f"{op.label}: {type(exc).__name__}: {exc}")
        (traced if tracing else latencies).append(row)
        (traced_probes if tracing else probes).append(probe_row)
        if tracing:
            per_pass.append(tracer.layer_metrics(mark, tracer.mark()))
            tracer.uninstall()
        i += 1
    result.update(latencies=latencies, probes=probes, failed=failed, wrong=wrong,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer:
        result.update(traced=traced, traced_probes=traced_probes)
        result["layers"] = spans.median_metrics(per_pass)
        if args.out:
            tracer.dump(args.out)
    for msg in wrong[:20]:
        print(f"wrong answer: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def field_microbench(ftk) -> dict:
    """ns per FqElem multiplication (F_5, F_256) and inversion (F_256):
    the best of five timed loops over fixed operands."""

    def best(fn, reps):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn(reps)
            times.append((time.perf_counter() - t0) / reps * 1e9)
        return min(times)

    def mul_loop(spec):
        xs = [spec.from_index(1 + (7 * i) % (spec.q - 1)) for i in range(64)]
        ys = xs[1:] + xs[:1]

        def run(reps):
            for i in range(reps):
                xs[i & 63] * ys[i & 63]

        return run

    f256 = ftk.field(2, 8)
    inv_xs = [f256.from_index(1 + (37 * i) % 255) for i in range(64)]

    def inv_loop(reps):
        for i in range(reps):
            inv_xs[i & 63].inverse()

    return {
        "fields.mul_ns.q5": best(mul_loop(ftk.field(5)), 20000),
        "fields.mul_ns.q256": best(mul_loop(f256), 3000),
        "fields.inv_ns.q256": best(inv_loop, 200),
    }


if __name__ == "__main__":
    sys.exit(main())
