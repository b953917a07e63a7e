"""Benchmark command for ftk.

    python3 benchmark/run.py --workload {classify,census,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts fresh single-threaded
worker processes one after another (benchmark/worker.py), each of which
sets up, runs whole passes over the workload's fixed list for its share
of --seconds and checks every output.  Times are scaled to the reference
speed of the host probe in calib.py.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  See
benchmark/README.md for the workloads, the statistics and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DEADLINE = time.perf_counter() + 170  # for all workers of a run together
MIN_OPS = 100  # every run completes this many operations, so p90 has ten behind it

sys.path.insert(0, HERE)
import calib  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def spawn(workload: str, seed: int, min_passes: int, budget: float, trace: int,
          out: str = "") -> dict:
    """Run one worker to completion and return its JSON record."""
    env = {k: v for k, v in os.environ.items() if k != "FTK_THREADS"}
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--min-passes", str(min_passes), "--budget", repr(budget),
           "--trace", str(trace),
           "--src", SRC, "--out", out]
    started = time.perf_counter()
    proc = subprocess.run(cmd + ["--started", repr(started)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=DEADLINE - started)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def min_passes(wl) -> int:
    """Passes each worker runs at least, so that a run has MIN_OPS operations."""
    return math.ceil(MIN_OPS / (len(wl.ops) * wl.processes))


def op_latencies(records) -> list:
    """Each list position's latency: the median of its repeats, in seconds."""
    rows = [row for rec in records for row in rec["latencies"]]
    cols = ([t for t in col if t is not None] for col in zip(*rows))
    return [statistics.median(col) for col in cols if col]


def scaled(records) -> list:
    """The records with every operation's time scaled to the probe's
    reference speed: t * REF_S / (the median probe piece during and around it)."""
    out = []
    for rec in records:
        rows = [[None if t is None else t * calib.REF_S / calib.level(pieces)
                 for t, pieces in zip(row, probe_row)]
                for row, probe_row in zip(rec["latencies"], rec["probes"])]
        out.append({**rec, "latencies": rows,
                    "setup_s": rec["setup_s"] * calib.REF_S / calib.level(rec["setup_probe"])})
    return out


def end_to_end(records) -> dict:
    records = scaled(records)
    lat = op_latencies(records)
    ms = sorted(1e3 * t for t in lat)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": deciles[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


PER_LAYER_UNITS = {
    "fields.tables_s": "s", "fields.mul.calls": "count", "fields.inv.calls": "count",
    "fields.pow.calls": "count", "fields.mul_ns.q5": "ns", "fields.mul_ns.q256": "ns",
    "fields.inv_ns.q256": "ns", "series.mul.calls": "count", "series.mul.terms": "count",
    "series.mul.self_s": "s", "series.invert.calls": "count", "series.newton_steps": "count",
    "series.nth_root_unit.s": "s", "series.scale_substitute.calls": "count",
    "series.scale_substitute.self_s": "s", "series.solve_positive.self_s": "s",
    "series.add.calls": "count", "series.add.self_s": "s", "series.window_mean": "coeffs",
    "parse.calls": "count", "parse.self_ms": "ms", "artin_schreier.canonicalize.calls": "count",
    "artin_schreier.self_s": "s", "kummer.canonicalize.s": "s", "kummer.iso_witness.s": "s",
    "semidirect.candidates": "count", "semidirect.classes": "count", "semidirect.yield": "ratio",
    "semidirect.self_s": "s", "semidirect.vn_check.calls": "count", "oracles.s": "s",
    "oracles.self_s": "s", "oracles.series_calls": "count", "groupoids.s": "s",
    "cli.self_ms": "ms", "parallel.items": "count", "parallel.self_s": "s",
    "trace.overhead": "ratio",
}


def per_layer(record: dict) -> dict:
    """Per-pass layer totals from the traced passes; the overhead compares
    their scaled per-position latencies with the same worker's untraced
    passes."""
    values = dict(record["layers"])
    values.update(record["micro"])
    values["fields.tables_s"] = record["tables_s"]
    traced = {**record, "latencies": record["traced"], "probes": record["traced_probes"]}
    values["trace.overhead"] = (sum(op_latencies(scaled([traced])))
                                / sum(op_latencies(scaled([record]))))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ftk", "__init__.py")):
        print(f"no ftk sources under {SRC}: run from the root of an ftk checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "ftk"), quiet=1)

    sys.path.insert(0, SRC)
    import ftk

    wl = workloads.WORKLOADS[args.workload](ftk, args.seed)
    if args.trace:
        passes = 2 * max(1, round(args.seconds / wl.pass_s / 4))
        os.makedirs(OUT, exist_ok=True)
        record = spawn(args.workload, args.seed, passes, 0, 1,
                       os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv.gz"))
        records = [{**record, "latencies": record["latencies"] + record["traced"]}]
        metrics = per_layer(record)
    else:
        budget = args.seconds / wl.processes
        records = [spawn(args.workload, args.seed, min_passes(wl), budget, 0)
                   for _ in range(wl.processes)]
        metrics = end_to_end(records)

    attempted = sum(len(row) for r in records for row in r["latencies"])
    failed = sum(r["failed"] for r in records)
    wrong = [w for r in records for w in r["wrong"]]
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
