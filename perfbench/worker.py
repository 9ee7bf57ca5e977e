"""One run of one workload in a fresh interpreter: a closed loop with one
client, one op at a time.

Usage (started by run.py, with cwd set to the run's work directory):
    python3 worker.py --src SRC --ops ops.json --out result.json \
        [--rounds R] [--time-limit T] [--trace 1] [--golden FILE]

Runs every round of ops.json, or the first R.  With --time-limit no round
starts once the op time summed so far reaches T seconds, which keeps a run
on a slow machine within its limit.  Each op is timed alone; building a
``different`` op's input map is not timed.  Every half second of op time,
between ops, the worker times a fixed calibration loop.  Answers are
checked after the loop, so the checks neither touch the timed region nor
warm the program's caches before an op.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy
import ramcount
from ramcount.algebra import Poly, finite_field
from ramcount.cli import run_argv
from ramcount.pencil import gaussian_binomial_pencils
from ramcount.ratmap import RatMap

from checks import REFUSED, canonical_answer, check_run, digest
from tracing import Tracer, install


CALIBRATE_EVERY_S = 0.5


def machine_seconds():
    """Seconds this machine takes right now for a fixed pure-Python loop.
    The loop touches no ramcount code, so a change to the program cannot
    move it; only the machine's own speed does."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


def _prepare(op):
    """The input map of a ``different`` op, as a RatMap."""
    field = finite_field(op["p"])
    rmap, base = RatMap.new(Poly(field, op["F"]), Poly(field, op["G"]))
    if base.total:
        raise ValueError("generated pair is not coprime")
    return rmap


def _run_op(op, rmap, tracer):
    rec = {"error": None}
    if tracer is not None:
        tracer.op_id = op["id"]
    if op["kind"] == "different":
        call = ramcount.different_divisor
        if tracer is not None:
            call = tracer.span("ratmap.different", call)
        rec["map"] = rmap
        start = time.perf_counter()
        try:
            rec["answer"] = call(rmap, root_budget=op["budget"])
        except ramcount.BudgetExceeded:
            rec["answer"] = REFUSED  # a typed refusal under an explicit budget
        except Exception as exc:  # recorded as a failed op; the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["latency"] = time.perf_counter() - start
        return rec
    call = run_argv if tracer is None else tracer.span("cli", run_argv)
    start = time.perf_counter()
    try:
        rec["code"], rec["output"] = call(op["argv"])
    except Exception as exc:  # recorded as a failed op; the run goes on
        rec["error"] = f"{type(exc).__name__}: {exc}"
    rec["latency"] = time.perf_counter() - start
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--ops", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--time-limit", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--golden", default=None)
    args = ap.parse_args(argv)

    where = os.path.realpath(ramcount.__file__)
    if not where.startswith(os.path.realpath(args.src) + os.sep):
        raise SystemExit(f"ramcount imported from {where}, not from {args.src}")

    with open(args.ops, encoding="utf-8") as handle:
        rounds = json.load(handle)[:args.rounds]

    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)

    ops, records = [], []
    op_time = 0.0
    rounds_done = 0
    calibrations = [machine_seconds()]
    calibrated_at = 0.0
    for round_ops in rounds:
        if args.time_limit is not None and op_time >= args.time_limit:
            break
        for op in round_ops:
            if op_time - calibrated_at >= CALIBRATE_EVERY_S:
                calibrations.append(machine_seconds())
                calibrated_at = op_time
            rmap = _prepare(op) if op["kind"] == "different" else None
            if tracer is not None:
                tracer.enabled = True
            rec = _run_op(op, rmap, tracer)
            if tracer is not None:
                tracer.enabled = False
            ops.append(op)
            records.append(rec)
            op_time += rec["latency"]
        rounds_done += 1
    calibrations.append(machine_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    golden = None
    if args.golden:
        with open(args.golden, encoding="utf-8") as handle:
            golden = json.load(handle)
    verdicts = check_run(ops, records, golden)

    result = {
        "rounds": rounds_done,
        "rounds_cut": rounds_done < len(rounds),
        "op_time_s": op_time,
        "machine_s": statistics.median(calibrations),
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
        "ops": [{"id": op["id"], "kind": op["kind"],
                 "latency": rec["latency"], "failure": verdict,
                 "refused": rec.get("answer") == REFUSED,
                 "digest": None if rec["error"] else digest(canonical_answer(op, rec)),
                 "pencils": _pencils(op)}
                for op, rec, verdict in zip(ops, records, verdicts)],
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _pencils(op):
    if op["kind"] != "search":
        return 0
    d = 1 + sum(e - 1 for e in op["orders"]) // 2
    return gaussian_binomial_pencils(d, op["p"] ** op["k"])


if __name__ == "__main__":
    sys.exit(main())
