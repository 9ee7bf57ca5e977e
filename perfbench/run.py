"""The ramcount benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census|formulas|audit \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a ramcount checkout; the program is imported from
its ``src`` directory.  The command generates the workload's ops from the
seed, runs them in a fresh interpreter as a closed loop with one client
(one op at a time, no threads), checks every answer, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A run is a fixed number of rounds, sized from --seconds by the round
durations in workloads.ROUND_SECONDS, so one seed gives the same ops on
every commit.  The formulas and audit timings are scaled to a reference
machine speed measured by a calibration loop (see MACHINE_REF_S).  With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the run is made twice, untraced and then traced over
the same rounds, and the metrics are the per-layer ones.  The line before
it records the machine, the versions, the op counts and the percentile
that ``op_tail_s`` used.

Workloads (why each was chosen is in BENCHMARK.json):
  census    ``search`` on the criterion-8 profiles at seeded general points
  formulas  deep ``count`` profiles, ``schubert`` at d up to 450, ``table``
  audit     ``different_divisor`` on seeded tame maps over F_7, F_11, F_13,
            ``transform --analyze`` on seeded families, ``solve3``
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from tracing import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # audit inputs are built with ramcount
GOLDEN = HERE / "golden_seed0.json"

RUN_LIMIT_S = 170
# worker.machine_seconds() on the 2-core machine that defined the benchmark.
# The host's speed for interpreted Python drifts by 10-40 % over tens of
# seconds, which swamps the spread between runs.  So the timings of the
# workloads in workloads.CALIBRATED are reported at the reference speed:
# scaled by MACHINE_REF_S over the median of the calibrations the worker
# interleaves with its ops.
MACHINE_REF_S = 0.010
SETUP_SAMPLES = 9
IMPORT_SNIPPET = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import ramcount.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "print(elapsed, ramcount.cli.__file__)\n"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("RAMCOUNT_BUDGET", None)
    return env


def _check_checkout():
    if not (SRC / "ramcount" / "__init__.py").is_file():
        raise SystemExit(f"error: no ramcount sources under {SRC}")


def _in_src(path):
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def measure_setup(deadline):
    """Median over fresh interpreters of the time to import ramcount.cli."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET], env=_env(), cwd=ROOT,
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()))
        elapsed, where = out.stdout.split(maxsplit=1)
        if not _in_src(where.strip()):
            raise SystemExit(f"error: ramcount.cli imported from {where.strip()}")
        samples.append(float(elapsed))
    return statistics.median(samples)


def write_inputs(workdir, workload, seed, rounds):
    """Generate the op list and family files into workdir."""
    ops, files = workloads.generate(workload, seed, rounds)
    (workdir / "ops.json").write_bytes(workloads.dump(ops))
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def run_worker(workdir, deadline, trace=False, rounds=None, time_limit=None,
               golden=None):
    out = workdir / ("trace.json" if trace else "result.json")
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--ops", "ops.json", "--out", out.name, "--trace", "1" if trace else "0"]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    if time_limit is not None:
        cmd += ["--time-limit", str(time_limit)]
    if golden is not None:
        (workdir / "golden.json").write_text(json.dumps(golden), encoding="utf-8")
        cmd += ["--golden", "golden.json"]
    subprocess.run(cmd, env=_env(), cwd=workdir, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def tail_latency(latencies):
    """(percentile, value, ops beyond): the highest whole percentile with at
    least 10 ops above its nearest-rank value."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= 10:
        return 100, ordered[-1], 0
    pct = min(99, (100 * (n - 10)) // n)
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1], n - rank


def speed(result, workload):
    """Factor that scales a worker's timings to the reference speed."""
    if workload not in workloads.CALIBRATED:
        return 1.0
    return MACHINE_REF_S / result["machine_s"]


def end_to_end(result, setup_s, workload):
    ops = result["ops"]
    scale = speed(result, workload)
    latencies = [op["latency"] * scale for op in ops]
    passed = sum(1 for op in ops if op["failure"] is None)
    pct, tail, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (passed / (result["op_time_s"] * scale), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": (passed / len(ops), "ratio"),
    }
    return metrics, {"op_tail_percentile": pct, "op_tail_ops_beyond": beyond}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(traced, untraced, workload):
    times = self_times(traced["spans"])
    counts = traced["counts"]
    scale = speed(traced, workload)

    def calls(name):
        return times.get(name, (0, 0.0))[0]

    def self_s(name):
        return times.get(name, (0, 0.0))[1] * scale

    census_ops = [op for op in untraced["ops"] if op["kind"] == "search"]
    different = [op for op in traced["ops"] if op["kind"] == "different"]
    screened = counts.get("pencil.pencils_screened", 0)
    survivors = counts.get("pencil.survivors", 0)
    m = {
        "cli.self_s": (self_s("cli"), "s"),
        "pencil.census.self_s": (self_s("pencil.census"), "s"),
        "pencil.pencils_screened": (screened, "count"),
        "pencil.filter_pencils_per_s": (_ratio(screened, self_s("pencil.census")), "1/s"),
        "pencil.survivor_ratio": (_ratio(survivors, screened), "ratio"),
        "pencil.witness_ratio": (_ratio(counts.get("pencil.separable", 0), survivors), "ratio"),
        "pencil.solve3.self_s": (self_s("pencil.solve3"), "s"),
        "pencils_per_s": (_ratio(sum(op["pencils"] for op in census_ops),
                                 sum(op["latency"] for op in census_ops)
                                 * speed(untraced, workload)), "1/s"),
    }
    for layer in ("algebra.splitting_roots", "algebra.roots", "algebra.gcd",
                  "algebra.rref", "ratmap.different", "ratmap.ram_index",
                  "counting.n_gen", "schubert.intersection",
                  "degeneration.analyze"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    for name in ("ratmap.new", "ratmap.is_separable", "degeneration.tame_reduce"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("algebra.roots.candidates", "algebra.root_budget_refusals",
                 "counting.orders_total", "schubert.pieri_steps",
                 "schubert.pieri_terms", "degeneration.transform_steps"):
        m[name] = (counts.get(name, 0), "count")
    answered = sum(1 for op in different if not op["refused"])
    m["ratmap.answered_ratio"] = (_ratio(answered, len(different)), "ratio")
    m["trace.overhead_s"] = (traced["op_time_s"] * scale
                             - untraced["op_time_s"] * speed(untraced, workload), "s")
    return m


def summarize(runs):
    """(correct, attempted, failed) over worker results; attempted and
    failed count the last run, which is the traced one under --trace 1."""
    ops = runs[-1]["ops"]
    failed = sum(1 for op in ops if op["failure"] is not None)
    correct = bool(ops) and all(op["failure"] is None
                                for run in runs for op in run["ops"])
    return correct, len(ops), failed


def _git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work
    tree of its own."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "ramcount").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    deadline = time.monotonic() + RUN_LIMIT_S
    _check_checkout()

    golden = None
    if args.seed == 0 and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[args.workload]
    rounds = workloads.rounds_for(args.workload, args.seconds)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        write_inputs(workdir, args.workload, args.seed, rounds)
        setup_s = None if args.trace else measure_setup(deadline)
        result = run_worker(workdir, deadline, time_limit=2 * args.seconds,
                            golden=golden)
        traced = None
        if args.trace:
            traced = run_worker(workdir, deadline, trace=True,
                                rounds=result["rounds"], golden=golden)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise SystemExit(f"error: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = [result] + ([traced] if traced else [])
    correct, attempted, failed = summarize(runs)
    failures = [op for run in runs for op in run["ops"] if op["failure"]]
    if args.trace:
        metrics, tail_info = per_layer(traced, result, args.workload), {}
    else:
        metrics, tail_info = end_to_end(result, setup_s, args.workload)
    kinds = {}
    for op in result["ops"]:
        kinds[op["kind"]] = kinds.get(op["kind"], 0) + 1
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": result["numpy"],
        "git_commit": _git_commit(), "source_digest": _source_digest(),
        "rounds": result["rounds"], "rounds_cut": result["rounds_cut"],
        "ops_by_kind": kinds, "failed_ratio": failed / attempted,
        "golden_checked": golden is not None, **tail_info,
        "machine_s": result["machine_s"],
        "speed_factor": speed(result, args.workload),
        "unscaled_op_time_s": result["op_time_s"],
        "first_failures": [[op["id"], op["failure"]] for op in failures[:5]],
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
