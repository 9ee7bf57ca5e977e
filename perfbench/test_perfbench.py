"""Tests of the benchmark itself (not collected by the repository suite).

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DUMP = (
    "import hashlib, json, sys\n"
    "import workloads\n"
    "ops, files = workloads.generate(sys.argv[1], int(sys.argv[2]), 2)\n"
    "h = hashlib.sha256(workloads.dump(ops))\n"
    "for name in sorted(files):\n"
    "    h.update(name.encode() + files[name].encode())\n"
    "print(h.hexdigest(), len(files))\n"
)


def _generate_digest(workload, seed, hashseed):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               PYTHONPATH=os.pathsep.join([str(HERE), str(HERE.parent / "src")]))
    out = subprocess.run([sys.executable, "-c", DUMP, workload, str(seed)],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=60)
    return out.stdout.split()


def test_same_seed_gives_identical_inputs_across_processes():
    for workload in workloads.WORKLOADS:
        first = _generate_digest(workload, 5, hashseed=1)
        second = _generate_digest(workload, 5, hashseed=2)
        assert first == second, workload
    # audit writes one family file per transform op
    assert int(first[1]) == 2 * (1 + workloads.RANDOM_FAMILIES_PER_ROUND)


def test_other_seed_gives_other_points_and_maps():
    for workload in workloads.WORKLOADS:
        ops5, _ = workloads.generate(workload, 5, 2)
        ops6, _ = workloads.generate(workload, 6, 2)
        assert workloads.dump(ops5) != workloads.dump(ops6), workload
    seeds = {tuple(op["argv"]) for rnd in workloads.generate("census", 5, 1)[0]
             for op in rnd}
    assert seeds.isdisjoint({tuple(op["argv"]) for rnd in
                             workloads.generate("census", 6, 1)[0] for op in rnd})
    maps5 = [(op["F"], op["G"]) for op in workloads.generate("audit", 5, 1)[0][0]
             if op["kind"] == "different"]
    maps6 = [(op["F"], op["G"]) for op in workloads.generate("audit", 6, 1)[0][0]
             if op["kind"] == "different"]
    assert maps5 != maps6


def _record(op):
    from ramcount.cli import run_argv
    code, output = run_argv(op["argv"])
    return {"error": None, "code": code, "output": output}


def _summary(ops, records):
    verdicts = checks.check_run(ops, records)
    result = {"ops": [{"failure": v, "latency": 0.1} for v in verdicts],
              "op_time_s": 0.1 * len(ops), "peak_rss_mb": 1.0,
              "machine_s": run.MACHINE_REF_S}
    correct, attempted, failed = run.summarize([result])
    metrics, _ = run.end_to_end(result, 0.1, "census")
    return correct, attempted, failed, metrics["ok_ratio"][0]


def _census_op():
    op = {"id": "r0.0", "kind": "search", "orders": [1, 2, 2, 3], "p": 17, "k": 1,
          "argv": ["search", "--p", "17", "--k", "1", "--orders", "1,2,2,3",
                   "--seed", "3", "--budget", "10000000"]}
    return op, _record(op)


def test_correct_census_answer_passes():
    op, rec = _census_op()
    assert _summary([op], [rec]) == (True, 1, 0, 1.0)


def test_corrupted_census_count_is_counted_as_failed():
    op, rec = _census_op()
    good = copy.deepcopy(rec)
    bad = copy.deepcopy(rec)
    payload = json.loads(bad["output"])
    payload["separable"] += 1
    bad["output"] = json.dumps(payload)
    ops = [op, dict(op, id="r0.1")]
    correct, attempted, failed, ok_ratio = _summary(ops, [good, bad])
    assert not correct
    assert (attempted, failed) == (2, 1)
    assert ok_ratio == 0.5


def test_corrupted_count_fails_the_pieri_cross_check():
    op = {"id": "r0.0", "kind": "count", "orders": [2] * 10 + [3, 3], "p": "inf",
          "check": "schubert",
          "argv": ["count", "--p", "inf", "--orders", ",".join(["2"] * 10 + ["3", "3"])]}
    rec = _record(op)
    assert checks.check_op(op, rec) is None
    payload = json.loads(rec["output"])
    payload["count"] += 1
    rec["output"] = json.dumps(payload)
    assert checks.check_op(op, rec) is not None


def test_answer_differing_from_golden_fails():
    op, rec = _census_op()
    want = checks.digest(checks.canonical_answer(op, rec))
    assert checks.check_run([op], [rec], {"r0.0": want}) == [None]
    assert checks.check_run([op], [rec], {"r0.0": "0" * 20}) != [None]


def test_tail_percentile_keeps_ten_ops_beyond():
    for n in (11, 27, 98, 1400):
        pct, value, beyond = run.tail_latency([float(i) for i in range(n)])
        assert beyond >= 10
        assert value == float(n - beyond - 1)
