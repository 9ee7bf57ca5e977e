"""Correctness checks on op answers, from the paper's cross-checks.

Every check holds for any seed.  ``check_op`` judges one op from its
recorded answer; ``check_run`` adds the checks that need every answer of a
run (census genericity and, for the default seed, the answers recorded at
the seed commit).  The checks call into ramcount themselves, so the worker
runs them only after the timed loop, with tracing off.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter
from math import comb

REFUSED = "refused"


def _p_value(p):
    from ramcount.counting import INFINITY
    return INFINITY if p == "inf" else p


def canonical_answer(op, rec):
    """The text an op's answer is compared by: CLI stdout, or for
    ``different`` the sorted divisor (point field order, point, multiplicity)
    or the refusal."""
    if op["kind"] != "different":
        return rec["output"]
    answer = rec["answer"]
    if answer == REFUSED:
        return REFUSED
    items = sorted((pt.field.q, -1 if pt.is_infinity else pt.i, m)
                   for pt, m in answer.items())
    return json.dumps(items, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _check_search(op, out):
    from ramcount.counting import n_gen
    total, sep, insep = out["total"], out["separable"], out["inseparable"]
    if total != sep + insep:
        return f"total {total} != separable {sep} + inseparable {insep}"
    expected = n_gen(op["orders"], op["p"]).value
    if not 0 <= sep <= expected:
        # at most n_gen solutions of the geometric problem are F_q-rational
        return f"separable {sep} outside [0, n_gen = {expected}]"
    if len(out["witnesses"]) != sep:
        return "witness list does not match the separable count"
    return None


def _check_count(op, out):
    from ramcount.counting import n_four_closed
    from ramcount.schubert import intersection_number
    orders = op["orders"]
    count = out["count"]
    if not isinstance(count, int) or count < 0:
        return f"count {count!r} is not a non-negative integer"
    if op["check"] == "schubert":
        # HIGH range (p = inf or p > d): the recursion equals Pieri
        pieri = intersection_number(out["d"], orders)
        if count != pieri:
            return f"count {count} != intersection number {pieri}"
    elif op["check"] == "mid":
        pieri = intersection_number(out["d"], orders)
        if out["class"] != "MID" or count > pieri:
            return f"MID count {count} ({out['class']}) exceeds Pieri {pieri}"
    elif op["check"] == "closed4":
        closed = n_four_closed(*orders, _p_value(op["p"])).value
        if count != closed:
            return f"count {count} != four-point closed form {closed}"
    return None


def _check_schubert(op, out):
    d = op["d"]
    catalan = comb(2 * d - 2, d - 1) // d  # all simple points (Goldberg)
    if out["count"] != catalan:
        return f"schubert {out['count']} != Catalan number {catalan}"
    return None


def _check_table(op, text):
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return "empty table"
    bad = [r["orders"] + "@" + r["p"] for r in rows if r["match"] == "false"]
    if bad:
        return f"rows with match=false: {bad[:3]}"
    return None


def _check_solve3(op, out):
    # count 1 iff p > d; then the pencil is unique and separable.  For
    # p <= d the solution space may be positive-dimensional, e.g. P^1 for
    # orders (5, 6, 6) at p = 7.
    expected = 1 if op["p"] > op["d"] else 0
    if out["count"] != expected or (expected and out["m"] != 0) \
            or (out["m"] == 0 and out["separable"] != bool(expected)):
        return (f"three-point law: m={out['m']} count={out['count']} "
                f"separable={out['separable']}, expected count {expected}")
    return None


def _check_transform(op, out):
    m, e_inf = out["m"], out["e_infinity"]
    if out["hypotheses_ok"]:
        if e_inf != 2 * m - 1 or not op["p"] <= m <= op["d"]:
            return f"limit law: e_inf={e_inf}, m={m}, p={op['p']}, d={op['d']}"
    if op["family"] == "toy" and (m, e_inf, out["b"]) != (3, 5, 0):
        return f"quartet toy limit (m, e_inf, b) = {(m, e_inf, out['b'])}"
    return None


def _check_different(op, rec):
    from ramcount.ratmap import ram_index
    answer = rec["answer"]
    if answer == REFUSED:
        return None
    f = rec["map"]
    if answer.total != 2 * op["d"] - 2:
        return f"different total {answer.total} != 2d-2 = {2 * op['d'] - 2}"
    for pt, mult in answer.items():
        lifted = f if pt.field == f.field else f.lift(pt.field)
        e = ram_index(lifted, pt)
        if mult != e - 1:
            return f"multiplicity {mult} at {pt} != ram_index - 1 = {e - 1}"
    return None


_JSON_CHECKS = {
    "search": _check_search,
    "count": _check_count,
    "schubert": _check_schubert,
    "solve3": _check_solve3,
    "transform": _check_transform,
}


def check_op(op, rec):
    """None when the op passed, else the reason it failed."""
    if rec.get("error"):
        return rec["error"]
    kind = op["kind"]
    if kind == "different":
        return _check_different(op, rec)
    if rec["code"] != 0:
        return f"exit code {rec['code']}: {rec['output'].strip()[:200]}"
    if kind == "table":
        return _check_table(op, rec["output"])
    return _JSON_CHECKS[kind](op, json.loads(rec["output"]))


def census_genericity(ops, records):
    """Criterion 8 on a run's census ops: for profiles whose general census
    count is one, the modal separable count over the run's seeds must equal
    n_gen.  Returns {profile: reason} for the profiles that fail.

    A count of one is Galois-fixed, hence F_q-rational at general points.
    Profiles with n_gen = 2 are left out: their two solutions are conjugate
    over F_{q^2} for a large share of point sets, so their mode can be 0.
    """
    from ramcount.counting import n_gen
    seen = {}
    for op, rec in zip(ops, records):
        if op["kind"] != "search" or rec.get("error") or rec["code"] != 0:
            continue
        key = (tuple(op["orders"]), op["p"], op["k"])
        seen.setdefault(key, Counter())[json.loads(rec["output"])["separable"]] += 1
    failures = {}
    for key, counts in seen.items():
        orders, p, _ = key
        expected = n_gen(orders, p).value
        if expected != 1:
            continue
        top = max(counts.values())
        if counts.get(expected, 0) != top:
            failures[key] = f"modal census {dict(counts)} misses n_gen = {expected}"
    return failures


def check_run(ops, records, golden=None):
    """Per-op verdicts (None or reason) for a whole run, including census
    genericity and, when given, the recorded answers of the default seed."""
    verdicts = [check_op(op, rec) for op, rec in zip(ops, records)]
    failures = census_genericity(ops, records)
    for i, op in enumerate(ops):
        if verdicts[i] is None and op["kind"] == "search":
            key = (tuple(op["orders"]), op["p"], op["k"])
            verdicts[i] = failures.get(key)
    if golden:
        for i, (op, rec) in enumerate(zip(ops, records)):
            want = golden.get(op["id"])
            if verdicts[i] is None and want is not None \
                    and digest(canonical_answer(op, rec)) != want:
                verdicts[i] = "answer differs from the one recorded at the seed commit"
    return verdicts
