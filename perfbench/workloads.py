"""Seeded generation of the benchmark's op lists.

A workload is a sequence of rounds.  Every round of a workload has the same
composition (the same op kinds in the same numbers); the seed and the round
index choose the parameters and the order.  The same (workload, seed,
rounds) always gives byte-identical op lists and family files.

Ops are plain JSON dicts.  CLI ops carry the argv given to
``ramcount.cli.run_argv``; ``different`` ops carry the coefficient lists of
a map over F_p for ``ramcount.different_divisor``.  The remaining keys are
what the checks need to know about the input.

Maps are drawn with the generator's own F_p arithmetic.  The audit's
families are built with ramcount's public constructors; run.py does that in
its own process, so the worker still starts with cold caches.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("census", "formulas", "audit")

# Criterion-8 census profiles (orders, p, k, ops per round).  (2,2,2,2)
# over F_49 enumerates 5.9e6 pencils, ten times the others, so it runs once
# per round.  With three F_27 ops per round the median op falls inside the
# F_25 ops and the tail percentile inside the F_27 ops, not between groups.
CENSUS_PROFILES = (
    ((2, 2, 3), 5, 2, 2),
    ((2, 2, 2, 2), 3, 3, 3),
    ((2, 2, 2, 2), 5, 2, 2),
    ((1, 2, 2, 3), 17, 1, 2),
    ((2, 2, 2, 2), 7, 2, 1),
)
CENSUS_BUDGET = 10 ** 7

# Deep counts: (orders added to the simple points, primes cycled by round).
# Each prime has its own memo entries, so a new prime starts cold; the MID
# primes (all <= d) are new for most rounds, the HIGH ones (all > d) and inf
# are reused.  A profile's smaller relatives are memo hits once it is done,
# so the largest number of simple points drawn decides the cold work.
DEEP_COUNTS = (
    ((3, 3), ("inf",)),
    ((3, 4), (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)),
    ((4, 4), (101, 103, 107, 109)),
)
MID_PRIMES = DEEP_COUNTS[1][1]
# The same sweep runs three times every round: it shares the memo across
# many small profiles, and as the largest group of like ops it holds the
# median op.
TABLE_SWEEP = ["table", "--p", "3,5,7,inf", "--d", "8", "--n-max", "5"]
TABLES_PER_ROUND = 3

# Explicit splitting-field budget: with the library default of 10^6 a single
# map can scan for minutes.
ROOT_BUDGET = 2 * 10 ** 4
# Maps have degree < p, so they are tame; degree <= 8 bounds the Wronskian
# degree, whose factorization decides what a refusal costs.
AUDIT_MAX_DEGREE = 8
# Maps per round by prime and splitting class: the degree K of the
# Wronskian's splitting field over F_p, or 0 when p^K exceeds ROOT_BUDGET
# and the library refuses.  Roughly the natural frequencies of the random
# maps below.
AUDIT_QUOTAS = {
    7: {0: 3, 1: 3, 2: 3, 3: 2, 4: 2, 5: 1},
    11: {0: 6, 1: 2, 2: 2, 3: 2, 4: 2},
    13: {0: 8, 1: 2, 2: 2, 3: 2},
}
SOLVE3_PER_ROUND = 6
RANDOM_FAMILIES_PER_ROUND = 2


# Seconds one round takes at the commit that defined the benchmark (2-core
# machine, Python 3.11).  A run is a fixed number of rounds, sized from its
# --seconds by these figures, so that two commits compared run the same ops.
ROUND_SECONDS = {"census": 7.5, "formulas": 1.8, "audit": 0.62}


# Workloads whose time is in the interpreter, so that the pure-Python
# calibration loop tracks the host's speed for them (see run.MACHINE_REF_S).
# Census time is in numpy passes over 8-MB arrays; scaling it by the loop
# widened its spread between runs, so its timings are reported unscaled.
CALIBRATED = ("formulas", "audit")


def rounds_for(workload, seconds):
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def _rng(workload, seed, r):
    return random.Random(f"{workload}:{seed}:{r}")


def _join(orders):
    return ",".join(str(e) for e in orders)


# -- census -------------------------------------------------------------------

def census_round(seed, r):
    rng = _rng("census", seed, r)
    ops = []
    for orders, p, k, copies in CENSUS_PROFILES:
        for _ in range(copies):
            point_seed = rng.randrange(10 ** 9)
            ops.append({
                "kind": "search", "orders": list(orders), "p": p, "k": k,
                "argv": ["search", "--p", str(p), "--k", str(k),
                         "--orders", _join(orders), "--seed", str(point_seed),
                         "--budget", str(CENSUS_BUDGET)]})
    rng.shuffle(ops)
    return ops, {}


# -- formulas -----------------------------------------------------------------

def _deep_orders(rng, extra):
    """100 to 110 simple points plus the extra orders, in seeded order."""
    simple = rng.randint(100, 110)
    if (simple + sum(e - 1 for e in extra)) % 2:
        simple += 1
    orders = [2] * simple + list(extra)
    rng.shuffle(orders)
    return orders


def _four_point_orders(rng):
    """A four-point MID/HIGH profile with no order divisible by p."""
    primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    while True:
        orders = [rng.randint(1, 30) for _ in range(4)]
        total = sum(e - 1 for e in orders)
        if total % 2 or total == 0:
            continue
        d = 1 + total // 2
        if any(e > d for e in orders):
            continue
        p = rng.choice(primes + ("inf",))
        if p != "inf" and any(e >= p for e in orders):
            continue
        return orders, p


def _count_op(orders, p, check):
    return {"kind": "count", "orders": orders, "p": p, "check": check,
            "argv": ["count", "--p", str(p), "--orders", _join(orders)]}


def formulas_round(seed, r):
    rng = _rng("formulas", seed, r)
    ops = []
    for extra, primes in DEEP_COUNTS:
        p = primes[r % len(primes)]
        ops.append(_count_op(_deep_orders(rng, extra), p,
                             "mid" if p in MID_PRIMES else "schubert"))
    orders, p = _four_point_orders(rng)
    ops.append(_count_op(orders, p, "closed4"))
    d = rng.randint(420, 450)
    orders = [2] * (2 * d - 2)
    ops.append({"kind": "schubert", "d": d, "orders": orders,
                "argv": ["schubert", "--d", str(d), "--orders", _join(orders)]})
    for _ in range(TABLES_PER_ROUND):
        ops.append({"kind": "table", "argv": list(TABLE_SWEEP)})
    rng.shuffle(ops)
    return ops, {}


# -- audit --------------------------------------------------------------------

# Polynomials over F_p as coefficient lists, low degree first.  The
# generator does its own arithmetic so that the inputs do not depend on the
# program under test.

def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _fp_trim(out)


def _fp_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def _fp_deriv(a, p):
    return _fp_trim([i * c % p for i, c in enumerate(a)][1:])


def _fp_divmod(a, b, p):
    a = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        quot[shift] = c
        for i, x in enumerate(b):
            a[shift + i] = (a[shift + i] - c * x) % p
        _fp_trim(a)
    return _fp_trim(quot), a


def _fp_gcd(a, b, p):
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a


def _splitting_class(F, G, p):
    """K, the degree over F_p of the splitting field of the Wronskian
    F'G - FG', when p^K <= ROOT_BUDGET; 0 when the library will refuse.

    The map has degree < p, so every root of the Wronskian has multiplicity
    e - 1 < p and W / gcd(W, W') is its radical; K is the least k with
    x^(p^k) = x modulo the radical."""
    w = _fp_sub(_fp_mul(_fp_deriv(F, p), G, p), _fp_mul(F, _fp_deriv(G, p), p), p)
    if len(w) <= 2:
        return 1
    rad = _fp_divmod(w, _fp_gcd(w, _fp_deriv(w, p), p), p)[0]
    x = _fp_divmod([0, 1], rad, p)[1]
    frob = x
    k = 1
    while p ** k <= ROOT_BUDGET:
        power, base, e = [1], frob, p
        while e:
            if e & 1:
                power = _fp_divmod(_fp_mul(power, base, p), rad, p)[1]
            base = _fp_divmod(_fp_mul(base, base, p), rad, p)[1]
            e >>= 1
        frob = power
        if frob == x:
            return k
        k += 1
    return 0


def _random_tame_map(rng, p):
    """A coprime pair (F, G) over F_p of degree d < p, so the map is
    separable and tamely ramified everywhere."""
    d = rng.randint(2, min(p - 1, AUDIT_MAX_DEGREE))
    while True:
        F = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        G = _fp_trim([rng.randrange(p) for _ in range(rng.randint(1, d + 1))])
        if G and len(_fp_gcd(F, G, p)) == 1:
            return d, F, G


def _audit_maps(rng):
    """The round's maps: for each prime a fixed number in each splitting
    class, so that the expensive root scans and refusals come in the same
    numbers every round."""
    maps = []
    for p, quota in AUDIT_QUOTAS.items():
        want = dict(quota)
        while any(want.values()):
            d, F, G = _random_tame_map(rng, p)
            cls = _splitting_class(F, G, p)
            if want.get(cls):
                want[cls] -= 1
                maps.append((p, d, F, G))
    return maps


def _solve3_op(rng):
    """A MID/HIGH triple: every e_i < p and e_i <= d."""
    while True:
        p = rng.choice((3, 5, 7, 11, 13))
        orders = [rng.randint(1, 8) for _ in range(3)]
        total = sum(e - 1 for e in orders)
        if total % 2 or total == 0:
            continue
        d = 1 + total // 2
        if d > 8 or max(orders) > d or max(orders) >= p:
            continue
        k = rng.choice((1, 2))
        return {"kind": "solve3", "orders": orders, "p": p, "d": d,
                "argv": ["solve3", "--p", str(p), "--k", str(k),
                         "--orders", _join(orders)]}


def _quartet_base(F9):
    """The four-simple-points family over F_9 with its four sections."""
    from ramcount.algebra import Poly
    from ramcount.degeneration import FamilyPoly, MapFamily, Section
    from ramcount.ratmap import ProjPoint
    F = FamilyPoly(F9, (Poly.zero(F9), Poly.zero(F9),
                        Poly.from_ints(F9, (0, 1)), Poly.one(F9)))
    G = FamilyPoly(F9, (Poly.from_ints(F9, (-1, 1)), Poly.from_ints(F9, (0, 1))))
    sections = (
        Section.constant(F9, ProjPoint(F9, 0), 2),
        Section(order=2, at_infinity=True),
        Section.constant(F9, ProjPoint(F9, 1), 2),
        Section(num=Poly.from_ints(F9, (-1, 1)), order=2),
    )
    return MapFamily(F, G, sections)


def _quartet_toy(rng, F9):
    """The quartet family moved by a seeded Moebius map so that no marked
    section meets infinity at t = 0: the limit-law hypotheses hold."""
    from ramcount.degeneration import family_domain_mobius
    base = _quartet_base(F9)
    while True:
        M = ((rng.randrange(9), rng.randrange(9)),
             (rng.randrange(9), rng.randrange(9)))
        try:
            toy = family_domain_mobius(base, M)
        except ValueError:
            continue
        if all(not s.value_at(F9, 0).is_infinity for s in toy.sections):
            return toy


def _random_family(rng, F9):
    """A criterion-6 family: inseparable coprime special fiber (A, B) plus
    t times a random perturbation, separable generically."""
    from ramcount.algebra import Poly, frobenius_power, poly_gcd
    from ramcount.degeneration import FamilyPoly, MapFamily
    t = Poly.from_ints(F9, (0, 1))
    while True:
        ra = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
        rb = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
        C = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 5))])
        D = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
        if ra.is_zero or rb.is_zero:
            continue
        A, B = frobenius_power(ra), frobenius_power(rb)
        if poly_gcd(A, B).degree != 0:
            continue
        F = FamilyPoly.lift(A) + FamilyPoly.lift(C).scale_t(t)
        G = FamilyPoly.lift(B) + FamilyPoly.lift(D).scale_t(t)
        try:
            fam = MapFamily(F, G)
        except ValueError:
            continue
        if fam.generic_separable() and not fam.special_fiber_separable():
            return fam


def _family_text(fam):
    return json.dumps(fam.to_json(), sort_keys=True, indent=2) + "\n"


def audit_round(seed, r):
    from ramcount.algebra import finite_field
    F9 = finite_field(3, 2)
    rng = _rng("audit", seed, r)
    ops = []
    files = {}
    for p, d, F, G in _audit_maps(rng):
        ops.append({"kind": "different", "p": p, "d": d, "F": F, "G": G,
                    "budget": ROOT_BUDGET})
    for _ in range(SOLVE3_PER_ROUND):
        ops.append(_solve3_op(rng))
    families = [("toy", _quartet_toy(rng, F9))]
    families += [("random", _random_family(rng, F9))
                 for _ in range(RANDOM_FAMILIES_PER_ROUND)]
    for j, (origin, fam) in enumerate(families):
        name = f"family-r{r}-{j}.json"
        files[name] = _family_text(fam)
        ops.append({"kind": "transform", "family": origin, "p": fam.field.p,
                    "d": fam.degree,
                    "argv": ["transform", "--family", name, "--analyze"]})
    rng.shuffle(ops)
    return ops, files


_ROUNDS = {"census": census_round, "formulas": formulas_round,
           "audit": audit_round}


def generate(workload, seed, rounds):
    """(list of rounds of ops, {family file name: text}).  Op ids are
    "r<round>.<index>"."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    out, files = [], {}
    for r in range(rounds):
        ops, round_files = _ROUNDS[workload](seed, r)
        for i, op in enumerate(ops):
            op["id"] = f"r{r}.{i}"
        out.append(ops)
        files.update(round_files)
    return out, files


def dump(rounds):
    """Canonical bytes of an op list."""
    return json.dumps(rounds, sort_keys=True, separators=(",", ":")).encode()
