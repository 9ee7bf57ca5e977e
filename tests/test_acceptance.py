"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import random
import time

from ramcount.algebra import Poly, finite_field, frobenius_power, poly_gcd
from ramcount.counting import (
    INFINITY,
    CharClass,
    involution_reduce,
    n_four_closed,
    n_gen_recursive,
    n_three,
    validate_profile,
)
from ramcount.degeneration import (
    FamilyPoly,
    MapFamily,
    Section,
    analyze_limit,
    family_domain_mobius,
    insep_limit_transform,
    pathology_family,
)
from ramcount.pencil import (
    Pencil,
    count_maps_bruteforce,
    gaussian_binomial_pencils,
    sample_general_points,
    solve_three_point,
)
from ramcount.ratmap import (
    ProjPoint,
    RatMap,
    different_divisor,
    ram_index,
    ramification_profile,
)


def _report(name, elapsed, budget):
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def _pieri_point_class(d, orders):
    """Coefficient of the point class (d-1, d-1) in the product of the
    special classes (e - 1, 0), by the Pieri rule term by term: (a, b) times
    (e - 1, 0) is the sum of the (a', b') with a' + b' = a + b + e - 1 and
    d - 1 >= a' >= a >= b' >= b."""
    classes = {(0, 0): 1}
    for e in orders:
        product = {}
        for (a, b), coeff in classes.items():
            for bp in range(b, a + 1):
                ap = a + b + e - 1 - bp
                if a <= ap <= d - 1:
                    product[(ap, bp)] = product.get((ap, bp), 0) + coeff
        classes = product
    return classes.get((d - 1, d - 1), 0)


def _mid_high_triples(d_max, primes):
    for p in primes:
        for e1 in range(1, d_max + 1):
            for e2 in range(1, d_max + 1):
                for e3 in range(1, d_max + 1):
                    total = e1 + e2 + e3 - 3
                    if total % 2 or total == 0:
                        continue
                    d = 1 + total // 2
                    if d > d_max or max(e1, e2, e3) > d:
                        continue
                    if max(e1, e2, e3) >= p:
                        continue  # mid/high range only
                    yield p, d, (e1, e2, e3)


def test_criterion_1_three_point_law():
    """The three-point count is 1 iff p > d, and the constructive
    solver over F_{p^2} exhibits the unique pencil with that separability."""
    start = time.monotonic()
    checked = 0
    for p, d, orders in _mid_high_triples(6, (3, 5, 7, 11, 13)):
        expected = 1 if p > d else 0
        res = n_three(*orders, p)
        assert res.value == expected, (orders, p)
        field = finite_field(p, 2)
        sol = solve_three_point(d, *orders, field)
        assert sol.m == 0, (orders, p)
        assert sol.count == expected, (orders, p)
        if expected == 1:
            assert sol.separable
        else:
            assert not sol.separable
        checked += 1
    assert checked > 100
    _report(f"criterion 1: three-point law ({checked} instances)",
            time.monotonic() - start, 5.0)


def _simple4(field, lam):
    return [
        (ProjPoint(field, 0), 2),
        (ProjPoint.infinity(field), 2),
        (ProjPoint(field, 1), 2),
        (ProjPoint(field, lam), 2),
    ]


def test_criterion_2_four_simple_points_census():
    """Degree-3 maps with four simple ramification points: census counts and
    the closed-form witness.  The two char-5 and char-7 solutions at the
    stated prime-field lambdas have conjugate coordinates, so the geometric
    count 2 appears over F_{p^2}; the prime-field censuses (0) document the
    rationality drop."""
    start = time.monotonic()
    F9 = finite_field(3, 2)
    for lam in range(9):
        if lam < 3:  # the prime field {0, 1, -1} is excluded
            continue
        report = count_maps_bruteforce(3, _simple4(F9, lam), F9)
        assert report.separable == 1, lam
        one_plus = F9.add_i(1, lam)
        expected = Pencil.from_polys(
            Poly(F9, (0, 0, one_plus, 1)), Poly(F9, (lam, one_plus)), 3)
        assert report.witnesses[0][0] == expected, lam

    F25 = finite_field(5, 2)
    for lam in (2, 3, 4):
        report = count_maps_bruteforce(3, _simple4(F25, lam), F25)
        assert report.separable == 2, lam
    F5 = finite_field(5)
    for lam in (2, 3, 4):
        assert count_maps_bruteforce(3, _simple4(F5, lam), F5).separable == 0

    F49 = finite_field(7, 2)
    for lam in (3, 5):
        assert count_maps_bruteforce(3, _simple4(F49, lam), F49).separable == 1
    for lam in (2, 4, 6):
        assert count_maps_bruteforce(3, _simple4(F49, lam), F49).separable == 2
    F7 = finite_field(7)
    for lam in (3, 5):
        assert count_maps_bruteforce(3, _simple4(F7, lam), F7).separable == 1
    for lam in (2, 4, 6):
        assert count_maps_bruteforce(3, _simple4(F7, lam), F7).separable == 0

    _report("criterion 2: four-simple-points census", time.monotonic() - start, 30.0)


def _four_point_profiles(d_max):
    out = []
    for orders in itertools.combinations_with_replacement(range(1, d_max + 1), 4):
        total = sum(e - 1 for e in orders)
        if total % 2 or total == 0:
            continue
        d = 1 + total // 2
        if d > d_max or any(e > d for e in orders):
            continue
        out.append((orders, d))
    return out


def test_criterion_3_formula_triangle():
    """Recursion = four-point closed form (d <= 12, p <= 23) and
    recursion at infinity = Pieri intersection number (d <= 8, n <= 6)."""
    start = time.monotonic()
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    four_checked = 0
    for orders, d in _four_point_profiles(12):
        for p in primes + (INFINITY,):
            profile = validate_profile(orders, p)
            if profile.char_class is CharClass.LOW or profile.forced_zero:
                continue
            rec = n_gen_recursive(profile).value
            closed = n_four_closed(*orders, p).value
            assert rec == closed, (orders, p, rec, closed)
            four_checked += 1
    assert four_checked > 500

    schubert_checked = 0
    for n in (3, 4, 5, 6):
        for orders in itertools.combinations_with_replacement(range(1, 9), n):
            total = sum(e - 1 for e in orders)
            if total % 2 or total == 0:
                continue
            d = 1 + total // 2
            if d > 8 or any(e > d for e in orders):
                continue
            profile = validate_profile(orders, INFINITY)
            rec = n_gen_recursive(profile).value
            pieri = _pieri_point_class(d, orders)
            assert rec == pieri, (orders, rec, pieri)
            schubert_checked += 1
    assert schubert_checked > 100
    _report(f"criterion 3: formula triangle ({four_checked} closed-form, "
            f"{schubert_checked} Pieri checks)", time.monotonic() - start, 60.0)


def test_criterion_4_involution_invariance():
    """Replacing any pair (e_i, e_j) by (p-e_i, p-e_j) preserves the count."""
    start = time.monotonic()
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    checked = 0
    for orders, d in _four_point_profiles(12):
        for p in primes:
            profile = validate_profile(orders, p)
            if profile.char_class is CharClass.LOW or profile.forced_zero:
                continue
            base = n_gen_recursive(profile).value
            for i, j in itertools.combinations(range(4), 2):
                reduced = involution_reduce(profile, i, j)
                assert n_gen_recursive(reduced).value == base, (orders, p, i, j)
                checked += 1
    assert checked > 1000
    _report(f"criterion 4: involution invariance ({checked} replacements)",
            time.monotonic() - start, 60.0)


def test_criterion_5_pathology_family():
    """x^5 - t x^3 + x over F_9: nine distinct pencils, one ramification
    divisor (order 5 at infinity, four simple points)."""
    start = time.monotonic()
    F9 = finite_field(3, 2)
    fam = pathology_family(Poly.from_ints(F9, (0, 1, 0, 0, 0, 1)), Poly.one(F9))
    profiles = set()
    pencils = set()
    for c in range(9):
        member = fam.member(c)
        prof = ramification_profile(member)
        profiles.add(frozenset(prof.items()))
        pencils.add(member.pencil_rows())
    assert len(pencils) == 9
    assert len(profiles) == 1
    prof = dict(profiles.pop())
    inf_pt = ProjPoint.infinity(F9)
    assert prof[inf_pt] == 5
    finite = sorted(e for pt, e in prof.items() if not pt.is_infinity)
    assert finite == [2, 2, 2, 2]
    _report("criterion 5: pathology family", time.monotonic() - start, 5.0)


def _conjugated_quartet_toys(F9):
    """Limit-law-position copies of the four-simple-points family over F_9."""
    F = FamilyPoly(F9, (Poly.zero(F9), Poly.zero(F9),
                        Poly.from_ints(F9, (0, 1)), Poly.one(F9)))
    G = FamilyPoly(F9, (Poly.from_ints(F9, (-1, 1)), Poly.from_ints(F9, (0, 1))))
    sections = (
        Section.constant(F9, ProjPoint(F9, 0), 2),
        Section(order=2, at_infinity=True),
        Section.constant(F9, ProjPoint(F9, 1), 2),
        Section(num=Poly.from_ints(F9, (-1, 1)), order=2),
    )
    base = MapFamily(F, G, sections)
    toys = []
    for M in (((1, 0), (3, 1)), ((1, 0), (6, 1)), ((1, 1), (3, 1)),
              ((1, 2), (6, 1)), ((2, 0), (3, 1))):
        try:
            toy = family_domain_mobius(base, M)
        except ValueError:
            continue
        if all(not s.value_at(F9, 0).is_infinity for s in toy.sections):
            toys.append(toy)
    return base, toys


def test_criterion_6_transform_audit():
    """On >= 10 families with inseparable limits: the Wronskian t-valuation
    strictly decreases each step, iteration reaches a separable limit, and
    hypothesis-satisfying families report e_inf = 2m-1 with p <= m <= d."""
    start = time.monotonic()
    F9 = finite_field(3, 2)
    F3 = finite_field(3)
    families = []

    base, toys = _conjugated_quartet_toys(F9)
    assert len(toys) >= 4
    families.extend(toys)          # hypothesis-satisfying
    families.append(base)          # marked section at infinity: warnings path

    families.append(MapFamily(     # Frobenius times unit
        FamilyPoly.from_string(F3, "[(0),(0),(0),(1),(0,1)]"),
        FamilyPoly.from_string(F3, "[(1)]")))

    rng = random.Random(2024)
    while len(families) < 12:
        ra = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
        rb = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
        C = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 5))])
        D = Poly(F9, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
        if ra.is_zero or rb.is_zero:
            continue
        A, B = frobenius_power(ra), frobenius_power(rb)
        if poly_gcd(A, B).degree != 0:
            continue
        t = Poly.from_ints(F9, (0, 1))
        F = FamilyPoly.lift(A) + FamilyPoly.lift(C).scale_t(t)
        G = FamilyPoly.lift(B) + FamilyPoly.lift(D).scale_t(t)
        try:
            fam = MapFamily(F, G)
        except ValueError:
            continue
        if fam.generic_separable() and not fam.special_fiber_separable():
            families.append(fam)

    assert len(families) >= 10
    law_cases = 0
    for fam in families:
        if fam.special_fiber_separable():
            continue
        # explicit valuation audit across the iteration
        vals = [fam.wronskian().t_valuation()]
        cur = fam
        while not cur.special_fiber_separable():
            cur = insep_limit_transform(cur)
            vals.append(cur.wronskian().t_valuation())
        assert all(b < a for a, b in zip(vals, vals[1:])), vals
        report = analyze_limit(fam)
        assert report.iterations == len(vals) - 1
        if report.hypotheses_ok:
            law_cases += 1
            p, d = fam.field.p, fam.degree
            assert report.e_infinity == 2 * report.m - 1
            assert p <= report.m <= d
    assert law_cases >= 4
    for toy in toys:
        rep = analyze_limit(toy)
        assert rep.m == 3 and rep.e_infinity == 5 and rep.b == 0
    _report(f"criterion 6: transform audit ({len(families)} families, "
            f"{law_cases} hypothesis-satisfying)",
            time.monotonic() - start, 10.0)


def test_criterion_7_riemann_hurwitz_audit():
    """1000 seeded random separable tame maps per p in {3, 5, 7}: the
    different totals exactly 2d-2; the index comparison property holds on
    1000 random triples per field."""
    from ramcount.ratmap import InseparableMapError, WildRamificationError

    start = time.monotonic()
    for p in (3, 5, 7):
        field = finite_field(p)
        rng = random.Random(1000 + p)
        audited = 0
        while audited < 1000:
            nf = rng.randrange(1, 5)
            ng = rng.randrange(1, 5)
            F = Poly(field, [rng.randrange(p) for _ in range(nf)])
            G = Poly(field, [rng.randrange(p) for _ in range(ng)])
            try:
                m, _ = RatMap.new(F, G)
            except ValueError:
                continue
            try:
                div = different_divisor(m)
            except (InseparableMapError, WildRamificationError):
                continue  # not a tame separable witness; draw again
            assert div.total == 2 * m.degree - 2
            audited += 1

    for p in (3, 5, 7):
        field = finite_field(p)
        rng = random.Random(84 + p)
        checked = 0
        while checked < 1000:
            den = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            n1 = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            n2 = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            a = rng.randrange(p)
            if den.is_zero or den(a) == 0:
                continue
            try:
                f, _ = RatMap.new(n1, den)
                g, _ = RatMap.new(n2, den)
                s, _ = RatMap.new(n1 + n2, den)
            except ValueError:
                continue
            pt = ProjPoint(field, a)
            ef, eg, es = ram_index(f, pt), ram_index(g, pt), ram_index(s, pt)
            assert (es >= ef) == (eg >= ef)
            checked += 1
    _report("criterion 7: Riemann-Hurwitz audit (3000 maps + 3000 triples)",
            time.monotonic() - start, 30.0)


def test_criterion_8_census_genericity():
    """For profiles with enumeration <= 10^6 pencils, the modal separable
    census count over >= 20 seeds equals the recursion, and modal witnesses
    send the marked points to pairwise distinct images."""
    start = time.monotonic()
    suite = [
        ((2, 2, 3), 5, 2),        # ~4.1e5 pencils over F_25
        ((2, 2, 2, 2), 3, 3),     # ~5.5e5 pencils over F_27
        ((2, 2, 2, 2), 5, 2),     # ~4.1e5 pencils over F_25
        ((1, 1, 2, 2), 17, 1),    # degenerate orders, 307 pencils
        ((1, 2, 2, 3), 17, 1),    # ~9e4 pencils
    ]
    seeds = range(20)
    for orders, p, k in suite:
        field = finite_field(p, k)
        profile = validate_profile(orders, p)
        assert profile.char_class in (CharClass.MID, CharClass.HIGH)
        assert gaussian_binomial_pencils(profile.d, field.q) <= 10 ** 6
        expected = n_gen_recursive(profile).value
        outcomes = {}
        modal_reports = []
        for seed in seeds:
            points = sample_general_points(len(orders), field, seed)
            report = count_maps_bruteforce(
                profile.d, list(zip(points, orders)), field)
            outcomes[report.separable] = outcomes.get(report.separable, 0) + 1
            modal_reports.append(report)
        modal = max(outcomes.items(), key=lambda kv: kv[1])[0]
        assert modal == expected, (orders, p, outcomes, expected)
        for report in modal_reports:
            if report.separable == modal and modal > 0:
                assert report.distinct_images is True, (orders, p)
        print(f"  profile {orders} p={p} q={field.q}: "
              f"distribution {outcomes}, formula {expected}")
    _report("criterion 8: census genericity", time.monotonic() - start, 300.0)
