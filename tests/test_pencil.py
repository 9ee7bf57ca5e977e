import functools
import itertools
import random

import pytest

import ramcount.pencil as pencil_module
from ramcount.algebra import BudgetExceeded, Poly, finite_field
from ramcount.pencil import (
    Pencil,
    _classify_survivors,
    _echelon_rows,
    _jet_classifier,
    count_maps_bruteforce,
    gaussian_binomial_pencils,
    sample_general_points,
    solve_three_point,
    vanishing_jet_matrix,
)
from ramcount.ratmap import ProjPoint, RatMap
from ramcount.schubert import intersection_number

F3 = finite_field(3)
F5 = finite_field(5)
F9 = finite_field(3, 2)
F25 = finite_field(5, 2)


def P(field, *coeffs):
    return Poly.from_ints(field, coeffs)


def pencil_of(f):
    """The map's pencil <F, G>: f modulo automorphism of the image."""
    return Pencil.from_polys(f.F, f.G, f.degree)


# -- the test oracle: a plain scan of G(1, d)(F_q) ---------------------------
#
# It shares nothing with the census engine but the jet matrices and the
# classification of survivors: it lists every pencil and tests every
# condition on every pencil by its 2x2 minors.

def _scan_pencils(d, field):
    """Every pencil of G(1, d)(F_q) once, as the rows of its reduced echelon
    form: for pivots j1 < j2, row A has 1 at j1 and 0 at j2, row B has 1 at
    j2, each is 0 left of its pivot and free right of it."""
    for j1 in range(d + 1):
        for j2 in range(j1 + 1, d + 1):
            free = [(0, j) for j in range(j1 + 1, d + 1) if j != j2]
            free += [(1, j) for j in range(j2 + 1, d + 1)]
            for values in itertools.product(range(field.q), repeat=len(free)):
                rows = [[0] * (d + 1), [0] * (d + 1)]
                rows[0][j1] = rows[1][j2] = 1
                for (r, j), v in zip(free, values):
                    rows[r][j] = v
                yield tuple(rows[0]), tuple(rows[1])


def _meets(field, jet_matrix, rows):
    """The condition of the jet matrix: the two rows' jets form a matrix of
    rank <= 1, that is every 2x2 minor vanishes."""
    ja, jb = ([functools.reduce(field.add_i, map(field.mul_i, m, row), 0)
               for m in jet_matrix] for row in rows)
    return all(field.mul_i(ja[r], jb[s]) == field.mul_i(ja[s], jb[r])
               for r in range(len(ja)) for s in range(r + 1, len(ja)))


def _scan_census(d, assigns, field):
    """Oracle for the census engine: every scanned pencil that meets each
    condition, classified alike."""
    mats = [vanishing_jet_matrix(field, d, pt, e) for pt, e in assigns]
    survivors = [Pencil(field, d, rows) for rows in _scan_pencils(d, field)
                 if all(_meets(field, M, rows) for M in mats)]
    return _classify_survivors(d, tuple(assigns), field, survivors)


def _meets_at(pencil, point, e):
    return _meets(pencil.field, vanishing_jet_matrix(pencil.field, pencil.d, point, e),
                  pencil.rows)


class TestEnumeration:
    def test_single_pencil_when_d1(self):
        assert len(list(_scan_pencils(1, F3))) == 1

    def test_count_d3_q3(self):
        pencils = list(_scan_pencils(3, F3))
        assert len(pencils) == 130
        assert gaussian_binomial_pencils(3, 3) == 130
        assert len(set(pencils)) == 130

    def test_count_matches_formula_q9(self):
        pencils = list(_scan_pencils(3, F9))
        assert len(pencils) == gaussian_binomial_pencils(3, 9)
        assert len(set(pencils)) == len(pencils)

    def test_canonical_forms_are_rref(self):
        for rows in _scan_pencils(2, F3):
            assert Pencil(F3, 2, rows).rows == rows


class TestSchubertCondition:
    def test_contains_member(self):
        V = Pencil.from_polys(P(F5, 0, 0, 1), P(F5, 1), 2)
        assert _meets_at(V, ProjPoint(F5, 0), 2)

    def test_no_double_root_at_one(self):
        V = Pencil.from_polys(P(F5, 0, 0, 1), P(F5, 1), 2)
        assert not _meets_at(V, ProjPoint(F5, 1), 2)

    def test_vacuous(self):
        V = Pencil.from_polys(P(F5, 0, 0, 1), P(F5, 1), 2)
        for x in list(range(5)) + [None]:
            pt = ProjPoint.infinity(F5) if x is None else ProjPoint(F5, x)
            assert _meets_at(V, pt, 1)

    def test_infinity_condition(self):
        V = Pencil.from_polys(P(F5, 0, 0, 1), P(F5, 1), 2)
        assert _meets_at(V, ProjPoint.infinity(F5), 2)  # member 1


class TestBasePoints:
    def test_counted_without_splitting_field(self, monkeypatch):
        # h is irreducible over F_101, so its roots lie in F_{101^3}, over
        # the budget: the count needs only deg h
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(101 ** 3 - 1))
        F101 = finite_field(101)
        h = Poly.from_ints(F101, (1, 1, 0, 1))
        x = Poly.x(F101)
        m, base = Pencil.from_polys(h * x, h, 4).to_map()
        assert base == 3 and pencil_of(m) == pencil_of(RatMap(x, Poly.one(F101)))
        assert Pencil.from_polys(h * x, h, 6).to_map()[1] == 5  # 2 at infinity


class TestThreePointSolver:
    def test_high_char_witness(self):
        sol = solve_three_point(3, 2, 2, 3, F5)
        assert sol.m == 0 and sol.count == 1 and sol.separable
        A, B = sol.pencil.polys()
        expected = RatMap(P(F5, 0, 0, 2, 1), P(F5, 1, 2))
        assert pencil_of(expected) == pencil_of(RatMap(A, B))

    def test_frobenius_in_char3(self):
        sol = solve_three_point(3, 2, 2, 3, F3)
        assert sol.m == 0 and sol.count == 0 and not sol.separable
        A, B = sol.pencil.polys()
        assert {A.coeffs, B.coeffs} == {(0, 0, 0, 1), (1,)}

    def test_mid_range_inseparable(self):
        # (4, 4, 3), d = 5, p = 5: the unique pencil is span{x^5, 1}
        sol = solve_three_point(5, 4, 4, 3, F25)
        assert sol.m == 0 and sol.count == 0 and not sol.separable

    def test_degenerate_order_one(self):
        sol = solve_three_point(2, 1, 2, 2, F5)
        assert sol.m == 0 and sol.count == 1 and sol.separable

    def test_parity_error(self):
        with pytest.raises(ValueError):
            solve_three_point(3, 2, 2, 2, F5)

    def test_oversized_error(self):
        with pytest.raises(ValueError):
            solve_three_point(3, 5, 1, 2, F5)

    def test_system_entries_are_charged_to_the_budget(self, monkeypatch):
        # d = 5: (2d + 1)(2d + 2) = 132 entries, refused before any row is built
        def no_rows(*args):
            raise AssertionError("built a row of an over-budget system")

        with monkeypatch.context() as patch:
            patch.setenv("RAMCOUNT_BUDGET", "131")
            patch.setattr(pencil_module, "vanishing_jet_matrix", no_rows)
            with pytest.raises(BudgetExceeded, match=r"^132 system entries exceed budget 131$"):
                solve_three_point(5, 1, 5, 5, F3)
        monkeypatch.setenv("RAMCOUNT_BUDGET", "132")
        assert solve_three_point(5, 1, 5, 5, F3).count == 1

    def test_invalid_orders_are_refused_before_the_budget(self, monkeypatch):
        monkeypatch.setenv("RAMCOUNT_BUDGET", "1")
        with pytest.raises(ValueError, match=r"^order e = 7 outside 1\.\.d$"):
            solve_three_point(5, 1, 7, 3, F3)


class TestDegreeRule:
    """The Schubert number, the census and the three-point solver refuse a
    bad instance with one message: they share schubert.check_orders."""

    @staticmethod
    def _messages(d, orders):
        points = [ProjPoint(F5, x) for x in range(len(orders))]
        calls = [lambda: intersection_number(d, orders),
                 lambda: count_maps_bruteforce(d, list(zip(points, orders)), F5),
                 lambda: solve_three_point(d, *orders, 1, F5)]
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        return messages

    def test_order_above_d(self):
        assert self._messages(3, (4, 2)) == ["order e = 4 outside 1..d"] * 3

    def test_codimension_mismatch(self):
        assert self._messages(3, (2, 2)) == [
            "codimension mismatch: sum(e_i - 1) = 2 != 2(d-1) = 4"] * 3

    def test_order_below_one(self):
        assert self._messages(2, (0, 3)) == ["orders must be >= 1"] * 3


def _four_simple_points(field, lam):
    return [
        (ProjPoint(field, 0), 2),
        (ProjPoint.infinity(field), 2),
        (ProjPoint(field, 1), 2),
        (ProjPoint(field, lam), 2),
    ]


def _assert_engines_agree(d, assigns, field):
    vec = count_maps_bruteforce(d, assigns, field)
    scan = _scan_census(d, assigns, field)
    assert (vec.total, vec.separable, vec.inseparable, vec.with_base_points) == \
           (scan.total, scan.separable, scan.inseparable, scan.with_base_points)
    assert [p.rows for p, _ in vec.witnesses] == [p.rows for p, _ in scan.witnesses]
    for pencil, rmap in vec.witnesses:
        assert pencil_of(rmap).rows == pencil.rows
    return vec


def _assigns(field, points, orders):
    return [(ProjPoint.infinity(field) if x is None else ProjPoint(field, x), e)
            for x, e in zip(points, orders)]


class TestJetClassifier:
    """The census's jet classes against a scalar oracle: each condition's
    jet is its jet matrix times the row in add_i/mul_i, scaled by inv_i of
    its first nonzero entry."""

    @staticmethod
    def _oracle(field, mats, row):
        zero, classes = 0, []
        for c, M in enumerate(mats):
            jet = [functools.reduce(field.add_i, map(field.mul_i, m, row), 0) for m in M]
            lead = next((v for v in jet if v), 0)
            if lead:
                classes.append([field.mul_i(v, field.inv_i(lead)) for v in jet])
            else:
                zero |= 1 << c
                classes.append(jet)
        return zero, classes

    @pytest.mark.parametrize("p, k", [
        (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (3001, 1)])
    def test_classes_match_scalar_oracle(self, monkeypatch, p, k):
        import numpy as np

        monkeypatch.setattr(pencil_module, "_BLOCK", 16)  # several blocks a call
        field, d = finite_field(p, k), 4
        rng = random.Random(p ** k)
        points = [ProjPoint.infinity(field)]
        points += [ProjPoint(field, a) for a in rng.sample(range(1, field.q), 3)]
        assigns = list(zip(points, (2, 3, 2, 4)))
        mats = [vanishing_jet_matrix(field, d, pt, e) for pt, e in assigns]
        # random rows, and rows whose jet vanishes at one of the points:
        # (x - a)^e h, or of degree <= d - e for the point at infinity
        rows = []
        for t in range(60):
            pt, e = assigns[t % 4]
            if t % 3 == 0:
                rows.append([rng.randrange(field.q) for _ in range(d + 1)])
                continue
            h = Poly(field, [rng.randrange(field.q) for _ in range(d + 1 - e)])
            if not pt.is_infinity:
                h = h * Poly(field, (field.neg_i(pt.i), 1)) ** e
            rows.append(list(h.coeffs) + [0] * (d + 1 - len(h.coeffs)))
        # and an echelon stratum, whose rows are zero at three positions
        stratum = _echelon_rows(d, field.q, 1, [3])[:, :50]
        classify = _jet_classifier(field, mats)
        for array in (np.array(rows, dtype=np.intp).T, stratum):
            zero, classes = classify(array)
            assert zero.any() or array is stratum
            for t, row in enumerate(array.T.tolist()):
                expect_zero, expect = self._oracle(field, mats, row)
                assert zero[t] == expect_zero, (t, row)
                assert [cls[:, t].tolist() for cls in classes] == expect, (t, row)

    def test_refuses_a_field_too_large_for_exact_products(self):
        # 3 (p - 1)^2 is above 2^50 here, so a float64 sum could round
        field = finite_field(100000007)
        mats = [vanishing_jet_matrix(field, 2, ProjPoint(field, 1), 2)]
        with pytest.raises(BudgetExceeded, match="too large for an exact census"):
            _jet_classifier(field, mats)

    def test_no_conditions(self):
        zero, classes = _jet_classifier(F5, [])(_echelon_rows(2, 5, 0, [2]))
        assert zero.tolist() == [0] * 5 and classes == []


class TestCensus:
    def test_engines_agree_small(self):
        cases = [
            (2, F3, [(ProjPoint(F3, 0), 2), (ProjPoint(F3, 1), 2)]),
            (2, F5, [(ProjPoint(F5, 0), 2), (ProjPoint.infinity(F5), 2)]),
            (3, F3, _four_simple_points(F3, 2)),
            (3, F5, _four_simple_points(F5, 3)),
            (3, F9, [(ProjPoint(F9, 0), 2), (ProjPoint.infinity(F9), 2),
                     (ProjPoint(F9, 3), 3)]),
        ]
        for d, field, assigns in cases:
            _assert_engines_agree(d, assigns, field)

    def test_engines_agree_fuzzed(self):
        import random as _random
        rng = _random.Random(7)
        shapes = {2: [(2, 2), (2, 2, 1)], 3: [(3, 3), (3, 2, 2, 1), (2, 2, 2, 2)]}
        for field in (F3, F5, F9):
            for d, order_lists in shapes.items():
                for orders in order_lists:
                    pool = list(range(field.q)) + [None]
                    picks = rng.sample(pool, len(orders))
                    points = [ProjPoint.infinity(field) if x is None
                              else ProjPoint(field, x) for x in picks]
                    assigns = list(zip(points, orders))
                    vec = count_maps_bruteforce(d, assigns, field)
                    scan = _scan_census(d, assigns, field)
                    assert (vec.total, vec.separable, vec.inseparable,
                            vec.with_base_points) == \
                           (scan.total, scan.separable, scan.inseparable,
                            scan.with_base_points), (field.q, d, orders)

    # each case names the join branch it reaches; `least` bounds the
    # (total, with_base_points) it must show so that it keeps reaching it
    @pytest.mark.parametrize("d, p, k, points, orders, least", [
        # a point at infinity, general finite points, d = 3 over F_7 ... F_13
        (3, 7, 1, (0, None, 1, 3), (2, 2, 2, 2), (1, 0)),
        (3, 3, 2, (0, None, 1, 4), (2, 2, 2, 2), (2, 0)),
        (3, 11, 1, (0, None, 5), (3, 2, 2), (1, 0)),
        # order-1 conditions are vacuous
        (3, 13, 1, (2, None, 7, 1), (1, 2, 3, 2), (1, 0)),
        (3, 11, 1, (4, None, 9), (3, 3, 1), (1, 0)),
        (4, 5, 1, (0, None, 1), (4, 4, 1), (1, 0)),
        # span{1, x^3}: each row's jet vanishes at one of the two points
        (3, 13, 1, (0, None), (3, 3), (1, 0)),
        # survivors with a base point at an assigned point: one jet is zero
        (4, 3, 1, (0, None, 2, 1), (3, 3, 2, 2), (4, 4)),
        (4, 3, 1, (None, 0, 1), (4, 3, 2), (1, 1)),
        # every point of P^1(F_5), far from general: five maps
        (4, 5, 1, (0, None, 4, 3, 2, 1), (2, 2, 2, 2, 2, 2), (5, 0)),
        # d = 2 over F_81 and F_125: jets of four and of three base-p digits
        (2, 3, 4, (5, 7, None), (2, 2, 1), (1, 0)),
        (2, 5, 3, (31, None), (2, 2), (1, 0)),
    ])
    def test_join_branches_agree_with_scan(self, d, p, k, points, orders, least):
        field = finite_field(p, k)
        report = _assert_engines_agree(d, _assigns(field, points, orders), field)
        assert report.total >= least[0] and report.with_base_points >= least[1]

    def test_class_keys_past_int64(self):
        # 70 binary entries would need 2^70 > 2^63 as packed keys, and keys
        # wrapped modulo 2^64 would lose the first entry: the columns below
        # differ only there
        import numpy as np

        from ramcount.pencil import _class_keys

        rng = np.random.default_rng(3)
        distinct = rng.integers(0, 2, size=(70, 6))
        distinct[0] = [0, 1, 0, 1, 0, 1]
        distinct[1:, 1] = distinct[1:, 0]
        cols = distinct[:, [0, 1, 2, 3, 4, 5, 0, 3, 3]]
        blocks = [cols[:30], cols[30:45], cols[45:]]
        keys = _class_keys(blocks, cols.shape[1], 2)
        for i in range(cols.shape[1]):
            for j in range(cols.shape[1]):
                assert (keys[i] == keys[j]) == (cols[:, i] == cols[:, j]).all()

    def test_four_simple_points_char3(self):
        lam = 3  # y, outside the prime field
        report = count_maps_bruteforce(3, _four_simple_points(F9, lam), F9)
        assert report.separable == 1
        assert report.inseparable == 1  # the Frobenius pencil span{x^3, 1}
        assert report.total == 2
        # witness is (x^3 + (1+lam) x^2) / ((1+lam) x + lam) as a pencil
        one_plus = F9.add_i(1, lam)
        F = Poly(F9, (0, 0, one_plus, 1))
        G = Poly(F9, (lam, one_plus))
        expected = Pencil.from_polys(F, G, 3)
        assert report.witnesses[0][0] == expected
        assert report.distinct_images is True

    def test_no_drop_at_general_specializations(self):
        # over F9 in characteristic 3 the separable count stays 1 at every
        # general lambda; it drops to 0 exactly at the forced special
        # configuration lambda = -1 where the limit map is inseparable
        for lam in range(3, 9):
            report = count_maps_bruteforce(3, _four_simple_points(F9, lam), F9)
            assert report.separable == 1, lam
        special = count_maps_bruteforce(3, _four_simple_points(F9, 2), F9)
        assert special.separable == 0
        assert special.inseparable >= 1

    def test_four_simple_points_char5_rationality(self):
        # the two solutions at lambda in F_5 are conjugate over F_25:
        # invisible to the prime-field census, visible over the quadratic one
        prime = count_maps_bruteforce(3, _four_simple_points(F5, 2), F5)
        assert prime.separable == 0
        quad = count_maps_bruteforce(3, _four_simple_points(F25, 2), F25)
        assert quad.separable == 2

    def test_rational_counts_below_n_gen_at_every_cross_ratio(self):
        # (3, 3, 3, 3) at p = 13 (d = 5, HIGH, n_gen 3) at 0, inf, 1, lam
        # for every lam: only the harmonic cross-ratios -1, 2, 1/2 carry an
        # F_13-rational map, one each, so no configuration of the prime
        # field attains n_gen rationally
        from ramcount.counting import n_gen
        F13 = finite_field(13)
        assert n_gen((3, 3, 3, 3), 13).value == 3
        separable = {}
        for lam in range(2, 13):
            assigns = _assigns(F13, (0, None, 1, lam), (3, 3, 3, 3))
            separable[lam] = count_maps_bruteforce(5, assigns, F13, budget=10 ** 9).separable
        assert separable == {lam: int(lam in (2, 7, 12)) for lam in range(2, 13)}

    def test_repeated_points_rejected(self):
        with pytest.raises(ValueError):
            count_maps_bruteforce(3, [(ProjPoint(F5, 0), 2), (ProjPoint(F5, 0), 2)], F5)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            count_maps_bruteforce(3, _four_simple_points(F9, 3), F9, budget=10)

    def test_report_json(self):
        report = count_maps_bruteforce(3, _four_simple_points(F9, 3), F9)
        payload = report.to_json()
        assert payload["separable"] == 1
        assert payload["points"] == ["00", "inf", "01", "10"]
        assert len(payload["witnesses"]) == 1

    def test_low_char_pathology_dichotomy(self):
        # orders (4, 2, 2, 2) at p = 3: a tame order above p.  A witness
        # would be a degree-4 polynomial with derivative c x(x-1)(x-lam),
        # which only integrates when 1 + lam = 0; so the census finds no
        # maps except at lam = -1, where a whole translate family appears
        # (one member per element of the field)
        for lam in (3, 4, 5, 6, 7, 8):
            report = count_maps_bruteforce(
                4,
                [(ProjPoint.infinity(F9), 4), (ProjPoint(F9, 0), 2),
                 (ProjPoint(F9, 1), 2), (ProjPoint(F9, lam), 2)],
                F9)
            assert report.separable == 0, lam
        special = count_maps_bruteforce(
            4,
            [(ProjPoint.infinity(F9), 4), (ProjPoint(F9, 0), 2),
             (ProjPoint(F9, 1), 2), (ProjPoint(F9, 2), 2)],
            F9)
        assert special.separable == 9

    def test_wild_order_census_is_empty(self):
        # an order divisible by p admits no separable map at all: the
        # census over F9 confirms the Riemann-Hurwitz exclusion empirically
        report = count_maps_bruteforce(
            4,
            [(ProjPoint(F9, 0), 2), (ProjPoint(F9, 1), 2),
             (ProjPoint(F9, 2), 2), (ProjPoint(F9, 3), 2),
             (ProjPoint.infinity(F9), 3)],
            F9)
        assert report.separable == 0
        assert report.inseparable == report.total >= 1

    def test_involution_of_census_witness(self):
        # trade a witness's orders (2, 2) at two finite points for (5, 5);
        # the other assigned orders and the Riemann-Hurwitz total must hold
        from ramcount.ratmap import different_divisor, involution_transform, ram_index
        F7 = finite_field(7)
        report = count_maps_bruteforce(3, _four_simple_points(F7, 3), F7)
        assert report.separable == 1
        witness = report.witnesses[0][1]
        hat = involution_transform(witness, 0, 1)
        assert hat.degree == 3 + 7 - 2 - 2
        assert ram_index(hat, 0) == 5
        assert ram_index(hat, 1) == 5
        assert ram_index(hat, ProjPoint.infinity(F7)) == 2
        assert ram_index(hat, 3) == 2
        assert different_divisor(hat).total == 2 * 6 - 2


class TestSamplePoints:
    def test_deterministic(self):
        a = sample_general_points(4, F25, seed=1)
        b = sample_general_points(4, F25, seed=1)
        assert a == b
        assert len(set(a)) == 4

    def test_distinct(self):
        pts = sample_general_points(5, finite_field(3, 3), seed=7)
        assert len(set(pts)) == 5

    def test_too_small(self):
        with pytest.raises(ValueError):
            sample_general_points(4, F3, seed=1)
