import dataclasses
import itertools
import json
import math
import random
from collections import Counter
from itertools import accumulate

import pytest

from ramcount import counting
from ramcount.cli import run_argv
from ramcount.counting import (
    INFINITY,
    UNKNOWN,
    WILD_REASON,
    CharClass,
    RamProfile,
    _recursion_steps,
    involution_reduce,
    n_four_closed,
    n_gen,
    n_gen_cells,
    n_gen_recursive,
    validate_profile,
)
from ramcount.schubert import intersection_number


def _oracle_three_point(e1, e2, e3, p):
    """Closed form for a structurally valid MID/HIGH triple: 1 iff p > d."""
    d = (e1 + e2 + e3 - 1) // 2
    return 1 if (p == INFINITY or p > d) else 0


def _oracle_ngen(orders, p):
    """The paper's degeneration recursion on validated MID/HIGH data,
    merging the last two orders first.  After the merges down to k orders
    an instance is orders[:k-1] + (e,), so {e: number of merge paths} is the
    whole state.  Each shuffle of the orders walks a different recursion."""
    excess = [0, *accumulate(x - 1 for x in orders)]  # sum(x - 1) of orders[:i]
    largest = [0, *accumulate(orders, max)]            # max of orders[:i]
    states = {orders[-1]: 1}
    for k in range(len(orders), 3, -1):
        en1 = orders[k - 2]
        rest_excess, rest_max = excess[k - 2], largest[k - 2]
        merged = {}
        for en, weight in states.items():
            d = 1 + (excess[k - 1] + en - 1) // 2
            for dp, e in _recursion_steps(d, en1, en, p):
                assert 1 + (rest_excess + e - 1) // 2 == dp
                top = max(rest_max, e)
                if top > dp:
                    continue  # no valid instance: no contribution to the sum
                assert p == INFINITY or p > dp or top < p, \
                    "recursion left the mid/high range"
                merged[e] = merged.get(e, 0) + weight
        states = merged
    head = ((1, 1) + orders[:min(len(orders), 3) - 1])[-2:]  # padded with 1s
    return sum(weight * _oracle_three_point(*head, e, p)
               for e, weight in states.items())


def _random_profile(rng, p, n):
    """n orders in 1..p-1 with sum(e - 1) even (the last one is bumped)."""
    orders = [rng.randint(1, p - 1) for _ in range(n)]
    if sum(e - 1 for e in orders) % 2:
        orders[-1] += 1 if orders[-1] < p - 1 else -1
    return orders


OVERSIZED_REASON = "invalid instance: some e_i exceeds d"


class TestValidate:
    def test_fields_are_the_input(self):
        # the class and the wild and oversized orders are the count's, not
        # the profile's
        assert [f.name for f in dataclasses.fields(RamProfile)] == ["p", "orders", "d"]
        prof = validate_profile(["2", 2, 3.0], 7)
        assert (prof.p, prof.orders, prof.d, prof.n) == (7, (2, 2, 3), 3, 3)

    def test_high(self):
        prof = validate_profile((2, 2, 3), 7)
        assert prof.d == 3 and n_gen_recursive(prof).char_class is CharClass.HIGH

    def test_mid(self):
        prof = validate_profile((2, 2, 2, 2), 3)
        assert prof.d == 3 and n_gen_recursive(prof).char_class is CharClass.MID

    def test_low(self):
        prof = validate_profile((2, 2, 5, 5), 3)
        assert n_gen_recursive(prof).char_class is CharClass.LOW

    def test_class_at_the_boundaries(self):
        # p = d + 1 is HIGH; at p = d orders below p are MID, and an order
        # equal to p is wild, which is LOW
        assert n_gen((2,) * 6, 5).char_class is CharClass.HIGH  # d = 4
        assert n_gen((2,) * 8, 5).char_class is CharClass.MID   # d = 5
        assert n_gen((5, 5, 1), 5).char_class is CharClass.LOW  # d = 5

    @pytest.mark.parametrize("orders, p, message", [
        ((), 5, "orders must be nonempty"),
        ((0, 2, 2, 2), 5, "every ramification order must be >= 1"),
        ((2, 2, 3), 2, "p must be a prime >= 3 or INFINITY, got 2"),
        ((2, 2, 3), 9, "p must be a prime >= 3 or INFINITY, got 9"),
        ((2, 2, 3), 7.0, "p must be a prime >= 3 or INFINITY, got 7.0"),
        ((2, 2, 2), 5, "sum of (e_i - 1) = 3 is odd; no integer degree")])
    def test_error_messages(self, orders, p, message):
        with pytest.raises(ValueError) as info:
            validate_profile(orders, p)
        assert str(info.value) == message

    def test_parity_error(self):
        with pytest.raises(ValueError):
            validate_profile((2, 2, 2), 5)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            validate_profile((), 5)

    def test_p2_error(self):
        with pytest.raises(ValueError):
            validate_profile((2, 2, 3), 2)

    def test_wild_flag(self):
        res = n_gen((3, 3, 1), 3)
        assert (res.value, res.char_class, res.reason) == (0, CharClass.LOW, WILD_REASON)

    def test_oversized_flag(self):
        res = n_gen((2, 2, 5), 7)  # d = 4 < 5
        assert (res.value, res.char_class, res.reason) == \
            (0, CharClass.HIGH, OVERSIZED_REASON)

    def test_infinity(self):
        prof = validate_profile((2, 2, 3), INFINITY)
        assert n_gen_recursive(prof).char_class is CharClass.HIGH


class TestThreePoint:
    def test_high_is_one(self):
        assert n_gen((2, 2, 3), 5).value == 1

    def test_at_or_below_degree_is_zero(self):
        assert n_gen((2, 2, 3), 3).value == 0

    def test_degenerate_monomial(self):
        assert n_gen((1, 2, 2), 5).value == 1

    def test_parity_invalid(self):
        with pytest.raises(ValueError, match="odd"):
            n_gen((2, 2, 2), 5)

    def test_low_tame_unknown(self):
        # (5, 5, 1) at p = 3: x^5 is a separable witness, the formula would
        # wrongly say 0, so the low range reports UNKNOWN
        assert n_gen((5, 5, 1), 3).value == UNKNOWN

    def test_wild_zero(self):
        assert n_gen((3, 3, 1), 3).value == 0

    @pytest.mark.parametrize("p", [3, 5, 7, INFINITY])
    def test_agrees_with_n_gen(self, p):
        checked = 0
        for orders in itertools.product(range(1, 9), repeat=3):
            if sum(e - 1 for e in orders) % 2:
                continue
            d = 1 + sum(e - 1 for e in orders) // 2
            got = n_gen(orders, p)
            if p != INFINITY and any(e % p == 0 for e in orders):
                assert (got.value, got.reason) == (0, WILD_REASON), orders
            elif max(orders) > d:
                assert (got.value, got.reason) == (0, OVERSIZED_REASON), orders
            elif got.char_class is CharClass.LOW:
                assert got.value == UNKNOWN, orders
            else:
                assert got.value == _oracle_three_point(*orders, p), orders
            checked += 1
        assert checked == 256


class TestRecursion:
    @pytest.mark.parametrize("p,expected", [(3, 1), (5, 2), (INFINITY, 2)])
    def test_four_simple_points(self, p, expected):
        assert n_gen((2, 2, 2, 2), p).value == expected

    def test_two_two_three_three_char0(self):
        assert n_gen((2, 2, 3, 3), INFINITY).value == 2

    def test_mixed_four(self):
        assert n_gen((2, 3, 3, 4), 5).value == 1

    def test_five_points_char0(self):
        assert n_gen((2, 2, 2, 2, 3), INFINITY).value == 3

    def test_low_unknown(self):
        assert n_gen((2, 2, 5, 5), 3).value == UNKNOWN

    def test_trace_schema(self):
        res = n_gen((2, 2, 2, 2), 5)
        assert res.trace == ((2, 1), (3, 3))
        payload = res.to_json(validate_profile((2, 2, 2, 2), 5))
        assert payload["count"] == 2
        assert payload["trace"] == [{"dprime": 2, "e": 1}, {"dprime": 3, "e": 3}]
        assert payload["p"] == 5
        # no series is read for a wild, oversized or LOW profile: no trace
        for orders, p in [((3, 3, 3, 3), 3), ((2, 2, 2, 6), INFINITY),
                          ((2, 2, 5, 5), 3)]:
            res = n_gen(orders, p)
            assert res.reason and res.trace == (), (orders, p)

    def test_degenerate_orders_inside(self):
        # order-1 entries are legitimate degenerate conditions
        assert n_gen((1, 2, 2, 3), INFINITY).value == 1

    def test_all_simple_char0_matches_catalan(self):
        import math
        for d in (2, 3, 4, 5):
            catalan = math.comb(2 * (d - 1), d - 1) // d
            assert n_gen((2,) * (2 * d - 2), INFINITY).value == catalan

    def test_recursion_matches_pieri_up_to_eight_points(self):
        for n in (7, 8):
            for orders in itertools.combinations_with_replacement(range(1, 7), n):
                total = sum(e - 1 for e in orders)
                if total % 2 or total == 0:
                    continue
                d = 1 + total // 2
                if d > 6 or any(e > d for e in orders):
                    continue
                assert _oracle_ngen(orders, INFINITY) == \
                    intersection_number(d, orders), orders

    def test_five_point_mid_via_involution_chain(self):
        # (3,3,3,3,3) at p = 5 is MID; two pair replacements walk it to
        # (2,2,2,2,3), which is HIGH and equals the intersection number 3
        assert n_gen((2, 2, 2, 2, 3), 5).value == 3
        assert n_gen((2, 2, 3, 3, 3), 5).value == 3
        assert n_gen((3, 3, 3, 3, 3), 5).value == 3

    def test_high_range_p_independent(self):
        for orders in [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 3, 4), (2, 2, 2, 2, 3)]:
            d = 1 + sum(e - 1 for e in orders) // 2
            vals = {_oracle_ngen(orders, p)
                    for p in [q for q in (5, 7, 11, 13, 17, 19, 23) if q > d]}
            vals.add(_oracle_ngen(orders, INFINITY))
            assert vals == {n_gen(orders, INFINITY).value}


def _clebsch_gordan(a, b, k):
    """The labels c with V_c in V_a (x) V_b for sl_2: |a - b| to a + b in
    steps of 2, cut at 2k - a - b at level k (Gepner-Witten 1986)."""
    top = a + b if k == INFINITY else min(a + b, 2 * k - a - b)
    return list(range(abs(a - b), top + 1, 2))


def _oracle_fusion(orders, p):
    """The third oracle: the multiplicity of V_0 in the level-(p - 2) fusion
    product of the V_(e - 1), by iterated truncated Clebsch-Gordan passes
    over the labels 0..p - 2."""
    multiplicity = {0: 1}
    for e in orders:
        product = Counter()
        for a, m in multiplicity.items():
            for c in _clebsch_gordan(a, e - 1, p - 2):
                product[c] += m
        multiplicity = product
    return multiplicity[0]


class TestFusionRule:
    """The first link from the recursion to the fold: one merge of orders
    e, e' yields exactly the level-(p - 2) Clebsch-Gordan labels of
    a = e - 1 and b = e' - 1, whatever the degree.  The last test checks the
    whole chain on samples: the fusion product's V_0 multiplicity is the
    fold."""

    def test_recursion_steps_are_level_p_minus_2_clebsch_gordan(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):  # every odd prime <= 31
            for a, b in itertools.product(range(p - 1), repeat=2):
                for d in (max(a, b) + 1, a + b + 1, 2 * p):
                    labels = [e - 1 for _, e in _recursion_steps(d, a + 1, b + 1, p)]
                    assert labels == _clebsch_gordan(a, b, p - 2), (p, a, b, d)

    def test_characteristic_zero_has_no_level(self):
        for a, b in itertools.product(range(40), repeat=2):
            for d in (max(a, b) + 1, a + b + 1, 100):
                labels = [e - 1 for _, e in _recursion_steps(d, a + 1, b + 1, INFINITY)]
                assert labels == _clebsch_gordan(a, b, INFINITY), (a, b, d)

    def test_fusion_product_is_the_fold(self):
        # 8,000 profiles of 3-9 orders in 1..p-1, p <= 13; the MID ones are
        # where the level cut changes the count
        rng = random.Random(13)
        mid = 0
        for _ in range(8_000):
            p = rng.choice((3, 5, 7, 11, 13))
            profile = validate_profile(_random_profile(rng, p, rng.randint(3, 9)), p)
            result = n_gen_recursive(profile)
            assert _oracle_fusion(profile.orders, p) == result.value, \
                (profile.orders, p)
            mid += result.char_class is CharClass.MID
        assert mid >= 5_000


def _verlinde_terms(orders, p):
    """The terms of the Verlinde formula for sl_2 at level p - 2 (Verlinde,
    *Nucl. Phys. B* 300, 1988), the fusion multiplicity of V_0:
    N = (2/p) sum_{l=1}^{p-1} sin(pi l/p)^(2-n) prod_i sin(pi e_i l/p).
    Each term as (sign, log of its size), since the terms of a long profile
    overflow a double."""
    terms = []
    for l in range(1, p):
        sign, log = 1, (2 - len(orders)) * math.log(math.sin(math.pi * l / p))
        for e, k in Counter(orders).items():
            s = math.sin(math.pi * e * l / p)  # nonzero: p divides no e * l
            sign *= (-1) ** k if s < 0 else 1
            log += k * math.log(abs(s))
        terms.append((sign, log))
    return terms


def _verlinde_log10(orders, p):
    """log10 of the Verlinde sum, with its largest term factored out."""
    terms = _verlinde_terms(orders, p)
    top = max(log for _, log in terms)
    rest = sum(sign * math.exp(log - top) for sign, log in terms)
    return math.log10(2 / p) + top / math.log(10) + math.log10(rest)


class TestVerlinde:
    """The fold as a sum over the p - 1 characters of level p - 2, in
    floating point: an oracle that reaches counts no recursion can."""

    def test_small_profiles(self):
        # 2,000 profiles of 3-9 orders in 1..p-1, p <= 13: the rounded sum
        rng = random.Random(17)
        checked = Counter()
        for _ in range(2_000):
            p = rng.choice((3, 5, 7, 11, 13))
            profile = validate_profile(_random_profile(rng, p, rng.randint(3, 9)), p)
            result = n_gen_recursive(profile)
            if result.reason:  # wild, oversized or LOW
                continue
            value = 2 / p * sum(sign * math.exp(log)
                                for sign, log in _verlinde_terms(profile.orders, p))
            assert round(value) == result.value, (profile.orders, p)
            checked[result.char_class] += 1
        assert sum(checked.values()) >= 1_000 and min(checked.values()) >= 100, checked

    @pytest.mark.parametrize("n, p", [(4000, 7), (3000, 11), (5000, 5)])
    def test_long_profiles(self, n, p):
        # about a thousand digits, from hundreds of wraps and reflections:
        # within 10^-8 in log10, and exactly the fusion multiplicity
        count = n_gen((2,) * n, p).value
        assert abs(_verlinde_log10((2,) * n, p) - math.log10(count)) < 1e-8
        assert count == _oracle_fusion((2,) * n, p)

    def test_simple_points_at_five_are_fibonacci(self):
        # at level 3 the fundamental's fusion powers give V_0 with
        # multiplicity F_(n-1): N_gen((2,)*n, 5) is the Fibonacci number
        fib = [0, 1]
        for n in range(4, 401, 2):
            while len(fib) < n:
                fib.append(fib[-1] + fib[-2])
            assert n_gen((2,) * n, 5).value == fib[n - 1], n


def _sorted_profiles(n, d_max):
    out = []
    for orders in itertools.combinations_with_replacement(range(1, d_max + 1), n):
        total = sum(e - 1 for e in orders)
        if total % 2 or total == 0 and n > 1:
            continue
        d = 1 + total // 2
        if d > d_max or any(e > d for e in orders):
            continue
        out.append(orders)
    return out


class TestSymmetry:
    def test_permutation_invariance(self):
        # the count reads the orders as a multiset; the recursion merges them
        # in the order given, so every permutation is a different recursion
        for orders in _sorted_profiles(4, 8) + _sorted_profiles(5, 6):
            for p in (3, 5, 7, 13, INFINITY):
                result = n_gen(orders, p)
                if result.reason:  # wild, oversized or LOW
                    continue
                base = result.value
                seen = set()
                for perm in itertools.permutations(orders):
                    if perm in seen:
                        continue
                    seen.add(perm)
                    assert _oracle_ngen(perm, p) == base, (perm, p)

    @pytest.mark.parametrize("p", [7, 11, INFINITY])
    def test_deep_permutation_invariance(self, p):
        # orders are merged in the order given, so each shuffle walks a
        # different recursion; the HIGH counts are also Pieri numbers
        rng = random.Random(5)
        orders = [2] * 41 + [3, 4]  # 41: sum(e - 1) must be even
        prof = validate_profile(orders, p)
        result = n_gen_recursive(prof)
        counts = {result.value}
        for _ in range(5):
            rng.shuffle(orders)
            counts.add(_oracle_ngen(tuple(orders), p))
        assert len(counts) == 1
        if result.char_class is CharClass.HIGH:
            assert counts == {intersection_number(prof.d, orders)}


class TestAgainstRecursion:
    def test_seeded_profiles(self):
        # 12,000 profiles of 3-9 orders in 1..p-1, p <= 13: order-1 entries
        # and orders above d (count 0) come up, and so does p = d, the first
        # degree at which the fold changes a count
        rng = random.Random(11)
        seen = Counter()
        for _ in range(12_000):
            p = rng.choice((3, 5, 7, 11, 13))
            profile = validate_profile(
                _random_profile(rng, p, rng.randint(3, 9)), p)
            result = n_gen_recursive(profile)
            got = result.value
            if max(profile.orders) > profile.d:
                assert (got, result.reason) == (0, OVERSIZED_REASON)
                seen["oversized"] += 1
                continue
            assert got == _oracle_ngen(profile.orders, p), (profile.orders, p)
            seen[result.char_class] += 1
            seen["p = d"] += p == profile.d
            seen["order 1"] += 1 in profile.orders
            if result.char_class is CharClass.MID:
                schubert = intersection_number(profile.d, profile.orders)
                assert got <= schubert, (profile.orders, p)
                seen["folded"] += got < schubert
        assert min(seen.values()) >= 300, seen

    def test_long_profiles(self):
        # up to 40 orders and p <= 31: deep recursions and several folds
        rng = random.Random(12)
        folded = 0
        for _ in range(150):
            p = rng.choice((3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
            profile = validate_profile(
                _random_profile(rng, p, rng.randint(10, 40)), p)
            result = n_gen_recursive(profile)
            if result.reason:  # orders below p: only an oversized one
                continue
            got = result.value
            assert got == _oracle_ngen(profile.orders, p), (profile.orders, p)
            folded += got < intersection_number(profile.d, profile.orders)
        assert folded >= 100

    def test_table(self):
        # the table's counts and its inf schubert column against the
        # recursion: its own match column at inf compares the series with
        # itself
        code, out = run_argv(["table", "--p", "3,5,7,11,13,inf", "--d", "8",
                              "--n-max", "5", "--format", "json"])
        assert code == 0
        seen = Counter()
        for row in json.loads(out)["rows"]:
            orders = tuple(map(int, row["orders"].split()))
            p = INFINITY if row["p"] == "inf" else int(row["p"])
            seen[row["class"]] += 1
            if row["class"] == "LOW":
                assert row["count"] == UNKNOWN or row["reason"] == "wild excluded", row
                continue
            assert row["count"] == _oracle_ngen(orders, p), row
            if p == INFINITY:
                assert row["schubert"] == _oracle_ngen(orders, INFINITY), row
                seen["inf"] += 1
        assert min(seen.values()) >= 80, seen  # every class and inf row


class TestCells:
    def test_primes_above_d_share_one_high_value(self, monkeypatch):
        # every p > d reads the unfolded series, so 11, 13 and inf at d = 4
        # give one HIGH count, the recursion's, from one dot product
        dots, dot = [], counting._series_dot

        def record(*args):
            dots.append(args)
            return dot(*args)
        monkeypatch.setattr(counting, "_series_dot", record)
        orders = (2,) * 6
        [(part, cells)] = n_gen_cells([orders], 4, [11, 13, INFINITY])
        assert part == orders
        assert cells == [(CharClass.HIGH, _oracle_ngen(orders, INFINITY), "")] * 3
        assert cells[0][1] == 5 and len(dots) == 1


class TestFourClosed:
    def test_example_values(self):
        assert n_four_closed(2, 2, 2, 2, 3).value == 1
        assert n_four_closed(2, 2, 2, 2, 7).value == 2
        assert n_four_closed(2, 3, 3, 4, 5).value == 1

    def test_infinity(self):
        assert n_four_closed(2, 2, 3, 3, INFINITY).value == 2

    def test_out_of_hypotheses(self):
        assert n_four_closed(2, 2, 5, 5, 3).value == UNKNOWN
        # every e_i = p: the formula's value would be max(0, 3 - 3) = 0
        res = n_four_closed(3, 3, 3, 3, 3)
        assert res.value == UNKNOWN
        assert res.reason == "closed form requires all e_i < p"

    def test_oversized_gives_zero(self):
        # formula self-clamps when some e_i > d
        res = n_four_closed(1, 1, 2, 6, 7)  # d = 4 < 6
        assert res.value == 0

    def test_agrees_with_n_gen(self):
        # every four-point profile of degree <= 10: the same class, and
        # where n_gen counts by the series the same value.  Either term of
        # the bound can bind: (2, 3, 3, 6) at d = 6 by d + 1 - e, (2, 4, 4, 4)
        # by e
        checked = Counter()
        for orders in _sorted_profiles(4, 10):
            for p in (3, 5, 7, 11, 13, INFINITY):
                want, got = n_gen(orders, p), n_four_closed(*orders, p)
                assert got.char_class is want.char_class, (orders, p)
                checked[want.char_class] += 1
                if want.reason:  # wild or LOW: no value to compare
                    continue
                assert (got.value, got.reason) == (want.value, ""), (orders, p)
        assert min(checked.values()) >= 30, checked

    @pytest.mark.parametrize("orders, p, message", [
        ((2, 2, 2, 2), 2, "p must be a prime >= 3 or INFINITY, got 2"),
        ((2, 2, 2, 3), INFINITY, "sum of \\(e_i - 1\\) = 5 is odd")])
    def test_invalid_input_raises_as_n_gen_does(self, orders, p, message):
        with pytest.raises(ValueError, match=message):
            n_gen(orders, p)
        with pytest.raises(ValueError, match=message):
            n_four_closed(*orders, p)


class TestInvolutionReduce:
    def test_example(self):
        prof = validate_profile((2, 2, 2, 2), 5)
        red = involution_reduce(prof, 0, 1)
        assert red.orders == (3, 3, 2, 2)
        assert red.d == 4
        assert involution_reduce(prof, 1, 0).orders == (3, 3, 2, 2)

    def test_twice_restores(self):
        prof = validate_profile((2, 3, 3, 4), 7)
        red = involution_reduce(involution_reduce(prof, 1, 3), 1, 3)
        assert red.orders == prof.orders and red.d == prof.d

    def test_count_invariance_small(self):
        for orders in _sorted_profiles(4, 6):
            for p in (5, 7, 11):
                prof = validate_profile(orders, p)
                result = n_gen_recursive(prof)
                if result.reason:  # wild, oversized or LOW
                    continue
                base = result.value
                for i, j in itertools.combinations(range(4), 2):
                    red = involution_reduce(prof, i, j)
                    assert n_gen_recursive(red).value == base

    def test_order_at_least_p_rejected(self):
        prof = validate_profile((2, 2, 6, 6), 5)
        with pytest.raises(ValueError):
            involution_reduce(prof, 2, 3)

    def test_infinity_rejected(self):
        prof = validate_profile((2, 2, 2, 2), INFINITY)
        with pytest.raises(ValueError):
            involution_reduce(prof, 0, 1)

    @pytest.mark.parametrize("i,j,message", [(1, 1, "indices must be distinct"),
                                             (0, 4, "index out of range"),
                                             (-1, 2, "index out of range")])
    def test_bad_indices_rejected(self, i, j, message):
        prof = validate_profile((2, 2, 2, 2), 5)
        with pytest.raises(ValueError, match=message):
            involution_reduce(prof, i, j)
