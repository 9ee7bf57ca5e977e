import itertools
import random
from collections import Counter
from itertools import accumulate

import pytest

from ramcount.counting import (
    INFINITY,
    UNKNOWN,
    CharClass,
    _recursion_steps,
    involution_reduce,
    n_four_closed,
    n_gen,
    n_gen_recursive,
    n_three,
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


class TestValidate:
    def test_high(self):
        prof = validate_profile((2, 2, 3), 7)
        assert prof.d == 3 and prof.char_class is CharClass.HIGH

    def test_mid(self):
        prof = validate_profile((2, 2, 2, 2), 3)
        assert prof.d == 3 and prof.char_class is CharClass.MID

    def test_low(self):
        prof = validate_profile((2, 2, 5, 5), 3)
        assert prof.char_class is CharClass.LOW

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
        prof = validate_profile((3, 3, 1), 3)
        assert prof.wild == (3, 3)
        assert n_gen_recursive(prof).value == 0

    def test_oversized_flag(self):
        prof = validate_profile((2, 2, 5), 7)  # d = 4 < 5
        assert prof.oversized == (5,)
        assert n_gen_recursive(prof).value == 0

    def test_infinity(self):
        prof = validate_profile((2, 2, 3), INFINITY)
        assert prof.char_class is CharClass.HIGH


class TestThreePoint:
    def test_high_is_one(self):
        assert n_three(2, 2, 3, 5).value == 1

    def test_at_or_below_degree_is_zero(self):
        assert n_three(2, 2, 3, 3).value == 0

    def test_degenerate_monomial(self):
        assert n_three(1, 2, 2, 5).value == 1

    def test_parity_invalid(self):
        res = n_three(2, 2, 2, 5)
        assert res.value == 0 and "odd" in res.reason

    def test_low_tame_unknown(self):
        # (5, 5, 1) at p = 3: x^5 is a separable witness, the formula would
        # wrongly say 0, so the low range reports UNKNOWN
        assert n_three(5, 5, 1, 3).value == UNKNOWN

    def test_wild_zero(self):
        assert n_three(3, 3, 1, 3).value == 0

    @pytest.mark.parametrize("p", [3, 5, 7, INFINITY])
    def test_agrees_with_n_gen(self, p):
        checked = 0
        for orders in itertools.product(range(1, 9), repeat=3):
            if sum(e - 1 for e in orders) % 2:
                continue
            got, want = n_three(*orders, p), n_gen(orders, p)
            assert (got.value, got.char_class, got.reason) == \
                (want.value, want.char_class, want.reason), orders
            profile = validate_profile(orders, p)
            if not profile.forced_zero and profile.char_class is not CharClass.LOW:
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
                prof = validate_profile(orders, p)
                if prof.char_class is CharClass.LOW or prof.forced_zero:
                    continue
                base = n_gen_recursive(prof).value
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
        counts = {n_gen(orders, p).value}
        for _ in range(5):
            rng.shuffle(orders)
            counts.add(_oracle_ngen(tuple(orders), p))
        assert len(counts) == 1
        if prof.char_class is CharClass.HIGH:
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
            got = n_gen_recursive(profile).value
            if profile.oversized:
                assert got == 0
                seen["oversized"] += 1
                continue
            assert got == _oracle_ngen(profile.orders, p), (profile.orders, p)
            seen[profile.char_class] += 1
            seen["p = d"] += p == profile.d
            seen["order 1"] += 1 in profile.orders
            if profile.char_class is CharClass.MID:
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
            if profile.oversized:
                continue
            got = n_gen_recursive(profile).value
            assert got == _oracle_ngen(profile.orders, p), (profile.orders, p)
            folded += got < intersection_number(profile.d, profile.orders)
        assert folded >= 100


class TestFourClosed:
    def test_example_values(self):
        assert n_four_closed(2, 2, 2, 2, 3).value == 1
        assert n_four_closed(2, 2, 2, 2, 7).value == 2
        assert n_four_closed(2, 3, 3, 4, 5).value == 1

    def test_infinity(self):
        assert n_four_closed(2, 2, 3, 3, INFINITY).value == 2

    def test_out_of_hypotheses(self):
        assert n_four_closed(2, 2, 5, 5, 3).value == UNKNOWN

    def test_oversized_gives_zero(self):
        # formula self-clamps when some e_i > d
        res = n_four_closed(1, 1, 2, 6, 7)  # d = 4 < 6
        assert res.value == 0


class TestInvolutionReduce:
    def test_example(self):
        prof = validate_profile((2, 2, 2, 2), 5)
        red = involution_reduce(prof, 0, 1)
        assert red.orders == (3, 3, 2, 2)
        assert red.d == 4

    def test_twice_restores(self):
        prof = validate_profile((2, 3, 3, 4), 7)
        red = involution_reduce(involution_reduce(prof, 1, 3), 1, 3)
        assert red.orders == prof.orders and red.d == prof.d

    def test_count_invariance_small(self):
        for orders in _sorted_profiles(4, 6):
            for p in (5, 7, 11):
                prof = validate_profile(orders, p)
                if prof.char_class is CharClass.LOW or prof.forced_zero:
                    continue
                base = n_gen_recursive(prof).value
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
