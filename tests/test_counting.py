import itertools
import random

import pytest

from ramcount.counting import (
    INFINITY,
    UNKNOWN,
    CharClass,
    involution_reduce,
    n_four_closed,
    n_gen,
    n_gen_recursive,
    n_three,
    validate_profile,
)
from ramcount.schubert import intersection_number


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
        from ramcount.schubert import intersection_number
        for n in (7, 8):
            for orders in itertools.combinations_with_replacement(range(1, 7), n):
                total = sum(e - 1 for e in orders)
                if total % 2 or total == 0:
                    continue
                d = 1 + total // 2
                if d > 6 or any(e > d for e in orders):
                    continue
                assert n_gen(orders, INFINITY).value == \
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
            vals = {n_gen(orders, p).value
                    for p in [q for q in (5, 7, 11, 13, 17, 19, 23) if q > d]}
            vals.add(n_gen(orders, INFINITY).value)
            assert len(vals) == 1


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
                    assert n_gen(perm, p).value == base

    @pytest.mark.parametrize("p", [7, 11, INFINITY])
    def test_deep_permutation_invariance(self, p):
        # orders are merged in the order given, so each shuffle walks a
        # different recursion; the HIGH counts are also Pieri numbers
        rng = random.Random(5)
        orders = [2] * 41 + [3, 4]  # 41: sum(e - 1) must be even
        prof = validate_profile(orders, p)
        counts = set()
        for _ in range(5):
            rng.shuffle(orders)
            counts.add(n_gen(orders, p).value)
        assert len(counts) == 1
        if prof.char_class is CharClass.HIGH:
            assert counts == {intersection_number(prof.d, orders)}


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
