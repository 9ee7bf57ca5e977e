import itertools
import math
import random

import pytest

from ramcount.schubert import intersection_number, pieri_multiply


def _oracle_pieri_multiply(class_sum, e, d):
    """The Pieri rule term by term over a dict of classes."""
    if not 1 <= e <= d:
        raise ValueError(f"order e = {e} outside 1..d")
    out = {}
    step = e - 1
    for (a, b), coeff in class_sum.items():
        assert d - 1 >= a >= b >= 0
        target = a + b + step
        for bp in range(b, a + 1):
            ap = target - bp
            if ap < a or ap > d - 1 or ap < bp:
                continue
            out[(ap, bp)] = out.get((ap, bp), 0) + coeff
    return out


def _oracle_expansion(d, orders):
    acc = {(0, 0): 1}
    for e in orders:
        acc = _oracle_pieri_multiply(acc, e, d)
        if not acc:
            break
    return acc.get((d - 1, d - 1), 0), acc


def _profiles(d_max):
    """Every multiset of orders 2..d with sum(e - 1) = 2(d - 1), d <= d_max."""
    for d in range(2, d_max + 1):
        def parts(total, largest):
            if total == 0:
                yield ()
                return
            for e in range(min(largest, total + 1), 1, -1):
                for rest in parts(total - (e - 1), e):
                    yield (e,) + rest
        for orders in parts(2 * (d - 1), d):
            yield d, orders


class TestPieri:
    def test_identity_class(self):
        assert pieri_multiply({(0, 0): 1}, 2, 3) == {(1, 0): 1}

    def test_sigma1_squared(self):
        assert pieri_multiply({(1, 0): 1}, 2, 3) == {(2, 0): 1, (1, 1): 1}

    def test_sigma11_times_sigma2_vanishes(self):
        # no admissible (a', b'): b' is pinned to 1 and a' = 3 leaves the box
        assert pieri_multiply({(1, 1): 1}, 3, 3) == {}

    def test_out_of_range_order(self):
        with pytest.raises(ValueError):
            pieri_multiply({(0, 0): 1}, 5, 3)

    def test_duality_pairing(self):
        # complementary classes pair to delta: sigma_(a,b) . sigma_(d-1-b,d-1-a)
        for d in (3, 4, 5):
            classes = [(a, b) for a in range(d) for b in range(a + 1)]
            for (a, b) in classes:
                for (c, e) in classes:
                    if a + b + c + e != 2 * (d - 1):
                        continue
                    acc = {(a, b): 1}
                    # multiply by sigma_(c,e) via its expansion into specials:
                    # only check the special case e = 0 directly
                    if e != 0:
                        continue
                    acc = pieri_multiply(acc, c + 1, d)
                    expected = 1 if (c, 0) == (d - 1 - b, d - 1 - a) else 0
                    assert acc.get((d - 1, d - 1), 0) == expected


class TestIntersectionNumber:
    def test_three_point_always_one(self):
        for d in range(1, 7):
            for orders in itertools.combinations_with_replacement(range(1, d + 1), 3):
                if sum(e - 1 for e in orders) != 2 * (d - 1):
                    continue
                assert intersection_number(d, orders) == 1

    def test_four_simple(self):
        assert intersection_number(3, (2, 2, 2, 2)) == 2

    def test_two_two_three_three(self):
        assert intersection_number(4, (2, 2, 3, 3)) == 2

    def test_five_point(self):
        assert intersection_number(4, (2, 2, 2, 2, 3)) == 3

    def test_all_simple_points_are_catalan(self):
        # 2d-2 simple conditions compute the Pluecker degree of the
        # Grassmannian of pencils, which is the Catalan number C_{d-1}
        for d in [*range(2, 8), 450, 3000]:
            catalan = math.comb(2 * (d - 1), d - 1) // d
            assert intersection_number(d, (2,) * (2 * d - 2)) == catalan

    def test_codimension_mismatch(self):
        with pytest.raises(ValueError):
            intersection_number(3, (2, 2, 2))

    def test_order_independence(self):
        rng = random.Random(2)
        profiles = [(2, 2, 3, 3), (2, 2, 2, 2, 3), (2, 3, 3, 4), (2, 2, 2, 2, 3, 3)]
        for orders in profiles:
            d = 1 + sum(e - 1 for e in orders) // 2
            base = intersection_number(d, orders)
            for _ in range(5):
                shuffled = list(orders)
                rng.shuffle(shuffled)
                # the series reads a multiset; the Pieri product runs in order
                assert _oracle_expansion(d, shuffled)[0] == base


class TestAgainstOracle:
    def test_pieri_multiply_mixed_degree_sums(self):
        rng = random.Random(3)
        for d in range(1, 9):
            classes = [(a, b) for a in range(d) for b in range(a + 1)]
            for _ in range(40):
                picked = rng.sample(classes, rng.randint(1, len(classes)))
                class_sum = {cls: rng.randint(1, 9) for cls in picked}
                e = rng.randint(1, d)
                assert pieri_multiply(class_sum, e, d) == \
                    _oracle_pieri_multiply(class_sum, e, d), (class_sum, e, d)

    def test_pieri_multiply_signed_sums_keep_nonzero_terms(self):
        rng = random.Random(4)
        for d in range(2, 8):
            classes = [(a, b) for a in range(d) for b in range(a + 1)]
            for _ in range(40):
                class_sum = {cls: rng.randint(-2, 2) for cls in classes}
                e = rng.randint(1, d)
                expected = {cls: c for cls, c in
                            _oracle_pieri_multiply(class_sum, e, d).items() if c}
                assert pieri_multiply(class_sum, e, d) == expected

    def test_pieri_multiply_rejects_classes_outside_the_box(self):
        with pytest.raises(ValueError):
            pieri_multiply({(3, 0): 1}, 2, 3)
        with pytest.raises(ValueError):
            pieri_multiply({(0, 1): 1}, 2, 3)

    def test_full_expansion_every_profile_up_to_d8(self):
        rng = random.Random(6)
        checked = 0
        for d, orders in _profiles(8):
            variants = [orders, orders + (1,)]
            for _ in range(3):
                shuffled = list(orders + (1,))
                rng.shuffle(shuffled)
                variants.append(tuple(shuffled))
            for variant in variants:
                _, expansion = _oracle_expansion(d, variant)
                assert expansion == \
                    {(d - 1, d - 1): intersection_number(d, variant)}, variant
                checked += 1
        assert checked > 1000

    def test_random_profiles_up_to_d80(self):
        rng = random.Random(7)
        for _ in range(300):
            d = rng.randint(2, 80)
            orders, left = [], 2 * (d - 1)
            while left:
                # three draws in four are 2 or 3, so small orders repeat
                e = rng.randint(2, min(d, rng.choice((3, 3, 3, d)), left + 1))
                orders.append(e)
                left -= e - 1
            orders += [1] * rng.randint(0, 3)
            rng.shuffle(orders)
            expected, _ = _oracle_expansion(d, orders)
            product = {(0, 0): 1}
            for e in orders:
                product = pieri_multiply(product, e, d)
            assert product == {(d - 1, d - 1): expected}, (d, orders)
            assert intersection_number(d, orders) == expected, (d, orders)
