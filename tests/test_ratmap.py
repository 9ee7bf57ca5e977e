import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ramcount.ratmap as ratmap
from ramcount import algebra
from ramcount.algebra import BudgetExceeded, Poly, finite_field, poly_gcd, poly_is_inseparable
from ramcount.pencil import Pencil
from ramcount.ratmap import (
    Divisor,
    InseparableMapError,
    ProjPoint,
    RatMap,
    WildRamificationError,
    different_divisor,
    involution_transform,
    is_separable,
    mobius_act,
    mobius_apply,
    ram_index,
    ramification_profile,
    wronskian,
    wronskian_divisor,
)

F3 = finite_field(3)
F5 = finite_field(5)
F9 = finite_field(3, 2)


def P(field, *coeffs):
    return Poly.from_ints(field, coeffs)


def pencil_of(f):
    """The map's pencil <F, G>: f modulo automorphism of the image."""
    return Pencil.from_polys(f.F, f.G, f.degree)


def solver_map():
    # (x^3 + 2x^2) / (2x + 1) over F5: orders 2, 2, 3 at 0, inf, 1
    return RatMap(P(F5, 0, 0, 2, 1), P(F5, 1, 2))


class TestConstruction:
    def test_common_factor_cancelled(self):
        m, base = RatMap.new(P(F5, 0, 0, 0, 1), P(F5, 0, 1))
        assert m.F == P(F5, 0, 0, 1) and m.G == P(F5, 1)
        assert base == Divisor({ProjPoint(F5, 0): 1})

    def test_coprime_untouched(self):
        m, base = RatMap.new(P(F5, 0, 0, 2, 1), P(F5, 1, 2))
        assert base.total == 0
        assert m.degree == 3

    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            RatMap.new(Poly.zero(F5), Poly.zero(F5))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            RatMap.new(P(F5, 3), P(F5, 1))

    def test_new_runs_one_gcd_and_lift_none(self, monkeypatch):
        calls = []
        gcd = ratmap.poly_gcd
        monkeypatch.setattr(ratmap, "poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        m, base = RatMap.new(P(F5, 0, 0, 2, 1).scale(3), P(F5, 1, 2).scale(3))
        assert len(calls) == 1 and base.total == 0
        F25 = finite_field(5, 2)
        lifted = m.lift(F25)
        assert len(calls) == 1
        assert lifted == RatMap(m.F.over(F25), m.G.over(F25))
        assert lifted.F.leading() == 1

    def test_reduce_returns_the_monic_common_factor(self):
        h = P(F5, 1, 1, 0, 1)  # x^3 + x + 1, irreducible over F_5
        m, g = RatMap.reduce((h * P(F5, 0, 1)).scale(2), h.scale(4))
        assert g == h and m == RatMap(P(F5, 0, 1), P(F5, 2))
        with pytest.raises(ValueError, match="use RatMap.new"):
            RatMap(h * P(F5, 0, 1), h)
        with pytest.raises(ValueError, match="constant maps"):
            RatMap.reduce(h.scale(2), h)

    def test_scalar_normalisation(self):
        a = RatMap(P(F5, 0, 0, 1).scale(3), P(F5, 1, 1).scale(3))
        b = RatMap(P(F5, 0, 0, 1), P(F5, 1, 1))
        assert a == b

    def test_string_roundtrip(self):
        m = solver_map()
        assert RatMap.from_string(F5, m.to_string()) == m


class TestWronskian:
    def test_square(self):
        assert wronskian(RatMap(P(F5, 0, 0, 1), P(F5, 1))) == P(F5, 0, 2)

    def test_frobenius_vanishes(self):
        assert wronskian(RatMap(P(F3, 0, 0, 0, 1), P(F3, 1))).is_zero

    def test_solver_map(self):
        # hand computation: W = 4x^3 + 2x^2 + 4x = 4x(x-1)^2 over F5
        assert wronskian(solver_map()) == P(F5, 0, 4, 2, 4)

    def test_separability(self):
        assert is_separable(RatMap(P(F5, 0, 0, 1), P(F5, 1)))
        assert not is_separable(RatMap(P(F3, 0, 0, 0, 1), P(F3, 1)))
        # t = 1 member of the x^{p+2} + t x^p + x family at p = 3
        assert is_separable(RatMap(P(F3, 0, 1, 0, 1, 0, 1), P(F3, 1)))

    def test_separability_iff_frobenius_pair(self):
        rng = random.Random(23)
        for _ in range(120):
            F = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
            G = Poly(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 6))])
            try:
                m, _ = RatMap.new(F, G)
            except ValueError:
                continue
            insep_pair = poly_is_inseparable(m.F) and poly_is_inseparable(m.G)
            assert is_separable(m) == (not insep_pair)


class TestRamIndex:
    def test_square_at_zero(self):
        assert ram_index(RatMap(P(F5, 0, 0, 1), P(F5, 1)), 0) == 2

    def test_solver_map_profile(self):
        m = solver_map()
        assert ram_index(m, 0) == 2
        assert ram_index(m, ProjPoint.infinity(F5)) == 2
        assert ram_index(m, 1) == 3

    def test_family_member_at_infinity(self):
        m = RatMap(P(F3, 0, 1, 0, 1, 0, 1), P(F3, 1))
        assert ram_index(m, ProjPoint.infinity(F3)) == 5

    def test_unramified(self):
        m = solver_map()
        assert ram_index(m, 3) == 1

    @pytest.mark.parametrize("text", ["12", "22"])
    def test_point_of_an_extension_field(self, text):
        # (x^2 + x^3)/(1 + 2x) over F_3 has order 2 at two conjugate points
        # of F_9; ram_index lifts the map to the point's field
        m = RatMap(P(F3, 0, 0, 1, 1), P(F3, 1, 2))
        pt = ProjPoint.parse(F9, text)
        assert ram_index(m, pt) == 2 == ram_index(m.lift(F9), pt)


class TestDifferent:
    def test_square(self):
        div = different_divisor(RatMap(P(F5, 0, 0, 1), P(F5, 1)))
        assert div == Divisor({ProjPoint(F5, 0): 1, ProjPoint.infinity(F5): 1})

    def test_solver_map(self):
        div = different_divisor(solver_map())
        assert div == Divisor({
            ProjPoint(F5, 0): 1,
            ProjPoint(F5, 1): 2,
            ProjPoint.infinity(F5): 1,
        })
        assert div.total == 4

    def test_quintic_splits_over_f9(self):
        m = RatMap(P(F3, 0, 1, 0, 1, 0, 1), P(F3, 1))
        div = different_divisor(m)
        assert div.total == 8
        inf_pts = [pt for pt in div.points() if pt.is_infinity]
        assert len(inf_pts) == 1 and div.multiplicity(inf_pts[0]) == 4
        finite = [(pt, mult) for pt, mult in div.items() if not pt.is_infinity]
        assert len(finite) == 4 and all(mult == 1 for _, mult in finite)
        assert all(pt.field == F9 for pt, _ in finite)

    def test_cubed_quadratic_class(self):
        # W = c (x^2 + 3x + 3)^3 over F_5: one distinct-degree class of
        # degree 2 and multiplicity 3, so both conjugate points of F_25
        # carry ord W = 3 and index 4
        m = RatMap(P(F5, 3, 0, 4, 1, 1), P(F5, 1, 1, 2, 1))
        w = wronskian(m)
        assert algebra._distinct_degree_parts(w) == [(2, 3, P(F5, 3, 3, 1))]
        div = different_divisor(m)
        assert div.to_json() == {"11": 3, "41": 3}
        assert all(pt.field == finite_field(5, 2) for pt in div.points())
        assert ramification_profile(m).to_json() == {"11": 4, "41": 4}

    def test_wild_point_refused(self):
        # x^3 + x over F3 has a wild pole of order 3 at infinity
        m = RatMap(P(F3, 0, 1, 0, 1), P(F3, 1))
        with pytest.raises(WildRamificationError) as info:
            different_divisor(m)
        err = info.value
        assert err.ram == 3
        assert err.wronskian_valuation == 4  # 2d-2 - deg W = 4 - 0
        assert err.wronskian_valuation > err.ram - 1

    def test_wronskian_divisor_is_raw(self):
        m = RatMap(P(F3, 0, 1, 0, 1), P(F3, 1))
        raw = wronskian_divisor(m)
        assert raw.total == 4

    def test_inseparable_rejected(self):
        with pytest.raises(InseparableMapError):
            different_divisor(RatMap(P(F3, 0, 0, 0, 1), P(F3, 1)))

    def test_inseparable_map_has_no_profile(self):
        with pytest.raises(InseparableMapError,
                           match="^inseparable map has no ramification profile$"):
            ramification_profile(RatMap(P(F3, 0, 0, 0, 1), P(F3, 1)))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_random_tame_maps_total(self, p):
        field = finite_field(p)
        rng = random.Random(100 + p)
        done = 0
        while done < 60:
            F = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            G = Poly(field, [rng.randrange(p) for _ in range(rng.randrange(1, 5))])
            try:
                m, _ = RatMap.new(F, G)
            except ValueError:
                continue
            if not is_separable(m):
                continue
            try:
                div = different_divisor(m)
            except WildRamificationError:
                continue
            assert div.total == 2 * m.degree - 2
            done += 1


class TestMobius:
    def test_identity(self):
        m = solver_map()
        assert mobius_act(m, ((1, 0), (0, 1)), "image") == m
        assert mobius_act(m, ((1, 0), (0, 1)), "domain") == m

    def test_swap_inverts(self):
        m = RatMap(P(F5, 0, 0, 1), P(F5, 1))
        inv = mobius_act(m, ((0, 1), (1, 0)), "image")
        assert inv.F == P(F5, 1) and inv.G == P(F5, 0, 0, 1)
        assert ram_index(inv, 0) == 2

    def test_image_pole_at_order_three_point(self):
        m = solver_map()
        # send f(1) = 1 to infinity, 0 to 0: w -> (w - 0)/(w - 1)
        moved = mobius_act(m, ((1, 0), (1, 4)), "image")
        assert moved(ProjPoint(F5, 1)).is_infinity
        assert ram_index(moved, 1) == 3

    def test_apply_poles(self):
        # w -> w/(w - 1) over F_5 sends 1 to infinity and infinity to 1;
        # the identity fixes infinity (c = 0)
        M = ((1, 0), (1, 4))
        assert mobius_apply(F5, M, ProjPoint(F5, 1)).is_infinity
        assert mobius_apply(F5, M, ProjPoint.infinity(F5)) == ProjPoint(F5, 1)
        assert mobius_apply(F5, M, ProjPoint(F5, 2)) == ProjPoint(F5, 2)  # 2/1
        assert mobius_apply(F5, ((1, 0), (0, 1)), ProjPoint.infinity(F5)).is_infinity

    def test_image_action_preserves_ram(self):
        m = solver_map()
        rng = random.Random(4)
        for _ in range(40):
            M = tuple(tuple(rng.randrange(5) for _ in range(2)) for _ in range(2))
            try:
                g = mobius_act(m, M, "image")
            except ValueError:
                continue
            for pt in [ProjPoint(F5, i) for i in range(5)] + [ProjPoint.infinity(F5)]:
                assert ram_index(g, pt) == ram_index(m, pt)

    def test_domain_action_transports_ram(self):
        m = solver_map()
        rng = random.Random(9)
        for _ in range(40):
            M = tuple(tuple(rng.randrange(5) for _ in range(2)) for _ in range(2))
            try:
                g = mobius_act(m, M, "domain")
            except ValueError:
                continue
            assert g.degree == m.degree
            for pt in [ProjPoint(F5, i) for i in range(5)] + [ProjPoint.infinity(F5)]:
                assert ram_index(g, pt) == ram_index(m, mobius_apply(F5, M, pt))


# derandomized, so every run draws the same maps
INVOLUTION = settings(derandomize=True, deadline=None, max_examples=60)


class TestInvolution:
    def test_two_two_three_becomes_three_three_three(self):
        m = solver_map()
        # move the ramified point at infinity into the finite line first:
        # x -> x/(x-1) sends 0 -> 0, 1 -> inf, inf -> 1
        g = mobius_act(m, ((1, 0), (1, 4)), "domain")
        assert ram_index(g, 0) == 2
        assert ram_index(g, 1) == 2
        assert ram_index(g, ProjPoint.infinity(F5)) == 3
        h = involution_transform(g, 0, 1)
        assert h.degree == g.degree + 5 - 2 - 2  # d + p - e1 - e2 = 4
        assert ram_index(h, 0) == 3
        assert ram_index(h, 1) == 3
        profile = ramification_profile(h)
        assert sorted(m for _, m in profile.items()) == [3, 3, 3]
        assert different_divisor(h).total == 2 * 4 - 2

    def test_refusals(self):
        g = mobius_act(solver_map(), ((1, 0), (1, 4)), "domain")
        with pytest.raises(ValueError, match="must be finite"):
            involution_transform(g, ProjPoint.infinity(F5), 1)
        with pytest.raises(ValueError, match="must be distinct"):
            involution_transform(g, 1, 1)
        frobenius = RatMap(P(F5, 0, 0, 0, 0, 0, 1), Poly.one(F5))  # x^5
        with pytest.raises(InseparableMapError, match="separable map"):
            involution_transform(frobenius, 0, 1)
        # x^5 + x^6 is separable, with the wild order 5 at 0
        wild = RatMap(P(F5, 0, 0, 0, 0, 0, 1, 1), Poly.one(F5))
        with pytest.raises(ValueError, match=r"orders \(5, 1\) must be < p = 5"):
            involution_transform(wild, 0, 1)

    def test_involutive_up_to_aut(self):
        m = solver_map()
        g = mobius_act(m, ((1, 0), (1, 4)), "domain")
        once = involution_transform(g, 0, 1)
        twice = involution_transform(once, 0, 1)
        assert twice.degree == g.degree
        assert pencil_of(twice) == pencil_of(g)

    def test_every_other_point_of_f5_ramified(self):
        # every point of P^1(F_5) but P1 = 1, P2 = 2 is ramified, infinity
        # included: no unramified point could be moved to infinity first
        f = RatMap(P(F5, 0, 0, 2, 4, 2, 1), P(F5, 1, 0, 3, 2))
        others = [ProjPoint(F5, i) for i in (0, 3, 4)] + [ProjPoint.infinity(F5)]
        assert [ram_index(f, pt) for pt in others] == [2, 2, 2, 2]
        h = involution_transform(f, 1, 2)
        assert h.degree == 5 + 5 - 1 - 1
        assert (ram_index(h, 1), ram_index(h, 2)) == (4, 4)
        assert [ram_index(h, pt) for pt in others] == [2, 2, 2, 2]
        assert different_divisor(h).total == 2 * 8 - 2
        assert pencil_of(involution_transform(h, 1, 2)) == pencil_of(f)

    @INVOLUTION
    @given(st.data())
    def test_random_maps(self, data):
        p = data.draw(st.sampled_from([5, 7, 11, 13]), label="p")
        field = finite_field(p)
        d = data.draw(st.integers(2, 5), label="d")
        # deg F = d, and a G of degree below d - 1 puts a pole of order >= 2
        # at infinity: most draws are ramified there
        elements = st.integers(0, p - 1)
        F = P(field, *data.draw(st.lists(elements, min_size=d, max_size=d), label="F"),
              data.draw(st.integers(1, p - 1), label="lc F"))
        G = P(field, *data.draw(st.lists(elements, min_size=1, max_size=d + 1), label="G"))
        assume(not G.is_zero and poly_gcd(F, G).degree == 0)
        f = RatMap(F, G)
        assume(is_separable(f))
        P1, P2 = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2,
                                    unique=True), label="P1, P2")
        e1, e2 = ram_index(f, P1), ram_index(f, P2)
        assume(e1 < p and e2 < p and f(P1) != f(P2))
        try:
            div = different_divisor(f)
        except (WildRamificationError, BudgetExceeded):
            assume(False)  # a wild point, or a splitting field over the budget
        assert div.total == 2 * d - 2  # Riemann-Hurwitz, tame points audited

        h = involution_transform(f, P1, P2)
        assert h.degree == d + p - e1 - e2
        assert (ram_index(h, P1), ram_index(h, P2)) == (p - e1, p - e2)
        for pt in [ProjPoint(field, i) for i in range(p)] + [ProjPoint.infinity(field)]:
            e = ram_index(f, pt)
            if pt.i not in (P1, P2) and e < p:
                assert ram_index(h, pt) == e, pt
        assert different_divisor(h).total == 2 * h.degree - 2
        assert pencil_of(involution_transform(h, P1, P2)) == pencil_of(f)

    def test_shared_image_rejected(self):
        # x^2 + 4x = x(x+4) sends 0 and 1 to 0 over F5
        m = RatMap(P(F5, 0, 4, 1), P(F5, 1))
        with pytest.raises(ValueError):
            involution_transform(m, 0, 1)

    def test_order_at_least_p_rejected(self):
        # x^3/1 over F5 ramifies to order 3 at 0; use p = 3 field instead
        m = RatMap(P(F3, 0, 1, 0, 1, 0, 1), P(F3, 1))  # separable, deg 5
        # its finite ramification orders are 2 (< 3), so force the error with
        # a map having a finite point of order >= p
        big = RatMap(P(F5, 0, 0, 0, 0, 0, 1), P(F5, 1))  # x^5 over F5: wild
        with pytest.raises((ValueError, InseparableMapError)):
            involution_transform(big, 0, 1)
        assert m  # silence lint


class TestSumRamificationComparison:
    """f+g ramifies at P at least as much as f iff g does (common
    denominator, both defined at P)."""

    @pytest.mark.parametrize("field", [F5, F9])
    def test_sum_ram_iff(self, field):
        rng = random.Random(31)
        checked = 0
        while checked < 250:
            den = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 4))])
            n1 = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))])
            n2 = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))])
            a = rng.randrange(field.q)
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
