import random
from collections import Counter

import pytest

import ramcount.degeneration as degeneration
from ramcount.algebra import Poly, finite_field, frobenius_power, poly_gcd
from ramcount.degeneration import (
    FamilyPoly,
    MapFamily,
    Section,
    SeparableSpecialFiberError,
    analyze_limit,
    family_domain_mobius,
    insep_limit_transform,
    pathology_family,
    tame_at_infinity_reduce,
)
from ramcount.pencil import Pencil
from ramcount.ratmap import (
    InseparableMapError,
    ProjPoint,
    RatMap,
    WildRamificationError,
    different_divisor,
    mobius_act,
    pair_index_at_infinity,
    pair_wronskian,
    ram_index,
    ramification_profile,
    wronskian_divisor,
)

F3 = finite_field(3)
F9 = finite_field(3, 2)
F25 = finite_field(5, 2)
F27 = finite_field(3, 3)


def P(field, *coeffs):
    return Poly.from_ints(field, coeffs)


def pencil_of(f):
    """The map's pencil <F, G>: f modulo automorphism of the image."""
    return Pencil.from_polys(f.F, f.G, f.degree)


def quartet_family(field):
    """F = x^3 + t x^2, G = t x + (t - 1): degree-3 maps with four simple
    ramification points 0, inf, 1, lambda(t) = t - 1, driven into the
    degenerate configuration lambda -> -1 where the limit is inseparable."""
    F = FamilyPoly(field, (
        Poly.zero(field),        # x^0
        Poly.zero(field),        # x^1
        Poly.from_ints(field, (0, 1)),   # x^2: t
        Poly.one(field),         # x^3
    ))
    G = FamilyPoly(field, (
        Poly.from_ints(field, (-1, 1)),  # x^0: t - 1
        Poly.from_ints(field, (0, 1)),   # x^1: t
    ))
    sections = (
        Section.constant(field, ProjPoint(field, 0), 2),
        Section(order=2, at_infinity=True),
        Section.constant(field, ProjPoint(field, 1), 2),
        Section(num=Poly.from_ints(field, (-1, 1)), order=2),  # lambda(t) = t - 1
    )
    return MapFamily(F, G, sections)


class TestFamilyPoly:
    def test_serialization_example(self):
        fp = FamilyPoly.from_string(F3, "[(0),(0,1),(1)]")  # t x + x^2
        assert fp.coeff(1) == Poly.from_ints(F3, (0, 1))
        assert fp.coeff(2) == Poly.one(F3)
        assert fp.to_string() == "[(0),(0,1),(1)]"

    def test_whitespace_and_empty_groups(self):
        assert FamilyPoly.from_string(F3, " [ (0) , ( ) ,(1, 2) ] ").to_string() \
            == "[(0),(0),(1,2)]"
        assert FamilyPoly.from_string(F3, "[]").is_zero

    @pytest.mark.parametrize("text", ["[(1),x]", "[junk(1)]", "[(1),,(2)]",
                                      "[(1),(2))]", "(1)", "[(1)(2)]"])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ValueError):
            FamilyPoly.from_string(F3, text)

    def test_arithmetic(self):
        a = FamilyPoly.from_string(F3, "[(0),(0,1)]")  # t x
        b = FamilyPoly.from_string(F3, "[(1),(2)]")    # 2x + 1
        prod = a * b
        assert prod.to_string() == "[(0),(0,1),(0,2)]"  # t x + 2t x^2

    def test_t_valuation_and_shift(self):
        a = FamilyPoly.from_string(F3, "[(0,0,1),(0,2)]")  # t^2 + 2t x
        assert a.t_valuation() == 1
        assert a.shift_t_down(1).to_string() == "[(0,1),(2)]"

    def test_eval_and_zero(self):
        fam = quartet_family(F3)
        F0, G0 = fam.F.eval_t(0), fam.G.eval_t(0)
        assert F0 == P(F3, 0, 0, 0, 1)
        assert G0 == P(F3, -1)
        # generic members need lambda(t) = t - 1 away from {0, 1, -1}
        member = quartet_family(F9).member(3)  # t = y
        assert member.degree == 3


class TestPathologyFamily:
    def quintic(self, field):
        return P(field, 0, 1, 0, 1, 0, 1), Poly.one(field)  # x^5 + x^3 + x

    def test_construction_and_t0(self):
        F, G = P(F9, 0, 1, 0, 0, 0, 1), Poly.one(F9)  # x^5 + x
        fam, _ = pathology_family(F, G)
        assert fam.F.to_string() == "[(0),(01),(0),(00,02),(0),(01)]"
        member0 = fam.member(0)
        assert member0 == RatMap(F, G)

    def test_members_share_ramification(self):
        F, G = P(F9, 0, 1, 0, 0, 0, 1), Poly.one(F9)
        fam, profile = pathology_family(F, G)
        profiles = set()
        for c in range(9):
            profiles.add(frozenset(ramification_profile(fam.member(c)).items()))
        assert len(profiles) == 1
        only = dict(profiles.pop())
        assert only == dict(profile.items())  # the profile returned with fam
        assert only[ProjPoint.infinity(F9)] == 5
        finite_orders = [e for pt, e in only.items() if not pt.is_infinity]
        assert sorted(finite_orders) == [2, 2, 2, 2]

        # the q members are q distinct pencils, which `family` prints as
        # distinct_pencils without building them
        for field, coeffs in ((F9, (0, 1, 0, 0, 0, 1)),          # x^5 + x
                              (F25, (0, 1, 0, 0, 0, 0, 0, 1)),   # x^7 + x
                              (F27, (0, 1, 0, 0, 0, 1))):        # x^5 + x
            fam, _ = pathology_family(P(field, *coeffs), Poly.one(field))
            pencils = {pencil_of(fam.member(c)) for c in range(field.q)}
            assert len(pencils) == field.q

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_sections_are_the_rational_ramification_points(self, k):
        # x^5 + x over F_{3^k}: the four finite ramification points lie in
        # F_9, so for odd k only two of them (1 and 2) are F_q-rational; the
        # sections are infinity and the profile points fixed by x -> x^q
        field = finite_field(3, k)
        fam, profile = pathology_family(P(field, 0, 1, 0, 0, 0, 1), Poly.one(field))
        ext = next(pt.field for pt, _ in profile.items())
        rational = {(pt.i, e) for pt, e in profile.items()
                    if not pt.is_infinity and ext.pow_i(pt.i, field.q) == pt.i}
        assert len(rational) == (4 if k % 2 == 0 else 2)
        assert fam.sections[0] == Section(order=5, at_infinity=True)
        embed = field.embedding(ext)
        finite = [(embed(s.num(0)), s.order) for s in fam.sections[1:]]
        assert len(finite) == len(rational) and set(finite) == rational

    def test_low_order_at_infinity_rejected(self):
        with pytest.raises(ValueError):
            pathology_family(P(F3, 0, 0, 1), Poly.one(F3))  # e1 = 2 < 3

    def test_wild_infinity_rejected(self):
        with pytest.raises(ValueError):
            pathology_family(P(F3, 0, 1, 0, 0, 0, 0, 1), Poly.one(F3))  # e1 = 6


class TestInsepLimitTransform:
    def test_quartet_family_one_step(self):
        fam = quartet_family(F3)
        assert not fam.special_fiber_separable()
        out = insep_limit_transform(fam)
        assert out.special_fiber_separable()
        F0, G0 = out.F.eval_t(0), out.G.eval_t(0)
        m, base = RatMap.new(F0, G0)
        assert base.total == 0
        assert m.degree == 4
        prof = ramification_profile(m)
        # simple ramification at 0, 1, -1 plus the tame degree-4 pole
        assert {(repr(pt), e) for pt, e in prof.items()} == \
            {("0", 2), ("1", 2), ("2", 2), ("inf", 4)}

    def test_wronskian_valuation_drops(self):
        fam = quartet_family(F3)
        v0 = fam.wronskian().t_valuation()
        out = insep_limit_transform(fam)
        v1 = out.wronskian().t_valuation()
        assert v1 < v0

    def test_frobenius_times_unit(self):
        F = FamilyPoly.from_string(F3, "[(0),(0),(0),(1),(0,1)]")  # x^3 + t x^4
        G = FamilyPoly.from_string(F3, "[(1)]")
        fam = MapFamily(F, G)
        out = insep_limit_transform(fam)
        assert out.special_fiber_separable()
        assert out.wronskian().t_valuation() < fam.wronskian().t_valuation()

    def test_separable_special_fiber_rejected(self):
        F = FamilyPoly.from_string(F3, "[(0),(0),(1)]")  # x^2
        G = FamilyPoly.from_string(F3, "[(1)]")
        with pytest.raises(SeparableSpecialFiberError):
            insep_limit_transform(MapFamily(F, G))


class TestTameAtInfinity:
    def test_already_tame(self):
        F0, G0 = tame_at_infinity_reduce(P(F3, 0, 0, 1), Poly.one(F3))
        assert (F0, G0) == (P(F3, 0, 0, 1), Poly.one(F3))

    def test_cubic_reduces_to_linear(self):
        F0, G0 = tame_at_infinity_reduce(P(F3, 0, 1, 0, 1), Poly.one(F3))
        assert F0 == P(F3, 0, 1) and G0 == Poly.one(F3)

    def test_iterated(self):
        F0, G0 = tame_at_infinity_reduce(P(F3, 0, 0, 0, 0, 1, 0, 1), Poly.one(F3))
        assert F0 == P(F3, 0, 0, 0, 0, 1)
        e = ram_index(RatMap(F0, G0), ProjPoint.infinity(F3))
        assert e % 3 != 0

    def test_affine_wronskian_preserved(self):
        F0 = P(F3, 1, 1, 0, 1, 0, 0, 1)  # wild at infinity (degree 6)
        G0 = Poly.one(F3)
        R0, S0 = tame_at_infinity_reduce(F0, G0)
        w_before = F0.derivative() * G0 - F0 * G0.derivative()
        w_after = R0.derivative() * S0 - R0 * S0.derivative()
        assert w_after.monic()[0] == w_before.monic()[0]

    def test_inseparable_rejected(self):
        with pytest.raises(Exception):
            tame_at_infinity_reduce(P(F3, 0, 0, 0, 1), Poly.one(F3))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_swap_and_translate(self, p):
        # seeded coprime separable pairs (a G + H, G) with deg G - deg H a
        # multiple of p, so that p divides the index at infinity: a = 0 starts
        # with the swap (deg F < deg G), a != 0 with the translate (equal
        # degrees); each must end tame with the same monic Wronskian
        field = finite_field(p)
        rng = random.Random(f"tame-at-infinity:{p}")
        moves = {"swap": 0, "translate": 0}
        while min(moves.values()) < 20:
            low = [rng.randrange(p) for _ in range(rng.randint(p, p + 4))]
            G = Poly.from_ints(field, low + [1])
            top = [rng.randrange(1, p)]  # deg H = deg G - p
            H = Poly.from_ints(field, [rng.randrange(p) for _ in range(len(low) - p)] + top)
            a = rng.randrange(p)
            F = G.scale(a) + H
            w = pair_wronskian(F, G)
            if poly_gcd(F, G).degree or w.is_zero:
                continue
            assert pair_index_at_infinity(F, G) % p == 0
            moves["translate" if a else "swap"] += 1
            F0, G0 = tame_at_infinity_reduce(F, G)
            assert pair_index_at_infinity(F0, G0) % p
            assert pair_wronskian(F0, G0).monic()[0] == w.monic()[0]


class TestAnalyzeLimit:
    def toy_family(self):
        """The quartet family moved into limit-law position over F9:
        all four sections finite at t = 0."""
        fam = quartet_family(F9)
        # x -> x/(yx + 1): sections move off infinity (y = encoding 3)
        return family_domain_mobius(fam, ((1, 0), (3, 1)))

    def test_separable_input(self):
        F = FamilyPoly.from_string(F3, "[(0),(1),(0,1)]")  # x + t x^2
        G = FamilyPoly.from_string(F3, "[(1)]")
        report = analyze_limit(MapFamily(F, G))
        assert report.separable_limit and report.iterations == 0

    def test_inseparable_generic_fiber_rejected(self):
        F = FamilyPoly.from_string(F3, "[(0,1),(0),(0),(1)]")  # x^3 + t
        G = FamilyPoly.from_string(F3, "[(1)]")
        with pytest.raises(InseparableMapError, match="generic fiber"):
            analyze_limit(MapFamily(F, G))

    def test_one_member_vanishing_at_t0(self):
        # x/t: MapFamily divides out no power of t, since F = x does not
        # vanish at t = 0; the limit pencil is <x, 1>
        F = FamilyPoly.from_string(F3, "[(0),(1)]")
        G = FamilyPoly.from_string(F3, "[(0,1)]")
        fam = MapFamily(F, G)
        assert fam.special_fiber_separable()
        report = analyze_limit(fam)
        assert report.separable_limit and report.iterations == 0
        assert (report.m, report.e_infinity, report.degrees) == (1, 1, (1, 0))

    def test_frobenius_toy_reaches_limit_law_values(self):
        fam = self.toy_family()
        sections_at_zero = [s.value_at(F9, 0) for s in fam.sections]
        assert all(not pt.is_infinity for pt in sections_at_zero)
        assert len(set(sections_at_zero)) == 4
        report = analyze_limit(fam)
        assert report.hypotheses_ok
        assert not report.separable_limit
        assert report.iterations >= 1
        assert report.m == 3
        assert report.e_infinity == 5
        assert report.b == 0
        d_tilde, d0 = report.degrees
        assert d0 == 0 and d_tilde == 5
        assert 2 * d_tilde - 2 == 2 * 3 - 2 + report.e_infinity - 1

    def test_steps_bounded_by_the_wronskian_valuation(self):
        # each step divides the Wronskian by a positive power of t, which the
        # transform asserts, so the loop takes at most val_t(W) steps;
        # quartet_family(F3) is README's quartet
        for fam in (quartet_family(F3), quartet_family(F9), self.toy_family()):
            assert 1 <= analyze_limit(fam).iterations <= fam.wronskian().t_valuation()

    def test_one_normalization_per_family(self, monkeypatch):
        # the loop and the transform share each family's normalized basis:
        # a one-step analysis normalizes the input and its transform only
        calls = []
        normalize = degeneration._nonconstant_basis

        def counted(F, G):
            calls.append((F, G))
            return normalize(F, G)

        monkeypatch.setattr(degeneration, "_nonconstant_basis", counted)
        report = analyze_limit(quartet_family(F3))
        assert report.iterations == 1
        assert len(calls) == 2

    def test_raw_quartet_family_runs_with_warnings(self):
        report = analyze_limit(quartet_family(F3))
        assert not report.hypotheses_ok
        assert any("infinity" in w for w in report.warnings)
        assert report.iterations >= 1

    def test_json(self):
        payload = analyze_limit(self.toy_family()).to_json()
        assert payload["m"] == 3 and payload["e_infinity"] == 5

    def test_collision_detection(self):
        # two sections whose limits agree at t = 0 are reported as a
        # collision; combined order >= p draws a warning
        F = FamilyPoly.from_string(F3, "[(0),(1),(0,1)]")  # x + t x^2
        G = FamilyPoly.from_string(F3, "[(1)]")
        sections = (
            Section(num=Poly.from_ints(F3, (1,)), order=2),        # 1
            Section(num=Poly.from_ints(F3, (1, 1)), order=2),      # 1 + t
        )
        report = analyze_limit(MapFamily(F, G, sections))
        assert report.collision is not None
        pt, combined = report.collision
        assert repr(pt) == "1" and combined == 4
        assert any("combined order" in w for w in report.warnings)

    @pytest.mark.parametrize("a,b,warned", [(1, 1, False), (2, 0, True)])
    def test_base_points_at_the_collision(self, a, b, warned):
        # over F_5 the special pair x^2 (x - 1), (x - 1)(x + 1) shares the
        # factor x - 1: one base point, at the collision only when the two
        # sections a and a + t meet at 1
        F5 = finite_field(5)
        F = FamilyPoly.from_string(F5, "[(0,1),(0),(4),(1)]")  # x^3 + 4x^2 + t
        G = FamilyPoly.from_string(F5, "[(4),(0),(1)]")        # x^2 - 1
        sections = (Section(num=P(F5, a), order=2), Section(num=P(F5, a, 1), order=2))
        report = analyze_limit(MapFamily(F, G, sections))
        assert report.collision == (ProjPoint(F5, a), 4)
        assert report.b == b
        assert report.degrees == (2, 1)  # read after x - 1 is divided out
        assert ("base points appeared away from the collision point"
                in report.warnings) == warned


class TestMapFamily:
    def test_common_power_of_t_divided_out(self):
        # over F_5, F = t^2 + t x and G = t + 3t x^2 share the factor t
        F5 = finite_field(5)
        F = FamilyPoly.from_string(F5, "[(0,0,1),(0,1)]")
        G = FamilyPoly.from_string(F5, "[(0,1),(0),(0,3)]")
        fam = MapFamily(F, G)
        assert (fam.F.to_string(), fam.G.to_string()) == ("[(0,1),(1)]", "[(1),(0),(3)]")
        assert fam.member(2) == RatMap.reduce(F.eval_t(2), G.eval_t(2))[0]


class TestGenericCoprimality:
    def test_shared_factor_refused_after_bounded_tries(self, monkeypatch):
        # F = (x - t) x and G = x - t share x - t over k(t): every value of
        # t fails, and past the resultant's degree bound (9 here) the
        # family is refused without trying the 101^2 values of F_{101^2}
        field = finite_field(101)
        calls = []
        eval_t = FamilyPoly.eval_t

        def counted(self, c):
            calls.append(c)
            return eval_t(self, c)

        monkeypatch.setattr(FamilyPoly, "eval_t", counted)
        F = FamilyPoly.from_string(field, "[(0),(0,100),(1)]")
        G = FamilyPoly.from_string(field, "[(0,100),(1)]")
        with pytest.raises(ValueError, match="share a factor"):
            MapFamily(F, G)
        assert len(calls) < 100

    def test_coprime_only_over_the_quadratic_extension(self):
        # F = x, G = x + t^3 - t: every t in F_3 gives G = F, so only a
        # value of F_9 outside F_3 shows that the members are coprime
        F = FamilyPoly.from_string(F3, "[(0),(1)]")
        G = FamilyPoly.from_string(F3, "[(0,2,0,1),(1)]")
        assert all(F.eval_t(c) == G.eval_t(c) for c in range(3))
        fam = MapFamily(F, G)
        assert fam.degree == 1

    def test_coprime_only_beyond_the_quadratic_extension(self):
        # F = x, G = x + t^9 - t: every t in F_9 gives G = F, and those 9
        # failures are fewer than the 21 a nonzero resultant allows, so
        # neither F_3 nor F_9 decides; F_81 does
        F = FamilyPoly.from_string(F3, "[(0),(1)]")
        G = FamilyPoly.from_string(F3, "[(0,2,0,0,0,0,0,0,0,1),(1)]")
        F_9, G_9 = (FamilyPoly(F9, [c.over(F9) for c in member.coeffs])
                    for member in (F, G))
        assert all(F_9.eval_t(c) == G_9.eval_t(c) for c in range(9))
        assert MapFamily(F, G).degree == 1

    def test_shared_factor_refused_over_a_small_field(self):
        # (x - t^9 + t) x and x - t^9 + t share a factor; over F_3 the
        # decisive field is F_81, where every full-degree value fails
        F = FamilyPoly.from_string(F3, "[(0),(0,1,0,0,0,0,0,0,0,2),(1)]")
        G = FamilyPoly.from_string(F3, "[(0,1,0,0,0,0,0,0,0,2),(1)]")
        with pytest.raises(ValueError, match="share a factor"):
            MapFamily(F, G)


class TestSection:
    def test_value_at_a_pole(self):
        # t/(t - 1) over F_5: a pole at t = 1, finite values elsewhere
        F5 = finite_field(5)
        s = Section(num=Poly.from_ints(F5, (0, 1)), den=Poly.from_ints(F5, (-1, 1)))
        assert s.value_at(F5, 1).is_infinity
        assert s.value_at(F5, 0) == ProjPoint(F5, 0)
        assert s.value_at(F5, 2) == ProjPoint(F5, 2)  # 2/1
        assert s.value_at(F5, 3) == ProjPoint(F5, 4)  # 3/2 = 3 * 3

    def test_value_at_cancels_the_common_factor(self):
        # t/t is the point 1 for every t, t = 0 included; and t^2/t is 0
        # there, t/t^2 infinity
        t = P(F3, 0, 1)
        assert Section(num=t, den=t).value_at(F3, 0) == ProjPoint(F3, 1)
        assert Section(num=t * t, den=t).value_at(F3, 0) == ProjPoint(F3, 0)
        assert Section(num=t, den=t * t).value_at(F3, 0).is_infinity

    def test_section_t_over_t_collides_with_1(self):
        # the README quartet marked by 1 and t/t, both of order 2: the pair
        # collides at 1 with combined order 4 >= p, and no section meets
        # infinity; the file keeps t/t as written
        t = P(F3, 0, 1)
        marks = (Section(num=P(F3, 1), order=2), Section(num=t, den=t, order=2))
        fam = quartet_family(F3)
        rep = analyze_limit(MapFamily(fam.F, fam.G, marks))
        assert rep.collision == (ProjPoint(F3, 1), 4)
        assert "colliding pair has combined order >= p" in rep.warnings
        assert "a marked section meets infinity" not in rep.warnings
        assert marks[1].to_json() == {"num": "0,1", "den": "0,1", "order": 2}


class TestFamilySerialization:
    def test_sections_roundtrip(self):
        # a constant section at infinity and a section t/(t - 1) with a den
        F5 = finite_field(5)
        sections = (Section.constant(F5, ProjPoint.infinity(F5), 3),
                    Section(num=P(F5, 0, 1), den=P(F5, -1, 1), order=2))
        fam = MapFamily(FamilyPoly.from_string(F5, "[(0),(1),(0,1)]"),
                        FamilyPoly.from_string(F5, "[(1)]"), sections)
        payload = fam.to_json()
        assert payload["sections"] == [{"point": "inf", "order": 3},
                                       {"num": "0,1", "den": "4,1", "order": 2}]
        assert MapFamily.from_json(payload).sections == sections

    def test_json_roundtrip(self):
        fam = quartet_family(F9)
        payload = fam.to_json()
        again = MapFamily.from_json(payload)
        assert again.F == fam.F and again.G == fam.G
        assert len(again.sections) == 4
        rep = analyze_limit(again)
        assert rep.iterations >= 1


class TestFamilyDomainMobius:
    @pytest.mark.parametrize("M", [((1, 0), (3, 1)), ((0, 1), (1, 0)),
                                   ((2, 5), (1, 6))])
    def test_members_match_mobius_act(self, M):
        fam = quartet_family(F9)
        moved = family_domain_mobius(fam, M)
        for c in (3, 4, 7):  # t = c puts lambda(t) = t - 1 off {0, 1, -1}
            assert moved.member(c) == mobius_act(fam.member(c), M, "domain")

    def test_singular_matrix(self):
        # 2*7 - 5*1 is 0 in F_9 (encodings are not residues mod 9)
        with pytest.raises(ValueError, match="matrix is singular"):
            family_domain_mobius(quartet_family(F9), ((2, 5), (1, 7)))


class TestWildDifferentBound:
    @pytest.mark.parametrize("p,mult", [(3, 2), (3, 3), (5, 2)])
    def test_wild_different_exceeds_bound(self, p, mult):
        field = finite_field(p)
        # x^{mp} + x: wild pole of order mp at infinity
        coeffs = [0] * (mult * p + 1)
        coeffs[0] = 0
        coeffs[1] = 1
        coeffs[mult * p] = 1
        f = RatMap(Poly.from_ints(field, coeffs), Poly.one(field))
        div = wronskian_divisor(f)
        inf_val = div.multiplicity(ProjPoint.infinity(field))
        assert inf_val > 2 * (mult - 1) * p
        with pytest.raises(WildRamificationError) as info:
            different_divisor(f)
        assert info.value.wronskian_valuation > 2 * (mult - 1) * p


class TestInseparablePerturbations:
    def test_perturbable_family(self):
        # x^8 - x^4 at p = 3: d = 8 in (2p, 3p), e2 = 4 in (p, 2p); the
        # inseparable sextic x^6 has larger ramification everywhere, so
        # every x^6-perturbation has the same ramification divisor
        f = RatMap(P(F9, 0, 0, 0, 0, -1, 0, 0, 0, 1), Poly.one(F9))
        base_profile = frozenset(ramification_profile(f).items())
        pencils = set()
        for c in range(9):
            coeffs = [0] * 9
            coeffs[4] = F9.neg_i(1)
            coeffs[6] = c
            coeffs[8] = 1
            g = RatMap(Poly(F9, coeffs), Poly.one(F9))
            assert frozenset(ramification_profile(g).items()) == base_profile
            pencils.add(pencil_of(g))
        assert len(pencils) == 9

    def test_rigid_third_case(self):
        # 2x^{2p+1} - x^{2p} - 2x^{p+1} at p = 3: no nonconstant inseparable
        # perturbation of lower degree preserves the ramification divisor
        coeffs = [0, 0, 0, 0, -2, 0, -1, 2]
        f = RatMap(Poly.from_ints(F9, coeffs), Poly.one(F9))
        base_profile = frozenset(ramification_profile(f).items())
        for a in range(9):
            for b in range(9):
                if a == 0 and b == 0:
                    continue
                pert = [0] * 8
                pert[3] = b
                pert[6] = a
                g = RatMap(Poly(F9, coeffs[:]) + Poly(F9, pert), Poly.one(F9))
                assert frozenset(ramification_profile(g).items()) != base_profile


class TestRandomInsepLimits:
    def test_random_families_terminate(self):
        rng = random.Random(42)
        field = F9
        built = 0
        while built < 8:
            ra = Poly(field, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
            rb = Poly(field, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
            C = Poly(field, [rng.randrange(9) for _ in range(rng.randrange(1, 5))])
            D = Poly(field, [rng.randrange(9) for _ in range(rng.randrange(1, 3))])
            if ra.is_zero or rb.is_zero:
                continue
            A, B = frobenius_power(ra), frobenius_power(rb)
            if poly_gcd(A, B).degree != 0:
                continue
            t = Poly.from_ints(field, (0, 1))
            F = FamilyPoly.lift(A) + FamilyPoly.lift(C).scale_t(t)
            G = FamilyPoly.lift(B) + FamilyPoly.lift(D).scale_t(t)
            try:
                fam = MapFamily(F, G)
            except ValueError:
                continue
            if fam.generic_separable() and not fam.special_fiber_separable():
                report = analyze_limit(fam)
                assert 1 <= report.iterations <= fam.wronskian().t_valuation()
                built += 1

    def test_limit_m_between_p_and_d(self):
        # analyze_limit's docstring proves p <= m <= d after a step, so its
        # check "m = ... outside [p, d]" never fires.  Special fibers g (A, B)
        # with A/B inseparable, plus t and t^2 terms; some families take two
        # steps, where each g divides the last
        rng = random.Random(44)

        def poly(field, most):
            return Poly(field, [rng.randrange(field.p) for _ in range(rng.randrange(1, most))])
        steps = Counter()
        while sum(steps.values()) < 300:
            field = finite_field(rng.choice((3, 5, 7)))
            p = field.p
            A, B, g = (frobenius_power(poly(field, 3)), frobenius_power(poly(field, 3)),
                       poly(field, 3))
            if A.is_zero or B.is_zero or g.is_zero:
                continue
            F, G = FamilyPoly.lift(A * g), FamilyPoly.lift(B * g)
            for k in range(1, rng.randint(1, 2) + 1):
                tk = Poly(field, (0,) * k + (1,))
                F = F + FamilyPoly.lift(poly(field, 6)).scale_t(tk)
                G = G + FamilyPoly.lift(poly(field, 4)).scale_t(tk)
            try:
                fam = MapFamily(F, G)
            except ValueError:  # a shared factor over k(t)
                continue
            if not fam.generic_separable() or fam.special_fiber_separable():
                continue
            report = analyze_limit(fam)  # no sections: a failed law warns
            assert report.iterations >= 1
            steps[report.iterations] += 1
            assert p <= report.m <= fam.degree, (p, F.to_string(), G.to_string(), report)
        assert steps[2] >= 3, steps
