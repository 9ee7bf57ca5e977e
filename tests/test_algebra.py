import functools
import math
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramcount import algebra
from ramcount.algebra import (
    NEG_INFINITY,
    BudgetExceeded,
    FiniteField,
    Poly,
    bezout_inseparable,
    finite_field,
    frobenius_power,
    poly_gcd,
    poly_is_inseparable,
    poly_powmod,
    poly_pth_root,
    poly_valuation,
    poly_xgcd,
    roots_with_multiplicity,
    rref,
    splitting_field_roots,
)
from dense_three_point import nullspace

F3 = finite_field(3)
F5 = finite_field(5)
F7 = finite_field(7)
F9 = finite_field(3, 2)
F27 = finite_field(3, 3)


def P(field, *coeffs):
    return Poly.from_ints(field, coeffs)


def _lower_table_limit(patch, limit):
    """Make every field built under patch with q > limit raw.  finite_field
    keeps its first instance of each field for the life of the process, so
    it gets a fresh cache too: no raw field built here reaches a later
    caller."""
    patch.setattr(algebra, "_TABLE_LIMIT", limit)
    patch.setattr(algebra, "_canonical_field", functools.lru_cache(maxsize=None)(FiniteField))


class TestField:
    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            finite_field(2)

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            finite_field(9)

    def test_deterministic_moduli(self):
        assert F9.modulus == (1, 0, 1)       # y^2 + 1
        assert F27.modulus == (1, 2, 0, 1)   # y^3 + 2y + 1
        assert finite_field(5, 2).modulus == (2, 0, 1)  # y^2 + 2

    def test_one_instance_per_field(self):
        assert finite_field(3) is finite_field(3, 1) is finite_field(p=3, k=1)
        assert finite_field(3, 2) is F9

    def test_equality_beyond_the_cached_instance(self):
        # a field built directly is a second instance of the same field
        fresh = FiniteField(3, 2)
        assert fresh is not F9 and fresh == F9 and hash(fresh) == hash(F9)
        assert fresh != F3 and fresh != finite_field(3, 3) and fresh != "GF(3^2)"
        product = Poly(fresh, (1, 1)) * Poly(F9, (2, 1))
        assert product == Poly(F9, (1, 1)) * Poly(F9, (2, 1))
        with pytest.raises(ValueError):
            Poly(fresh, (1, 1)) + Poly(F27, (1, 1))

    @pytest.mark.parametrize("field", [F3, F5, F9, F27, finite_field(7, 2)])
    def test_inverses(self, field):
        for a in range(1, field.q):
            assert field.mul_i(a, field.inv_i(a)) == 1

    @pytest.mark.parametrize("field", [F5, F9, F27])
    def test_ring_axioms_random(self, field):
        rng = random.Random(7)
        for _ in range(300):
            a, b, c = (rng.randrange(field.q) for _ in range(3))
            assert field.add_i(field.add_i(a, b), c) == field.add_i(a, field.add_i(b, c))
            assert field.mul_i(field.mul_i(a, b), c) == field.mul_i(a, field.mul_i(b, c))
            assert field.mul_i(a, field.add_i(b, c)) == field.add_i(
                field.mul_i(a, b), field.mul_i(a, c))

    def test_pth_root_inverts_frobenius(self):
        for field in (F9, F27, F5):
            for a in range(field.q):
                assert field.pow_i(field.pth_root_i(a), field.p) == a

    def test_embedding_is_hom(self):
        emb = F3.embedding(F9)
        for a in range(3):
            for b in range(3):
                assert emb((a + b) % 3) == F9.add_i(emb(a), emb(b))
                assert emb((a * b) % 3) == F9.mul_i(emb(a), emb(b))
        emb2 = F9.embedding(finite_field(3, 4))
        tgt = finite_field(3, 4)
        rng = random.Random(1)
        for _ in range(50):
            a, b = rng.randrange(9), rng.randrange(9)
            assert emb2(F9.mul_i(a, b)) == tgt.mul_i(emb2(a), emb2(b))
            assert emb2(F9.add_i(a, b)) == tgt.add_i(emb2(a), emb2(b))

    def test_element_str_roundtrip(self):
        for field in (F5, F9, F27):
            for a in range(field.q):
                assert field.element_parse(field.element_str(a)) == a

    def test_moduli_are_least_irreducibles(self):
        # the smallest-encoded monic polynomial of degree k that is not a
        # product of two monic polynomials of lower degree, by brute force
        for p, k in [(p, k) for p in (3, 5, 7, 11, 13, 17, 19, 23)
                     for k in range(2, 6) if p ** k <= 625]:
            fp = finite_field(p)

            def monics(deg):
                return [Poly(fp, [m // p ** i % p for i in range(deg)] + [1])
                        for m in range(p ** deg)]

            reducible = {(a * b).coeffs for i in range(1, k // 2 + 1)
                         for a in monics(i) for b in monics(k - i)}
            least = next(f.coeffs for f in monics(k) if f.coeffs not in reducible)
            assert finite_field(p, k).modulus == least, (p, k)

    @staticmethod
    def _assert_mul_matches_poly(field, pairs):
        # the product of coordinate vectors as Poly over F_p, reduced by the
        # modulus, is an independent oracle for mul_i
        fp = finite_field(field.p)
        modulus = Poly(fp, field.modulus)
        for a, b in pairs:
            prod = (Poly(fp, field.decode(a)) * Poly(fp, field.decode(b))) % modulus
            assert field.mul_i(a, b) == field.encode(prod.coeffs), (a, b)

    @pytest.mark.parametrize("p, k", [(3, 2), (5, 2), (3, 3), (5, 3)])
    def test_mul_matches_poly_oracle(self, p, k):
        field = finite_field(p, k)
        self._assert_mul_matches_poly(
            field, [(a, b) for a in range(field.q) for b in range(field.q)])

    def test_raw_mul_matches_poly_oracle(self, monkeypatch):
        _lower_table_limit(monkeypatch, 3 ** 7 - 1)
        raw = FiniteField(3, 7)
        rng = random.Random(23)
        self._assert_mul_matches_poly(
            raw, [(rng.randrange(raw.q), rng.randrange(raw.q)) for _ in range(2000)])
        assert "exp" not in vars(raw)  # the raw field never built tables

    @pytest.mark.parametrize("p, k", [(7, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
    def test_raw_arithmetic_matches_tables(self, monkeypatch, p, k):
        # a field above the table limit runs on the raw routines alone.  The
        # tables are built from the same _mul_raw, so this checks the table
        # lookups against the routines they came from, not multiplication
        # itself: the Poly oracle tests above do that
        table = finite_field(p, k)
        q = table.q
        _lower_table_limit(monkeypatch, q - 1)
        raw = FiniteField(p, k)
        for a in range(q):
            assert raw.neg_i(a) == table.neg_i(a)
            assert raw.pth_root_i(a) == table.pth_root_i(a)
            if a:
                assert raw.inv_i(a) == table.inv_i(a)
            for b in range(q):
                assert raw.add_i(a, b) == table.add_i(a, b), (a, b)
                assert raw.mul_i(a, b) == table.mul_i(a, b), (a, b)
            for n in range(1 - q if a else 0, q):
                assert raw.pow_i(a, n) == table.pow_i(a, n), (a, n)
        # the row kernel, for the scalars Poly's +, - and negation pass
        # (c = 1 and c = -1, encoded p - 1) and for others
        rng = random.Random(q)
        others = [c for c in range(2, q) if c != p - 1]
        for c in [1, p - 1] + rng.sample(others, min(3, len(others))):
            for _ in range(20):
                vec = [rng.randrange(q) for _ in range(rng.randint(0, 6))]
                acc = [rng.randrange(q) for _ in range(len(vec) + 2)]
                want, got = list(acc), list(acc)
                table.axpy_i(want, 1, c, vec)
                raw.axpy_i(got, 1, c, vec)
                assert got == want, (c, vec, acc)
        assert "exp" not in vars(raw)  # the raw field never built tables


    @pytest.mark.parametrize("p, k", [(67, 2), (251, 2), (3, 9), (7, 5), (13, 4),
                                      (65521, 1), (3, 10), (5, 5)])
    def test_tables_follow_the_raw_routines(self, p, k):
        # wide digits, deep extensions, one lane (F_65521), five lanes a
        # half (F_{3^10}) and halves of unequal length (F_{5^5}): every table
        # entry against the raw product and sum it stands for, in O(q) raw
        # calls per field.  Times g is F_p-linear, so it is tabulated from
        # the k raw products p^t * g by raw sums, one per element and one
        # per multiple d p^t * g, and a seeded sample of entries is also
        # checked against _mul_raw directly
        field = FiniteField(p, k)
        q, exp, log, zech = field.q, field.exp, field.log, field.zech
        g = field._find_generator()
        times_g = [0]
        for t in range(k):
            multiples = [field._mul_raw(p ** t, g)]
            while len(multiples) < p - 1:
                multiples.append(field._add_raw(multiples[-1], multiples[0]))
            times_g += [field._add_raw(times_g[r], m) for m in multiples for r in range(p ** t)]
        assert exp[0] == 1 and exp[1] == g
        assert exp[q - 1:] == exp[:q - 1] and zech[q - 1:] == zech[:q - 1]
        for i in random.Random(q).sample(range(q - 1), 200):
            assert field._mul_raw(exp[i], g) == exp[i + 1], i
        for i in range(q - 1):
            assert times_g[exp[i]] == exp[i + 1], i
            assert log[exp[i]] == i, i
            s = field._add_raw(1, exp[i])
            assert zech[i] == (log[s] if s else -1), i

    def test_prime_field_powers_take_no_raw_product_each(self):
        # for k = 1 the high half of an element is the whole element, so the
        # lane tables would cost one raw product per element: a prime field
        # steps a -> a g mod p, and only the generator search multiplies raw
        field = FiniteField(65519)  # not the cached instance: its tables are cold
        raw, calls = field._mul_raw, []
        field._mul_raw = lambda a, b: calls.append((a, b)) or raw(a, b)
        exp = field.exp
        assert len(calls) < field.q // 100
        g, p = exp[1], field.p
        assert g == FiniteField(p)._find_generator()
        assert len(exp) == 2 * (p - 1)
        for i in random.Random(p).sample(range(2 * (p - 1)), 500):
            assert exp[i] == pow(g, i, p), i


class TestPrimality:
    def test_agrees_with_a_sieve_below_a_million(self):
        n = 10 ** 6
        sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
        for r in range(2, math.isqrt(n) + 1):
            if sieve[r]:
                sieve[r * r::r] = bytearray(len(range(r * r, n, r)))
        assert [m for m in range(n) if algebra.is_prime(m) != sieve[m]] == []

    def test_strong_pseudoprimes(self, monkeypatch):
        # psi_12 is a strong pseudoprime to every base below 41, and the
        # second fools the primes to 31; neither has a factor <= 41
        psi12 = 318_665_857_834_031_151_167_461
        assert not algebra.is_prime(psi12)
        assert not algebra.is_prime(3_825_123_056_546_413_051)
        monkeypatch.setattr(algebra, "_SMALL_PRIMES", algebra._SMALL_PRIMES[:-1])
        assert algebra.is_prime(psi12)  # so base 41 is what refuses it

    def test_large_primes(self):
        assert algebra.is_prime(2 ** 61 - 1) and algebra.is_prime(2 ** 31 - 1)
        assert not algebra.is_prime((2 ** 31 - 1) * (2 ** 19 - 1))

    def test_undecided_at_the_limit(self):
        limit = algebra._PRIME_TEST_LIMIT
        assert not algebra.is_prime(limit - 1)  # even, below the limit
        assert not algebra.is_prime(3 * limit)  # a small factor still decides
        for n in (limit, 47 * limit):  # psi_13 itself is composite
            with pytest.raises(ValueError, match=f"^cannot decide whether {n} is prime: "
                                                 f"primality is decided below {limit}$"):
                algebra.is_prime(n)

    def test_prime_factors(self):
        for n in range(1, 3000):
            factors = algebra._prime_factors(n)
            assert factors == sorted(set(factors)) and all(map(algebra.is_prime, factors))
            rest = n
            for r in factors:
                while rest % r == 0:
                    rest //= r
            assert rest == 1, n


class TestModulusSearch:
    PAIRS = [(p, k) for p in range(3, 84) if algebra.is_prime(p)
             for k in range(2, 9) if p ** k <= 3 * 10 ** 6]

    def test_binomials_skipped_exactly_when_none_is_irreducible(self, monkeypatch):
        # against the scan from x^k: the same modulus, and the search tries
        # the p binomials x^k + c only when one of them is irreducible
        assert len(self.PAIRS) == 72
        parts, tried = algebra._distinct_degree_parts, []
        monkeypatch.setattr(algebra, "_distinct_degree_parts",
                            lambda f: tried.append(f) or parts(f))
        for p, k in self.PAIRS:
            fp = finite_field(p)
            candidates = (Poly(fp, [m // p ** i % p for i in range(k)] + [1])
                          for m in range(p ** k))
            least = next(m for m, f in enumerate(candidates) if parts(f) == [(k, 1, f)])
            tried.clear()
            modulus = algebra._lexleast_modulus(p, k)
            assert modulus == tuple(least // p ** i % p for i in range(k)) + (1,), (p, k)
            assert len(tried) == least + 1 - (p if least >= p else 0), (p, k)

    @pytest.mark.parametrize("p, k", [(65537, 3), (65519, 3), (65537, 5),
                                      (65519, 5), (32771, 3), (65537, 6)])
    def test_fields_with_no_irreducible_binomial_build_fast(self, p, k):
        start = time.perf_counter()
        field = FiniteField(p, k)
        assert time.perf_counter() - start < 1
        assert field.modulus[-1] == 1 and any(field.modulus[1:-1])


class TestPolyArithmetic:
    def test_product_difference_of_squares(self):
        # (x+1)(x-1) = x^2 - 1 = x^2 + 4 over F5
        assert P(F5, 1, 1) * P(F5, -1, 1) == P(F5, 4, 0, 1)

    def test_divrem_geometric(self):
        q, r = P(F3, 0, 0, 0, 1).divrem(P(F3, -1, 1))
        assert q == P(F3, 1, 1, 1)
        assert r == P(F3, 1)

    def test_add_disjoint_supports(self):
        assert P(F5, 0, 0, 2, 1) + P(F5, 1, 2) == P(F5, 1, 2, 2, 1)

    def test_over_an_extension_is_a_ring_map(self):
        # carrying F_9 polynomials into F_81 commutes with products and
        # with evaluation; over their own field they stay as they are
        F81 = finite_field(3, 4)
        embed = F9.embedding(F81)
        rng = random.Random(5)
        for _ in range(20):
            f, g = (Poly(F9, [rng.randrange(9) for _ in range(4)]) for _ in range(2))
            assert (f * g).over(F81) == f.over(F81) * g.over(F81)
            a = rng.randrange(9)
            assert f.over(F81)(embed(a)) == embed(f(a))
            assert f.over(F9) is f

    def test_zero_degree_sentinel(self):
        assert Poly.zero(F5).degree == NEG_INFINITY
        assert Poly.one(F5).degree == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            P(F5, 1, 1).divrem(Poly.zero(F5))

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            P(F5, 1) + P(F3, 1)

    @pytest.mark.parametrize("field", [F5, F9])
    def test_divrem_reconstruction_random(self, field):
        rng = random.Random(11)
        for _ in range(200):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(8))])
            b = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
            if b.is_zero:
                continue
            q, r = a.divrem(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_string_roundtrip(self):
        f = Poly.from_string(F5, "0,2,1")
        assert f == P(F5, 0, 2, 1)
        assert f.to_string() == "0,2,1"
        g = Poly.from_string(F9, "1,12,02")
        assert g.to_string() == "01,12,02"
        assert Poly.from_string(F9, g.to_string()) == g

    def test_reverse(self):
        f = P(F5, 0, 0, 2, 1)  # x^3 + 2x^2
        assert f.reverse(3) == P(F5, 1, 2)


class TestGcd:
    def test_nested_powers(self):
        g, _, _ = poly_xgcd(P(F5, 0, 0, 1), P(F5, 0, 0, 0, 1))
        assert g == P(F5, 0, 0, 1)

    def test_bezout_identity_coprime(self):
        a, b = P(F3, 0, 0, 0, 1), P(F3, -1, 1)
        g, u, v = poly_xgcd(a, b)
        assert g == Poly.one(F3)
        assert u * a + v * b == Poly.one(F3)

    def test_one_argument_zero(self):
        g, u, v = poly_xgcd(Poly.zero(F7), P(F7, 2, 1))
        assert g == P(F7, 2, 1)
        assert u * Poly.zero(F7) + v * P(F7, 2, 1) == g

    def test_both_zero(self):
        with pytest.raises(ValueError):
            poly_xgcd(Poly.zero(F7), Poly.zero(F7))

    @pytest.mark.parametrize("field", [F5, F9])
    def test_random_degree_bounds(self, field):
        rng = random.Random(3)
        for _ in range(150):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 7))])
            b = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 7))])
            if a.is_zero or b.is_zero:
                continue
            g, u, v = poly_xgcd(a, b)
            assert u * a + v * b == g
            if not u.is_zero and b.degree > g.degree:
                assert u.degree < b.degree - g.degree
            if not v.is_zero and a.degree > g.degree:
                assert v.degree < a.degree - g.degree


# -- property tests: derandomized, so every run draws the same examples -------

PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


def _raw_field(p, k):
    """F_{p^k} on the raw routines alone, as a field above the table limit."""
    with pytest.MonkeyPatch.context() as patch:
        _lower_table_limit(patch, p ** k - 1)
        return FiniteField(p, k)


RAW125 = _raw_field(5, 3)
PROPERTY_FIELDS = pytest.mark.parametrize("field", [
    F9, finite_field(5, 2), F27, finite_field(7, 2), RAW125],
    ids=["F9", "F25", "F27", "F49", "raw-F125"])


def _elements(field):
    return st.integers(0, field.q - 1)


def _polys(field, max_terms=8):
    return st.lists(_elements(field), max_size=max_terms).map(lambda cs: Poly(field, cs))


class TestProperties:
    @PROPERTY_FIELDS
    def test_field_axioms(self, field):
        add, mul, neg, inv = field.add_i, field.mul_i, field.neg_i, field.inv_i

        @PROPERTY
        @given(_elements(field), _elements(field), _elements(field))
        def axioms(a, b, c):
            assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert add(a, 0) == a and mul(a, 1) == a and mul(a, 0) == 0
            assert add(a, neg(a)) == 0 and add(add(a, b), neg(b)) == a
            if a:
                assert mul(a, inv(a)) == 1

        axioms()
        assert field is not RAW125 or "exp" not in vars(field)

    @PROPERTY_FIELDS
    def test_divrem_identity(self, field):
        @PROPERTY
        @given(_polys(field), _polys(field, 5))
        def identity(a, b):
            assume(not b.is_zero)
            q, r = a.divrem(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

        identity()

    @PROPERTY_FIELDS
    def test_xgcd_identity(self, field):
        @PROPERTY
        @given(_polys(field), _polys(field))
        def identity(a, b):
            assume(not (a.is_zero and b.is_zero))
            g, u, v = poly_xgcd(a, b)
            assert u * a + v * b == g
            assert g.leading() == 1
            assert (a % g).is_zero and (b % g).is_zero

        identity()


class TestValuation:
    def test_explicit_factorisations(self):
        f = P(F5, 0, 0, 1) * P(F5, -1, 1)  # x^2 (x-1)
        assert poly_valuation(f, 0) == 2
        assert poly_valuation(P(F5, -1, 1) ** 3, 1) == 3

    def test_frobenius_identity(self):
        # x^3 - 1 = (x-1)^3 in characteristic 3
        assert poly_valuation(P(F3, -1, 0, 0, 1), 1) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_valuation(Poly.zero(F5), 0)

    @pytest.mark.parametrize("field", [F5, F9])
    def test_additivity_random(self, field):
        rng = random.Random(5)
        for _ in range(100):
            f = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
            g = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
            if f.is_zero or g.is_zero:
                continue
            a = rng.randrange(field.q)
            assert poly_valuation(f * g, a) == poly_valuation(f, a) + poly_valuation(g, a)


class TestInseparable:
    def test_frobenius_cube(self):
        f = P(F3, 0, 0, 0, 1)
        assert poly_is_inseparable(f)
        assert poly_pth_root(f) == P(F3, 0, 1)

    def test_substituted_square(self):
        f = P(F3, 1, 0, 0, 2, 0, 0, 1)  # x^6 + 2x^3 + 1
        assert poly_is_inseparable(f)
        assert poly_pth_root(f) == P(F3, 1, 2, 1)

    def test_separable_cubic(self):
        assert not poly_is_inseparable(P(F3, 0, 1, 0, 1))

    def test_pth_root_rejects(self):
        with pytest.raises(ValueError):
            poly_pth_root(P(F3, 0, 1, 0, 1))

    @pytest.mark.parametrize("field", [F3, F9, F5])
    def test_roundtrip_random(self, field):
        rng = random.Random(13)
        for _ in range(100):
            g = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 6))])
            assert poly_pth_root(frobenius_power(g)) == g


class TestBezoutInseparable:
    def test_constant_b(self):
        h1, h2 = bezout_inseparable(P(F3, 0, 0, 0, 1), Poly.one(F3))
        ident = P(F3, 0, 0, 0, 1) * h2 - Poly.one(F3) * h1
        assert ident == Poly.one(F3)

    def test_cube_pair(self):
        a, b = P(F3, 0, 0, 0, 1), P(F3, 1, 0, 0, 1)
        h1, h2 = bezout_inseparable(a, b)
        assert a * h2 - b * h1 == Poly.one(F3)
        assert poly_is_inseparable(h1) and poly_is_inseparable(h2)
        assert h1.is_zero or h1.degree < a.degree
        assert h2.is_zero or h2.degree < b.degree

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            bezout_inseparable(P(F3, 0, 0, 0, 1), P(F3, 0, 0, 0, 1))

    def test_not_inseparable(self):
        with pytest.raises(ValueError):
            bezout_inseparable(P(F3, 0, 1), P(F3, 1, 0, 0, 1))

    @pytest.mark.parametrize("field", [F3, F9])
    def test_random_pairs(self, field):
        rng = random.Random(17)
        done = 0
        while done < 60:
            ra = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 4))])
            rb = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 4))])
            if ra.is_zero or rb.is_zero:
                continue
            a, b = frobenius_power(ra), frobenius_power(rb)
            if poly_gcd(a, b).degree != 0:
                continue
            h1, h2 = bezout_inseparable(a, b)
            assert a * h2 - b * h1 == Poly.one(field)
            assert h1.derivative().is_zero and h2.derivative().is_zero
            done += 1


class TestLinearAlgebra:
    def test_rref_canonical(self):
        rows, pivots = rref([(0, 0, 1, 1), (1, 2, 0, 0)], F5)
        assert pivots == [0, 2]
        assert rows[0] == (1, 2, 0, 0)
        assert rows[1] == (0, 0, 1, 1)

    def test_nullspace_solves(self):
        rows = [(1, 2, 3), (0, 1, 4)]
        basis = nullspace(rows, F5)
        assert len(basis) == 1
        v = basis[0]
        for row in rows:
            acc = 0
            for a, b in zip(row, v):
                acc = F5.add_i(acc, F5.mul_i(a, b))
            assert acc == 0


class TestSplitting:
    def test_rational_split(self):
        f = P(F5, 0, 4, 2, 4)  # 4x(x-1)^2
        ext, roots = splitting_field_roots(f)
        assert ext == F5
        assert sorted(roots) == [(0, 1), (1, 2)]

    def test_extension_split(self):
        f = P(F3, 1, 0, 0, 0, 2)  # 2x^4 + 1 = 2(x^4 - 1): splits over F9
        assert [(j, m) for j, m, _ in algebra._distinct_degree_parts(f)] == [(1, 1), (2, 1)]
        ext, roots = splitting_field_roots(f)
        assert ext == F9
        assert len(roots) == 4
        assert all(m == 1 for _, m in roots)

    def test_repeated_irrational_factor(self):
        # (x^2+1)^3 (x-1) in char 3: the cubed factor must not be lost
        q = P(F3, 1, 0, 1)
        f = q * q * q * P(F3, -1, 1)
        assert algebra._distinct_degree_parts(f) == [(1, 1, P(F3, -1, 1)), (2, 3, q)]
        ext, roots = splitting_field_roots(f)
        assert ext == F9
        assert sorted(m for _, m in roots) == [1, 3, 3]

    def test_budget(self):
        f = P(F7, 3, 1, 0, 0, 0, 1)
        with pytest.raises(BudgetExceeded):
            splitting_field_roots(f, budget=10)

    def test_budget_from_the_environment(self, monkeypatch):
        # x^2 + 1 splits over F_9; an explicit budget takes precedence
        f = P(F3, 1, 0, 1)
        monkeypatch.setenv("RAMCOUNT_BUDGET", "8")
        with pytest.raises(BudgetExceeded, match="exceeds budget 8$"):
            splitting_field_roots(f)
        assert splitting_field_roots(f, budget=9)[0] == F9
        monkeypatch.setenv("RAMCOUNT_BUDGET", "9")
        assert splitting_field_roots(f)[0] == F9
        with pytest.raises(BudgetExceeded, match="exceeds budget 8$"):
            splitting_field_roots(f, budget=8)


# ---------------------------------------------------------------------------
# root finding against a scan of the field
# ---------------------------------------------------------------------------

def _scan_roots(fpoly):
    """Oracle for roots_with_multiplicity: every element of the field in
    encoding order, each root with its multiplicity by repeated division."""
    field = fpoly.field
    out = []
    for a in range(field.q):
        if fpoly(a):
            continue
        lin = Poly(field, (field.neg_i(a), 1))
        cur, m = fpoly, 0
        while True:
            quot, rem = cur.divrem(lin)
            if rem:
                break
            cur, m = quot, m + 1
        out.append((a, m))
    return out


def _scan_embedding(source, target):
    """Oracle for FiniteField.embedding: the images of all encodings of
    source, with y sent to the least root of source's modulus in target."""
    modulus = Poly(target, source.modulus)
    root = next(a for a in range(target.q) if modulus(a) == 0)
    powers = [1]
    for _ in range(source.k - 1):
        powers.append(target.mul_i(powers[-1], root))
    images = []
    for a in range(source.q):
        acc = 0
        for d, power in zip(source.decode(a), powers):
            acc = target.add_i(acc, target.mul_i(d, power))
        images.append(acc)
    return images


def _scan_splitting(fpoly, max_q):
    """Oracle for splitting_field_roots: scan F_{q^m} for m = 1, 2, ...
    until the roots account for the whole degree; None past max_q."""
    field = fpoly.field
    m = 1
    while field.q ** m <= max_q:
        ext = field.extension(m)
        images = _scan_embedding(field, ext) if m > 1 else range(field.q)
        roots = _scan_roots(Poly(ext, [images[c] for c in fpoly.coeffs]))
        if sum(mult for _, mult in roots) == fpoly.degree:
            return ext, roots
        m += 1
    return None


def _irreducibles(p, j, rng, count):
    """The modulus of F_{p^j} and further random monic irreducibles of
    degree j over F_p (a degree-j polynomial whose factors all have degree j
    is irreducible)."""
    fp = finite_field(p)
    out = [Poly(fp, finite_field(p, j).modulus)]
    while len(out) < count:
        f = Poly(fp, [rng.randrange(p) for _ in range(j)] + [1])
        if algebra._distinct_degree_parts(f) == [(j, 1, f)] and f not in out:
            out.append(f)
    return out


def _assert_roots_match(fpoly):
    assert roots_with_multiplicity(fpoly) == _scan_roots(fpoly), fpoly


def _assert_splitting_matches(fpoly, max_q=3 ** 7):
    expected = _scan_splitting(fpoly, max_q)
    if expected is None:
        with pytest.raises(BudgetExceeded):
            splitting_field_roots(fpoly, budget=max_q)
    else:
        ext, roots = splitting_field_roots(fpoly, budget=max_q)
        assert (ext, roots) == expected, fpoly


def _random_poly(field, rng, max_degree):
    return Poly(field, [rng.randrange(field.q) for _ in range(rng.randint(1, max_degree + 1))])


class TestRootsAgainstScan:
    @pytest.mark.parametrize("p, j", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2),
                                      (5, 3), (7, 2), (7, 3), (11, 2)])
    def test_lifted_irreducibles(self, p, j):
        # the roots of a lifted F_p-irreducible are Frobenius conjugates,
        # which no shift from F_p separates
        rng = random.Random(100 * p + j)
        for f in _irreducibles(p, j, rng, 3):
            for m in (j, 2 * j):
                if p ** m <= 3 ** 8:
                    ext = finite_field(p, m)
                    _assert_roots_match(f.over(ext))
                    _assert_roots_match((f * f * P(f.field, 1, 1)).over(ext))
            _assert_splitting_matches(f)

    @pytest.mark.parametrize("field", [F3, F5, F9, finite_field(5, 2)])
    def test_multiplicity_at_least_p(self, field):
        p = field.p
        rng = random.Random(field.q)
        for _ in range(12):
            a, b = rng.randrange(field.q), rng.randrange(field.q)
            lin_a = Poly(field, (field.neg_i(a), 1))
            lin_b = Poly(field, (field.neg_i(b), 1))
            inseparable = frobenius_power(_random_poly(field, rng, 3))  # in k[x^p]
            for f in (lin_a ** p, lin_a ** (p + 1) * lin_b, inseparable,
                      inseparable * lin_b ** 2):
                if f.is_zero:
                    continue
                _assert_roots_match(f)
                _assert_splitting_matches(f)

    @pytest.mark.parametrize("field", [F3, F7, F9, F27])
    def test_root_zero_linear_and_constant(self, field):
        x = Poly.x(field)
        cases = [Poly.one(field), Poly.constant(field, field.q - 1), x, x ** 4,
                 x ** 2 * P(field, 1, 1), x * P(field, 1, 0, 1)]
        cases += [Poly(field, (a, b)) for a in range(field.q) for b in (1, field.q - 1)]
        for f in cases:
            _assert_roots_match(f)
            _assert_splitting_matches(f)
        with pytest.raises(ValueError):
            roots_with_multiplicity(Poly.zero(field))

    @pytest.mark.parametrize("field, count", [(F3, 60), (F5, 60), (F7, 40), (F9, 40),
                                              (finite_field(5, 2), 25)])
    def test_seeded_polynomials(self, field, count):
        # over F_9 and F_25 the coefficients use the whole base field
        rng = random.Random(field.q + 1)
        for _ in range(count):
            f = _random_poly(field, rng, 6)
            if f.is_zero:
                continue
            if rng.random() < 0.3:
                f = f * Poly(field, (rng.randrange(field.q), 1)) ** 2
            _assert_roots_match(f)
            _assert_splitting_matches(f)

    def test_raw_fields(self, monkeypatch):
        # every field built in this test runs on the raw routines
        _lower_table_limit(monkeypatch, 1)
        rng = random.Random(29)
        for p, k in [(3, 1), (5, 1), (3, 2), (3, 3)]:
            field = finite_field(p, k)
            for _ in range(12):
                f = _random_poly(field, rng, 4)
                if f.is_zero:
                    continue
                _assert_roots_match(f)
                _assert_splitting_matches(f, max_q=3 ** 6)
            assert "exp" not in vars(field)
        f = _irreducibles(3, 4, rng, 1)[0]
        _assert_roots_match(f.over(finite_field(3, 4)))

    @pytest.mark.parametrize("p, k, j", [(3, 1, 2), (3, 1, 3), (3, 1, 4), (5, 1, 2),
                                         (5, 1, 3), (3, 2, 2), (3, 2, 3)])
    def test_parts_with_several_orbits(self, p, k, j):
        # a distinct-degree part made of 2 or 3 irreducibles of degree j,
        # so one part holds several Frobenius orbits; over F_9 an orbit is
        # r, r^9, ..., which r -> r^3 would not close
        rng = random.Random(1000 * p + 10 * k + j)
        field = finite_field(p, k)
        x = Poly.x(field)
        for _ in range(4):
            factors = rng.sample(_sieved_irreducibles(p, j, k), rng.randint(2, 3))
            f = functools.reduce(Poly.__mul__, factors)
            assert algebra._distinct_degree_parts(f) == [(j, 1, f)]
            _assert_splitting_matches(f, max_q=3 ** 7)
            # with a repeated linear factor and a repeated factor of degree j
            _assert_splitting_matches(f * (x - Poly.one(field)) ** 2 * factors[0],
                                      max_q=3 ** 7)

    @pytest.mark.parametrize("p, k, degrees", [(3, 1, (2, 2)), (3, 1, (2, 3)), (3, 1, (3, 3)),
                                               (5, 1, (2, 2)), (5, 1, (3, 3)), (3, 2, (2, 2)),
                                               (3, 2, (3, 3))])
    def test_orbit_multiplicities(self, p, k, degrees):
        # two distinct irreducibles at multiplicities 1 and 3 (= p over F_3
        # and F_9), times a squared linear factor: every root of an orbit
        # carries its irreducible's multiplicity
        rng = random.Random(1000 * p + 10 * k + sum(degrees))
        field = finite_field(p, k)
        for _ in range(3):
            a, b = rng.sample(_sieved_irreducibles(p, degrees[0], k), 2) \
                if degrees[0] == degrees[1] else \
                (rng.choice(_sieved_irreducibles(p, j, k)) for j in degrees)
            linear = Poly(field, (rng.randrange(field.q), 1))
            _assert_splitting_matches(a * b ** 3 * linear ** 2, max_q=3 ** 7)
            _assert_splitting_matches(a ** 3 * b * linear ** 2, max_q=3 ** 7)

    def test_embeddings(self, monkeypatch):
        # every proper subfield of every field with q <= 6561, from a fresh
        # source: its modulus splits into distinct linear factors over the
        # target, so the root is split out with no gcd or valuation
        def refuse(fpoly):
            raise AssertionError(f"roots_with_multiplicity({fpoly}) called")
        monkeypatch.setattr(algebra, "roots_with_multiplicity", refuse)
        for p in (n for n in range(3, 82) if algebra.is_prime(n)):
            for m in range(2, 9):
                if p ** m > 6561:
                    break
                target = finite_field(p, m)
                for k in range(1, m):
                    if m % k == 0:
                        source = FiniteField(p, k)
                        embed = source.embedding(target)
                        assert [embed(a) for a in range(source.q)] == \
                            _scan_embedding(source, target), (source, target)
                        if k > 1:
                            modulus = Poly(target, source.modulus)
                            least = next(a for a in range(target.q)
                                         if modulus(a) == 0)
                            assert source._embedding_roots == {target: least}

    def test_powmod_matches_repeated_product(self, monkeypatch):
        # small exponents against the plain power, and the Cantor-Zassenhaus
        # exponents (q^j - 1)/2 against square-and-multiply with Poly * and %,
        # on a prime field, on F_9 and F_27, and on a raw F_27
        def square_and_multiply(base, e, mod):
            result = Poly.one(base.field)
            for bit in bin(e)[2:]:
                result = (result * result) % mod
                if bit == "1":
                    result = (result * base) % mod
            return result

        def check(field):
            q = field.q
            for _ in range(40):
                base, mod = _random_poly(field, rng, 5), _random_poly(field, rng, 4)
                if mod.is_zero:
                    continue
                assert poly_powmod(base, 0, mod) == Poly.one(field)
                for e in (1, 2, 5, 12):
                    assert poly_powmod(base, e, mod) == (base ** e) % mod
                for e in ((q ** 2 - 1) // 2, (q ** 3 - 1) // 2):
                    assert poly_powmod(base, e, mod) == square_and_multiply(base, e, mod)

        rng = random.Random(31)
        for field in (F5, F9, F27):
            check(field)
        _lower_table_limit(monkeypatch, 1)
        raw = finite_field(3, 3)
        check(raw)
        assert "exp" not in vars(raw)


# ---------------------------------------------------------------------------
# the row kernel, checked by evaluation
# ---------------------------------------------------------------------------

def _values(fpoly, field=None):
    """fpoly at every element, by scalar add_i/mul_i Horner (of field, by
    default fpoly's own): no row kernel.  A polynomial of degree < q is
    determined by these values."""
    field = field or fpoly.field
    out = []
    for a in range(field.q):
        acc = 0
        for c in reversed(fpoly.coeffs):
            acc = field.add_i(field.mul_i(acc, a), c)
        out.append(acc)
    return out


def _assert_kernel_by_evaluation(field, rng, count, top, scalars=None):
    """Products and divrem over field against pointwise arithmetic in
    scalars (by default field itself), with every degree below
    min(q, top + 1), on random pairs and on pairs whose rows cancel to zero."""
    top = min(top, field.q - 1)
    scalars = scalars or field
    mul, add = scalars.mul_i, scalars.add_i
    values = functools.partial(_values, field=scalars)
    pairs = []
    for _ in range(count):
        da = rng.randint(0, top)
        a = _random_poly(field, rng, da)
        b = _random_poly(field, rng, top - da)
        pairs.append((a, b))
        c = rng.randrange(1, field.q)
        plus, minus = Poly(field, (c, 1)), Poly(field, (field.neg_i(c), 1))
        if top >= 2:
            pairs.append((plus, minus))  # x^2 - c^2: the x row cancels
        if not b.is_zero and a.degree + b.degree + 1 <= top:
            pairs.append((a * b, b))  # exact division: every remainder row cancels
            pairs.append((a * b + minus, b))
    for a, b in pairs:
        va, vb = values(a), values(b)
        assert values(a * b) == [mul(x, y) for x, y in zip(va, vb)], (a, b)
        assert values(a * b) == values(b * a)
        if b.is_zero:
            continue
        quot, rem = a.divrem(b)
        assert rem.is_zero or rem.degree < b.degree, (a, b)
        assert quot.is_zero if a.degree < b.degree else quot.degree == a.degree - b.degree
        vq, vr = values(quot), values(rem)
        assert [add(mul(x, y), z) for x, y, z in zip(vq, vb, vr)] == va, (a, b)


class TestRowKernel:
    @pytest.mark.parametrize("field, count", [
        (F3, 60), (finite_field(13), 40), (finite_field(7, 2), 30), (finite_field(3, 5), 12)],
        ids=["F3", "F13", "F49", "F243"])
    def test_products_and_division_by_evaluation(self, field, count):
        _assert_kernel_by_evaluation(field, random.Random(field.q + 3), count, top=12)

    def test_raw_field(self, monkeypatch):
        # evaluated with the scalar ops of the tabulated F_{3^7}, which has
        # the same encodings (test_raw_arithmetic_matches_tables)
        table = finite_field(3, 7)
        _lower_table_limit(monkeypatch, 3 ** 7 - 1)
        raw = FiniteField(3, 7)
        _assert_kernel_by_evaluation(raw, random.Random(37), 6, top=10, scalars=table)
        assert "exp" in vars(table)
        assert "exp" not in vars(raw)  # the raw kernel ran, not the log one

    def test_rref_raw_matches_tables(self, monkeypatch):
        # rref's row operation is the kernel too: the raw and the tabulated
        # F_{3^7} share encodings, so they must reduce every matrix alike,
        # and each nullspace vector must annihilate the original rows
        table = finite_field(3, 7)
        _lower_table_limit(monkeypatch, 3 ** 7 - 1)
        raw = FiniteField(3, 7)
        rng = random.Random(41)
        for _ in range(12):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 6)
            rows = [[rng.randrange(table.q) if rng.random() < 0.7 else 0
                     for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:
                c = rng.randrange(1, table.q)
                rows[-1] = [table.mul_i(c, x) for x in rows[0]]  # a dependent row
            reduced, pivots = rref(rows, table)
            assert rref(rows, raw) == (reduced, pivots)
            for field in (table, raw):
                for vec in nullspace(rows, field):
                    for row in rows:
                        dot = functools.reduce(table.add_i, map(table.mul_i, row, vec), 0)
                        assert dot == 0, (rows, vec)
        assert "exp" not in vars(raw)


# ---------------------------------------------------------------------------
# the distinct-degree pass: stopping rules and early refusal
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _sieved_irreducibles(p, j, k=1):
    """Monic irreducibles of degree j over F_{p^k}: every monic polynomial
    of degree j that is not a product of two monic ones of lower degree."""
    fq = finite_field(p, k)
    q = fq.q

    def monics(deg):
        return [Poly(fq, [m // q ** i % q for i in range(deg)] + [1])
                for m in range(q ** deg)]

    reducible = {(a * b).coeffs for i in range(1, j // 2 + 1)
                 for a in monics(i) for b in monics(j - i)}
    return [f for f in monics(j) if f.coeffs not in reducible]


def _sieved_product(p, rng, max_small):
    """(f, {(j, m): product of the distinct factors of degree j and
    multiplicity m}): up to three small factors of degree <= 3, some
    repeated, and usually one factor of degree above half of deg f, which
    ends the pass early."""
    fp = finite_field(p)
    factors = {}
    for _ in range(rng.randint(0, 3)):
        factors.setdefault(rng.choice(_sieved_irreducibles(p, rng.randint(1, max_small))),
                           rng.randint(1, 2))
    small = sum(g.degree * m for g, m in factors.items())
    big_degrees = [j for j in range(small + 1, 7) if p ** j <= 3 ** 6]
    if big_degrees and rng.random() < 0.8:
        factors[rng.choice(_sieved_irreducibles(p, rng.choice(big_degrees)))] = 1
    f = Poly.constant(fp, rng.randrange(1, p))
    parts = {}
    for g, m in factors.items():
        f = f * g ** m
        parts[g.degree, m] = parts.get((g.degree, m), Poly.one(fp)) * g
    return f, parts


class TestDistinctDegreeStop:
    @pytest.mark.parametrize("p, count", [(3, 60), (5, 40), (7, 25)])
    def test_parts_match_sieve(self, p, count):
        rng = random.Random(p + 41)
        for _ in range(count):
            f, parts = _sieved_product(p, rng, 3 if p == 3 else 2)
            classes = algebra._distinct_degree_parts(f)
            assert classes == [(j, m, g) for (j, m), g in sorted(parts.items())], f
            # the classes account for every factor at its multiplicity
            assert functools.reduce(Poly.__mul__, (g ** m for _, m, g in classes),
                                    Poly.one(f.field)) == f.monic()[0], f

    @pytest.mark.parametrize("p", [3, 5])
    def test_refusal_is_exactly_over_budget(self, p):
        rng = random.Random(p + 43)
        for _ in range(30):
            f, parts = _sieved_product(p, rng, 2)
            if f.degree < 1:
                continue
            K = math.lcm(*(j for j, _ in parts))
            for budget in {p ** K - 1, p ** K, p ** K + 1, p ** (K - 1), rng.randrange(2, 3 ** 8)}:
                if p ** K > budget:
                    with pytest.raises(BudgetExceeded, match=f"exceeds budget {budget}$"):
                        splitting_field_roots(f, budget)
                else:
                    ext, roots = splitting_field_roots(f, budget)
                    assert ext == finite_field(p, K)
                    assert sum(m for _, m in roots) == f.degree

    def test_refusal_stops_at_the_budget(self, monkeypatch):
        # an irreducible of degree 14 over F_13 needs F_{13^14}; with
        # 13^3 <= budget < 13^4 the pass must give up after step 3
        budget = 2 * 10 ** 4
        max_ext = max(m for m in range(15) if 13 ** m <= budget)
        f = Poly(finite_field(13), finite_field(13, 14).modulus)
        calls = []

        def counting_powmod(*args):
            calls.append(args)
            return poly_powmod(*args)

        monkeypatch.setattr(algebra, "poly_powmod", counting_powmod)
        with pytest.raises(BudgetExceeded, match=f"exceeds budget {budget}$") as refusal:
            splitting_field_roots(f, budget)
        # steps 1..max_ext take one power each; step max_ext + 1 refuses
        # before taking its own
        assert len(calls) <= max_ext
        bound = int(re.search(r"m >= (\d+)", str(refusal.value)).group(1))
        assert max_ext < bound <= 14  # a lower bound on the degree needed

    def test_refusal_before_a_power_no_degree_can_fit(self, monkeypatch):
        # over F_5 with budget 200, K_max = 3; x + 1 is found at step 1.
        # Times an irreducible quadratic and cubic, work has degree 5 at
        # step 2, and 5 = 2 + 3 or 5 splits over F_{5^6} or F_{5^5} at the
        # least: refused before step 2's power, with m >= 5.  With the cubic
        # squared, step 2 finds the quadratic (L = 2), and work of degree 6
        # at step 3 is 3 + 3 or 6: F_{5^6} at the least, refused before
        # step 3's power, with m >= 6.  A rule on q^j alone took one more
        # power in each case
        fp = finite_field(5)
        linear, quadratic = Poly(fp, (1, 1)), Poly(fp, finite_field(5, 2).modulus)
        cubic = Poly(fp, finite_field(5, 3).modulus)
        calls = []

        def counting_powmod(*args):
            calls.append(args)
            return poly_powmod(*args)

        monkeypatch.setattr(algebra, "poly_powmod", counting_powmod)
        for f, powers, bound in ((linear * quadratic * cubic, 1, 5),
                                 (linear * quadratic * cubic ** 2, 2, 6)):
            calls.clear()
            with pytest.raises(BudgetExceeded,
                               match=rf"F_\{{5\^m\}} with m >= {bound} exceeds budget 200$"):
                splitting_field_roots(f, 200)
            assert len(calls) == powers, f

    @pytest.mark.parametrize("n, j, ext_deg, least", [
        (5, 2, 1, 5), (6, 3, 2, 6), (14, 3, 1, 7), (12, 2, 1, 2), (7, 2, 1, 6),
        (9, 2, 3, 3), (4, 1, 4, 4), (10, 4, 1, 5), (8, 3, 5, 15)])
    def test_least_split_degree(self, n, j, ext_deg, least):
        # 7 = 2 + 2 + 3 (L = 6) beats 7 (L = 7); 9 = 3 + 3 + 3 with
        # L = 3; 10 = 5 + 5 beats 4 + 6 and 10; 8 = 3 + 5 needs
        # lcm(5, 3, 5) = 15, which beats 8 (L = 40)
        assert algebra._least_split_degree(n, j, ext_deg) == least


# ---------------------------------------------------------------------------
# the remainder path against schoolbook division
# ---------------------------------------------------------------------------

def _schoolbook_divrem(a, b):
    """Oracle for Poly.divrem: long division with the scalar ops alone, one
    quotient coefficient c = rem[i] / lead per step, then rem -= c x^(i-n) b."""
    f = a.field
    rem, n = list(a.coeffs), b.degree
    inv = f.inv_i(b.leading())
    quot = [0] * max(len(rem) - n, 0)
    for i in range(len(rem) - 1, n - 1, -1):
        c = f.mul_i(rem[i], inv)
        quot[i - n] = c
        for t, d in enumerate(b.coeffs):
            rem[i - n + t] = f.add_i(rem[i - n + t], f.neg_i(f.mul_i(c, d)))
    return Poly(f, quot), Poly(f, rem[:n])


def _schoolbook_gcd(a, b):
    while not b.is_zero:
        a, b = b, _schoolbook_divrem(a, b)[1]
    if a.is_zero:
        return a
    inv = a.field.inv_i(a.leading())
    return Poly(a.field, [a.field.mul_i(c, inv) for c in a.coeffs])


REMAINDER_FIELDS = pytest.mark.parametrize("field", [
    F7, F9, finite_field(7, 3), _raw_field(7, 2)], ids=["F7", "F9", "F343", "raw-F49"])


class TestRemainderPath:
    @REMAINDER_FIELDS
    def test_division_matches_schoolbook(self, field):
        # non-monic and constant divisors, dividends shorter than the
        # divisor, and zero dividends
        rng = random.Random(field.q + 71)
        for _ in range(120):
            a = _random_poly(field, rng, rng.choice((0, 3, 9)))
            if rng.random() < 0.1:
                a = Poly.zero(field)
            b = _random_poly(field, rng, rng.choice((0, 1, 4, 6)))
            if b.is_zero:
                continue
            quot, rem = _schoolbook_divrem(a, b)
            assert a.divrem(b) == (quot, rem), (a, b)
            assert a % b == rem and a // b == quot, (a, b)
            if a.degree < b.degree:
                assert (quot, rem) == (Poly.zero(field), a)

    @REMAINDER_FIELDS
    def test_gcd_is_the_monic_common_factor(self, field):
        rng = random.Random(field.q + 73)
        for _ in range(40):
            c, u, v = (_random_poly(field, rng, 4) for _ in range(3))
            if c.is_zero or u.is_zero or v.is_zero:
                continue
            a, b = c * u, c * v
            g = poly_gcd(a, b)
            assert g == _schoolbook_gcd(a, b), (a, b)
            assert g.leading() == 1 and (a % g).is_zero and (b % g).is_zero
            assert (g % c.monic()[0]).is_zero
        # coprime: products of distinct linear factors, scaled off monic
        for _ in range(20):
            roots = rng.sample(range(field.q), 6)
            a, b = (functools.reduce(Poly.__mul__, (Poly(field, (field.neg_i(r), 1)) for r in rs),
                                     Poly.constant(field, rng.randrange(1, field.q)))
                    for rs in (roots[:3], roots[3:]))
            assert poly_gcd(a, b) == Poly.one(field)
        assert poly_gcd(Poly.zero(field), Poly.zero(field)) == Poly.zero(field)

    @REMAINDER_FIELDS
    def test_powmod_with_a_non_monic_modulus(self, field):
        rng = random.Random(field.q + 79)

        def square_and_multiply(base, e, mod):
            result = Poly.one(field)
            for bit in bin(e)[2:]:
                result = _schoolbook_divrem(result * result, mod)[1]
                if bit == "1":
                    result = _schoolbook_divrem(result * base, mod)[1]
            return result

        for _ in range(15):
            base, mod = _random_poly(field, rng, 5), _random_poly(field, rng, 4)
            if mod.is_zero or mod.leading() == 1:
                continue
            for e in (1, 2, 7, field.q, (field.q - 1) // 2):
                assert poly_powmod(base, e, mod) == square_and_multiply(base, e, mod), (base, mod, e)
