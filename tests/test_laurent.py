import math
from fractions import Fraction

import pytest

from parbetti import laurent
from parbetti.laurent import (
    LaurentPoly,
    LaurentSeries,
    NonDivisible,
    TruncationLimit,
    _product,
    one_plus,
)
from parbetti.ratfunc import FactoredRatFunc

from oracles import divide_exact, evaluate, geometric_power, one_minus

F = Fraction
P = LaurentPoly


def test_construction_drops_zeros():
    p = P({0: 1, 2: 0, 5: F(0)})
    assert p.coeffs == {0: F(1)}
    assert P({}).is_zero()
    assert not P.zero()


def test_add_mul_basic():
    a = P({0: 1, 1: 2})
    b = P({1: -2, 3: 1})
    assert (a + b).coeffs == {0: F(1), 3: F(1)}
    assert (a - a).is_zero()
    prod = a * b
    # (1 + 2t)(-2t + t^3) = -2t - 4t^2 + t^3 + 2t^4
    assert prod.coeffs == {1: F(-2), 2: F(-4), 3: F(1), 4: F(2)}


def test_pow():
    assert (one_plus(1) ** 3).coeffs == {0: F(1), 1: F(3), 2: F(3), 3: F(1)}
    for base in (one_plus(1), P({2: 3}), P.one()):
        with pytest.raises(ValueError):
            base ** -1
    assert (one_minus(2) ** 0) == P.one()


def test_two_term_pow_is_repeated_product():
    """The binomial expansion of a two-term base agrees with multiplying it
    out, for negative exponents and coefficients other than 1 too."""
    import random

    rng = random.Random(13)
    for n in list(range(41)) * 2:
        p, q = rng.sample(range(-6, 7), 2)
        a, b = (rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(2))
        base = P({p: a, q: b})
        expected = P.one()
        for _ in range(n):
            expected = expected * base
        power = base ** n
        assert power == expected, (base, n)
        assert all(type(c) is int and c for c in power.coeffs.values())


def test_laurent_negative_exponents():
    p = P({-1: 1, 1: -1})
    q = divide_exact(p, one_minus(2))
    assert q.coeffs == {-1: F(1)}
    assert evaluate(p, F(2)) == F(1, 2) - 2
    with pytest.raises(ZeroDivisionError):
        evaluate(p, 0)


def test_evaluate_returns_exact_fractions():
    values = [
        evaluate(P({0: 1, 1: 1}), 2),
        evaluate(P({-1: 3}), F(1, 2)),
        evaluate(P({-2: 1, 1: 4}), F(-2, 3)),
        evaluate(P.zero(), 1),
    ]
    assert values == [3, 6, F(9, 4) - F(8, 3), 0]
    assert all(type(v) is Fraction for v in values)
    with pytest.raises(TypeError):
        evaluate(P.one(), 0.5)


def test_coefficients_are_integers():
    assert P({0: F(6, 3), 2: F(-4, 4)}).coeffs == {0: 2, 2: -1}
    assert LaurentSeries({0: F(3), 1: F(0)}, 2).coeffs == {0: 3}
    for bad in (F(1, 2), 0.5, "1"):
        with pytest.raises(TypeError):
            P({0: bad})
        with pytest.raises(TypeError):
            LaurentSeries({0: bad}, 3)
        with pytest.raises(TypeError):
            P({0: 4, 1: -2}).scale(bad)


def test_divide_exact_over_the_integers():
    with pytest.raises(NonDivisible):
        divide_exact(P({0: 1}), P({0: 2}))
    with pytest.raises(NonDivisible):
        # (1 + t)(1 + 2t) / 2 is not an integer polynomial
        divide_exact(P({0: 1, 1: 3, 2: 2}), P({0: 2}))
    # a non-unit leading coefficient is fine when the quotient is integral
    quot = divide_exact(P({0: 1, 1: 3, 2: 2}), P({0: 1, 1: 2}))
    assert quot == one_plus(1) and _ints(quot)
    quot = divide_exact(P({-1: 3, 0: 2, 2: -4}) * P({0: -3, 2: 6}), P({0: -3, 2: 6}))
    assert quot == P({-1: 3, 0: 2, 2: -4}) and _ints(quot)


def test_divide_exact_fixture():
    num = P({0: 1, 3: 4, 4: -1, 5: -4, 7: -4, 8: -1, 9: 4, 12: 1})
    quot = divide_exact(num, one_minus(2) ** 2)
    expected = P({0: 1, 2: 2, 3: 4, 4: 2, 5: 4, 6: 2, 8: 1})
    assert quot == expected
    assert quot * one_minus(2) ** 2 == num


def test_divide_exact_remainder():
    with pytest.raises(NonDivisible):
        divide_exact(one_plus(1), one_minus(1))


def test_divide_exact_random_roundtrip():
    import random

    rng = random.Random(7)
    for _ in range(25):
        a = P({rng.randrange(-3, 9): rng.randrange(-5, 6) for _ in range(6)})
        b = P({rng.randrange(-2, 5): rng.randrange(-5, 6) for _ in range(4)})
        if a.is_zero() or b.is_zero():
            continue
        assert divide_exact(a * b, b) == a


def test_series_truncation_rules():
    a = LaurentSeries({0: 1, 1: 1}, 5)
    b = LaurentSeries({2: 1, 4: 3}, 7)
    assert (a + b).trunc == 5
    prod = a * b
    assert prod.trunc == min(5 + 2, 7 + 0)
    assert prod.coeff(3) == 1

    z = LaurentSeries.zero(5)  # certified zero through t^5
    assert (z * b).trunc == min(5 + 2, 7 + 6)
    assert (z * b).is_zero()


def test_series_coeff_beyond_trunc_rejected():
    s = LaurentSeries({0: 1}, 4)
    with pytest.raises(ValueError):
        s.coeff(5)


def test_geometric_power():
    g = geometric_power(1, 2, 6)
    assert [g.coeff(k) for k in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    g3 = geometric_power(3, 1, 9)
    assert g3.coeffs == {0: F(1), 3: F(1), 6: F(1), 9: F(1)}


def _ints(obj):
    return bool(obj.coeffs) and all(type(c) is int for c in obj.coeffs.values())


def test_integer_inputs_stay_integer():
    p, q = P({-1: 2, 0: -3, 4: 1}), P({0: 1, 2: 5, 3: -1})
    s, u = LaurentSeries({0: 1, 1: -2, 5: 3}, 8), LaurentSeries({-1: 4, 2: 1}, 6)
    outs = [
        p * q, p + q, p - q, -p, p.shift(3), p.scale(-2), q**3,
        s * u, s + u, s - u, -s, s.mul_poly(p), s.mul_poly(P({-2: 1})), s.truncate(3),
        s.mul_poly(LaurentPoly({0: 3})),
        divide_exact(p * one_minus(3), one_minus(3)),
        FactoredRatFunc(0, LaurentPoly.one(), {2: -3}).expand(12),
        FactoredRatFunc(2, q, {1: 2, 3: -1}).expand(15),
        FactoredRatFunc(-1, one_minus(6), {2: -1, 3: 1}).to_laurent_poly(),
        # integral Fractions are stored as ints
        P({0: F(6, 3), 2: F(-4, 4)}),
        P({0: 4, 1: -2}).scale(F(-6, 2)),
        divide_exact(P({0: 1, 1: 3, 2: 2}), P({0: 1, 1: 2})),
    ]
    for out in outs:
        assert _ints(out), out


def test_first_difference():
    a = LaurentSeries({0: 1, 4: 2}, 9)
    b = LaurentSeries({0: 1, 4: 3}, 9)
    assert a.first_difference(b) == 4
    assert a.first_difference(a) is None


# -- the product and sum kernels against naive double loops -----------------


def _random_coeffs(rng):
    """Sparse dict with negative exponents, unsorted insertion order, and
    coefficients that often cancel in products and sums."""
    exps = rng.sample(range(-6, 12), rng.randrange(0, 9))
    return {e: rng.choice((-3, -2, -1, 1, 1, 2, 3)) for e in exps}


def _naive_product(a, b, top=None):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if top is None or ea + eb <= top:
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _naive_sum(a, b, top=None):
    out = {}
    for d in (a, b):
        for e, c in d.items():
            if top is None or e <= top:
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _stored_well(obj):
    return all(type(c) is int and c != 0 for c in obj.coeffs.values())


def test_products_and_sums_match_naive_loops():
    import random

    rng = random.Random(11)
    cancelled = 0
    for _ in range(400):
        a, b = _random_coeffs(rng), _random_coeffs(rng)
        pa, pb = P(a), P(b)
        ta, tb = rng.randrange(-4, 14), rng.randrange(-4, 14)
        sa, sb = LaurentSeries(a, ta), LaurentSeries(b, tb)
        a_in, b_in = sa.coeffs, sb.coeffs

        prod, total = pa * pb, pa + pb
        assert prod.coeffs == _naive_product(a, b)
        assert total.coeffs == _naive_sum(a, b)

        top = min(ta + sb.order_bound(), tb + sa.order_bound())
        sprod = sa * sb
        assert (sprod.trunc, sprod.coeffs) == (top, _naive_product(a_in, b_in, top))
        ssum = sa + sb
        top = min(ta, tb)
        assert (ssum.trunc, ssum.coeffs) == (top, _naive_sum(a_in, b_in, top))

        if b:
            spoly = sa.mul_poly(pb)
            top = ta + pb.min_exp()
            assert (spoly.trunc, spoly.coeffs) == (top, _naive_product(a_in, b, top))
            assert _stored_well(spoly)
        for res in (prod, total, sprod, ssum):
            assert _stored_well(res)
        cancelled += len(total.coeffs) < len(set(a) | set(b))
    assert cancelled > 20  # the operands really do cancel


def _kernel_operands(rng, terms):
    """A dict of the given number of terms: negative exponents, gaps, mixed
    signs, and coefficients from one digit to past 2^64 and 2^128."""
    exps = rng.sample(range(-15, 3 * terms + 10), terms)
    size = rng.choice((3, 2**20, 2**63, 2**70, 2**130))
    return {e: rng.choice((-1, 1)) * rng.randint(1, size) for e in exps}


def test_product_kernel_matches_naive_loop(monkeypatch):
    """``_product`` against the double loop on both branches: the term loop
    up to ``_SPARSE_TERMS`` terms in the shorter operand, one packed
    big-int multiply beyond, sizes at the threshold included, with ``top``
    below, inside and above the product's exponent range."""
    import random

    rng = random.Random(17)
    limit = laurent._SPARSE_TERMS
    packed = []
    packed_product = laurent._packed_product

    def recorded(a, b, top):
        packed.append(min(len(a), len(b)))
        return packed_product(a, b, top)

    monkeypatch.setattr(laurent, "_packed_product", recorded)
    sizes = [1, 2, limit - 1, limit, limit + 1, limit + 2, 12, 30]
    for short in sizes:
        for long in (short, short + 3, 40):
            for _ in range(12):
                a, b = _kernel_operands(rng, short), _kernel_operands(rng, long)
                if rng.random() < 0.5:
                    a, b = b, a
                lo, hi = min(a) + min(b), max(a) + max(b)
                for top in (None, lo - 1, lo, rng.randint(lo, hi), hi, hi + 5):
                    calls = len(packed)
                    got = _product(a, b, top)
                    assert got == _naive_product(a, b, top)
                    assert all(type(c) is int and c for c in got.values())
                    assert (len(packed) > calls) == (short > limit)
    # (1 - t) a times (1 + t + ... + t^m) b is (1 - t^(m+1)) a b: a product
    # whose middle cancels, coefficients past 2^64 included
    for short in (limit, limit + 1, 9):
        for _ in range(10):
            a, b = _kernel_operands(rng, short), _kernel_operands(rng, short + 2)
            m = (max(a) + max(b)) - (min(a) + min(b)) + 1
            x = _naive_product(a, {0: 1, 1: -1})
            y = _naive_product(b, dict.fromkeys(range(m + 1), 1))
            got = _product(x, y)
            assert got == _naive_product(x, y)
            assert all(type(c) is int and c for c in got.values())
            assert got == _naive_product(_naive_product(a, b), {0: 1, m + 1: -1})
    assert sorted(set(packed))[0] == limit + 1


def test_packed_digits_hold_the_bound_at_every_width():
    """Every coefficient c of n equal terms, times the same, reaches the
    packing bound n c^2 in the middle of the product; with either sign, and
    with c stepped so that the bound's bit length crosses each byte edge
    from one byte to past 8 (where a digit takes the bytes it needs, not a
    power of two), the packed product equals the double loop."""
    n = laurent._SPARSE_TERMS + 3
    for bits in range(4, 150):
        for c in {(1 << bits) - 1, 1 << bits, (1 << bits) + 1}:
            c = math.isqrt(c // n) or 1
            for sign in (1, -1):
                a = dict.fromkeys(range(n), c)
                b = dict.fromkeys(range(-2, n - 2), sign * c)
                assert _product(a, b) == _naive_product(a, b)
                assert _product(a, b, 1) == _naive_product(a, b, 1)


def test_mul_poly_by_two_sparse_terms(monkeypatch):
    """``mul_poly`` by t^0 + t^N, N from 1 to far past the series' length,
    takes the term loop and equals the naive double loop."""
    import random

    def unexpected(a, b, top):
        raise AssertionError("a two-term operand was packed")

    monkeypatch.setattr(laurent, "_packed_product", unexpected)
    rng = random.Random(5)
    for n in (1, 3, 25, 400):
        coeffs = _kernel_operands(rng, 20)
        s = LaurentSeries(coeffs, max(coeffs) + 2)
        poly = P({0: 1, n: 1})
        got = s.mul_poly(poly)
        assert got.trunc == s.trunc
        assert got.coeffs == _naive_product(s.coeffs, poly.coeffs, s.trunc)
        assert _stored_well(got)


def test_product_past_max_truncation_rejected():
    s = LaurentSeries({6000: 1}, 15000)
    with pytest.raises(TruncationLimit):
        s * s  # exact through 15000 + 6000 = 21000 > MAX_TRUNCATION
