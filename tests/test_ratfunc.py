import random
from fractions import Fraction

import pytest

from parbetti import laurent, ratfunc
from parbetti.laurent import (
    LaurentPoly,
    LaurentSeries,
    NonDivisible,
    TruncationLimit,
    one_plus,
)
from parbetti.ratfunc import FactoredRatFunc

from oracles import divide_exact, geometric_power, one_minus

F = Fraction
FRF = FactoredRatFunc


def test_canonical_form():
    f = FRF(0, LaurentPoly({3: 2, 4: 2}))
    assert f.shift == 3
    assert f.numer == LaurentPoly({0: 2, 1: 2})
    z = FRF(5, LaurentPoly.zero(), {2: -1})
    assert z.is_zero() and z.shift == 0 and z.factors == {}
    assert FRF(0, LaurentPoly.one(), {2: 0}).factors == {}


def test_mul():
    f = FRF(1, one_plus(1), {2: -1})
    g = f * f
    assert g.shift == 2 and g.factors == {2: -2}
    assert g.numer == one_plus(1) ** 2


def test_equality_cross_multiplies():
    # (1 - t^4)/(1 - t^2) == 1 + t^2 without ever factoring the numerator
    f = FRF(0, LaurentPoly.one(), {4: 1, 2: -1})
    g = FRF(0, one_plus(2))
    assert f == g
    assert f != g * FRF.monomial(1)


def test_add():
    one = FRF()
    f = FRF(2, LaurentPoly.one(), {2: -1})  # t^2/(1-t^2)
    s = f + one
    assert s == FRF(0, LaurentPoly.one(), {2: -1})
    assert (s - s).is_zero()
    assert (f + FRF.zero()) == f


def test_expand():
    f = FRF(0, LaurentPoly.one(), {2: -1})
    s = f.expand(7)
    assert s.coeffs == {0: F(1), 2: F(1), 4: F(1), 6: F(1)}
    g = FRF(-3, LaurentPoly.one(), {1: -1})
    sg = g.expand(0)
    assert [sg.coeff(k) for k in (-3, -2, -1, 0)] == [1, 1, 1, 1]
    assert FRF.monomial(9).expand(5).is_zero()
    assert FRF.zero().expand(5).is_zero()


def test_expand_positive_factors():
    f = FRF(0, LaurentPoly.one(), {2: 1, 1: -1})  # (1-t^2)/(1-t) = 1 + t
    assert f.expand(6).coeffs == {0: F(1), 1: F(1)}


def test_to_laurent_poly():
    f = FRF(0, LaurentPoly.one(), {4: 1, 2: -1})
    assert f.to_laurent_poly() == one_plus(2)
    f2 = FRF(0, one_minus(6) * one_minus(1), {2: -1, 3: -1})
    assert f2.to_laurent_poly() == LaurentPoly({0: 1, 1: -1, 2: 1})
    with pytest.raises(NonDivisible):
        FRF(0, one_plus(1), {2: -1}).to_laurent_poly()



# -- the dense (1 - t^k) passes against the generic polynomial path ----------


def _generic_to_laurent_poly(f):
    """Multiply the numerator out, then long-divide factor by factor."""
    p = f.numer
    for k, e in sorted(f.factors.items()):
        if e > 0:
            p = p * one_minus(k) ** e
    for k, e in sorted(f.factors.items()):
        for _ in range(max(-e, 0)):
            p = divide_exact(p, one_minus(k))
    return p.shift(f.shift)


def _generic_expand(f, trunc):
    """Truncated series products with (1 - t^k)^e and geometric series."""
    work = trunc - f.shift
    if f.numer.is_zero() or work < 0:
        return LaurentSeries.zero(trunc)
    series = LaurentSeries(f.numer.coeffs, work)
    for k, e in sorted(f.factors.items()):
        if e > 0:
            series = series.mul_poly(one_minus(k) ** e).truncate(work)
        else:
            series = series * geometric_power(k, -e, work)
    return series.exact_through(work).truncate(work).shift(f.shift)


def _generic_add(f, g):
    """Both sides lifted to the common factors by polynomial products."""
    if f.is_zero() or g.is_zero():
        return g if f.is_zero() else f
    keys = set(f.factors) | set(g.factors)
    common = {k: min(f.factors.get(k, 0), g.factors.get(k, 0)) for k in keys}
    shift = min(f.shift, g.shift)

    def lifted(h):
        p = h.numer.shift(h.shift - shift)
        for k in keys:
            p = p * one_minus(k) ** (h.factors.get(k, 0) - common[k])
        return p

    return FRF(shift, lifted(f) + lifted(g), common)


def _random_func(rng, divisible=False):
    """Signed numerator of up to 9 terms, shift in -6..6, factor exponents
    of both signs with k up to 12; divisible multiplies the numerator by
    every denominator factor first."""
    numer = LaurentPoly({rng.randrange(9): rng.randrange(-5, 6) for _ in range(rng.randrange(10))})
    factors = {rng.randrange(1, 13): rng.choice((-3, -2, -1, 1, 2)) for _ in range(rng.randrange(4))}
    if divisible:
        for k, e in factors.items():
            numer = numer * one_minus(k) ** max(-e, 0)
    return FRF(rng.randrange(-6, 7), numer, factors)


def _same(f, g):
    return (f.shift, f.numer, f.factors) == (g.shift, g.numer, g.factors)


def _outcome(call, *args):
    try:
        return call(*args)
    except NonDivisible as exc:
        return ("NonDivisible", str(exc))


def test_to_laurent_poly_matches_generic_division():
    rng = random.Random(14)
    failures = 0
    for i in range(400):
        f = _random_func(rng, divisible=i % 2 == 0)
        got = _outcome(FRF.to_laurent_poly, f)
        assert got == _outcome(_generic_to_laurent_poly, f), f
        failures += isinstance(got, tuple)
    assert 50 < failures < 200  # both outcomes are exercised


def test_expand_matches_generic_series():
    rng = random.Random(15)
    for i in range(300):
        f = _random_func(rng) if i % 10 else FRF.zero()
        for trunc in (f.shift - 1, f.shift, f.shift + 3, f.shift + 25):
            assert f.expand(trunc) == _generic_expand(f, trunc), (f, trunc)


def test_expand_is_the_negative_binomial_series():
    for k in (1, 2, 5):
        for m in (1, 2, 4):
            got = FRF(0, LaurentPoly.one(), {k: -m}).expand(30)
            assert got == geometric_power(k, m, 30)


def test_add_matches_generic_lift():
    rng = random.Random(16)
    for i in range(300):
        f, g = _random_func(rng), _random_func(rng)
        if i % 7 == 0:
            g = -f
        assert _same(f + g, _generic_add(f, g)), (f, g)


def test_passes_use_no_generic_products(monkeypatch):
    def banned(*args):
        raise AssertionError("generic polynomial product")

    rng = random.Random(17)
    funcs = [_random_func(rng, divisible=True) for _ in range(20)]
    monkeypatch.setattr(laurent, "_product", banned)
    for f, g in zip(funcs, funcs[1:]):
        f.to_laurent_poly()
        f.expand(f.shift + 20)
        f + g


def test_expand_refuses_deep_truncation_before_allocating(monkeypatch):
    def banned(*args):
        raise AssertionError("allocated a coefficient list")

    monkeypatch.setattr(ratfunc, "_dense", banned)
    with pytest.raises(TruncationLimit, match="truncation 30000 exceeds 20000"):
        FRF(-30000, LaurentPoly.one(), {1: -1}).expand(0)
