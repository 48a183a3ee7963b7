from fractions import Fraction

import pytest

from parbetti.laurent import LaurentPoly, NonDivisible, one_minus, one_plus
from parbetti.ratfunc import FactoredRatFunc

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

