"""Rational functions kept in the factored form t^shift * p(t) * prod (1-t^k)^e_k.

The only denominators that ever occur in this project are products of
cyclotomic-style factors (1 - t^k), so the factor dict maps k >= 1 to an
integer exponent e_k (negative exponents are denominator factors), and the
numerator p has integer coefficients.  Keeping the factorization explicit
makes exact series expansion and exact polynomial certification cheap.
The three general routes share one such function, the engine's bridge
prefactor: the closed routes multiply by it and certify, the recursion
multiplies by its expansion, so no series is ever inverted.
"""

from __future__ import annotations

from .laurent import (
    LaurentPoly,
    LaurentSeries,
    divide_exact,
    geometric_power,
    one_minus,
)


class FactoredRatFunc:
    """Immutable t^shift * numer * prod_k (1 - t^k)^{e_k}.

    Canonical form: numer is zero (then shift = 0, factors empty) or has
    min exponent 0; factor exponents are nonzero.  No attempt is made to
    cancel (1 - t^k) factors against the numerator, so equality testing
    cross-multiplies instead of comparing representations.
    """

    __slots__ = ("shift", "numer", "factors")

    def __init__(self, shift=0, numer=None, factors=None):
        if numer is None:
            numer = LaurentPoly.one()
        fac = {}
        if factors:
            for k, e in factors.items():
                k, e = int(k), int(e)
                if k < 1:
                    raise ValueError("factor index must be >= 1")
                if e:
                    fac[k] = fac.get(k, 0) + e
            fac = {k: e for k, e in fac.items() if e}
        if numer.is_zero():
            shift, fac = 0, {}
        else:
            m = numer.min_exp()
            if m:
                shift += m
                numer = numer.shift(-m)
        object.__setattr__(self, "shift", int(shift))
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "factors", fac)

    def __setattr__(self, name, value):
        raise AttributeError("FactoredRatFunc is immutable")

    @classmethod
    def zero(cls):
        return cls(0, LaurentPoly.zero())

    @classmethod
    def monomial(cls, e, c=1):
        return cls(e, LaurentPoly({0: c}))

    def is_zero(self):
        return self.numer.is_zero()

    def __mul__(self, other):
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        fac = dict(self.factors)
        for k, e in other.factors.items():
            fac[k] = fac.get(k, 0) + e
        return FactoredRatFunc(self.shift + other.shift, self.numer * other.numer, fac)

    def scale(self, c):
        return FactoredRatFunc(self.shift, self.numer.scale(c), self.factors)

    def __neg__(self):
        return self.scale(-1)

    def __add__(self, other):
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        keys = set(self.factors) | set(other.factors)
        common = {k: min(self.factors.get(k, 0), other.factors.get(k, 0)) for k in keys}
        shift = min(self.shift, other.shift)

        def lifted(f):
            p = f.numer.shift(f.shift - shift)
            for k in keys:
                e = f.factors.get(k, 0) - common[k]
                if e:
                    p = p * one_minus(k) ** e
            return p

        return FactoredRatFunc(shift, lifted(self) + lifted(other), common)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        return (self - other).is_zero()

    def expand(self, trunc):
        """LaurentSeries of this function, exact through trunc."""
        work = trunc - self.shift
        if self.numer.is_zero() or work < 0:
            # zero function, or every exponent of the result is >= shift > trunc
            return LaurentSeries.zero(trunc)
        series = LaurentSeries.from_poly(self.numer, work)
        for k, e in sorted(self.factors.items()):
            if e > 0:
                series = series.mul_poly(one_minus(k) ** e)
                series = series.truncate(work)
            else:
                series = series * geometric_power(k, -e, work)
        return series.exact_through(work).truncate(work).shift(self.shift)

    def to_laurent_poly(self):
        """Exact Laurent polynomial equal to this function.

        Raises NonDivisible if some denominator factor does not divide out.
        """
        p = self.numer
        for k, e in sorted(self.factors.items()):
            if e > 0:
                p = p * one_minus(k) ** e
        for k, e in sorted(self.factors.items()):
            for _ in range(-e if e < 0 else 0):
                p = divide_exact(p, one_minus(k))
        return p.shift(self.shift)

    def __repr__(self):
        fac = "".join(
            f"*(1-t^{k})^{e}" for k, e in sorted(self.factors.items())
        )
        return f"FactoredRatFunc(t^{self.shift} * ({self.numer!r}){fac})"

