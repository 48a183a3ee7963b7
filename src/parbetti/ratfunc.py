"""Rational functions kept in the factored form t^shift * p(t) * prod (1-t^k)^e_k.

The only denominators that ever occur in this project are products of
cyclotomic-style factors (1 - t^k), so the factor dict maps k >= 1 to an
integer exponent e_k (negative exponents are denominator factors), and the
numerator p has integer coefficients.  Keeping the factorization explicit
makes exact series expansion and exact polynomial certification cheap.
The recursion expands its count series as the numerator of one such
function, its bridge prefactor, so no series is ever inverted; the closed
routes certify their block sum times 1 - t^2, the bridge with the genus
cancelled.

Every factor is 1 - t^k, so expansion, certification and sums run linear
passes over one dense list of int coefficients, t^i at index i: multiplying
by 1 - t^k subtracts the list shifted by k; a stride-k prefix sum divides a
series by 1 - t^k (``_prefix``), and exactly divides a polynomial once its
last k entries, top-down division's remainder, vanish.
"""

from itertools import accumulate

from .laurent import MAX_TRUNCATION, LaurentPoly, LaurentSeries, NonDivisible, Record
from .laurent import TruncationLimit, _poly, _series


def _dense(coeffs, size, offset):
    """The coefficients times t^offset as size ints, t^i at index i; every
    exponent plus offset is >= 0, and those past the end drop."""
    r = [0] * size
    for e, c in coeffs.items():
        if e + offset < size:
            r[e + offset] = c
    return r


def _sparse(r, shift=0):
    """The nonzero coefficients of t^shift * sum r[i] t^i, by exponent."""
    return {i + shift: c for i, c in enumerate(r) if c}


def _times(r, k):
    """Multiply r by 1 - t^k in place; what passes its end drops."""
    r[k:] = [a - b for a, b in zip(r[k:], r)]


def _prefix(r, k):
    """Divide the series r by 1 - t^k in place, through its last index."""
    for j in range(min(k, len(r))):
        r[j::k] = accumulate(r[j::k])


def _divide(r, k):
    """Divide the polynomial r by 1 - t^k exactly, dropping its last k
    entries; the last of each residue class mod k holds the class total,
    top-down division's remainder, and a nonzero one raises NonDivisible."""
    _prefix(r, k)
    cut = max(len(r) - k, 0)
    rem = [i % k for i in range(cut, len(r)) if r[i]]
    if rem:
        raise NonDivisible(f"remainder of degree {max(rem)}")
    del r[cut:]


def _lift(coeffs, size, offset, factors, divide=_divide):
    """``_dense(coeffs, size, offset)`` times prod_k (1 - t^k)^{e_k}: the
    factors with e_k > 0 first, then those with e_k < 0 through divide."""
    r = _dense(coeffs, size, offset)
    fac = sorted(factors.items())
    for k, e in fac:
        for _ in range(e):
            _times(r, k)
    for k, e in fac:
        for _ in range(-e):
            divide(r, k)
    return r


class FactoredRatFunc(Record):
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
        # each side's numerator times its factors above the common ones
        ups = [(f, {k: f.factors.get(k, 0) - common[k] for k in keys}) for f in (self, other)]
        tops = [f.numer.max_exp() + f.shift + sum(k * e for k, e in up.items()) for f, up in ups]
        a, b = (_lift(f.numer.coeffs, max(tops) - shift + 1, f.shift - shift, up) for f, up in ups)
        return FactoredRatFunc(shift, _poly(_sparse([x + y for x, y in zip(a, b)])), common)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, FactoredRatFunc):
            return NotImplemented
        return (self - other).is_zero()

    def expand(self, trunc):
        """LaurentSeries of this function, exact through trunc.

        Every factor 1 - t^k has k >= 1, so each pass reads only lower
        exponents, and the result reads the numerator only through
        t^(trunc - shift): a numerator known exactly that deep suffices.
        """
        work = trunc - self.shift
        if self.numer.is_zero() or work < 0:
            # zero function, or every exponent of the result is >= shift > trunc
            return LaurentSeries.zero(trunc)
        if work > MAX_TRUNCATION:
            raise TruncationLimit(f"truncation {work} exceeds {MAX_TRUNCATION}")
        r = _lift(self.numer.coeffs, work + 1, 0, self.factors, _prefix)
        return _series(_sparse(r, self.shift), trunc)

    def to_laurent_poly(self):
        """Exact Laurent polynomial equal to this function.

        Raises NonDivisible if some denominator factor does not divide out.
        """
        if self.numer.is_zero():
            return self.numer
        size = 1 + self.numer.max_exp() + sum(k * e for k, e in self.factors.items() if e > 0)
        return _poly(_sparse(_lift(self.numer.coeffs, size, 0, self.factors), self.shift))

    def __repr__(self):
        fac = "".join(
            f"*(1-t^{k})^{e}" for k, e in sorted(self.factors.items())
        )
        return f"FactoredRatFunc(t^{self.shift} * ({self.numer!r}){fac})"

