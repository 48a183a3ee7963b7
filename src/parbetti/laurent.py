"""Exact Laurent polynomials and truncated Laurent series in one variable t.

A LaurentPoly is a finite sum of c*t^e with integer e (negative allowed).
A stored coefficient is a nonzero Python int: every numerator and series
of the four routes is integral, so this is the only coefficient type.
Values are a different matter: ``LaurentPoly.evaluate`` takes an int or
fractions.Fraction point and returns a Fraction.

A LaurentSeries carries its coefficients only up to a truncation exponent
and tracks how far it is exact, so products of truncated series never
silently pretend to more precision than they have.

Every product and sum of polynomials and series runs through the two
coefficient-dict kernels ``_product`` and ``_sum``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import attrgetter

MAX_TRUNCATION = 20000


class Record:
    """Immutable value: the fields are a subclass's ``__slots__``, set once
    by its ``__init__`` (records hand them in order to ``Record.__init__``).
    Unless overridden, equality, hash, repr and pickling go by the field
    values, as for a frozen dataclass."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)  # a tuple only for two or more
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # unpickling slot state would go through __setattr__
        return type(self), self._values(self)


class NonDivisible(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class TruncationLimit(ValueError):
    """Requested series truncation exceeds MAX_TRUNCATION."""


class TruncationTooSmall(ValueError):
    """A series is not exact as deep as certified, or the recursion's guard
    band past twice the dimension was nonzero."""


def _coerce(c):
    """The coefficient c as an int; an integral Fraction is accepted."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise TypeError(f"coefficient must be an integer, got {c!r}")


def _product(a, b, top=None):
    """Sparse product of two coefficient dicts, dropping exponents above top.

    With a top, the larger operand is sorted so that each row stops at the
    first exponent past it.  Zeros are dropped once, at the end.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if top is None:
        top = max(a) + max(b)  # no pair goes past it, so the rows need no order
        row = b.items()
    else:
        row = sorted(b.items())
    d = {}
    get = d.get
    for ea, ca in a.items():
        lim = top - ea
        for eb, cb in row:
            if eb > lim:
                break
            e = ea + eb
            d[e] = get(e, 0) + ca * cb
    return {e: c for e, c in d.items() if c}


def _sum(a, b, top=None):
    """Sum of two coefficient dicts, dropping exponents above top."""
    d = dict(a) if top is None else {e: c for e, c in a.items() if e <= top}
    for e, c in b.items():
        if top is not None and e > top:
            continue
        s = d.get(e, 0) + c
        if s:
            d[e] = s
        else:
            del d[e]  # c is nonzero, so only a stored term cancels it
    return d


def _poly(d):
    """Wrap a dict whose coefficients are already nonzero ints."""
    out = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(out, "coeffs", d)
    return out


def _series(d, trunc):
    """Wrap a kernel result with no exponent above trunc."""
    if trunc > MAX_TRUNCATION:
        raise TruncationLimit(f"truncation {trunc} exceeds {MAX_TRUNCATION}")
    out = LaurentSeries.__new__(LaurentSeries)
    object.__setattr__(out, "coeffs", d)
    object.__setattr__(out, "trunc", trunc)
    return out


class LaurentPoly(Record):
    """Immutable sparse Laurent polynomial {exponent: coefficient}, zeros dropped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coerce(c)
                if c:
                    d[int(e)] = c
        object.__setattr__(self, "coeffs", d)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t_power(cls, e, c=1):
        return cls({e: c})

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no min exponent")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no max exponent")
        return max(self.coeffs)

    def coeff(self, e):
        return self.coeffs.get(e, 0)

    def items(self):
        return self.coeffs.items()

    def shift(self, k):
        """Multiply by t^k."""
        if k == 0:
            return self
        return _poly({e + k: c for e, c in self.coeffs.items()})

    def scale(self, c):
        return _poly(_product(self.coeffs, {0: _coerce(c)}))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self):
        return _poly({e: -c for e, c in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _poly(_sum(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _poly(_product(self.coeffs, other.coeffs))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers are unsupported")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def evaluate(self, x):
        """Exact value at t = x for an int or Fraction x, as a Fraction."""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"evaluation point must be int or Fraction, got {x!r}")
        x = Fraction(x)
        if x == 0 and self.coeffs and self.min_exp() < 0:
            raise ZeroDivisionError("negative exponent at t = 0")
        total = Fraction(0)
        for e, c in self.coeffs.items():
            total += c * x**e
        return total

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = [f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def one_minus(k):
    """The polynomial 1 - t^k, k >= 1."""
    if k < 1:
        raise ValueError("factor exponent must be >= 1")
    return LaurentPoly({0: 1, k: -1})


def one_plus(k):
    return LaurentPoly({0: 1, k: 1})


def divide_exact(num, den):
    """Exact quotient num / den of Laurent polynomials.

    Raises NonDivisible if the division leaves a remainder or a quotient
    coefficient that is not an integer.  Division is run top down, so the
    failure is reported by its highest exponent.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return LaurentPoly.zero()
    ns, ds = num.min_exp(), den.min_exp()
    rem = {e - ns: c for e, c in num.coeffs.items()}
    dvs = {e - ds: c for e, c in den.coeffs.items()}
    dtop = max(dvs)
    dlead = dvs[dtop]
    quot = {}
    while rem:
        rtop = max(rem)
        if rtop < dtop:
            raise NonDivisible(f"remainder of degree {rtop + ns}")
        c, r = divmod(rem[rtop], dlead)
        if r:
            raise NonDivisible(f"non-integral quotient at degree {rtop + ns}")
        e = rtop - dtop
        quot[e] = c
        for de, dc in dvs.items():
            k = de + e
            s = rem.get(k, 0) - c * dc
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return _poly({e + ns - ds: c for e, c in quot.items()})


class LaurentSeries(Record):
    """Laurent series known exactly through exponent trunc (inclusive).

    Coefficients with exponent > trunc are unknown, not zero.  Arithmetic
    shrinks trunc per the usual rules so exactness is never overstated.
    """

    __slots__ = ("coeffs", "trunc")

    def __init__(self, coeffs, trunc):
        trunc = int(trunc)
        if trunc > MAX_TRUNCATION:
            raise TruncationLimit(f"truncation {trunc} exceeds {MAX_TRUNCATION}")
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _coerce(c)
                if c and e <= trunc:
                    d[int(e)] = c
        object.__setattr__(self, "coeffs", d)
        object.__setattr__(self, "trunc", trunc)

    @classmethod
    def from_poly(cls, poly, trunc):
        return cls(dict(poly.coeffs), trunc)

    @classmethod
    def zero(cls, trunc):
        return cls({}, trunc)

    def is_zero(self):
        """True if no nonzero coefficient is known; says nothing beyond trunc."""
        return not self.coeffs

    def order_bound(self):
        """Certified lower bound for the true order, valid even for a zero prefix."""
        return min(self.coeffs) if self.coeffs else self.trunc + 1

    def coeff(self, e):
        if e > self.trunc:
            raise ValueError(f"coefficient of t^{e} beyond truncation {self.trunc}")
        return self.coeffs.get(e, 0)

    def exact_through(self, n):
        """Certify that this series is exact through t^n; returns it."""
        if self.trunc < n:
            raise TruncationTooSmall(
                f"series exact only through t^{self.trunc}, needed t^{n}"
            )
        return self

    def truncate(self, n):
        if n >= self.trunc:
            return self
        return _series({e: c for e, c in self.coeffs.items() if e <= n}, n)

    def shift(self, k):
        if k == 0:
            return self
        return _series({e + k: c for e, c in self.coeffs.items()}, self.trunc + k)

    def __neg__(self):
        return _series({e: -c for e, c in self.coeffs.items()}, self.trunc)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        return _series(_sum(self.coeffs, other.coeffs, trunc), trunc)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        # product is exact through min(trunc_a + ord_b, trunc_b + ord_a);
        # a zero prefix contributes its certified bound trunc+1
        ma, mb = self.order_bound(), other.order_bound()
        trunc = min(self.trunc + mb, other.trunc + ma)
        return _series(_product(self.coeffs, other.coeffs, trunc), trunc)

    def mul_poly(self, poly):
        """Multiply by an exact polynomial; trunc shifts by its min exponent."""
        if poly.is_zero():
            return LaurentSeries.zero(self.trunc)
        trunc = self.trunc + poly.min_exp()
        return _series(_product(self.coeffs, poly.coeffs, trunc), trunc)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.trunc == other.trunc and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.trunc, frozenset(self.coeffs.items())))

    def first_difference(self, other, through=None):
        """Smallest exponent where the series differ, or None."""
        n = min(self.trunc, other.trunc)
        if through is not None:
            n = min(n, through)
        exps = sorted(e for e in set(self.coeffs) | set(other.coeffs) if e <= n)
        for e in exps:
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return e
        return None

    def __repr__(self):
        if not self.coeffs:
            return f"LaurentSeries(0 + O(t^{self.trunc + 1}))"
        parts = [f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())]
        return "LaurentSeries(" + " + ".join(parts) + f" + O(t^{self.trunc + 1}))"


def geometric_power(k, m, trunc):
    """The series (1 - t^k)^(-m) through trunc, for k >= 1, m >= 1."""
    if k < 1 or m < 1:
        raise ValueError("geometric_power needs k >= 1, m >= 1")
    d = {}
    j = 0
    while k * j <= trunc:
        d[k * j] = comb(m - 1 + j, m - 1)
        j += 1
    return _series(d, trunc)
