"""Exact Laurent polynomials and truncated Laurent series in one variable t.

A LaurentPoly is a finite sum of c*t^e with integer e (negative allowed).
A stored coefficient is a nonzero Python int: every numerator and series
of the four routes is integral, so this is the only coefficient type;
``fractions.Fraction`` enters only as an integral coefficient to accept.

A LaurentSeries carries its coefficients only up to a truncation exponent
and tracks how far it is exact, so products of truncated series never
silently pretend to more precision than they have.

Every product and sum of polynomials and series runs through the two
coefficient-dict kernels ``_product`` and ``_sum``; ``ratfunc`` applies its
factors 1 - t^k by linear passes over a dense coefficient list instead.
``_product`` multiplies longer operands by Kronecker substitution (D.
Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44 (2009), arXiv:0712.4046).
"""

import sys
from fractions import Fraction
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


_SPARSE_TERMS = 4  # up to this many terms, a term-by-term loop beats packing
_WORDS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # digit bytes -> memoryview format
_ORDER = sys.byteorder  # memoryview words are in the machine's byte order


def _product(a, b, top=None):
    """Product of two coefficient dicts, dropping exponents above top.

    Up to ``_SPARSE_TERMS`` terms in the shorter operand (shift polynomials
    t^0 + t^N), its terms run over the longer one, sorted with a top so that
    each row stops at the first exponent past it; zeros are dropped at the
    end.  Longer operands go to ``_packed_product``.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if len(a) > _SPARSE_TERMS:
        return _packed_product(a, b, top)
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


def _packed_product(a, b, top):
    """Kronecker substitution: both operands evaluated at t = 2^B, one
    big-int multiply, the product's coefficients read off as B-bit digits.

    No coefficient exceeds max|a| max|b| min(len a, len b) in size, so B, a
    power of two in bytes, leaves it room and a sign bit.  Digits are stored
    offset by h = 2^(B-1), so none is negative or borrows from the next: an
    operand packs as its digits c + h less the same run of h alone.  Digits
    of up to 8 bytes are read back as machine words through a memoryview.
    """
    lo_a, lo_b = min(a), min(b)
    if top is not None:
        if lo_a + lo_b > top:
            return {}
        a = {e: c for e, c in a.items() if e <= top - lo_b}
        b = {e: c for e, c in b.items() if e <= top - lo_a}
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    size = 1 << (bound.bit_length() // 8).bit_length()
    h = 1 << (8 * size - 1)
    word = _WORDS.get(size)
    pad = h.to_bytes(size, _ORDER)
    packed = []
    for d, lo in ((a, lo_a), (b, lo_b)):
        n = max(d) - lo + 1
        digits = [pad] * n
        for e, c in d.items():
            digits[e - lo] = (c + h).to_bytes(size, _ORDER)
        packed.append(int.from_bytes(b"".join(digits), _ORDER) - int.from_bytes(pad * n, _ORDER))
    n = max(a) + max(b) - lo_a - lo_b + 1
    raw = (packed[0] * packed[1] + int.from_bytes(pad * n, _ORDER)).to_bytes(size * n, _ORDER)
    if top is not None:
        n = min(n, top - lo_a - lo_b + 1)
    if word:
        digits = memoryview(raw).cast(word)[:n].tolist()
    else:
        digits = [int.from_bytes(raw[i * size:(i + 1) * size], _ORDER) for i in range(n)]
    lo = lo_a + lo_b
    return {lo + i: c - h for i, c in enumerate(digits) if c != h}


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
        """Binomial expansion of a two-term base a t^p + b t^q, each term
        C(n, j) a^(n-j) b^j from the one before; binary powering otherwise."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers are unsupported")
        if len(self.coeffs) == 2:
            (p, a), (q, b) = self.coeffs.items()
            d, c = {}, a**n
            for j in range(n + 1):
                d[p * (n - j) + q * j] = c
                c = c * (n - j) * b // ((j + 1) * a)
            return _poly(d)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self):
        if not self.coeffs:
            return "LaurentPoly(0)"
        parts = [f"{c}*t^{e}" for e, c in sorted(self.coeffs.items())]
        return "LaurentPoly(" + " + ".join(parts) + ")"


def one_plus(k):
    return LaurentPoly({0: 1, k: 1})


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

