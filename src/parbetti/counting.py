"""Point counts over finite fields and their Poincare-series substitution.

A CountExpr is a product q^a * (q-1)^b * prod_j Z(q^-j)^{e_j} * J^c * p(q)
where Z(q^-j) are special values of the curve's zeta function, J is the
count of degree-0 line bundles, and p is an integer polynomial in q.  The
zeta values and J are kept symbolic because they depend on the curve; the
substitution that turns counts into Poincare series resolves them using
only the genus.

The substitution sends q to t^-2 and each Frobenius eigenvalue to -t^-1,
so:  q^a -> t^-2a,  (q-1) -> t^-2 (1-t^2),
Z(q^-j) -> (1+t^{2j-1})^{2g} / ((1-t^{2j-2})(1-t^{2j})) for j >= 2,
J -> t^-2g (1+t)^{2g},  p(q) -> p(t^-2).

The closed routes use the substituted per-block factor in two parts: its
genus-free factor exponents and its numerator prod_{i<=n} (1+t^{2i-1})^{2g},
which depends only on the block's rank n.  The exponents split once more,
into a part of the rank and the number of points (``rank_denominator``) and
one term per flag row (``flag_denominator``): the closed routes' block sum
adds the first per composition of block ranks and the second per table, and
``block_denominator`` adds both for one block.
"""

from __future__ import annotations

from .laurent import LaurentPoly, NonDivisible, Record, divide_exact, one_minus, one_plus
from .parabolic import flag_dim
from .ratfunc import FactoredRatFunc


class ZetaAtomPole(ArithmeticError):
    """The j = 1 zeta value has a pole and cannot be substituted."""


class NotPolynomial(ArithmeticError):
    """A count that should have produced a Betti polynomial did not."""


def q_minus_one_power(m):
    """(q^m - 1) as a polynomial in q."""
    return LaurentPoly({m: 1, 0: -1})


class CountExpr(Record):
    __slots__ = ("q_power", "qminus1_power", "zeta", "jac_power", "poly")

    def __init__(self, q_power=0, qminus1_power=0, zeta=(), jac_power=0, poly=None):
        z = {}
        for j, e in zeta:
            j, e = int(j), int(e)
            if j < 1:
                raise ValueError("zeta atom index must be >= 1")
            if e:
                z[j] = z.get(j, 0) + e
        zeta = tuple(sorted((j, e) for j, e in z.items() if e))
        poly = LaurentPoly.one() if poly is None else poly
        Record.__init__(self, q_power, qminus1_power, zeta, jac_power, poly)

    def evaluate_q(self, x):
        """Numeric value at q = x; only legal without curve-dependent parts."""
        if self.zeta or self.jac_power:
            raise ValueError("cannot evaluate zeta values or line-bundle counts numerically")
        val = self.poly.evaluate(x) * x**self.q_power
        return val * (x - 1) ** self.qminus1_power


def gaussian_binomial(n, k):
    """Number of k-dimensional subspaces of an n-space, as a polynomial in q."""
    if not 0 <= k <= n:
        return LaurentPoly.zero()
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for i in range(k):
        num = num * q_minus_one_power(n - i)
        den = den * q_minus_one_power(i + 1)
    return divide_exact(num, den)


def grassmann_count(ambient_dim, sub_dim):
    return CountExpr(poly=gaussian_binomial(ambient_dim, sub_dim))


def flag_count(mults):
    """Number of flags with the given dimension jumps, zero jumps allowed."""
    n = sum(mults)
    num = LaurentPoly.one()
    for i in range(1, n + 1):
        num = num * q_minus_one_power(i)
    den = LaurentPoly.one()
    for m in mults:
        for l in range(1, m + 1):
            den = den * q_minus_one_power(l)
    return divide_exact(num, den)


def flag_family_count(data):
    """Product over the marked points of the flag counts."""
    p = LaurentPoly.one()
    for pt in data.points:
        p = p * flag_count(pt.mults)
    return CountExpr(poly=p)


def siegel_mass(n, genus):
    """Mass of rank-n fixed-determinant bundles, kept symbolic in the curve."""
    return CountExpr(
        q_power=(n * n - 1) * (genus - 1),
        qminus1_power=-1,
        zeta=tuple((j, 1) for j in range(2, n + 1)),
    )


def poincare_substitute(expr, genus):
    """Apply the Poincare substitution to a count; returns a FactoredRatFunc."""
    g = int(genus)
    shift = -2 * expr.q_power
    numer = LaurentPoly.one()
    factors = {}

    def add_factor(k, e):
        factors[k] = factors.get(k, 0) + e

    shift += -2 * expr.qminus1_power
    add_factor(2, expr.qminus1_power)

    for j, e in expr.zeta:
        if j == 1:
            raise ZetaAtomPole("the j = 1 zeta value diverges under the substitution")
        a = 2 * j - 1
        if e > 0:
            numer = numer * one_plus(a) ** (2 * g * e)
        elif e < 0:
            # (1 + t^a) = (1 - t^{2a})/(1 - t^a), keeps the numer polynomial
            add_factor(2 * a, 2 * g * e)
            add_factor(a, -2 * g * e)
        add_factor(2 * j - 2, -e)
        add_factor(2 * j, -e)

    if expr.jac_power:
        e = expr.jac_power
        shift += -2 * g * e
        if e > 0:
            numer = numer * one_plus(1) ** (2 * g * e)
        else:
            add_factor(2, 2 * g * e)
            add_factor(1, -2 * g * e)

    substituted = LaurentPoly({-2 * e: c for e, c in expr.poly.items()})
    numer = numer * substituted
    return FactoredRatFunc(shift, numer, factors)


def flag_series(data):
    """Closed form of the substituted flag count; genus plays no role."""
    n = data.rank
    s = data.num_points
    factors = {}
    for i in range(1, n + 1):
        factors[2 * i] = factors.get(2 * i, 0) + s
    for pt in data.points:
        for m in pt.mults:
            for l in range(1, m + 1):
                factors[2 * l] = factors.get(2 * l, 0) - 1
    return FactoredRatFunc(-2 * flag_dim(data), LaurentPoly.one(), factors)


def _odd_plus_product(n, genus, start=1):
    p = LaurentPoly.one()
    for i in range(start, n + 1):
        p = p * one_plus(2 * i - 1) ** (2 * genus)
    return p


def _mass_factors(n):
    factors = {2 * n: -1}
    for i in range(1, n):
        factors[2 * i] = factors.get(2 * i, 0) - 2
    return factors


def mass_series(n, genus):
    """Substituted Siegel mass, normalized exactly as the count itself."""
    shift = -2 * (n * n - 1) * (genus - 1) + 2
    return FactoredRatFunc(shift, _odd_plus_product(n, genus, start=2), _mass_factors(n))


def mass_series_jac(n, genus):
    """Siegel mass series with the line-bundle count folded in.

    Equals mass_series(n, g) times t^-2g (1+t)^{2g}; this is the variant the
    closed formulas consume.
    """
    shift = -2 * n * n * (genus - 1)
    return FactoredRatFunc(shift, _odd_plus_product(n, genus, start=1), _mass_factors(n))


def rank_denominator(n, num_points):
    """Factor exponents {k: e_k} of a rank-n block factor that depend only
    on n and the number of points: the mass part and the flag part's
    numerator prod_{i<=n} (1 - t^{2i})^s."""
    factors = _mass_factors(n)
    for i in range(1, n + 1):
        factors[2 * i] = factors.get(2 * i, 0) + num_points
    return factors


def flag_denominator(mults, factors):
    """Add each flag row's part, exponent -1 at k = 2, 4, ..., 2m, to
    factors and return them; zero rows add nothing."""
    for m in mults:
        for l in range(1, m + 1):
            factors[2 * l] = factors.get(2 * l, 0) - 1
    return factors


def block_denominator(data):
    """Factor exponents {k: e_k} of the block factor, flag part plus mass
    part; they do not depend on the genus."""
    factors = rank_denominator(data.rank, data.num_points)
    for pt in data.points:
        flag_denominator(pt.mults, factors)
    return factors


def block_factor(data, genus):
    """Per-block factor of the closed formulas: flag part times mass part.

    Shift-free by construction; for rank 1 it reduces to (1+t)^{2g}/(1-t^2).
    Its numerator prod_{i<=n} (1+t^{2i-1})^{2g} depends only on the rank n,
    its factors only on the flag data (``block_denominator``).
    """
    return FactoredRatFunc(0, _odd_plus_product(data.rank, genus), block_denominator(data))


def poincare_from_count(expr, dim, genus):
    """Betti polynomial of a smooth projective variety from its point count.

    The count must be polynomial in the Frobenius data; dim is the variety's
    dimension, so the result has degree exactly 2*dim with constant term on
    the left after the t^{2 dim} twist.
    """
    func = poincare_substitute(expr, genus)
    twisted = FactoredRatFunc(func.shift + 2 * dim, func.numer, func.factors)
    try:
        poly = twisted.to_laurent_poly()
    except NonDivisible as exc:
        raise NotPolynomial(f"count does not divide out: {exc}") from None
    if poly.is_zero():
        raise NotPolynomial("zero count")
    if poly.min_exp() < 0 or poly.max_exp() > 2 * dim:
        raise NotPolynomial("exponents escape [0, 2 dim]")
    for e, c in poly.items():
        if c < 0:
            raise NotPolynomial(f"coefficient {c} at t^{e} is not a Betti number")
    return poly
