"""Brute-force oracles, deliberately independent of the library internals.

The brute-force functions enumerate raw objects (vectors over a prime
field, integer matrices) and count them, so the fast implementations can be
checked against first principles.  The closed forms after them (geometric
series, exact division, values at a point) are references that only the
tests need.

The last part is the paper's point-count layer: symbolic counts over a
curve (Gaussian binomials, flag counts, the Siegel mass) and the
Weil-conjecture substitution that turns them into Poincare series.  The
routes use only its result, the per-block factor
``parbetti.counting.block_factor``, and the tests tie that factor to the
substitution of the symbolic counts.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

from parbetti.laurent import LaurentPoly, LaurentSeries, NonDivisible, Record, one_plus
from parbetti.ratfunc import FactoredRatFunc


def all_vectors(q, n):
    return list(product(range(q), repeat=n))


def span(q, vectors, n):
    """Closure of the given vectors under addition and scalar multiples."""
    seen = {tuple([0] * n)}
    frontier = list(seen)
    gens = [v for v in vectors if any(v)]
    while frontier:
        new = []
        for base in frontier:
            for g in gens:
                for s in range(1, q):
                    w = tuple((b + s * gi) % q for b, gi in zip(base, g))
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
        frontier = new
    return frozenset(seen)


@cache
def brute_subspaces(q, n, k):
    """All k-dimensional subspaces of F_q^n as a frozenset of frozensets.

    Every k-dimensional subspace has a basis of k distinct vectors, so
    spanning the unordered k-subsets of F_q^n reaches every subspace that
    ordered k-tuples would; tuples with a repeated vector span less than
    dimension k.  The result is memoised per (q, n, k) and immutable, so
    callers share one enumeration.
    """
    vecs = all_vectors(q, n)
    target = q**k
    found = set()
    for combo in combinations(vecs, k):
        s = span(q, combo, n)
        if len(s) == target:
            found.add(s)
    return frozenset(found)


def brute_grassmann_count(q, n, k):
    return len(brute_subspaces(q, n, k))


def brute_flag_count(q, n, mults):
    """Chains of subspaces with successive dimension jumps mults, by search.

    Zero jumps are allowed and contribute nothing.
    """
    jumps = [m for m in mults if m > 0]
    dims = []
    acc = 0
    for m in jumps:
        acc += m
        dims.append(acc)
    if acc != n:
        raise ValueError("multiplicities must sum to the dimension")
    levels = [sorted(brute_subspaces(q, n, d), key=sorted) for d in dims]
    count = 0

    def rec(level, current):
        nonlocal count
        if level == len(levels):
            count += 1
            return
        for sub in levels[level]:
            if current is None or current <= sub:
                rec(level + 1, sub)

    rec(0, None)
    return count


def brute_tables(row_sums, cols):
    """All integer matrices with the given row sums and column sums cols."""
    r = len(cols)
    rows_choices = []
    for m in row_sums:
        rows_choices.append(
            [row for row in product(range(m + 1), repeat=r) if sum(row) == m]
        )
    out = []
    for rows in product(*rows_choices):
        if all(sum(row[k] for row in rows) == cols[k] for k in range(r)):
            out.append(tuple(rows))
    return out


def brute_partitions(point_mults):
    """All (cols, per-point tables) splitting the data into ranked blocks.

    point_mults is a list of multiplicity tuples, one per marked point.
    Returns a set of (cols, tables) with tables a tuple over points.
    """
    n = sum(point_mults[0])
    found = set()
    for r in range(1, n + 1):
        for cols in product(range(1, n + 1), repeat=r):
            if sum(cols) != n:
                continue
            per_point = [brute_tables(m, cols) for m in point_mults]
            for tbls in product(*per_point):
                found.add((cols, tbls))
    return found


def brute_subdata(point_mults):
    """All proper componentwise sub-multiplicities with equal point sums."""
    n = sum(point_mults[0])
    found = set()
    per_point = [list(product(*(range(m + 1) for m in mults))) for mults in point_mults]
    for combo in product(*per_point):
        s = sum(combo[0])
        if 0 < s < n and all(sum(c) == s for c in combo):
            found.add(combo)
    return found


def geometric_power(k, m, trunc):
    """The series (1 - t^k)^(-m) through trunc, for k >= 1, m >= 1, by the
    negative binomial theorem: t^(kj) has coefficient C(m - 1 + j, j)."""
    return LaurentSeries({k * j: comb(m - 1 + j, j) for j in range(trunc // k + 1)}, trunc)


def one_minus(k):
    """The polynomial 1 - t^k, k >= 1."""
    if k < 1:
        raise ValueError("factor exponent must be >= 1")
    return LaurentPoly({0: 1, k: -1})


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
    return LaurentPoly({e + ns - ds: c for e, c in quot.items()})


def evaluate(poly, x):
    """Exact value of a LaurentPoly at t = x for an int or Fraction x, as a
    Fraction."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"evaluation point must be int or Fraction, got {x!r}")
    x = Fraction(x)
    if x == 0 and poly.coeffs and poly.min_exp() < 0:
        raise ZeroDivisionError("negative exponent at t = 0")
    return sum((c * x**e for e, c in poly.items()), Fraction(0))


def evaluate_q(expr, x):
    """Numeric value of a CountExpr at q = x; only legal without
    curve-dependent parts."""
    if expr.zeta or expr.jac_power:
        raise ValueError("cannot evaluate zeta values or line-bundle counts numerically")
    return evaluate(expr.poly, x) * x**expr.q_power * (x - 1) ** expr.qminus1_power


# The point-count layer.  A CountExpr is a product
# q^a * (q-1)^b * prod_j Z(q^-j)^{e_j} * J^c * p(q), where Z(q^-j) are special
# values of the curve's zeta function, J is the count of degree-0 line
# bundles, and p is an integer polynomial in q.  The zeta values and J stay
# symbolic because they depend on the curve; the substitution resolves them
# using only the genus.  It sends q to t^-2 and each Frobenius eigenvalue to
# -t^-1, so:  q^a -> t^-2a,  (q-1) -> t^-2 (1-t^2),
# Z(q^-j) -> (1+t^{2j-1})^{2g} / ((1-t^{2j-2})(1-t^{2j})) for j >= 2,
# J -> t^-2g (1+t)^{2g},  p(q) -> p(t^-2).


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
