"""Brute-force oracles, deliberately independent of the library internals.

The brute-force functions enumerate raw objects (vectors over a prime
field, integer matrices) and count them, so the fast implementations can be
checked against first principles.  The closed forms at the end (geometric
series, Gaussian binomials, values at a point) are references that only the
tests need.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb

from parbetti.counting import CountExpr, q_minus_one_power
from parbetti.laurent import LaurentPoly, LaurentSeries, divide_exact


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
