"""The per-block factor of the closed formulas, after the paper's
Weil-conjecture substitution.

A block's count over a finite field is its flag count times the Siegel
mass of its rank times the count of degree-0 line bundles.  The paper turns
counts into Poincare series by sending q to t^-2 and each Frobenius
eigenvalue to -t^-1.  The routes use only the substituted result, shifted
to start at t^0: a numerator prod_{i<=n} (1+t^{2i-1})^{2g}, which depends
only on the block's rank n (``odd_plus``, binomial powers), times
genus-free factors (1 - t^k)^{e_k}.  The symbolic counts and the
substitution itself are the tests' oracle for this factor.

The factor exponents split into a part of the rank and the number of
points (``rank_denominator``) and one term per flag row
(``flag_denominator``): the closed routes' block sum adds the first per
composition of block ranks and the second per table, and ``block_factor``
adds both for one block.
"""

from .laurent import LaurentPoly, one_plus
from .ratfunc import FactoredRatFunc


def odd_plus(ranks, genus):
    """The numerators prod_{i<=n} (1 + t^{2i-1})^{2g} of blocks of the given
    ranks n, multiplied together but for one factor (1 + t)^{2g}: every
    block has one, and the closed routes' bridge takes it (see ``engine``)."""
    numer = LaurentPoly.one()
    for i in range(1, max(ranks) + 1):
        e = sum(n >= i for n in ranks) - (i == 1)
        numer = numer * one_plus(2 * i - 1) ** (2 * genus * e)
    return numer


def rank_denominator(n, num_points):
    """Factor exponents {k: e_k} of a rank-n block factor that depend only
    on n and the number of points: the mass part, -2 at k = 2, ..., 2n - 2
    and -1 at k = 2n, plus the flag part's numerator prod_{i<=n} (1 - t^{2i})^s."""
    factors = {2 * i: num_points - 2 for i in range(1, n)}
    factors[2 * n] = num_points - 1
    return factors


def flag_denominator(mults, factors):
    """Add each flag row's part, exponent -1 at k = 2, 4, ..., 2m, to
    factors and return them; zero rows add nothing."""
    for m in mults:
        for l in range(1, m + 1):
            factors[2 * l] = factors.get(2 * l, 0) - 1
    return factors


def block_factor(mults, genus):
    """Per-block factor of the closed formulas: flag part times mass part,
    for a block with these multiplicities at each point.

    Shift-free by construction; for rank 1 it reduces to (1+t)^{2g}/(1-t^2).
    Its numerator depends only on the rank, its factors only on the flag
    data, not on the genus.
    """
    n = sum(mults[0])
    factors = rank_denominator(n, len(mults))
    for ms in mults:
        flag_denominator(ms, factors)
    return FactoredRatFunc(0, one_plus(1) ** (2 * genus) * odd_plus((n,), genus), factors)
