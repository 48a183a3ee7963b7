"""The recursion route: the filtration recursion in truncated series.

``recursion_poincare`` solves the recursion numerically in truncated
Laurent series with certified truncation bookkeeping, never citing the
closed solution of ``engine``.  It runs on integer blocks: per point, the
multiplicities and the weight numerators over the data's one denominator.
One walk over a block's strata finds their Harder-Narasimhan degree
tuples by an integer search and groups them by the multiset of their
blocks' memo keys, each multiset with an exact polynomial of its shifts.
The sorted multisets form a trie, and Horner's rule over it makes one
series product per inner node, each certified exact through its depth.

A block's memo key is its stability chamber: its multiplicities, its
degree mod its rank, and per proper sub-datum the floor of the degree at
which that sub-datum's slope reaches the block's, with whether it reaches
it exactly (``parabolic._sub_thresholds``).  These decide which sub-bundles
destabilise, so the count is constant on the chamber (Boden-Hu, Math. Ann.
301, 1995): blocks in one chamber share one series and one trie node, and
all rank-1 blocks share one.  Each compute fetches each of its blocks once,
as deep as its deepest stratum needs and lower ranks first, so most
chambers are solved once.

The route ends with the bridge prefactor (1 - t)^(2g) (1 - t^2)^(1 - 2g),
which turns a count function into the Betti polynomial after a shift of its
own: the count series is the numerator of a ``FactoredRatFunc`` with those
factors, whose dense passes multiply it by 1 - t and divide it by 1 - t^2
in place, so no series is inverted and no series product is made.

``siegel_check`` verifies the underlying mass identity order by order: it
runs the recursion's own step on the closed route's stable counts.

``engine.compute`` imports this module only when it runs the route.
"""

import itertools
import operator

from .counting import block_factor
from .engine import _check_stability, _count_shift, q_ratfunc
from .laurent import LaurentPoly, LaurentSeries, TruncationTooSmall
from .parabolic import (
    _integer_block,
    _strata,
    _sub_thresholds,
    moduli_dim,
    slope_coincidence_witness,
)
from .ratfunc import FactoredRatFunc
from .result import NonPolynomialResult, result_from_poly


def _block_q(mults, genus):
    """Count generating function of the full family over one block."""
    return FactoredRatFunc.monomial(-_count_shift(mults, genus)) * block_factor(mults, genus)


def _pairing_floors(cols, den, nums):
    """Suffix sums of the pairing floors ``floor(a_k n_l - a_l n_k) + 1``
    (l < k) of weights a_k = nums[k] / den, in integers: entry j sums
    them over j <= l, so entry 0 bounds the whole pairing from below."""
    r = len(cols)
    suffix = [0] * (r + 1)
    for l in range(r - 1, -1, -1):
        suffix[l] = suffix[l + 1] + sum(
            (nums[k] * cols[l] - nums[l] * cols[k]) // den + 1 for k in range(l + 1, r)
        )
    return suffix


def hn_degree_tuples(cols, den, nums, d, pairing_bound, floors):
    """Integer degree tuples with total ``d``, strictly decreasing block
    slopes, and cross pairing at most ``pairing_bound``.

    Block k has rank ``cols[k]`` and weight a_k = ``nums[k] / den``, with
    integer numerators over one positive denominator.  The pairing of a
    tuple is ``sum over l < k of d_l n_k - d_k n_l`` and the slope of block
    k is ``(d_k + a_k) / cols[k]``.  Slope decrease makes every pairwise
    pairing at least ``floor(a_k n_l - a_l n_k) + 1``; ``floors`` holds
    their sums over the tails (``_pairing_floors``), and they close both
    ends of each search range:

    * replacing all later choices by those pairwise floors gives a pairing
      lower bound that grows strictly with the degree picked now, so the
      bound caps it from above;
    * the remaining blocks must fit strictly under the current slope, which
      caps it from below.

    Every step is integer arithmetic, and no artificial cutoff is involved,
    so the returned list is complete.  Returns (tuple, pairing) pairs.
    """
    if any(c < 1 for c in cols):
        raise ValueError(f"block ranks must be >= 1, got {tuple(cols)}")
    r = len(cols)
    n = sum(cols)
    if r == 1:
        return [((d,), 0)] if pairing_bound >= 0 else []
    asuf = [0] * (r + 1)
    for j in range(r - 1, -1, -1):
        asuf[j] = asuf[j + 1] + nums[j]
    out = []

    before = [0, *itertools.accumulate(cols)]  # total rank of the blocks before j
    last = cols[-1]

    def rec(j, deg_sum, pair_in, prefix):
        nprev = before[j]
        nj = cols[j]
        x = nj * ((d - deg_sum) * den + asuf[j + 1]) - (n - nprev - nj) * nums[j]
        lo = x // (den * (n - nprev)) + 1
        c0 = (
            pair_in
            + nj * deg_sum
            + n * deg_sum
            - d * (nprev + nj)
            + floors[j + 1]
        )
        hi = (pairing_bound - c0) // (n - nprev)
        if j > 0:
            # block j's slope stays under block j-1's: v < cap / (den n_{j-1})
            cap = (prefix[-1] * den + nums[j - 1]) * nj - nums[j] * cols[j - 1]
            hi = min(hi, -(-cap // (den * cols[j - 1])) - 1)
        if j < r - 2:
            for v in range(lo, hi + 1):
                rec(j + 1, deg_sum + v, pair_in + nj * deg_sum - v * nprev, prefix + (v,))
            return
        # the total fixes the last degree w; its slope must stay under block j's
        for v in range(lo, hi + 1):
            w = d - deg_sum - v
            if (w * den + nums[-1]) * nj >= (v * den + nums[j]) * last:
                continue
            pairing = pair_in + nj * deg_sum - v * nprev + last * (deg_sum + v) - w * (n - last)
            if pairing <= pairing_bound:
                out.append((prefix + (v, w), pairing))

    rec(0, 0, 0, ())
    return out


class _Recursor:
    """Solves the filtration recursion in truncated series, memoized by
    stability chamber.

    A block is a pair ``(mults, nums)`` of int tuples, one per point: the
    multiplicities of its flag rows and their weight numerators over
    ``den``, the top-level data's denominator (every block's weights are
    some of the data's).  Only the top-level block, as ``_integer_block``
    gives it, may keep zero rows; the blocks of its strata drop them.
    ``memo`` maps a block's chamber (``_key``) to its series, ``shapes``
    holds the tables of ``_strata`` and ``families`` the full-family counts
    per (mults, truncation); all three last one compute.

    Degree enters only through its residue rho mod the rank: twisting by a
    line bundle of degree one shifts every degree tuple compatibly and
    leaves both the pairing and the slope chain intact.  Weights enter only
    through the chamber: a bundle is semistable unless some sub-bundle has a
    larger slope, and whether a sub-datum of given multiplicities at degree
    e does is decided by its pair of ``parabolic._sub_thresholds`` (Boden-Hu
    walls).  So the count is the same for every block with the same
    multiplicities, residue and pairs, and such blocks share one series.
    A rank-1 block has no proper sub-datum, so all rank-1 blocks on the
    same number of points share one.
    """

    def __init__(self, genus, den):
        self.genus = genus
        self.den = den
        self.memo = {}
        self.shapes = {}
        self.families = {}

    def _key(self, block, rho):
        """A block's chamber at residue rho: its multiplicities, rho, and
        the threshold pair of every proper sub-datum, all ints."""
        return block[0], rho, tuple(pair for _, pair in _sub_thresholds(self.den, block, rho))

    def q_series(self, block, d, trunc):
        """Stable count of a block through trunc."""
        rho = d % sum(block[0][0])
        return self._series(self._key(block, rho), block, rho, trunc)

    def _series(self, key, block, rho, trunc):
        """Stable count of a block at residue rho through trunc, memoised
        under its key."""
        hit = self.memo.get(key)
        if hit is not None and hit.trunc >= trunc:
            return hit
        series = self._stable_count(block, rho, trunc).exact_through(trunc)
        self.memo[key] = series
        return series

    def _stable_count(self, block, d, trunc):
        """Stable count of a block through trunc, before memoising."""
        return self._compute(block, d, trunc)

    def _compute(self, block, d, trunc):
        """The full-family count of a block minus every stratum of two or
        more blocks, through trunc.

        A degree tuple of a stratum (sigma inversions) adds the product of
        its block series times t^(2(pairing - sigma)), and the product
        depends only on the multiset of the blocks' memo keys at their
        residues d_k mod n_k.  One walk over the strata numbers the blocks,
        bounds each stratum's pairing and adds each tuple's shift into its
        multiset's node of a trie of sorted key numbers.  The blocks' family
        orders (the lowest exponents of their full-family counts) give both
        the pairing bound and each block's probe: Harder-Narasimhan strata
        have positive codimension (Atiyah-Bott, Phil. Trans. R. Soc. A 308,
        1983), so no stable count starts before its family count, and the
        tuples past the bound land past trunc.  The blocks are then fetched
        once each, lower ranks first, so that the computes of the higher
        ones find the lower ones deep enough; ``_horner`` makes the
        products.  Blocks are numbered by their table columns (all rank-1
        blocks by one number), keys in the order they are met.
        """
        g = self.genus
        mults, nums = block
        total = self.families.get((mults, trunc))
        if total is None:
            total = self.families[mults, trunc] = _block_q(mults, g).expand(trunc)
        den = self.den
        ids = {}  # a block's table columns -> its number
        blocks = []  # number -> (its key numbers by residue, family order)
        numbers = {}  # memo key -> key number
        keys = []  # key number -> (memo key, block, residue)
        need = {}  # block number -> greatest probe of its strata
        trie = {}  # key number -> (shifts of the multiset ending here, subtrie)
        for cols, strata in _strata(mults, nums, 2, self.shapes):
            for tables in itertools.product(*strata):
                sums = [sum(col) for col in zip(*(t[3] for t in tables))]
                sigma = sum(t[1] for t in tables)
                ks = []
                for k, c in enumerate(cols):
                    # every rank-1 block has one chamber and one count shift
                    column = tuple(row[k] for tbl, *_ in tables for row in tbl) if c > 1 else ()
                    i = ids.get(column)
                    if i is None:
                        # block k is column k of every table, zero rows dropped:
                        # zip(*pairs) is its (mults, nums) at one point
                        b = tuple(zip(*(
                            tuple(zip(*((row[k], w) for row, w in zip(tbl, ws) if row[k])))
                            for (tbl, *_), ws in zip(tables, nums)
                        )))
                        by_rho = []
                        for rho in range(c):
                            key = self._key(b, rho)
                            p = numbers.get(key)
                            if p is None:
                                p = numbers[key] = len(keys)
                                keys.append((key, b, rho))
                            by_rho.append(p)
                        i = ids[column] = len(blocks)
                        blocks.append((by_rho, -_count_shift(b[0], g)))
                    ks.append(i)
                floors = _pairing_floors(cols, den, sums)
                order = sum(blocks[i][1] for i in ks)
                # a block's probe: trunc less the smallest shift and the
                # other blocks' orders
                spare = trunc - 2 * (floors[0] - sigma) - order
                for i in ks:
                    need[i] = max(need.get(i, spare), spare)
                # past the bound, shift plus order exceeds trunc
                bound = (trunc - order) // 2 + sigma
                leaves = {}  # residues -> shifts of their multiset in the trie
                for dvec, pairing in hn_degree_tuples(cols, den, sums, d, bound, floors):
                    rhos = tuple(map(operator.mod, dvec, cols))
                    shifts = leaves.get(rhos)
                    if shifts is None:
                        node = trie
                        for p in sorted(blocks[i][0][rho] for i, rho in zip(ks, rhos)):
                            branch = node.get(p)
                            if branch is None:
                                branch = node[p] = ({}, {})
                            node = branch[1]
                        shifts = leaves[rhos] = branch[0]
                    shift = 2 * (pairing - sigma)
                    shifts[shift] = shifts.get(shift, 0) + 1
        # each block's series once, through its greatest probe plus its own
        # order; lower ranks first
        series = {}  # key number -> its series
        for i in sorted(need, key=lambda i: len(blocks[i][0])):
            by_rho, order = blocks[i]
            for p in by_rho:
                series[p] = self._series(*keys[p], need[i] + order)
        total = total - self._horner(trie, trunc, series)
        return total.exact_through(trunc).truncate(trunc)

    def _horner(self, trie, need, series):
        """The sum over the trie's multisets of the product of ``series[p]``
        over their key numbers p times their shifts, exact through need.

        Horner's rule: V = sum over the branches (p, shifts, subtrie) of
        series[p] (shifts + V(subtrie)), one product per branch (``mul_poly``
        at a leaf).  A branch solves its subtrie through need less its
        factor's order first; the subtrie's lowest exponent then sets the
        factor's depth, or leaves no room.  Each product is certified exact
        through need, so a factor fetched short of the depth its family
        order predicts raises ``TruncationTooSmall``.
        """
        total = LaurentSeries.zero(need)
        for p, (shifts, sub) in trie.items():
            s = series[p]
            if sub:
                inner = need - s.order_bound()
                x = LaurentSeries(shifts, inner) + self._horner(sub, inner, series)
                low = x.order_bound()
            else:
                x = LaurentPoly(shifts)
                low = min(shifts)
            if need - low - s.order_bound() >= 0:
                f = s.truncate(need - low)
                term = f * x if sub else f.mul_poly(x)
                total = total + term.exact_through(need)
        return total


def recursion_poincare(instance, truncation=None, force=False):
    """Betti polynomial by solving the recursion in truncated series.

    The default truncation is two past twice the dimension; the band above
    twice the dimension must come out identically zero and acts as the
    self-check of this route.
    """
    data, d, g = instance.data, instance.degree, instance.genus
    ss_ok = _check_stability(slope_coincidence_witness(data, d), force)
    dim = moduli_dim(data, g)
    # at negative dimension the floor of 2 keeps t^0..t^2 in the zero band
    n_master = max(2 * dim + 2, 2) if truncation is None else truncation
    if n_master <= 2 * dim:
        raise TruncationTooSmall(
            f"truncation {n_master} cannot reach degree {2 * dim}"
        )
    den, block = _integer_block(data)
    c = _count_shift(block[0], g)
    q = _Recursor(g, den).q_series(block, d, n_master - c)
    p = FactoredRatFunc(c, LaurentPoly(q.coeffs), {1: 2 * g, 2: 1 - 2 * g}).expand(n_master)
    bad = sorted(e for e in p.coeffs if e < 0)
    if bad:
        raise NonPolynomialResult(
            f"recursion series carries negative exponent t^{bad[0]}"
        )
    p = p.exact_through(n_master)
    band = sorted(e for e in p.coeffs if 2 * dim < e <= n_master)
    if band:
        raise TruncationTooSmall(
            f"nonzero coefficient at t^{band[0]} beyond twice the dimension"
        )
    poly = LaurentPoly({e: c2 for e, c2 in p.coeffs.items() if e <= 2 * dim})
    return result_from_poly(poly, dim, "recursion", ss_ok)


class _ClosedCounts(_Recursor):
    """The recursion step fed with the closed route's stable counts, keyed
    by the exact (block, residue): every block's own closed count is
    evaluated, however many share its chamber."""

    def _key(self, block, rho):
        return block, rho

    def _stable_count(self, block, d, trunc):
        return q_ratfunc(self.den, block, d, self.genus).expand(trunc)


def siegel_check(data, genus, d, order):
    """Verify the mass identity through the given series order.

    The full-family count equals the sum over block decompositions and
    slope-decreasing degree tuples of the stable counts of the blocks; the
    length-1 term is the stable count itself.  So one step of the recursion,
    fed with the closed count route's stable counts of the blocks, must
    return the closed stable count of the datum.  Returns (True, None) on
    agreement, otherwise (False, first differing exponent).
    """
    den, block = _integer_block(data)
    step = _ClosedCounts(genus, den)._compute(block, d, order)
    diff = step.first_difference(q_ratfunc(den, block, d, genus).expand(order), through=order)
    return (diff is None, diff)
