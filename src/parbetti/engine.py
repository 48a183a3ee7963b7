"""Betti number engines for the parabolic moduli spaces.

Three independent routes to the same polynomial (``compute`` also runs the
rank-2 subset-sum route of ``rank2``).  Each block of a decomposition
enters through its substituted count, the per-block factor of
``counting``:

* ``poincare_closed``: direct closed formula, a finite alternating sum over
  block decompositions of the flag data, assembled in exact factored
  rational-function arithmetic and certified by exact division.  The
  decompositions are never built: an integer walk over each point's tables
  sums them per (block ranks, denominator) class, Zagier's regrouping by
  block type, into one integer polynomial per class times the blocks'
  numerators (``counting._odd_plus_product``).
* ``poincare_qclosed``: the point-count route.  The same block sum with
  the exponents of the stable-count generating function, bridged back to
  Betti numbers; ``compare_methods`` checks it against the first route.
* ``recursion_poincare``: solves the filtration recursion numerically in
  truncated Laurent series with certified truncation bookkeeping, never
  citing the closed solution.  It runs on integer blocks: per point, the
  multiplicities and the weight numerators over the data's one
  denominator.  Each stratum's Harder-Narasimhan degree tuples are found by
  an integer search, and the tuples of all strata are grouped by the
  multiset of their (block, residue mod the block's rank) pairs, each
  multiset with an exact polynomial of its shifts.  The sorted multisets
  form a trie, and Horner's rule over it makes one series product per
  inner node.  All rank-1 blocks share one series, whatever their weights.

``sweep`` solves a grid of genera and degrees, and on the closed routes
finds each degree's stability witness and block classes once for every genus.

All three end with the same shift-free bridge prefactor
(1 - t)^(2g) (1 - t^2)^(1 - 2g), after a shift of their own; the recursion
multiplies by the bridge's series expansion, so no series is inverted.

``siegel_check`` verifies the underlying mass identity order by order: it
runs the recursion's own step on the closed route's stable counts.
"""

from __future__ import annotations

import itertools
import operator

from . import rank2 as _rank2
from .counting import _odd_plus_product, block_factor, flag_denominator, rank_denominator
from .laurent import (
    MAX_TRUNCATION,
    LaurentPoly,
    LaurentSeries,
    NonDivisible,
    TruncationLimit,
    TruncationTooSmall,
)
from .parabolic import (
    Instance,
    _block_data,
    _integer_weights,
    _strata,
    canonical_form,
    moduli_dim,
    slope_coincidence_witness,
)
from .ratfunc import FactoredRatFunc
from .result import NonPolynomialResult, result_from_poly


class StrictSemistable(ValueError):
    """Input has strictly semistable points; pass force=True to continue."""


class MethodInapplicable(ValueError):
    """The requested method does not apply to this input."""


METHODS = ("closed", "qclosed", "recursion", "rank2")


def _check_stability(witness, force):
    """True when the ``slope_coincidence_witness`` is None; for strictly
    semistable data, False under force and a refusal otherwise."""
    if witness is None:
        return True
    if not force:
        sub, e = witness
        raise StrictSemistable(
            f"sub-datum of rank {sub.rank} at degree {e} can sit at the "
            "total slope; rerun with force to evaluate the formula anyway"
        )
    return False


def _count_shift(mults, genus):
    """n^2(g - 1) + 2 flag_dim: the shift between the count side and the
    Betti side of data with these multiplicities at each point."""
    n = sum(mults[0])
    return n * n * (genus - 1) + sum(n * n - sum(m * m for m in ms) for ms in mults)


def _block_q(mults, genus):
    """Count generating function of the full family over one block."""
    return FactoredRatFunc.monomial(-_count_shift(mults, genus)) * block_factor(mults, genus)


def _bridge(genus):
    """Shift-free prefactor (1 - t)^(2g) (1 - t^2)^(1 - 2g) that turns a
    count function into the Betti polynomial; each route adds its shift."""
    return FactoredRatFunc(0, LaurentPoly.one(), {1: 2 * genus, 2: 1 - 2 * genus})


def _certify(func, instance, method, ss_ok):
    dim = moduli_dim(instance.data, instance.genus)
    try:
        poly = func.to_laurent_poly()
    except NonDivisible as exc:
        raise NonPolynomialResult(
            f"{method} route did not produce a polynomial: {exc}"
        ) from exc
    return result_from_poly(poly, dim, method, ss_ok)


def _block_classes(data, d, table_term):
    """The partitions of the closed routes' block sum, grouped by class.

    A partition is a composition ``cols`` of the rank (block ranks c_k) and
    one table per point; it contributes sign * t^x over its chain and block
    denominators.  The routes share the floored part of x,
    2 (sum_k (c_k + c_{k+1}) (floor(N_k lam - A_k) + 1) - (n - c_r) d), with
    N_k and A_k the rank and weight of the first k + 1 blocks and lam the
    total slope, and add, per point, ``table_term(inv, coinv, sq)``: the
    table's cross-block pair counts and the sum of its squared entries.
    The genus enters x only through a term of the sorted block ranks, which
    ``_block_sum`` adds per class, so the classes serve every genus.  They
    are the same at d and d + n: each floor grows by N_k, and
    sum_k (c_k + c_{k+1}) N_k = n (n - c_r) cancels the d term.

    No partition or block is built.  The weights are scaled once to integers
    over their lcm denominator D, so a floor is one integer division
    (N_k (d D + W) - n A_k) // (n D), W and A_k over D.  Each point's tables
    (``_strata``) are turned once per composition into their prefix weights,
    table term and flag denominator, the last packed as base-(s n + 1)
    digits so that the points add as integers.  Classes are keyed by (sorted
    block ranks, factor exponents) in the order the strata come; each maps
    x to its signed count.
    """
    n = data.rank
    den, weights = _integer_weights(data)
    top = d * den + sum(m * w for p, ws in zip(data.points, weights) for m, w in zip(p.mults, ws))
    nd = n * den
    base = data.num_points * n + 1
    classes = {}
    for cols, strata in _strata([p.mults for p in data.points], weights, 1, {}):
        r = len(cols)
        sign = (-1) ** (r - 1)
        pair_sums = [cols[k] + cols[k + 1] for k in range(r - 1)]
        factors = {}
        for c in pair_sums:
            factors[2 * c] = factors.get(2 * c, 0) - 1
        for c in cols:
            for m, e in rank_denominator(c, data.num_points).items():
                factors[m] = factors.get(m, 0) + e
        tops = [k * top for k in itertools.accumulate(cols[:-1])]
        x0 = 2 * (sum(pair_sums) - (n - cols[-1]) * d)
        per_point = []
        for tables in strata:
            rows = []
            for tbl, inv, coinv, nums in tables:
                entries = [a for row in tbl for a in row]
                flag = flag_denominator(entries, {}).items()
                prefix = [-n * a for a in itertools.accumulate(nums[:-1])]
                code = sum(-e * base ** (m // 2 - 1) for m, e in flag)
                rows.append((code, prefix, table_term(inv, coinv, sum(a * a for a in entries))))
            per_point.append(rows)
        local = {}
        for head in itertools.product(*per_point[:-1]):
            hcode = sum(t[0] for t in head)
            hx = x0 + sum(t[2] for t in head)
            hw = tops
            for t in head:
                hw = [a + b for a, b in zip(hw, t[1])]
            for code, prefix, e in per_point[-1]:
                x = hx + e + 2 * sum(
                    c * ((a + b) // nd) for c, a, b in zip(pair_sums, hw, prefix)
                )
                xs = local.get(hcode + code)
                if xs is None:
                    xs = local[hcode + code] = {}
                xs[x] = xs.get(x, 0) + sign
        ranks = tuple(sorted(cols))
        for code, xs in local.items():
            fac = dict(factors)
            for j in range(1, n + 1):
                code, cnt = divmod(code, base)
                fac[2 * j] = fac.get(2 * j, 0) - cnt
            key = (ranks, tuple(sorted((m, e) for m, e in fac.items() if e)))
            monomials = classes.setdefault(key, {})
            for x, c in xs.items():
                monomials[x] = monomials.get(x, 0) + c
    return classes


def _block_sum(classes, genus, cols_term):
    """The alternating block decomposition sum behind both closed routes:
    each class of ``_block_classes`` is one integer polynomial, times
    t^``cols_term(ranks)`` of its block ranks and its blocks' numerators
    prod_{i<=c} (1 + t^{2i-1})^{2g}, added as one term."""
    total = FactoredRatFunc.zero()
    for (ranks, factors), monomials in classes.items():
        numer = _odd_plus_product(monomials, ranks, genus)
        total = total + FactoredRatFunc(cols_term(ranks), numer, dict(factors))
    return total


def _count_sum(data, genus, classes):
    """The count side's block sum over the classes of ``_block_classes``."""
    s = data.num_points
    # minus each block's shift n_b^2 (g - 1) + 2 flag_dim(b), where
    # 2 flag_dim(b) is s n_b^2 minus the squares of the block's column in
    # every table (the table term adds those)
    return _block_sum(classes, genus, lambda ranks: -(genus - 1 + s) * sum(c * c for c in ranks))


# the closed routes' exponent per table, from its cross-block pair counts
# and the sum of its squared entries: the Betti side and the count side
_TABLE_TERMS = {
    "closed": lambda inv, coinv, sq: 2 * coinv,
    "qclosed": lambda inv, coinv, sq: sq - 2 * inv,
}


def _closed_route(instance, method, force, witnesses, classes):
    """Betti polynomial of a closed route.  Its genus-free work is looked up
    in, or added to, the caller's dicts: ``witnesses`` maps a degree to its
    ``slope_coincidence_witness``, ``classes`` a degree mod the rank to its
    block classes."""
    data, d, g = instance.data, instance.degree, instance.genus
    if d not in witnesses:
        witnesses[d] = slope_coincidence_witness(data, d)
    ss_ok = _check_stability(witnesses[d], force)
    key = d % data.rank
    if key not in classes:
        classes[key] = _block_classes(data, d, _TABLE_TERMS[method])
    if method == "closed":
        n = data.rank
        # twice the genus pairing (g - 1) sum_{k<l} c_k c_l of the block ranks
        func = _block_sum(
            classes[key], g, lambda ranks: (g - 1) * (n * n - sum(c * c for c in ranks))
        )
    else:
        shift = _count_shift([p.mults for p in data.points], g)
        func = FactoredRatFunc.monomial(shift) * _count_sum(data, g, classes[key])
    return _certify(func * _bridge(g), instance, method, ss_ok)


def poincare_closed(instance, force=False):
    """Betti polynomial by the direct closed formula."""
    return _closed_route(instance, "closed", force, {}, {})


def q_ratfunc(data, d, genus):
    """Stable-count generating function, exact in factored form.

    Same block decomposition sum as the closed formula, written on the
    count side: each block enters as its full-family count, which is the
    block factor shifted by t^(-n^2(g-1) - 2 flag_dim).  The r = 1 term is
    the full-family count itself.
    """
    return _count_sum(data, genus, _block_classes(data, d, _TABLE_TERMS["qclosed"]))


def poincare_qclosed(instance, force=False):
    """Betti polynomial via the count route and the bridge prefactor."""
    return _closed_route(instance, "qclosed", force, {}, {})


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
    """Solves the filtration recursion in truncated series, memoized.

    A block is a pair ``(mults, nums)`` of int tuples, one per point: the
    multiplicities of its nonzero flag rows and their weight numerators
    over ``den``, the top-level data's denominator (every block's weights
    are some of the data's).  ``memo`` maps (block, residue) to its series,
    ``shapes`` holds the tables of ``_strata`` and ``families`` the
    full-family counts per (mults, truncation); all three last one compute.

    Degree enters only through its residue mod the rank: twisting by a line
    bundle of degree one shifts every degree tuple compatibly and leaves
    both the pairing and the slope chain intact.  A rank-1 block's count
    does not depend on its weights (its flag dimension is 0 and its factors
    see only multiplicities), so every rank-1 block with s points is the
    one with numerators 0, and they share one memo entry.
    """

    def __init__(self, genus, den):
        self.genus = genus
        self.den = den
        self.memo = {}
        self.shapes = {}
        self.families = {}

    def q_series(self, block, d, trunc):
        """Stable count of a block (no zero rows) through trunc."""
        key = (block, d % sum(block[0][0]))
        hit = self.memo.get(key)
        if hit is not None and hit.trunc >= trunc:
            return hit
        series = self._stable_count(block, key[1], trunc).exact_through(trunc)
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
        depends only on the multiset of (block, d_k mod n_k) pairs.  So the
        walk over the strata fetches each block's series as deep as the
        stratum's certificate needs, bounds the pairing so that the skipped
        tuples land past trunc, and adds each tuple's shift into its
        multiset's node of a trie of sorted (block number, residue) pairs;
        ``_horner`` then makes the products.  Blocks are numbered by their
        table columns.
        """
        g = self.genus
        mults, nums = block
        total = self.families.get((mults, trunc))
        if total is None:
            total = self.families[mults, trunc] = _block_q(mults, g).expand(trunc)
        if sum(mults[0]) == 1:
            return total
        line = (((1,),) * len(mults), ((0,),) * len(mults))
        den = self.den
        ids = {}  # a block's table columns (rank 1: ()) -> its number
        blocks = []  # number -> (block, rank, -count shift)
        series = {}  # (number, residue) -> deepest series fetched
        fetched = {}  # number -> (least depth, least order bound) of its series
        trie = {}  # (number, residue) -> (shifts of the multiset ending here, subtrie)
        for cols, strata in _strata(mults, nums, 2, self.shapes):
            for tables in itertools.product(*strata):
                sums = [sum(col) for col in zip(*(t[3] for t in tables))]
                sigma = sum(t[1] for t in tables)
                ks = []
                for k, c in enumerate(cols):
                    key = tuple(row[k] for tbl, *_ in tables for row in tbl) if c > 1 else ()
                    i = ids.get(key)
                    if i is None:
                        # block k is column k of every table, zero rows dropped:
                        # zip(*pairs) is its (mults, nums) at one point
                        b = line if c == 1 else tuple(zip(*(
                            tuple(zip(*((row[k], w) for row, w in zip(tbl, ws) if row[k])))
                            for (tbl, *_), ws in zip(tables, nums)
                        )))
                        i = ids[key] = len(blocks)
                        blocks.append((b, c, -_count_shift(b[0], g)))
                    ks.append(i)
                floors = _pairing_floors(cols, den, sums)
                # a block's probe: trunc less the smallest shift and the
                # other blocks' leading orders
                spare = trunc - 2 * (floors[0] - sigma) - sum(blocks[i][2] for i in ks)
                certs = []
                for i in ks:
                    b, c, order = blocks[i]
                    depth, cert = fetched.get(i, (spare + order - 1, None))
                    if depth < spare + order:
                        got = [self.q_series(b, rho, spare + order) for rho in range(c)]
                        series.update(((i, rho), s) for rho, s in enumerate(got))
                        depth = min(s.trunc for s in got)
                        cert = min(s.order_bound() for s in got)
                        fetched[i] = depth, cert
                    certs.append(cert)
                bound = (trunc - sum(certs)) // 2 + sigma
                # anything past the bound sits beyond trunc after the shift
                if 2 * (bound + 1 - sigma) + sum(certs) <= trunc:
                    raise TruncationTooSmall(
                        f"degree-tuple bound {bound} leaves terms below t^{trunc}"
                    )
                leaves = {}  # residues -> shifts of their multiset in the trie
                for dvec, pairing in hn_degree_tuples(cols, den, sums, d, bound, floors):
                    rhos = tuple(map(operator.mod, dvec, cols))
                    shifts = leaves.get(rhos)
                    if shifts is None:
                        node = trie
                        for pair in sorted(zip(ks, rhos)):
                            branch = node.get(pair)
                            if branch is None:
                                branch = node[pair] = ({}, {})
                            node = branch[1]
                        shifts = leaves[rhos] = branch[0]
                    shift = 2 * (pairing - sigma)
                    shifts[shift] = shifts.get(shift, 0) + 1
        total = total - self._horner(trie, trunc, blocks, series)
        return total.exact_through(trunc).truncate(trunc)

    def _horner(self, trie, need, blocks, series):
        """The sum over the trie's multisets of the product of ``series[p]``
        over their pairs p times their shifts, exact through need.

        Horner's rule: V = sum over the branches (p, shifts, subtrie) of
        series[p] (shifts + V(subtrie)), one product per branch (``mul_poly``
        at a leaf).  A branch solves its subtrie through need less its
        factor's order first; the subtrie's lowest exponent then sets the
        factor's depth, or leaves no room.  A short product means the factor
        started later than its family count predicts: it is deepened by the
        deficit and the product retried, after the subtrie has deepened the
        factors under it.
        """
        total = LaurentSeries.zero(need)
        for pair, (shifts, sub) in trie.items():
            s = series[pair]
            if sub:
                inner = need - s.order_bound()
                x = LaurentSeries(shifts, inner) + self._horner(sub, inner, blocks, series)
                low = x.order_bound()
            else:
                x = LaurentPoly(shifts)
                low = min(shifts)
            while need - low - s.order_bound() >= 0:
                f = s.truncate(need - low)
                term = f * x if sub else f.mul_poly(x)
                if term.trunc >= need:
                    total = total + term
                    break
                s = series[pair] = self.q_series(
                    blocks[pair[0]][0], pair[1], s.trunc + need - term.trunc
                )
        return total


def _integer_block(data):
    """Canonical data as ``(den, block)``: the lcm den of its weights'
    denominators and the recursion's integer block over it."""
    den, weights = _integer_weights(data)
    return den, (tuple(p.mults for p in data.points), tuple(map(tuple, weights)))


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
    den, block = _integer_block(canonical_form(data))
    c = _count_shift(block[0], g)
    q = _Recursor(g, den).q_series(block, d, n_master - c)
    p = q.shift(c) * _bridge(g).expand(n_master)
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
    """The recursion step fed with the closed route's stable counts."""

    def _stable_count(self, block, d, trunc):
        return q_ratfunc(_block_data(block, self.den), d, self.genus).expand(trunc)


def siegel_check(data, genus, d, order):
    """Verify the mass identity through the given series order.

    The full-family count equals the sum over block decompositions and
    slope-decreasing degree tuples of the stable counts of the blocks; the
    length-1 term is the stable count itself.  So one step of the recursion,
    fed with the closed count route's stable counts of the blocks, must
    return the closed stable count of the datum.  Returns (True, None) on
    agreement, otherwise (False, first differing exponent).
    """
    data = canonical_form(data)
    den, block = _integer_block(data)
    step = _ClosedCounts(genus, den)._compute(block, d, order)
    diff = step.first_difference(q_ratfunc(data, d, genus).expand(order), through=order)
    return (diff is None, diff)


def _check_dimension(instance):
    """The polynomial reaches t^(2 dim), so 2 dim past ``MAX_TRUNCATION`` is
    refused (``TruncationLimit``) before any route starts."""
    top = 2 * moduli_dim(instance.data, instance.genus)
    if top > MAX_TRUNCATION:
        raise TruncationLimit(
            f"twice the dimension, {top}, exceeds the truncation limit {MAX_TRUNCATION}"
        )


def compute(instance, method="closed", truncation=None, force=False):
    """Run one route.  Truncation only matters for the recursion route.
    Twice the dimension past ``MAX_TRUNCATION`` is refused first."""
    _check_dimension(instance)
    if method == "closed":
        return poincare_closed(instance, force)
    if method == "qclosed":
        return poincare_qclosed(instance, force)
    if method == "recursion":
        return recursion_poincare(instance, truncation, force)
    if method == "rank2":
        if instance.data.rank != 2:
            raise MethodInapplicable("rank2 route needs rank-2 data")
        try:
            profile = _rank2.profile_from_instance(instance)
        except ValueError as exc:
            raise MethodInapplicable(str(exc)) from exc
        return _rank2.poincare_rank2(profile)
    raise MethodInapplicable(f"unknown method {method!r}")


def sweep(data, genera, degrees, method="closed", truncation=None, force=False):
    """The list, for each genus and then each degree, of what ``compute``
    gives on ``Instance(g, d, data)``: its result or the exception it raises.

    On a closed route the genus enters only per class of the block sum, so
    the stability witness is found once per degree and the block classes
    once per degree mod the rank, for this call only.
    """
    outcomes, witnesses, classes = [], {}, {}
    for g in genera:
        for d in degrees:
            try:
                instance = Instance(g, d, data)
                if method in _TABLE_TERMS:
                    _check_dimension(instance)
                    outcome = _closed_route(instance, method, force, witnesses, classes)
                else:
                    outcome = compute(instance, method, truncation, force)
            except Exception as exc:  # the caller reports it as the cell's error
                outcome = exc
            outcomes.append(outcome)
    return outcomes


def applicable_methods(instance):
    """Routes that accept this instance without raising on its shape."""
    methods = ["closed", "qclosed", "recursion"]
    if instance.data.rank == 2:
        try:
            profile = _rank2.profile_from_instance(instance)
            _rank2.exists_stable_rank2(profile)
        except ValueError:
            pass
        else:
            methods.append("rank2")
    return methods


def compare_methods(instance, methods=None, truncation=None, force=False):
    """Run several routes and compare the polynomials coefficient-wise.

    Returns (results, mismatch) with mismatch either None or a triple
    (reference method, differing method, first differing exponent).
    """
    if methods is None:
        methods = applicable_methods(instance)
    results = {}
    for m in methods:
        results[m] = compute(instance, m, truncation=truncation, force=force)
    base = methods[0]
    for m in methods[1:]:
        if results[m].poly != results[base].poly:
            diff = results[m].poly - results[base].poly
            return results, (base, m, diff.min_exp())
    return results, None
