"""Betti number engines for the parabolic moduli spaces.

Three independent routes to the same polynomial:

* ``poincare_closed``: direct closed formula, a finite alternating sum over
  block decompositions of the flag data, assembled in exact factored
  rational-function arithmetic and certified by exact division.  The
  decompositions are never built: an integer walk over each point's tables
  sums them per (block ranks, denominator) class, Zagier's regrouping by
  block type, into one integer polynomial per class times rank numerators.
* ``poincare_qclosed``: the point-count route.  The same block sum with
  the exponents of the stable-count generating function, bridged back to
  Betti numbers; ``compare_methods`` checks it against the first route.
* ``recursion_poincare``: solves the filtration recursion numerically in
  truncated Laurent series with certified truncation bookkeeping, never
  citing the closed solution.  Each stratum's Harder-Narasimhan degree
  tuples, found by an integer search, are grouped by their residues mod
  the block ranks: one series product per class, times an exact polynomial
  of the class's shifts.

All three end with the same shift-free bridge prefactor
(1 - t)^(2g) (1 - t^2)^(1 - 2g), after a shift of their own; the recursion
multiplies by the bridge's series expansion, so no series is inverted.

``siegel_check`` verifies the underlying mass identity order by order: it
runs the recursion's own step on the closed route's stable counts.
"""

from __future__ import annotations

import itertools

from . import rank2 as _rank2
from .counting import _odd_plus_product, block_factor, flag_denominator, rank_denominator
from .laurent import LaurentPoly, LaurentSeries, NonDivisible, TruncationTooSmall
from .laurent import one_minus
from .parabolic import (
    _derived,
    _integer_weights,
    _strata,
    canonical_form,
    flag_dim,
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


def _check_stability(instance, force):
    wit = slope_coincidence_witness(instance.data, instance.degree)
    if wit is None:
        return True
    if not force:
        sub, e = wit
        raise StrictSemistable(
            f"sub-datum of rank {sub.rank} at degree {e} can sit at the "
            "total slope; rerun with force to evaluate the formula anyway"
        )
    return False


def _count_shift(data, genus):
    """n^2(g - 1) + 2 flag_dim: the shift between the count side and the
    Betti side of one datum."""
    return data.rank**2 * (genus - 1) + 2 * flag_dim(data)


def _block_q(block, genus):
    """Count generating function of the full family over one block."""
    shift = -_count_shift(block, genus)
    return FactoredRatFunc.monomial(shift) * block_factor(block, genus)


def _bridge(genus):
    """Shift-free prefactor (1 - t)^(2g) (1 - t^2)^(1 - 2g) that turns a
    count function into the Betti polynomial; each route adds its shift."""
    return FactoredRatFunc(0, one_minus(1) ** (2 * genus), {2: 1 - 2 * genus})


def _certify(func, instance, method, ss_ok):
    dim = moduli_dim(instance.data, instance.genus)
    try:
        poly = func.to_laurent_poly()
    except NonDivisible as exc:
        raise NonPolynomialResult(
            f"{method} route did not produce a polynomial: {exc}"
        ) from exc
    return result_from_poly(poly, dim, method, ss_ok, enforce=ss_ok)


def _block_classes(data, d, cols_term, table_term):
    """The partitions of the closed routes' block sum, grouped by class.

    A partition is a composition ``cols`` of the rank (block ranks c_k) and
    one table per point; it contributes sign * t^x over its chain and block
    denominators.  The routes share the floored part of x,
    2 (sum_k (c_k + c_{k+1}) (floor(N_k lam - A_k) + 1) - (n - c_r) d), with
    N_k and A_k the rank and weight of the first k + 1 blocks and lam the
    total slope, and add ``cols_term(cols)`` and, per point,
    ``table_term(inv, coinv, sq)``: the table's cross-block pair counts and
    the sum of its squared entries.

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
    for cols, strata in _strata(data, weights, 1):
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
        x0 = cols_term(cols) + 2 * (sum(pair_sums) - (n - cols[-1]) * d)
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


def _block_sum(data, genus, d, cols_term, table_term):
    """The alternating block decomposition sum behind both closed routes:
    each class of ``_block_classes`` is one integer polynomial, multiplied
    by its rank numerators once and added as one rational function."""
    numerators = [_odd_plus_product(c, genus) for c in range(data.rank + 1)]
    total = FactoredRatFunc.zero()
    for (ranks, factors), monomials in _block_classes(data, d, cols_term, table_term).items():
        numer = LaurentPoly(monomials)
        for c in ranks:
            numer = numer * numerators[c]
        total = total + FactoredRatFunc(0, numer, dict(factors))
    return total


def poincare_closed(instance, force=False):
    """Betti polynomial by the direct closed formula."""
    data, d, g = instance.data, instance.degree, instance.genus
    ss_ok = _check_stability(instance, force)
    n = data.rank
    # the Betti side: 2 coinv per point, and twice the genus pairing
    # (g - 1) sum_{k<l} c_k c_l of the block ranks
    func = _block_sum(
        data, g, d,
        lambda cols: (g - 1) * (n * n - sum(c * c for c in cols)),
        lambda inv, coinv, sq: 2 * coinv,
    )
    return _certify(func * _bridge(g), instance, "closed", ss_ok)


def q_ratfunc(data, d, genus):
    """Stable-count generating function, exact in factored form.

    Same block decomposition sum as the closed formula, written on the
    count side: each block enters as its full-family count, which is the
    block factor shifted by t^(-n^2(g-1) - 2 flag_dim).  The r = 1 term is
    the full-family count itself.
    """
    s = data.num_points
    # the count side: -2 inv per point, and minus each block's shift
    # n_b^2 (g - 1) + 2 flag_dim(b), where 2 flag_dim(b) is s n_b^2 minus
    # the squares of the block's column in every table
    return _block_sum(
        data, genus, d,
        lambda cols: -(genus - 1 + s) * sum(c * c for c in cols),
        lambda inv, coinv, sq: sq - 2 * inv,
    )


def poincare_qclosed(instance, force=False):
    """Betti polynomial via the count route and the bridge prefactor."""
    data, d, g = instance.data, instance.degree, instance.genus
    ss_ok = _check_stability(instance, force)
    pre = FactoredRatFunc.monomial(_count_shift(data, g)) * _bridge(g)
    return _certify(pre * q_ratfunc(data, d, g), instance, "qclosed", ss_ok)


def _pairing_floors(cols, den, nums):
    """Pairing floors ``floor(a_k n_l - a_l n_k) + 1`` (l < k) of weights
    a_k = nums[k] / den, in integers; entries with l >= k are 0."""
    r = len(cols)
    lb = [[0] * r for _ in range(r)]
    for l in range(r):
        for k in range(l + 1, r):
            lb[l][k] = (nums[k] * cols[l] - nums[l] * cols[k]) // den + 1
    return lb


def hn_degree_tuples(cols, den, nums, d, pairing_bound):
    """Integer degree tuples with total ``d``, strictly decreasing block
    slopes, and cross pairing at most ``pairing_bound``.

    Block k has rank ``cols[k]`` and weight a_k = ``nums[k] / den``, with
    integer numerators over one positive denominator.  The pairing of a
    tuple is ``sum over l < k of d_l n_k - d_k n_l`` and the slope of block
    k is ``(d_k + a_k) / cols[k]``.  Slope decrease makes every pairwise
    pairing at least ``floor(a_k n_l - a_l n_k) + 1``, which closes both
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
    lb = _pairing_floors(cols, den, nums)
    lbsuf = [0] * (r + 1)
    for j in range(r - 1, -1, -1):
        lbsuf[j] = lbsuf[j + 1] + sum(lb[j])
    asuf = [0] * (r + 1)
    for j in range(r - 1, -1, -1):
        asuf[j] = asuf[j + 1] + nums[j]
    out = []

    def rec(j, deg_sum, pair_in, prefix):
        nprev = sum(cols[:j])
        nj = cols[j]
        if j == r - 1:
            v = d - deg_sum
            if (v * den + nums[j]) * cols[j - 1] >= (prefix[-1] * den + nums[j - 1]) * nj:
                return
            pair_total = pair_in + nj * deg_sum - v * nprev
            if pair_total <= pairing_bound:
                out.append((tuple(prefix) + (v,), pair_total))
            return
        x = nj * ((d - deg_sum) * den + asuf[j + 1]) - (n - nprev - nj) * nums[j]
        lo = x // (den * (n - nprev)) + 1
        c0 = (
            pair_in
            + nj * deg_sum
            + n * deg_sum
            - d * (nprev + nj)
            + lbsuf[j + 1]
        )
        hi = (pairing_bound - c0) // (n - nprev)
        if j > 0:
            # block j's slope stays under block j-1's: v < cap / (den n_{j-1})
            cap = (prefix[-1] * den + nums[j - 1]) * nj - nums[j] * cols[j - 1]
            hi = min(hi, -(-cap // (den * cols[j - 1])) - 1)
        for v in range(lo, hi + 1):
            rec(j + 1, deg_sum + v, pair_in + nj * deg_sum - v * nprev, prefix + [v])

    rec(0, 0, 0, [])
    return out


class _Recursor:
    """Solves the filtration recursion in truncated series, memoized.

    Degree enters only through its residue mod the rank: twisting by a line
    bundle of degree one shifts every degree tuple compatibly and leaves
    both the pairing and the slope chain intact.
    """

    def __init__(self, genus):
        self.genus = genus
        self.memo = {}

    def q_series(self, data, d, trunc):
        """Stable count of canonical data (no zero rows) through trunc."""
        key = (data, d % data.rank)
        hit = self.memo.get(key)
        if hit is not None and hit.trunc >= trunc:
            return hit
        series = self._stable_count(data, key[1], trunc).exact_through(trunc)
        self.memo[key] = series
        return series

    def _stable_count(self, data, d, trunc):
        """Stable count of canonical data through trunc, before memoising."""
        return self._compute(data, d, trunc)

    def _compute(self, data, d, trunc):
        """The full-family count of canonical data minus every stratum of
        two or more blocks, through trunc."""
        total = _block_q(data, self.genus).expand(trunc)
        if data.rank == 1:
            return total
        den, weights = _integer_weights(data)
        for cols, strata in _strata(data, weights, 2):
            for tables in itertools.product(*strata):
                # block k is column k of every table, zero rows dropped:
                # zip(*pairs) is its (mults, weights) at one point
                blocks = [
                    _derived(
                        zip(*((row[k], w) for row, w in zip(tbl, p.weights) if row[k]))
                        for p, (tbl, *_) in zip(data.points, tables)
                    )
                    for k in range(len(cols))
                ]
                sigma = sum(t[1] for t in tables)
                nums = [sum(col) for col in zip(*(t[3] for t in tables))]
                total = total - self._partition_term(cols, blocks, sigma, den, nums, d, trunc)
        return total.exact_through(trunc).truncate(trunc)

    def _partition_term(self, cols, blocks, sigma, den, nums, d, trunc):
        """Sum over degree tuples of one stratum (block ranks, canonical
        blocks, sigma inversions, weights nums[k] / den), exact through trunc.

        The product of the block series depends only on the residues
        ``d_k mod n_k``; a tuple adds only the shift ``2(pairing - sigma)``.
        So the tuples are grouped by residue class, each class's shifts
        collected into one exact polynomial, and the block series multiplied
        once per class.  A class whose certified order exceeds trunc at its
        smallest shift is skipped; the bound argument to the enumerator makes
        the skipped tail rigorous."""
        g = self.genus
        r = len(cols)
        min_pairing = sum(map(sum, _pairing_floors(cols, den, nums)))
        qhat_orders = [-_count_shift(b, g) for b in blocks]
        per_block = []
        certs = []
        for k, b in enumerate(blocks):
            probe = (
                trunc
                - 2 * (min_pairing - sigma)
                - (sum(qhat_orders) - qhat_orders[k])
            )
            by_residue = {}
            for rho in range(b.rank):
                by_residue[rho] = self.q_series(b, rho, probe)
            per_block.append(by_residue)
            certs.append(min(s.order_bound() for s in by_residue.values()))
        bound = (trunc - sum(certs)) // 2 + sigma
        # anything past the bound sits beyond trunc after the shift
        if 2 * (bound + 1 - sigma) + sum(certs) <= trunc:
            raise TruncationTooSmall(
                f"degree-tuple bound {bound} leaves terms below t^{trunc}"
            )
        classes = {}
        for dvec, pairing in hn_degree_tuples(cols, den, nums, d, bound):
            shifts = classes.setdefault(
                tuple(dk % nk for dk, nk in zip(dvec, cols)), {}
            )
            shift = 2 * (pairing - sigma)
            shifts[shift] = shifts.get(shift, 0) + 1
        acc = LaurentSeries.zero(trunc)
        for rhos, shifts in classes.items():
            low = min(shifts)
            while True:
                factors = [per_block[k][rho] for k, rho in enumerate(rhos)]
                orders = [s.order_bound() for s in factors]
                # deeper terms of a factor, or a class with no room, land past trunc
                room = trunc - low - sum(orders)
                if room < 0:
                    break
                prod = factors[0].truncate(room + orders[0])
                for s, o in zip(factors[1:], orders[1:]):
                    prod = prod * s.truncate(room + o)
                if prod.trunc + low >= trunc:
                    acc = acc + prod.mul_poly(LaurentPoly(shifts))
                    break
                # a block series started later than its family count
                # predicts; deepen every factor by the deficit and retry
                bump = trunc - low - prod.trunc
                for k in range(r):
                    per_block[k][rhos[k]] = self.q_series(
                        blocks[k], rhos[k], per_block[k][rhos[k]].trunc + bump
                    )
        return acc.exact_through(trunc)


def recursion_poincare(instance, truncation=None, force=False):
    """Betti polynomial by solving the recursion in truncated series.

    The default truncation is two past twice the dimension; the band above
    twice the dimension must come out identically zero and acts as the
    self-check of this route.
    """
    data, d, g = instance.data, instance.degree, instance.genus
    ss_ok = _check_stability(instance, force)
    dim = moduli_dim(data, g)
    # at negative dimension the floor of 2 keeps t^0..t^2 in the zero band
    n_master = max(2 * dim + 2, 2) if truncation is None else truncation
    if n_master <= 2 * dim:
        raise TruncationTooSmall(
            f"truncation {n_master} cannot reach degree {2 * dim}"
        )
    c = _count_shift(data, g)
    q = _Recursor(g).q_series(canonical_form(data), d, n_master - c)
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
    return result_from_poly(poly, dim, "recursion", ss_ok, enforce=ss_ok)


class _ClosedCounts(_Recursor):
    """The recursion step fed with the closed route's stable counts."""

    def _stable_count(self, data, d, trunc):
        return q_ratfunc(data, d, self.genus).expand(trunc)


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
    step = _ClosedCounts(genus)._compute(data, d, order)
    diff = step.first_difference(q_ratfunc(data, d, genus).expand(order), through=order)
    return (diff is None, diff)


def compute(instance, method="closed", truncation=None, force=False):
    """Run one route.  Truncation only matters for the recursion route."""
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
