"""Betti number engines for the parabolic moduli spaces.

Four routes to the same polynomial; ``compute`` runs one of them.  Each
block of a decomposition enters through its substituted count, the
per-block factor of ``counting``:

* ``poincare_closed``: direct closed formula, a finite alternating sum over
  block decompositions of the flag data, assembled in exact factored
  rational-function arithmetic and certified by exact division.  The
  decompositions are never built: an integer walk over each point's tables
  sums them per (block ranks, denominator) class, Zagier's regrouping by
  block type, into one integer polynomial per class times the blocks'
  numerators but one (1 + t)^(2g) (``counting.odd_plus``; see below).
* ``poincare_qclosed``: the point-count route.  The same block sum with
  the exponents of the stable-count generating function, shifted back to
  the Betti side; ``compare_methods`` checks it against the first route.
* ``recursion.recursion_poincare``: the Harder-Narasimhan recursion in
  truncated series, which never cites the closed solution.
* ``rank2.poincare_rank2``: the rank-2 subset sum over the weight gaps.

The last two routes live in their own modules, which ``compute`` (and, for
``rank2``, ``applicable_methods``) imports only when it runs them, so a
process that runs a closed route never loads them.

``sweep`` solves a grid of genera and degrees, and on the closed routes
finds each degree's stability witness and block classes once for every genus.

Every class of the closed block sum carries (1 + t)^(2g), and (1 + t)^(2g)
times the bridge (1 - t)^(2g) (1 - t^2)^(1 - 2g) from counts to Betti
numbers is 1 - t^2, so the closed routes leave that factor out and end with
1 - t^2: the function they certify has the same factors at every genus.
"""

import itertools

from .counting import flag_denominator, odd_plus, rank_denominator
from .laurent import MAX_TRUNCATION, LaurentPoly, NonDivisible, TruncationLimit, one_plus
from .parabolic import Instance, _integer_block, _strata, moduli_dim, slope_coincidence_witness
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


def _certify(func, instance, method, ss_ok):
    dim = moduli_dim(instance.data, instance.genus)
    try:
        poly = func.to_laurent_poly()
    except NonDivisible as exc:
        raise NonPolynomialResult(
            f"{method} route did not produce a polynomial: {exc}"
        ) from exc
    return result_from_poly(poly, dim, method, ss_ok)


def _block_classes(den, block, d, table_term):
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

    No partition or block is built.  The data comes as ``_integer_block``
    gives it, weights over one denominator D, so a floor is one integer
    division (N_k (d D + W) - n A_k) // (n D), W and A_k over D.  Each
    point's tables (``_strata``) are turned once per composition into their
    prefix weights, table term and flag denominator, the last packed as
    base-(s n + 1) digits so that the points add as integers.  Classes are keyed by (sorted
    block ranks, factor exponents) in the order the strata come; each maps
    x to its signed count.
    """
    mults, nums = block
    n, s = sum(mults[0]), len(mults)
    top = d * den + sum(m * w for ms, ws in zip(mults, nums) for m, w in zip(ms, ws))
    nd = n * den
    base = s * n + 1
    classes = {}
    for cols, strata in _strata(mults, nums, 1, {}):
        r = len(cols)
        sign = (-1) ** (r - 1)
        pair_sums = [cols[k] + cols[k + 1] for k in range(r - 1)]
        factors = {}
        for c in pair_sums:
            factors[2 * c] = factors.get(2 * c, 0) - 1
        for c in cols:
            for m, e in rank_denominator(c, s).items():
                factors[m] = factors.get(m, 0) + e
        tops = [k * top for k in itertools.accumulate(cols[:-1])]
        x0 = 2 * (sum(pair_sums) - (n - cols[-1]) * d)
        per_point = []
        for tables in strata:
            rows = []
            for tbl, inv, coinv, weights in tables:
                entries = [a for row in tbl for a in row]
                flag = flag_denominator(entries, {}).items()
                prefix = [-n * a for a in itertools.accumulate(weights[:-1])]
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
    """The alternating block decomposition sum behind both closed routes, over
    (1 + t)^(2g): each class of ``_block_classes`` is one integer polynomial,
    times t^``cols_term(ranks)`` of its block ranks and ``odd_plus(ranks)``,
    added as one term."""
    total = FactoredRatFunc.zero()
    for (ranks, factors), monomials in classes.items():
        numer = LaurentPoly(monomials) * odd_plus(ranks, genus)
        total = total + FactoredRatFunc(cols_term(ranks), numer, dict(factors))
    return total


def _count_sum(s, genus, classes):
    """The count side's ``_block_sum`` over the classes of ``_block_classes``
    of data with s points."""
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
        classes[key] = _block_classes(*_integer_block(data), d, _TABLE_TERMS[method])
    if method == "closed":
        n = data.rank
        # twice the genus pairing (g - 1) sum_{k<l} c_k c_l of the block ranks
        func = _block_sum(
            classes[key], g, lambda ranks: (g - 1) * (n * n - sum(c * c for c in ranks))
        )
    else:
        shift = _count_shift([p.mults for p in data.points], g)
        func = FactoredRatFunc.monomial(shift) * _count_sum(data.num_points, g, classes[key])
    # 1 - t^2: the bridge prefactor times the (1 + t)^(2g) the sum left out
    return _certify(func * FactoredRatFunc(0, LaurentPoly.one(), {2: 1}), instance, method, ss_ok)


def poincare_closed(instance, force=False):
    """Betti polynomial by the direct closed formula."""
    return _closed_route(instance, "closed", force, {}, {})


def q_ratfunc(den, block, d, genus):
    """Stable-count generating function of an integer block (weights over
    den, as ``_integer_block`` gives them), exact in factored form.

    Same block decomposition sum as the closed formula, written on the
    count side: each block enters as its full-family count, which is the
    block factor shifted by t^(-n^2(g-1) - 2 flag_dim).  The r = 1 term is
    the full-family count itself; the sum's left-out (1 + t)^(2g) is put back.
    """
    classes = _block_classes(den, block, d, _TABLE_TERMS["qclosed"])
    func = _count_sum(len(block[0]), genus, classes)
    return FactoredRatFunc(0, one_plus(1) ** (2 * genus)) * func


def poincare_qclosed(instance, force=False):
    """Betti polynomial via the count route: the stable-count function,
    shifted to the Betti side and multiplied by 1 - t^2."""
    return _closed_route(instance, "qclosed", force, {}, {})


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
        from .recursion import recursion_poincare

        return recursion_poincare(instance, truncation, force)
    if method == "rank2":
        if instance.data.rank != 2:
            raise MethodInapplicable("rank2 route needs rank-2 data")
        from . import rank2

        try:
            profile = rank2.profile_from_instance(instance)
        except ValueError as exc:
            raise MethodInapplicable(str(exc)) from exc
        return rank2.poincare_rank2(profile)
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
        from . import rank2

        try:
            profile = rank2.profile_from_instance(instance)
            rank2.exists_stable_rank2(profile)
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
