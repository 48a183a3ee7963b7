"""Quasi-parabolic data on a marked curve and its filtration combinatorics.

A FlagPoint records the multiplicity vector of a flag at one marked point
together with strictly increasing rational weights in [0, 1).  Zero
multiplicities are allowed so that sub-data and blocks of a partition can be
kept aligned with the ambient flag; dropping the zero rows is the canonical
form and the two presentations are interchangeable.

Outside input is validated once, by the public constructors it enters
through (FlagPoint, QPData, make_data).  Everything derived here from
already-valid data (blocks, sub-data, canonical forms) is built by
``_derived`` without re-checking, and compares and hashes equal to the same
rows built through ``make_data``.

A stratum splits the data into r ordered blocks: at every point a table
with the data's multiplicities as row sums and a common column-sum vector
(the block ranks) across points.  The strata index every formula
downstream, and all three series routes walk them through ``_strata``,
which reads each point's tables once per composition of the rank into
integer pair counts and block weights; no stratum object is built.

Below each route's entry point the data is one integer block
(``_integer_block``): the multiplicities and the weight numerators over
the weights' lcm denominator, zero rows kept, since they add nothing.
"""

import itertools
import math
from fractions import Fraction

from .laurent import Record


def _as_fraction(w):
    if isinstance(w, Fraction):
        return w
    if isinstance(w, int):
        return Fraction(w)
    if isinstance(w, str):
        return Fraction(w)
    raise TypeError(f"weight must be exact, got {type(w).__name__}")


class FlagPoint(Record):
    __slots__ = ("mults", "weights")

    def __init__(self, mults, weights):
        mults = tuple(mults)
        if not all(type(m) is int for m in mults):
            raise TypeError(f"multiplicities must be ints, got {mults!r}")
        weights = tuple(_as_fraction(w) for w in weights)
        Record.__init__(self, mults, weights)
        if len(mults) != len(weights) or not mults:
            raise ValueError("mults and weights must be nonempty and equally long")
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be >= 0")
        for w in weights:
            if not (0 <= w < 1):
                raise ValueError(f"weight {w} outside [0, 1)")
        for a, b in zip(weights, weights[1:]):
            if not a < b:
                raise ValueError("weights must be strictly increasing")

    @property
    def rank(self):
        return sum(self.mults)


class QPData(Record):
    __slots__ = ("points",)

    def __init__(self, points):
        Record.__init__(self, tuple(points))
        if not self.points:
            raise ValueError("data needs at least one marked point")
        ranks = {p.rank for p in self.points}
        if len(ranks) != 1:
            raise ValueError(f"points have different ranks {sorted(ranks)}")
        if self.points[0].rank < 1:
            raise ValueError("rank must be >= 1")

    @property
    def rank(self):
        return self.points[0].rank

    @property
    def num_points(self):
        return len(self.points)


def make_data(point_specs):
    """Build QPData from [(mults, weights), ...] pairs."""
    return QPData(tuple(FlagPoint(tuple(m), tuple(w)) for m, w in point_specs))


def _derived(rows):
    """QPData from (mults, weights) rows derived from validated data.

    Skips the constructors' checks: mults must be a tuple of non-negative
    ints with one equal, positive sum per point, and weights an equally
    long subsequence of a validated point's weights.
    """
    pts = []
    for mults, weights in rows:
        p = object.__new__(FlagPoint)
        object.__setattr__(p, "mults", mults)
        object.__setattr__(p, "weights", weights)
        pts.append(p)
    data = object.__new__(QPData)
    object.__setattr__(data, "points", tuple(pts))
    return data


class Instance(Record):
    __slots__ = ("genus", "degree", "data")

    def __init__(self, genus, degree, data):
        if type(genus) is not int or genus < 0:
            raise ValueError("genus must be a non-negative integer")
        if type(degree) is not int:
            raise ValueError("degree must be an integer")
        Record.__init__(self, genus, degree, data)


def flag_dim(data):
    """Dimension of the product of flag varieties attached to the data."""
    total = 0
    for p in data.points:
        sq = sum(m * m for m in p.mults)
        total += (p.rank**2 - sq) // 2
    return total


def moduli_dim(data, genus):
    """Dimension of the fixed-determinant moduli space."""
    n = data.rank
    return flag_dim(data) + (n * n - 1) * (genus - 1)


def canonical_form(data):
    """Drop zero-multiplicity rows; weights of surviving rows are kept."""
    rows = []
    for p in data.points:
        kept = [(m, w) for m, w in zip(p.mults, p.weights) if m > 0]
        rows.append((tuple(m for m, _ in kept), tuple(w for _, w in kept)))
    return _derived(rows)


def _bounded_compositions(total, bounds):
    """All tuples 0 <= v_i <= bounds_i with sum(v) == total, lexicographic."""
    tail = sum(bounds)
    parts = [((), total)]
    for b in bounds:
        # tail is what the entries after this one can still take
        tail -= b
        parts = [
            (acc + (v,), left - v)
            for acc, left in parts
            for v in range(max(0, left - tail), min(b, left) + 1)
        ]
    return [acc for acc, left in parts if left == 0]


def _compositions(n, r):
    """Compositions of n into r parts >= 1, lexicographic: the parts
    between r - 1 cut points of 1..n-1, an iterator."""
    return (
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))
        for cuts in itertools.combinations(range(1, n), r - 1)
    )


def _tables_for_point(mults, cols):
    """All matrices with the given row and column sums, row-major lex order."""
    results = []

    def rec(i, remaining, acc):
        if i == len(mults):
            # row sums exhaust the total, so remaining is all zeros here
            results.append(tuple(acc))
            return
        for row in _bounded_compositions(mults[i], remaining):
            rec(i + 1, tuple(a - b for a, b in zip(remaining, row)), acc + [row])

    rec(0, tuple(cols), [])
    return results


# ---------------------------------------------------------------------------
# numeric invariants of strata and sub-data


def table_pairs(tbl, cols):
    """(inv, coinv) of one point's table, in one pass over its rows.

    inv counts pairs of flag rows (i, t) with i > t whose mass lies in
    blocks k > l respectively; coinv the pairs with i < t.  Row i's entry in
    block k meets the earlier rows' mass of the blocks before k (inv) and
    the rest of those blocks' columns, below row i (coinv).
    """
    inv = coinv = 0
    above = [0] * len(cols)
    for row in tbl:
        before_above = before_row = before_cols = 0
        for k, a in enumerate(row):
            if a:
                inv += a * before_above
                coinv += a * (before_cols - before_above - before_row)
            before_above += above[k]
            before_row += a
            before_cols += cols[k]
            above[k] += a
    return inv, coinv


def _integer_block(data):
    """The data in integers, ``(den, (mults, nums))``: den is the lcm of the
    weights' denominators, and per point ``mults`` holds the multiplicities
    and ``nums`` the weights' numerators over den.  Zero rows are kept.
    This is where every route turns weights into ints, once."""
    den = math.lcm(*(w.denominator for p in data.points for w in p.weights))
    nums = (tuple(w.numerator * (den // w.denominator) for w in p.weights) for p in data.points)
    return den, (tuple(p.mults for p in data.points), tuple(nums))


def _strata(mults, weights, min_length, shapes):
    """``(cols, per_point)`` for each composition ``cols`` of the rank into
    at least min_length parts, by length then lexicographically, for data
    with these multiplicities and integer weights at each point.

    ``per_point`` lists each point's tables in row-major lex order, read
    once as ``(table, inv, coinv, nums)``: its pair counts (``table_pairs``)
    and each block column's weight numerator over the point's integer
    ``weights``.  A stratum is one table per point; its invariants are sums.
    Tables and pair counts depend only on (multiplicities, ``cols``): the
    caller's dict ``shapes`` keeps them, and each walk reads only numerators.
    """
    n = sum(mults[0])
    for r in range(min_length, n + 1):
        for cols in _compositions(n, r):
            per_point = []
            for ms, ws in zip(mults, weights):
                tables = shapes.get((ms, cols))
                if tables is None:
                    tables = shapes[ms, cols] = [
                        (tbl, *table_pairs(tbl, cols), tuple(zip(*tbl)))
                        for tbl in _tables_for_point(ms, cols)
                    ]
                per_point.append([
                    (tbl, inv, coinv, [sum(a * w for a, w in zip(col, ws)) for col in columns])
                    for tbl, inv, coinv, columns in tables
                ])
            yield cols, per_point


def _sub_thresholds(den, block, degree):
    """``(combo, (e, exact))`` for each proper sub-datum of an integer block
    at this degree, by rank, then per point lexicographically.

    ``combo`` holds per point the sub-datum's multiplicities c and their
    weight numerator sum c w; A sums these over the points.  With r the
    sub-datum's rank, n the block's and W the block's weight numerator,
    ``e, rest = divmod(r (degree den + W) - n A, n den)``, and ``exact`` is
    1 when rest is 0, else 0.  The sub-datum at degree e' has a larger slope
    than the block exactly when e' > e, and the same slope exactly when
    e' = e and exact is 1: the pair decides, for every e', how the
    sub-datum's slope compares with the block's.
    """
    mults, nums = block
    n = sum(mults[0])
    top = degree * den + sum(m * w for ms, ws in zip(mults, nums) for m, w in zip(ms, ws))
    for r in range(1, n):
        per_point = [
            [(c, sum(a * w for a, w in zip(c, ws))) for c in _bounded_compositions(r, ms)]
            for ms, ws in zip(mults, nums)
        ]
        for combo in itertools.product(*per_point):
            e, rest = divmod(r * top - n * sum(a for _, a in combo), n * den)
            yield combo, (e, 0 if rest else 1)


def slope_coincidence_witness(data, degree):
    """A proper sub-datum whose slope can match the total slope, or None.

    Returns (sub, e) where e = r (degree + W) / n - A is an integer, for a
    sub-datum of rank r and weight A (W the data's): the first exact entry
    of ``_sub_thresholds``, the only sub-datum built.
    """
    den, block = _integer_block(data)
    for combo, (e, exact) in _sub_thresholds(den, block, degree):
        if exact:
            return _derived((c, p.weights) for (c, _), p in zip(combo, data.points)), e
    return None


def ss_equals_stable(data, degree):
    """True when no proper sub-datum can sit at the total slope."""
    return slope_coincidence_witness(data, degree) is None
