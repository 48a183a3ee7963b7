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
"""

from __future__ import annotations

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

    def weight_sum(self):
        return sum((m * w for m, w in zip(self.mults, self.weights) if m), Fraction(0))


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


def weight_sum(data):
    """Total weight: sum over points of multiplicity-weighted flag weights."""
    return sum((p.weight_sum() for p in data.points), Fraction(0))


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


def subdata(data, rank_of_sub=None):
    """All proper sub-data of the given data, zero rows retained.

    A sub-datum takes componentwise multiplicities <= the data's with equal
    per-point sums strictly between 0 and the full rank.  Deterministic
    order: by sub-rank, then per point lexicographically.
    """
    n = data.rank
    ranks = [rank_of_sub] if rank_of_sub is not None else list(range(1, n))
    out = []
    for r in ranks:
        if not 0 < r < n:
            raise ValueError("sub-rank must be strictly between 0 and the rank")
        per_point = [_bounded_compositions(r, p.mults) for p in data.points]
        for combo in itertools.product(*per_point):
            out.append(
                _derived((mults, p.weights) for mults, p in zip(combo, data.points))
            )
    return out


def _compositions(n, r):
    """Compositions of n into r parts >= 1, lexicographic."""
    if r == 1:
        return [(n,)]
    out = []
    for first in range(1, n - r + 2):
        for rest in _compositions(n - first, r - 1):
            out.append((first,) + rest)
    return out


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


def _integer_weights(data):
    """The lcm D of the weights' denominators, and each point's weights
    scaled by D to ints."""
    den = math.lcm(*(w.denominator for p in data.points for w in p.weights))
    return den, [[w.numerator * (den // w.denominator) for w in p.weights] for p in data.points]


def _strata(data, weights, min_length):
    """``(cols, per_point)`` for each composition ``cols`` of the rank into
    at least min_length parts, by length then lexicographically.

    ``per_point`` lists each point's tables in row-major lex order, read
    once as ``(table, inv, coinv, nums)``: its pair counts (``table_pairs``)
    and each block column's weight numerator over the point's integer
    ``weights``.  A stratum is one table per point; its invariants are sums.
    """
    n = data.rank
    for r in range(min_length, n + 1):
        for cols in _compositions(n, r):
            per_point = []
            for p, ws in zip(data.points, weights):
                rows = []
                for tbl in _tables_for_point(p.mults, cols):
                    nums = [sum(a * w for a, w in zip(col, ws)) for col in zip(*tbl)]
                    rows.append((tbl, *table_pairs(tbl, cols), nums))
                per_point.append(rows)
            yield cols, per_point


def degree_at_slope(sub, lam):
    """Degree a bundle on this sub-datum needs to sit exactly at slope lam."""
    return Fraction(sub.rank) * lam - weight_sum(sub)


def slope_coincidence_witness(data, degree):
    """A proper sub-datum whose slope can match the total slope, or None.

    Returns (sub, e) where e is the integer degree achieving the match.
    """
    lam = Fraction(degree + weight_sum(data), data.rank)
    for sub in subdata(data):
        d = degree_at_slope(sub, lam)
        if d.denominator == 1:
            return sub, int(d)
    return None


def ss_equals_stable(data, degree):
    """True when no proper sub-datum can sit at the total slope."""
    return slope_coincidence_witness(data, degree) is None
