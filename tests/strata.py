"""Stratum identities of the filtration recursion, used only by the tests.

No route calls these.  A ``Partition`` is one stratum as an object: the
data, its block ranks and one table per point; ``partitions`` lists them
all, and is the reference the library's integer stratum walker
(``parabolic._strata``) is tested against.  The other helpers restate the
exponents of single strata and of sub-datum splits, and cut a partition
into its first blocks and the rest, so the tests can check the
combinatorial identities that the routes' sums rely on.  The
partition-level exponent pieces (``inv_count``, ``coinv_count``,
``linear_offset``, ``floor_sum``, ``floor_sum_genus``) read each
partition's tables, in exact rational arithmetic where weights enter; they
are the reference the routes' integer sums are tested against.  Likewise
``weight_sum``, ``subdata``, ``degree_at_slope`` and ``rational_witness``
are the rational reference of the library's integer stability check.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import floor

from parbetti.parabolic import (
    FlagPoint,
    QPData,
    _bounded_compositions,
    _compositions,
    _derived,
    _tables_for_point,
    table_pairs,
)


@dataclass(frozen=True)
class Partition:
    """Ordered split of data into r blocks, one matrix per point.

    tables[p][i][k] is how much of row i at point p lands in block k; row
    sums reproduce the data multiplicities and column sums are the block
    ranks, the same at every point.  Built by ``partitions`` from tables
    valid by construction, so it is not checked.
    """

    data: QPData
    cols: tuple
    tables: tuple

    @property
    def length(self):
        return len(self.cols)

    def block(self, k):
        """Block k as data on the full weight rows (zeros retained)."""
        return _derived(
            (tuple(row[k] for row in tbl), p.weights)
            for p, tbl in zip(self.data.points, self.tables)
        )

    def blocks(self):
        return [self.block(k) for k in range(self.length)]


def partitions(data, min_length=1):
    """All partitions of the data, by length then lexicographically."""
    n = data.rank
    out = []
    for r in range(max(min_length, 1), n + 1):
        for cols in _compositions(n, r):
            per_point = []
            for p in data.points:
                per_point.append(_tables_for_point(p.mults, cols))
            for tbls in iproduct(*per_point):
                out.append(Partition(data, cols, tbls))
    return out


def inv_count(part):
    """Cross-block pairs where the later block sits deeper in the flag,
    summed over the points."""
    return sum(table_pairs(tbl, part.cols)[0] for tbl in part.tables)


def prefix_data(part, j):
    """Union of the first j blocks of a partition as data."""
    return _derived(
        (tuple(sum(row[:j]) for row in tbl), p.weights)
        for p, tbl in zip(part.data.points, part.tables)
    )


def head(part, j):
    """Induced partition of the first j blocks, 1 <= j <= r."""
    tables = tuple(tuple(row[:j] for row in tbl) for tbl in part.tables)
    return Partition(prefix_data(part, j), part.cols[:j], tables)


def tail(part, j):
    """Induced partition of the blocks after the first j."""
    data = _derived(
        (tuple(sum(row[j:]) for row in tbl), p.weights)
        for p, tbl in zip(part.data.points, part.tables)
    )
    tables = tuple(tuple(row[j:] for row in tbl) for tbl in part.tables)
    return Partition(data, part.cols[j:], tables)


def reembed(data, ambient):
    """Express data on the ambient weight rows, inserting zero rows.

    Inverse of canonical_form for sub-data of ambient: every weight row of
    data must occur among the ambient point's rows.
    """
    if data.num_points != ambient.num_points:
        raise ValueError("point counts differ")
    pts = []
    for p, q in zip(data.points, ambient.points):
        lookup = dict(zip(p.weights, p.mults))
        if len(lookup) != len(p.weights) or not set(p.weights) <= set(q.weights):
            raise ValueError("weights do not embed into the ambient rows")
        pts.append(FlagPoint(tuple(lookup.get(w, 0) for w in q.weights), q.weights))
    return QPData(tuple(pts))


def complement(data, sub):
    """The componentwise complement data - sub, zero rows retained.

    Built like the library's derived data: once the rows are aligned and
    non-negative, the complement of a proper sub-datum is valid.
    """
    rows = []
    for p, q in zip(data.points, sub.points):
        if p.weights != q.weights:
            raise ValueError("sub-data rows are not aligned with the data")
        mults = tuple(a - b for a, b in zip(p.mults, q.mults))
        if any(m < 0 for m in mults):
            raise ValueError("not a sub-datum")
        rows.append((mults, p.weights))
    return _derived(rows)


def split_inversions(data, sub):
    """Pairs with complement mass strictly deeper than sub-data mass."""
    comp = complement(data, sub)
    total = 0
    for pc, ps in zip(comp.points, sub.points):
        rows = len(pc.mults)
        for i in range(1, rows):
            a = pc.mults[i]
            if not a:
                continue
            for t in range(i):
                total += a * ps.mults[t]
    return total


def hom_euler(ranks, degs, genus):
    """Euler pairing between the ordered graded pieces of ranks and degrees."""
    total = 0
    r = len(ranks)
    for k in range(1, r):
        for l in range(k):
            total += degs[l] * ranks[k] - degs[k] * ranks[l]
            total += (genus - 1) * ranks[l] * ranks[k]
    return total


def term_exponent(part, degs):
    """Exponent of a filtration term in the point-count recursion."""
    cols = part.cols
    r = part.length
    total = 0
    for k in range(1, r):
        for l in range(k):
            total += degs[l] * cols[k] - degs[k] * cols[l]
    return total - inv_count(part)


def stratum_exponent(part, degs, genus):
    """Codimension-style exponent of a filtration stratum."""
    return inv_count(part) - hom_euler(part.cols, degs, genus)


def coinv_count(part):
    """Cross-block pairs where the later block sits shallower in the flag."""
    total = 0
    for tbl in part.tables:
        rows = len(tbl)
        r = part.length
        for k in range(1, r):
            for l in range(k):
                for i in range(rows - 1):
                    a = tbl[i][k]
                    if not a:
                        continue
                    for t in range(i + 1, rows):
                        total += a * tbl[t][l]
    return total


def linear_offset(part, d):
    """Degree-linear part of the closed-formula exponent."""
    cols = part.cols
    n = part.data.rank
    return -(n - cols[-1]) * d - inv_count(part) + (2 * n - cols[0] - cols[-1])


def floor_sum(part, lam):
    """Sum of floored prefix slope gaps weighted by adjacent block ranks.

    The weight of the first k + 1 blocks is kept as a running sum of each
    block's weight, read from the tables.
    """
    cols = part.cols
    points = [(tbl, p.weights) for p, tbl in zip(part.data.points, part.tables)]
    total = 0
    nk = 0
    a = 0
    for k in range(part.length - 1):
        nk += cols[k]
        a += sum(row[k] * w for tbl, ws in points for row, w in zip(tbl, ws) if row[k])
        total += (cols[k] + cols[k + 1]) * floor(nk * lam - a)
    return total


def floor_sum_genus(part, lam, genus):
    """floor_sum with each floor bumped by one plus the genus pairing term.

    The bumps add sum_k (c_k + c_{k+1}) over adjacent blocks, which is
    2n - c_0 - c_r.
    """
    cols = part.cols
    bumps = 2 * part.data.rank - cols[0] - cols[-1]
    pair = 0
    for i in range(part.length):
        for j in range(i + 1, part.length):
            pair += cols[i] * cols[j]
    return floor_sum(part, lam) + bumps + (genus - 1) * pair


def weight_sum(data):
    """Total weight: sum over points of multiplicity-weighted flag weights."""
    return sum((m * w for p in data.points for m, w in zip(p.mults, p.weights)), Fraction(0))


def subdata(data):
    """All proper sub-data of the given data, zero rows retained.

    A sub-datum takes componentwise multiplicities <= the data's with equal
    per-point sums strictly between 0 and the full rank.  Deterministic
    order: by sub-rank, then per point lexicographically.
    """
    out = []
    for r in range(1, data.rank):
        per_point = [_bounded_compositions(r, p.mults) for p in data.points]
        for combo in iproduct(*per_point):
            out.append(_derived((m, p.weights) for m, p in zip(combo, data.points)))
    return out


def degree_at_slope(sub, lam):
    """Degree a bundle on this sub-datum needs to sit exactly at slope lam."""
    return Fraction(sub.rank) * lam - weight_sum(sub)


def rational_witness(data, degree):
    """``slope_coincidence_witness`` in Fractions: the first of ``subdata``
    whose degree at the total slope is an integer, with that degree, or
    None."""
    lam = Fraction(degree + weight_sum(data), data.rank)
    for sub in subdata(data):
        d = degree_at_slope(sub, lam)
        if d.denominator == 1:
            return sub, int(d)
    return None
