"""Reference Betti numbers computed without the program.

Three sources, all independent of ``src/``:

* the paper's frozen tables (rank 2 to g 3, rank 3 to g 3, rank 4 to g 2),
  recorded up to the middle dimension;
* closed forms transcribed from the paper (the same transcriptions the test
  suite keeps in ``tests/fixtures.py``) and the rank-2 subset-sum formula,
  evaluated here in plain integer polynomial arithmetic;
* ``references.json``: the closed-large instances solved by the recursion
  route and the recursion instances solved by the closed route, each in its
  own process (see ``regen.py``).

A redrawn seed keeps every weight vector in its stability chamber (see
``instances._redraw``), so all three sources hold for every seed.

``expected_sources(tag, points, genus, degree, references)`` lists every
source that covers an instance with the Betti numbers it expects up to the
middle dimension (``[0]`` for an empty moduli space).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# -- frozen tables (Betti numbers up to the middle dimension; (0,) = empty) --

RANK2_TABLES = {
    "A": {0: (0,), 1: (1, 0), 2: (1, 0, 2, 4, 2), 3: (1, 0, 2, 6, 3, 12, 18, 12)},
    "B": {0: (0,), 1: (1, 0, 2), 2: (1, 0, 3, 4, 4, 8),
          3: (1, 0, 3, 6, 5, 18, 21, 24, 36)},
    "C": {0: (0,), 1: (1, 0, 3, 0), 2: (1, 0, 4, 4, 7, 12, 8),
          3: (1, 0, 4, 6, 8, 24, 26, 42, 57, 48)},
    "D": {0: (1,), 1: (1, 0, 4, 2), 2: (1, 0, 4, 4, 8, 16, 14),
          3: (1, 0, 4, 6, 8, 24, 27, 48, 72, 68)},
    "E": {0: (0,), 1: (1, 0, 4, 0, 6), 2: (1, 0, 5, 4, 11, 16, 15, 24),
          3: (1, 0, 5, 6, 12, 30, 34, 66, 83, 90, 114)},
    "F": {0: (1, 0), 1: (1, 0, 5, 2, 8), 2: (1, 0, 5, 4, 12, 20, 22, 32),
          3: (1, 0, 5, 6, 12, 30, 35, 72, 99, 116, 144)},
}

RANK3_TABLES = {
    "A": {
        0: (0,),
        1: (1, 0, 2, 0),
        2: (1, 0, 3, 4, 7, 16, 18, 36, 45, 56, 70, 64),
        3: (1, 0, 3, 6, 7, 24, 28, 60, 103, 140, 261, 354, 537, 780,
            998, 1380, 1652, 1936, 2170, 2160),
    },
    "B": {
        0: (0,),
        1: (1, 0, 5, 2, 12, 6, 16),
        2: (1, 0, 5, 4, 15, 24, 40, 80, 108, 188, 251, 344, 436, 480, 528),
        3: (1, 0, 5, 6, 15, 36, 49, 120, 176, 314, 531, 784, 1312, 1878,
            2816, 4036, 5454, 7442, 9346, 11526, 13394, 14562, 15210),
    },
    "C": {
        0: (0,),
        1: (1, 0, 4, 0, 8, 0, 10),
        2: (1, 0, 5, 4, 15, 24, 39, 76, 98, 164, 203, 264, 318, 332, 370),
        3: (1, 0, 5, 6, 15, 36, 49, 120, 176, 314, 530, 778, 1293, 1828,
            2697, 3788, 4983, 6610, 8007, 9572, 10812, 11508, 11984),
    },
}

RANK4_TABLES = {
    "A": {
        0: (0,),
        1: (1, 0, 4, 2, 8, 4, 10),
        2: (1, 0, 4, 4, 11, 20, 31, 64, 90, 164, 241, 376, 563, 792, 1144,
            1508, 2003, 2492, 2989, 3424, 3675, 3816),
    },
    "B": {
        0: (0,),
        1: (1, 0, 3, 0, 5, 0, 6),
        2: (1, 0, 4, 4, 11, 20, 31, 64, 89, 160, 232, 356, 521, 712, 1001,
            1272, 1635, 1952, 2263, 2528, 2660, 2760),
    },
}

# -- integer Laurent polynomials as {exponent: int} --------------------------


def poly(*pairs):
    return {e: c for e, c in pairs if c}


def tp(e, c=1):
    return {e: c}


def op(k):
    """1 + t^k."""
    return {0: 1, k: 1}


def add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def sub(a, b):
    return add(a, b, -1)


def mul(*factors):
    out = {0: 1}
    for f in factors:
        nxt = {}
        for ea, ca in out.items():
            for eb, cb in f.items():
                nxt[ea + eb] = nxt.get(ea + eb, 0) + ca * cb
        out = {e: c for e, c in nxt.items() if c}
    return out


def power(a, n):
    return mul(*([a] * n))


def scale(a, c):
    return {e: c * v for e, v in a.items() if c * v}


def div_one_minus(p, k):
    """Exact quotient p / (1 - t^k); ValueError on a remainder."""
    if not p:
        return {}
    lo, hi = min(p), max(p)
    length = hi - lo + 1
    q = [0] * max(length - k, 0)
    for i in range(length):
        v = p.get(lo + i, 0) + (q[i - k] if i >= k else 0)
        if i < length - k:
            q[i] = v
        elif v:
            raise ValueError(f"(1 - t^{k}) does not divide the numerator")
    return {lo + i: c for i, c in enumerate(q) if c}


def rational(numer, denominators):
    """numer / prod_k (1 - t^k)^{m_k}, which must be a Laurent polynomial."""
    p = numer
    for k, m in denominators.items():
        for _ in range(m):
            p = div_one_minus(p, k)
    return p


# -- closed forms ------------------------------------------------------------

SQ = poly((0, 1), (2, 1), (4, 1))  # 1 + t^2 + t^4


def rank3_one_point(g):
    """Rank 3, one fully flagged point; every degree and weight vector."""
    num = add(add(
        mul(tp(6 * g - 2), SQ, power(op(1), 4 * g)),
        scale(mul(tp(4 * g - 2), power(op(2), 2), power(op(1), 2 * g),
                  power(op(3), 2 * g)), -1)),
        mul(power(op(3), 2 * g), power(op(5), 2 * g)))
    return rational(num, {2: 3, 4: 1})


def rank3_two_point_main(g):
    """Rank 3, two fully flagged points (table B/C weights), d = 0, 2 mod 3."""
    num = add(add(
        mul(power(op(3), 2 * g), power(op(5), 2 * g), SQ),
        scale(mul(tp(4 * g), power(op(1), 2 * g), power(op(2), 2),
                  power(op(3), 2 * g)), -3)),
        mul(tp(6 * g), power(op(1), 4 * g), poly((0, 2), (2, 5), (4, 2))))
    return rational(num, {2: 4})


def rank3_two_point_alt(g):
    """Rank 3, two fully flagged points (table B/C weights), d = 1 mod 3."""
    inner = add(add(
        mul(tp(6 * g - 2), SQ, power(op(1), 4 * g)),
        scale(mul(tp(4 * g - 2), power(op(2), 2), power(op(1), 2 * g),
                  power(op(3), 2 * g)), -1)),
        mul(power(op(3), 2 * g), power(op(5), 2 * g)))
    return rational(mul(SQ, inner), {2: 4})


def rank4_even(g):
    """Rank 4, one fully flagged point, the degrees of table A."""
    num = mul(power(op(3), 2 * g), power(op(5), 2 * g), power(op(7), 2 * g))
    num = sub(num, scale(mul(tp(6 * g - 2), power(op(1), 2 * g), power(op(3), 2 * g),
                             power(op(5), 2 * g), SQ), 2))
    num = sub(num, mul(tp(8 * g - 4), power(op(1), 2 * g), power(op(3), 4 * g),
                       power(SQ, 2)))
    num = add(num, mul(tp(10 * g - 4), op(2), power(op(1), 4 * g), power(op(3), 2 * g),
                       poly((0, 3), (2, 5), (4, 5), (6, 3))))
    num = sub(num, scale(mul(tp(12 * g - 4), power(op(1), 6 * g), power(SQ, 2)), 2))
    return rational(num, {2: 4, 4: 1, 6: 1})


def rank4_odd(g):
    """Rank 4, one fully flagged point, the degrees of table B."""
    num = mul(power(op(3), 2 * g), power(op(5), 2 * g), power(op(7), 2 * g))
    num = sub(num, mul(tp(6 * g - 4), power(op(1), 2 * g), power(op(3), 2 * g),
                       power(op(5), 2 * g), SQ, op(4)))
    num = sub(num, mul(tp(8 * g - 4), power(op(1), 2 * g), power(op(3), 4 * g),
                       power(SQ, 2)))
    num = add(num, mul(tp(10 * g - 6), power(op(2), 4), power(op(1), 4 * g),
                       power(op(3), 2 * g), op(4)))
    num = sub(num, mul(tp(12 * g - 6), power(op(1), 6 * g), op(4), power(SQ, 2)))
    return rational(num, {2: 4, 4: 1, 6: 1})


def rank2_subset_sum(points, g, d):
    """Rank 2, full flags at every point: the subset-sum formula.

    P = [(1+t^2)^s (1+t^3)^{2g} - sum_I t^{2 e_I} (1+t)^{2g}] / ((1-t^2)(1-t^4))
    with e_I = g + |I| + floor(psi_I) + [d + floor(psi_I) even], where
    psi_I sums the gaps low - high weight, with the sign flipped outside I.
    """
    gaps = [Fraction(ws[0]) - Fraction(ws[1]) for _, ws in points]
    s = len(gaps)
    subset_sum = {}
    for inside in itertools.product((True, False), repeat=s):
        psi = sum((gap if keep else -gap for gap, keep in zip(gaps, inside)), Fraction(0))
        if psi.denominator == 1:
            raise ValueError("integral signed gap sum: strictly semistable")
        fl = math.floor(psi)
        e = g + sum(inside) + fl + (1 if (d + fl) % 2 == 0 else 0)
        subset_sum = add(subset_sum, tp(2 * e))
    num = sub(mul(power(op(2), s), power(op(3), 2 * g)),
              mul(subset_sum, power(op(1), 2 * g)))
    return rational(num, {2: 1, 4: 1})


# -- lookup ------------------------------------------------------------------


def moduli_dim(points, g):
    n = sum(points[0][0])
    flag = sum((n * n - sum(m * m for m in mults)) // 2 for mults, _ in points)
    return flag + (n * n - 1) * (g - 1)


def middle_of(p, dim):
    """Betti numbers up to the middle dimension of a Poincare polynomial."""
    if not p:
        return [0]
    if min(p) < 0 or max(p) > 2 * dim:
        raise ValueError("reference polynomial escapes [0, 2 dim]")
    return [p.get(i, 0) for i in range(dim + 1)]


def _table(tag, g, d):
    family, _, case = tag.partition("-")
    if family == "rank2" and case and d == 0:
        return RANK2_TABLES[case].get(g)
    if tag == "rank3-one":
        return RANK3_TABLES["A"].get(g)
    if tag == "rank3-two":
        return RANK3_TABLES["C" if d % 3 == 1 else "B"].get(g)
    if tag == "rank4-W1":
        return RANK4_TABLES["B" if d % 4 == 3 else "A"].get(g)
    if tag == "rank4-W2":
        return RANK4_TABLES["B" if d % 2 else "A"].get(g)
    return None


def _form(tag, points, g, d):
    if tag.startswith("rank2"):
        return rank2_subset_sum(points, g, d)
    if tag == "rank3-one":
        return rank3_one_point(g)
    if tag == "rank3-two":
        return rank3_two_point_alt(g) if d % 3 == 1 else rank3_two_point_main(g)
    if tag == "rank4-W1":
        return rank4_odd(g) if d % 4 == 3 else rank4_even(g)
    if tag == "rank4-W2":
        return rank4_odd(g) if d % 2 else rank4_even(g)
    return None


def load_references():
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text())["instances"]


def expected_sources(tag, points, g, d, references):
    """Every independent expectation for one instance, as (source, middle)."""
    out = []
    dim = moduli_dim(points, g)
    table = _table(tag, g, d)
    if table is not None:
        out.append(("frozen table", list(table)))
    if dim < 0:
        out.append(("negative dimension", [0]))
    else:
        form = _form(tag, points, g, d)
        if form is not None:
            out.append(("closed form", middle_of(form, dim)))
    ref = references.get(tag)
    if ref is not None and (ref["genus"], ref["degree"]) == (g, d) and sorted(
        tuple(p["multiplicities"]) for p in ref["points"]
    ) == sorted(tuple(m) for m, _ in points):
        out.append((f"{ref['route']} reference", ref["betti"][: ref["dim"] + 1]))
    return out
