"""Engine routes: agreement, guards, enumeration soundness."""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from parbetti import engine
from parbetti.cli import EXIT_INTERNAL, main
from parbetti.counting import block_denominator, block_factor
from parbetti.engine import (
    MethodInapplicable,
    StrictSemistable,
    TruncationTooSmall,
    applicable_methods,
    compare_methods,
    compute,
    hn_degree_tuples,
    poincare_closed,
    poincare_qclosed,
    q_ratfunc,
    recursion_poincare,
    siegel_check,
)
from parbetti.laurent import LaurentPoly, LaurentSeries
from parbetti.parabolic import (
    Instance,
    _compositions,
    _tables_for_point,
    canonical_form,
    flag_dim,
    make_data,
    weight_sum,
)
from parbetti.ratfunc import FactoredRatFunc
from parbetti.result import BettiResult, NonPolynomialResult

from strata import (
    coinv_count,
    floor_sum,
    floor_sum_genus,
    inv_count,
    linear_offset,
    partitions,
)

R2 = make_data([((1, 1), ("0", "1/3"))])
R3 = make_data([((1, 1, 1), ("0", "1/12", "3/12"))])
R3_TWO = make_data(
    [((1, 1, 1), ("0", "1/12", "3/12")), ((1, 1, 1), ("1/12", "5/12", "6/12"))]
)
R4 = make_data([((1, 1, 1, 1), ("0", "1/8", "1/4", "1/2"))])
PLAIN = make_data([((2,), ("0",))])


def test_rank2_pinned_all_routes():
    inst = Instance(2, 1, R2)
    expected = (1, 0, 2, 4, 2, 4, 2, 0, 1)
    for method in ("closed", "qclosed", "recursion", "rank2"):
        res = compute(inst, method)
        assert res.betti == expected, method
        assert res.dim == 4
        assert not res.empty
        assert res.ss_eq_stable


def test_rank3_pinned_all_routes():
    inst = Instance(1, 1, R3)
    expected = (1, 0, 2, 0, 2, 0, 1)
    for method in ("closed", "qclosed", "recursion"):
        assert compute(inst, method).betti == expected, method


def test_empty_negative_dimension():
    inst = Instance(0, 1, R2)
    for method in ("closed", "qclosed", "recursion"):
        res = compute(inst, method)
        assert res.empty
        assert res.dim == -2
        assert res.betti == ()
        assert res.poly.is_zero()


def test_dimension_zero_point():
    data = make_data(
        [((1, 1), ("0", "1/2")), ((1, 1), ("0", "1/3")), ((1, 1), ("0", "1/4"))]
    )
    for d in (0, 1):
        res = poincare_closed(Instance(0, d, data))
        assert res.dim == 0
        assert res.betti == (1,)


def test_classical_unflagged():
    res = poincare_closed(Instance(2, 1, PLAIN))
    assert res.betti == (1, 0, 1, 4, 1, 0, 1)


def test_rank_one_is_point():
    for g, d in [(0, 0), (2, 5), (3, -1)]:
        res = poincare_closed(Instance(g, d, make_data([((1,), ("1/7",))])))
        assert res.dim == 0
        assert res.betti == (1,)
        assert recursion_poincare(Instance(g, d, make_data([((1,), ("1/7",))]))).betti == (1,)


def test_strictly_semistable_guard():
    inst = Instance(2, 0, PLAIN)
    with pytest.raises(StrictSemistable):
        poincare_closed(inst)
    # forcing past the guard hits a genuinely non-polynomial answer
    with pytest.raises(NonPolynomialResult):
        poincare_closed(inst, force=True)


def test_degree_periodicity_of_count_function():
    assert q_ratfunc(R2, 1, 2) == q_ratfunc(R2, 3, 2)
    assert q_ratfunc(R2, 0, 1) == q_ratfunc(R2, -2, 1)
    assert q_ratfunc(R3, 2, 1) == q_ratfunc(R3, 5, 1)


def test_degree_periodicity_of_betti():
    a = poincare_closed(Instance(2, 1, R2)).poly
    b = poincare_closed(Instance(2, 5, R2)).poly
    c = poincare_closed(Instance(2, -3, R2)).poly
    assert a == b == c


def test_recursion_matches_closed_grid():
    grid = [
        Instance(0, 1, R3),
        Instance(1, 0, R3),
        Instance(2, 2, R3),
        Instance(1, 1, R3_TWO),
        Instance(0, 1, R3_TWO),
        Instance(2, 1, make_data([((1, 1), ("0", "1/3")), ((1, 1), ("0", "1/4"))])),
        Instance(3, 1, PLAIN),
    ]
    for inst in grid:
        a = poincare_closed(inst)
        b = recursion_poincare(inst)
        assert a.poly == b.poly, inst


def test_qclosed_matches_closed_rank4():
    inst = Instance(1, 3, R4)
    assert poincare_qclosed(inst).poly == poincare_closed(inst).poly


def test_bridge_prefactor_expansion():
    """(1 - t)^(2g) (1 - t^2)^(1 - 2g) = (1 - t^2) / (1 + t)^(2g)."""
    one_minus_t2 = LaurentPoly({0: 1, 2: -1})
    assert engine._bridge(0).expand(40) == LaurentSeries.from_poly(one_minus_t2, 40)
    for g in range(1, 9):
        inverse = {j: (-1) ** j * math.comb(2 * g - 1 + j, j) for j in range(41)}
        expected = LaurentSeries(inverse, 40).mul_poly(one_minus_t2)
        assert engine._bridge(g).expand(40) == expected


def test_routes_keep_integer_coefficients(monkeypatch):
    """Every numerator and series on the general routes is integral, so none
    of them may be stored as a Fraction."""
    sums, recursors = [], []
    block_sum = engine._block_sum

    def recorded_sum(*args):
        sums.append(block_sum(*args))
        return sums[-1]

    class Recorded(engine._Recursor):
        def __init__(self, genus):
            super().__init__(genus)
            recursors.append(self)

    monkeypatch.setattr(engine, "_block_sum", recorded_sum)
    monkeypatch.setattr(engine, "_Recursor", Recorded)
    inst = Instance(1, 1, R3_TWO)
    polys = [compute(inst, m).poly for m in ("closed", "qclosed", "recursion")]
    series = [s for rec in recursors for s in rec.memo.values()]
    assert len(sums) == 2 and len(recursors) == 1 and len(series) > 1
    for obj in polys + [f.numer for f in sums] + series:
        assert all(type(c) is int for c in obj.coeffs.values()), obj


def test_truncation_guard():
    inst = Instance(2, 1, R2)
    with pytest.raises(TruncationTooSmall):
        recursion_poincare(inst, truncation=6)
    # exactly 2*dim+1 reaches the top coefficient with a one-step band
    res = recursion_poincare(inst, truncation=9)
    assert res.betti == (1, 0, 2, 4, 2, 4, 2, 0, 1)


def test_siegel_identity_small():
    assert siegel_check(R2, 2, 1, 20) == (True, None)
    assert siegel_check(R2, 1, 0, 14) == (True, None)
    assert siegel_check(R3, 1, 1, 16) == (True, None)


def test_siegel_check_sees_a_wrong_stable_count(monkeypatch):
    closed = engine.q_ratfunc

    def rank1_plus_t6(data, d, genus):
        func = closed(data, d, genus)
        return func + FactoredRatFunc.monomial(6) if data.rank == 1 else func

    monkeypatch.setattr(engine, "q_ratfunc", rank1_plus_t6)
    assert siegel_check(R2, 2, 1, 20) == (False, 5)


def test_siegel_check_sees_a_wrong_recursion_step(monkeypatch):
    step = engine._Recursor._partition_term

    def shifted(self, *args):
        return step(self, *args).shift(2)

    monkeypatch.setattr(engine._Recursor, "_partition_term", shifted)
    assert siegel_check(R2, 2, 1, 20)[0] is False
    assert siegel_check(R3, 1, 1, 16)[0] is False


def test_method_dispatch():
    inst = Instance(2, 1, R2)
    assert set(applicable_methods(inst)) == {"closed", "qclosed", "recursion", "rank2"}
    inst3 = Instance(1, 1, R3)
    assert "rank2" not in applicable_methods(inst3)
    with pytest.raises(MethodInapplicable):
        compute(inst3, "rank2")
    with pytest.raises(MethodInapplicable):
        compute(inst, "newton")


def test_compare_methods_agree():
    results, mismatch = compare_methods(Instance(2, 1, R2))
    assert mismatch is None
    assert set(results) == {"closed", "qclosed", "recursion", "rank2"}
    polys = {m: r.poly for m, r in results.items()}
    assert len(set(polys.values())) == 1



def test_closed_runs_once_per_compare_and_never_in_qclosed(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return poincare_closed(*args, **kwargs)

    monkeypatch.setattr(engine, "poincare_closed", counted)
    inst = Instance(2, 1, R2)
    compute(inst, "qclosed")
    assert len(calls) == 0
    compare_methods(inst)
    assert len(calls) == 1


def _qclosed_with_b3_bumped(instance, force=False):
    res = poincare_qclosed(instance, force)
    betti = list(res.betti)
    betti[3] += 1
    poly = res.poly + LaurentPoly({3: 1})
    return BettiResult(res.dim, poly, tuple(betti), res.empty, res.ss_eq_stable, res.method)


def test_compare_catches_qclosed_disagreement(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(engine, "poincare_qclosed", _qclosed_with_b3_bumped)
    _, mismatch = compare_methods(Instance(2, 1, R2))
    assert mismatch == ("closed", "qclosed", 3)
    doc = {
        "genus": 2,
        "degree": 1,
        "points": [{"weights": ["0", "1/3"], "multiplicities": [1, 1]}],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["compare", str(path)]) == EXIT_INTERNAL
    out = capsys.readouterr().out
    assert "qclosed    dim=4 betti=1,0,2,5,2,4,2,0,1\n" in out
    assert out.endswith("verdict: DISAGREE closed vs qclosed first at t^3\n")


def _over_one_denominator(alphas):
    """Rational block weights as (den, integer numerators) over their lcm."""
    den = math.lcm(*(Fraction(a).denominator for a in alphas))
    return den, [int(a * den) for a in alphas]


def _tuples(cols, alphas, d, bound):
    """hn_degree_tuples on rational block weights."""
    return hn_degree_tuples(cols, *_over_one_denominator(alphas), d, bound)


def _brute_tuples(cols, alphas, d, bound, window):
    """Direct condition check over a degree window, for cross-checking."""
    r = len(cols)
    found = []
    for dvec in product(range(-window, window + 1), repeat=r - 1):
        last = d - sum(dvec)
        full = dvec + (last,)
        slopes = [Fraction(full[k] + alphas[k], cols[k]) for k in range(r)]
        if any(slopes[k] <= slopes[k + 1] for k in range(r - 1)):
            continue
        pairing = 0
        for l in range(r):
            for k in range(l + 1, r):
                pairing += full[l] * cols[k] - full[k] * cols[l]
        if pairing <= bound:
            found.append((full, pairing))
    return sorted(found)


def test_degree_tuple_enumeration_vs_brute():
    cases = [
        ((1, 1), [Fraction(1, 3), Fraction(0)], 1, 9),
        ((1, 1), [Fraction(1, 4), Fraction(1, 3)], 0, 12),
        ((2, 1), [Fraction(7, 12), Fraction(0)], 2, 15),
        ((1, 2), [Fraction(1, 12), Fraction(1, 2)], -1, 15),
        ((1, 1, 1), [Fraction(1, 4), Fraction(1, 12), Fraction(1, 2)], 1, 14),
        ((1, 2, 1), [Fraction(0), Fraction(5, 12), Fraction(1, 3)], 3, 20),
    ]
    for cols, alphas, d, bound in cases:
        got = sorted(_tuples(cols, alphas, d, bound))
        # every reported tuple satisfies the three defining conditions
        for dvec, pairing in got:
            assert sum(dvec) == d
            slopes = [Fraction(dvec[k] + alphas[k], cols[k]) for k in range(len(cols))]
            assert all(slopes[k] > slopes[k + 1] for k in range(len(cols) - 1))
            check = 0
            for l in range(len(cols)):
                for k in range(l + 1, len(cols)):
                    check += dvec[l] * cols[k] - dvec[k] * cols[l]
            assert check == pairing <= bound
        # and a wide window search finds nothing more
        assert got == _brute_tuples(cols, alphas, d, bound, window=40)


def test_degree_tuple_single_block():
    assert _tuples((3,), [Fraction(1, 2)], 7, 0) == [((7,), 0)]
    assert _tuples((3,), [Fraction(1, 2)], 7, -1) == []


def test_degree_tuples_reject_empty_block():
    with pytest.raises(ValueError, match="block ranks"):
        _tuples((1, 0, 1), [Fraction(0)] * 3, 0, 5)


# -- residue-class regrouping of the recursion step --------------------------

LADDER_TWO = make_data(
    [((1, 1, 1), ("0", "1/5", "3/7")), ((1, 1, 1), ("1/11", "2/9", "5/8"))]
)


def _per_tuple_term(rec, part, d, trunc):
    """The recursion step with one series product per degree tuple."""
    g = rec.genus
    blocks = [canonical_form(b) for b in part.blocks()]
    r = part.length
    cols = part.cols
    sigma = inv_count(part)
    alphas = [weight_sum(b) for b in blocks]
    min_pairing = 0
    for l in range(r):
        for k in range(l + 1, r):
            min_pairing += math.floor(alphas[k] * cols[l] - alphas[l] * cols[k]) + 1
    qhat_orders = [-b.rank**2 * (g - 1) - 2 * flag_dim(b) for b in blocks]
    per_block = []
    certs = []
    for k, b in enumerate(blocks):
        probe = trunc - 2 * (min_pairing - sigma) - (sum(qhat_orders) - qhat_orders[k])
        by_residue = {rho: rec.q_series(b, rho, probe) for rho in range(b.rank)}
        per_block.append(by_residue)
        certs.append(min(s.order_bound() for s in by_residue.values()))
    bound = (trunc - sum(certs)) // 2 + sigma
    acc = LaurentSeries.zero(trunc)
    for dvec, pairing in _tuples(cols, alphas, d, bound):
        shift = 2 * (pairing - sigma)
        while True:
            prod = None
            for k in range(r):
                s = per_block[k][dvec[k] % blocks[k].rank]
                prod = s if prod is None else prod * s
            if prod.order_bound() + shift > trunc:
                prod = None
                break
            if prod.trunc + shift >= trunc:
                break
            bump = trunc - shift - prod.trunc
            for k in range(r):
                rho = dvec[k] % blocks[k].rank
                per_block[k][rho] = rec.q_series(
                    blocks[k], rho, per_block[k][rho].trunc + bump
                )
        if prod is not None:
            acc = acc + prod.shift(shift)
    return acc.exact_through(trunc)


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_partition_term_matches_per_tuple_sum(genus):
    """Grouping degree tuples by residue class changes no coefficient."""
    trunc = 16
    parts = partitions(LADDER_TWO, min_length=2)
    assert len(parts) > 10
    nonzero = 0
    for d in range(3):
        grouped, per_tuple = engine._Recursor(genus), engine._Recursor(genus)
        for part in parts:
            blocks = [canonical_form(b) for b in part.blocks()]
            den, nums = _over_one_denominator([weight_sum(b) for b in blocks])
            got = grouped._partition_term(
                part.cols, blocks, inv_count(part), den, nums, d, trunc
            )
            want = _per_tuple_term(per_tuple, part, d, trunc)
            assert got.trunc == want.trunc == trunc
            assert got.coeffs == want.coeffs, (part.cols, d)
            nonzero += bool(got.coeffs)
    assert nonzero > len(parts)


def test_recursion_multiplies_once_per_residue_class(monkeypatch):
    """Fewer series products than degree tuples: one per class, not per tuple."""
    products, tuples = [], []
    mul, enumerate_tuples = LaurentSeries.__mul__, engine.hn_degree_tuples

    def counted_mul(self, other):
        products.append(1)
        return mul(self, other)

    def counted_tuples(*args):
        found = enumerate_tuples(*args)
        tuples.extend(found)
        return found

    monkeypatch.setattr(LaurentSeries, "__mul__", counted_mul)
    monkeypatch.setattr(engine, "hn_degree_tuples", counted_tuples)
    res = recursion_poincare(Instance(3, 0, LADDER_TWO))
    assert res.poly == poincare_closed(Instance(3, 0, LADDER_TWO)).poly
    assert len(tuples) > 1000
    assert len(products) < len(tuples)


def test_degree_tuple_enumeration_vs_brute_random():
    """Mixed denominators, weight sums above 1, negative degrees and bounds."""
    rng = random.Random(8)
    dens = (3, 4, 5, 7, 8, 9, 11, 13)
    checked = 0
    for _ in range(160):
        r = rng.choice((2, 2, 3))
        cols = tuple(rng.randint(1, 3) for _ in range(r))
        alphas = []
        for _ in range(r):
            q = rng.choice(dens)
            alphas.append(Fraction(rng.randrange(3 * q), q))
        d = rng.randint(-5, 5)
        bound = rng.randint(-6, 14)
        window = 40 if r == 2 else 18
        got = sorted(_tuples(cols, alphas, d, bound))
        # every tuple found sits well inside the window searched
        assert all(abs(x) <= window // 2 for dvec, _ in got for x in dvec)
        assert got == _brute_tuples(cols, alphas, d, bound, window=window)
        checked += len(got)
    assert checked > 200


# -- class regrouping of the closed block sum ---------------------------------

LADDER_R4_TWO = make_data(
    [
        ((1, 1, 1, 1), ("0", "1/7", "2/7", "4/9")),
        ((1, 1, 1, 1), ("1/11", "2/13", "5/17", "7/19")),
    ]
)
PARTIAL_R4 = make_data([((2, 1, 1), ("0", "1/5", "1/2")), ((1, 3), ("1/7", "3/8"))])


def _chain_factors(cols):
    """Exponents of the chain denominators (1 - t^(2(c_k + c_k+1)))^-1."""
    factors = {}
    for k in range(len(cols) - 1):
        m = 2 * (cols[k] + cols[k + 1])
        factors[m] = factors.get(m, 0) - 1
    return factors


def _oracle_exponent(part, blocks, genus, d, method):
    """One partition's exponent in the closed or the qclosed route,
    read from its blocks with the rational reference helpers."""
    n = part.data.rank
    lam = Fraction(d + weight_sum(part.data), n)
    if method == "closed":
        return 2 * (
            coinv_count(part)
            - (n - part.cols[-1]) * d
            + floor_sum_genus(part, lam, genus)
        )
    return 2 * (linear_offset(part, d) + floor_sum(part, lam)) - sum(
        engine._count_shift(b, genus) for b in blocks
    )


def _per_partition_sum(data, genus, d, method):
    """The block sum one partition at a time, each block through block_factor."""
    total = FactoredRatFunc.zero()
    for part in partitions(data):
        blocks = part.blocks()
        sign = -1 if (part.length - 1) % 2 else 1
        term = FactoredRatFunc(
            _oracle_exponent(part, blocks, genus, d, method),
            LaurentPoly({0: sign}),
            _chain_factors(part.cols),
        )
        for b in blocks:
            term = term * block_factor(b, genus)
        total = total + term
    return total


@pytest.mark.parametrize("genus", [0, 1, 3])
def test_block_sum_matches_per_partition_sum(monkeypatch, genus):
    """Grouping partitions by class changes the value of neither route's sum."""
    calls = []
    block_sum = engine._block_sum

    def recorded(*args):
        calls.append(args)
        return block_sum(*args)

    monkeypatch.setattr(engine, "_block_sum", recorded)
    for data, d in ((R3_TWO, 1), (R4, 1), (LADDER_TWO, 0), (PARTIAL_R4, 1)):
        for method in ("closed", "qclosed"):
            try:
                compute(Instance(genus, d, data), method, force=True)
            except NonPolynomialResult:
                pass
    assert len(calls) == 8
    for args, method in zip(calls, ("closed", "qclosed") * 4):
        assert block_sum(*args) == _per_partition_sum(*args[:3], method)


class _Recorded(Exception):
    pass


def _oracle_classes(data, genus, d, method):
    """Partitions keyed by (sorted block ranks, denominator) in the order
    ``partitions`` lists them, each class mapping exponents to signed
    counts; also the number of negative floor arguments N_k lam - A_k."""
    lam = Fraction(d + weight_sum(data), data.rank)
    classes = {}
    negative = 0
    for part in partitions(data):
        blocks = part.blocks()
        factors = _chain_factors(part.cols)
        for b in blocks:
            for k, e in block_denominator(b).items():
                factors[k] = factors.get(k, 0) + e
        key = (tuple(sorted(part.cols)), tuple(sorted((k, e) for k, e in factors.items() if e)))
        monomials = classes.setdefault(key, {})
        x = _oracle_exponent(part, blocks, genus, d, method)
        monomials[x] = monomials.get(x, 0) + (-1 if (part.length - 1) % 2 else 1)
        for k in range(1, part.length):
            front = sum(part.cols[:k])
            negative += front * lam < sum(weight_sum(b) for b in blocks[:k])
    return classes, negative


def _random_block_data(rng, limit=400):
    """Rank 1-5 data on 1-3 points with partial flags, zero rows and weight
    denominators up to 40, redrawn until it has at most limit partitions."""
    while True:
        n = rng.randint(1, 5)
        rows = []
        for _ in range(rng.randint(1, 3)):
            mults = []
            while sum(mults) < n:
                mults.append(rng.randint(1, n - sum(mults)))
            for _ in range(rng.randint(0, 2)):
                mults.insert(rng.randint(0, len(mults)), 0)
            den = rng.randint(len(mults), 40)
            nums = sorted(rng.sample(range(den), len(mults)))
            rows.append((mults, [Fraction(a, den) for a in nums]))
        data = make_data(rows)
        size = sum(
            math.prod(len(_tables_for_point(p.mults, cols)) for p in data.points)
            for r in range(1, n + 1)
            for cols in _compositions(n, r)
        )
        if size <= limit:
            return data


def test_block_classes_match_rational_reference(monkeypatch):
    """The integer kernel gives every partition the exponent and the class
    key of the rational reference helpers, in both routes' conventions."""
    calls = []

    def recorded(*args):
        calls.append(args)
        raise _Recorded

    monkeypatch.setattr(engine, "_block_sum", recorded)
    rng = random.Random(11)
    negative = parts = 0
    for _ in range(60):
        data = _random_block_data(rng)
        genus, d = rng.randint(0, 3), rng.randint(-5, 5)
        for method in ("closed", "qclosed"):
            calls.clear()
            with pytest.raises(_Recorded):
                compute(Instance(genus, d, data), method, force=True)
            (args,) = calls
            assert args[:3] == (data, genus, d)
            want, neg = _oracle_classes(data, genus, d, method)
            got = engine._block_classes(data, d, *args[3:])
            assert got == want
            assert list(got) == list(want)
            negative += neg
        parts += len(partitions(data))
    assert negative > 100 and parts > 2000


def test_closed_sum_adds_once_per_class(monkeypatch):
    """One rational-function addition per (block ranks, denominator) class,
    not one per partition."""
    parts = partitions(LADDER_R4_TWO)
    classes = set()
    for part in parts:
        factors = _chain_factors(part.cols)
        for b in part.blocks():
            for k, e in block_denominator(b).items():
                factors[k] = factors.get(k, 0) + e
        classes.add((tuple(sorted(part.cols)), frozenset((k, e) for k, e in factors.items() if e)))
    adds = []
    add = FactoredRatFunc.__add__

    def counted(self, other):
        adds.append(1)
        return add(self, other)

    monkeypatch.setattr(FactoredRatFunc, "__add__", counted)
    poincare_closed(Instance(2, 1, LADDER_R4_TWO))
    assert len(parts) == 1077 and len(classes) < 20
    assert len(adds) <= len(classes)


def test_no_module_state_grows_across_computes():
    """Nothing is remembered between calls: no module-level container of the
    package grows while the three general routes run."""
    mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "parbetti"]

    def sizes():
        return {
            (m.__name__, name): len(value)
            for m in mods
            for name, value in vars(m).items()
            if not name.startswith("__") and isinstance(value, (dict, list, set))
        }

    before = sizes()
    data = make_data([((1, 2), ("1/23", "5/29")), ((1, 1, 1), ("0", "2/31", "7/37"))])
    for method in ("closed", "qclosed", "recursion"):
        compute(Instance(2, 1, data), method)
    assert sizes() == before
