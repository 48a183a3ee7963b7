"""Engine routes: agreement, guards, enumeration soundness."""

import json
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from parbetti import engine, parabolic, recursion
from parbetti.cli import EXIT_INTERNAL, main
from parbetti.counting import block_factor
from parbetti.engine import (
    MethodInapplicable,
    StrictSemistable,
    applicable_methods,
    compare_methods,
    compute,
    poincare_closed,
    poincare_qclosed,
    q_ratfunc,
)
from parbetti.laurent import LaurentPoly, LaurentSeries, TruncationTooSmall, one_plus
from parbetti.parabolic import (
    Instance,
    _compositions,
    _integer_block,
    _tables_for_point,
    canonical_form,
    flag_dim,
    make_data,
)
from parbetti.ratfunc import FactoredRatFunc
from parbetti.recursion import hn_degree_tuples, recursion_poincare, siegel_check
from parbetti.result import BettiResult, NonPolynomialResult, result_from_poly

from strata import (
    coinv_count,
    floor_sum,
    floor_sum_genus,
    inv_count,
    linear_offset,
    partitions,    weight_sum,
)

R2 = make_data([((1, 1), ("0", "1/3"))])
R3 = make_data([((1, 1, 1), ("0", "1/12", "3/12"))])
R3_TWO = make_data(
    [((1, 1, 1), ("0", "1/12", "3/12")), ((1, 1, 1), ("1/12", "5/12", "6/12"))]
)
R4 = make_data([((1, 1, 1, 1), ("0", "1/8", "1/4", "1/2"))])
PLAIN = make_data([((2,), ("0",))])


def _mults(data):
    """Each point's multiplicities, the rows that block factors read."""
    return [p.mults for p in data.points]


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


def test_result_checks_run_only_when_semistable_equals_stable():
    poly = LaurentPoly({0: 1, 1: -1, 2: 1})
    with pytest.raises(NonPolynomialResult, match="negative Betti number b_1 = -1"):
        result_from_poly(poly, 1, "closed", True)
    res = result_from_poly(poly, 1, "closed", False)
    assert res.betti == (1, -1, 1) and not res.ss_eq_stable


def test_degree_periodicity_of_count_function():
    r2, r3 = _integer_block(R2), _integer_block(R3)
    assert q_ratfunc(*r2, 1, 2) == q_ratfunc(*r2, 3, 2)
    assert q_ratfunc(*r2, 0, 1) == q_ratfunc(*r2, -2, 1)
    assert q_ratfunc(*r3, 2, 1) == q_ratfunc(*r3, 5, 1)


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
    assert recursion._bridge(0).expand(40) == LaurentSeries(one_minus_t2.coeffs, 40)
    for g in range(1, 9):
        inverse = {j: (-1) ** j * math.comb(2 * g - 1 + j, j) for j in range(41)}
        expected = LaurentSeries(inverse, 40).mul_poly(one_minus_t2)
        assert recursion._bridge(g).expand(40) == expected


def test_routes_keep_integer_coefficients(monkeypatch):
    """Every numerator and series on the general routes is integral, so none
    of them may be stored as a Fraction."""
    sums, recursors = [], []
    block_sum = engine._block_sum

    def recorded_sum(*args):
        sums.append(block_sum(*args))
        return sums[-1]

    class Recorded(recursion._Recursor):
        def __init__(self, *args):
            super().__init__(*args)
            recursors.append(self)

    monkeypatch.setattr(engine, "_block_sum", recorded_sum)
    monkeypatch.setattr(recursion, "_Recursor", Recorded)
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
    closed = recursion.q_ratfunc

    def rank1_plus_t6(den, block, d, genus):
        func = closed(den, block, d, genus)
        return func + FactoredRatFunc.monomial(6) if sum(block[0][0]) == 1 else func

    monkeypatch.setattr(recursion, "q_ratfunc", rank1_plus_t6)
    assert siegel_check(R2, 2, 1, 20) == (False, 5)


def test_siegel_check_sees_a_wrong_recursion_step(monkeypatch):
    step = recursion._Recursor._horner

    def shifted(self, *args):
        return step(self, *args).shift(2)

    monkeypatch.setattr(recursion._Recursor, "_horner", shifted)
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
    den, nums = _over_one_denominator(alphas)
    return hn_degree_tuples(cols, den, nums, d, bound, recursion._pairing_floors(cols, den, nums))


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


def _int_block(data, den):
    """A block as the recursion keys it: per point, the multiplicities and
    the weight numerators over den, zero rows dropped."""
    data = canonical_form(data)
    return (
        tuple(p.mults for p in data.points),
        tuple(tuple(int(w * den) for w in p.weights) for p in data.points),
    )


def _per_tuple_term(rec, part, d, trunc):
    """The recursion step with one series product per degree tuple."""
    g = rec.genus
    blocks = [canonical_form(b) for b in part.blocks()]
    keys = [_int_block(b, rec.den) for b in blocks]
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
        by_residue = {rho: rec.q_series(keys[k], rho, probe) for rho in range(b.rank)}
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
                    keys[k], rho, per_block[k][rho].trunc + bump
                )
        if prod is not None:
            acc = acc + prod.shift(shift)
    return acc.exact_through(trunc)


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_recursion_step_matches_per_tuple_sum(genus):
    """Grouping degree tuples by block multiset and nesting the multisets'
    products by Horner's rule changes no coefficient: the step is the full
    count minus one per-tuple sum per stratum."""
    trunc = 16
    parts = partitions(LADDER_TWO, min_length=2)
    assert len(parts) > 10
    den, block = _integer_block(LADDER_TWO)
    nonzero = 0
    for d in range(3):
        got = recursion._Recursor(genus, den)._compute(block, d, trunc)
        per_tuple = recursion._Recursor(genus, den)
        want = recursion._block_q(block[0], genus).expand(trunc)
        for part in parts:
            term = _per_tuple_term(per_tuple, part, d, trunc)
            nonzero += bool(term.coeffs)
            want = want - term
        assert got.trunc == want.trunc == trunc
        assert got.coeffs == want.coeffs, d
    assert nonzero > len(parts)


def _count_products(monkeypatch):
    """Counters of series products, shift multiplications and degree tuples."""
    counts = {"mul": 0, "mul_poly": 0, "tuples": 0}
    mul, mul_poly, enumerate_tuples = (
        LaurentSeries.__mul__, LaurentSeries.mul_poly, recursion.hn_degree_tuples
    )

    def counted_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counted_mul_poly(self, poly):
        counts["mul_poly"] += 1
        return mul_poly(self, poly)

    def counted_tuples(*args):
        found = enumerate_tuples(*args)
        counts["tuples"] += len(found)
        return found

    monkeypatch.setattr(LaurentSeries, "__mul__", counted_mul)
    monkeypatch.setattr(LaurentSeries, "mul_poly", counted_mul_poly)
    monkeypatch.setattr(recursion, "hn_degree_tuples", counted_tuples)
    return counts


def test_recursion_multiplies_once_per_residue_class(monkeypatch):
    """Fewer series products than degree tuples, and fewer than block
    multisets: the multisets of all strata form one trie, and Horner's rule
    over it makes one series product per inner node (5 here) plus the
    bridge's.  Blocks in one stability chamber share one series and one
    trie node, and each block is fetched once, as deep as its deepest
    stratum needs, so each chamber is solved about once.  Keyed by the
    exact block, the same run enumerated 1 213 tuples and made 31 series
    products and 47 ``mul_poly``; one product per multiset factor made 49
    series products, and one per class and stratum 221."""
    counts = _count_products(monkeypatch)
    res = recursion_poincare(Instance(3, 0, LADDER_TWO))
    assert res.poly == poincare_closed(Instance(3, 0, LADDER_TWO)).poly
    assert counts["tuples"] == 508
    assert counts["mul"] <= 6
    assert counts["mul_poly"] <= 7


@pytest.mark.parametrize("genus", [0, 2])
def test_rank1_count_ignores_weights(genus):
    """Every rank-1 block may share one series: its count, by the
    recursion and by the closed route, does not see the weights."""
    a = make_data([((1,), ("0",)), ((1,), ("1/3",))])
    b = make_data([((1,), ("5/7",)), ((1,), ("0",))])
    line_a = recursion._Recursor(genus, 3).q_series(_int_block(a, 3), 0, 14)
    assert line_a == recursion._Recursor(genus, 7).q_series(_int_block(b, 7), 1, 14)
    assert q_ratfunc(*_integer_block(a), 0, genus).expand(14) == q_ratfunc(
        *_integer_block(b), 1, genus
    ).expand(14)


def test_recursor_keeps_one_rank1_entry():
    """A rank-3 run memoises one rank-1 series, although its rank-2 blocks
    start at other weights than the data."""
    for data in (R3, LADDER_TWO):
        den, block = _integer_block(data)
        rec = recursion._Recursor(1, den)
        rec.q_series(block, 1, 16)
        ranks = [sum(key[0][0]) for key in rec.memo]  # a key starts with the mults
        assert ranks.count(2) and ranks.count(1) == 1


def test_recursor_keys_are_ints(monkeypatch):
    """The recursion hashes no Fraction: every memo key is built of int
    tuples, and a run on two full flags calls ``Fraction.__hash__`` zero
    times.  The run meets five stability chambers, one memo entry each."""

    def ints_only(key):
        if isinstance(key, tuple):
            return all(ints_only(x) for x in key)
        return type(key) is int

    recursors = []

    class Recorded(recursion._Recursor):
        def __init__(self, *args):
            super().__init__(*args)
            recursors.append(self)

    hashes = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        hashes.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(recursion, "_Recursor", Recorded)
    inst = Instance(3, 0, LADDER_TWO)
    monkeypatch.setattr(Fraction, "__hash__", counted)
    res = recursion_poincare(inst)
    monkeypatch.undo()
    assert res.poly == poincare_closed(inst).poly
    (rec,) = recursors
    assert len(rec.memo) == 5 and all(ints_only(key) for key in rec.memo)
    assert hashes == []


class _ExactKeys(recursion._Recursor):
    """The recursion with its memo keyed by the exact (block, residue)."""

    def _key(self, block, rho):
        return block, rho


def _random_data(rng, n, points):
    """Data of rank n with random flags and weights over small denominators."""
    specs = []
    for _ in range(points):
        rows = rng.randint(1, n)
        mults = rng.choice(list(_compositions(n, rows)))
        den = rng.choice([q for q in (2, 3, 4, 5, 6, 7, 12) if q >= rows])
        weights = sorted(rng.sample(range(den), rows))
        specs.append((mults, tuple(Fraction(w, den) for w in weights)))
    return make_data(specs)


def _strictly_semistable(rng, count):
    """``count`` random (data, degree) pairs of ranks 2-4 on 1-3 points that
    are strictly semistable, drawn until found."""
    found = []
    while len(found) < count:
        data = _random_data(rng, rng.randint(2, 4), rng.randint(1, 3))
        degrees = [d for d in range(data.rank) if not parabolic.ss_equals_stable(data, d)]
        found += [(data, d) for d in degrees[:1]]
    return found


def test_chamber_keys_change_no_series():
    """A block's stable count is constant on its stability chamber: the
    recursion keyed by chamber gives the same series, through the same
    truncation, as one keyed by the exact block, and so does every block
    the exact one solved on the way, looked up by its chamber.  Random data
    of ranks 2-4 on 1-3 points at every residue, and drawn strictly
    semistable data.  The chamber memo holds fewer entries, so blocks do
    share."""
    rng = random.Random(23)
    drawn = [_random_data(rng, n, points) for n, points in product(range(2, 5), range(1, 4))]
    cases = [(data, rho) for data in drawn for rho in range(data.rank)]
    cases += _strictly_semistable(rng, 10)
    merged = 0
    for data, rho in cases:
        den, block = _integer_block(data)
        genus = rng.randint(0, 1)
        chamber, exact = recursion._Recursor(genus, den), _ExactKeys(genus, den)
        got = chamber.q_series(block, rho, 12)
        assert got.trunc == 12 and got == exact.q_series(block, rho, 12), (data, rho)
        merged += len(exact.memo) - len(chamber.memo)
        for (b, r), series in exact.memo.items():
            assert chamber.q_series(b, r, series.trunc).truncate(series.trunc) == series, (b, r)
    assert merged > 100


def test_siegel_check_sees_each_block_of_a_chamber(monkeypatch):
    """The rank-2 blocks with weights (0, 1/3) and (1/3, 2/3) of one full
    flag share their chamber at both residues, yet ``siegel_check`` feeds
    each its own closed count: a wrong count on either one is caught."""
    data = make_data([((1, 1, 1), ("0", "1/3", "2/3"))])
    den, _ = _integer_block(data)
    low, high = (((1, 1),), ((0, 1),)), (((1, 1),), ((1, 2),))
    rec = recursion._Recursor(1, den)
    assert all(rec._key(low, rho) == rec._key(high, rho) for rho in range(2))
    closed = recursion.q_ratfunc
    assert siegel_check(data, 1, 1, 16) == (True, None)
    for wrong in (low, high):

        def off_by_t4(den, block, d, genus, wrong=wrong):
            func = closed(den, block, d, genus)
            return func + FactoredRatFunc.monomial(4) if block == wrong else func

        monkeypatch.setattr(recursion, "q_ratfunc", off_by_t4)
        assert siegel_check(data, 1, 1, 16)[0] is False, wrong


def test_tables_walked_once_per_shape(monkeypatch):
    """A recursion walks each point's tables once per (multiplicities,
    block ranks), however many blocks and points meet that shape."""
    walked, met = [], []
    tables_for_point, strata = parabolic._tables_for_point, recursion._strata

    def counted(mults, cols):
        walked.append((mults, cols))
        return tables_for_point(mults, cols)

    def shapes_met(mults, *args):
        for cols, per_point in strata(mults, *args):
            met.extend((m, cols) for m in mults)
            yield cols, per_point

    monkeypatch.setattr(parabolic, "_tables_for_point", counted)
    monkeypatch.setattr(recursion, "_strata", shapes_met)
    for _ in range(2):  # nothing is kept from one compute to the next
        walked.clear()
        met.clear()
        recursion_poincare(Instance(3, 0, LADDER_TWO))
        assert sorted(walked) == sorted(set(met))
        # one walk of the top block's three compositions and one per
        # rank-2 chamber, two points each
        assert len(walked) == 4 and len(met) == 12


def test_horner_deepens_every_factor(monkeypatch):
    """A product shorter than its branch needs deepens that branch's factor,
    in place, after the subtrie below it has deepened its own; the pass
    then equals the product of the deep series."""
    den, r2 = _integer_block(R2)
    line = (((1,),), ((0,),))
    rec = recursion._Recursor(1, den)
    keys = [(rec._key(line, 0), line, 0), (rec._key(r2, 1), r2, 1)]
    deep = {0: rec.q_series(line, 0, 30), 1: rec.q_series(r2, 1, 30)}
    series = {p: s.truncate(s.order_bound() + 1) for p, s in deep.items()}
    fetched = []
    fetch = recursion._Recursor._series

    def counted(self, key, block, d, trunc):
        fetched.append((block, d))
        assert len(fetched) <= 8, "deepening does not converge"
        return fetch(self, key, block, d, trunc)

    monkeypatch.setattr(recursion._Recursor, "_series", counted)
    shifts = {0: 1, 4: 2}
    # the one multiset {0, 0, 1} of key numbers as a trie
    trie = {0: ({}, {0: ({}, {1: (shifts, {})})})}
    got = rec._horner(trie, 12, keys, series)
    want = (deep[0] * deep[0] * deep[1]).mul_poly(LaurentPoly(shifts))
    assert got.trunc == 12 and want.trunc >= 12
    assert got == want.truncate(12)
    assert {(line, 0), (r2, 1)} == set(fetched)
    assert series == deep


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
        engine._count_shift(_mults(b), genus) for b in blocks
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
            term = term * block_factor(_mults(b), genus)
        total = total + term
    return total


@pytest.mark.parametrize("genus", [0, 1, 3])
def test_block_sum_matches_per_partition_sum(monkeypatch, genus):
    """Grouping partitions by class changes the value of neither route's sum:
    with the factor (1 + t)^(2g) that the block sum leaves out multiplied
    back in, it is the sum over partitions."""
    calls = []
    block_sum = engine._block_sum

    def recorded(*args):
        calls.append(args)
        return block_sum(*args)

    monkeypatch.setattr(engine, "_block_sum", recorded)
    for data, d in ((R3_TWO, 1), (R4, 1), (LADDER_TWO, 0), (PARTIAL_R4, 1)):
        for method in ("closed", "qclosed"):
            calls.clear()
            try:
                compute(Instance(genus, d, data), method, force=True)
            except NonPolynomialResult:
                pass
            (args,) = calls
            assert args[1] == genus
            left_out = FactoredRatFunc(0, one_plus(1) ** (2 * genus))
            assert left_out * block_sum(*args) == _per_partition_sum(data, genus, d, method)


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
            for k, e in block_factor(_mults(b), 0).factors.items():
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
            classes, g, cols_term = args
            assert g == genus
            # the route's classes leave out the genus term of their block ranks
            want, neg = _oracle_classes(data, genus, d, method)
            got = {
                key: {x + cols_term(key[0]): c for x, c in xs.items()}
                for key, xs in classes.items()
            }
            assert got == want
            assert list(got) == list(want)
            # and they repeat with period the rank in the degree
            again = engine._block_classes(
                *_integer_block(data), d + data.rank, engine._TABLE_TERMS[method]
            )
            assert again == classes and list(again) == list(classes)
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
            for k, e in block_factor(_mults(b), 0).factors.items():
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


@pytest.mark.parametrize("genus", [150, 400])
def test_high_genus_routes_agree(genus):
    """Rank 2 at high genus: both closed routes equal the subset sum."""
    inst = Instance(genus, 1, R2)
    closed, qclosed, rank2 = (compute(inst, m) for m in ("closed", "qclosed", "rank2"))
    assert closed.poly == qclosed.poly == rank2.poly
    assert closed.poly.max_exp() == 2 * closed.dim


def _outcome(run):
    """What a call returns, or the type and text of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("method", ["closed", "qclosed"])
def test_rank2_sweep_matches_per_cell_compute(method):
    """A sweep over genus 0..40 gives, cell by cell, what compute gives."""
    genera, degrees = range(41), range(2)
    cells = engine.sweep(R2, genera, degrees, method)
    swept = [c if isinstance(c, BettiResult) else (type(c), str(c)) for c in cells]
    assert swept == [
        _outcome(lambda: compute(Instance(g, d, R2), method)) for g in genera for d in degrees
    ]
    assert sum(isinstance(c, BettiResult) for c in cells) >= 41


def test_closed_certificate_is_genus_free(monkeypatch):
    """The function both closed routes certify has the same factors at
    genus 1 and 30: the genus enters only the numerator."""
    seen = []
    certify = engine._certify

    def recorded(func, *args):
        seen.append(func.factors)
        return certify(func, *args)

    monkeypatch.setattr(engine, "_certify", recorded)
    for data in (R2, R3_TWO, R4):
        for method in ("closed", "qclosed"):
            seen.clear()
            for genus in (1, 30):
                compute(Instance(genus, 1, data), method)
            assert seen[0] == seen[1] and seen[0], (data, method)


def _with_zero_rows(data, q):
    """The data with a zero-multiplicity row after every row, its weight a
    1/q of the way to the next weight (or to 1): the canonical form is the
    same, and the common denominator gains the prime q."""
    rows = []
    for p in data.points:
        mults, weights = [], []
        for w, up in zip(p.weights, p.weights[1:] + (Fraction(1),)):
            weights += [w, w + (up - w) / q]
        for m in p.mults:
            mults += [m, 0]
        rows.append((mults, weights))
    return make_data(rows)


@pytest.mark.parametrize(
    "data, genus, d",
    [(R2, 2, 1), (R3_TWO, 1, 1), (PLAIN, 3, 1), (LADDER_TWO, 0, 1), (PARTIAL_R4, 1, 1)],
)
def test_zero_rows_change_no_route(data, genus, d):
    """Zero rows add nothing, and scaling the common denominator moves no
    floor: on data with zero rows whose weights bring new denominators,
    every route returns the polynomial of the canonical form, and the mass
    identity check gives the same answer."""
    padded = _with_zero_rows(data, 31)
    assert canonical_form(padded) == data
    assert _integer_block(padded)[0] == 31 * _integer_block(data)[0]
    inst, plain = Instance(genus, d, padded), Instance(genus, d, data)
    methods = applicable_methods(inst)
    assert methods == applicable_methods(plain) and len(methods) >= 3
    for m in methods:
        assert compute(inst, m).poly == compute(plain, m).poly, m
    assert siegel_check(padded, genus, d, 16) == siegel_check(data, genus, d, 16) == (True, None)
