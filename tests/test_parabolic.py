from fractions import Fraction
from itertools import product
from math import floor

import pytest

from parbetti import compute
from parbetti.parabolic import (
    FlagPoint,
    Instance,
    QPData,
    _bounded_compositions,
    _integer_weights,
    _strata,
    canonical_form,
    degree_at_slope,
    flag_dim,
    make_data,
    moduli_dim,
    slope_coincidence_witness,
    ss_equals_stable,
    subdata,
    weight_sum,
)

from oracles import brute_partitions, brute_subdata
from strata import (
    Partition,
    coinv_count,
    complement,
    floor_sum,
    floor_sum_genus,
    head,
    hom_euler,
    inv_count,
    linear_offset,
    partitions,
    prefix_data,
    reembed,
    split_inversions,
    stratum_exponent,
    tail,
    term_exponent,
)

F = Fraction


def full_flag(n, denom=None):
    """Full-flag point with simple increasing weights."""
    denom = denom or (2 * n)
    return ([1] * n, [F(i, denom) for i in range(n)])


def test_validation():
    with pytest.raises(ValueError):
        FlagPoint((1, 1), (F(1, 3), F(1, 3)))  # not strictly increasing
    with pytest.raises(ValueError):
        FlagPoint((1,), (F(1),))  # weight outside [0, 1)
    with pytest.raises(ValueError):
        FlagPoint((-1, 2), (F(0), F(1, 2)))
    with pytest.raises(ValueError):
        QPData((FlagPoint((1, 1), (F(0), F(1, 2))), FlagPoint((1,), (F(0),))))
    with pytest.raises(ValueError):
        QPData(())
    with pytest.raises(ValueError):
        Instance(-1, 0, make_data([full_flag(2)]))


def test_validation_rejects_non_integers():
    # a float or bool multiplicity, genus or degree is refused, not rounded
    for mults in ((1.7, 1.2), (True, 1), (1, "1")):
        with pytest.raises(TypeError, match="multiplicities must be ints"):
            make_data([(mults, ("0", "1/3"))])
    data = make_data([full_flag(2)])
    for genus, degree in ((True, 0), (2, False), (1.0, 0), (2, 1.0)):
        with pytest.raises(ValueError):
            Instance(genus, degree, data)


def test_weight_sum_and_dims():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    assert weight_sum(data) == F(1, 3)
    assert flag_dim(data) == 1
    assert moduli_dim(data, 2) == 4

    r3 = make_data([full_flag(3)])
    assert flag_dim(r3) == 3
    assert moduli_dim(r3, 1) == 3

    r4 = make_data([([1, 1, 1, 1], [F(0), F(1, 8), F(1, 4), F(1, 2)])])
    assert flag_dim(r4) == 6
    assert moduli_dim(r4, 2) == 6 + 15

    trivial = make_data([([2], [F(0)])])
    assert flag_dim(trivial) == 0
    assert weight_sum(trivial) == 0


def test_canonical_and_reembed_roundtrip():
    ambient = make_data([full_flag(3), ([2, 1], [F(0), F(1, 2)])])
    for sub in subdata(ambient):
        c = canonical_form(sub)
        assert all(all(m > 0 for m in p.mults) for p in c.points)
        assert weight_sum(c) == weight_sum(sub)
        assert reembed(c, ambient) == sub


def test_reembed_rejects_foreign_weights():
    ambient = make_data([([1, 1], [F(0), F(1, 3)])])
    stranger = make_data([([1], [F(1, 2)])])
    with pytest.raises(ValueError):
        reembed(stranger, ambient)


def test_subdata_counts():
    assert len(subdata(make_data([full_flag(2)]))) == 2
    two_pt = make_data([full_flag(2), ([1, 1], [F(0), F(1, 4)])])
    assert len(subdata(two_pt)) == 4
    assert len(subdata(make_data([([2], [F(0)])]))) == 1


def test_subdata_against_brute_force():
    cases = [
        [((1, 1, 1), full_flag(3)[1])],
        [((2, 1), [F(0), F(1, 2)])],
        [((1, 2), [F(0), F(1, 3)]), ((2, 1), [F(0), F(1, 5)])],
    ]
    for spec in cases:
        data = make_data([(m, w) for m, w in spec])
        got = {tuple(p.mults for p in s.points) for s in subdata(data)}
        assert got == brute_subdata([tuple(m) for m, _ in spec])


def test_partition_counts():
    assert len(partitions(make_data([full_flag(2)]))) == 3
    assert len(partitions(make_data([full_flag(3)]))) == 13
    two_pt = make_data([full_flag(2), ([1, 1], [F(0), F(1, 4)])])
    assert len(partitions(two_pt)) == 5
    r3_two = make_data(
        [([1, 1, 1], [F(0), F(1, 12), F(3, 12)]), ([1, 1, 1], [F(1, 12), F(5, 12), F(6, 12)])]
    )
    assert len(partitions(r3_two)) == 55
    r4 = make_data([([1, 1, 1, 1], [F(0), F(1, 8), F(1, 4), F(1, 2)])])
    assert len(partitions(r4)) == 75


def test_bounded_compositions_against_brute_force():
    cases = [(0, ()), (1, ()), (0, (0, 0)), (3, (1, 2, 0, 2)), (4, (2, 2)),
             (5, (2, 2)), (-1, (1, 1)), (2, (3,)), (6, (1, 3, 2, 0, 4))]
    for total, bounds in cases:
        want = [v for v in product(*(range(b + 1) for b in bounds)) if sum(v) == total]
        assert _bounded_compositions(total, bounds) == want


def test_partitions_against_brute_force():
    cases = [
        [(1, 1, 1)],
        [(2, 1)],
        [(1, 1), (2,)],
        [(1, 2), (2, 1)],
        # the shapes of the large closed-form benchmark instances
        [(1, 1, 1, 1), (1, 1, 1, 1)],
        [(2, 1, 1), (1, 1, 2)],
        [(1, 1, 1, 1, 1)],
    ]
    for mults in cases:
        weights = [[F(i, 8) for i in range(len(m))] for m in mults]
        data = make_data(list(zip(mults, weights)))
        den, scaled = _integer_weights(data)
        got = []
        for cols, per_point in _strata(data, scaled, 1):
            for tables in product(*per_point):
                got.append((cols, tuple(t[0] for t in tables)))
                part = Partition(data, cols, got[-1][1])
                # each table's pair counts and block weights, summed over
                # the points, are the stratum's
                assert sum(t[1] for t in tables) == inv_count(part)
                assert sum(t[2] for t in tables) == coinv_count(part)
                nums = [sum(t[3][k] for t in tables) for k in range(len(cols))]
                assert [F(a, den) for a in nums] == [weight_sum(b) for b in part.blocks()]
        assert len(set(got)) == len(got)
        assert got == [(p.cols, p.tables) for p in partitions(data)]
        longer = [cols for cols, _ in _strata(data, scaled, 2)]
        assert longer == list(dict.fromkeys(c for c, _ in got if len(c) >= 2))
        assert set(got) == brute_partitions([tuple(m) for m in mults])


def test_partition_structure():
    data = make_data([full_flag(3)])
    for part in partitions(data):
        r = part.length
        assert sum(part.cols) == 3
        for k in range(r):
            assert part.block(k).rank == part.cols[k]
        assert head(part, r).tables == part.tables
        assert prefix_data(part, r) == data
        if r > 1:
            first, rest = head(part, 1), tail(part, 1)
            assert first.data.rank + rest.data.rank == 3
            assert rest.cols == part.cols[1:]


def _rebuilt(data):
    return make_data([(p.mults, p.weights) for p in data.points])


def test_derived_data_equals_validated_rows():
    # blocks, prefixes, tails, sub-data and canonical forms skip validation;
    # they must still be the very values make_data builds, or the block
    # cache and the recursion memo would split their keys
    data = make_data([([1, 2, 0], ["0", "1/3", "1/2"]), ([2, 1], ["1/5", "1/2"])])
    derived = list(subdata(data))
    for part in partitions(data):
        r = part.length
        derived += part.blocks()
        derived += [prefix_data(part, j) for j in range(1, r + 1)]
        derived += [head(part, j).data for j in range(1, r + 1)]
        derived += [tail(part, j).data for j in range(r)]
    derived += [canonical_form(d) for d in derived]
    assert len(derived) > 100
    for d in derived:
        ref = _rebuilt(d)
        assert d == ref
        assert hash(d) == hash(ref)


def test_routes_validate_input_once(monkeypatch):
    data = make_data(
        [([1, 1, 1], ["0", "1/12", "3/12"]), ([1, 1, 1], ["1/12", "5/12", "6/12"])]
    )
    inst = Instance(1, 0, data)
    calls = []
    for cls in (FlagPoint, QPData):

        def counted(self, *args, init=cls.__init__):
            calls.append(type(self).__name__)
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    for method in ("closed", "qclosed", "recursion"):
        compute(inst, method)
    assert slope_coincidence_witness(data, 0) is None
    assert calls == []
    make_data([full_flag(2)])
    assert calls == ["FlagPoint", "QPData"]


def test_inversion_counts():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    diag = Partition(data, (1, 1), (((1, 0), (0, 1)),))
    anti = Partition(data, (1, 1), (((0, 1), (1, 0)),))
    assert inv_count(diag) == 1 and coinv_count(diag) == 0
    assert inv_count(anti) == 0 and coinv_count(anti) == 1
    # the two counts split the lost flag dimension
    for part in (diag, anti):
        lost = flag_dim(data) - sum(flag_dim(b) for b in part.blocks())
        assert inv_count(part) + coinv_count(part) == lost


def test_split_inversions():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    sub_hi = subdata(data)[1]  # mults (1, 0)
    assert sub_hi.points[0].mults == (1, 0)
    assert split_inversions(data, sub_hi) == 1
    sub_lo = subdata(data)[0]
    assert split_inversions(data, sub_lo) == 0
    with pytest.raises(ValueError):
        complement(sub_hi, data)


def test_hom_euler_pinned():
    assert hom_euler((1, 1), (1, 0), 2) == 2
    assert hom_euler((1, 1), (0, 0), 1) == 0


def test_exponents_small():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    (whole,) = [p for p in partitions(data) if p.length == 1]
    assert inv_count(whole) == 0
    assert term_exponent(whole, (5,)) == 0
    assert stratum_exponent(whole, (5,), 3) == 0
    diag = Partition(data, (1, 1), (((1, 0), (0, 1)),))
    # degrees (1, 0): pairing 1*1 - 0*1 = 1, minus one inversion
    assert term_exponent(diag, (1, 0)) == 0
    assert linear_offset(diag, 3) == -3 - 1 + 2


def test_floor_sums_pinned():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    part = Partition(data, (1, 1), (((1, 0), (0, 1)),))
    # prefix weight 0, lambda = 1/2
    assert floor_sum(part, F(1, 2)) == 0
    assert floor_sum_genus(part, F(1, 2), 2) == 3


def test_floor_sum_matches_prefix_weights():
    # the running block-weight sum against the weight of each prefix datum
    data = make_data([
        ([1, 2, 0, 1], ["0", "1/7", "2/7", "4/9"]),
        ([2, 1, 1], ["1/11", "5/17", "7/19"]),
    ])
    parts = partitions(data, min_length=2)
    assert len(parts) > 50
    for lam in (F(-3, 4), F(0), F(5, 12), F(7, 3)):
        for part in parts:
            expected = 0
            for k in range(part.length - 1):
                nk = sum(part.cols[: k + 1])
                gap = nk * lam - weight_sum(prefix_data(part, k + 1))
                expected += (part.cols[k] + part.cols[k + 1]) * floor(gap)
            assert floor_sum(part, lam) == expected


def test_stability_gap():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    for d in range(-3, 4):
        assert ss_equals_stable(data, d)
    trivial = make_data([([2], [F(0)])])
    assert not ss_equals_stable(trivial, 0)
    sub, e = slope_coincidence_witness(trivial, 0)
    assert sub.rank == 1 and e == 0
    assert ss_equals_stable(trivial, 1)


def test_degree_at_slope():
    data = make_data([([1, 1], [F(0), F(1, 3)])])
    sub = subdata(data)[0]  # mults (0, 1), weight 1/3
    lam = F(1, 2)
    assert degree_at_slope(sub, lam) == F(1, 2) - F(1, 3)
