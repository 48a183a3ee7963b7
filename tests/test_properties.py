"""Property-based checks of the combinatorial and engine layers."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from parbetti import (
    Instance,
    StrictSemistable,
    compute,
    flag_dim,
    make_data,
)
from parbetti.parabolic import _compositions, slope_coincidence_witness

from strata import (
    coinv_count,
    degree_at_slope,
    head,
    hom_euler,
    inv_count,
    linear_offset,
    partitions,
    prefix_data,
    rational_witness,
    split_inversions,
    stratum_exponent,
    tail,
    term_exponent,    weight_sum,
)

WEIGHT_POOL = sorted({Fraction(a, b) for b in range(1, 13) for a in range(b)})


@st.composite
def qp_datas(draw, max_rank=4, max_points=2):
    n = draw(st.integers(min_value=1, max_value=max_rank))
    m = draw(st.integers(min_value=1, max_value=max_points))
    pts = []
    for _ in range(m):
        rows = draw(st.integers(min_value=1, max_value=n))
        mults = list(draw(st.sampled_from(list(_compositions(n, rows)))))
        if draw(st.booleans()):
            mults.insert(draw(st.integers(0, len(mults))), 0)
        ws = draw(
            st.lists(
                st.sampled_from(WEIGHT_POOL),
                min_size=len(mults),
                max_size=len(mults),
                unique=True,
            )
        )
        pts.append((tuple(mults), tuple(sorted(ws))))
    return make_data(pts)


DEGREES = st.integers(min_value=-6, max_value=6)
SLOPES = st.fractions(min_value=-3, max_value=3, max_denominator=40)


def _deg_tuple(draw_fn, r):
    return draw_fn


# -- splitting identities for the partition invariants ----------------------


@settings(max_examples=60, deadline=None)
@given(data=qp_datas(), seed=st.randoms(use_true_random=False))
def test_inversion_count_splits_at_every_cut(data, seed):
    parts = [p for p in partitions(data) if p.length >= 2]
    assume(parts)
    for part in seed.sample(parts, min(len(parts), 12)):
        for k in range(1, part.length):
            lhs = inv_count(part)
            rhs = (
                inv_count(head(part, k))
                + inv_count(tail(part, k))
                + split_inversions(data, prefix_data(part, k))
            )
            assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(data=qp_datas(), degs=st.lists(DEGREES, min_size=4, max_size=4),
       d_extra=DEGREES, seed=st.randoms(use_true_random=False))
def test_term_exponent_peels_first_block(data, degs, d_extra, seed):
    parts = [p for p in partitions(data) if p.length >= 2]
    assume(parts)
    for part in seed.sample(parts, min(len(parts), 8)):
        dv = tuple(degs[: part.length])
        d = sum(dv)
        n = data.rank
        n1 = part.cols[0]
        sub = prefix_data(part, 1)
        a1 = weight_sum(sub)
        lam = Fraction(dv[0] + a1, n1)
        lhs = term_exponent(part, dv) - term_exponent(tail(part, 1), dv[1:])
        rhs = n1 * (n * lam - d) - n * a1 - split_inversions(data, sub)
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(data=qp_datas(), d=DEGREES, lam=SLOPES,
       seed=st.randoms(use_true_random=False))
def test_linear_offset_chain_rule(data, d, lam, seed):
    parts = [p for p in partitions(data) if p.length >= 2]
    assume(parts)
    n = data.rank
    for part in seed.sample(parts, min(len(parts), 8)):
        r = part.length
        for k in range(1, r):
            nk_front = sum(part.cols[:k])
            dk = degree_at_slope(prefix_data(part, k), lam)
            lhs = linear_offset(head(part, k), dk) + linear_offset(
                tail(part, k), d - dk
            )
            rhs = (
                linear_offset(part, d)
                - (2 * nk_front - n - part.cols[k - 1] + part.cols[-1]) * dk
                - part.cols[k - 1]
                - part.cols[k]
                + split_inversions(data, prefix_data(part, k))
                + nk_front * d
            )
            assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(
    ranks=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    degs=st.lists(DEGREES, min_size=4, max_size=4),
    genus=st.integers(0, 3),
)
def test_euler_pairing_is_additive(ranks, degs, genus):
    ranks = tuple(ranks)
    dv = tuple(degs[: len(ranks)])
    merged_tail = (ranks[0], sum(ranks[1:]))
    merged_degs = (dv[0], sum(dv[1:]))
    assert hom_euler(merged_tail, merged_degs, genus) + hom_euler(
        ranks[1:], dv[1:], genus
    ) == hom_euler(ranks, dv, genus)


@settings(max_examples=60, deadline=None)
@given(data=qp_datas(), degs=st.lists(DEGREES, min_size=4, max_size=4),
       genus=st.integers(0, 3), seed=st.randoms(use_true_random=False))
def test_stratum_and_term_exponents_are_twins(data, degs, genus, seed):
    # the two exponents come from independent loops; they must always sum
    # to the genus pairing correction
    parts = partitions(data)
    for part in seed.sample(parts, min(len(parts), 10)):
        dv = tuple(degs[: part.length])
        pairwise = sum(
            part.cols[i] * part.cols[j]
            for i in range(part.length)
            for j in range(i + 1, part.length)
        )
        assert stratum_exponent(part, dv, genus) + term_exponent(part, dv) == -(
            genus - 1
        ) * pairwise


@settings(max_examples=60, deadline=None)
@given(data=qp_datas(), seed=st.randoms(use_true_random=False))
def test_flag_dimension_drop_is_inv_plus_coinv(data, seed):
    parts = partitions(data)
    for part in seed.sample(parts, min(len(parts), 10)):
        drop = flag_dim(data) - sum(flag_dim(b) for b in part.blocks())
        assert inv_count(part) + coinv_count(part) == drop


@settings(max_examples=60, deadline=None)
@given(data=qp_datas(max_rank=4, max_points=3))
def test_integer_witness_matches_rational_reference(data):
    """The integer stability check names the same first sub-datum and
    degree as the Fraction reference, or None with it, at every degree
    across two full turns of the total slope."""
    n = data.rank
    for d in range(-2 * n, 2 * n + 1):
        assert slope_coincidence_witness(data, d) == rational_witness(data, d), d


# -- engine-level properties -------------------------------------------------


@st.composite
def small_instances(draw):
    data = draw(qp_datas(max_rank=3, max_points=2))
    genus = draw(st.integers(0, 2))
    degree = draw(st.integers(-3, 3))
    return Instance(genus, degree, data)


@settings(max_examples=25, deadline=None)
@given(inst=small_instances())
def test_certified_shape_of_every_stable_answer(inst):
    try:
        res = compute(inst, "closed")
    except StrictSemistable:
        assume(False)
    assert res.betti[:1] in ((), (1,))
    assert all(b >= 0 for b in res.betti)
    assert list(res.betti) == list(res.betti)[::-1]
    if res.empty:
        assert all(b == 0 for b in res.betti)


@settings(max_examples=20, deadline=None)
@given(inst=small_instances())
def test_two_routes_agree_on_random_instances(inst):
    try:
        a = compute(inst, "closed")
    except StrictSemistable:
        assume(False)
    b = compute(inst, "recursion")
    assert a.poly == b.poly


@settings(max_examples=20, deadline=None)
@given(inst=small_instances())
def test_degree_shift_by_rank_is_invisible(inst):
    try:
        a = compute(inst, "closed")
    except StrictSemistable:
        assume(False)
    shifted = Instance(inst.genus, inst.degree + inst.data.rank, inst.data)
    b = compute(shifted, "closed")
    assert a.poly == b.poly


@st.composite
def rank2_pairs(draw, max_points=2):
    m = draw(st.integers(1, max_points))
    pts = []
    for _ in range(m):
        ws = draw(
            st.lists(st.sampled_from(WEIGHT_POOL), min_size=2, max_size=2,
                     unique=True)
        )
        pts.append(((1, 1), tuple(sorted(ws))))
    genus = draw(st.integers(0, 2))
    return make_data(pts), genus


@settings(max_examples=20, deadline=None)
@given(pair=rank2_pairs(), d0=st.integers(-2, 2), d1=st.integers(-2, 2))
def test_rank2_few_points_degree_independent(pair, d0, d1):
    # with at most two flagged points the rank-2 answer ignores the degree
    data, genus = pair
    try:
        a = compute(Instance(genus, d0, data), "closed")
        b = compute(Instance(genus, d1, data), "closed")
    except StrictSemistable:
        assume(False)
    assert a.poly == b.poly


INNER_CONFIGS = (
    (("0", "1/2"), ("0", "1/3"), ("0", "1/4")),
    (("0", "1/2"), ("0", "1/3"), ("0", "1/4"), ("0", "1/5")),
)

OUTER_CONFIGS = (
    (("0", "3/4"), ("0", "1/4"), ("0", "1/5")),
    (("0", "4/5"), ("0", "1/5"), ("0", "1/7"), ("0", "1/11")),
)


@pytest.mark.parametrize("config", INNER_CONFIGS)
@pytest.mark.parametrize("genus", (1, 2))
def test_rank2_inner_chamber_degree_independent(config, genus):
    data = make_data([((1, 1), w) for w in config])
    polys = {
        d: compute(Instance(genus, d, data), "closed").poly for d in range(-2, 3)
    }
    assert len({tuple(sorted(p.items())) for p in polys.values()}) == 1


@pytest.mark.parametrize("config", OUTER_CONFIGS)
@pytest.mark.parametrize("genus", (1, 2))
def test_rank2_outer_chamber_depends_only_on_parity(config, genus):
    data = make_data([((1, 1), w) for w in config])
    polys = {
        d: compute(Instance(genus, d, data), "closed").poly for d in range(-2, 3)
    }
    assert polys[-2] == polys[0] == polys[2]
    assert polys[-1] == polys[1]
    assert polys[0] != polys[1]
