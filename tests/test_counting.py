import math
from fractions import Fraction

import pytest

from parbetti.counting import block_factor
from parbetti.laurent import LaurentPoly, one_plus
from parbetti.parabolic import flag_dim, make_data
from parbetti.ratfunc import FactoredRatFunc

from oracles import (
    CountExpr,
    NotPolynomial,
    ZetaAtomPole,
    brute_flag_count,
    brute_grassmann_count,
    evaluate,
    evaluate_q,
    flag_count,
    flag_family_count,
    gaussian_binomial,
    grassmann_count,
    poincare_from_count,
    poincare_substitute,
    siegel_mass,
)

F = Fraction
FRF = FactoredRatFunc


def full_flag(n, denom=None):
    denom = denom or (2 * n)
    return ([1] * n, [F(i, denom) for i in range(n)])


DATA_FAMILY = [
    make_data([full_flag(1)]),
    make_data([full_flag(2)]),
    make_data([([2], [F(0)])]),
    make_data([full_flag(3)]),
    make_data([([2, 1], [F(0), F(1, 2)])]),
    make_data([full_flag(4)]),
    make_data([([2, 2], [F(0), F(1, 3)])]),
    make_data([([1, 3], [F(1, 7), F(2, 7)])]),
    make_data([full_flag(2), ([2], [F(1, 5)])]),
    make_data([full_flag(3), ([1, 2], [F(0), F(3, 4)])]),
    make_data([full_flag(4), ([2, 2], [F(0), F(1, 2)])]),
]


def test_gaussian_binomial():
    assert gaussian_binomial(2, 1) == LaurentPoly({0: 1, 1: 1})
    assert gaussian_binomial(3, 1) == LaurentPoly({0: 1, 1: 1, 2: 1})
    assert gaussian_binomial(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert gaussian_binomial(3, 3) == LaurentPoly.one()
    assert gaussian_binomial(2, 3).is_zero()


def test_flag_count_values():
    assert flag_count((1, 1, 1)) == gaussian_binomial(2, 1) * gaussian_binomial(3, 1)
    assert flag_count((3,)) == LaurentPoly.one()
    assert flag_count((2, 0, 1)) == flag_count((2, 1))


def test_flag_count_chain_composition():
    # peeling the flag one step at a time multiplies Grassmannian counts
    for mults in [(1, 1), (1, 1, 1), (2, 1), (1, 2, 1), (1, 1, 1, 1), (2, 2)]:
        chain = LaurentPoly.one()
        dim = 0
        for m in mults:
            dim += m
            chain = chain * gaussian_binomial(dim, m)
        assert flag_count(mults) == chain


def test_counts_against_brute_force():
    for q in (2, 3):
        for n in (2, 3):
            for k in range(1, n):
                expected = brute_grassmann_count(q, n, k)
                assert evaluate_q(grassmann_count(n, k), q) == expected
        assert evaluate(flag_count((1, 1, 1)), q) == brute_flag_count(q, 3, (1, 1, 1))
        assert evaluate(flag_count((2, 1)), q) == brute_flag_count(q, 3, (2, 1))


def test_flag_family_count():
    data = make_data([full_flag(2), ([1, 1], [F(0), F(1, 4)])])
    assert flag_family_count(data).poly == one_plus(1) ** 2  # (q+1)^2 in q


def test_siegel_mass_structure():
    m = siegel_mass(1, 5)
    assert m.q_power == 0 and m.qminus1_power == -1 and m.zeta == ()
    m3 = siegel_mass(3, 2)
    assert m3.q_power == 8 and m3.zeta == ((2, 1), (3, 1))


def test_substitute_building_blocks():
    g = 2
    assert poincare_substitute(CountExpr(q_power=3), g) == FRF.monomial(-6)
    assert poincare_substitute(CountExpr(qminus1_power=1), g) == FRF(-2, LaurentPoly.one(), {2: 1})
    jac = poincare_substitute(CountExpr(jac_power=1), g)
    assert jac == FRF(-2 * g, one_plus(1) ** (2 * g))
    z2 = poincare_substitute(CountExpr(zeta=((2, 1),)), g)
    assert z2 == FRF(0, one_plus(3) ** (2 * g), {2: -1, 4: -1})
    with pytest.raises(ZetaAtomPole):
        poincare_substitute(CountExpr(zeta=((1, 1),)), g)
    qpoly = poincare_substitute(CountExpr(poly=LaurentPoly({1: 1, 0: 1})), g)
    assert qpoly == FRF(-2, one_plus(2))  # q + 1 -> t^-2 (1 + t^2)


def test_substitute_inverse_zeta_atom():
    g = 1
    direct = poincare_substitute(CountExpr(zeta=((2, 1),)), g)
    inverse = poincare_substitute(CountExpr(zeta=((2, -1),)), g)
    assert direct * inverse == FRF()


def test_mass_series_rank_one():
    # the rank-1 mass 1/(q - 1) substitutes to t^2/(1 - t^2) in every genus
    for g in (0, 3):
        assert poincare_substitute(siegel_mass(1, g), g) == FRF(2, LaurentPoly.one(), {2: -1})


def test_mass_series_jac_rank_two_display():
    g = 2
    expected = FRF(
        -8 * (g - 1),
        one_plus(1) ** (2 * g) * one_plus(3) ** (2 * g),
        {4: -1, 2: -2},
    )
    jac = poincare_substitute(CountExpr(jac_power=1), g)
    assert poincare_substitute(siegel_mass(2, g), g) * jac == expected


def test_block_factor_rank_one():
    for g in range(0, 4):
        assert block_factor([(1,)], g) == FRF(0, one_plus(1) ** (2 * g), {2: -1})
    assert block_factor([(1,), (1,)], 2) == FRF(0, one_plus(1) ** 4, {2: -1})


def test_block_factor_rank_two():
    g = 2
    expected = FRF(
        0,
        one_plus(2) * one_plus(1) ** (2 * g) * one_plus(3) ** (2 * g),
        {4: -1, 2: -2},
    )
    assert block_factor([(1, 1)], g) == expected
    # a trivial flag point contributes no (1 + t^2) factor
    expected_trivial = FRF(
        0, one_plus(1) ** (2 * g) * one_plus(3) ** (2 * g), {4: -1, 2: -2}
    )
    assert block_factor([(2,)], g) == expected_trivial


def test_block_factor_equals_assembled_pieces():
    """The routes' block factor is the Weil-conjecture substitution of the
    block's count: flags times Siegel mass times line bundles, shifted to
    start at t^0."""
    for data in DATA_FAMILY:
        for g in range(4):
            n = data.rank
            twist = FRF.monomial(2 * flag_dim(data) + 2 * n * n * (g - 1))
            counts = (flag_family_count(data), siegel_mass(n, g), CountExpr(jac_power=1))
            expected = math.prod((poincare_substitute(c, g) for c in counts), start=twist)
            assert block_factor([p.mults for p in data.points], g) == expected


def test_poincare_from_count_fixtures():
    proj_line = grassmann_count(2, 1)
    assert poincare_from_count(proj_line, 1, 0) == LaurentPoly({0: 1, 2: 1})
    jac = CountExpr(jac_power=1)
    for g in (1, 2, 3):
        assert poincare_from_count(jac, g, g) == one_plus(1) ** (2 * g)
    full3 = CountExpr(poly=flag_count((1, 1, 1)))
    assert poincare_from_count(full3, 3, 0) == LaurentPoly(
        {0: 1, 2: 2, 4: 2, 6: 1}
    )


def test_poincare_from_count_rejections():
    with pytest.raises(NotPolynomial):
        poincare_from_count(siegel_mass(2, 2), 3, 2)
    with pytest.raises(NotPolynomial):
        # wrong dimension twist leaves negative exponents
        poincare_from_count(grassmann_count(2, 1), 0, 0)
