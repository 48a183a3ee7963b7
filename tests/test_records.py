"""The value records: construction, validation, equality, hash, repr,
immutability and pickling."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from parbetti.laurent import LaurentPoly
from parbetti.parabolic import FlagPoint, Instance, QPData, _derived, make_data
from parbetti.rank2 import Rank2Profile
from parbetti.result import BettiResult

from oracles import CountExpr

POINT = FlagPoint((1, 1), ("0", "1/3"))
DATA = QPData((POINT,))


def _examples():
    """(record, an equal record built another way, a different record, repr)."""
    return [
        (
            POINT,
            FlagPoint(weights=[F(0), F(1, 3)], mults=[1, 1]),
            FlagPoint((1, 1), ("0", "1/2")),
            "FlagPoint(mults=(1, 1), weights=(Fraction(0, 1), Fraction(1, 3)))",
        ),
        (
            DATA,
            _derived([((1, 1), (F(0), F(1, 3)))]),
            make_data([((2,), ("0",))]),
            "QPData(points=(FlagPoint(mults=(1, 1), weights=(Fraction(0, 1), "
            "Fraction(1, 3))),))",
        ),
        (
            Instance(2, 1, DATA),
            Instance(genus=2, degree=1, data=make_data([((1, 1), ("0", "1/3"))])),
            Instance(2, 0, DATA),
            "Instance(genus=2, degree=1, data=QPData(points=(FlagPoint(mults=(1, 1), "
            "weights=(Fraction(0, 1), Fraction(1, 3))),)))",
        ),
        (
            CountExpr(),
            CountExpr(0, 0, ((2, 1), (2, -1)), 0, LaurentPoly.one()),
            CountExpr(q_power=1),
            "CountExpr(q_power=0, qminus1_power=0, zeta=(), jac_power=0, "
            "poly=LaurentPoly(1*t^0))",
        ),
        (
            Rank2Profile((F(-1, 3),), 1, 2),
            Rank2Profile(deltas=(F(-1, 3),), degree=1, genus=2),
            Rank2Profile((F(-1, 3),), 1, 3),
            "Rank2Profile(deltas=(Fraction(-1, 3),), degree=1, genus=2)",
        ),
        (
            BettiResult(0, LaurentPoly.one(), (1,), False, True, "closed"),
            BettiResult(dim=0, poly=LaurentPoly({0: 1}), betti=(1,), empty=False,
                        ss_eq_stable=True, method="closed"),
            BettiResult(0, LaurentPoly.one(), (1,), False, True, "qclosed"),
            "BettiResult(dim=0, poly=LaurentPoly(1*t^0), betti=(1,), empty=False, "
            "ss_eq_stable=True, method='closed')",
        ),
    ]


@pytest.mark.parametrize("rec, same, other, text", _examples())
def test_record_values(rec, same, other, text):
    assert rec == same and hash(rec) == hash(same)
    assert rec != other
    assert rec.__eq__(text) is NotImplemented
    assert rec != tuple(getattr(rec, name) for name in type(rec).__slots__)
    assert repr(rec) == text
    # slots only: a record carries no per-instance dict
    assert not hasattr(rec, "__dict__")
    for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is type(rec) and back == rec and hash(back) == hash(rec)
    field = type(rec).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, None)
    with pytest.raises(AttributeError):
        delattr(rec, field)
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert rec == same


def test_count_expr_defaults_and_zeta_normal_form():
    expr = CountExpr(zeta=[(3, 1), (2, 2), (3, -1), ("2", "1")])
    assert expr.zeta == ((2, 3),)
    assert (expr.q_power, expr.qminus1_power, expr.jac_power) == (0, 0, 0)
    assert expr.poly == LaurentPoly.one()
    assert CountExpr(poly=LaurentPoly.zero()).poly.is_zero()


@pytest.mark.parametrize("build, exc, message", [
    (lambda: FlagPoint((1, 1.0), (0, F(1, 2))), TypeError,
     "multiplicities must be ints, got (1, 1.0)"),
    (lambda: FlagPoint((1, 1), (0, 0.5)), TypeError, "weight must be exact, got float"),
    (lambda: FlagPoint((1, 1), (0,)), ValueError,
     "mults and weights must be nonempty and equally long"),
    (lambda: FlagPoint((), ()), ValueError,
     "mults and weights must be nonempty and equally long"),
    (lambda: FlagPoint((1, -1), (0, F(1, 2))), ValueError, "multiplicities must be >= 0"),
    (lambda: FlagPoint((1, 1), (0, 1)), ValueError, "weight 1 outside [0, 1)"),
    (lambda: FlagPoint((1, 1), (F(1, 2), F(1, 2))), ValueError,
     "weights must be strictly increasing"),
    (lambda: QPData(()), ValueError, "data needs at least one marked point"),
    (lambda: QPData((POINT, FlagPoint((1,), (0,)))), ValueError,
     "points have different ranks [1, 2]"),
    (lambda: QPData((FlagPoint((0,), (0,)),)), ValueError, "rank must be >= 1"),
    (lambda: Instance(-1, 0, DATA), ValueError, "genus must be a non-negative integer"),
    (lambda: Instance(True, 0, DATA), ValueError, "genus must be a non-negative integer"),
    (lambda: Instance(1, 0.0, DATA), ValueError, "degree must be an integer"),
    (lambda: CountExpr(zeta=((0, 1),)), ValueError, "zeta atom index must be >= 1"),
    (lambda: Rank2Profile((-0.5,), 1, 2), ValueError, "gaps must be Fractions"),
    (lambda: Rank2Profile((F(1, 3),), 1, 2), ValueError, "gap 1/3 outside (-1, 0)"),
    (lambda: Rank2Profile((F(-1),), 1, 2), ValueError, "gap -1 outside (-1, 0)"),
])
def test_record_validation(build, exc, message):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message
