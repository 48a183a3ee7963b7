"""Independent rank-2 route: subset sum over flagged points.

Works directly from the weight gaps at the flagged points, with no partition
machinery, so it cross-checks the general engines on rank-2 input.
"""

import math
from fractions import Fraction
from itertools import combinations

from .laurent import LaurentPoly, Record, one_plus
from .parabolic import canonical_form
from .ratfunc import FactoredRatFunc
from .result import IntegralPsi, result_from_poly


class Rank2Profile(Record):
    """Rank-2 input reduced to what the subset-sum route consumes.

    deltas: per flagged point, low weight minus high weight, in (-1, 0).
    """

    __slots__ = ("deltas", "degree", "genus")

    def __init__(self, deltas, degree, genus):
        for delta in deltas:
            if not isinstance(delta, Fraction):
                raise ValueError("gaps must be Fractions")
            if not (-1 < delta < 0):
                raise ValueError(f"gap {delta} outside (-1, 0)")
        Record.__init__(self, deltas, degree, genus)

    @property
    def num_flagged(self):
        return len(self.deltas)

    @property
    def dim(self):
        return self.num_flagged + 3 * (self.genus - 1)


def profile_from_instance(instance):
    """Extract the gap profile from a rank-2 instance.

    Unflagged points (single multiplicity 2) carry no data and are dropped.
    Raises ValueError when the data is not rank 2 with full or trivial flags.
    """
    data = canonical_form(instance.data)
    if data.rank != 2:
        raise ValueError("rank-2 route needs rank-2 data")
    deltas = []
    for pt in data.points:
        if pt.mults == (2,):
            continue
        if pt.mults != (1, 1):
            raise ValueError(f"unexpected rank-2 flag shape {pt.mults}")
        deltas.append(pt.weights[0] - pt.weights[1])
    return Rank2Profile(tuple(deltas), instance.degree, instance.genus)


def _subset_exponents(profile):
    """e_I = genus + |I| + floor(psi_I) + parity term, for every subset I.

    psi_I flips the sign of the gap at points outside I.  Integral psi_I is
    rejected: the moduli space then has strictly semistable points for half
    the degrees and the route is invalid as stated.
    """
    deltas = profile.deltas
    g = profile.genus
    d = profile.degree
    exps = []
    for size in range(len(deltas) + 1):
        for chosen in combinations(range(len(deltas)), size):
            inside = set(chosen)
            psi = Fraction(0)
            for i, delta in enumerate(deltas):
                psi += delta if i in inside else -delta
            if psi.denominator == 1:
                raise IntegralPsi(
                    f"signed gap sum {psi} is integral for subset {chosen}"
                )
            fl = math.floor(psi)
            parity = 1 if (d + fl) % 2 == 0 else 0
            exps.append(g + size + fl + parity)
    return exps


def exists_stable_rank2(profile):
    """True when the moduli space is nonempty.

    At positive genus every subset exponent is at least the genus, so the
    constant coefficient is 1 and the space is never empty.  At genus zero
    emptiness happens exactly when some subset exponent vanishes.
    """
    if profile.genus >= 1:
        _subset_exponents(profile)  # still reject integral gap sums
        return True
    return all(e > 0 for e in _subset_exponents(profile))


def poincare_rank2(profile):
    g = profile.genus
    npts = profile.num_flagged
    subset_poly = LaurentPoly.zero()
    for e in _subset_exponents(profile):
        subset_poly = subset_poly + LaurentPoly.t_power(2 * e)
    numer = one_plus(2) ** npts * one_plus(3) ** (2 * g)
    numer = numer - subset_poly * one_plus(1) ** (2 * g)
    func = FactoredRatFunc(0, numer, {4: -1, 2: -1})
    poly = func.to_laurent_poly()
    return result_from_poly(poly, profile.dim, "rank2", True)


_REGION_TAGS = {
    1: "one_point",
    2: "two_points",
    3: ("three_points_outer", "three_points_inner"),
    4: ("four_points_outer", "four_points_inner"),
}


def rank2_case(deltas):
    """Classify a gap tuple into one of the six closed-form families.

    For 3 and 4 points the family depends on which chamber the gaps lie in;
    gaps sitting on the chamber wall have no single closed form and raise.
    In the outer chambers the named form is the even-degree polynomial;
    odd degrees there produce the matching inner form instead.  The inner
    chambers are degree-independent, as are one and two points.
    """
    k = len(deltas)
    if k not in _REGION_TAGS:
        raise ValueError(f"no closed-form family for {k} flagged points")
    if k in (1, 2):
        return _REGION_TAGS[k]
    ds = sorted(deltas)
    if k == 3:
        low = ds[0] + ds[1] + ds[2]
        high = -ds[0] + ds[1] + ds[2]
    else:
        low = ds[0] + ds[1] + ds[2] - ds[3]
        high = -ds[0] + ds[1] + ds[2] + ds[3]
    if low == -2 or high == 0:
        raise ValueError("gaps lie on a chamber wall")
    outer, inner = _REGION_TAGS[k]
    if low < -2 or high > 0:
        return outer
    return inner


def family_formula(tag, genus):
    """Closed form for each family, as a rational function of t."""
    g = genus
    tp = LaurentPoly.t_power
    core = one_plus(3) ** (2 * g) - tp(2 * g) * one_plus(1) ** (2 * g)
    if tag == "one_point":
        numer = core
    elif tag == "two_points":
        numer = one_plus(2) * core
    elif tag == "three_points_outer":
        numer = one_plus(2) ** 2 * core
    elif tag == "three_points_inner":
        numer = one_plus(2) ** 2 * one_plus(3) ** (2 * g) - tp(
            2 * g + 2, 4
        ) * one_plus(1) ** (2 * g)
    elif tag == "four_points_outer":
        numer = one_plus(2) ** 3 * core
    elif tag == "four_points_inner":
        numer = one_plus(2) ** 3 * one_plus(3) ** (2 * g) - tp(
            2 * g + 2, 4
        ) * one_plus(2) * one_plus(1) ** (2 * g)
    else:
        raise ValueError(f"unknown family tag {tag!r}")
    return FactoredRatFunc(0, numer, {2: -2})
