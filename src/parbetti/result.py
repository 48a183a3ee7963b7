"""Shared result type for the Betti computations and its sanity gate."""

from __future__ import annotations

from .laurent import Record


class NonPolynomialResult(ArithmeticError):
    """The assembled rational function is not a valid Betti polynomial.

    Signals either a transcription error in the formulas or an input whose
    preconditions (stability in particular) were forced past.
    """


class BettiResult(Record):
    __slots__ = ("dim", "poly", "betti", "empty", "ss_eq_stable", "method")

    def __init__(self, dim, poly, betti, empty, ss_eq_stable, method):
        Record.__init__(self, dim, poly, betti, empty, ss_eq_stable, method)

    def middle_betti(self):
        """Betti numbers up to the middle dimension, the table convention."""
        return self.betti[: self.dim + 1]


def result_from_poly(poly, dim, method, ss_eq_stable, enforce=True):
    """Wrap a certified polynomial, checking the moduli-space invariants.

    enforce=False skips the cohomological checks (used for forced runs on
    strictly semistable input, where they have no right to hold).
    """
    if poly.is_zero():
        betti = tuple([0] * (2 * dim + 1)) if dim >= 0 else ()
        return BettiResult(dim, poly, betti, True, ss_eq_stable, method)
    if poly.min_exp() < 0 or poly.max_exp() > 2 * dim:
        raise NonPolynomialResult(
            f"exponents [{poly.min_exp()}, {poly.max_exp()}] escape [0, {2 * dim}]"
        )
    betti = [poly.coeff(i) for i in range(2 * dim + 1)]
    if enforce:
        if betti[0] != 1:
            raise NonPolynomialResult(f"b_0 = {betti[0]} instead of 1")
        for i, b in enumerate(betti):
            if b < 0:
                raise NonPolynomialResult(f"negative Betti number b_{i} = {b}")
            if b != betti[2 * dim - i]:
                raise NonPolynomialResult(f"duality fails at b_{i}")
    return BettiResult(dim, poly, tuple(betti), False, ss_eq_stable, method)
