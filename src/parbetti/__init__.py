"""Exact Betti numbers of moduli of parabolic stable bundles on curves.

The public names below load their module on first access (PEP 562), so
importing one submodule, such as ``parbetti.cli``, loads no other.
"""

import importlib

# module -> the public names it defines, in the order of ``__all__``
_MODULES = {
    "laurent": (
        "MAX_TRUNCATION", "LaurentPoly", "LaurentSeries", "NonDivisible",
        "TruncationLimit", "TruncationTooSmall", "one_plus",
    ),
    "ratfunc": ("FactoredRatFunc",),
    "parabolic": (
        "FlagPoint", "Instance", "QPData", "canonical_form", "flag_dim", "make_data",
        "moduli_dim", "slope_coincidence_witness", "ss_equals_stable",
    ),
    "result": ("BettiResult", "NonPolynomialResult", "result_from_poly", "IntegralPsi"),
    "rank2": (
        "Rank2Profile", "exists_stable_rank2", "family_formula", "poincare_rank2",
        "profile_from_instance", "rank2_case",
    ),
    "engine": (
        "METHODS", "MethodInapplicable", "StrictSemistable", "applicable_methods",
        "compare_methods", "compute", "poincare_closed", "poincare_qclosed",
    ),
    "recursion": ("recursion_poincare", "siegel_check"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = list(_EXPORTS)
