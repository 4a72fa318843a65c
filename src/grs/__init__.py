"""Golay complementary pairs from the doubling recursion, exact
correlation spectra, low-memory peak scans, and exact verification of
peak-correlation bounds over the cubic field of X^3 + X^2 - 2X - 4."""

import importlib.util
import sys

# numpy loads on the first attribute access, so paths that build no array
# (exact field arithmetic, the identity and inequality suites, approx) never
# load it.  The array modules take it as ``from . import np``: on Python 3.11
# ``import numpy`` reads ``__spec__`` of the module already in sys.modules,
# and that read alone would load it.  LazyLoader is not thread-safe before
# Python 3.12; grs starts no threads.
if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)

# Public names by home module, imported on first access (PEP 562).
_EXPORTS = {
    "bounds": "BoundVerdict ShiftSeq e_constants entry_index generic_prefactor "
    "identity_suite inequality_suite lily_predict nestor_cecilia_check "
    "standard_shift verify_generic_bound verify_rs_bounds verify_rs_lower_bounds",
    "correlation": "Spectrum crosscorr demerit_auto demerit_cross pcc periodic_corr psl spectrum",
    "fastscan": "AbgdTable PeakReport abgd coeff_by_geoff coeff_by_iteration derrel_bound "
    "nellie_bound psl_report streaming_peaks",
    "field": "KElem QAlphaElem alpha_pow compare decimal_approx k_div min_poly_of "
    "reduce_poly signifier",
    "qcomplex": "CQ",
    "sequences": "BudgetExceeded GolayPair SeedPair Sequence grs_pair grs_step read_sequence "
    "rudin_shapiro rudin_shapiro_seed validate_seed write_sequence",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
