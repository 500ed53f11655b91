"""Exact p-adic slopes of Hecke eigenvalues on Gamma_0 levels.

Two independent engines compute det(1 - T_p X) on S_k(Gamma_0(M)): a
weight-k modular symbols presentation restricted to the cuspidal plus
subspace, and the Eichler-Selberg trace formula on the new subspaces,
where a Gram matrix of Hecke traces gives T_p and the Faddeev-LeVerrier
recurrence its characteristic polynomial.  On top of them sit Newton
polygon slope extraction, low-weight regularity verdicts, the
level-raising slope assembly, and bounded searches for fractional slopes
strictly between 0 and 1.

The names below are exported lazily (PEP 562): importing the package
loads none of its modules, and each name loads its own module on first
access, so `import heckeslopes.cli` pays only for what the command uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "cache": ("CacheRecord", "CharpolyCache", "operator_label"),
    "dimensions": ("dim_cuspforms", "dim_new_at_p", "genus"),
    "errors": ("ConsistencyError", "TraceBudgetExceeded"),
    "exact": ("IntPolynomial", "SlopeMultiset", "inverse_charpoly", "newton_slopes",
              "valuation"),
    "modsym": ("charpoly_cuspidal", "plus_quotient"),
    "slopes": ("HeckeContext", "RegularityVerdict", "UpSlopeAssembly", "Witness",
               "default_witness_bound", "find_fractional_witness", "is_regular",
               "refinement_pair", "regularity_weight_range", "tp_slopes",
               "up_assembly", "up_slopes_direct", "witness_label"),
    "survey": ("COLUMNS", "CSV_HEADER", "ReportRow", "SurveyConfig", "SurveyResult",
               "compute_pair", "render_report", "run_survey"),
    "traceforms": ("charpoly_from_traces", "charpolys_from_traces", "trace_feasible",
                   "trace_tn"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(import_module("." + module, __name__), name)
