"""Exact p-adic slopes of Hecke eigenvalues on Gamma_0 levels.

Two independent engines compute det(1 - T_p X) on S_k(Gamma_0(M)): a
weight-k modular symbols presentation restricted to the cuspidal plus
subspace, and the Eichler-Selberg trace formula on the new subspaces,
where a Gram matrix of Hecke traces gives T_p and the Faddeev-LeVerrier
recurrence its characteristic polynomial.  On top of them sit Newton
polygon slope extraction, low-weight regularity verdicts, the
level-raising slope assembly, and bounded searches for fractional slopes
strictly between 0 and 1.
"""

from .cache import CacheRecord, CharpolyCache, operator_label
from .dimensions import dim_cuspforms, dim_new_at_p, genus
from .errors import ConsistencyError, TraceBudgetExceeded
from .exact import (INFINITY, IntPolynomial, NewtonPolygon, SlopeMultiset,
                    inverse_charpoly, newton_slopes, valuation)
from .modsym import charpoly_cuspidal, plus_quotient
from .slopes import (HeckeContext, P2Report, RegularityVerdict, UpSlopeAssembly,
                     Witness, default_witness_bound, find_fractional_witness,
                     is_regular, p2_refinement_check, refinement_pair,
                     regularity_weight_range, tp_slopes, up_assembly,
                     up_slopes_direct, witness_label)
from .survey import (COLUMNS, CSV_HEADER, ReportRow, SurveyConfig, SurveyResult,
                     compute_pair, render_report, run_survey)
from .traceforms import (ClassNumberTable, charpoly_from_traces, default_table,
                         trace_feasible, trace_tn)

__version__ = "0.1.0"

__all__ = [
    "CacheRecord", "CharpolyCache", "operator_label",
    "dim_cuspforms", "dim_new_at_p", "genus",
    "ConsistencyError", "TraceBudgetExceeded",
    "INFINITY", "IntPolynomial", "NewtonPolygon", "SlopeMultiset",
    "inverse_charpoly", "newton_slopes", "valuation",
    "charpoly_cuspidal", "plus_quotient",
    "HeckeContext", "P2Report", "RegularityVerdict", "UpSlopeAssembly",
    "Witness", "default_witness_bound", "find_fractional_witness",
    "is_regular", "p2_refinement_check",
    "refinement_pair", "regularity_weight_range", "tp_slopes", "up_assembly",
    "up_slopes_direct", "witness_label",
    "COLUMNS", "CSV_HEADER", "ReportRow", "SurveyConfig", "SurveyResult",
    "compute_pair", "render_report", "run_survey",
    "ClassNumberTable", "charpoly_from_traces", "default_table",
    "trace_feasible", "trace_tn",
    "__version__",
]
