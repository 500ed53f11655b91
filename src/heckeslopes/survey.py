"""Regularity/witness surveys over (p, N) grids, and the one report renderer.

compute_pair is the one route from a (p, N) pair to a report row: the
regularity verdict, the least violating weight j, the witness search
bound (k_max, or default_witness_bound when k_max is 0), the witness and
its match against {j, j + (p-1)}.  The witness and survey commands and
every library caller go through it.

Rows always come out in (p, N) order regardless of how they were
computed, and rendering never consults clocks, locales, or paths, so a
survey report is byte-identical across runs.  The caller owns the
charpoly store (a CharpolyCache, which also picks the engine) and its
file; the store can change how fast a report appears but never its
content.

render_report writes every row-shaped report of the command line
(survey, witness, and the csv/jsonl forms of regularity and slopes):
the caller names the columns and passes rows of plain values, and
_cell alone decides how a value is spelled in each format.
"""

from fractions import Fraction
from typing import NamedTuple

from .cache import CharpolyCache
from .exact import SlopeMultiset
from .slopes import default_witness_bound, find_fractional_witness, is_regular

__all__ = [
    "COLUMNS", "CSV_HEADER", "FORMATS", "ReportRow", "SurveyConfig", "SurveyResult",
    "compute_pair", "render_report", "run_survey",
]

COLUMNS = ("p", "N", "verdict", "j", "witness_k", "witness_slope", "prediction_match",
           "status")
CSV_HEADER = ",".join(COLUMNS)
FORMATS = ("csv", "jsonl", "text")


class SurveyConfig(NamedTuple):
    primes: tuple
    levels: tuple
    k_max: int = 0  # 0 means the per-pair default bound
    workers: int = 1


class ReportRow(NamedTuple):
    p: int
    N: int
    verdict: str  # "regular" | "irregular"
    j: int = None
    witness_k: int = None
    witness_slope: Fraction = None
    prediction_match: bool = None
    status: str = "ok"  # "ok" | "inconclusive"


class SurveyResult(NamedTuple):
    rows: list
    errors: list  # (p, N, kind, message), deterministic order
    skipped: list  # (p, N) pairs with p | N, never computed


def compute_pair(p, N, k_max=0, store=None):
    """One survey row: verdict, then witness search up to k_max if irregular.

    k_max = 0 searches to default_witness_bound(p, j).  Witness fields
    stay empty for a regular pair and for an irregular pair whose
    bounded search found nothing; the two cases differ in the status
    field.  store=None computes every polynomial afresh.
    """
    verdict = is_regular(p, N, store)
    if verdict.regular:
        return ReportRow(p, N, "regular")
    j = verdict.j
    bound = k_max if k_max else default_witness_bound(p, j)
    witness = find_fractional_witness(p, N, bound, store)
    if witness is None:
        return ReportRow(p, N, "irregular", j=j, status="inconclusive")
    return ReportRow(p, N, "irregular", j=j, witness_k=witness.k,
                     witness_slope=witness.slope,
                     prediction_match=witness.k in (j, j + p - 1))


def _run_pair(p, N, k_max, store):
    """compute_pair's row, or a (p, N, kind, message) error tuple if it raised."""
    try:
        return compute_pair(p, N, k_max, store)
    except Exception as exc:  # quarantined into the report's error section
        return (p, N, type(exc).__name__, str(exc))


def _survey_worker(args):
    p, N, k_max, engine, seed = args
    local = CharpolyCache(engine=engine)
    local.merge(seed)
    return _run_pair(p, N, k_max, local), tuple(local.records.values())


def run_survey(config, store=None):
    """Survey every admissible (p, N) pair of the config grid.

    Pairs with p | N are skipped and listed in the result.  A failure in
    one pair is quarantined into the error section and the run continues.  When
    workers > 1 the pairs are farmed out to at most one process per
    pair; store, in the parent, merges whatever the workers computed.  If
    a worker dies, the pairs whose outcome never arrived become errors.
    store=None surveys with a fresh in-memory modsym store.  Flushing
    the store is the caller's business.
    """
    if store is None:
        store = CharpolyCache()
    pairs = []
    skipped = []
    for p in sorted(set(config.primes)):
        for N in sorted(set(config.levels)):
            if N % p == 0:
                skipped.append((p, N))
            else:
                pairs.append((p, N))
    if config.workers > 1 and pairs:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        jobs = []
        for p, N in pairs:
            seed = tuple(rec for key, rec in store.records.items()
                         if key[0] == p and key[1] == N)
            jobs.append((p, N, config.k_max, store.engine, seed))
        outcomes = []
        with ProcessPoolExecutor(max_workers=min(config.workers, len(pairs))) as pool:
            try:
                for outcome, records in pool.map(_survey_worker, jobs):
                    store.merge(records)
                    outcomes.append(outcome)
            except BrokenProcessPool as exc:
                outcomes += [(p, N, type(exc).__name__, str(exc))
                             for p, N in pairs[len(outcomes):]]
    else:
        outcomes = [_run_pair(p, N, config.k_max, store) for p, N in pairs]
    # pairs are in (p, N) order and pool.map keeps it
    rows = [o for o in outcomes if isinstance(o, ReportRow)]
    errors = [o for o in outcomes if not isinstance(o, ReportRow)]
    return SurveyResult(rows, errors, skipped)


# ----------------------------------------------------------------------
# The one report renderer.  It is a pure function of its arguments.

def _cell(value, fmt):
    """How one value is spelled in a cell of the given format."""
    if isinstance(value, SlopeMultiset):
        slopes = [str(s) for s in value.as_list()]
        return slopes if fmt == "jsonl" else ";".join(slopes)
    if isinstance(value, Fraction):
        return str(value)
    if fmt == "jsonl":
        return value  # json spells None, booleans and ints itself
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_report(columns, rows, fmt, errors=()):
    """Render rows of values under column names as csv, jsonl or text.

    csv is a header line and one comma-joined line per row, with errors
    as trailing "# error" comments; jsonl is one object per row and per
    error; text is a table aligned on the widest cell of each column,
    errors listed below it.  errors are (p, N, kind, message) tuples.
    """
    if fmt not in FORMATS:
        raise ValueError("format must be one of %r, got %r" % (FORMATS, fmt))
    if fmt == "jsonl":
        import json

        lines = [json.dumps({name: _cell(v, fmt) for name, v in zip(columns, row)})
                 for row in rows]
        lines.extend(json.dumps({"error": {"p": p, "N": N, "kind": kind, "message": msg}})
                     for p, N, kind, msg in errors)
        return "".join(line + "\n" for line in lines)
    table = [list(columns)] + [[_cell(v, fmt) for v in row] for row in rows]
    if fmt == "csv":
        lines = [",".join(line) for line in table]
        lines.extend("# error p=%d N=%d %s: %s" % (p, N, kind, " ".join(msg.split()))
                     for p, N, kind, msg in errors)
    else:
        widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
                 for line in table]
        if errors:
            lines.extend(["", "errors:"])
            lines.extend("  (p=%d, N=%d) %s: %s" % e for e in errors)
    return "\n".join(lines) + "\n"
