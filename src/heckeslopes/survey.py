"""Regularity/witness surveys over (p, N) grids and report rendering.

Rows always come out in (p, N) order regardless of how they were
computed, and rendering never consults clocks, locales, or paths, so a
survey report is byte-identical across runs.  The caller owns the
charpoly store (a CharpolyCache, which also picks the engine) and its
file; the store can change how fast a report appears but never its
content.
"""

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .cache import CharpolyCache
from .slopes import default_witness_bound, find_fractional_witness, is_regular

log = logging.getLogger(__name__)

CSV_HEADER = "p,N,verdict,j,witness_k,witness_slope,prediction_match,status"
FORMATS = ("csv", "jsonl", "text")


@dataclass(frozen=True)
class SurveyConfig:
    primes: tuple
    levels: tuple
    k_max: int = 0  # 0 means the per-pair default bound
    workers: int = 1


@dataclass(frozen=True)
class ReportRow:
    p: int
    N: int
    verdict: str  # "regular" | "irregular"
    j: int = None
    witness_k: int = None
    witness_slope: Fraction = None
    prediction_match: bool = None
    status: str = "ok"  # "ok" | "inconclusive"


@dataclass
class SurveyResult:
    rows: list
    errors: list  # (p, N, kind, message), deterministic order
    skipped: list  # (p, N) pairs with p | N, never computed


def compute_pair(p, N, k_max=0, store=None):
    """One survey row: verdict, then witness search if irregular.

    Witness fields stay empty for a regular pair and for an irregular
    pair whose bounded search found nothing; the two cases differ in the
    status field.  store=None computes every polynomial afresh.
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


def _survey_worker(args):
    p, N, k_max, engine, seed = args
    local = CharpolyCache(engine=engine)
    local.merge(seed)
    try:
        row = compute_pair(p, N, k_max, local)
        return ("row", row, tuple(local.records.values()))
    except Exception as exc:  # quarantined by the caller
        return ("error", (p, N, type(exc).__name__, str(exc)),
                tuple(local.records.values()))


def run_survey(config, store=None):
    """Survey every admissible (p, N) pair of the config grid.

    Pairs with p | N are logged and skipped.  A failure in one pair is
    quarantined into the error section and the run continues.  When
    workers > 1 the pairs are farmed out to at most one process per
    pair; store, in the parent, merges whatever the workers computed.
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
                log.info("skipping (p=%d, N=%d): p divides N", p, N)
                skipped.append((p, N))
            else:
                pairs.append((p, N))
    result = SurveyResult([], [], skipped)
    if config.workers > 1 and pairs:
        jobs = []
        for p, N in pairs:
            seed = tuple(rec for key, rec in store.records.items()
                         if key[0] == p and key[1] in (N, N * p))
            jobs.append((p, N, config.k_max, store.engine, seed))
        with ProcessPoolExecutor(max_workers=min(config.workers, len(pairs))) as pool:
            for kind, payload, records in pool.map(_survey_worker, jobs):
                store.merge(records)
                if kind == "row":
                    result.rows.append(payload)
                else:
                    result.errors.append(payload)
    else:
        for p, N in pairs:
            try:
                result.rows.append(compute_pair(p, N, config.k_max, store))
            except Exception as exc:
                log.warning("pair (p=%d, N=%d) failed: %s", p, N, exc)
                result.errors.append((p, N, type(exc).__name__, str(exc)))
    result.rows.sort(key=lambda r: (r.p, r.N))
    result.errors.sort(key=lambda e: (e[0], e[1]))
    return result


# ----------------------------------------------------------------------
# Renderers.  All of them must be pure functions of the result.

def _cell(value):
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    return str(value)


def _row_cells(row):
    return [_cell(v) for v in (row.p, row.N, row.verdict, row.j, row.witness_k,
                               row.witness_slope, row.prediction_match, row.status)]


def render_csv(result):
    lines = [CSV_HEADER]
    lines.extend(",".join(_row_cells(row)) for row in result.rows)
    for p, N, kind, msg in result.errors:
        lines.append("# error p=%d N=%d %s: %s" % (p, N, kind, " ".join(msg.split())))
    return "\n".join(lines) + "\n"


def render_jsonl(result):
    import json

    lines = []
    for row in result.rows:
        slope = None if row.witness_slope is None else str(row.witness_slope)
        lines.append(json.dumps({
            "p": row.p, "N": row.N, "verdict": row.verdict, "j": row.j,
            "witness_k": row.witness_k, "witness_slope": slope,
            "prediction_match": row.prediction_match, "status": row.status,
        }))
    for p, N, kind, msg in result.errors:
        lines.append(json.dumps({"error": {"p": p, "N": N, "kind": kind, "message": msg}}))
    return "\n".join(lines) + "\n" if lines else ""


def render_text(result):
    header = CSV_HEADER.split(",")
    table = [header] + [_row_cells(row) for row in result.rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
             for line in table]
    if result.errors:
        lines.append("")
        lines.append("errors:")
        lines.extend("  (p=%d, N=%d) %s: %s" % e for e in result.errors)
    return "\n".join(lines) + "\n"


def render_report(result, fmt):
    if fmt == "csv":
        return render_csv(result)
    if fmt == "jsonl":
        return render_jsonl(result)
    if fmt == "text":
        return render_text(result)
    raise ValueError("format must be one of %r, got %r" % (FORMATS, fmt))
