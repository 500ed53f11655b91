"""Tests for the survey layer and the command line front end.

The CLI contract: exit 0 on success, 1 on usage errors, 2 on any detected
mathematical inconsistency, 3 when an irregular pair only has an
inconclusive bounded witness search.  Reports are byte-identical across
runs and cache states.
"""

import csv
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path

import pytest

from heckeslopes import modsym, traceforms
from heckeslopes.cache import CacheRecord, CharpolyCache
from heckeslopes.cli import main
from heckeslopes.errors import ConsistencyError
from heckeslopes.exact import IntPolynomial
from heckeslopes.slopes import default_witness_bound, is_regular, witness_label
from heckeslopes.survey import (
    COLUMNS,
    CSV_HEADER,
    ReportRow,
    SurveyConfig,
    compute_pair,
    render_report,
    run_survey,
)

GOLDEN_11 = (
    "p,N,verdict,j,witness_k,witness_slope,prediction_match,status\n"
    "2,11,irregular,2,2,1/2,true,ok\n"
    "3,11,regular,,,,,ok\n"
)


def render(result, fmt):
    """A survey result through the one renderer, as the survey command calls it."""
    return render_report(COLUMNS, result.rows, fmt, result.errors)


def test_csv_header_is_frozen():
    assert CSV_HEADER == "p,N,verdict,j,witness_k,witness_slope,prediction_match,status"


def test_compute_pair_irregular():
    row = compute_pair(2, 11)
    assert row == ReportRow(2, 11, "irregular", j=2, witness_k=2,
                            witness_slope=Fraction(1, 2),
                            prediction_match=True, status="ok")
    assert witness_label(row.p, row.j, row.witness_k) == "k = j"
    assert witness_label(row.p, row.j, 3) == "k = j + (p-1)"  # predicted {2, 3}
    # survey workers send rows between processes, and a row is read-only
    assert pickle.loads(pickle.dumps(row)) == row
    with pytest.raises(AttributeError):
        row.status = "inconclusive"


def test_compute_pair_regular():
    row = compute_pair(3, 11)
    assert row.verdict == "regular" and row.status == "ok"
    assert row.j is None and row.witness_k is None
    assert row.witness_slope is None and row.prediction_match is None


def test_compute_pair_inconclusive():
    # bound too small to reach the witness: fields stay empty, status says why
    row = compute_pair(59, 1, k_max=2)
    assert row.verdict == "irregular" and row.j == 16
    assert row.status == "inconclusive"
    assert row.witness_k is None and row.witness_slope is None
    assert row.prediction_match is None
    # (2,13) is irregular with fractional slopes (3/2 in weight 8) but no
    # slope inside (0,1) through weight 14
    row = compute_pair(2, 13, k_max=14)
    assert row.verdict == "irregular" and row.status == "inconclusive"


def test_compute_pair_zero_means_the_default_bound():
    for p, N in [(2, 11), (3, 7)]:  # irregular, regular
        j = is_regular(p, N).j
        assert compute_pair(p, N, 0) == compute_pair(p, N, default_witness_bound(p, j))


def test_compute_pair_reads_and_fills_the_store():
    s = CharpolyCache()
    compute_pair(2, 11, store=s)
    assert {(rec.level, rec.operator) for rec in s.records.values()} == {(11, "T")}
    hits, misses = s.hits, s.misses
    assert compute_pair(2, 11, store=s) == compute_pair(2, 11)
    assert s.hits > hits and s.misses == misses
    with pytest.raises(ValueError):
        CharpolyCache(engine="bogus")


def test_witness_fields_empty_iff_regular_or_inconclusive():
    cfg = SurveyConfig(primes=(2, 3, 5), levels=(1, 11, 13), k_max=10)
    for row in run_survey(cfg).rows:
        empty = row.witness_k is None
        assert empty == (row.verdict == "regular" or row.status == "inconclusive")


def test_run_survey_order_and_skips():
    cfg = SurveyConfig(primes=(3, 2), levels=(13, 12, 11), k_max=10)
    result = run_survey(cfg)
    assert [(r.p, r.N) for r in result.rows] == [(2, 11), (2, 13), (3, 11), (3, 13)]
    assert result.skipped == [(2, 12), (3, 12)]
    assert result.errors == []


def test_run_survey_quarantines_failures(monkeypatch):
    real = compute_pair

    def flaky(p, N, k_max=0, store=None):
        if (p, N) == (2, 13):
            raise ConsistencyError("fabricated failure")
        return real(p, N, k_max, store)

    monkeypatch.setattr("heckeslopes.survey.compute_pair", flaky)
    result = run_survey(SurveyConfig(primes=(2,), levels=(11, 13), k_max=10))
    assert [(r.p, r.N) for r in result.rows] == [(2, 11)]
    assert result.errors == [(2, 13, "ConsistencyError", "fabricated failure")]


def test_render_csv_golden():
    result = run_survey(SurveyConfig(primes=(2, 3), levels=(11,)))
    assert render(result, "csv") == GOLDEN_11


def test_render_csv_includes_errors_as_comments():
    result = run_survey(SurveyConfig(primes=(2,), levels=(11,)))
    result.errors.append((5, 7, "ConsistencyError", "multi\nline  message"))
    out = render(result, "csv")
    assert out.endswith("# error p=5 N=7 ConsistencyError: multi line message\n")


def test_render_jsonl():
    result = run_survey(SurveyConfig(primes=(2, 3), levels=(11,)))
    lines = [json.loads(l) for l in render(result, "jsonl").splitlines()]
    assert lines[0] == {"p": 2, "N": 11, "verdict": "irregular", "j": 2,
                        "witness_k": 2, "witness_slope": "1/2",
                        "prediction_match": True, "status": "ok"}
    assert lines[1]["verdict"] == "regular" and lines[1]["witness_slope"] is None


def test_render_text():
    result = run_survey(SurveyConfig(primes=(2,), levels=(11,)))
    out = render(result, "text")
    head, row = out.splitlines()[:2]
    assert head.split()[:3] == ["p", "N", "verdict"]
    assert row.split() == ["2", "11", "irregular", "2", "2", "1/2", "true", "ok"]


def test_render_report_rejects_unknown_format():
    result = run_survey(SurveyConfig(primes=(2,), levels=(1,)))
    with pytest.raises(ValueError):
        render(result, "yaml")


def test_cold_and_warm_runs_are_byte_identical(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cfg = SurveyConfig(primes=(2, 3), levels=(11, 13), k_max=10)
    with CharpolyCache(path) as store:
        cold = render(run_survey(cfg, store), "csv")
    assert os.path.exists(path)
    with open(path) as fh:
        stored = fh.read()
    assert stored.strip()
    with CharpolyCache(path) as store:
        warm = render(run_survey(cfg, store), "csv")
    assert cold == warm
    # warm run served from cache without rewriting different bytes
    with open(path) as fh:
        assert fh.read() == stored


def test_warm_run_hits_cache(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    cfg = SurveyConfig(primes=(2,), levels=(11,))
    with CharpolyCache(path) as store:
        run_survey(cfg, store)
    warm_cache = CharpolyCache(path)
    run_survey(cfg, warm_cache)
    assert warm_cache.hits > 0 and warm_cache.misses == 0


def test_parallel_survey_matches_serial(tmp_path):
    grid = dict(primes=(2, 3), levels=(11, 13, 15), k_max=8)
    serial = run_survey(SurveyConfig(**grid))
    par = run_survey(SurveyConfig(workers=2, **grid))
    assert serial.rows == par.rows
    assert serial.errors == par.errors


def test_trace_reports_need_no_modsym(monkeypatch, capsys):
    # every report reads level-N T_p polynomials through the chosen engine,
    # so --engine trace gives the modsym bytes without one modsym charpoly
    witness = ["witness", "--p", "2", "--N", "11", "--cache", ""]
    survey = ["survey", "--p", "2,3,5,7", "--N", "1-20", "--k-max", "12", "--cache", ""]
    assert main(witness) == 0
    witness_out = capsys.readouterr().out
    assert "1/2" in witness_out
    assert main(survey) == 3
    survey_out = capsys.readouterr().out

    def refuse(k, N, p):
        raise AssertionError("modsym charpoly at (k=%d, N=%d, p=%d)" % (k, N, p))

    monkeypatch.setattr("heckeslopes.modsym.charpoly_cuspidal", refuse)
    assert main(witness + ["--engine", "trace"]) == 0
    assert capsys.readouterr().out == witness_out
    assert main(survey + ["--engine", "trace"]) == 3
    assert capsys.readouterr().out == survey_out


def test_pool_is_no_larger_than_the_grid(monkeypatch):
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    result = run_survey(SurveyConfig(primes=(2,), levels=(11,), workers=64))
    assert sizes == [1]
    assert render(result, "csv") == "%s\n2,11,irregular,2,2,1/2,true,ok\n" % CSV_HEADER
    run_survey(SurveyConfig(primes=(2, 3), levels=(11, 13, 15), k_max=4, workers=4))
    assert sizes == [1, 4]


def test_dead_worker_quarantines_the_missing_pairs(monkeypatch, tmp_path, capsys):
    class DyingPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            # one outcome arrives, then the pool breaks as a killed worker breaks it
            yield fn(next(iter(jobs)))
            raise BrokenProcessPool("fabricated death")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", DyingPool)
    store = CharpolyCache()
    result = run_survey(SurveyConfig(primes=(2,), levels=(11, 13, 15), k_max=4, workers=2),
                        store)
    assert render(result, "csv") == (
        "%s\n2,11,irregular,2,2,1/2,true,ok\n"
        "# error p=2 N=13 BrokenProcessPool: fabricated death\n"
        "# error p=2 N=15 BrokenProcessPool: fabricated death\n" % CSV_HEADER)
    assert store.records and {key[:2] for key in store.records} <= {(2, 11), (2, 22)}
    # the command line prints the same report and its store keeps what arrived
    path = tmp_path / "cache.jsonl"
    code = main(["survey", "--p", "2", "--N", "11,13,15", "--k-max", "4",
                 "--workers", "2", "--cache", str(path)])
    assert code == 2  # pairs were lost
    assert capsys.readouterr().out == render(result, "csv")
    assert CharpolyCache(str(path)).records == store.records


# ----------------------------------------------------------------------
# CLI


def test_cli_survey_golden(capsys):
    assert main(["survey", "--p", "2,3", "--N", "11", "--cache", ""]) == 0
    assert capsys.readouterr().out == GOLDEN_11


def test_cli_survey_both_engines_at_level_32(capsys):
    # 32 = 2^5: the trace engine referees modsym here as at every level
    code = main(["survey", "--p", "3,5,7", "--N", "32", "--k-max", "8",
                 "--engine", "both", "--cache", ""])
    assert code == 0
    assert capsys.readouterr().out == (
        "%s\n3,32,irregular,2,2,1/2,true,ok\n"
        "5,32,irregular,4,8,1/2,true,ok\n"
        "7,32,irregular,2,2,1/2,true,ok\n" % CSV_HEADER)


def test_cli_survey_inconclusive_exit(capsys):
    code = main(["survey", "--p", "59", "--N", "1", "--k-max", "2",
                 "--cache", ""])
    assert code == 3
    out = capsys.readouterr().out
    assert "59,1,irregular,16,,,,inconclusive" in out


def test_cli_survey_quarantine_exit(monkeypatch, capsys):
    def boom(p, N, k_max=0, store=None):
        raise ConsistencyError("fabricated")

    monkeypatch.setattr("heckeslopes.survey.compute_pair", boom)
    code = main(["survey", "--p", "2", "--N", "11", "--cache", ""])
    assert code == 2
    assert "# error p=2 N=11 ConsistencyError: fabricated" in capsys.readouterr().out

    # a pair lost to any other exception is no success either
    def crash(p, N, k_max=0, store=None):
        raise RuntimeError("fabricated")

    monkeypatch.setattr("heckeslopes.survey.compute_pair", crash)
    code = main(["survey", "--p", "2", "--N", "11", "--cache", ""])
    assert code == 2
    assert "# error p=2 N=11 RuntimeError: fabricated" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["witness", "slopes"])
def test_cli_arithmetic_error_exits_2(command, monkeypatch, capsys):
    # a non-integral coefficient is an inconsistency, as survey counts it
    def boom(k, N, p):
        raise ArithmeticError("fabricated")

    monkeypatch.setattr("heckeslopes.modsym.charpoly_cuspidal", boom)
    assert main([command, "--p", "2", "--N", "11", "--cache", ""]) == 2
    assert "inconsistency: fabricated" in capsys.readouterr().err


def test_cli_negative_new_dimension_exits_2(monkeypatch, capsys):
    # up_assembly takes the p-new dimension from dim_new_at_p alone
    monkeypatch.setattr("heckeslopes.dimensions.dim_cuspforms",
                        lambda k, N: 1 if N == 11 else 0)
    assert main(["slopes", "--p", "3", "--N", "11", "--k-max", "2", "--cache", ""]) == 2
    assert "negative p-new dimension" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["survey", "--N", "11"])  # --p missing
    assert ei.value.code == 1
    assert main(["survey", "--p", "junk", "--N", "11", "--cache", ""]) == 1
    assert main(["survey", "--p", "0,2", "--N", "11", "--cache", ""]) == 1
    assert main(["regularity", "--p", "4", "--N", "11", "--cache", ""]) == 1
    assert main(["survey", "--p", "2", "--N", "11", "--workers", "0", "--cache", ""]) == 1
    with pytest.raises(SystemExit) as ei:
        main(["crosscheck", "--format", "csv"])  # crosscheck has one report format
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["nonsense"])
    assert ei.value.code == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    # a negative bound covers no weight, which must not read as a result
    ["witness", "--p", "2", "--N", "11", "--k-max", "-4"],  # "inconclusive"
    ["survey", "--p", "2", "--N", "11", "--k-max", "-4"],
    ["crosscheck", "--p", "2", "--N", "1-3", "--k-max", "-2"],  # was an empty-grid PASS
    ["slopes", "--p", "2", "--N", "11", "--k-max", "-4", "--format", "csv"],  # was a bare header
    ["crosscheck", "--p", "2", "--N", "1-3", "--direct-cap", "-1"],  # was "beyond dim cap -1"
])
def test_cli_negative_weight_bound_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv + ["--cache", ""])
    assert ei.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize("argv, bad", [
    (["crosscheck", "--p", "1", "--N", "1-5", "--k-max", "6"], 1),  # was an empty-grid PASS
    (["survey", "--p", "1,2", "--N", "3"], 1),  # was "p divides N", exit 0
    (["survey", "--p", "4", "--N", "1"], 4),  # was a quarantined pair, exit 2
    (["crosscheck", "--p", "4,2", "--N", "3", "--k-max", "4"], 4),  # p = 2 ran first
])
def test_cli_rejects_a_non_prime_p_before_any_pair(argv, bad, monkeypatch, capsys):
    reached = []

    def record(*args, **kwargs):
        reached.append(args)
        raise AssertionError("a pair was computed")

    monkeypatch.setattr("heckeslopes.survey.compute_pair", record)
    monkeypatch.setattr("heckeslopes.cli.trace_feasible", record)
    assert main(argv + ["--cache", ""]) == 1
    assert reached == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p must be prime, got %d\n" % bad


def test_cli_unusable_cache_path_is_a_usage_error(tmp_path, capsys):
    assert main(["witness", "--p", "2", "--N", "11", "--cache", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


def test_cli_broken_pipe_still_exits_0(monkeypatch, capsys):
    # BrokenPipeError is an OSError: the cache-path clause must not catch it
    def closed(text):
        raise BrokenPipeError

    monkeypatch.setattr("heckeslopes.cli._print", closed)
    assert main(["regularity", "--p", "2", "--N", "11", "--cache", ""]) == 0
    assert capsys.readouterr().err == ""


def test_cli_regularity_text(capsys):
    assert main(["regularity", "--p", "2", "--N", "11", "--cache", ""]) == 0
    out = capsys.readouterr().out
    assert "verdict: irregular, j=2" in out
    assert "(vacuous)" in out  # odd weight-3 row

    assert main(["regularity", "--p", "3", "--N", "11", "--cache", ""]) == 0
    assert "verdict: regular" in capsys.readouterr().out


def test_cli_regularity_csv(capsys):
    assert main(["regularity", "--p", "2", "--N", "11", "--format", "csv",
                 "--cache", ""]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,N,k,dim,slopes,zero_count,verdict,j"
    assert lines[1] == "2,11,2,1,1,0,irregular,2"


def test_cli_slopes_text_and_csv(capsys):
    assert main(["slopes", "--p", "2", "--N", "11", "--k-max", "4",
                 "--cache", ""]) == 0
    out = capsys.readouterr().out
    assert "k=2" in out and "1/2" in out

    assert main(["slopes", "--p", "2", "--N", "11", "--k-max", "4",
                 "--format", "csv", "--cache", ""]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "p,N,k,dim,tp_slopes,zero_count,up_slopes,new_multiplicity"
    assert lines[1] == "2,11,2,1,1,0,1/2;1/2,0"
    assert lines[2].startswith("2,11,4,2,1/2;1/2,0,")


def test_cli_slopes_and_regularity_golden(capsys):
    assert main(["slopes", "--p", "2", "--N", "11", "--k-max", "4",
                 "--format", "csv", "--cache", ""]) == 0
    assert capsys.readouterr().out == (
        "p,N,k,dim,tp_slopes,zero_count,up_slopes,new_multiplicity\n"
        "2,11,2,1,1,0,1/2;1/2,0\n"
        "2,11,4,2,1/2;1/2,0,1/2;1/2;1;1;1;5/2;5/2,3\n")
    assert main(["slopes", "--p", "2", "--N", "11", "--k-max", "4",
                 "--format", "jsonl", "--cache", ""]) == 0
    assert capsys.readouterr().out == (
        '{"p": 2, "N": 11, "k": 2, "dim": 1, "tp_slopes": ["1"], "zero_count": 0, '
        '"up_slopes": ["1/2", "1/2"], "new_multiplicity": 0}\n'
        '{"p": 2, "N": 11, "k": 4, "dim": 2, "tp_slopes": ["1/2", "1/2"], '
        '"zero_count": 0, "up_slopes": ["1/2", "1/2", "1", "1", "1", "5/2", "5/2"], '
        '"new_multiplicity": 3}\n')
    assert main(["regularity", "--p", "2", "--N", "11", "--cache", ""]) == 0
    assert capsys.readouterr().out == (
        "T_2 slopes on S_k(Gamma_0(11)), weights [2, 3, 4]\n"
        "  k=2  dim=1   slopes={1 x1} zero_count=0\n"
        "  k=3  dim=0   slopes={} zero_count=0 (vacuous)\n"
        "  k=4  dim=2   slopes={1/2 x2} zero_count=0\n"
        "verdict: irregular, j=2\n")


def test_cli_regularity_jsonl_rows_share_one_shape(capsys):
    assert main(["regularity", "--p", "2", "--N", "11", "--format", "jsonl",
                 "--cache", ""]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["k"] for row in rows] == [2, 3, 4]
    assert all(list(row) == ["p", "N", "k", "dim", "slopes", "zero_count", "verdict", "j"]
               and row["verdict"] == "irregular" and row["j"] == 2 for row in rows)
    assert main(["regularity", "--p", "3", "--N", "11", "--format", "jsonl",
                 "--cache", ""]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert all(row["verdict"] == "regular" and row["j"] is None for row in rows)


@pytest.mark.parametrize("argv", [
    ["regularity", "--p", "2", "--N", "11"],
    ["regularity", "--p", "3", "--N", "11"],
    ["slopes", "--p", "2", "--N", "11", "--k-max", "6"],
    ["survey", "--p", "2,3", "--N", "11,13", "--k-max", "6"],
])
def test_cli_csv_rows_have_the_header_width(argv, capsys):
    main(argv + ["--format", "csv", "--cache", ""])
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert len(rows) > 1
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows)


def test_cli_witness_text(capsys):
    assert main(["witness", "--p", "2", "--N", "11", "--cache", ""]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == \
        ["2", "11", "irregular", "2", "2", "1/2", "true", "ok"]
    assert "minimal witness weight vs {j, j+(p-1)}: k = j" in out


def test_cli_witness_searches_once(monkeypatch, capsys):
    import heckeslopes.slopes
    import heckeslopes.survey

    calls = []
    real = heckeslopes.slopes.find_fractional_witness

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(heckeslopes.slopes, "find_fractional_witness", counted)
    monkeypatch.setattr(heckeslopes.survey, "find_fractional_witness", counted)
    assert main(["witness", "--p", "2", "--N", "11", "--cache", ""]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.endswith(
        "minimal witness weight vs {j, j+(p-1)}: k = j\n")


def test_cli_witness_inconclusive(capsys):
    code = main(["witness", "--p", "59", "--N", "1", "--k-max", "2",
                 "--cache", ""])
    assert code == 3
    assert "inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("engine", ["modsym", "both"])
def test_cli_witness_golden_mismatch_at_13_21(engine, capsys):
    # T_13 has slope 1 at k = 6 = j and slopes {0 x20, 1/2 x2} at k = 10,
    # so the minimal witness is neither j nor j + (p-1); both engines agree
    assert main(["witness", "--p", "13", "--N", "21", "--engine", engine,
                 "--format", "csv", "--cache", ""]) == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n13,21,irregular,6,10,1/2,false,ok\n"
    assert main(["witness", "--p", "13", "--N", "21", "--engine", engine, "--cache", ""]) == 0
    assert capsys.readouterr().out.endswith(
        "minimal witness weight vs {j, j+(p-1)}: mismatch: minimal witness k=10 outside {6, 18}\n")


def test_cli_witness_golden_inconclusive_at_2_5(capsys):
    # j = 4, and at k = 4 the U_2 slope is 3/2, non-integral but outside
    # (0, 1): no weight up to the default bound 50 has a slope in (0, 1)
    assert main(["witness", "--p", "2", "--N", "5", "--format", "csv", "--cache", ""]) == 3
    assert capsys.readouterr().out == CSV_HEADER + "\n2,5,irregular,4,,,,inconclusive\n"


def test_cli_witness_regular_pair(capsys):
    assert main(["witness", "--p", "3", "--N", "11", "--cache", ""]) == 0
    out = capsys.readouterr().out
    assert "regular" in out and "minimal witness" not in out


def test_cli_crosscheck_small_grid(capsys):
    code = main(["crosscheck", "--p", "2,3", "--N", "1-6", "--k-max", "6",
                 "--cache", ""])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("crosscheck: PASS")
    assert "engine identity:" in out and "assembly = direct:" in out


def test_cli_crosscheck_shares_traces_and_reports_in_grid_order(monkeypatch, capsys):
    calls = []
    trace_tn = traceforms.trace_tn

    def counted(k, N, n):
        calls.append((k, N, n))
        return trace_tn(k, N, n)

    charpoly_cuspidal = modsym.charpoly_cuspidal

    def perturbed(k, N, p):
        f = charpoly_cuspidal(k, N, p)
        if (k, N, p) in ((10, 5, 2), (6, 4, 3)):
            return IntPolynomial(f.coeffs[:-1] + (f.coeffs[-1] + 1,))
        return f

    monkeypatch.setattr(traceforms, "trace_tn", counted)
    monkeypatch.setattr(modsym, "charpoly_cuspidal", perturbed)
    code = main(["crosscheck", "--p", "2,3,5,7,11,13", "--N", "1-5", "--k-max", "10",
                 "--direct-cap", "0", "--cache", ""])
    out = capsys.readouterr().out
    assert code == 2
    assert len(calls) <= 133  # 241 when each prime rebuilt the trace route
    # walked (N, k)-major, but (k=6, N=4, p=3) still reports after (k=10, N=5, p=2)
    assert [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL engine mismatch at (k=10, N=5, p=2)", "FAIL engine mismatch at (k=6, N=4, p=3)"]
    assert out.startswith("engine identity:   130 checked, 0 beyond trace budget\n")


def test_cli_crosscheck_empty_grid(capsys):
    code = main(["crosscheck", "--p", "2", "--N", "2", "--k-max", "6",
                 "--cache", ""])
    assert code == 0
    assert "PASS (trivial, empty grid)" in capsys.readouterr().out


def test_cli_crosscheck_rejects_corrupt_cache(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    assert main(["survey", "--p", "2", "--N", "11", "--cache", path]) == 0
    with open(path) as fh:
        data = fh.read()
    line = data.splitlines()[0]
    with open(path, "w") as fh:
        fh.write(line[:-2] + '0"}' + "\n")  # break the digest
    capsys.readouterr()
    code = main(["crosscheck", "--p", "2", "--N", "11", "--k-max", "2",
                 "--cache", path])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL corrupt cache record at line 1" in out
    assert "crosscheck: FAIL" in out


def _corrupt_cache(path, capsys):
    assert main(["survey", "--p", "2", "--N", "11", "--cache", path]) == 0
    capsys.readouterr()
    with open(path, "ab") as fh:
        fh.write(b"garbage\n")
    with open(path, "rb") as fh:
        return fh.read()


def test_cli_crosscheck_corrupt_cache_fails_on_an_empty_grid(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    damaged = _corrupt_cache(path, capsys)
    code = main(["crosscheck", "--p", "2", "--N", "2", "--k-max", "6", "--cache", path])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL corrupt cache record at line" in out and "PASS" not in out
    with open(path, "rb") as fh:
        assert fh.read() == damaged


def test_cli_crosscheck_leaves_a_rejected_cache_untouched(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    damaged = _corrupt_cache(path, capsys)
    code = main(["crosscheck", "--p", "2", "--N", "11,13", "--k-max", "4",
                 "--cache", path])
    assert code == 2
    assert "reproduce: inspect %s" % path in capsys.readouterr().out
    with open(path, "rb") as fh:
        assert fh.read() == damaged
    # without a reject, crosscheck still writes what it computed
    clean = str(tmp_path / "clean.jsonl")
    assert main(["crosscheck", "--p", "2", "--N", "13", "--k-max", "4",
                 "--cache", clean]) == 0
    assert "crosscheck: PASS" in capsys.readouterr().out
    assert CharpolyCache(clean).records


def test_cli_survey_self_heals_corrupt_cache(tmp_path, capsys):
    path = str(tmp_path / "cache.jsonl")
    assert main(["survey", "--p", "2", "--N", "11", "--cache", path]) == 0
    first = capsys.readouterr().out
    with open(path) as fh:
        lines = fh.read().splitlines()
    lines[0] = lines[0].replace('"digest":"', '"digest":"00')
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["survey", "--p", "2", "--N", "11", "--cache", path]) == 0
    # the report is unchanged, and stderr names the dropped line once
    assert capsys.readouterr() == (first, "cache %s line 1 dropped: digest mismatch\n" % path)
    # the rewritten file verifies cleanly again
    assert CharpolyCache(path).rejects == []


def _forged_cache(path, *fields):
    """A cache file of one digest-valid line, CacheRecord(*fields); returns its bytes."""
    with open(path, "w") as fh:
        fh.write(CacheRecord(*fields).to_line() + "\n")
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("argv, fields", [
    (["slopes", "--p", "2", "--N", "1", "--k-max", "12"], (2, 1, 12, "T", (2, 24), "modsym")),
    (["regularity", "--p", "2", "--N", "11"], (2, 11, 4, "T", (1, 0, 0, 0, 0), "modsym")),
    (["regularity", "--p", "2", "--N", "11"], (2, 11, 4, "T", (1, 0, 0, 0, 1), "modsym")),
], ids=["slopes-c0=2", "regularity-zero-count-2", "regularity-zero-count-minus-2"])
def test_cli_drops_and_heals_a_record_that_fails_the_certificate(argv, fields, tmp_path,
                                                                  capsys):
    # read as they stand, these lines stop slopes with a usage error or
    # print zero_count=2 and zero_count=-2 rows
    assert main(argv + ["--cache", ""]) == 0
    clean = capsys.readouterr().out
    path = str(tmp_path / "cache.jsonl")
    _forged_cache(path, *fields)
    assert main(argv + ["--cache", path]) == 0
    out, err = capsys.readouterr()
    assert out == clean
    assert err.startswith("cache %s line 1 dropped: coeffs start" % path)
    assert err.count("\n") == 1
    healed = CharpolyCache(path)
    assert healed.rejects == []
    assert healed.records[CacheRecord(*fields).key] != CacheRecord(*fields)


def test_cli_crosscheck_keeps_a_record_that_fails_the_certificate(tmp_path, capsys):
    # read as it stands, the line is blamed on the engines, and the
    # rewrite would destroy the evidence
    path = str(tmp_path / "cache.jsonl")
    forged = _forged_cache(path, 2, 11, 4, "T", (1, 0, 0, 0, 0), "modsym")
    code = main(["crosscheck", "--p", "2", "--N", "11", "--k-max", "4", "--cache", path])
    out = capsys.readouterr().out
    assert code == 2
    assert "FAIL corrupt cache record at line 1 (coeffs start" in out
    assert "mismatch" not in out and "crosscheck: FAIL (1)" in out
    with open(path, "rb") as fh:
        assert fh.read() == forged


def test_cli_cache_env_var(tmp_path, monkeypatch, capsys):
    env_path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("HECKESLOPES_CACHE", env_path)
    assert main(["survey", "--p", "2", "--N", "11"]) == 0
    assert os.path.exists(env_path)
    # an explicit --cache wins over the environment
    flag_path = str(tmp_path / "flag.jsonl")
    assert main(["survey", "--p", "3", "--N", "11", "--cache", flag_path]) == 0
    assert os.path.exists(flag_path)
    with open(env_path) as fh:
        assert '"p":3' not in fh.read()
    capsys.readouterr()


def _fresh_python(*argv, cwd=None):
    """Run a fresh interpreter on argv with the package's src/ on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_cli_imports_no_numpy():
    # the package is stdlib-only; a fresh interpreter shows what it loads
    probe = "import sys, heckeslopes.cli; print('numpy' in sys.modules)"
    assert _fresh_python("-c", probe).stdout == "False\n"


def test_cli_start_up_loads_only_what_the_run_uses(tmp_path):
    # -S: no site .pth file imports anything before the package does
    probe = ("import sys, heckeslopes.cli; print(sorted(m for m in sys.modules if m in "
             "('logging', 'dataclasses', 'heckeslopes.modsym', 'heckeslopes.linalg', "
             "'heckeslopes.traceforms')))")
    run = _fresh_python("-S", "-c", probe)
    assert (run.stdout, run.returncode) == ("[]\n", 0), run.stderr
    # a survey whose every polynomial is a store hit never loads modsym
    survey = ["-S", "-X", "importtime", "-m", "heckeslopes.cli", "survey", "--p", "2,3,5,7",
              "--N", "1-8", "--k-max", "8", "--cache", "cache.jsonl"]
    cold = _fresh_python(*survey, cwd=tmp_path)
    warm = _fresh_python(*survey, cwd=tmp_path)
    assert cold.stdout.startswith(CSV_HEADER)
    assert (warm.stdout, warm.returncode) == (cold.stdout, cold.returncode)
    assert "heckeslopes.modsym" in cold.stderr
    assert "heckeslopes.modsym" not in warm.stderr
    assert "heckeslopes.traceforms" not in cold.stderr + warm.stderr
    # an in-memory witness run builds spaces but reads, digests and writes
    # no cache record
    probe = ("import sys; from heckeslopes import cli; "
             "code = cli.main(['witness', '--p', '59', '--N', '1', '--k-max', '12', "
             "'--cache', '']); print(code, sorted(m for m in sys.modules if m in "
             "('heckeslopes.modsym', 'heckeslopes.traceforms', 'hashlib', 'json', "
             "'tempfile')))")
    run = _fresh_python("-S", "-c", probe)
    assert run.stdout.splitlines()[-1] == "3 ['heckeslopes.modsym']", run.stderr
    # the trace engine loads traceforms at its first polynomial
    trace = _fresh_python("-S", "-X", "importtime", "-m", "heckeslopes.cli", "slopes",
                          "--p", "2", "--N", "11", "--k-max", "4", "--engine", "trace",
                          "--cache", "", cwd=tmp_path)
    assert trace.returncode == 0 and "heckeslopes.traceforms" in trace.stderr, trace.stderr
