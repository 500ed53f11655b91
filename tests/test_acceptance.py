"""Acceptance suite: one test per criterion, one printed verdict line each.

Everything here is exact arithmetic; the only tolerance is the runtime
budget stated per criterion.  Criterion 2 demands that the two engines
give the same characteristic polynomial at every point of the grid.
"""

import os
import random
import time
from fractions import Fraction

from heckeslopes.cache import CharpolyCache
from heckeslopes.dimensions import dim_cuspforms
from heckeslopes.exact import IntPolynomial, SlopeMultiset, newton_slopes
from heckeslopes.modsym import charpoly_cuspidal, plus_quotient
from heckeslopes.slopes import (
    HeckeContext,
    find_fractional_witness,
    is_regular,
    tp_slopes,
    up_assembly,
    up_slopes_direct,
    witness_label,
)
from heckeslopes.survey import (COLUMNS, SurveyConfig, compute_pair, render_report,
                                run_survey)
from heckeslopes.traceforms import (
    charpolys_from_traces,
    trace_feasible,
    trace_tn,
)

from oracles import delta_coefficients, p2_refinement_check

GRID = [(k, N, p) for k in range(2, 17, 2) for N in range(1, 15)
        for p in (2, 3, 5, 7, 11, 13) if N % p]
DIRECT_CAP = 45          # criterion 6: level-Np dimension bound for direct runs


def _verdict(n, ok, detail, t0, budget):
    elapsed = time.time() - t0
    print("[criterion %d] %s - %s (%.1fs / budget %ds)"
          % (n, "PASS" if ok else "FAIL", detail, elapsed, budget))
    assert elapsed < budget, "criterion %d exceeded its %ds budget" % (n, budget)
    return elapsed


def test_criterion_1_newton_polygon_unit_suite():
    t0 = time.time()
    assert newton_slopes(IntPolynomial([1, 24]), 2) == SlopeMultiset.of_slopes([3])
    assert newton_slopes(IntPolynomial([1, 2, 2]), 2) == \
        SlopeMultiset(((Fraction(1, 2), 2),))
    assert newton_slopes(IntPolynomial([1]), 5) == SlopeMultiset()
    assert newton_slopes(IntPolynomial([1, 3, 9]), 3) == \
        SlopeMultiset(((Fraction(1), 2),))
    rng = random.Random(2024)
    checks = 0
    while checks < 200:
        p = rng.choice([2, 3, 5, 7, 11])
        f = IntPolynomial([1] + [rng.randint(-50, 50)
                                 for _ in range(rng.randint(0, 7))])
        g = IntPolynomial([1] + [rng.randint(-50, 50)
                                 for _ in range(rng.randint(0, 7))])
        assert newton_slopes(f * g, p) == \
            SlopeMultiset(newton_slopes(f, p).entries + newton_slopes(g, p).entries)
        checks += 1
    _verdict(1, True, "4 pinned polygons + %d product-law checks" % checks,
             t0, 1)


def test_criterion_2_cross_engine_identity():
    t0 = time.time()
    unreachable = [pt for pt in GRID if not trace_feasible(*pt)]
    assert not unreachable, "beyond the trace route: %r" % unreachable
    # the trace side one call per (k, N), which shares its traces and Gram
    # factorisations among the primes
    primes_at = {}
    for k, N, p in GRID:
        primes_at.setdefault((k, N), []).append(p)
    traced = {(k, N, p): f for (k, N), primes in primes_at.items()
              for p, f in charpolys_from_traces(k, N, primes).items()}
    mismatches = [(k, N, p) for (k, N, p) in GRID
                  if traced[k, N, p] != charpoly_cuspidal(k, N, p)]
    _verdict(2, not mismatches, "%d/%d points agree exactly"
             % (len(GRID) - len(mismatches), len(GRID)), t0, 600)
    assert not mismatches, "cross-engine mismatches: %r" % mismatches


def test_criterion_3_delta_oracle():
    t0 = time.time()
    tau = delta_coefficients(21)
    primes = [2, 3, 5, 7, 11, 13, 17, 19]
    for n in primes:
        assert trace_tn(12, 1, n) == tau[n], n
        assert plus_quotient(12, 1).hecke_matrix(n) == [[Fraction(tau[n])]], n
    _verdict(3, True,
             "trace and matrix eigenvalue match the q-expansion at %d primes"
             % len(primes), t0, 10)


def test_criterion_4_end_to_end_level_11():
    t0 = time.time()
    verdict = is_regular(2, 11)
    assert not verdict.regular and verdict.j == 2
    witness = find_fractional_witness(2, 11, 10)
    assert witness.k == 2 and witness.slope == Fraction(1, 2)
    ctx = HeckeContext(2, 11, 2)
    asm = up_assembly(ctx)
    direct = up_slopes_direct(ctx)
    expected = SlopeMultiset(((Fraction(1, 2), 2),))
    assert asm.combined == direct == expected
    row = compute_pair(2, 11, 10)
    label = witness_label(row.p, row.j, row.witness_k)
    assert label == "k = j" and row.prediction_match is True
    _verdict(4, True,
             "irregular j=2, witness (k=2, 1/2), assembly = direct = {1/2 x2}, "
             "'%s'" % label, t0, 30)


def test_criterion_5_end_to_end_level_1_p59():
    t0 = time.time()
    store = CharpolyCache()  # the three calls below share their polynomials
    verdict = is_regular(59, 1, store)
    assert not verdict.regular and verdict.j == 16
    row16 = next(r for r in verdict.table if r.k == 16)
    assert row16.zero_count == 0
    assert all(Fraction(s).denominator == 1 and s > 0
               for s in row16.slopes.as_list())
    witness = find_fractional_witness(59, 1, 74, store)
    assert witness is not None
    assert 0 < witness.slope < 1
    row = compute_pair(59, 1, 74, store)
    assert (row.witness_k, row.witness_slope) == (witness.k, witness.slope)
    label = witness_label(row.p, row.j, row.witness_k)
    note = "witness (k=%d, %s)" % (witness.k, witness.slope)
    if witness.k != 74:
        # a smaller witness would contradict nothing, only the heuristic
        note += " [differs from the expected k=74: %s]" % label
    _verdict(5, True, "irregular j=16, %s, '%s'" % (note, label),
             t0, 900)


def test_criterion_6_up_slope_identities():
    t0 = time.time()
    store = CharpolyCache()
    direct_checked = direct_skipped = 0
    for (k, N, p) in GRID:
        ctx = HeckeContext(p, N, k)
        asm = up_assembly(ctx, store)
        # (iv) totals match the level-Np dimension
        assert asm.combined.total == dim_cuspforms(k, N * p), (k, N, p)
        # (iii) all assembled slopes lie in [0, k-1]
        for s in asm.combined.as_list():
            assert 0 <= s <= k - 1, (k, N, p, s)
        # (i) old pairs are symmetric under s -> k-1-s
        for _, pair in asm.old_pairs:
            ss = pair.as_list()
            assert sorted(k - 1 - s for s in ss) == ss, (k, N, p)
        # full assembly = direct wherever the level-Np space is affordable;
        # at k = 2 it is the identity the witness search reads its band from
        if dim_cuspforms(k, N * p) <= DIRECT_CAP:
            direct = up_slopes_direct(ctx, store)
            assert direct == asm.combined, (k, N, p)
            # (ii) band equality for k > 2
            if k > 2:
                assert direct.in_open_interval(0, 1) == \
                    tp_slopes(ctx, store)[0].in_open_interval(0, 1), (k, N, p)
            direct_checked += 1
        else:
            direct_skipped += 1
    _verdict(6, True,
             "(i),(iii),(iv) at all %d points; full assembly=direct (plus (ii) "
             "for k > 2) at %d points (%d beyond dim cap %d)"
             % (len(GRID), direct_checked, direct_skipped, DIRECT_CAP),
             t0, 900)


def test_criterion_7_p2_refinements():
    t0 = time.time()
    levels = (11, 13, 15, 17, 19, 21, 23)
    half = SlopeMultiset(((Fraction(1, 2), 2),))
    threehalf = SlopeMultiset(((Fraction(3, 2), 2),))
    refined = direct_fractional = 0
    vacuous = []
    for N in levels:
        report = p2_refinement_check(N)
        if not report.already_fractional and not report.refinements:
            vacuous.append(N)  # 2-regular level: nothing to refine
            continue
        for (k, s, mult) in report.already_fractional:
            assert Fraction(s).denominator > 1, (N, k, s)
            direct_fractional += mult
        for ref in report.refinements:
            assert ref.pair in (half, threehalf), (N, ref)
            refined += 1
    assert refined + direct_fractional > 0
    _verdict(7, True,
             "levels %s: %d refined pairs all {1/2,1/2} or {3/2,3/2}, "
             "%d slopes fractional outright, regular levels %s"
             % (list(levels), refined, direct_fractional, vacuous), t0, 120)


def _survey_csv(result):
    return render_report(COLUMNS, result.rows, "csv", result.errors)


def test_criterion_8_determinism_and_cache_integrity(tmp_path):
    t0 = time.time()
    path = str(tmp_path / "cache.jsonl")
    config = SurveyConfig(primes=(2, 3, 5, 7), levels=tuple(range(1, 31)), k_max=12)
    with CharpolyCache(path) as store:
        cold = _survey_csv(run_survey(config, store))
    assert os.path.exists(path)
    with open(path) as fh:
        stored = fh.read()
    warm_cache = CharpolyCache(path)
    warm = _survey_csv(run_survey(config, warm_cache))
    warm_cache.flush()
    assert warm == cold
    assert warm_cache.hits > 0 and warm_cache.misses == 0

    # corrupt one record in place; it must be detected, dropped, recomputed
    lines = stored.splitlines()
    lines[3] = lines[3].replace('"coeffs":["1"', '"coeffs":["7"', 1)
    assert lines[3] != stored.splitlines()[3], "corruption did not apply"
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    hurt = CharpolyCache(path)
    assert len(hurt.rejects) == 1
    with CharpolyCache(path) as store:
        after = _survey_csv(run_survey(config, store))
    assert after == cold
    assert CharpolyCache(path).rejects == []  # the file was healed
    _verdict(8, True,
             "cold/warm byte-identical over %d rows; corrupted record "
             "detected, dropped and recomputed" % len(cold.splitlines()),
             t0, 1200)
