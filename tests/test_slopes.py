"""Tests for the slope layer: regularity, refinements, witnesses.

Pins that need a named nontrivial input use (2,11), (3,11), (5,1) and the
expensive but decisive (59,1), whose irregularity shows up in weight 16.
"""

from fractions import Fraction

import pytest

from heckeslopes.cache import CharpolyCache
from heckeslopes.dimensions import dim_cuspforms
from heckeslopes.errors import ConsistencyError
from heckeslopes.exact import SlopeMultiset
from heckeslopes.slopes import (
    HeckeContext,
    Witness,
    default_witness_bound,
    find_fractional_witness,
    is_regular,
    refinement_pair,
    regularity_weight_range,
    tp_slopes,
    up_assembly,
    up_slopes_direct,
    witness_label,
)
from heckeslopes.survey import compute_pair

from oracles import p2_refinement_check


def test_context_validation():
    with pytest.raises(ValueError):
        HeckeContext(4, 11, 2)    # p not prime
    with pytest.raises(ValueError):
        HeckeContext(2, 0, 2)
    with pytest.raises(ValueError):
        HeckeContext(2, 11, 3)    # odd weight
    with pytest.raises(ValueError):
        HeckeContext(11, 22, 2)   # p divides N
    with pytest.raises(ValueError):
        HeckeContext(2, 4, 4)     # p divides N
    with pytest.raises(AttributeError):
        HeckeContext(2, 11, 4).k = 6


def test_tp_slopes_basic():
    s, z = tp_slopes(HeckeContext(2, 1, 12))
    assert s.as_list() == [3] and z == 0
    s, z = tp_slopes(HeckeContext(2, 11, 2))
    assert s.as_list() == [1] and z == 0
    s, z = tp_slopes(HeckeContext(3, 1, 12))
    assert s.as_list() == [2] and z == 0
    # zero-dimensional space
    s, z = tp_slopes(HeckeContext(2, 1, 2))
    assert s.total == 0 and z == 0


def test_tp_slopes_engine_agreement():
    for engine in ("modsym", "trace", "both"):
        s, z = tp_slopes(HeckeContext(2, 11, 4), CharpolyCache(engine=engine))
        assert s.as_list() == [Fraction(1, 2), Fraction(1, 2)] and z == 0


def test_regularity_weight_range():
    assert regularity_weight_range(2) == (2, 3, 4)
    assert regularity_weight_range(3) == (2, 3)
    assert regularity_weight_range(5) == (2, 3, 4)
    assert regularity_weight_range(7) == (2, 3, 4, 5)
    assert regularity_weight_range(59) == tuple(range(2, 32))


def test_is_regular_pins():
    v = is_regular(2, 11)
    assert not v.regular and v.j == 2
    # the weight-2 row shows the violating slope 1
    row2 = v.table[0]
    assert row2.k == 2 and row2.slopes.as_list() == [1]

    assert is_regular(3, 11).regular
    assert is_regular(5, 1).regular
    assert is_regular(2, 1).regular
    assert is_regular(7, 1).regular

    v59 = is_regular(59, 1)
    assert not v59.regular and v59.j == 16
    row16 = next(r for r in v59.table if r.k == 16)
    assert all(Fraction(s).denominator == 1 and s > 0 for s in
               row16.slopes.as_list())


def test_is_regular_rejects_bad_input():
    with pytest.raises(ValueError):
        is_regular(4, 11)
    with pytest.raises(ValueError):
        is_regular(11, 22)
    with pytest.raises(ValueError):
        is_regular(2, 0)


def test_odd_weight_rows_are_vacuous():
    v = is_regular(2, 11)
    row3 = next(r for r in v.table if r.k == 3)
    assert row3.dim == 0 and row3.slopes.total == 0 and row3.zero_count == 0


def test_refinement_pair_cases():
    assert refinement_pair(0, 2).as_list() == [0, 1]
    assert refinement_pair(0, 12).as_list() == [0, 11]
    assert refinement_pair(3, 12).as_list() == [3, 8]
    # v >= (k-1)/2 ties at the midpoint
    assert refinement_pair(1, 2).as_list() == [Fraction(1, 2), Fraction(1, 2)]
    assert refinement_pair(7, 12).as_list() == [Fraction(11, 2), Fraction(11, 2)]
    assert refinement_pair(None, 4).as_list() == [Fraction(3, 2), Fraction(3, 2)]
    # valuations are bounded by v_p(p^(k-1)) = k-1 on eigenvalue pairs
    for v in (0, 1, 2, Fraction(5, 2), None):
        pair = refinement_pair(v, 8)
        assert sum(pair.as_list()) == 7


def test_up_assembly_level_11_weight_2():
    a = up_assembly(HeckeContext(2, 11, 2))
    # eigenvalue -2 has slope 1 >= 1/2: a tie
    assert a.old_pairs[0][0] == 1
    assert a.combined.as_list() == [Fraction(1, 2), Fraction(1, 2)]
    assert a.new_multiplicity == dim_cuspforms(2, 22) - 2 * 1 == 0
    # weight 2 new part would sit at slope 0
    assert a.new_slope == 0


@pytest.mark.parametrize("engine", ["modsym", "trace"])
def test_up_assembly_zero_eigenvalue(engine):
    # T_2 on S_4(Gamma_0(9)) is zero: the eigenvalue is counted, not sloped,
    # recorded with source None, and refines to the tie {3/2 x2}
    store = CharpolyCache(engine=engine)
    ctx = HeckeContext(2, 9, 4)
    assert tp_slopes(ctx, store) == (SlopeMultiset(), 1)
    a = up_assembly(ctx, store)
    assert a.old_pairs == ((None, SlopeMultiset(((Fraction(3, 2), 2),))),)
    assert a.combined == SlopeMultiset(((1, 3), (Fraction(3, 2), 2)))
    assert a.combined == up_slopes_direct(ctx, store)


def test_up_assembly_level_33():
    a = up_assembly(HeckeContext(3, 11, 2))
    assert a.combined.total == dim_cuspforms(2, 33) == 3
    assert a.new_multiplicity == 1
    direct = up_slopes_direct(HeckeContext(3, 11, 2))
    assert direct == a.combined


def test_up_assembly_matches_direct_sample():
    for (p, N, k) in [(2, 11, 2), (2, 11, 4), (2, 11, 6), (3, 11, 4),
                      (2, 13, 8), (3, 5, 6), (5, 3, 4), (2, 23, 2)]:
        ctx = HeckeContext(p, N, k)
        assert up_assembly(ctx).combined == up_slopes_direct(ctx), (p, N, k)


def test_up_band_equality_above_weight_two():
    # for k > 2 the U_p slopes strictly inside (0,1) are the T_p ones
    for (p, N, k) in [(2, 11, 4), (2, 11, 6), (3, 7, 4), (2, 19, 4)]:
        ctx = HeckeContext(p, N, k)
        tame = tp_slopes(ctx)[0].in_open_interval(0, 1)
        direct = up_slopes_direct(ctx).in_open_interval(0, 1)
        assert tame == direct, (p, N, k)


def test_up_slopes_direct_pins():
    assert up_slopes_direct(HeckeContext(2, 11, 2)).as_list() == \
        [Fraction(1, 2), Fraction(1, 2)]
    assert up_slopes_direct(HeckeContext(3, 11, 2)).as_list() == [0, 0, 1]
    assert up_slopes_direct(HeckeContext(2, 1, 2)).total == 0


def test_witness_bound_default():
    assert default_witness_bound(2, None) == 50
    assert default_witness_bound(2, 2) == 50
    assert default_witness_bound(59, 16) == 132


def test_find_fractional_witness_pins():
    w = find_fractional_witness(2, 11, 10)
    assert w == Witness(2, Fraction(1, 2))
    assert repr(w) == "Witness(k=2, slope=Fraction(1, 2))"
    # regular pair: nothing below the bound
    assert find_fractional_witness(3, 11, 20) is None


def test_minimal_witness_report_level_11():
    # the minimal witness of (2,11) through the one witness route
    row = compute_pair(2, 11)
    assert row.j == 2 and row.witness_k == 2
    assert row.witness_slope == Fraction(1, 2)
    assert row.prediction_match is True
    assert witness_label(row.p, row.j, row.witness_k) == "k = j"
    assert {row.j, row.j + row.p - 1} == {2, 3}


def test_minimal_witness_report_rejects_regular():
    # a regular pair is never given a witness, whatever the bound
    assert is_regular(3, 11).regular
    for k_max in (0, 20):
        row = compute_pair(3, 11, k_max=k_max)
        assert row.verdict == "regular" and row.status == "ok"
        assert row.j is None and row.witness_k is None
        assert row.witness_slope is None and row.prediction_match is None


def test_minimal_witness_report_inconclusive():
    # a bound below weight 2 searches no weight at all: inconclusive, not a miss
    assert find_fractional_witness(2, 11, 1) is None
    row = compute_pair(2, 11, k_max=1)
    assert row.verdict == "irregular" and row.j == 2
    assert row.witness_k is None and row.prediction_match is None
    assert row.status.startswith("inconclusive")


# (p, N) -> (j, first even k <= j + 2(p-1) with a non-integral U_p slope at
# level Np) for every irregular pair with p <= 13, p not dividing N, N <= 24
FIRST_FRACTIONAL_WEIGHT = {
    (2, 5): (4, 4), (2, 9): (4, 4), (2, 11): (2, 2), (2, 13): (4, 4), (2, 15): (4, 4),
    (2, 17): (4, 4), (2, 19): (2, 2), (2, 21): (4, 4), (3, 17): (2, 2), (5, 9): (4, 4),
    (5, 14): (2, 2), (5, 18): (4, 4), (7, 15): (2, 2), (7, 17): (4, 10), (7, 22): (4, 10),
    (7, 24): (2, 2), (11, 8): (4, 14), (11, 9): (4, 4), (11, 10): (6, 16), (11, 14): (2, 2),
    (11, 16): (4, 14), (11, 17): (2, 2), (11, 18): (4, 4), (11, 20): (2, 2), (11, 24): (4, 14),
    (13, 5): (6, 18), (13, 9): (8, 20), (13, 10): (6, 18), (13, 15): (6, 18), (13, 18): (8, 20),
    (13, 20): (6, 18), (13, 21): (6, 10), (13, 24): (6, 18),
}


def test_irregular_pairs_have_non_integral_slopes_on_a_grid():
    # the paper's theorem: an irregular pair has a non-integral U_p slope at
    # some weight; here always by j + 2(p-1), and at j or j + (p-1) except
    # at (13, 21), whose witness (10, 1/2) lies between them
    store = CharpolyCache(engine="trace")
    found = {}
    for p in (2, 3, 5, 7, 11, 13):
        for N in range(1, 25):
            if N % p == 0:
                continue
            j = is_regular(p, N, store).j
            if j is None:
                continue
            found[p, N] = (j, next(
                (k for k in range(2, j + 2 * (p - 1) + 1, 2)
                 if any(Fraction(s).denominator != 1
                        for s, _ in up_assembly(HeckeContext(p, N, k), store).combined)),
                None))
    assert found == FIRST_FRACTIONAL_WEIGHT
    assert [pn for pn, (j, k) in found.items() if k not in (j, j + pn[0] - 1)] == [(13, 21)]


def test_witness_label():
    assert witness_label(2, 2, 2) == "k = j"
    assert witness_label(59, 16, 74) == "k = j + (p-1)"
    assert witness_label(5, 4, 6) == "mismatch: minimal witness k=6 outside {4, 8}"


def test_p2_refinement_level_11():
    rep = p2_refinement_check(11)
    # weight 4 already has the fractional pair {1/2, 1/2}
    assert rep.already_fractional == ((4, Fraction(1, 2), 2),)
    # weight-2 slope 1 is refined into {1/2, 1/2}
    assert len(rep.refinements) == 1
    ref = rep.refinements[0]
    assert ref.k == 2 and ref.source == 1
    assert ref.pair.as_list() == [Fraction(1, 2), Fraction(1, 2)]


def test_p2_refinement_rejects_even_level():
    with pytest.raises(ValueError):
        p2_refinement_check(22)


def test_p2_refinement_odd_levels_all_fractional():
    for N in (11, 13, 15, 17):
        rep = p2_refinement_check(N)
        for (k, s, mult) in rep.already_fractional:
            assert Fraction(s).denominator > 1
        for ref in rep.refinements:
            assert any(Fraction(s).denominator > 1 for s, _ in ref.pair)


def test_up_assembly_totals_match_dimension():
    for p in (2, 3, 5):
        for N in (1, 7, 11, 13):
            if N % p == 0:
                continue
            for k in (2, 4, 6, 8):
                a = up_assembly(HeckeContext(p, N, k))
                assert a.combined.total == dim_cuspforms(k, N * p)


def test_old_pair_slope_symmetry():
    # refinement pairs are symmetric under s -> k-1-s
    for (p, N, k) in [(2, 11, 6), (3, 11, 4), (5, 1, 12)]:
        a = up_assembly(HeckeContext(p, N, k))
        for _, pair in a.old_pairs:
            ss = pair.as_list()
            assert sorted(k - 1 - s for s in ss) == ss
