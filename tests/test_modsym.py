"""Tests for the exact Hecke engine built on weight-k Manin symbols.

Dimension pins come from the dimension formulas; eigenvalue pins come from
q-expansion oracles (Delta and a handful of one-dimensional eta-product
spaces) computed independently in tests/oracles.py.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest

from heckeslopes.dimensions import dim_cuspforms
from heckeslopes.exact import IntPolynomial, newton_slopes
from heckeslopes.linalg import SparseRREF
from heckeslopes.modsym import (
    P1List,
    PlusQuotient,
    charpoly_cuspidal,
    heilbronn_cremona,
    merel_family,
    plus_quotient,
)

from oracles import (
    ETA_SPACES,
    charpoly_hessenberg_reference,
    delta_coefficients,
    eta_space_coefficient,
    hecke_matrix_reference,
    manin_relations,
    p1_reference,
    rref,
)


def test_cuspidal_plus_dimension_pins():
    # (k, M) -> dim S_k(Gamma_0(M))
    pins = {(2, 11): 1, (12, 1): 1, (4, 1): 0, (2, 22): 2, (2, 1): 0}
    for (k, M), d in pins.items():
        assert plus_quotient(k, M).dim == d


def test_cuspidal_dim_matches_formula_on_grid():
    # the builder hard-asserts this internally; the test exercises the builds
    for M in list(range(1, 21)) + [22, 26, 33]:
        for k in (2, 4, 6, 8):
            assert plus_quotient(k, M).dim == dim_cuspforms(k, M)


def test_odd_or_bad_weight_rejected():
    for k in (3, 5, 1, 0, -2):
        with pytest.raises(ValueError):
            PlusQuotient(k, 11)
    with pytest.raises(ValueError):
        PlusQuotient(2, 0)


def test_hecke_one_by_one_pins():
    assert plus_quotient(12, 1).hecke_matrix(2) == [[Fraction(-24)]]
    assert plus_quotient(2, 11).hecke_matrix(2) == [[Fraction(-2)]]
    assert plus_quotient(2, 11).hecke_matrix(3) == [[Fraction(-1)]]


def test_hecke_index_guards():
    q = plus_quotient(2, 11)
    with pytest.raises(ValueError):
        q.hecke_matrix(4)
    with pytest.raises(ValueError):
        q.hecke_matrix(12)
    with pytest.raises(ValueError):
        q.hecke_matrix(0)
    # primes only: heilbronn_cremona(1) is not the identity
    with pytest.raises(ValueError):
        q.hecke_matrix(1)


def test_hecke_matrix_matches_fraction_referee():
    # level 1 at p = 59, where a packing bound of (p + 1)^w is too small
    cases = [(k, 1, 59) for k in range(12, 38, 2)]
    # T_p at level N, U_p at level N p, and T_q there for the least prime
    # q not dividing N p
    for p in (2, 3, 5, 7):
        for N in range(1, 7):
            M = N * p
            q = next(q for q in (2, 3, 5, 7, 11) if M % q)
            if N % p:
                cases.append((12, N, p))
            for k in (2, 4):
                cases += [(k, M, p), (k, M, q)]
    # (6, 30) projects its generators over a common denominator of 720
    assert plus_quotient(6, 30)._den > 1
    cases += [(6, 30, 7), (6, 30, 5)]
    # signed digits about 2^300 wide
    cases.append((38, 1, 59))
    # U_p at p^e | M, e >= 2
    cases += [(4, 27, 3), (2, 50, 5), (4, 16, 2), (2, 49, 7)]
    for k, M, n in sorted(set(cases)):
        space = plus_quotient(k, M)
        A = space.hecke_matrix(n)
        assert A == hecke_matrix_reference(space, merel_family(n)), (k, M, n)
        assert A == hecke_matrix_reference(space, heilbronn_cremona(n)), (k, M, n)


def test_merel_family_sizes():
    # |family(p)| for the determinant-p referee family
    assert len(merel_family(1)) == 1
    assert len(merel_family(59)) == 531
    # each matrix has the right determinant
    for n in (2, 3, 5, 7):
        for (a, b, c, d) in merel_family(n):
            assert a * d - b * c == n


def test_heilbronn_cremona_family():
    # nearest-integer continued-fraction families used by T_p and U_p
    sizes = {2: 4, 3: 6, 5: 12, 7: 18, 13: 38, 59: 222}
    for p, size in sizes.items():
        fam = heilbronn_cremona(p)
        assert len(fam) == size
        assert all(a * d - b * c == p for a, b, c, d in fam), p
    assert heilbronn_cremona(2) == [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]


def test_charpoly_cuspidal_pins():
    assert charpoly_cuspidal(12, 1, 2) == IntPolynomial([1, 24])
    assert charpoly_cuspidal(2, 22, 2) == IntPolynomial([1, 2, 2])
    assert charpoly_cuspidal(10, 1, 7) == IntPolynomial([1])


def test_charpoly_cuspidal_matches_fraction_hessenberg():
    # every space with k <= 12 and M <= 30 at p = 2: T_2 at odd M, U_2 at
    # 2 || M and at 4 | M; U_3 and U_5 at p || M and p^2 | M; and a
    # 28-dimensional T_13 whose coefficients need several primes
    cases = [(k, M, 2) for k in range(2, 13, 2) for M in range(1, 31)]
    cases += [(k, M, p) for k in (4, 6) for M, p in ((15, 3), (18, 3), (10, 5), (25, 5))]
    cases.append((16, 14, 13))
    for k, M, p in cases:
        ref = charpoly_hessenberg_reference(plus_quotient(k, M).hecke_matrix(p))
        assert list(charpoly_cuspidal(k, M, p).coeffs) == ref[::-1], (k, M, p)


def test_charpoly_raw_degree_records_dimension():
    # raw degree == dim S_k, so zero eigenvalues show up as trailing zeros
    f = charpoly_cuspidal(6, 4, 2)   # U_2 on the 1-dim space is nilpotent
    assert f.raw_degree == 1 and f.degree == 0
    assert f.coeffs == (1, 0)
    g = charpoly_cuspidal(4, 8, 2)
    assert g.raw_degree == dim_cuspforms(4, 8) == 1 and g.degree == 0
    h = charpoly_cuspidal(4, 9, 3)
    assert h.raw_degree == 1 and h.degree == 0


def test_delta_eigenvalues_match_tau():
    tau = delta_coefficients(8)
    for n in (2, 3, 5, 7):
        A = plus_quotient(12, 1).hecke_matrix(n)
        assert A == [[Fraction(tau[n])]]


def test_level_11_matches_eta_oracle():
    # S_2(Gamma_0(11)) is spanned by eta(q)^2 eta(q^11)^2
    for p in (2, 3, 5, 7, 13):
        A = plus_quotient(2, 11).hecke_matrix(p)
        assert A == [[Fraction(eta_space_coefficient(2, 11, p))]]
    # U_11 as well
    assert plus_quotient(2, 11).hecke_matrix(11) == [
        [Fraction(eta_space_coefficient(2, 11, 11))]]


def test_up_matches_eta_oracle_on_one_dim_spaces():
    for (k, M) in ETA_SPACES:
        if dim_cuspforms(k, M) != 1:
            continue
        for p in (2, 3):
            if M % p == 0:
                a_p = eta_space_coefficient(k, M, p)
                assert plus_quotient(k, M).hecke_matrix(p) == [[Fraction(a_p)]]


def test_u2_level_two_weight_eight():
    assert charpoly_cuspidal(8, 2, 2) == IntPolynomial([1, 8])


def test_u3_level_33_slopes():
    f = charpoly_cuspidal(2, 33, 3)
    assert newton_slopes(f, 3).as_list() == [
        Fraction(0), Fraction(0), Fraction(1)]


def test_hecke_operators_commute_on_grid():
    # T_m T_n = T_n T_m for distinct primes m, n coprime to the level
    for M in range(1, 31):
        for k in (2, 4, 6, 8):
            if dim_cuspforms(k, M) == 0:
                continue
            ps = [p for p in (2, 3, 5, 7) if M % p]
            mats = {p: plus_quotient(k, M).hecke_matrix(p) for p in ps}
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    A, B = mats[ps[i]], mats[ps[j]]
                    n = len(A)
                    AB = [[sum(A[r][t] * B[t][c] for t in range(n))
                           for c in range(n)] for r in range(n)]
                    BA = [[sum(B[r][t] * A[t][c] for t in range(n))
                           for c in range(n)] for r in range(n)]
                    assert AB == BA, (k, M, ps[i], ps[j])


def test_charpoly_integer_coefficients():
    for (k, M, p) in [(4, 13, 2), (6, 11, 3), (8, 10, 7), (2, 26, 2),
                      (12, 1, 5), (4, 27, 3)]:
        f = charpoly_cuspidal(k, M, p)
        assert all(isinstance(c, int) for c in f.coeffs)
        assert f.coeffs[0] == 1
        assert f.raw_degree == dim_cuspforms(k, M)


def test_p1_basics():
    p1 = P1List(1)
    assert len(p1) == 1
    p1 = P1List(11)
    assert len(p1) == 12
    p1 = P1List(12)
    # psi(12) = 24
    assert len(p1) == 24
    # index() inverts the representative list
    for t, (c, d) in enumerate(p1.points):
        assert p1.index(c, d) == t
        assert p1.index(5 * c, 5 * d) == t  # scaling by a unit


def test_p1_table_matches_reference():
    for M in range(1, 61):
        p1 = P1List(M)
        assert (p1.points, p1.table) == p1_reference(M), M


@pytest.mark.parametrize("k, M", [(4, 11), (6, 30), (10, 23)])
def test_presentation_matches_dense_rref(k, M, monkeypatch):
    # the three-term relation rows the presentation feeds its elimination
    fed, echelons = [], []

    class Recording(SparseRREF):
        def __init__(self):
            super().__init__()
            echelons.append(self)

        def add_row(self, row):
            fed.append(dict(row))
            return super().add_row(row)

    monkeypatch.setattr("heckeslopes.modsym.SparseRREF", Recording)
    space = PlusQuotient(k, M)
    (ech,) = echelons
    cols = sorted({c for row in fed for c in row})
    mat, pivots = rref([[row.get(c, 0) for c in cols] for row in fed], len(cols))
    assert ech.pivot_columns == [cols[j] for j in pivots]
    assert [[Fraction(ech.rows[cols[j]].get(c, 0), ech.rows[cols[j]][cols[j]]) for c in cols]
            for j in pivots] == mat
    for c, row in ech.rows.items():
        assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
    assert space._den == lcm(*(x.denominator for r in mat for x in r))
    assert set(space.free_roots).isdisjoint(ech.rows)
    # a pivot generator projects to minus its echelon row, over _den
    pos = {r: i for i, r in enumerate(space.free_roots)}
    for row, j in zip(mat, pivots):
        assert space._pi[cols[j]] == {pos[cols[c]]: -x * space._den
                                      for c, x in enumerate(row) if x and c != j}


@pytest.mark.parametrize("k, M", [(2, 7), (2, 13), (2, 21), (6, 30), (12, 70)])
def test_every_relation_projects_to_zero(k, M):
    # the relations are written at one point per <tau, eta>-orbit, but the
    # projection must kill every relation on every symbol; levels 7, 13 and
    # 21 have points fixed by tau
    space = plus_quotient(k, M)
    _, two, three = manin_relations(k, M)
    assert len(three) == (k - 1) * len(space.p1)
    for rel in two + three:
        image = {}
        for col, x in rel.items():
            for fp, fv in space._pi[col].items():
                image[fp] = image.get(fp, 0) + x * fv
        assert not any(image.values()), rel


@pytest.mark.parametrize("k, M", [(2, 7), (2, 13), (2, 21), (4, 11), (6, 9), (8, 1), (4, 12)])
def test_quotient_dim_is_nullity_of_every_relation(k, M):
    ncols, two, three = manin_relations(k, M)
    _, pivots = rref([[rel.get(c, 0) for c in range(ncols)] for rel in two + three], ncols)
    assert PlusQuotient(k, M).quotient_dim == ncols - len(pivots)


def test_presentation_is_deterministic():
    a = PlusQuotient(4, 15)
    b = PlusQuotient(4, 15)
    assert a.free_roots == b.free_roots
    assert a.hecke_matrix(2) == b.hecke_matrix(2)
