"""Tests for the class-number trace engine.

Hurwitz numbers are checked against an independent reduced-form count,
traces against q-expansion oracles, Cohen's formula summed over
primitive forms, and the Manin-symbol engine.
"""

import hashlib
from fractions import Fraction
from math import gcd, isqrt

import pytest

from heckeslopes.dimensions import dim_cuspforms
from heckeslopes.errors import TraceBudgetExceeded
from heckeslopes import traceforms
from heckeslopes.exact import IntPolynomial
from heckeslopes.modsym import charpoly_cuspidal, plus_quotient
from heckeslopes.traceforms import (
    ClassNumberTable,
    _gegenbauer,
    _quadratic_roots,
    _new_charpoly,
    charpoly_from_traces,
    charpolys_from_traces,
    trace_feasible,
    trace_tn,
)

from oracles import (
    delta_coefficients,
    eta_space_coefficient,
    hurwitz_class_number,
    hurwitz_reference,
    primitive_class_weight,
    trace_reference,
)


def test_hurwitz_spot_values():
    pins = {3: Fraction(1, 3), 4: Fraction(1, 2), 7: 1, 8: 1, 11: 1, 23: 3}
    for n, v in pins.items():
        assert hurwitz_class_number(n) == v
    assert hurwitz_class_number(0) == Fraction(-1, 12)
    assert hurwitz_class_number(1) == 0
    assert hurwitz_class_number(2) == 0
    with pytest.raises(ValueError):
        hurwitz_class_number(-4)


def test_hurwitz_matches_reference_oracle():
    for n in range(0, 301):
        assert hurwitz_class_number(n) == hurwitz_reference(n), n


def test_sieved_table_matches_direct_count():
    table = traceforms._DEFAULT_TABLE
    for n in range(1, 401):
        assert table.h6(n) == 6 * hurwitz_class_number(n), n
    with pytest.raises(ValueError):
        table.h6(0)


def test_table_grows_to_the_request(monkeypatch):
    monkeypatch.setattr(traceforms, "DISC_CAP_DEFAULT", 2_000_000)
    table = ClassNumberTable()
    table.ensure(500)
    assert table.limit == 500      # the first build fits the request
    table.ensure(600)
    assert table.limit >= 1000     # a rebuild at least doubles the table
    for n in range(490, 621):      # across the old boundary
        assert table.h6(n) == 6 * hurwitz_class_number(n), n
    table.ensure(150_000)
    assert 150_000 <= table.limit < traceforms.DISC_CAP_DEFAULT


def test_trace_matches_primitive_form_reference():
    # the oracle's primitive-form count: fundamental discriminants count
    # every form, imprimitive classes are removed (-12 = -3 * 2^2, ...),
    # and over f^2 | n the counts add up to the Hurwitz number
    for n, h in [(3, Fraction(1, 3)), (4, Fraction(1, 2)), (7, 1), (8, 1),
                 (11, 1), (15, 2), (20, 2), (23, 3), (12, 1), (16, 1),
                 (27, 1)]:
        assert primitive_class_weight(n) == h, n
    for n in range(1, 301):
        if n % 4 in (1, 2):
            continue
        assert hurwitz_class_number(n) == sum(
            primitive_class_weight(n // (f * f))
            for f in range(1, isqrt(n) + 1)
            if n % (f * f) == 0 and (n // (f * f)) % 4 in (0, 3)), n
    # Hurwitz numbers with Moebius weights against the per-order sum
    for N in sorted(set(range(1, 41)) | {64, 81, 128, 243}):
        for k in (2, 4, 8):
            for n in range(1, 26):
                if gcd(n, N) == 1:
                    assert trace_tn(k, N, n) == trace_reference(k, N, n), \
                        (k, N, n)


def test_gegenbauer_matches_three_term_recurrence():
    # p_0 = 1, p_1 = t, p_m = t p_{m-1} - n p_{m-2}; the elliptic term takes p_{k-2}
    for t in (-60, -17, -5, -1, 0, 1, 2, 3, 11, 44):
        for n in (1, 2, 5, 59, 961, 10**6 + 3):
            seq = [1, t]
            while len(seq) < 80:
                seq.append(t * seq[-1] - n * seq[-2])
            for k in range(2, 81):
                assert _gegenbauer(k, t, n) == seq[k - 2], (k, t, n)


def test_trace_pins():
    assert trace_tn(12, 1, 2) == -24
    assert trace_tn(12, 1, 1) == 1
    assert trace_tn(2, 11, 2) == -2


def test_trace_matches_delta_expansion():
    tau = delta_coefficients(11)
    for n in range(1, 11):
        assert trace_tn(12, 1, n) == tau[n], n


def test_trace_matches_eta_oracles():
    # one-dimensional spaces: the trace is the q-expansion coefficient
    for n in range(1, 30):
        if n % 11 == 0:
            continue
        assert trace_tn(2, 11, n) == eta_space_coefficient(2, 11, n), n
    for n in (1, 3, 5, 7, 9, 11, 13):
        assert trace_tn(8, 2, n) == eta_space_coefficient(8, 2, n), n


def test_quadratic_roots_lift_to_every_root():
    # the roots lifted one power of q at a time are exactly the residues a
    # scan over all of [0, q^e) finds
    for q, e in ((2, 7), (3, 5), (5, 3), (7, 2), (11, 1)):
        Q = q ** e
        for t in range(0, 40, 3):
            for n in (1, 2, 4, 7, 9, 25, 81, 243, 1000):
                scan = [x for x in range(Q) if (x * x - t * x + n) % Q == 0]
                assert sorted(_quadratic_roots(q, e, t, n)) == scan, (q, e, t, n)


def test_trace_pins_prime_power_levels():
    # sha256 of these traces as computed by scanning all q^e residues for the
    # roots of x^2 - t x + n, before the roots were lifted power by power
    vals = [(k, N, n, trace_tn(k, N, n)) for N in (27, 49, 81, 125, 128, 243)
            for k in (2, 4, 12) for n in range(1, 61) if gcd(n, N) == 1]
    assert len(vals) == 750
    assert hashlib.sha256(repr(vals).encode()).hexdigest() == (
        "7f294de04e629103dd627ddef88f4b98011167b695f2f3c3a42b7ec6c1a6574d")


def test_trace_at_one_calibrates_dimension():
    for N in range(1, 31):
        for k in (2, 4, 6, 8, 10, 12):
            assert trace_tn(k, N, 1) == dim_cuspforms(k, N), (k, N)


def test_trace_argument_guards():
    with pytest.raises(ValueError):
        trace_tn(3, 11, 2)      # odd weight
    with pytest.raises(ValueError):
        trace_tn(0, 11, 2)
    with pytest.raises(ValueError):
        trace_tn(2, 11, 11)     # gcd(n, N) > 1
    assert trace_tn(2, 32, 3) == 0  # a 2^5 level is in reach; modsym agrees
    with pytest.raises(ValueError):
        trace_tn(2, 0, 1)


def test_trace_budget_exception_carries_context(monkeypatch):
    monkeypatch.setattr(traceforms, "DISC_CAP_DEFAULT", 200)
    with pytest.raises(TraceBudgetExceeded) as ei:
        trace_tn(2, 1, 300)
    assert ei.value.k == 2 and ei.value.N == 1 and ei.value.n == 300
    with pytest.raises(TraceBudgetExceeded) as ei:
        # basis T_1, T_2, T_3 of dim 3: tr T_7 T_3 T_3 needs tr T_63
        charpoly_from_traces(4, 13, 7)
    assert ei.value.k == 4 and ei.value.N == 13 and ei.value.n == 63


def test_trace_feasibility_rule():
    assert trace_feasible(2, 11, 2)
    assert trace_feasible(12, 1, 13)
    assert trace_feasible(16, 14, 13)       # traces of T_n, n <= 13 * 448^2
    assert trace_feasible(2, 32, 3)         # every level is in reach


def hecke_power_traces(k, N, p, count):
    """Power sums s_m = tr(T_p^m) on S_k(Gamma_0(N)) for m = 1..count.

    Converts tr T_{p^j} into traces of plain matrix powers through the
    Hecke recursion T_p T_{p^j} = T_{p^(j+1)} + p^(k-1) T_{p^(j-1)}.
    """
    dim = dim_cuspforms(k, N)
    t = [dim] + [trace_tn(k, N, p ** j) for j in range(1, count + 1)]
    scale = p ** (k - 1)
    out = []
    a = [0, 1]  # X = q_1
    for m in range(1, count + 1):
        out.append(sum(aj * t[j] for j, aj in enumerate(a) if aj))
        # multiply by X in the q_j basis
        nxt = [0] * (len(a) + 1)
        nxt[0] = scale * a[1] if len(a) > 1 else 0
        for j in range(1, len(a) + 1):
            nxt[j] = a[j - 1] + (scale * a[j + 1] if j + 1 < len(a) else 0)
        a = nxt
    return out


def test_power_traces_match_matrix_powers():
    for (k, N, p) in [(4, 13, 2), (6, 11, 2), (2, 23, 3), (8, 5, 3)]:
        A = plus_quotient(k, N).hecke_matrix(p)
        d = len(A)
        s = hecke_power_traces(k, N, p, d)
        P = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        for m in range(1, d + 1):
            P = [[sum(P[i][t] * A[t][j] for t in range(d))
                  for j in range(d)] for i in range(d)]
            assert s[m - 1] == sum(P[i][i] for i in range(d)), (k, N, p, m)


def test_charpoly_from_traces_pins():
    assert charpoly_from_traces(12, 1, 2) == IntPolynomial([1, 24])
    assert charpoly_from_traces(10, 1, 3) == IntPolynomial([1])
    assert charpoly_from_traces(2, 11, 3) == IntPolynomial([1, 1])


def test_charpolys_from_traces_pins_the_criterion_2_grid():
    # the 536 points of criterion 2's grid, one call per (k, N); the digest
    # is that of the polynomials charpoly_from_traces gave point by point
    # when each point solved its own Gram system in Fractions
    primes = (2, 3, 5, 7, 11, 13)
    polys = []
    for k in range(2, 17, 2):
        for N in range(1, 15):
            by_prime = charpolys_from_traces(k, N, [p for p in primes if N % p])
            polys += [by_prime[p] for p in primes if N % p]
    assert len(polys) == 536
    text = "\n".join(",".join(map(str, f.coeffs)) for f in polys)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "488fd0983cfec11843ba2f2b8fc6a04583d772dad509b847b3c46d378b9c3241"


@pytest.mark.parametrize("k, N, p, reason", [
    (12, 1, 4, "must be prime"),  # the trace route gave T_4's polynomial [1, 1472]
    (12, 1, 1, "must be prime"),  # and blamed p = 1 on "p not dividing N"
    (3, 11, 2, "weight must be even"),  # the trace route returned [1] for these three
    (0, 11, 2, "weight must be even"),
    (-4, 1, 2, "weight must be even"),
    (12, 0, 5, "level must be >= 1"),  # blamed on "p not dividing N"
], ids=["p=4", "p=1", "k=3", "k=0", "k=-4", "N=0"])
def test_both_engines_refuse_an_out_of_range_input(k, N, p, reason):
    for engine in (charpoly_from_traces, charpoly_cuspidal):
        with pytest.raises(ValueError, match=reason):
            engine(k, N, p)


def _two_dim_traces(k, P2, P3):
    """tr T_n, n | 12, on a 2-dim Hecke algebra with T_2 = P2, T_3 = P3."""
    def mul(X, Y):
        return [[sum(X[i][t] * Y[t][j] for t in range(2)) for j in range(2)]
                for i in range(2)]
    T4 = mul(P2, P2)
    T4 = [[T4[i][j] - (2 ** (k - 1) if i == j else 0) for j in range(2)]
          for i in range(2)]
    mats = {1: [[1, 0], [0, 1]], 2: P2, 3: P3, 4: T4, 6: mul(P2, P3),
            12: mul(T4, P3)}
    return lambda n: mats[n][0][0] + mats[n][1][1]


def test_new_charpoly_integer_recurrence():
    # stand-ins for S_24(1), basis T_1, T_2; T_3 has charpoly X^2 - 2X - 2
    # and, on the basis, denominator 2 (T_2 = 2 T_3)
    half = Fraction(1, 2)
    P3 = [[1, 3 * half], [2, 1]]
    tr = _two_dim_traces(24, [[2, 3], [4, 2]], P3)
    assert _new_charpoly(24, 1, (3,), tr) == {3: IntPolynomial([1, -2, -2])}
    # X^2 - 2X + 1/2: the linear coefficient is integral, the constant not
    P3 = [[1, half], [1, 1]]
    with pytest.raises(ArithmeticError):
        _new_charpoly(24, 1, (3,), _two_dim_traces(24, P3, P3))


def test_cross_engine_agreement_sample():
    for N in range(1, 15):
        for k in (2, 4, 6):
            for p in (2, 3):
                if N % p == 0 or not trace_feasible(k, N, p):
                    continue
                assert charpoly_from_traces(k, N, p) == \
                    charpoly_cuspidal(k, N, p), (k, N, p)


def test_cross_engine_agreement_at_prime_power_levels():
    # 2^4..2^7 and 3^3, alone and times 3: Cohen's elliptic term at every level
    for N in (16, 27, 32, 48, 64, 96, 128):
        p = next(q for q in (2, 3, 5) if N % q)
        for k in (2, 4, 6, 8):
            if dim_cuspforms(k, N) <= 40:
                assert charpoly_from_traces(k, N, p) == \
                    charpoly_cuspidal(k, N, p), (k, N, p)
