import random
from fractions import Fraction

import pytest

from heckeslopes.exact import (IntPolynomial, SlopeMultiset, divisors, euler_phi,
                               factorize, inverse_charpoly, is_prime, newton_slopes,
                               valuation)
from oracles import inverse_charpoly_reference


def test_valuation_pins():
    assert valuation(24, 2) == 3
    assert valuation(-2, 2) == 1
    assert valuation(1, 7) == 0
    assert valuation(Fraction(3, 8), 2) == -3
    assert valuation(Fraction(-9, 5), 3) == 2
    # a float is refused, not truncated (2.5 would read as 2, valuation 1)
    for r in (2.5, 2.0):
        with pytest.raises(TypeError):
            valuation(r, 2)
    # zero has no finite valuation; a zero eigenvalue is counted, not sloped
    with pytest.raises(ValueError):
        valuation(0, 5)


def test_valuation_rejects_nonprime():
    with pytest.raises(ValueError):
        valuation(12, 4)
    with pytest.raises(ValueError):
        valuation(12, 1)


def test_valuation_additive():
    rng = random.Random(7)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 11])
        x = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        y = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        assert valuation(x * y, p) == valuation(x, p) + valuation(y, p)


def test_int_polynomial_basics():
    f = IntPolynomial([1, 0, 3, 0])
    assert f.raw_degree == 3
    assert f.degree == 2
    assert f.trimmed().coeffs == (1, 0, 3)
    assert f == IntPolynomial([1, 0, 3])
    g = IntPolynomial([1, 1]) * IntPolynomial([1, -1])
    assert g.coeffs == (1, 0, -1)


def test_int_polynomial_rejects_non_integers():
    # coefficients go through operator.index: ints only, nothing truncated
    for c in (0.5, 2.0, "2", None):
        with pytest.raises(TypeError):
            IntPolynomial([1, c])
    assert IntPolynomial(iter([1, -2, 0])).coeffs == (1, -2, 0)


def test_fractions_are_refused_with_type_error():
    # the charpoly and the polynomial class take integers only, an
    # integral Fraction too; a rational matrix goes in as ints over den
    for c in (Fraction(1, 2), Fraction(4, 2)):
        with pytest.raises(TypeError):
            IntPolynomial([1, c])
        with pytest.raises(TypeError):
            inverse_charpoly([[1, 0], [0, c]], root_bound=2)


def test_newton_slopes_pins():
    # the four reference polygons
    assert newton_slopes(IntPolynomial([1, 24]), 2) == SlopeMultiset.of_slopes([3])
    assert newton_slopes(IntPolynomial([1, 2, 2]), 2) == SlopeMultiset(((Fraction(1, 2), 2),))
    assert newton_slopes(IntPolynomial([1]), 5) == SlopeMultiset()
    assert newton_slopes(IntPolynomial([1, 3, 9]), 3) == SlopeMultiset(((1, 2),))


def test_newton_slopes_requires_unit_constant():
    with pytest.raises(ValueError):
        newton_slopes(IntPolynomial([2, 1]), 2)


def test_newton_slopes_rejects_nonprime():
    # p is checked once per polygon, also when no coefficient but c_0 is nonzero
    for f in (IntPolynomial([1]), IntPolynomial([1, 6]), IntPolynomial([1, 0, 4])):
        for p in (4, 1, 0):
            with pytest.raises(ValueError):
                newton_slopes(f, p)


def test_newton_slopes_sum_rule():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7])
        coeffs = [1] + [rng.randint(-60, 60) for _ in range(rng.randint(1, 8))]
        f = IntPolynomial(coeffs)
        if f.degree <= 0:
            continue
        slopes = newton_slopes(f, p)
        assert slopes.total == f.degree
        weighted = sum(s * m for s, m in slopes)
        assert weighted == valuation(f.coeffs[f.degree], p)


def test_newton_slopes_product_law():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        f = IntPolynomial([1] + [rng.randint(-50, 50) for _ in range(rng.randint(0, 7))])
        g = IntPolynomial([1] + [rng.randint(-50, 50) for _ in range(rng.randint(0, 7))])
        assert newton_slopes(f * g, p) == \
            SlopeMultiset(newton_slopes(f, p).entries + newton_slopes(g, p).entries)


def test_newton_polygon_collinear_merge():
    # all three points on one line -> a single segment of length 2
    assert newton_slopes(IntPolynomial([1, 3, 9]), 3).entries == ((Fraction(1), 2),)


def test_slope_multiset_ops():
    s = SlopeMultiset.of_slopes([Fraction(1, 2), 0, Fraction(1, 2)])
    assert s.total == 3
    assert s.as_list() == [0, Fraction(1, 2), Fraction(1, 2)]
    assert s.in_open_interval(0, 1).as_list() == [Fraction(1, 2), Fraction(1, 2)]
    assert SlopeMultiset(s.entries + SlopeMultiset.of_slopes([3]).entries).total == 4
    assert repr(SlopeMultiset()) == "{}"
    assert repr(s) == "{0 x1, 1/2 x2}"


def _row_sum_bound(mat):
    """Gershgorin: every eigenvalue is at most the largest absolute row sum."""
    return max(sum(abs(x) for x in row) for row in mat)


def test_inverse_charpoly_pins():
    assert inverse_charpoly([[1, 0], [0, 1]], root_bound=1).coeffs == (1, -2, 1)
    assert inverse_charpoly([[0, 0], [0, 0]], root_bound=0).coeffs == (1, 0, 0)
    assert inverse_charpoly([[0, -2], [1, 0]], root_bound=2).coeffs == (1, 0, 2)


def test_inverse_charpoly_matches_cofactor_oracle():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert (list(inverse_charpoly(mat, root_bound=_row_sum_bound(mat)).coeffs)
                == inverse_charpoly_reference(mat))


def test_inverse_charpoly_block_diagonal():
    rng = random.Random(19)
    for _ in range(40):
        a = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(2)]
        b = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        block = [row + [0, 0, 0] for row in a] + [[0, 0] + row for row in b]
        assert (inverse_charpoly(block, root_bound=_row_sum_bound(block))
                == inverse_charpoly(a, root_bound=_row_sum_bound(a))
                * inverse_charpoly(b, root_bound=_row_sum_bound(b)))


def test_inverse_charpoly_rational_entries():
    # half-integral entries, integral charpoly: eigenvalues +1 and -1
    mat = [[7, -3], [15, -7]]
    assert inverse_charpoly(mat, root_bound=1, den=2).coeffs == (1, 0, -1)


def test_inverse_charpoly_rejects_non_integral():
    with pytest.raises(ArithmeticError):
        inverse_charpoly([[1]], root_bound=1, den=2)
    with pytest.raises(ValueError):
        inverse_charpoly([[1, 2, 3], [4, 5, 6]], root_bound=15)


def test_slopes_equal_eigenvalue_valuations():
    # conjugated diagonal matrices have known eigenvalues
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 4)
        p = rng.choice([2, 3, 5])
        eigs = [rng.choice([0, 1, 2, 3, 4, 6, 8, 9, 12, 18, -24]) for _ in range(n)]
        mat = [[eigs[i] if i == j else 0 for j in range(n)] for i in range(n)]
        # unimodular conjugation: add multiples of one row/column
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            for t in range(n):
                mat[i][t] += c * mat[j][t]
            for t in range(n):
                mat[t][j] -= c * mat[t][i]
        f = inverse_charpoly(mat, root_bound=24)
        expected = SlopeMultiset.of_slopes([valuation(e, p) for e in eigs if e])
        assert newton_slopes(f, p) == expected
        assert f.raw_degree - f.degree == sum(1 for e in eigs if e == 0)


def test_arithmetic_helpers():
    assert [n for n in range(60) if is_prime(n)][:8] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(2**31 - 1) and not is_prime(2**32 + 1)
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert divisors(28) == [1, 2, 4, 7, 14, 28]
    assert [euler_phi(n) for n in (1, 2, 9, 12, 97)] == [1, 1, 6, 4, 96]
