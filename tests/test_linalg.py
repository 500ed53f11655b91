import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest

from heckeslopes.exact import is_prime
from heckeslopes.linalg import (SparseRREF, SpanSolver, _moduli, charpoly_monic,
                                kernel_basis)
from oracles import charpoly_reference, rref


def test_rref_pivots():
    mat, pivots = rref([[2, 4, 6], [1, 2, 4]], 3)
    assert pivots == [0, 2]
    assert mat[0] == [1, 2, 0] and mat[1] == [0, 0, 1]


def _dense(columns, ncols):
    """kernel_basis's sparse integer columns as dense integer vectors."""
    out = []
    for column in columns:
        vec = [0] * ncols
        for c, x in column:
            vec[c] = x
        out.append(vec)
    return out


def test_kernel_basis_shape():
    rows = [[1, 2, 0, 1], [0, 0, 1, 3]]
    P, columns = kernel_basis(SpanSolver([dict(enumerate(row)) for row in rows], 4))
    # unit pivots: P = 1, and each column is its free column's 1 and the
    # negated pivot-row entries there
    assert (P, columns) == (1, [[(1, 1), (0, -2)], [(3, 1), (0, -1), (2, -3)]])
    for vec in _dense(columns, 4):
        assert sum(r * v for r, v in zip(rows[0], vec)) == 0
        assert sum(r * v for r, v in zip(rows[1], vec)) == 0
    # pivot entries 2 and 3: the one column is (-1/2, -1/3, 1), over P = 6
    chart = SpanSolver([{0: 2, 2: 1}, {1: 3, 2: 1}], 3)
    assert kernel_basis(chart) == (6, [[(2, 6), (0, -3), (1, -2)]])


def test_kernel_of_random_systems():
    rng = random.Random(5)
    for _ in range(40):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(n)]
        P, columns = kernel_basis(SpanSolver([dict(enumerate(row)) for row in rows], m))
        mat, pivots = rref(rows, m)
        assert len(columns) == m - len(pivots)
        # P is the least common denominator of the reduced echelon form, and
        # the columns over P are the basis read off the dense referee's
        # echelon form, vector for vector
        assert P == lcm(*(x.denominator for row in mat for x in row))
        free = [c for c in range(m) if c not in pivots]
        basis = _dense(columns, m)
        assert all(type(x) is int for vec in basis for x in vec)
        assert [[Fraction(x, P) for x in vec] for vec in basis] == [
            [Fraction(c == fc) if c not in pivots else -mat[pivots.index(c)][fc]
             for c in range(m)]
            for fc in free]
        for vec in basis:
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def _cleared(row):
    """A sparse row of ints and Fractions times the lcm of its denominators:
    the integer row that SparseRREF and SpanSolver take, with the same span."""
    d = lcm(*(Fraction(v).denominator for v in row.values()))
    return {c: int(v * d) for c, v in row.items()}


def test_charpoly_monic_matches_cofactor_oracle():
    # an integer matrix B conjugated by diag(d_0, ..., d_(n-1)) is M / den
    # with M integral and den the lcm of the d_i: its charpoly is B's
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randint(1, 5)
        B = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        d = [rng.randint(1, 6) for _ in range(n)]
        den = lcm(*d)
        mat = [[B[i][j] * d[j] * (den // d[i]) for j in range(n)] for i in range(n)]
        rho = max(sum(abs(x) for x in row) for row in B)
        want = charpoly_reference(B)
        assert charpoly_reference([[Fraction(x, den) for x in row] for row in mat]) == want
        assert charpoly_monic(mat, rho, den) == want


def test_charpoly_monic_root_bound_path():
    # integer matrices under their Gershgorin bound, down to one prime
    # before the extra one; the coefficients come out as ints
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(1, 6)
        mat = [[rng.randint(-8, 8) for _ in range(n)] for _ in range(n)]
        rho = max(sum(abs(x) for x in row) for row in mat)
        got = charpoly_monic(mat, root_bound=rho)
        assert got == charpoly_reference(mat)
        assert all(type(c) is int for c in got)
    # a rational matrix with integral charpoly: x^2 - 2 from conjugating
    # [[0, 2], [1, 0]] by diag(1, 3), [[0, 2/3], [3, 0]] = [[0, 2], [9, 0]] / 3
    assert charpoly_monic([[0, 2], [9, 0]], root_bound=2, den=3) == [-2, 0, 1]
    # many primes: a 12 x 12 companion matrix of prod (X - 10^9 i)
    roots = [10**9 * i for i in range(-6, 6)]
    coeffs = [1]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    companion = [[int(i == j + 1) for j in range(12)] for i in range(12)]
    for i in range(12):
        companion[i][11] = -coeffs[i]
    assert charpoly_monic(companion, root_bound=6 * 10**9) == coeffs


def test_charpoly_monic_pivot_vanishing_modulo_one_prime():
    # the first modulus stands at a Hessenberg pivot, where it is no unit
    # modulo the product of the three primes reduced together; each prime is
    # then taken on its own, and the roots ell^(1/3) still lift exactly
    ell = next(_moduli())
    mat = [[0, 0, 1], [ell, 0, 0], [0, 1, 0]]
    assert charpoly_monic(mat, root_bound=2**43) == charpoly_reference(mat) == [-ell, 0, 0, 1]


def test_moduli_are_the_primes_below_2_to_127():
    # the ten written out, and the search that continues below them
    found = [q for q in range(2**127 - 1, 2**127 - 1500, -2) if is_prime(q)]
    assert len(found) > 10
    assert list(islice(_moduli(), len(found))) == found


def test_charpoly_monic_root_bound_rejects():
    # integral trace, non-integral charpoly X^2 - X - 1/4
    with pytest.raises(ArithmeticError):
        charpoly_monic([[2, 1], [1, 0]], root_bound=2, den=2)
    # non-integral trace
    with pytest.raises(ArithmeticError):
        charpoly_monic([[1, 0], [0, 0]], root_bound=2, den=2)
    with pytest.raises(ArithmeticError):
        charpoly_monic([[1]], root_bound=2, den=3)
    # integral, but its roots +-2^100 are far outside the promised bound
    with pytest.raises(ArithmeticError):
        charpoly_monic([[0, 1], [2**200, 0]], root_bound=2)


def _dense_rows(ech, pivots, ncols):
    """The reduced rows of ech at the given pivots, as dense Fraction rows."""
    return [[Fraction(ech.rows[c].get(j, 0), ech.rows[c][c]) for j in range(ncols)]
            for c in pivots]


def _reduce_vector(ech, vec):
    """vec minus vec[c] times the reduced row of each pivot c, zeros dropped."""
    out = dict(vec)
    for c, row in ech.rows.items():
        f = Fraction(out.get(c, 0), row[c])
        for j, v in row.items():
            out[j] = out.get(j, 0) - f * v
    return {j: x for j, x in out.items() if x}


def test_sparse_rref_matches_dense():
    rng = random.Random(3)
    for _ in range(40):
        ncols = rng.randint(2, 10)
        nrows = rng.randint(1, 12)
        dense = []
        sparse = SparseRREF()
        for _ in range(nrows):
            row = {}
            for _ in range(rng.randint(0, 4)):
                row[rng.randrange(ncols)] = rng.randint(-5, 5)
            row = {c: v for c, v in row.items() if v}
            dense.append([row.get(c, 0) for c in range(ncols)])
            sparse.add_row(row)
        mat, pivots = rref(dense, ncols)
        assert sorted(sparse.rows) == pivots
        # the reduced row echelon form is unique, so the rows agree too
        assert _dense_rows(sparse, pivots, ncols) == mat
        # the reduced rows send anything in the row span to zero
        combo = [Fraction(0)] * ncols
        for row in dense:
            c = Fraction(rng.randint(-3, 3))
            for i, v in enumerate(row):
                combo[i] += c * v
        reduced = _reduce_vector(sparse, {i: v for i, v in enumerate(combo) if v})
        assert not reduced
    # large integer and Fraction entries, and the exact image of vectors
    # outside the span
    outside = 0
    for _ in range(40):
        ncols = rng.randint(2, 9)
        dense = []
        sparse = SparseRREF()
        for _ in range(rng.randint(1, 8)):
            row = {}
            for _ in range(rng.randint(1, 5)):
                x = rng.randint(-10**6, 10**6)
                if rng.random() < 0.5:
                    x = Fraction(x, rng.randint(1, 999))
                row[rng.randrange(ncols)] = x
            dense.append([row.get(c, 0) for c in range(ncols)])
            sparse.add_row(_cleared(row))
        mat, pivots = rref(dense, ncols)
        assert sorted(sparse.rows) == pivots
        assert _dense_rows(sparse, pivots, ncols) == mat
        vec = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(ncols)]
        # the dense reduction: subtract vec[c] times the echelon row of each pivot c
        image = [vec[j] - sum(vec[c] * mat[i][j] for i, c in enumerate(pivots))
                 for j in range(ncols)]
        assert _reduce_vector(sparse, dict(enumerate(vec))) == {
            j: x for j, x in enumerate(image) if x}
        outside += any(image)
    assert outside >= 20


def test_sparse_rref_reads_between_inserts():
    # every read of rows, whether of the rows themselves or through the
    # reduction of a vector, must see the reduced form of all rows added so
    # far, however reads and inserts interleave
    rng = random.Random(16)
    for _ in range(30):
        ncols = rng.randint(3, 10)
        dense = []
        sparse = SparseRREF()
        for _ in range(rng.randint(2, 5)):
            for _ in range(rng.randint(1, 4)):
                row = {rng.randrange(ncols): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
                dense.append([row.get(c, 0) for c in range(ncols)])
                sparse.add_row(row)
            mat, pivots = rref(dense, ncols)
            if rng.random() < 0.5:
                assert sorted(sparse.rows) == pivots
                assert [[Fraction(sparse.rows[c].get(j, 0), sparse.rows[c][c])
                         for j in range(ncols)] for c in pivots] == mat
                for c, row in sparse.rows.items():
                    assert min(row) == c and row[c] > 0 and gcd(*row.values()) == 1
            else:
                vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(ncols)]
                image = [vec[j] - sum(vec[c] * mat[i][j] for i, c in enumerate(pivots))
                         for j in range(ncols)]
                assert _reduce_vector(sparse, dict(enumerate(vec))) == {
                    j: x for j, x in enumerate(image) if x}
            assert _dense_rows(sparse, pivots, ncols) == mat


def _random_rows(rng, nrows, ncols, fractional):
    """Sparse integer rows: small ints, or Fractions with denominators up to 3
    cleared to integer rows."""
    def entry():
        x = rng.randint(-4, 4)
        return Fraction(x, rng.randint(1, 3)) if fractional else x
    return [_cleared({c: entry() for c in range(ncols) if rng.random() < 0.6})
            for _ in range(nrows)]


def test_span_solver_roundtrip():
    # SpanSolver(rows, ncols) is the chart of its kernel_basis: an integer
    # combination of the columns over P comes back as its coefficients, and
    # of the columns themselves as P times them; dependent rows give the
    # same chart
    rng = random.Random(21)
    for trial in range(40):
        ncols = rng.randint(2, 7)
        rows = _random_rows(rng, rng.randint(1, ncols), ncols, trial % 2)
        chart = SpanSolver(rows, ncols)
        P, columns = kernel_basis(chart)
        basis = _dense(columns, ncols)
        assert len(chart.free) == len(basis)
        coeffs = [rng.randint(-5, 5) for _ in basis]
        scaled = [sum(c * vec[i] for c, vec in zip(coeffs, basis)) for i in range(ncols)]
        # the coordinates are on the unscaled basis, the columns over P
        assert chart.solve([Fraction(x, P) for x in scaled]) == coeffs
        got = chart.solve(scaled)
        assert got == [P * c for c in coeffs] and all(type(x) is int for x in got)
        combo = {}
        for row in rows:
            m = rng.randint(-3, 3)
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + m * v
        twin = SpanSolver(rows + [combo, rows[0]], ncols)
        assert twin.free == chart.free and twin.solve(scaled) == got


def test_span_solver_errors():
    # the kernel of these rows is spanned by (1, 1, 1)
    chart = SpanSolver([{0: 1, 2: -1}, {1: 2, 2: -2}], 3)
    assert chart.free == [2] and chart.solve([3, 3, 3]) == [3]
    for vec in ([1, 0, 0], [0, 1, 1], [1, 1, 2]):
        with pytest.raises(ValueError):
            chart.solve(vec)
    # a kernel vector moved along a pivot column leaves the kernel: the
    # reduced row of that pivot no longer vanishes on it
    rng = random.Random(22)
    for trial in range(40):
        ncols = rng.randint(2, 7)
        rows = _random_rows(rng, rng.randint(1, ncols), ncols, trial % 2)
        chart = SpanSolver(rows, ncols)
        basis = _dense(kernel_basis(chart)[1], ncols)
        vec = [sum(rng.randint(-5, 5) * b[i] for b in basis) for i in range(ncols)]
        for c in set(range(ncols)) - set(chart.free):
            moved = list(vec)
            moved[c] += rng.choice((-1, 1)) * rng.randint(1, 3)
            with pytest.raises(ValueError):
                chart.solve(moved)
