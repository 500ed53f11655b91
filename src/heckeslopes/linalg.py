"""Exact linear algebra: one elimination routine and a characteristic
polynomial.

SparseRREF is the only Gaussian elimination.  It is fraction-free
(Bareiss, Math. Comp. 22, 1968): it stores primitive integer rows, which
the modular-symbols presentation reads directly; kernel_basis reads
kernel bases off its reduced form, and SpanSolver solves in the span of
a fixed family by eliminating the family augmented with an identity
block.  charpoly_monic is a separate algorithm over Fraction: a
similarity reduction to Hessenberg form.

Everything is deterministic: the pivot of a new row is its smallest
column and every pivot row is fully reduced, so the echelon form is the
unique reduced row echelon form of the row span, whatever the insertion
order.
"""

from fractions import Fraction
from math import gcd, lcm

__all__ = ["kernel_basis", "charpoly_monic", "SparseRREF", "SpanSolver"]


def kernel_basis(rows, ncols):
    """Basis of {v : A v = 0} for the matrix with the given sparse rows.

    Rows are dicts {column: coefficient}.  One basis vector per free
    column, in ascending free-column order; the vector for free column c
    has a 1 there, so the basis is deterministic and echelon-shaped.
    """
    ech = SparseRREF()
    for row in rows:
        ech.add_row(row)
    pivots = ech.pivot_rows
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for pc, prow in pivots.items():
                v[pc] = -prow.get(fc, Fraction(0))
            basis.append(tuple(v))
    return basis


def charpoly_monic(M):
    """Coefficients of det(X*I - M), constant first, exact over Fraction.

    Similarity reduction to Hessenberg form followed by the standard
    leading-principal-minor recurrence; O(n^3) field operations, much
    faster than division-free methods once entries grow.
    """
    n = len(M)
    if n == 0:
        return [Fraction(1)]
    H = [[Fraction(x) for x in row] for row in M]
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if H[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            # swap rows and the matching columns to keep similarity
            H[c + 1], H[piv] = H[piv], H[c + 1]
            for row in H:
                row[c + 1], row[piv] = row[piv], row[c + 1]
        inv = 1 / H[c + 1][c]
        for r in range(c + 2, n):
            f = H[r][c]
            if f == 0:
                continue
            f *= inv
            Hr, Hc1 = H[r], H[c + 1]
            for j in range(c, n):
                Hr[j] -= f * Hc1[j]
            # inverse column operation: col_{c+1} += f * col_r
            for row in H:
                row[c + 1] += f * row[r]
    # p_m(X) = det(X I - H[:m,:m]); expanding along the last column:
    # p_m = (X - H[m-1][m-1]) p_{m-1}
    #       - sum_{i>=1} H[m-1-i][m-1] * (prod of the i subdiagonal entries
    #                                     H[m-j][m-j-1], j=1..i) * p_{m-1-i}
    polys = [[Fraction(1)]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [Fraction(0)] * (m + 1)
        a = H[m - 1][m - 1]
        for i, ci in enumerate(prev):
            cur[i + 1] += ci
            cur[i] -= a * ci
        sub = Fraction(1)
        for i in range(1, m):
            sub *= H[m - i][m - i - 1]
            if sub == 0:
                break
            f = H[m - 1 - i][m - 1] * sub
            if f:
                for j, cj in enumerate(polys[m - 1 - i]):
                    cur[j] -= f * cj
        polys.append(cur)
    return polys[n]


def _sub_multiple(row, f, other):
    """row -= f * other, in place, dropping the entries that cancel."""
    for k, v in other.items():
        nv = row.get(k, 0) - f * v
        if nv:
            row[k] = nv
        else:
            del row[k]


def _make_primitive(row):
    """Divide an integer row in place by its content, positive at its first column."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


class SparseRREF:
    """Incremental reduced echelon form for sparse integer/rational rows.

    Rows are dicts {column: coefficient}.  rows holds one integer row per
    pivot column: primitive (entry gcd 1), positive at the pivot, which is
    its smallest column, and zero at every other pivot column.  The
    reduced echelon row is that row divided by its pivot entry.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> primitive integer row

    def add_row(self, row):
        """Reduce row and absorb it; returns the new pivot column or None.

        The reduced row is made primitive, with pivot entry a > 0; each
        stored row with entry f at the new pivot becomes a * prow - f * row
        divided by its content.
        """
        vec, _ = self._reduce(row)
        if not vec:
            return None
        _make_primitive(vec)
        c = min(vec)
        a = vec[c]
        for prow in self.rows.values():
            f = prow.get(c)
            if f:
                h = gcd(a, f)
                if a != h:
                    for k in prow:
                        prow[k] *= a // h
                _sub_multiple(prow, f // h, vec)
                _make_primitive(prow)
        self.rows[c] = vec
        return c

    @property
    def pivot_columns(self):
        return sorted(self.rows)

    @property
    def pivot_rows(self):
        """The reduced echelon form: pivot column -> row of Fractions."""
        return {c: {k: Fraction(v, row[c]) for k, v in row.items()}
                for c, row in self.rows.items()}

    def _reduce(self, vec):
        """(w, den) with w integral and w / den the image of vec.

        A pivot row is zero at every other pivot column, so vec scaled
        once by the lcm of the pivot entries it meets reduces in integers.
        """
        den = lcm(*(v.denominator for v in vec.values()))
        hits = sorted(c for c, v in vec.items() if v and c in self.rows)
        scale = lcm(*(self.rows[c][c] for c in hits))
        w = {c: v.numerator * (den // v.denominator) * scale for c, v in vec.items() if v}
        for c in hits:
            _sub_multiple(w, w[c] // self.rows[c][c], self.rows[c])
        return w, den * scale

    def reduce_vector(self, vec):
        """Image of a sparse vector in the quotient by the row span.

        Eliminates pivot coordinates, leaving a vector supported on free
        columns only; its entries are Fractions.
        """
        w, den = self._reduce(vec)
        return {k: Fraction(v, den) for k, v in w.items()}


class SpanSolver:
    """Exact membership test for the span of a fixed list of vectors.

    solve(target) returns coefficients x with sum x_i * basis_i == target,
    or raises ValueError when target is outside the span.  Used to restrict
    operators to invariant subspaces, where inconsistency means the
    subspace was not actually invariant.

    Vector v_i enters a SparseRREF as the row (v_i, e_i), with e_i in
    column width + i, so each pivot row carries the combination of the
    v_i it came from.
    """

    def __init__(self, vectors):
        self.width = len(vectors[0]) if vectors else 0
        self.count = len(vectors)
        self._ech = SparseRREF()
        for i, v in enumerate(vectors):
            row = dict(enumerate(v))
            row[self.width + i] = 1
            if self._ech.add_row(row) >= self.width:
                raise ValueError("dependent basis vector")

    def solve(self, target):
        # (target, 0) minus the eliminated pivot rows is (target - sum x_i v_i, -x)
        rest = self._ech.reduce_vector(dict(enumerate(target)))
        if any(c < self.width for c in rest):
            raise ValueError("vector not in span")
        return [-rest.get(self.width + i, Fraction(0)) for i in range(self.count)]
