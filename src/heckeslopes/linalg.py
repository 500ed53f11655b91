"""Exact linear algebra: one elimination routine and one characteristic
polynomial algorithm.

SparseRREF is the only Gaussian elimination.  It is fraction-free
(Bareiss, Math. Comp. 22, 1968): it takes sparse integer rows and stores
primitive integer rows, which the modular-symbols presentation reads
directly.  Rows are kept in echelon form as they arrive and
back-substituted once, from the last pivot, when rows is next read, so
each stored row is rewritten once per read rather than once per later
pivot; add_row and rows are all it has.  SpanSolver eliminates a set of
integer rows once and keeps the reduced rows and the free columns: the
coordinate chart of their kernel, whose basis kernel_basis reads off the
chart with no second elimination, as integer columns over one
denominator P, the lcm of the chart's pivot entries.

charpoly_monic(M, root_bound, den) is the characteristic polynomial of
M / den, M an integer matrix.  It is multimodular (Stein, Modular Forms: A
Computational Approach, GSM 79) and takes one bound: the caller promises
an integral charpoly whose roots satisfy |lambda| <= rho, so its
coefficients are at most C(n, i) rho^i.  For T_p and U_p on
S_k(Gamma_0(N)) the promise is a theorem: the charpoly is integral, and
Deligne (La conjecture de Weil I, 1974) gives |a_p| <= 2 p^((k-1)/2),
while U_p at p | N has |lambda| <= p^((k-1)/2).  M / den is reduced to
Hessenberg form modulo a fixed list of primes (those below 2^127,
largest first, found by exact.is_prime, skipping those that divide den),
and the residues are combined by CRT and lifted symmetrically once the
product of the primes exceeds twice the bound.  The lift is certified
against one further prime; a mismatch means the promise was broken and
raises ArithmeticError.

Everything is deterministic: the pivot of a new row is its smallest
column once reduced, and every read sees fully reduced pivot rows, the
unique reduced row echelon form of the row span, whatever the insertion
order and however reads and inserts interleave; the primes are the same
on every run.
"""

from heapq import heapify, heappop, heappush
from itertools import islice
from math import comb, gcd, lcm, prod
from operator import mul, sub

from .exact import is_prime

__all__ = ["kernel_basis", "charpoly_monic", "SparseRREF", "SpanSolver"]


def _moduli():
    """The primes below 2^127, largest first, found once and memoized.

    At this size is_prime is a strong probable-prime test to twelve
    bases; the results below would stay exact for any pairwise coprime
    moduli, since a pivot that fails to invert raises.
    """
    i = 0
    while True:
        if i == len(_MODULI):
            q = _MODULI[-1] - 2
            while not is_prime(q):
                q -= 2
            _MODULI.append(q)
        yield _MODULI[i]
        i += 1


# the first ten written out: searching for them costs every process
# several milliseconds
_MODULI = [2**127 - c for c in (1, 25, 39, 295, 309, 507, 511, 577, 697, 735)]


def _charpoly_mod(H, ell):
    """det(X*I - H) mod ell, constant first, for a matrix of residues.

    Similarity reduction to Hessenberg form (H is overwritten), then the
    leading-principal-minor recurrence.  ell need not be prime: a pivot
    that does not invert modulo ell raises ValueError.

    Row operations skip the reduction mod ell: each adds f*b with f and b
    reduced, so entries stay below (n + 1) * ell^2.  The pivot row and
    the multipliers are reduced before use, and the entries left below
    the subdiagonal (zero mod ell) are never read again.
    """
    n = len(H)
    for c in range(n - 2):
        piv = next((r for r in range(c + 1, n) if H[r][c] % ell), None)
        if piv is None:
            continue
        if piv != c + 1:
            # swap rows and the matching columns to keep similarity
            H[c + 1], H[piv] = H[piv], H[c + 1]
            for row in H:
                row[c + 1], row[piv] = row[piv], row[c + 1]
        Hc1 = H[c + 1]
        Hc1[c:] = tail = [x % ell for x in Hc1[c:]]
        inv = pow(tail[0], -1, ell)
        fs = [H[r][c] * inv % ell for r in range(c + 2, n)]
        if not any(fs):
            continue
        # row_r -= f_r * row_{c+1}; rows below c+1 vanish left of column c
        for r, f in enumerate(fs, c + 2):
            if f:
                Hr = H[r]
                Hr[c:] = map(sub, Hr[c:], map(f.__mul__, tail))
        # the inverse column operations together: col_{c+1} += sum f_r col_r
        for row in H:
            row[c + 1] = (row[c + 1] + sum(map(mul, fs, islice(row, c + 2, None)))) % ell
    # p_m(X) = det(X I - H[:m,:m]); expanding along the last column:
    # p_m = (X - H[m-1][m-1]) p_{m-1}
    #       - sum_{i>=1} H[m-1-i][m-1] * (prod of the i subdiagonal entries
    #                                     H[m-j][m-j-1], j=1..i) * p_{m-1-i}
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        a = H[m - 1][m - 1]
        cur = [0] + prev
        cur[:m] = [x - a * y for x, y in zip(cur, prev)]
        chain = 1
        for i in range(1, m):
            chain = chain * H[m - i][m - i - 1] % ell
            if not chain:
                break
            f = H[m - 1 - i][m - 1] * chain % ell
            if f:
                q = polys[m - 1 - i]
                cur[:len(q)] = [x - f * y for x, y in zip(cur, q)]
        polys.append([x % ell for x in cur])
    return polys[n]


def charpoly_monic(M, root_bound, den=1):
    """Coefficients of det(X*I - M / den), constant first, as ints.

    M is a square matrix of ints, and the charpoly of M / den is integral
    with every root of absolute value at most root_bound = rho, so the
    coefficient of X^(n-i) is at most C(n, i) rho^i.  The primes of
    _moduli that do not divide den are taken until their product P
    exceeds twice that bound, plus one further prime; the residues modulo
    all of them are combined by CRT, and those modulo P lifted to
    (-P/2, P/2].  The lift must agree with the further prime, else
    ArithmeticError is raised.

    The residues come three primes at a time, from one reduction modulo
    their product, which at n = 20 costs about twice one reduction modulo
    a single prime.
    """
    n = len(M)
    if n == 0:
        return [1]
    bound = max(comb(n, i) * root_bound ** i for i in range(n + 1))
    primes = (ell for ell in _moduli() if den % ell)
    mods, P = [], 1
    while P <= 2 * bound:
        mods.append(next(primes))
        P *= mods[-1]
    extra = next(primes)
    mods.append(extra)
    res = _crt(n + 1, ((prod(mods[i:i + 3]), _residues(M, den, mods[i:i + 3]))
                       for i in range(0, len(mods), 3)))
    lift = [x % P for x in res]
    lift = [x - P if 2 * x > P else x for x in lift]
    if any((x - r) % extra for x, r in zip(lift, res)):
        raise ArithmeticError("characteristic polynomial exceeds the root bound %d "
                              "or is not integral" % root_bound)
    return lift


def _residues(M, den, primes):
    """det(X*I - M / den) modulo the product Q of primes, by one reduction
    modulo Q.  A pivot that is no unit there vanishes modulo some of the
    primes; then each prime is taken on its own."""
    Q = prod(primes)
    s = pow(den, -1, Q)
    try:
        return _charpoly_mod([[x * s % Q for x in row] for row in M], Q)
    except ValueError:
        return _crt(len(M) + 1, ((ell, _residues(M, den, [ell])) for ell in primes))


def _crt(n, parts):
    """The n residues modulo the product of pairwise coprime moduli, from
    (modulus, n residues) pairs."""
    out, Q = [0] * n, 1
    for q, res in parts:
        t = pow(Q, -1, q)
        out = [x + Q * ((r - x) * t % q) for x, r in zip(out, res)]
        Q *= q
    return out


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
    """Reduced echelon form of the span of sparse integer rows.

    Rows are dicts {column: int}.  add_row keeps an echelon form:
    one integer row per pivot column, primitive (entry gcd 1) and positive
    at the pivot, which is its smallest column.  The first read of rows
    after an insert back-substitutes once, from the last pivot, so that
    every row is also zero at the other pivot columns: the unique reduced
    echelon form of the span, each row scaled to a primitive integer row.
    """

    def __init__(self):
        self._rows = {}  # pivot column -> primitive integer row
        self._reduced = True

    def add_row(self, row):
        """Absorb row into the echelon form; returns the new pivot column or None.

        The row is reduced from its smallest column up, while that column
        is a pivot: with pivot entry a and entry f there, it becomes
        (a * row - f * prow) / gcd(a, f).  The first non-pivot column left
        is the new pivot, and the row is stored there, made primitive.
        """
        vec = {c: v for c, v in row.items() if v}
        rows = self._rows
        cols = list(vec)
        heapify(cols)
        while cols:
            c = heappop(cols)
            f = vec.get(c)
            if not f:
                continue  # cancelled, or a column pushed twice
            prow = rows.get(c)
            if prow is None:
                _make_primitive(vec)
                rows[c] = vec
                self._reduced = False
                return c
            a = prow[c]
            h = gcd(a, f)
            if a != h:
                m = a // h
                vec = {k: v * m for k, v in vec.items()}
            f //= h
            for k, v in prow.items():
                x = vec.get(k)
                if x is None:
                    vec[k] = -f * v
                    heappush(cols, k)
                elif x != f * v:
                    vec[k] = x - f * v
                else:
                    del vec[k]
            g = gcd(*vec.values())
            if g > 1:
                vec = {k: v // g for k, v in vec.items()}
        return None

    @property
    def rows(self):
        """pivot column -> primitive integer row of the reduced echelon form."""
        if not self._reduced:
            rows = self._rows
            # the rows of later pivots are reduced already, and each is zero
            # at every other pivot column, so scaling row once by the lcm of
            # their pivot entries keeps every step integral
            for c in sorted(rows, reverse=True):
                row = rows[c]
                hits = [k for k in row if k != c and k in rows]
                if hits:
                    scale = lcm(*(rows[h][h] for h in hits))
                    if scale != 1:
                        row = {k: v * scale for k, v in row.items()}
                    for h in hits:
                        _sub_multiple(row, row[h] // rows[h][h], rows[h])
                    _make_primitive(row)
                    rows[c] = row
            self._reduced = True
        return self._rows


class SpanSolver:
    """The elimination of sparse rows, and the coordinate chart of their kernel.

    rows is the reduced echelon form of the given integer rows (pivot column ->
    primitive integer row, as SparseRREF.rows) and free the other columns
    below ncols.  solve(target) raises ValueError unless every reduced row
    vanishes on target; otherwise it returns target's entries at the free
    columns, its exact coordinates on the unscaled kernel basis, that is,
    on the columns of kernel_basis(self) divided by P: each of those has
    a 1 at its own free column and a 0 at the others.
    """

    def __init__(self, rows, ncols):
        ech = SparseRREF()
        for row in rows:
            ech.add_row(row)
        self.rows = ech.rows
        self.free = [c for c in range(ncols) if c not in self.rows]

    def solve(self, target):
        for row in self.rows.values():
            if sum(map(mul, row.values(), map(target.__getitem__, row))):
                raise ValueError("vector not in the kernel")
        return [target[c] for c in self.free]


def kernel_basis(chart):
    """(P, columns): a basis of the kernel of a SpanSolver's rows, read off
    its reduced form, as sparse integer columns over one denominator P.

    P is the lcm of the chart's pivot entries.  There is one column per
    free column c, in ascending order, as (index, entry) pairs: P at c and
    -prow[c] * (P / prow[pc]) at each pivot pc whose row reaches c.  Over
    P it is the vector with a 1 at its own free column and a 0 at the
    others, so the basis is deterministic and echelon-shaped.
    """
    rows = chart.rows
    P = lcm(*(prow[pc] for pc, prow in rows.items()))
    return P, [[(c, P)] + [(pc, -prow[c] * (P // prow[pc]))
                           for pc, prow in rows.items() if c in prow]
               for c in chart.free]
