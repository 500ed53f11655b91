"""Independent reference computations used to pin expected values.

Nothing here imports from the package's math internals: q-expansions
come from eta products, class numbers from two direct reduced-form
enumerations (different normal forms from each other and from the
library's sieve), characteristic polynomials from cofactor expansion and
from a Hessenberg reduction over Fraction (the package works modulo
primes), and reduced row echelon forms from dense Gauss-Jordan
elimination.  Traces of T_n come from Cohen's formula with its elliptic
term summed over orders, primitive forms of discriminant -D/f^2 times
mu(t, f, n), where the package sums Hurwitz numbers.  Agreement between
these and the package is the point of the tests, so keep it that way.
Hecke matrices are assembled term by term from a built space's
presentation, so they referee the assembly, not the presentation.
P^1(Z/M) points are reduced one pair at a time by extended gcds, where
the package scans unit orbits.  The Manin-symbol relations are written
out in full, one of each kind per symbol, from the matrix action on
polynomials and points, where the package unites two-term and star pairs
and writes three-term relations at one point per orbit.

The last section is not a referee: criterion 7's 2-refinement check
builds on the package's regularity verdicts and lives here because only
tests call it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from heckeslopes.errors import ConsistencyError
from heckeslopes.exact import INFINITY, SlopeMultiset
from heckeslopes.slopes import is_regular, refinement_pair


# ----------------------------------------------------------------------
# q-expansions of eta products

def eta_product_qexp(factors, terms):
    """Coefficients c[0..terms-1] of prod eta(s*z)^e for factors ((s, e), ...).

    The eta prefactor q^(s*e/24) must come out integral over the whole
    product (true for every form used here).
    """
    shift, rem = divmod(sum(s * e for s, e in factors), 24)
    if rem:
        raise ValueError("eta prefactor is not an integral power of q")
    coeffs = [0] * terms
    coeffs[0] = 1
    for s, e in factors:
        for _ in range(e):
            # multiply by (1 - q^(s*m)) for all relevant m
            for m in range(1, (terms - 1) // s + 1):
                step = s * m
                for n in range(terms - 1, step - 1, -1):
                    coeffs[n] -= coeffs[n - step]
    out = [0] * terms
    for n in range(terms - shift):
        out[n + shift] = coeffs[n]
    return out


def delta_coefficients(terms):
    """tau(n) at index n, from q times the 24th power of prod(1-q^m)."""
    return eta_product_qexp(((1, 24),), terms)


# weight, level -> eta factors for the one-dimensional cusp spaces used as pins
ETA_SPACES = {
    (2, 11): ((1, 2), (11, 2)),
    (8, 2): ((1, 8), (2, 8)),
    (6, 4): ((2, 12),),
    (4, 8): ((2, 4), (4, 4)),
    (4, 9): ((3, 8),),
}


def eta_space_coefficient(k, M, n):
    """n-th q-coefficient of the unique normalized cusp form in ETA_SPACES."""
    return eta_product_qexp(ETA_SPACES[(k, M)], n + 1)[n]


# ----------------------------------------------------------------------
# Hurwitz class numbers, enumerated with two normal forms

def hurwitz_reference(n):
    """H(n) by brute force: reduced forms weighted 1/2 on (d,0,d), 1/3 on (d,d,d).

    Reduction convention: |b| <= a <= c with b >= 0 whenever |b| = a or
    a = c; iteration is b-outer, unlike hurwitz_class_number's a-outer
    loop.
    """
    if n == 0:
        return Fraction(-1, 12)
    if n < 0 or n % 4 in (1, 2):
        return Fraction(0)
    total = Fraction(0)
    for b in range(n % 2, isqrt(n // 3) + 1, 2):
        m = (n + b * b) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if b == 0:
                total += Fraction(1, 2) if a == c else Fraction(1)
            elif b == a:
                total += Fraction(1, 3) if a == c else Fraction(1)
            elif a == c:
                total += Fraction(1)
            else:
                total += Fraction(2)  # (a, b, c) and (a, -b, c)
    return total


def hurwitz_class_number(n):
    """Hurwitz class number H(n) as a Fraction.

    Counts reduced positive definite forms of discriminant -n, weighting
    x^2+y^2 classes by 1/2 and x^2+xy+y^2 classes by 1/3; H(0) = -1/12,
    H(n) = 0 unless n is 0 or 3 mod 4.
    """
    if n < 0:
        raise ValueError("negative discriminant argument")
    if n == 0:
        return Fraction(-1, 12)
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue  # its mirror (a, -b, a) ~ (a, b, a) is already counted
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
        a += 1
    return total


@lru_cache(maxsize=None)
def primitive_class_weight(n):
    """Weighted count of reduced primitive forms of discriminant -n."""
    total = Fraction(0)
    a = 1
    while 3 * a * a <= n:
        for b in range(-a + 1, a + 1):
            num = b * b + n
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            if a == b == c:
                total += Fraction(1, 3)
            elif b == 0 and a == c:
                total += Fraction(1, 2)
            else:
                total += 1
        a += 1
    return total


# ----------------------------------------------------------------------
# traces of T_n on S_k(Gamma_0(N)), gcd(n, N) = 1, by Cohen's formula

def _psi(N):
    """Index of Gamma_0(N): N times prod (1 + 1/q) over primes q | N."""
    out, m, q = Fraction(N), N, 2
    while m > 1:
        if m % q == 0:
            out *= Fraction(q + 1, q)
            while m % q == 0:
                m //= q
        q += 1
    return out


def _phi(m):
    return sum(1 for x in range(1, m + 1) if gcd(x, m) == 1)


@lru_cache(maxsize=None)
def elliptic_term_reference(N, t, n):
    """Cohen's sum over f^2 | 4n - t^2 > 0, -(4n - t^2)/f^2 a discriminant,
    of h_w((t^2 - 4n)/f^2) mu(t, f, n), with primitive forms counted
    directly; mu = psi(N)/psi(N/N_f) #{x mod N : x^2 - t x + n = 0 mod N N_f},
    N_f = gcd(N, f).
    """
    D = 4 * n - t * t
    total = Fraction(0)
    for f in range(1, isqrt(D) + 1):
        if D % (f * f) or (D // (f * f)) % 4 in (1, 2):
            continue
        g = gcd(N, f)
        roots = sum(1 for x in range(N) if (x * x - t * x + n) % (N * g) == 0)
        mu = _psi(N) / _psi(N // g) * roots
        total += primitive_class_weight(D // (f * f)) * mu
    return total


def trace_reference(k, N, n):
    """tr T_n on S_k(Gamma_0(N)) for gcd(n, N) = 1 and even k >= 2."""
    def p_k(t):
        # coefficient of x^(k-2) in 1 / (1 - t x + n x^2)
        c = [1, t]
        while len(c) < k - 1:
            c.append(t * c[-1] - n * c[-2])
        return c[k - 2]

    trace = Fraction(0)
    r = isqrt(n)
    if r * r == n:
        trace += Fraction(k - 1, 12) * _psi(N) * r ** (k - 2)
    for t in range(-isqrt(4 * n), isqrt(4 * n) + 1):
        if t * t < 4 * n:
            trace -= p_k(t) * elliptic_term_reference(N, t, n) / 2
    for d in range(1, n + 1):
        if n % d:
            continue
        e = n // d
        local = sum(_phi(gcd(tau, N // tau)) for tau in range(1, N + 1)
                    if N % tau == 0 and (e - d) % gcd(tau, N // tau) == 0)
        trace -= Fraction(min(d, e) ** (k - 1) * local, 2)
    if k == 2:
        trace += sum(d for d in range(1, n + 1) if n % d == 0)
    return trace


# ----------------------------------------------------------------------
# characteristic polynomials by cofactor expansion (small matrices only)

def _padd(f, g):
    out = [Fraction(0)] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] += c
    return out


def _pmul(f, g):
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _pdet(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = [Fraction(0)]
    for j in range(n):
        minor = [[row[jj] for jj in range(n) if jj != j] for row in rows[1:]]
        term = _pmul(rows[0][j], _pdet(minor))
        if j % 2:
            term = [-c for c in term]
        total = _padd(total, term)
    return total


def charpoly_reference(mat):
    """Coefficients of det(xI - mat), constant term first, monic."""
    n = len(mat)
    rows = [[[Fraction(-mat[i][j]), Fraction(1)] if i == j else [Fraction(-mat[i][j])]
             for j in range(n)] for i in range(n)]
    out = _pdet(rows)
    out += [Fraction(0)] * (n + 1 - len(out))
    return out


def inverse_charpoly_reference(mat):
    """Coefficients of det(1 - mat*X), constant first, length n+1."""
    # det(1 - MX) = X^n * charpoly(M)(1/X): reverse the monic charpoly
    return list(reversed(charpoly_reference(mat)))


def charpoly_hessenberg_reference(M):
    """Coefficients of det(X*I - M), constant first, exact over Fraction.

    Similarity reduction to Hessenberg form followed by the standard
    leading-principal-minor recurrence: O(n^3) field operations, so it
    referees matrices far beyond cofactor expansion.
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


# ----------------------------------------------------------------------
# reduced row echelon form by dense Gauss-Jordan elimination

def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns (matrix, pivot_columns).  Input rows are not modified.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


# ----------------------------------------------------------------------
# Hecke matrices by binomial expansion in Fractions

def _binomial_powers(x, y, w):
    """tab[i][j] = coefficient of X^j Y^(i-j) in (x*X + y*Y)^i, for i <= w."""
    tab = [[1]]
    for i in range(w):
        row = tab[i]
        nxt = [0] * (i + 2)
        for j, c in enumerate(row):
            if c:
                nxt[j] += y * c
                nxt[j + 1] += x * c
        tab.append(nxt)
    return tab


def hecke_matrix_reference(space, family):
    """Matrix of the Hecke operator given by family on space's cuspidal basis.

    Reads only the space's presentation (P^1 list, free generators, the
    projection table over its common denominator, cuspidal basis).  Each
    Merel matrix's (aX + bY)^i (cX + dY)^(w-i) is expanded term by term,
    every term is projected to the quotient in Fractions, and the images
    are written in the cuspidal basis through the dense rref above.
    """
    w = space.k - 2
    p1 = space.p1
    npts = len(p1)
    D = space.quotient_dim
    pi = [{c: Fraction(v, space._den) for c, v in row.items()} for row in space._pi]
    cols = [[Fraction(0)] * D for _ in range(D)]
    for (aa, bb, cc, dd) in family:
        tab1 = _binomial_powers(aa, bb, w)
        tab2 = _binomial_powers(cc, dd, w)
        for col, r in enumerate(space.free_roots):
            i, t = divmod(r, npts)
            c, d = p1.points[t]
            t1 = p1.index(aa * c + cc * d, bb * c + dd * d)
            if t1 is None:
                continue
            row1, row2 = tab1[i], tab2[w - i]
            for j in range(w + 1):
                coeff = 0
                for u in range(max(0, j - (w - i)), min(i, j) + 1):
                    coeff += row1[u] * row2[j - u]
                if coeff:
                    for fp, fv in pi[j * npts + t1].items():
                        cols[col][fp] += coeff * fv
    basis = space.cuspidal_basis
    d = len(basis)
    images = [[sum(x * cols[r][idx] for r, x in enumerate(bvec) if x)
               for idx in range(D)] for bvec in basis]
    system = [[bvec[idx] for bvec in basis] + [img[idx] for img in images]
              for idx in range(D)]
    red, pivots = rref(system, 2 * d)
    if pivots != list(range(d)):
        raise AssertionError("Hecke image outside the cuspidal span")
    return [[red[i][d + j] for j in range(d)] for i in range(d)]


# ----------------------------------------------------------------------
# P^1(Z/M) by reducing each pair on its own

def _gcdex(a, b):
    """(x, y, g) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -x0, -y0, -a
    return x0, y0, a


def _lift_to_unit(n, d, a):
    # lift a unit a mod d (d | n) to a unit mod n: CRT to 1 on the part of n
    # coprime to d
    if n == 1:
        return 0
    u, v = 1, n
    g = gcd(v, d)
    while g > 1:
        u *= g
        v //= g
        g = gcd(v, g)
    x, y, _ = _gcdex(u, v)
    return (u * x + a % n * y * v) % n


def p1_reduce_reference(M, u, v):
    """Canonical representative of (u:v) in P^1(Z/M), or None if not primitive.

    (0, 1) for u = 0 mod M; otherwise u is scaled to g = gcd(u, M) and v
    minimized over the units that fix g.
    """
    u %= M
    v %= M
    if u == 0:
        return (0, 1) if gcd(v, M) == 1 else None
    _, s, g = _gcdex(M, u)
    if gcd(g, v) > 1:
        return None
    # now u ~ g with multiplier s, a unit mod M/g
    s = _lift_to_unit(M, M // g, s)
    v = s * v % M
    if g == 1:
        return (1, v)
    # the stabilizer of g scales v by units t with t = 1 mod M/g
    vmin = v
    for t in range(1, M, M // g):
        if gcd(t, M) == 1:
            w = v * t % M
            if w < vmin:
                vmin = w
    return (g, vmin)


def p1_reference(M):
    """(points, table) of P^1(Z/M): sorted representatives, (u, v) -> index."""
    reps = {(u, v): p1_reduce_reference(M, u, v) for u in range(M) for v in range(M)}
    if M == 1:
        reps[(0, 0)] = (0, 1)
    points = sorted({r for r in reps.values() if r is not None})
    pos = {pt: i for i, pt in enumerate(points)}
    return points, {uv: pos[r] for uv, r in reps.items() if r is not None}


# ----------------------------------------------------------------------
# Manin-symbol relations written out in full

def manin_relations(k, M):
    """(ncols, two-term and star rows, three-term rows) on raw Manin symbols.

    The symbol [X^i Y^(w-i), (c:d)], w = k - 2, is column i * n + t, where
    t indexes the point (c:d) among p1_reference(M)'s n points.  A matrix
    g = [a,b;c',d'] acts on the right: the polynomial becomes
    P(aX + bY, c'X + d'Y) and the point (c:d) the row vector (c, d) g.
    With sigma = [0,-1;1,0], J = [-1,0;0,1] and tau = [0,-1;1,-1], the rows
    are x + x.sigma, x - x.J and x + x.tau + x.tau^2 for every symbol x,
    none of them reduced by any other.
    """
    points, table = p1_reference(M)
    n, w = len(points), k - 2

    def act(i, t, g):
        a, b, c, d = g
        u, v = points[t]
        t1 = table[(u * a + v * c) % M, (u * b + v * d) % M]
        first, second = _binomial_powers(a, b, w)[i], _binomial_powers(c, d, w)[w - i]
        poly = [0] * (w + 1)
        for j, x in enumerate(first):
            for m, y in enumerate(second):
                poly[j + m] += x * y
        return [(j * n + t1, x) for j, x in enumerate(poly) if x]

    def relation(*parts):
        row = {}
        for sign, terms in parts:
            for col, x in terms:
                row[col] = row.get(col, 0) + sign * x
        return {col: x for col, x in row.items() if x}

    sigma, jay, tau, tau2 = (0, -1, 1, 0), (-1, 0, 0, 1), (0, -1, 1, -1), (-1, 1, -1, 0)
    two, three = [], []
    for i in range(w + 1):
        for t in range(n):
            x = [(i * n + t, 1)]
            two.append(relation((1, x), (1, act(i, t, sigma))))
            two.append(relation((1, x), (-1, act(i, t, jay))))
            three.append(relation((1, x), (1, act(i, t, tau)), (1, act(i, t, tau2))))
    return (w + 1) * n, two, three


# ----------------------------------------------------------------------
# criterion 7: breaking 2-regularity forces fractional slopes

@dataclass(frozen=True)
class P2Refinement:
    k: int
    source: object  # violating T_2 slope (Fraction) or INFINITY
    pair: SlopeMultiset


@dataclass(frozen=True)
class P2Report:
    N: int
    rows: tuple  # RegularityRow for weights 2 and 4
    already_fractional: tuple  # (k, slope, mult) for non-integral T_2 slopes
    refinements: tuple  # P2Refinement per integral (or zero) violating eigenvalue


def p2_refinement_check(N):
    """Check that breaking 2-regularity forces fractional slopes somewhere.

    A non-integral T_2 slope on S_2 or S_4 at level N is fractional as it
    stands and is reported directly.  Every other violating eigenvalue
    (weight-2 slope 1, weight-4 slope 2 or 3, or an exactly-zero
    eigenvalue) is refined; its pair must come out fractional ({1/2,1/2}
    from weight 2, {3/2,3/2} from weight 4) and an integral pair is a
    hard failure.
    """
    if N % 2 == 0:
        raise ValueError("N must be odd, got %d" % N)
    verdict = is_regular(2, N)
    rows = tuple(row for row in verdict.table if row.k % 2 == 0)
    fractional = []
    refinements = []
    for row in rows:
        for s, mult in row.slopes:
            if Fraction(s).denominator != 1:
                fractional.append((row.k, s, mult))
            elif Fraction(s) not in ({0, 1} if row.k == 4 else {0}):
                # 2-regularity allows slope 0, and slope 1 too in weight 4
                refinements.extend(
                    P2Refinement(row.k, s, refinement_pair(s, row.k)) for _ in range(mult))
        refinements.extend(
            P2Refinement(row.k, INFINITY, refinement_pair(INFINITY, row.k))
            for _ in range(row.zero_count))
    for ref in refinements:
        if all(Fraction(s).denominator == 1 for s, _ in ref.pair):
            raise ConsistencyError(
                "refinement of weight-%d slope %s at level %d is integral: %r"
                % (ref.k, ref.source, N, ref.pair))
    return P2Report(N, rows, tuple(fractional), tuple(refinements))
