"""Trace-formula engine: Hurwitz class numbers, tr T_n on S_k(Gamma_0(N))
for gcd(n, N) = 1 at every level N, and characteristic polynomials of T_p
rebuilt from those traces.

This route never touches modular symbols, so it serves as a fully
independent cross-check of the linear algebra engine.  The polynomial is
assembled over the new subspaces S_k^new(M), M | N.  By multiplicity one
the Hecke operators T_n with gcd(n, M) = 1 span a commutative algebra of
dimension dim S_k^new(M) on which the trace form tr(xy) is positive
definite; its Gram matrix on a basis T_{n_i} turns the traces of
T_p T_{n_i} T_{n_j} into the matrix of T_p (Belabas-Cohen, "Modular forms
in Pari/GP", Res. Math. Sci. 2018), whose characteristic polynomial the
Faddeev-LeVerrier recurrence gives in integers.  Neither the traces nor
the Gram matrix depend on p, so one call serves many primes: the Gram
matrix is factored once, fraction-free (Bareiss), and each prime solves
in integers against that factorisation.  The traces read one sieved
table of Hurwitz class numbers, kept small by small n.
"""

import threading
from fractions import Fraction
from math import gcd, isqrt

from .dimensions import dim_cuspforms, psi_index
from .errors import ConsistencyError, TraceBudgetExceeded
from .exact import IntPolynomial, divisors, euler_phi, factorize, is_prime

__all__ = [
    "DISC_CAP_DEFAULT", "trace_tn", "charpoly_from_traces", "charpolys_from_traces",
    "trace_feasible",
]

# largest |t^2 - 4n| the bundled class number table will sieve; covers
# 4 p B^2 (see trace_feasible) at every point of the acceptance grid, the
# worst being (k, N, p) = (16, 14, 13) at 1.04e7.  The bases actually
# chosen there stay below n = 18, so charpolys only ever build small
# tables.
DISC_CAP_DEFAULT = 24_000_000


class ClassNumberTable:
    """Sieved table of 6*H(n), a plain list of ints.

    Builds lazily to the request; a later, larger request rebuilds it at
    least twice as long, and a request beyond DISC_CAP_DEFAULT raises
    TraceBudgetExceeded instead of attempting a hopeless sieve.  The
    traces read the one module table; surveys run in processes, each with
    its own, and the lock only lets a library caller's threads share it.
    """

    def __init__(self):
        self.limit = -1
        self._h6 = None
        self._lock = threading.Lock()

    def ensure(self, n):
        if n <= self.limit:
            return
        if n > DISC_CAP_DEFAULT:
            raise TraceBudgetExceeded(
                f"class number table capped at {DISC_CAP_DEFAULT}, "
                f"need {n}", n=n)
        with self._lock:
            if n <= self.limit:
                return
            self._build(min(DISC_CAP_DEFAULT, max(n, 2 * self.limit)))

    def _build(self, L):
        h6 = [0] * (L + 1)
        a = 1
        while 3 * a * a <= L:
            fa = 4 * a
            for b in range(a + 1):
                n0 = fa * a - b * b
                # c = a term: b >= 0 only, special weights on the diagonal
                if n0 <= L:
                    h6[n0] += 2 if b == a else (3 if b == 0 else 6)
                # c > a terms: generic forms count for both signs of b
                start = n0 + fa
                if start <= L:
                    w = 6 if (b == 0 or b == a) else 12
                    h6[start::fa] = [x + w for x in h6[start::fa]]
            a += 1
        self._h6 = h6
        self.limit = L

    def h6(self, n):
        """6 * H(n) as an int (n >= 1)."""
        if n < 1:
            raise ValueError("h6 needs n >= 1; H(0) is -1/12")
        self.ensure(n)
        return self._h6[n]


_DEFAULT_TABLE = ClassNumberTable()


def _gegenbauer(k, t, n):
    """U_{k-1}(t, n), the coefficient polynomial of the elliptic term, where
    U_0 = 0, U_1 = 1, U_{m+1} = t U_m - n U_{m-1}; by fast doubling over the
    bits of k - 1: U_{2j} = U_j (2 U_{j+1} - t U_j), U_{2j+1} = U_{j+1}^2 - n U_j^2.
    """
    u, v = 0, 1  # U_j, U_{j+1}, from j = 0
    for bit in bin(k - 1)[2:]:
        u, v = u * (2 * v - t * u), v * v - n * u * u
        if bit == "1":
            u, v = v, t * v - n * u
    return u


def _sigma_phi(e_minus_d, N):
    # sum of phi(gcd(tau, N/tau)) over tau | N with gcd(tau, N/tau) | (e - d)
    total = 0
    for tau in divisors(N):
        g = gcd(tau, N // tau)
        if e_minus_d % g == 0:
            total += euler_phi(g)
    return total


def trace_tn(k, N, n):
    """Trace of T_n on S_k(Gamma_0(N)) for gcd(n, N) = 1, k even >= 2.

    Pure class-number arithmetic, valid at every level.  The elliptic
    term at D = 4n - t^2 > 0 is Cohen's sum over f^2 | D of
    h_w(-D/f^2) mu(t, f, n) (H. Cohen, "Trace des operateurs de Hecke sur
    Gamma_0(N)", Sem. Theorie des Nombres de Bordeaux 1976-77; GSM 179).
    mu is the product over q^e || N of nu_q(q^j) = psi(q^e)/psi(q^(e-j))
    #{x mod q^e : x^2 - t x + n = 0 mod q^(e+j)}, q^j = gcd(f, q^e).  As
    H(D/c^2) sums h_w(-D/f^2) over c | f, Moebius inversion makes the term
    the sum of lambda(c) H(D/c^2) over c^2 | D built from the q^j, with
    lambda_q(1) = nu_q(1), lambda_q(q^j) = nu_q(q^j) - nu_q(q^(j-1));
    at N = 1 it is H(D).  Raises TraceBudgetExceeded if 4n is past the cap.
    """
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    if N < 1 or n < 1:
        raise ValueError("level and index must be >= 1")
    if gcd(n, N) != 1:
        raise ValueError(f"trace formula route needs gcd(n, N) = 1")
    if 4 * n > DISC_CAP_DEFAULT:
        raise TraceBudgetExceeded(
            f"tr T_{n} at level {N} needs class numbers up to {4 * n}, "
            f"cap is {DISC_CAP_DEFAULT}", k=k, N=N, n=n)
    table = _DEFAULT_TABLE
    table.ensure(4 * n)

    psi = psi_index(N)
    level_parts = [(q, e, q ** e) for q, e in factorize(N).items()]

    # integer sums: total holds 24 times the trace, elliptic 12 times the
    # elliptic sum, so -(1/2) elliptic enters total as -elliptic
    # elliptic + identity terms: -(1/2) sum over t^2 <= 4n
    elliptic = 0
    tmax = isqrt(4 * n)
    for t in range(tmax + 1):
        weight = 1 if t == 0 else 2  # P_k is even in t for even k
        D = 4 * n - t * t
        if D == 0:
            loc = -psi  # 12 * (-psi / 12)
        else:
            terms = [(1, 1)]  # (c^2, lambda(c)) over the q^e || N so far
            for q, e, Q in level_parts:
                roots = _quadratic_roots(q, e, t, n)
                local, nu_prev, qj = [], 0, 1
                while Q % qj == 0 and D % (qj * qj) == 0:
                    count = sum(1 for x in roots
                                if (x * x - t * x + n) % (Q * qj) == 0)
                    # psi(q^e) / psi(q^(e-j))
                    nu = (qj if qj < Q else Q // q * (q + 1)) * count
                    local += [(c2 * qj * qj, lam * (nu - nu_prev))
                              for c2, lam in terms]
                    nu_prev, qj = nu, qj * q
                terms = local
            # 12 times the term, from h6 = 6 H
            loc = 2 * sum(lam * table.h6(D // c2) for c2, lam in terms)
        if loc:
            elliptic += weight * _gegenbauer(k, t, n) * loc

    # hyperbolic term over divisor pairs d * e = n, d <= e
    hyper = 0
    for d in divisors(n):
        e = n // d
        if d > e:
            break
        term = d ** (k - 1) * _sigma_phi(e - d, N)
        hyper += 12 * term if d == e else 24 * term

    total = -elliptic - hyper
    if k == 2:
        total += 24 * sum(c for c in divisors(n) if gcd(c, N) == 1)
    if total % 24:
        raise ArithmeticError(
            f"non-integral trace {Fraction(total, 24)} at (k={k}, N={N}, n={n})")
    return total // 24


def _quadratic_roots(q, e, t, n):
    """The x in [0, q^e) with x^2 - t x + n = 0 mod q^e, in no fixed order.

    A root mod q^i reduces to one mod q^(i-1), so the roots are lifted one
    power at a time: r + m q^(i-1), m < q, for each root r mod q^(i-1).
    """
    roots, qi = [0], 1
    for _ in range(e):
        step, qi = qi, qi * q
        roots = [x for r in roots for x in range(r, qi, step) if (x * x - t * x + n) % qi == 0]
    return roots


def _beta(n):
    """Dirichlet inverse of sigma_0: -2, 1, 0 on q, q^2, q^(>=3)."""
    out = 1
    for e in factorize(n).values():
        if e >= 3:
            return 0
        out *= (1, -2, 1)[e]
    return out


def _basis_bound(k, M):
    """Sturm bound of weight k at level M * rad(M).

    Removing from f in S_k^new(M) its terms a_n q^n with gcd(n, M) > 1
    lands at level M * rad(M); so if a_n(f) = 0 for every n up to this
    bound with gcd(n, M) = 1, then f = 0, and the T_n with those n span
    the Hecke algebra of S_k^new(M).
    """
    rad = 1
    for q in factorize(M):
        rad *= q
    return k * psi_index(M) * rad // 12


def _hecke_product(k, a, b):
    """T_a T_b as [(n, c)]: sum over d | gcd(a, b) of d^(k-1) T_(ab/d^2).

    Valid when gcd(ab, level) = 1.
    """
    return [(a * b // (d * d), d ** (k - 1)) for d in divisors(gcd(a, b))]


def _eliminate(cols, v, rows):
    """Carries v through the fraction-free elimination that cols records.

    cols[i][s] is entry (s, i) of the Bareiss echelon form of the Gram
    matrix G, so cols[s][s] is its leading principal minor of order s + 1;
    rows[i][s] is the multiplier in row i at step s, which G's symmetry
    makes cols[i][s] (Bareiss, Math. Comp. 22, 1968).  Every division is
    exact.
    """
    prev = 1
    for s, col in enumerate(cols):
        piv = col[s]
        for i in range(s + 1, len(v)):
            v[i] = (piv * v[i] - rows[i][s] * v[s]) // prev
        prev = piv


def _faddeev_leverrier(A_cols, den):
    """det(1 - (A / den) X) for the integer matrix A given by its columns.

    M_1 = I, c_m = -tr(A M_m)/m, M_(m+1) = A M_m + c_m I gives the
    coefficients c_m / den^m; raises ArithmeticError unless
    m den^m | tr(A M_m), i.e. unless they are integers.
    """
    dim = len(A_cols)
    AM = [list(row) for row in zip(*A_cols)]  # A M_m
    coeffs = [1]
    for m in range(1, dim + 1):
        if m > 1:  # A M_m = M_m A, M_m = A M_(m-1) + c_(m-1) I
            AM = [[sum(x * y for x, y in zip(row, acol)) for acol in A_cols]
                  for row in AM]
        tr = sum(AM[i][i] for i in range(dim))
        div = m * den ** m
        if tr % div:
            raise ArithmeticError(
                f"non-integral charpoly coefficient {Fraction(-tr, div)}")
        coeffs.append(-tr // div)
        for i in range(dim):
            AM[i][i] -= tr // m
    return IntPolynomial(coeffs)


def _new_charpoly(k, M, primes, tr_new):
    """{p: det(1 - T_p X) on S_k^new(M)} for the primes p, none dividing M.

    tr_new(n) is the trace of T_n on S_k^new(M).  Picks T_{n_i} with
    gcd(n_i, M) = 1 greedily, keeping each one that raises the rank of
    the Gram matrix G = [tr(T_{n_i} T_{n_j})], until the rank is
    dim S_k^new(M).  G is factored once, fraction-free, for every prime
    (_eliminate): a candidate raises the rank when the leading principal
    minor it adds is positive, and a negative one means the trace form is
    not positive definite.  The matrix of T_p on that basis is
    C = G^-1 H, H = [tr(T_p T_{n_i} T_{n_j})]; the same factorisation
    solves G X = det(G) H in integers.  With g = gcd(det G, X),
    den = det(G) / g is the least common denominator of C and A = X / g
    is den C, which _faddeev_leverrier turns into det(1 - C X).
    """
    dim = tr_new(1)
    expected = sum(_beta(M // L) * dim_cuspforms(k, L) for L in divisors(M))
    if dim != expected:
        raise ConsistencyError(
            f"tr T_1 on S_{k}^new({M}) is {dim}, its dimension is {expected}")
    if dim == 0:
        return {p: IntPolynomial([1]) for p in primes}

    def pair(a, b):
        return sum(c * tr_new(n) for n, c in _hecke_product(k, a, b))

    basis, cols = [], []
    bound = _basis_bound(k, M)
    n = 0
    while len(basis) < dim:
        n += 1
        if n > bound:
            raise ConsistencyError(
                f"T_n, n <= {bound}, span rank {len(basis)} on "
                f"S_{k}^new({M}), not its dimension {dim}")
        if gcd(n, M) != 1:
            continue
        col = [pair(n, m) for m in basis] + [pair(n, n)]
        _eliminate(cols, col, cols + [col])
        if col[-1] < 0:
            raise ConsistencyError(
                f"trace form not positive definite on S_{k}^new({M}) at T_{n}")
        if col[-1]:
            basis.append(n)
            cols.append(col)

    det = cols[-1][-1]
    out = {}
    for p in primes:
        X_cols = []
        for b in basis:
            x = [sum(c1 * c2 * tr_new(m2)
                     for m1, c1 in _hecke_product(k, a, b)
                     for m2, c2 in _hecke_product(k, p, m1))
                 for a in basis]
            _eliminate(cols, x, cols)
            for i in range(dim - 1, -1, -1):  # back substitution: x[i] = det(G) C[i][b]
                known = sum(cols[j][i] * x[j] for j in range(i + 1, dim))
                x[i] = (det * x[i] - known) // cols[i][i]
            X_cols.append(x)
        g = gcd(det, *(x for col in X_cols for x in col))
        out[p] = _faddeev_leverrier([[x // g for x in col] for col in X_cols], det // g)
    return out


def trace_feasible(k, N, p):
    """Whether charpoly_from_traces can run to completion for (k, N, p).

    Decided in advance: the class number table must reach 4 p B^2, where
    B is the basis bound (_basis_bound) at level N.  The route reads
    tr T_n only for n <= p B^2, so True guarantees it never runs out of
    budget.  Every level is in reach otherwise.
    """
    return 4 * p * _basis_bound(k, N) ** 2 <= DISC_CAP_DEFAULT


def charpolys_from_traces(k, N, primes):
    """{p: det(1 - T_p X) on S_k(Gamma_0(N))} for primes p not dividing N, from traces.

    Each polynomial is the product over M | N of det(1 - T_p X) on
    S_k^new(M) (see _new_charpoly) to the power sigma_0(N/M).
    New-subspace traces come from tr^new_M(T_n) = sum over L | M of
    beta(M/L) tr_L(T_n), beta the Dirichlet inverse of sigma_0.  Each
    trace is computed once per call and each Gram basis is factored once,
    whatever the number of primes.  Raises TraceBudgetExceeded, with this
    request's k and N and the out-of-reach index n, when a trace it needs
    is beyond the class number table, and ConsistencyError when a rank or
    dimension check fails.
    """
    if k < 2 or k % 2:
        raise ValueError(f"weight must be even and >= 2, got {k}")
    if N < 1:
        raise ValueError(f"level must be >= 1, got {N}")
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"Hecke index must be prime, got {p}")
        if N % p == 0:
            raise ValueError(f"trace route needs p not dividing N, got p={p}, N={N}")
    dim = dim_cuspforms(k, N)
    out = {p: IntPolynomial([1]) for p in primes}
    if dim == 0 or not primes:
        return out
    traces = {}  # (L, n) -> tr T_n on S_k(L), shared by the M | N

    def tr_level(L, n):
        if (L, n) not in traces:
            traces[L, n] = trace_tn(k, L, n)
        return traces[L, n]

    for M in divisors(N):
        # levels whose traces enter tr^new_M; a zero space has zero traces
        terms = [(L, _beta(M // L)) for L in divisors(M)
                 if _beta(M // L) and dim_cuspforms(k, L)]

        def tr_new(n, terms=terms):
            return sum(b * tr_level(L, n) for L, b in terms)
        try:
            blocks = _new_charpoly(k, M, primes, tr_new)
        except TraceBudgetExceeded as exc:
            raise TraceBudgetExceeded(
                f"charpoly at (k={k}, N={N}, p={','.join(map(str, primes))}) needs "
                f"tr T_{exc.n}, beyond the class number table", k=k, N=N, n=exc.n) from exc
        for p, block in blocks.items():
            for _ in divisors(N // M):
                out[p] = out[p] * block
    for p, f in out.items():
        if f.raw_degree != dim:
            raise ConsistencyError(
                f"trace charpoly at (k={k}, N={N}, p={p}) has degree "
                f"{f.raw_degree}, dim is {dim}")
    return out


def charpoly_from_traces(k, N, p):
    """det(1 - T_p X) on S_k(Gamma_0(N)), p a prime not dividing N, from traces."""
    return charpolys_from_traces(k, N, (p,))[p]
