"""Modular symbols for Gamma_0(M), plus quotient, with exact Hecke action.

The presentation is the classical one on Manin symbols (i, (c:d)) with
0 <= i <= k-2 and (c:d) in P^1(Z/M), modulo the two-term and three-term
relations and folded by the star involution [-1,0;0,1] (so one copy of
each complex-conjugate pair survives).  P^1(Z/M) is tabulated by one
sorted scan that enters each unit orbit at its least pair.  The two-term
and star relations are absorbed by a signed union-find before the
three-term relations go through fraction-free sparse row reduction (a
quarter of the naive column count), whose primitive integer rows give
the projections over one denominator, the lcm of the pivot entries.

The three-term relations R(x) = x + x.tau + x.tau^2 are written only for
the symbols at one point per orbit of <tau, eta> on P^1(Z/M), with
tau = [0,-1;1,-1] acting as (c:d) -> (d:-c-d) and eta as (c:d) -> (d:c);
eta tau eta = tau^-1, so an orbit has at most six points.  Their span
is unchanged.  As tau^3 = 1 up to the -1 that even weight ignores,
R(x.tau) = R(x), and x.tau runs over the symbols at tau(t) as x runs
over those at t.  With sigma = [0,-1;1,0] and J = [-1,0;0,1],
J tau J = sigma tau^2 sigma^-1, so modulo the two-term (y.sigma = -y)
and star (y.J = y) relations R(x.J) = -R(x.sigma); for x.sigma in place
of x this says that the relations at eta(t), the point of x.sigma.J,
are those at t.

The cuspidal subspace is the kernel of the boundary map to star-folded
cusp classes, and its dimension is asserted against the dimension formula
on every build.  T_p at p not dividing M and U_p at p | M both act through
Cremona's Heilbronn matrices (nearest-integer continued fractions of r/p),
dropping images whose bottom row is not primitive mod M.  One family
serves both because it satisfies Merel's criterion for acting as T_p on
Manin symbols at every level with that drop ("Universal Fourier
expansions of modular forms", LNM 1585, 1994).  Merel's own
determinant-p family satisfies it too and is the tests' referee.

Hecke assembly runs in integers.  The projection of each generator to
the quotient is stored once, over one common denominator.  With X = 2^B,
Y = 1 the product (aX + bY)^i (cX + dY)^(w-i) is one integer whose
signed base-2^B digits are its coefficients; these integers are summed
over the family per (generator, target point), and only then unpacked
and projected.  A digit of such a sum has absolute value at most
len(family) * max(|a| + |b|, |c| + |d|)^w, and 2^(B-1) is taken above
that bound, so each digit is read exactly from the low end in the
balanced range [-2^(B-1), 2^(B-1)).  The images of the cuspidal basis
vectors, each scaled by the lcm of its denominators, are summed in
integers too, and one SpanSolver per space writes them in that basis.

T_p's characteristic polynomial is multimodular (see linalg), bounded by
Deligne's |a_p| <= 2 p^((k-1)/2), which also bounds U_p at p | M.
"""

from functools import lru_cache
from itertools import repeat
from math import comb, gcd, isqrt, lcm

from .dimensions import dim_cuspforms
from .errors import ConsistencyError
from .exact import inverse_charpoly, is_prime
from .linalg import SparseRREF, SpanSolver, kernel_basis

__all__ = [
    "P1List", "PlusQuotient", "plus_quotient", "charpoly_cuspidal", "merel_family",
    "heilbronn_cremona",
]


def gcdex(a, b):
    """Extended gcd: returns (x, y, g) with a*x + b*y = g = gcd(a, b) >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -x0, -y0, -a
    return x0, y0, a


class P1List:
    """P^1(Z/M) with canonical representatives and a full lookup table.

    The canonical point of a class is the lexicographically least pair
    (u, v) of its orbit under the units mod M.  index(c, d) returns the
    point index, or None when (c, d) is not primitive mod M (the
    convention Hecke sums rely on at p | M).
    """

    __slots__ = ("M", "points", "table")

    def __init__(self, M):
        if M < 1:
            raise ValueError("level must be >= 1")
        self.M = M
        if M == 1:
            self.points, self.table = [(0, 1)], {(0, 0): 0}
            return
        units = [t for t in range(1, M) if gcd(t, M) == 1]
        pts, table = [], {}
        # a sorted scan meets each orbit first at its least pair, which has
        # u = 0 or u | M; that pair is a new point and its orbit goes in at once
        for u in range(M):
            g = gcd(u, M)
            if g != (u or M):
                continue
            tu = [t * u % M for t in units]
            for v in range(M):
                if gcd(g, v) == 1 and (u, v) not in table:
                    table.update(zip(zip(tu, [t * v % M for t in units]), repeat(len(pts))))
                    pts.append((u, v))
        self.points = pts
        self.table = table

    def __len__(self):
        return len(self.points)

    def index(self, c, d):
        return self.table.get((c % self.M, d % self.M))


class _SignedDSU:
    """Union-find tracking e_x = sign * e_root, with dead (forced zero) classes."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n
        self.dead = [False] * n

    def find(self, x):
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        # path compression: walk back from the node nearest the root,
        # accumulating the sign to the root as we go
        acc = 1
        for y in reversed(path):
            acc *= self.sign[y]
            self.parent[y] = x
            self.sign[y] = acc
        return x, acc if path else 1

    def union(self, a, b, rel):
        """Impose e_a = rel * e_b."""
        ra, sa = self.find(a)
        rb, sb = self.find(b)
        s = sa * rel * sb
        if ra == rb:
            if s == -1:
                self.dead[ra] = True
            return
        self.parent[ra] = rb
        self.sign[ra] = s
        if self.dead[ra]:
            self.dead[rb] = True


def merel_family(n):
    """Merel's determinant-n integer matrix family on Manin symbols.

    The Hecke assembly does not use it (heilbronn_cremona is smaller).
    It stays for two callers: the tests referee the assembly against it,
    and the benchmark's tracer (perfbench/traced_cli.py) wraps it by name.
    """
    mats = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    mats.append((a, b, 0, d))
                for c in range(1, d):
                    mats.append((a, 0, c, d))
            else:
                # bc > 0 forces d >= 2 here since a <= n
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        mats.append((a, b, bc // b, d))
    return mats


def heilbronn_cremona(p):
    """Cremona's Heilbronn matrices of determinant p (Algorithms for Modular
    Elliptic Curves, 1997, 2.4): (1,0,0,p), then for each |r| <= p/2 the
    matrix (p,-r,0,1) and one matrix per nearest-integer continued-fraction
    step of -p/r (quotients rounded half away from zero).

    They compute T_p on Manin symbols at levels prime to p, and U_p at
    p | M once images not primitive mod M are dropped."""
    if p == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    mats = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        x1, x2, y1, y2, a, b = p, -r, 0, 1, -p, r
        mats.append((x1, x2, y1, y2))
        while b:
            q = (2 * abs(a) + abs(b)) // (2 * abs(b))
            q = q if (a < 0) == (b < 0) else -q
            a, b = -b, a - b * q
            x1, x2 = x2, q * x2 - x1
            y1, y2 = y2, q * y2 - y1
            mats.append((x1, x2, y1, y2))
    return mats


def _powers(x, exps):
    """{e: x**e} for the exponents e in exps, climbing through them in order."""
    out, last, y = {}, 0, 1
    for e in sorted(exps):
        y *= x ** (e - last)
        out[e], last = y, e
    return out


class PlusQuotient:
    """Weight-k modular symbols for Gamma_0(M), star-(+1) part.

    Attributes:
      quotient_dim   dimension of the full plus quotient
      dim            dimension of the cuspidal subspace (== dim S_k)
      cusp_count     number of star-folded cusp classes
    """

    def __init__(self, k, M):
        if k < 2 or k % 2:
            raise ValueError(f"weight must be even and >= 2, got {k}")
        if M < 1:
            raise ValueError(f"level must be >= 1, got {M}")
        self.k = k
        self.M = M
        self.p1 = P1List(M)
        self._build_quotient()
        self._build_cuspidal()

    # -- presentation ---------------------------------------------------

    def _build_quotient(self):
        k, M, p1 = self.k, self.M, self.p1
        w = k - 2
        npts = len(p1)
        ncols = (w + 1) * npts
        # the point maps of sigma = [0,-1;1,0], J = [-1,0;0,1] and tau, tau^2
        # for tau = [0,-1;1,-1], acting on row vectors (c, d)
        index, pts = p1.index, p1.points
        sig = [index(d, -c) for c, d in pts]
        jay = [index(-c, d) for c, d in pts]
        tau = [index(d, -c - d) for c, d in pts]
        tau2 = [index(-c - d, c) for c, d in pts]

        dsu = _SignedDSU(ncols)
        # each involution pair is united from its smaller end; the call from
        # the other end would come later and change nothing
        for i in range(w + 1):
            even = 1 if i % 2 == 0 else -1
            for t in range(npts):
                x = i * npts + t
                # two-term relation: x + (-1)^i (w-i, (d:-c)) = 0
                y = (w - i) * npts + sig[t]
                if x <= y:
                    dsu.union(x, y, -even)
                # star fold: x = (-1)^i (i, (-c:d))
                y = i * npts + jay[t]
                if x <= y:
                    dsu.union(x, y, even)
        # (root, sign) of every generator; a dead root stands for zero
        roots = [dsu.find(x) for x in range(ncols)]

        # one point per orbit of <tau, eta>, eta = (c:d) -> (d:c) (see the
        # module docstring); eta tau eta = tau^-1, so the orbit of t is
        # t, tau t, tau^2 t and their eta images
        reps, seen = [], [False] * npts
        for t in range(npts):
            if not seen[t]:
                reps.append(t)
                for u in (t, tau[t], tau2[t]):
                    seen[u] = seen[jay[sig[u]]] = True

        rref = SparseRREF()
        for i in range(w + 1):
            # three-term relation x + x.tau + x.tau^2 = 0 written out on
            # generators (weight factors from the polynomial action)
            weights = ([(i, 0, 1)]
                       + [(j, 1, (-1) ** j * comb(w - i, j)) for j in range(w - i + 1)]
                       + [(w - i + j, 2, (-1) ** (i + j) * comb(i, j)) for j in range(i + 1)])
            for t in reps:
                at = (t, tau[t], tau2[t])
                row = {}
                for ii, m, coeff in weights:
                    r, s = roots[ii * npts + at[m]]
                    if dsu.dead[r]:
                        continue
                    row[r] = row.get(r, 0) + s * coeff
                if row:
                    rref.add_row(row)

        live = sorted({r for r, _ in roots if not dsu.dead[r]})
        pivots = rref.rows
        free = [r for r in live if r not in pivots]
        pos = {r: idx for idx, r in enumerate(free)}

        self.quotient_dim = len(free)
        self.free_roots = free

        # projection of every generator to the quotient, as integers over
        # one common denominator; the rows are primitive, so the lcm of the
        # pivot entries is the lcm of the reduced form's denominators
        den = lcm(*(prow[r] for r, prow in pivots.items()))
        pi = []
        for r, s in roots:
            if dsu.dead[r]:
                pi.append({})
                continue
            prow = pivots.get(r)
            if prow is None:
                pi.append({pos[r]: s * den})
            else:
                m = -s * (den // prow[r])
                pi.append({pos[c]: m * v for c, v in prow.items() if c != r})
        self._den = den
        self._pi = pi

    # -- boundary and cuspidal subspace ---------------------------------

    def _cusp_index(self, cusps, u, v):
        for i, rep in enumerate(cusps):
            if self._cusps_equiv(rep, (u, v)) or self._cusps_equiv(rep, (-u, v)):
                return i
        cusps.append((u, v))
        return len(cusps) - 1

    def _cusps_equiv(self, A, B):
        (u1, v1), (u2, v2) = A, B
        s1 = gcdex(u1, v1)[0]
        s2 = gcdex(u2, v2)[0]
        g = gcd(self.M, v1 * v2 % self.M)
        return (s1 * v2 - s2 * v1) % g == 0

    def _build_cuspidal(self):
        w = self.k - 2
        npts = len(self.p1)
        cusps = []
        rows = {}
        for col, r in enumerate(self.free_roots):
            i, t = divmod(r, npts)
            c, d = self.p1.points[t]
            a, b, g = gcdex(d, -c)
            if g != 1:
                raise ConsistencyError("non-unimodular symbol representative")
            # boundary of the symbol: present only at the extreme weights
            if i == w:
                ci = self._cusp_index(cusps, a, c)
                rows.setdefault(ci, {})[col] = rows.get(ci, {}).get(col, 0) + 1
            if i == 0:
                ci = self._cusp_index(cusps, b, d)
                rows.setdefault(ci, {})[col] = rows.get(ci, {}).get(col, 0) - 1
        self.cusp_count = len(cusps)
        self.cuspidal_basis = kernel_basis(rows.values(), self.quotient_dim)
        self.dim = len(self.cuspidal_basis)
        expected = dim_cuspforms(self.k, self.M)
        if self.dim != expected:
            raise ConsistencyError(
                f"cuspidal dimension {self.dim} != formula {expected} "
                f"at (k={self.k}, M={self.M})")
        self._solver = SpanSolver(self.cuspidal_basis)

    # -- Hecke action ----------------------------------------------------

    def _quotient_hecke_columns(self, p):
        """Images of the free generators under T_p (U_p at p | M), in quotient
        coordinates.

        Assembled from packed integer sums (see the module docstring);
        each column is integral and stands for itself divided by _den.
        """
        w = self.k - 2
        p1 = self.p1
        npts = len(p1)
        D = self.quotient_dim
        fam = heilbronn_cremona(p)
        # 2^(B-1) exceeds the absolute value of every digit of the sums below
        B = 1 + (len(fam) * max(max(abs(a) + abs(b), abs(c) + abs(d))
                                for a, b, c, d in fam) ** w).bit_length()
        roots = [(col,) + divmod(r, npts) for col, r in enumerate(self.free_roots)]
        exps = {i for _, i, _ in roots}
        sums = [{} for _ in range(D)]
        for (aa, bb, cc, dd) in fam:
            A, C = (aa << B) + bb, (cc << B) + dd
            powA, powC = _powers(A, exps), _powers(C, [w - e for e in exps])
            tgt = {}
            for col, i, t in roots:
                if t not in tgt:
                    c, d = p1.points[t]
                    tgt[t] = p1.index(aa * c + cc * d, bb * c + dd * d)
                t1 = tgt[t]
                if t1 is None:
                    continue  # image not primitive mod M: dropped
                acc = sums[col]
                acc[t1] = acc.get(t1, 0) + powA[i] * powC[w - i]
        mask, top, base = (1 << B) - 1, 1 << (B - 1), 1 << B
        cols = []
        for acc in sums:
            vec = [0] * D
            for t1, packed in acc.items():
                for j in range(w + 1):
                    coeff = packed & mask
                    if coeff & top:
                        coeff -= base
                    packed = (packed - coeff) >> B
                    if coeff:
                        for fp, fv in self._pi[j * npts + t1].items():
                            vec[fp] += coeff * fv
            cols.append(vec)
        return cols

    def hecke_matrix(self, p):
        """Matrix of T_p (U_p when p | M) on the cuspidal basis, p prime."""
        if not is_prime(p):
            raise ValueError(f"Hecke index must be prime, got {p}")
        if self.dim == 0:
            return []
        cols = self._quotient_hecke_columns(p)
        images = []
        for bvec in self.cuspidal_basis:
            # the image of L * bvec, in integers, stands for the image of
            # bvec times L * _den
            L = lcm(*(x.denominator for x in bvec))
            img = [0] * self.quotient_dim
            for x, colr in zip(bvec, cols):
                if x:
                    m = x.numerator * (L // x.denominator)
                    img = [a + m * b for a, b in zip(img, colr)]
            try:
                coeffs = self._solver.solve(img)
            except ValueError:
                raise ConsistencyError(
                    f"T_{p} does not preserve the cuspidal subspace at "
                    f"(k={self.k}, M={self.M})") from None
            scale = L * self._den
            images.append([c / scale for c in coeffs])
        return [list(row) for row in zip(*images)]


# The only memo besides the charpoly store, which keys polynomials by p:
# one built space serves T_p for every p, as surveys and crosscheck ask.
@lru_cache(maxsize=48)
def plus_quotient(k, M):
    return PlusQuotient(k, M)


def charpoly_cuspidal(k, M, p):
    """det(1 - T_p X) on S_k(Gamma_0(M)); U_p when p | M.

    Raw degree always equals dim S_k, so trailing zero coefficients record
    zero eigenvalues.
    """
    # Deligne: every eigenvalue of T_p, and of U_p at p | M, has absolute
    # value at most 2 p^((k-1)/2)
    return inverse_charpoly(plus_quotient(k, M).hecke_matrix(p),
                            root_bound=2 * (isqrt(p ** (k - 1)) + 1))
