"""Modular symbols for Gamma_0(M), plus quotient, with exact Hecke action.

The presentation is the classical one on Manin symbols (i, (c:d)) with
0 <= i <= k-2 and (c:d) in P^1(Z/M), modulo the two-term and three-term
relations and folded by the star involution [-1,0;0,1] (so one copy of
each complex-conjugate pair survives).  P^1(Z/M) is tabulated by one
sorted scan that enters each unit orbit at its least pair.  The two-term
relation and the star fold are commuting involutions S and J up to sign
(sigma J = -J sigma acts trivially on P^1), so each of their classes is an
orbit {x, Sx, Jx, SJx}, read off with its root.  The root is the least
member, which keeps the integers of the three-term elimination small (at
k = 16, M = 143 the pivot lcm has 15 bits, against 429 for the greatest
member).  At level 1 it is the greatest: pivots are the least columns, so
the free generators then sit near i = w, where the packed Hecke products
below are lopsided and cheaper than at middle exponents.  The three-term
relations go through fraction-free sparse row reduction (a quarter of the
naive column count), whose primitive integer rows give the projections
over one denominator, the lcm of the pivot entries.  They are fed from
the middle exponent i = w/2 outwards, the order that meets the least
fill-in; the echelon form is the same in any order.

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
are those at t, R at (i, t) being +-R at (w-i, eta(t)); so at a point
eta fixes (level 1's only point) they are written only for 2i >= w.

The cuspidal subspace is the kernel of the boundary map to star-folded
cusp classes, its rows keyed by cusp class, read off the P^1 point (see
_cusp_class); its dimension is asserted against the dimension formula
on every build.  T_p at p not dividing M and U_p at p | M both act through
Cremona's Heilbronn matrices (the nearest-integer continued fraction of r/p),
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
balanced range [-2^(B-1), 2^(B-1)).  One SpanSolver per space, the only
elimination of the boundary rows, is the chart of the boundary map's
kernel: the cuspidal basis is read off it (linalg.kernel_basis) as
integer columns over the lcm P of the chart's pivot entries, and it
reads the images' coordinates off the free columns.  The images of
those columns are summed in integers too, so T_p on the cuspidal
basis is an integer matrix over one denominator, P * _den, with no
fraction between the relations and the characteristic polynomial:
hecke_matrix returns the pair (A, d), and T_p is A / d.

Cremona's family is closed, up to sign, under h -> JhJ, J = [-1,0;0,1]
(at p = 2 two members have no partner), and x.(JhJ) = ((x.J).h).J is
(x.J).h under the star fold.  For x = (i, t), x.J is (-1)^i (i, J(t)), so
a pair {h, JhJ} costs one packed product per exponent i, added at the
target of t and, times (-1)^i, at the target of J(t); at level 1 both
are one point and only even i are live, so the product is doubled.  A
single h does not act on the quotient, only the family does (Merel), so
the pairs are summed over the whole family before any projection.
Columns are assembled only for the free generators in the support of
the cuspidal basis, the only ones hecke_matrix reads.

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


def _classes(w, npts, sig, jay):
    """(root, sign) of every generator x = i * npts + t: e_x = sign * e_root.

    x = -(-1)^i (w-i, sigma t) = (-1)^i (i, J t) = -(w-i, J sigma t); a
    member of the orbit met with two signs makes the class zero, sign 0.
    The root is the least member, or the greatest at level 1 (see the
    module docstring).  Each orbit is read once, at its first member, and
    written out for all of its members.
    """
    pick = max if npts == 1 else min
    out = [None] * ((w + 1) * npts)
    for i in range(w + 1):
        even = 1 if i % 2 == 0 else -1
        lo, hi = i * npts, (w - i) * npts
        for t in range(npts):
            x = lo + t
            if out[x] is not None:
                continue
            st = sig[t]
            # e_y = sign * e_x for each member y
            orbit, live = {x: 1}, 1
            for y, sign in ((hi + st, -even), (lo + jay[t], even), (hi + jay[st], -1)):
                if orbit.setdefault(y, sign) != sign:
                    live = 0
            r = pick(orbit)
            sr = orbit[r] * live
            for y, sign in orbit.items():
                out[y] = (r, sign * sr)
    return out


def _cusp_class(M, v, s):
    """Star-folded Gamma_0(M) class of a cusp u/v, gcd(u, v) = 1, s u = 1 mod v.

    Cremona's test (Algorithms for Modular Elliptic Curves, 1997, 2.2):
    u1/v1 ~ u2/v2 iff s1 v2 = s2 v1 mod gcd(M, v1 v2), that is, iff both
    have the same d = gcd(v, M) and the same s (v/d)^-1 mod e = gcd(d, M/d).
    The star fold u/v ~ -u/v negates s; v = 0 (the cusp oo) has e = 1.
    """
    d = gcd(v, M)
    e = gcd(d, M // d)
    x = s * pow(v // d, -1, e) % e
    return d, min(x, -x % e)


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


@lru_cache(maxsize=48)
def _hecke_family(p):
    """heilbronn_cremona(p) as (h, mate) entries and its size and height.

    mate is the member equal, up to sign, to JhJ = (a, -b, -c, d) for
    h = (a, b, c, d), J = [-1,0;0,1], or None when h is its own conjugate
    or has no partner (at p = 2, (2,1,0,1) and (1,0,1,2)); each member
    appears in exactly one entry.  The height is the largest of
    |a| + |b| and |c| + |d| over the family.
    """
    fam = heilbronn_cremona(p)
    left = set(fam)
    entries = []
    for a, b, c, d in fam:
        if (a, b, c, d) in left:
            left.remove((a, b, c, d))
            mate = next((m for m in ((a, -b, -c, d), (-a, b, c, -d)) if m in left), None)
            left.discard(mate)
            entries.append(((a, b, c, d), mate))
    height = max(max(abs(a) + abs(b), abs(c) + abs(d)) for a, b, c, d in fam)
    return tuple(entries), len(fam), height


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
        # the point maps of sigma = [0,-1;1,0], J = [-1,0;0,1] and tau, tau^2
        # for tau = [0,-1;1,-1], acting on row vectors (c, d)
        index, pts = p1.index, p1.points
        sig = [index(d, -c) for c, d in pts]
        jay = [index(-c, d) for c, d in pts]
        tau = [index(d, -c - d) for c, d in pts]
        tau2 = [index(-c - d, c) for c, d in pts]

        # (root, sign) of every generator; sign 0 stands for zero
        roots = _classes(w, npts, sig, jay)

        # one point per orbit of <tau, eta>, eta = (c:d) -> (d:c) (see the
        # module docstring); eta tau eta = tau^-1, so the orbit of t is
        # t, tau t, tau^2 t and their eta images
        reps, seen = [], [False] * npts
        for t in range(npts):
            if not seen[t]:
                reps.append(t)
                for u in (t, tau[t], tau2[t]):
                    seen[u] = seen[jay[sig[u]]] = True
        # at an eta-fixed point only 2i >= w is written (module docstring)
        unfixed = [t for t in reps if jay[sig[t]] != t]

        # the exponents from the middle out, the greater first at equal
        # distance: about a fifth of the work of 0..w at k = 16, M = 143
        rref = SparseRREF()
        for i in sorted(range(w + 1), key=lambda i: (abs(2 * i - w), -i)):
            # three-term relation x + x.tau + x.tau^2 = 0 written out on
            # generators (weight factors from the polynomial action)
            weights = ([(i, 0, 1)]
                       + [(j, 1, (-1) ** j * comb(w - i, j)) for j in range(w - i + 1)]
                       + [(w - i + j, 2, (-1) ** (i + j) * comb(i, j)) for j in range(i + 1)])
            for t in (reps if 2 * i >= w else unfixed):
                at = (t, tau[t], tau2[t])
                row = {}
                for ii, m, coeff in weights:
                    r, s = roots[ii * npts + at[m]]
                    if not s:
                        continue
                    row[r] = row.get(r, 0) + s * coeff
                if row:
                    rref.add_row(row)

        live = sorted({r for r, s in roots if s})
        pivots = rref.rows
        free = [r for r in live if r not in pivots]
        pos = {r: idx for idx, r in enumerate(free)}

        self.quotient_dim = len(free)
        self.free_roots = free

        # projection of every generator to the quotient, as integers over
        # one common denominator; the rows are primitive, so the lcm of the
        # pivot entries is the lcm of the reduced form's denominators.  The
        # members of a class with the same sign share one projection.
        den = lcm(*(prow[r] for r, prow in pivots.items()))
        proj = {}
        pi = []
        for r, s in roots:
            v = proj.get((r, s))
            if v is None:
                prow = pivots.get(r)
                if not s:
                    v = {}
                elif prow is None:
                    v = {pos[r]: s * den}
                else:
                    m = -s * (den // prow[r])
                    v = {pos[c]: m * x for c, x in prow.items() if c != r}
                proj[r, s] = v
            pi.append(v)
        self._den = den
        self._pi = pi

    # -- boundary and cuspidal subspace ---------------------------------

    def _build_cuspidal(self):
        w, M = self.k - 2, self.M
        npts = len(self.p1)
        # (i, (c:d)) is g = [a,b;c,d] in SL_2(Z), boundary [a/c] - [b/d] at the
        # extreme i; a^-1 = d mod c, b^-1 = -c mod d (the fold drops the sign)
        rows = {}
        for col, r in enumerate(self.free_roots):
            i, t = divmod(r, npts)
            c, d = self.p1.points[t]
            if i == w:
                row = rows.setdefault(_cusp_class(M, c, d), {})
                row[col] = row.get(col, 0) + 1
            if i == 0:
                row = rows.setdefault(_cusp_class(M, d, c), {})
                row[col] = row.get(col, 0) - 1
        self._chart = SpanSolver(rows.values(), self.quotient_dim)
        # the cuspidal basis as integer columns over P, so T_p is over P * _den
        P, self._lifts = kernel_basis(self._chart)
        self.dim = len(self._lifts)
        self._scale = P * self._den
        # the free generators the Hecke matrix reads: at level 1 the
        # boundary generator i = w is not among them
        self._support = sorted({col for lift in self._lifts for col, _ in lift})
        expected = dim_cuspforms(self.k, self.M)
        if self.dim != expected:
            raise ConsistencyError(
                f"cuspidal dimension {self.dim} != formula {expected} "
                f"at (k={self.k}, M={self.M})")

    # -- Hecke action ----------------------------------------------------

    def _quotient_hecke_columns(self, p):
        """Images under T_p (U_p at p | M) of the free generators in the
        cuspidal basis's support, in quotient coordinates, keyed by column.

        Assembled from packed integer sums (see the module docstring);
        each column is integral and stands for itself divided by _den.
        """
        w = self.k - 2
        p1 = self.p1
        npts = len(p1)
        D = self.quotient_dim
        family, size, height = _hecke_family(p)
        # 2^(B-1) exceeds the absolute value of every digit of the sums below
        B = 1 + (size * height ** w).bit_length()
        # the support's generators (col, t, J(t)), grouped by exponent i
        by_exp = {}
        for col in self._support:
            i, t = divmod(self.free_roots[col], npts)
            c, d = p1.points[t]
            by_exp.setdefault(i, []).append((col, t, p1.index(-c, d)))
        exps = sorted(by_exp)
        co_exps = [w - e for e in exps]
        pts = {u for group in by_exp.values() for _, t, jt in group for u in (t, jt)}
        sums = {col: {} for col in self._support}
        for (aa, bb, cc, dd), mate in family:
            A, C = (aa << B) + bb, (cc << B) + dd
            powA, powC = _powers(A, exps), _powers(C, co_exps)
            # target points under h; None where the image is not primitive
            # mod M, which is dropped
            tgt = {}
            for t in pts:
                c, d = p1.points[t]
                tgt[t] = p1.index(aa * c + cc * d, bb * c + dd * d)
            for i, group in by_exp.items():
                prod = powA[i] * powC[w - i]
                # x.(JhJ) is (x.J).h = (-1)^i prod at the target of J(t)
                twin = -prod if i % 2 else prod
                for col, t, jt in group:
                    acc = sums[col]
                    t1 = tgt[t]
                    if t1 is not None:
                        acc[t1] = acc.get(t1, 0) + prod
                    if mate is not None:
                        t2 = tgt[jt]
                        if t2 is not None:
                            acc[t2] = acc.get(t2, 0) + twin
        mask, top, base = (1 << B) - 1, 1 << (B - 1), 1 << B
        pi = self._pi
        cols = {}
        for col, acc in sums.items():
            vec = [0] * D
            # digit j is the coefficient of generator x = j * npts + t1; the
            # digits above the last nonzero one are not read
            for x, packed in acc.items():
                while packed:
                    coeff = packed & mask
                    if coeff & top:
                        coeff -= base
                    packed = (packed - coeff) >> B
                    if coeff:
                        for fp, fv in pi[x].items():
                            vec[fp] += coeff * fv
                    x += npts
            cols[col] = vec
        return cols

    def hecke_matrix(self, p):
        """(A, d): T_p (U_p when p | M) on the cuspidal basis is A / d, p prime.

        A is an integer matrix and d = _den times the chart's pivot lcm:
        each column of A is the image of one scaled basis vector (see
        _lifts), read off the chart, which checks that it stays cuspidal.
        """
        if not is_prime(p):
            raise ValueError(f"Hecke index must be prime, got {p}")
        if self.dim == 0:
            return [], 1
        cols = self._quotient_hecke_columns(p)
        images = []
        for (c, P), *rest in self._lifts:
            img = [P * b for b in cols[c]]
            for col, m in rest:
                img = [a + m * b for a, b in zip(img, cols[col])]
            try:
                images.append(self._chart.solve(img))
            except ValueError:
                raise ConsistencyError(
                    f"T_{p} does not preserve the cuspidal subspace at "
                    f"(k={self.k}, M={self.M})") from None
        return [list(row) for row in zip(*images)], self._scale


# Besides the charpoly store, which keys polynomials by p, the memos are
# this one and _hecke_family's: one built space serves T_p for every p,
# as surveys and crosscheck ask.
@lru_cache(maxsize=48)
def plus_quotient(k, M):
    return PlusQuotient(k, M)


def charpoly_cuspidal(k, M, p):
    """det(1 - T_p X) on S_k(Gamma_0(M)); U_p when p | M.

    Raw degree always equals dim S_k, so trailing zero coefficients record
    zero eigenvalues.
    """
    A, d = plus_quotient(k, M).hecke_matrix(p)
    # Deligne: every eigenvalue of T_p, and of U_p at p | M, has absolute
    # value at most 2 p^((k-1)/2)
    return inverse_charpoly(A, root_bound=2 * (isqrt(p ** (k - 1)) + 1), den=d)
