"""Exact arithmetic substrate: p-adic valuations, integer polynomials,
Newton polygons and slope multisets.

Everything here is pure and immutable; values are Python ints and
fractions.Fraction throughout, never floats.
"""

from fractions import Fraction

__all__ = [
    "INFINITY", "IntPolynomial", "NewtonPolygon", "SlopeMultiset",
    "valuation", "newton_slopes", "inverse_charpoly",
    "is_prime", "factorize", "divisors", "euler_phi",
]


# ----------------------------------------------------------------------
# primes and factoring

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin (exact for n < 3.3e24, far beyond any use here)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n):
    """Factor n >= 1 by trial division; returns {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n):
    """Sorted list of positive divisors of n."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** i for d in ds for i in range(e + 1)]
    return sorted(ds)


def euler_phi(n):
    """Euler's totient of n >= 1."""
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


# ----------------------------------------------------------------------
# p-adic valuation

class _PlusInfinity:
    """Valuation of zero; compares above every rational and absorbs addition."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "+Infinity"

    def __eq__(self, other):
        return isinstance(other, _PlusInfinity)

    def __hash__(self):
        return hash("padic+infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _PlusInfinity)

    def __gt__(self, other):
        return not isinstance(other, _PlusInfinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _PlusInfinity()


def _vp(n, p):
    # valuation of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(r, p):
    """p-adic valuation of a rational, normalized so valuation(p, p) == 1.

    Returns an int, or INFINITY for r == 0.  Signs are ignored.
    """
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime, got {p}")
    if isinstance(r, Fraction):
        if r == 0:
            return INFINITY
        return _vp(r.numerator, p) - _vp(r.denominator, p)
    if r == 0:
        return INFINITY
    return _vp(abs(int(r)), p)


# ----------------------------------------------------------------------
# integer polynomials, constant coefficient first

def _as_int(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        return c.numerator
    raise TypeError(f"bad coefficient type {type(c)!r}")


class IntPolynomial:
    """Integer polynomial c0 + c1*X + ... stored constant-first.

    Trailing zero coefficients are allowed: for a reversed characteristic
    polynomial they record zero eigenvalues, so construction never trims.
    Use trimmed() to drop them; equality compares the trimmed sequences.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_as_int(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("empty coefficient list")

    @property
    def raw_degree(self):
        return len(self.coeffs) - 1

    @property
    def degree(self):
        """Effective degree, ignoring trailing zeros (-1 for the zero polynomial)."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1

    def trimmed(self):
        d = self.degree
        if d == len(self.coeffs) - 1:
            return self
        return IntPolynomial(self.coeffs[: d + 1] or (0,))

    def __mul__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.trimmed().coeffs == other.trimmed().coeffs

    def __hash__(self):
        return hash(self.trimmed().coeffs)

    def __repr__(self):
        return f"IntPolynomial({list(self.coeffs)})"


# ----------------------------------------------------------------------
# Newton polygons

class NewtonPolygon:
    """Lower convex hull of the points (i, v_p(c_i)) of a polynomial.

    vertices: [(index, valuation)] along the hull, indices strictly increasing.
    segments: [(slope, horizontal_length)] with strictly increasing slopes
    (collinear points are merged into one segment).
    """

    __slots__ = ("vertices", "segments")

    def __init__(self, vertices, segments):
        self.vertices = tuple(vertices)
        self.segments = tuple(segments)

    @classmethod
    def of_polynomial(cls, f, p):
        f = f.trimmed()
        pts = [(i, valuation(c, p)) for i, c in enumerate(f.coeffs) if c != 0]
        if not pts:
            raise ValueError("Newton polygon of the zero polynomial")
        hull = []
        for pt in pts:
            # pop while the turn through the last two points is not strictly convex;
            # >= 0 also removes collinear middles, merging their segments
            while len(hull) >= 2:
                (x1, y1), (x2, y2) = hull[-2], hull[-1]
                if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        segs = []
        for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
            segs.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
        return cls(hull, segs)


class SlopeMultiset:
    """Sorted multiset of rational slopes with multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, pairs=()):
        acc = {}
        for s, m in pairs:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
                s = Fraction(s)
                acc[s] = acc.get(s, 0) + m
        self.entries = tuple(sorted(acc.items()))

    @classmethod
    def of_slopes(cls, slopes):
        return cls((s, 1) for s in slopes)

    @property
    def total(self):
        return sum(m for _, m in self.entries)

    def as_list(self):
        out = []
        for s, m in self.entries:
            out.extend([s] * m)
        return out

    def in_open_interval(self, lo, hi):
        """Sub-multiset of slopes strictly between lo and hi."""
        return SlopeMultiset((s, m) for s, m in self.entries if lo < s < hi)

    def __bool__(self):
        return bool(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other):
        if not isinstance(other, SlopeMultiset):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        if not self.entries:
            return "{}"
        return "{" + ", ".join(f"{s} x{m}" for s, m in self.entries) + "}"


def newton_slopes(f, p):
    """Slopes of the p-adic Newton polygon of f, with multiplicities.

    f must have constant coefficient 1 (reversed characteristic polynomial
    convention).  For f = prod(1 - lam_i X) the result is exactly the
    multiset of valuations v_p(lam_i) over the nonzero lam_i: the polygon
    runs from (0,0) and each segment of slope s and length m contributes
    m roots of valuation s.
    """
    if f.coeffs[0] != 1:
        raise ValueError("expected constant coefficient 1")
    if f.degree <= 0:
        return SlopeMultiset()
    np_ = NewtonPolygon.of_polynomial(f, p)
    return SlopeMultiset(np_.segments)


def inverse_charpoly(M, *, root_bound):
    """det(1 - M*X) as an IntPolynomial of raw degree dim(M).

    Entries may be ints or Fractions.  The caller promises an integral
    charpoly whose eigenvalues all have absolute value at most
    root_bound, as Deligne's bound does for T_p; linalg.charpoly_monic
    computes it modulo enough primes for that bound and certifies it
    against one more, raising ArithmeticError if the promise was broken.
    Trailing zero coefficients (zero eigenvalues) are preserved.
    """
    from .linalg import charpoly_monic

    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("non-square matrix")
    # det(X*I - M) = sum b_i X^i  ==>  det(1 - M X) = sum b_{n-j} X^j
    return IntPolynomial(charpoly_monic(M, root_bound)[::-1])
