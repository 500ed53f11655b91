"""Exact arithmetic substrate: p-adic valuations, integer polynomials,
Newton polygon slopes and slope multisets.

Everything here is pure and immutable; values are Python ints and
fractions.Fraction throughout, never floats.
"""

from fractions import Fraction
from operator import index

__all__ = [
    "IntPolynomial", "SlopeMultiset", "valuation", "newton_slopes", "inverse_charpoly",
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

def _vp(n, p):
    # valuation of a nonzero integer
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(r, p):
    """p-adic valuation of a rational, normalized so valuation(p, p) == 1.

    r must be a nonzero int or Fraction; zero has no finite valuation and
    raises ValueError.  Signs are ignored.
    """
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime, got {p}")
    if not isinstance(r, (int, Fraction)):
        raise TypeError(f"valuation needs an int or a Fraction, got {type(r)!r}")
    if r == 0:
        raise ValueError("valuation of zero")
    if isinstance(r, Fraction):
        return _vp(r.numerator, p) - _vp(r.denominator, p)
    return _vp(abs(r), p)


# ----------------------------------------------------------------------
# integer polynomials, constant coefficient first

class IntPolynomial:
    """Integer polynomial c0 + c1*X + ... stored constant-first.

    Coefficients go through operator.index: a Fraction raises TypeError.
    Trailing zero coefficients are allowed: for a reversed characteristic
    polynomial they record zero eigenvalues, so construction never trims.
    Use trimmed() to drop them; equality compares the trimmed sequences.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(map(index, coeffs))
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
# slope multisets and Newton polygons

class SlopeMultiset:
    """Sorted multiset of rational slopes with multiplicities."""

    __slots__ = ("entries",)

    def __init__(self, pairs=()):
        acc = {}
        for s, m in pairs:
            if m < 0:
                raise ValueError("negative multiplicity")
            if m:
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
    is the lower convex hull of the points (i, v_p(c_i)) over the nonzero
    coefficients, it runs from (0,0), and each segment of slope s and
    length m contributes m roots of valuation s.
    """
    if f.coeffs[0] != 1:
        raise ValueError("expected constant coefficient 1")
    if not is_prime(p):
        raise ValueError(f"Newton polygon needs a prime, got {p}")
    hull = []
    for pt in [(i, _vp(abs(c), p)) for i, c in enumerate(f.coeffs) if c]:
        # pop while the turn through the last two points is not strictly convex;
        # >= 0 also removes collinear middles, merging their segments
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return SlopeMultiset((Fraction(y2 - y1, x2 - x1), x2 - x1)
                         for (x1, y1), (x2, y2) in zip(hull, hull[1:]))


def inverse_charpoly(M, *, root_bound, den=1):
    """det(1 - (M / den) X) as an IntPolynomial of raw degree dim(M).

    M is a square matrix of ints; any other entry raises TypeError.  The
    caller promises an integral charpoly of M / den whose eigenvalues all
    have absolute value at most root_bound, as Deligne's bound does for
    T_p; linalg.charpoly_monic computes it modulo enough primes for that
    bound and certifies it against one more, raising ArithmeticError if
    the promise was broken.
    Trailing zero coefficients (zero eigenvalues) are preserved.
    """
    from .linalg import charpoly_monic

    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("non-square matrix")
        if not all(isinstance(x, int) for x in row):
            raise TypeError("matrix entries must be ints")
    # det(X*I - M) = sum b_i X^i  ==>  det(1 - M X) = sum b_{n-j} X^j
    return IntPolynomial(charpoly_monic(M, root_bound, den)[::-1])
