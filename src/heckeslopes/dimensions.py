"""Genus and cusp form dimension formulas for Gamma_0(N).

These are the classical index / elliptic point / cusp counts, all read
off one factorisation of N; they serve as hard consistency checks for
the modular symbols engine and as the bookkeeping behind old/new
decompositions at level N*p.
"""

from .errors import ConsistencyError
from .exact import factorize

__all__ = [
    "psi_index", "nu2", "nu3", "nu_infinity", "genus",
    "dim_cuspforms", "dim_new_at_p",
]


def _invariants(N):
    """(psi_index, nu2, nu3, nu_infinity) of Gamma_0(N), one prime at a time."""
    if N < 1:
        raise ValueError("level must be >= 1")
    psi, n2, n3, cusps = N, int(N % 4 != 0), int(N % 9 != 0), 1
    for q, e in factorize(N).items():
        psi = psi // q * (q + 1)
        if q != 2:
            n2 *= 2 if q % 4 == 1 else 0  # 1 + (-1|q)
        if q != 3:
            n3 *= 2 if q % 3 == 1 else 0  # 1 + (-3|q)
        # sum over i <= e of phi(q^min(i, e - i))
        cusps *= q ** (e // 2 - 1) * (q + 1) if e % 2 == 0 else 2 * q ** (e // 2)
    return psi, n2, n3, cusps


def psi_index(N):
    """Index of Gamma_0(N) in SL_2(Z): N * prod_{p|N} (1 + 1/p)."""
    return _invariants(N)[0]


def nu2(N):
    """Number of elliptic points of order 2 on X_0(N)."""
    return _invariants(N)[1]


def nu3(N):
    """Number of elliptic points of order 3 on X_0(N)."""
    return _invariants(N)[2]


def nu_infinity(N):
    """Number of cusps of X_0(N): sum over d|N of phi(gcd(d, N/d))."""
    return _invariants(N)[3]


def genus(N):
    """Genus of X_0(N), which is dim S_2(Gamma_0(N))."""
    return dim_cuspforms(2, N)


def dim_cuspforms(k, N):
    """dim S_k(Gamma_0(N)) for even k >= 2 (0 for k < 2 or odd k)."""
    if k < 2 or k % 2:
        return 0
    psi, n2, n3, cusps = _invariants(N)
    twelve_g = 12 + psi - 3 * n2 - 4 * n3 - 6 * cusps
    if twelve_g % 12:
        raise ArithmeticError(f"genus formula not integral at N={N}")
    g = twelve_g // 12
    if k == 2:
        return g
    return (k - 1) * (g - 1) + (k // 2 - 1) * cusps + (k // 4) * n2 + (k // 3) * n3


def dim_new_at_p(k, N, p):
    """Dimension of the p-new subspace of S_k(Gamma_0(N*p)) for p not dividing N.

    Degeneracy maps embed two copies of S_k(Gamma_0(N)); what is left is new
    at p.  A negative value cannot happen and raises ConsistencyError.
    """
    if N % p == 0:
        raise ValueError("p must not divide the base level")
    full, base = dim_cuspforms(k, N * p), dim_cuspforms(k, N)
    if full < 2 * base:
        raise ConsistencyError(
            f"negative p-new dimension at (k={k}, N={N}, p={p}): {full} - 2*{base}")
    return full - 2 * base
