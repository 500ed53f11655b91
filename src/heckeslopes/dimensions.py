"""Genus and cusp form dimension formulas for Gamma_0(N).

These are the classical index / elliptic point / cusp counts; they serve
as hard consistency checks for the modular symbols engine and as the
bookkeeping behind old/new decompositions at level N*p.
"""

from math import gcd

from .errors import ConsistencyError
from .exact import divisors, euler_phi, factorize, kronecker

__all__ = [
    "psi_index", "nu2", "nu3", "nu_infinity", "genus",
    "dim_cuspforms", "dim_new_at_p",
]


def psi_index(N):
    """Index of Gamma_0(N) in SL_2(Z): N * prod_{p|N} (1 + 1/p)."""
    if N < 1:
        raise ValueError("level must be >= 1")
    out = N
    for p in factorize(N):
        out = out // p * (p + 1)
    return out


def nu2(N):
    """Number of elliptic points of order 2 on X_0(N)."""
    if N % 4 == 0:
        return 0
    out = 1
    for p in factorize(N):
        if p == 2:
            continue
        out *= 1 + kronecker(-1, p)
    return out


def nu3(N):
    """Number of elliptic points of order 3 on X_0(N)."""
    if N % 9 == 0:
        return 0
    out = 1
    for p in factorize(N):
        if p == 3:
            continue
        out *= 1 + kronecker(-3, p)
    return out


def nu_infinity(N):
    """Number of cusps of X_0(N): sum over d|N of phi(gcd(d, N/d))."""
    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


def genus(N):
    """Genus of X_0(N)."""
    twelve_g = 12 + psi_index(N) - 3 * nu2(N) - 4 * nu3(N) - 6 * nu_infinity(N)
    if twelve_g % 12:
        raise ArithmeticError(f"genus formula not integral at N={N}")
    return twelve_g // 12


def dim_cuspforms(k, N):
    """dim S_k(Gamma_0(N)) for even k >= 2 (0 for k < 2 or odd k)."""
    if k < 2 or k % 2:
        return 0
    g = genus(N)
    if k == 2:
        return g
    d = (k - 1) * (g - 1) + (k // 2 - 1) * nu_infinity(N) \
        + (k // 4) * nu2(N) + (k // 3) * nu3(N)
    return d


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
