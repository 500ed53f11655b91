"""Slope-side reasoning on top of the two characteristic-polynomial engines.

Everything in this module works with p-adic valuations only.  Hecke
eigenvalues are never materialized as algebraic numbers: a refinement
pair (the two roots of X^2 - a_p X + p^(k-1)) is read off the Newton
polygon through (0,0), (1, v_p(a_p)), (2, k-1), which depends on the
slope v_p(a_p) alone.

The witness search reads its U_p band from the level-N assembly at every
weight, so every report reads only level-N T_p polynomials, through the
engine the store picks.  up_slopes_direct, the level-Np modsym run, is
the independent check of that assembly (crosscheck, criteria 4 and 6)
and no report calls it.  The search runs to the bound it is given.
Choosing that bound and comparing the witness with {j, j + (p-1)} is
survey.compute_pair's job, the one route from a (p, N) pair to a report
row.
"""

from fractions import Fraction
from typing import NamedTuple

from .dimensions import dim_cuspforms, dim_new_at_p
from .errors import ConsistencyError
from .exact import SlopeMultiset, is_prime, newton_slopes

__all__ = [
    "HeckeContext", "RegularityRow", "RegularityVerdict", "UpSlopeAssembly", "Witness",
    "default_witness_bound", "find_fractional_witness", "is_regular", "refinement_pair",
    "regularity_weight_range", "tp_slopes", "up_assembly", "up_slopes_direct", "witness_label",
]


def _check_tame_pair(p, N):
    """Raise ValueError unless p is prime and N is a positive level prime to p."""
    if not is_prime(p):
        raise ValueError("p must be prime, got %r" % (p,))
    if not isinstance(N, int) or N < 1:
        raise ValueError("N must be a positive integer, got %r" % (N,))
    if N % p == 0:
        raise ValueError("p = %d divides N = %d; the tame level must be prime to p"
                         % (p, N))


class _Triple(NamedTuple):  # a NamedTuple body may not define __new__, a subclass may
    p: int
    N: int
    k: int


class HeckeContext(_Triple):
    """A triple (p, N, k): prime, tame level with p not dividing N, even weight."""

    __slots__ = ()

    def __new__(cls, p, N, k):
        _check_tame_pair(p, N)
        if not isinstance(k, int) or k < 2 or k % 2:
            raise ValueError("k must be an even integer >= 2, got %r" % (k,))
        return super().__new__(cls, p, N, k)


def _modsym_charpoly(k, M, p):
    """modsym.charpoly_cuspidal(k, M, p), importing modsym on the first call.

    A run whose every polynomial is a store hit never loads modsym.
    """
    from . import modsym

    return modsym.charpoly_cuspidal(k, M, p)


def charpoly_from_traces(k, N, p):
    """traceforms.charpoly_from_traces(k, N, p), importing traceforms on the first call."""
    from . import traceforms

    return traceforms.charpoly_from_traces(k, N, p)


def _fetch(store, p, level, k, route, compute):
    """compute(), memoised in store under (p, level, k, route); None just computes."""
    if store is None:
        return compute()
    return store.fetch_or_compute(p, level, k, route, compute)


def _charpoly(k, N, p, store):
    engine = "modsym" if store is None else store.engine
    if engine == "trace":
        return _fetch(store, p, N, k, "trace", lambda: charpoly_from_traces(k, N, p))
    f = _fetch(store, p, N, k, "modsym", lambda: _modsym_charpoly(k, N, p))
    if engine == "both":
        g = _fetch(store, p, N, k, "trace", lambda: charpoly_from_traces(k, N, p))
        if f != g:
            raise ConsistencyError(
                "engine disagreement at (k=%d, N=%d, p=%d): modsym %r vs trace %r"
                % (k, N, p, list(f.coeffs), list(g.coeffs)))
    return f


def tp_slopes(ctx, store=None):
    """T_p slope multiset on S_k(Gamma_0(N)), plus the zero-eigenvalue count.

    The polynomial comes from store (a CharpolyCache, which also picks
    the engine); store=None computes it with modsym and keeps nothing.

    Returns (SlopeMultiset, zero_count).  The multiset lists valuations of
    the nonzero eigenvalues only; zero_count = dim - effective degree of
    det(1 - T_p X) counts eigenvalues that are exactly zero, which have no
    finite slope.
    """
    dim = dim_cuspforms(ctx.k, ctx.N)
    if dim == 0:
        return SlopeMultiset(), 0
    f = _charpoly(ctx.k, ctx.N, ctx.p, store)
    return newton_slopes(f, ctx.p), dim - f.degree


def regularity_weight_range(p):
    """Weights Definition-style regularity inspects: 2..floor((p+3)/2), but {2,3,4} at p=2."""
    if p == 2:
        return (2, 3, 4)
    return tuple(range(2, (p + 3) // 2 + 1))


class RegularityRow(NamedTuple):
    k: int
    slopes: SlopeMultiset
    dim: int
    zero_count: int


class RegularityVerdict(NamedTuple):
    p: int
    N: int
    regular: bool
    table: tuple  # RegularityRow per weight in regularity_weight_range(p)
    j: int | None  # least violating weight; present iff not regular


def _violates(p, k, s):
    """Whether a nonzero eigenvalue's T_p slope s breaks regularity in weight k.

    Only slope 0 is allowed, and slope 1 too at p = 2, k = 4.
    """
    return s not in ({0, 1} if (p == 2 and k == 4) else {0})


def is_regular(p, N, store=None):
    """Decide Gamma_0(N)-regularity of p from low-weight T_p slopes.

    Odd p is regular iff every T_p slope on S_k(Gamma_0(N)) vanishes for
    integer k in 2..floor((p+3)/2); p = 2 additionally inspects weight 4,
    where slopes 0 and 1 are both allowed.  Odd weights contribute
    zero-dimensional spaces and are recorded as vacuous rows without any
    computation.
    """
    _check_tame_pair(p, N)
    table = []
    j = None
    for k in regularity_weight_range(p):
        if k % 2:
            table.append(RegularityRow(k, SlopeMultiset(), 0, 0))
            continue
        slopes, zero_count = tp_slopes(HeckeContext(p, N, k), store)
        table.append(RegularityRow(k, slopes, dim_cuspforms(k, N), zero_count))
        # A zero eigenvalue is maximally non-ordinary, so it always violates.
        if j is None and (zero_count or any(_violates(p, k, s) for s, _ in slopes)):
            j = k
    return RegularityVerdict(p, N, j is None, tuple(table), j)


def refinement_pair(v, k):
    """Slopes of the two refinements attached to a T_p slope v in weight k.

    Newton polygon of X^2 - a_p X + p^(k-1) through (0,0), (1,v), (2,k-1):
    pair {v, k-1-v} when v < (k-1)/2, and the tie {(k-1)/2, (k-1)/2}
    otherwise.  v = None, a zero eigenvalue (no finite slope), lands in
    the tie case.
    """
    half = Fraction(k - 1, 2)
    if v is None or v >= half:
        return SlopeMultiset(((half, 2),))
    return SlopeMultiset.of_slopes((v, k - 1 - v))


class UpSlopeAssembly(NamedTuple):
    p: int
    N: int
    k: int
    old_pairs: tuple  # (T_p slope, SlopeMultiset pair) per eigenvalue; None if zero
    new_slope: Fraction  # (k-2)/2, from lambda^2 = p^(k-2) on the p-new part
    new_multiplicity: int
    combined: SlopeMultiset


def up_assembly(ctx, store=None):
    """Predicted U_p slopes on S_k(Gamma_0(Np)) from T_p data at level N.

    Each level-N eigenvalue contributes its refinement pair, recorded in
    old_pairs with its T_p slope, or with None for each of tp_slopes'
    zero_count zero eigenvalues; the p-new part contributes dim_new_at_p
    copies of (k-2)/2.
    """
    slopes, zero_count = tp_slopes(ctx, store)
    new_slope = Fraction(ctx.k - 2, 2)
    new_mult = dim_new_at_p(ctx.k, ctx.N, ctx.p)
    pairs = []
    counts = [(new_slope, new_mult)]
    for v, m in slopes.entries + ((None, zero_count),):
        pair = refinement_pair(v, ctx.k)
        pairs += [(v, pair)] * m
        counts += [(s, n * m) for s, n in pair]
    return UpSlopeAssembly(ctx.p, ctx.N, ctx.k, tuple(pairs), new_slope, new_mult,
                           SlopeMultiset(counts))


def up_slopes_direct(ctx, store=None):
    """U_p slopes at level Np by modsym, whatever the store's engine (trace has no U_p).

    This is the verification route: it checks up_assembly against an
    independent level-Np computation and feeds no report.
    """
    dim = dim_cuspforms(ctx.k, ctx.N * ctx.p)
    if dim == 0:
        return SlopeMultiset()
    f = _fetch(store, ctx.p, ctx.N * ctx.p, ctx.k, "modsym",
               lambda: _modsym_charpoly(ctx.k, ctx.N * ctx.p, ctx.p))
    if f.degree < dim:
        # U_p is invertible here: old eigenvalues multiply to p^(k-1) per
        # pair and new ones square to p^(k-2), so a vanishing eigenvalue
        # means an engine bug, not mathematics.
        raise ConsistencyError(
            "U_%d has %d zero eigenvalues on S_%d(Gamma_0(%d))"
            % (ctx.p, dim - f.degree, ctx.k, ctx.N * ctx.p))
    return newton_slopes(f, ctx.p)


class Witness(NamedTuple):
    """An even weight whose U_p slope multiset meets (0, 1)."""

    k: int
    slope: Fraction


def default_witness_bound(p, j):
    """Search bound when none is given: max(50, j + 2(p-1)), j = 0 if regular."""
    return max(50, (j or 0) + 2 * (p - 1))


def find_fractional_witness(p, N, k_max, store=None):
    """Scan even weights 2..k_max for a U_p slope strictly between 0 and 1 at level Np.

    The band is read from up_assembly at every weight.  A T_p slope v
    refines to {v, k-1-v} (or the tie (k-1)/2) and the p-new part sits at
    (k-2)/2, so for k > 2 only v itself can fall in (0, 1) and the band is
    the T_p band; at k = 2 it is the level-Np band by the refinement and
    p-new theorem the assembly encodes.  Returns the first hit (smallest
    weight, then smallest slope) or None; the theorem behind the search
    gives no effective bound, so exhausting k_max is a legitimate "not
    found".
    """
    for k in range(2, k_max + 1, 2):
        band = up_assembly(HeckeContext(p, N, k), store).combined.in_open_interval(0, 1)
        if band:
            return Witness(k, band.as_list()[0])
    return None


def witness_label(p, j, k):
    """Where the minimal witness weight k falls against {j, j + (p-1)}.

    A k outside that set is an observation worth reporting, never an
    error: the heuristic is numerical, not proved.
    """
    if k == j:
        return "k = j"
    if k == j + p - 1:
        return "k = j + (p-1)"
    return "mismatch: minimal witness k=%d outside {%d, %d}" % (k, j, j + p - 1)
