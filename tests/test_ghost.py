"""The Bergdall-Pollack ghost series against the assembled U_p slopes.

The ghost series predicts U_p slopes from dimensions alone.  Its
conjecture is proved only in part, so these tests pin an observed
agreement on a finite grid of regular pairs and the weights where ghost
and exact slopes part at two irregular pairs.  A future disagreement at
a regular pair is a finding to report, not a point to drop.
"""

import pytest

from heckeslopes.cache import CharpolyCache
from heckeslopes.dimensions import dim_cuspforms
from heckeslopes.slopes import HeckeContext, is_regular, up_assembly

from oracles import ghost_slopes


@pytest.fixture(scope="module")
def store():
    return CharpolyCache(engine="trace")


@pytest.fixture(scope="module")
def regular_grid(store):
    """(p, N, k): regular pairs, odd p <= 7, N <= 10, even k <= 20, dim S_k(Np) > 0."""
    return [(p, N, k)
            for p in (3, 5, 7) for N in range(1, 11)
            if N % p and is_regular(p, N, store).regular
            for k in range(2, 21, 2) if dim_cuspforms(k, N * p)]


def _exact(p, N, k, store):
    return up_assembly(HeckeContext(p, N, k), store).combined.as_list()


def test_ghost_agrees_at_regular_pairs(regular_grid, store):
    assert len(regular_grid) == 223
    assert [(p, N, k) for p, N, k in regular_grid
            if ghost_slopes(p, N, k) != _exact(p, N, k, store)] == []


def test_ghost_cut_off_changes_no_slope(regular_grid):
    assert [(p, N, k) for p, N, k in regular_grid
            if ghost_slopes(p, N, k) != ghost_slopes(p, N, k, extra=10)] == []


def test_ghost_agrees_beyond_criterion_6_direct_cap(store):
    # criterion 6 checks assembly = direct only where dim S_k(Np) <= 45;
    # of the 219 points of its grid beyond that cap, 218 have odd p
    points = [(p, N, k)
              for k in range(2, 17, 2) for N in range(1, 15) for p in (3, 5, 7, 11, 13)
              if N % p and dim_cuspforms(k, N * p) > 45 and is_regular(p, N, store).regular]
    assert len(points) == 164
    assert [(p, N, k) for p, N, k in points
            if ghost_slopes(p, N, k) != _exact(p, N, k, store)] == []


@pytest.mark.parametrize("p, N, k_max, differ", [
    (13, 5, 30, {6, 10, 18, 20, 22, 24, 30}),  # j = 6, witness at 18
    (59, 1, 80, {16, 46, 74, 76}),  # j = 16
])
def test_ghost_parts_from_exact_at_irregular_pairs(p, N, k_max, differ, store):
    assert is_regular(p, N, store).j == min(differ)
    assert {k for k in range(2, k_max + 1, 2)
            if dim_cuspforms(k, N * p)
            and ghost_slopes(p, N, k) != _exact(p, N, k, store)} == differ
