import pytest

from heckeslopes.dimensions import (dim_cuspforms, dim_new_at_p, genus, nu2,
                                    nu3, nu_infinity, psi_index)

# classical genus table for X_0(N)
GENUS = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0,
         11: 1, 12: 0, 13: 0, 14: 1, 15: 1, 16: 0, 17: 1, 18: 0, 19: 1,
         20: 1, 21: 1, 22: 2, 23: 2, 24: 1, 25: 0, 26: 2, 27: 1, 28: 2,
         29: 2, 30: 3, 31: 2, 32: 1, 33: 3, 34: 3, 35: 3, 36: 1, 37: 2,
         38: 4, 39: 3, 40: 3, 41: 3, 49: 1, 50: 2}


def test_psi_index():
    assert psi_index(1) == 1
    assert psi_index(11) == 12
    assert psi_index(12) == 24
    assert psi_index(210) == 576


def test_elliptic_and_cusp_counts():
    assert (nu2(1), nu3(1), nu_infinity(1)) == (1, 1, 1)
    assert (nu2(11), nu3(11), nu_infinity(11)) == (0, 0, 2)
    assert (nu2(13), nu3(13), nu_infinity(13)) == (2, 2, 2)
    assert nu2(4) == 0 and nu3(9) == 0
    assert nu_infinity(12) == 6 and nu_infinity(28) == 6


def test_elliptic_counts_are_root_counts():
    # nu2(N) and nu3(N) count the roots of x^2 + 1 and x^2 + x + 1 mod N
    for N in range(1, 600):
        assert nu2(N) == sum((x * x + 1) % N == 0 for x in range(N)), N
        assert nu3(N) == sum((x * x + x + 1) % N == 0 for x in range(N)), N


def test_genus_table():
    for N, g in GENUS.items():
        assert genus(N) == g, N


def test_dim_pins():
    assert dim_cuspforms(12, 1) == 1
    assert dim_cuspforms(2, 11) == 1
    assert dim_cuspforms(2, 22) == 2
    assert dim_cuspforms(14, 1) == 0
    assert dim_cuspforms(24, 1) == 2
    assert dim_cuspforms(4, 13) == 3
    assert dim_cuspforms(6, 11) == 4
    assert dim_cuspforms(4, 33) == 10


def test_dim_weight_two_is_genus():
    for N in GENUS:
        assert dim_cuspforms(2, N) == genus(N)


def test_dim_odd_or_low_weight_is_zero():
    assert dim_cuspforms(3, 11) == 0
    assert dim_cuspforms(1, 11) == 0
    assert dim_cuspforms(0, 11) == 0


def test_new_dimension_nonnegative():
    for p in (2, 3, 5, 7, 11, 13):
        for N in range(1, 31):
            if N % p == 0:
                continue
            for k in range(2, 17, 2):
                assert dim_new_at_p(k, N, p) >= 0


def test_dimension_profile():
    # S_2(Gamma_0(33)) = two old copies of S_2(Gamma_0(11)) plus one 3-new form
    assert dim_cuspforms(2, 33) == 3
    assert dim_new_at_p(2, 11, 3) == 1
    assert 2 * dim_cuspforms(2, 11) == 2
    with pytest.raises(ValueError):
        dim_new_at_p(2, 10, 5)
