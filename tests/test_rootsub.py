"""Elementary factor products against brute-force expansion."""

import numpy as np
import pytest

from loopfact.laurent import CircleGrid, LaurentSeries, apply_sigma, star, unitarity_defect
from loopfact.rootsub import RootParams, a_factor, elementary_factor, partial_product

from oracles import coefficient_bound, gammadelta_coeffs, integer_partitions


def random_params(rng, side, support, mag=0.6):
    vals = []
    base = 1 if side == "zeta" else 0
    for k in range(support):
        r = mag * rng.uniform(0.2, 1.0) * 0.5 ** (base + k)
        vals.append(r * np.exp(2j * np.pi * rng.uniform()))
    return RootParams(side, tuple(vals))


def test_elementary_factor_is_special_unitary():
    f = elementary_factor("zeta", 3, 0.4 - 0.2j)
    assert unitarity_defect(f, CircleGrid(32)) < 1e-14
    det = f.det()
    assert abs(det.coeff(0) - 1.0) < 1e-15
    assert det.coefficient_max() <= 1.0 + 1e-15
    g = elementary_factor("eta", 0, 0.3j)
    assert unitarity_defect(g, CircleGrid(8)) < 1e-14


def test_elementary_factor_index_ranges():
    with pytest.raises(ValueError):
        elementary_factor("zeta", 0, 0.1)
    with pytest.raises(ValueError):
        elementary_factor("eta", -1, 0.1)


def test_partial_product_support_two_closed_form():
    z1, z2 = 0.3 + 0.1j, -0.2j
    p = RootParams("zeta", (z1, z2))
    k2 = partial_product(p)
    pref = a_factor(z1) * a_factor(z2)
    # (2,2) entry of the two-factor product is pref * (1 - z1 conj(z2) z)
    assert abs(k2.d.coeff(0) - pref) < 1e-15
    assert abs(k2.d.coeff(1) - pref * (-z1 * np.conj(z2))) < 1e-15
    assert abs(k2.c.coeff(1) - pref * (-np.conj(z1))) < 1e-15
    assert abs(k2.c.coeff(2) - pref * (-np.conj(z2))) < 1e-15
    # lower-family normal form: first column determines the second
    assert (k2.a - star(k2.d)).coefficient_max() < 1e-15
    assert (k2.b + star(k2.c)).coefficient_max() < 1e-15
    assert k2.c.coeff(0) == 0
    assert k2.d.coeff(0).real > 0


def test_partial_product_upto_prefix():
    p = RootParams("zeta", (0.5, 0.25, 0.125))
    two = partial_product(p, upto=2)
    want = elementary_factor("zeta", 2, 0.25) @ elementary_factor("zeta", 1, 0.5)
    assert all(
        (x - y).coefficient_max() < 1e-15 for x, y in zip(two.entries(), want.entries())
    )
    with pytest.raises(ValueError):
        partial_product(p, upto=4)


def test_gammadelta_matches_brute_force():
    rng = np.random.default_rng(11)
    for support in (1, 2, 3, 4, 5):
        p = random_params(rng, "zeta", support)
        k2 = partial_product(p)
        pref = 1.0
        for v in p.values:
            pref *= a_factor(v)
        gamma, delta = gammadelta_coeffs(p, 20)
        for n in range(0, 21):
            assert abs(pref * gamma.coeff(n) - k2.c.coeff(n)) < 1e-12
            assert abs(pref * delta.coeff(n) - k2.d.coeff(n)) < 1e-12
        # normalized product has no negative powers in the second column
        assert gamma.is_zero or gamma.min_power >= 1
        assert delta.coeff(0) == 1.0


def test_gammadelta_lowest_coefficients():
    z = (0.3 + 0.0j, 0.2 + 0.0j)
    gamma, delta = gammadelta_coeffs(RootParams("zeta", z), 5)
    assert abs(gamma.coeff(1) + np.conj(z[0])) < 1e-15
    assert abs(gamma.coeff(2) + np.conj(z[1])) < 1e-15
    assert abs(delta.coeff(1) + z[0] * np.conj(z[1])) < 1e-15


def test_gammadelta_rejects_eta():
    with pytest.raises(ValueError):
        gammadelta_coeffs(RootParams("eta", (0.1,)), 3)


def test_sigma_image_matches_sigma_of_product():
    rng = np.random.default_rng(5)
    p = random_params(rng, "eta", 4)
    lhs = apply_sigma(partial_product(p))
    rhs = partial_product(p.sigma_image())
    assert all(
        (x - y).coefficient_max() < 1e-14 for x, y in zip(lhs.entries(), rhs.entries())
    )
    # and back
    assert p.sigma_image().sigma_image() == p


def test_integer_partitions_counts():
    counts = [len(list(integer_partitions(n))) for n in range(1, 9)]
    assert counts == [1, 2, 3, 5, 7, 11, 15, 22]


def test_coefficient_bound_dominates_delta_coefficients():
    # the partition bound certifies the diagonal-entry coefficients
    rng = np.random.default_rng(17)
    for support in (2, 3, 5):
        p = random_params(rng, "zeta", support)
        _, delta = gammadelta_coeffs(p, 10)
        for n in range(1, 11):
            assert abs(delta.coeff(n)) <= coefficient_bound(p, n) + 1e-15
    q = RootParams("zeta", (0.3, 0.2))
    assert abs(q.l2_sum() - 0.13) < 1e-15
    assert abs(coefficient_bound(q, 1) - 0.13) < 1e-15
    assert abs(coefficient_bound(q, 2) - (0.13 + 0.13**2)) < 1e-14


def test_root_params_json_round_trip_and_diagnostics():
    p = RootParams("eta", (0.5j, 0.25))
    assert RootParams.from_json(p.to_json()) == p
    assert abs(p.sobolev_half_sum() - (0 * 0.25 + 1 * 0.0625)) < 1e-15
    q = RootParams("zeta", (0.5j, 0.25))
    assert abs(q.sobolev_half_sum() - (1 * 0.25 + 2 * 0.0625)) < 1e-15
