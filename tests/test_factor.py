"""Factorization round trips, closed-form factors, reconstruction, verifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfact.errors import (
    BadNormalization,
    DenominatorVanishes,
    NotFactorizable,
    PeelDivergence,
)
from loopfact.laurent import (
    CircleGrid,
    LaurentSeries,
    LoopMatrix,
    star,
    truncate,
    unitarity_defect,
)
from loopfact.rootsub import RootParams, partial_product
from loopfact.toeplitz import triangular
from loopfact.factor import (
    RootSubgroupData,
    compose_rootsub,
    composed_lu,
    eta_from_loop,
    exp_series,
    k2_from_x,
    k2_triangular_from_cd,
    lambda_loop,
    lambda_series,
    reconstruct_lu,
    rootsub_factorize,
    verify_identities,
    x_leastsquares,
    zeta_from_loop,
)

import oracles


def generic_data(seed=0, eta_support=2, zeta_support=2, chi_terms=2):
    rng = np.random.default_rng(seed)

    def draw(side, support):
        base = 1 if side == "zeta" else 0
        vals = tuple(
            0.4 * rng.uniform(0.3, 1.0) * 0.5 ** (base + k) * np.exp(2j * np.pi * rng.uniform())
            for k in range(support)
        )
        return RootParams(side, vals)

    chi = LaurentSeries.from_dict(
        {
            n: 0.15 * rng.uniform(0.3, 1.0) * 0.5 ** (n - 1) * np.exp(2j * np.pi * rng.uniform())
            for n in range(1, chi_terms + 1)
        }
    )
    chi0 = 1j * rng.uniform(-np.pi / 2, np.pi / 2)
    return RootSubgroupData(draw("eta", eta_support), chi0, chi, draw("zeta", zeta_support))


def series_diff(f, g, win=30):
    return (truncate(f, -win, win) - truncate(g, -win, win)).coefficient_max()


def loop_diff(A, B, win=30):
    return max(series_diff(x, y, win) for x, y in zip(A.entries(), B.entries()))


# --- exponentials -----------------------------------------------------


def test_exp_series_matches_pointwise_exponential():
    f = LaurentSeries.from_dict({-2: 0.1j, 1: 0.3, 3: -0.05 + 0.02j})
    e = exp_series(f, -25, 25)
    for theta in (0.1, 1.3, 2.2, 4.0):
        z = np.exp(1j * theta)
        assert abs(e.evaluate(z) - np.exp(f.evaluate(z))) < 1e-12


def test_lambda_series_unimodular_for_imaginary_chi0():
    chi = LaurentSeries.from_dict({1: 0.2, 2: -0.1j})
    lam = lambda_series(chi, 0.4j, 30)
    vals = lam.evaluate(CircleGrid(128).points)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
    loop = lambda_loop(chi, 0.4j, 30)
    assert unitarity_defect(loop, CircleGrid(128)) < 1e-12


# --- triangular data of k2 --------------------------------------------


def test_k2_triangular_single_zeta_frozen():
    k2 = partial_product(RootParams("zeta", (0.5,)))
    t = k2_triangular_from_cd(k2.c, k2.d, 12)
    assert abs(t.a2 - np.sqrt(1.25)) < 1e-14
    assert series_diff(t.x, LaurentSeries.monomial(1, 0.5)) < 1e-14
    assert series_diff(t.alpha2, LaurentSeries.one()) < 1e-14
    assert t.beta2.coefficient_max() < 1e-14
    assert series_diff(t.gamma2, LaurentSeries.monomial(1, -0.5)) < 1e-14
    assert series_diff(t.delta2, LaurentSeries.one()) < 1e-14
    assert t.discarded_mass < 1e-15


def test_k2_triangular_assembles_back():
    rng = np.random.default_rng(4)
    for support in (1, 2, 3, 4):
        vals = tuple(
            0.4 * 0.6**k * np.exp(2j * np.pi * rng.uniform()) for k in range(support)
        )
        k2 = partial_product(RootParams("zeta", vals))
        t = k2_triangular_from_cd(k2.c, k2.d, 2 * support + 4)
        assert t.discarded_mass < 1e-14
        assert loop_diff(t.assemble(), k2) < 1e-13
        # third factor normalizations
        assert abs(t.alpha2.coeff(0) - 1.0) < 1e-13
        assert abs(t.delta2.coeff(0) - 1.0) < 1e-13
        assert abs(t.gamma2.coeff(0)) < 1e-15


def test_k2_triangular_rejects_bad_normalizations():
    k2 = partial_product(RootParams("zeta", (0.3,)))
    with pytest.raises(BadNormalization):
        k2_triangular_from_cd(k2.d, k2.d, 8)  # c(0) != 0
    with pytest.raises(BadNormalization):
        k2_triangular_from_cd(k2.c, -1.0 * k2.d, 8)  # d(0) < 0
    with pytest.raises(BadNormalization):
        k2_triangular_from_cd(star(k2.c), k2.d, 8)  # negative powers


def test_x_two_routes_agree():
    rng = np.random.default_rng(12)
    for support in (1, 2, 3, 4):
        vals = tuple(
            0.4 * 0.55**k * np.exp(2j * np.pi * rng.uniform()) for k in range(support)
        )
        k2 = partial_product(RootParams("zeta", vals))
        t = k2_triangular_from_cd(k2.c, k2.d, 2 * support + 4)
        x_ls = x_leastsquares(k2.c, k2.d, support)
        assert series_diff(t.x, x_ls) < 1e-10


def test_x_leastsquares_overparametrized_pads_with_zeros():
    # d(0) > 0 pins every unknown, so extra columns only add exact zeros
    k2 = partial_product(RootParams("zeta", (0.4,)))
    x = x_leastsquares(k2.c, k2.d, 6)
    assert series_diff(x, LaurentSeries.monomial(1, 0.4)) < 1e-12


def test_k2_from_x_round_trip_and_form():
    rng = np.random.default_rng(23)
    vals = tuple(0.4 * 0.5**k * np.exp(2j * np.pi * rng.uniform()) for k in range(3))
    k2 = partial_product(RootParams("zeta", vals))
    t = k2_triangular_from_cd(k2.c, k2.d, 12)
    loop, a2 = k2_from_x(t.x, 16)
    assert abs(a2 - t.a2) < 1e-12
    assert loop_diff(loop, k2) < 1e-12
    # reconstructed loop is in exact lower-family form
    assert series_diff(loop.a, star(loop.d)) < 1e-12
    assert series_diff(loop.b, -1.0 * star(loop.c)) < 1e-12
    with pytest.raises(BadNormalization):
        k2_from_x(LaurentSeries.monomial(0, 0.5), 8)


# --- peeling ----------------------------------------------------------


def test_zeta_peeling_recovers_parameters():
    rng = np.random.default_rng(31)
    for support in (1, 3, 5):
        vals = tuple(
            0.4 * 0.6**k * np.exp(2j * np.pi * rng.uniform()) for k in range(support)
        )
        k2 = partial_product(RootParams("zeta", vals))
        rec = zeta_from_loop(k2, support)
        assert max(abs(a - b) for a, b in zip(rec.values, vals)) < 1e-12


def test_eta_peeling_recovers_parameters():
    rng = np.random.default_rng(37)
    vals = tuple(0.35 * 0.6**k * np.exp(2j * np.pi * rng.uniform()) for k in range(3))
    k1 = partial_product(RootParams("eta", vals))
    rec = eta_from_loop(k1, 2)
    assert rec.side == "eta" and len(rec.values) == 3
    assert max(abs(a - b) for a, b in zip(rec.values, vals)) < 1e-12


def test_peeling_rejects_wrong_form_and_diverges_on_fake_input():
    k1 = partial_product(RootParams("eta", (0.3,)))
    with pytest.raises(BadNormalization):
        zeta_from_loop(k1, 3)  # upper-family loop fed to the zeta peeler
    # correct normal form but not a finite product of elementary factors
    c = LaurentSeries.from_dict({1: 0.5, 2: 0.5})
    d = LaurentSeries.one()
    fake = LoopMatrix(star(d), -1.0 * star(c), c, d)
    with pytest.raises(PeelDivergence):
        zeta_from_loop(fake, 6)


parameter = st.builds(
    lambda r, t: 0.5 * r * np.exp(2j * np.pi * t), st.floats(0, 1), st.floats(0, 1)
)


@given(st.lists(parameter, min_size=1, max_size=8), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_vectorised_peel_matches_dense_product_peel(values, extra):
    support = len(values)
    k2 = partial_product(RootParams("zeta", tuple(values)))
    got = zeta_from_loop(k2, support + extra)
    want = oracles.peel_zeta(k2, support + extra)
    assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= 1e-12
    k1 = partial_product(RootParams("eta", tuple(values)))
    got = eta_from_loop(k1, support - 1 + extra)
    want = oracles.peel_eta(k1, support - 1 + extra)
    assert len(got.values) == len(want.values) == support + extra
    assert max(abs(a - b) for a, b in zip(got.values, want.values)) <= 1e-12


def test_peeling_diverges_on_a_perturbed_product():
    # lower-family form and normalization hold, but a z^6 term in c that no
    # product of indices 1..3 can carry survives the peel
    k2 = partial_product(RootParams("zeta", (0.3, -0.2j, 0.1)))
    c = k2.c + LaurentSeries.monomial(6, 1e-4)
    perturbed = LoopMatrix(k2.a, -1.0 * star(c), c, k2.d)
    assert zeta_from_loop(k2, 3).values
    with pytest.raises(PeelDivergence):
        zeta_from_loop(perturbed, 3)
    with pytest.raises(PeelDivergence):
        oracles.peel_zeta(perturbed, 3)


# --- composition and closed-form factors ------------------------------


def test_compose_rootsub_is_special_unitary():
    data = generic_data(1)
    g = compose_rootsub(data, order=40)
    assert unitarity_defect(g, CircleGrid(256)) < 1e-12
    det = g.det()
    assert abs(det.coeff(0) - 1.0) < 1e-12
    assert truncate(det - LaurentSeries.one(), -20, 20).coefficient_max() < 1e-12


def test_composed_lu_matches_toeplitz_route():
    for seed in (2, 5, 8):
        data = generic_data(seed)
        g = compose_rootsub(data, order=40)
        tf = triangular(g, 32)
        l, m0, a0, u = composed_lu(data, order=40)
        assert abs(m0 - tf.m_zero) < 1e-9
        assert abs(a0 - tf.a_zero) < 1e-9
        assert loop_diff(l, tf.l, 24) < 1e-9
        assert loop_diff(u, tf.u, 24) < 1e-9
        # middle constant is exp(chi0) times the positive scale
        assert abs(m0 - np.exp(data.chi0)) < 1e-12


def test_factorize_round_trip_generic():
    for seed in (3, 11):
        data = generic_data(seed)
        g = compose_rootsub(data, order=40)
        rec = rootsub_factorize(g, 32)
        assert rec.residual < 1e-9
        assert rec.consistency_defect < 1e-9
        assert (
            max(abs(a - b) for a, b in zip(rec.zeta.values, data.zeta.values)) < 1e-9
        )
        assert max(abs(a - b) for a, b in zip(rec.eta.values, data.eta.values)) < 1e-9
        assert abs(rec.chi0 - data.chi0) < 1e-9
        assert series_diff(rec.chi, data.chi) < 1e-9


def test_factorize_rejects_nonunitary_and_nonfactorizable():
    data = generic_data(6)
    g = compose_rootsub(data, order=40).scale(1.05)
    with pytest.raises(BadNormalization):
        rootsub_factorize(g, 24)
    terms = {0: 0.5}
    for k in range(1, 61):
        terms[k] = 0.5 ** (k - 1) * (0.25 - 1.0)
    d = LaurentSeries.from_dict(terms)
    with pytest.raises(NotFactorizable):
        rootsub_factorize(LoopMatrix.diagonal(star(d), d), 48)


# --- reconstruction ---------------------------------------------------


def test_reconstruct_lu_trivial_and_single_zeta():
    one = LaurentSeries.one()
    zero = LaurentSeries.zero()
    l12, l22, u12, u11 = reconstruct_lu(one, zero, zero, one, 1.0)
    assert l12.is_zero and u12.is_zero
    assert series_diff(l22, one) < 1e-13 and series_diff(u11, one) < 1e-13
    # single zeta = 0.5 loop: u21 = -0.5 z, a0 = sqrt(1.25)
    l12, l22, u12, u11 = reconstruct_lu(
        one, zero, LaurentSeries.monomial(1, -0.5), one, float(np.sqrt(1.25))
    )
    assert series_diff(l12, LaurentSeries.monomial(-1, 0.5)) < 1e-12
    assert u12.coefficient_max() < 1e-12
    assert series_diff(l22, one) < 1e-12
    assert series_diff(u11, one) < 1e-12


def test_reconstruct_lu_matches_triangular_on_composed_loops():
    for seed in (7, 13):
        data = generic_data(seed)
        g = compose_rootsub(data, order=40)
        tf = triangular(g, 32)
        l12, l22, u12, u11 = reconstruct_lu(
            tf.l.a, tf.l.c, tf.u.c, tf.u.d, tf.a_zero, m0=tf.m_zero, order=40
        )
        assert series_diff(l12, tf.l.b, 24) < 1e-9
        assert series_diff(l22, tf.l.d, 24) < 1e-9
        assert series_diff(u12, tf.u.b, 24) < 1e-9
        assert series_diff(u11, tf.u.a, 24) < 1e-9


def test_reconstruct_lu_denominator_gate():
    one = LaurentSeries.one()
    zero = LaurentSeries.zero()
    vanishing = LaurentSeries.from_dict({0: 1.0, -1: -1.0})  # zero at z = 1
    with pytest.raises(DenominatorVanishes):
        reconstruct_lu(vanishing, zero, zero, one, 1.0)


# --- verifier and serialization ---------------------------------------

REPORT_NAMES = [
    "k2_determinant_vs_zeta_product",
    "k2_determinant_vs_x_hankel",
    "lambda_determinant_vs_chi_sum",
    "three_factor_determinant_product",
    "three_factor_closed_form",
    "hankel_quotient_vs_minus_part",
    "minus_part_hankel_x_pattern",
    "shifted_compression_vs_sigma",
]


def test_verify_identities_passes_on_generic_data():
    report = verify_identities(generic_data(9), 34)
    assert [line["identity_name"] for line in report] == REPORT_NAMES
    for line in report:
        assert line["pass"], line
        assert set(line) == {"identity_name", "lhs", "rhs", "abs_deviation", "pass"}


def test_verify_identities_accepts_a_loop():
    data = generic_data(14, eta_support=1, zeta_support=1, chi_terms=1)
    g = compose_rootsub(data, order=36)
    report = verify_identities(g, 28)
    assert all(line["pass"] for line in report)


def test_verify_single_zeta_det_spot_value():
    data = RootSubgroupData(
        RootParams("eta", ()), 0.0, LaurentSeries.zero(), RootParams("zeta", (0.5,))
    )
    report = verify_identities(data, 34)
    by_name = {line["identity_name"]: line for line in report}
    assert abs(by_name["k2_determinant_vs_zeta_product"]["lhs"] - 0.8) < 1e-10


def test_root_subgroup_data_json_round_trip():
    data = generic_data(19)
    back = RootSubgroupData.from_json(data.to_json())
    assert back.eta == data.eta
    assert back.zeta == data.zeta
    assert abs(back.chi0 - data.chi0) < 1e-15
    assert series_diff(back.chi, data.chi) < 1e-15
