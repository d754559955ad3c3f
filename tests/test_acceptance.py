"""Acceptance gate: one check per shipped guarantee, at its stated bound.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the same condition, so the suite doubles as a human-readable
scorecard.  Tolerances here are contractual; do not loosen them to make
a regression disappear.
"""

import itertools
import math

import numpy as np
import pytest

from loopfact.combinat import (
    IndexPair,
    cluster_coefficient,
    coefficient_tables,
    enumerate_decompositions,
    full_x,
    s_identity_check,
)
from loopfact.errors import NotFactorizable, NotInvertible
from loopfact.laurent import LaurentSeries, LoopMatrix, star, truncate
from loopfact.rootsub import RootParams, a_factor, partial_product
from loopfact.toeplitz import (
    det_AstarA,
    scalar_compress,
    toeplitz_index,
    triangular,
    winding_number,
)
from loopfact.factor import (
    RootSubgroupData,
    compose_rootsub,
    exp_series,
    k2_from_x,
    k2_triangular_from_cd,
    lambda_loop,
    reconstruct_lu,
    rootsub_factorize,
    zeta_from_loop,
)

from oracles import gammadelta_coeffs

RAPID = lambda n: 0.8 * 0.5**n


def report(name, worst, bound):
    verdict = "PASS" if worst < bound else "FAIL"
    print(f"{verdict} {name}: worst {worst:.3e} vs bound {bound:.1e}")
    assert worst < bound, f"{name}: {worst:.3e} exceeds {bound:.1e}"


def rapid_zeta(seed, support=None):
    rng = np.random.default_rng(seed)
    if support is None:
        support = int(rng.integers(2, 7))
    vals = tuple(
        RAPID(n) * np.exp(2j * np.pi * rng.uniform()) for n in range(1, support + 1)
    )
    return RootParams("zeta", vals)


def random_data(seed, eta_support=3, zeta_support=3, chi_terms=2):
    rng = np.random.default_rng(seed)

    def draw(side, support):
        base = 1 if side == "zeta" else 0
        vals = tuple(
            0.4
            * rng.uniform(0.3, 1.0)
            * 0.5 ** (base + k)
            * np.exp(2j * np.pi * rng.uniform())
            for k in range(support)
        )
        return RootParams(side, vals)

    chi = LaurentSeries.from_dict(
        {
            n: 0.15
            * rng.uniform(0.3, 1.0)
            * 0.5 ** (n - 1)
            * np.exp(2j * np.pi * rng.uniform())
            for n in range(1, chi_terms + 1)
        }
    )
    chi0 = 1j * rng.uniform(-np.pi / 2, np.pi / 2)
    return RootSubgroupData(draw("eta", eta_support), chi0, chi, draw("zeta", zeta_support))


def params_gap(got, want):
    vals = list(got.values)
    wals = list(want.values)
    while len(vals) < len(wals):
        vals.append(0.0)
    while len(wals) < len(vals):
        wals.append(0.0)
    return max((abs(a - b) for a, b in zip(vals, wals)), default=0.0)


def test_criterion_01_k2_determinant_identity():
    worst = 0.0
    for seed in range(20):
        p = rapid_zeta(seed)
        support = len(p.values)
        k2 = partial_product(p)
        N = support + 32
        det = det_AstarA(k2, N)
        closed = float(
            np.prod([(1 + abs(v) ** 2) ** -n for n, v in zip(p.indices, p.values)])
        )
        worst = max(worst, abs(det - closed))
        x = k2_triangular_from_cd(k2.c, k2.d, N).x
        B = scalar_compress(x, N, "hankel_B")
        _, logdet = np.linalg.slogdet(np.eye(N + 1) + B @ B.conj().T)
        worst = max(worst, abs(det - float(np.exp(-logdet))))
    report("k2 determinant vs closed form and Hankel route (20 draws)", worst, 1e-8)


def test_criterion_02_diagonal_determinant_matches_chi_energy():
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        powers = rng.choice(np.arange(1, 7), size=int(rng.integers(1, 5)), replace=False)
        terms = {
            int(n): 0.3 * rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())
            for n in sorted(powers)
        }
        chi = LaurentSeries.from_dict(terms)
        det = det_AstarA(lambda_loop(chi, 0.0, 70), 64)
        want = float(np.exp(-2.0 * sum(n * abs(c) ** 2 for n, c in terms.items())))
        worst = max(worst, abs(det - want))
    spot = det_AstarA(lambda_loop(LaurentSeries.from_dict({1: 0.3}), 0.0, 70), 64)
    worst = max(worst, abs(spot - math.exp(-0.18)))
    report("diagonal-loop determinant vs coefficient energy at N=64", worst, 1e-9)


def test_criterion_03_three_factor_determinant_product():
    worst = 0.0
    N = 40
    for seed in range(10):
        data = random_data(seed)
        g = compose_rootsub(data, order=N + 8)
        det_g = det_AstarA(g, N)
        det_k1 = det_AstarA(partial_product(data.eta).adjoint(), N)
        det_mid = det_AstarA(lambda_loop(data.chi, data.chi0, N + 2), N)
        det_k2 = det_AstarA(partial_product(data.zeta), N)
        worst = max(worst, abs(det_g - det_k1 * det_mid * det_k2))
    report("composed determinant vs three-factor product (10 draws)", worst, 1e-8)


def test_criterion_04_round_trips_over_50_seeds():
    worst_x = worst_zeta = worst_full = 0.0
    for seed in range(50):
        p = rapid_zeta(seed, support=1 + seed % 5)
        support = len(p.values)
        k2 = partial_product(p)
        direct = full_x(p)
        solved = k2_triangular_from_cd(k2.c, k2.d, 2 * support + 10).x
        worst_x = max(
            worst_x, (truncate(direct - solved, -40, 40)).coefficient_max()
        )

        loop, _ = k2_from_x(direct, max(24, 2 * support))
        got = zeta_from_loop(loop, support)
        worst_zeta = max(worst_zeta, params_gap(got, p))

    for seed in range(50):
        data = random_data(seed, eta_support=1 + seed % 3, zeta_support=1 + (seed + 1) % 3)
        g = compose_rootsub(data, order=36)
        back = rootsub_factorize(g, 32)
        gap = max(
            params_gap(back.eta, data.eta),
            params_gap(back.zeta, data.zeta),
            abs(back.chi0 - data.chi0),
            (truncate(back.chi - data.chi, -40, 40)).coefficient_max(),
        )
        worst_full = max(worst_full, gap)

    ok = worst_x < 1e-10 and worst_zeta < 1e-9 and worst_full < 1e-8
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict} round trips, 50 seeds each: zeta->x {worst_x:.3e}/1e-10, "
        f"x->k2->zeta {worst_zeta:.3e}/1e-9, compose->factorize {worst_full:.3e}/1e-8"
    )
    assert ok


def test_criterion_05_triangular_structure_on_composed_fixtures():
    worst = 0.0
    for seed in range(10):
        data = random_data(seed)
        g = compose_rootsub(data, order=40)
        tf = triangular(g, 32)
        # holomorphy: l lives in powers <= 0, u in powers >= 0
        for f in tf.l.entries():
            worst = max(worst, truncate(f, 1, 80).coefficient_max())
        for f in tf.u.entries():
            worst = max(worst, truncate(f, -80, -1).coefficient_max())
        # unipotent normalizations at the distinguished points
        worst = max(worst, abs(tf.l.a.coeff(0) - 1.0), abs(tf.l.d.coeff(0) - 1.0))
        worst = max(worst, abs(tf.l.b.coeff(0)))
        worst = max(worst, abs(tf.u.a.coeff(0) - 1.0), abs(tf.u.d.coeff(0) - 1.0))
        worst = max(worst, abs(tf.u.c.coeff(0)))
        worst = max(worst, tf.residual)
        a1 = float(np.prod([(1 + abs(v) ** 2) ** -0.5 for v in data.eta.values]))
        a2 = float(np.prod([(1 + abs(v) ** 2) ** 0.5 for v in data.zeta.values]))
        worst = max(worst, abs(tf.a_zero - a1 * a2))
        worst = max(worst, abs(tf.m_zero - np.exp(data.chi0)))
        worst = max(worst, rootsub_factorize(g, 32).consistency_defect)
    report("triangular structure, scalars, and radial consistency", worst, 1e-9)


def test_criterion_06_reconstruction_matches_triangular():
    worst = 0.0
    for seed in range(20):
        data = random_data(seed, eta_support=2, zeta_support=2)
        g = compose_rootsub(data, order=36)
        tf = triangular(g, 28)
        l12, l22, u12, u11 = reconstruct_lu(
            tf.l.a, tf.l.c, tf.u.c, tf.u.d, tf.a_zero, m0=tf.m_zero
        )
        for got, want in (
            (l12, tf.l.b),
            (l22, tf.l.d),
            (u12, tf.u.b),
            (u11, tf.u.a),
        ):
            worst = max(worst, truncate(got - want, -40, 40).coefficient_max())
    report("dependent l/u entries from the determining four (20 draws)", worst, 1e-9)


def test_criterion_07_exact_combinatorics():
    # series coefficients of the normalized product, against brute force
    worst = 0.0
    rng = np.random.default_rng(7)
    for support in (1, 2, 3, 4, 5):
        vals = tuple(
            0.6 * rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())
            for _ in range(support)
        )
        p = RootParams("zeta", vals)
        k2 = partial_product(p)
        pref = 1.0
        for v in vals:
            pref *= a_factor(v)
        gamma, delta = gammadelta_coeffs(p, 20)
        for n in range(0, 21):
            worst = max(worst, abs(pref * gamma.coeff(n) - k2.c.coeff(n)))
            worst = max(worst, abs(pref * delta.coeff(n) - k2.d.coeff(n)))
    assert worst < 1e-12

    # every tabulated coefficient with weight <= 10 is a positive integer
    tables = coefficient_tables(9, weight_cap=10)
    assert tables.entries
    for pair, coeff in tables.entries.items():
        assert isinstance(coeff, int) and coeff > 0
        assert pair.weight <= 10
        assert pair.interlacing_ok()

    # the signed cluster count vanishes on every constraint-violating pair
    violated = checked = 0
    for pair in _shape_pairs(10):
        if pair.interlacing_ok():
            continue
        checked += 1
        if cluster_coefficient(pair) != 0:
            violated += 1
    assert checked > 100
    assert violated == 0

    # two decompositions with opposite signs cancel
    example = IndexPair((1, 1, 3), (2, 2))
    assert len(enumerate_decompositions(example)) == 2
    assert cluster_coefficient(example) == 0

    # low-order symmetric-function identities
    rng = np.random.default_rng(19)
    vals = tuple(
        0.5 * rng.uniform(0.2, 1.0) * np.exp(2j * np.pi * rng.uniform())
        for _ in range(6)
    )
    p = RootParams("zeta", vals)
    worst_s = max(
        s_identity_check(p, "s2"),
        s_identity_check(p, "s_n1"),
        s_identity_check(p, "s32"),
    )
    assert worst_s < 1e-10

    print(
        f"PASS exact combinatorics: series coeffs {worst:.3e}/1e-12, "
        f"{len(tables.entries)} tabulated coefficients positive, "
        f"{checked} violating pairs cancel, worked example nets 0, "
        f"identities {worst_s:.3e}/1e-10"
    )


def _shape_pairs(max_weight):
    # all valid index pairs (sum i) - (sum j) = 1 with sum i <= max_weight
    def nondecreasing(total, parts, minimum=1):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total // parts + 1):
            for rest in nondecreasing(total - first, parts - 1, first):
                yield (first,) + rest

    for wi in range(1, max_weight + 1):
        for L in range(0, wi):
            if L == 0:
                if wi == 1:
                    yield IndexPair((1,), ())
                continue
            if wi - 1 < L:
                continue
            for ivals in nondecreasing(wi, L + 1):
                for jvals in nondecreasing(wi - 1, L):
                    yield IndexPair(ivals, jvals)


def test_criterion_08_positivity_and_monotonicity():
    chains = [
        (0.5, 0.4, 0.3, 0.25, 0.2, 0.15),
        tuple(0.7 * 0.6**k for k in range(6)),
    ]
    rng = np.random.default_rng(23)
    chains.append(tuple(rng.uniform(0.05, 0.8) for _ in range(6)))
    worst_neg = worst_drop = 0.0
    for chain in chains:
        prev = None
        for stop in range(1, len(chain) + 1):
            x = full_x(RootParams("zeta", chain[:stop]))
            coeffs = [x.coeff(j).real for j in range(1, stop + 1)]
            assert all(abs(x.coeff(j).imag) < 1e-15 for j in range(1, stop + 1))
            worst_neg = min(worst_neg, min(coeffs))
            if prev is not None:
                worst_drop = min(
                    worst_drop,
                    min(c - p for c, p in zip(coeffs, prev)),
                )
            prev = coeffs
    ok = worst_neg > -1e-15 and worst_drop > -1e-15
    verdict = "PASS" if ok else "FAIL"
    print(
        f"{verdict} nonnegative parameters give nonnegative, "
        f"support-monotone residue coefficients (neg {worst_neg:.1e}, drop {worst_drop:.1e})"
    )
    assert ok


def test_criterion_09_shared_disk_zero_is_rejected():
    # d = (z - r)/(rz - 1) with r = 1/2, expanded on the circle; the inner
    # zero at z = r kills invertibility of the compression
    r = 0.5
    terms = {0: r}
    for k in range(1, 61):
        terms[k] = -(1 - r * r) * r ** (k - 1)
    d = LaurentSeries.from_dict(terms)
    g = LoopMatrix.diagonal(star(d), d)
    with pytest.raises((NotInvertible, NotFactorizable)):
        rootsub_factorize(g, 48)
    print("PASS shared disk zero raises NotInvertible/NotFactorizable")


def test_criterion_10_winding_degree():
    for k in range(-5, 6):
        mono = LaurentSeries.monomial(k)
        assert winding_number(mono) == k
        assert toeplitz_index(mono, 40) == -k
    chi = LaurentSeries.from_dict({1: 0.2j, -1: 0.2j, 2: 0.1j, -2: 0.1j})
    f = exp_series(chi, -40, 40)
    assert winding_number(f) == 0
    assert toeplitz_index(f, 40) == 0
    print("PASS winding degree: monomials |k|<=5, unimodular exponential, -index")
