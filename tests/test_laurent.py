"""Series arithmetic checked against an independent pointwise oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfact.errors import ZeroConstantTerm
from loopfact.laurent import (
    CircleGrid,
    LaurentSeries,
    LoopMatrix,
    apply_sigma,
    invert_series,
    project,
    series_from_json,
    series_to_json,
    star,
    trim_mass,
    truncate,
    unitarity_defect,
)

import oracles

# independent oracle: evaluate by direct power sums, no package code involved


def eval_direct(terms: dict, z: complex) -> complex:
    return sum(c * z**n for n, c in terms.items())


def coeff_direct(terms_f: dict, terms_g: dict, n: int) -> complex:
    """n-th coefficient of f*g by direct double sum."""
    return sum(cf * terms_g.get(n - k, 0.0) for k, cf in terms_f.items())


small_complex = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)

series_strategy = st.builds(
    LaurentSeries,
    st.integers(-6, 6),
    st.lists(small_complex, max_size=7).map(tuple),
)


def test_trim_canonicalizes():
    f = LaurentSeries(-2, (0.0, 1.0, 0.0, 2.0, 0.0))
    assert f.min_power == -1
    assert tuple(f.coefficients) == (1.0 + 0.0j, 0.0 + 0.0j, 2.0 + 0.0j)
    assert LaurentSeries(5, (0.0, 0.0)).is_zero


def test_series_keep_one_private_read_only_array():
    src = np.array([0.0, 1.0 + 2.0j, -0.5j, 3.0, 0.0])
    f = LaurentSeries(-2, src)
    g = LaurentSeries.from_dict({0: 2.0, 1: 0.25j, 3: -1.0})
    grid = CircleGrid(16)
    vals = grid.synthesize(f)
    results = {
        "constructor": f,
        "add": f + g,
        "sub": f - g,
        "mul": f * g,
        "scale": 2.5 * f,
        "shift": f.shift(3),
        "star": star(f),
        "truncate": truncate(f, -1, 0),
        "invert_series": invert_series(g, 6),
        "analyze": grid.analyze(vals, -2, 2),
    }
    before = {name: (h.min_power, h.coefficients.copy()) for name, h in results.items()}
    src[:] = 7.0
    vals[:] = 7.0
    for name, h in results.items():
        assert isinstance(h.coefficients, np.ndarray), name
        assert h.coefficients.ndim == 1 and h.coefficients.dtype == complex
        with pytest.raises(ValueError):
            h.coefficients[0] = 1.0
        assert h.min_power == before[name][0]
        assert np.array_equal(h.coefficients, before[name][1]), name
        from_tuple = LaurentSeries(h.min_power, tuple(before[name][1]))
        assert from_tuple == LaurentSeries(h.min_power, before[name][1]) == h
        with pytest.raises(TypeError):
            hash(h)


def test_mul_against_pointwise_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        tf = {int(n): complex(*rng.normal(size=2)) for n in rng.integers(-5, 6, size=4)}
        tg = {int(n): complex(*rng.normal(size=2)) for n in rng.integers(-5, 6, size=4)}
        f = LaurentSeries.from_dict(tf)
        g = LaurentSeries.from_dict(tg)
        h = f * g
        for theta in np.linspace(0.1, 2 * np.pi, 9):
            z = np.exp(1j * theta)
            want = eval_direct(tf, z) * eval_direct(tg, z)
            assert abs(h.evaluate(z) - want) < 1e-12
        # and coefficientwise
        for n in range(-12, 13):
            assert abs(h.coeff(n) - coeff_direct(tf, tg, n)) < 1e-12


@given(series_strategy)
def test_star_is_involutive_and_conjugates_on_circle(f):
    assert star(star(f)) == f
    z = np.exp(0.37j)
    assert abs(star(f).evaluate(z) - np.conj(f.evaluate(z))) < 1e-10


@given(series_strategy)
def test_projections_split_identity(f):
    assert project(f, "plus") + project(f, "minus") == f
    p = project(f, "plus")
    m = project(f, "minus")
    assert p.is_zero or p.min_power >= 0
    assert m.is_zero or m.max_power <= -1
    # idempotent
    assert project(p, "plus") == p
    assert project(m, "minus") == m


@given(series_strategy, series_strategy)
@settings(max_examples=40)
def test_star_antimultiplicative_on_products(f, g):
    lhs = star(f * g)
    rhs = star(f) * star(g)
    diff = lhs - rhs
    assert diff.coefficient_max() < 1e-9


@given(series_strategy, series_strategy)
@settings(max_examples=80)
def test_series_kernels_match_python_oracles(f, g):
    scale = (1.0 + f.coefficient_max()) * (1.0 + g.coefficient_max())
    assert ((f * g) - oracles.convolve(f, g)).coefficient_max() <= 1e-12 * scale
    assert ((f + g) - oracles.add(f, g)).coefficient_max() <= 1e-12 * scale
    z = np.array([np.exp(1j * t) * r for t, r in ((0.3, 1.0), (2.1, 0.8), (4.4, 1.25))])
    magnitude = oracles.horner(LaurentSeries(f.min_power, np.abs(f.coefficients)), np.abs(z))
    assert np.all(np.abs(f.evaluate(z) - oracles.horner(f, z)) <= 1e-12 * (1.0 + magnitude))


@given(st.lists(small_complex, max_size=6), st.integers(0, 30))
@settings(max_examples=60)
def test_invert_series_matches_scalar_recursion(tail, order):
    d = LaurentSeries(0, (2.5 + 0.5j, *tail))
    want = oracles.invert_series(d, order)
    scale = 1.0 + want.coefficient_max()
    assert (invert_series(d, order) - want).coefficient_max() <= 1e-12 * scale


def test_invert_series_matches_pointwise():
    d = LaurentSeries.from_dict({0: 2.0, 1: 0.5 + 0.25j, 3: -0.125})
    inv = invert_series(d, 40)
    z = np.exp(0.9j) * 1.0
    # truncation error is tiny because the inverse coefficients decay fast
    assert abs(inv.evaluate(z) - 1.0 / d.evaluate(z)) < 1e-10
    prod = d * inv
    assert abs(prod.coeff(0) - 1.0) < 1e-14
    for n in range(1, 38):
        assert abs(prod.coeff(n)) < 1e-14


def test_invert_series_zero_constant_term():
    with pytest.raises(ZeroConstantTerm):
        invert_series(LaurentSeries.monomial(1), 5)


def test_circle_grid_round_trip():
    grid = CircleGrid(64)
    f = LaurentSeries.from_dict({-3: 1.5j, 0: 2.0, 5: -0.25 + 0.1j})
    vals = grid.synthesize(f)
    back = grid.analyze(vals, -10, 10)
    assert (back - f).coefficient_max() < 1e-13
    # synthesize agrees with direct evaluation
    assert np.max(np.abs(vals - f.evaluate(grid.points))) < 1e-12


@given(st.tuples(series_strategy, series_strategy, series_strategy, series_strategy))
@settings(max_examples=60)
def test_synthesize_loop_matches_horner(entries):
    g = LoopMatrix(*entries)
    grid = CircleGrid(16)
    vals = grid.synthesize_loop(g)
    assert vals.shape == (16, 2, 2)
    for k, f in enumerate(entries):
        scale = 1.0 + np.abs(f.coefficients).sum()
        gap = np.abs(vals[:, k // 2, k % 2] - oracles.horner(f, grid.points))
        assert gap.max() <= 1e-12 * scale


def test_synthesize_loop_refuses_to_alias():
    wide = LaurentSeries(-4, (1.0,) * 17)
    g = LoopMatrix.diagonal(LaurentSeries.one(), wide)
    assert CircleGrid(17).synthesize_loop(g).shape == (17, 2, 2)
    with pytest.raises(ValueError):
        CircleGrid(16).synthesize_loop(g)


def test_apply_sigma_is_conjugation_by_w():
    # sigma(g) must equal w g w^{-1} with w = [[0,1],[z,0]] pointwise
    rng = np.random.default_rng(3)
    entries = [
        LaurentSeries.from_dict(
            {int(n): complex(*rng.normal(size=2)) for n in rng.integers(-3, 4, size=3)}
        )
        for _ in range(4)
    ]
    g = LoopMatrix(*entries)
    sg = apply_sigma(g)
    for theta in (0.3, 1.1, 2.9):
        z = np.exp(1j * theta)
        w = np.array([[0.0, 1.0], [z, 0.0]])
        want = w @ oracles.horner_loop(g, z) @ np.linalg.inv(w)
        assert np.max(np.abs(oracles.horner_loop(sg, z) - want)) < 1e-12
    # involution
    assert all(
        (x - y).coefficient_max() < 1e-14
        for x, y in zip(apply_sigma(sg).entries(), g.entries())
    )


def test_adjoint_matches_conjugate_transpose_pointwise():
    f = LaurentSeries.from_dict({-1: 0.5j, 2: 1.0})
    g = LoopMatrix(f, star(f), LaurentSeries.one(), LaurentSeries.monomial(-2, 0.75))
    z = np.exp(1.7j)
    vals = oracles.horner_loop(g, z)
    assert np.max(np.abs(oracles.horner_loop(g.adjoint(), z) - vals.conj().T)) < 1e-12


def test_unitarity_defect_detects_and_clears():
    # constant unitary loop: defect 0
    u = LoopMatrix.from_constant(np.array([[0.6, 0.8], [-0.8, 0.6]]))
    assert unitarity_defect(u, CircleGrid(32)) < 1e-14
    # scaled: defect |s^2 - 1| exactly
    defect = unitarity_defect(u.scale(1.1), CircleGrid(32))
    assert abs(defect - abs(1.1**2 - 1.0)) < 1e-12


def test_truncate_and_cleanup():
    f = LaurentSeries.from_dict({-2: 1e-14, 0: 1.0, 3: 2.0})
    assert truncate(f, 0, 2) == LaurentSeries.one()
    g, dropped = trim_mass(f, 1e-12)
    assert g.min_power == 0 and g.coeff(-2) == 0 and dropped == 1e-14


tiny = st.floats(-1e-12, 1e-12, allow_nan=False, allow_infinity=False)
tailed_series = st.builds(
    lambda mp, below, core, above: LaurentSeries(mp, (*below, *core, *above)),
    st.integers(-6, 6),
    st.lists(st.builds(complex, tiny, tiny), max_size=6),
    st.lists(small_complex, max_size=5),
    st.lists(st.builds(complex, tiny, tiny), max_size=6),
)
budgets = st.one_of(st.just(0.0), st.floats(0.0, 1e-11), st.floats(0.0, 4.0))


@given(tailed_series, budgets)
@settings(max_examples=200)
def test_trim_mass_drops_outer_terms_within_budget(f, budget):
    kept, dropped = trim_mass(f, budget)
    assert 0.0 <= dropped <= budget
    # the kept block is an untouched contiguous slice of f
    start = kept.min_power - f.min_power if not kept.is_zero else 0
    size = kept.coefficients.size
    assert 0 <= start and start + size <= f.coefficients.size
    assert np.array_equal(kept.coefficients, f.coefficients[start : start + size])
    # the dropped mass is the l1 gap, to rounding
    gap = float(np.abs((f - kept).coefficients).sum())
    assert abs(gap - dropped) <= 1e-12 * dropped
    # no split of the outer terms that fits the budget drops more of them
    mags = np.abs(f.coefficients)
    n = mags.size
    best = max(
        i + j
        for i in range(n + 1)
        for j in range(n + 1 - i)
        if math.fsum(mags[:i]) + math.fsum(mags[n - j :]) <= budget * (1 - 1e-9)
    )
    assert n - size >= best


@given(tailed_series)
def test_trim_mass_with_zero_budget_returns_f(f):
    kept, dropped = trim_mass(f, 0.0)
    assert dropped == 0.0
    assert kept.min_power == f.min_power
    assert np.array_equal(kept.coefficients, f.coefficients)


def test_trim_mass_refuses_a_negative_budget():
    with pytest.raises(ValueError):
        trim_mass(LaurentSeries.one(), -1e-16)


def test_series_json_round_trip():
    f = LaurentSeries.from_dict({-4: 1.25j, 2: -3.0})
    assert series_from_json(series_to_json(f)) == f
