"""Compressions, determinants, Birkhoff/triangular factorization, winding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopfact import cli
from loopfact.errors import BadNormalization, NotInvertible, ShiftedNotInvertible, VanishingSymbol
from loopfact.laurent import CircleGrid, LaurentSeries, LoopMatrix, product_defect, star
from loopfact import laurent, toeplitz
from loopfact.rootsub import RootParams, partial_product
from loopfact.toeplitz import (
    _defect_l1,
    _structured_corner,
    birkhoff,
    compress,
    det_AstarA,
    direct_shifted,
    scalar_compress,
    toeplitz_index,
    triangular,
    winding_number,
)

import oracles
from oracles import fourier_block

# frozen: prod (1+|zeta_n|^2)^(-n) for zeta = (0.3, 0.2) is 1/(1.09 * 1.04^2)
DET_PIN = 0.8482167091906721


def birkhoff_residual(g: LoopMatrix, N: int, bf) -> float:
    """Grid defect of g against g_minus * g_zero * g_plus, on the grid
    triangular measures its own residual on."""
    grid = CircleGrid.for_width(2 * (N + g.max_degree()) + 2)
    return product_defect(g, [bf.g_minus, bf.g_zero, bf.g_plus], grid)


def blaschke_loop(r: float = 0.5, order: int = 60) -> LoopMatrix:
    """diag(d*, d) with d = (z - r)/(rz - 1), unimodular with winding 1."""
    terms = {0: r}
    for k in range(1, order + 1):
        terms[k] = r ** (k - 1) * (r**2 - 1.0)
    d = LaurentSeries.from_dict(terms)
    return LoopMatrix.diagonal(star(d), d)


def test_fourier_block_and_compress_layout():
    p = RootParams("zeta", (0.3, 0.2))
    g = partial_product(p)
    t = compress(g, 3)
    assert t.shape == (8, 8)
    # block (j, k) must be the z^{j-k} coefficient matrix
    for j in range(4):
        for k in range(4):
            want = fourier_block(g, j - k)
            got = t[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
            assert np.max(np.abs(got - want)) == 0.0


def test_hankel_corners_layout():
    g = partial_product(RootParams("zeta", (0.4,)))
    b = compress(g, 2, "hankel_B")
    c = compress(g, 2, "hankel_C")
    for j in range(3):
        for q in range(3):
            assert np.max(np.abs(b[2 * j : 2 * j + 2, 2 * q : 2 * q + 2] - fourier_block(g, j + q + 1))) == 0
            assert np.max(np.abs(c[2 * j : 2 * j + 2, 2 * q : 2 * q + 2] - fourier_block(g, -j - 1 - q))) == 0
    f = LaurentSeries.from_dict({-2: 1.0, 1: 2.0})
    sb = scalar_compress(f, 2, "hankel_B")
    assert sb[0, 0] == f.coeff(1) and sb[1, 1] == f.coeff(0)


coefficient = st.builds(
    complex,
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    st.floats(-2, 2, allow_nan=False, allow_infinity=False),
)
# entries start at powers -5..0 and reach up to +8, so corners see both signs
entry = st.builds(LaurentSeries, st.integers(-5, 0), st.lists(coefficient, max_size=9).map(tuple))


@given(st.tuples(entry, entry, entry, entry), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_gathered_corners_match_block_builder(entries, N):
    g = LoopMatrix(*entries)
    # a gather only copies coefficients, so the match is exact
    for kind in ("toeplitz", "shifted", "hankel_B", "hankel_C"):
        assert np.array_equal(compress(g, N, kind), oracles.compress(g, N, kind))
    zero = LaurentSeries.zero()
    scalar = LoopMatrix(g.a, zero, zero, zero)
    for kind in ("toeplitz", "hankel_B", "hankel_C"):
        want = oracles.compress(scalar, N, kind)[0::2, 0::2]
        assert np.array_equal(scalar_compress(g.a, N, kind), want)


def test_det_magnitude_matches_zeta_product():
    k2 = partial_product(RootParams("zeta", (0.3, 0.2)))
    for N in (2, 8, 34):
        assert abs(det_AstarA(k2, N) - DET_PIN) < 1e-10


def test_det_magnitude_lambda_spot_value():
    # diag(exp(-chi* + chi), inverse) with chi = 0.3 z; limit exp(-0.18)
    grid = CircleGrid(256)
    vals = np.exp(0.3 * grid.points - 0.3 / grid.points)
    lam = grid.analyze(vals, -40, 40)
    lam_inv = grid.analyze(1.0 / vals, -40, 40)
    g = LoopMatrix.diagonal(lam, lam_inv)
    assert abs(det_AstarA(g, 64) - np.exp(-0.18)) < 1e-9


def test_shifted_compression_equals_direct_construction():
    rng = np.random.default_rng(2)
    vals = tuple(0.4 * 0.5**k * np.exp(2j * np.pi * rng.uniform()) for k in range(3))
    g = partial_product(RootParams("zeta", vals))
    for N in (0, 1, 4, 8):
        assert np.max(np.abs(compress(g, N, "shifted") - direct_shifted(g, N))) == 0.0


def test_birkhoff_factors_normalized_and_accurate():
    rng = np.random.default_rng(9)
    vals = tuple(0.4 * 0.6**k * np.exp(2j * np.pi * rng.uniform()) for k in range(4))
    g = partial_product(RootParams("zeta", vals))
    bf = birkhoff(g, 24)
    assert birkhoff_residual(g, 24, bf) < 1e-10
    assert bf.minus_spill < 1e-10
    # normalizations
    gp0 = fourier_block(bf.g_plus, 0)
    assert np.max(np.abs(gp0 - np.eye(2))) < 1e-12
    gm0 = fourier_block(bf.g_minus, 0)
    assert np.max(np.abs(gm0 - np.eye(2))) < 1e-9
    for e in bf.g_minus.entries():
        assert e.is_zero or e.max_power <= 0
    for e in bf.g_plus.entries():
        assert e.is_zero or e.min_power >= 0


def test_triangular_single_zeta_frozen_values():
    k2 = partial_product(RootParams("zeta", (0.5,)))
    tf = triangular(k2, 16)
    assert abs(tf.a_zero - np.sqrt(1.25)) < 1e-12
    assert abs(tf.m_zero - 1.0) < 1e-12
    assert abs(tf.l.b.coeff(-1) - 0.5) < 1e-12
    assert abs(tf.u.c.coeff(1) + 0.5) < 1e-12
    assert (tf.l.a - LaurentSeries.one()).coefficient_max() < 1e-12
    assert tf.residual < 1e-12


def test_triangular_unipotent_normalizations():
    rng = np.random.default_rng(21)
    vals = tuple(0.35 * 0.55**k * np.exp(2j * np.pi * rng.uniform()) for k in range(3))
    g = partial_product(RootParams("zeta", vals))
    tf = triangular(g, 24)
    assert abs(abs(tf.m_zero) - 1.0) < 1e-12
    assert tf.a_zero > 0
    # l at infinity lower unipotent: diagonal 1, upper entry vanishing
    assert abs(tf.l.a.coeff(0) - 1.0) < 1e-9
    assert abs(tf.l.d.coeff(0) - 1.0) < 1e-9
    assert abs(tf.l.b.coeff(0)) < 1e-9
    # u at zero upper unipotent: diagonal 1, lower entry vanishing
    assert abs(tf.u.a.coeff(0) - 1.0) < 1e-12
    assert abs(tf.u.d.coeff(0) - 1.0) < 1e-12
    assert abs(tf.u.c.coeff(0)) < 1e-12
    assert tf.residual < 1e-9


def test_blaschke_loop_not_invertible():
    g = blaschke_loop()
    with pytest.raises(NotInvertible):
        birkhoff(g, 48)
    with pytest.raises(NotInvertible):
        triangular(g, 48)


def test_shifted_not_invertible_on_offdiagonal_constant():
    # antidiagonal constant loop: Birkhoff exists, triangular refinement not
    zero = LaurentSeries.zero()
    one = LaurentSeries.one()
    g = LoopMatrix(zero, one, -1.0 * one, zero)
    with pytest.raises(ShiftedNotInvertible):
        triangular(g, 8)


def test_winding_number_monomials_and_trig():
    grid = CircleGrid(256)
    for k in range(-5, 6):
        assert winding_number(LaurentSeries.monomial(k), grid) == k
    # unimodular exponential with imaginary trigonometric exponent: degree 0
    vals = np.exp(1j * (0.7 * np.cos(np.angle(grid.points)) - 0.4 * np.sin(2 * np.angle(grid.points))))
    f = grid.analyze(vals, -30, 30)
    assert winding_number(f, grid) == 0


def test_winding_number_vanishing_symbol():
    f = LaurentSeries.from_dict({0: 1.0, 1: -1.0})  # zero at z = 1
    with pytest.raises(VanishingSymbol):
        winding_number(f, CircleGrid(128))


def test_winding_agrees_with_minus_index():
    grid = CircleGrid(256)
    cases = [LaurentSeries.monomial(k) for k in (-3, -1, 0, 2, 5)]
    d = blaschke_loop().d
    cases.append(d)
    cases.append(star(d))
    for f in cases:
        assert winding_number(f, grid) == -toeplitz_index(f, 40)


# --- structured corner ------------------------------------------------


def end_blocks(g: LoopMatrix) -> tuple[int, int]:
    """lo = max(0, -min power) and hi = max(0, max power) over the entries."""
    live = [f for f in g.entries() if not f.is_zero]
    return max([0] + [-f.min_power for f in live]), max([0] + [f.max_power for f in live])


def dense_reference(g: LoopMatrix, N: int):
    """rcond and A^{-1} [e_1, e_2] of the dense corner, by numpy."""
    A = compress(g, N)
    sv = np.linalg.svd(A, compute_uv=False)
    rhs = np.zeros((A.shape[0], 2), dtype=complex)
    rhs[0, 0] = rhs[1, 1] = 1.0
    return sv[-1] / sv[0], np.linalg.solve(A, rhs)


def defect_l1(g: LoopMatrix) -> float:
    """sum_m ||sum_j C_j^H C_(j+m) - [m = 0] I||_F over the coefficient
    blocks C_k of g, block by block."""
    deg = g.max_degree()
    blocks = {k: fourier_block(g, k) for k in range(-deg, deg + 1)}
    total = 0.0
    for m in range(-2 * deg, 2 * deg + 1):
        acc = -np.eye(2) if m == 0 else np.zeros((2, 2))
        for j, cj in blocks.items():
            if j + m in blocks:
                acc = acc + cj.conj().T @ blocks[j + m]
        total += np.linalg.norm(acc)
    return total


def gram_extremes(g: LoopMatrix, N: int) -> tuple[float, float]:
    """min(1, lambda_1) and max(1, lambda_top) of A[:, S]^H A[:, S]."""
    lo, hi = end_blocks(g)
    blocks = list(range(lo)) + list(range(N + 1 - hi, N + 1))
    cols = [2 * b + c for b in blocks for c in (0, 1)]
    A = compress(g, N)[:, cols]
    lam = np.linalg.eigvalsh(A.conj().T @ A)
    return min(1.0, lam[0]), max(1.0, lam[-1])


root_value = st.builds(
    lambda r, t: r * np.exp(2j * np.pi * t), st.floats(0.0, 0.6), st.floats(0.0, 1.0)
)


@given(
    st.sampled_from(("zeta", "eta")),
    st.lists(root_value, min_size=1, max_size=8),
    st.integers(0, 40),
)
@settings(max_examples=60, deadline=None)
def test_structured_corner_matches_dense_numpy(side, values, extra):
    g = partial_product(RootParams(side, tuple(values)))
    lo, hi = end_blocks(g)
    N = lo + hi + extra
    rcond, X = dense_reference(g, N)
    corner = _structured_corner(g, N)
    bf = birkhoff(g, N)
    assert abs(bf.rcond - rcond) <= 1e-12
    # an uncertified corner (lam_min too small for 1e-12) must go dense
    if not corner.decides(1e-10):
        assert bf.route == "dense"
        return
    assert bf.route == "structured" and birkhoff_residual(g, N, bf) < 1e-10
    assert abs(corner.rcond - rcond) <= 1e-12
    assert np.max(np.abs(corner.solve() - X)) <= 1e-12


def test_grid_residual_is_measured_once(monkeypatch):
    calls = []
    measure = toeplitz.product_defect

    def counting(*args):
        calls.append(args)
        return measure(*args)

    monkeypatch.setattr(toeplitz, "product_defect", counting)
    g = partial_product(RootParams("zeta", (0.3, 0.2j, 0.1)))
    tf = triangular(g, 12)
    assert len(calls) == 1 and tf.residual < 1e-12
    birkhoff(g, 12)
    assert len(calls) == 1


def test_triangular_keeps_factors_to_the_digits_they_carry():
    # compose --random 8 --seed 7: a Laurent polynomial loop of degree 8
    g = partial_product(cli.random_zeta(cli.RunConfig(seed=7), 8))
    N = 384
    budget = np.finfo(float).eps * sum(np.abs(f.coefficients).sum() for f in g.entries())
    tf = triangular(g, N)
    deg = g.max_degree()
    for f in tf.l.entries() + tf.u.entries():
        assert f.coefficients.size <= 2 * (deg + 1)
    assert tf.discarded_mass <= 8 * budget
    assert tf.residual < 1e-9
    # the residual is the defect of the trimmed factors returned
    middle = np.diag([tf.m_zero * tf.a_zero, 1.0 / (tf.m_zero * tf.a_zero)])
    grid = CircleGrid.for_width(2 * (N + deg) + 2)
    assert product_defect(g, [tf.l, middle, tf.u], grid) == tf.residual


def test_defect_l1_matches_blockwise_sum():
    g = partial_product(RootParams("zeta", (0.3, 0.2j)))
    assert _defect_l1(g) < 1e-14
    bent = LoopMatrix(g.a, g.b + LaurentSeries.monomial(3, 1e-3), g.c, g.d)
    assert abs(_defect_l1(bent) - defect_l1(bent)) < 1e-15


def test_constant_loop_has_empty_defect_block():
    phase = np.exp(0.7j)
    g = LoopMatrix.from_constant(np.diag([phase, 1 / phase]))
    corner = _structured_corner(g, 5)
    assert corner.support.size == 0 and corner.rcond == 1.0
    bf = birkhoff(g, 5)
    assert bf.route == "structured" and bf.rcond == 1.0
    assert abs(bf.g_zero[0, 0] - phase) < 1e-15 and birkhoff_residual(g, 5, bf) < 1e-15


def test_overlapping_end_blocks_go_dense(monkeypatch):
    g = partial_product(RootParams("zeta", (0.3, 0.2, 0.1, 0.05)))
    assert end_blocks(g) == (4, 4)
    structured = birkhoff(g, 8)
    assert structured.route == "structured"

    # the unitarity defect is not computed once the end blocks overlap
    def unreached(loop):
        raise AssertionError("_defect_l1 called for overlapping end blocks")

    monkeypatch.setattr(toeplitz, "_defect_l1", unreached)
    assert _structured_corner(g, 7) is None
    dense = birkhoff(g, 7)
    assert dense.route == "dense"
    assert dense.rcond == dense_reference(g, 7)[0]


def test_nonunitary_loop_goes_dense_with_todays_answer():
    g = partial_product(RootParams("zeta", (0.3, 0.2)))
    # a special shear keeps the end blocks and det = 1 but breaks unitarity
    bent = g @ LoopMatrix.from_constant(np.array([[1.0, 1e-6], [0.0, 1.0]]))
    assert end_blocks(bent) == (2, 2) and defect_l1(bent) > 1e-6
    bf = birkhoff(bent, 24)
    assert bf.route == "dense"
    assert bf.rcond == dense_reference(bent, 24)[0]
    # special, non-unitary and singular: T(z^-1) kills the constant
    lower = LoopMatrix.diagonal(LaurentSeries.monomial(1, 2.0), LaurentSeries.monomial(-1, 0.5))
    assert _structured_corner(lower, 48) is not None
    with pytest.raises(NotInvertible):
        birkhoff(lower, 48)


def test_birkhoff_refuses_loops_that_are_not_special():
    g = partial_product(RootParams("zeta", (0.3, 0.2)))
    cases = [
        # det off by 2.8e-7
        LoopMatrix(g.a, g.b + LaurentSeries.monomial(1, 1e-6), g.c, g.d),
        LoopMatrix.diagonal(LaurentSeries(0, (1.0, -2.0)), LaurentSeries.one()),
        # unitary, with det e^{0.8i}
        partial_product(RootParams("zeta", (0.3, 0.2j, 0.1))).scale(np.exp(0.4j)),
    ]
    for loop in cases:
        with pytest.raises(BadNormalization, match="not special"):
            birkhoff(loop, 24)
        with pytest.raises(BadNormalization, match="not special"):
            triangular(loop, 24)


def test_birkhoff_inverts_no_series(monkeypatch):
    calls = []
    invert = laurent.invert_series

    def counting(*args):
        calls.append(args)
        return invert(*args)

    for module in (laurent, toeplitz):
        monkeypatch.setattr(module, "invert_series", counting, raising=False)
    g = partial_product(RootParams("zeta", (0.3, 0.2j, 0.1)))
    bf = birkhoff(g, 24)
    assert not calls and birkhoff_residual(g, 24, bf) < 1e-12


@given(
    st.sampled_from(("zeta", "eta")),
    st.lists(root_value, min_size=1, max_size=6),
    st.floats(-2.0, 2.0),
)
@settings(max_examples=40, deadline=None)
def test_birkhoff_of_special_loops_is_normalized(side, values, t):
    # a zeta or eta product times the special, non-unitary shear [[1, t], [0, 1]]
    shear = LoopMatrix.from_constant(np.array([[1.0, t], [0.0, 1.0]]))
    g = partial_product(RootParams(side, tuple(values))) @ shear
    lo, hi = end_blocks(g)
    N = lo + hi + 16
    bf = birkhoff(g, N)
    assert birkhoff_residual(g, N, bf) < 1e-10
    assert np.max(np.abs(fourier_block(bf.g_plus, 0) - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(bf.g_zero) - 1.0) < 1e-12


def test_rcond_inside_the_band_goes_dense():
    # scaling by 1 + t keeps the loop's structure and makes delta = 2 sqrt(2) t
    t = 3.5e-14
    g = partial_product(RootParams("zeta", (0.3, 0.2j))).scale(1 + t)
    N = 10
    delta = defect_l1(g)
    assert 5e-14 < delta < 2e-13
    lam_min, lam_max = gram_extremes(g, N)

    def tol_at(margin):
        return np.sqrt((lam_min - margin) / (lam_max + margin))

    # eps = 2 delta: a tol 1.5 delta below rcond is undecided, 3 delta is not
    assert birkhoff(g, N, tol=tol_at(1.5 * delta)).route == "dense"
    assert birkhoff(g, N, tol=tol_at(3.0 * delta)).route == "structured"
    assert birkhoff(g, N, tol=1e-10).route == "structured"


def test_blaschke_corner_is_never_certified():
    g = blaschke_loop()
    assert _structured_corner(g, 48) is None
    corner = _structured_corner(g, 160)
    assert corner is not None and not corner.decides(1e-10)
    with pytest.raises(NotInvertible):
        birkhoff(g, 160)
