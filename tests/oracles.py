"""Reference implementations the package used before its numpy kernels.

Each is the plain-Python route, kept only so tests can check the kernels
against it: coefficient convolution and Horner evaluation for series,
the per-block builder for compressions, and peeling by one dense 2x2
series product per step.
"""

from __future__ import annotations

import numpy as np

from loopfact.errors import PeelDivergence
from loopfact.laurent import LaurentSeries, LoopMatrix, apply_sigma
from loopfact.rootsub import RootParams, elementary_factor


def convolve(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """f * g by the double loop over coefficient pairs."""
    if f.is_zero or g.is_zero:
        return LaurentSeries.zero()
    out = [0.0 + 0.0j] * (len(f.coefficients) + len(g.coefficients) - 1)
    for i, ci in enumerate(f.coefficients):
        for j, cj in enumerate(g.coefficients):
            out[i + j] += ci * cj
    return LaurentSeries(f.min_power + g.min_power, tuple(out))


def add(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """f + g coefficient by coefficient."""
    if f.is_zero or g.is_zero:
        return g if f.is_zero else f
    lo = min(f.min_power, g.min_power)
    hi = max(f.max_power, g.max_power)
    return LaurentSeries(lo, tuple(f.coeff(n) + g.coeff(n) for n in range(lo, hi + 1)))


def horner(f: LaurentSeries, z) -> np.ndarray:
    """f(z) by a Python Horner loop on z, then one factor z^min_power."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    if not f.is_zero:
        for n in range(f.max_power, f.min_power - 1, -1):
            out = out * z + f.coeff(n)
        out = out * z ** float(f.min_power)
    return out


def invert_series(d: LaurentSeries, order: int) -> LaurentSeries:
    """Power-series inverse of d to powers 0..order by scalar recursion."""
    d0 = d.coeff(0)
    inv = [0.0 + 0.0j] * (order + 1)
    inv[0] = 1.0 / d0
    for n in range(1, order + 1):
        acc = 0.0 + 0.0j
        for k in range(1, min(n, d.max_power) + 1):
            acc += d.coeff(k) * inv[n - k]
        inv[n] = -acc / d0
    return LaurentSeries(0, tuple(inv))


def fourier_block(g: LoopMatrix, n: int) -> np.ndarray:
    """2x2 matrix of z^n coefficients of the entries of g."""
    return np.array(
        [[g.a.coeff(n), g.b.coeff(n)], [g.c.coeff(n), g.d.coeff(n)]],
        dtype=complex,
    )


def block_matrix(g: LoopMatrix, row_powers, col_powers) -> np.ndarray:
    """Corner with block (row p, col q) = fourier_block(g, p - q), block by block."""
    out = np.zeros((2 * len(row_powers), 2 * len(col_powers)), dtype=complex)
    for r, p in enumerate(row_powers):
        for c, q in enumerate(col_powers):
            out[2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = fourier_block(g, p - q)
    return out


def compress(g: LoopMatrix, N: int, kind: str) -> np.ndarray:
    """The four corners of the multiplication operator, built block by block."""
    plus = list(range(N + 1))
    minus = [-(q + 1) for q in range(N + 1)]
    if kind == "toeplitz":
        return block_matrix(g, plus, plus)
    if kind == "shifted":
        return block_matrix(apply_sigma(g), plus, plus)
    if kind == "hankel_B":
        return block_matrix(g, plus, minus)
    return block_matrix(g, minus, plus)


def peel_zeta(k2: LoopMatrix, n_max: int, tol: float = 1e-9) -> RootParams:
    """zeta values by right-multiplying the remainder with each inverse
    elementary factor as a dense 2x2 series product."""
    remainder = k2
    values = []
    for n in range(1, n_max + 1):
        d0 = remainder.d.coeff(0)
        if abs(d0) < 0.1:
            raise PeelDivergence(f"diagonal constant collapsed at step {n}")
        zeta_n = -(remainder.c.coeff(n) / d0).conjugate()
        values.append(zeta_n)
        remainder = remainder @ elementary_factor("zeta", n, zeta_n).adjoint()
    one = LaurentSeries.one()
    terminal = max(
        (remainder.a - one).coefficient_max(),
        remainder.b.coefficient_max(),
        remainder.c.coefficient_max(),
        (remainder.d - one).coefficient_max(),
    )
    if not np.isfinite(terminal) or terminal > max(1e3 * tol, 1e-6):
        raise PeelDivergence(f"remainder stays {terminal:.3e} away from the identity")
    return RootParams("zeta", tuple(values))


def peel_eta(k1: LoopMatrix, n_max: int, tol: float = 1e-9) -> RootParams:
    """eta values by peeling the sigma image with peel_zeta."""
    return RootParams("eta", peel_zeta(apply_sigma(k1), n_max + 1, tol).values)
