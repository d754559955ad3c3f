"""Reference implementations the package used before its fast kernels.

Each is the plain-Python route, kept only so tests can check the kernels
against it: coefficient convolution for series, Horner evaluation for
series and loops (the package reads grid values by inverse FFT), the
per-block builder for compressions, peeling by one dense 2x2 series
product per step, and the exact polynomial keyed by sorted (index,
exponent) tuples that the packed-int monomials replaced.  The closed
chain sums for the lower-family product and their partition bound are
here too: they cost 2^support and only tests read them.
"""

from __future__ import annotations

from itertools import combinations

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


def horner_loop(g: LoopMatrix, z) -> np.ndarray:
    """Values of the loop g at points z by horner on each entry; shape
    z.shape + (2, 2)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape + (2, 2), dtype=complex)
    for k, f in enumerate(g.entries()):
        out[..., k // 2, k % 2] = horner(f, z)
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


def _merge_parts(a, b):
    d = dict(a)
    for idx, e in b:
        d[idx] = d.get(idx, 0) + e
    return tuple(sorted(d.items()))


def _key_weight(key):
    # weight counts only plain letters; it bounds the conjugate side
    return sum(idx * e for idx, e in key[0])


class TuplePoly:
    """Integer polynomial in letters z_i and zb_i, monomials keyed by a
    pair of sorted (index, exponent) tuples.  An optional weight cap
    prunes monomials whose plain-letter weight exceeds it."""

    __slots__ = ("terms", "cap")

    def __init__(self, terms=None, cap=None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}
        self.cap = cap

    @staticmethod
    def variable(index, barred, cap=None):
        key = ((), ((index, 1),)) if barred else (((index, 1),), ())
        return TuplePoly({key: 1}, cap)

    def _coerce(self, other):
        if isinstance(other, TuplePoly):
            return other
        if isinstance(other, int):
            return TuplePoly({((), ()): other} if other else {}, self.cap)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TuplePoly(out, self.cap if self.cap is not None else other.cap)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cap = self.cap if self.cap is not None else other.cap
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = (_merge_parts(k1[0], k2[0]), _merge_parts(k1[1], k2[1]))
                if cap is not None and _key_weight(key) > cap:
                    continue
                out[key] = out.get(key, 0) + c1 * c2
        return TuplePoly(out, cap)

    __rmul__ = __mul__


def gammadelta_coeffs(params: RootParams, n_max: int) -> tuple[LaurentSeries, LaurentSeries]:
    """Closed-form entries of the normalized lower-family product.

    Dividing the product of zeta factors by its scalar prefactor
    prod_n a(zeta_n) leaves [[delta*, -gamma*], [gamma, delta]].  The z^n
    coefficient of gamma is a signed sum over strictly increasing index
    chains i1 < j1 < ... < jr < i(r+1) with sum(i) - sum(j) = n, each chain
    contributing prod(-conj(zeta_i)) * prod(zeta_j); delta sums chains
    i1 < j1 < ... < ir < jr with sum(j) - sum(i) = n and terms
    prod(zeta_i) * prod(-conj(zeta_j)).  Returns (gamma, delta) up to z^n_max.
    """
    if params.side != "zeta":
        raise ValueError("gammadelta_coeffs applies to the zeta family")
    idx = list(params.indices)
    gamma: dict[int, complex] = {}
    delta: dict[int, complex] = {0: 1.0 + 0.0j}
    for size in range(1, len(idx) + 1):
        for chain in combinations(idx, size):
            # roles alternate along the increasing chain, starting with i
            i_part = chain[0::2]
            j_part = chain[1::2]
            if size % 2 == 1:
                n = sum(i_part) - sum(j_part)
                if not 1 <= n <= n_max:
                    continue
                term = 1.0 + 0.0j
                for i in i_part:
                    term *= -params.value_at(i).conjugate()
                for j in j_part:
                    term *= params.value_at(j)
                gamma[n] = gamma.get(n, 0.0) + term
            else:
                n = sum(j_part) - sum(i_part)
                if not 1 <= n <= n_max:
                    continue
                term = 1.0 + 0.0j
                for i in i_part:
                    term *= params.value_at(i)
                for j in j_part:
                    term *= -params.value_at(j).conjugate()
                delta[n] = delta.get(n, 0.0) + term
    return LaurentSeries.from_dict(gamma), LaurentSeries.from_dict(delta)


def integer_partitions(n: int):
    """Yield the partitions of n as nonincreasing tuples."""

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(n, n, ())


def coefficient_bound(params: RootParams, n: int) -> float:
    """Combinatorial bound on the magnitude of the z^n product coefficients.

    Sums ||values||_2^(2 * length) over the integer partitions of n; chains
    contributing to a z^n coefficient refine partitions of n, and each
    refinement class is bounded by a power of the l2 norm.
    """
    if n < 1:
        raise ValueError("bound is defined for n >= 1")
    norm_sq = params.l2_sum()
    return float(sum(norm_sq ** len(p) for p in integer_partitions(n)))
