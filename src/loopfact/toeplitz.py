"""Finite compressions of loop multiplication operators and their use.

The Hilbert space is C^2-valued functions on the circle with orthonormal
basis e_i z^k; truncations order the retained basis as
    e_1 z^0, e_2 z^0, e_1 z^1, e_2 z^1, ..., e_1 z^N, e_2 z^N
so the compression of multiplication by g has 2x2 blocks g_{j-k}.  On top of
the compressions this module provides determinant magnitudes, the Birkhoff
(Riemann-Hilbert) factorization by linear solve, its triangular refinement,
and winding numbers with a numerical index cross-check.

Every corner is one gather: a dense table of the entries' coefficients,
indexed by p - q for row power p and column power q.  Building a corner
with R x C blocks costs O(R C) memory moves.

The Birkhoff solve and its rcond use the structure of a unitary loop g
with powers -lo..hi: A_N^H A_N is the identity except on the 2(lo + hi)
coordinates of its first lo and last hi blocks, up to a term bounded by
the unitarity defect of g (see _structured_corner).  That route gathers
only those columns and the first two rows, O(N (lo + hi)) entries, and
costs O(N (lo + hi)^2).  When the two end blocks overlap (lo + hi > N),
or when the bound cannot certify the rcond decision and the solve to
1e-12, the dense corner is built and the route falls back to an O(N^3)
SVD and solve.  det_AstarA always takes slogdet of the dense corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, ShiftedNotInvertible, VanishingSymbol
from .laurent import (
    CircleGrid,
    LaurentSeries,
    LoopMatrix,
    apply_sigma,
    coefficient_table,
    invert_series,
    product_defect,
    star,
    truncate,
)

__all__ = [
    "compress",
    "scalar_compress",
    "direct_shifted",
    "det_AstarA",
    "BirkhoffFactors",
    "birkhoff",
    "TriangularFactors",
    "triangular",
    "winding_number",
    "toeplitz_index",
]

_KINDS = ("toeplitz", "shifted", "hankel_B", "hankel_C")


def gather(entries, row_powers, col_powers) -> np.ndarray:
    """Matrix whose block (row p, col q) holds the z^(p-q) coefficients of
    entries: a scalar for one series, the 2x2 block [[a, b], [c, d]] for
    the four entries of a loop."""
    index = np.asarray(row_powers)[:, None] - np.asarray(col_powers)[None, :]
    lo = int(index.min())
    table = coefficient_table(entries, lo, int(index.max()))
    index -= lo
    size = 2 if len(entries) == 4 else 1
    out = np.empty((size * index.shape[0], size * index.shape[1]), dtype=complex)
    for k in range(len(entries)):
        out[k // size :: size, k % size :: size] = table[index, k]
    return out


def _corner(kind: str, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column powers of a corner: 0..N, or -1..-(N+1) on the minus side."""
    plus = np.arange(N + 1)
    minus = -plus - 1
    return {"hankel_B": (plus, minus), "hankel_C": (minus, plus)}.get(kind, (plus, plus))


def compress(g: LoopMatrix, N: int, kind: str = "toeplitz") -> np.ndarray:
    """Corner of the multiplication operator of g, a 2(N+1) x 2(N+1) matrix.

    kind "toeplitz" compresses to span{e_i z^k : 0 <= k <= N}; "shifted" is
    the same corner for sigma(g); "hankel_B" maps powers -1..-(N+1) into
    0..N and "hankel_C" the reverse.  Entries follow the single rule
    block(row p, col q) = g_{p-q}.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if N < 0:
        raise ValueError("N must be nonnegative")
    if kind == "shifted":
        g = apply_sigma(g)
    return gather(g.entries(), *_corner(kind, N))


def scalar_compress(f: LaurentSeries, N: int, kind: str = "toeplitz") -> np.ndarray:
    """Scalar analogue of compress for a single Laurent series."""
    if kind not in ("toeplitz", "hankel_B", "hankel_C"):
        raise ValueError(f"unsupported scalar kind {kind!r}")
    return gather((f,), *_corner(kind, N))


def direct_shifted(g: LoopMatrix, N: int) -> np.ndarray:
    """Compression of multiplication by g onto the image of the plus space
    under w = [[0,1],[z,0]], basis ordered w(e_1 z^k), w(e_2 z^k).

    w e_1 z^k = e_2 z^{k+1} and w e_2 z^k = e_1 z^k, so the basis mixes
    components and powers; entry (row, col) = (g_{p_row - p_col})_{i_row, i_col}.
    Used only to validate that compress(..., "shifted") is this operator.
    """
    # basis vector 2k is w(e_1 z^k) = e_2 z^(k+1), 2k+1 is w(e_2 z^k) = e_1 z^k
    component = np.tile([1, 0], N + 1)
    power = np.repeat(np.arange(N + 1), 2) + component
    offset = power[:, None] - power[None, :]
    lo = int(offset.min())
    table = coefficient_table(g.entries(), lo, int(offset.max()))
    return table[offset - lo, 2 * component[:, None] + component[None, :]]


# Relative error the structured corner may add to a solve or to |det A_N|;
# beyond it, the dense route runs.
_STRUCTURED_RTOL = 1e-12


def _defect_l1(g: LoopMatrix) -> float:
    """delta = sum_k ||(g^H g - I)_k||_F, the coefficient l1 norm of g^H g - I.

    It bounds sup_z ||g(z)^H g(z) - I||_2 on the circle, hence the norm of
    every compression of that multiplication operator.
    """
    h = g.adjoint() @ g
    one = LaurentSeries.one()
    entries = (h.a - one, h.b, h.c, h.d - one)
    deg = LoopMatrix(*entries).max_degree()
    return float(np.linalg.norm(coefficient_table(entries, -deg, deg), axis=1).sum())


@dataclass(frozen=True)
class _Corner:
    """A_N^H A_N = blockdiag(G_S, I) + R with ||R||_2 <= eps.

    values, vectors: eigen-decomposition of G_S = A[:, S]^H A[:, S];
    support: the coordinates S; rows: the first two rows of A_N;
    delta: the coefficient l1 norm of g^H g - I.
    """

    values: np.ndarray
    vectors: np.ndarray
    support: np.ndarray
    rows: np.ndarray
    delta: float

    @property
    def lam_min(self) -> float:
        """The least eigenvalue of blockdiag(G_S, I), min(1, lambda_1)."""
        return float(self.values.min(initial=1.0))

    @property
    def lam_max(self) -> float:
        """The largest eigenvalue of blockdiag(G_S, I), max(1, lambda_top)."""
        return float(self.values.max(initial=1.0))

    @property
    def rcond(self) -> float:
        return float(np.sqrt(self.lam_min / self.lam_max))

    @property
    def eps(self) -> float:
        """2 delta, plus 2(N+1) + |S| units in the last place of lam_max: a
        first-order allowance for rounding in the 2(N+1)-term dot products
        that form G_S and in its eigenvalues, so that a delta of exactly zero
        still leaves a band."""
        terms = self.rows.shape[1] + self.support.size
        return 2.0 * self.delta + terms * np.finfo(float).eps * self.lam_max

    @property
    def solve_error(self) -> float:
        """A-priori relative error eps / (lam_min - eps) of solve()."""
        gap = self.lam_min - self.eps
        return self.eps / gap if gap > 0 else np.inf

    def decides(self, tol: float) -> bool:
        """True when solve() is good to 1e-12 and the test rcond < tol comes
        out the same for every A^H A in the band: by Weyl, each eigenvalue
        of A^H A lies within eps of one of blockdiag(G_S, I)."""
        if self.solve_error > _STRUCTURED_RTOL:
            return False
        lo, hi, e = self.lam_min, self.lam_max, self.eps
        return np.sqrt((lo - e) / (hi + e)) >= tol or np.sqrt((lo + e) / (hi - e)) < tol

    def solve(self) -> np.ndarray:
        """X = A^{-1} [e_1, e_2] = (A^H A)^{-1} A^H [e_1, e_2], with A^H A
        replaced by blockdiag(G_S, I): X[S] = G_S^{-1} X[S], the rest as is."""
        X = self.rows.conj().T.copy()
        S = self.support
        X[S] = self.vectors @ ((self.vectors.conj().T @ X[S]) / self.values[:, None])
        return X


def _structured_corner(g: LoopMatrix, N: int) -> _Corner | None:
    """The corner A = A_N(g) through its defect block, or None when it has
    none: the end blocks overlap (lo + hi > N) or the unitarity defect of g
    is not finite.

    With P projecting onto powers 0..N and Q = 1 - P,
        A^H A = P + P T(g^H g - I) P - (Q T(g) P)^H (Q T(g) P).
    Take lo = max(0, -min power of g) and hi = max(0, max power of g).
    Block column q of Q T(g) P reaches rows q - lo..q + hi, so it vanishes
    unless q < lo or q > N - hi: the last term lives on S x S, S the
    coordinates of blocks 0..lo-1 and N+1-hi..N.  On S x S, A^H A is
    G_S = A[:, S]^H A[:, S] exactly; off it, A^H A is the identity plus the
    middle term.  That term off S x S, the part neglected here, has norm at
    most 2 delta (removing a block at most doubles a norm).
    """
    live = [f for f in g.entries() if not f.is_zero]
    lo = max([0] + [-f.min_power for f in live])
    hi = max([0] + [f.max_power for f in live])
    if lo + hi > N:
        return None
    delta = _defect_l1(g)
    if not np.isfinite(delta):
        return None
    blocks = np.r_[0:lo, N + 1 - hi : N + 1]
    support = (2 * blocks[:, None] + np.arange(2)).ravel()
    entries = g.entries()
    if support.size:
        cols = gather(entries, np.arange(N + 1), blocks)
        values, vectors = np.linalg.eigh(cols.conj().T @ cols)
    else:  # a constant loop: G_S is empty
        values, vectors = np.zeros(0), np.zeros((0, 0))
    rows = gather(entries, [0], np.arange(N + 1))
    return _Corner(values, vectors, support, rows, delta)


def det_AstarA(g: LoopMatrix, N: int) -> float:
    """Magnitude |det A_N(g)| = det(A_N^* A_N)^(1/2) of the plus compression."""
    sign, logabs = np.linalg.slogdet(compress(g, N, "toeplitz"))
    if sign == 0:
        return 0.0
    return float(np.exp(logabs))


@dataclass(frozen=True)
class BirkhoffFactors:
    """g = g_minus * g_zero * g_plus with g_minus(inf) = g_plus(0) = I."""

    g_minus: LoopMatrix
    g_zero: np.ndarray
    g_plus: LoopMatrix
    rcond: float
    minus_spill: float
    route: str


def birkhoff(g: LoopMatrix, N: int, tol: float = 1e-10) -> BirkhoffFactors:
    """Birkhoff factorization computed from the truncated Toeplitz corner.

    Solves A_N(g) X = [e_1, e_2]; the two solution columns are the Taylor
    coefficients of (g_zero g_plus)^{-1}, which is inverted as a 2x2 series
    matrix; g_minus = g * (g_zero g_plus)^{-1} truncated to powers <= 0.

    Raises NotInvertible when the 2-norm reciprocal condition number of the
    corner falls below tol.

    route is "structured" when the structured corner decides the rcond
    test for every A^H A within its eps band and solves to relative error
    1e-12; otherwise "dense", the SVD and solve of the dense corner.
    """
    corner = _structured_corner(g, N)
    if corner is not None and corner.decides(tol):
        route, rcond = "structured", corner.rcond
    else:
        route, A = "dense", compress(g, N, "toeplitz")
        sv = np.linalg.svd(A, compute_uv=False)
        rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
    if not np.isfinite(rcond) or rcond < tol:
        raise NotInvertible(
            f"plus compression at N={N} has rcond {rcond:.3e} below {tol:.1e}"
        )
    if route == "structured":
        X = corner.solve()
    else:
        X = np.linalg.solve(A, np.eye(len(A), 2, dtype=complex))

    # (g_zero g_plus)^{-1}: entry (i, j) has the Taylor coefficients X[i::2, j]
    inv_gp = LoopMatrix(*(LaurentSeries(0, X[i::2, j]) for i in (0, 1) for j in (0, 1)))

    det = truncate(inv_gp.det(), 0, N)
    inv_det = invert_series(det, N)
    a, b, c, d = inv_gp.entries()
    h = LoopMatrix(d * inv_det, -1.0 * b * inv_det, -1.0 * c * inv_det, a * inv_det).truncate(0, N)
    g_zero = np.array([f.coeff(0) for f in h.entries()], dtype=complex).reshape(2, 2)
    g_plus = LoopMatrix.from_constant(np.linalg.inv(g_zero)) @ h

    raw_minus = g @ inv_gp
    spill = max(
        truncate(e, 1, None).coefficient_max() for e in raw_minus.entries()
    )
    g_minus = raw_minus.truncate(-(g.max_degree() + N), 0)
    return BirkhoffFactors(g_minus, g_zero, g_plus, rcond, spill, route)


@dataclass(frozen=True)
class TriangularFactors:
    """g = l * diag(m0 a0, (m0 a0)^{-1}) * u.

    l has powers <= 0 with l(inf) lower unipotent, u has powers >= 0 with
    u(0) upper unipotent, |m0| = 1 and a0 > 0.
    """

    l: LoopMatrix
    m_zero: complex
    a_zero: float
    u: LoopMatrix
    residual: float


def triangular(g: LoopMatrix, N: int, tol: float = 1e-10) -> TriangularFactors:
    """Triangular refinement of the Birkhoff factorization.

    Splits the constant factor as LDU; the unipotent constants are absorbed
    into g_minus and g_plus.  Raises ShiftedNotInvertible when the (1,1)
    entry of the constant factor is below tol in magnitude, which is exactly
    when the shifted compression degenerates.

    residual is measured once, on the factors returned: the grid defect of
    g against l * diag * u.
    """
    bf = birkhoff(g, N, tol)
    alpha = bf.g_zero[0, 0]
    if abs(alpha) <= tol:
        raise ShiftedNotInvertible(
            f"constant Birkhoff factor has |(1,1)| = {abs(alpha):.3e}"
        )
    beta = bf.g_zero[0, 1]
    gamma = bf.g_zero[1, 0]
    l_const = np.array([[1.0, 0.0], [gamma / alpha, 1.0]], dtype=complex)
    u_const = np.array([[1.0, beta / alpha], [0.0, 1.0]], dtype=complex)
    l = bf.g_minus @ LoopMatrix.from_constant(l_const)
    u = LoopMatrix.from_constant(u_const) @ bf.g_plus
    m_zero = alpha / abs(alpha)
    a_zero = float(abs(alpha))
    middle = np.array([[alpha, 0.0], [0.0, 1.0 / alpha]], dtype=complex)
    grid = CircleGrid.for_width(2 * (N + g.max_degree()) + 2)
    residual = product_defect(g, [l, middle, u], grid)
    return TriangularFactors(l, complex(m_zero), a_zero, u, residual)


# Least |f| on the grid for which winding_number reads a phase.
_VANISH_TOL = 1e-9


def winding_number(f: LaurentSeries, grid: CircleGrid | None = None) -> int:
    """Degree of f restricted to the circle, by summed phase increments
    over the grid (512 points by default).

    Raises VanishingSymbol when |f| dips below _VANISH_TOL on the grid,
    and ValueError when f does not fit the grid.
    """
    if grid is None:
        grid = CircleGrid()
    vals = grid.synthesize(f)
    mags = np.abs(vals)
    if mags.min() < _VANISH_TOL:
        raise VanishingSymbol(
            f"|f| reaches {mags.min():.3e} on the grid, winding undefined"
        )
    phases = np.angle(vals)
    d = np.diff(np.concatenate([phases, phases[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    total = float(d.sum() / (2 * np.pi))
    n = round(total)
    if abs(total - n) > 0.25:
        raise ValueError("grid too coarse to resolve the winding number")
    return int(n)


# Singular values below this fraction of the largest count as kernel.
_KERNEL_RTOL = 1e-8


def _kernel_dim(m: np.ndarray) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0:
        return m.shape[1]
    small = int(np.sum(sv < _KERNEL_RTOL * sv[0]))
    return small + max(0, m.shape[1] - sv.size)


def toeplitz_index(f: LaurentSeries, N: int) -> int:
    """Numerical Fredholm index of the scalar Toeplitz operator of f.

    Uses tall rectangular truncations (columns z^0..z^N, rows extended past
    the symbol's bandwidth) so genuine kernel vectors are not truncated away:
    index = dim ker T(f) - dim ker T(f*).
    """
    band = max(abs(f.min_power), abs(f.max_power), 1) if not f.is_zero else 1
    rows = np.arange(N + band + 1)
    cols = np.arange(N + 1)
    return _kernel_dim(gather((f,), rows, cols)) - _kernel_dim(gather((star(f),), rows, cols))
