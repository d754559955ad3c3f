"""Finite Laurent series on the unit circle and 2x2 loops built from them.

Contents:
  LaurentSeries  -- immutable series sum_n c_n z^n with finitely many terms
  LoopMatrix     -- 2x2 matrix of LaurentSeries, entries named a, b, c, d
  CircleGrid     -- uniform grid on |z| = 1 with FFT analysis/synthesis
                    of series and of loops
  star, project, invert_series, apply_sigma, unitarity_defect
  coefficient_table -- coefficients of several series over a power range
  max_norm, product_defect -- grid defects: largest 2x2 spectral norm
  JSON (de)serialization for series and loops

The coefficients of a series are one read-only complex ndarray, a
contiguous block from min_power upward.  Construction copies a caller's
array once, so a series never aliases it, and trims exact zeros at the
ends, so equality of values implies equality of representations.
Numerical cleanup is never implicit: use cleanup(f, tol) to drop small
coefficients.

Arithmetic runs in numpy on the coefficient block.  For series with n and m
coefficients: a sum costs O(n + m), a product one np.convolve, O(n m);
invert_series to order K costs K dot products of length <= deg d,
O(K deg d).  Values on a P-point CircleGrid come from one inverse FFT,
O(P log P), and every grid caller in the package reads them that way;
LaurentSeries.evaluate, one np.polyval pass, O(n P), is for points off
a grid.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ZeroConstantTerm

__all__ = [
    "LaurentSeries",
    "LoopMatrix",
    "CircleGrid",
    "star",
    "project",
    "invert_series",
    "apply_sigma",
    "unitarity_defect",
    "max_norm",
    "product_defect",
    "cleanup",
    "truncate",
    "series_to_json",
    "series_from_json",
    "loop_to_json",
    "loop_from_json",
]


_EMPTY = np.zeros(0, dtype=complex)
_EMPTY.flags.writeable = False


def _trim(min_power: int, coeffs) -> tuple[int, np.ndarray]:
    """The read-only 1-D complex block of coeffs without the exact zeros at
    its ends; canonical zero is (0, empty).  A caller's ndarray is copied
    once, anything else is converted once, so no block aliases its input."""
    arr = np.asarray(coeffs, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    nonzero = np.flatnonzero(arr)
    if nonzero.size == 0:
        return 0, _EMPTY
    block = arr[nonzero[0] : nonzero[-1] + 1]
    if arr is coeffs:
        block = block.copy()
    block.flags.writeable = False
    return min_power + int(nonzero[0]), block


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Finite Laurent series sum_{n} c_n z^n.

    `coefficients[k]` is the coefficient of z^(min_power + k), held in one
    read-only complex ndarray.  The block is contiguous; missing interior
    powers are stored as explicit zeros.  Two series are equal when their
    blocks are; a series is not hashable.
    """

    min_power: int = 0
    coefficients: np.ndarray = ()

    def __post_init__(self):
        mp, cs = _trim(self.min_power, self.coefficients)
        object.__setattr__(self, "min_power", mp)
        object.__setattr__(self, "coefficients", cs)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.min_power == other.min_power and np.array_equal(
            self.coefficients, other.coefficients
        )

    __hash__ = None

    # --- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentSeries":
        return LaurentSeries(0, ())

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries(0, (1.0 + 0.0j,))

    @staticmethod
    def monomial(power: int, coeff: complex = 1.0) -> "LaurentSeries":
        return LaurentSeries(power, (coeff,))

    @staticmethod
    def from_dict(terms: dict[int, complex]) -> "LaurentSeries":
        if not terms:
            return LaurentSeries.zero()
        lo = min(terms)
        coeffs = np.zeros(max(terms) - lo + 1, dtype=complex)
        for n, c in terms.items():
            coeffs[n - lo] = c
        return LaurentSeries(lo, coeffs)

    # --- basic queries ------------------------------------------------

    @property
    def max_power(self) -> int:
        return self.min_power + self.coefficients.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients.size == 0

    def coeff(self, n: int) -> complex:
        k = n - self.min_power
        if 0 <= k < self.coefficients.size:
            return complex(self.coefficients[k])
        return 0.0 + 0.0j

    def coefficient_norm(self) -> float:
        """l2 norm of the coefficient sequence."""
        return float(np.linalg.norm(self.coefficients))

    def coefficient_max(self) -> float:
        return float(np.abs(self.coefficients).max(initial=0.0))

    # --- arithmetic ---------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_power, other.min_power)
        hi = max(self.max_power, other.max_power)
        buf = np.zeros(hi - lo + 1, dtype=complex)
        for f in (self, other):
            start = f.min_power - lo
            buf[start : start + f.coefficients.size] += f.coefficients
        return LaurentSeries(lo, buf)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.min_power, -self.coefficients)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentSeries):
            if self.is_zero or other.is_zero:
                return LaurentSeries.zero()
            return LaurentSeries(
                self.min_power + other.min_power,
                np.convolve(self.coefficients, other.coefficients),
            )
        return LaurentSeries(self.min_power, complex(other) * self.coefficients)

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k."""
        if self.is_zero:
            return self
        return LaurentSeries(self.min_power + k, self.coefficients)

    # --- evaluation ---------------------------------------------------

    def evaluate(self, z):
        """Evaluate at points z (scalar or ndarray) off a grid: Horner from
        the top power by np.polyval, then one factor z^min_power.  On a
        CircleGrid use CircleGrid.synthesize, one inverse FFT."""
        z = np.asarray(z, dtype=complex)
        return np.polyval(self.coefficients[::-1], z) * z ** float(self.min_power)


@dataclass(frozen=True)
class LoopMatrix:
    """2x2 matrix of Laurent series; a is (1,1), b (1,2), c (2,1), d (2,2)."""

    a: LaurentSeries
    b: LaurentSeries
    c: LaurentSeries
    d: LaurentSeries

    @staticmethod
    def identity() -> "LoopMatrix":
        one = LaurentSeries.one()
        zero = LaurentSeries.zero()
        return LoopMatrix(one, zero, zero, one)

    @staticmethod
    def diagonal(top: LaurentSeries, bottom: LaurentSeries) -> "LoopMatrix":
        zero = LaurentSeries.zero()
        return LoopMatrix(top, zero, zero, bottom)

    @staticmethod
    def from_constant(m) -> "LoopMatrix":
        m = np.asarray(m, dtype=complex)
        return LoopMatrix(*(LaurentSeries(0, (v,)) for v in m.ravel()))

    def __matmul__(self, other: "LoopMatrix") -> "LoopMatrix":
        return LoopMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def adjoint(self) -> "LoopMatrix":
        """Pointwise conjugate transpose on |z| = 1."""
        return LoopMatrix(star(self.a), star(self.c), star(self.b), star(self.d))

    def det(self) -> LaurentSeries:
        return self.a * self.d - self.b * self.c

    def entries(self) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries, LaurentSeries]:
        return (self.a, self.b, self.c, self.d)

    def scale(self, s: complex) -> "LoopMatrix":
        return LoopMatrix(s * self.a, s * self.b, s * self.c, s * self.d)

    def max_degree(self) -> int:
        """Largest |power| present in any entry (0 for the zero loop)."""
        deg = 0
        for f in self.entries():
            if not f.is_zero:
                deg = max(deg, abs(f.min_power), abs(f.max_power))
        return deg

    def truncate(self, lo: int, hi: int) -> "LoopMatrix":
        return LoopMatrix(*(truncate(f, lo, hi) for f in self.entries()))


# --- module-level operations ------------------------------------------


def star(f: LaurentSeries) -> LaurentSeries:
    """Adjoint symbol f*(z) = sum_n conj(c_n) z^{-n} (equals conj(f) on |z|=1)."""
    if f.is_zero:
        return f
    return LaurentSeries(-f.max_power, f.coefficients[::-1].conj())


def project(f: LaurentSeries, half: str) -> LaurentSeries:
    """Hardy projection.

    half = "plus" keeps powers >= 0, half = "minus" keeps powers <= -1.
    """
    if half == "plus":
        return truncate(f, 0, None)
    if half == "minus":
        return truncate(f, None, -1)
    raise ValueError(f"half must be 'plus' or 'minus', got {half!r}")


def truncate(f: LaurentSeries, lo: int | None, hi: int | None) -> LaurentSeries:
    """Keep powers n with lo <= n <= hi (None means unbounded on that side)."""
    if f.is_zero:
        return f
    lo_eff = f.min_power if lo is None else max(lo, f.min_power)
    hi_eff = f.max_power if hi is None else min(hi, f.max_power)
    if lo_eff > hi_eff:
        return LaurentSeries.zero()
    start = lo_eff - f.min_power
    stop = hi_eff - f.min_power + 1
    return LaurentSeries(lo_eff, f.coefficients[start:stop])


def coefficient_table(entries, lo: int, hi: int) -> np.ndarray:
    """table[k - lo, i] is the z^k coefficient of entries[i], lo <= k <= hi."""
    table = np.zeros((hi - lo + 1, len(entries)), dtype=complex)
    for i, f in enumerate(entries):
        start, stop = max(f.min_power, lo), min(f.max_power, hi)
        if start <= stop:
            table[start - lo : stop - lo + 1, i] = f.coefficients[
                start - f.min_power : stop - f.min_power + 1
            ]
    return table


def cleanup(f: LaurentSeries, tol: float) -> LaurentSeries:
    """Drop coefficients with |c| <= tol.  Explicit, never done implicitly."""
    c = f.coefficients
    return LaurentSeries(f.min_power, np.where(np.abs(c) <= tol, 0.0, c))


def invert_series(d: LaurentSeries, order: int) -> LaurentSeries:
    """Formal inverse of a power series, truncated to powers 0..order.

    Parameters
    ----------
    d : LaurentSeries
        Must have no negative powers and a nonzero constant term.
    order : int
        Highest power retained in the inverse.

    Raises
    ------
    ZeroConstantTerm
        If d(0) == 0.
    """
    if not d.is_zero and d.min_power < 0:
        raise ValueError("invert_series expects a power series (no negative powers)")
    d0 = d.coeff(0)
    if d0 == 0:
        raise ZeroConstantTerm("series has zero constant term")
    # d has powers 0..deg here; tail[j] = d_{j+1}
    tail = d.coefficients[1:]
    inv = np.zeros(order + 1, dtype=complex)
    inv[0] = 1.0 / d0
    # standard recursion: (d * inv)_n = 0 for n >= 1
    for n in range(1, order + 1):
        k = min(n, tail.size)
        inv[n] = -np.dot(tail[:k], inv[n - 1 :: -1][:k]) / d0
    return LaurentSeries(0, inv)


def apply_sigma(g: LoopMatrix) -> LoopMatrix:
    """Outer involution swapping the two root subgroup families.

    Conjugation by the off-diagonal loop [[0, 1], [z, 0]]:
    [[a, b], [c, d]] -> [[d, c/z], [b z, a]].
    """
    return LoopMatrix(g.d, g.c.shift(-1), g.b.shift(1), g.a)


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid z_k = exp(2 pi i k / point_count) on the unit circle.

    analyze/synthesize are exact inverses for series whose power window fits
    inside point_count samples; callers keep point_count >= 2*max_degree + 1.
    """

    point_count: int = 512

    def __post_init__(self):
        if self.point_count < 1:
            raise ValueError("point_count must be positive")

    @staticmethod
    def for_width(width: int) -> "CircleGrid":
        """The grid sizing rule: the least power of two above width, and at
        least 256 points."""
        return CircleGrid(1 << max(8, int(width).bit_length()))

    @property
    def points(self) -> np.ndarray:
        k = np.arange(self.point_count)
        return np.exp(2j * np.pi * k / self.point_count)

    def _place(self, spec: np.ndarray, f: LaurentSeries) -> None:
        """Write the coefficients of f into the spectrum row spec, power n
        at n mod point_count; refuses a block longer than the grid."""
        p = self.point_count
        if f.coefficients.size > p:
            raise ValueError("series support exceeds grid resolution")
        # the powers of f are distinct mod p because its block fits in p
        spec[np.arange(f.min_power, f.max_power + 1) % p] = f.coefficients

    def synthesize(self, f: LaurentSeries) -> np.ndarray:
        """Values of f on the grid via inverse FFT placement."""
        spec = np.zeros(self.point_count, dtype=complex)
        self._place(spec, f)
        return np.fft.ifft(spec) * self.point_count

    def synthesize_loop(self, g: LoopMatrix) -> np.ndarray:
        """Values of g on the grid, shape (point_count, 2, 2), by one
        batched inverse FFT over its four entries."""
        p = self.point_count
        spec = np.zeros((4, p), dtype=complex)
        for row, f in zip(spec, g.entries()):
            self._place(row, f)
        return (np.fft.ifft(spec, axis=1) * p).T.reshape(p, 2, 2)

    def analyze(self, values: np.ndarray, min_power: int, max_power: int) -> LaurentSeries:
        """Fourier coefficients of sampled values for powers in [min_power, max_power].

        Aliases by point_count; the window must fit inside one period.
        """
        if max_power - min_power + 1 > self.point_count:
            raise ValueError("requested window exceeds grid resolution")
        spec = np.fft.fft(np.asarray(values, dtype=complex)) / self.point_count
        return LaurentSeries(
            min_power, spec[np.arange(min_power, max_power + 1) % self.point_count]
        )


def max_norm(values: np.ndarray) -> float:
    """Largest spectral norm in a stack of 2x2 matrices, e.g. a loop's
    values over a grid: max_k ||values[k]||_2."""
    return float(np.linalg.svd(values, compute_uv=False)[..., 0].max())


def product_defect(g: LoopMatrix, factors: list, grid: CircleGrid) -> float:
    """max_k ||g(z_k) - prod factors(z_k)||_2.

    A factor is a loop, a constant (2, 2) array or an array of its values
    on the grid, shape (point_count, 2, 2).  Loops are evaluated by inverse
    FFT, so each must fit the grid (ValueError otherwise)."""
    acc = None
    for f in factors:
        vals = (
            np.broadcast_to(f, (grid.point_count, 2, 2))
            if isinstance(f, np.ndarray)
            else grid.synthesize_loop(f)
        )
        acc = vals.copy() if acc is None else acc @ vals
    return max_norm(grid.synthesize_loop(g) - acc)


def unitarity_defect(g: LoopMatrix, grid: CircleGrid | None = None) -> float:
    """max_k || g(z_k)^H g(z_k) - I ||_2 over the grid (512 points by
    default); ValueError when an entry of g does not fit the grid."""
    if grid is None:
        grid = CircleGrid()
    vals = grid.synthesize_loop(g)
    gram = np.conj(np.swapaxes(vals, -1, -2)) @ vals
    gram[..., 0, 0] -= 1.0
    gram[..., 1, 1] -= 1.0
    return max_norm(gram)


# --- JSON -------------------------------------------------------------


def series_to_json(f: LaurentSeries) -> dict:
    """The nonzero terms of f in ascending power."""
    k = np.flatnonzero(f.coefficients)
    terms = [
        {"power": int(n), "re": float(c.real), "im": float(c.imag)}
        for n, c in zip(k + f.min_power, f.coefficients[k])
    ]
    return {"terms": terms}


def finite_complex(re, im) -> complex:
    """complex(re, im) from two JSON numbers; NaN or an infinity raises
    ParseError so it never reaches a solver."""
    val = complex(float(re), float(im))
    if not cmath.isfinite(val):
        raise ParseError(f"non-finite number {val!r}")
    return val


def check_squarable(values, what: str) -> None:
    """Raise ParseError where abs(v) ** 2 overflows, i.e. |v| > ~1.34e154."""
    with np.errstate(over="ignore"):
        square = np.abs(np.asarray(values, dtype=complex)) ** 2
    bad = np.flatnonzero(np.isinf(square))
    if bad.size:
        raise ParseError(f"{what} {complex(values[bad[0]])!r} is too large to square")


def series_from_json(doc: dict) -> LaurentSeries:
    if not isinstance(doc, dict) or "terms" not in doc:
        raise ParseError("series document must be an object with a 'terms' list")
    terms = doc["terms"]
    if not isinstance(terms, list):
        raise ParseError("'terms' must be a list")
    acc: dict[int, complex] = {}
    for t in terms:
        try:
            power = int(t["power"])
            val = finite_complex(t["re"], t["im"])
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"malformed series term {t!r}") from e
        acc[power] = acc.get(power, 0.0) + val
    return LaurentSeries.from_dict(acc)


def loop_to_json(g: LoopMatrix) -> dict:
    return {name: series_to_json(f) for name, f in zip("abcd", g.entries())}


def loop_from_json(doc: dict) -> LoopMatrix:
    if not isinstance(doc, dict):
        raise ParseError("loop document must be an object")
    try:
        return LoopMatrix(*(series_from_json(doc[name]) for name in "abcd"))
    except KeyError as e:
        raise ParseError(f"loop document missing entry {e}") from e
