"""Ordered products of elementary root subgroup factors.

A lower family ("zeta") factor at index n >= 1 is
    (1+|zeta|^2)^(-1/2) * [[1, zeta z^-n], [-conj(zeta) z^n, 1]]
and an upper family ("eta") factor at index n >= 0 is
    (1+|eta|^2)^(-1/2) * [[1, -conj(eta) z^n], [eta z^-n, 1]].
Products are taken with the highest index leftmost.  The outer involution
sends an upper factor at index n to a lower factor at index n+1 with the
same parameter, which sigma_image mirrors on parameter lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError
from .laurent import LaurentSeries, LoopMatrix, check_squarable, finite_complex

__all__ = [
    "RootParams",
    "a_factor",
    "elementary_factor",
    "partial_product",
]


def a_factor(value: complex) -> float:
    """Normalizing scalar (1 + |value|^2)^(-1/2) of an elementary factor."""
    return 1.0 / math.sqrt(1.0 + abs(value) ** 2)


@dataclass(frozen=True)
class RootParams:
    """Parameter list for one family of elementary factors.

    side "zeta" indexes values from 1 (values[k] sits at index k+1),
    side "eta" indexes from 0.
    """

    side: str
    values: tuple[complex, ...]

    def __post_init__(self):
        if self.side not in ("zeta", "eta"):
            raise ValueError(f"side must be 'zeta' or 'eta', got {self.side!r}")
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))

    @property
    def index_base(self) -> int:
        return 1 if self.side == "zeta" else 0

    @property
    def support(self) -> int:
        return len(self.values)

    @property
    def indices(self) -> range:
        return range(self.index_base, self.index_base + len(self.values))

    def value_at(self, index: int) -> complex:
        k = index - self.index_base
        if 0 <= k < len(self.values):
            return self.values[k]
        return 0.0 + 0.0j

    def l2_sum(self) -> float:
        return sum(abs(v) ** 2 for v in self.values)

    def sobolev_half_sum(self) -> float:
        """sum_n n |value_n|^2 with the family's own indexing."""
        return sum(n * abs(self.value_at(n)) ** 2 for n in self.indices)

    def sigma_image(self) -> "RootParams":
        """Parameter list of the sigma image of this family's product.

        eta values (index 0..N) become zeta values (index 1..N+1) and back.
        """
        if self.side == "eta":
            return RootParams("zeta", self.values)
        return RootParams("eta", self.values)

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }

    @staticmethod
    def from_json(doc: dict) -> "RootParams":
        try:
            side = doc["side"]
            values = tuple(finite_complex(p[0], p[1]) for p in doc["values"])
        except (KeyError, TypeError, ValueError, IndexError) as e:
            raise ParseError(f"malformed root parameter document: {e}") from e
        if side not in ("zeta", "eta"):
            raise ParseError(f"side must be 'zeta' or 'eta', got {side!r}")
        check_squarable(values, "root parameter")
        return RootParams(side, values)


def elementary_factor(side: str, index: int, value: complex) -> LoopMatrix:
    """Single SU(2)-valued elementary factor at the given Fourier index."""
    if side == "zeta":
        if index < 1:
            raise ValueError("zeta factors start at index 1")
        top = LaurentSeries.monomial(-index, value)
        bottom = LaurentSeries.monomial(index, -complex(value).conjugate())
    elif side == "eta":
        if index < 0:
            raise ValueError("eta factors start at index 0")
        top = LaurentSeries.monomial(index, -complex(value).conjugate())
        bottom = LaurentSeries.monomial(-index, value)
    else:
        raise ValueError(f"side must be 'zeta' or 'eta', got {side!r}")
    a = a_factor(value)
    one = LaurentSeries.one()
    return LoopMatrix(one, top, bottom, one).scale(a)


def partial_product(params: RootParams, upto: int | None = None) -> LoopMatrix:
    """Product of the elementary factors with highest index on the left.

    `upto` limits the highest index used (defaults to the full support).
    """
    hi = params.indices.stop - 1 if upto is None else upto
    if upto is not None and hi > params.indices.stop - 1:
        raise ValueError("upto exceeds the parameter support")
    out = LoopMatrix.identity()
    for n in range(params.index_base, hi + 1):
        out = elementary_factor(params.side, n, params.value_at(n)) @ out
    return out
