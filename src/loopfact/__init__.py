"""Root-subgroup and triangular factorization of SU(2)-valued loops.

The package namespace holds the error taxonomy and the names of the README
quick start; everything else is imported from its module, e.g.
``from loopfact.laurent import LaurentSeries``.
"""

from .errors import (
    BadNormalization,
    CapExceeded,
    ConsistencyViolation,
    DenominatorVanishes,
    InvalidIndex,
    LoopFactError,
    NotFactorizable,
    NotInvertible,
    ParseError,
    PeelDivergence,
    RankDeficient,
    ShiftedNotInvertible,
    TruncationUnstable,
    VanishingSymbol,
    ZeroConstantTerm,
)
from .rootsub import RootParams, partial_product
from .toeplitz import det_AstarA
from .factor import rootsub_factorize
from .combinat import full_x

__version__ = "0.1.0"
