"""Root subgroup factorization g = k1^* lambda k2 and its building blocks.

k2 denotes a product of lower-family ("zeta") elementary factors, written in
normal form [[d*, -c*], [c, d]] with c(0) = 0 and d(0) > 0; k1 a product of
upper-family ("eta") factors, [[a, b], [-b*, a*]] with a(0) > 0; lambda is
diag(L, 1/L) with L = exp(-chi* + chi0 + chi) for a polynomial chi with
powers >= 1 and an imaginary constant chi0.

Provided here:
  * triangular data of k2 from its entries (residue and least squares routes)
  * reconstruction of k2 from the upper-triangular datum x alone
  * extraction of the zeta/eta parameters by peeling elementary factors
  * composition from (eta, chi0, chi, zeta) and closed-form l(g), u(g)
  * rootsub_factorize: the full inverse map from a loop to the parameters
  * reconstruct_lu: missing triangular entries from the four determining ones
  * verify_identities: the determinant and compression identities as a report

Peeling works on a 4 x W coefficient array: each step is a shift and one
axpy per column pair, O(W) for a window of W powers, so peeling n_max
indices costs O(n_max (deg + n_max)) for a loop of degree deg.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadNormalization,
    ConsistencyViolation,
    DenominatorVanishes,
    NotFactorizable,
    NotInvertible,
    ParseError,
    PeelDivergence,
    RankDeficient,
    ShiftedNotInvertible,
    TruncationUnstable,
)
from .laurent import (
    CircleGrid,
    LaurentSeries,
    LoopMatrix,
    apply_sigma,
    check_squarable,
    coefficient_table,
    finite_complex,
    invert_series,
    product_defect,
    project,
    series_from_json,
    series_to_json,
    star,
    truncate,
    unitarity_defect,
)
from .rootsub import RootParams, a_factor, partial_product
from .toeplitz import (
    compress,
    det_AstarA,
    direct_shifted,
    gather,
    scalar_compress,
    triangular,
)

__all__ = [
    "exp_series",
    "lambda_series",
    "lambda_loop",
    "K2Triangular",
    "k2_triangular_from_cd",
    "x_leastsquares",
    "k2_from_x",
    "zeta_from_loop",
    "eta_from_loop",
    "RootSubgroupData",
    "compose_rootsub",
    "composed_lu",
    "rootsub_factorize",
    "reconstruct_lu",
    "verify_identities",
]


# --- exponentials -----------------------------------------------------


def exp_series(f: LaurentSeries, lo: int, hi: int) -> LaurentSeries:
    """Coefficients of exp(f) for powers lo..hi.

    Sampled on a grid well beyond the window; the coefficients of exp of a
    finite Laurent series decay superexponentially, so aliasing is far below
    double precision once the grid dominates the window plus a fixed margin.
    """
    if lo > hi:
        raise ValueError("empty window")
    deg = 0 if f.is_zero else max(abs(f.min_power), abs(f.max_power))
    grid = CircleGrid.for_width(2 * (hi - lo + 1) + 8 * deg + 64)
    vals = np.exp(grid.synthesize(f))
    return grid.analyze(vals, lo, hi)


def lambda_series(chi: LaurentSeries, chi0: complex, order: int) -> LaurentSeries:
    """exp(-chi* + chi0 + chi) truncated to powers -order..order."""
    expo = (-1.0 * star(chi)) + LaurentSeries.monomial(0, chi0) + chi
    return exp_series(expo, -order, order)


def lambda_loop(chi: LaurentSeries, chi0: complex, order: int) -> LoopMatrix:
    """diag(L, 1/L); the inverse is computed from the negated exponent."""
    expo = (-1.0 * star(chi)) + LaurentSeries.monomial(0, chi0) + chi
    top = exp_series(expo, -order, order)
    bottom = exp_series(-1.0 * expo, -order, order)
    return LoopMatrix.diagonal(top, bottom)


# --- triangular data of a lower-family product ------------------------


@dataclass(frozen=True)
class K2Triangular:
    """k2 = [[1, x*], [0, 1]] diag(a2, 1/a2) [[alpha2, beta2], [gamma2, delta2]].

    x has powers >= 1; the third factor is holomorphic at 0 with
    alpha2(0) = delta2(0) = 1 and gamma2(0) = 0.  discarded_mass records the
    negative-power coefficients that were projected away when solving for
    alpha2 and beta2; it vanishes for exact inputs.
    """

    a2: float
    x: LaurentSeries
    alpha2: LaurentSeries
    beta2: LaurentSeries
    gamma2: LaurentSeries
    delta2: LaurentSeries
    discarded_mass: float

    def assemble(self) -> LoopMatrix:
        upper = LoopMatrix(
            LaurentSeries.one(), star(self.x), LaurentSeries.zero(), LaurentSeries.one()
        )
        mid = LoopMatrix.diagonal(
            LaurentSeries.monomial(0, self.a2), LaurentSeries.monomial(0, 1.0 / self.a2)
        )
        third = LoopMatrix(self.alpha2, self.beta2, self.gamma2, self.delta2)
        return upper @ mid @ third


def _check_k2_entries(c: LaurentSeries, d: LaurentSeries, tol: float):
    if (not c.is_zero and c.min_power < 0) or (not d.is_zero and d.min_power < 0):
        raise BadNormalization("k2 entries c, d must have no negative powers")
    if abs(c.coeff(0)) > tol:
        raise BadNormalization(f"c(0) = {c.coeff(0):.3e} must vanish")
    d0 = d.coeff(0)
    if abs(d0.imag) > tol or d0.real <= tol:
        raise BadNormalization(f"d(0) = {d0:.3e} must be real and positive")


# Largest gap from the normal form c(0) = 0, d(0) > 0 that
# k2_triangular_from_cd accepts.
_NORMAL_TOL = 1e-9


def k2_triangular_from_cd(c: LaurentSeries, d: LaurentSeries, order: int) -> K2Triangular:
    """Triangular data of a lower-family product from its second row.

    x* = -P_minus(c* / d) is exact once order exceeds deg(c) - 1 because a
    negative output power only involves the first deg(c) coefficients of 1/d.
    The remaining entries follow by unwinding the product:
    alpha2 = (d* - x* c)/a2 and beta2 = (-c* - x* d)/a2 are plus-projections,
    with the projected-away mass reported as a diagnostic.
    """
    _check_k2_entries(c, d, _NORMAL_TOL)
    a2 = float(1.0 / d.coeff(0).real)
    inv_d = invert_series(d, order)
    xstar = -1.0 * project(star(c) * inv_d, "minus")
    raw_alpha = (1.0 / a2) * (star(d) - xstar * c)
    raw_beta = (1.0 / a2) * (-1.0 * star(c) - xstar * d)
    discarded = max(
        project(raw_alpha, "minus").coefficient_max(),
        project(raw_beta, "minus").coefficient_max(),
    )
    return K2Triangular(
        a2=a2,
        x=star(xstar),
        alpha2=project(raw_alpha, "plus"),
        beta2=project(raw_beta, "plus"),
        gamma2=a2 * c,
        delta2=a2 * d,
        discarded_mass=discarded,
    )


def x_leastsquares(
    c: LaurentSeries, d: LaurentSeries, N: int, tol: float = 1e-9
) -> LaurentSeries:
    """x by least squares on the annihilation conditions, as a cross-route.

    [[1, -x*], [0, 1]] [[d*, -c*], [c, d]] must have no negative powers, so
    P_minus(x* c) = P_minus(d*) and P_minus(x* d) = -P_minus(c*).  The
    stacked linear system in the coefficients x*_{-1..-N} is solved by
    lstsq; RankDeficient when the numerical rank drops below N.
    """
    _check_k2_entries(c, d, tol)
    if N < 1:
        raise ValueError("N must be at least 1")
    p_lo = -max(c.max_power if not c.is_zero else 1, d.max_power if not d.is_zero else 1, N)
    rows_p = np.arange(p_lo, 0)
    cols_q = -np.arange(1, N + 1)
    # rows 2r and 2r + 1 hold the two conditions at power rows_p[r]; column
    # q - 1 multiplies x*_{-q}, which meets the coefficients of power p + q
    A = np.empty((2 * rows_p.size, N), dtype=complex)
    A[0::2] = gather((c,), rows_p, cols_q)
    A[1::2] = gather((d,), rows_p, cols_q)
    b = coefficient_table((star(d), -1.0 * star(c)), p_lo, -1).reshape(-1)
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=tol)
    if rank < N:
        raise RankDeficient(f"annihilation system has rank {rank} < {N}")
    return star(LaurentSeries(-N, sol[::-1]))


# --- k2 from the datum x alone ----------------------------------------


def _k2_from_x_window(x: LaurentSeries, N: int) -> tuple[K2Triangular, LoopMatrix]:
    xstar = star(x)
    C1 = scalar_compress(xstar, N, "hankel_C")
    C2 = scalar_compress(xstar.shift(1), N, "hankel_C")
    eye = np.eye(N + 1)

    # a minus-window vector v holds the z^-(q+1) coefficient at index q
    gram2 = eye + C2 @ C2.conj().T
    v = np.linalg.solve(gram2, coefficient_table((xstar,), -N - 1, -1)[::-1, 0])
    gamma2 = -1.0 * star(LaurentSeries(-N - 1, v[::-1]))

    gvec = coefficient_table((gamma2,), 0, N)[:, 0]
    delta2_star = LaurentSeries.one() + LaurentSeries(-N - 1, (C1 @ gvec)[::-1])
    delta2 = star(delta2_star)

    _, log1 = np.linalg.slogdet(eye + C1.conj().T @ C1)
    _, log2 = np.linalg.slogdet(eye + C2.conj().T @ C2)
    a2_sq = float(np.exp(log1 - log2))
    a2 = math.sqrt(a2_sq)

    alpha2 = (1.0 / a2_sq) * (LaurentSeries.one() - project(xstar * gamma2, "plus"))
    beta2 = (-1.0 / a2_sq) * project(xstar * delta2, "plus")
    data = K2Triangular(
        a2=a2,
        x=x,
        alpha2=alpha2,
        beta2=beta2,
        gamma2=gamma2,
        delta2=delta2,
        discarded_mass=0.0,
    )
    return data, data.assemble()


def k2_from_x(x: LaurentSeries, N: int, tol: float = 1e-8) -> tuple[LoopMatrix, float]:
    """Reconstruct the lower-family product from its datum x.

    Solves (1 + C(zx*) C(zx*)^*) on the minus window for gamma2, fills in
    delta2, alpha2, beta2 from x and gamma2, and fixes the scale from the
    determinant ratio a2^2 = det(1 + C(x*)^* C(x*)) / det(1 + C(zx*)^* C(zx*)),
    where C(f) compresses P_minus f P_plus.  The computation is repeated on
    the window N+8; if any loop coefficient moves by more than tol the result
    is rejected with TruncationUnstable.
    """
    if not x.is_zero and x.min_power < 1:
        raise BadNormalization("x must have powers >= 1")
    _, loop_small = _k2_from_x_window(x, N)
    data, loop_big = _k2_from_x_window(x, N + 8)
    drift = max(
        (e1 - e2).coefficient_max()
        for e1, e2 in zip(
            loop_small.truncate(-N, N).entries(), loop_big.truncate(-N, N).entries()
        )
    )
    if not np.isfinite(drift) or drift > tol:
        raise TruncationUnstable(
            f"loop coefficients moved {drift:.3e} when widening the window"
        )
    return loop_big, data.a2


# --- peeling ----------------------------------------------------------

# Largest coefficient gap from the family's normal form that peeling accepts.
_FORM_TOL = 1e-6


def zeta_from_loop(k2: LoopMatrix, n_max: int, tol: float = 1e-9) -> RootParams:
    """Recover the zeta parameters by peeling elementary factors.

    At step n the z^n coefficient of the (2,1) entry of the remainder equals
    -(prod a) conj(zeta_n) and its (2,2) constant equals prod a, so
    zeta_n = -conj(c_n / d_0); right multiplication by the inverse elementary
    factor removes that index.  For an exact finite product the remainder is
    the identity after the last step; PeelDivergence reports a remainder that
    stays far from the identity.

    The remainder is a 4 x W array (rows a, b, c, d).  With a = a(zeta_n)
    the inverse factor is a [[1, -zeta_n z^-n], [conj(zeta_n) z^n, 1]], so a
    step scales columns (a, c) and (b, d) by a and adds to each the other
    shifted by n.
    Column (a, c) never reaches below the loop's lowest power and (b, d)
    reaches at most n_max below it (mirrored at the top), so the window
    widened by n_max on each side holds every coefficient: none is dropped.
    """
    form_defect = max(
        (k2.a - star(k2.d)).coefficient_max(), (k2.b + star(k2.c)).coefficient_max()
    )
    if form_defect > _FORM_TOL:
        raise BadNormalization(f"loop is not in lower-family form ({form_defect:.3e})")
    _check_k2_entries(k2.c, k2.d, _FORM_TOL)
    lo = -k2.max_degree() - n_max  # column j holds power lo + j
    rem = coefficient_table(k2.entries(), lo, -lo).T
    left, right = rem[0::2], rem[1::2]  # views: columns (a, c) and (b, d)
    values = []
    for n in range(1, n_max + 1):
        d0 = complex(rem[3, -lo])
        if abs(d0) < 0.1:
            raise PeelDivergence(f"diagonal constant collapsed to {abs(d0):.3e} at step {n}")
        zeta_n = -(complex(rem[2, n - lo]) / d0).conjugate()
        values.append(zeta_n)
        a = complex(a_factor(zeta_n))
        into_left = (a * zeta_n).conjugate()
        into_right = (a * -zeta_n.conjugate()).conjugate()
        new_left = a * left
        new_left[:, n:] += into_left * right[:, :-n]
        right *= a
        right[:, :-n] += into_right * left[:, n:]
        left[:] = new_left
    rem[0, -lo] -= 1.0
    rem[3, -lo] -= 1.0
    terminal = float(np.abs(rem).max())
    if not np.isfinite(terminal) or terminal > max(1e3 * tol, 1e-6):
        raise PeelDivergence(
            f"remainder stays {terminal:.3e} away from the identity after {n_max} steps"
        )
    return RootParams("zeta", tuple(values))


def eta_from_loop(k1: LoopMatrix, n_max: int, tol: float = 1e-9) -> RootParams:
    """Recover the eta parameters of an upper-family product.

    The outer involution turns the upper-family product into a lower-family
    one with the same values shifted up by one index, so peeling the sigma
    image at indices 1..n_max+1 returns eta_0..eta_n_max.
    """
    form_defect = max(
        (k1.d - star(k1.a)).coefficient_max(), (k1.c + star(k1.b)).coefficient_max()
    )
    if form_defect > _FORM_TOL:
        raise BadNormalization(f"loop is not in upper-family form ({form_defect:.3e})")
    zeta = zeta_from_loop(apply_sigma(k1), n_max + 1, tol=tol)
    return RootParams("eta", zeta.values)


# --- composition ------------------------------------------------------


@dataclass(frozen=True)
class RootSubgroupData:
    """Coordinates (eta, chi0, chi, zeta) of a factorized loop.

    residual is the grid defect of g - k1^* lambda k2 measured by the
    factorization that produced the data (0.0 for hand-built data);
    consistency_defect is the measured gap in the two-sided radial identity
    |l11|^2 + |l21|^2 = (a1 a2)^{-2} (|u21|^2 + |u22|^2).
    """

    eta: RootParams
    chi0: complex
    chi: LaurentSeries
    zeta: RootParams
    residual: float = 0.0
    consistency_defect: float = 0.0

    def __post_init__(self):
        if self.eta.side != "eta" or self.zeta.side != "zeta":
            raise ValueError("data requires an eta list and a zeta list")
        if not self.chi.is_zero and self.chi.min_power < 1:
            raise ValueError("chi must have powers >= 1")

    def to_json(self) -> dict:
        return {
            "eta": self.eta.to_json(),
            "chi0": [float(self.chi0.real), float(self.chi0.imag)],
            "chi": series_to_json(self.chi),
            "zeta": self.zeta.to_json(),
            "residual": float(self.residual),
            "consistency_defect": float(self.consistency_defect),
        }

    @staticmethod
    def from_json(doc: dict) -> "RootSubgroupData":
        try:
            chi = series_from_json(doc["chi"])
            check_squarable(chi.coefficients, "chi coefficient")
            return RootSubgroupData(
                eta=RootParams.from_json(doc["eta"]),
                chi0=finite_complex(doc["chi0"][0], doc["chi0"][1]),
                chi=chi,
                zeta=RootParams.from_json(doc["zeta"]),
                residual=float(doc.get("residual", 0.0)),
                consistency_defect=float(doc.get("consistency_defect", 0.0)),
            )
        except (KeyError, TypeError, ValueError, IndexError) as e:
            raise ParseError(f"malformed factorization data: {e}") from e


def _default_order(data: RootSubgroupData) -> int:
    chideg = max(data.chi.max_power, 1) if not data.chi.is_zero else 1
    return data.eta.support + data.zeta.support + 3 * chideg + 24


def compose_rootsub(data: RootSubgroupData, order: int | None = None) -> LoopMatrix:
    """The loop k1^* lambda k2, truncated to powers -order..order."""
    if order is None:
        order = _default_order(data)
    k1 = partial_product(data.eta)
    k2 = partial_product(data.zeta)
    lam = lambda_loop(data.chi, data.chi0, order)
    return (k1.adjoint() @ lam @ k2).truncate(-order, order)


def composed_lu(
    data: RootSubgroupData, order: int | None = None
) -> tuple[LoopMatrix, complex, float, LoopMatrix]:
    """Closed-form triangular factors (l, m0, a0, u) of the composed loop.

    With x the datum of k2, y the lower datum of k1 (via the sigma image),
    and W = e^{2 chi0} x* e^{2 chi} + y e^{2 chi*}:

        l = (third_1)^* diag(e^{-chi*}, e^{chi*}) [[1, rho_minus], [0, 1]]
        u = [[1, rho_plus], [0, 1]] diag(e^{chi}, e^{-chi}) third_2
        rho_minus = a1^2 P_minus(W),  rho_plus = a2^{-2} e^{-2 chi0} P_plus(W)

    where third_i are the holomorphic-at-0 factors of the k_i triangular
    forms, m0 = e^{chi0} and a0 = a1 a2.  The split of the middle Fourier
    mass between rho_plus and rho_minus is forced by matching the (1,2)
    entry of the middle factor of k1^* lambda k2, constant terms going to
    the plus side.
    """
    if order is None:
        order = _default_order(data)
    k1 = partial_product(data.eta)
    k2 = partial_product(data.zeta)

    t2 = k2_triangular_from_cd(k2.c, k2.d, order)
    a2 = t2.a2
    third2 = LoopMatrix(t2.alpha2, t2.beta2, t2.gamma2, t2.delta2)

    sk1 = apply_sigma(k1)
    t1 = k2_triangular_from_cd(sk1.c, sk1.d, order)
    a1 = 1.0 / t1.a2
    y = star(star(t1.x).shift(1))  # y* = x~* z under the involution
    third1 = apply_sigma(LoopMatrix(t1.alpha2, t1.beta2, t1.gamma2, t1.delta2))

    chi = data.chi
    e_2chi = exp_series(2.0 * chi, 0, order)
    e_2chi_star = star(e_2chi)
    e_minus_chi_star = exp_series(-1.0 * star(chi), -order, 0)
    e_chi_star = exp_series(star(chi), -order, 0)
    e_chi = exp_series(chi, 0, order)
    e_minus_chi = exp_series(-1.0 * chi, 0, order)

    phase2 = cmath.exp(2.0 * data.chi0)
    W = phase2 * (star(t2.x) * e_2chi) + y * e_2chi_star
    rho_minus = (a1 * a1) * truncate(project(W, "minus"), -order, -1)
    rho_plus = (1.0 / (a2 * a2 * phase2)) * truncate(project(W, "plus"), 0, order)

    one = LaurentSeries.one()
    zero = LaurentSeries.zero()
    l = (
        third1.adjoint()
        @ LoopMatrix.diagonal(e_minus_chi_star, e_chi_star)
        @ LoopMatrix(one, rho_minus, zero, one)
    ).truncate(-2 * order, 0)
    u = (
        LoopMatrix(one, rho_plus, zero, one)
        @ LoopMatrix.diagonal(e_chi, e_minus_chi)
        @ third2
    ).truncate(0, 2 * order)
    m0 = cmath.exp(data.chi0)
    a0 = a1 * a2
    return l, m0, float(a0), u


# --- full factorization ----------------------------------------------

# Largest gap in the two-sided radial identity rootsub_factorize accepts.
_CONSISTENCY_TOL = 1e-6


# Trailing parameters at most this large are machine zeros.
_TRAILING_CUT = 1e-13


def _trim_trailing(params: RootParams) -> RootParams:
    # only machine zeros at the tail; interior zeros keep their slots
    values = list(params.values)
    while values and abs(values[-1]) <= _TRAILING_CUT:
        values.pop()
    return RootParams(params.side, tuple(values))


def rootsub_factorize(
    g: LoopMatrix,
    N: int,
    tol: float = 1e-9,
    grid: CircleGrid | None = None,
) -> RootSubgroupData:
    """Recover (eta, chi0, chi, zeta) from a unitary loop.

    Pipeline: triangular factorization through the Toeplitz corner at N;
    a1, a2 and Re(chi) from the radial densities |l11|^2 + |l21|^2 and
    |u21|^2 + |u22|^2 on the grid (their logs are -2 log a1 - 2 Re chi and
    2 log a2 - 2 Re chi, and Re chi has zero mean); chi from Re(chi) by
    doubling the positive-frequency coefficients; chi0 from the phase of
    the constant middle factor; then k1 and k2 are reassembled entrywise
    and peeled down to their parameters.

    residual is the grid defect of g against k1^* lambda k2; the radial
    consistency identity is measured and must stay below 1e-6.
    """
    gdeg = g.max_degree()
    need = 2 * (N + gdeg) + 2
    if grid is None or grid.point_count < need:
        grid = CircleGrid.for_width(need)
    defect = unitarity_defect(g, grid)
    if defect > max(tol, 1e-10):
        raise BadNormalization(f"loop is not unitary on the grid ({defect:.3e})")
    try:
        tf = triangular(g, N)
    except (NotInvertible, ShiftedNotInvertible) as e:
        raise NotFactorizable(str(e)) from e

    # every series synthesized below spans at most 2 N + deg + 1 <= need powers
    lv = grid.synthesize_loop(tf.l)
    uv = grid.synthesize_loop(tf.u)
    Dl = np.abs(lv[:, 0, 0]) ** 2 + np.abs(lv[:, 1, 0]) ** 2
    Du = np.abs(uv[:, 1, 0]) ** 2 + np.abs(uv[:, 1, 1]) ** 2
    if Dl.min() < 1e-15 or Du.min() < 1e-15:
        raise NotFactorizable("a radial density vanishes on the grid")
    a1 = float(np.exp(-0.5 * np.mean(np.log(Dl))))
    a2 = float(np.exp(0.5 * np.mean(np.log(Du))))
    consistency = float(np.max(np.abs(Dl - Du / (a1 * a2) ** 2)))
    if consistency > _CONSISTENCY_TOL:
        raise ConsistencyViolation(
            f"radial identity violated by {consistency:.3e} (tol {_CONSISTENCY_TOL:.1e})"
        )

    re_chi = -np.log(a1) - 0.5 * np.log(Dl)
    half_window = min(N, (grid.point_count - 1) // 2)
    r = grid.analyze(re_chi, -half_window, half_window)
    chi = LaurentSeries(1, 2.0 * coefficient_table((r,), 1, half_window)[:, 0])
    chi0 = 1j * float(np.angle(tf.m_zero))

    e_chi = exp_series(chi, 0, N)
    a_series = a1 * (e_chi * star(tf.l.a))
    b_series = a1 * (e_chi * star(tf.l.c))
    k1 = LoopMatrix(a_series, b_series, -1.0 * star(b_series), star(a_series))
    c_series = (1.0 / a2) * (e_chi * tf.u.c)
    d_series = (1.0 / a2) * (e_chi * tf.u.d)
    k2 = LoopMatrix(star(d_series), -1.0 * star(c_series), c_series, d_series)

    zeta = _trim_trailing(zeta_from_loop(k2, max(gdeg, 1), tol=tol))
    eta = _trim_trailing(eta_from_loop(k1, max(gdeg, 1), tol=tol))

    chi_vals = grid.synthesize(chi)
    lam_vals = np.exp(-np.conj(chi_vals) + chi0 + chi_vals)
    mid = np.zeros((grid.point_count, 2, 2), dtype=complex)
    mid[:, 0, 0] = lam_vals
    mid[:, 1, 1] = 1.0 / lam_vals
    residual = product_defect(g, [k1.adjoint(), mid, k2], grid)
    return RootSubgroupData(eta, chi0, chi, zeta, residual, consistency)


# --- reconstruction of the dependent triangular entries ----------------

# Least value of a denominator on the grid that reconstruct_lu divides by.
_VANISH_TOL = 1e-9


def reconstruct_lu(
    l11: LaurentSeries,
    l21: LaurentSeries,
    u21: LaurentSeries,
    u22: LaurentSeries,
    a0: float,
    m0: complex = 1.0,
    order: int | None = None,
) -> tuple[LaurentSeries, LaurentSeries, LaurentSeries, LaurentSeries]:
    """Dependent entries (l12, l22, u12, u11) from the four determining ones.

    Unitarity of the factored loop ties the columns of l and u together:
    with D = |l11|^2 + |l21|^2 and F = (l21*/l11 + m0^2 u21*/u22) / D,

        l12 = -l11 P_minus(F),   u12 = -m0^{-2} a0^{-2} u22 P_plus(F),

    and the remaining diagonal entries follow from det l = det u = 1.
    m0 is the unimodular constant of the middle factor; with the default
    m0 = 1 the formulas apply to loops whose constant factor is positive.
    """
    indeg = LoopMatrix(l11, l21, u21, u22).max_degree()
    if order is None:
        order = indeg + 16
    grid = CircleGrid.for_width(2 * (order + indeg) + 2)
    l11v, l21v, u21v, u22v = (grid.synthesize(f) for f in (l11, l21, u21, u22))
    D = np.abs(l11v) ** 2 + np.abs(l21v) ** 2
    if D.min() < _VANISH_TOL:
        raise DenominatorVanishes(f"|l11|^2 + |l21|^2 reaches {D.min():.3e}")
    if np.min(np.abs(l11v)) < _VANISH_TOL or np.min(np.abs(u22v)) < _VANISH_TOL:
        raise DenominatorVanishes("l11 or u22 vanishes on the grid")
    m0 = complex(m0)
    Fv = (np.conj(l21v) / l11v + m0**2 * np.conj(u21v) / u22v) / D
    F = grid.analyze(Fv, -order, order)
    f_minus = truncate(F, -order, -1)
    f_plus = truncate(F, 0, order)
    l12 = -1.0 * (l11 * f_minus)
    u12 = (-1.0 / (m0**2 * a0**2)) * (u22 * f_plus)
    wide = order + indeg
    one = LaurentSeries.one()
    inv_l11 = star(invert_series(star(l11), wide))
    l22 = truncate((one + l12 * l21) * inv_l11, -wide, 0)
    u11 = truncate((one + u12 * u21) * invert_series(u22, wide), 0, wide)
    return l12, l22, u12, u11


# --- identity verification report -------------------------------------


def _report_line(name: str, lhs: float, rhs: float, tol: float) -> dict:
    dev = abs(lhs - rhs)
    return {
        "identity_name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "abs_deviation": float(dev),
        "pass": bool(dev <= tol),
    }


def _matrix_line(name: str, lhs_m: np.ndarray, rhs_m: np.ndarray, tol: float) -> dict:
    dev = float(np.max(np.abs(lhs_m - rhs_m))) if lhs_m.size else 0.0
    return {
        "identity_name": name,
        "lhs": float(np.max(np.abs(lhs_m))) if lhs_m.size else 0.0,
        "rhs": float(np.max(np.abs(rhs_m))) if rhs_m.size else 0.0,
        "abs_deviation": dev,
        "pass": bool(dev <= tol),
    }


def verify_identities(
    subject: RootSubgroupData | LoopMatrix, N: int, tol: float = 1e-8
) -> list[dict]:
    """Measured deviations for the determinant and compression identities.

    subject may be factorization data or a unitary loop (which is factorized
    first at truncation N).  Report lines, in order: the k2 determinant
    against the zeta product and against the Hankel determinant of x; the
    diagonal-loop determinant against the chi sum; the composed determinant
    against the product of its three factor determinants and the closed
    form; the Hankel quotient C A^{-1} against the minus factor; the minus
    factor corner against the x coefficient pattern; and the shifted
    compression against the direct sigma-basis construction.
    """
    if isinstance(subject, LoopMatrix):
        data = rootsub_factorize(subject, N)
        g = subject
    else:
        data = subject
        g = compose_rootsub(data, order=max(_default_order(data), N + 4))

    report = []
    k2 = partial_product(data.zeta)
    det_k2 = det_AstarA(k2, N)
    closed_zeta = 1.0
    for n, v in zip(data.zeta.indices, data.zeta.values):
        closed_zeta *= (1.0 + abs(v) ** 2) ** (-n)
    report.append(_report_line("k2_determinant_vs_zeta_product", det_k2, closed_zeta, tol))

    t2 = k2_triangular_from_cd(k2.c, k2.d, N)
    B = scalar_compress(t2.x, N, "hankel_B")
    _, logdet_h = np.linalg.slogdet(np.eye(N + 1) + B @ B.conj().T)
    report.append(
        _report_line("k2_determinant_vs_x_hankel", det_k2, float(np.exp(-logdet_h)), tol)
    )

    lam = lambda_loop(data.chi, data.chi0, N + 2)
    det_lam = det_AstarA(lam, N)
    chi_sum = sum(
        n * abs(data.chi.coeff(n)) ** 2 for n in range(1, data.chi.max_power + 1)
    ) if not data.chi.is_zero else 0.0
    report.append(
        _report_line(
            "lambda_determinant_vs_chi_sum", det_lam, float(np.exp(-2.0 * chi_sum)), tol
        )
    )

    k1 = partial_product(data.eta)
    det_g = det_AstarA(g, N)
    det_k1adj = det_AstarA(k1.adjoint(), N)
    report.append(
        _report_line(
            "three_factor_determinant_product", det_g, det_k1adj * det_lam * det_k2, tol
        )
    )
    closed_eta = 1.0
    for i, v in zip(data.eta.indices, data.eta.values):
        closed_eta *= (1.0 + abs(v) ** 2) ** (-i)
    report.append(
        _report_line(
            "three_factor_closed_form",
            det_g,
            closed_eta * float(np.exp(-2.0 * chi_sum)) * closed_zeta,
            tol,
        )
    )

    A = compress(k2, N, "toeplitz")
    C = compress(k2, N, "hankel_C")
    Z = C @ np.linalg.inv(A)
    minus_factor = LoopMatrix(
        LaurentSeries.one(), star(t2.x), LaurentSeries.zero(), LaurentSeries.one()
    )
    C_minus = compress(minus_factor, N, "hankel_C")
    report.append(_matrix_line("hankel_quotient_vs_minus_part", Z, C_minus, tol))

    # row block r lives at power -(r+1), column block c at power c; only
    # the (1,2) component of each block carries x, conjugated, at power
    # r + c + 1.  Built from x's own coefficients, independent of compress.
    x_win = truncate(t2.x, 1, 2 * N + 1)
    xs = np.zeros(2 * N + 2, dtype=complex)
    xs[x_win.min_power : x_win.max_power + 1] = x_win.coefficients
    blk = np.arange(N + 1)
    pattern = np.zeros_like(C_minus)
    pattern[0::2, 1::2] = xs[blk[:, None] + blk[None, :] + 1].conj()
    report.append(_matrix_line("minus_part_hankel_x_pattern", C_minus, pattern, tol))

    S = compress(g, N, "shifted")
    report.append(
        _matrix_line("shifted_compression_vs_sigma", S, direct_shifted(g, N), tol)
    )
    return report
