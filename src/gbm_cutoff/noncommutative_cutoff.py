"""First-order non-commutative machinery: Gamma matrices, joint modes,
selection cascade, cubic cutoff schedule and the scalar ODE identity.

From C = [B, A] and the symmetrized matrices Bhat = B + B*, Chat = C + C*
the mean square admits the closed form

    E|X_t(x)|^2 = | exp(t Atilde) exp( (t alpha - t^2 beta + (t^3 - p t) Gamma) / 2 ) x |^2

with alpha = Bhat^2/2, beta = Bhat Chat / 2, Gamma = Chat^2/6 and
Atilde = A + (p/2) Gamma for any stabilizing p.  When alpha, beta, Gamma
commute they share an orthonormal eigenbasis and the formula splits into
modes whose exponents are cubic polynomials in t; the slowest mode fixes
the cutoff cubic.

For real coefficient pairs Gamma is positive semidefinite, so the cubic
coefficient of every mode is <= 0 and the cubic machinery reports
``no_decay``; a synthetic entry point accepts (alpha, beta, Gamma, A, x)
directly so the analytic pipeline stays fully exercisable with
negative-definite Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .cubic_solver import (
    CubicCoefficients,
    CutoffSchedule,
    _check_cutoff_eps,
    cardano_unique_real,
    correction_root,
    solve_log_cubic,
)
from .errors import ToolkitError
from .hypothesis_checks import check_hypotheses
from .linalg_core import (
    DEFAULT_TOL,
    as_matrix,
    as_time,
    as_vector,
    commutator,
    fro,
    matrix_to_rows,
    simultaneous_diagonalize,
)
from .spectral_asymptotics import _read_vector, _Spectrum, _squared_norm
from .system import GBMSystem

# Strictness margin of the p_Gamma search's Hurwitz tests; it certifies Atilde.
STABILITY_MARGIN = 1e-9
# Overlap <x, v_j> below this fraction of |x| excludes the mode from J0.
OVERLAP_TOL = 1e-12
# Relative slack when collecting argmin/argmax tie sets in the cascade.
TIE_TOL = 1e-9
# The t range on which example35_check certifies the identity: below it the
# principal Cardano branch is not certified, above it x = exp(-t^3 - t^2)
# leaves the normal doubles (near t = 8.58) and underflows to 0 (near 8.74).
EXAMPLE35_RANGE = (0.2, 8.5)


@dataclass
class ModeDecomposition:
    """Gamma matrices, their joint eigenstructure and per-mode exponents.

    Per mode j (column v_j of ``basis``): a_j = -eig_j(alpha),
    b_j = eig_j(beta), g_j = -eig_j(Gamma) (signs chosen so decaying modes
    carry positive coefficients),
    (lambda_j, ell_j) the decay rate and chain height of exp(t Atilde) v_j,
    and overlap_j = <x, v_j>.  C is None for synthetic modes.  spectrum, the
    p_Gamma search's record of Atilde, gives every (lambda_j, ell_j) and
    exp_action, t, u -> (s, v) with exp(t Atilde) basis u = e^s v, which every
    mean square shares; both read the record's one split into blocks.
    """

    A: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    Gamma: np.ndarray
    p_Gamma: float
    spectrum: _Spectrum
    C: Optional[np.ndarray]
    basis: np.ndarray
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    g_coeffs: np.ndarray
    lambdas: np.ndarray
    ells: np.ndarray
    overlaps: np.ndarray
    x: np.ndarray
    step3_residuals: dict

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def A_tilde(self) -> np.ndarray:
        return self.spectrum.M

    @cached_property
    def exp_action(self):
        return self.spectrum.exp_action(self.basis)

    @cached_property
    def half_coeffs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(-a/2, b/2, g/2): the mode weights exp(-a t/2 - b t^2/2 - g (t^3 - p t)/2)
        of every mean square read their t-independent factors here."""
        return -0.5 * self.a_coeffs, 0.5 * self.b_coeffs, 0.5 * self.g_coeffs

    def to_dict(self) -> dict:
        out = {
            "p_Gamma": float(self.p_Gamma),
            "alpha": matrix_to_rows(self.alpha),
            "beta": matrix_to_rows(self.beta),
            "Gamma": matrix_to_rows(self.Gamma),
            "A": matrix_to_rows(self.A),
            "synthetic": self.C is None,
            "step3_residuals": {k: float(v) for k, v in self.step3_residuals.items()},
            "modes": [
                {
                    "a": float(self.a_coeffs[j]),
                    "b": float(self.b_coeffs[j]),
                    "gamma": float(self.g_coeffs[j]),
                    "lambda": float(self.lambdas[j]),
                    "ell": int(self.ells[j]),
                    "overlap": float(self.overlaps[j]),
                    "v": [float(c) for c in self.basis[:, j]],
                }
                for j in range(self.dim)
            ],
        }
        if self.C is not None:
            out["C"] = matrix_to_rows(self.C)
        return out


def _stabilizing_p(A: np.ndarray, Gamma: np.ndarray) -> tuple[float, _Spectrum]:
    """The first p of 0, 1, 2, 4, ..., 2^20 with A + (p/2) Gamma Hurwitz at
    STABILITY_MARGIN, and the spectral record of that A + (p/2) Gamma."""
    for p in (0.0, *(float(2**k) for k in range(21))):
        spectrum = _Spectrum(A + 0.5 * p * Gamma)
        if spectrum.is_hurwitz(STABILITY_MARGIN):
            return p, spectrum
    raise ToolkitError("no_stabilizer", "no p in {1,2,...,2^20} stabilizes A + (p/2) Gamma")


def _brackets(sys: GBMSystem) -> tuple:
    """(C, alpha, beta, Gamma) of the pair, from Bhat = B + B* and Chat = C + C*;
    C = [B, A] is read off the system's report."""
    C = sys.hypotheses.bracket_BA
    Bhat, Chat = sys.B + sys.B.T, C + C.T
    return C, Bhat @ Bhat / 2.0, Bhat @ Chat / 2.0, Chat @ Chat / 6.0


def _step3_residuals(A, alpha, beta, Gamma) -> dict[str, float]:
    return {
        "alpha_beta": fro(commutator(alpha, beta)),
        "alpha_Gamma": fro(commutator(alpha, Gamma)),
        "beta_Gamma": fro(commutator(beta, Gamma)),
        "A_Gamma": fro(commutator(A, Gamma)),
    }


def _decompose(A, alpha, beta, Gamma, x, tol, *, C=None) -> ModeDecomposition:
    """Step III, the joint basis, then the stabilizer search; the search
    certifies A_tilde at STABILITY_MARGIN.  C is None for synthetic modes."""
    A = as_matrix(A, "A")
    alpha = as_matrix(alpha, "alpha")
    beta = as_matrix(beta, "beta")
    Gamma = as_matrix(Gamma, "Gamma")
    x = as_vector(x, "x")

    res = _step3_residuals(A, alpha, beta, Gamma)
    scale = 1.0 + max(fro(alpha), fro(beta), fro(Gamma)) * (1.0 + fro(A))
    worst = max(res.values())
    if worst > tol * scale:
        raise ToolkitError("not_commuting", f"step III commutator residual {worst:.3e}")

    V = simultaneous_diagonalize([alpha, beta, Gamma], tol)

    p, spectrum = _stabilizing_p(A, Gamma)
    # every mode's (lambda_j, ell_j) is read off the split of the accepted A_tilde
    reads = [_read_vector(spectrum.split, v) for v in V.T]
    lambdas, ells = np.array([r[0] for r in reads]), np.array([r[1] for r in reads])

    return ModeDecomposition(
        A=A,
        alpha=alpha,
        beta=beta,
        Gamma=Gamma,
        p_Gamma=p,
        spectrum=spectrum,
        C=C,
        basis=V,
        a_coeffs=-np.diag(V.T @ alpha @ V),
        b_coeffs=np.diag(V.T @ beta @ V),
        g_coeffs=-np.diag(V.T @ Gamma @ V),
        lambdas=lambdas,
        ells=ells,
        overlaps=V.T @ x,
        x=x,
        step3_residuals=res,
    )


def mode_decomposition(sys: GBMSystem) -> ModeDecomposition:
    """Full mode analysis of a coefficient pair (A, B).  After the checks of
    the decomposition, the system's report gates the mode formula: a B that
    is not normal, or a pair neither commutative nor first order, is
    ``hypotheses_violated``."""
    C, alpha, beta, Gamma = _brackets(sys)
    dec = _decompose(sys.A, alpha, beta, Gamma, sys.x, sys.tol, C=C)
    check_hypotheses(sys).require("modes")
    return dec


def synthetic_mode_decomposition(alpha, beta, Gamma, A, x, tol: float = DEFAULT_TOL) -> ModeDecomposition:
    """Mode analysis from directly supplied (alpha, beta, Gamma, A, x).

    Exists because no real pair (A, B) with [A, B] != 0 yields a
    negative-definite Gamma, yet the cubic pipeline is well defined and
    testable at the mode level.
    """
    return _decompose(A, alpha, beta, Gamma, x, tol)


def mean_square_first_order(dec: ModeDecomposition, t: float) -> float:
    """E|X_t(x)|^2 in the first-order regime, evaluated mode by mode.

    The admissible p_Gamma cancels algebraically between exp(t Atilde) and
    the (t^3 - p t) Gamma term, so the value does not depend on it.
    """
    if as_time(t) == 0:  # X_0 = x, whatever the decomposition's rounding
        return float(dec.x @ dec.x)
    poly = _power(t, 3) - dec.p_Gamma * t
    a2, b2, g2 = dec.half_coeffs  # -a/2, b/2, g/2
    weights = np.exp(a2 * t - b2 * _power(t, 2) - g2 * poly)
    return _squared_norm(*dec.exp_action(t, weights * dec.overlaps))


def _power(t: float, k: int) -> float:
    """t**k for t >= 0, or inf where the float power overflows, which Python
    raises on; every finite value keeps the bits of t**k."""
    try:
        return t**k
    except OverflowError:
        return math.inf


class CascadeSelection(NamedTuple):
    mode: int
    gamma: float
    b: float
    a: float
    ell_star: int


def select_dominant_mode(dec: ModeDecomposition) -> CascadeSelection:
    """The J0 -> J4 argmin/argmax cascade picking the slowest mode's exponents:
    J1, J2 and J3 keep the modes of J0, J1 and J2 within TIE_TOL of the least
    g, b and a_tilde, and J4 those of J3 within it of the largest ell."""
    xnorm = float(np.linalg.norm(dec.x))
    J = [j for j in range(dec.dim) if abs(dec.overlaps[j]) > OVERLAP_TOL * xnorm]
    if not J:
        raise ToolkitError("x_orthogonal", "x has no overlap with any mode")

    a_tilde = 0.5 * dec.a_coeffs + dec.lambdas - 0.5 * dec.p_Gamma * dec.g_coeffs
    bests = []
    for values in (dec.g_coeffs, dec.b_coeffs, a_tilde, -dec.ells):  # the largest ell is the least -ell
        best = min(values[j] for j in J)
        J = [j for j in J if values[j] <= best + TIE_TOL * (1.0 + abs(best))]
        bests.append(best)
    g1, b2, a3, neg_ell4 = bests

    return CascadeSelection(
        mode=min(J),
        gamma=0.5 * g1,
        b=0.5 * b2,
        a=float(a3),
        ell_star=-int(neg_ell4) - 1,
    )


def cutoff_schedule_first_order(dec: ModeDecomposition, eps: float) -> CutoffSchedule:
    """Cutoff schedule from the dominant mode's cubic; ``no_decay`` when the
    cubic coefficient is not positive."""
    _check_cutoff_eps(eps)
    sel = select_dominant_mode(dec)
    fields = dict(eps=eps, gamma=sel.gamma, b=sel.b, a=sel.a, ell_star=sel.ell_star, selected_mode=sel.mode)

    if sel.gamma <= 0.0:
        return CutoffSchedule(
            regime="no_decay",
            **fields,
            note=(
                "dominant mode's cubic coefficient is not positive; the cubic "
                "exponent does not force decay (for a commuting pair use the "
                "commutative schedule)"
            ),
        )

    cubic = CubicCoefficients.from_cutoff(sel.gamma, sel.b, sel.a, eps)
    t_eps = cardano_unique_real(cubic)
    r_eps = tau_eps = None
    note = ""
    if sel.ell_star == 0:  # the log-cubic is the cubic: T_eps = t_eps
        T_eps, r_eps, tau_eps = t_eps, 0.0, t_eps
    else:
        T_eps = solve_log_cubic(cubic, sel.ell_star)
        if t_eps > 1.0:
            r_eps = correction_root(t_eps, cubic, sel.ell_star)
            tau_eps = t_eps + r_eps
        else:
            note = "correction root needs t_eps > 1; only T_eps reported"

    return CutoffSchedule(
        regime="synthetic" if dec.C is None else "first_order",
        **fields,
        t_eps=t_eps,
        w_eps=t_eps**-2,
        r_eps=r_eps,
        T_eps=T_eps,
        tau_eps=tau_eps,
        note=note,
    )


class Example35Point(NamedTuple):
    x: float
    g: float
    f: float


def example35_check(t: float) -> Example35Point:
    """The scalar ODE identity behind the cutoff curve x(t) = exp(-t^3 - t^2).

    Returns (x, g(x), f(x)) where g inverts x(t) via Cardano radicals and
    f(x) = -x (3 g^2 + 2 g) reproduces dx/dt.  The radicals are evaluated
    in complex arithmetic: below t = 1/3 the discriminant of the inverting
    cubic turns negative and the principal complex branch still tracks the
    correct real root.  A t that is not finite and nonnegative is
    ``bad_time``; one outside EXAMPLE35_RANGE, [0.2, 8.5], is
    ``branch_violation``.
    """
    lo, hi = EXAMPLE35_RANGE
    if not lo <= as_time(t) <= hi:
        raise ToolkitError("branch_violation", f"identity certified for {lo} <= t <= {hi} only, got {t}")
    x = math.exp(-(t**3) - t**2)
    L = math.log(x)
    rad = complex(27.0 * L * L + 4.0 * L)
    R = -13.5 * L + 1.5 * math.sqrt(3.0) * np.sqrt(rad) - 1.0
    u = R ** (1.0 / 3.0)
    g = u / 3.0 + 1.0 / (3.0 * u) - 1.0 / 3.0
    if abs(g.imag) > 1e-8 * (1.0 + abs(g.real)):
        raise ToolkitError("branch_violation", f"non-real branch value {g!r}")
    g = float(g.real)
    f = -x * (3.0 * g * g + 2.0 * g)
    return Example35Point(x=x, g=g, f=f)
