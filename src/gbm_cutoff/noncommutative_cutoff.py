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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

from .cubic_solver import CubicCoefficients, cardano_unique_real, correction_root, solve_log_cubic
from .errors import ToolkitError
from .linalg_core import (
    DEFAULT_TOL,
    as_matrix,
    as_vector,
    commutator,
    fro,
    is_hurwitz,
    matrix_from_rows,
    matrix_to_rows,
    simultaneous_diagonalize,
)
from .spectral_asymptotics import extract_asymptotics
from .system import GBMSystem

# Strictness margin for internal Hurwitz tests (p_Gamma search, Atilde).
STABILITY_MARGIN = 1e-9
# Overlap <x, v_j> below this fraction of |x| excludes the mode from J0.
OVERLAP_TOL = 1e-12
# Relative slack when collecting argmin/argmax tie sets in the cascade.
TIE_TOL = 1e-9

REGIMES = ("commutative", "first_order", "synthetic", "no_decay")


@dataclass
class CutoffSchedule:
    """Cutoff time scale, window and the cubic data that produced them.

    The mean square behaves like (e^{-a t - b t^2 - gamma t^3} t^{ell_star})^2,
    so the commutative regime is the special case gamma = b = 0 with a the
    decay rate q and ell_star = ell - 1.  Entries that do not apply to a
    regime stay None.
    """

    regime: str
    eps: float
    gamma: Optional[float] = None
    b: Optional[float] = None
    a: Optional[float] = None
    ell_star: Optional[int] = None
    t_eps: Optional[float] = None
    w_eps: Optional[float] = None
    r_eps: Optional[float] = None
    T_eps: Optional[float] = None
    tau_eps: Optional[float] = None
    selected_mode: Optional[int] = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {"regime": self.regime, "eps": float(self.eps)}
        for k in ("gamma", "b", "a", "t_eps", "w_eps", "r_eps", "T_eps", "tau_eps"):
            v = getattr(self, k)
            if v is not None:
                out[k] = float(v)
        if self.ell_star is not None:
            out["ell_star"] = int(self.ell_star)
        if self.selected_mode is not None:
            out["selected_mode"] = int(self.selected_mode)
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ModeDecomposition:
    """Gamma matrices, their joint eigenstructure and per-mode exponents.

    Per mode j (column v_j of ``basis``): a_j = -eig_j(alpha),
    b_j = eig_j(beta), g_j = -eig_j(Gamma) (signs chosen so decaying modes
    carry positive coefficients),
    (lambda_j, ell_j) the decay rate and chain height of exp(t Atilde) v_j,
    and overlap_j = <x, v_j>.
    """

    A: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    Gamma: np.ndarray
    p_Gamma: Optional[float]
    A_tilde: Optional[np.ndarray]
    C: Optional[np.ndarray] = None
    Bhat: Optional[np.ndarray] = None
    Chat: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    a_coeffs: Optional[np.ndarray] = None
    b_coeffs: Optional[np.ndarray] = None
    g_coeffs: Optional[np.ndarray] = None
    lambdas: Optional[np.ndarray] = None
    ells: Optional[np.ndarray] = None
    overlaps: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    tol: float = DEFAULT_TOL
    synthetic: bool = False
    step3_residuals: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def to_dict(self) -> dict:
        out = {
            "p_Gamma": None if self.p_Gamma is None else float(self.p_Gamma),
            "alpha": matrix_to_rows(self.alpha),
            "beta": matrix_to_rows(self.beta),
            "Gamma": matrix_to_rows(self.Gamma),
            "A": matrix_to_rows(self.A),
            "synthetic": self.synthetic,
            "step3_residuals": {k: float(v) for k, v in self.step3_residuals.items()},
        }
        if self.C is not None:
            out["C"] = matrix_to_rows(self.C)
        if self.basis is not None:
            out["modes"] = [
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
            ]
        return out


def _stabilizing_p(A: np.ndarray, Gamma: np.ndarray) -> float:
    """0 when A is already stable, else the smallest power of two p with
    A + (p/2) Gamma Hurwitz."""
    if is_hurwitz(A, STABILITY_MARGIN):
        return 0.0
    for k in range(21):
        p = float(2**k)
        if is_hurwitz(A + 0.5 * p * Gamma, STABILITY_MARGIN):
            return p
    raise ToolkitError("no_stabilizer", "no p in {1,2,...,2^20} stabilizes A + (p/2) Gamma")


def gamma_matrices(sys: GBMSystem) -> ModeDecomposition:
    """C = [B, A] and the derived matrices; no mode analysis yet.

    The matrices are computable for any pair.  When no power of two
    stabilizes A + (p/2) Gamma (e.g. a nilpotent A with the positive
    semidefinite Gamma every real pair produces), p_Gamma and A_tilde stay
    None; the mode analysis raises ``no_stabilizer`` when it needs them.
    """
    A, B = sys.A, sys.B
    C = commutator(B, A)
    Bhat = B + B.T
    Chat = C + C.T
    alpha = Bhat @ Bhat / 2.0
    beta = Bhat @ Chat / 2.0
    Gamma = Chat @ Chat / 6.0
    try:
        p = _stabilizing_p(A, Gamma)
        A_tilde = A + 0.5 * p * Gamma
    except ToolkitError:
        p, A_tilde = None, None
    return ModeDecomposition(
        A=A,
        alpha=alpha,
        beta=beta,
        Gamma=Gamma,
        p_Gamma=p,
        A_tilde=A_tilde,
        C=C,
        Bhat=Bhat,
        Chat=Chat,
        x=sys.x,
        tol=sys.tol,
    )


def _step3_residuals(A, alpha, beta, Gamma) -> dict[str, float]:
    return {
        "alpha_beta": fro(commutator(alpha, beta)),
        "alpha_Gamma": fro(commutator(alpha, Gamma)),
        "beta_Gamma": fro(commutator(beta, Gamma)),
        "A_Gamma": fro(commutator(A, Gamma)),
    }


def _decompose(
    A, alpha, beta, Gamma, x, tol, *,
    C=None, Bhat=None, Chat=None, synthetic=False, p_gamma=None,
) -> ModeDecomposition:
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

    joint = simultaneous_diagonalize([alpha, beta, Gamma], tol)
    V = joint.basis
    a_coeffs = -joint.eigenvalues_of(alpha)
    b_coeffs = joint.eigenvalues_of(beta)
    g_coeffs = -joint.eigenvalues_of(Gamma)

    p = _stabilizing_p(A, Gamma) if p_gamma is None else float(p_gamma)
    A_tilde = A + 0.5 * p * Gamma
    if not is_hurwitz(A_tilde, STABILITY_MARGIN):
        raise ToolkitError("not_stable", "A_tilde is not Hurwitz stable")

    lambdas = np.empty(A.shape[0])
    ells = np.empty(A.shape[0], dtype=int)
    for j in range(A.shape[0]):
        asym = extract_asymptotics(A_tilde, V[:, j], margin=0.0)
        lambdas[j] = asym.q
        ells[j] = asym.ell

    return ModeDecomposition(
        A=A,
        alpha=alpha,
        beta=beta,
        Gamma=Gamma,
        p_Gamma=p,
        A_tilde=A_tilde,
        C=C,
        Bhat=Bhat,
        Chat=Chat,
        basis=V,
        a_coeffs=a_coeffs,
        b_coeffs=b_coeffs,
        g_coeffs=g_coeffs,
        lambdas=lambdas,
        ells=ells,
        overlaps=V.T @ x,
        x=x,
        tol=tol,
        synthetic=synthetic,
        step3_residuals=res,
    )


def mode_decomposition(sys: GBMSystem) -> ModeDecomposition:
    """Full mode analysis of a coefficient pair (A, B)."""
    g = gamma_matrices(sys)
    return _decompose(
        sys.A, g.alpha, g.beta, g.Gamma, sys.x, sys.tol,
        C=g.C, Bhat=g.Bhat, Chat=g.Chat,
    )


def synthetic_mode_decomposition(
    alpha, beta, Gamma, A, x, tol: float = DEFAULT_TOL, p_gamma=None
) -> ModeDecomposition:
    """Mode analysis from directly supplied (alpha, beta, Gamma, A, x).

    Exists because no real pair (A, B) with [A, B] != 0 yields a
    negative-definite Gamma, yet the cubic pipeline is well defined and
    testable at the mode level.  ``p_gamma`` overrides the automatic
    stabilizer search; any admissible value leaves the mean square
    unchanged.
    """
    return _decompose(A, alpha, beta, Gamma, x, tol, synthetic=True, p_gamma=p_gamma)


def synthetic_from_dict(cfg: dict, tol: float = DEFAULT_TOL) -> ModeDecomposition:
    """Build a synthetic decomposition from the JSON schema
    {"alpha": rows, "beta": rows, "Gamma": rows, "A": rows, "x": vector}."""
    try:
        alpha = matrix_from_rows(cfg["alpha"], "alpha")
        beta = matrix_from_rows(cfg["beta"], "beta")
        Gamma = matrix_from_rows(cfg["Gamma"], "Gamma")
        A = matrix_from_rows(cfg["A"], "A")
        x = as_vector(cfg["x"], "x")
    except KeyError as exc:
        raise ToolkitError("missing_field", f"synthetic schema needs {exc}") from exc
    return synthetic_mode_decomposition(alpha, beta, Gamma, A, x, tol)


def mean_square_first_order(dec: ModeDecomposition, x, t: float) -> float:
    """E|X_t(x)|^2 in the first-order regime, evaluated mode by mode.

    The admissible p_Gamma cancels algebraically between exp(t Atilde) and
    the (t^3 - p t) Gamma term, so the value does not depend on it.
    """
    if dec.basis is None:
        raise ToolkitError("not_decomposed", "run mode_decomposition first")
    if t < 0:
        raise ToolkitError("bad_time", "t must be nonnegative")
    x = as_vector(x, "x")
    V = dec.basis
    ov = V.T @ x
    poly = t**3 - dec.p_Gamma * t
    weights = np.exp(
        -0.5 * dec.a_coeffs * t - 0.5 * dec.b_coeffs * t**2 - 0.5 * dec.g_coeffs * poly
    )
    vec = scipy.linalg.expm(t * dec.A_tilde) @ (V @ (weights * ov))
    return float(vec @ vec)


class CascadeSelection(NamedTuple):
    mode: int
    gamma: float
    b: float
    a: float
    ell_star: int


def _tie_set_min(values, idx):
    best = min(values[j] for j in idx)
    return [j for j in idx if values[j] <= best + TIE_TOL * (1.0 + abs(best))], best


def _tie_set_max(values, idx):
    best = max(values[j] for j in idx)
    return [j for j in idx if values[j] >= best - TIE_TOL * (1.0 + abs(best))], best


def select_dominant_mode(dec: ModeDecomposition, x) -> CascadeSelection:
    """The J0 -> J4 argmin/argmax cascade picking the slowest mode's exponents."""
    if dec.basis is None:
        raise ToolkitError("not_decomposed", "run mode_decomposition first")
    x = as_vector(x, "x")
    ov = dec.basis.T @ x
    xnorm = float(np.linalg.norm(x))
    J0 = [j for j in range(dec.dim) if abs(ov[j]) > OVERLAP_TOL * xnorm]
    if not J0:
        raise ToolkitError("x_orthogonal", "x has no overlap with any mode")

    J1, g1 = _tie_set_min(dec.g_coeffs, J0)
    J2, b2 = _tie_set_min(dec.b_coeffs, J1)
    a_tilde = 0.5 * dec.a_coeffs + dec.lambdas - 0.5 * dec.p_Gamma * dec.g_coeffs
    J3, a3 = _tie_set_min(a_tilde, J2)
    J4, ell4 = _tie_set_max(dec.ells, J3)

    return CascadeSelection(
        mode=min(J4),
        gamma=0.5 * g1,
        b=0.5 * b2,
        a=float(a3),
        ell_star=int(ell4) - 1,
    )


def cutoff_schedule_first_order(dec: ModeDecomposition, x, eps: float) -> CutoffSchedule:
    """Cutoff schedule from the dominant mode's cubic; ``no_decay`` when the
    cubic coefficient is not positive."""
    if not 0.0 < eps < math.exp(-1.0):
        raise ToolkitError("bad_epsilon", "eps must lie in (0, 1/e)")
    sel = select_dominant_mode(dec, x)
    regime = "synthetic" if dec.synthetic else "first_order"

    if sel.gamma <= 0.0:
        return CutoffSchedule(
            regime="no_decay",
            eps=eps,
            gamma=sel.gamma,
            b=sel.b,
            a=sel.a,
            ell_star=sel.ell_star,
            selected_mode=sel.mode,
            note=(
                "dominant mode's cubic coefficient is not positive; the cubic "
                "exponent does not force decay (for a commuting pair use the "
                "commutative schedule)"
            ),
        )

    cubic = CubicCoefficients.from_cutoff(sel.gamma, sel.b, sel.a, eps)
    t_eps = cardano_unique_real(cubic)
    T_eps = solve_log_cubic(cubic, sel.ell_star)
    r_eps = tau_eps = None
    note = ""
    if sel.ell_star == 0:
        r_eps, tau_eps = 0.0, t_eps
    elif t_eps > 1.0:
        r_eps = correction_root(t_eps, cubic, sel.ell_star)
        tau_eps = t_eps + r_eps
    else:
        note = "correction root needs t_eps > 1; only T_eps reported"

    return CutoffSchedule(
        regime=regime,
        eps=eps,
        gamma=sel.gamma,
        b=sel.b,
        a=sel.a,
        ell_star=sel.ell_star,
        t_eps=t_eps,
        w_eps=t_eps**-2,
        r_eps=r_eps,
        T_eps=T_eps,
        tau_eps=tau_eps,
        selected_mode=sel.mode,
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
    correct real root.
    """
    if t < 0.2:
        raise ToolkitError("branch_violation", "identity certified for t >= 0.2 only")
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
