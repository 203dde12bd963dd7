"""Commutative-regime analysis: effective drift, closed-form mean square,
cutoff time scale and the profile limit.

With B normal and commuting with A, the mean square collapses to
|exp(tQ)x|^2 for the effective drift Q = A + (B + B*)^2 / 4, which equals
the squared Wasserstein-2 distance of X_t(x) to the Dirac mass at zero.
The cutoff time scale follows from the spectral asymptotics of exp(tQ)x.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import ToolkitError
from .hypothesis_checks import check_hypotheses
from .noncommutative_cutoff import CutoffSchedule
from .spectral_asymptotics import extract_asymptotics, is_diagonalizable
from .system import GBMSystem

__all__ = [
    "GBMSystem",
    "effective_drift",
    "drift_mean_square",
    "mean_square_commutative",
    "cutoff_time_from_rate",
    "cutoff_time_commutative",
    "profile_limit",
]


def effective_drift(sys: GBMSystem) -> np.ndarray:
    """Q = A + (B + B*)^2 / 4; ``hypotheses_violated`` unless B is normal
    and commutes with A.

    This is the regime's one hypothesis check.  Q depends on the pair
    alone, so the mean square at every t (``drift_mean_square``) and the
    schedule at every eps (``cutoff_time_from_rate`` on the asymptotics of
    exp(tQ)x) come from one checked drift.  Callers test stability
    separately.
    """
    rep = check_hypotheses(sys)
    if not (rep.normal_B and rep.commutative):
        raise ToolkitError(
            "hypotheses_violated",
            f"normal_B={rep.normal_B}, commutative={rep.commutative}",
        )
    S = sys.B + sys.B.T
    return sys.A + 0.25 * (S @ S)


def drift_mean_square(Q: np.ndarray, x: np.ndarray, t: float) -> float:
    """|exp(tQ)x|^2 for an effective drift Q from ``effective_drift``."""
    if t < 0:
        raise ToolkitError("bad_time", "t must be nonnegative")
    v = scipy.linalg.expm(t * Q) @ x
    return float(v @ v)


def mean_square_commutative(sys: GBMSystem, t: float) -> float:
    """E|X_t(x)|^2 = |exp(tQ)x|^2 (also the squared W2 distance to delta_0)."""
    if t < 0:
        raise ToolkitError("bad_time", "t must be nonnegative")
    return drift_mean_square(effective_drift(sys), sys.x, t)


def cutoff_time_from_rate(q: float, ell: int, eps: float, w: float = 1.0) -> CutoffSchedule:
    """t_eps = |ln eps|/q + (ell - 1) ln|ln eps| / q with a constant window w."""
    if not 0.0 < eps < math.exp(-1.0):
        raise ToolkitError("bad_epsilon", "eps must lie in (0, 1/e)")
    if not (q > 0 and ell >= 1 and w > 0):
        raise ToolkitError("bad_coefficients", "need q > 0, ell >= 1, w > 0")
    L = abs(math.log(eps))
    t_eps = L / q + (ell - 1) * math.log(L) / q
    return CutoffSchedule(
        regime="commutative",
        eps=eps,
        gamma=0.0,
        b=0.0,
        a=q,
        ell_star=ell - 1,
        t_eps=t_eps,
        w_eps=w,
    )


def cutoff_time_commutative(sys: GBMSystem, eps: float, w: float = 1.0) -> CutoffSchedule:
    """Cutoff schedule of the system from the asymptotics of exp(tQ)x;
    ``not_stable`` when Q is not Hurwitz."""
    asym = extract_asymptotics(effective_drift(sys), sys.x)
    return cutoff_time_from_rate(asym.q, asym.ell, eps, w)


def profile_limit(sys: GBMSystem, rho: float, w: float = 1.0) -> float:
    """lim_{eps -> 0} E|X_{t_eps + rho w}(x)|^2 / eps^2 = (e^{-q rho w} |v|)^2.

    The value is the square of e^{-q rho w} |v|, matching the squared
    mean-square normalization.  Requires a diagonalizable A and a non-oscillating leading
    mode, otherwise the limit does not exist.
    """
    Q = effective_drift(sys)
    if not is_diagonalizable(sys.A):
        raise ToolkitError("not_diagonalizable", "profile limit requires diagonalizable A")
    asym = extract_asymptotics(Q, sys.x)
    if asym.ell != 1:
        raise ToolkitError("not_diagonalizable", "leading chain height exceeds 1")
    if any(abs(th) > 1e-9 * (1.0 + asym.q) for th in asym.thetas):
        raise ToolkitError("oscillatory_limit", "leading eigenvalues oscillate; no limit")
    v = np.sum(np.array(asym.vs), axis=0)
    if np.max(np.abs(v.imag)) > 1e-9 * (1.0 + np.max(np.abs(v.real))):
        raise ToolkitError("oscillatory_limit", "limit vector is not real")
    vnorm = float(np.linalg.norm(v.real))
    return (math.exp(-asym.q * rho * w) * vnorm) ** 2
