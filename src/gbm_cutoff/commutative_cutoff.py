"""Commutative-regime analysis: effective drift, closed-form mean square,
cutoff time scale and the profile limit.

With B normal and commuting with A, the mean square collapses to
|exp(tQ)x|^2 for the effective drift Q = A + (B + B*)^2 / 4, which equals
the squared Wasserstein-2 distance of X_t(x) to the Dirac mass at zero.
The cutoff time scale follows from the spectral asymptotics of exp(tQ)x.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from .cubic_solver import CutoffSchedule, _check_cutoff_eps
from .errors import ToolkitError
from .hypothesis_checks import check_hypotheses
from .linalg_core import as_time
from .spectral_asymptotics import _read_decay, _Spectrum, _squared_norm, extract_asymptotics, is_diagonalizable
from .system import GBMSystem

def effective_drift(sys: GBMSystem) -> np.ndarray:
    """Q = A + (B + B*)^2 / 4; ``hypotheses_violated`` unless B is normal
    and commutes with A.

    This is the regime's one hypothesis check.  Q depends on the pair
    alone, so the mean square at every t (``drift_evaluator``) and the
    schedule at every eps (``cutoff_time_from_rate`` on the asymptotics of
    exp(tQ)x) come from one checked drift.  Callers test stability
    separately.
    """
    check_hypotheses(sys).require("commutative")
    S = sys.B + sys.B.T
    return sys.A + 0.25 * (S @ S)


def drift_evaluator(Q: np.ndarray, x) -> Callable[[float], float]:
    """t -> |exp(tQ)x|^2 for an effective drift Q from ``effective_drift``.

    Q is factored once, here (``spectral_asymptotics._Spectrum``: one
    eigendecomposition and its split into blocks), after which each t costs
    O(d^2), so build the evaluator once and call it at every t.
    """
    return _drift_msq(_Spectrum(Q), x)


def _drift_msq(spectrum: _Spectrum, x) -> Callable[[float], float]:
    """``drift_evaluator`` off a record of Q that the caller also reads."""
    x = np.asarray(x, dtype=float)
    act = spectrum.exp_action(x[:, None], np.ones(1))

    def msq(t: float) -> float:
        if as_time(t) == 0:  # exp(0Q) = I, whatever the split's rounding
            return float(x @ x)
        return _squared_norm(*act(t))

    return msq


def drift_mean_square(Q: np.ndarray, x: np.ndarray, t: float) -> float:
    """|exp(tQ)x|^2 at one t: the one-shot view of ``drift_evaluator``, with
    the same bits."""
    return drift_evaluator(Q, x)(t)


def mean_square_commutative(sys: GBMSystem, t: float) -> float:
    """E|X_t(x)|^2 = |exp(tQ)x|^2 (also the squared W2 distance to delta_0)."""
    as_time(t)  # before the drift's hypothesis check
    return drift_mean_square(effective_drift(sys), sys.x, t)


def cutoff_time_from_rate(q: float, ell: int, eps: float, w: float = 1.0) -> CutoffSchedule:
    """t_eps = |ln eps|/q + (ell - 1) ln|ln eps| / q with a constant window w."""
    _check_cutoff_eps(eps)
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
    """Cutoff schedule of the system from (q, ell) of exp(tQ)x, read off the
    record of Q as the CLI reads them; ``not_stable`` when Q is not Hurwitz."""
    q, ell, _ = _read_decay(_Spectrum(effective_drift(sys)), sys.x)
    return cutoff_time_from_rate(q, ell, eps, w)


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
    try:
        return (math.exp(-asym.q * rho * w) * vnorm) ** 2
    except OverflowError:  # the limit passes the double range
        return math.inf
