"""delta-mixing times by doubling plus bisection, plus the ratio checks
that connect them to the cutoff time scale.

tau_eps(delta) is the first time the normalized mean square
E|X_t(x)|^2 / eps^2 drops to delta.  The evaluator must be a closed-form
(noise-free) mean square: an MC estimate would break the infimum
definition.  Both tau(delta)/tau(1-delta) and tau(delta)/t_eps approach 1
as eps -> 0.

The search doubles t until the mean square is at or below the threshold,
then bisects the last doubling step down to BRACKET_TOL.  A caller that
certifies the evaluator as non-increasing (for |exp(tQ)x|^2, the
logarithmic norm bound lambda_max(Q + Q^T) <= 0) lets the search first
shrink that step by ITP steps (Oliveira & Takahashi 2021) on
ln msq - ln threshold.  The bisection then evaluates only the midpoints
inside the shrunk bracket and reads every other decision off it, so tau
is the bisection's tau bit for bit, from under half the evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ToolkitError

# Absolute-plus-relative width of the final bisection bracket.
BRACKET_TOL = 1e-8
# Doubling search gives up past this horizon.
T_CAP = 1e6


@dataclass
class MixingTimeResult:
    delta: float
    eps: float
    tau: float
    t_ref: Optional[float]
    tau_over_t_ref: Optional[float]
    tau_ratio: float  # tau(delta) / tau(1 - delta)

    def to_dict(self) -> dict:
        out = {
            "delta": float(self.delta),
            "eps": float(self.eps),
            "tau": float(self.tau),
            "tau_ratio": float(self.tau_ratio),
        }
        if self.t_ref is not None:
            out["t_ref"] = float(self.t_ref)
            out["tau_over_t_ref"] = float(self.tau_over_t_ref)
        return out


def _excess(m: float, log_threshold: float) -> float:
    """ln m - ln threshold, -inf for m <= 0."""
    return (math.log(m) if m > 0.0 else -math.inf) - log_threshold


def _itp_shrink(
    msq: Callable[[float], float], threshold: float, a: float, m_a: float, b: float, m_b: float, width: float
) -> tuple[float, float]:
    """Shrink a bracket msq(a) > threshold >= msq(b) of a non-increasing msq
    to b - a <= width by ITP steps on f = ln msq - ln threshold (kappa1 =
    0.05 / (b - a), kappa2 = 2, n0 = 1): regula falsi, truncated towards the
    midpoint and projected into the minmax disc, so no more steps than
    bisection's count plus one."""
    log_thr = math.log(threshold)
    f_a, f_b = _excess(m_a, log_thr), _excess(m_b, log_thr)
    n_max = max(math.ceil(math.log2((b - a) / width)), 0) + 1
    kappa1 = 0.05 / (b - a)
    for j in range(n_max):
        if b - a <= width:
            break
        half = 0.5 * (a + b)
        x_f = (f_b * a - f_a * b) / (f_b - f_a)
        if not a < x_f < b:  # an infinite or NaN end value
            x_f = half
        sigma = math.copysign(1.0, half - x_f)
        trunc = kappa1 * (b - a) ** 2
        x_t = x_f + sigma * trunc if trunc <= abs(half - x_f) else half
        r = 0.5 * width * 2.0 ** (n_max - j) - 0.5 * (b - a)
        x = x_t if abs(x_t - half) <= r else half - sigma * r
        m = msq(x)
        if m <= threshold:
            b, f_b = x, _excess(m, log_thr)
        else:
            a, f_a = x, _excess(m, log_thr)
    return a, b


def _first_crossing(msq: Callable[[float], float], threshold: float, non_increasing: bool = False) -> float:
    """inf{t >= 0 : msq(t) <= threshold} for a non-increasing msq; with
    non_increasing, msq is certified so, and the bracket (a, b) with
    msq(a) > threshold >= msq(b) is shrunk before the bisection."""
    m_lo = msq(0.0)
    if m_lo <= threshold:
        return 0.0
    lo, hi = 0.0, 1.0
    while (m_hi := msq(hi)) > threshold:
        lo, hi, m_lo = hi, 2.0 * hi, m_hi
        if hi > T_CAP:
            raise ToolkitError("no_decay", f"mean square stays above target up to t = {T_CAP:g}")
    a, b = lo, hi
    if non_increasing:
        a, b = _itp_shrink(msq, threshold, a, m_lo, b, m_hi, 0.25 * BRACKET_TOL * (1.0 + lo))
    while hi - lo > BRACKET_TOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        # outside (a, b) the certified bracket decides: msq(mid) >= msq(a)
        # for mid <= a, msq(mid) <= msq(b) for mid >= b
        below = msq(mid) <= threshold if a < mid < b else mid >= b
        if below:
            hi = mid
        else:
            lo = mid
    return hi


def mixing_time(
    msq: Callable[[float], float],
    eps: float,
    delta: float,
    t_ref: Optional[float] = None,
    *,
    non_increasing: bool = False,
) -> MixingTimeResult:
    """tau_eps(delta) by doubling plus bisection on a monotone evaluator.

    non_increasing certifies that msq never increases; the search then
    shrinks its bracket first and returns the same tau in fewer
    evaluations.  Leave it False unless the certificate holds."""
    if not 0.0 < eps < 1.0:
        raise ToolkitError("bad_epsilon", "eps must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ToolkitError("bad_delta", "delta must lie in (0, 1)")
    tau = _first_crossing(msq, delta * eps**2, non_increasing)
    tau_other = _first_crossing(msq, (1.0 - delta) * eps**2, non_increasing)
    if tau_other > 0.0:
        ratio = tau / tau_other
    else:
        ratio = 1.0 if tau == 0.0 else math.inf
    return MixingTimeResult(
        delta=delta,
        eps=eps,
        tau=tau,
        t_ref=t_ref,
        tau_over_t_ref=None if t_ref is None else tau / t_ref,
        tau_ratio=ratio,
    )


def mixing_ratio_check(
    t_eps_of: Callable[[float], float],
    msq: Callable[[float], float],
    eps_list,
    delta: float,
) -> list[MixingTimeResult]:
    """Both mixing ratios for each eps; they trend to 1 as eps shrinks."""
    if not 0.0 < delta <= 0.5:
        raise ToolkitError("bad_delta", "delta must lie in (0, 1/2]")
    return [mixing_time(msq, eps, delta, t_ref=t_eps_of(eps)) for eps in eps_list]
