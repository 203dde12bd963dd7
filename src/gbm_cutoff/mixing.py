"""delta-mixing times by doubling plus ITP steps, plus the ratio checks
that connect them to the cutoff time scale.

tau_eps(delta) is the first time the normalized mean square
E|X_t(x)|^2 / eps^2 drops to delta.  The evaluator must be a closed-form
(noise-free) mean square: an MC estimate would break the infimum
definition.  Both tau(delta)/tau(1-delta) and tau(delta)/t_eps approach 1
as eps -> 0.

The search doubles t from 1 until the mean square is at or below the
threshold, then shrinks the last doubling step [a, b] by ITP steps
(Oliveira & Takahashi 2021) on ln msq - ln threshold, keeping
msq(a) > threshold >= msq(b), until b is the double after a; tau is b.
So tau is a crossing to the last bit of t, at any time scale, and the
first passage when the mean square never increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ToolkitError

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


def _first_crossing(msq: Callable[[float], float], threshold: float) -> float:
    """A crossing of threshold by msq: 0.0 if msq(0) <= threshold, else the
    double b = nextafter(a, inf) of a bracket msq(a) > threshold >= msq(b).

    The bracket is the first doubling step of t from 1 that ends at or below
    the threshold, shrunk by ITP steps on f = ln msq - ln threshold (kappa1 =
    0.1 / (b - a), kappa2 = 2, n0 = 1): regula falsi, truncated towards the
    midpoint, projected into the minmax disc of a width of half an ulp of b
    and, while the bracket is at least 4 ulps wide, kept 2 ulps inside it,
    so that an exact hit f(x) = 0 cannot pin the next point to b.  Narrower
    brackets are bisected."""
    m_a = msq(0.0)
    if m_a <= threshold:
        return 0.0
    a, b = 0.0, 1.0
    while (m_b := msq(b)) > threshold:
        a, b, m_a = b, 2.0 * b, m_b
        if b > T_CAP:
            raise ToolkitError("no_decay", f"mean square stays above target up to t = {T_CAP:g}")
    log_thr = math.log(threshold)
    f_a, f_b = _excess(m_a, log_thr), _excess(m_b, log_thr)
    # adjacent doubles when a = b / 2; below that, the disc ends in bisection
    width = 0.5 * math.ulp(b)
    n_max = math.ceil(math.log2((b - a) / width)) + 1
    kappa1 = 0.1 / (b - a)
    j = 0
    while (up := math.nextafter(a, math.inf)) < b:
        half = 0.5 * (a + b)
        lo, hi = math.nextafter(up, math.inf), math.nextafter(math.nextafter(b, 0.0), 0.0)
        x = half
        if lo <= hi:
            x_f = (f_b * a - f_a * b) / (f_b - f_a)
            if not a <= x_f <= b:  # NaN when msq(b) = 0
                x_f = half
            sigma = math.copysign(1.0, half - x_f)
            trunc = kappa1 * (b - a) ** 2
            x_t = x_f + sigma * trunc if trunc <= abs(half - x_f) else half
            r = max(0.5 * width * 2.0 ** (n_max - j) - 0.5 * (b - a), 0.0)
            x = min(max(x_t if abs(x_t - half) <= r else half - sigma * r, lo), hi)
        m = msq(x)
        if m <= threshold:
            b, f_b = x, _excess(m, log_thr)
        else:
            a, f_a = x, _excess(m, log_thr)
        j += 1
    return b


def mixing_time(
    msq: Callable[[float], float],
    eps: float,
    delta: float,
    t_ref: Optional[float] = None,
) -> MixingTimeResult:
    """tau_eps(delta): the crossing of delta eps^2 by msq that doubling plus
    ITP finds, to adjacent doubles; the first passage when msq never
    increases."""
    if not 0.0 < eps < 1.0:
        raise ToolkitError("bad_epsilon", "eps must lie in (0, 1)")
    if not 0.0 < delta < 1.0:
        raise ToolkitError("bad_delta", "delta must lie in (0, 1)")
    tau = _first_crossing(msq, delta * eps**2)
    tau_other = _first_crossing(msq, (1.0 - delta) * eps**2)
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
