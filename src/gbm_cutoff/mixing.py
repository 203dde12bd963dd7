"""delta-mixing times by doubling plus ITP steps, plus the ratio checks
that connect them to the cutoff time scale.

tau_eps(delta) is the first time the normalized mean square
E|X_t(x)|^2 / eps^2 drops to delta.  The evaluator must be a closed-form
(noise-free) mean square: an MC estimate would break the infimum
definition.  Both tau(delta)/tau(1-delta) and tau(delta)/t_eps approach 1
as eps -> 0.

The search doubles t from 1 until the mean square is at or below the
threshold, then shrinks the last doubling step by ITP steps
(`cubic_solver.shrink_sign_change`) to a bracket of adjacent doubles; tau
is its upper end.  So tau is a crossing to the last bit of t, at any time
scale, and the first passage when the mean square never increases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .cubic_solver import shrink_sign_change
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


def _is_delta(delta) -> bool:
    """delta lies in (0, 1), the range of a mixing time's level."""
    return 0.0 < delta < 1.0


def _first_crossing(msq: Callable[[float], float], threshold: float) -> float:
    """The crossing of threshold > 0 by msq that the module's search finds:
    0.0 if msq(0) <= threshold, else b of the final bracket, msq(a) >
    threshold >= msq(b).  Its ITP steps run on ln msq - ln threshold, which
    can round to 0 while msq(x) > threshold, so sides are decided on msq."""
    log_thr = math.log(threshold)

    def point(x):
        m = msq(x)
        return (math.log(m) if m > 0.0 else -math.inf) - log_thr, m <= threshold

    f_a, below = point(0.0)
    if below:
        return 0.0
    a, b = 0.0, 1.0
    while not (end := point(b))[1]:
        a, b, f_a = b, 2.0 * b, end[0]
        if b > T_CAP:
            raise ToolkitError("no_decay", f"mean square stays above target up to t = {T_CAP:g}")
    return shrink_sign_change(point, a, b, f_a, end[0])[2]


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
    if not _is_delta(delta):
        raise ToolkitError("bad_delta", "delta must lie in (0, 1)")
    thresholds = delta * eps**2, (1.0 - delta) * eps**2
    if not min(thresholds) > 0.0:
        raise ToolkitError("bad_epsilon", "delta eps^2 underflows to 0")
    tau, tau_other = (_first_crossing(msq, threshold) for threshold in thresholds)
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
