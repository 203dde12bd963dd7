"""Decide which hypothesis set a coefficient pair (A, B) satisfies.

Four bracket-based regimes are tested with one relative tolerance:
normality of B, commutativity of A and B, normality of C = [A, B], and
first-order non-commutativity (C nonzero but commuting with A and B).
The report also carries a nilpotence witness: whenever C commutes
with A (or B), all power traces of C vanish, so C is nilpotent; a
nonzero nilpotent C can never be normal, which makes the combined
normality + first-order hypothesis set infeasible.  The report states
this tension explicitly rather than hiding it.

This is the one module that tests the pair's brackets, against the one
threshold tol (1 + |A|_F)(1 + |B|_F) of ``check_pair``; its report holds
every regime gate (``HypothesisReport.require``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ToolkitError
from .linalg_core import DEFAULT_TOL, as_matrix, commutator, fro
from .system import GBMSystem

# Multiple of the base threshold a bracket norm must exceed to certify "nonzero".
NONZERO_MARGIN = 10.0


@dataclass(frozen=True)
class HypothesisReport:
    normal_B: bool
    commutative: bool
    normal_C: bool
    first_order: bool
    residuals: dict[str, float]
    nilpotence_witness: list[float]
    hypothesis_set_infeasible: bool
    threshold: float
    # the pair's bracket [A, B], read-only
    C: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def bracket_BA(self) -> np.ndarray:
        """C = [B, A] of the paper, read-only: 0.0 - [A, B] is +0.0 wherever BA - AB is."""
        BA = 0.0 - self.C
        BA.setflags(write=False)
        return BA

    def require(self, use: str) -> None:
        """Refuse `use` of the pair outside its regime: a closed form with
        ``hypotheses_violated``, an exact sampler with ``representation_invalid``."""
        holds = {
            "commutative": self.normal_B and self.commutative,
            "modes": self.normal_B and (self.commutative or self.first_order),
            "exact_commutative": _vanish(self.residuals, self.threshold, "commute_A_B"),
            "exact_first_order": _vanish(self.residuals, self.threshold, "commute_A_C", "commute_B_C"),
        }[use]
        if not holds:
            code = "representation_invalid" if use.startswith("exact_") else "hypotheses_violated"
            raise ToolkitError(code, f"the pair is outside the regime of {use}")

    def to_dict(self) -> dict:
        return {
            "normal_B": self.normal_B,
            "commutative": self.commutative,
            "normal_C": self.normal_C,
            "first_order": self.first_order,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "nilpotence_witness": [float(v) for v in self.nilpotence_witness],
            "hypothesis_set_infeasible": self.hypothesis_set_infeasible,
            "threshold": float(self.threshold),
        }


def _vanish(res: dict[str, float], thr: float, *keys: str) -> bool:
    """Every residual of `keys` at most the threshold: the one rule of the booleans and the gates."""
    return all(res[k] <= thr for k in keys)


def check_pair(A, B, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Hypothesis report for a bare (A, B) pair, read off one C = [A, B]."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = commutator(A, B)
    C.setflags(write=False)
    res = {
        "normal_B": fro(commutator(B, B.T)),
        "commute_A_B": fro(C),
        "commute_A_Bstar": fro(commutator(A, B.T)),
        "normal_C": fro(commutator(C, C.T)),
        "commute_A_C": fro(commutator(A, C)),
        "commute_A_Cstar": fro(commutator(A, C.T)),
        "commute_B_C": fro(commutator(B, C)),
        "commute_B_Cstar": fro(commutator(B, C.T)),
    }
    thr = tol * (1.0 + fro(A)) * (1.0 + fro(B))

    normal_B = _vanish(res, thr, "normal_B")
    commutative = _vanish(res, thr, "commute_A_B", "commute_A_Bstar")
    normal_C = _vanish(res, thr, "normal_C")
    double_brackets_vanish = _vanish(res, thr, "commute_A_C", "commute_A_Cstar", "commute_B_C", "commute_B_Cstar")
    # "nonzero" needs a margin in floating point
    c_nonzero = res["commute_A_B"] > NONZERO_MARGIN * thr
    cstar_nonzero = res["commute_A_Bstar"] > NONZERO_MARGIN * thr
    first_order = c_nonzero and cstar_nonzero and double_brackets_vanish

    # trace(C^k), k = 1..d
    witness, P = [], np.eye(C.shape[0])
    for _ in range(C.shape[0]):
        P = P @ C
        witness.append(float(np.trace(P)))
    # C commuting with A (or B) forces all power traces of C to vanish, hence
    # C nilpotent; normality would then force C = 0, contradicting |C| > 0.
    infeasible = c_nonzero and (_vanish(res, thr, "commute_A_C") or _vanish(res, thr, "commute_B_C"))

    return HypothesisReport(
        normal_B=normal_B,
        commutative=commutative,
        normal_C=normal_C,
        first_order=first_order,
        residuals=res,
        nilpotence_witness=witness,
        hypothesis_set_infeasible=infeasible,
        threshold=thr,
        C=C,
    )


def check_hypotheses(sys: GBMSystem) -> HypothesisReport:
    """The report of a system's pair at its tolerance, built once and held by the system."""
    return sys.hypotheses

