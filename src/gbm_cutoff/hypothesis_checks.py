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
threshold tol (1 + |A|_F)(1 + |B|_F) of ``check_pair``; every regime gate
(commutative drift, first-order modes, exact samplers) reads its report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def bracket_residuals(A, B) -> dict[str, float]:
    """Frobenius norms of every hypothesis-defining bracket."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = commutator(A, B)
    return {
        "normal_B": fro(commutator(B, B.T)),
        "commute_A_B": fro(C),
        "commute_A_Bstar": fro(commutator(A, B.T)),
        "normal_C": fro(commutator(C, C.T)),
        "commute_A_C": fro(commutator(A, C)),
        "commute_A_Cstar": fro(commutator(A, C.T)),
        "commute_B_C": fro(commutator(B, C)),
        "commute_B_Cstar": fro(commutator(B, C.T)),
    }


def check_pair(A, B, tol: float = DEFAULT_TOL) -> HypothesisReport:
    """Hypothesis report for a bare (A, B) pair."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    res = bracket_residuals(A, B)
    thr = tol * (1.0 + fro(A)) * (1.0 + fro(B))

    normal_B = res["normal_B"] <= thr
    commutative = res["commute_A_B"] <= thr and res["commute_A_Bstar"] <= thr
    normal_C = res["normal_C"] <= thr
    double_brackets_vanish = all(
        res[k] <= thr
        for k in ("commute_A_C", "commute_A_Cstar", "commute_B_C", "commute_B_Cstar")
    )
    # "nonzero" needs a margin in floating point
    c_nonzero = res["commute_A_B"] > NONZERO_MARGIN * thr
    cstar_nonzero = res["commute_A_Bstar"] > NONZERO_MARGIN * thr
    first_order = c_nonzero and cstar_nonzero and double_brackets_vanish

    witness = power_traces(A, B)
    # C commuting with A (or B) forces all power traces of C to vanish, hence
    # C nilpotent; normality would then force C = 0, contradicting |C| > 0.
    infeasible = c_nonzero and (res["commute_A_C"] <= thr or res["commute_B_C"] <= thr)

    return HypothesisReport(
        normal_B=normal_B,
        commutative=commutative,
        normal_C=normal_C,
        first_order=first_order,
        residuals=res,
        nilpotence_witness=witness,
        hypothesis_set_infeasible=infeasible,
        threshold=thr,
    )


def check_hypotheses(sys: GBMSystem) -> HypothesisReport:
    """The report of a system's pair at its tolerance, built once and held by the system."""
    return sys.hypotheses


def power_traces(A, B) -> list[float]:
    """trace(C^k) for C = [A, B], k = 1..d."""
    C = commutator(as_matrix(A, "A"), as_matrix(B, "B"))
    d = C.shape[0]
    out = []
    P = np.eye(d)
    for _ in range(d):
        P = P @ C
        out.append(float(np.trace(P)))
    return out
