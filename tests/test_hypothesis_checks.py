import dataclasses

import numpy as np
import pytest

from gbm_cutoff.commutative_cutoff import effective_drift
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.hypothesis_checks import check_hypotheses, check_pair
from gbm_cutoff.noncommutative_cutoff import mode_decomposition
from gbm_cutoff.simulate import estimate_mean_squares, sample_exact_first_order
from gbm_cutoff.system import GBMSystem


def elementary(i, j, d=3):
    E = np.zeros((d, d))
    E[i - 1, j - 1] = 1.0
    return E


# A = E23, B = E12: C = [A, B] = -E13 is nilpotent and non-normal, and the
# non-adjoint double brackets [A, C], [B, C] vanish.
HEISENBERG = (elementary(2, 3), elementary(1, 2))


class TestCheckHypotheses:
    def test_system_holds_its_report(self):
        sys = GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.ones(2))
        rep = check_hypotheses(sys)
        assert rep is check_hypotheses(sys) is sys.hypotheses
        assert rep == check_pair(sys.A, sys.B, sys.tol)
        # a system and its report are immutable, so the held report stays the pair's
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.B = np.eye(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.commutative = False

    def test_commuting_diagonal_pair(self):
        rep = check_pair(np.diag([-2.0, -3.0]), np.diag([1.0, 0.5]))
        assert rep.normal_B and rep.commutative
        assert not rep.first_order

    def test_noncommuting_jordan_pair(self):
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])
        rep = check_pair(A, np.diag([1.0, 2.0]))
        assert not rep.commutative
        # [A, B] = [[0, 1], [0, 0]] has Frobenius norm 1
        assert rep.residuals["commute_A_B"] == pytest.approx(1.0)

    def test_heisenberg_pair_brackets(self):
        A, B = HEISENBERG
        rep = check_pair(A, B)
        C = A @ B - B @ A
        assert np.array_equal(C, -elementary(1, 3))
        assert rep.residuals["commute_A_C"] == 0.0
        assert rep.residuals["commute_B_C"] == 0.0
        assert not rep.normal_C
        # adjoint part of the first-order hypothesis fails
        assert rep.residuals["commute_A_Cstar"] > 0.1
        assert not rep.first_order

    def test_infeasibility_diagnostic_fires_on_heisenberg(self):
        rep = check_pair(*HEISENBERG)
        assert rep.hypothesis_set_infeasible
        assert max(abs(v) for v in rep.nilpotence_witness) == 0.0

    def test_infeasibility_silent_when_commuting(self):
        rep = check_pair(np.diag([-2.0, -3.0]), np.diag([1.0, 0.5]))
        assert not rep.hypothesis_set_infeasible

    def test_booleans_reproducible_from_residuals(self):
        for A, B in [HEISENBERG, (np.diag([-2.0, -3.0]), np.diag([1.0, 0.5]))]:
            rep = check_pair(A, B)
            thr = rep.threshold
            res = rep.residuals
            assert rep.normal_B == (res["normal_B"] <= thr)
            assert rep.commutative == (
                res["commute_A_B"] <= thr and res["commute_A_Bstar"] <= thr
            )
            assert rep.normal_C == (res["normal_C"] <= thr)

    def test_dim_mismatch(self):
        with pytest.raises(ToolkitError) as err:
            check_pair(np.eye(2), np.eye(3))
        assert err.value.code == "dim_mismatch"

    def test_scaling_invariance_of_booleans(self):
        rng = np.random.default_rng(21)
        pairs = [
            HEISENBERG,
            (np.diag([-2.0, -3.0]), np.diag([1.0, 0.5])),
            (rng.standard_normal((3, 3)), rng.standard_normal((3, 3))),
        ]
        for A, B in pairs:
            base = check_pair(A, B)
            for c in (1e-2, 0.5, 3.0, 1e2):
                scaled = check_pair(c * A, c * B)
                assert scaled.normal_B == base.normal_B
                assert scaled.commutative == base.commutative
                assert scaled.normal_C == base.normal_C
                assert scaled.first_order == base.first_order

    def test_report_serializes(self):
        d = check_pair(*HEISENBERG).to_dict()
        assert set(d) >= {
            "normal_B", "commutative", "normal_C", "first_order",
            "residuals", "nilpotence_witness", "hypothesis_set_infeasible",
        }


class TestNilpotenceDiagnostic:
    def test_heisenberg_traces_vanish(self):
        A, B = HEISENBERG
        sys = GBMSystem(A=A, B=B, x=np.array([0.0, 0.0, 1.0]))
        assert check_hypotheses(sys).nilpotence_witness == [0.0, 0.0, 0.0]

    def test_commuting_pair_traces_vanish(self):
        sys = GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.array([1.0, 1.0]))
        assert check_hypotheses(sys).nilpotence_witness == [0.0, 0.0]

    def test_generic_pair_has_nonzero_power_trace(self):
        rng = np.random.default_rng(22)
        A, B = rng.standard_normal((2, 4, 4))
        sys = GBMSystem(A=A, B=B, x=np.ones(4))
        traces = check_hypotheses(sys).nilpotence_witness
        assert traces[0] == pytest.approx(0.0, abs=1e-12)  # trace[A,B] = 0 always
        assert abs(traces[1]) > 1e-3  # trace(C^2) generically nonzero

    def test_power_trace_bound_under_first_order_brackets(self):
        # pairs whose C commutes with A: power traces stay below the bound
        A, B = HEISENBERG
        rep = check_pair(A, B)
        C_norm = rep.residuals["commute_A_B"]
        d = 3
        tol = 1e-10
        assert C_norm > 10 * rep.threshold
        bound = d * tol * (1.0 + C_norm) ** d
        sys = GBMSystem(A=A, B=B, x=np.array([0.0, 0.0, 1.0]))
        assert max(abs(v) for v in check_hypotheses(sys).nilpotence_witness) <= bound

    def test_check_hypotheses_accepts_system(self):
        sys = GBMSystem(A=np.diag([-1.0]), B=np.diag([0.5]), x=np.array([1.0]))
        rep = check_hypotheses(sys)
        assert rep.commutative and rep.normal_B


# One pair inside and one outside each regime gate: a diagonal commuting pair;
# A = -I with the non-normal B = E12, which commute; the Heisenberg pair, first
# order in [A, C] = [B, C] = 0 though B is not normal; and a symmetric B
# against a diagonal A, neither commutative nor first order.
GATE_PAIRS = {
    "diagonal": (np.diag([-1.0, -2.0]), np.diag([0.5, 0.3])),
    "non-normal-B": (-np.eye(2), elementary(1, 2, d=2)),
    "heisenberg": HEISENBERG,
    "neither": (np.diag([-1.0, -2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])),
}
CLOSED, SAMPLER = "hypotheses_violated", "representation_invalid"
# use -> the code each pair is refused with, in GATE_PAIRS order; None: it passes
GATE_TABLE = {
    "commutative": (None, CLOSED, CLOSED, CLOSED),
    "modes": (None, CLOSED, CLOSED, CLOSED),
    "exact_commutative": (None, None, SAMPLER, SAMPLER),
    "exact_first_order": (None, None, None, SAMPLER),
}


def expected(use, pair):
    return GATE_TABLE[use][list(GATE_PAIRS).index(pair)]


def refusal(call):
    """The code `call` raises, or None."""
    try:
        call()
    except ToolkitError as err:
        return err.code
    return None


class TestRegimeGates:
    @pytest.mark.parametrize("use", GATE_TABLE)
    @pytest.mark.parametrize("pair", GATE_PAIRS)
    def test_gate_table(self, use, pair):
        rep = check_pair(*GATE_PAIRS[pair])
        assert refusal(lambda: rep.require(use)) == expected(use, pair)

    @pytest.mark.parametrize("pair", GATE_PAIRS)
    def test_call_sites_refuse_as_the_table(self, pair):
        A, B = GATE_PAIRS[pair]
        sys = GBMSystem(A=A, B=B, x=np.ones(len(A)))
        assert refusal(lambda: effective_drift(sys)) == expected("commutative", pair)
        if pair != "heisenberg":  # whose step III residual is refused ahead of the gate
            assert refusal(lambda: mode_decomposition(sys)) == expected("modes", pair)
        for scheme in ("exact_commutative", "exact_first_order"):
            assert refusal(lambda: estimate_mean_squares(sys, [0.5], scheme, 100)) == expected(scheme, pair)
        assert refusal(lambda: sample_exact_first_order(sys, 0.5, 0, 0)) == expected("exact_first_order", pair)

    @pytest.mark.parametrize("pair", GATE_PAIRS)
    def test_bracket_BA_is_the_paper_C_with_its_zeros(self, pair):
        A, B = GATE_PAIRS[pair]
        rep, BA = check_pair(A, B), B @ A - A @ B
        assert np.array_equal(rep.bracket_BA, BA)
        assert np.array_equal(np.signbit(rep.bracket_BA), np.signbit(BA))  # +0.0, not -C's -0.0
        assert rep.bracket_BA is rep.bracket_BA and not rep.bracket_BA.flags.writeable
