import math

import numpy as np
import pytest

from gbm_cutoff.commutative_cutoff import (
    GBMSystem,
    cutoff_time_commutative,
    cutoff_time_from_rate,
    drift_mean_square,
    effective_drift,
    mean_square_commutative,
    profile_limit,
)
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.simulate import estimate_mean_square


def scalar_system():
    return GBMSystem(A=np.array([[-1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))


def diag_system():
    return GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.array([1.0, 1.0]))


class TestEffectiveDrift:
    def test_scalar(self):
        assert effective_drift(scalar_system())[0, 0] == pytest.approx(-0.75)

    def test_diagonal(self):
        # second entry: -3 + (0.5 + 0.5)^2 / 4 = -2.75
        Q = effective_drift(diag_system())
        assert np.allclose(Q, np.diag([-1.0, -2.75]))

    def test_skew_symmetric_B(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([[0.0, 0.3], [-0.3, 0.0]])
        # skew B is normal but does not commute with generic A; use A = -I
        A = -np.eye(2)
        sys = GBMSystem(A=A, B=B, x=np.array([1.0, 0.0]))
        assert np.allclose(effective_drift(sys), A)

    def test_hypotheses_violated(self):
        sys = GBMSystem(A=np.array([[-1.0, 1.0], [0.0, -1.0]]), B=np.diag([1.0, 2.0]), x=np.ones(2))
        with pytest.raises(ToolkitError) as err:
            effective_drift(sys)
        assert err.value.code == "hypotheses_violated"


class TestMeanSquare:
    def test_scalar_closed_form(self):
        assert mean_square_commutative(scalar_system(), 1.0) == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_time_zero(self):
        assert mean_square_commutative(diag_system(), 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_negative_time_rejected(self):
        sys = diag_system()
        for evaluate in (lambda t: mean_square_commutative(sys, t),
                         lambda t: drift_mean_square(effective_drift(sys), sys.x, t)):
            with pytest.raises(ToolkitError) as err:
                evaluate(-1.0)
            assert err.value.code == "bad_time"

    def test_2d_sum_of_modes(self):
        val = mean_square_commutative(diag_system(), 1.0)
        assert val == pytest.approx(math.exp(-2.0) + math.exp(-5.5), rel=1e-12)

    def test_noise_free_consistency(self):
        # B = 0 reduces to the deterministic flow exactly
        A = np.array([[-1.0, 0.5], [0.5, -2.0]])
        sys = GBMSystem(A=A, B=np.zeros((2, 2)), x=np.array([1.0, -1.0]))
        import scipy.linalg

        for t in (0.3, 1.0, 2.5):
            v = scipy.linalg.expm(t * A) @ sys.x
            assert mean_square_commutative(sys, t) == pytest.approx(float(v @ v), rel=1e-14)

    def test_monotone_nonincreasing_on_grid(self):
        for sys in (scalar_system(), diag_system()):
            ts = np.linspace(0.0, 10.0, 1000)
            vals = [mean_square_commutative(sys, t) for t in ts]
            assert all(v2 <= v1 * (1 + 1e-12) for v1, v2 in zip(vals, vals[1:]))

    def test_against_mc_oracle(self):
        for sys in (scalar_system(), diag_system()):
            for t in (0.5, 1.0, 2.0):
                est = estimate_mean_square(sys, t, "exact_commutative", n_paths=20000, seed=101)
                exact = mean_square_commutative(sys, t)
                assert abs(est.value - exact) <= 3.0 * est.std_error


class TestCutoffTime:
    def test_formula_substitution_ell1(self):
        sched = cutoff_time_from_rate(q=0.75, ell=1, eps=math.exp(-3.0))
        assert sched.t_eps == pytest.approx(4.0, rel=1e-14)
        assert sched.regime == "commutative"
        assert sched.w_eps == 1.0

    def test_formula_substitution_ell2(self):
        sched = cutoff_time_from_rate(q=1.0, ell=2, eps=math.exp(-10.0))
        assert sched.t_eps == pytest.approx(10.0 + math.log(10.0), rel=1e-12)

    def test_system_schedule_scalar(self):
        sched = cutoff_time_commutative(scalar_system(), math.exp(-8.0))
        assert sched.t_eps == pytest.approx(8.0 / 0.75, rel=1e-12)
        assert sched.a == pytest.approx(0.75, abs=1e-12)
        assert sched.ell_star == 0

    def test_jordan_system_schedule(self):
        # B = 0 keeps hypotheses; Q = A is a Jordan block, so ell = 2
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])
        sys = GBMSystem(A=A, B=np.zeros((2, 2)), x=np.array([0.0, 1.0]))
        sched = cutoff_time_commutative(sys, math.exp(-10.0))
        assert sched.t_eps == pytest.approx(10.0 + math.log(10.0), rel=1e-10)

    def test_threshold_property(self):
        sys = scalar_system()
        eps = math.exp(-8.0)
        sched = cutoff_time_commutative(sys, eps)
        above = mean_square_commutative(sys, sched.t_eps + 3.0) / eps**2
        below = mean_square_commutative(sys, sched.t_eps - 3.0) / eps**2
        assert above < 0.02
        assert below > 50.0

    def test_eps_domain(self):
        with pytest.raises(ToolkitError) as err:
            cutoff_time_commutative(scalar_system(), 0.5)
        assert err.value.code == "bad_epsilon"

    def test_unstable_rejected(self):
        sys = GBMSystem(A=np.array([[1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))
        with pytest.raises(ToolkitError) as err:
            cutoff_time_commutative(sys, math.exp(-8.0))
        assert err.value.code == "not_stable"

    def test_window_cutoff_limits(self):
        # normalized values converge in eps for fixed rho; extremes in rho
        sys = diag_system()
        w = 1.0
        for rho in (-2.0, 0.0, 2.0):
            vals = []
            for n in (4, 6, 8):
                eps = math.exp(-n)
                sched = cutoff_time_commutative(sys, eps, w)
                vals.append(mean_square_commutative(sys, sched.t_eps + rho * w) / eps**2)
            assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-9
        eps = math.exp(-8.0)
        sched = cutoff_time_commutative(sys, eps, w)
        big = mean_square_commutative(sys, sched.t_eps - 6.0) / eps**2
        small = mean_square_commutative(sys, sched.t_eps + 6.0) / eps**2
        assert big > 1e4 and small < 1e-4


class TestProfileLimit:
    def test_rho_zero_is_limit_vector_norm(self):
        assert profile_limit(scalar_system(), 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_scalar_decay_rate(self):
        for rho in (-1.0, 0.5, 2.0):
            for w in (0.5, 1.0):
                val = profile_limit(scalar_system(), rho, w)
                assert val == pytest.approx(math.exp(-1.5 * rho * w), rel=1e-12)

    def test_grid_convergence(self):
        sys = diag_system()
        for rho in (-1.0, 0.0, 1.5):
            lim = profile_limit(sys, rho)
            gaps = []
            for n in (4, 6, 8):
                eps = math.exp(-n)
                sched = cutoff_time_commutative(sys, eps)
                val = mean_square_commutative(sys, sched.t_eps + rho) / eps**2
                gaps.append(abs(val - lim))
            assert gaps[2] <= gaps[1] <= gaps[0] + 1e-12
            assert gaps[2] < 1e-2 * max(lim, 1.0)

    @pytest.mark.parametrize("rho", [-1000.0, -600.0])
    def test_limit_past_the_double_range_reads_inf(self, rho):
        # e^{-0.75 rho} overflows at rho = -1000, its square at rho = -600
        assert profile_limit(scalar_system(), rho) == math.inf

    def test_limit_near_the_double_range_keeps_its_bits(self):
        assert profile_limit(scalar_system(), -470.0) == math.exp(-0.75 * -470.0) ** 2

    def test_jordan_a_rejected(self):
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])
        sys = GBMSystem(A=A, B=np.zeros((2, 2)), x=np.array([0.0, 1.0]))
        with pytest.raises(ToolkitError) as err:
            profile_limit(sys, 0.0)
        assert err.value.code == "not_diagonalizable"

    def test_oscillatory_leading_mode_rejected(self):
        A = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        sys = GBMSystem(A=A, B=np.zeros((2, 2)), x=np.array([1.0, 0.0]))
        with pytest.raises(ToolkitError) as err:
            profile_limit(sys, 0.0)
        assert err.value.code == "oscillatory_limit"
