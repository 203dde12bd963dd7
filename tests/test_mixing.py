import math

import numpy as np
import pytest

from gbm_cutoff.commutative_cutoff import cutoff_time_commutative, drift_evaluator, mean_square_commutative
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.mixing import _first_crossing, mixing_ratio_check, mixing_time
from gbm_cutoff.noncommutative_cutoff import (
    cutoff_schedule_first_order,
    mean_square_first_order,
    synthetic_mode_decomposition,
)
from gbm_cutoff.system import GBMSystem


def scalar_msq(t):
    """Closed form for the scalar system A = -1, B = 0.5: e^{-1.5 t}."""
    return math.exp(-1.5 * t)


def scalar_tau(eps, delta):
    """Exact mixing time: e^{-1.5 tau} = delta eps^2."""
    return (2.0 * abs(math.log(eps)) - math.log(delta)) / 1.5


class TestMixingTime:
    def test_scalar_closed_form(self):
        eps, delta = math.exp(-6.0), 0.5
        res = mixing_time(scalar_msq, eps, delta)
        assert res.tau == pytest.approx((12.0 + math.log(2.0)) / 1.5, abs=1e-6)
        assert res.tau == pytest.approx(8.4621, abs=1e-3)

    def test_zero_when_already_mixed(self):
        res = mixing_time(scalar_msq, 0.9, 0.99)
        # msq(0)/eps^2 = 1.234 > 0.99, so tau > 0; push delta above it
        res = mixing_time(scalar_msq, 0.9, 0.5)
        assert res.tau > 0
        res = mixing_time(lambda t: math.exp(-t), 0.5, 0.9)
        # msq(0)/eps^2 = 4 > 0.9 still; use eps > 1 is invalid, so scale msq
        res = mixing_time(lambda t: 0.1 * math.exp(-t), 0.5, 0.9)
        assert res.tau == 0.0

    def test_bracket_certificate(self):
        eps, delta = math.exp(-8.0), 0.3
        res = mixing_time(scalar_msq, eps, delta)
        h = 1e-8 * (1.0 + res.tau)
        assert scalar_msq(res.tau) / eps**2 <= delta
        assert scalar_msq(res.tau - h) / eps**2 > delta

    def test_monotone_in_delta(self):
        eps = math.exp(-5.0)
        taus = [mixing_time(scalar_msq, eps, d).tau for d in (0.1, 0.3, 0.5, 0.9)]
        assert all(t1 >= t2 for t1, t2 in zip(taus, taus[1:]))

    def test_system_evaluator(self):
        sys = GBMSystem(A=np.array([[-1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))
        eps, delta = math.exp(-6.0), 0.5
        res = mixing_time(lambda t: mean_square_commutative(sys, t), eps, delta)
        assert res.tau == pytest.approx(scalar_tau(eps, delta), abs=1e-6)

    def test_synthetic_first_order_tau_near_cardano(self):
        dec = synthetic_mode_decomposition(
            alpha=np.diag([0.2, 0.4]),
            beta=np.diag([0.3, 0.1]),
            Gamma=np.diag([-0.6, -1.2]),
            A=np.diag([-1.0, -2.0]),
            x=np.array([1.0, 1.0]),
        )
        eps = math.exp(-15.0)
        sched = cutoff_schedule_first_order(dec, eps)
        res = mixing_time(lambda t: mean_square_first_order(dec, t), eps, 0.5)
        assert abs(res.tau - sched.t_eps) / sched.t_eps < 0.02

    def test_no_decay_detected(self):
        with pytest.raises(ToolkitError) as err:
            mixing_time(lambda t: 1.0, 0.1, 0.5)
        assert err.value.code == "no_decay"

    def test_domain_validation(self):
        with pytest.raises(ToolkitError):
            mixing_time(scalar_msq, 1.5, 0.5)
        with pytest.raises(ToolkitError):
            mixing_time(scalar_msq, 0.5, 0.0)


class TestMixingRatios:
    def test_delta_half_ratio_is_one(self):
        res = mixing_time(scalar_msq, math.exp(-10.0), 0.5)
        assert res.tau_ratio == pytest.approx(1.0, abs=1e-9)

    def test_scalar_ratio_bands(self):
        eps = math.exp(-20.0)
        res = mixing_time(scalar_msq, eps, 0.1)
        expected = scalar_tau(eps, 0.1) / scalar_tau(eps, 0.9)
        assert res.tau_ratio == pytest.approx(expected, abs=1e-6)
        assert 0.9 <= res.tau_ratio <= 1.1

    def test_ratio_to_cutoff_time_tightens(self):
        sys = GBMSystem(A=np.array([[-1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))
        msq = lambda t: mean_square_commutative(sys, t)
        t_eps_of = lambda eps: cutoff_time_commutative(sys, eps).t_eps
        rows = mixing_ratio_check(t_eps_of, msq, [math.exp(-n) for n in (5, 10, 20, 30)], 0.1)
        devs_ref = [abs(r.tau_over_t_ref - 1.0) for r in rows]
        devs_ratio = [abs(r.tau_ratio - 1.0) for r in rows]
        assert all(d1 >= d2 for d1, d2 in zip(devs_ref, devs_ref[1:]))
        assert all(d1 >= d2 for d1, d2 in zip(devs_ratio, devs_ratio[1:]))
        assert 0.95 <= rows[-1].tau_over_t_ref <= 1.05

    def test_delta_domain(self):
        with pytest.raises(ToolkitError) as err:
            mixing_ratio_check(lambda e: 1.0, scalar_msq, [0.1], 0.7)
        assert err.value.code == "bad_delta"

    def test_serialization(self):
        res = mixing_time(scalar_msq, math.exp(-6.0), 0.5, t_ref=8.0)
        d = res.to_dict()
        assert {"delta", "eps", "tau", "tau_ratio", "t_ref", "tau_over_t_ref"} <= set(d)


def spied(msq):
    """msq and the list of the times it is evaluated at."""
    ts = []

    def spy(t):
        ts.append(t)
        return msq(t)

    return spy, ts


def _symmetric_q(d, seed):
    rng = np.random.default_rng(seed)
    O = np.linalg.qr(rng.standard_normal((d, d)))[0]
    return O @ np.diag(-rng.uniform(0.2, 2.0, d)) @ O.T, rng.standard_normal(d)


SYMMETRIC_Q, SYMMETRIC_X = _symmetric_q(8, 16)
JORDAN = (-0.8, 1.0, (0.3, 1.0))


def jordan_msq(t, mu=JORDAN[0], kappa=JORDAN[1], x=JORDAN[2]):
    """|exp(tQ)x|^2 for Q = [[mu, kappa], [0, mu]]."""
    return math.exp(2.0 * mu * t) * ((x[0] + kappa * t * x[1]) ** 2 + x[1] ** 2)


def scaled(name, s):
    """The mean square of the named evaluator for the drift s Q."""
    if name == "scalar":
        return lambda t: math.exp(-1.5 * s * t)
    if name == "jordan":
        return lambda t: jordan_msq(t, JORDAN[0] * s, JORDAN[1] * s)
    return drift_evaluator(s * SYMMETRIC_Q, SYMMETRIC_X)


EVALUATORS = {name: scaled(name, 1.0) for name in ("scalar", "jordan", "symmetric-d8")}
GRID = [(math.exp(-k), delta) for k in range(3, 31) for delta in (0.1, 0.5, 0.9)]
THRESHOLDS = [level * eps**2 for eps, delta in GRID for level in (delta, 1.0 - delta)]
# relative error of tau against the 40-digit crossing, largest over GRID and
# both thresholds: 1.9e-16 (scalar), 2.8e-16 (jordan) and 0.9e-15 to 1.9e-15
# (symmetric-d8, under the SkylakeX, Haswell and Prescott OpenBLAS kernels),
# where the closed form itself errs 1.1e-14 relative at t = 11.4
TAU_REL_BOUND = 4e-15


def mp_evaluators(mp):
    """The three mean squares at mpmath's working precision, from the same
    float parameters."""
    E, V = mp.eig(mp.matrix(SYMMETRIC_Q.tolist()))
    c = mp.lu_solve(V, mp.matrix(SYMMETRIC_X.tolist()))
    mu, kappa, (x0, x1) = (mp.mpf(JORDAN[0]), mp.mpf(JORDAN[1]), map(mp.mpf, JORDAN[2]))

    def symmetric(t):
        v = V * mp.matrix([c[j] * mp.exp(t * E[j]) for j in range(len(E))])
        return mp.fsum(mp.re(vi) ** 2 for vi in v)

    return {
        "scalar": lambda t: mp.exp(mp.mpf(-1.5) * t),
        "jordan": lambda t: mp.exp(2 * mu * t) * ((x0 + kappa * t * x1) ** 2 + x1**2),
        "symmetric-d8": symmetric,
    }


class TestAdjacentDoubles:
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_tau_closes_a_bracket_of_adjacent_doubles(self, name):
        msq, counts = EVALUATORS[name], []
        for threshold in THRESHOLDS:
            spy, ts = spied(msq)
            tau = _first_crossing(spy, threshold)
            assert msq(math.nextafter(tau, 0.0)) > threshold >= msq(tau)
            counts.append(len(ts))
        # bisection would take 52 steps after the doubling; ITP on ln msq
        # averaged 16.6 (scalar), 16.9 (jordan) and 17.7 (d8) evaluations
        assert sum(counts) / len(counts) <= 18.0

    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_tau_against_the_40_digit_crossing(self, name):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            exact = mp_evaluators(mp)[name]
            for threshold in THRESHOLDS:
                tau = _first_crossing(EVALUATORS[name], threshold)
                log_thr = mp.log(mp.mpf(threshold))
                root = mp.findroot(lambda t: mp.log(exact(t)) - log_thr, mp.mpf(tau))
                assert abs(tau - root) <= TAU_REL_BOUND * root, (threshold, tau)

    @pytest.mark.parametrize("k", [20, 40])
    @pytest.mark.parametrize("name", sorted(EVALUATORS))
    def test_tau_scales_with_the_drift(self, name, k):
        # tau(s Q) = tau(Q) / s; a search that stops at an absolute width
        # loses the digits of a fast drift's tau
        s = 2.0**k
        fast = scaled(name, s)
        for eps, delta in GRID:
            res, fast_res = mixing_time(EVALUATORS[name], eps, delta), mixing_time(fast, eps, delta)
            assert fast_res.tau * s == pytest.approx(res.tau, rel=TAU_REL_BOUND, abs=0.0)
            assert fast_res.tau_ratio == pytest.approx(res.tau_ratio, rel=2 * TAU_REL_BOUND, abs=0.0)

    def test_non_monotone_mean_square_keeps_the_bracket(self):
        # lambda_max(Q + Q^T) = 28.7: the mean square rises and falls, and
        # crosses the level at about 9.39, 10.40, 11.39, 12.35 and 13.20
        msq = drift_evaluator(np.array([[-0.5, 0.3], [-30.0, -0.5]]), np.array([1.0, 0.0]))
        threshold = 0.5 * math.exp(-8.0)
        spy, ts = spied(msq)
        tau = _first_crossing(spy, threshold)
        assert msq(math.nextafter(tau, 0.0)) > threshold >= msq(tau)
        assert 8.0 < tau < 16.0
        # msq(0), doubling to [8, 16], then at most bisection's 52 steps plus one
        assert len(ts) <= 1 + 5 + 52 + 1
