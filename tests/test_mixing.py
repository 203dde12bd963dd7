import math

import numpy as np
import pytest

from gbm_cutoff.commutative_cutoff import cutoff_time_commutative, drift_mean_square, mean_square_commutative
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.mixing import BRACKET_TOL, T_CAP, _first_crossing, mixing_ratio_check, mixing_time
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


def reference_crossing(msq, threshold):
    """The search before the certified shrink: doubling, then bisection."""
    if msq(0.0) <= threshold:
        return 0.0
    lo, hi = 0.0, 1.0
    while msq(hi) > threshold:
        lo, hi = hi, 2.0 * hi
        if hi > T_CAP:
            raise ToolkitError("no_decay", f"mean square stays above target up to t = {T_CAP:g}")
    while hi - lo > BRACKET_TOL * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if msq(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


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


def jordan_msq(t, mu=-0.8, kappa=1.0, x=(0.3, 1.0)):
    """|exp(tQ)x|^2 for Q = [[mu, kappa], [0, mu]]."""
    return math.exp(2.0 * mu * t) * ((x[0] + kappa * t * x[1]) ** 2 + x[1] ** 2)


# Q + Q^T < 0 for each: -1.5 for the scalar, lambda_max = 2 mu + |kappa| = -0.6
# for the Jordan block, and 2 Q for the symmetric Q
CERTIFIED = {
    "scalar": scalar_msq,
    "jordan": jordan_msq,
    "symmetric-d8": lambda t: drift_mean_square(SYMMETRIC_Q, SYMMETRIC_X, t),
}
GRID = [(math.exp(-k), delta) for k in range(3, 31) for delta in (0.1, 0.5, 0.9)]


class TestCertifiedSearch:
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_same_tau_as_the_bisection(self, name):
        msq = CERTIFIED[name]
        for eps, delta in GRID:
            tau = reference_crossing(msq, delta * eps**2)
            other = reference_crossing(msq, (1.0 - delta) * eps**2)
            res = mixing_time(msq, eps, delta, non_increasing=True)
            assert (res.tau, res.tau_ratio) == (tau, tau / other)

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_evaluation_counts(self, name):
        counts, ref_counts = [], []
        for eps, delta in GRID:
            for threshold in (delta * eps**2, (1.0 - delta) * eps**2):
                spy, ts = spied(CERTIFIED[name])
                ref_spy, ref_ts = spied(CERTIFIED[name])
                assert _first_crossing(spy, threshold, True) == reference_crossing(ref_spy, threshold)
                assert len(ts) <= len(ref_ts) + 2
                counts.append(len(ts))
                ref_counts.append(len(ref_ts))
        assert sum(counts) <= 0.5 * sum(ref_counts)

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_uncertified_search_evaluates_the_bisection_points(self, name):
        for eps, delta in GRID[::7]:
            spy, ts = spied(CERTIFIED[name])
            ref_spy, ref_ts = spied(CERTIFIED[name])
            res = mixing_time(spy, eps, delta)
            tau = reference_crossing(ref_spy, delta * eps**2)
            reference_crossing(ref_spy, (1.0 - delta) * eps**2)
            assert res.tau == tau
            assert ts == ref_ts

    def test_uncertified_non_monotone_evaluator_keeps_the_bisection(self):
        # a non-normal Q whose mean square rises and falls: lambda_max(Q + Q^T) = 28.7
        Q, x = np.array([[-0.5, 0.3], [-30.0, -0.5]]), np.array([1.0, 0.0])
        spy, ts = spied(lambda t: drift_mean_square(Q, x, t))
        ref_spy, ref_ts = spied(lambda t: drift_mean_square(Q, x, t))
        eps = math.exp(-4.0)
        assert mixing_time(spy, eps, 0.5).tau == reference_crossing(ref_spy, 0.5 * eps**2) == 13.196157336235046
        reference_crossing(ref_spy, 0.5 * eps**2)
        assert ts == ref_ts
