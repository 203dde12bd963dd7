"""Acceptance suite: one test per criterion, each at its stated tolerance
and runtime budget.  conftest.py prints the per-criterion PASS/FAIL table."""

import math
import time

import numpy as np
import pytest

from gbm_cutoff.commutative_cutoff import (
    cutoff_time_commutative,
    mean_square_commutative,
    profile_limit,
)
from gbm_cutoff.cubic_solver import CubicCoefficients, cardano_unique_real
from gbm_cutoff.hypothesis_checks import check_pair
from gbm_cutoff.mixing import mixing_time
from gbm_cutoff.noncommutative_cutoff import (
    cutoff_schedule_first_order,
    example35_check,
    mean_square_first_order,
    mode_decomposition,
    synthetic_mode_decomposition,
)
from gbm_cutoff.simulate import (
    BrownianPath,
    estimate_mean_square,
    magnus_exponent,
    sample_gaussian_pairs,
)
from gbm_cutoff.spectral_asymptotics import extract_asymptotics, normalized_state
from gbm_cutoff.system import GBMSystem


def elementary(i, j, d=3):
    E = np.zeros((d, d))
    E[i - 1, j - 1] = 1.0
    return E


SCALAR = GBMSystem(A=np.array([[-1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))
DIAG2D = GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.array([1.0, 1.0]))
HEISENBERG = GBMSystem(A=elementary(2, 3), B=elementary(1, 2), x=np.array([0.0, 0.0, 1.0]))


def synthetic_example(x=(1.0, 1.0)):
    return synthetic_mode_decomposition(
        alpha=np.diag([0.2, 0.4]),
        beta=np.diag([0.3, 0.1]),
        Gamma=np.diag([-0.6, -1.2]),
        A=np.diag([-1.0, -2.0]),
        x=np.array(x),
    )


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over {self.limit}s budget"


def test_criterion_1_closed_form_vs_monte_carlo_commutative():
    with Budget(30.0):
        for t in (0.5, 1.0, 2.0):
            est = estimate_mean_square(SCALAR, t, "euler_maruyama", 100_000, dt=1e-3, seed=2024)
            target = math.exp(-1.5 * t)
            assert abs(est.value - target) <= 3.0 * est.std_error


def test_criterion_2_gaussian_moment_identity():
    with Budget(10.0):
        t, n = 1.0, 100_000
        w, integ = sample_gaussian_pairs(t, seed=2025, n=n)
        for mu, nu in ((1.0, 0.4), (0.5, -0.2)):
            samples = np.exp(mu * w - nu * integ)
            target = math.exp(mu**2 * t / 2.0 - mu * nu * t**2 / 2.0 + nu**2 * t**3 / 6.0)
            se = float(np.std(samples, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(samples)) - target) <= 3.0 * se


def test_criterion_3_window_cutoff_threshold():
    with Budget(1.0):
        eps_list = [math.exp(-4.0), math.exp(-6.0), math.exp(-8.0)]
        w = 1.0
        for eps in eps_list:
            sched = cutoff_time_commutative(DIAG2D, eps, w)
            up = mean_square_commutative(DIAG2D, sched.t_eps + 3.0 * w) / eps**2
            down = mean_square_commutative(DIAG2D, sched.t_eps - 3.0 * w) / eps**2
            assert up < 1e-2
            assert down > 1e2
        for rho in (-3.0, 0.0, 3.0):
            limit = profile_limit(DIAG2D, rho, w)
            eps = eps_list[-1]
            sched = cutoff_time_commutative(DIAG2D, eps, w)
            val = mean_square_commutative(DIAG2D, sched.t_eps + rho * w) / eps**2
            assert abs(val - limit) <= 0.01 * limit


def test_criterion_4_mixing_time_limits():
    with Budget(1.0):
        msq = lambda t: mean_square_commutative(SCALAR, t)
        delta = 0.1
        ratio_pairs, ratio_refs = [], []
        for n in (20, 25, 30):
            eps = math.exp(-float(n))
            t_eps = cutoff_time_commutative(SCALAR, eps).t_eps
            res = mixing_time(msq, eps, delta, t_ref=t_eps)
            ratio_pairs.append(res.tau_ratio)
            ratio_refs.append(res.tau_over_t_ref)
        assert 0.9 <= ratio_pairs[0] <= 1.1
        # the tighter band holds once eps reaches e^-30, tightening monotonically
        assert 0.95 <= ratio_refs[-1] <= 1.05
        dev_pair = [abs(r - 1.0) for r in ratio_pairs]
        dev_ref = [abs(r - 1.0) for r in ratio_refs]
        assert dev_pair[0] >= dev_pair[1] >= dev_pair[2]
        assert dev_ref[0] >= dev_ref[1] >= dev_ref[2]


def test_criterion_5_cardano_solver_random_suite():
    with Budget(1.0):
        rng = np.random.default_rng(2026)
        for _ in range(100):
            gamma = rng.uniform(0.1, 2.0)
            b = rng.uniform(-1.0, 1.0)
            a = rng.uniform(-1.0, 1.0)
            log_eps = -rng.uniform(5.0, 30.0)
            c = CubicCoefficients(gamma, b, a, log_eps)
            t = cardano_unique_real(c)
            assert abs(c(t)) < 1e-9 * (1.0 + abs(c.c0))
            ref = bisect_root(c, 0.0, 10.0 * (1.0 + abs(log_eps)))
            assert abs(t - ref) < 1e-9


def test_criterion_6_cubic_time_scale():
    with Budget(1.0):
        suite = [
            synthetic_example(),
            synthetic_mode_decomposition(
                alpha=np.diag([0.1, 0.5]),
                beta=np.diag([0.0, 0.2]),
                Gamma=np.diag([-1.0, -2.0]),
                A=np.diag([-0.5, -1.5]),
                x=np.array([1.0, 0.5]),
            ),
        ]
        eps = math.exp(-40.0)
        for dec in suite:
            sched = cutoff_schedule_first_order(dec, eps)
            ratio = sched.t_eps * sched.gamma ** (1.0 / 3.0) / 40.0 ** (1.0 / 3.0)
            assert 0.9 <= ratio <= 1.1


def test_criterion_7_first_order_cutoff_threshold():
    with Budget(1.0):
        dec = synthetic_example()
        eps = math.exp(-15.0)
        sched = cutoff_schedule_first_order(dec, eps)
        assert sched.w_eps == pytest.approx(sched.t_eps**-2)
        behind = mean_square_first_order(dec, sched.t_eps - 5.0 * sched.w_eps) / eps**2
        ahead = mean_square_first_order(dec, sched.t_eps + 5.0 * sched.w_eps) / eps**2
        assert behind / ahead >= 1e3


def test_criterion_8_representation_identity():
    with Budget(60.0):
        a = estimate_mean_square(HEISENBERG, 1.0, "exact_first_order", 100_000, seed=2027)
        b = estimate_mean_square(HEISENBERG, 1.0, "euler_maruyama", 100_000, dt=1e-3, seed=2027)
        joint = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3.0 * joint
        # truncated Magnus exponent equals the first-order exponent per path
        C = HEISENBERG.B @ HEISENBERG.A - HEISENBERG.A @ HEISENBERG.B
        for i in range(200):
            path = BrownianPath.sample(1.0, 1e-3, seed=2028, index=i)
            f = path.functionals(1.0)
            Y = magnus_exponent(HEISENBERG, path, 1.0)
            Y_ref = HEISENBERG.A + f.w_t * HEISENBERG.B + (0.5 * f.w_t - f.int_w) * C
            assert np.max(np.abs(Y - Y_ref)) < 1e-12


def test_criterion_9_example35_identity():
    with Budget(1.0):
        worst_g = worst_f = 0.0
        for t in np.linspace(0.2, 2.0, 100):
            pt = example35_check(float(t))
            worst_g = max(worst_g, abs(pt.g - t))
            worst_f = max(worst_f, abs(pt.f - (-(3.0 * t**2 + 2.0 * t) * pt.x)))
        assert worst_g < 1e-8
        assert worst_f < 1e-6


def test_criterion_10_spectral_extraction():
    with Budget(1.0):
        Q = np.array([[-1.0, 1.0], [0.0, -1.0]])
        y = np.array([0.0, 1.0])
        asym = extract_asymptotics(Q, y)
        assert asym.q == pytest.approx(1.0, abs=1e-10)
        assert asym.ell == 2
        # extracted limit vector within 1e-6 of the analytic (1, 0); the
        # normalized trajectory approaches it like 1/t (0.02 at t = 50)
        assert np.linalg.norm(asym.vs[0] - np.array([1.0, 0.0])) < 1e-6
        res = [
            np.linalg.norm(normalized_state(Q, y, asym, t) - asym.carrier(t))
            for t in (10.0, 20.0, 50.0)
        ]
        assert res[0] > res[1] > res[2]
        assert res[2] == pytest.approx(1.0 / 50.0, rel=1e-6)

        rot = extract_asymptotics(np.array([[-1.0, 2.0], [-2.0, -1.0]]), np.array([1.0, 0.0]))
        assert rot.K0 == pytest.approx(1.0, abs=1e-9)
        assert rot.K1 == pytest.approx(1.0, abs=1e-9)


def test_criterion_11_step3_commutator_ledger():
    with Budget(1.0):
        P = np.array([[-1.5, 0.4], [0.4, -2.5]])
        passing = [
            DIAG2D,
            GBMSystem(A=P, B=0.2 * P + 0.3 * np.eye(2), x=np.array([1.0, -0.5])),
            GBMSystem(A=-np.eye(2), B=np.array([[0.0, 0.4], [-0.4, 0.0]]), x=np.array([1.0, 0.0])),
        ]
        for sys_ in passing:
            rep = check_pair(sys_.A, sys_.B, sys_.tol)
            assert rep.normal_B and max(
                rep.residuals[k]
                for k in ("commute_A_C", "commute_A_Cstar", "commute_B_C", "commute_B_Cstar")
            ) <= rep.threshold
            dec = mode_decomposition(sys_)
            scale = 1.0 + max(
                np.linalg.norm(M, "fro") for M in (dec.alpha, dec.beta, dec.Gamma)
            ) * (1.0 + np.linalg.norm(sys_.A, "fro"))
            assert max(dec.step3_residuals.values()) <= 1e-9 * scale
        # infeasibility diagnostic on the Heisenberg triple
        rep = check_pair(HEISENBERG.A, HEISENBERG.B)
        assert rep.hypothesis_set_infeasible
        assert not rep.normal_C
        assert max(abs(v) for v in rep.nilpotence_witness) == 0.0
