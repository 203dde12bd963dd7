import math
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.linalg
from numpy.random import Generator, Philox

from gbm_cutoff import hypothesis_checks, simulate
from gbm_cutoff.commutative_cutoff import drift_mean_square, mean_square_commutative
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.linalg_core import expm_stack
from gbm_cutoff.noncommutative_cutoff import example35_check, mean_square_first_order, mode_decomposition
from gbm_cutoff.simulate import (
    SCHEMES,
    BrownianPath,
    estimate_mean_square,
    estimate_mean_squares,
    euler_maruyama,
    exact_mean_square,
    magnus_exponent,
    sample_exact_first_order,
    sample_gaussian_pair,
    sample_gaussian_pairs,
)
from gbm_cutoff.spectral_asymptotics import extract_asymptotics, normalized_state
from gbm_cutoff.system import GBMSystem


def elementary(i, j, d=3):
    E = np.zeros((d, d))
    E[i - 1, j - 1] = 1.0
    return E


def scalar_system():
    return GBMSystem(A=np.array([[-1.0]]), B=np.array([[0.5]]), x=np.array([1.0]))


def heisenberg_system():
    return GBMSystem(A=elementary(2, 3), B=elementary(1, 2), x=np.array([0.0, 0.0, 1.0]))


def dense_system():
    # full 3x3 pair: every product in the EM step rounds
    rng = np.random.default_rng(3)
    A, B = 0.3 * rng.standard_normal((3, 3)), 0.3 * rng.standard_normal((3, 3))
    return GBMSystem(A=A, B=B, x=np.array([1.0, 0.5, -0.2]))


def commuting_system(seed, d):
    """A stable A and a normal B that commute: 1x1 and rotation-scaling 2x2
    blocks in a random orthonormal basis, with a dense x."""
    rng = np.random.default_rng([seed, d])
    A, B = np.zeros((d, d)), np.zeros((d, d))
    i = 0
    while i < d:
        if i + 1 < d and rng.random() < 0.5:
            p, q, r, s = rng.standard_normal(4)
            A[i : i + 2, i : i + 2] = [[-abs(p) - 0.1, q], [-q, -abs(p) - 0.1]]
            B[i : i + 2, i : i + 2] = [[r, s], [-s, r]]
            i += 2
        else:
            A[i, i], B[i, i] = -abs(rng.standard_normal()) - 0.1, rng.standard_normal()
            i += 1
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return GBMSystem(A=U @ A @ U.T, B=U @ B @ U.T, x=rng.standard_normal(d))


def rotated_heisenberg_system():
    # dense B and C: the Heisenberg pair in a random orthonormal basis
    Q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    return GBMSystem(A=Q @ elementary(2, 3) @ Q.T, B=Q @ elementary(1, 2) @ Q.T, x=np.array([0.3, -1.7, 2.2]))


def shifted_blocks_system():
    # two Heisenberg blocks whose B differs by 0.3 I: B has two eigenvalue
    # clusters, so its split is read off the Schur form, while C = E13 + E46
    Z = np.zeros((3, 3))
    A = np.block([[elementary(2, 3) - 0.5 * np.eye(3), Z], [Z, elementary(2, 3) - np.eye(3)]])
    B = np.block([[elementary(1, 2), Z], [Z, elementary(1, 2) + 0.3 * np.eye(3)]])
    return GBMSystem(A=A, B=B, x=np.array([0.3, -1.7, 2.2, 1.0, 0.5, -0.8]))


# (system, scheme) pairs the exact kernel is checked on
EXACT_SYSTEMS = ["heisenberg", "rotated heisenberg", "dense commuting", "shifted blocks", "scalar"]


def exact_system(name):
    if name == "scalar":
        return scalar_system(), "exact_commutative"
    system = {"heisenberg": heisenberg_system, "rotated heisenberg": rotated_heisenberg_system,
              "dense commuting": lambda: commuting_system(5, 3), "shifted blocks": shifted_blocks_system}[name]
    return system(), "exact_first_order"


def square_norm(X):
    """|X|^2 reduced as the estimator reduces each path."""
    return float(np.einsum("ni,ni->n", X[None], X[None])[0])


def single_end_state(sys, t, scheme, dt, seed, i):
    """X_t of path i through the public single-path functions."""
    if scheme == "euler_maruyama":
        return euler_maruyama(sys, t, dt, seed, i)
    if scheme == "magnus_truncated":
        return expm_stack(magnus_exponent(sys, BrownianPath.sample(t, dt, seed, i), t)[None])[0] @ sys.x
    return sample_exact_first_order(sys, t, seed, i)


class TestGaussianPair:
    def test_moments_within_three_se(self):
        n = 100_000
        for t, seed in ((2.0, 51), (3.0, 52)):
            w, integ = sample_gaussian_pairs(t, seed, n)
            se_var_w = np.std(w**2, ddof=1) / math.sqrt(n)
            assert abs(np.mean(w**2) - t) <= 3 * se_var_w
            prod = w * integ
            se_cov = np.std(prod, ddof=1) / math.sqrt(n)
            assert abs(np.mean(prod) - t**2 / 2) <= 3 * se_cov
            se_var_i = np.std(integ**2, ddof=1) / math.sqrt(n)
            assert abs(np.mean(integ**2) - t**3 / 3) <= 3 * se_var_i

    def test_batch_matches_single(self):
        w, integ = sample_gaussian_pairs(1.7, 99, 8)
        for i in range(8):
            wi, ii = sample_gaussian_pair(1.7, 99, i)
            assert wi == w[i] and ii == integ[i]

    def test_requires_positive_time(self):
        with pytest.raises(ToolkitError) as err:
            sample_gaussian_pair(0.0, 1, 0)
        assert err.value.code == "bad_time"

    def test_pair_past_the_cube_overflow_is_finite(self):
        # t^3 passes the double range above about 5.65e102; the spread
        # sqrt(t^3 / 12) of the integral does not
        t, z = 1e103, simulate._normals(1, 0, 1, 2)[0]
        w, integral = sample_gaussian_pair(t, 1, 0)
        assert w == math.sqrt(t) * z[0]
        assert integral == 0.5 * t * math.sqrt(t) * z[0] + t * math.sqrt(t / 12.0) * z[1]
        assert math.isfinite(integral)

    def test_pair_below_the_cube_overflow_keeps_its_bits(self):
        t, z = 5e102, simulate._normals(1, 0, 1, 2)[0]
        assert sample_gaussian_pair(t, 1, 0)[1] == 0.5 * t**1.5 * z[0] + math.sqrt(t**3 / 12.0) * z[1]


class TestBrownianPath:
    def test_functionals_reproducible(self):
        p1 = BrownianPath.sample(1.0, 1e-3, seed=7, index=3)
        p2 = BrownianPath.sample(1.0, 1e-3, seed=7, index=3)
        assert np.array_equal(p1.increments, p2.increments)
        assert p1.functionals(1.0) == p2.functionals(1.0)

    def test_increment_distribution(self):
        p = BrownianPath.sample(2.0, 1e-3, seed=8, index=0)
        assert p.increments.size == 2000
        assert np.var(p.increments) == pytest.approx(1e-3, rel=0.1)

    def test_functionals_converge_to_known_moments(self):
        # E[int W ds] = 0; Var over many paths approximates t^3/3
        n, t = 4000, 1.0
        vals = np.array(
            [BrownianPath.sample(t, 1e-2, seed=9, index=i).functionals(t).int_w for i in range(n)]
        )
        se = np.std(vals**2, ddof=1) / math.sqrt(n)
        assert abs(np.mean(vals**2) - t**3 / 3) <= 3 * se + 2e-2

    def test_path_too_short(self):
        p = BrownianPath.sample(0.5, 1e-2, seed=9, index=0)
        with pytest.raises(ToolkitError) as err:
            p.functionals(1.0)
        assert err.value.code == "path_too_short"


class TestExactFirstOrder:
    def test_commuting_pair_reduces(self):
        sys = scalar_system()
        t = 1.3
        for i in range(5):
            X = sample_exact_first_order(sys, t, seed=61, index=i)
            w, _ = sample_gaussian_pair(t, 61, i)
            assert X[0] == pytest.approx(math.exp(-t + 0.5 * w), rel=1e-12)

    def test_heisenberg_polynomial_form(self):
        # nilpotent exponent: X = x + t e2 + (t W - int W) e1 exactly
        sys = heisenberg_system()
        t = 1.0
        for i in range(10):
            X = sample_exact_first_order(sys, t, seed=62, index=i)
            w, integ = sample_gaussian_pair(t, 62, i)
            expected = np.array([t * w - integ, t, 1.0])
            assert np.allclose(X, expected, atol=1e-12)

    def test_invalid_representation_rejected(self):
        rng = np.random.default_rng(63)
        sys = GBMSystem(A=rng.standard_normal((3, 3)), B=rng.standard_normal((3, 3)), x=np.ones(3))
        with pytest.raises(ToolkitError) as err:
            sample_exact_first_order(sys, 1.0, 0, 0)
        assert err.value.code == "representation_invalid"

    def test_time_zero_gives_x(self):
        # the n = 1 view of an estimate's t = 0 row, as euler_maruyama's
        sys = heisenberg_system()
        X = sample_exact_first_order(sys, 0.0, 5, 3)
        assert np.array_equal(X, sys.x) and X is not sys.x

    def test_gate_runs_once_per_estimate(self, monkeypatch):
        # 20,000 paths are 3 batches; C = [B, A] is gated once, by the grid check
        reports, check = [], hypothesis_checks.check_pair

        def counted(*args):
            reports.append(args)
            return check(*args)

        monkeypatch.setattr(hypothesis_checks, "check_pair", counted)
        estimate_mean_squares(heisenberg_system(), [1.0], "exact_first_order", 20_000, seed=64)
        assert len(reports) == 1


    def test_single_path_calls_read_the_system_report(self, monkeypatch):
        # the system builds its pair's report once; each call reads it
        reports, check = [], hypothesis_checks.check_pair

        def counted(*args):
            reports.append(args)
            return check(*args)

        monkeypatch.setattr(hypothesis_checks, "check_pair", counted)
        sys = heisenberg_system()
        for i in range(100):
            sample_exact_first_order(sys, 1.0, seed=65, index=i)
        assert len(reports) == 1


def full_exponents(sys, t, z, C):
    """tA + W_t B + (t W_t / 2 - int W) C of each path's 2 normals `z`, the
    exponent the factored kernel takes apart (C None: commutative scheme)."""
    w, integral = simulate._pairs(t, z)
    M = t * sys.A[None] + w[:, None, None] * sys.B[None]
    return M if C is None else M + (0.5 * t * w - integral)[:, None, None] * C[None]


class TestFactoredSampler:
    @pytest.mark.parametrize("name", EXACT_SYSTEMS)
    def test_matches_the_pade_exponential_of_the_full_exponent(self, name):
        # the oracle: one Pade-13 exp of the whole exponent per path.  Worst
        # relative error over 2000 paths at t = 0.5 and 2 (SkylakeX, Haswell,
        # Prescott OpenBLAS kernels): Heisenberg 1.4e-16, rotated Heisenberg
        # 2.3e-15, dense commuting 1.3e-15, shifted blocks 1.1e-15, scalar 4.8e-16
        sys, scheme = exact_system(name)
        C = sys.hypotheses.bracket_BA if scheme == "exact_first_order" else None
        ts, n, seed = [0.5, 2.0], 2000, 87
        z = simulate._normals(seed, 0, n, 2)
        for t, X in zip(ts, simulate._kernel(sys, ts, scheme, 0.0)(seed, 0, n)):
            P = expm_stack(full_exponents(sys, t, z, C)) @ sys.x
            assert np.max(np.linalg.norm(X - P, axis=1) / np.linalg.norm(P, axis=1)) <= 5e-15

    def test_heisenberg_paths_are_the_nilpotent_series(self):
        # M = tA + W B + u C is nilpotent of index 3, so e^M x = x + Mx + M^2 x / 2
        sys, C = heisenberg_system(), elementary(1, 3)
        for t in (0.3, 2.0):
            z = simulate._normals(66, 0, 50, 2)
            for i, M in enumerate(full_exponents(sys, t, z, C)):
                series = sys.x + M @ sys.x + 0.5 * (M @ (M @ sys.x))
                X = sample_exact_first_order(sys, t, 66, i)
                assert np.linalg.norm(X - series) <= 1e-15 * np.linalg.norm(series)

    def test_shifted_blocks_against_mpmath(self):
        # B's two clusters take the Schur split.  Against mpmath.expm at 40
        # digits over these paths, the Pade oracle errs up to 3.0e-16 and the
        # factored states 4.9e-16 relative (SkylakeX, Haswell and Prescott
        # OpenBLAS kernels): within twice the oracle's own error
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        sys = shifted_blocks_system()
        C = sys.hypotheses.bracket_BA
        ts, n, seed = [0.5, 2.0, 5.0], 12, 67
        z = simulate._normals(seed, 0, n, 2)
        worst = {"pade": 0.0, "factored": 0.0}
        for t, X in zip(ts, simulate._kernel(sys, ts, "exact_first_order", 0.0)(seed, 0, n)):
            exponents = full_exponents(sys, t, z, C)
            for i, (M, P) in enumerate(zip(exponents, expm_stack(exponents) @ sys.x)):
                exact = mp.expm(mp.matrix(M.tolist())) * mp.matrix(sys.x.tolist())
                norm = mp.norm(exact)
                for key, Y in (("pade", P), ("factored", X[i])):
                    err = mp.norm(mp.matrix(Y.tolist()) - exact) / norm
                    worst[key] = max(worst[key], float(err))
        assert worst["pade"] <= 1e-15
        assert worst["factored"] <= 2.0 * worst["pade"]


class TestEulerMaruyama:
    def test_deterministic_when_noise_free(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        sys = GBMSystem(A=A, B=np.zeros((2, 2)), x=np.array([1.0, 1.0]))
        t = 1.0
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            X = euler_maruyama(sys, t, dt, seed=0, index=0)
            exact = scipy.linalg.expm(t * A) @ sys.x
            errors.append(np.linalg.norm(X - exact))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2

    def test_scalar_mean_square(self):
        est = estimate_mean_square(scalar_system(), 1.0, "euler_maruyama", 20_000, dt=1e-3, seed=64)
        assert abs(est.value - math.exp(-1.5)) <= 3 * est.std_error + 2e-3

    def test_dt_halving_shrinks_difference(self):
        # coarse dt ladder so the O(dt) bias dominates the MC noise
        sys = scalar_system()
        vals = [
            estimate_mean_square(sys, 1.0, "euler_maruyama", 40_000, dt=dt, seed=65).value
            for dt in (0.25, 0.125, 0.0625)
        ]
        d1, d2 = abs(vals[1] - vals[0]), abs(vals[2] - vals[1])
        assert d2 < d1

    def test_bad_timestep(self):
        with pytest.raises(ToolkitError) as err:
            euler_maruyama(scalar_system(), 1.0, 0.3, 0, 0)
        assert err.value.code == "bad_timestep"

    def test_step_count_is_checked_relative_to_t(self):
        # 3 steps of 3e-11 reach 0.9 t; an absolute 1e-9 tolerance let them pass
        t, dt = 1e-10, 3e-11
        with pytest.raises(ToolkitError) as err:
            simulate._nsteps(t, dt)
        assert err.value.code == "bad_timestep"
        with pytest.raises(ToolkitError) as err:
            estimate_mean_squares(scalar_system(), [t], "euler_maruyama", 100, dt=dt, seed=1)
        assert err.value.code == "bad_timestep"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_noise_free_estimate_is_a_matrix_power(self, d):
        # with B = 0 every path is (I + dt A)^k x, so the estimate is exact up
        # to the rounding of k steps
        rng = np.random.default_rng([90, d])
        A = -np.eye(d) + 0.5 * rng.standard_normal((d, d))
        sys = GBMSystem(A=A, B=np.zeros((d, d)), x=rng.standard_normal(d))
        dt, grid = 1e-2, [0.25 * k for k in range(1, 9)]
        for t, est in zip(grid, estimate_mean_squares(sys, grid, "euler_maruyama", 300, dt=dt, seed=90)):
            X = np.linalg.matrix_power(np.eye(d) + dt * A, round(t / dt)) @ sys.x
            assert est.value == pytest.approx(X @ X, rel=1e-13, abs=0.0)


class TestMagnusExponent:
    def test_commuting_reduction(self):
        sys = scalar_system()
        t = 1.0
        path = BrownianPath.sample(t, 1e-3, seed=66, index=0)
        Y = magnus_exponent(sys, path, t)
        w = path.functionals(t).w_t
        assert Y[0, 0] == pytest.approx(-t + 0.5 * w, rel=1e-12)

    def test_heisenberg_matches_first_order_exponent(self):
        # vanishing double brackets: truncation equals tA + W B + (tW/2 - int W) C
        sys = heisenberg_system()
        C = sys.B @ sys.A - sys.A @ sys.B
        t = 1.0
        for i in range(20):
            path = BrownianPath.sample(t, 1e-3, seed=67, index=i)
            f = path.functionals(t)
            Y = magnus_exponent(sys, path, t)
            Y_ref = t * sys.A + f.w_t * sys.B + (0.5 * t * f.w_t - f.int_w) * C
            assert np.max(np.abs(Y - Y_ref)) < 1e-12

    def test_zero_time_gives_zero_matrix(self):
        sys = heisenberg_system()
        path = BrownianPath.sample(1.0, 1e-3, seed=68, index=0)
        assert np.array_equal(magnus_exponent(sys, path, 0.0), np.zeros((3, 3)))


KEY_DRAWS = pytest.mark.parametrize(
    "draw",
    [
        lambda seed, i: euler_maruyama(scalar_system(), 1.0, 1e-3, seed, i),
        lambda seed, i: sample_exact_first_order(heisenberg_system(), 1.0, seed, i),
        lambda seed, i: sample_gaussian_pair(1.0, seed, i),
        lambda seed, i: BrownianPath.sample(1.0, 1e-3, seed, i),
        # the count whose last path is i; a negative index is a negative count
        lambda seed, i: sample_gaussian_pairs(1.0, seed, i + 1 if i >= 0 else i),
        # at t = 0 nothing is drawn, but the key is checked all the same
        lambda seed, i: euler_maruyama(scalar_system(), 0.0, 1e-3, seed, i),
        lambda seed, i: euler_maruyama(heisenberg_system(), 0.0, 1e-3, seed, i),
        lambda seed, i: sample_exact_first_order(heisenberg_system(), 0.0, seed, i),
        lambda seed, i: sample_gaussian_pair(0.0, seed, i),
    ],
    ids=["euler_maruyama", "sample_exact_first_order", "sample_gaussian_pair", "BrownianPath.sample",
         "sample_gaussian_pairs", "euler_maruyama_t0", "euler_maruyama_3d_t0", "sample_exact_first_order_t0",
         "sample_gaussian_pair_t0"],
)


class TestEstimator:
    def test_time_zero_exact(self):
        est = estimate_mean_square(heisenberg_system(), 0.0, "euler_maruyama", 500, seed=1)
        assert est.value == 1.0 and est.std_error == 0.0

    def test_reproducible_bitwise(self):
        a = estimate_mean_square(scalar_system(), 0.7, "exact_commutative", 5000, seed=70)
        b = estimate_mean_square(scalar_system(), 0.7, "exact_commutative", 5000, seed=70)
        assert a.value == b.value and a.std_error == b.std_error

    @pytest.mark.parametrize(
        "system,scheme",
        [(scalar_system, "euler_maruyama"), (dense_system, "euler_maruyama"), (dense_system, "magnus_truncated")],
    )
    def test_estimate_is_sum_of_single_paths(self, system, scheme):
        sys = system()
        t, dt, seed, n = 0.5, 1e-2, 72, 300
        est = estimate_mean_square(sys, t, scheme, n, dt=dt, seed=seed)
        singles = [single_end_state(sys, t, scheme, dt, seed, i) for i in range(n)]
        assert est.value == math.fsum(square_norm(X) for X in singles) / n

    def test_batched_estimator_matches_single_paths(self):
        sys = heisenberg_system()
        t, dt, seed, n = 0.5, 1e-2, 72, 300
        est = estimate_mean_square(sys, t, "euler_maruyama", n, dt=dt, seed=seed)
        singles = [euler_maruyama(sys, t, dt, seed, i) for i in range(n)]
        assert est.value == math.fsum(square_norm(X) for X in singles) / n

        n2 = 8200  # above four batches of 2048 paths
        est2 = estimate_mean_square(sys, t, "exact_first_order", n2, seed=seed)
        singles2 = [sample_exact_first_order(sys, t, seed, i) for i in range(n2)]
        assert est2.value == math.fsum(square_norm(X) for X in singles2) / n2

    def test_magnus_batch_matches_single_paths(self):
        sys = heisenberg_system()
        t, dt, seed, n = 0.5, 1e-2, 77, 300
        est = estimate_mean_square(sys, t, "magnus_truncated", n, dt=dt, seed=seed)
        vals = []
        for i in range(n):
            path = BrownianPath.sample(t, dt, seed, i)
            vals.append(square_norm(expm_stack(magnus_exponent(sys, path, t)[None])[0] @ sys.x))
        assert est.value == math.fsum(vals) / n

    def test_system_arrays_are_frozen(self):
        sys = scalar_system()
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0

    def test_se_scaling_with_path_count(self):
        sys = scalar_system()
        small = estimate_mean_square(sys, 1.0, "exact_commutative", 20_000, seed=73)
        large = estimate_mean_square(sys, 1.0, "exact_commutative", 40_000, seed=73)
        ratio = small.std_error / large.std_error
        assert abs(ratio - math.sqrt(2.0)) < 0.2 * math.sqrt(2.0)

    def test_scheme_agreement_exact_vs_euler(self):
        sys = heisenberg_system()
        a = estimate_mean_square(sys, 1.0, "exact_first_order", 20_000, seed=74)
        b = estimate_mean_square(sys, 1.0, "euler_maruyama", 20_000, dt=1e-3, seed=74)
        joint = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3.0 * joint + 2e-3

    def test_magnus_scheme_agreement_when_brackets_vanish(self):
        sys = heisenberg_system()
        a = estimate_mean_square(sys, 1.0, "magnus_truncated", 10_000, dt=1e-2, seed=75)
        b = estimate_mean_square(sys, 1.0, "exact_first_order", 10_000, seed=75)
        joint = math.hypot(a.std_error, b.std_error)
        assert abs(a.value - b.value) <= 3.0 * joint + 5e-3

    def test_gaussian_moment_identity(self):
        # diagonal Bhat/Chat: MC mean of the exponential matches
        # exp(mu^2 t/2 - mu nu t^2/2 + nu^2 t^3/6) per entry
        t, n, seed = 1.0, 50_000, 76
        w, integ = sample_gaussian_pairs(t, seed, n)
        for mu, nu in ((1.0, 0.4), (0.5, -0.2)):
            samples = np.exp(mu * w - nu * integ)
            target = math.exp(mu**2 * t / 2 - mu * nu * t**2 / 2 + nu**2 * t**3 / 6)
            se = np.std(samples, ddof=1) / math.sqrt(n)
            assert abs(np.mean(samples) - target) <= 3 * se

    def test_bad_scheme(self):
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(scalar_system(), 1.0, "milstein", 500)
        assert err.value.code == "bad_scheme"

    def test_min_path_count(self):
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(scalar_system(), 1.0, "exact_commutative", 10)
        assert err.value.code == "bad_path_count"

    def test_exact_commutative_rejects_noncommuting(self):
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(heisenberg_system(), 1.0, "exact_commutative", 500)
        assert err.value.code == "representation_invalid"

    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masked to 64 bits, 2^64 + 1 would alias seed 1
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", 200, dt=1e-2, seed=seed)
        assert err.value.code == "bad_seed"

    def test_high_seeds_are_distinct_substreams(self):
        # a key list of Python ints >= 2^63 goes through float64, which merges these two
        a = estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", 200, dt=1e-2, seed=(1 << 63) + 1)
        b = estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", 200, dt=1e-2, seed=(1 << 63) + 2)
        assert a.value != b.value

    def test_keys_above_2_63_draw_as_fresh_generators(self):
        # each row is re-keyed from Python ints; the draws are those of a
        # generator built from the uint64 key, up to the largest seed and index
        for seed, lo in [((1 << 63) + 1, (1 << 63) - 2), ((1 << 64) - 1, (1 << 64) - 3)]:
            z = simulate._normals(seed, lo, lo + 3, 5)
            for i in range(3):
                key = np.array([seed, lo + i], dtype=np.uint64)
                assert np.array_equal(z[i], Generator(Philox(key=key)).standard_normal(5))

    @pytest.mark.parametrize(
        "seed,index,code",
        [
            (-1, 0, "bad_seed"),
            (1 << 64, 0, "bad_seed"),
            (0, -1, "bad_path_index"),
            (0, 1 << 64, "bad_path_index"),
        ],
    )
    @KEY_DRAWS
    def test_single_path_key_outside_64_bits_rejected(self, draw, seed, index, code):
        with pytest.raises(ToolkitError) as err:
            draw(seed, index)
        assert err.value.code == code

    @pytest.mark.parametrize(
        "seed,index,code",
        [
            (1.5, 0, "bad_seed"),  # the uint64 key would truncate it to seed 1
            (1.0, 0, "bad_seed"),
            (True, 0, "bad_seed"),
            (0, 2.5, "bad_path_index"),
            (0, 2.0, "bad_path_index"),
        ],
    )
    @KEY_DRAWS
    def test_single_path_key_that_is_not_an_integer_rejected(self, draw, seed, index, code):
        with pytest.raises(ToolkitError) as err:
            draw(seed, index)
        assert err.value.code == code

    @pytest.mark.parametrize(
        "seed,n_paths,code",
        [(1.5, 200, "bad_seed"), (np.float64(1.0), 200, "bad_seed"), (1, 150.5, "bad_path_count"),
         (1, 200.0, "bad_path_count"), (1, True, "bad_path_count")],
    )
    def test_estimate_key_and_count_that_are_not_integers_rejected(self, seed, n_paths, code):
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", n_paths, dt=1e-2, seed=seed)
        assert err.value.code == code

    @pytest.mark.parametrize("seed", [np.int64(1), np.uint64(1)])
    def test_numpy_integer_seed_draws_as_the_python_integer(self, seed):
        a = estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", 200, dt=1e-2, seed=seed)
        b = estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", 200, dt=1e-2, seed=1)
        assert a.value == b.value and a.std_error == b.std_error


class TestBatchRows:
    @pytest.mark.parametrize(
        "system,scheme",
        [
            (scalar_system, "euler_maruyama"),
            (dense_system, "euler_maruyama"),
            # the d > 1 step is one BLAS product over the batch: at d = 8 its
            # rows match their lone paths under the SkylakeX, Haswell and
            # Prescott OpenBLAS kernels; from d = 16 on, under SkylakeX, they
            # do not (README "Determinism"), so no case pins d >= 16
            pytest.param(lambda: commuting_system(0, 8), "euler_maruyama", id="commuting_d8-euler_maruyama"),
            (dense_system, "magnus_truncated"),
            (heisenberg_system, "exact_first_order"),
        ],
    )
    def test_batch_row_is_its_single_path(self, system, scheme):
        sys = system()
        t, dt, seed, n = 0.3, 1e-2, 81, 40
        X = simulate._kernel(sys, [t], scheme, dt)(seed, 0, n)[0]
        for i in range(n):
            assert np.array_equal(X[i], single_end_state(sys, t, scheme, dt, seed, i))

    @pytest.mark.parametrize("name", EXACT_SYSTEMS)
    def test_exact_rows_do_not_depend_on_the_batch(self, name):
        # one time per column of every product: a row's bits are those of its
        # path alone, in any batch, and those of the single-path function
        sys, scheme = exact_system(name)
        kernel = simulate._kernel(sys, [0.3, 1.7], scheme, 0.0)
        whole = kernel(86, 0, 41)
        for lo, hi in ((0, 1), (3, 5), (5, 12), (12, 41)):
            for part, rows in zip(kernel(86, lo, hi), whole):
                assert np.array_equal(part, rows[lo:hi])
        if scheme == "exact_first_order":
            for i in (0, 7, 40):
                assert np.array_equal(whole[0][i], sample_exact_first_order(sys, 0.3, 86, i))


class TestBatchMemory:
    def test_capped_batches_give_identical_bits(self, monkeypatch):
        sys = dense_system()
        t, dt, n = 0.5, 1e-2, 1001
        ref = {s: estimate_mean_square(sys, t, s, n, dt=dt, seed=79) for s in ("euler_maruyama", "magnus_truncated")}
        # 8 paths x 50 steps per batch; 1001 paths leave a one-path batch
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 400)
        for scheme, uncapped in ref.items():
            capped = estimate_mean_square(sys, t, scheme, n, dt=dt, seed=79)
            assert capped.to_dict() == uncapped.to_dict()

    def test_peak_memory_follows_the_cap(self, monkeypatch, three_workers):
        sys = scalar_system()
        cap = 1 << 14
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", cap)
        tracemalloc.start()
        try:
            # uncapped, this would be one 4000 x 2000 increment matrix (64 MB)
            estimate_mean_square(sys, 2.0, "magnus_truncated", 4000, dt=1e-3, seed=80)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 3 chunks in flight share the cap: 2 paths each
        assert three_workers == [2] * 2000
        assert peak < 8 * cap * 8  # a few (rows x steps) arrays of doubles at once

    def test_verify_batch_streams_in_chunks(self, three_workers):
        # one 8192 x 2000 increment matrix would take 131 MB; chunks of 131
        # paths take 2 MB each, and 3 are in flight
        tracemalloc.start()
        try:
            estimate_mean_square(scalar_system(), 2.0, "euler_maruyama", 8192, dt=1e-3, seed=92)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(three_workers) == [70] + [131] * 62
        assert peak < 16 * 2**20

    def test_euler_batches_of_a_pair_stay_small(self, three_workers):
        # 4096 paths x 2000 steps of increments would take 66 MB in one batch;
        # batches of 2048 paths take 33 MB, drawn in chunks of 131 paths
        tracemalloc.start()
        try:
            estimate_mean_square(heisenberg_system(), 2.0, "euler_maruyama", 4096, dt=1e-3, seed=93)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(three_workers) == sorted(([131] * 15 + [83]) * 2)
        assert peak < 40 * 2**20

    def test_path_longer_than_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 100)
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(scalar_system(), 2.0, "euler_maruyama", 200, dt=1e-2, seed=1)
        assert err.value.code == "too_many_steps"

    @pytest.mark.parametrize("entry", ["BrownianPath.sample", "BrownianPath.functionals", "euler_maruyama"])
    def test_single_path_longer_than_the_cap_rejected(self, monkeypatch, entry):
        path = BrownianPath.sample(1.0, 1e-2, 1, 0)  # 100 steps, drawn under the default cap
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 50)
        monkeypatch.setattr(simulate, "_normals", lambda *args: pytest.fail("drew normals"))
        run = {
            "BrownianPath.sample": lambda: BrownianPath.sample(1.0, 1e-2, 1, 0),
            "BrownianPath.functionals": lambda: path.functionals(1.0),
            "euler_maruyama": lambda: euler_maruyama(scalar_system(), 1.0, 1e-2, 1, 0),
        }[entry]
        with pytest.raises(ToolkitError) as err:
            run()
        assert err.value.code == "too_many_steps"

    @pytest.mark.parametrize("entry", ["BrownianPath.sample", "BrownianPath.functionals", "euler_maruyama",
                                       "estimate_mean_square"])
    def test_step_count_beyond_a_double_rejected(self, entry):
        # t / dt overflows to infinity, which int(round(t / dt)) cannot convert
        run = {
            "BrownianPath.sample": lambda: BrownianPath.sample(1e300, 1e-10, 0, 0),
            "BrownianPath.functionals": lambda: BrownianPath.sample(1e-9, 1e-10, 0, 0).functionals(1e300),
            "euler_maruyama": lambda: euler_maruyama(scalar_system(), 1e300, 1e-10, 0, 0),
            "estimate_mean_square": lambda: estimate_mean_square(scalar_system(), 0.5, "euler_maruyama", 200,
                                                                 dt=1e-310, seed=1),
        }[entry]
        with pytest.raises(ToolkitError) as err:
            run()
        assert err.value.code == "too_many_steps"

    def test_exponent_stacks_count_against_the_cap(self, monkeypatch):
        sys = commuting_system(0, 16)
        t, dt, n = 0.5, 5e-2, 100
        ref = {s: estimate_mean_square(sys, t, s, n, dt=dt, seed=82) for s in ("exact_first_order", "magnus_truncated")}
        # 7 rows of 16 x 16 exponents per batch; 100 paths leave a two-path batch
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 7 * 16 * 16)
        for scheme, uncapped in ref.items():
            capped = estimate_mean_square(sys, t, scheme, n, dt=dt, seed=82)
            assert capped.to_dict() == uncapped.to_dict()

    def test_peak_memory_of_exact_batches_follows_the_cap(self, monkeypatch):
        sys = commuting_system(1, 16)
        cap = 1 << 14
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", cap)
        tracemalloc.start()
        try:
            # counting increments alone, this is one batch of 1000 16 x 16 exponents
            estimate_mean_square(sys, 0.5, "exact_first_order", 1000, seed=83)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * cap * 8  # expm holds a few (rows x d x d) stacks at once

    @pytest.mark.parametrize("scheme", ["euler_maruyama", "magnus_truncated"])
    @pytest.mark.parametrize("system", [scalar_system, dense_system])
    def test_one_pass_holds_one_batch_array(self, monkeypatch, three_workers, system, scheme):
        # EM builds its factors in the increments; Magnus sums them into its
        # walk in place.  The 3 chunks in flight count within the cap; so do the
        # d > 1 EM kernel's draws, in a quarter of it beside its time-major batch
        cap = 1 << 18
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", cap)
        tracemalloc.start()
        try:
            # 1000 paths x 2000 steps, read at 8 times
            estimate_mean_squares(system(), [0.25 * k for k in range(9)], scheme, 1000, dt=1e-3, seed=88)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if system is dense_system and scheme == "euler_maruyama":
            # 7 batches of 131 paths and one of 83, each drawn in chunks of 10
            assert sorted(three_workers) == sorted(([10] * 13 + [1]) * 7 + [10] * 8 + [3])
        else:
            assert sorted(three_workers) == [11] + [43] * 23
        assert peak < 1.5 * cap * 8

    @pytest.mark.parametrize("scheme", ["euler_maruyama", "exact_first_order", "magnus_truncated"])
    def test_pair_larger_than_the_cap_rejected(self, monkeypatch, scheme):
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 8)
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(heisenberg_system(), 0.5, scheme, 200, dt=0.25, seed=1)
        assert err.value.code == "too_large"


class SubmissionSpy(ThreadPoolExecutor):
    """A pool that counts its submissions, keeps their futures and refuses
    one from any thread but the one that built it: a pool task that submits
    to the pool and waits could deadlock it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.caller, self.submissions, self.futures = threading.get_ident(), 0, []

    def submit(self, fn, /, *args, **kwargs):
        assert threading.get_ident() == self.caller, "a pool task submitted to the pool"
        self.submissions += 1
        self.futures.append(super().submit(fn, *args, **kwargs))
        return self.futures[-1]


@pytest.fixture
def three_workers(monkeypatch):
    """Run the pooled chunks on a pool of 3 threads, whatever the CPU count;
    yields the row count of each chunk drawn.  The pool is a SubmissionSpy."""
    chunks, fill = [], simulate._fill

    def counted(z, seed, lo):
        chunks.append(len(z))
        fill(z, seed, lo)

    pool, interval = SubmissionSpy(3), getswitchinterval()
    monkeypatch.setattr(simulate, "_WORKERS", 3)
    monkeypatch.setattr(simulate, "_POOL", pool)
    monkeypatch.setattr(simulate, "_fill", counted)
    setswitchinterval(1e-6)  # interleave the chunks' threads often
    try:
        yield chunks
    finally:
        setswitchinterval(interval)
        pool.shutdown()


def time_major_columns_are_fresh_generators(dW, seed, lo):
    """Column i of a time-major draw at dt = 1 is path lo + i's generator."""
    for i, column in enumerate(dW.T):
        fresh = Generator(Philox(key=np.array([seed, lo + i], dtype=np.uint64)))
        assert np.array_equal(column, fresh.standard_normal(len(dW)))


class TestSubstreams:
    @pytest.mark.parametrize("rows,split", [(1, [1]), (2, [2]), (7, [1, 3, 3]), (8193, [3] * 2731)])
    def test_chunked_rows_are_generators_built_afresh(self, monkeypatch, three_workers, rows, split):
        seed, lo, k = 17, 40, simulate._POOLED_MIN_DRAWS
        monkeypatch.setattr(simulate, "_CHUNK_DOUBLES", 3 * k)  # chunks of 3 rows
        draw = simulate._time_major_increments(k, 1.0, seed, lo, lo + rows)
        assert sorted(three_workers) == sorted(split)
        assert simulate._POOL.submissions == (0 if rows <= 3 else 3)
        time_major_columns_are_fresh_generators(draw, seed, lo)

    @pytest.mark.parametrize("k", [2, 5, simulate._POOLED_MIN_DRAWS - 1])
    def test_short_rows_are_drawn_inline(self, monkeypatch, three_workers, k):
        seed, lo, rows = 17, 40, 7
        monkeypatch.setattr(simulate, "_CHUNK_DOUBLES", 3 * k)
        draw = simulate._time_major_increments(k, 1.0, seed, lo, lo + rows)
        assert three_workers == [3, 3, 1]  # in order, on the calling thread
        assert simulate._POOL.submissions == 0
        time_major_columns_are_fresh_generators(draw, seed, lo)

    @pytest.mark.parametrize(
        "name,scheme",
        [("scalar", s) for s in SCHEMES]
        + [("dense", "euler_maruyama"), ("dense", "magnus_truncated"), ("dense commuting", "exact_first_order")],
    )
    def test_estimates_do_not_depend_on_the_worker_count(self, monkeypatch, three_workers, name, scheme):
        # dt = 5e-4 gives 1000 steps at the largest t, enough to pool the rows;
        # an exact scheme takes one step of 2 draws, on the calling thread
        sys, steps = grid_system(name), 1 if scheme.startswith("exact") else 1000
        monkeypatch.setattr(simulate, "_CHUNK_DOUBLES", 100 * steps)  # chunks of 100 rows
        three = [est.to_dict() for est in estimate_mean_squares(sys, GRID, scheme, 301, dt=5e-4, seed=91)]
        # one batch, drawn once
        assert sorted(three_workers) == [1, 100, 100, 100]
        assert simulate._POOL.submissions == (0 if steps == 1 else 3)
        monkeypatch.setattr(simulate, "_WORKERS", 1)
        one = [est.to_dict() for est in estimate_mean_squares(sys, GRID, scheme, 301, dt=5e-4, seed=91)]
        assert three == one
        assert simulate._POOL.submissions == (0 if steps == 1 else 3)  # one worker: the calling thread

    def test_no_task_outlives_a_failing_estimate(self, monkeypatch, three_workers):
        # the worker that draws the first chunk fails; the others finish
        # their chunks before the estimate re-raises the failure
        class Failed(Exception):
            pass

        fill = simulate._fill

        def failing(z, seed, lo):
            if lo == 0:
                raise Failed
            fill(z, seed, lo)

        monkeypatch.setattr(simulate, "_fill", failing)
        with pytest.raises(Failed):
            estimate_mean_square(scalar_system(), 2.0, "euler_maruyama", 2000, dt=1e-3, seed=1)
        assert simulate._POOL.submissions == 3 and all(task.done() for task in simulate._POOL.futures)

    def test_distinct_indices_distinct_draws(self):
        a, b = simulate._normals(5, 0, 2, 4)
        assert not np.allclose(a, b)

    def test_same_key_same_draws(self):
        assert np.array_equal(simulate._normals(5, 3, 4, 4), simulate._normals(5, 0, 4, 4)[3:])

    @pytest.mark.parametrize("seed", [0, (1 << 63) + 1, (1 << 64) - 1])
    @pytest.mark.parametrize("k", [2, 2000])
    def test_rows_are_generators_built_afresh_from_their_key(self, seed, k):
        # one Philox per batch, re-keyed for each path, draws what a new one would
        z = simulate._normals(seed, 5, 9, k)
        for i, row in enumerate(z):
            fresh = Generator(Philox(key=np.array([seed, 5 + i], dtype=np.uint64)))
            assert np.array_equal(row, fresh.standard_normal(k))


# unsorted, with a repeated t and a t = 0; dt = 0.01 gives up to 50 steps
GRID = [0.5, 0.1, 0.0, 0.5, 0.3]


def grid_system(name):
    return {"scalar": scalar_system, "dense": dense_system, "dense commuting": lambda: commuting_system(5, 3)}[name]()


class TestOnePass:
    @pytest.mark.parametrize(
        "name,scheme",
        [("scalar", s) for s in SCHEMES]
        + [("dense", "euler_maruyama"), ("dense", "magnus_truncated")]
        + [("dense commuting", "exact_commutative"), ("dense commuting", "exact_first_order")],
    )
    def test_grid_equals_one_estimate_per_t(self, monkeypatch, name, scheme):
        sys, n = grid_system(name), 101
        per_t = [estimate_mean_square(sys, t, scheme, n, dt=0.01, seed=85).to_dict() for t in GRID]
        # 64 doubles per batch: one path of 50 steps, 7 of 3 x 3 exponents, 64 scalar pairs
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 64)
        one_pass = [est.to_dict() for est in estimate_mean_squares(sys, GRID, scheme, n, dt=0.01, seed=85)]
        assert one_pass == per_t
        assert one_pass[0] == one_pass[3] and one_pass[2]["value"] == float(sys.x @ sys.x)

    @pytest.mark.parametrize("name", ["scalar", "dense"])
    def test_each_t_reads_its_own_number_of_steps(self, name):
        # a plain loop over fresh generators, stopped at each t's step count
        sys, n, dt, seed = grid_system(name), 100, 0.01, 89
        drift = sys.A + 0.5 * sys.B @ sys.B
        ests = estimate_mean_squares(sys, GRID, "euler_maruyama", n, dt=dt, seed=seed)
        for t, est in zip(GRID, ests):
            values = []
            for i in range(n):
                dw = math.sqrt(dt) * Generator(Philox(key=np.array([seed, i], dtype=np.uint64))).standard_normal(50)
                X = sys.x.copy()
                for k in range(round(t / dt)):
                    X = X + dt * drift @ X + dw[k] * sys.B @ X
                values.append(X @ X)
            assert est.value == pytest.approx(math.fsum(values) / n, rel=1e-12)

    @pytest.mark.parametrize(
        "scheme,grid,cap,code",
        [
            ("euler_maruyama", [0.5, 0.0, -0.5, 0.3], None, "bad_time"),
            ("exact_first_order", [0.5, -1.0], None, "bad_time"),
            ("euler_maruyama", [0.5, 0.0, 0.255, 0.3], None, "bad_timestep"),
            ("magnus_truncated", [0.5, 0.005], None, "bad_timestep"),
            ("euler_maruyama", [0.2, 0.0, 0.5], 30, "too_many_steps"),
            ("exact_first_order", [0.0, 0.5], 8, "too_large"),
            ("exact_commutative", [0.0, 0.5], None, "representation_invalid"),
        ],
    )
    def test_grid_fails_with_the_code_of_one_estimate_per_t(self, monkeypatch, scheme, grid, cap, code):
        sys = heisenberg_system()
        if cap is not None:
            monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", cap)
        with pytest.raises(ToolkitError) as per_t:
            for t in grid:
                estimate_mean_square(sys, t, scheme, 200, dt=0.01, seed=86)
        draws = []
        monkeypatch.setattr(simulate, "_normals", lambda *args: draws.append(args))
        with pytest.raises(ToolkitError) as one_pass:
            estimate_mean_squares(sys, grid, scheme, 200, dt=0.01, seed=86)
        assert one_pass.value.code == per_t.value.code == code
        assert draws == []  # every t is checked before anything is drawn


class TestPrefixReductions:
    """One pass reads every t off a prefix of one draw; these numpy
    reductions must give the bits of a reduction over a fresh array."""

    F = 1.0 + 0.03 * np.random.default_rng(87).standard_normal((64, 2000))

    @pytest.mark.parametrize("k", [1, 2, 7, 250, 1001, 1999, 2000])
    def test_prefix_product_is_a_fresh_and_a_cumulative_product(self, k):
        prefix = np.prod(self.F[:, :k], axis=1)
        assert np.array_equal(prefix, np.prod(np.array(self.F[:, :k]), axis=1))
        assert np.array_equal(prefix, np.cumprod(self.F, axis=1)[:, k - 1])

    @pytest.mark.parametrize("ks", [[1, 2, 7, 250, 1001, 1999, 2000], [250, 7, 2000, 7, 1, 250], [1999]])
    def test_folded_prefix_products_are_fresh_products(self, ks):
        products = simulate._prefix_products(self.F.copy(), ks)
        assert len(products) == len(ks)
        for k, p in zip(ks, products):
            assert np.array_equal(p, np.prod(self.F[:, :k], axis=1))

    @pytest.mark.parametrize("k", [1, 2, 7, 250, 1001, 1999, 2000])
    def test_prefix_sums_are_fresh_sums(self, k):
        assert np.array_equal(self.F[:, :k].sum(axis=1), np.array(self.F[:, :k]).sum(axis=1))
        assert np.array_equal(np.cumsum(self.F, axis=1)[:, :k], np.cumsum(np.array(self.F[:, :k]), axis=1))

    @pytest.mark.parametrize("k", [0, 1, 2, 7, 250, 1001, 1999, 2000])
    def test_prefix_einsum_reductions_are_fresh_and_row_by_row(self, k):
        # the Magnus functionals' int W^2 and int sW over W_1..W_{k-1}
        s = np.arange(1, 2001) * 1e-3
        view, fresh = self.F[:, :k], np.array(self.F[:, :k])
        squares, weighted = np.einsum("ij,ij->i", view, view), np.einsum("ij,j->i", view, s[:k])
        assert np.array_equal(squares, np.einsum("ij,ij->i", fresh, fresh))
        assert np.array_equal(weighted, np.einsum("ij,j->i", fresh, np.array(s[:k])))
        for i in (0, 1, 63):  # a row reduced alone: the bits do not depend on the batch
            row = self.F[i : i + 1, :k]
            assert np.einsum("ij,ij->i", row, row)[0] == squares[i]
            assert np.einsum("ij,j->i", row, s[:k])[0] == weighted[i]


class TestNonFiniteEstimates:
    @pytest.mark.parametrize(
        "A,x,t,dt",
        [
            ([[400.0]], [1.0], 2.0, 1e-3),  # |X_t|^2 overflows to inf
            ([[0.0]], [1.3e154], 0.5, 0.1),  # every |X_t|^2 is finite, their sum is not
            ([[0.0]], [1e200], 0.0, 0.1),
        ],
    )
    def test_refused_with_a_code_and_no_warning(self, A, x, t, dt):
        sys = GBMSystem(A=np.array(A), B=np.array([[0.0]]), x=np.array(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToolkitError) as err:
                estimate_mean_square(sys, t, "euler_maruyama", 100, dt=dt)
        assert err.value.code == "report_not_finite"


    @pytest.mark.parametrize("scheme", ["exact_commutative", "exact_first_order"])
    def test_exact_estimate_past_the_cube_overflow_refused_with_a_code(self, scheme):
        # the pair at t = 1e103 is finite; e^{tA} is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToolkitError) as err:
                estimate_mean_square(scalar_system(), 1e103, scheme, 100)
        assert err.value.code == "report_not_finite"

    @pytest.mark.parametrize("sample", ["euler_maruyama", "sample_exact_first_order", "estimate"])
    def test_single_path_refused_with_a_code_and_no_warning(self, sample):
        # e^{800} x_1 overflows; a single path is refused as the estimate is
        sys = GBMSystem(A=np.diag([400.0, 1.0]), B=np.zeros((2, 2)), x=np.array([1e300, 1.0]))
        run = {
            "euler_maruyama": lambda: euler_maruyama(sys, 2.0, 1e-3, 1, 0),
            "sample_exact_first_order": lambda: sample_exact_first_order(sys, 2.0, 1, 0),
            "estimate": lambda: estimate_mean_square(sys, 2.0, "euler_maruyama", 100),
        }[sample]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToolkitError) as err:
                run()
        assert err.value.code == "report_not_finite"

    @pytest.mark.parametrize("scheme", ["exact_first_order", "magnus_truncated"])
    def test_overflowing_exponentials_refused_with_a_code(self, scheme):
        # exp(800 I) overflows on every path: a code, not a LinAlgError or a warning
        sys = GBMSystem(A=400.0 * np.eye(3), B=elementary(1, 2), x=np.array([0.0, 0.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToolkitError) as err:
                estimate_mean_square(sys, 2.0, scheme, 100, dt=0.01)
        assert err.value.code == "report_not_finite"


class TestExactMeanSquare:
    def test_heisenberg_polynomial(self):
        sys = heisenberg_system()
        for t in [0.25 * k for k in range(9)]:
            exact = 1.0 + t**2 + t**3 / 3.0
            assert abs(exact_mean_square(sys, t) - exact) <= 1e-15 * exact

    def test_time_zero_is_the_estimators_value(self):
        sys = dense_system()
        assert exact_mean_square(sys, 0.0) == estimate_mean_square(sys, 0.0, "euler_maruyama", 100).value

    @pytest.mark.parametrize("seed", range(24))
    def test_matches_both_closed_forms_on_commuting_pairs(self, seed):
        sys = commuting_system(seed, 1 + seed % 8)
        t = float(np.random.default_rng(seed).uniform(0.0, 2.5))
        exact = exact_mean_square(sys, t)
        assert exact == pytest.approx(mean_square_commutative(sys, t), rel=1e-11)
        assert exact == pytest.approx(mean_square_first_order(mode_decomposition(sys), t), rel=1e-11)

    def test_agrees_with_euler_maruyama_on_a_dense_pair(self):
        sys = dense_system()
        est = estimate_mean_square(sys, 1.0, "euler_maruyama", 4000, dt=1e-2, seed=84)
        assert abs(est.value - exact_mean_square(sys, 1.0)) < 4 * est.std_error

    def test_negative_time_rejected(self):
        with pytest.raises(ToolkitError) as err:
            exact_mean_square(scalar_system(), -1.0)
        assert err.value.code == "bad_time"

    def test_worst_relative_error_against_mpmath(self):
        # 12 dense pairs, d = 2-4, against exp(tL) at 40 digits: 3.2e-15
        # measured (numpy 2.4.6; 2.9e-13 through scipy.linalg.expm)
        mp = pytest.importorskip("mpmath")

        def kron(U, V):
            n = V.rows
            return mp.matrix([[U[i // n, j // n] * V[i % n, j % n] for j in range(U.cols * n)] for i in range(U.rows * n)])

        worst = 0.0
        with mp.workdps(40):
            for seed in range(12):
                d = 2 + seed % 3
                rng = np.random.default_rng([seed, d])
                sys = GBMSystem(A=0.3 * rng.standard_normal((d, d)), B=0.3 * rng.standard_normal((d, d)),
                                x=rng.standard_normal(d))
                A, B, eye = mp.matrix(sys.A.tolist()), mp.matrix(sys.B.tolist()), mp.eye(d)
                D = A + B * B / 2
                L = kron(eye, D) + kron(D, eye) + kron(B, B)
                v, E = mp.matrix(np.outer(sys.x, sys.x).ravel().tolist()), mp.expm(L / 2)
                for t in (0.5, 2.0, 8.0):  # exp(4tL) is exp(tL) squared twice
                    p = E * v
                    exact = sum(p[i * d + i] for i in range(d))
                    worst = max(worst, float(abs(mp.mpf(exact_mean_square(sys, t)) - exact) / exact))
                    E = E * E
                    E = E * E
        assert worst <= 2e-14

    @pytest.mark.parametrize("d", [1, 2])
    def test_overflowing_moment_is_inf_never_nan(self, d):
        # E|X_t|^2 = d e^{800 t}: beyond the double range at every t here;
        # exp(tL) overflows, and inf * 0 in its squaring gave NaN at d = 2
        sys = GBMSystem(A=400.0 * np.eye(d), B=np.zeros((d, d)), x=np.ones(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1.0, 2.0, 5.0):
                assert exact_mean_square(sys, t) == math.inf

    @pytest.mark.parametrize("c,t", [(1e4, 20.0), (1e6, 2.0)])
    def test_overflowing_triangular_moment_is_inf_without_warning(self, c, t):
        # 2.1e480 at c = 1e4, t = 20 by 60-digit mpmath
        sys = GBMSystem(A=np.array([[-1.0, c], [0.0, -1.0]]), B=0.1 * np.array([[1.0, 0.0], [0.3, -0.5]]),
                        x=np.array([0.6, 0.8]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_mean_square(sys, t) == math.inf

    def test_pair_larger_than_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 80)  # 3^4 = 81 entries
        for t in (0.0, 1.0):
            with pytest.raises(ToolkitError) as err:
                exact_mean_square(heisenberg_system(), t)
            assert err.value.code == "too_large"


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_time_that_is_not_finite_is_refused(t):
    # nan and inf both pass a t < 0 test; every entry point that takes a t
    # refuses them by the one rule, before any arithmetic could warn
    A, B, x = np.diag([-2.0, -3.0]), np.diag([1.0, 0.5]), np.array([1.0, 1.0])
    sys = GBMSystem(A=A, B=B, x=x)
    asym = extract_asymptotics(A, x)
    path = BrownianPath.sample(1.0, 0.1, 7, 0)
    estimates = [lambda scheme=scheme: estimate_mean_square(sys, t, scheme, 100, dt=0.1, seed=7) for scheme in SCHEMES]
    for evaluate in (lambda: drift_mean_square(A, x, t), lambda: mean_square_commutative(sys, t),
                     lambda: mean_square_first_order(mode_decomposition(sys), t), lambda: exact_mean_square(sys, t),
                     lambda: normalized_state(A, x, asym, t), *estimates,
                     lambda: sample_gaussian_pair(t, 7, 0), lambda: sample_gaussian_pairs(t, 7, 3),
                     lambda: sample_exact_first_order(sys, t, 7, 0), lambda: euler_maruyama(sys, t, 0.1, 7, 0),
                     lambda: BrownianPath.sample(t, 0.1, 7, 0), lambda: path.functionals(t),
                     lambda: example35_check(t)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ToolkitError) as err:
                evaluate()
        assert err.value.code == "bad_time"


def test_mean_and_se_sums_are_the_array_sums():
    # fsum over .tolist() reads the same doubles as fsum over the array
    rng = np.random.default_rng(5)
    for n in (2, 3, 100, 8192):
        values = rng.lognormal(0.0, 2.0, n) * 10.0 ** rng.integers(-50, 50)
        mean = math.fsum(values) / n
        se = math.sqrt(math.fsum(np.square(values - mean)) / (n - 1) / n)
        assert simulate._mean_and_se(values) == (mean, se)
    assert simulate._mean_and_se(np.array([1e308, 1e308])) == (math.inf, math.inf)
