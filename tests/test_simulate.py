import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from gbm_cutoff import simulate
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.simulate import (
    BrownianPath,
    estimate_mean_square,
    euler_maruyama,
    magnus_exponent,
    sample_exact_first_order,
    sample_gaussian_pair,
    sample_gaussian_pairs,
    _rng,
)
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


def square_norm(X):
    """|X|^2 reduced as the estimator reduces each path."""
    return float(np.einsum("ni,ni->n", X[None], X[None])[0])


def single_end_state(sys, t, scheme, dt, seed, i):
    """X_t of path i through the public single-path functions."""
    if scheme == "euler_maruyama":
        return euler_maruyama(sys, t, dt, seed, i)
    if scheme == "magnus_truncated":
        return scipy.linalg.expm(magnus_exponent(sys, BrownianPath.sample(t, dt, seed, i), t)) @ sys.x
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

        n2 = 8200  # above one batch of 8192 paths
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
            vals.append(square_norm(scipy.linalg.expm(magnus_exponent(sys, path, t)) @ sys.x))
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


class TestBatchRows:
    @pytest.mark.parametrize(
        "system,scheme",
        [
            (scalar_system, "euler_maruyama"),
            (dense_system, "euler_maruyama"),
            (dense_system, "magnus_truncated"),
            (heisenberg_system, "exact_first_order"),
        ],
    )
    def test_batch_row_is_its_single_path(self, system, scheme):
        sys = system()
        t, dt, seed, n = 0.3, 1e-2, 81, 40
        X = simulate._end_states(sys, t, scheme, dt, seed, 0, n)
        for i in range(n):
            assert np.array_equal(X[i], single_end_state(sys, t, scheme, dt, seed, i))


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

    def test_peak_memory_follows_the_cap(self, monkeypatch):
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
        assert peak < 8 * cap * 8  # a few (rows x steps) arrays of doubles at once

    def test_path_longer_than_the_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 100)
        with pytest.raises(ToolkitError) as err:
            estimate_mean_square(scalar_system(), 2.0, "euler_maruyama", 200, dt=1e-2, seed=1)
        assert err.value.code == "too_many_steps"


class TestSubstreams:
    def test_distinct_indices_distinct_draws(self):
        a = _rng(5, 0).standard_normal(4)
        b = _rng(5, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_same_key_same_draws(self):
        assert np.array_equal(_rng(5, 3).standard_normal(4), _rng(5, 3).standard_normal(4))
