import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from gbm_cutoff.commutative_cutoff import mean_square_commutative
from gbm_cutoff.cubic_solver import CubicCoefficients
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.hypothesis_checks import check_hypotheses
from gbm_cutoff.noncommutative_cutoff import (
    _brackets,
    cutoff_schedule_first_order,
    example35_check,
    mean_square_first_order,
    mode_decomposition,
    select_dominant_mode,
    synthetic_mode_decomposition,
)
from gbm_cutoff.simulate import exact_mean_square
from gbm_cutoff.spectral_asymptotics import _Spectrum, extract_asymptotics
from gbm_cutoff.system import GBMSystem


def elementary(i, j, d=3):
    E = np.zeros((d, d))
    E[i - 1, j - 1] = 1.0
    return E


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


def synthetic_example(x=(1.0, 1.0)):
    return synthetic_mode_decomposition(
        alpha=np.diag([0.2, 0.4]),
        beta=np.diag([0.3, 0.1]),
        Gamma=np.diag([-0.6, -1.2]),
        A=np.diag([-1.0, -2.0]),
        x=np.array(x),
    )


def rotated_synthetic_example(x=(1.0, 1.0)):
    """Same spectra as synthetic_example, conjugated by a fixed rotation."""
    c, s = math.cos(0.7), math.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    conj = lambda D: R @ D @ R.T
    return synthetic_mode_decomposition(
        alpha=conj(np.diag([0.2, 0.4])),
        beta=conj(np.diag([0.3, 0.1])),
        Gamma=conj(np.diag([-0.6, -1.2])),
        A=conj(np.diag([-1.0, -2.0])),
        x=R @ np.array(x),
    )


class TestGammaMatrices:
    def test_commuting_pair(self):
        sys = GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.ones(2))
        dec = mode_decomposition(sys)
        Bhat = np.diag([2.0, 1.0])
        assert np.array_equal(dec.C, np.zeros((2, 2)))
        assert np.array_equal(dec.beta, np.zeros((2, 2)))
        assert np.array_equal(dec.Gamma, np.zeros((2, 2)))
        assert np.allclose(dec.alpha, Bhat @ Bhat / 2.0)

    def test_heisenberg_pair(self):
        # the pair fails step III, so its brackets are read directly
        sys = GBMSystem(A=elementary(2, 3), B=elementary(1, 2), x=np.array([0.0, 0.0, 1.0]))
        C, alpha, beta, Gamma = _brackets(sys)
        # C = [B, A] = +E13 (the Magnus-expansion bracket order)
        assert np.array_equal(C, elementary(1, 3))
        Bhat, Chat = elementary(1, 2) + elementary(2, 1), elementary(1, 3) + elementary(3, 1)
        assert np.array_equal(alpha, Bhat @ Bhat / 2.0)
        assert np.array_equal(beta, Bhat @ Chat / 2.0)
        assert np.allclose(Gamma, (elementary(1, 1) + elementary(3, 3)) / 6.0)

    def test_skew_symmetric_B(self):
        B = np.array([[0.0, 0.4], [-0.4, 0.0]])
        sys = GBMSystem(A=-np.eye(2), B=B, x=np.ones(2))
        dec = mode_decomposition(sys)
        assert np.array_equal(dec.alpha, np.zeros((2, 2)))
        assert np.array_equal(dec.beta, np.zeros((2, 2)))

    def test_p_gamma_zero_for_stable_A(self):
        sys = GBMSystem(A=np.diag([-1.0, -2.0]), B=np.diag([1.0, 0.5]), x=np.ones(2))
        assert mode_decomposition(sys).p_Gamma == 0.0

    def test_no_stabilizer_for_unstable_commuting_pair(self):
        # Gamma = 0 cannot stabilize an unstable A
        sys = GBMSystem(A=np.diag([1.0, -2.0]), B=np.eye(2), x=np.ones(2))
        with pytest.raises(ToolkitError) as err:
            mode_decomposition(sys)
        assert err.value.code == "no_stabilizer"

    def test_stabilizer_power_search(self):
        # unstable A with negative-definite Gamma: smallest power of two wins
        dec = synthetic_mode_decomposition(
            alpha=np.zeros((2, 2)),
            beta=np.zeros((2, 2)),
            Gamma=np.diag([-1.0, -1.0]),
            A=np.diag([0.5, -1.0]),
            x=np.array([1.0, 1.0]),
        )
        assert dec.p_Gamma == 2.0


JORDAN = [[-1.0, 1.0], [0.0, -1.0]]
ROTATION = [[-1.0, 2.0], [-2.0, -1.0]]
# A's diagonal blocks, each with Gamma's eigenvalue on it, and the largest ell
PINNED_BLOCKS = [
    pytest.param([(JORDAN, -1.0), ([[-2.0]], -2.0), ([[-0.5]], -3.0)], 2, id="jordan-d4"),
    pytest.param([(ROTATION, -0.5), ([[-3.0]], -1.0)], 1, id="complex-pair-d3"),
    pytest.param(
        [([[-1.0]], -1.0), ([[-1.0]], -2.0), ([[-1.0]], -3.0), ([[-2.0]], -1.0), ([[-2.0]], -1.5)], 1,
        id="repeated-d5",
    ),
    # A is unstable: p_Gamma = 1 puts -1 and the Jordan block in one cluster of A_tilde
    pytest.param([([[0.5]], -2.0), ([[-1.0]], -1.0), (JORDAN, -1.0)], 2, id="stabilized-d4"),
    pytest.param([(ROTATION, -1.0), (JORDAN, -2.0), ([[-1.0]], -3.0), ([[-0.25]], -0.5)], 2, id="mixed-d6"),
]


def block_synthetic(seed, blocks):
    """Synthetic decomposition in a seeded random orthonormal basis.  A is
    block diagonal there, each block inside one eigenspace of Gamma; alpha
    and beta are diagonal with seeded entries."""
    rng = np.random.default_rng(seed)
    A = scipy.linalg.block_diag(*[np.array(block) for block, _ in blocks])
    g = np.concatenate([np.full(len(block), gamma) for block, gamma in blocks])
    d = len(g)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    conj = lambda M: Q @ M @ Q.T
    return synthetic_mode_decomposition(
        alpha=conj(np.diag(rng.uniform(0.1, 1.0, d))),
        beta=conj(np.diag(rng.uniform(-0.5, 0.5, d))),
        Gamma=conj(np.diag(g)),
        A=conj(A),
        x=rng.standard_normal(d),
    )


class TestModeDecomposition:
    def test_synthetic_diagonal_example(self):
        dec = synthetic_example()
        assert np.allclose(np.abs(dec.basis), np.eye(2))
        assert np.allclose(dec.a_coeffs, [-0.2, -0.4])
        assert np.allclose(dec.b_coeffs, [0.3, 0.1])
        assert np.allclose(dec.g_coeffs, [0.6, 1.2])
        assert np.allclose(dec.lambdas, [1.0, 2.0])
        assert list(dec.ells) == [1, 1]
        assert dec.p_Gamma == 0.0

    def test_rotated_example_recovers_modes(self):
        dec = rotated_synthetic_example()
        assert np.allclose(sorted(dec.g_coeffs), [0.6, 1.2], atol=1e-10)
        assert np.allclose(sorted(dec.a_coeffs), [-0.4, -0.2], atol=1e-10)
        for M in (dec.alpha, dec.beta, dec.Gamma):
            D = dec.basis.T @ M @ dec.basis
            off = D - np.diag(np.diag(D))
            assert np.linalg.norm(off, "fro") < 1e-8

    def test_commuting_pair_decomposition(self):
        sys = GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.ones(2))
        dec = mode_decomposition(sys)
        assert np.allclose(dec.g_coeffs, [0.0, 0.0])
        assert np.allclose(dec.b_coeffs, [0.0, 0.0])

    def test_step3_residuals_recorded(self):
        dec = synthetic_example()
        assert set(dec.step3_residuals) == {"alpha_beta", "alpha_Gamma", "beta_Gamma", "A_Gamma"}
        assert max(dec.step3_residuals.values()) == 0.0

    def test_noncommuting_family_rejected(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ToolkitError) as err:
            synthetic_mode_decomposition(
                alpha=np.diag([1.0, 2.0]), beta=S, Gamma=-np.eye(2),
                A=-np.eye(2), x=np.array([1.0, 0.0]),
            )
        assert err.value.code == "not_commuting"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("blocks,max_ell", PINNED_BLOCKS)
    def test_each_mode_reads_as_its_own_extraction(self, seed, blocks, max_ell):
        # every (lambda_j, ell_j) is read off one split of A_tilde; it must be
        # exactly what a separate extraction for v_j alone gives
        dec = block_synthetic(seed, blocks)
        assert max(dec.ells) == max_ell
        for j in range(dec.dim):
            asym = extract_asymptotics(dec.A_tilde, dec.basis[:, j])
            assert dec.lambdas[j] == asym.q
            assert dec.ells[j] == asym.ell


class TestMeanSquareFirstOrder:
    def test_time_zero(self):
        dec = synthetic_example()
        assert mean_square_first_order(dec, 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_synthetic_diagonal_value(self):
        dec = synthetic_example()
        val = mean_square_first_order(dec, 1.0)
        assert val == pytest.approx(math.exp(-2.7) + math.exp(-4.9), rel=1e-12)

    def test_commuting_pair_matches_commutative_formula(self):
        pairs = [
            GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.array([1.0, 1.0])),
        ]
        P = np.array([[-1.5, 0.4], [0.4, -2.5]])
        pairs.append(GBMSystem(A=P, B=0.2 * P + 0.3 * np.eye(2), x=np.array([1.0, -0.5])))
        for sys in pairs:
            dec = mode_decomposition(sys)
            for t in (0.5, 1.0, 2.0):
                a = mean_square_first_order(dec, t)
                b = mean_square_commutative(sys, t)
                assert abs(a - b) <= 1e-10 * max(abs(b), 1.0)

    def test_p_gamma_independence(self):
        # A is stable, so the search picks p_Gamma = 0; p = 2 is admissible too
        base = synthetic_example()
        assert base.p_Gamma == 0.0
        shifted = dataclasses.replace(base, p_Gamma=2.0, spectrum=_Spectrum(base.A + base.Gamma))
        for t in (0.3, 1.0, 2.2, 4.0):
            a = mean_square_first_order(base, t)
            b = mean_square_first_order(shifted, t)
            assert abs(a - b) <= 1e-9 * max(a, b)

    def test_rotated_example_matches_diagonal(self):
        diag = synthetic_example()
        rot = rotated_synthetic_example()  # x rotated with the modes
        for t in (0.5, 1.5):
            a = mean_square_first_order(diag, t)
            b = mean_square_first_order(rot, t)
            assert a == pytest.approx(b, rel=1e-10)


def commuting_pair(seed, normal):
    """A seeded commuting pair with d <= 4 and C = [B, A] = 0.  B = U T U^T in
    a random orthonormal basis U: T holds 1x1 and rotation-scaling 2x2 blocks
    when B is normal, and is upper triangular with a nonzero strict upper
    part when it is not.  A is a quadratic in B shifted to be stable."""
    rng = np.random.default_rng([seed, normal])
    d = 1 + seed % 4 if normal else 2 + seed % 3
    T = np.diag(rng.uniform(-1.0, 1.0, d))
    if normal:
        for i in range(0, d - 1, 2):
            if rng.random() < 0.5:
                s = rng.uniform(0.2, 1.0)
                T[i, i + 1], T[i + 1, i], T[i + 1, i + 1] = s, -s, T[i, i]
    else:
        T += np.triu(rng.uniform(0.5, 1.5, (d, d)), 1)
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    B = U @ T @ U.T
    c1, c2 = rng.standard_normal(2)
    A = c1 * B + c2 * (B @ B)
    A -= (max(np.linalg.eigvals(A).real) + rng.uniform(0.1, 1.0)) * np.eye(d)
    return GBMSystem(A=A, B=B, x=rng.standard_normal(d))


def normal_integer_pair(seed):
    """A seeded pair with d <= 4 and a normal B: B antisymmetric and A = -2I,
    both plus entries in {-1, 0, 1}.  Most such pairs are neither commutative
    nor first order."""
    rng = np.random.default_rng([seed, 3])
    d = 2 + seed % 3
    A = -2.0 * np.eye(d) + rng.integers(-1, 2, (d, d))
    U = np.triu(rng.integers(-1, 2, (d, d)), 1)
    return GBMSystem(A=A, B=U - U.T, x=rng.standard_normal(d))


class TestAgainstMomentEquation:
    @pytest.mark.parametrize("seed", range(20))
    def test_normal_commuting_pair_matches_moment_equation(self, seed):
        sys = commuting_pair(seed, normal=True)
        dec = mode_decomposition(sys)
        for t in (0.3, 1.0, 2.5):
            exact = exact_mean_square(sys, t)
            assert abs(mean_square_first_order(dec, t) - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("seed", range(20))
    def test_normal_pair_is_refused_outside_both_regimes(self, seed):
        # the mode formula rests on the hypotheses, not only on step III:
        # seeds 0, 3, 10, 12, 15 and 18 pass step III but neither hypothesis
        sys = normal_integer_pair(seed)
        rep = check_hypotheses(sys)
        assert rep.normal_B
        if not (rep.commutative or rep.first_order):
            with pytest.raises(ToolkitError):
                mode_decomposition(sys)
            return
        dec = mode_decomposition(sys)
        for t in (0.3, 1.0, 2.5):
            exact = exact_mean_square(sys, t)
            assert abs(mean_square_first_order(dec, t) - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("seed", range(20))
    def test_commuting_pair_with_non_normal_B_is_refused(self, seed):
        sys = commuting_pair(seed, normal=False)
        assert not check_hypotheses(sys).normal_B
        with pytest.raises(ToolkitError) as err:
            mode_decomposition(sys)
        assert err.value.code == "hypotheses_violated"


class TestSelectionCascade:
    def test_reference_example_mode_one(self):
        dec = synthetic_example()
        sel = select_dominant_mode(dec)
        assert sel.mode == 0
        assert sel.gamma == pytest.approx(0.3)
        assert sel.b == pytest.approx(0.15)
        assert sel.a == pytest.approx(0.9)
        assert sel.ell_star == 0

    def test_orthogonal_initial_state_excludes_mode(self):
        dec = synthetic_example(x=(0.0, 1.0))
        sel = select_dominant_mode(dec)
        assert sel.mode == 1
        assert sel.gamma == pytest.approx(0.6)

    def test_tie_broken_by_next_criterion(self):
        dec = synthetic_mode_decomposition(
            alpha=np.diag([0.2, 0.6]),
            beta=np.diag([0.5, 0.1]),
            Gamma=np.diag([-0.8, -0.8]),  # tie in gamma
            A=np.diag([-1.0, -2.0]),
            x=np.array([1.0, 1.0]),
        )
        sel = select_dominant_mode(dec)
        assert sel.gamma == pytest.approx(0.4)
        assert sel.b == pytest.approx(0.05)  # argmin b over the gamma tie set
        assert sel.mode == 1

    def test_zero_state_orthogonal(self):
        dec = synthetic_example(x=(0.0, 0.0))
        with pytest.raises(ToolkitError) as err:
            select_dominant_mode(dec)
        assert err.value.code == "x_orthogonal"


class TestCutoffScheduleFirstOrder:
    def test_reference_example_schedule(self):
        dec = synthetic_example()
        eps = math.exp(-10.0)
        sched = cutoff_schedule_first_order(dec, eps)
        cubic = CubicCoefficients(0.3, 0.15, 0.9, -10.0)
        ref = bisect_root(cubic, 0.0, 10.0)
        assert sched.regime == "synthetic"
        assert sched.t_eps == pytest.approx(ref, abs=1e-9)
        assert 2.7 < sched.t_eps < 2.9
        assert sched.w_eps == pytest.approx(sched.t_eps**-2, rel=1e-14)
        assert sched.r_eps == 0.0 and sched.tau_eps == sched.t_eps
        assert sched.T_eps == pytest.approx(sched.t_eps, abs=1e-9)  # ell_star = 0

    def test_commuting_pair_is_no_decay(self):
        sys = GBMSystem(A=np.diag([-2.0, -3.0]), B=np.diag([1.0, 0.5]), x=np.ones(2))
        dec = mode_decomposition(sys)
        sched = cutoff_schedule_first_order(dec, math.exp(-8.0))
        assert sched.regime == "no_decay"
        assert "commutative" in sched.note

    def test_eps_domain(self):
        dec = synthetic_example()
        with pytest.raises(ToolkitError) as err:
            cutoff_schedule_first_order(dec, 0.9)
        assert err.value.code == "bad_epsilon"

    def test_cutoff_threshold_factor(self):
        dec = synthetic_example()
        eps = math.exp(-15.0)
        sched = cutoff_schedule_first_order(dec, eps)
        lo = mean_square_first_order(dec, sched.t_eps - 5.0 * sched.w_eps) / eps**2
        hi = mean_square_first_order(dec, sched.t_eps + 5.0 * sched.w_eps) / eps**2
        assert lo / hi >= 1e3

    def test_cubic_time_scale_asymptotics(self):
        dec = synthetic_example()
        ratios = []
        for n in range(10, 41, 10):
            sched = cutoff_schedule_first_order(dec, math.exp(-float(n)))
            ratios.append(sched.t_eps * sched.gamma ** (1.0 / 3.0) / n ** (1.0 / 3.0))
        assert 0.9 <= ratios[-1] <= 1.1
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations[-1] < deviations[0]

    def test_log_cubic_schedule_with_jordan_modes(self):
        # A with a Jordan block aligned to a mode: ell = 2, so ell_star = 1
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])
        dec = synthetic_mode_decomposition(
            alpha=np.diag([0.2, 0.2]),
            beta=np.zeros((2, 2)),
            Gamma=-0.6 * np.eye(2),
            A=A,
            x=np.array([0.0, 1.0]),
        )
        assert max(dec.ells) == 2
        eps = math.exp(-12.0)
        sched = cutoff_schedule_first_order(dec, eps)
        assert sched.ell_star == 1
        assert sched.T_eps is not None and sched.r_eps is not None
        assert sched.tau_eps == pytest.approx(sched.t_eps + sched.r_eps)
        assert abs(sched.T_eps - sched.tau_eps) / sched.T_eps < 0.05


class TestExample35:
    def test_t_equals_one(self):
        pt = example35_check(1.0)
        assert pt.x == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert pt.g == pytest.approx(1.0, abs=1e-10)
        assert pt.f == pytest.approx(-5.0 * math.exp(-2.0), rel=1e-9)

    def test_t_equals_two(self):
        pt = example35_check(2.0)
        assert pt.x == pytest.approx(math.exp(-12.0), rel=1e-14)
        assert pt.g == pytest.approx(2.0, abs=1e-10)
        assert pt.f == pytest.approx(-16.0 * math.exp(-12.0), rel=1e-9)

    def test_sweep_identity(self):
        for t in np.linspace(0.2, 2.0, 100):
            pt = example35_check(float(t))
            assert abs(pt.g - t) < 1e-8
            assert abs(pt.f - (-(3 * t**2 + 2 * t) * pt.x)) < 1e-6

    def test_small_t_rejected(self):
        with pytest.raises(ToolkitError) as err:
            example35_check(0.1)
        assert err.value.code == "branch_violation"
