import math

import numpy as np
import pytest

from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.linalg_core import (
    CLUSTER_GAP,
    commutator,
    expm_stack,
    fro,
    matrix_to_rows,
    simultaneous_diagonalize,
)
from gbm_cutoff.simulate import sample_gaussian_pairs
from gbm_cutoff.spectral_asymptotics import is_hurwitz


def series_expm(M, terms=60):
    """Independent oracle: plain truncated Taylor series with scaling by 2^s."""
    M = np.asarray(M, dtype=float)
    s = max(0, int(np.ceil(np.log2(max(np.linalg.norm(M, "fro"), 1e-300)))) + 1)
    S = M / 2**s
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ S / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def rel_fro(X, Y):
    return np.linalg.norm(X - Y, "fro") / max(np.linalg.norm(Y, "fro"), 1e-300)


class TestFro:
    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided"])
    def test_same_bits_as_numpy(self, layout):
        rng = np.random.default_rng(7)
        for d in (1, 2, 5, 9):
            M = rng.standard_normal((d, d)) * 10.0 ** rng.integers(-5, 5, (d, d))
            M = {"C": M, "F": np.asfortranarray(M), "transposed": M.T, "strided": np.vstack([M, M])[::2]}[layout]
            assert fro(M) == float(np.linalg.norm(M, "fro"))

    def test_non_finite_entries(self):
        assert fro(np.array([[1.0, np.inf], [0.0, 1.0]])) == math.inf
        assert math.isnan(fro(np.array([[np.nan, 0.0], [0.0, 1.0]])))


class TestCommutator:
    def test_self_bracket_vanishes(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(commutator(A, A), np.zeros((2, 2)))

    def test_elementary_pair(self):
        U = np.array([[0.0, 1.0], [0.0, 0.0]])
        V = np.array([[0.0, 0.0], [1.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, -1.0]])
        assert np.array_equal(commutator(U, V), expected)

    def test_bilinearity_on_random_5x5(self):
        rng = np.random.default_rng(7)
        U, V, W = rng.standard_normal((3, 5, 5))
        lhs = commutator(U, V + W)
        rhs = commutator(U, V) + commutator(U, W)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ToolkitError) as err:
            commutator(np.eye(2), np.eye(3))
        assert err.value.code == "dim_mismatch"

    def test_non_finite_entries_propagate(self):
        # the bracket residuals of overflowing pairs report nan, not an error
        with np.errstate(invalid="ignore"):
            C = commutator(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2))
        assert np.isnan(C[0, 0]) and C[1, 1] == 0.0

    def test_jacobi_identity_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            U, V, W = rng.standard_normal((3, 4, 4))
            resid = (
                commutator(U, commutator(V, W))
                + commutator(V, commutator(W, U))
                + commutator(W, commutator(U, V))
            )
            scale = 1.0 + np.prod([np.linalg.norm(M, "fro") for M in (U, V, W)])
            assert np.linalg.norm(resid, "fro") <= 1e-10 * scale


def nilpotent(a, b, c):
    """A strictly upper-triangular 3 x 3 matrix; its exponential is I + Y + Y^2/2."""
    return np.array([[0.0, a, b], [0.0, 0.0, c], [0.0, 0.0, 0.0]])


def rel_one(X, R):
    """Normwise (1-norm) relative error of X against the reference R."""
    return np.linalg.norm(X - R, 1) / np.linalg.norm(R, 1)


class TestExpmStack:
    # Largest normwise error against these exact references over 2000 draws
    # of each family below (numpy 2.4.6): strictly upper-triangular 3.3e-16
    # (entries up to 2^20), U diag(lambda) U^T 4.7e-15, rotation-scaling
    # 3.8e-15, 1 x 1 2.2e-16.
    RTOL = 1e-14

    def test_strictly_upper_triangular(self):
        rng = np.random.default_rng(11)
        entries = rng.standard_normal((300, 3)) * rng.choice([0.1, 1.0, 3.0], (300, 1))
        Y = np.array([nilpotent(*v) for v in entries])
        for R, M in zip(expm_stack(Y), Y):
            assert rel_one(R, np.eye(3) + M + M @ M / 2) <= self.RTOL

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_heisenberg_exponents(self, t):
        # t A + W_t B + (t W_t / 2 - int W) [B, A] with A = E23, B = E12, [B, A] = E13
        w, integral = sample_gaussian_pairs(t, 12, 500)
        Y = np.array([nilpotent(a, 0.5 * t * a - i, t) for a, i in zip(w, integral)])
        for R, M in zip(expm_stack(Y), Y):
            assert rel_one(R, np.eye(3) + M + M @ M / 2) <= self.RTOL

    def test_one_by_one_is_the_scalar_exponential(self):
        y = np.linspace(-30.0, 30.0, 601)
        R = expm_stack(y[:, None, None])
        assert R.shape == (601, 1, 1)
        for r, v in zip(R[:, 0, 0], y):
            assert r == pytest.approx(math.exp(v), rel=self.RTOL)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_orthogonally_diagonalizable(self, d):
        rng = np.random.default_rng(13 + d)
        Ys, refs = [], []
        for _ in range(100):
            U, _ = np.linalg.qr(rng.standard_normal((d, d)))
            lam = rng.uniform(-3.0, 3.0, d)
            Ys.append(U @ np.diag(lam) @ U.T)
            refs.append(U @ np.diag(np.exp(lam)) @ U.T)
        for R, ref in zip(expm_stack(np.array(Ys)), refs):
            assert rel_one(R, ref) <= self.RTOL

    def test_rotation_scaling_blocks(self):
        rng = np.random.default_rng(14)
        ab = rng.uniform(-3.0, 3.0, (300, 2))
        Y = np.array([[[a, b], [-b, a]] for a, b in ab])
        for R, (a, b) in zip(expm_stack(Y), ab):
            ref = math.exp(a) * np.array([[math.cos(b), math.sin(b)], [-math.sin(b), math.cos(b)]])
            assert rel_one(R, ref) <= self.RTOL

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_zero_gives_identity(self, d):
        assert np.array_equal(expm_stack(np.zeros((3, d, d))), np.broadcast_to(np.eye(d), (3, d, d)))

    def test_rows_with_scaling_powers_0_to_30(self):
        # 1-norm 0.75 theta_13 2^k, so row k is squared k times (row 0 not at all)
        r = 0.75 * 5.371920351148152 * 2.0 ** np.arange(31)
        Y = np.array([nilpotent(0.5 * v, 0.25 * v, -0.5 * v) for v in r])
        R = expm_stack(Y)
        for k, (Rk, M) in enumerate(zip(R, Y)):
            assert rel_one(Rk, np.eye(3) + M + M @ M / 2) <= self.RTOL
            assert np.array_equal(Rk, expm_stack(M[None])[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_row_is_the_kernel_on_that_row_alone(self, d, n):
        rng = np.random.default_rng([15, d])
        scales = np.repeat([0.01, 0.3, 1.0, 5.0, 40.0, 300.0], 6)
        Y = rng.standard_normal((len(scales), d, d)) * scales[:, None, None]
        Y[::7] = np.triu(Y[::7], 1)
        Y[5] = 0.0
        R = expm_stack(Y)
        for i in range(len(Y) - n + 1):
            assert np.array_equal(expm_stack(Y[i : i + n])[0], R[i])

    def test_non_finite_rows_come_out_non_finite(self):
        Y = np.zeros((7, 3, 3))
        Y[0, 0, 1] = np.inf
        Y[1, 2, 2] = np.nan
        Y[2, 1, 0] = -np.inf
        Y[3, :, 0] = 1e308  # finite entries whose 1-norm overflows
        Y[4] = 800.0 * np.eye(3)  # a finite exponent whose exponential overflows
        Y[5] = np.diag([1.0, 2.0, 3.0])
        Y[6] = nilpotent(1.0, 2.0, 3.0)
        with np.errstate(all="ignore"):
            R = expm_stack(Y)
            for i in (5, 6):
                assert np.array_equal(R[i], expm_stack(Y[i : i + 1])[0])
        assert np.isnan(R[:4]).all()
        assert not np.isfinite(R[4]).all()
        assert np.isfinite(R[5:]).all()

    def test_one_by_one_non_finite_rows_come_out_nan(self):
        y = np.array([np.inf, -np.inf, np.nan, 1.0])
        with np.errstate(all="ignore"):
            R = expm_stack(y[:, None, None])[:, 0, 0]
        assert np.isnan(R[:3]).all() and R[3] == math.exp(1.0)


def expm(M):
    """exp(M) of one matrix, as a one-matrix expm_stack."""
    return expm_stack(M[None])[0]


class TestExpmStackDense:
    # dense non-normal exponents, against the Taylor-series oracle
    def test_against_series_oracle_small_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            M = rng.standard_normal((4, 4))
            M *= 0.9 / np.linalg.norm(M, "fro")
            assert rel_fro(expm(M), series_expm(M)) <= 1e-11

    def test_against_series_oracle_larger_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = rng.standard_normal((5, 5)) * 2.0
            assert rel_fro(expm(M), series_expm(M)) <= 1e-10

    def test_exp_inverse_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = rng.standard_normal((4, 4))
            M *= 5.0 / np.linalg.norm(M, "fro")
            P = expm(M) @ expm(-M)
            assert rel_fro(P, np.eye(4)) <= 1e-9

    def test_bchd_degenerate_case_commuting(self):
        # commuting exponents built as polynomials in one matrix
        rng = np.random.default_rng(6)
        for _ in range(10):
            P = rng.standard_normal((4, 4))
            P *= 1.5 / np.linalg.norm(P, "fro")
            U = 0.3 * P + 0.1 * P @ P
            V = -0.2 * P + 0.05 * P @ P @ P
            lhs = expm(U) @ expm(V)
            rhs = expm(U + V)
            assert rel_fro(lhs, rhs) <= 1e-8


class TestIsHurwitz:
    def test_stable_diagonal(self):
        assert is_hurwitz(np.diag([-1.0, -2.0]), 0.0)

    def test_boundary_eigenvalue(self):
        assert not is_hurwitz(np.diag([-1.0, 0.0]), 1e-9)

    def test_complex_pair(self):
        assert is_hurwitz(np.array([[-1.0, 2.0], [-2.0, -1.0]]), 0.0)


class TestSimultaneousDiagonalize:
    def test_diagonal_family(self):
        V = simultaneous_diagonalize([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert np.allclose(np.abs(V), np.eye(2))

    def test_identity_commutes_with_everything(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = simultaneous_diagonalize([S, np.eye(2)])
        assert np.allclose(np.abs(V), np.full((2, 2), 1.0 / np.sqrt(2.0)))

    def test_power_family_matches_eigh(self):
        rng = np.random.default_rng(9)
        P = rng.standard_normal((5, 5))
        P = 0.5 * (P + P.T)
        V = simultaneous_diagonalize([P, P @ P])
        _, ref = np.linalg.eigh(P)
        # columns agree up to sign and ordering: match by maximal overlap
        overlap = np.abs(V.T @ ref)
        matched = set()
        for j in range(5):
            k = int(np.argmax(overlap[j]))
            assert overlap[j, k] > 1.0 - 1e-8
            matched.add(k)
        assert len(matched) == 5

    def test_off_diagonal_residual_random_commuting(self):
        rng = np.random.default_rng(10)
        P = rng.standard_normal((6, 6))
        P = 0.5 * (P + P.T)
        family = [0.7 * P - 0.1 * P @ P, P @ P @ P, np.eye(6) + 0.2 * P]
        V = simultaneous_diagonalize(family)
        for M in family:
            D = V.T @ M @ V
            off = D - np.diag(np.diag(D))
            assert np.linalg.norm(off, "fro") < 1e-8 * (1.0 + np.linalg.norm(M, "fro"))

    def test_rejects_asymmetric(self):
        with pytest.raises(ToolkitError) as err:
            simultaneous_diagonalize([np.array([[0.0, 1.0], [0.0, 0.0]])])
        assert err.value.code == "not_symmetric"

    def test_rejects_noncommuting(self):
        U = np.diag([1.0, 2.0])
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ToolkitError) as err:
            simultaneous_diagonalize([U, S])
        assert err.value.code == "not_commuting"

    def test_degenerate_member_first(self):
        # a fully degenerate first member must not freeze the basis
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        V = simultaneous_diagonalize([np.eye(2), S])
        D = V.T @ S @ V
        assert abs(D[0, 1]) < 1e-10 and abs(D[1, 0]) < 1e-10

    def test_progressive_splitting_chain(self):
        # eigenvalue degeneracies resolved one family member at a time
        M1 = np.diag([1.0, 1.0, 2.0])
        M2 = np.diag([3.0, 4.0, 4.0])
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        V = simultaneous_diagonalize([R @ M1 @ R.T, R @ M2 @ R.T])
        for M in (M1, M2):
            D = V.T @ (R @ M @ R.T) @ V
            off = D - np.diag(np.diag(D))
            assert np.linalg.norm(off, "fro") < 1e-10

    @pytest.mark.parametrize("steps,blocks", [
        # each within the gap of the next, the ends beyond it
        pytest.param([0.75, 0.75], 1, id="chain-is-one-block"),
        pytest.param([1.25], 2, id="pair-beyond-gap-splits"),
    ])
    def test_cluster_gap_boundary(self, steps, blocks):
        # M1's eigenvalues lie near 1, where the cluster gap is about 2 CLUSTER_GAP;
        # M2 = diag(n, .., 1) is diagonalized inside M1's blocks, which reverses
        # the basis of a single block
        w = np.cumsum([1.0] + [s * 2.0 * CLUSTER_GAP for s in steps])
        n = len(w)
        V = simultaneous_diagonalize([np.diag(w), np.diag(np.arange(n, 0, -1.0))])
        expected = np.eye(n)[::-1] if blocks == 1 else np.eye(n)
        assert np.array_equal(np.abs(V), expected)


class TestSerialization:
    def test_round_trip(self):
        M = np.array([[1.5, -2.0], [0.25, 1e-9]])
        assert np.array_equal(np.array(matrix_to_rows(M)), M)
