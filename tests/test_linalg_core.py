import numpy as np
import pytest

from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.linalg_core import (
    commutator,
    is_hurwitz,
    matrix_exp,
    matrix_from_rows,
    matrix_to_rows,
    sym_eig,
    simultaneous_diagonalize,
)


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


class TestMatrixExp:
    def test_zero_gives_identity(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        E = matrix_exp(np.diag([-1.0, -2.0]))
        assert np.allclose(E, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-14)

    def test_nilpotent(self):
        N = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(matrix_exp(N), np.eye(2) + N, atol=1e-15)

    def test_rotation_generator(self):
        theta = np.pi / 2
        G = np.array([[0.0, theta], [-theta, 0.0]])
        assert np.allclose(matrix_exp(G), np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14)

    def test_against_series_oracle_small_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            M = rng.standard_normal((4, 4))
            M *= 0.9 / np.linalg.norm(M, "fro")
            assert rel_fro(matrix_exp(M), series_expm(M)) <= 1e-11

    def test_against_series_oracle_larger_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = rng.standard_normal((5, 5)) * 2.0
            assert rel_fro(matrix_exp(M), series_expm(M)) <= 1e-10

    def test_exp_inverse_property(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            M = rng.standard_normal((4, 4))
            M *= 5.0 / np.linalg.norm(M, "fro")
            P = matrix_exp(M) @ matrix_exp(-M)
            assert rel_fro(P, np.eye(4)) <= 1e-9

    def test_bchd_degenerate_case_commuting(self):
        # commuting exponents built as polynomials in one matrix
        rng = np.random.default_rng(6)
        for _ in range(10):
            P = rng.standard_normal((4, 4))
            P *= 1.5 / np.linalg.norm(P, "fro")
            U = 0.3 * P + 0.1 * P @ P
            V = -0.2 * P + 0.05 * P @ P @ P
            lhs = matrix_exp(U) @ matrix_exp(V)
            rhs = matrix_exp(U + V)
            assert rel_fro(lhs, rhs) <= 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(ToolkitError) as err:
            matrix_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        assert err.value.code == "not_finite"


class TestIsHurwitz:
    def test_stable_diagonal(self):
        assert is_hurwitz(np.diag([-1.0, -2.0]), 0.0)

    def test_boundary_eigenvalue(self):
        assert not is_hurwitz(np.diag([-1.0, 0.0]), 1e-9)

    def test_complex_pair(self):
        assert is_hurwitz(np.array([[-1.0, 2.0], [-2.0, -1.0]]), 0.0)


class TestSymEig:
    def test_diagonal(self):
        dec = sym_eig(np.diag([3.0, 1.0]))
        assert sorted(dec.eigenvalues.real) == [1.0, 3.0]
        assert dec.orthonormal

    def test_swap_matrix(self):
        dec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(dec.eigenvalues.real), [-1.0, 1.0])
        for j in range(2):
            v = dec.basis[:, j]
            assert np.allclose(np.abs(v), [1.0 / np.sqrt(2.0)] * 2)

    def test_reconstruction_residual_random_6x6(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((6, 6))
        M = 0.5 * (M + M.T)
        dec = sym_eig(M)
        R = dec.basis @ np.diag(dec.eigenvalues.real) @ dec.basis.T
        assert rel_fro(R, M) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ToolkitError) as err:
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert err.value.code == "not_symmetric"


class TestSimultaneousDiagonalize:
    def test_diagonal_family(self):
        dec = simultaneous_diagonalize([np.diag([1.0, 2.0]), np.diag([3.0, 4.0])])
        assert np.allclose(np.abs(dec.basis), np.eye(2))

    def test_identity_commutes_with_everything(self):
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        dec = simultaneous_diagonalize([S, np.eye(2)])
        assert np.allclose(np.abs(dec.basis), np.full((2, 2), 1.0 / np.sqrt(2.0)))

    def test_power_family_matches_sym_eig(self):
        rng = np.random.default_rng(9)
        P = rng.standard_normal((5, 5))
        P = 0.5 * (P + P.T)
        dec = simultaneous_diagonalize([P, P @ P])
        ref = sym_eig(P)
        # columns agree up to sign and ordering: match by maximal overlap
        overlap = np.abs(dec.basis.T @ ref.basis)
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
        dec = simultaneous_diagonalize(family)
        V = dec.basis
        for M in family:
            D = V.T @ M @ V
            off = D - np.diag(np.diag(D))
            assert np.linalg.norm(off, "fro") < 1e-8 * (1.0 + np.linalg.norm(M, "fro"))

    def test_rejects_noncommuting(self):
        U = np.diag([1.0, 2.0])
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ToolkitError) as err:
            simultaneous_diagonalize([U, S])
        assert err.value.code == "not_commuting"

    def test_degenerate_member_first(self):
        # a fully degenerate first member must not freeze the basis
        S = np.array([[0.0, 1.0], [1.0, 0.0]])
        dec = simultaneous_diagonalize([np.eye(2), S])
        D = dec.basis.T @ S @ dec.basis
        assert abs(D[0, 1]) < 1e-10 and abs(D[1, 0]) < 1e-10

    def test_progressive_splitting_chain(self):
        # eigenvalue degeneracies resolved one family member at a time
        M1 = np.diag([1.0, 1.0, 2.0])
        M2 = np.diag([3.0, 4.0, 4.0])
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        dec = simultaneous_diagonalize([R @ M1 @ R.T, R @ M2 @ R.T])
        for M in (M1, M2):
            D = dec.basis.T @ (R @ M @ R.T) @ dec.basis
            off = D - np.diag(np.diag(D))
            assert np.linalg.norm(off, "fro") < 1e-10


class TestSerialization:
    def test_round_trip(self):
        M = np.array([[1.5, -2.0], [0.25, 1e-9]])
        assert np.array_equal(matrix_from_rows(matrix_to_rows(M)), M)
