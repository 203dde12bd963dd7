"""The closed forms' factored exponential: eig path, expm fallback, accuracy.

`spectral_asymptotics._Spectrum.exp_action` reads exp(tM)V u off the one
eigendecomposition of a drift when the eigenbasis is well conditioned, else
calls scipy.linalg.expm per t.  These tests pin which drifts take which path, that
the library and the CLI print the same bits, and the accuracy of both
closed forms against a 40-digit reference.
"""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from gbm_cutoff import cli
from gbm_cutoff.cli import load_config, main
from gbm_cutoff.commutative_cutoff import drift_evaluator, drift_mean_square
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.noncommutative_cutoff import mean_square_first_order, synthetic_mode_decomposition
from gbm_cutoff.spectral_asymptotics import _Spectrum

TRIANGULAR_C = (1e2, 1e4, 1e6)
TRIANGULAR_T = (0.5, 5.0, 20.0)
ROTATION = np.array([[-0.5, 0.3], [-30.0, -0.5]])


def orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def triangular(c):
    """Q = [[-1, c], [0, -1]]: |exp(tQ)e2|^2 = e^{-2t}(1 + (ct)^2)."""
    return np.array([[-1.0, c], [0.0, -1.0]])


def symmetric_drift(d, seed):
    rng = np.random.default_rng(seed)
    U = orthogonal(rng, d)
    Q = U @ np.diag(-rng.uniform(0.1, 1.0, d)) @ U.T
    return 0.5 * (Q + Q.T), rng.standard_normal(d)


def jordan_drift():
    """The benchmark's kind of Jordan config: A = U [[mu, kappa], [0, mu]] U^T
    and B = c I, so Q = A + c^2 I has one defective eigenvalue."""
    U = orthogonal(np.random.default_rng(3), 2)
    return U @ np.array([[-1.2, 1.0], [0.0, -1.2]]) @ U.T + 0.16 * np.eye(2)


def synthetic_decomposition(d, seed):
    """Modes diagonal in U diag U^T (not exactly symmetric), ordered so the
    mode of slowest drift decay also has the smallest cubic coefficients."""
    rng = np.random.default_rng(seed)
    U = orthogonal(rng, d)

    def rotated(v):
        return U @ np.diag(v) @ U.T

    A = rotated(-np.sort(rng.uniform(0.1, 1.0, d)))
    alpha = rotated(-np.sort(rng.uniform(0.0, 0.5, d)))
    Gamma = rotated(-np.sort(rng.uniform(0.001, 0.01, d)))
    beta = rotated(np.sort(rng.uniform(0.0, 0.05, d)))
    return synthetic_mode_decomposition(alpha, beta, Gamma, A, rng.standard_normal(d))


def count_expm(monkeypatch) -> list:
    calls = []
    expm = scipy.linalg.expm

    def counted(M):
        calls.append(None)
        return expm(M)

    monkeypatch.setattr(scipy.linalg, "expm", counted)
    return calls


def commutative_config(tmp_path, A, x, **extra) -> str:
    d = len(x)
    cfg = {"mode": "commutative", "A": np.asarray(A).tolist(), "B": np.zeros((d, d)).tolist(),
           "x": np.asarray(x, dtype=float).tolist(), **extra}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestTriangularFamily:
    @pytest.mark.parametrize("c", TRIANGULAR_C)
    def test_library_matches_the_exact_formula(self, c):
        msq = drift_evaluator(triangular(c), [0.0, 1.0])
        for t in TRIANGULAR_T:
            exact = math.exp(-2.0 * t) * (1.0 + (c * t) ** 2)
            assert abs(msq(t) - exact) <= 1e-14 * exact

    @pytest.mark.parametrize("c", TRIANGULAR_C)
    def test_cli_closed_form_column_matches_the_exact_formula(self, tmp_path, capsys, c):
        path = commutative_config(tmp_path, triangular(c), [0.0, 1.0], t_grid=list(TRIANGULAR_T),
                                  mc={"n_paths": 100, "dt": 0.5})
        assert main(["mean-square", "--config", path, "--out", "-"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        for (t, closed, _, _), t_ref in zip(rows, TRIANGULAR_T):
            exact = math.exp(-2.0 * t_ref) * (1.0 + (c * t_ref) ** 2)
            assert float(t) == t_ref
            assert abs(float(closed) - exact) <= 1e-14 * exact


class TestPath:
    @pytest.mark.parametrize("Q,x", [(triangular(c), [0.0, 1.0]) for c in TRIANGULAR_C]
                             + [(jordan_drift(), [0.6, 0.8])])
    def test_defective_drifts_take_expm(self, monkeypatch, Q, x):
        calls = count_expm(monkeypatch)
        msq = drift_evaluator(Q, x)
        for t in TRIANGULAR_T:
            msq(t)
        assert len(calls) == len(TRIANGULAR_T)

    @pytest.mark.parametrize("Q,x", [symmetric_drift(8, 5), (ROTATION, [1.0, 0.0])])
    def test_diagonalizable_drifts_make_no_expm_call(self, monkeypatch, Q, x):
        calls = count_expm(monkeypatch)
        msq = drift_evaluator(Q, x)
        for t in (0.0, 0.3, 2.0, 9.0, 25.0):
            msq(t)
        assert calls == []

    def test_first_order_mean_squares_share_one_eig(self, monkeypatch):
        # the one eig of A_tilde is the p_Gamma search's, which the modes and
        # every mean square read
        eig, calls = np.linalg.eig, []

        def counted(M):
            calls.append(None)
            return eig(M)

        monkeypatch.setattr(np.linalg, "eig", counted)
        expms = count_expm(monkeypatch)
        dec = synthetic_decomposition(4, 11)
        for t in (0.5, 1.0, 3.0):
            mean_square_first_order(dec, t)
        assert (len(calls), expms) == (1, [])

    def test_non_finite_drift_never_reaches_eig(self, monkeypatch):
        def refused(M):
            raise AssertionError("eig called on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "eig", refused)
        M = np.array([[-1.0, np.inf], [0.0, -2.0]])
        x = np.array([1.0, 1.0])
        with np.errstate(all="ignore"):
            got = _Spectrum(M).exp_action(x[:, None])(0.5, np.ones(1))
            np.testing.assert_array_equal(got, scipy.linalg.expm(0.5 * M) @ x)

    def test_failed_eig_fails_the_split_and_leaves_expm_to_the_action(self, monkeypatch):
        def failing(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        calls = count_expm(monkeypatch)
        spectrum = _Spectrum(ROTATION)
        with pytest.raises(ToolkitError) as err:
            spectrum.clusters
        assert err.value.code == "eig_failure"
        spectrum.exp_action(np.array([[1.0], [0.0]]))(0.5, np.ones(1))
        assert len(calls) == 1

    @pytest.mark.parametrize("M", [np.diag([1.0, 2.0]), np.array([[1.0, 3.0], [-3.0, 1.0]])])
    def test_overflow_comes_out_as_expm_does(self, M):
        # e^{800} overflows: the eig path would give 0 * inf = nan, and nan
        # would read as a crossing in a mixing search; expm's inf does not
        x = np.array([1.0, 1.0])
        with np.errstate(all="ignore"):
            got = _Spectrum(M).exp_action(x[:, None])(800.0, np.ones(1))
            ref = scipy.linalg.expm(800.0 * M) @ x
            np.testing.assert_array_equal(got, ref)
            assert math.isinf(drift_mean_square(M, x, 800.0)) == math.isinf(float(ref @ ref))


@pytest.mark.parametrize("Q,x", [(triangular(1e4), np.array([0.0, 1.0])), symmetric_drift(8, 5),
                                 (ROTATION, np.array([1.0, 0.0])), (jordan_drift(), np.array([0.6, 0.8]))])
def test_library_and_cli_print_the_same_bits(tmp_path, Q, x):
    cfg = load_config(commutative_config(tmp_path, Q, x))
    msq = cli._closed_form(cfg, cli._system(cfg)).msq
    for t in (0.0, 0.5, 5.0, 20.0):
        assert drift_mean_square(Q, x, t) == msq(t)


class TestAgainstMpmath:
    """|exp(tQ)x|^2 and the mode formula against mpmath.expm at 40 digits."""

    TS = (0.3, 1.0, 3.0, 7.0, 15.0, 25.0)

    def worst(self, mp, cases) -> float:
        out = 0.0
        for closed, M, vector in cases:
            Mp = mp.matrix(M.tolist())
            for t in self.TS:
                v = mp.expm(Mp * mp.mpf(t)) * mp.matrix(vector(mp, t))
                exact = sum(v[i] ** 2 for i in range(v.rows))
                out = max(out, float(abs(mp.mpf(closed(t)) - exact) / exact))
        return out

    @pytest.mark.parametrize("family", ["symmetric", "synthetic", "rotation", "jordan"])
    def test_worst_relative_error(self, family):
        mp = pytest.importorskip("mpmath")
        cases = []
        if family == "synthetic":
            for d in range(2, 6):
                dec = synthetic_decomposition(d, 20 + d)

                def vector(mp, t, dec=dec):
                    t = mp.mpf(t)
                    w = [mp.exp(-mp.mpf(a) * t / 2 - mp.mpf(b) * t**2 / 2 - mp.mpf(g) * (t**3 - mp.mpf(dec.p_Gamma) * t) / 2)
                         * mp.mpf(o) for a, b, g, o in zip(dec.a_coeffs, dec.b_coeffs, dec.g_coeffs, dec.overlaps)]
                    return mp.matrix(dec.basis.tolist()) * mp.matrix(w)

                cases.append((lambda t, dec=dec: mean_square_first_order(dec, t), dec.A_tilde, vector))
        else:
            if family == "symmetric":
                drifts = [symmetric_drift(d, d) for d in range(2, 9)]
            elif family == "rotation":
                drifts = [(ROTATION, np.array([1.0, 0.0]))]
            else:  # a Jordan block, on the expm path
                drifts = [(np.array([[-0.8, 1.0], [0.0, -0.8]]), np.array([0.6, 0.8]))]
            for Q, x in drifts:
                cases.append((drift_evaluator(Q, x), Q, lambda mp, t, x=x: x.tolist()))
        with mp.workdps(40):
            assert self.worst(mp, cases) <= 1e-13
