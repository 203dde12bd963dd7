"""The closed forms' factored exponential: one split, no expm, accuracy.

`spectral_asymptotics._Spectrum.exp_action` reads exp(tM)V u off the blocks
of the one split of a drift: W's columns when its eigenbasis is well
conditioned, else the Schur blocks, rounded Jordan chains merged into one.
These tests pin that no closed form calls scipy.linalg.expm, how overflow
and non-finite drifts come out, that the library and the CLI print the same
bits, and the accuracy of both closed forms against a 40-digit reference.
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


ROTATION_U = np.array([[0.6, -0.8], [0.8, 0.6]])


def rotated_jordan2(kappa):
    """U [[-1, kappa], [0, -1]] U^T: eig splits the chain into two eigenvalues
    more than the clustering gap apart."""
    return ROTATION_U @ np.array([[-1.0, kappa], [0.0, -1.0]]) @ ROTATION_U.T


def _rz(a):
    return np.array([[math.cos(a), -math.sin(a), 0.0], [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])


# R J3 R^T with J3 = -I + E12 + E23 and R = Rz(0.7) [[1, 0, 0], [0, 0.6, -0.8], [0, 0.8, 0.6]]
_R3 = _rz(0.7) @ np.array([[1.0, 0.0, 0.0], [0.0, 0.6, -0.8], [0.0, 0.8, 0.6]])
ROTATED_J3 = _R3 @ (-np.eye(3) + np.eye(3, k=1)) @ _R3.T
X_J3 = np.array([0.3, 0.5, 0.8])


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


def refuse_expm(monkeypatch):
    def refused(M):
        raise AssertionError("scipy.linalg.expm called")

    monkeypatch.setattr(scipy.linalg, "expm", refused)


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


def first_order_config(tmp_path) -> str:
    """A commuting pair in first_order mode: A = diag(-2, -3), B = diag(1, 0.5)."""
    cfg = {"mode": "first_order", "A": [[-2.0, 0.0], [0.0, -3.0]], "B": [[1.0, 0.0], [0.0, 0.5]], "x": [1.0, 1.0],
           "t_grid": [0.0, 0.5, 2.0, 9.0]}
    path = tmp_path / "first_order.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestPath:
    @pytest.mark.parametrize("Q,x", [(triangular(c), [0.0, 1.0]) for c in TRIANGULAR_C]
                             + [(jordan_drift(), [0.6, 0.8]), symmetric_drift(8, 5), (ROTATION, [1.0, 0.0])])
    def test_commutative_closed_form_calls_no_expm(self, monkeypatch, Q, x):
        refuse_expm(monkeypatch)
        msq = drift_evaluator(Q, x)
        for t in (0.0, 0.3, 2.0, 9.0, 25.0):
            assert math.isfinite(msq(t))

    def test_first_order_mean_squares_share_one_eig_and_call_no_expm(self, monkeypatch):
        # the one eig of A_tilde is the p_Gamma search's, which the modes and
        # every mean square read
        eig, calls = np.linalg.eig, []

        def counted(M):
            calls.append(None)
            return eig(M)

        monkeypatch.setattr(np.linalg, "eig", counted)
        refuse_expm(monkeypatch)
        dec = synthetic_decomposition(4, 11)
        for t in (0.5, 1.0, 3.0):
            mean_square_first_order(dec, t)
        assert len(calls) == 1

    # a real first-order pair has no decaying cubic, so mixing and profile are no_decay
    @pytest.mark.parametrize("command", ["mean-square", "analyze"])
    def test_first_order_reports_call_no_expm(self, tmp_path, monkeypatch, command):
        refuse_expm(monkeypatch)
        assert main([command, "--config", first_order_config(tmp_path), "--out", "-", "--paths", "100"]) == 0

    def test_non_finite_drift_never_reaches_eig_and_acts_as_nan(self, monkeypatch):
        def refused(M):
            raise AssertionError("eig called on a non-finite matrix")

        monkeypatch.setattr(np.linalg, "eig", refused)
        M = np.array([[-1.0, np.inf], [0.0, -2.0]])
        s, v = _Spectrum(M).exp_action(np.array([[1.0], [1.0]]))(0.5, np.ones(1))
        assert s == 0.0 and np.all(np.isnan(v))

    def test_failed_eig_fails_the_split_and_the_action(self, monkeypatch):
        def failing(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", failing)
        spectrum = _Spectrum(ROTATION)
        for view in (lambda: spectrum.split, lambda: spectrum.exp_action(np.array([[1.0], [0.0]]))):
            with pytest.raises(ToolkitError) as err:
                view()
            assert err.value.code == "eig_failure"

    @pytest.mark.parametrize("M", [np.diag([1.0, 2.0]), np.array([[1.0, 3.0], [-3.0, 1.0]])])
    def test_overflowing_mean_square_is_inf_never_nan(self, M):
        # e^{800} overflows: read off the plain exponentials, W (e^{800 lam} h)
        # would give 0 * inf = nan, and nan would read as a crossing in a
        # mixing search; the growth scale e^s carries the overflow instead
        with np.errstate(all="ignore"):
            assert drift_mean_square(M, np.array([1.0, 1.0]), 800.0) == math.inf

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_growing_mode_that_x_misses_is_left_out(self, t):
        # x has no coordinate on the eigenvalue 400: read off W, e^{2s} would
        # overflow while v underflows (nan); summed relative to 400 on the
        # Schur blocks, x - x would cancel to 0
        diagonal = drift_mean_square(np.diag([400.0, -1.0]), np.array([0.0, 1.0]), t)
        assert diagonal == pytest.approx(math.exp(-2.0 * t), rel=1e-15)
        Q = np.zeros((3, 3))
        Q[0, 0], Q[1:, 1:] = 400.0, [[-1.0, 1.0], [0.0, -1.0]]
        chain = drift_mean_square(Q, np.array([0.0, 1.0, 1.0]), t)  # e^{-t} (1 + t, 1)
        assert chain == pytest.approx(math.exp(-2.0 * t) * ((1.0 + t) ** 2 + 1.0), rel=1e-15)
        # a chain's zero coordinate leaves no block out: its Horner image is t e^{-t}
        Q[0, 0] = -0.5
        top_zero = drift_mean_square(Q, np.array([1.0, 0.0, 1.0]), t)  # (e^{-t/2}, t e^{-t}, e^{-t})
        assert top_zero == pytest.approx(math.exp(-t) + (t * t + 1.0) * math.exp(-2.0 * t), rel=1e-15)

    @pytest.mark.parametrize("command", ["mean-square", "verify"])
    def test_cli_leaves_out_a_growing_mode_that_x_misses(self, tmp_path, capsys, command):
        # B = 0: the closed form (column 1 of both reports) is e^{-2t}
        path = commutative_config(tmp_path, np.diag([400.0, -1.0]), [0.0, 1.0], t_grid=[0.0, 1.0, 2.0],
                                  mc={"n_paths": 200, "dt": 0.01, "seed": 3})
        assert main([command, "--config", path, "--out", "-"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        for t, row in zip([0.0, 1.0, 2.0], rows):
            assert float(row[1]) == pytest.approx(math.exp(-2.0 * t), rel=1e-15)

    @pytest.mark.parametrize("command,code", [("analyze", "not_finite"), ("mixing", "not_finite"),
                                              ("profile", "not_finite"), ("mean-square", "report_not_finite")])
    def test_overflowed_drift_keeps_its_code(self, tmp_path, monkeypatch, capsys, command, code):
        # B = 1e154 I: (B + B^T)^2 / 4 overflows to inf, so Q is not finite
        refuse_expm(monkeypatch)
        path = commutative_config(tmp_path, np.diag([-1.0, -2.0, -3.0]), [1.0, 1.0, 1.0],
                                  B=np.diag([1e154] * 3).tolist(), mc={"n_paths": 100})
        assert main([command, "--config", path, "--out", "-"]) == 1
        assert capsys.readouterr().err == code + "\n"


def action_as_written(split, V, u, t):
    """(s, v) of exp(tM) V u = e^s v in the exp action's arithmetic with
    nothing hoisted: the coordinates G u formed, - s subtracted and the
    Horner images written over a fresh h on every call."""
    G = split.coordinates(V)
    chains = [b for b in split.blocks if b.N.shape[0] > 1]
    lead = split.rates[np.argmax(split.rates.real)]
    growth, shift = max(0.0, float(lead.real)), split.rates - lead
    relative = split.inverse is not None and len(split.blocks) > 1
    h = G @ u
    p = h.copy() if relative else h
    for b in chains:
        c = z = h[b.cols]
        for j in range(b.N.shape[0] - 1, 0, -1):
            z = c + (t / j) * (b.N @ z)
        p[b.cols] = z
    s = t * growth
    if not relative:
        return s, (split.basis @ (np.exp(t * split.rates - s) * p)).real
    d = np.expm1(t * shift) * p + (p - h)
    return s, (np.exp(t * lead - s) * (V @ u + split.basis @ d)).real


def drift_msq_as_written(Q, x, t):
    s, v = action_as_written(_Spectrum(Q).split, x[:, None], np.ones(1), t)
    return float(np.exp(2.0 * s) * (v @ v))


# (Q, x) of the three forms of the action: one block with a Jordan chain, read
# off a coordinate copy; Schur blocks summed relative to the lead, one of them
# a chain; and a growing drift, s > 0, read off W
REUSE_DRIFTS = {
    "rotated-jordan": (jordan_drift(), np.array([0.6, 0.8])),
    "schur-relative": (_R3 @ np.array([[-1.0, 1.0, 0.3], [0.0, -1.0, 2.0], [0.0, 0.0, -2.5]]) @ _R3.T, X_J3),
    "growing": (ROTATION_U @ np.array([[0.3, 2.0], [0.0, -0.5]]) @ ROTATION_U.T, np.array([1.0, -0.5])),
}


class TestOncePerEvaluator:
    """The evaluators form every t-independent quantity once; the bits are
    those of the action written out in full."""

    def test_the_drifts_take_each_form(self):
        forms = {}
        for name, (Q, _) in REUSE_DRIFTS.items():
            split = _Spectrum(Q).split
            forms[name] = (any(b.N.shape[0] > 1 for b in split.blocks),
                           split.inverse is not None and len(split.blocks) > 1,
                           float(np.max(split.rates.real)) > 0.0)
        assert forms == {"rotated-jordan": (True, False, False), "schur-relative": (True, True, False),
                         "growing": (False, False, True)}

    @pytest.mark.parametrize("name", REUSE_DRIFTS)
    def test_reused_evaluator_returns_a_fresh_ones_bits(self, name):
        # a chain's Horner images are written in place: aliasing the cached
        # coordinates would move the second value at t1
        Q, x = REUSE_DRIFTS[name]
        msq = drift_evaluator(Q, x)
        for t in (0.7, 3.0, 0.7, 12.5, 3.0):
            assert msq(t) == drift_evaluator(Q, x)(t) == drift_msq_as_written(Q, x, t)

    @pytest.mark.parametrize("name", [*REUSE_DRIFTS, "close-pair"])
    def test_array_of_times_is_one_action_per_column(self, name):
        # the exact samplers' form: one time per column of u, of either sign,
        # in complex or (for a split with no imaginary part) real arithmetic;
        # worst relative gap to the scalar action 2.3e-16.  The close pair's
        # Schur blocks are summed relative to the lead
        close_pair = ROTATION_U @ np.array([[-1.0, 10.0], [0.0, -1.0 - 1e-5]]) @ ROTATION_U.T
        Q, x = REUSE_DRIFTS.get(name) or (close_pair, np.array([0.6, 0.8]))
        d, spectrum = len(x), _Spectrum(Q)
        ts = np.array([0.0, 0.3, 2.0, 7.5, 25.0, -0.4, -3.0])
        U = np.random.default_rng(4).standard_normal((d, len(ts)))
        for real in (False, True):
            s, v = spectrum.exp_action(np.eye(d), real=real)(ts, U)
            for j, t in enumerate(ts):
                s_j, v_j = spectrum.exp_action(np.eye(d))(float(t), U[:, j])
                X, X_j = np.exp(s[j]) * v[:, j], np.exp(s_j) * v_j
                assert np.linalg.norm(X - X_j) <= 1e-15 * np.linalg.norm(X_j)

    def test_fixed_and_free_actions_agree(self):
        Q, x = REUSE_DRIFTS["schur-relative"]
        spectrum = _Spectrum(Q)
        fixed, free = spectrum.exp_action(x[:, None], np.ones(1)), spectrum.exp_action(x[:, None])
        for t in (0.5, 4.0, 0.5):
            s, v = fixed(t)
            s_ref, v_ref = action_as_written(spectrum.split, x[:, None], np.ones(1), t)
            assert s == s_ref == free(t, np.ones(1))[0] == 0.0
            assert np.array_equal(v, v_ref) and np.array_equal(v, free(t, np.ones(1))[1])

    @pytest.mark.parametrize("seed", [11, 12])
    def test_first_order_mean_square_is_the_inline_formula(self, seed):
        dec = synthetic_decomposition(5, seed)
        for t in (0.3, 1.0, 4.0, 1.0):
            poly = t**3 - dec.p_Gamma * t
            weights = np.exp(-0.5 * dec.a_coeffs * t - 0.5 * dec.b_coeffs * t**2 - 0.5 * dec.g_coeffs * poly)
            s, v = action_as_written(dec.spectrum.split, dec.basis, weights * dec.overlaps, t)
            assert mean_square_first_order(dec, t) == float(np.exp(2.0 * s) * (v @ v))


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

    # worst relative error over TS, measured (numpy 2.4.6, scipy 1.17.1), and
    # the bound pinned here: symmetric 2.9e-14, synthetic 1.0e-14, rotation
    # 6.2e-15, jordan 4.8e-15 (3.1e-13 through scipy.linalg.expm), merged
    # rounded Jordan chains 1.1e-10 (rotated J2 at kappa = 100; 4.0e-9 through
    # expm), resolvable near-confluent pairs 4.6e-16 (1.5e-10 through expm),
    # resolvable pairs with projectors of norm 1e7 and 1e8 4.5e-16 (the pair
    # [[-1, 1e5], [0, -1.01]] erred 2.0e-13 summed as two plain exponentials)
    BOUNDS = {"symmetric": 1e-13, "synthetic": 1e-13, "rotation": 1e-13, "jordan": 1e-13,
              "merged": 2e-10, "near-confluent": 1e-14, "large-projector": 1e-14}

    @pytest.mark.parametrize("family", sorted(BOUNDS))
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
            drifts = {
                "symmetric": [symmetric_drift(d, d) for d in range(2, 9)],
                "rotation": [(ROTATION, np.array([1.0, 0.0]))],
                "jordan": [(jordan_drift(), np.array([0.6, 0.8]))],
                "merged": [(rotated_jordan2(30.0), np.array([1.0, 0.0])), (rotated_jordan2(100.0), np.array([1.0, 0.0])),
                           (ROTATED_J3, X_J3)],
                "near-confluent": [(np.array([[-1.0, 10.0], [0.0, -1.0 - delta]]), np.array([0.6, 0.8]))
                                   for delta in (3e-7, 1e-6)],
                "large-projector": [(np.array(Q), np.array([0.6, 0.8]))
                                    for Q in ([[-1.0, 1e5], [0.0, -1.01]], [[-1.0, 1e8], [0.0, -2.0]])],
            }[family]
            for Q, x in drifts:
                cases.append((drift_evaluator(Q, x), Q, lambda mp, t, x=x: x.tolist()))
        with mp.workdps(40):
            assert self.worst(mp, cases) <= self.BOUNDS[family]
