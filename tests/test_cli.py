import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gbm_cutoff import cli, hypothesis_checks, linalg_core, noncommutative_cutoff, simulate, spectral_asymptotics
from gbm_cutoff.cli import load_config, main
from gbm_cutoff.cubic_solver import CubicCoefficients, cardano_unique_real, correction_root, solve_log_cubic
from gbm_cutoff.errors import ToolkitError
from gbm_cutoff.system import GBMSystem
from test_simulate import SubmissionSpy


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "mode": "commutative",
        "A": [[-1.0]],
        "B": [[0.5]],
        "x": [1.0],
        "eps_list": [math.exp(-4), math.exp(-6)],
        "mc": {"n_paths": 2000, "dt": 1e-2, "seed": 3},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def synthetic_config(tmp_path):
    return write_config(
        tmp_path,
        name="syn.json",
        mode="synthetic",
        A=[[-1.0, 0.0], [0.0, -2.0]],
        alpha=[[0.2, 0.0], [0.0, 0.4]],
        beta=[[0.3, 0.0], [0.0, 0.1]],
        Gamma=[[-0.6, 0.0], [0.0, -1.2]],
        x=[1.0, 1.0],
        eps_list=[math.exp(-10)],
    )


class TestConfigValidation:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.mode == "commutative" and cfg.n_paths == 2000

    @pytest.mark.parametrize(
        "overrides,code",
        [
            ({"mode": "weird"}, "config_bad_mode"),
            ({"A": [[1.0, 2.0]]}, "config_matrix_not_square"),
            ({"A": [[float("nan")]]}, "config_entries_not_finite"),
            ({"B": [[1.0, 0.0], [0.0, 1.0]]}, "config_dim_mismatch"),
            ({"x": [1.0, 0.0]}, "config_dim_mismatch"),
            ({"x": [0.0]}, "config_x_zero"),
            ({"eps_list": [0.5]}, "config_eps_range"),
            ({"eps_list": []}, "config_eps_range"),
            ({"delta": 1.5}, "config_delta_range"),
            ({"rho_grid": ["a"]}, "config_bad_rho_grid"),
            ({"w": -1.0}, "config_w_range"),
            ({"t_grid": [-1.0]}, "config_bad_t_grid"),
            ({"mc": {"n_paths": 10}}, "config_mc_paths"),
            ({"mc": {"dt": 0.0}}, "config_mc_dt"),
            ({"mc": {"seed": -1}}, "config_mc_seed"),
            ({"tol": 0.0}, "config_tol_range"),
            ({"output": {"format": "xml"}}, "config_bad_format"),
            ({"x": "abc"}, "config_entries_not_finite"),
            ({"mc": {"seed": 1 << 64}}, "config_mc_seed"),
            # integers beyond the double range, which float() cannot convert
            ({"w": 10**400}, "config_w_range"),
            ({"rho_grid": [0.0, 10**400]}, "config_bad_rho_grid"),
            ({"eps_list": [10**400]}, "config_eps_range"),
            ({"mc": {"dt": -(10**400)}}, "config_mc_dt"),
            # JSON true and false are not numbers, though numpy reads them as 1.0 and 0.0
            ({"mc": {"dt": True, "seed": False}}, "config_mc_dt"),
            ({"mc": {"seed": False}}, "config_mc_seed"),
            ({"mc": {"n_paths": True}}, "config_mc_paths"),
            ({"t_grid": [0.0, True]}, "config_bad_t_grid"),
            ({"w": True}, "config_w_range"),
            ({"rho_grid": [False, True]}, "config_bad_rho_grid"),
            ({"A": [[True]]}, "config_matrix_not_square"),
            ({"B": [[False]]}, "config_matrix_not_square"),
            ({"A": True}, "config_matrix_not_square"),
            ({"x": [True]}, "config_entries_not_finite"),
            # JSON strings are not numbers either, though numpy converts numeric ones
            ({"A": [["-1"]], "B": [["0.5"]], "x": ["1"]}, "config_matrix_not_square"),
            ({"B": [["0.5"]]}, "config_matrix_not_square"),
            ({"A": [["a"]]}, "config_matrix_not_square"),
            ({"x": ["1"]}, "config_entries_not_finite"),
            # an integer beyond the double range is not finite, as 1e400 is not
            ({"A": [[10**400]]}, "config_entries_not_finite"),
            ({"B": [[-(10**400)]]}, "config_entries_not_finite"),
            ({"x": [10**400]}, "config_entries_not_finite"),
            # a positive real is a finite one: 1e999 reads as an infinity
            ({"w": float("inf")}, "config_w_range"),
            ({"mc": {"dt": float("inf")}}, "config_mc_dt"),
            # a matrix is a nonempty square array of rows
            ({"A": [[1.0], [2.0, 3.0]]}, "config_matrix_not_square"),
            ({"A": []}, "config_matrix_not_square"),
            ({"A": [[]]}, "config_matrix_not_square"),
            ({"A": 5}, "config_matrix_not_square"),
            ({"A": [[[1.0]]]}, "config_matrix_not_square"),
            ({"A": None}, "config_matrix_not_square"),
            ({"B": [[0.5], [1.0, 2.0]]}, "config_matrix_not_square"),
            # x is a nonempty flat list; null reads as NaN, in a matrix as in x
            ({"x": [[1.0]]}, "config_entries_not_finite"),
            ({"x": []}, "config_entries_not_finite"),
            ({"x": [[1.0], [2.0, 3.0]]}, "config_entries_not_finite"),
            ({"x": 1.0}, "config_entries_not_finite"),
            ({"mc": 5}, "config_mc_invalid"),
            ({"output": 5}, "config_bad_format"),
            ({"output": {"path": 5}}, "config_bad_format"),
            ({"output": {"path": ""}}, "config_bad_format"),
            ({"x": None}, "config_entries_not_finite"),
            ({"A": [[None]]}, "config_entries_not_finite"),
            ({"x": [None]}, "config_entries_not_finite"),
        ],
    )
    def test_each_violation_has_distinct_code(self, tmp_path, overrides, code):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ToolkitError) as err:
            load_config(path)
        assert err.value.code == code

    def test_rows_mixing_ints_and_floats_load_entry_by_entry(self, tmp_path):
        # a row of floats reads as itself, any other row entry by entry
        A, B, x = [[-1, 0.5, 0.0], [0.25, -2, 1], [0.0, 0.0, -3.0]], [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]], [1, 0.5, 2]
        cfg = load_config(write_config(tmp_path, A=A, B=B, x=x))
        for got, raw in ((cfg.A, A), (cfg.B, B), (cfg.x, x)):
            want = np.array([[float(v) for v in row] for row in raw] if isinstance(raw[0], list) else [float(v) for v in raw])
            assert got.dtype == np.float64 and np.array_equal(got, want)
            assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]

    @pytest.mark.parametrize("A,code", [
        ([[-1.0, 0.5], [True, -2.0]], "config_matrix_not_square"),
        ([[-1.0, 0.5], ["1", -2.0]], "config_matrix_not_square"),
        ([[-1.0, 0.5], [None, -2.0]], "config_entries_not_finite"),
        ([[-1.0, 0.5], [10**400, -2]], "config_entries_not_finite"),
    ])
    def test_a_float_row_beside_a_bad_entry_keeps_its_code(self, tmp_path, A, code):
        with pytest.raises(ToolkitError) as err:
            load_config(write_config(tmp_path, A=A, B=[[0.5, 0.0], [0.0, 0.5]], x=[1.0, 1.0]))
        assert err.value.code == code

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"mode": "commutative", "A": [[-1.0]], "x": [1.0]}))
        with pytest.raises(ToolkitError) as err:
            load_config(str(path))
        assert err.value.code == "config_missing_field"

    def test_unreadable(self):
        with pytest.raises(ToolkitError) as err:
            load_config("/nonexistent/cfg.json")
        assert err.value.code == "config_unreadable"

    @pytest.mark.parametrize("text", ["{not json", '[{"mode": "commutative"}]'])
    def test_invalid_json(self, tmp_path, text):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(ToolkitError) as err:
            load_config(str(path))
        assert err.value.code == "config_invalid_json"


# mixing CSVs byte for byte; every tau is within 1.6e-16 relative of its
# 40-digit crossing
MIXING_CSVS = {
    "readme-2d": (
        {"A": [[-2.0, 0.0], [0.0, -3.0]], "B": [[1.0, 0.0], [0.0, 0.5]], "x": [1.0, 1.0]},
        "eps,delta,tau,tau_over_t_eps,tau_ratio\n"
        "0.018315638888734179,0.5,4.3465737138873877,1.0866434284718469,1\n"
        "0.0024787521766663585,0.5,6.3465735903926888,1.0577622650654481,1\n"
        "0.00033546262790251185,0.5,8.3465735902800766,1.0433216987850096,1\n",
    ),
    "jordan": (
        {"A": [[-1.5, 1.0], [0.0, -1.5]], "B": [[0.5, 0.0], [0.0, 0.5]], "x": [0.0, 1.0], "delta": 0.2},
        "eps,delta,tau,tau_over_t_eps,tau_ratio\n"
        "0.018315638888734179,0.20000000000000001,5.1732498412147647,1.2005586527532375,1.1459940943377558\n"
        "0.0024787521766663585,0.20000000000000001,7.009666272713849,1.1245319976182977,1.0983995063619956\n"
        "0.00033546262790251185,0.20000000000000001,8.7875946151829272,1.0897918524112979,1.0747804647846844\n",
    ),
}


class TestCommands:
    def test_hypotheses_json(self, tmp_path, capsys):
        out = tmp_path / "hyp.json"
        rc = main(["hypotheses", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["commutative"] is True and data["normal_B"] is True

    def test_hypotheses_on_nilpotent_triple(self, tmp_path):
        path = write_config(
            tmp_path,
            mode="first_order",
            A=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
            B=[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            x=[0.0, 0.0, 1.0],
        )
        out = tmp_path / "hyp.json"
        assert main(["hypotheses", "--config", path, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["normal_C"] is False
        assert data["nilpotence_witness"] == [0.0, 0.0, 0.0]
        assert data["hypothesis_set_infeasible"] is True

    def test_analyze_commutative_schedule(self, tmp_path):
        out = tmp_path / "an.json"
        rc = main(["analyze", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["q"] == pytest.approx(0.75)
        assert data["ell"] == 1
        scheds = data["schedules"]
        assert scheds[0]["t_eps"] == pytest.approx(4.0 / 0.75)
        assert scheds[1]["t_eps"] == pytest.approx(6.0 / 0.75)

    def test_analyze_synthetic_schedule(self, tmp_path):
        out = tmp_path / "syn.json"
        rc = main(["analyze", "--config", synthetic_config(tmp_path), "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        sched = data["schedules"][0]
        assert sched["regime"] == "synthetic"
        assert 2.7 < sched["t_eps"] < 2.9
        assert data["decomposition"]["modes"][0]["gamma"] == pytest.approx(0.6)

    def test_mean_square_csv(self, tmp_path):
        out = tmp_path / "ms.csv"
        rc = main(
            ["mean-square", "--config", write_config(tmp_path, t_grid=[0.0, 1.0]),
             "--out", str(out), "--paths", "2000"]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,closed_form,mc_value,mc_se"
        t0 = lines[1].split(",")
        assert float(t0[1]) == 1.0 and float(t0[2]) == 1.0 and float(t0[3]) == 0.0
        t1 = lines[2].split(",")
        assert float(t1[1]) == pytest.approx(math.exp(-1.5), rel=1e-12)
        assert abs(float(t1[2]) - math.exp(-1.5)) < 4 * float(t1[3]) + 5e-3

    def test_mixing_csv(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(["mixing", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps,delta,tau,tau_over_t_eps,tau_ratio"
        eps, delta, tau, ratio_t, ratio = map(float, lines[1].split(","))
        assert tau == pytest.approx((8.0 + math.log(2.0)) / 1.5, abs=1e-6)

    def test_profile_csv(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(
            ["profile", "--config", write_config(tmp_path, rho_grid=[0.0, 1.0]), "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("rho,eps=")
        row0 = [float(v) for v in lines[1].split(",")]
        assert row0[1] == pytest.approx(1.0, rel=1e-9)  # at rho = 0 ratio is 1 (ell = 1)

    def test_mean_square_synthetic_has_empty_mc_columns(self, tmp_path):
        out = tmp_path / "ms.csv"
        cfg = synthetic_config(tmp_path)
        rc = main(["mean-square", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1].split(",")[2:] == ["", ""]

    def test_profile_synthetic_uses_shrinking_window(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = main(["profile", "--config", synthetic_config(tmp_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        by_rho = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
        assert by_rho[0.0] == pytest.approx(1.0, rel=1e-6)
        assert by_rho[-3.0] > 1.0 > by_rho[3.0]

    @pytest.mark.parametrize("name", sorted(MIXING_CSVS))
    def test_mixing_csv_bytes(self, tmp_path, capsys, name):
        cfg, csv = MIXING_CSVS[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mode": "commutative", **cfg}))
        assert main(["mixing", "--config", str(path), "--out", "-"]) == 0
        assert capsys.readouterr() == (csv, "")

    def test_overflowed_drift_report_is_not_finite(self, tmp_path, capsys):
        # (B + B^T)^2 / 4 overflows to inf on the diagonal
        path = write_config(tmp_path, A=np.diag([-1.0, -2.0, -3.0]).tolist(), B=np.diag([1e154] * 3).tolist(),
                            x=[1.0, 1.0, 1.0])
        assert main(["mean-square", "--config", path, "--out", "-", "--paths", "200"]) == 1
        assert capsys.readouterr().err == "report_not_finite\n"

    @pytest.mark.parametrize("gamma", [-1e-170, -1e-160])
    def test_synthetic_cubic_with_a_tiny_gamma_is_solved(self, tmp_path, capsys, gamma):
        # the cubic gamma/2 t^3 + 0.9 t + ln(0.01): its radicals divide by a
        # power of c3 that underflows, unless the cubic is rescaled
        path = write_config(tmp_path, mode="synthetic", A=[[-1.0]], alpha=[[0.2]], beta=[[0.0]],
                            Gamma=[[gamma]], x=[1.0], eps_list=[0.01])
        assert main(["analyze", "--config", path, "--out", "-"]) == 0
        (schedule,) = json.loads(capsys.readouterr().out)["schedules"]
        assert math.isclose(schedule["t_eps"], math.log(100.0) / 0.9, rel_tol=1e-12)

    def test_mixing_synthetic(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(["mixing", "--config", synthetic_config(tmp_path), "--out", str(out)])
        assert rc == 0
        eps, delta, tau, ratio_t, ratio = map(float, out.read_text().strip().splitlines()[1].split(","))
        assert 0.9 < ratio_t < 1.1

    def test_log_cubic_schedule_of_a_jordan_mode(self, tmp_path, capsys):
        # A's Jordan block gives the mode x = e2 the chain height 2, so ell_star = 1
        path = write_config(
            tmp_path, mode="synthetic", A=[[-1.0, 1.0], [0.0, -1.0]], alpha=[[0.2, 0.0], [0.0, 0.2]],
            beta=[[0.0, 0.0], [0.0, 0.0]], Gamma=[[-0.6, 0.0], [0.0, -0.6]], x=[0.0, 1.0],
            eps_list=[6.144212353e-06],
        )
        assert main(["analyze", "--config", path, "--out", "-"]) == 0
        sched = json.loads(capsys.readouterr().out)["schedules"][0]
        assert sched["ell_star"] == 1
        assert sched["t_eps"] == pytest.approx(3.1283228702386596, rel=1e-12)
        assert sched["r_eps"] == pytest.approx(0.11368895368118759, rel=1e-10)
        assert sched["T_eps"] == pytest.approx(3.245559654740909, rel=1e-12)
        assert sched["tau_eps"] == sched["t_eps"] + sched["r_eps"]
        cubic = CubicCoefficients.from_cutoff(sched["gamma"], sched["b"], sched["a"], sched["eps"])
        assert sched["t_eps"] == cardano_unique_real(cubic)
        assert sched["T_eps"] == solve_log_cubic(cubic, 1)
        assert sched["r_eps"] == correction_root(sched["t_eps"], cubic, 1)
        for command in ("mixing", "profile"):
            assert main([command, "--config", path, "--out", "-"]) == 0
            cells = [float(v) for line in capsys.readouterr().out.splitlines()[1:] for v in line.split(",")]
            assert cells and all(map(math.isfinite, cells))

    def test_verify_passes_on_scalar_case(self, tmp_path):
        out = tmp_path / "ver.csv"
        rc = main(
            ["verify", "--config", write_config(tmp_path, t_grid=[0.5, 1.0]),
             "--out", str(out), "--paths", "4000"]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,reference,reference_se,mc_value,mc_se,status"
        assert all(line.endswith("pass") for line in lines[1:])

    def test_example35_csv(self, tmp_path):
        out = tmp_path / "ex.csv"
        rc = main(["example35", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 101
        worst = max(float(line.split(",")[4]) for line in lines[1:])
        assert worst < 1e-8

    def test_config_output_path_is_written_without_out(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        path = write_config(tmp_path, output={"path": str(report)})
        assert main(["analyze", "--config", path]) == 0
        assert main(["analyze", "--config", path, "--out", "-"]) == 0
        assert report.read_text() == capsys.readouterr().out

    def test_stdout_output(self, tmp_path, capsys):
        rc = main(["hypotheses", "--config", write_config(tmp_path), "--out", "-"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert "residuals" in data


class TestErrorsAndDeterminism:
    def test_error_code_on_stderr(self, tmp_path, capsys):
        path = write_config(tmp_path, mode="weird")
        rc = main(["analyze", "--config", path, "--out", "-"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == "config_bad_mode"

    def test_module_error_propagates_as_code(self, tmp_path, capsys):
        # non-commuting pair in commutative mode
        path = write_config(
            tmp_path, A=[[-1.0, 1.0], [0.0, -1.0]], B=[[1.0, 0.0], [0.0, 2.0]], x=[1.0, 1.0]
        )
        rc = main(["analyze", "--config", path, "--out", "-"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == "hypotheses_violated"

    def test_no_partial_output_on_error(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        path = write_config(tmp_path, mode="synthetic")  # synthetic without alpha/beta/Gamma
        rc = main(["analyze", "--config", path, "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "hypotheses"])
    def test_pair_command_on_synthetic_config_rejected(self, tmp_path, capsys, command):
        rc = main([command, "--config", synthetic_config(tmp_path), "--out", "-"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == "config_bad_mode"

    @pytest.mark.parametrize("command", ["mixing", "profile"])
    def test_commuting_pair_in_first_order_mode_has_no_decay(self, tmp_path, capsys, command):
        # the dominant mode of a commuting pair has cubic coefficient 0, so its
        # schedule has no decaying time scale; commutative mode gives a tau
        path = write_config(tmp_path, mode="first_order", A=[[-2.0, 0.0], [0.0, -3.0]],
                            B=[[1.0, 0.0], [0.0, 0.5]], x=[1.0, 1.0], eps_list=[1e-3])
        assert main([command, "--config", path, "--out", "-"]) == 1
        assert capsys.readouterr().err == "no_decay\n"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, t_grid=[0.5, 1.0])
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["mean-square", "--config", cfg, "--out", str(out1), "--paths", "1000"]) == 0
        assert main(["mean-square", "--config", cfg, "--out", str(out2), "--paths", "1000"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_eps_override(self, tmp_path):
        out = tmp_path / "an.json"
        rc = main(
            ["analyze", "--config", write_config(tmp_path), "--out", str(out),
             "--eps", f"{math.exp(-8)}"]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data["schedules"]) == 1
        assert data["schedules"][0]["t_eps"] == pytest.approx(8.0 / 0.75)

    @pytest.mark.parametrize("command", ["analyze", "mean-square", "mixing", "profile"])
    def test_first_order_pair_with_non_normal_B_refused(self, tmp_path, capsys, command):
        # the mode formula needs a normal B: here it would print 0.22313 at
        # t = 1 for E|X_1|^2 = 2 e^-2 = 0.27067
        path = write_config(tmp_path, mode="first_order", A=[[-1.0, 0.0], [0.0, -1.0]],
                            B=[[0.0, 1.0], [0.0, 0.0]], x=[0.0, 1.0], t_grid=[1.0])
        assert main([command, "--config", path, "--out", "-", "--paths", "200"]) == 1
        assert capsys.readouterr().err == "hypotheses_violated\n"

    @pytest.mark.parametrize("command,code", [
        ("analyze", "hypotheses_violated"),
        ("mean-square", "hypotheses_violated"),
        ("mixing", "hypotheses_violated"),
        ("profile", "hypotheses_violated"),
        ("verify", "representation_invalid"),
    ])
    def test_first_order_pair_outside_both_regimes_refused(self, tmp_path, capsys, command, code):
        # B is normal, but the pair is neither commutative nor first order: the
        # mode formula would print 0.070756 at t = 2 for E|X_2|^2 = 1.7757e-4
        path = write_config(tmp_path, mode="first_order", A=[[-3.0, 0.0], [0.0, -2.0]],
                            B=[[0.0, -1.0], [1.0, 0.0]], x=[1.0, 1.0], t_grid=[2.0])
        assert main([command, "--config", path, "--out", "-", "--paths", "200"]) == 1
        assert capsys.readouterr().err == code + "\n"

    @pytest.mark.parametrize("command", ["analyze", "mixing", "profile"])
    @pytest.mark.parametrize("A", [[[0.0]], [[0.0, 1.0], [-1.0, 0.0]]])
    def test_marginal_drift_is_not_stable(self, tmp_path, capsys, command, A):
        # exp(tQ)x does not decay, so there is no cutoff to schedule
        path = write_config(tmp_path, A=A, B=np.zeros_like(A).tolist(), x=[1.0] * len(A))
        assert main([command, "--config", path, "--out", "-"]) == 1
        assert capsys.readouterr().err == "not_stable\n"

    def test_marginal_mode_that_x_misses_is_kept(self, tmp_path, capsys):
        # Q = diag(-1, 0) is not strictly stable, but |exp(tQ)e1|^2 = e^-2t
        # reaches delta eps^2 at its mixing time
        path = write_config(tmp_path, A=[[-1.0, 0.0], [0.0, 0.0]], B=[[0.0, 0.0], [0.0, 0.0]],
                            x=[1.0, 0.0], eps_list=[math.exp(-4)], delta=0.5)
        assert main(["mixing", "--config", path, "--out", "-"]) == 0
        tau = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        assert math.exp(-2.0 * tau) == pytest.approx(0.5 * math.exp(-8), rel=1e-6)

    def test_non_numeric_vector_is_one_line_code(self, tmp_path, capsys):
        rc = main(["analyze", "--config", write_config(tmp_path, x="abc"), "--out", "-"])
        assert rc == 1
        assert capsys.readouterr().err == "config_entries_not_finite\n"

    def test_seed_override_beyond_64_bits_rejected(self, tmp_path, capsys):
        # masked to 64 bits, 2^64 + 1 would print the same rows as seed 1
        rc = main(["mean-square", "--config", write_config(tmp_path, t_grid=[0.5]), "--out", "-",
                   "--paths", "200", "--seed", str((1 << 64) + 1)])
        assert rc == 1
        assert capsys.readouterr().err == "config_mc_seed\n"

    @pytest.mark.parametrize("command", ["verify", "mean-square"])
    @pytest.mark.parametrize(
        "dt,code",
        [("1e-310", "too_many_steps"), ("1e-12", "too_many_steps"), ("0.03", "bad_timestep")],
    )
    def test_step_count_of_every_size_has_its_code(self, tmp_path, capsys, command, dt, code):
        # at dt = 1e-310, t / dt overflows to infinity
        rc = main([command, "--config", write_config(tmp_path), "--out", "-", "--paths", "100", "--dt", dt])
        assert (rc, capsys.readouterr().err) == (1, code + "\n")

    def test_non_finite_report_rejected(self, tmp_path, capsys):
        out = tmp_path / "ms.csv"
        path = write_config(tmp_path, A=[[400.0]], B=[[0.0]], t_grid=[0.0, 1.0, 2.0])
        rc = main(["mean-square", "--config", path, "--out", str(out), "--paths", "100"])
        assert rc == 1
        assert capsys.readouterr().err == "report_not_finite\n"
        assert not out.exists()

    def test_non_finite_json_report_rejected(self, tmp_path, capsys):
        # brackets of 1e300-sized entries overflow into NaN residuals
        path = write_config(tmp_path, A=[[1e300, 0.0], [0.0, 1.0]], B=[[1e300, 0.0], [0.0, 2.0]], x=[1.0, 1.0])
        rc = main(["hypotheses", "--config", path, "--out", "-"])
        assert rc == 1
        assert capsys.readouterr() == ("", "report_not_finite\n")

    def test_unexpected_exception_is_one_line_code(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setitem(cli._HANDLERS, "analyze", broken)
        rc = main(["analyze", "--config", write_config(tmp_path), "--out", "-"])
        assert rc == 1
        assert capsys.readouterr().err == "internal_error\n"

    def test_unwritable_output_is_one_line_code(self, tmp_path, capsys):
        rc = main(["hypotheses", "--config", write_config(tmp_path), "--out", str(tmp_path / "no" / "h.json")])
        assert rc == 1
        assert capsys.readouterr().err == "output_unwritable\n"


class TestOverridesAndUsage:
    @pytest.mark.parametrize(
        "flag,value,config_overrides,code",
        [
            ("--paths", "50", {"mc": {"n_paths": 50}}, "config_mc_paths"),
            ("--dt", "0", {"mc": {"dt": 0.0}}, "config_mc_dt"),
            ("--dt", "inf", {"mc": {"dt": float("inf")}}, "config_mc_dt"),
            ("--eps", "0.5", {"eps_list": [0.5]}, "config_eps_range"),
            ("--eps", ",", {"eps_list": []}, "config_eps_range"),
            ("--eps", "a,0.01", {"eps_list": ["a", 0.01]}, "config_eps_range"),
            ("--seed", "-1", {"mc": {"seed": -1}}, "config_mc_seed"),
        ],
    )
    def test_override_shares_the_config_field_code(self, tmp_path, capsys, flag, value, config_overrides, code):
        rc = main(["mean-square", "--config", write_config(tmp_path), "--out", "-", flag, value])
        assert (rc, capsys.readouterr().err) == (1, code + "\n")
        with pytest.raises(ToolkitError) as err:
            load_config(write_config(tmp_path, name="field.json", **config_overrides))
        assert err.value.code == code

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--config", "CFG", "--seed", "abc"],
            ["analyze", "--config", "CFG", "--paths", "1e3"],
            ["analyze", "--config", "CFG", "--bogus"],
            ["analyze", "--config", "CFG", "--eps"],
            ["nonsense", "--config", "CFG"],
            ["analyze"],
            [],
        ],
    )
    def test_usage_error_is_one_line_code(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path)
        assert main([cfg if arg == "CFG" else arg for arg in argv]) == 1
        assert capsys.readouterr() == ("", "usage_error\n")

    def test_empty_out_is_refused_like_an_empty_output_path(self, tmp_path, capsys, monkeypatch):
        # it used to write gbm_cutoff_analyze.json to the working directory
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", "--config", write_config(tmp_path), "--out", ""]) == 1
        assert capsys.readouterr().err == "config_bad_format\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_parser_keeps_no_values_between_calls(self, tmp_path, monkeypatch):
        parsed = []
        apply = cli._apply_overrides

        def spy(cfg, args):
            parsed.append(args)
            return apply(cfg, args)

        monkeypatch.setattr(cli, "_apply_overrides", spy)
        path = write_config(tmp_path)
        argv = ["mean-square", "--config", path, "--out", str(tmp_path / "ms.csv"), "--paths", "200"]
        assert main(argv + ["--seed", "7", "--eps", "0.01"]) == 0
        assert main(argv) == 0
        assert (parsed[0].seed, parsed[0].eps) == (7, "0.01")
        assert (parsed[1].seed, parsed[1].eps) == (None, None)

    def test_usage_error_after_a_parsed_call_is_one_line_code(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["analyze", "--config", path, "--out", "-", "--seed", "5"]) == 0
        capsys.readouterr()
        assert main(["analyze", "--config", path, "--seed", "abc"]) == 1
        assert capsys.readouterr() == ("", "usage_error\n")

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "gbm-cutoff" in capsys.readouterr().out


def test_cli_import_loads_no_scipy_optimize():
    # a fresh interpreter: this suite's own oracles import scipy.optimize
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, gbm_cutoff.cli; print('scipy.optimize' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("command", ["analyze", "mixing"])
def test_closed_form_report_on_a_simple_drift_loads_no_scipy(tmp_path, command):
    # a fresh interpreter: scipy loads only for a Schur split, and a scalar
    # drift needs none
    path = write_config(tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from gbm_cutoff import cli; "
        f"rc = cli.main([{command!r}, '--config', {path!r}, '--out', {str(tmp_path / 'report')!r}]); "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "0 []\n"


@pytest.mark.parametrize("pair,loaded", [("heisenberg", False), ("shifted blocks", True)])
def test_exact_sampler_loads_scipy_only_for_a_schur_split(tmp_path, pair, loaded):
    # a fresh interpreter: the Heisenberg B and C are one block each; the
    # shifted blocks' B has two eigenvalue clusters, split off a Schur form
    if pair == "heisenberg":
        cfg = HEISENBERG
    else:
        Z, H, E = np.zeros((3, 3)), np.array(HEISENBERG["A"]), np.array(HEISENBERG["B"])
        cfg = {"mode": "first_order", "A": np.block([[H - 0.5 * np.eye(3), Z], [Z, H - np.eye(3)]]).tolist(),
               "B": np.block([[E, Z], [Z, E + 0.3 * np.eye(3)]]).tolist(), "x": [0.3, -1.7, 2.2, 1.0, 0.5, -0.8]}
    path = write_config(tmp_path, **cfg)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from gbm_cutoff import cli; "
        f"rc = cli.main(['verify', '--config', {path!r}, '--paths', '200', '--out', {str(tmp_path / 'report')!r}]); "
        "print(rc, 'scipy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == f"0 {loaded}\n"


def test_moment_equation_loads_no_scipy():
    # a fresh interpreter: exact_mean_square exponentiates with expm_stack
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys; from gbm_cutoff import GBMSystem, exact_mean_square; "
        f"sys_ = GBMSystem({HEISENBERG['A']!r}, {HEISENBERG['B']!r}, {HEISENBERG['x']!r}); "
        "print(exact_mean_square(sys_, 2.0), sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    value, modules = proc.stdout.split(" ", 1)
    assert abs(float(value) / (1.0 + 2.0**2 + 2.0**3 / 3.0) - 1.0) <= 1e-15  # 1 + t^2 + t^3/3
    assert modules == "[]\n"


def multi_cluster_config(name: str) -> dict:
    """Configs whose reports read vectors off several eigenvalue clusters."""
    eps_list = [math.exp(-4), math.exp(-6)]
    if name == "synthetic-d5":
        # mode data diagonal in a dense orthonormal basis: five clusters
        V = np.eye(5)
        for i, (c, s) in enumerate([(0.6, 0.8), (0.8, 0.6), (0.6, 0.8), (0.8, 0.6)]):
            G = np.eye(5)
            G[i, i] = G[i + 1, i + 1] = c
            G[i, i + 1], G[i + 1, i] = -s, s
            V = V @ G
        return {"mode": "synthetic", "A": rotated(V, np.diag([-1.0, -1.5, -2.0, -2.5, -3.0])),
                "alpha": rotated(V, np.diag([0.2, 0.3, 0.1, 0.4, 0.25])),
                "beta": rotated(V, np.diag([0.3, 0.1, 0.2, 0.05, 0.15])),
                "Gamma": rotated(V, np.diag([-0.6, -0.9, -0.5, -1.2, -0.8])),
                "x": [1.0, 0.5, -0.5, 0.25, 1.0], "eps_list": eps_list}
    if name == "first-order-repeated":
        # A's eigenvalue -1 is repeated: two clusters for three modes
        return {"mode": "first_order", "A": np.diag([-1.0, -1.0, -2.0]).tolist(),
                "B": np.diag([0.5, 0.5, 0.3]).tolist(), "x": [1.0, 1.0, 1.0], "eps_list": eps_list}
    # Q has the complex pairs -0.75 +- 2i and -1.75 +- 2i, coupled
    return {"mode": "commutative", "A": [[-1.0, 2.0, 1.0, 0.0], [-2.0, -1.0, 0.0, 1.0],
                                         [0.0, 0.0, -2.0, 2.0], [0.0, 0.0, -2.0, -2.0]],
            "B": (0.5 * np.eye(4)).tolist(), "x": [1.0, 0.5, -0.2, 1.0], "eps_list": eps_list}


# sha256 of the reports' stdout as the sorted-Schur projector printed them
MULTI_CLUSTER_REPORTS = {
    ("synthetic-d5", "analyze"): "4599d827c2049d9526e836ca03c21105717fe89df15f3b0cf2c17d9c9e242368",
    # one eigendecomposition of A_tilde per report moved 13 of the 14 cells by
    # at most 3.4e-15 relative (was "bf1d4df0...fe2b" with scipy.linalg.expm per t)
    ("synthetic-d5", "profile"): "0d8ba2a5b5b59e33a17a115d76504a33d7cab1a24991afc1f86a9046a2dc8b39",
    ("first-order-repeated", "analyze"): "e333257206358e4c74d57b1254e4c1d9c27efe65d4a2643ce0d76722a003aa5c",
    ("commutative-two-pairs", "analyze"): "6259f226af71e03dce95489b0ceb6701da9f858bd2ebab7121cc358c30934b1b",
}


def count_calls(monkeypatch, fn) -> list:
    """Wrap `fn` at every gbm_cutoff module attribute that refers to it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "gbm_cutoff" or name.startswith("gbm_cutoff."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestOncePerReport:
    @pytest.mark.parametrize("mode,command", [
        (mode, command) for mode in ("commutative", "synthetic") for command in ("analyze", "mixing", "profile")
    ] + [("first_order", "analyze"), ("commutative", "mean-square"), ("commutative", "verify")])
    def test_closed_form_is_built_once(self, tmp_path, monkeypatch, mode, command):
        if mode == "synthetic":
            path = synthetic_config(tmp_path)
        elif mode == "first_order":
            path = write_config(tmp_path, mode="first_order", A=[[-2.0, 0.0], [0.0, -3.0]],
                                B=[[1.0, 0.0], [0.0, 0.5]], x=[1.0, 1.0])
        else:
            path = write_config(tmp_path)
        reports = count_calls(monkeypatch, hypothesis_checks.check_pair)
        checks = count_calls(monkeypatch, hypothesis_checks.check_hypotheses)
        decompositions = count_calls(monkeypatch, noncommutative_cutoff._decompose)
        rates = count_calls(monkeypatch, spectral_asymptotics._read_decay)
        assert main([command, "--config", path, "--out", str(tmp_path / "report")]) == 0
        assert len(checks) <= 1
        # one report per pair: first-order analyze prints the one its gate read
        assert len(reports) == (mode != "synthetic")
        if mode == "commutative":
            # only a schedule or the analyze fields need (q, ell)
            assert (len(decompositions), len(rates)) == (0, command in ("analyze", "mixing", "profile"))
        else:
            assert len(decompositions) == 1

    @pytest.mark.parametrize("mode", ["synthetic", "first_order"])
    def test_one_spectral_split_per_decomposition(self, tmp_path, monkeypatch, mode):
        # A_tilde = A has 2 eigenvalue clusters in both configs.  The synthetic
        # one has 2 simple eigenvalues, so its split is W's columns and builds no
        # Schur block; the first-order one has 3 modes, as its eigenvalue -1 is
        # repeated, so its split builds one Schur block per cluster
        if mode == "synthetic":
            path = synthetic_config(tmp_path)
        else:
            path = write_config(tmp_path, mode="first_order", A=np.diag([-1.0, -1.0, -2.0]).tolist(),
                                B=np.diag([0.5, 0.5, 0.3]).tolist(), x=[1.0, 1.0, 1.0])
        blocks = count_calls(monkeypatch, spectral_asymptotics._cluster_block)
        asymptotics = count_calls(monkeypatch, spectral_asymptotics.extract_asymptotics)
        searches = count_calls(monkeypatch, noncommutative_cutoff._stabilizing_p)
        assert main(["analyze", "--config", path, "--out", str(tmp_path / "report")]) == 0
        assert (len(blocks), len(asymptotics)) == (0 if mode == "synthetic" else 2, 0)
        if mode == "first_order":
            assert len(searches) == 1

    @pytest.mark.parametrize("mode,command", [
        ("commutative", "analyze"), ("commutative", "mixing"), ("commutative", "profile"),
        ("commutative", "mean-square"), ("synthetic", "mixing"), ("first_order", "analyze"),
    ])
    def test_one_eigendecomposition_per_report(self, tmp_path, monkeypatch, mode, command):
        # the Hurwitz test, the split and the exp action read one eig of the drift
        if mode == "synthetic":
            path = synthetic_config(tmp_path)
        else:
            path = write_config(tmp_path, mode=mode, A=[[-2.0, 0.0], [0.0, -3.0]], B=[[1.0, 0.0], [0.0, 0.5]],
                                x=[1.0, 1.0])
        calls = []
        for name in ("eig", "eigvals"):
            def counted(M, solve=getattr(np.linalg, name), name=name):
                calls.append(name)
                return solve(M)

            monkeypatch.setattr(np.linalg, name, counted)
        assert main([command, "--config", path, "--out", str(tmp_path / "report"), "--paths", "200"]) == 0
        assert calls == ["eig"]

    @pytest.mark.parametrize("command", ["analyze", "mixing", "profile", "mean-square", "verify"])
    def test_no_report_evaluates_the_envelope_grid(self, tmp_path, monkeypatch, capsys, command):
        # no command prints K0 or K1, so none builds their grid; one of -1
        # points would make any report that did exit internal_error.  The
        # drift's leading complex pair (m = 2) is what extract_asymptotics
        # would take the grid for.
        monkeypatch.setattr(spectral_asymptotics, "GRID_POINTS", -1)
        path = write_config(tmp_path, A=[[-0.5, 0.3], [-30.0, -0.5]], B=[[0.0, 0.0], [0.0, 0.0]], x=[1.0, 0.0])
        assert main([command, "--config", path, "--out", "-", "--paths", "200"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name,command", sorted(MULTI_CLUSTER_REPORTS))
    def test_multi_cluster_report_bytes(self, tmp_path, capsys, name, command):
        path = write_config(tmp_path, **multi_cluster_config(name))
        assert main([command, "--config", path, "--out", "-"]) == 0
        out, err = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest(), err) == (MULTI_CLUSTER_REPORTS[name, command], "")

    def test_failed_stabilizer_search_runs_once(self, tmp_path, monkeypatch, capsys):
        path = write_config(tmp_path, mode="first_order", A=[[0.5]], B=[[0.1]])
        searches = count_calls(monkeypatch, noncommutative_cutoff._stabilizing_p)
        assert main(["analyze", "--config", path, "--out", "-"]) == 1
        assert capsys.readouterr().err == "no_stabilizer\n"
        assert len(searches) == 1

    def test_output_format_does_not_choose_the_format(self, tmp_path, capsys):
        path = write_config(tmp_path, output={"format": "csv"})
        assert main(["analyze", "--config", path, "--out", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "commutative"

    @pytest.mark.parametrize("command,pair,kernel_calls", [
        ("mean-square", "scalar", 1),
        ("verify", "scalar", 1),
        ("verify", "heisenberg", 2),  # the estimates' draw, then the exact-sampler reference's
    ])
    def test_each_path_is_drawn_once_per_kernel_call(self, tmp_path, monkeypatch, command, pair, kernel_calls):
        path = write_config(tmp_path, **(HEISENBERG if pair == "heisenberg" else {}))
        draws = count_calls(monkeypatch, simulate._normals)
        assert main([command, "--config", path, "--out", str(tmp_path / "report"), "--paths", "200"]) == 0
        assert len(draws) == kernel_calls  # one batch of 200 paths, drawn at the largest t

    def test_first_order_gate_runs_once_per_kernel_call(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, **HEISENBERG)
        gates = count_calls(monkeypatch, simulate._first_order_matrix)
        assert main(["verify", "--config", path, "--out", str(tmp_path / "report"), "--paths", "200"]) == 0
        # the exact scheme's grid check, whose C every batch reads: none of
        # verify's own, and none per batch or per t of the grid
        assert len(gates) == 1

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_first_order_bracket_is_formed_once(self, tmp_path, monkeypatch, command):
        # [A, B] or [B, A] of the pair itself, whichever module forms it; the
        # report, the mode decomposition and the exact sampler formed it 3
        # (analyze) and 4 (verify) times before they read it off the report.
        # Heisenberg analyze stops at step III, a commuting normal pair's does
        # not; neither pair has a B equal to A or to a transpose of either
        cfg = HEISENBERG if command == "verify" else {
            "mode": "first_order", "A": [[-2.0, 0.5], [-0.5, -2.0]], "B": [[0.5, 0.3], [-0.3, 0.5]], "x": [1.0, 1.0]}
        path = write_config(tmp_path, **cfg)
        A, B = np.array(cfg["A"]), np.array(cfg["B"])
        brackets, commutator = [], linalg_core.commutator

        def counted(U, V):
            if any(np.array_equal(U, P) and np.array_equal(V, Q) for P, Q in ((A, B), (B, A))):
                brackets.append(None)
            return commutator(U, V)

        for module in (hypothesis_checks, noncommutative_cutoff, simulate):
            if getattr(module, "commutator", None) is commutator:
                monkeypatch.setattr(module, "commutator", counted)
        assert main([command, "--config", path, "--out", str(tmp_path / "report"), "--paths", "200"]) == 0
        assert len(brackets) == 1
        if command == "analyze":
            # C = [B, A] = BA - AB = +0.0 entrywise, which -[A, B] would print as -0.0
            C = json.loads((tmp_path / "report").read_text())["decomposition"]["C"]
            assert [math.copysign(1.0, v) for row in C for v in row] == [1.0] * 4

    def test_unstable_commutative_pair_still_has_a_mean_square(self, tmp_path, capsys):
        # mean-square never needs the asymptotics, which would reject Q = 0.1
        path = write_config(tmp_path, A=[[0.1]], B=[[0.0]], t_grid=[0.0, 1.0, 2.0])
        assert main(["mean-square", "--config", path, "--out", "-", "--paths", "200"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert float(rows[1][1]) == pytest.approx(math.exp(0.2), rel=1e-12)


HEISENBERG = {
    "mode": "first_order",
    "A": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
    "B": [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    "x": [0.0, 0.0, 1.0],
}


def rotated(Q, M):
    return (Q @ np.array(M) @ Q.T).tolist()


def verify_rows(capsys):
    return [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]


def assert_two_estimates_in_sequence(capsys, grid, paths, dt, seed):
    """The Heisenberg verify report just printed holds the bits of its two
    estimates run one after the other."""
    sys_ = GBMSystem(**{key: np.array(HEISENBERG[key], dtype=float) for key in ("A", "B", "x")})
    em = simulate.estimate_mean_squares(sys_, grid, "euler_maruyama", paths, dt=dt, seed=seed)
    exact = simulate.estimate_mean_squares(sys_, grid, "exact_first_order", paths, seed=seed)
    rows = [[float(cell) for cell in row[:5]] for row in verify_rows(capsys)]
    assert rows == [[t, r.value, r.std_error, e.value, e.std_error] for t, r, e in zip(grid, exact, em)]


class TestVerify:
    def test_first_order_rows_follow_the_joint_rule(self, tmp_path, capsys):
        path = write_config(tmp_path, **HEISENBERG)
        assert main(["verify", "--config", path, "--out", "-", "--paths", "300", "--seed", "6"]) == 0
        rows = verify_rows(capsys)
        assert len(rows) == 9
        joint_only = 0  # rows that pass on the joint band but not on 3 mc_se alone
        for row in rows:
            t, ref, ref_se, mc, mc_se = map(float, row[:5])
            exact = 1.0 + t**2 + t**3 / 3.0  # the exact-sampler reference estimates this
            assert abs(ref - exact) <= 4.0 * ref_se + 1e-15 * exact
            assert row[5] == ("pass" if abs(mc - ref) <= 3.0 * math.hypot(ref_se, mc_se) else "fail")
            joint_only += 3.0 * mc_se < abs(mc - ref) <= 3.0 * math.hypot(ref_se, mc_se)
        assert joint_only > 0

    def test_non_first_order_pair_rejected(self, tmp_path, capsys):
        # C = [B, A] = [[0, -1], [1, 0]] does not commute with A
        path = write_config(
            tmp_path, mode="first_order", A=[[-1.0, 0.0], [0.0, -2.0]], B=[[0.0, 1.0], [1.0, 0.0]], x=[1.0, 1.0]
        )
        assert main(["verify", "--config", path, "--out", "-"]) == 1
        assert capsys.readouterr().err.strip() == "representation_invalid"

    @pytest.mark.parametrize("mode", ["commutative", "first_order"])
    def test_time_zero_row_passes_for_a_dense_state(self, tmp_path, capsys, mode):
        Q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
        if mode == "commutative":
            A, B = rotated(Q, np.diag([-1.0, -0.5, -2.0])), rotated(Q, np.diag([0.3, -0.2, 0.1]))
        else:
            A, B = rotated(Q, HEISENBERG["A"]), rotated(Q, HEISENBERG["B"])
        x = [0.3, -1.7, 2.2]
        path = write_config(tmp_path, mode=mode, A=A, B=B, x=x, t_grid=[0.0, 0.5])
        assert main(["verify", "--config", path, "--out", "-", "--paths", "200", "--dt", "0.05"]) == 0
        t, ref, ref_se, mc, mc_se, status = verify_rows(capsys)[0]
        assert float(ref) == float(np.dot(x, x)) == float(mc)
        assert (ref_se, mc_se, status) == ("0", "0", "pass")

    @pytest.mark.parametrize(
        "A,B,x,code",
        [
            ([[400.0]], [[0.0]], [1e150], "bad_timestep"),  # both estimates overflow at t = 0.5
            ([[-1.0, 0.0], [0.0, -2.0]], [[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], "representation_invalid"),
        ],
    )
    def test_first_failing_check_wins_on_a_bad_grid(self, tmp_path, capsys, A, B, x, code):
        # dt = 0.01 does not divide t = 0.005
        path = write_config(tmp_path, mode="first_order", A=A, B=B, x=x, t_grid=[0.5, 0.005, 1.0])
        assert main(["verify", "--config", path, "--out", "-", "--paths", "200"]) == 1
        assert capsys.readouterr().err == code + "\n"

    @pytest.mark.parametrize("grid,paths,dt", [
        ([0.5, 0.1, 0.0, 0.5, 0.3], 8200, 0.1),  # unsorted, a repeated t, and two batches of paths
        ([0.25 * k for k in range(9)], 300, 1e-3),
    ])
    def test_first_order_report_is_the_two_estimates_in_sequence(self, tmp_path, capsys, grid, paths, dt):
        # the reference runs after the EM estimates, with the bits it has alone
        path = write_config(tmp_path, **HEISENBERG, t_grid=grid, mc={"n_paths": paths, "dt": dt, "seed": 4})
        assert main(["verify", "--config", path, "--out", "-"]) == 0
        assert_two_estimates_in_sequence(capsys, grid, paths, dt, 4)

    @pytest.mark.parametrize("grid,dt", [([0.25 * k for k in range(9)], 0.01), ([0.0, 0.1, 0.1], 0.1)])
    def test_first_order_verify_keys_each_path_once_per_estimate(self, tmp_path, capsys, monkeypatch, grid, dt):
        # the estimates key each path for its increments, then the reference
        # for its pair of normals
        paths, rows, fill, keyings = 4100, [], simulate._fill, 2  # three batches

        def counted(z, seed, lo):
            rows.append(len(z))
            fill(z, seed, lo)

        monkeypatch.setattr(simulate, "_fill", counted)
        path = write_config(tmp_path, **HEISENBERG, t_grid=grid, mc={"n_paths": paths, "dt": dt, "seed": 8})
        assert main(["verify", "--config", path, "--out", "-"]) == 0
        assert sum(rows) == keyings * paths
        assert_two_estimates_in_sequence(capsys, grid, paths, dt, 8)

    @pytest.mark.parametrize("paths,submissions", [
        # one batch: its draws' 2 chunks take 2 of 3 workers
        (200, {3: 2, 1: 0}),
        # batches of 2048, 2048 and 4 paths: 3 workers draw each of the first
        # two batches' 16 chunks, and the third's one chunk is drawn inline
        (4100, {3: 6, 1: 0}),
    ])
    def test_report_does_not_depend_on_the_worker_count(self, tmp_path, capsys, monkeypatch, paths, submissions):
        # paths of 2000 steps, whose EM draws are pooled; the reference's
        # 2-draw rows run on the calling thread, which alone submits tasks
        path = write_config(tmp_path, **HEISENBERG, mc={"n_paths": paths, "dt": 1e-3, "seed": 5})
        assert main(["verify", "--config", path, "--out", "-"]) == 0
        default = capsys.readouterr().out
        for workers in (3, 1):
            pool, interval = SubmissionSpy(workers), sys.getswitchinterval()
            monkeypatch.setattr(simulate, "_WORKERS", workers)
            monkeypatch.setattr(simulate, "_POOL", pool)
            sys.setswitchinterval(1e-6)  # interleave the pool's threads often
            try:
                assert main(["verify", "--config", path, "--out", "-"]) == 0
            finally:
                sys.setswitchinterval(interval)
                pool.shutdown()
            assert (capsys.readouterr().out, pool.submissions) == (default, submissions[workers])

    def test_pair_too_large_for_a_batch(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(simulate, "_MAX_BATCH_DOUBLES", 8)  # one 3 x 3 exponent holds 9
        path = write_config(tmp_path, **HEISENBERG)
        assert main(["verify", "--config", path, "--out", "-"]) == 1
        assert capsys.readouterr().err.strip() == "too_large"
