import json
import math
import sys

import numpy as np
import pytest

from gbm_cutoff import cli, hypothesis_checks, noncommutative_cutoff, spectral_asymptotics
from gbm_cutoff.cli import load_config, main
from gbm_cutoff.errors import ToolkitError


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
        ],
    )
    def test_each_violation_has_distinct_code(self, tmp_path, overrides, code):
        path = write_config(tmp_path, **overrides)
        with pytest.raises(ToolkitError) as err:
            load_config(path)
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

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ToolkitError) as err:
            load_config(str(path))
        assert err.value.code == "config_invalid_json"


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

    def test_mixing_synthetic(self, tmp_path):
        out = tmp_path / "mix.csv"
        rc = main(["mixing", "--config", synthetic_config(tmp_path), "--out", str(out)])
        assert rc == 0
        eps, delta, tau, ratio_t, ratio = map(float, out.read_text().strip().splitlines()[1].split(","))
        assert 0.9 < ratio_t < 1.1

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

    def test_synthetic_verify_rejected(self, tmp_path, capsys):
        rc = main(["verify", "--config", synthetic_config(tmp_path), "--out", "-"])
        assert rc == 1
        assert capsys.readouterr().err.strip() == "config_bad_mode"

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
            ("--eps", "0.5", {"eps_list": [0.5]}, "config_eps_range"),
            ("--eps", ",", {"eps_list": []}, "config_eps_range"),
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

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "gbm-cutoff" in capsys.readouterr().out


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
    @pytest.mark.parametrize("command", ["analyze", "mixing", "profile"])
    @pytest.mark.parametrize("mode", ["commutative", "synthetic"])
    def test_closed_form_is_built_once(self, tmp_path, monkeypatch, mode, command):
        path = write_config(tmp_path) if mode == "commutative" else synthetic_config(tmp_path)
        checks = count_calls(monkeypatch, hypothesis_checks.check_hypotheses)
        decompositions = count_calls(monkeypatch, noncommutative_cutoff._decompose)
        asymptotics = count_calls(monkeypatch, spectral_asymptotics.extract_asymptotics)
        assert main([command, "--config", path, "--out", str(tmp_path / "report")]) == 0
        assert len(checks) <= 1
        if mode == "commutative":
            assert (len(decompositions), len(asymptotics)) == (0, 1)
        else:
            assert len(decompositions) == 1

    def test_unstable_commutative_pair_still_has_a_mean_square(self, tmp_path, capsys):
        # mean-square never needs the asymptotics, which would reject Q = 0.1
        path = write_config(tmp_path, A=[[0.1]], B=[[0.0]], t_grid=[0.0, 1.0, 2.0])
        assert main(["mean-square", "--config", path, "--out", "-", "--paths", "200"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
        assert float(rows[1][1]) == pytest.approx(math.exp(0.2), rel=1e-12)
