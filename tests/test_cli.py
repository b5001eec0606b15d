import json
import math
import os

import numpy as np
import pytest

from qtherm import cli
from qtherm.errors import ConfigError


def read_csv(path):
    comments, names, rows = [], None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif names is None:
                names = line.split(",")
            else:
                rows.append(line.split(","))
    cols = {n: np.array([float(r[i]) for r in rows]) for i, n in enumerate(names)}
    return comments, cols


class TestConfig:
    def test_defaults_are_decay_state_point(self):
        cfg = cli.resolve_config(None, {})
        assert cfg["gamma"] == 0.05
        assert cfg["lambda"] == 1e-2
        assert cfg["beta"] == "1.0"
        assert cfg["omega_a"] == 2 * math.pi
        assert cfg["rwa"] is False

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 0.02   # coupling\nseed = 7\n")
        cfg = cli.resolve_config(str(path), {"seed": 9})
        assert cfg["gamma"] == 0.02
        assert cfg["seed"] == 9  # command line wins

    def test_unknown_key_diagnostic(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("nonsense = 3\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            cli.parse_config_file(str(path))

    def test_bad_value_diagnostic(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = fast\n")
        with pytest.raises(ConfigError, match="gamma"):
            cli.resolve_config(str(path), {})

    def test_hash_stability(self):
        a = cli.resolve_config(None, {})
        b = cli.resolve_config(None, {})
        assert cli.config_sha256(a) == cli.config_sha256(b)


class TestSimulate:
    def test_exact_csv_schema(self, tmp_path):
        cfg = cli.resolve_config(None, {"horizon": 120.0, "checkpoints": 25, "seed": 3})
        assert cli.cmd_simulate(cfg, str(tmp_path), quiet=True, run_mode="exact") == 0
        comments, cols = read_csv(tmp_path / "timeseries_exact.csv")
        assert list(cols) == ["t", "mean_HA", "mean_HB", "mean_HAB", "Q_cum",
                              "W_cum", "Wmeas_cum", "S_A", "S_tot", "n_eff_traj"]
        assert any("config_sha256" in c for c in comments)
        assert len(cols["t"]) == 25
        assert (tmp_path / "simulate.svg").exists()

    def test_both_modes_aligned(self, tmp_path):
        cfg = cli.resolve_config(None, {"horizon": 150.0, "checkpoints": 16, "seed": 5})
        assert cli.cmd_simulate(cfg, str(tmp_path), quiet=True, run_mode="both") == 0
        _, exact = read_csv(tmp_path / "timeseries_exact.csv")
        _, weak = read_csv(tmp_path / "timeseries_weak.csv")
        np.testing.assert_array_equal(exact["t"], weak["t"])

    def test_rabi_oscillations_present(self, tmp_path):
        cfg = cli.resolve_config(None, {"horizon": 150.0, "checkpoints": 121, "seed": 3})
        cli.cmd_simulate(cfg, str(tmp_path), quiet=True, run_mode="exact")
        _, cols = read_csv(tmp_path / "timeseries_exact.csv")
        ha = cols["mean_HA"]
        # photon decay shows at least one full swing down and back up
        sign_changes = np.sign(np.diff(ha))
        assert (np.diff(sign_changes) != 0).sum() >= 2

    def test_fast_mode_writes(self, tmp_path):
        cfg = cli.resolve_config(None, {"horizon": 80.0, "checkpoints": 9, "seed": 2})
        cfg["lambda"] = 5.0  # fast regime
        assert cli.cmd_simulate(cfg, str(tmp_path), quiet=True, run_mode="fast") == 0
        assert (tmp_path / "timeseries_fast.csv").exists()


class TestSteadyScan:
    def test_scan_outputs(self, tmp_path):
        cfg = cli.resolve_config(None, {})
        cfg["beta_list"] = "0.5,1.0,8.0"
        cfg["lambda_list"] = "0.6283185307179586,6.283185307179586"
        assert cli.cmd_steady_scan(cfg, str(tmp_path), quiet=True) == 0
        _, cols = read_csv(tmp_path / "steady_scan.csv")
        assert len(cols["beta"]) == 6
        assert (cols["degenerate"] == 0).all()
        # high temperature, small rate: identity line beta_eff ~ beta
        sel = (cols["lambda"] < 1.0) & (cols["beta"] == 0.5)
        assert abs(cols["beta_eff"][sel][0] - 0.5) < 0.02
        # cold reservoir: plateau at the limiting value
        sel = (cols["lambda"] > 1.0) & (cols["beta"] == 8.0)
        assert abs(cols["beta_eff"][sel][0] - cols["beta_eff_min"][sel][0]) < 0.02

    def test_empty_grid(self, tmp_path):
        cfg = cli.resolve_config(None, {})
        cfg["beta_list"] = ""
        assert cli.cmd_steady_scan(cfg, str(tmp_path), quiet=True) == 0
        _, cols = read_csv(tmp_path / "steady_scan.csv")
        assert len(cols["beta"]) == 0


class TestJcmAnalytic:
    def test_dump(self, tmp_path):
        cfg = cli.resolve_config(None, {})
        cfg["n_levels"], cfg["t_points"] = 3, 41
        assert cli.cmd_jcm_analytic(cfg, str(tmp_path), quiet=True) == 0
        _, cols = read_csv(tmp_path / "jcm_analytic.csv")
        assert len(cols["t"]) == 3 * 41
        unit = cols["re_a"] ** 2 + cols["im_a"] ** 2 + cols["abs_b2"]
        np.testing.assert_allclose(unit, 1.0, atol=1e-12)


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--mode", "bogus"])
        assert exc.value.code == 1

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma == 0.05\n")
        assert cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("mode", ["exact", "weak", "fast"])
    @pytest.mark.parametrize("line", ["lambda = nan", "lambda = inf"])
    def test_non_finite_rate_exit_code(self, tmp_path, mode, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{line}\nn_max = 2\ncheckpoints = 5\n")
        code = cli.main(["simulate", "--mode", mode, "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 1

    @pytest.mark.parametrize("line", ["gamma = -1", "gamma = nan", "omega_a = nan",
                                      "beta = -1", "n_max = 0", "checkpoints = -3",
                                      "horizon = inf"])
    def test_bad_model_input_is_one_line_error(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        code = cli.main(["simulate", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_trajectory_without_checkpoints(self, tmp_path):
        cfgfile = tmp_path / "empty.cfg"
        cfgfile.write_text("mode = trajectory\ncheckpoints = 0\nn_traj = 2\n"
                           "n_max = 3\nhorizon = 20\n")
        code = cli.main(["simulate", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        _, cols = read_csv(tmp_path / "out" / "timeseries_exact.csv")
        assert len(cols["t"]) == 0

    def test_simulate_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "quick.cfg"
        cfgfile.write_text("horizon = 60\ncheckpoints = 7\nn_max = 8\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--seed", "4",
                         "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert (tmp_path / "out" / "timeseries_exact.csv").exists()

    def test_verify_subcommand_writes_report(self, tmp_path, monkeypatch):
        from qtherm import verify as verify_mod

        def tiny_run_all(n_traj=None, quiet=False):
            return [verify_mod.CheckResult(1, "stub", True, "t", "m")]

        monkeypatch.setattr(verify_mod, "run_all", tiny_run_all)
        code = cli.main(["verify", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        data = json.loads((tmp_path / "verify_report.json").read_text())
        assert data[0]["passed"] is True

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        from qtherm import verify as verify_mod

        def tiny_run_all(n_traj=None, quiet=False):
            return [verify_mod.CheckResult(1, "stub", False, "t", "m")]

        monkeypatch.setattr(verify_mod, "run_all", tiny_run_all)
        assert cli.main(["verify", "--out", str(tmp_path), "--quiet"]) == 2
