import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from qtherm import _svg, cli
from qtherm.engine import ProcessConfig, run_process
from qtherm.errors import ConfigError
from qtherm.models import TRUNCATION_LIMIT, JcmParams, build_jcm
from qtherm.qcore import StateVector


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Runs in a fresh interpreter: prints the loaded scipy modules after the import
# and again after every command but verify, none of which loads qtherm.verify.
SCIPY_PROBE = """
import sys
from qtherm import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(scipy_modules())
out = sys.argv[1]
for args in (["simulate", "--mode", "both", "--config", out + "/small.cfg"],
             ["simulate", "--mode", "both", "--config", out + "/traj.cfg"],
             ["simulate", "--mode", "fast", "--config", out + "/fast.cfg"],
             ["steady-scan", "--config", out + "/small.cfg"],
             ["jcm-analytic", "--config", out + "/small.cfg"]):
    assert cli.main(args + ["--out", out + "/" + args[0], "--quiet"]) == 0, args
print(scipy_modules())
assert "qtherm.verify" not in sys.modules
"""

# Runs in a fresh interpreter: numpy 2.4's np.unique without options imports numpy.ma
# (for its np.ma.is_masked check, about 10 ms and 1.2 MB); no averaged run takes one
NUMPY_MA_PROBE = """
import sys
import numpy as np
from qtherm.generators import decompose, fast_interval_run, weak_interval_run
from qtherm.models import JcmParams, build_jcm, thermal_state

assert "numpy.ma" not in sys.modules
sys_ = build_jcm(JcmParams(n_max=2))
args = (thermal_state(sys_.h_b, 1.0), thermal_state(sys_.h_a, 1.0))
opts = dict(horizon=1.0, intervals=np.array([1.0]), checkpoint_times=np.array([0.0, 1.0]),
            beta=1.0)
weak_interval_run(decompose(sys_, 0.2), *args, **opts)
fast_interval_run(sys_, 5.0, *args, **opts)
print("numpy.ma" in sys.modules)
"""


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


def per_cell_csv(comments, columns):
    """The CSV text of the per-cell rule write_csv keeps: integer elements as
    str(int(x)), anything else as repr(float(x)), one cell at a time."""
    def cell(x):
        return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))

    rows = len(next(iter(columns.values()))) if columns else 0
    lines = [f"# {c}\n" for c in comments] + [",".join(columns) + "\n"]
    lines += [",".join(cell(col[i]) for col in columns.values()) + "\n" for i in range(rows)]
    return "".join(lines)


def per_point_svg(title, xlabel, ylabel, series):
    """The SVG text of the rule line_chart keeps, one point at a time: the axes
    span every finite (x, y) pair, and each series draws its finite pairs."""
    from qtherm._svg import H, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, W, _fmt, _ticks

    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y)] or [(0.0, 0.0), (1.0, 1.0)]
    x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
    y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    y0, y1 = y0 - 0.04 * (y1 - y0), y1 + 0.04 * (y1 - y0)

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (W - MARGIN_L - MARGIN_R)

    def sy(y):
        return H - MARGIN_B - (y - y0) / (y1 - y0) * (H - MARGIN_T - MARGIN_B)

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">', f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W/2:.0f}" y="22" text-anchor="middle" font-size="15" '
             f'font-family="sans-serif">{title}</text>']
    for t in _ticks(x0, x1):
        lines += [f'<line x1="{sx(t):.2f}" y1="{MARGIN_T}" x2="{sx(t):.2f}" '
                  f'y2="{H - MARGIN_B}" stroke="#dddddd" stroke-width="1"/>',
                  f'<text x="{sx(t):.2f}" y="{H - MARGIN_B + 18}" text-anchor="middle" '
                  f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>']
    for t in _ticks(y0, y1):
        lines += [f'<line x1="{MARGIN_L}" y1="{sy(t):.2f}" x2="{W - MARGIN_R}" '
                  f'y2="{sy(t):.2f}" stroke="#dddddd" stroke-width="1"/>',
                  f'<text x="{MARGIN_L - 6}" y="{sy(t) + 4:.2f}" text-anchor="end" '
                  f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>']
    lines += [f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{W - MARGIN_L - MARGIN_R}" '
              f'height="{H - MARGIN_T - MARGIN_B}" fill="none" stroke="#333333"/>',
              f'<text x="{W/2:.0f}" y="{H - 14}" text-anchor="middle" font-size="13" '
              f'font-family="sans-serif">{xlabel}</text>',
              f'<text x="18" y="{H/2:.0f}" text-anchor="middle" font-size="13" '
              f'font-family="sans-serif" transform="rotate(-90 18 {H/2:.0f})">{ylabel}</text>']
    for i, (label, xs, ys) in enumerate(series):
        color, ly = PALETTE[i % len(PALETTE)], MARGIN_T + 16 + 16 * i
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys)
                          if math.isfinite(x) and math.isfinite(y))
        if coords:
            lines.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        lines += [f'<line x1="{W - MARGIN_R - 150}" y1="{ly - 4}" x2="{W - MARGIN_R - 126}" '
                  f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>',
                  f'<text x="{W - MARGIN_R - 120}" y="{ly}" font-size="11" '
                  f'font-family="sans-serif">{label}</text>']
    return "\n".join(lines + ["</svg>"]) + "\n"


class TestWriteCsv:
    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 2.0, 0.1, 1 / 3, -7.25,
              1e-310, 123456789.0]

    @pytest.mark.parametrize("columns", [
        {"n": np.arange(-3, 9), "flag": np.arange(12) % 3 == 0, "x": np.array(FLOATS)},
        {"x": np.array([]), "n": np.array([], dtype=int)},
        {},
    ], ids=["int-bool-float", "zero-rows", "no-columns"])
    @pytest.mark.parametrize("block", [1, 5, cli.CSV_BLOCK_ROWS])
    def test_bytes_match_the_per_cell_rule(self, tmp_path, monkeypatch, columns, block):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        comments = ["qtherm test output", "key = value"]
        cli.write_csv(str(tmp_path / "t.csv"), comments, columns)
        assert (tmp_path / "t.csv").read_bytes() == per_cell_csv(comments, columns).encode()

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3)])
    @pytest.mark.parametrize("block", [2, cli.CSV_BLOCK_ROWS])
    def test_columns_of_unequal_length_raise(self, tmp_path, monkeypatch, lengths, block):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        columns = {"a": np.zeros(lengths[0]), "b": np.zeros(lengths[1])}
        with pytest.raises(ValueError):
            cli.write_csv(str(tmp_path / "t.csv"), [], columns)


class TestLineChart:
    t = np.linspace(-3.0, 40.0, 23)

    @pytest.mark.parametrize("series", [
        [("a", t, np.sin(t)), ("b", t, np.where(t > 10, np.nan, t ** 2)),
         ("c", [0, 1, 2], [math.inf, 2, -math.inf]), ("d", t[:5], np.full(5, -0.0))],
        [("flat", [1.0, 1.0], [2.0, 2.0])],
        [("none", [math.nan, 1.0], [1.0, math.inf])],
        [],
    ], ids=["mixed", "flat", "no_finite_point", "no_series"])
    @pytest.mark.parametrize("block", [1, 4, _svg.POINT_BLOCK])
    def test_bytes_match_the_per_point_rule(self, tmp_path, monkeypatch, series, block):
        monkeypatch.setattr(_svg, "POINT_BLOCK", block)
        _svg.line_chart(str(tmp_path / "c.svg"), "title", "t", "y", series)
        want = per_point_svg("title", "t", "y", series)
        assert (tmp_path / "c.svg").read_bytes() == want.encode()


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

    def test_degenerate_row(self, tmp_path):
        # at gamma = 0 every level of A is stationary: the row is nan and flagged
        cfgfile = tmp_path / "free.cfg"
        cfgfile.write_text("gamma = 0\nscan_n_max = 2\nbeta_list = 1.0\nlambda_list = 0.5\n")
        code = cli.main(["steady-scan", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        row = (tmp_path / "out" / "steady_scan.csv").read_text().splitlines()[-1].split(",")
        assert row[:2] == ["1.0", "0.5"] and row[2:6] == ["nan"] * 4 and row[7] == "1", row
        assert float(row[6]) > 0                        # the floor beta_eff_min
        assert (tmp_path / "out" / "steady_scan.svg").stat().st_size > 0

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


class TestScipyFreeStart:
    def test_cli_commands_load_no_scipy(self, tmp_path):
        # scipy is needed only by verify, the dense-expm fallback and the reference
        # propagation; importing the CLI or running any other command loads none of it
        small = "n_max = 3\nhorizon = 20\ncheckpoints = 5\nscan_n_max = 3\n" \
                "beta_list = 1.0,4.0\nn_levels = 2\nt_points = 5\n"
        (tmp_path / "small.cfg").write_text(small)
        (tmp_path / "traj.cfg").write_text(small + "mode = trajectory\nn_traj = 8\n")
        (tmp_path / "fast.cfg").write_text(small + "lambda = 5.0\n")
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)],
                             capture_output=True, text=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=path))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["[]", "[]"], res.stdout
        assert (tmp_path / "simulate" / "timeseries_weak.csv").exists()
        assert (tmp_path / "simulate" / "timeseries_fast.csv").exists()
        assert (tmp_path / "steady-scan" / "steady_scan.csv").exists()

    def test_averaged_runs_load_no_numpy_ma(self):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE], capture_output=True,
                             text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines() == ["False"], res.stdout


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--mode", "bogus"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [["verify", "--config", "x.cfg"], ["verify", "--seed", "3"],
                                      ["steady-scan", "--seed", "3"], ["steady-scan", "--traj", "5"],
                                      ["jcm-analytic", "--seed", "3"],
                                      ["jcm-analytic", "--traj", "5"]])
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, monkeypatch,
                                                           capsys, argv):
        from qtherm import verify as verify_mod

        monkeypatch.setattr(verify_mod, "run_all", lambda n_traj=None, quiet=False: [])
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--out", str(tmp_path), "--quiet"])
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

    @pytest.mark.parametrize("line,mode", [
        pytest.param(line, mode, id=line if mode == "exact" else f"{line}-{mode}")
        for mode in ("exact", "weak", "fast")
        for line in ("gamma = -1", "gamma = nan", "omega_a = nan", "beta = -1", "beta = abc",
                     "beta = 1.0,abc", "n_max = 0", "checkpoints = -3", "horizon = inf")])
    def test_bad_model_input_is_one_line_error(self, tmp_path, capsys, line, mode):
        # every mode is refused by the same checks; lambda = 0.5 (10 gamma) keeps the
        # fast regime check from refusing first
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n" + ("lambda = 0.5\n" if mode == "fast" else ""))
        code = cli.main(["simulate", "--mode", mode, "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if line in ("checkpoints = -3", "horizon = inf"):
            assert line.split(" = ")[1] in err     # ProcessConfig states the value it got

    @pytest.mark.parametrize("mode", ["weak", "fast", "both"])
    def test_averaged_modes_reject_beta_schedule(self, tmp_path, capsys, mode):
        # the weak and fast runs take one reservoir temperature; only the exact run
        # follows a schedule, so no CSV is written
        cfgfile = tmp_path / "sched.cfg"
        cfgfile.write_text("beta = 1.0,2.0\nn_max = 2\nhorizon = 20\ncheckpoints = 5\n")
        code = cli.main(["simulate", "--mode", mode, "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.rglob("*.csv"))

    def test_fast_mode_outside_its_regime_is_one_line_error(self, tmp_path, capsys):
        # the fast run is an expansion in gamma/lambda; lambda = 8 gamma is outside
        # its regime, so no CSV is written
        cfgfile = tmp_path / "slow.cfg"
        cfgfile.write_text("lambda = 0.4\ngamma = 0.05\nn_max = 2\nhorizon = 20\ncheckpoints = 5\n")
        code = cli.main(["simulate", "--mode", "fast", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert "10 gamma" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_weak_mode_refuses_oversized_superoperator(self, tmp_path):
        # n_max = 100 passes the joint-size guard (d = 202), but a dense d^2 x d^2
        # generator would need 24.8 GiB; the child's address space is capped at
        # 3 GiB so that a missing guard fails with MemoryError, not by allocating
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text("n_max = 100\nhorizon = 10\ncheckpoints = 3\n")
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        cap = 3 * 2 ** 30
        res = subprocess.run(
            [sys.executable, "-m", "qtherm.cli", "simulate", "--mode", "weak", "--config",
             str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert res.returncode == 3, res.stderr
        assert res.stderr.count("\n") == 1 and "24.8 GiB" in res.stderr, res.stderr

    def test_large_frequency_runs(self, tmp_path):
        # the joint eigendecomposition is checked relative to max|H|: an absolute
        # 1e-10 refused omega_a = 3000 with a ValueError traceback
        cfgfile = tmp_path / "fast_cavity.cfg"
        cfgfile.write_text("omega_a = 3000\ncheckpoints = 5\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--out", str(tmp_path / "out"),
                         "--quiet"])
        assert code == 0 and (tmp_path / "out" / "timeseries_exact.csv").exists()

    @pytest.mark.parametrize("mode,line,code", [
        ("weak", "gamma = 1e200", 1), ("fast", "lambda = 1e300", 1), ("weak", "lambda = 1e300", 1),
        ("weak", "omega_a = 1e300", 1), ("weak", "gamma = 1e150", 1),
        ("exact", "lambda = 1e300", 1), ("exact", "lambda = 1e4", 3)])
    def test_huge_parameter_is_refused_in_one_line(self, tmp_path, mode, line, code):
        # each used to end in an overflow traceback, a numpy warning ahead of a
        # numeric failure, or (exact, lambda = 1e300) a walk of ~3e302 intervals;
        # lambda = 1e4 expects 3e6 intervals, above engine.MAX_INTERVALS
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text(line + "\n")
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-m", "qtherm.cli", "simulate", "--mode", mode, "--config",
             str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
        assert res.returncode == code, res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert "Traceback" not in res.stderr and "Warning" not in res.stderr, res.stderr
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("mode,lines", [
        ("weak", "gamma = 1e6"), ("weak", "gamma = 1e8"),
        ("fast", "lambda = 1e9\nomega_a = 1e50\nhorizon = 1e-5"),
        ("fast", "lambda = 1e9\nomega_b = 1e50\nhorizon = 1e-5")])
    def test_runaway_averaged_run_fails_in_one_line(self, tmp_path, mode, lines):
        # weak at gamma = 1e6 exited 0 with populations of 145, and at 1e8 (or fast
        # with [H_0, H_AB] gamma / lambda^2 ~ 5e30) printed three numpy RuntimeWarnings
        # before the failure; the horizon keeps lambda = 1e9 under MAX_INTERVALS
        cfgfile = tmp_path / "huge.cfg"
        cfgfile.write_text(lines + "\n")
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-m", "qtherm.cli", "simulate", "--mode", mode, "--config",
             str(cfgfile), "--out", str(tmp_path / "out"), "--quiet"],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("numeric failure: ") and res.stderr.count("\n") == 1, \
            res.stderr
        assert "Warning" not in res.stderr, res.stderr
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("line", ["t_points = -1", "t_max = -5", "t_max = nan",
                                      "lambda = -1", "lambda = nan", "lambda = inf",
                                      "n_levels = -1"])
    def test_jcm_analytic_bad_input_is_one_line_error(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(line + "\n")
        code = cli.main(["jcm-analytic", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command,key", [("simulate", "n_max"), ("steady-scan", "scan_n_max"),
                                             ("jcm-analytic", "n_max")])
    def test_oversized_system_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch,
                                                         command, key):
        monkeypatch.setattr(cli, "build_jcm", lambda p: pytest.fail("oversized system built"))
        cfgfile = tmp_path / "big.cfg"
        cfgfile.write_text(f"{key} = 5000\n")
        code = cli.main([command, "--config", str(cfgfile), "--out", str(tmp_path / "out"),
                         "--quiet"])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1 and "joint dimension" in err, err

    def test_oversized_trajectory_count_refused_before_any_stream(self, tmp_path, capsys,
                                                                  monkeypatch):
        # --traj 1e8 ended in a MemoryError traceback while drawing one random stream
        # per trajectory
        from qtherm import engine

        monkeypatch.setattr(engine, "_traj_rng", lambda *a: pytest.fail("stream drawn"))
        cfgfile = tmp_path / "many.cfg"
        cfgfile.write_text("mode = trajectory\nn_max = 2\n")
        code = cli.main(["simulate", "--config", str(cfgfile), "--traj", "100000000",
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1 and "n_traj = 100000000" in err, err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("mode,lines", [("exact", ""), ("exact", "mode = trajectory\n"),
                                            ("weak", ""), ("fast", "lambda = 5\n")])
    def test_oversized_checkpoint_count_refused_before_the_grid(self, tmp_path, capsys,
                                                                monkeypatch, mode, lines):
        # checkpoints = 1e8 ended in a MemoryError traceback in every mode: the
        # exact states, the trajectory phase table, or the weak run's grid
        monkeypatch.setattr(ProcessConfig, "grid", lambda self: pytest.fail("grid built"))
        cfgfile = tmp_path / "dense.cfg"
        cfgfile.write_text(lines + "n_max = 2\ncheckpoints = 100000000\n")
        code = cli.main(["simulate", "--mode", mode, "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1, err
        assert "100000000 checkpoint times" in err, err
        assert not list(tmp_path.rglob("*.csv"))

    def test_oversized_analytic_table_refused_before_any_row(self, tmp_path, capsys,
                                                             monkeypatch):
        # n_levels = 1e8 with t_points = 2 wrote nothing within 20 s: 2e8 rows would
        # take about an hour and tens of GB
        monkeypatch.setattr(cli, "mean_b2_poisson", lambda *a: pytest.fail("row computed"))
        monkeypatch.setattr(cli, "amplitudes", lambda *a: pytest.fail("row computed"))
        cfgfile = tmp_path / "tall.cfg"
        cfgfile.write_text("n_levels = 100000000\nt_points = 2\n")
        code = cli.main(["jcm-analytic", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        assert code == 3 and err.count("\n") == 1 and "200000000 rows" in err, err
        assert not list(tmp_path.rglob("*.csv"))
        # the limit itself passes the guard
        cfg = dict(cli.resolve_config(None, {}), n_levels=cli.MAX_ANALYTIC_ROWS, t_points=1)
        with pytest.raises(pytest.fail.Exception, match="row computed"):
            cli.cmd_jcm_analytic(cfg, str(tmp_path / "out"), quiet=True)

    def test_truncation_warning_states_its_margin(self, tmp_path, capsys):
        # the golden truncation-suspect density-matrix point, through the CLI
        cfgfile = tmp_path / "tight.cfg"
        cfgfile.write_text("n_max = 2\ngamma = 0.4\nlambda = 0.05\nbeta = 0.2\n"
                           "horizon = 200\nseed = 1\ncheckpoints = 25\n")
        params = JcmParams(omega_a=2 * math.pi, omega_b=2 * math.pi, gamma=0.4, n_max=2)
        system = build_jcm(params)
        run = run_process(ProcessConfig(lam=0.05, beta=0.2, horizon=200.0, seed=1,
                                        initial_state_a=StateVector(np.eye(3)[1]),
                                        n_checkpoints=25), system)
        assert run.truncation_suspect
        code = cli.main(["simulate", "--config", str(cfgfile),
                         "--out", str(tmp_path / "out"), "--quiet"])
        err = capsys.readouterr().err
        top = run.meta["top_fock_max"]
        assert code == 0 and err == (f"warning: exact run is truncation-suspect (top level "
                                     f"population {top:.3g} > {TRUNCATION_LIMIT:g})\n"), err

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

    @pytest.mark.parametrize("mode, lines, flag", [
        ("exact", "", ["--seed", "-1"]), ("exact", "mode = trajectory\nseed = -1\n", []),
        ("weak", "seed = -1\n", []), ("fast", "lambda = 0.5\n", ["--seed", "-1"])],
        ids=["exact-flag", "trajectory-config", "weak-config", "fast-flag"])
    def test_negative_seed_is_one_line_error(self, tmp_path, mode, lines, flag):
        # numpy's SeedSequence takes no negative entropy; the seed is refused where it
        # enters, as a ConfigError, not by a traceback from inside the run
        cfgfile = tmp_path / "seed.cfg"
        cfgfile.write_text(lines + "n_max = 2\nhorizon = 20\ncheckpoints = 5\n")
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        res = subprocess.run(
            [sys.executable, "-m", "qtherm.cli", "simulate", "--mode", mode, "--config",
             str(cfgfile), "--out", str(tmp_path / "out"), "--quiet", *flag],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
        assert res.returncode == 1, res.stderr
        assert res.stderr.count("\n") == 1 and "Traceback" not in res.stderr, res.stderr
        assert "seed must be non-negative" in res.stderr
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_verify_rejects_trajectory_count_below_one(self, tmp_path, monkeypatch, capsys, n):
        # refused before the first check runs; 0 is not read as "use the default"
        from qtherm import verify as verify_mod

        ran = []
        monkeypatch.setattr(verify_mod, "check_block_oracle", lambda: ran.append(1))
        code = cli.main(["verify", "--traj", n, "--out", str(tmp_path), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
        assert not ran

    def test_verify_failure_exit_code(self, tmp_path, monkeypatch):
        from qtherm import verify as verify_mod

        def tiny_run_all(n_traj=None, quiet=False):
            return [verify_mod.CheckResult(1, "stub", False, "t", "m")]

        monkeypatch.setattr(verify_mod, "run_all", tiny_run_all)
        assert cli.main(["verify", "--out", str(tmp_path), "--quiet"]) == 2


class TestOutsideInput:
    SMALL = "n_max = 2\nhorizon = 20\ncheckpoints = 5\nscan_n_max = 2\nbeta_list = 1.0\n" \
            "n_levels = 2\nt_points = 5\n"

    @pytest.mark.parametrize("argv,says", [
        (["simulate", "--config", "missing.cfg"], "No such file"),
        (["simulate", "--config", "folder.cfg"], "Is a directory"),
        (["simulate", "--config", "utf16.cfg"], "can't decode"),
        (["steady-scan", "--config", "missing.cfg"], "No such file"),
        (["jcm-analytic", "--config", "folder.cfg"], "Is a directory"),
        (["simulate", "--config", "small.cfg", "--out", "a_file"], "File exists"),
        (["steady-scan", "--config", "small.cfg", "--out", "a_file"], "File exists"),
        (["jcm-analytic", "--config", "small.cfg", "--out", "a_file"], "File exists"),
        (["verify", "--out", "a_file"], "File exists"),
        (["simulate", "--config", "small.cfg", "--seed", "-1"], "seed"),
        (["simulate", "--config", "small.cfg", "--seed", "-1", "--mode", "weak"], "seed"),
        (["simulate", "--config", "small.cfg", "--seed", "-1", "--traj", "0"], "n_traj"),
        (["simulate", "--config", "slow.cfg", "--mode", "fast"], "10 gamma"),
        (["steady-scan", "--config", "nan_rate.cfg"], "measurement rate"),
        (["verify", "--traj", "0"], "trajectory count"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_refusal_is_one_line_and_leaves_no_output(self, tmp_path, monkeypatch, capsys,
                                                      argv, says):
        # a missing, directory or non-UTF-8 config and an --out naming a file ended in
        # tracebacks; a refused request made its --out directory before its checks
        from qtherm import verify as verify_mod

        run_all = verify_mod.run_all              # checks --traj, and runs no check then
        monkeypatch.setattr(verify_mod, "run_all", lambda n_traj=None, quiet=False:
                            [] if n_traj is None else run_all(n_traj))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "small.cfg").write_text(self.SMALL)
        (tmp_path / "slow.cfg").write_text(self.SMALL + "lambda = 0.4\n")
        (tmp_path / "nan_rate.cfg").write_text(self.SMALL + "lambda_list = 1.0,nan\n")
        (tmp_path / "utf16.cfg").write_bytes("gamma = 0.05  # γ\n".encode("utf-16"))
        (tmp_path / "folder.cfg").mkdir()
        (tmp_path / "a_file").write_text("")
        before = sorted(os.listdir(tmp_path))
        code = cli.main(argv + ([] if "--out" in argv else ["--out", "out"]) + ["--quiet"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert says in err and "Traceback" not in err, err
        assert sorted(os.listdir(tmp_path)) == before
