"""Configuration-driven command line producing reproducible CSV data and SVG plots.

Config files are flat ``key = value`` text ('#' comments); command-line flags
override file values.  Every output embeds the fully resolved configuration
and its SHA-256 so runs can be reproduced byte-for-byte.  Exit codes:
0 ok, 1 usage, 2 verification failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys as _sys

import numpy as np

from . import verify as verify_mod
from ._svg import line_chart
from .engine import ProcessConfig, check_horizon, run_process
from .errors import ConfigError, NumericError, QthermError
from .generators import decompose, fast_interval_run, weak_interval_run, \
    assemble_reduced_generator, min_temp_predict, steady_state
from .analytic import amplitudes, mean_b2_poisson
from .errors import DegenerateSteadyStateError
from .models import JcmParams, build_jcm, thermal_state
from .qcore import StateVector

TWO_PI = 2 * math.pi

DEFAULTS = {
    # model (photon-decay state point: resonant cavity+qubit, full coupling)
    "omega_a": TWO_PI,
    "omega_b": TWO_PI,
    "gamma": 0.05,
    "n_max": 14,
    "rwa": False,
    # process
    "lambda": 1e-2,
    "beta": "1.0",
    "horizon": 300.0,
    "seed": 2024,
    "mode": "density-matrix",
    "n_traj": 5000,
    "initial_n": 1,
    "checkpoints": 241,
    # steady-scan grids (lambda/2 omega = 0.05, 0.1, 0.5 by default)
    "beta_list": "0.25,0.5,1.0,2.0,3.0,4.0,6.0,8.0",
    "lambda_list": "0.6283185307179586,1.2566370614359172,6.283185307179586",
    "scan_n_max": 6,
    # closed-form dump
    "n_levels": 5,
    "t_max": 100.0,
    "t_points": 201,
}

_INT_KEYS = {"n_max", "seed", "n_traj", "initial_n", "checkpoints", "scan_n_max",
             "n_levels", "t_points"}
_BOOL_KEYS = {"rwa"}
_STR_KEYS = {"mode", "beta", "beta_list", "lambda_list"}


def parse_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def _coerce(key: str, value):
    if isinstance(value, str):
        try:
            if key in _BOOL_KEYS:
                low = value.strip().lower()
                if low not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(value)
                return low in ("true", "1", "yes")
            if key in _INT_KEYS:
                return int(value)
            if key in _STR_KEYS:
                return value.strip()
            return float(value)
        except ValueError as exc:
            raise ConfigError(f"config field {key!r}: cannot parse {value!r}") from exc
    return value


def resolve_config(path: str | None, overrides: dict) -> dict:
    values = dict(DEFAULTS)
    if path:
        for k, v in parse_config_file(path).items():
            values[k] = v
    for k, v in overrides.items():
        if v is not None:
            values[k] = v
    return {k: _coerce(k, v) for k, v in values.items()}


def config_text(cfg: dict) -> str:
    lines = [f"{k} = {cfg[k]}" for k in sorted(cfg)]
    return "\n".join(lines)


def config_sha256(cfg: dict) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


def _beta_value(cfg: dict):
    parts = [float(p) for p in str(cfg["beta"]).split(",") if p.strip()]
    if not parts:
        raise ConfigError("beta must contain at least one value")
    return parts[0] if len(parts) == 1 else parts


def _float_list(text: str, what: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what}: {text!r}") from exc


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path: str, comments: list[str], columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    rows = len(next(iter(columns.values()))) if columns else 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(names) + "\n")
        for i in range(rows):
            fh.write(",".join(_fmt(columns[n][i]) for n in names) + "\n")


def _header(cfg: dict, command: str) -> list[str]:
    lines = [f"qtherm {command} output", f"config_sha256 = {config_sha256(cfg)}"]
    lines += config_text(cfg).splitlines()
    return lines


def _say(quiet: bool, msg: str) -> None:
    if not quiet:
        print(msg)


def _build_system(cfg: dict, n_max_key: str = "n_max"):
    params = JcmParams(omega_a=cfg["omega_a"], omega_b=cfg["omega_b"],
                       gamma=cfg["gamma"], n_max=cfg[n_max_key], rwa=cfg["rwa"])
    return params, build_jcm(params)


def _initial_state(cfg: dict, dim_a: int) -> StateVector:
    n0 = cfg["initial_n"]
    if not 0 <= n0 < dim_a:
        raise ConfigError(f"initial_n = {n0} outside the truncated ladder")
    vec = np.zeros(dim_a, dtype=complex)
    vec[n0] = 1.0
    return StateVector(vec)


def _series_columns(series) -> dict[str, np.ndarray]:
    return {
        "t": series.t,
        "mean_HA": series.mean_ha,
        "mean_HB": series.mean_hb,
        "mean_HAB": series.mean_hab,
        "Q_cum": series.q_cum,
        "W_cum": series.w_cum,
        "Wmeas_cum": series.wmeas_cum,
        "S_A": series.s_a,
        "S_tot": series.s_tot,
        "n_eff_traj": np.full(len(series.t), series.n_traj, dtype=int),
    }


def cmd_simulate(cfg: dict, out_dir: str, quiet: bool, run_mode: str = "exact") -> int:
    params, sys = _build_system(cfg)
    os.makedirs(out_dir, exist_ok=True)
    beta = _beta_value(cfg)
    psi0 = _initial_state(cfg, sys.dim_a)
    if cfg["checkpoints"] < 0:
        raise ConfigError(f"checkpoints must be >= 0, got {cfg['checkpoints']}")
    check_horizon(cfg["horizon"])
    grid = np.linspace(0.0, cfg["horizon"], cfg["checkpoints"])
    header = _header(cfg, "simulate") + [f"run_mode = {run_mode}"]
    made = []

    def emit(tag: str, series, suspect: bool):
        path = os.path.join(out_dir, f"timeseries_{tag}.csv")
        write_csv(path, header + [f"series = {tag}"], _series_columns(series))
        made.append((tag, path, series))
        if suspect:
            print(f"warning: {tag} run is truncation-suspect "
                  f"(top level population exceeded 1e-6)", file=_sys.stderr)

    if run_mode in ("exact", "both"):
        pcfg = ProcessConfig(lam=cfg["lambda"], beta=beta, horizon=cfg["horizon"],
                             seed=cfg["seed"], mode=cfg["mode"],
                             n_traj=cfg["n_traj"], initial_state_a=psi0,
                             checkpoint_times=grid)
        rec = run_process(pcfg, sys)
        emit("exact", rec.series, rec.truncation_suspect)
    if run_mode in ("weak", "fast", "both"):
        # the averaged runs take one reservoir temperature: the first of a schedule
        beta0 = beta if np.isscalar(beta) else beta[0]
        inputs = (thermal_state(sys.h_b, beta0), psi0.projector())
        opts = dict(horizon=cfg["horizon"], seed=cfg["seed"], checkpoint_times=grid, beta=beta0)
        if run_mode == "fast":
            run = fast_interval_run(sys, cfg["lambda"], *inputs, **opts)
        else:
            run = weak_interval_run(decompose(sys, cfg["lambda"]), *inputs, **opts)
        emit("fast" if run_mode == "fast" else "weak", run.series, run.truncation_suspect)

    svg_path = os.path.join(out_dir, "simulate.svg")
    curves = []
    for tag, _, series in made:
        curves.append((f"{tag} <H_A>", series.t, series.mean_ha))
        curves.append((f"{tag} Q_cum", series.t, series.q_cum))
        curves.append((f"{tag} W_cum", series.t, series.w_cum))
    line_chart(svg_path, "Energy and accumulated heat/work", "t", "energy", curves)
    for tag, path, _ in made:
        _say(quiet, f"wrote {path}")
    _say(quiet, f"wrote {svg_path}")
    return 0


def cmd_steady_scan(cfg: dict, out_dir: str, quiet: bool) -> int:
    params, sys = _build_system(cfg, n_max_key="scan_n_max")
    os.makedirs(out_dir, exist_ok=True)
    betas = _float_list(cfg["beta_list"], "beta_list")
    lams = _float_list(cfg["lambda_list"], "lambda_list")
    omega = cfg["omega_a"]
    cols = {k: [] for k in ("beta", "lambda", "p0", "p1", "beta_eff",
                            "residual", "beta_eff_min", "degenerate")}
    for lam in lams:
        spec = decompose(sys, lam)
        floor = -math.log(min_temp_predict(lam, omega)) / omega
        for beta in betas:
            gen = assemble_reduced_generator(spec, beta)
            try:
                res = steady_state(gen, sys.h_a)
                row = (beta, lam, res.p0, res.p1, res.beta_eff, res.residual, floor, 0)
            except DegenerateSteadyStateError:
                row = (beta, lam, math.nan, math.nan, math.nan, math.nan, floor, 1)
            for k, v in zip(cols, row):
                cols[k].append(v)
    columns = {k: np.array(v) for k, v in cols.items()}
    path = os.path.join(out_dir, "steady_scan.csv")
    write_csv(path, _header(cfg, "steady-scan"), columns)

    curves = []
    for lam in lams if betas else []:
        sel = columns["lambda"] == lam
        curves.append((f"lam={lam:.4g}", columns["beta"][sel], columns["beta_eff"][sel]))
        floor = -math.log(min_temp_predict(lam, omega)) / omega
        curves.append((f"limit lam={lam:.4g}", np.array([min(betas), max(betas)]),
                       np.array([floor, floor])))
    svg_path = os.path.join(out_dir, "steady_scan.svg")
    line_chart(svg_path, "Steady-state effective inverse temperature",
               "reservoir beta", "beta_eff", curves)
    _say(quiet, f"wrote {path}")
    _say(quiet, f"wrote {svg_path}")
    return 0


def cmd_jcm_analytic(cfg: dict, out_dir: str, quiet: bool) -> int:
    params, _ = _build_system(cfg)
    os.makedirs(out_dir, exist_ok=True)
    ts = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    cols = {k: [] for k in ("n", "t", "re_a", "im_a", "re_b", "im_b",
                            "abs_b2", "mean_b2_poisson")}
    for n in range(1, cfg["n_levels"] + 1):
        avg = mean_b2_poisson(n, cfg["lambda"], params)
        for t in ts:
            amp = amplitudes(n, float(t), params)
            cols["n"].append(n)
            cols["t"].append(float(t))
            cols["re_a"].append(amp.a_n.real)
            cols["im_a"].append(amp.a_n.imag)
            cols["re_b"].append(amp.b_n.real)
            cols["im_b"].append(amp.b_n.imag)
            cols["abs_b2"].append(amp.transfer_probability)
            cols["mean_b2_poisson"].append(avg)
    columns = {k: np.array(v) for k, v in cols.items()}
    columns["n"] = columns["n"].astype(int)
    path = os.path.join(out_dir, "jcm_analytic.csv")
    write_csv(path, _header(cfg, "jcm-analytic"), columns)
    curves = [(f"n={n}", ts,
               np.array(cols["abs_b2"][(n - 1) * len(ts): n * len(ts)]))
              for n in range(1, cfg["n_levels"] + 1)]
    svg_path = os.path.join(out_dir, "jcm_analytic.svg")
    line_chart(svg_path, "Exchange probability |b_n(t)|^2", "t", "|b_n|^2", curves)
    _say(quiet, f"wrote {path}")
    _say(quiet, f"wrote {svg_path}")
    return 0


def cmd_verify(args) -> int:
    out_dir = args.out or "qtherm_out"
    os.makedirs(out_dir, exist_ok=True)
    results = verify_mod.run_all(n_traj=args.traj, quiet=args.quiet)
    verify_mod.write_reports(results, out_dir)
    ok = all(r.passed for r in results)
    _say(args.quiet, f"wrote {os.path.join(out_dir, 'verify_report.txt')}")
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 on usage errors
        self.print_usage(_sys.stderr)
        print(f"error: {message}", file=_sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qtherm",
                description="Repeated-measurement dynamics of a cavity-qubit system")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="flat key=value config file")
        sp.add_argument("--seed", type=int, metavar="N")
        sp.add_argument("--out", metavar="DIR", default="qtherm_out")
        sp.add_argument("--traj", type=int, metavar="N", help="trajectory count override")
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("simulate", help="run the measured-evolution process")
    common(sp)
    sp.add_argument("--mode", choices=["exact", "weak", "fast", "both"], default="exact")

    sp = sub.add_parser("steady-scan", help="steady states across beta and lambda grids")
    common(sp)

    sp = sub.add_parser("jcm-analytic", help="dump the closed-form exchange amplitudes")
    common(sp)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        overrides = {"seed": args.seed, "n_traj": args.traj}
        cfg = resolve_config(args.config, overrides)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.quiet, run_mode=args.mode)
        if args.command == "steady-scan":
            return cmd_steady_scan(cfg, args.out, args.quiet)
        if args.command == "jcm-analytic":
            return cmd_jcm_analytic(cfg, args.out, args.quiet)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return 3
    except QthermError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
