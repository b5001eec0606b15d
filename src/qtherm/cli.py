"""Configuration-driven command line producing reproducible CSV data and SVG plots.

Config files are flat ``key = value`` text ('#' comments); command-line flags
override file values.  Every output embeds the fully resolved configuration
and its SHA-256 so runs can be reproduced byte-for-byte.  Exit codes:
0 ok, 1 usage, configuration or I/O error, 2 verification failure, 3 numeric
failure.  A command makes its output directory only once its request passes
its checks, so a refused request leaves nothing behind.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys as _sys

import numpy as np

from ._svg import line_chart
from .engine import ProcessConfig, run_process
from .errors import ConfigError, NumericError, QthermError, SizeLimitError
from .generators import decompose, fast_interval_run, weak_interval_run, \
    assemble_reduced_generator, min_temp_predict, outside_fast_regime, steady_state
from .analytic import amplitudes, mean_b2_poisson
from .errors import DegenerateSteadyStateError
from .models import TRUNCATION_LIMIT, JcmParams, build_jcm, check_rate, thermal_state
from .qcore import StateVector

TWO_PI = 2 * math.pi
MAX_ANALYTIC_ROWS = 10 ** 6      # jcm-analytic rows, n_levels x t_points: ~7 s, ~0.35 GB
CSV_BLOCK_ROWS = 2 ** 14         # rows write_csv formats at a time, bounding the text held

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
    # a text value takes the type of the key's default (bool is checked before int)
    if not isinstance(value, str):
        return value
    kind = type(DEFAULTS[key])
    try:
        if kind is bool:
            low = value.strip().lower()
            if low not in ("true", "false", "1", "0", "yes", "no"):
                raise ValueError(value)
            return low in ("true", "1", "yes")
        return value.strip() if kind is str else kind(value)
    except ValueError as exc:
        raise ConfigError(f"config field {key!r}: cannot parse {value!r}") from exc


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
    parts = _float_list(str(cfg["beta"]), "beta")
    if not parts:
        raise ConfigError("beta must contain at least one value")
    return parts[0] if len(parts) == 1 else parts


def _float_list(text: str, what: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what}: {text!r}") from exc


def write_csv(path: str, comments: list[str], columns: dict[str, np.ndarray]) -> None:
    """Integer columns print as ints, any other (bool too) as repr(float(x))."""
    cols = [np.asarray(c) for c in columns.values()]
    cols = [c if c.dtype.kind in "iu" else c.astype(float, copy=False) for c in cols]
    rows = max(map(len, cols), default=0)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(columns) + "\n")
        for i in range(0, rows, CSV_BLOCK_ROWS):
            text = [map(repr, c[i:i + CSV_BLOCK_ROWS].tolist()) for c in cols]
            fh.writelines(",".join(row) + "\n" for row in zip(*text, strict=True))


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
    beta = _beta_value(cfg)
    if run_mode != "exact" and not np.isscalar(beta):
        raise ConfigError(f"--mode {run_mode} takes one beta, got the schedule {cfg['beta']}")
    psi0 = _initial_state(cfg, sys.dim_a)
    pcfg = ProcessConfig(lam=cfg["lambda"], beta=beta, horizon=cfg["horizon"], seed=cfg["seed"],
                         mode=cfg["mode"], n_traj=cfg["n_traj"], initial_state_a=psi0,
                         n_checkpoints=cfg["checkpoints"])
    if run_mode == "fast" and outside_fast_regime(sys, cfg["lambda"]):
        raise ConfigError(f"--mode fast is an expansion in gamma/lambda and needs "
                          f"lambda >= 10 gamma, got lambda = {cfg['lambda']!r}, "
                          f"gamma = {sys.gamma!r}")
    os.makedirs(out_dir, exist_ok=True)
    header = _header(cfg, "simulate") + [f"run_mode = {run_mode}"]
    made = []

    def emit(tag: str, run):
        path = os.path.join(out_dir, f"timeseries_{tag}.csv")
        write_csv(path, header + [f"series = {tag}"], _series_columns(run.series))
        made.append((tag, path, run.series))
        if run.truncation_suspect:
            print(f"warning: {tag} run is truncation-suspect (top level population "
                  f"{run.meta['top_fock_max']:.3g} > {TRUNCATION_LIMIT:g})", file=_sys.stderr)

    if run_mode in ("exact", "both"):
        emit("exact", run_process(pcfg, sys))
    if run_mode in ("weak", "fast", "both"):
        inputs = (thermal_state(sys.h_b, beta), psi0.projector())
        opts = dict(horizon=cfg["horizon"], seed=cfg["seed"], checkpoint_times=pcfg.grid(),
                    beta=beta)
        if run_mode == "fast":
            run = fast_interval_run(sys, cfg["lambda"], *inputs, **opts)
        else:
            run = weak_interval_run(decompose(sys, cfg["lambda"]), *inputs, **opts)
        emit("fast" if run_mode == "fast" else "weak", run)

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
    os.makedirs(out_dir, exist_ok=True)       # every rate and beta has passed its check
    path = os.path.join(out_dir, "steady_scan.csv")
    write_csv(path, _header(cfg, "steady-scan"), columns)

    curves = []
    for lam in lams if betas else []:
        sel = columns["lambda"] == lam
        curves.append((f"lam={lam:.4g}", columns["beta"][sel], columns["beta_eff"][sel]))
        floor = columns["beta_eff_min"][sel][0]
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
    check_rate(cfg["lambda"])
    if not 0 <= cfg["t_max"] < math.inf:
        raise ConfigError(f"t_max must be non-negative and finite, got {cfg['t_max']!r}")
    if min(cfg["t_points"], cfg["n_levels"]) < 0:
        raise ConfigError("t_points and n_levels must be non-negative")
    if (rows := cfg["n_levels"] * cfg["t_points"]) > MAX_ANALYTIC_ROWS:
        raise SizeLimitError(f"n_levels x t_points = {rows} rows, more than the limit of "
                             f"{MAX_ANALYTIC_ROWS:.0e}")
    os.makedirs(out_dir, exist_ok=True)
    ts = np.linspace(0.0, cfg["t_max"], cfg["t_points"])
    levels = range(1, cfg["n_levels"] + 1)
    a = np.empty((len(levels), len(ts)), dtype=complex)   # one row of times per level
    b = np.empty_like(a)
    for row, n in enumerate(levels):
        amp = amplitudes(n, ts, params)
        a[row], b[row] = amp.a_n, amp.b_n
    b2 = np.abs(b) ** 2                                 # as JcmAmplitudes.transfer_probability
    avg = [mean_b2_poisson(n, cfg["lambda"], params) for n in levels]
    columns = {"n": np.repeat(levels, len(ts)), "t": np.tile(ts, len(levels)),
               "re_a": a.real.ravel(), "im_a": a.imag.ravel(), "re_b": b.real.ravel(),
               "im_b": b.imag.ravel(), "abs_b2": b2.ravel(),
               "mean_b2_poisson": np.repeat(avg, len(ts))}
    path = os.path.join(out_dir, "jcm_analytic.csv")
    write_csv(path, _header(cfg, "jcm-analytic"), columns)
    curves = [(f"n={n}", ts, row) for n, row in zip(levels, b2)]
    svg_path = os.path.join(out_dir, "jcm_analytic.svg")
    line_chart(svg_path, "Exchange probability |b_n(t)|^2", "t", "|b_n|^2", curves)
    _say(quiet, f"wrote {path}")
    _say(quiet, f"wrote {svg_path}")
    return 0


def cmd_verify(args) -> int:
    from . import verify as verify_mod     # only this command compiles and loads it

    out_dir = args.out or "qtherm_out"
    results = verify_mod.run_all(n_traj=args.traj, quiet=args.quiet)
    os.makedirs(out_dir, exist_ok=True)
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

    # each subcommand offers only the flags it reads
    flags = {"--config": dict(metavar="PATH", help="flat key=value config file"),
             "--seed": dict(type=int, metavar="N"),
             "--traj": dict(type=int, metavar="N", help="trajectory count override")}

    def command(name, help, *names):
        sp = sub.add_parser(name, help=help)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        sp.add_argument("--out", metavar="DIR", default="qtherm_out")
        sp.add_argument("--quiet", action="store_true")
        return sp

    sp = command("simulate", "run the measured-evolution process", "--config", "--seed", "--traj")
    sp.add_argument("--mode", choices=["exact", "weak", "fast", "both"], default="exact")
    command("steady-scan", "steady states across beta and lambda grids", "--config")
    command("jcm-analytic", "dump the closed-form exchange amplitudes", "--config")
    command("verify", "run the verification suite", "--traj")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "simulate":
            cfg = resolve_config(args.config, {"seed": args.seed, "n_traj": args.traj})
            return cmd_simulate(cfg, args.out, args.quiet, run_mode=args.mode)
        cfg = resolve_config(args.config, {})
        if args.command == "steady-scan":
            return cmd_steady_scan(cfg, args.out, args.quiet)
        return cmd_jcm_analytic(cfg, args.out, args.quiet)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:   # I/O: the config or --out
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
