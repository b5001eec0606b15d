"""Write a benchmark record: the numbers a performance change is judged by.

    python3 tools/bench_record.py OUT.json

Run from the repository root, after ``python3 perfbench/run.py`` has written
``.perfbench_out/<workload>.json`` for the workloads in ``BENCHMARK.json``.
The record holds:

- the machine (CPUs, memory, Python and numpy versions), the git sha, whether
  tracked files differ from it, and ``src_lines``, the line count of
  ``src/qtherm`` as perfbench counts it;
- for each gated workload, the median and quartiles of each end-to-end metric
  over the samples of its last perfbench run (a workload without a run record
  is listed as missing);
- the Tier-1 wall time and pytest's summary line;
- the wall time and max RSS of CLI runs, each a fresh process: the default
  trajectory ``simulate`` (5000 trajectories x 241 checkpoints),
  ``simulate --mode weak`` at ``n_max`` 20 and 30, the exact
  ``simulate`` at ``n_max`` 100, which tracks the memory of the exact
  run's checkpoint states, ``steady-scan`` at ``scan_n_max`` 16 (the
  size of perfbench's ``scan`` workload), which tracks the reduced
  generator and the steady-state solve, and the exact ``simulate`` at
  ``lambda`` 1 and ``horizon`` 3000 (about 3,000 intervals at ``n_max`` 14,
  the size of perfbench's ``dm`` workload), which tracks the interval
  booking of the density-matrix run, ``jcm-analytic`` at ``n_levels``
  5000 and ``t_points`` 200, the largest table ``MAX_ANALYTIC_ROWS`` (10^6
  rows) admits, which tracks the CSV writer and the chart, and the
  trajectory ``simulate`` at ``lambda`` 1 with 500 trajectories (about
  150,000 trajectory intervals), which tracks the memory bound of the
  ensemble's held checkpoint records.  Max RSS is the child's
  ``ru_maxrss`` from ``wait4``, what ``RUSAGE_CHILDREN`` reports for a single
  child.

Each CLI run is repeated ``REPEATS`` times; the record keeps every run and
the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
REPEATS = 3
CLI_RUNS = {
    "simulate_trajectory_default": (["simulate"], "mode = trajectory\n"),
    "simulate_weak_n_max_20": (["simulate", "--mode", "weak"], "n_max = 20\n"),
    "simulate_weak_n_max_30": (["simulate", "--mode", "weak"], "n_max = 30\n"),
    "simulate_exact_n_max_100": (["simulate"], "n_max = 100\n"),
    "steady_scan_n_max_16": (["steady-scan"], "scan_n_max = 16\n"),
    "simulate_exact_3000_intervals": (["simulate"], "lambda = 1.0\nhorizon = 3000\n"),
    "jcm_analytic_max_rows": (["jcm-analytic"], "n_levels = 5000\nt_points = 200\n"),
    "simulate_trajectory_many_intervals": (["simulate"],
                                           "mode = trajectory\nlambda = 1.0\nn_traj = 500\n"),
}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0] if values else None
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def workload_record(name: str) -> dict:
    path = os.path.join(ROOT, ".perfbench_out", f"{name}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
    except FileNotFoundError:
        return {"missing": path}
    good = [s for s in run["samples"] if s["kind"] == "plain" and not s["failures"]]
    metrics = {key: quartiles([s[key] for s in good])
               for key in ("wall_s", "setup_s", "run_s", "peak_rss_mb")}
    metrics["work_per_s"] = quartiles([s["work"] / s["run_s"] for s in good if s["run_s"] > 0])
    return {"seed": run["seed"], "samples": len(run["samples"]), "failed": run["failed"],
            "git_sha": run["env"].get("git_sha"), "metrics": metrics}


def timed_child(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Wall seconds, max RSS in MB and exit code of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)    # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_record(env: dict) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, config) in CLI_RUNS.items():
            cfg = os.path.join(tmp, f"{name}.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(config)
            argv = [sys.executable, "-m", "qtherm.cli", *args, "--config", cfg,
                    "--out", os.path.join(tmp, name), "--quiet"]
            runs = [timed_child(argv, env) for _ in range(REPEATS)]
            out[name] = {"config": config.strip(), "args": args,
                         "wall_s": [r[0] for r in runs], "max_rss_mb": [r[1] for r in runs],
                         "exit_codes": [r[2] for r in runs],
                         "median_wall_s": statistics.median(r[0] for r in runs),
                         "median_max_rss_mb": statistics.median(r[1] for r in runs)}
    return out


def tier1_record(env: dict) -> dict:
    start = time.perf_counter()
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = next((line.strip("= ") for line in reversed(res.stdout.splitlines())
                    if " passed" in line or " failed" in line), "")
    return {"seconds": seconds, "summary": summary, "exit_code": res.returncode}


def src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "qtherm")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def machine() -> dict:
    import numpy

    mem_kb = None
    with open("/proc/meminfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {"platform": platform.platform(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "mem_total_mb": mem_kb / 1024.0 if mem_kb else None,
            "python": platform.python_version(), "numpy": numpy.__version__}


def git_state() -> dict:
    """HEAD, and whether the working tree differs from it (the record then
    measures HEAD plus uncommitted changes)."""
    def git(*args):
        res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return res.stdout.strip() if res.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD") or "unknown",
            "worktree_dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="path of the JSON record to write")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qtherm", "__init__.py")):
        print("bench_record: src/qtherm not found; run from the repository root", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        gated = [w["name"] for w in json.load(fh)["workloads"]]
    record = {"machine": machine(), **git_state(), "src_lines": src_lines(),
              "workloads": {name: workload_record(name) for name in gated},
              "tier1": tier1_record(env),
              "cli": cli_record(env)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
