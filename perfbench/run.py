"""qtherm benchmark runner.

    python3 perfbench/run.py [--workload traj|dm|weak|scan|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--quick]

Run from the repository root.  One client in a closed loop: samples run one
at a time, each a fresh ``python3`` process (``child.py``) that imports
qtherm from ``src/``, builds the seeded inputs with the public API, runs the
calls the matching CLI command makes and writes its CSV and SVG.  Samples
repeat until ``--seconds`` is used up (at least ``MIN_SAMPLES``); every output
is checked against its oracle, outside the timed regions.

``--trace 0`` reports the end-to-end metrics, as medians over the samples.
``--trace 1`` instead runs rounds of an untraced sample, a traced sample and a
single-thread sample, and reports the per-layer metrics.  ``--quick`` shrinks
every workload so that the self-test runs in seconds.  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the run
record, with its environment, goes to ``.perfbench_out/<workload>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
MIN_SAMPLES = 3
RUN_LIMIT_S = 170  # a whole run, reference included, ends within this
# Thread settings stripped from every sample's environment, so that the
# program runs at its own defaults; the single-thread baseline sets them.
THREAD_VARS = ("QTHERM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
ONE_THREAD = {"QTHERM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("run_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"))

# Per-layer metrics.  "<layer>.self_s"/"<layer>.calls" and "<span>.s"/"<span>.calls"
# come from the trace; the rest are counts from the returned records or are
# computed here.
_LAYER_LABELS = tuple(tracing.LAYERS.values())
PER_LAYER = (
    [(f"{layer}.{kind}", unit) for layer in _LAYER_LABELS
     for kind, unit in (("self_s", "s"), ("calls", "count"))]
    + [(name, "s") for name in (
        "models.build_jcm.s", "models.propagator.s", "models.thermal_state.s",
        "qcore.von_neumann_entropy.s", "qcore.DensityMatrix.s",
        "qcore.Propagator.from_operator.s", "engine.run_process.s",
        "thermo.ledger_for_interval.s", "generators.decompose.s",
        "generators.assemble_joint_weak_generator.s", "generators.LinearPropagator.init.s",
        "generators.LinearPropagator.apply.s", "generators.weak_interval_run.s",
        "generators.assemble_reduced_generator.s", "generators.steady_state.s",
        "cli.write_csv.s", "svg.line_chart.s", "import.s", "trace.overhead_s")]
    + [(name, "count") for name in (
        "models.thermal_state.calls", "qcore.von_neumann_entropy.calls",
        "qcore.DensityMatrix.calls", "qcore.Propagator.from_operator.calls",
        "thermo.ledger_for_interval.calls", "generators.LinearPropagator.apply.calls",
        "generators.assemble_reduced_generator.calls", "generators.steady_state.calls",
        "engine.intervals", "engine.checkpoints", "engine.trajectories",
        "generators.superop_dim", "generators.superop_nnz")]
    + [("engine.speedup_vs_1thread", "ratio"), ("engine.born_max_deviation", "1"),
       ("generators.superop_bytes", "B"), ("generators.min_eig", "1"),
       ("generators.steady_residual_max", "1")]
)
# counts read off the child's report: metric -> report key
_COUNTS = {"engine.intervals": "intervals", "engine.checkpoints": "checkpoints",
           "engine.trajectories": "trajectories",
           "engine.born_max_deviation": "born_max_deviation",
           "generators.superop_dim": "superop_dim", "generators.superop_nnz": "superop_nnz",
           "generators.superop_bytes": "superop_bytes", "generators.min_eig": "min_eig",
           "generators.steady_residual_max": "steady_residual_max"}


@dataclass
class Sample:
    kind: str                      # "plain", "traced" or "single"
    failures: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    run_s: float = 0.0
    work: float = 0.0
    peak_rss_mb: float = 0.0
    result: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


class Bench:
    """Runs samples of one workload from a repository checkout at ``root``."""

    def __init__(self, root: str, wl: Workload, seed: int, quick: bool):
        self.root = root
        self.wl = wl
        self.params = wl.params(seed, quick)
        self.out = os.path.join(root, ".perfbench_out")
        os.makedirs(self.out, exist_ok=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ref = self._reference() if wl.reference else None

    def _child(self, job: str, trace: bool = False, one_thread: bool = False):
        """Run child.py once; return (spawn time, result or None, error text)."""
        work = tempfile.mkdtemp(prefix=f"{self.wl.name}-", dir=self.out)
        try:
            spec = {"job": job, "workload": self.wl.name, "params": self.params,
                    "src": os.path.join(self.root, "src"), "out_dir": work,
                    "trace": trace, "result": os.path.join(work, "result.json")}
            spec_path = os.path.join(work, "spec.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
            if one_thread:
                env.update(ONE_THREAD)
            t_spawn = time.monotonic()
            timeout = max(self.deadline - t_spawn, 1.0)
            try:
                proc = subprocess.run([sys.executable, CHILD, spec_path], env=env,
                                      cwd=self.root, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True, timeout=timeout)
            except subprocess.TimeoutExpired:
                return t_spawn, None, f"killed at the {RUN_LIMIT_S} s run limit"
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                return t_spawn, None, f"exit code {proc.returncode}: {tail[0]}"
            with open(spec["result"], encoding="utf-8") as fh:
                return t_spawn, json.load(fh), ""
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _reference(self) -> dict:
        """Oracle reference, computed once per checkout and inputs, outside any run."""
        inputs = {k: self.params[k] for k in self.wl.reference_keys}
        key = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]
        cache = os.path.join(self.root, ".perfbench_cache", f"{self.wl.name}-{key}.json")
        if os.path.exists(cache):
            with open(cache, encoding="utf-8") as fh:
                return json.load(fh)
        _, ref, err = self._child("reference")
        if ref is None:
            raise RuntimeError(f"{self.wl.name} reference failed: {err}")
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache, "w", encoding="utf-8") as fh:
            json.dump(ref, fh)
        return ref

    def sample(self, kind: str) -> Sample:
        t_spawn, res, err = self._child("sample", trace=kind == "traced",
                                        one_thread=kind == "single")
        s = Sample(kind)
        if res is None:
            s.failures.append(err)
            return s
        s.result = res
        try:
            m = res["marks"]
            s.wall_s = m["output"] - t_spawn
            s.setup_s = m["setup"] - t_spawn
            s.run_s = m["run"] - m["setup"]
            s.work = res["counts"][self.wl.work]
            s.peak_rss_mb = res["peak_rss_kb"] / 1024.0
            s.failures += self.wl.check(self.params, res, self.ref)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            s.failures.append(f"malformed sample result: {exc!r}")
        return s

    def measure(self, seconds: float, kinds: tuple[str, ...], min_rounds: int) -> list[Sample]:
        """Rounds of samples (one of each kind) until ``seconds`` would be exceeded."""
        samples: list[Sample] = []
        t0 = time.monotonic()
        rounds = 0
        while True:
            samples += [self.sample(kind) for kind in kinds]
            rounds += 1
            now = time.monotonic()
            elapsed = now - t0
            if now >= self.deadline or (rounds >= min_rounds
                                        and elapsed * (rounds + 1) / rounds > seconds):
                break
        check_repeats(samples)
        return samples


def check_repeats(samples: list[Sample]) -> None:
    """Same inputs and thread settings must write a byte-identical CSV."""
    first = next((s for s in samples if s.ok and s.kind != "single"), None)
    for s in samples:
        if first is None or not s.ok or s.kind == "single":
            continue
        if s.result.get("csv_sha256") != first.result.get("csv_sha256"):
            s.failures.append("CSV differs from the first sample's")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[Sample]) -> dict:
    good = [s for s in samples if s.ok]
    return {
        "wall_s": _median([s.wall_s for s in good]),
        "setup_s": _median([s.setup_s for s in good]),
        "run_s": _median([s.run_s for s in good]),
        "work_per_s": _median([s.work / s.run_s for s in good if s.run_s > 0]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in good]),
    }


def per_layer(samples: list[Sample]) -> dict:
    good = {kind: [s for s in samples if s.ok and s.kind == kind]
            for kind in ("plain", "traced", "single")}
    rows = []
    for s in good["traced"]:
        summ = tracing.summarize(s.result["spans"])
        row = {}
        for name, _ in PER_LAYER:
            prefix, _, kind = name.rpartition(".")
            if kind == "self_s":
                row[name] = summ["layer_self"].get(prefix, 0.0)
            elif kind == "calls" and prefix in _LAYER_LABELS:
                row[name] = summ["layer_calls"].get(prefix, 0)
            elif kind == "calls":
                row[name] = summ["name_calls"].get(prefix, 0)
            elif kind == "s":
                row[name] = summ["name_s"].get(prefix, 0.0)
        counts = s.result["counts"]
        for name, key in _COUNTS.items():
            row[name] = counts.get(key, 0)
        if "intervals" not in counts and "trajectories" in counts:
            # trajectory mode reports no interval count: each trajectory draws
            # one interval more than it completes
            draws = summ["name_calls"].get("engine.sample_interval", 0)
            row["engine.intervals"] = max(draws - counts["trajectories"], 0)
        rows.append(row)
    out = {name: _median([r[name] for r in rows]) for name in rows[0]} if rows else {}
    plain = good["plain"] + good["traced"]
    out["import.s"] = _median([s.result["import_s"] for s in plain])
    out["trace.overhead_s"] = (_median([s.wall_s for s in good["traced"]])
                               - _median([s.wall_s for s in good["plain"]]))
    run_1 = _median([s.run_s for s in good["single"]])
    run_n = _median([s.run_s for s in good["plain"]])
    out["engine.speedup_vs_1thread"] = run_1 / run_n if run_n > 0 else 0.0
    return out


def environment(root: str, samples: list[Sample]) -> dict:
    child_env = next((s.result["env"] for s in samples if s.ok and s.kind != "single"), {})
    src = os.path.join(root, "src", "qtherm")
    src_lines = 0
    for dirpath, _, files in os.walk(src):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": child_env.get("blas"), "blas_threads": child_env.get("blas_threads"),
        "QTHERM_THREADS": "unset",
        "pool_workers": child_env.get("pool_workers"),
        "git_sha": git_sha(root), "src_lines": src_lines,
    }


def git_sha(root: str) -> str:
    """HEAD commit read from .git directly; a plain checkout has none."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(root: str, wl: Workload, seed: int, seconds: float, trace: bool,
                 quick: bool) -> dict:
    bench = Bench(root, wl, seed, quick)
    if trace:
        samples = bench.measure(seconds, ("plain", "traced", "single"), 1)
        values, units = per_layer(samples), dict(PER_LAYER)
    else:
        samples = bench.measure(seconds, ("plain",), 2 if quick else MIN_SAMPLES)
        values, units = end_to_end(samples), dict(END_TO_END)
    failed = sum(1 for s in samples if not s.ok)
    # per-layer medians are over rounds, one traced sample each
    n_ok = sum(1 for s in samples if s.ok and s.kind == ("traced" if trace else "plain"))
    print(f"workload {wl.name}: seed {seed}, trace {int(trace)}, quick {int(quick)}; "
          f"{len(samples)} samples, {failed} failed (fail_frac {failed / len(samples):.3g})")
    for s in samples:
        for f in s.failures:
            print(f"  FAILED {s.kind} sample: {f}")
    for name, unit in units.items():
        print(f"  {name:45s} {values.get(name, 0.0):14.6g} {unit:6s} median of {n_ok}")
    env = environment(root, samples)
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    record = {"workload": wl.name, "seed": seed, "trace": trace, "quick": quick,
              "params": {k: v for k, v in bench.params.items() if k != "intervals"},
              "env": env, "failed": failed,
              "samples": [{"kind": s.kind, "wall_s": s.wall_s, "setup_s": s.setup_s,
                           "run_s": s.run_s, "work": s.work, "peak_rss_mb": s.peak_rss_mb,
                           "failures": s.failures} for s in samples],
              "metrics": {n: {"value": values.get(n, 0.0), "unit": u, "n": n_ok}
                          for n, u in units.items()}}
    with open(os.path.join(bench.out, f"{wl.name}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": {n: {"value": values.get(n, 0.0), "unit": u}
                        for n, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shrink every workload to seconds (self-test)")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qtherm", "__init__.py")):
        print("perfbench: src/qtherm not found; run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, WORKLOADS[n], args.seed, args.seconds,
                               bool(args.trace), args.quick) for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
