"""Self-test of the benchmark, on the quick (shrunken) workloads.

    python3 perfbench/selftest.py        # from the repository root

Checks that every oracle passes a real run and rejects a deliberately
perturbed copy of it, that one seed repeats its counts exactly, that a second
seed passes every oracle, that the traced run reports every per-layer metric
named in BENCHMARK.json, and that the benchmark fails, without a result,
where there is no source tree.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from workloads import COLD_BETA, OMEGA, WORKLOADS  # noqa: E402

SEED, HELD_OUT_SEED = 1, 2
REPEATED_COUNTS = ("engine.intervals", "engine.trajectories", "engine.checkpoints",
                   "generators.steady_state.calls", "generators.LinearPropagator.apply.calls")


def _set(res: dict, key: str, value) -> dict:
    out = copy.deepcopy(res)
    out["check"][key] = value
    return out


def _traj_bad(res: dict) -> list[tuple[str, dict]]:
    mean = res["check"]["mean_ha"]
    shifted = list(mean)
    shifted[len(mean) // 2] += OMEGA / 2
    return [("mean <H_A> half a photon off at one checkpoint", _set(res, "mean_ha", shifted)),
            ("a checkpoint missing", _set(res, "mean_ha", mean[:-1]))]


def _dm_bad(res: dict) -> list[tuple[str, dict]]:
    c = res["check"]
    return [("first law off by 1e-9", _set(res, "first_law", 1e-9)),
            ("second-law violation", _set(res, "second_law_ok", False)),
            ("Born deviation 1e-8", _set(res, "born_max_deviation", 1e-8)),
            ("one interval short", _set(res, "intervals", c["intervals"] - 1))]


def _weak_bad(res: dict) -> list[tuple[str, dict]]:
    c = res["check"]
    return [("min eigenvalue -1e-3", _set(res, "min_eig", -1e-3)),
            ("first law off by 1e-9", _set(res, "first_law", 1e-9)),
            ("a checkpoint missing", _set(res, "checkpoints", c["checkpoints"] - 1))]


def _scan_bad(res: dict) -> list[tuple[str, dict]]:
    rows = res["check"]["rows"]
    hot = [r[:3] + [r[3] * 1.05 if r[0] == COLD_BETA else r[3]] + r[4:] for r in rows]
    degenerate = [rows[0][:4] + [1]] + rows[1:]
    return [("cold-point p1 off by 5%", _set(res, "rows", hot)),
            ("a degenerate solve", _set(res, "rows", degenerate)),
            ("a steady state missing", _set(res, "rows", rows[:-1]))]


PERTURB = {"traj": _traj_bad, "dm": _dm_bad, "weak": _weak_bad, "scan": _scan_bad}


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        raise SystemExit(1)


def check_workload(root: str, name: str) -> None:
    wl = WORKLOADS[name]
    b = bench.Bench(root, wl, SEED, quick=True)
    first = b.sample("traced")
    expect(first.ok, f"{name}: traced run passes its oracle {first.failures}")
    for label, bad in PERTURB[name](first.result):
        expect(bool(wl.check(b.params, bad, b.ref)), f"{name}: oracle rejects {label}")
    again = b.sample("traced")
    counts = [{k: bench.per_layer([s])[k] for k in REPEATED_COUNTS} for s in (first, again)]
    expect(again.ok and counts[0] == counts[1], f"{name}: seed {SEED} repeats {counts[0]}")
    twin = copy.deepcopy(again)
    twin.result["csv_sha256"] = "0" * 64
    bench.check_repeats([first, twin])
    expect(not twin.ok, f"{name}: a CSV that differs between repeats fails")
    held = bench.Bench(root, wl, HELD_OUT_SEED, quick=True).sample("plain")
    expect(held.ok, f"{name}: held-out seed {HELD_OUT_SEED} passes {held.failures}")


def check_cli(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [w["name"] for w in spec["workloads"]]
    expect(set(listed) <= set(WORKLOADS), f"BENCHMARK.json lists known workloads {listed}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(declared == dict(bench.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == dict(bench.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    cmd = spec["command"] + ["--workload", "scan", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--quick"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(proc.returncode == 0 and sorted(last) == ["attempted", "correct", "failed", "metrics"]
           and last["correct"] and set(last["metrics"]) == set(dict(bench.PER_LAYER)),
           "traced CLI run prints every per-layer metric in its last line")
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, ".perfbench_out"))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(spec["command"] + ["--workload", "dm", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    root = os.getcwd()
    for name in WORKLOADS:
        check_workload(root, name)
    check_cli(root)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
