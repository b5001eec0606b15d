"""One benchmark sample in a fresh process: what one ``qtherm`` CLI run pays.

    python3 perfbench/child.py SPEC.json

``run.py`` writes SPEC.json and reads the result file it names.  A sample
imports qtherm from the spec's source tree, optionally installs the timing
wrappers, runs the workload body (marking the end of set-up, run and output on
the monotonic clock the parent also reads), records its peak RSS, and only
then computes the counts and oracle inputs, outside every timed region.
"""

import json
import os
import resource
import sys
import time


def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, keyed by library file name."""
    import ctypes

    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def _environment() -> dict:
    import numpy as np
    import qtherm.engine

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pool = getattr(qtherm.engine, "worker_count", None)
    return {"blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "pool_workers": pool() if pool is not None else None}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.monotonic()
    import qtherm.cli  # noqa: F401  the whole package, as the console script loads it
    import_s = time.monotonic() - t0

    import workloads
    wl = workloads.WORKLOADS[spec["workload"]]
    if spec["job"] == "reference":
        result = wl.reference(spec["params"])
    else:
        tracer = None
        if spec["trace"]:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        marks = {}

        def mark(name):
            marks[name] = time.monotonic()

        live = wl.body(spec["params"], spec["out_dir"], mark)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.active = False
        result = wl.report(spec["params"], live)
        result.update(marks=marks, import_s=import_s, peak_rss_kb=peak_rss_kb,
                      env=_environment())
        if tracer is not None:
            result["spans"] = tracer.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
