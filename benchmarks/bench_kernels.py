"""Size sweep of the one-class SVM's training kernels.

For each training-set size l, a fresh subprocess trains on an l x 10
Gaussian cloud (standardized, default gamma, nu 0.05) and reports the
seconds spent in ``rbf_matrix`` (kernel rows or, in older sources, the
whole Gram matrix), the seconds of the rest of ``train_ocsvm`` (the SMO
solve), the solver iterations, the kernel rows computed, what an l x l
Gram matrix would take, and the process's peak RSS (``ru_maxrss``). One
process per size keeps each peak its own.

``--src`` points the workers at another checkout's ``src`` (say, the
parent commit's), ``--max-l`` leaves out the sizes whose Gram matrix that
source could not hold, and ``--label`` names the runs. ``--out`` merges
them into the JSON file under ``runs[label]``, keeping the runs of other
labels, so a before and an after sweep from one machine share a file.

Usage: python benchmarks/bench_kernels.py [--src DIR] [--max-l N]
       [--label after] [--out benchmarks/BENCH_kernels.json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys

SIZES = (500, 1000, 2000, 3000, 5000, 10000, 20000)
DIMS = 10
NU = 0.05

_WORKER = r"""
import json, resource, sys, time
import numpy as np
from chaintrace import ocsvm
from chaintrace.features import standardize

l, d, nu = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
Z, _ = standardize(np.random.default_rng(l).normal(size=(l, d)))
gamma = ocsvm.default_gamma(Z)

kernel = [0.0]
build = ocsvm.rbf_matrix
def timed(*args, **kwargs):
    t0 = time.perf_counter()
    try:
        return build(*args, **kwargs)
    finally:
        kernel[0] += time.perf_counter() - t0
ocsvm.rbf_matrix = timed  # train_ocsvm calls it through the module

stats = ocsvm.SolverStats()
t0 = time.perf_counter()
ocsvm.train_ocsvm(Z, nu, gamma, stats=stats)
total = time.perf_counter() - t0
print(json.dumps({
    "l": l, "d": d,
    "kernel_seconds": kernel[0],
    "solve_seconds": total - kernel[0],
    "iterations": stats.iterations,
    "kernel_rows": getattr(stats, "kernel_rows", None),
    "gram_mib": l * l * 8 / 2**20,
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_size(src: str, l: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(l), str(DIMS), str(NU)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, "..", "src"),
                    help="the src directory whose chaintrace to import")
    ap.add_argument("--max-l", type=int, default=max(SIZES),
                    help="leave out the sizes above this")
    ap.add_argument("--label", default="after", help="name of these runs")
    ap.add_argument("--out", help="merge the results into this JSON file")
    args = ap.parse_args()
    import numpy as np

    runs = [run_size(os.path.abspath(args.src), l) for l in SIZES if l <= args.max_l]
    header = (f"{'l':>6} {'kernel (s)':>10} {'solve (s)':>10} {'iters':>7} "
              f"{'rows':>6} {'gram MiB':>9} {'peak MiB':>9}")
    print(header)
    print("-" * len(header))
    for r in runs:
        rows = "-" if r["kernel_rows"] is None else r["kernel_rows"]
        print(f"{r['l']:>6} {r['kernel_seconds']:>10.3f} {r['solve_seconds']:>10.3f} "
              f"{r['iterations']:>7} {rows:>6} {r['gram_mib']:>9.1f} "
              f"{r['peak_rss_mib']:>9.1f}")
    if args.out:
        result = {"runs": {}}
        if os.path.exists(args.out):
            with open(args.out, "r", encoding="utf-8") as fh:
                result = json.load(fh)
        result["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                             "numpy": np.__version__,
                             "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
        result["runs"][args.label] = runs
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
