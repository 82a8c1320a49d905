"""Size sweep of the one-class SVM's training kernels.

For each training-set size l, a fresh subprocess trains on an l x 10
Gaussian cloud (standardized, default gamma, nu 0.05) and reports the
seconds spent building the RBF Gram matrix, the seconds of the rest of
``train_ocsvm`` (the SMO solve), the solver iterations and the process's
peak RSS (``ru_maxrss``). One process per size keeps each peak its own.

Usage: python benchmarks/bench_kernels.py [--out BENCH_kernels.json]
"""

import argparse
import json
import os
import platform
import subprocess
import sys

SIZES = (500, 1000, 2000, 3000, 5000)
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

gram = [0.0]
build = ocsvm.rbf_matrix
def timed(*args):
    t0 = time.perf_counter()
    try:
        return build(*args)
    finally:
        gram[0] += time.perf_counter() - t0
ocsvm.rbf_matrix = timed  # train_ocsvm calls it through the module

stats = ocsvm.SolverStats()
t0 = time.perf_counter()
ocsvm.train_ocsvm(Z, nu, gamma, stats=stats)
total = time.perf_counter() - t0
print(json.dumps({
    "l": l, "d": d,
    "gram_seconds": gram[0],
    "solve_seconds": total - gram[0],
    "iterations": stats.iterations,
    "gram_mib": l * l * 8 / 2**20,
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def run_size(l: int) -> dict:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, str(l), str(DIMS), str(NU)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the results here as JSON")
    args = ap.parse_args()
    import numpy as np

    runs = [run_size(l) for l in SIZES]
    header = (f"{'l':>6} {'gram (s)':>9} {'solve (s)':>10} {'iters':>7} "
              f"{'gram MiB':>9} {'peak MiB':>9}")
    print(header)
    print("-" * len(header))
    for r in runs:
        print(f"{r['l']:>6} {r['gram_seconds']:>9.3f} {r['solve_seconds']:>10.3f} "
              f"{r['iterations']:>7} {r['gram_mib']:>9.1f} {r['peak_rss_mib']:>9.1f}")
    if args.out:
        result = {
            "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": np.__version__},
            "runs": runs,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
