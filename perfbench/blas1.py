"""Replay captured solve_analysis calls once each and report the solve times.

Usage: python3 perfbench/blas1.py CALLS.npz

The traced run starts this script with OPENBLAS_NUM_THREADS=1 to give the
single-thread reference for the same solver spans. The last line of
standard output is a JSON object of ``solvers.solve_ms_p50.<solver>.blas1``
and ``sherman.gops_per_s.blas1``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from enkfkit import solvers  # noqa: E402
from layers import solver_metrics  # noqa: E402
from spans import Tracer  # noqa: E402


def main(path: str) -> None:
    with np.load(path) as data:
        calls = [(str(s), int(k)) for s, k in zip(data["solvers"], data["keys"])]
        arrays = {k: (data[f"r{k}"], data[f"v{k}"], data[f"d{k}"])
                  for k in {k for _, k in calls}}
    tracer = Tracer()
    tracer.install()
    try:
        for solver, key in calls:
            solvers.solve_analysis(solver, *arrays[key])
    finally:
        tracer.uninstall()
    print(json.dumps(solver_metrics(tracer, suffix=".blas1")))


if __name__ == "__main__":
    main(sys.argv[1])
