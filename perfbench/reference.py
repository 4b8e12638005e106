"""Write or check the stored mean analysis RMSE of the twin workloads.

    python3 perfbench/reference.py write     # perfbench/reference.json
    OPENBLAS_NUM_THREADS=1 python3 perfbench/reference.py compare

``write`` runs every twin workload on every seed triple and stores each
solver's mean analysis RMSE. ``compare`` recomputes them and prints the
largest relative difference from the stored values, per workload; running
it under another BLAS thread count measures the drift the tolerance in
workloads.py has to allow.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from enkfkit import experiment  # noqa: E402
from workloads import SEED_SETS, WORKLOADS, rel_diff, twin_config  # noqa: E402

PATH = HERE / "reference.json"


def compute() -> dict:
    table = {}
    for workload in WORKLOADS:
        if workload == "tall-obs":
            continue
        table[workload] = {}
        for k in range(SEED_SETS):
            manifest = experiment.run_experiment(twin_config(workload, k))
            table[workload][str(k)] = {run.solver: run.rmse_analysis
                                       for run in manifest.runs}
    return table


def main(mode: str) -> None:
    table = compute()
    if mode == "write":
        PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return
    stored = json.loads(PATH.read_text())
    for workload, seeds in table.items():
        worst = max(rel_diff(value, stored[workload][k][solver])
                    for k, row in seeds.items() for solver, value in row.items())
        spread = max(rel_diff(a, b) for row in seeds.values()
                     for a in row.values() for b in row.values())
        print(f"{workload}: largest drift from stored {worst:.3g}, "
              f"largest difference across solvers {spread:.3g}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "compare")
