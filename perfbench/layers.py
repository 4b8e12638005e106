"""Per-layer metrics from the spans of a traced run.

Names are "<layer>.<what>", the layer being the enkfkit module the span
wraps. Durations are in milliseconds. A "_p50"/"_p90" metric is taken over
single calls; a metric without one is a median over runs (set-up, emit) of
the per-run sum. Layers a workload never calls give None.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from enkfkit.sherman import long_op_count
from spans import Tracer
from workloads import SOLVERS

# The per-layer metrics every workload measures; run.py reports exactly these
# on the last line of a traced run, and BENCHMARK.json lists them.
COMMON = (
    ["enkf.deviations_ms_p50", "enkf.innovations_ms_p50"]
    + [f"solvers.solve_ms_p50.{s}" for s in SOLVERS]
    + [f"solvers.solve_ms_p90.{s}" for s in SOLVERS]
    + [f"solvers.check_ms_p50.{s}" for s in SOLVERS]
    + [f"solvers.solve_self_ms_p50.{s}" for s in SOLVERS]
    + ["linalg.syrk_ms_p50", "linalg.cholesky_ms_p50", "linalg.svd_ms_p50",
       "sherman.long_ops", "sherman.gops_per_s", "sherman.workspace_bytes"]
    + [f"solvers.solve_ms_p50.{s}.blas1" for s in SOLVERS]
    + ["sherman.gops_per_s.blas1", "models.qg.helmholtz_calls",
       "experiment.emit_csv_bytes", "trace.overhead_pct"]
)

UNITS = {"sherman.long_ops": "count", "sherman.workspace_bytes": "B",
         "sherman.gops_per_s": "G/s", "sherman.gops_per_s.blas1": "G/s",
         "models.qg.helmholtz_calls": "count",
         "experiment.emit_csv_bytes": "B", "trace.overhead_pct": "%"}


def unit(name: str) -> str:
    return UNITS.get(name, "ms")


def _p(values, q):
    return float(np.percentile(values, q)) if values else None


def _median(values):
    return statistics.median(values) if values else None


def solver_metrics(tracer: Tracer, suffix: str = "") -> dict:
    """Solve times per solver and the rank-one sweep's rate."""
    out = {}
    own = tracer.self_ns()
    solve = defaultdict(list)
    solve_self = defaultdict(list)
    check = defaultdict(list)
    gops = []
    for i, span in enumerate(tracer.spans):
        if span.name == "solvers.solve":
            solve[span.attrs["solver"]].append(span.ns / 1e6)
            solve_self[span.attrs["solver"]].append(own[i] / 1e6)
        elif span.name == "solvers.analysis":
            a = span.attrs
            check[a["solver"]].append(span.ns / 1e6 - a["seconds"] * 1e3)
            if a["solver"] == "sherman":
                ops = long_op_count(a["nens"], a["nobs"])
                gops.append(ops / a["seconds"] / 1e9)
    for s in SOLVERS:
        out[f"solvers.solve_ms_p50.{s}{suffix}"] = _p(solve[s], 50)
        if not suffix:
            out[f"solvers.solve_ms_p90.{s}"] = _p(solve[s], 90)
            out[f"solvers.check_ms_p50.{s}"] = _p(check[s], 50)
            # inside the solver but outside the wrapped linalg kernels: the
            # whole sweep for sherman, the triangular solves for cholesky,
            # whitening and the two products for svd
            out[f"solvers.solve_self_ms_p50.{s}"] = _p(solve_self[s], 50)
    out[f"sherman.gops_per_s{suffix}"] = _p(gops, 50)
    return out


def enclosing(spans, names) -> dict[int, int]:
    """Index of the span named in ``names`` that each span lies in.

    Spans with such a name map to themselves; spans in none are left out.
    """
    home = {}
    for i, span in enumerate(spans):
        if span.name in names:
            home[i] = i
        elif span.parent in home:
            home[i] = home[span.parent]
    return home


def layer_metrics(tracer: Tracer, nobs: int, nens: int) -> dict:
    spans = tracer.spans
    own = tracer.self_ns()
    calls = defaultdict(list)    # name -> durations (ms) of single calls
    for span in spans:
        calls[span.name].append(span.ns / 1e6)

    # sums over the spans inside each set-up and each cycle
    per_setup = defaultdict(lambda: defaultdict(float))
    per_cycle = defaultdict(lambda: defaultdict(float))
    homes = enclosing(spans, ("experiment.setup", "experiment.cycle"))
    for i, home in homes.items():
        if home != i:
            span = spans[i]
            table = per_setup if spans[home].name == "experiment.setup" else per_cycle
            table[home][span.name] += span.ns / 1e6
            table[home][span.name + "#calls"] += 1
            if span.parent == home:
                table[home]["direct:" + span.name] += span.ns / 1e6
                if span.name.startswith("models."):
                    table[home]["direct:models"] += span.ns / 1e6
    setups = [i for i, s in enumerate(spans) if s.name == "experiment.setup"]
    cycles = [i for i, s in enumerate(spans) if s.name == "experiment.cycle"]

    def over_setups(key):
        return _median([per_setup[i][key] for i in setups]) if setups else None

    def self_of(name):
        return [own[i] / 1e6 for i, s in enumerate(spans) if s.name == name]

    out = {
        "experiment.setup_self_ms": _median(
            [own[i] / 1e6 for i in setups]),
        # model calls the set-up makes itself: the truth spin-up, and on QG
        # the truth's stream functions
        "models.spinup_ms": over_setups("direct:models"),
        "observations.propagate_truth_ms": over_setups(
            "observations.propagate_truth"),
        "observations.synthesize_ms": over_setups("observations.synthesize"),
        "enkf.perturb_ms": over_setups("enkf.perturb"),
        "enkf.localization_build_ms": over_setups("enkf.localization_build")
        if calls["enkf.localization_build"] else None,
        "experiment.emit_csv_ms": _median(calls["experiment.emit_csv"]),
        "experiment.cycle_self_ms_p50": _p(self_of("experiment.cycle"), 50),
        "models.forecast_ms_p50": _p(calls["models.forecast"], 50),
        "models.qg.helmholtz_ms_p50": _p(calls["models.qg.helmholtz"], 50),
        "models.qg.helmholtz_calls": _median(
            [per_cycle[i]["models.qg.helmholtz#calls"] for i in cycles]) or 0,
        "models.qg.jacobian_ms_p50": _p(calls["models.qg.jacobian"], 50),
        "models.qg.tendency_self_ms_p50": _p(self_of("models.qg.tendency"), 50),
        "models.lorenz96.tendency_ms_p50": _p(
            calls["models.lorenz96.tendency"], 50),
        "enkf.deviations_ms_p50": _p(calls["enkf.deviations"], 50),
        "enkf.innovations_ms_p50": _p(calls["enkf.innovations"], 50),
        "enkf.inflate_ms_p50": _p(calls["enkf.inflate"], 50),
        "enkf.update_self_ms_p50": _p(self_of("enkf.analysis"), 50),
        # the error of a cycle: rse plus, on QG, the stream-function solves
        # made for it directly in the cycle
        "metrics.rse_ms_p50": _p([per_cycle[i]["direct:metrics.rse"]
                                  + per_cycle[i]["direct:models.qg.helmholtz"]
                                  for i in cycles], 50) if cycles else None,
        "linalg.syrk_ms_p50": _p(calls["linalg.syrk"], 50),
        "linalg.cholesky_ms_p50": _p(calls["linalg.cholesky"], 50),
        "linalg.svd_ms_p50": _p(calls["linalg.svd"], 50),
        "sherman.long_ops": long_op_count(nens, nobs),
        "sherman.workspace_bytes": nobs * 2 * nens * 8,
    }
    analysis = defaultdict(list)
    for span in spans:
        if span.name == "enkf.analysis":
            analysis[span.attrs["solver"]].append(span.ns / 1e6)
    for s in SOLVERS:
        out[f"enkf.analysis_ms_p50.{s}"] = _p(analysis[s], 50)
    out.update(solver_metrics(tracer))
    return out
