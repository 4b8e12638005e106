"""Benchmark of enkfkit: twin experiments and a many-observations solve.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: lorenz-small, lorenz-500, qg33-short (the shipped presets) and
tall-obs (a synthetic 20000 x 64 system). ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` measures again with and
without spans on every layer and reports the per-layer metrics. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Outputs (the run's CSV
files, a result file, and the spans of a traced run) go to
perfbench/out/<workload>/.

The process runs with the BLAS thread variables and the ENKFKIT_SEED_*
variables removed, so the program runs as shipped and a stray shell
variable cannot change the workload; it re-executes itself once to drop
them before numpy is loaded.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lorenz-small", "lorenz-500", "qg33-short", "tall-obs")
CLEARED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def clean_environment(environ) -> dict:
    return {k: v for k, v in environ.items()
            if k not in CLEARED and not k.startswith("ENKFKIT_SEED_")}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the preset's own)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds, outdir, reference, tracer=None,
            setup_passes=False):
    import workloads as w

    if workload == "tall-obs":
        return w.measure_tall(seed, seconds)
    return w.measure_twin(workload, seed, seconds, outdir, reference,
                          tracer, setup_passes)


def solve_capture(limit: int):
    """A wrapper for enkf.solve_analysis keeping the arguments of the first
    ``limit`` solves of each solver, and the list it fills."""
    captured = []
    counts = {}

    def capture(original):
        def captured_call(choice, r, v, d, *args, **kwargs):
            name = getattr(choice, "value", choice)
            if counts.get(name, 0) < limit:
                counts[name] = counts.get(name, 0) + 1
                captured.append((name, (r, v, d)))
            return original(choice, r, v, d, *args, **kwargs)
        return captured_call

    return capture, captured


def run_blas1(calls, outdir: Path) -> dict:
    """Replay the solves once each in a child with one BLAS thread."""
    import numpy as np

    arrays, names, keys, index = {}, [], [], {}
    for name, args in calls:
        ident = tuple(id(a) for a in args)
        if ident not in index:
            key = index[ident] = len(index)
            arrays.update({f"r{key}": args[0], f"v{key}": args[1],
                           f"d{key}": args[2]})
        names.append(name)
        keys.append(index[ident])
    path = outdir / "blas1-calls.npz"
    np.savez(path, solvers=np.array(names), keys=np.array(keys), **arrays)
    env = clean_environment(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    try:
        done = subprocess.run([sys.executable, str(HERE / "blas1.py"), str(path)],
                              env=env, capture_output=True, text=True,
                              timeout=150, check=True)
    finally:
        path.unlink(missing_ok=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# A traced run alternates untraced and traced blocks of about this length,
# so that both halves see the same machine and trace.overhead_pct compares
# like with like.
TRACE_BLOCK_SECONDS = 2.5


def traced_run(workload, seed, seconds, outdir, reference):
    import statistics
    import time

    import layers
    import workloads as w
    from enkfkit import enkf
    from spans import Tracer, patch, unpatch

    tracer = Tracer()
    capture, captured = solve_capture(w.BLAS1_CALLS_PER_SOLVER)
    block = min(TRACE_BLOCK_SECONDS, seconds / 2)
    plain, traced = [], []
    begin = time.perf_counter()
    pair = 0.0
    while not traced or time.perf_counter() - begin + pair <= seconds:
        pair_start = time.perf_counter()
        plain.append(measure(workload, seed, block, outdir, reference))
        tracer.install()
        undo = []
        patch(enkf, "solve_analysis", capture, undo)
        try:
            traced.append(measure(workload, seed, block, outdir, reference,
                                  tracer))
        finally:
            unpatch(undo)
            tracer.uninstall()
        pair = time.perf_counter() - pair_start
    last = traced[-1]
    if workload == "tall-obs":
        w.tall_final_checks(last)
        calls = last.extra["calls"]
        captured = [(s, calls[s]) for s in w.SOLVERS
                    for _ in range(w.BLAS1_CALLS_PER_SOLVER)]

    def unit_total(blocks):
        return sum(statistics.median([x for m in blocks for x in m.unit_ns[s]])
                   for s in w.SOLVERS)

    metrics = layers.layer_metrics(tracer, last.extra["nobs"],
                                   last.extra["nens"])
    metrics.update(run_blas1(captured, outdir))
    metrics["experiment.emit_csv_bytes"] = last.extra.get("emit_csv_bytes", 0)
    metrics["trace.overhead_pct"] = 100.0 * (unit_total(traced)
                                             / unit_total(plain) - 1.0)
    tracer.write(outdir / "spans.json")
    problems = [p for m in plain + traced for p in m.problems]
    attempted = sum(m.attempted for m in plain + traced)
    failed = sum(m.failed for m in plain + traced)
    for name in sorted(metrics):
        value = metrics[name]
        shown = "n/a (layer not called)" if value is None else repr(value)
        print(f"# {name} = {shown} {layers.unit(name)}")
    missing = [m for m in layers.COMMON if metrics.get(m) is None]
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
        failed += 1
    reported = {m: {"value": metrics[m], "unit": layers.unit(m)}
                for m in layers.COMMON if metrics.get(m) is not None}
    extra = {"all_layer_metrics": metrics}
    return reported, attempted, failed, problems, extra


def untraced_run(workload, seed, seconds, outdir, reference):
    import workloads as w

    measured = measure(workload, seed, seconds, outdir, reference,
                       setup_passes=True)
    if workload == "tall-obs":
        w.tall_final_checks(measured)
    metrics, notes = w.end_to_end(measured, peak_rss_mb())
    for note in notes:
        print(f"# {note}")
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return (reported, measured.attempted, measured.failed, measured.problems,
            {"notes": notes})


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    env = clean_environment(os.environ)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  env)
    if not (ROOT / "src" / "enkfkit" / "__init__.py").is_file():
        print(f"perfbench: no enkfkit package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from envinfo import environment
    from workloads import load_reference

    environ = environment()
    print("# env " + json.dumps(environ, sort_keys=True))
    reference = load_reference(HERE / "reference.json")
    outdir = HERE / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    run = traced_run if args.trace else untraced_run
    metrics, attempted, failed, problems, extra = run(
        args.workload, args.seed, args.seconds, outdir, reference)
    for problem in problems:
        print(f"# check failed: {problem}")
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=environ,
                  problems=problems, **extra)
    (outdir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
