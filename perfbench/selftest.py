"""Self-test of the benchmark's tracing.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs a six-cycle qg33-short twin, alternately without and with spans on
every layer, first as is and then with a fixed busy-wait injected into the
leaf layer ``enkfkit.models.qg.helmholtz_solve`` through the same attribute
wrapper the tracer uses. It checks that

* the delay lands in the helmholtz span's self time, not in its parent
  (the QG tendency);
* every span lies inside its parent, and the self times of the layer spans
  in each cycle add up to at least 95% of it (the rest is the driver loop
  outside every layer);
* the median traced cycle agrees with the median cycle of the untraced runs
  made in between, so the spans do not distort the cycles they measure.

Exits 0 when every check passes, 1 otherwise.
"""

import dataclasses
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from enkfkit import experiment  # noqa: E402
from enkfkit.models import qg  # noqa: E402
from spans import Tracer, patch, unpatch  # noqa: E402
from workloads import run_twin  # noqa: E402

DELAY_NS = 2_000_000
# The driver loop between layer calls (x.mean, bookkeeping) must stay below
# this share of a QG cycle, or the layers do not account for the cycle.
MAX_LOOP_SHARE = 0.05
# Untraced and traced runs alternate this many times for each setting.
PAIRS = 3
# The median traced cycle may differ from the median untraced one by this
# share: tracing costs about 3% of a qg33-short cycle, and the rest covers
# the machine's own drift between runs a second apart.
MAX_CYCLE_MISMATCH = 0.25


def delayed(original):
    def slow(*args, **kwargs):
        until = time.perf_counter_ns() + DELAY_NS
        while time.perf_counter_ns() < until:
            pass
        return original(*args, **kwargs)
    return slow


def runs(delay: bool, outdir: Path):
    """Alternate untraced and traced runs; the tracer holds the traced ones.

    Returns the tracer and the cycle times (ns) of the untraced runs.
    """
    cfg = dataclasses.replace(experiment.load_config("qg33-short"), steps=60,
                              spinup_steps=4, solvers=("sherman",))
    cycles = cfg.steps // cfg.analysis_interval
    undo = []
    if delay:
        patch(qg, "helmholtz_solve", delayed, undo)
    tracer = Tracer()
    untraced = []
    try:
        for _ in range(PAIRS):
            untraced.extend(run_twin(cfg, outdir).cycle_ns(cycles, 0))
            tracer.install()
            try:
                run_twin(cfg, outdir, tracer)
            finally:
                tracer.uninstall()
    finally:
        unpatch(undo)
    return tracer, untraced


def median_self_ms(tracer: Tracer, name: str) -> float:
    own = tracer.self_ns()
    return statistics.median(own[i] / 1e6 for i, s in enumerate(tracer.spans)
                             if s.name == name)


def check_cycles(tracer: Tracer, untraced: list, failures: list) -> None:
    spans = tracer.spans
    own = tracer.self_ns()
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                failures.append(f"{span.name} is not inside {parent.name}")
    cycles = [i for i, s in enumerate(spans) if s.name == "experiment.cycle"]
    for c in cycles:
        if own[c] > MAX_LOOP_SHARE * spans[c].ns:
            failures.append(f"cycle {c}: {own[c] / spans[c].ns:.1%} of the "
                            f"cycle is outside every layer span")
    traced_ms = statistics.median(spans[c].ns for c in cycles) / 1e6
    plain_ms = statistics.median(untraced) / 1e6
    print(f"median cycle: {plain_ms:.3f} ms untraced, {traced_ms:.3f} ms "
          f"traced")
    if abs(traced_ms / plain_ms - 1.0) > MAX_CYCLE_MISMATCH:
        failures.append(f"traced cycles take {traced_ms:.3f} ms, untraced "
                        f"{plain_ms:.3f} ms")


def main() -> int:
    outdir = HERE / "out" / "selftest"
    outdir.mkdir(parents=True, exist_ok=True)
    failures = []
    base, base_untraced = runs(False, outdir)
    slow, slow_untraced = runs(True, outdir)
    check_cycles(base, base_untraced, failures)
    check_cycles(slow, slow_untraced, failures)

    delay_ms = DELAY_NS / 1e6
    leaf = (median_self_ms(slow, "models.qg.helmholtz")
            - median_self_ms(base, "models.qg.helmholtz"))
    parent = (median_self_ms(slow, "models.qg.tendency")
              - median_self_ms(base, "models.qg.tendency"))
    print(f"injected {delay_ms} ms per helmholtz call: helmholtz self time "
          f"+{leaf:.3f} ms, tendency self time {parent:+.3f} ms")
    if abs(leaf - delay_ms) > 0.25 * delay_ms:
        failures.append(f"helmholtz self time moved by {leaf:.3f} ms, "
                        f"expected {delay_ms} ms")
    if abs(parent) > 0.25 * delay_ms:
        failures.append(f"tendency self time moved by {parent:.3f} ms, "
                        f"expected no change")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
