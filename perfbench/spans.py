"""Spans recorded from outside the package by wrapping module attributes.

The layers of enkfkit call each other through module globals
(``enkfkit.experiment.analysis_step``, ``enkfkit.models.qg.helmholtz_solve``
and so on), so replacing such an attribute with a wrapper puts a span
around every call that goes through it without editing the package. Spans
(name, start, end, parent) are kept in memory and written out when the run
ends. A span's self time is its duration minus the durations of its direct
children; because children nest strictly inside their parent and never
overlap, the self times of a span and all its descendants add up to the
span's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass

# The one clock of the benchmark: spans and the untraced stamps both read it.
clock = time.perf_counter_ns


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int = 0
    parent: int = -1
    attrs: dict | None = None

    @property
    def ns(self) -> int:
        return self.end - self.start


def patch(module, attr: str, make_wrapper, undo: list) -> None:
    """Replace ``module.attr`` by ``make_wrapper(original)``; record the undo."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    undo.append((module, attr, original))


def unpatch(undo: list) -> None:
    while undo:
        module, attr, original = undo.pop()
        setattr(module, attr, original)


def _solver_arg(index: int, key: str):
    def attrs(args, kwargs):
        choice = kwargs.get(key, args[index] if len(args) > index else "sherman")
        return {"solver": getattr(choice, "value", choice)}
    return attrs


def _analysis_call(args, kwargs):
    attrs = _solver_arg(0, "choice")(args, kwargs)
    v = args[2] if len(args) > 2 else kwargs["v"]
    attrs["nobs"], attrs["nens"] = v.shape
    return attrs


def _fixed(solver: str):
    return lambda args, kwargs: {"solver": solver}


def _record_seconds(span: Span, result) -> None:
    span.attrs["seconds"] = result.seconds


# (module, attribute, span name, attrs from the call, hook on the result).
# Span names are "<layer>.<what>"; the layer is the package module.
LAYER_ATTRIBUTES = (
    ("enkfkit.experiment", "forecast_step", "models.forecast", None, None),
    ("enkfkit.experiment", "analysis_step", "enkf.analysis",
     _solver_arg(4, "solver"), None),
    ("enkfkit.experiment", "inflate", "enkf.inflate", None, None),
    ("enkfkit.experiment", "rse", "metrics.rse", None, None),
    ("enkfkit.experiment", "propagate_truth", "observations.propagate_truth",
     None, None),
    ("enkfkit.experiment", "synthesize_observation", "observations.synthesize",
     None, None),
    ("enkfkit.experiment", "perturb_observations", "enkf.perturb", None, None),
    ("enkfkit.experiment", "influence_matrix_cyclic",
     "enkf.localization_build", None, None),
    ("enkfkit.experiment", "emit_csv", "experiment.emit_csv", None, None),
    ("enkfkit.enkf", "solve_analysis", "solvers.analysis",
     _analysis_call, _record_seconds),
    ("enkfkit.enkf", "member_deviations", "enkf.deviations", None, None),
    ("enkfkit.enkf", "innovations", "enkf.innovations", None, None),
    ("enkfkit.solvers", "solve_analysis", "solvers.analysis",
     _analysis_call, _record_seconds),
    ("enkfkit.solvers", "solve_sherman", "solvers.solve", _fixed("sherman"),
     None),
    ("enkfkit.solvers", "solve_cholesky", "solvers.solve", _fixed("cholesky"),
     None),
    ("enkfkit.solvers", "solve_svd", "solvers.solve", _fixed("svd"), None),
    ("enkfkit.solvers", "sym_rank_k_update", "linalg.syrk", None, None),
    ("enkfkit.solvers", "cholesky_factor", "linalg.cholesky", None, None),
    ("enkfkit.solvers", "svd_thin", "linalg.svd", None, None),
    ("enkfkit.models.qg", "helmholtz_solve", "models.qg.helmholtz", None, None),
    ("enkfkit.models.qg", "arakawa_jacobian", "models.qg.jacobian", None, None),
    ("enkfkit.models.qg", "tendency", "models.qg.tendency", None, None),
    ("enkfkit.models.lorenz96", "tendency", "models.lorenz96.tendency",
     None, None),
)


class Tracer:
    """In-memory span recorder; ``install`` wraps the layer attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self._undo: list = []

    def open(self, name: str, attrs: dict | None = None,
             start: int | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, clock() if start is None else start,
                               parent=parent, attrs=attrs))
        self.stack.append(idx)
        return idx

    def close(self, idx: int, end: int | None = None) -> None:
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(
                f"span {self.spans[idx].name!r} closed while "
                f"{self.spans[top].name!r} is open"
            )
        self.spans[idx].end = clock() if end is None else end

    def unwind(self, depth: int) -> None:
        """Close every span above ``depth`` open spans (after an exception)."""
        while len(self.stack) > depth:
            self.close(self.stack[-1])

    def wrapper(self, name: str, attrs_of=None, on_result=None):
        def make(original):
            @functools.wraps(original)
            def traced(*args, **kwargs):
                attrs = attrs_of(args, kwargs) if attrs_of else None
                idx = self.open(name, attrs)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(idx)
                if on_result is not None:
                    on_result(self.spans[idx], result)
                return result
            return traced
        return make

    def install(self) -> None:
        for module_name, attr, name, attrs_of, on_result in LAYER_ATTRIBUTES:
            module = importlib.import_module(module_name)
            patch(module, attr, self.wrapper(name, attrs_of, on_result),
                  self._undo)

    def uninstall(self) -> None:
        unpatch(self._undo)

    # -- analysis -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        own = [span.ns for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.ns
        return own

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "attrs"], "spans": rows}, fh)
