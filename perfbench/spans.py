"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, the kslab functions that the
per-layer metrics in ``LAYER_METRICS`` are built from. A function is rebound
wherever a kslab module holds it: in the module that defines it (so that
calls inside that module are seen) and in every module that imports it, for
example ``convergence_lab.Y2_mode`` and ``fluid_limits.assemble_collision``.
Each call records a span (name, start, end, parent, phase). Spans stay in
memory and are written out when the run ends. A function that a later version
of the package renames or removes is not wrapped; ``install`` returns the names
it did wrap, so that the run can report the ones whose metrics would read 0.

Per-layer metrics are sums over spans. A span's self time is its duration
minus the durations of its direct child spans.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict

_ROOTS = ("dispersion.solve_z0", "dispersion.solve_z_pm", "dispersion.solve_highfreq",
          "dispersion.crossing_location", "dispersion.boltzmann_dispersion")
_ASSEMBLE_OPS = ("mode_operators.assemble_B", "mode_operators.assemble_A_tilde")
_GAMMA = ("collision_ops._assemble_gamma_tensor", "collision_ops._change_of_basis")

# metric name -> (how, span names); "self" sums self time, "total" sums whole
# spans, "calls" counts spans, "counter" reads a counter the run records.
LAYER_METRICS = {
    "velocity_basis.build_s": ("self", ("velocity_basis.build_basis",)),
    "collision_ops.assemble_s": ("total", ("collision_ops.assemble_collision",)),
    "collision_ops.assemble_calls": ("calls", ("collision_ops.assemble_collision",)),
    "collision_ops.gamma_s": ("total", _GAMMA),
    "fluid_limits.transport_s": ("self", ("fluid_limits.transport_coefficients",)),
    "fluid_limits.y2_mode_s": ("self", ("fluid_limits.Y2_mode",)),
    "fluid_limits.y2_mode_calls": ("calls", ("fluid_limits.Y2_mode",)),
    "mode_operators.assemble_s": ("self", _ASSEMBLE_OPS),
    "mode_operators.operators": ("calls", _ASSEMBLE_OPS),
    "mode_operators.decompose_s": ("self", ("mode_operators._decomposition",
                                            "mode_operators.spectrum")),
    "mode_operators.propagate_s": ("self", ("mode_operators.propagate",
                                            "mode_operators.propagator_matrix",
                                            "convergence_lab._ModeEvolver.states")),
    "mode_operators.split_s": ("self", ("mode_operators.semigroup_split",)),
    "mode_operators.schur_fallbacks": ("counter", ("schur_fallbacks",)),
    "dispersion.roots_s": ("self", _ROOTS),
    "dispersion.root_calls": ("calls", _ROOTS),
    "dispersion.expansion_s": ("self", ("dispersion.expansion_coefficients",
                                        "dispersion.eta_coefficient")),
    "convergence_lab.self_s": ("self", ("convergence_lab.first_order_experiment",
                                        "convergence_lab.second_order_experiment",
                                        "convergence_lab.initial_layer_profile",
                                        "convergence_lab.transient_rate_check")),
    "convergence_lab.dropped_modes": ("counter", ("dropped_modes",)),
}

# every function the tracer wraps
SPAN_NAMES = frozenset(name for how, names in LAYER_METRICS.values() if how != "counter"
                       for name in names)


class Tracer:
    """Records spans of wrapped kslab calls while a phase is set."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_phases: list[str] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.phase: str | None = None
        self._stack: list[int] = []
        self._wrapped: dict = {}     # original function -> its wrapper

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float, phase: str | None = None) -> None:
        phase = self.phase if phase is None else phase
        if phase is not None:
            self.counters[(phase, name)] += amount

    def _wrap(self, name: str, func):
        tracer = self
        is_decomposition = name == "mode_operators._decomposition"

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return func(*args, **kwargs)
            fresh = is_decomposition and args and getattr(args[0], "_decomp", 0) is None
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.span_phases.append(tracer.phase)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                out = func(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if fresh and isinstance(out, tuple) and out and out[0] == "schur":
                tracer.count("schur_fallbacks", 1)
            return out

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def install(self, modules: dict) -> set[str]:
        """Rebind every listed function in every given module.

        Returns the span names that were found and wrapped; a name of
        ``SPAN_NAMES`` missing from it has no function behind it, and the
        metrics built from it read 0.
        """
        wrapped: set[str] = set()
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, type):
                    wrapped |= self._install_methods(obj)
                    continue
                name = _qualified(obj)
                if name in SPAN_NAMES:
                    setattr(module, attr, self._wrapper_for(name, obj))
                    wrapped.add(name)
        return wrapped

    def _install_methods(self, cls) -> set[str]:
        wrapped = set()
        for attr, obj in list(vars(cls).items()):
            name = _qualified(obj)
            if name in SPAN_NAMES and getattr(obj, "__module__", None) == cls.__module__:
                setattr(cls, attr, self._wrapper_for(name, obj))
                wrapped.add(name)
        return wrapped

    def _wrapper_for(self, name: str, func):
        if func not in self._wrapped:
            self._wrapped[func] = self._wrap(name, func)
        return self._wrapped[func]

    # -- aggregation -------------------------------------------------------

    def _span_totals(self):
        """(phase, span name) -> [total time, self time, calls]."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        totals = defaultdict(lambda: [0.0, 0.0, 0])
        for i in range(n):
            acc = totals[(self.span_phases[i], self.names[i])]
            acc[0] += dur[i]
            acc[1] += dur[i] - child[i]
            acc[2] += 1
        return totals

    def layer_metrics(self, setup_phase: str, round_phases: list[str]) -> dict:
        """Set-up value plus the median over rounds, for every layer metric."""
        totals = self._span_totals()

        def value(phase, how, names):
            if how == "counter":
                return sum(self.counters.get((phase, nm), 0.0) for nm in names)
            col = ("total", "self", "calls").index(how)
            return sum(totals[(phase, nm)][col] for nm in names if (phase, nm) in totals)

        metrics = {}
        for metric, (how, names) in LAYER_METRICS.items():
            rounds = statistics.median(value(ph, how, names) for ph in round_phases)
            metrics[metric] = {"value": value(setup_phase, how, names) + rounds,
                               "unit": "s" if metric.endswith("_s") else "count"}
        return metrics

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "phase"],
            "spans": [
                [self.names[i], self.starts[i], self.ends[i], self.parents[i],
                 self.span_phases[i]]
                for i in range(len(self.names))
            ],
            "counters": [[ph, nm, v] for (ph, nm), v in sorted(self.counters.items())],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _qualified(obj) -> str | None:
    module = getattr(obj, "__module__", None)
    qual = getattr(obj, "__qualname__", None)
    if not callable(obj) or not module or not qual or not module.startswith("kslab."):
        return None
    return f"{module[len('kslab.'):]}.{qual}"
