"""Span aggregation: self times, counts and the set-up plus median-round rule."""
import types

import pytest

import spans


def _record(tracer, name, start, end, parent, phase):
    tracer.names.append(name)
    tracer.starts.append(start)
    tracer.ends.append(end)
    tracer.parents.append(parent)
    tracer.span_phases.append(phase)
    return len(tracer.names) - 1


def test_self_time_subtracts_direct_children_and_rounds_take_the_median():
    t = spans.Tracer()
    _record(t, "fluid_limits.transport_coefficients", 0.0, 1.0, -1, "setup")
    _record(t, "collision_ops.assemble_collision", 0.2, 0.7, 0, "setup")
    for k, y2 in enumerate((2.0, 4.0, 3.0)):
        top = _record(t, "convergence_lab.first_order_experiment", 10.0, 20.0, -1, f"round-{k}")
        _record(t, "fluid_limits.Y2_mode", 11.0, 11.0 + y2, top, f"round-{k}")
        _record(t, "fluid_limits.Y2_mode", 15.0, 16.0, top, f"round-{k}")
    t.count("dropped_modes", 2, "round-1")
    m = t.layer_metrics("setup", ["round-0", "round-1", "round-2"])
    assert m["fluid_limits.transport_s"]["value"] == pytest.approx(0.5)
    assert m["collision_ops.assemble_s"]["value"] == pytest.approx(0.5)
    assert m["collision_ops.assemble_calls"] == {"value": 1, "unit": "count"}
    assert m["fluid_limits.y2_mode_s"]["value"] == pytest.approx(3.0 + 1.0)
    assert m["fluid_limits.y2_mode_calls"]["value"] == 2
    assert m["convergence_lab.self_s"]["value"] == pytest.approx(10.0 - 4.0)
    assert m["convergence_lab.dropped_modes"]["value"] == 0
    assert m["dispersion.roots_s"]["value"] == 0.0
    assert set(m) == set(spans.LAYER_METRICS)


def test_install_wraps_defining_and_importing_modules():
    defining = types.ModuleType("kslab.fluid_limits")
    importing = types.ModuleType("kslab.convergence_lab")

    def Y2_mode(x):
        return 2 * x

    Y2_mode.__module__ = "kslab.fluid_limits"
    Y2_mode.__qualname__ = "Y2_mode"
    defining.Y2_mode = importing.Y2_mode = Y2_mode
    t = spans.Tracer()
    assert t.install({"a": defining, "b": importing}) == {"fluid_limits.Y2_mode"}
    assert defining.Y2_mode is importing.Y2_mode is not Y2_mode
    assert importing.Y2_mode(3) == 6 and not t.names      # no phase: not recorded
    t.phase = "round-0"
    assert importing.Y2_mode(3) == 6
    assert t.names == ["fluid_limits.Y2_mode"]
