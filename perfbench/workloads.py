"""The benchmark workloads.

A workload makes its inputs from a seed, sets up (first basis, collision
matrices and transport coefficients, as a user's run starts) and then
lists one round of operations. Every round repeats the same operations on the
same inputs. Each operation comes with the check of its output.

kslab is called through its module attributes (``mode_operators.assemble_B``
and so on), so that the tracer's wrappers see the calls.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from kslab import (collision_ops, convergence_lab, dispersion, fluid_limits,
                   mode_operators, velocity_basis)

import checks

REFERENCE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "transport.json"


@dataclass
class Operation:
    label: str
    call: Callable[[], object]
    # output -> (problems, counters)
    check: Callable[[object], tuple[list[str], dict]]


def _set_up(radial_order: int, angular_max: int, build_gamma: bool):
    basis = velocity_basis.build_basis(velocity_basis.BasisSpec(radial_order, angular_max))
    cm = collision_ops.assemble_collision(basis, build_gamma=build_gamma)
    tc = fluid_limits.transport_coefficients(cm)
    return cm, tc


class ConvergenceSmall:
    """The four rate reports at the tier-1 configuration on BasisSpec(6, 3).

    The inputs are the tier-1 ExperimentConfig, data seed included, whatever
    the benchmark seed: with other data seeds the reports' p1_decay_rate flag
    is false for some seeds (12, for one), so a seeded profile would make the
    share of failed checks depend on the seed.
    """

    name = "convergence_small"

    def __init__(self, seed: int):
        cfg = convergence_lab.ExperimentConfig
        self.reports = (
            ("first_order/well_prepared", "first_order_experiment", cfg(data_kind="well_prepared")),
            ("first_order/generic", "first_order_experiment", cfg(data_kind="generic")),
            ("second_order", "second_order_experiment", cfg()),
            ("initial_layer/generic", "initial_layer_profile", cfg(data_kind="generic")),
        )
        self.first_json: dict[str, str] = {}

    def setup(self) -> None:
        self.cm, _ = _set_up(6, 3, build_gamma=False)

    def operations(self) -> list[Operation]:
        return [Operation(label,
                          lambda func=func, cfg=cfg: getattr(convergence_lab, func)(cfg, self.cm),
                          lambda report, label=label: self._check(label, report))
                for label, func, cfg in self.reports]

    def _check(self, label, report):
        text = report.to_json()
        doc = json.loads(text)
        problems = checks.check_report(doc)
        first = self.first_json.setdefault(label, text)
        problems += checks.check_identical(label, first, text)
        return problems, {"dropped_modes": len(doc["metadata"]["propagation_failures"])}


class SpectralDefault:
    """Per-mode spectral analysis on BasisSpec(12, 6): 9 (s, eps) modes."""

    name = "spectral_default"
    EPS = (0.05, 0.02)
    LOW_MODES = 4          # per eps, with eps * (1 + s) <= 0.1
    MID_EPS = 0.05         # one mode with s in [3, 6]: mid regime for B and A~

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.modes = []
        for eps in self.EPS:
            s_top = 0.1 / eps - 1.0
            for s in np.sort(rng.uniform(0.1, s_top, self.LOW_MODES)):
                self.modes.append((eps, float(s)))
        self.modes.append((self.MID_EPS, float(rng.uniform(3.0, 6.0))))
        self.taus = rng.uniform(0.5, 4.0, len(self.modes))
        # unit states for B (dim 228) and A~ (dim 232) at BasisSpec(12, 6)
        dim = 12 * 7 + 2 * 12 * 6
        self.states = []
        for _ in self.modes:
            u0 = {}
            for kind, n in (("B", dim), ("A", dim + 4)):
                u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u0[kind] = u / np.linalg.norm(u)
            self.states.append(u0)
        self.checked: dict[str, str] = {}

    def setup(self) -> None:
        self.cm, self.tc = _set_up(12, 6, build_gamma=False)

    def operations(self) -> list[Operation]:
        ops = []
        seen_eps = set()
        for k, (eps, s) in enumerate(self.modes):
            crossing = eps not in seen_eps
            seen_eps.add(eps)
            t = float(self.taus[k]) * eps * eps
            label = f"mode eps={eps} s={s:.6g}"
            ops.append(Operation(
                label,
                lambda eps=eps, s=s, t=t, u0=self.states[k], crossing=crossing:
                    self._mode(eps, s, t, u0, crossing),
                lambda out, label=label: (self._check(label, out), {}),
            ))
        return ops

    def _check(self, label, out):
        """Full checks, skipped when the output repeats a checked one bit for bit.

        The full checks (scipy eig and expm on 232-dim matrices) cost about as
        much as the mode itself, so repeating them every round would halve the
        rounds a run can measure.
        """
        digest = _digest(out)
        if self.checked.get(label) == digest:
            return []
        self.checked[label] = digest
        return checks.check_mode(out)

    def _mode(self, eps, s, t, u0, crossing):
        cm = self.cm
        out = {"eps": eps, "s": s, "eta": self.tc.eta, "ops": {}}
        if crossing:
            out["crossing"] = dispersion.crossing_location(eps, cm)
        for kind, assemble in (("B", mode_operators.assemble_B),
                               ("A", mode_operators.assemble_A_tilde)):
            op = assemble(s, eps, cm)
            split = mode_operators.semigroup_split(op)
            lam, _, res = mode_operators.spectrum(op)
            u_t = mode_operators.propagate(op, u0[kind], t)
            out["ops"][kind] = {
                "matrix": op.matrix, "eps": eps, "regime": split.regime,
                "S1": split.S1_part, "S2": split.S2_part, "S3": split.S3_part,
                "gap_b": split.measured_gap_b, "spectrum": (lam, res),
                "u0": u0[kind], "t": t, "u_t": u_t,
            }
        z0 = dispersion.solve_z0(s, eps, cm)
        z_plus, z_minus = dispersion.solve_z_pm(s, eps, cm)
        out["vmb_roots"] = {b.label: b.value for b in (z0, z_plus, z_minus)}
        out["boltzmann_roots"] = {b.label: b.value
                                  for b in dispersion.boltzmann_dispersion(s, eps, cm)}
        return out


class TruncationSweep:
    """Collision assembly with Gamma plus transport at radial orders 12 and 24.

    The orders are the ends of the sweep behind the frozen transport digits;
    the seed only sets the order in which they run, since the cost and the
    memory of a round depend on which orders it holds.
    """

    name = "truncation_sweep"
    ORDERS = (12, 24)
    SETUP_ORDER = 12

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.orders = tuple(int(n) for n in rng.permutation(self.ORDERS))
        self.reference = json.loads(REFERENCE.read_text())

    def setup(self) -> None:
        _set_up(self.SETUP_ORDER, 6, build_gamma=True)

    def operations(self) -> list[Operation]:
        return [Operation(f"order {n}", lambda n=n: _set_up(n, 6, build_gamma=True),
                          lambda out, n=n: (self._check(n, *out), {}))
                for n in self.orders]

    def _check(self, order, cm, tc):
        values = {"kappa0": tc.kappa0, "kappa1": tc.kappa1, "eta": tc.eta,
                  "a": dict(tc.a_list), "eta_dispersion": dispersion.eta_coefficient(cm)}
        g = cm.gamma
        return (checks.check_transport(order, values, self.reference)
                + checks.check_gamma(order, g.tensor, g.chi_sub, g.change_of_basis))


def _digest(obj) -> str:
    """sha256 over the numbers of a nested dict/tuple/array output."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(str(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        else:
            h.update(np.ascontiguousarray(x).tobytes())

    feed(obj)
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (ConvergenceSmall, SpectralDefault, TruncationSweep)}
