"""Digests of the byte-stable reports and of the science under them: one command
to check that a change kept their bits.

Usage, from the root of the repository:

    python3 tools/report_digests.py

Builds the collision data at BasisSpec(6, 3) and (24, 6) without the Gamma
tensor and at (12, 6) with it, runs the four reports of the tier-1 suite
(first order on well-prepared and on generic data, second order, the initial
layer on generic data), the initial layer on well-prepared data and
oscillatory_decay_check(), and prints one JSON object.  Its "reports" section
holds, per report, the sha256 of its to_json() followed by its csv_rows().
The "chunks" section holds the same digests for the rate reports at mode
counts that leave a partial last chunk of convergence_lab._MODE_CHUNK modes
(chunk_digests), so a change to the chunk loop shows its bits here.  The
other sections hold the sha256 of the exact values under the reports
(science_digests), of the fluid flows (fluid_digests) and of the assembly
under those (collision_digests and gamma_digests):

- "transport": the transport coefficients, their truncation deltas
  (truncation_deltas) and mu_estimate at BasisSpec(6, 3) and (12, 6);
- "crossing": crossing_location at six eps on both bases;
- "modes": for B and A-tilde at a low, a mid and a high (s, eps) on
  BasisSpec(6, 3), propagate, spectrum (eigenvalues and residuals),
  semigroup_split (branch mask, measured_gap_b, fit_C and the S1/S2/S3
  parts) and the split's _remainder_flow; once with the conditioning limit
  _EIG_COND_LIMIT ("eig") and once with a limit of 1.0, which sends every
  block to the eig fallback ("fallback");
- "fluid": on the transport coefficients of BasisSpec(6, 3), the norms and
  exponent of y1_decay_experiment and of y2_decay_experiment for both kinds,
  and one linear_nsmf_solve of three forced modes (NSMF_MODES) at
  NSMF_TIMES, every array it returns;
- "collision": at BasisSpec(6, 3), (12, 6) and (24, 6), the gain matrices K1
  and K of both panel rules (_gain_matrices), the kernel refinement delta,
  the nu blocks of _degree_blocks and the sector blocks L_sector and
  L1_sector;
- "gamma": the Gamma tensor, chi_sub and change_of_basis, and L_sub and L1_sub
  (tests/oracles.py::sub_operators) at BasisSpec(12, 6).

Run it on two checkouts and compare the objects.  The bits depend on the
BLAS build and the host, so only runs on one machine compare.  The script
sets one BLAS thread before numpy loads, so the reductions run in one order.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CROSSING_EPS = (0.2, 0.1, 0.05, 0.02, 0.0125, 0.01)
# (s, eps) in the low, mid and high split regime of the electromagnetic generator
MODE_POINTS = {"low": (1.0, 0.04), "mid": (1.3, 0.2), "high": (25.0, 0.5)}
# the forced linear_nsmf_solve: wave numbers on both sides of the branch
# crossing, every forcing on, and the times it reports
NSMF_S = (0.05, 0.6, 2.5)
NSMF_TIMES = (0.0, 0.5, 2.0, 8.0)
# the "chunks" section: the four tier-1 rate reports on a short sweep of 20
# modes, and second order and generic first order on 100 modes
CHUNK_SWEEP = {"n_s": 20, "n_t": 7, "t_max": 50.0}
CHUNK_MODES = 100


def report_digest(report) -> str:
    """The sha256 hex digest of report.to_json() followed by its CSV rows."""
    text = report.to_json() + "\n" + "\n".join(report.csv_rows())
    return hashlib.sha256(text.encode()).hexdigest()


def value_digest(*values) -> str:
    """The sha256 hex digest of the exact values: each one's shape, dtype and bytes."""
    import numpy as np

    h = hashlib.sha256()
    for value in values:
        a = np.ascontiguousarray(value)
        h.update(f"{a.shape} {a.dtype}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def transport_digest(cm) -> str:
    """Digest of the transport coefficients, their truncation deltas and mu_estimate."""
    from kslab.fluid_limits import transport_coefficients, truncation_deltas

    tc = transport_coefficients(cm)
    deltas = truncation_deltas(cm)
    return value_digest(tc.kappa0, tc.kappa1, tc.eta, *(tc.a_list[j] for j in sorted(tc.a_list)),
                        *(deltas[k] for k in sorted(deltas)), cm.mu_estimate)


def crossing_digest(cm) -> str:
    """Digest of crossing_location at each of CROSSING_EPS."""
    from kslab.dispersion import crossing_location

    return value_digest([crossing_location(eps, cm) for eps in CROSSING_EPS])


def mode_digests(cm) -> dict:
    """Per conditioning limit, kind and regime: digests of propagate, spectrum,
    semigroup_split and _remainder_flow on operators built for that limit."""
    import numpy as np
    from kslab import mode_operators as mo

    limits = {"eig": mo._EIG_COND_LIMIT, "fallback": 1.0}
    out = {}
    try:
        for path, limit in limits.items():
            mo._EIG_COND_LIMIT = limit
            for kind, assemble in (("B", mo.assemble_B), ("A_tilde", mo.assemble_A_tilde)):
                for regime, (s, eps) in MODE_POINTS.items():
                    op = assemble(s, eps, cm)
                    rng = np.random.default_rng(7)
                    u0 = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
                    taus = np.array([0.0, 0.5, 2.0, 8.0])
                    lam, _, res = mo.spectrum(op)
                    split = mo.semigroup_split(op)
                    out[f"{path} {kind} {regime}"] = {
                        "propagate": value_digest(mo.propagate(op, u0, eps**2 * taus)),
                        "spectrum": value_digest(lam, res),
                        "split": value_digest(split.branch_mask, split.measured_gap_b,
                                              split.fit_C, split.S1_part, split.S2_part,
                                              split.S3_part),
                        "remainder_flow": value_digest(mo._remainder_flow(split, u0, taus)),
                    }
    finally:
        mo._EIG_COND_LIMIT = limits["eig"]
    return out


def nsmf_modes() -> list:
    """The forced modes of the "fluid" section: one per NSMF_S on the default
    direction, with data that meets every constraint and all three forcings."""
    import math

    import numpy as np
    from kslab.fluid_limits import NsmfMode

    def g1(tau):
        return np.array([0.1 * math.cos(tau), math.cos(tau), 0.2 * math.sin(tau)])

    def g3(tau):
        return np.array([0.0, 0.3 * math.exp(-0.5 * tau), 0.1])

    e0 = np.array([0.2, 0.3, -0.2], complex)
    return [NsmfMode(s=s, n0=-math.sqrt(2.0 / 3.0) * 0.5, m0=np.array([0.0, 1.0, 0.5], complex),
                     q0=0.5, rho0=1j * s * e0[0], E0=e0, B0=np.array([0.0, 0.1, 0.4], complex),
                     g1=g1, g2=lambda tau: math.exp(-tau), g3=g3)
            for s in NSMF_S]


def fluid_digests(cm) -> dict:
    """Digests of the fluid flows on cm's transport coefficients: each decay
    experiment's norms and exponent, and the forced linear_nsmf_solve."""
    import numpy as np
    from kslab.fluid_limits import (
        linear_nsmf_solve, transport_coefficients, y1_decay_experiment, y2_decay_experiment,
    )

    tc = transport_coefficients(cm)
    fits = {"y1": y1_decay_experiment(tc),
            **{f"y2 {kind}": y2_decay_experiment(tc, kind) for kind in ("generic", "enhanced")}}
    out = {name: value_digest(fit.norms, fit.exponent) for name, fit in fits.items()}
    solved = linear_nsmf_solve(nsmf_modes(), np.array(NSMF_TIMES), tc)
    out["nsmf"] = value_digest(*(solved[key] for key in sorted(solved)))
    return out


def collision_digests(cm) -> dict:
    """Digests of the collision assembly on cm's basis: both panel rules' gain
    matrices, the kernel refinement delta, the nu blocks and the sector blocks."""
    from kslab.collision_ops import _degree_blocks, _gain_matrices

    top = cm.basis.spec.angular_max
    nu = _degree_blocks(cm.basis, top).nu
    return {
        "gain": value_digest(*(mats[l] for rule in _gain_matrices(cm.basis, top)
                               for mats in rule for l in sorted(mats))),
        "delta": value_digest(cm.kernel_refinement_delta),
        "nu": value_digest(*(nu[l] for l in sorted(nu))),
        "sectors": value_digest(*(blocks[k] for blocks in (cm.L_sector, cm.L1_sector)
                                  for k in sorted(blocks))),
    }


def gamma_digests(cm) -> dict:
    """Digests of cm's Gamma tensor, chi_sub and change of basis, and of the
    sub-basis operators L_sub and L1_sub on cm's basis (tests/oracles.py)."""
    if str(ROOT / "tests") not in sys.path:
        sys.path.insert(0, str(ROOT / "tests"))
    from oracles import sub_operators

    gamma = cm.gamma
    return {
        "tensor": value_digest(gamma.tensor),
        "chi_sub": value_digest(gamma.chi_sub),
        "change_of_basis": value_digest(gamma.change_of_basis),
        "sub_operators": value_digest(*sub_operators(cm)),
    }


def chunk_digests(cm) -> dict:
    """Report digests of the rate experiments at mode counts that are no
    multiple of the chunk size: the four tier-1 reports at CHUNK_SWEEP (the
    layer keeps its own 240 modes and times), and second order and generic
    first order with CHUNK_MODES modes."""
    from kslab import convergence_lab as cl

    wp, generic = (cl.ExperimentConfig(data_kind=kind, **CHUNK_SWEEP)
                   for kind in ("well_prepared", "generic"))
    m, n = CHUNK_SWEEP["n_s"], CHUNK_MODES
    reports = {
        f"first_order_well_prepared n_s={m}": cl.first_order_experiment(wp, cm),
        f"first_order_generic n_s={m}": cl.first_order_experiment(generic, cm),
        f"second_order n_s={m}": cl.second_order_experiment(wp, cm),
        f"initial_layer_generic n_s={m}": cl.initial_layer_profile(generic, cm),
        f"second_order n_s={n}": cl.second_order_experiment(cl.ExperimentConfig(n_s=n), cm),
        f"first_order_generic n_s={n}": cl.first_order_experiment(
            cl.ExperimentConfig(data_kind="generic", n_s=n), cm),
    }
    return {name: report_digest(r) for name, r in reports.items()}


def science_digests(bases: dict) -> dict:
    """The transport, crossing and mode sections for collision data by basis name;
    the modes run on the first basis."""
    return {
        "transport": {name: transport_digest(cm) for name, cm in bases.items()},
        "crossing": {name: crossing_digest(cm) for name, cm in bases.items()},
        "modes": mode_digests(next(iter(bases.values()))),
    }


def main() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from kslab import convergence_lab as cl
    from kslab.collision_ops import assemble_collision
    from kslab.velocity_basis import BasisSpec, build_basis

    bases = {f"({n}, {l})": assemble_collision(build_basis(BasisSpec(n, l)), gamma)
             for n, l, gamma in ((6, 3, False), (12, 6, True), (24, 6, False))}
    cm = bases["(6, 3)"]
    wp, generic = (cl.ExperimentConfig(data_kind=kind) for kind in ("well_prepared", "generic"))
    reports = {
        "first_order_well_prepared": cl.first_order_experiment(wp, cm),
        "first_order_generic": cl.first_order_experiment(generic, cm),
        "second_order": cl.second_order_experiment(cl.ExperimentConfig(), cm),
        "initial_layer_generic": cl.initial_layer_profile(generic, cm),
        "initial_layer_well_prepared": cl.initial_layer_profile(wp, cm),
        "oscillatory_decay": cl.oscillatory_decay_check(),
    }
    digests = {"reports": {name: report_digest(r) for name, r in reports.items()},
               "chunks": chunk_digests(cm)}
    science = science_digests({name: bases[name] for name in ("(6, 3)", "(12, 6)")})
    science["fluid"] = fluid_digests(cm)
    assembly = {"collision": {name: collision_digests(c) for name, c in bases.items()},
                "gamma": gamma_digests(bases["(12, 6)"])}
    print(json.dumps({**digests, **science, **assembly}, indent=2))


if __name__ == "__main__":
    main()
