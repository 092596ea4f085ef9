"""Digests of the byte-stable reports: one command to check that a change kept their bits.

Usage, from the root of the repository:

    python3 tools/report_digests.py

Builds the collision data at BasisSpec(6, 3) without the Gamma tensor, runs
the four reports of the tier-1 suite (first order on well-prepared and on
generic data, second order, the initial layer on generic data), the initial
layer on well-prepared data and oscillatory_decay_check(), and prints one JSON
object: per report, the sha256 of its to_json() followed by its csv_rows().
Run it on two checkouts and compare the objects.

The bits depend on the BLAS build and the host, so only runs on one machine
compare.  The script sets one BLAS thread before numpy loads, so the
reductions run in one order.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def report_digest(report) -> str:
    """The sha256 hex digest of report.to_json() followed by its CSV rows."""
    text = report.to_json() + "\n" + "\n".join(report.csv_rows())
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from kslab import convergence_lab as cl
    from kslab.collision_ops import assemble_collision
    from kslab.velocity_basis import BasisSpec, build_basis

    cm = assemble_collision(build_basis(BasisSpec(6, 3)), build_gamma=False)
    wp, generic = (cl.ExperimentConfig(data_kind=kind) for kind in ("well_prepared", "generic"))
    reports = {
        "first_order_well_prepared": cl.first_order_experiment(wp, cm),
        "first_order_generic": cl.first_order_experiment(generic, cm),
        "second_order": cl.second_order_experiment(cl.ExperimentConfig(), cm),
        "initial_layer_generic": cl.initial_layer_profile(generic, cm),
        "initial_layer_well_prepared": cl.initial_layer_profile(wp, cm),
        "oscillatory_decay": cl.oscillatory_decay_check(),
    }
    print(json.dumps({name: report_digest(r) for name, r in reports.items()}, indent=2))


if __name__ == "__main__":
    main()
