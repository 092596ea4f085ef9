import os

# One BLAS thread, set before numpy loads: on kslab's small blocks a second
# thread costs more than it saves, and the digest tool and the benchmark run
# at one thread too.  An explicit value in the environment stands.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from kslab.velocity_basis import BasisSpec, build_basis


@pytest.fixture(scope="session")
def basis_default():
    return build_basis(BasisSpec())


@pytest.fixture(scope="session")
def basis_small():
    return build_basis(BasisSpec(radial_order=6, angular_max=3))


@pytest.fixture(scope="session")
def collision_default(basis_default):
    from kslab.collision_ops import assemble_collision

    return assemble_collision(basis_default)


@pytest.fixture(scope="session")
def collision_small(basis_small):
    from kslab.collision_ops import assemble_collision

    return assemble_collision(basis_small, build_gamma=False)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20230823)
