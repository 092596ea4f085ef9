"""kslab: spectral laboratory for per-mode kinetic-fluid operators."""

__version__ = "0.1.0"

from .velocity_basis import (  # noqa: F401
    Basis,
    BasisError,
    BasisSpec,
    build_basis,
    v_multiplication_matrix,
)
from .collision_ops import (  # noqa: F401
    AssemblyError,
    CollisionMatrices,
    GammaTensor,
    assemble_collision,
    gamma_apply,
    kernel_eval,
    nu_eval,
)
from .dispersion import (  # noqa: F401
    DispersionBranch,
    DispersionError,
    ResolventScalars,
    boltzmann_dispersion,
    crossing_location,
    eta_coefficient,
    expansion_coefficients,
    resolvent_scalars,
    solve_highfreq,
    solve_z0,
    solve_z_pm,
)
from .fluid_limits import (  # noqa: F401
    DecayFit,
    FluidError,
    FluidModeState,
    NsmfMode,
    TransportCoefficients,
    Y1_mode,
    Y2_mode,
    linear_nsmf_solve,
    p_split,
    transport_coefficients,
    y1_decay_experiment,
    y2_decay_experiment,
)
from .mode_operators import (  # noqa: F401
    ModeOperator,
    PropagationError,
    SemigroupSplit,
    assemble_A_tilde,
    assemble_B,
    propagate,
    resolvent_norm_probe,
    semigroup_split,
    spectrum,
)
from .convergence_lab import (  # noqa: F401
    ConvergenceError,
    ConvergenceReport,
    ExperimentConfig,
    InitialData,
    RateFit,
    corrector_shapes,
    first_order_experiment,
    initial_layer_profile,
    make_initial_data,
    oscillatory_decay_check,
    oscillatory_value,
    rate_fit,
    second_order_experiment,
    transient_rate_check,
)
