"""Spectral library for stationary anisotropic Stokes and Navier-Stokes
systems on the periodic unit torus.

The package is organized around plain data types (mode lattices, coefficient
fields, viscosity tensors) and pure functions on them:

    spectral       field representation, Sobolev norms, spectral calculus
    viscosity      fourth-order viscosity tensors and the viscous operator
    stokes         the Stokes solution operator and the linear solver
    navier_stokes  divergence-form advection and the damped fixed-point solver
    harness        manufactured problems and property-check suites
    io             dump formats for fields and tensors, grid CSV export
    cli            command line front end (also `python -m tsflow`)
"""

from .spectral import (
    LatticeSpec,
    SpectralScalarField,
    SpectralVectorField,
    ball_filter,
    ball_mask,
    dealias_grid,
    divergence,
    embed_field,
    gradient,
    grid_transform,
    inner,
    leray_project,
    make_lattice,
    random_scalar_field,
    random_vector_field,
    restrict_field,
    sampling_transform,
    scalar_field,
    seminorm,
    sobolev_norm,
    symmetric_gradient,
    vector_field,
)
from .viscosity import (
    NotElliptic,
    ViscosityTensor,
    apply_viscosity,
    check_symmetry,
    ellipticity_constant,
    make_isotropic,
    make_tensor,
    stokes_operator,
    symmetrize,
    tensor_norm,
)
from .stokes import (
    NonPositiveMu,
    NotSolenoidal,
    SingularSymbol,
    StokesSolveReport,
    ZeroMode,
    assemble_symbol,
    global_estimate_slack,
    mode_estimate_slack,
    solve_isotropic_mode,
    solve_mode,
    solve_stokes,
)
from .navier_stokes import (
    Diverged,
    MaxIterationsExceeded,
    NSSolveOptions,
    NSSolveReport,
    advection,
    advection_bruteforce,
    advection_bound_ratio,
    apriori_velocity_bound,
    picard_solve,
    regularity_slope,
    residual,
)
from .harness import (
    ManufacturedProblem,
    advection_identity_defects,
    gradient_norm_bracket,
    korn_ratio,
    manufacture,
    random_elliptic_tensor,
    run_suite,
    suite_names,
    trilinear_form,
)

__version__ = "0.1.0"
