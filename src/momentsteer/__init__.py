"""Distributional control of parameterized ensembles.

Steer the output distribution of an ensemble of structurally identical units
driven by one broadcast input: represent output measures in truncated moment
coordinates, lay down an optimal-transport reference path between the initial
and target measures, and synthesize tracking controls for the resulting
moment system.
"""

from .errors import ConfigError, SolverError, SolverWarning
from .ensembles import (
    ControlSignal,
    Kuramoto,
    LinearScalar,
    ParameterGrid,
    Trajectory,
    make_uniform_grid,
    mean_field,
    rhs,
    simulate,
)
from .measures import (
    CDFTable,
    EmpiricalMeasure,
    GridDensity,
    cdf,
    point_source_cdf,
    point_source_pde_residual,
    pushforward,
    quantile,
    sample_empirical,
    truncated_gaussian,
    truncated_gaussian_mixture,
    wasserstein,
    wasserstein_to_point_circular,
)
from .moments import (
    FOURIER,
    MONOMIAL_OUTPUT,
    MONOMIAL_PARAM,
    HausdorffCheck,
    MomentSequence,
    hausdorff_check,
    member_moments,
    moment_metric,
    moment_metric_values,
    moments_density,
    moments_fourier,
    moments_output,
    reconstruct_fourier,
)
from .transport import (
    DisplacementPlan,
    MomentReference,
    circular_plan,
    interpolate,
    mccann_plan,
    ot_moment_reference,
)
from .moment_systems import (
    LinearMomentSystem,
    MomentTrace,
    build_linear_moment_system,
    moment_rhs,
    moment_trajectory,
    verify_moment_consistency,
)
from .tracking import (
    LQSetup,
    TrackingResult,
    direct_shooting,
    exact_tracking_feedback,
    lq_tracking_tpbvp,
    terminal_profile_guess,
    tpbvp_ode_residual,
    tpbvp_optimality_gap,
    tracking_cost,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
