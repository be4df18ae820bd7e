"""Loop-space scales, maps between them, and the checks that certify them.

The package models band-limited loops in a scale of periodic Sobolev
spaces, nonlinear superposition maps with two-level derivative bounds,
action-type functions with Fredholm Hessians, their pull-backs along
charts, and atlases of charts on the 2-sphere, together with the
numerical evidence suites behind the command line.
"""

from .charts import (
    DiffeoChart,
    c1_only_chart,
    chart_from_sympy,
    compose_charts,
    identity_chart,
    inversion_chart,
    linear_chart,
    rotation_field_chart,
    shear_chart,
)
from .floer_function import (
    FloerFunctionNumeric,
    HamiltonianData,
    driven_hamiltonian,
    full_report,
    gradient_axiom_check,
    hessian_axiom_check,
    quadratic_hamiltonian,
    quadratic_spectral,
    symplectic_action,
)
from .floer_map import (
    BilinearLevelMap,
    ChartDomainError,
    SuperpositionMap,
    apply,
    compose,
    d2phi,
    dphi,
    invert,
    leibniz_check,
    verify_floer_axioms,
)
from .loop_atlas import (
    EmptyOverlapError,
    LoopAtlas,
    PlanarChart,
    SphereChart,
    check_compatibility,
    check_transitivity,
    coverage_report,
    planar_atlas,
    polar_loop,
    rotated_sphere_atlas,
    sphere_small_loop_atlas,
    transition,
)
from .pullback import (
    certify_pullback,
    kappa_bound_check,
    pull_back,
    pull_back_gradient,
    pull_back_hessian,
    riesz_correction,
)
from .scale_operator import (
    FredholmReport,
    LevelOperator,
    adjoint,
    band_indices,
    check_interpolation,
    derivative_operator,
    fredholm_diagnostic,
    fredholm_from_spectra,
    identity_operator,
    inclusion_singular_values,
    op_norm,
    op_norms,
    sweep_verdict,
    weighted_singular_values,
)
from .scale_space import (
    DualFunctional,
    FourierLoop,
    LevelError,
    constant_loop,
    default_grid_points,
    dual_norm,
    dual_pair,
    flat,
    from_grid,
    inner,
    multiplication_matrix,
    random_loop,
    to_grid,
    weights,
    zero_loop,
)
from .sobolev_evidence import (
    MultSignature,
    dual_estimate_check,
    dual_pairing_check,
    embedding_constant,
    extremal_profile,
    holder_embedding_check,
    holder_seminorm,
    mult_norm_sweep,
    mult_operator,
    rough_factor,
    signature_ordering_check,
    smooth_factor,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
