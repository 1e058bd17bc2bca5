"""Numerical toolkit for fully nonlinear degenerate-elliptic cone
subequations: membership algebra, Riesz characteristics and kernels,
radial one-variable theory, tangential flows and density estimation."""

from .errors import (
    DomainError,
    InvariantError,
    NumericalError,
    RieszlabError,
    SolverError,
)
from .linalg import (
    Frame,
    Structure,
    finite_diff_hessian,
    hermitian_part,
    ordered_eigenvalues,
    projector_onto,
    projector_perp,
    radial_hessian,
    reduced_eigenvalues,
)
from .subeq import (
    GrassmannSample,
    PropertyReport,
    Subequation,
    builtin,
    check_cone,
    check_maximum_principle,
    check_positivity,
    check_st_invariance,
    check_uniform_ellipticity,
    complex_lift,
    dual,
    geometric,
    quaternionic_lift,
    sample_grassmannian,
    transitivity_check,
    uniform_elliptic_regularization,
)
from .riesz import (
    CharacteristicPair,
    KernelSpec,
    characteristic_pair,
    decreasing_characteristic,
    increasing_characteristic,
    kernel,
    kernel_deriv1,
    kernel_deriv2,
    kernel_hessian,
    radial_harmonic_check,
    sandwich_check,
)
from .radial import (
    OneVarJet,
    RadialProfile,
    classify_profile,
    kernel_profile,
    kp_convexity_test,
    one_var_density,
    rp_up_membership,
)
from .flow import (
    DensityReport,
    FlowSpec,
    ScalarField,
    SphereQuad,
    averages_of_tangent_check,
    densities,
    density_decay_check,
    harnack_constant,
    holder_estimate,
    infinitesimal_holder,
    mass_density,
    spherical_max,
    sphere_quad,
    tangent_experiment,
    tangent_flow,
)

__version__ = "0.1.0"
