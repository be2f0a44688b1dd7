"""surfield: smooth super-resolution fields on voxel manifolds.

Turns discrete lattice data into smooth fields via kernel smoothing,
computes the Riemannian geometry and Lipschitz-Killing curvatures those
fields induce on unions of voxel boxes, and derives non-conservative
familywise-error thresholds from the expected Euler characteristic of
excursion sets.
"""

__version__ = "0.1.0"

from .kernel import GaussianKernel, kernel_eval
from .lattice import (
    FieldEnsemble,
    RngSpec,
    VoxelSet,
    make_domain_preset,
    sample_ensemble,
)
from .lkc import LkcVector, lkc_compute, lkc_stationary_closed_form
from .manifold import (
    EdgeType,
    RefinedGrid,
    VoxelManifold,
    classify_boundary,
    euler_characteristic,
    refined_grid,
)
from .geometry import (
    metric,
    orthonormal_frame,
    theta_angle,
)
from .inference import (
    FieldType,
    FwerReport,
    count_local_maxima_above,
    ec_density,
    expected_euler_char,
    fwer_experiment,
    localization_support,
    maximize_t_field,
    nondegeneracy_check,
    threshold,
)
from .surf import DegenerateFieldError, SurfSpec, surf_covariance, surf_eval, t_field

__all__ = [
    "__version__",
    "GaussianKernel",
    "kernel_eval",
    "VoxelSet",
    "FieldEnsemble",
    "RngSpec",
    "make_domain_preset",
    "sample_ensemble",
    "LkcVector",
    "lkc_compute",
    "lkc_stationary_closed_form",
    "EdgeType",
    "VoxelManifold",
    "RefinedGrid",
    "refined_grid",
    "classify_boundary",
    "euler_characteristic",
    "metric",
    "orthonormal_frame",
    "theta_angle",
    "FieldType",
    "FwerReport",
    "ec_density",
    "expected_euler_char",
    "threshold",
    "count_local_maxima_above",
    "maximize_t_field",
    "fwer_experiment",
    "localization_support",
    "nondegeneracy_check",
    "SurfSpec",
    "DegenerateFieldError",
    "surf_eval",
    "surf_covariance",
    "t_field",
]
