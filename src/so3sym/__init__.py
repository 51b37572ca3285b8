"""Symmetric-matrix representation of SO(3) for estimation and learning.

A rotation is the minimum eigenvector of a 10-parameter symmetric 4x4
matrix, solved and differentiated in closed form. The same matrix encodes
a Bingham belief over unit quaternions, whose dispersion trace provides a
training-free out-of-distribution score. The package bundles the solver,
a closed-form Wahba solver built on it, rotation averaging, a small
trainable regressor with three interchangeable rotation heads, and a CLI.
"""

from .so3 import (
    canonicalize_quat,
    d_ang,
    d_chord,
    d_quat,
    exp_map,
    hamilton,
    log_map,
    normalize_quat,
    quat_left_matrix,
    quat_right_matrix,
    quat_to_rot,
    random_quats,
    rot_to_quat,
)
from .symrep import (
    DegenerateEigenspace,
    EigenDecomp4,
    A_to_theta,
    qcqp_forward,
    qcqp_jacobian_theta,
    qcqp_solve,
    qcqp_vjp,
    smooth_section,
    symeig4,
    theta_to_A,
    theta_to_A_adjoint,
)
from .bingham import (
    BinghamBelief,
    belief_from_A,
    dispersion_trace,
    dt_classify,
    dt_fit,
    log_density_unnorm,
)
from .wahba import (
    Correspondences,
    InputError,
    SyntheticConfig,
    build_data_matrix,
    rng_for,
    sample_synthetic,
    solve_wahba,
)
from .averaging import chordal_mean, inertia_matrix, quat_mean

__version__ = "0.1.0"
