"""Rotation averaging via the quaternion inertia matrix.

The weighted chordal mean of unit quaternions q_i is the maximum
eigenvector of the inertia matrix sum_i w_i q_i q_i^T, obtained here by
feeding its negation to the QCQP layer (which extracts the minimum
eigenvector). The quaternion-norm mean is the normalized sum after
aligning signs to the first element.
"""

import math

import numpy as np

from .so3 import canonicalize_quat
from .symrep import qcqp_solve


def _as_quats(quats):
    q = np.asarray(quats, dtype=float)
    if q.ndim != 2 or q.shape[1] != 4:
        raise ValueError(f"expected an (N, 4) array of quaternions, got {q.shape}")
    return q


def weight_fault(w):
    """(i, reason) for weight w[i], the first to break the first rule the inertia matrix needs,
    or None. The rules, in order: each weight >= 0, and 16 s^2 finite for the running sum s,
    which bounds the matrix's 16 entries that the readout squares."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(w)  # sequential: each partial sum has the bits of a Python running sum
        rules = [(w >= 0, "weight must be >= 0, got {w}"),
                 (16.0 * s * s < math.inf, "weights sum to {s:.3g}, which overflows the inertia matrix; scale them down")]
    for ok, reason in rules:
        if not ok.all():
            i = int(np.argmin(ok))
            return i, reason.format(w=float(w[i]), s=s[i])
    return None


def inertia_matrix(quats, weights=None):
    """Positive semi-definite sum_i w_i q_i q_i^T; weights default to 1, and weights that
    weight_fault rejects raise ValueError naming the quaternion."""
    q = _as_quats(quats)
    if weights is None:
        M = q.T @ q
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if len(w) != len(q):
            raise ValueError(f"length mismatch: {len(q)} quaternions, {len(w)} weights")
        fault = weight_fault(w)
        if fault:
            raise ValueError("quaternion {}: {}".format(*fault))
        M = (w[:, None] * q).T @ q
    return 0.5 * (M + M.T)


def chordal_mean(quats, weights=None):
    """Minimizer of sum_i w_i d_chord(R(q), R(q_i))^2 over unit quaternions.

    Sign-blind in the inputs (outer products discard sign) and invariant
    to uniform positive weight scaling. Raises DegenerateEigenspace when
    the top inertia eigenvalue is not simple (the mean is not unique,
    e.g. two orthogonal rotations with equal weight).
    """
    q = _as_quats(quats)
    if len(q) == 0:
        raise ValueError("chordal_mean requires at least one quaternion")
    # The layer extracts the minimum eigenvector; the average needs the maximum.
    mean, _ = qcqp_solve(-inertia_matrix(q, weights))
    return mean


def quat_mean(quats):
    """Normalized sum after flipping each q_i to nonnegative dot with q_1.

    Minimizes sum_i d_quat(q, q_i)^2 on the aligned hemisphere. The
    near-zero-sum guard cannot trigger for valid unit inputs (alignment
    forces ||sum|| >= 1) and exists as a safety net for off-contract data.
    """
    q = _as_quats(quats)
    if len(q) == 0:
        raise ValueError("quat_mean requires at least one quaternion")
    signs = np.where(q @ q[0] < 0, -1.0, 1.0)
    total = np.sum(q * signs[:, None], axis=0)
    norm = np.linalg.norm(total)
    if norm < 1e-9:
        raise ValueError(f"quaternion mean undefined: aligned sum has norm {norm:.3e}")
    return canonicalize_quat(total / norm)
