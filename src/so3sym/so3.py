"""Rotation value types, conversions, and bi-invariant distances.

Conventions:
- Quaternions are scalar-LAST 4-vectors (x, y, z, w); a 3-vector p embeds
  as the pure quaternion (p, 0).
- Rotation matrices act on column vectors, v' = R @ v, and satisfy
  R(q) p = vec(q * p_hat * q^-1) for unit q (Hamilton product).
- Axis-angle vectors phi have magnitude = rotation angle in radians.

Most functions broadcast over leading batch dimensions: quaternions are
(..., 4), rotations (..., 3, 3), axis-angle (..., 3).
"""

import numpy as np

# Below this rotation angle, exp_map switches to second-order Taylor branches.
SMALL_ANGLE = 1e-7

_EYE4 = np.eye(4)


def _as_farray(x, name, last_dims):
    a = np.asarray(x, dtype=float)
    if a.shape[-len(last_dims):] != last_dims:
        raise ValueError(f"{name} must have trailing shape {last_dims}, got {a.shape}")
    return a


def normalize_quat(q):
    """Scale q to unit norm. Raises on norms below 1e-9."""
    q = _as_farray(q, "quaternion", (4,))
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < 1e-9):
        raise ValueError("cannot normalize quaternion with norm < 1e-09")
    return q / n


def canonicalize_quat(q):
    """Flip sign so w >= 0; if w == 0, first nonzero of (x, y, z) positive."""
    q = _as_farray(q, "quaternion", (4,))
    sign = np.sign(q[..., 3])
    # Fall back to x, y, then z where the sign is still 0 (NaN stays NaN).
    for i in range(3):
        zero = sign == 0.0
        if not zero.any():
            break
        sign = np.where(zero, np.sign(q[..., i]), sign)
    else:
        sign = np.where(sign == 0.0, 1.0, sign)
    return q * sign[..., None]


def hamilton(q1, q2):
    """Hamilton product q1 * q2 in scalar-last convention."""
    q1 = _as_farray(q1, "q1", (4,))
    q2 = _as_farray(q2, "q2", (4,))
    x1, y1, z1, w1 = (q1[..., i] for i in range(4))
    x2, y2, z2, w2 = (q2[..., i] for i in range(4))
    return np.stack(
        [
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        ],
        axis=-1,
    )


def quat_conj(q):
    q = _as_farray(q, "quaternion", (4,))
    return q * np.array([-1.0, -1.0, -1.0, 1.0])


def quat_left_matrix(q):
    """4x4 matrix M_l(q1) with M_l(q1) @ q2 = q1 * q2, for finite q; column k is q1 * e_k."""
    q = _as_farray(q, "quaternion", (4,))
    return np.swapaxes(hamilton(q[..., None, :], _EYE4), -1, -2)


def quat_right_matrix(q):
    """4x4 matrix M_r(q2) with M_r(q2) @ q1 = q1 * q2, for finite q; column k is e_k * q2."""
    q = _as_farray(q, "quaternion", (4,))
    return np.swapaxes(hamilton(_EYE4, q[..., None, :]), -1, -2)


def quat_to_rot(q):
    """Unit quaternion (x, y, z, w) -> 3x3 rotation matrix."""
    q = _as_farray(q, "quaternion", (4,))
    x, y, z, w = (q[..., i] for i in range(4))
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    R = np.empty(q.shape[:-1] + (3, 3))
    R[..., 0, 0] = 1 - 2 * (yy + zz)
    R[..., 0, 1] = 2 * (xy - wz)
    R[..., 0, 2] = 2 * (xz + wy)
    R[..., 1, 0] = 2 * (xy + wz)
    R[..., 1, 1] = 1 - 2 * (xx + zz)
    R[..., 1, 2] = 2 * (yz - wx)
    R[..., 2, 0] = 2 * (xz - wy)
    R[..., 2, 1] = 2 * (yz + wx)
    R[..., 2, 2] = 1 - 2 * (xx + yy)
    return R


def rot_to_quat(R):
    """3x3 rotation matrix -> canonical-sign unit quaternion.

    K(R) = 4 q q^T is linear in R, and I - K(R)/4 is symrep.smooth_section(q).
    The column of its largest diagonal entry (Shepperd's pivot) is 4 q_pivot q.
    """
    R = _as_farray(R, "rotation", (3, 3))
    a, b, c, d, e, f, g, h, i = [R[..., j // 3, j % 3] for j in range(9)]
    rows = [
        [1 + a - e - i, b + d, c + g, h - f],
        [b + d, 1 - a + e - i, f + h, c - g],
        [c + g, f + h, 1 - a - e + i, d - b],
        [h - f, c - g, d - b, 1 + a + e + i],
    ]
    K = np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)
    pivot = np.argmax(np.diagonal(K, axis1=-2, axis2=-1), axis=-1)
    q = np.take_along_axis(K, pivot[..., None, None], axis=-2)[..., 0, :]
    return canonicalize_quat(normalize_quat(q))


def skew(v):
    """3-vector -> cross-product matrix, skew(v) @ u = v x u."""
    v = _as_farray(v, "vector", (3,))
    K = np.zeros(v.shape + (3,))
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    K[..., 0, 1], K[..., 0, 2] = -z, y
    K[..., 1, 0], K[..., 1, 2] = z, -x
    K[..., 2, 0], K[..., 2, 1] = -y, x
    return K


def exp_map(phi):
    """Axis-angle vector -> rotation matrix (Rodrigues, Taylor near zero)."""
    phi = _as_farray(phi, "axis-angle", (3,))
    theta = np.linalg.norm(phi, axis=-1)
    K = skew(phi)
    K2 = K @ K
    t2 = theta * theta
    small = theta < SMALL_ANGLE
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / np.where(small, 1.0, theta))
        b = np.where(small, 0.5 - t2 / 24.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, t2))
    eye = np.broadcast_to(np.eye(3), K.shape)
    return eye + a[..., None, None] * K + b[..., None, None] * K2


def _vee(M):
    return np.stack([M[..., 2, 1] - M[..., 1, 2],
                     M[..., 0, 2] - M[..., 2, 0],
                     M[..., 1, 0] - M[..., 0, 1]], axis=-1)


def log_map(R):
    """Rotation matrix -> axis-angle vector with magnitude in [0, pi].

    The quaternion log of q = rot_to_quat(R): angle 2 atan2(|q_xyz|, q_w),
    accurate at both ends of the range, along q_xyz. The axis sign is
    canonicalize_quat's rule, so at pi it is first-nonzero-positive.
    """
    q = rot_to_quat(R)
    s = np.linalg.norm(q[..., :3], axis=-1)
    return q[..., :3] * (2.0 * np.arctan2(s, q[..., 3]) / np.where(s > 0, s, 1.0))[..., None]


def d_quat(q, q_gt):
    """min(||q_gt - q||, ||q_gt + q||): antipode-aware distance in [0, sqrt(2)]."""
    q = _as_farray(q, "q", (4,))
    q_gt = _as_farray(q_gt, "q_gt", (4,))
    dm = np.linalg.norm(q_gt - q, axis=-1)
    dp = np.linalg.norm(q_gt + q, axis=-1)
    return np.minimum(dm, dp)


def d_chord(R, R_gt):
    """Frobenius distance between rotation matrices, in [0, 2*sqrt(2)]."""
    R = _as_farray(R, "R", (3, 3))
    R_gt = _as_farray(R_gt, "R_gt", (3, 3))
    diff = R_gt - R
    return np.linalg.norm(diff.reshape(diff.shape[:-2] + (9,)), axis=-1)


def d_ang(R, R_gt):
    """Rotation angle of R @ R_gt^T in radians, in [0, pi]."""
    R = _as_farray(R, "R", (3, 3))
    R_gt = _as_farray(R_gt, "R_gt", (3, 3))
    E = R @ np.swapaxes(R_gt, -1, -2)
    s = 0.5 * np.linalg.norm(_vee(E), axis=-1)
    c = 0.5 * (E[..., 0, 0] + E[..., 1, 1] + E[..., 2, 2] - 1.0)
    return np.arctan2(s, c)


def random_quats(n, rng):
    """n unit quaternions uniform on S^3 (normalized 4-D Gaussians)."""
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=-1, keepdims=True)

