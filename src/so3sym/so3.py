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

# Below this rotation angle, exp/log switch to second-order Taylor branches.
SMALL_ANGLE = 1e-7


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
    """4x4 matrix M_l(q1) with M_l(q1) @ q2 = q1 * q2. Any 4-vector allowed."""
    q = _as_farray(q, "quaternion", (4,))
    x, y, z, w = (q[..., i] for i in range(4))
    rows = [
        [w, -z, y, x],
        [z, w, -x, y],
        [-y, x, w, z],
        [-x, -y, -z, w],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


def quat_right_matrix(q):
    """4x4 matrix M_r(q2) with M_r(q2) @ q1 = q1 * q2. Any 4-vector allowed."""
    q = _as_farray(q, "quaternion", (4,))
    x, y, z, w = (q[..., i] for i in range(4))
    rows = [
        [w, z, -y, x],
        [-z, w, x, y],
        [y, -x, w, z],
        [-x, -y, -z, w],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


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

    Shepperd's method: per sample, the construction pivots on the largest
    of (trace, R00, R11, R22) to avoid cancellation.
    """
    R = _as_farray(R, "rotation", (3, 3))
    m00, m11, m22 = R[..., 0, 0], R[..., 1, 1], R[..., 2, 2]
    tr = m00 + m11 + m22

    # Candidate squared pivots 4*w^2, 4*x^2, 4*y^2, 4*z^2 (may be <= 0 off-pivot).
    tw = 1.0 + tr
    tx = 1.0 + m00 - m11 - m22
    ty = 1.0 - m00 + m11 - m22
    tz = 1.0 - m00 - m11 + m22

    r01, r02, r10 = R[..., 0, 1], R[..., 0, 2], R[..., 1, 0]
    r12, r20, r21 = R[..., 1, 2], R[..., 2, 0], R[..., 2, 1]

    def build(t, a, b, c, order):
        s = np.sqrt(np.maximum(t, 0.0)) * 2.0  # 4*pivot
        s_safe = np.where(s > 0, s, 1.0)
        comps = {order[0]: 0.25 * s, order[1]: a / s_safe,
                 order[2]: b / s_safe, order[3]: c / s_safe}
        return np.stack([comps["x"], comps["y"], comps["z"], comps["w"]], axis=-1)

    q_w = build(tw, r21 - r12, r02 - r20, r10 - r01, ("w", "x", "y", "z"))
    q_x = build(tx, r21 - r12, r01 + r10, r02 + r20, ("x", "w", "y", "z"))
    q_y = build(ty, r02 - r20, r01 + r10, r12 + r21, ("y", "w", "x", "z"))
    q_z = build(tz, r10 - r01, r02 + r20, r12 + r21, ("z", "w", "x", "y"))

    choice = np.argmax(np.stack([tw, tx, ty, tz], axis=-1), axis=-1)
    cands = np.stack([q_w, q_x, q_y, q_z], axis=-2)  # (..., 4 candidates, 4)
    out = np.take_along_axis(cands, choice[..., None, None], axis=-2)[..., 0, :]
    return canonicalize_quat(normalize_quat(out))


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

    Angle via atan2(|skew part|/2, (tr-1)/2), accurate at both ends of the
    range. Near pi the axis is recovered from the dominant diagonal of
    (R + I)/2 and sign-matched to the skew part when that is informative.
    """
    R = _as_farray(R, "rotation", (3, 3))
    v = 0.5 * _vee(R)  # sin(theta) * axis
    s = np.linalg.norm(v, axis=-1)
    c = 0.5 * (R[..., 0, 0] + R[..., 1, 1] + R[..., 2, 2] - 1.0)
    theta = np.arctan2(s, c)

    small = theta < SMALL_ANGLE
    near_pi = theta > np.pi - 1e-4

    # Generic branch: axis = v / sin(theta).
    s_safe = np.where(s > 0, s, 1.0)
    axis_mid = v / s_safe[..., None]

    # Small branch: phi = v * (1 + theta^2/6) to second order.
    phi_small = v * (1.0 + theta * theta / 6.0)[..., None]

    # Near-pi branch: the symmetric part (R + R^T)/2 - cos(theta) I equals
    # (1 - cos(theta)) n n^T with no skew contamination; take the column with
    # the largest diagonal entry (it always has norm >= (1-cos)/sqrt(3)),
    # then sign-match against v (falls back to canonical
    # first-nonzero-positive when v carries no signal).
    B = 0.5 * (R + np.swapaxes(R, -1, -2)) - c[..., None, None] * np.eye(3)
    diag = np.stack([B[..., 0, 0], B[..., 1, 1], B[..., 2, 2]], axis=-1)
    col = np.argmax(diag, axis=-1)
    axis_pi = np.take_along_axis(B, col[..., None, None], axis=-1)[..., 0]
    norm_pi = np.linalg.norm(axis_pi, axis=-1, keepdims=True)
    axis_pi = axis_pi / np.where(norm_pi > 0, norm_pi, 1.0)
    dot = np.sum(axis_pi * v, axis=-1)
    x, y, z = axis_pi[..., 0], axis_pi[..., 1], axis_pi[..., 2]
    canon = np.select([x != 0, y != 0, z != 0], [np.sign(x), np.sign(y), np.sign(z)], 1.0)
    sign = np.where(np.abs(dot) > 1e-12, np.sign(dot), canon)
    axis_pi = axis_pi * sign[..., None]

    phi = np.where(small[..., None], phi_small,
                   np.where(near_pi[..., None], axis_pi * theta[..., None],
                            axis_mid * theta[..., None]))
    return phi


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

