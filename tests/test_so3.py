import itertools

import numpy as np
import pytest

from so3sym import so3

from util import hamilton_reference, is_rotation, random_rotations


def test_quat_to_rot_identity():
    assert np.allclose(so3.quat_to_rot([0, 0, 0, 1]), np.eye(3))


def test_quat_to_rot_half_turn_x():
    assert np.allclose(so3.quat_to_rot([1, 0, 0, 0]), np.diag([1.0, -1.0, -1.0]))


def test_quat_to_rot_antipodal_identification():
    rng = np.random.default_rng(0)
    q = so3.random_quats(200, rng)
    assert np.allclose(so3.quat_to_rot(q), so3.quat_to_rot(-q))


def test_quat_rot_roundtrip():
    rng = np.random.default_rng(1)
    q = so3.random_quats(10_000, rng)
    back = so3.rot_to_quat(so3.quat_to_rot(q))
    err = np.minimum(np.linalg.norm(back - q, axis=-1), np.linalg.norm(back + q, axis=-1))
    assert err.max() < 1e-10


def test_rot_to_quat_golden():
    assert np.allclose(so3.rot_to_quat(np.eye(3)), [0, 0, 0, 1])
    # 180 deg about x: w = 0, tie-break selects +x
    assert np.allclose(so3.rot_to_quat(np.diag([1.0, -1.0, -1.0])), [1, 0, 0, 0])


def test_rot_to_quat_roundtrip_from_exp():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((5000, 3))
    phi *= (rng.uniform(0, np.pi, 5000) / np.linalg.norm(phi, axis=-1))[:, None]
    R = so3.exp_map(phi)
    assert np.abs(so3.quat_to_rot(so3.rot_to_quat(R)) - R).max() < 1e-10


def test_rot_to_quat_canonical():
    rng = np.random.default_rng(3)
    q = so3.rot_to_quat(random_rotations(500, rng)[0])
    assert np.all(q[:, 3] >= 0)


def test_exp_map_golden():
    assert np.allclose(so3.exp_map([0, 0, 0]), np.eye(3))
    assert np.allclose(so3.exp_map([np.pi, 0, 0]), np.diag([1.0, -1.0, -1.0]))


def test_exp_log_roundtrip():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((10_000, 3))
    phi *= (rng.uniform(0, np.pi - 1e-9, 10_000) / np.linalg.norm(phi, axis=-1))[:, None]
    assert np.abs(so3.log_map(so3.exp_map(phi)) - phi).max() < 1e-9


def test_exp_log_small_angles():
    rng = np.random.default_rng(5)
    phi = rng.standard_normal((100, 3))
    phi *= (rng.uniform(0, 1e-8, 100) / np.linalg.norm(phi, axis=-1))[:, None]
    assert np.abs(so3.log_map(so3.exp_map(phi)) - phi).max() < 1e-15


def test_log_map_golden():
    assert np.allclose(so3.log_map(np.eye(3)), [0, 0, 0])
    phi = so3.log_map(np.diag([1.0, -1.0, -1.0]))
    assert np.allclose(np.abs(phi), [np.pi, 0, 0])


def test_log_map_near_pi():
    rng = np.random.default_rng(6)
    axis = rng.standard_normal((2000, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    phi = axis * (np.pi - rng.uniform(0, 1e-4, 2000))[:, None]
    R = so3.exp_map(phi)
    assert np.abs(so3.exp_map(so3.log_map(R)) - R).max() < 1e-8
    assert np.all(np.linalg.norm(so3.log_map(R), axis=-1) <= np.pi + 1e-12)


def test_log_map_vs_quaternion_path():
    # Independent oracle: angle/axis from the canonical quaternion.
    rng = np.random.default_rng(7)
    R, q = random_rotations(2000, rng)
    qc = so3.canonicalize_quat(q)
    theta = 2.0 * np.arctan2(np.linalg.norm(qc[:, :3], axis=-1), qc[:, 3])
    axis = qc[:, :3] / np.maximum(np.linalg.norm(qc[:, :3], axis=-1, keepdims=True), 1e-300)
    assert np.abs(so3.log_map(R) - theta[:, None] * axis).max() < 1e-9


@pytest.mark.parametrize("delta", [1e-12, 1e-14, 0.0])
def test_log_map_inverts_exp_map_near_pi(delta):
    # The axis follows the skew part through w > 0, so even 1e-12 from pi R comes back.
    rng = np.random.default_rng(12)
    axis = rng.standard_normal((2000, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    R = so3.exp_map(axis * (np.pi - delta))
    assert np.abs(so3.exp_map(so3.log_map(R)) - R).max() <= 1e-14


@pytest.mark.parametrize("theta", [1e-3, 1e-8, 1e-12, 1e-20])
def test_rot_to_quat_small_angles_have_relative_accuracy(theta):
    # An eigen-based readout is accurate only to ~1e-16 absolute, which is all of q_xyz here.
    rng = np.random.default_rng(13)
    axis = rng.standard_normal((500, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    q = so3.rot_to_quat(so3.exp_map(theta * axis))
    exact = np.sin(0.5 * theta) * axis
    rel = np.linalg.norm(q[:, :3] - exact, axis=-1) / np.linalg.norm(exact, axis=-1)
    assert rel.max() <= 2e-15


def test_half_turns_take_the_canonical_axis():
    n = np.array([[1, 0, 0], [-1, 0, 0], [0, -1, 0], [0, 0, -1], [0, 1, -1], [0, -1, 1],
                  [-1, 2, -2], [3, -4, 0], [1, -1, 1], [-2, -1, 3]], dtype=float)
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    R = 2.0 * n[:, :, None] * n[:, None, :] - np.eye(3)
    want = so3.canonicalize_quat(np.concatenate([n, np.zeros((len(n), 1))], axis=-1))
    assert np.abs(so3.rot_to_quat(R) - want).max() <= 1e-15
    assert np.abs(so3.log_map(R) - np.pi * want[:, :3]).max() <= 4e-15  # pi times that, rounded


def test_d_quat_basics():
    rng = np.random.default_rng(8)
    q = so3.random_quats(100, rng)
    assert np.allclose(so3.d_quat(q, q), 0)
    assert np.allclose(so3.d_quat(-q, q), 0)
    assert np.all(so3.d_quat(q, so3.random_quats(100, rng)) <= np.sqrt(2) + 1e-12)


def test_chord_quat_identity():
    rng = np.random.default_rng(9)
    qa = so3.random_quats(10_000, rng)
    qb = so3.random_quats(10_000, rng)
    dq = so3.d_quat(qa, qb)
    dc = so3.d_chord(so3.quat_to_rot(qa), so3.quat_to_rot(qb))
    assert np.abs(dc ** 2 - 2 * dq ** 2 * (4 - dq ** 2)).max() < 1e-9


def test_d_chord_basics():
    R = np.eye(3)
    assert so3.d_chord(R, R) == 0
    # Half-turn pair: ||I - diag(1,-1,-1)||_F = sqrt(8)
    assert np.isclose(so3.d_chord(np.diag([1.0, -1.0, -1.0]), R), np.sqrt(8.0))


def test_chord_ang_identity():
    rng = np.random.default_rng(10)
    Ra, _ = random_rotations(10_000, rng)
    Rb, _ = random_rotations(10_000, rng)
    dc = so3.d_chord(Ra, Rb)
    da = so3.d_ang(Ra, Rb)
    assert np.abs(dc - 2 * np.sqrt(2) * np.sin(da / 2)).max() < 1e-9


def test_d_ang_basics():
    R = so3.exp_map([np.pi / 2, 0, 0])
    assert np.isclose(so3.d_ang(R, np.eye(3)), np.pi / 2)
    assert so3.d_ang(R, R) == 0


def test_d_ang_metric_properties():
    rng = np.random.default_rng(11)
    Ra, _ = random_rotations(2000, rng)
    Rb, _ = random_rotations(2000, rng)
    Rc, _ = random_rotations(2000, rng)
    ab, ba = so3.d_ang(Ra, Rb), so3.d_ang(Rb, Ra)
    assert np.abs(ab - ba).max() < 1e-12
    assert np.all(ab + so3.d_ang(Rb, Rc) >= so3.d_ang(Ra, Rc) - 1e-9)
    assert np.all((ab >= 0) & (ab <= np.pi))


def test_quat_product_matrices_vs_hamilton():
    rng = np.random.default_rng(12)
    assert np.allclose(so3.quat_left_matrix([0, 0, 0, 1]), np.eye(4))
    for _ in range(200):
        q1 = rng.standard_normal(4)
        q2 = rng.standard_normal(4)
        ref = hamilton_reference(q1, q2)
        assert np.abs(so3.quat_left_matrix(q1) @ q2 - ref).max() < 1e-13
        assert np.abs(so3.quat_right_matrix(q2) @ q1 - ref).max() < 1e-13
        # left/right commutation: Ml(p) q = Mr(q) p
        assert np.allclose(so3.quat_left_matrix(q1) @ q2, so3.quat_right_matrix(q2) @ q1)


def test_product_matrices_conjugation():
    rng = np.random.default_rng(13)
    q = so3.random_quats(100, rng)
    u = rng.standard_normal((100, 3))
    uh = np.concatenate([u, np.zeros((100, 1))], axis=-1)
    conj = so3.hamilton(so3.hamilton(q, uh), so3.quat_conj(q))
    via_mats = np.einsum("bij,bj->bi",
                         so3.quat_left_matrix(q) @ np.swapaxes(so3.quat_right_matrix(q), -1, -2), uh)
    assert np.abs(via_mats - conj).max() < 1e-12
    Ru = np.einsum("bij,bj->bi", so3.quat_to_rot(q), u)
    assert np.abs(conj[:, :3] - Ru).max() < 1e-12


def test_product_matrices_are_hamilton_on_the_basis():
    # Bit for bit, signed zeros included: column k of M_l(q) is q * e_k, of M_r(q) is e_k * q.
    q = np.array(list(itertools.product([0.0, -0.0, 1.0, -2.5], repeat=4)))
    left, right = so3.quat_left_matrix(q), so3.quat_right_matrix(q)
    for k, e_k in enumerate(np.eye(4)):
        assert left[..., :, k].tobytes() == so3.hamilton(q, e_k).tobytes()
        assert right[..., :, k].tobytes() == so3.hamilton(e_k, q).tobytes()


def test_canonicalize_quat_rules():
    assert np.allclose(so3.canonicalize_quat([0, 0, 0, -1]), [0, 0, 0, 1])
    assert np.allclose(so3.canonicalize_quat([-1, 0, 0, 0]), [1, 0, 0, 0])
    assert np.allclose(so3.canonicalize_quat([0, -1, 0, 0]), [0, 1, 0, 0])
    assert np.allclose(so3.canonicalize_quat([0.5, 0, 0, 0.5]), [0.5, 0, 0, 0.5])


def _canonicalize_select_reference(q):
    q = np.asarray(q, dtype=float)
    x, y, z, w = (q[..., i] for i in range(4))
    sign = np.select([w != 0.0, x != 0.0, y != 0.0, z != 0.0],
                     [np.sign(w), np.sign(x), np.sign(y), np.sign(z)], default=1.0)
    return q * sign[..., None]


def test_canonicalize_quat_matches_select_reference():
    q = np.random.default_rng(18).standard_normal((40, 4))
    q[::2, 3] = 0.0
    q[1::4, 3] = -0.0
    q[::3, 0] = -0.0
    q[::5, 1] = 0.0
    q[10] = [-0.0, 0.0, -2.0, -0.0]
    q[11] = 0.0
    q[12] = -0.0
    q[13] = [np.nan, 1.0, 0.0, 0.0]
    q[14] = [1.0, 0.0, 0.0, np.nan]
    q[15] = np.nan
    q[16] = [0.0, -0.0, np.nan, 0.0]
    for arr in (q, q.reshape(5, 8, 4), q[10], q[11], q[12], q[13], q[16], q[:0]):
        got, ref = so3.canonicalize_quat(arr), _canonicalize_select_reference(arr)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()  # sign bits and NaNs included


def test_normalize_quat_rejects_zero():
    with pytest.raises(ValueError):
        so3.normalize_quat([0, 0, 0, 0])


def _quat_to_rot_reference(q):
    x, y, z, w = (q[..., i] for i in range(4))
    rows = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]
    return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)


@pytest.mark.parametrize("shape", [(), (9,), (2, 3)])
def test_quat_to_rot_matches_stacked_reference(shape):
    q = np.random.default_rng(16).standard_normal(shape + (4,))  # unit norm not required
    R = so3.quat_to_rot(q)
    assert R.shape == shape + (3, 3)
    assert np.array_equal(R, _quat_to_rot_reference(q))


def test_skew_equals_stacked_rows_bit_for_bit():
    v = np.random.default_rng(50).standard_normal((6, 5, 3))
    v[0, 0] = [0.0, -0.0, 0.0]
    v[0, 1] = [-0.0, -0.0, -0.0]
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    ref = np.stack([np.stack(r, axis=-1) for r in [[zero, -z, y], [z, zero, -x], [-y, x, zero]]], axis=-2)
    for got, want in ((so3.skew(v), ref), (so3.skew(v[2, 3]), ref[2, 3])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.allclose(so3.skew(v[1, 2]) @ v[3, 4], np.cross(v[1, 2], v[3, 4]))
