"""Seeded scale fuzzer: the library's norms, and the heads built on them, at every float scale.

Each round draws an input and scales it by 2**k, k in [-1000, 1000], restricted to the k
where the scaled input keeps its largest |entry| below 2**1000 (sums of a few hundred
entries stay finite), its smallest nonzero |entry| at or above 2**-480 (every square, and
the smaller differences the heads take, stays normal) and every norm at or above the
function's floor. Warnings are errors. Results that a unit vector decides must keep their
bits; results that LAPACK decides keep their valid mask and agree in q within Q_TOL, since
LAPACK rescales by factors that are not powers of two. The seeds and round counts are fixed,
so a failure names a case that reproduces.
"""

import math

import numpy as np
import pytest

from so3sym import averaging, bingham, nn, so3, symrep
from so3sym.symrep import DegenerateEigenspace

from util import is_rotation

pytestmark = pytest.mark.filterwarnings("error")

ROUNDS = 200
# |q(2**k A) - q(A)| bound on the eigh paths; q's error is about eps ||A||_F / gap (Davis &
# Kahan 1970), and the drawn matrices keep gap / ||A||_F above 1e-4.
Q_TOL = 1e-11


def _exponent(x):
    return int(np.frexp(x)[1])


def _scales(x, floor, rng, count=3):
    """count values of k in [-1000, 1000] admissible for x (see the module docstring), where
    floor is the smallest norm the caller's rows may reach once scaled."""
    a = np.abs(x)
    hi = min(1000 - _exponent(a.max()), 1000)
    lo = max(-479 - _exponent(a[a > 0].min()), math.ceil(math.log2(floor)) + 1, -1000)
    return [0, lo, hi] + [int(k) for k in rng.integers(lo, hi + 1, count)]


def _gapped_theta(rng, n):
    """(n, 10) theta whose matrices keep gap / ||A||_F >= 1e-4, plus one repeated-minimum row."""
    theta = rng.standard_normal((4 * n, 10))
    A = symrep.theta_to_A(theta)
    lams = np.linalg.eigvalsh(A)
    fro = np.linalg.norm(A.reshape(-1, 16), axis=-1)
    keep = theta[(lams[:, 1] - lams[:, 0]) >= 1e-4 * fro][: n - 1]
    return np.concatenate([keep, symrep.A_to_theta(np.diag([1.0, 1.0, 2.0, 3.0]))[None]])


def _assert_unit_rows(q, valid):
    assert np.abs(np.linalg.norm(q[valid], axis=-1) - 1.0).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("seed", range(4))
def test_unit_vector_results_keep_their_bits_at_every_scale(seed):
    rng = np.random.default_rng([32, seed])
    for _ in range(ROUNDS // 4):
        q = rng.standard_normal((8, 4))
        ref = so3.normalize_quat(q)
        for k in _scales(q, 1e-9 / np.linalg.norm(q, axis=-1).min(), rng):
            got = so3.normalize_quat(np.ldexp(q, k))
            assert got.tobytes() == ref.tobytes(), f"normalize_quat at 2**{k}"
            _assert_unit_rows(got, np.ones(len(got), bool))

        quats = so3.random_quats(int(rng.integers(1, 50)), rng)
        ref = averaging.quat_mean(quats)
        for k in _scales(quats, 1e-9, rng):
            got = averaging.quat_mean(np.ldexp(quats, k))
            assert got.tobytes() == ref.tobytes(), f"quat_mean of {len(quats)} at 2**{k}"

        for head in ("quat", "6d"):
            raw = rng.standard_normal((8, nn.HEAD_DIMS[head]))
            q_ref, R_ref, aux, valid_ref = nn.head_forward(head, raw)
            assert valid_ref.all()
            norms = aux if head == "quat" else np.minimum(aux[3], aux[4])  # the 6d head's n1, n2
            for k in _scales(raw, 1e-9 / norms.min(), rng):
                q_got, R_got, _, valid = nn.head_forward(head, np.ldexp(raw, k))
                assert valid.tobytes() == valid_ref.tobytes(), f"{head} head valid at 2**{k}"
                assert R_got.tobytes() == R_ref.tobytes(), f"{head} head R at 2**{k}"
                if head == "quat":
                    assert q_got.tobytes() == q_ref.tobytes(), f"quat head q at 2**{k}"
                    _assert_unit_rows(q_got, valid)
                assert is_rotation(R_got[valid], tol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_eigh_paths_keep_their_valid_mask_at_every_scale(seed):
    rng = np.random.default_rng([33, seed])
    for _ in range(ROUNDS // 20):
        theta = _gapped_theta(rng, 6)
        A = symrep.theta_to_A(theta)
        q_ref, _, valid_ref = symrep.qcqp_forward(A)
        assert valid_ref[:-1].all() and not valid_ref[-1]
        fro = np.linalg.norm(A.reshape(-1, 16), axis=-1)
        for k in _scales(theta, 1.0 / fro.min(), rng):
            theta_k = np.ldexp(theta, k)
            A_k = symrep.theta_to_A(theta_k)
            q, _, valid = symrep.qcqp_forward(A_k)
            assert valid.tobytes() == valid_ref.tobytes(), f"qcqp_forward valid at 2**{k}"
            assert np.abs(q - q_ref)[valid].max() <= Q_TOL, f"qcqp_forward q at 2**{k}"
            q_head, R, _, valid_head = nn.head_forward("A", theta_k)
            assert valid_head.tobytes() == valid_ref.tobytes(), f"A head valid at 2**{k}"
            assert np.abs(q_head - q_ref)[valid].max() <= Q_TOL, f"A head q at 2**{k}"
            _assert_unit_rows(q_head, valid_head)
            assert is_rotation(R[valid_head], tol=1e-12)
            for a, q_one, ok in zip(A_k, q_ref, valid_ref):
                if not ok:
                    with pytest.raises(DegenerateEigenspace):
                        symrep.qcqp_solve(a)
                    with pytest.raises(DegenerateEigenspace):
                        bingham.belief_from_A(a)
                    continue
                assert np.abs(symrep.qcqp_solve(a)[0] - q_one).max() <= Q_TOL, f"qcqp_solve at 2**{k}"
                assert np.abs(bingham.belief_from_A(a).mode - q_one).max() <= Q_TOL, (
                    f"belief_from_A at 2**{k}")


def test_exp_map_returns_a_rotation_at_every_scale():
    rng = np.random.default_rng(34)
    for _ in range(ROUNDS):
        phi = rng.standard_normal((8, 3))
        for k in _scales(phi, 1e-300, rng):
            R = so3.exp_map(np.ldexp(phi, k))
            assert is_rotation(R, tol=1e-12), f"exp_map at 2**{k}"


# The extreme-scale probes, by name: each read its sum of squares as inf and gave a wrong
# answer with only a warning.

def test_probe_normalize_quat_at_1e154():
    assert np.array_equal(so3.normalize_quat([1e154, 0, 0, 1e154]), [math.sqrt(0.5), 0, 0, math.sqrt(0.5)])


def test_probe_quat_mean_at_1e154():
    q = [[1e154, 0, 0, 1e154]] * 2
    assert np.array_equal(averaging.quat_mean(q), [math.sqrt(0.5), 0, 0, math.sqrt(0.5)])


def test_probe_quat_head_at_1e155():
    q, R, _, valid = nn.head_forward("quat", np.array([[1e155, 0, 0, 1e155]]))
    assert valid.all() and np.array_equal(q, [[math.sqrt(0.5), 0, 0, math.sqrt(0.5)]])
    assert is_rotation(R, tol=1e-12)


def test_probe_6d_head_at_1e155():
    _, R, _, valid = nn.head_forward("6d", np.array([[1e155, 0, 0, 0, 1e155, 0]]))
    assert valid.all() and np.array_equal(R, np.eye(3)[None])


def test_probe_qcqp_solve_at_1e154():
    q, _ = symrep.qcqp_solve(np.diag([0.0, 1.0, 2.0, 3.0]) * 1e154)
    assert np.array_equal(q, [1.0, 0.0, 0.0, 0.0])


def test_probe_exp_map_at_1e200():
    R = so3.exp_map([1e200, 0, 0])
    assert np.array_equal(R, so3.quat_to_rot(so3.axis_angle_to_quat([1.0, 0.0, 0.0], 1e200)))
    assert is_rotation(R, tol=1e-12)


def test_unit_vector_of_a_norm_past_the_float_range():
    # The norm itself is inf here; the unit vector is read off the rescaled row.
    big = np.finfo(float).max
    assert np.array_equal(so3.normalize_quat([big, big, -big, big]), [0.5, 0.5, -0.5, 0.5])


def test_one_nan_row_makes_the_whole_batch_raise():
    # NaN fails the 1e-9 floor as a zero row does.
    message = r"^cannot normalize quaternion with norm < 1e-09 or NaN$"
    with pytest.raises(ValueError, match=message):
        so3.normalize_quat([[0.0, 0.0, 0.0, 1.0], [np.nan] * 4])
    R = np.stack([np.eye(3), np.full((3, 3), np.nan)])
    for call in (so3.rot_to_quat, so3.log_map):
        with pytest.raises(ValueError, match=message):
            call(R)
