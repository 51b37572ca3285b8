import warnings

import numpy as np
import pytest

from so3sym import averaging, so3
from so3sym.symrep import DegenerateEigenspace

from util import GRID_RESOLUTION_RAD, chordal_cost_at, super_fibonacci


def test_inertia_golden():
    rng = np.random.default_rng(0)
    q = so3.random_quats(1, rng)[0]
    assert np.allclose(averaging.inertia_matrix([q], [1.0]), np.outer(q, q))


def test_inertia_psd_and_trace():
    rng = np.random.default_rng(1)
    q = so3.random_quats(30, rng)
    w = rng.uniform(0, 2, 30)
    M = averaging.inertia_matrix(q, w)
    assert np.all(np.linalg.eigvalsh(M) >= -1e-12)
    assert np.isclose(np.trace(M), w.sum())


@pytest.mark.parametrize("weighted", [False, True])
def test_inertia_matches_einsum_reference(weighted):
    rng = np.random.default_rng(19)
    q = so3.random_quats(1000, rng)
    w = rng.uniform(0, 2, 1000) if weighted else None
    ref = np.einsum("n,ni,nj->ij", np.ones(1000) if w is None else w, q, q)
    ref = 0.5 * (ref + ref.T)
    M = averaging.inertia_matrix(q, w)
    assert np.abs(M - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(M, M.T)


def test_inertia_length_mismatch():
    rng = np.random.default_rng(2)
    q = so3.random_quats(3, rng)
    with pytest.raises(ValueError):
        averaging.inertia_matrix(q, [1.0, 2.0])


def test_chordal_mean_equal_inputs():
    rng = np.random.default_rng(3)
    q = so3.random_quats(1, rng)[0]
    mean = averaging.chordal_mean([q, q, q])
    assert min(np.linalg.norm(mean - q), np.linalg.norm(mean + q)) < 1e-10


def test_chordal_mean_antipodal_pair():
    rng = np.random.default_rng(4)
    q = so3.random_quats(1, rng)[0]
    mean = averaging.chordal_mean([q, -q])
    assert min(np.linalg.norm(mean - q), np.linalg.norm(mean + q)) < 1e-10


def test_chordal_mean_sign_flip_invariance():
    rng = np.random.default_rng(5)
    q = so3.random_quats(5, rng)
    mean0 = averaging.chordal_mean(q)
    flipped = q * np.array([1, -1, 1, -1, 1])[:, None]
    assert np.abs(averaging.chordal_mean(flipped) - mean0).max() < 1e-12


def test_chordal_mean_weight_scaling_invariance():
    rng = np.random.default_rng(6)
    q = so3.random_quats(5, rng)
    w = rng.uniform(0.1, 2.0, 5)
    assert np.abs(averaging.chordal_mean(q, w) - averaging.chordal_mean(q, 17.0 * w)).max() < 1e-9


def test_chordal_mean_degenerate():
    # two orthogonal rotations with equal weight: top eigenvalue not simple
    with pytest.raises(DegenerateEigenspace):
        averaging.chordal_mean([[0, 0, 0, 1.0], [1.0, 0, 0, 0]])


def test_chordal_mean_vs_brute_force():
    rng = np.random.default_rng(7)
    grid = super_fibonacci(20_000)
    for _ in range(5):
        q = so3.random_quats(5, rng)
        mean = averaging.chordal_mean(q)
        costs = chordal_cost_at(grid, q)
        best = grid[np.argmin(costs)]
        # analytic mean must beat the whole grid and sit next to its argmin
        assert chordal_cost_at(mean[None], q)[0] <= costs.min() + 1e-9
        d = so3.d_ang(so3.quat_to_rot(mean), so3.quat_to_rot(best))
        assert d <= np.deg2rad(12.0)  # 2e4-point grid: ~2x coarser than 1e5


def test_quat_mean_equal_inputs():
    rng = np.random.default_rng(8)
    q = so3.canonicalize_quat(so3.random_quats(1, rng)[0])
    assert np.abs(averaging.quat_mean([q, q, q]) - q).max() < 1e-12


def test_quat_mean_antipodal_pair():
    rng = np.random.default_rng(9)
    q = so3.random_quats(1, rng)[0]
    mean = averaging.quat_mean([q, -q])
    assert min(np.linalg.norm(mean - q), np.linalg.norm(mean + q)) < 1e-12


def test_quat_mean_vs_brute_force():
    # The normalized-sum formula minimizes sum d_quat^2 on a consistent
    # hemisphere, so the oracle uses clustered sets where that holds.
    rng = np.random.default_rng(10)
    grid = super_fibonacci(20_000)
    for _ in range(5):
        base = so3.random_quats(1, rng)[0]
        q = base + 0.35 * rng.standard_normal((4, 4))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        mean = averaging.quat_mean(q)
        costs = np.array([np.sum(so3.d_quat(g, q) ** 2) for g in grid[::4]])
        assert np.sum(so3.d_quat(mean, q) ** 2) <= costs.min() + 1e-9


def test_quat_chordal_agree_on_tight_clusters():
    rng = np.random.default_rng(11)
    base = so3.random_quats(1, rng)[0]
    for _ in range(10):
        perturb = rng.standard_normal((6, 3)) * np.deg2rad(2.0)
        quats = np.array([so3.rot_to_quat(so3.quat_to_rot(base) @ so3.exp_map(p)) for p in perturb])
        cm = averaging.chordal_mean(quats)
        qm = averaging.quat_mean(quats)
        assert np.rad2deg(so3.d_ang(so3.quat_to_rot(cm), so3.quat_to_rot(qm))) < 0.1


def test_quat_mean_empty():
    with pytest.raises(ValueError):
        averaging.quat_mean(np.zeros((0, 4)))


def test_quat_mean_zero_sum_raises():
    # Off-contract input: all-zero rows align to a zero sum, which has no direction.
    with pytest.raises(ValueError, match=r"aligned sum has norm 0\.000e\+00"):
        averaging.quat_mean(np.zeros((2, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: averaging.inertia_matrix(np.zeros((3, 3))),
     r"^expected an \(N, 4\) array of quaternions, got \(3, 3\)$"),
    (lambda: averaging.chordal_mean(np.zeros((0, 4))), "^chordal_mean requires at least one quaternion$"),
], ids=["not-n-by-4", "chordal-empty"])
def test_bad_input_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_inertia_matrix_rejects_negative_weights():
    with pytest.raises(ValueError, match="^quaternion 1: weight must be >= 0, got -1.0$"):
        averaging.inertia_matrix([[0, 0, 0, 1.0], [1.0, 0, 0, 0]], [1.0, -1.0])


@pytest.mark.parametrize("big", [1e160, 1e308])
def test_chordal_mean_rejects_weights_that_overflow_the_inertia_matrix(big):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="weights sum to"):
            averaging.chordal_mean([[0, 0, 0, 1.0], [1.0, 0, 0, 0]], [1.0, big])


def test_chordal_mean_large_accepted_weights_average_like_small_ones():
    q = so3.random_quats(4, np.random.default_rng(51))
    w = np.array([1.0, 2.0, 3.0, 4.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small = averaging.chordal_mean(q, w)
        big = averaging.chordal_mean(q, 1e150 * w)
    assert np.abs(small - big).max() < 1e-12
