import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import so3sym
from so3sym import so3, wahba
from so3sym.symrep import DegenerateEigenspace
from so3sym.wahba import Correspondences, SyntheticConfig, rng_for

from util import kabsch

SRC = Path(__file__).resolve().parent.parent / "src"


def residual_reference(q, corr):
    """Problem cost evaluated directly with Hamilton products."""
    total = 0.0
    for i in range(len(corr)):
        uh = np.array([*corr.u[i], 0.0])
        vh = np.array([*corr.v[i], 0.0])
        rotated = so3.hamilton(so3.hamilton(q, uh), so3.quat_conj(q))
        total += np.sum((vh - rotated) ** 2) / corr.sigma[i] ** 2
    return total


def data_matrix_reference(corr):
    """Per-pair weighted sum of (|u|^2 + |v|^2) I + 2 Ml(v_hat) Mr(u_hat), symmetrized."""
    zero = np.zeros((len(corr), 1))
    uh = np.concatenate([corr.u, zero], axis=1)
    vh = np.concatenate([corr.v, zero], axis=1)
    norms = np.sum(corr.u ** 2, axis=1) + np.sum(corr.v ** 2, axis=1)
    terms = norms[:, None, None] * np.eye(4) + 2.0 * so3.quat_left_matrix(vh) @ so3.quat_right_matrix(uh)
    A = np.sum(terms / corr.sigma[:, None, None] ** 2, axis=0)
    return 0.5 * (A + A.T)


def random_corr(rng, n=10):
    u = rng.standard_normal((n, 3))
    v = rng.standard_normal((n, 3))
    sigma = rng.uniform(0.5, 2.0, n)
    return Correspondences(u=u, v=v, sigma=sigma)


def test_cost_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        corr = random_corr(rng)
        A = wahba.build_data_matrix(corr)
        q = so3.random_quats(1, rng)[0]
        lhs = q @ A @ q
        rhs = residual_reference(q, corr)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_data_matrix_sigma_scaling():
    rng = np.random.default_rng(1)
    corr = random_corr(rng)
    A = wahba.build_data_matrix(corr)
    scaled = Correspondences(u=corr.u, v=corr.v, sigma=3.0 * corr.sigma)
    assert np.abs(wahba.build_data_matrix(scaled) - A / 9.0).max() < 1e-12


def test_data_matrix_empty():
    empty = Correspondences(u=np.zeros((0, 3)), v=np.zeros((0, 3)), sigma=np.zeros(0))
    assert np.array_equal(wahba.build_data_matrix(empty), np.zeros((4, 4)))


def test_data_matrix_symmetric():
    rng = np.random.default_rng(2)
    A = wahba.build_data_matrix(random_corr(rng))
    assert np.array_equal(A, A.T)


def test_profile_blocks_are_symmetric():
    # A[i, j] and A[j, i] read equal columns of _PROFILE_TO_A, so A is symmetric as built.
    for block in wahba._PROFILE_TO_A.reshape(9, 4, 4):
        assert np.array_equal(block, block.T)


_SYMMETRIC = """
import numpy as np
from so3sym.wahba import Correspondences, build_data_matrix
rng = np.random.default_rng(7)
for n in (1, 10, 1000):
    for _ in range(300):
        c = Correspondences(u=rng.standard_normal((n, 3)), v=rng.standard_normal((n, 3)),
                            sigma=rng.uniform(0.5, 2.0, n))
        A = build_data_matrix(c)
        assert np.array_equal(A, A.T), (n, A - A.T)
print("ok")
"""


@pytest.mark.parametrize("coretype", [None, "Prescott"])
def test_data_matrix_symmetric_under_blas_kernel(coretype):
    # Prescott is a kernel every x86-64 OpenBLAS build can run; None is the host's own pick.
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        blas = ""
    if "openblas" not in blas.lower():
        pytest.skip("numpy is not linked against OpenBLAS")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(SRC)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", _SYMMETRIC], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


@pytest.mark.parametrize("n", [1, 10, 1000])
def test_data_matrix_matches_per_pair_reference(n):
    corr = random_corr(np.random.default_rng(40 + n), n)
    A = wahba.build_data_matrix(corr)
    ref = data_matrix_reference(corr)
    assert np.abs(A - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(A, A.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["u", "v", "sigma"])
def test_correspondences_reject_non_finite(field, bad):
    data = dict(u=np.eye(3), v=np.eye(3), sigma=np.ones(3))
    data[field].flat[1] = bad
    with pytest.raises(ValueError, match="finite"):
        Correspondences(**data)


@pytest.mark.parametrize("sigma", [1e-170, 1e-160, 5e-324])
def test_correspondences_reject_non_finite_weight(sigma):
    with pytest.raises(ValueError, match="weight"):
        Correspondences(u=np.eye(3), v=np.eye(3), sigma=[1.0, sigma, 1.0])


def test_correspondences_reject_overflowing_data_matrix():
    with pytest.raises(ValueError, match="overflows"):
        Correspondences(u=np.eye(3), v=np.eye(3), sigma=[1.0, 1e-154, 1.0])


@pytest.mark.parametrize("sigma", [1.0, 1e200])
def test_correspondences_name_the_pair_whose_squares_overflow(sigma):
    u = np.array([[1.0, 0, 0], [0, 1, 0], [1e160, 0, 0]])
    with pytest.raises(ValueError, match=r"^pair 2: \|u\|\^2 \+ \|v\|\^2 overflows; "
                                         r"scale u and v down$") as exc:
        Correspondences(u=u, v=u, sigma=[1.0, 1.0, sigma])
    assert "sigma" not in str(exc.value)


def test_correspondences_reject_sigma_whose_square_overflows():
    # 1/inf is a finite 0, so only sigma^2 itself shows that the weight 1e-310 is lost.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^pair 1: sigma 1e\+155 is too large: "
                                             r"sigma\^2 overflows$"):
            Correspondences(u=np.eye(2, 3), v=np.eye(2, 3), sigma=[1.0, 1e155])


def test_large_accepted_weights_solve_like_unit_weights():
    _, corr = wahba.sample_synthetic(SyntheticConfig(num_matches=20, sigma=0.01, phi_max=2.0, seed=5))
    heavy = Correspondences(u=corr.u, v=corr.v, sigma=np.full(20, 1e-75))
    unit = Correspondences(u=corr.u, v=corr.v, sigma=np.ones(20))
    assert np.abs(wahba.solve_wahba(heavy) - wahba.solve_wahba(unit)).max() < 1e-12


def test_csv_errors_are_input_errors_naming_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ux,uy,uz,vx,vy,vz,sigma\n1,0,0,1,0,0\n")
    with pytest.raises(so3sym.InputError, match=r"bad\.csv: line 2: expected 7 columns"):
        wahba.read_correspondences_csv(path)


def test_noiseless_recovery():
    cfg = SyntheticConfig(num_matches=100, sigma=0.0, phi_max=np.pi, seed=3)
    R_hat, corr = wahba.sample_synthetic(cfg)
    q = wahba.solve_wahba(corr)
    assert np.rad2deg(so3.d_ang(so3.quat_to_rot(q), R_hat)) <= 1e-6


def test_matches_procrustes_oracle():
    cfg = SyntheticConfig(num_matches=100, sigma=0.01, phi_max=np.pi, seed=4)
    _, corr = wahba.sample_synthetic(cfg)
    q = wahba.solve_wahba(corr)
    R_ref = kabsch(corr.u, corr.v, corr.sigma)
    assert np.rad2deg(so3.d_ang(so3.quat_to_rot(q), R_ref)) <= 1e-6


def test_single_pair_degenerate():
    corr = Correspondences(u=[[1.0, 0, 0]], v=[[1.0, 0, 0]], sigma=[1.0])
    with pytest.raises(DegenerateEigenspace):
        wahba.solve_wahba(corr)


def test_synthetic_determinism():
    cfg = SyntheticConfig(num_matches=20, sigma=0.05, phi_max=2.0, seed=99)
    R1, c1 = wahba.sample_synthetic(cfg)
    R2, c2 = wahba.sample_synthetic(cfg)
    assert np.array_equal(R1, R2)
    assert np.array_equal(c1.u, c2.u)
    assert np.array_equal(c1.v, c2.v)
    assert np.array_equal(c1.sigma, c2.sigma)


def test_synthetic_angle_bound():
    phi_max = 0.7
    for seed in range(30):
        cfg = SyntheticConfig(num_matches=2, sigma=0.0, phi_max=phi_max, seed=seed)
        R_hat, _ = wahba.sample_synthetic(cfg)
        assert np.linalg.norm(so3.log_map(R_hat)) < phi_max


def test_estimator_consistency_in_n():
    medians = []
    for n in (10, 100, 1000):
        errs = []
        for seed in range(30):
            cfg = SyntheticConfig(num_matches=n, sigma=0.01, phi_max=np.pi, seed=seed)
            R_hat, corr = wahba.sample_synthetic(cfg)
            q = wahba.solve_wahba(corr)
            errs.append(so3.d_ang(so3.quat_to_rot(q), R_hat))
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2]


def test_equivariance():
    rng = rng_for(7)
    cfg = SyntheticConfig(num_matches=50, sigma=0.01, phi_max=np.pi, seed=7)
    _, corr = wahba.sample_synthetic(cfg)
    q0 = wahba.solve_wahba(corr)
    S = so3.quat_to_rot(so3.random_quats(1, rng)[0])
    rotated = Correspondences(u=corr.u, v=corr.v @ S.T, sigma=corr.sigma)
    q1 = wahba.solve_wahba(rotated)
    expect = S @ so3.quat_to_rot(q0)
    assert np.rad2deg(so3.d_ang(so3.quat_to_rot(q1), expect)) < 1e-8


def test_correspondence_validation():
    with pytest.raises(ValueError):
        Correspondences(u=np.zeros((2, 3)), v=np.zeros((3, 3)), sigma=np.ones(2))
    with pytest.raises(ValueError):
        Correspondences(u=np.zeros((2, 3)), v=np.zeros((2, 3)), sigma=[1.0, 0.0])


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(num_matches=10, sigma=0.01, phi_max=0.0)
    with pytest.raises(ValueError):
        SyntheticConfig(num_matches=10, sigma=-1.0, phi_max=1.0)
    with pytest.raises(ValueError):
        SyntheticConfig(num_matches=0, sigma=0.1, phi_max=1.0)


def test_csv_roundtrip(tmp_path):
    cfg = SyntheticConfig(num_matches=12, sigma=0.02, phi_max=1.5, seed=11)
    _, corr = wahba.sample_synthetic(cfg)
    path = tmp_path / "corr.csv"
    wahba.write_correspondences_csv(path, corr)
    back = wahba.read_correspondences_csv(path)
    assert np.array_equal(back.u, corr.u)
    assert np.array_equal(back.v, corr.v)
    assert np.array_equal(back.sigma, corr.sigma)


def test_csv_malformed_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("ux,uy,uz,vx,vy,vz,sigma\n1,0,0,1,0,0,1\n1,0,0,nope,0,0,1\n")
    with pytest.raises(so3sym.InputError, match=r"bad\.csv: line 3: "):
        wahba.read_correspondences_csv(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(so3sym.InputError):
        wahba.read_correspondences_csv(path)


def test_rng_stream_independence():
    a = rng_for(0, 1, 2).standard_normal(4)
    b = rng_for(0, 1, 3).standard_normal(4)
    again = rng_for(0, 1, 2).standard_normal(4)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)
