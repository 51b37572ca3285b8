import numpy as np
import pytest

from so3sym import nn, so3, symrep
from so3sym.symrep import DegenerateEigenspace

from util import eig4_bisection_oracle, pinv4_sym, qcqp_forward_reference, symeig4_reference


def rand_sym(rng, n=None):
    shape = (4, 4) if n is None else (n, 4, 4)
    A = rng.standard_normal(shape)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def fd_jacobian_theta(A, h=1e-5):
    """Central differences in the 10 symmetric coordinates, sign-aligned."""
    q0, _ = symrep.qcqp_solve(A)
    th0 = symrep.A_to_theta(A)
    J = np.zeros((4, 10))
    for k in range(10):
        qs = []
        for sgn in (+1.0, -1.0):
            th = th0.copy()
            th[k] += sgn * h
            q, _ = symrep.qcqp_solve(symrep.theta_to_A(th))
            if np.dot(q, q0) < 0:
                q = -q
            qs.append(q)
        J[:, k] = (qs[0] - qs[1]) / (2 * h)
    return J


# -- theta layout -----------------------------------------------------------


def test_theta_to_A_basis():
    A = symrep.theta_to_A([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.array_equal(A, expect)


def test_theta_to_A_all_ones():
    assert np.array_equal(symrep.theta_to_A(np.ones(10)), np.ones((4, 4)))


def test_theta_to_A_linear():
    rng = np.random.default_rng(0)
    t1, t2 = rng.standard_normal((2, 10))
    a, b = 1.7, -0.4
    assert np.allclose(symrep.theta_to_A(a * t1 + b * t2),
                       a * symrep.theta_to_A(t1) + b * symrep.theta_to_A(t2))


def test_A_to_theta_identity():
    assert np.array_equal(symrep.A_to_theta(np.eye(4)),
                          [1, 0, 0, 0, 1, 0, 0, 1, 0, 1])


def test_theta_roundtrips():
    rng = np.random.default_rng(1)
    th = rng.standard_normal((50, 10))
    assert np.array_equal(symrep.A_to_theta(symrep.theta_to_A(th)), th)
    q = so3.random_quats(50, rng)
    G = symrep.smooth_section(q)
    assert np.array_equal(symrep.theta_to_A(symrep.A_to_theta(G)), G)


# -- eigensolver --------------------------------------------------------------


def test_symeig4_diagonal():
    dec = symrep.symeig4(np.diag([3.0, 1.0, 2.0, 0.0]))
    assert np.allclose(dec.lambdas, [0, 1, 2, 3])
    assert np.allclose(np.abs(dec.vectors).sum(axis=0), 1)  # permutation columns


def test_symeig4_section_spectrum():
    rng = np.random.default_rng(2)
    q = so3.random_quats(100, rng)
    dec = symrep.symeig4(symrep.smooth_section(q))
    assert np.abs(dec.lambdas - np.array([0.0, 1.0, 1.0, 1.0])).max() < 1e-12


def test_symeig4_invariants():
    rng = np.random.default_rng(3)
    A = rand_sym(rng, 2000)
    dec = symrep.symeig4(A)
    assert np.all(np.diff(dec.lambdas, axis=-1) >= 0)
    Vt_V = np.swapaxes(dec.vectors, -1, -2) @ dec.vectors
    assert np.abs(Vt_V - np.eye(4)).max() < 1e-12
    resid = A @ dec.vectors - dec.vectors * dec.lambdas[..., None, :]
    fro = np.linalg.norm(A.reshape(-1, 16), axis=-1)
    rel = np.linalg.norm(resid.reshape(-1, 16), axis=-1) / fro
    assert rel.max() < 1e-10


def test_symeig4_vs_bisection_oracle():
    rng = np.random.default_rng(4)
    A = rand_sym(rng, 1000)
    lam = symrep.symeig4(A).lambdas
    lam_ref = eig4_bisection_oracle(A)
    fro = np.linalg.norm(A.reshape(-1, 16), axis=-1)
    assert (np.abs(lam - lam_ref).max(axis=-1) / fro).max() < 1e-11


def test_symeig4_deterministic_and_batch_consistent():
    rng = np.random.default_rng(5)
    A = rand_sym(rng, 64)
    dec_batch = symrep.symeig4(A)
    dec_again = symrep.symeig4(A)
    assert np.array_equal(dec_batch.lambdas, dec_again.lambdas)
    assert np.array_equal(dec_batch.vectors, dec_again.vectors)
    one = symrep.symeig4(A[17])
    assert np.array_equal(one.lambdas, dec_batch.lambdas[17])
    assert np.array_equal(one.vectors, dec_batch.vectors[17])


def test_symeig4_rejects_bad_input():
    with pytest.raises(ValueError):
        symrep.symeig4(np.full((4, 4), np.nan))
    bad = np.eye(4)
    bad[0, 1] = 0.5  # not symmetric
    with pytest.raises(ValueError):
        symrep.symeig4(bad)


@pytest.mark.parametrize("call, message", [
    (lambda: symrep.theta_to_A(np.zeros(9)), r"^theta must have trailing dimension 10, got \(9,\)$"),
    (lambda: symrep.A_to_theta(np.zeros((3, 3))), r"^A must have trailing shape \(4, 4\), got \(3, 3\)$"),
    (lambda: symrep.symeig4(np.zeros((2, 3, 3))), r"^expected trailing shape \(4, 4\), got \(2, 3, 3\)$"),
    (lambda: symrep.qcqp_solve(np.stack([np.eye(4)] * 2)),
     r"^expected a single \(4, 4\) matrix, got \(2, 4, 4\)$"),
    (lambda: symrep.smooth_section(np.zeros(3)),
     r"^quaternion must have trailing dimension 4, got \(3,\)$"),
], ids=["theta_to_A", "A_to_theta", "symeig4", "qcqp_solve", "smooth_section"])
def test_shape_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_symeig4_eigengap_field():
    dec = symrep.symeig4(np.diag([0.0, 0.5, 2.0, 3.0]))
    assert np.isclose(dec.eigengap, 0.5)


# -- QCQP layer ---------------------------------------------------------------


def test_qcqp_section_point():
    rng = np.random.default_rng(6)
    for q in so3.random_quats(50, rng):
        q_star, dec = symrep.qcqp_solve(symrep.smooth_section(q))
        assert min(np.linalg.norm(q_star - q), np.linalg.norm(q_star + q)) < 1e-10
        assert np.isclose(dec.eigengap, 1.0)


def test_qcqp_diagonal():
    q, _ = symrep.qcqp_solve(np.diag([0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(q, [1, 0, 0, 0])


def test_qcqp_monte_carlo_minimality():
    rng = np.random.default_rng(7)
    A = rand_sym(rng)
    q, _ = symrep.qcqp_solve(A)
    val = q @ A @ q
    x = so3.random_quats(100_000, rng)
    assert np.all(val <= np.einsum("bi,ij,bj->b", x, A, x) + 1e-12)
    lam1 = symrep.symeig4(A).lambdas[0]
    assert abs(val - lam1) < 1e-11 * np.linalg.norm(A)


def test_qcqp_shift_invariance():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rand_sym(rng)
        q0, _ = symrep.qcqp_solve(A)
        for c in (-3.0, 0.5, 100.0):
            qc, _ = symrep.qcqp_solve(A + c * np.eye(4))
            assert np.abs(qc - q0).max() < 1e-12


def test_qcqp_degenerate_raises():
    with pytest.raises(DegenerateEigenspace):
        symrep.qcqp_solve(np.eye(4))
    with pytest.raises(DegenerateEigenspace):
        symrep.qcqp_solve(np.zeros((4, 4)))
    # gap_tol is honored
    A = np.diag([0.0, 0.5, 2.0, 3.0])
    assert symrep.qcqp_forward(A, gap_tol=0.1)[2]
    assert not symrep.qcqp_forward(A, gap_tol=0.2)[2]


# -- Jacobian -----------------------------------------------------------------


def test_jacobian_annihilates_mode_outer_product():
    rng = np.random.default_rng(9)
    A = rand_sym(rng)
    q, _ = symrep.qcqp_solve(A)
    J = symrep.qcqp_jacobian_theta(A)
    dA = np.outer(q, q)
    assert np.abs(J @ symrep.A_to_theta(dA)).max() < 1e-12


def test_jacobian_closed_form_at_section():
    rng = np.random.default_rng(10)
    q = so3.random_quats(1, rng)[0]
    A = symrep.smooth_section(q)
    q_star, _ = symrep.qcqp_solve(A)
    J = symrep.qcqp_jacobian_theta(A)
    # dq* = pinv(l1 I - A) dA q*, and pinv(l1 I - A) = -(I - q q^T) at the section point
    E = symrep.theta_to_A(np.eye(10))  # dA of each theta entry
    expect = -(np.eye(4) - np.outer(q_star, q_star)) @ (E @ q_star).T
    assert np.abs(J - expect).max() < 1e-12


def test_jacobian_finite_differences():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 100:
        A = rand_sym(rng)
        dec = symrep.symeig4(A)
        if dec.eigengap < 1e-2 * np.linalg.norm(A):
            continue
        checked += 1
        J = symrep.qcqp_jacobian_theta(A, dec)
        J_fd = fd_jacobian_theta(A)
        rel = np.abs(J - J_fd).max() / max(1.0, np.abs(J).max())
        assert rel < 1e-5


def test_jacobian_theta_diagonal_columns_match_vec():
    rng = np.random.default_rng(12)
    A = rand_sym(rng)
    q, _ = symrep.qcqp_solve(A)
    lam1 = np.linalg.eigvalsh(A)[0]
    # dq*/dvec(A), column-major vec: q*^T kron pinv(l1 I - A)
    J = np.kron(q[None, :], pinv4_sym(lam1 * np.eye(4) - A))
    Jt = symrep.qcqp_jacobian_theta(A)
    # theta slots 0, 4, 7, 9 are the diagonal entries (0,0),(1,1),(2,2),(3,3)
    for k, i in [(0, 0), (4, 1), (7, 2), (9, 3)]:
        assert np.allclose(Jt[:, k], J[:, 4 * i + i])


def test_jacobian_theta_directional():
    rng = np.random.default_rng(13)
    A = rand_sym(rng)
    q0, _ = symrep.qcqp_solve(A)
    Jt = symrep.qcqp_jacobian_theta(A)
    th0 = symrep.A_to_theta(A)
    h = 1e-6
    for _ in range(10):
        d = rng.standard_normal(10)
        qp, _ = symrep.qcqp_solve(symrep.theta_to_A(th0 + h * d))
        qm, _ = symrep.qcqp_solve(symrep.theta_to_A(th0 - h * d))
        if np.dot(qp, q0) < 0:
            qp = -qp
        if np.dot(qm, q0) < 0:
            qm = -qm
        fd = (qp - qm) / (2 * h)
        assert np.abs(Jt @ d - fd).max() < 1e-5 * max(1.0, np.abs(Jt @ d).max())


def test_jacobian_degenerate_raises():
    with pytest.raises(DegenerateEigenspace):
        symrep.qcqp_jacobian_theta(np.eye(4))


def test_jacobian_theta_batch_matches_single():
    rng = np.random.default_rng(20)
    A = rand_sym(rng, 8)
    J = symrep.qcqp_jacobian_theta(A)
    assert J.shape == (8, 4, 10)
    for i in range(8):
        assert np.abs(J[i] - symrep.qcqp_jacobian_theta(A[i])).max() < 1e-14 * max(1.0, np.abs(J[i]).max())


def test_jacobian_theta_batch_degenerate_raises():
    rng = np.random.default_rng(21)
    A = rand_sym(rng, 5)
    A[3] = np.eye(4)
    with pytest.raises(DegenerateEigenspace):
        symrep.qcqp_jacobian_theta(A)


def test_training_vjp_matches_jacobian_theta():
    rng = np.random.default_rng(22)
    raw = rng.standard_normal((32, 10))
    q, _, dec, valid = nn.head_forward("A", raw)
    assert valid.all()
    grad_q = rng.standard_normal((32, 4))
    grad_raw = nn.head_backward("A", q, dec, grad_q, None)
    J = symrep.qcqp_jacobian_theta(symrep.theta_to_A(raw))
    expect = np.einsum("nrk,nr->nk", J, grad_q)
    assert np.abs(grad_raw - expect).max() < 1e-12 * max(1.0, np.abs(expect).max())


def test_qcqp_forward_valid_mask_matches_qcqp_solve():
    rng = np.random.default_rng(23)
    A = np.stack([np.eye(4), rand_sym(rng), np.zeros((4, 4)), np.diag([0.0, 1.0, 2.0, 3.0])])
    q, dec, valid = symrep.qcqp_forward(A)
    assert valid.tolist() == [False, True, False, True]
    assert np.array_equal(dec.lambdas, symrep.symeig4(A).lambdas)
    for i in np.flatnonzero(valid):
        assert np.array_equal(q[i], symrep.qcqp_solve(A[i])[0])


def test_theta_to_A_adjoint_identity():
    rng = np.random.default_rng(24)
    theta = rng.standard_normal((20, 10))
    G = rng.standard_normal((20, 4, 4))
    lhs = np.sum(symrep.theta_to_A(theta) * G, axis=(-2, -1))
    rhs = np.sum(theta * symrep.theta_to_A_adjoint(G), axis=-1)
    assert np.abs(lhs - rhs).max() < 1e-12


# -- pseudo-inverse oracle (tests/util.py) --------------------------------------


def test_pinv4_identity_and_projector():
    assert np.allclose(pinv4_sym(np.eye(4)), np.eye(4))
    rng = np.random.default_rng(14)
    q = so3.random_quats(1, rng)[0]
    P = np.eye(4) - np.outer(q, q)
    assert np.abs(pinv4_sym(P) - P).max() < 1e-12


def test_pinv4_full_rank_matches_inverse():
    rng = np.random.default_rng(15)
    for _ in range(20):
        M = rand_sym(rng)
        if np.abs(np.linalg.det(M)) < 1e-3:
            continue
        assert np.abs(pinv4_sym(M) - np.linalg.inv(M)).max() < 1e-10


def test_pinv4_penrose_identities():
    rng = np.random.default_rng(16)
    q = so3.random_quats(1, rng)[0]
    for M in [rand_sym(rng), np.eye(4) - np.outer(q, q), np.zeros((4, 4))]:
        P = pinv4_sym(M)
        assert np.abs(M @ P @ M - M).max() < 1e-9
        assert np.abs(P @ M @ P - P).max() < 1e-9
        assert np.abs((M @ P) - (M @ P).T).max() < 1e-9
        assert np.abs((P @ M) - (P @ M).T).max() < 1e-9


# -- smooth section -----------------------------------------------------------


def test_smooth_section_golden():
    assert np.array_equal(symrep.smooth_section([0, 0, 0, 1]), np.diag([1.0, 1.0, 1.0, 0.0]))


def test_smooth_section_antipodal():
    rng = np.random.default_rng(17)
    q = so3.random_quats(100, rng)
    assert np.array_equal(symrep.smooth_section(q), symrep.smooth_section(-q))


def test_section_roundtrip():
    rng = np.random.default_rng(18)
    q = so3.random_quats(5000, rng)
    for qi in q[:200]:
        q_star, _ = symrep.qcqp_solve(symrep.smooth_section(qi))
        d = so3.d_ang(so3.quat_to_rot(q_star), so3.quat_to_rot(qi))
        assert d <= 1e-9


def test_section_roundtrip_near_double_cover_seam():
    # w in [0, 1e-3]: rotations within ~0.1 deg of 180 deg
    rng = np.random.default_rng(19)
    w = rng.uniform(0, 1e-3, 500)
    v = rng.standard_normal((500, 3))
    v *= (np.sqrt(1 - w ** 2) / np.linalg.norm(v, axis=-1))[:, None]
    for qi in np.concatenate([v, w[:, None]], axis=-1):
        q_star, _ = symrep.qcqp_solve(symrep.smooth_section(qi))
        assert min(np.linalg.norm(q_star - qi), np.linalg.norm(q_star + qi)) < 1e-9


# -- lean readout against the reference implementation -------------------------

BATCH_SHAPES = [(), (1,), (100,), (10_000,), (3, 5)]
_HALF_HADAMARD = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1.0]])
_CUTS = np.array([[0, 0, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0]], dtype=bool)  # (w), (x, w), (z)


def input_kinds(rng, shape):
    """Inputs that reach every branch of the input check, by name."""
    A = rng.standard_normal(shape + (4, 4))
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    # One mirrored pair per matrix zeroed, -0.0 below the diagonal and +0.0 above:
    # eigh reads the lower triangle, and the zero's sign changes its result.
    zeros = A.copy().reshape(-1, 4, 4)
    for Z, (i, j) in zip(zeros, rng.integers(0, 4, (len(zeros), 2))):
        if i != j:
            Z[max(i, j), min(i, j)], Z[min(i, j), max(i, j)] = -0.0, 0.0
    zeros = zeros.reshape(A.shape)
    ints = rng.integers(-2, 3, A.shape).astype(float)
    # Eigenvectors with w == 0 exactly, so the sign falls back to x, y or z: per matrix,
    # the w row and column (the readout is a 180 deg rotation where it is q*), the w and
    # x ones, or the z ones hold only their diagonal entry.
    cut = _CUTS[rng.integers(0, len(_CUTS), shape)]
    lone = (cut[..., :, None] | cut[..., None, :]) & ~np.eye(4, dtype=bool)
    return {
        "symmetric": A,
        "skew_1e-14": A + 1e-14 * rng.standard_normal(A.shape),
        "signed_zeros": zeros,
        "tied_magnitudes": (_HALF_HADAMARD * rng.standard_normal(shape + (1, 4))) @ _HALF_HADAMARD,
        "integer": ints + np.swapaxes(ints, -1, -2),
        "zero_w": np.where(lone, 0.0, A),
    }


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=str)
def test_lean_readout_matches_reference_bitwise(shape):
    rng = np.random.default_rng(sum(shape) + 40)
    for kind, A in input_kinds(rng, shape).items():
        dec = symrep.symeig4(A)
        q, dec_fwd, valid = symrep.qcqp_forward(A)
        q_ref, lams_ref, V_ref, valid_ref = qcqp_forward_reference(A)
        assert same_bits(dec.lambdas, lams_ref), kind
        assert same_bits(dec.vectors, V_ref), kind
        assert same_bits(dec_fwd.vectors, V_ref), kind
        assert same_bits(q, q_ref), kind
        assert same_bits(valid, valid_ref), kind


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=str)
def test_symeig4_columns_are_canonical_quaternions(shape):
    """One sign rule: every eigenvector column is what so3.canonicalize_quat makes of it."""
    rng = np.random.default_rng(sum(shape) + 43)
    for kind, A in input_kinds(rng, shape).items():
        V = symrep.symeig4(A).vectors
        assert same_bits(np.swapaxes(so3.canonicalize_quat(np.swapaxes(V, -1, -2)), -1, -2), V), kind


def test_zero_w_kind_flips_every_fallback():
    """LAPACK's zero_w eigenvectors need the x, y and z fallbacks, each both ways."""
    V = np.linalg.eigh(input_kinds(np.random.default_rng(44), (2000,))["zero_w"])[1]
    x, y, z, w = np.moveaxis(V, -2, 0)
    on = w == 0
    for name, c in zip("xyz", (x, y, z)):
        assert (on & (c < 0)).any() and (on & (c > 0)).any(), name
        on &= c == 0


def test_lean_readout_rows_match_single_calls():
    rng = np.random.default_rng(41)
    for kind, A in input_kinds(rng, (100,)).items():
        dec = symrep.symeig4(A)
        q, _, valid = symrep.qcqp_forward(A)
        for i in range(len(A)):
            one = symrep.symeig4(A[i])
            q_one, _, valid_one = symrep.qcqp_forward(A[i])
            assert same_bits(one.lambdas, dec.lambdas[i]), kind
            assert same_bits(one.vectors, dec.vectors[i]), kind
            assert same_bits(q_one, q[i]), kind
            assert valid_one == valid[i], kind


def test_lean_readout_single_signed_zeros_match_reference():
    rng = np.random.default_rng(42)
    for A in input_kinds(rng, (200,))["signed_zeros"]:
        q, dec, valid = symrep.qcqp_forward(A)
        q_ref, lams_ref, V_ref, _ = qcqp_forward_reference(A)
        assert same_bits(dec.lambdas, lams_ref) and same_bits(dec.vectors, V_ref)
        assert same_bits(q, q_ref)


@pytest.mark.parametrize("batch", [None, 5], ids=["single", "batched"])
@pytest.mark.parametrize("entry, message", [
    (0.5, "matrix is not symmetric"),
    (np.nan, "matrix has non-finite entries"),
    (np.inf, "matrix has non-finite entries"),
], ids=["asymmetric", "nan", "inf"])
def test_symeig4_error_messages(batch, entry, message):
    bad = np.eye(4)
    bad[0, 1] = entry
    A = bad if batch is None else np.stack([np.eye(4)] * 3 + [bad] + [np.eye(4)])
    for fn in (symrep.symeig4, symrep.qcqp_forward):
        with pytest.raises(ValueError, match=message):
            fn(A)
        with pytest.raises(ValueError, match=message):
            symeig4_reference(A)


def test_symeig4_symmetric_input_near_float_max():
    # 0.5 * (A + A^T) overflows here; exactly symmetric input is passed on as is.
    for A in (1e308 * np.eye(4), np.stack([1e308 * np.eye(4), np.eye(4)])):
        dec = symrep.symeig4(A)
        assert np.all(np.isfinite(dec.lambdas))
        assert np.array_equal(dec.lambdas[..., 0], np.diagonal(A, axis1=-2, axis2=-1)[..., 0])
