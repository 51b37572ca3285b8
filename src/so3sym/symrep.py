"""Symmetric-matrix rotation representation and its differentiable solver.

A rotation is encoded by a symmetric 4x4 matrix A, parameterized by a
10-vector theta filling the upper triangle row by row. The rotation is
read out as the minimum eigenvector of A (a unit quaternion, defined up
to sign), which is the solution of min_q q^T A q subject to ||q|| = 1.
The map is differentiable wherever the minimum eigenvalue is simple; its
vector-Jacobian product is grad_A = (pinv(lambda1 I - A) grad_q) q*^T.

This module is the only one that knows how the QCQP layer works:
`qcqp_forward` is the batched readout and holds the eigengap gate,
`qcqp_solve` the single-matrix readout that raises where the gate fails,
`qcqp_vjp` the backward pass, and `theta_to_A_adjoint` pulls matrix
gradients back to theta. The eigensolver is batched LAPACK `eigh`. Every
eigenvector is a unit quaternion and takes the one quaternion sign rule,
`so3.canonicalize_quat` (w > 0; where w == 0, the first nonzero of x, y, z
positive), so results are deterministic per matrix and q* is column 0 as it
comes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .so3 import canonicalize_quat

# (row, col) of the upper triangle addressed by each theta entry, row-major.
_ROWS, _COLS = np.triu_indices(4)

DEFAULT_GAP_TOL = 1e-8


class DegenerateEigenspace(RuntimeError):
    """Minimum eigenvalue is not simple: the rotation readout is not unique."""


@dataclass(frozen=True)
class EigenDecomp4:
    """Eigendecomposition of a symmetric 4x4 matrix (batched over leading dims).

    lambdas: (..., 4) ascending eigenvalues.
    vectors: (..., 4, 4) orthonormal columns, vectors[..., :, i] for lambdas[..., i].
             Each column is a quaternion (x, y, z, w) signed by so3.canonicalize_quat:
             w > 0, or where w == 0 the first nonzero of x, y, z is positive.
    """

    lambdas: np.ndarray
    vectors: np.ndarray

    @property
    def eigengap(self):
        return self.lambdas[..., 1] - self.lambdas[..., 0]

    @property
    def dispersion_trace(self):
        """3*lambda1 - lambda2 - lambda3 - lambda4, the Bingham dispersion sum (<= 0)."""
        return _dispersion_trace(self.lambdas)


def _dispersion_trace(lams):
    return 3.0 * lams[..., 0] - lams[..., 1] - lams[..., 2] - lams[..., 3]


def theta_to_A(theta):
    """10-vector -> symmetric 4x4 matrix (row-major upper-triangle fill)."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1] != 10:
        raise ValueError(f"theta must have trailing dimension 10, got {theta.shape}")
    A = np.zeros(theta.shape[:-1] + (4, 4))
    A[..., _ROWS, _COLS] = theta
    A[..., _COLS, _ROWS] = theta
    return A


def A_to_theta(A):
    """Symmetric 4x4 matrix -> 10-vector; exact inverse of theta_to_A."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (4, 4):
        raise ValueError(f"A must have trailing shape (4, 4), got {A.shape}")
    return A[..., _ROWS, _COLS]


def theta_to_A_adjoint(grad_A):
    """Adjoint of theta_to_A: pulls a (..., 4, 4) gradient back to (..., 10).

    Each theta entry collects the one (diagonal) or two (off-diagonal)
    matrix positions it fills.
    """
    grad_A = np.asarray(grad_A, dtype=float)
    return grad_A[..., _ROWS, _COLS] + np.where(_ROWS != _COLS, grad_A[..., _COLS, _ROWS], 0.0)


def _lapack_input(A):
    """The symmetric (..., 4, 4) array handed to LAPACK for A.

    Exactly symmetric finite input is passed on as it is, without the
    symmetrizing sum that overflows near the float limit. On a single
    matrix this is decided by comparing Python scalars. Near-symmetric input
    (skew within 1e-12 of the scale) is symmetrized; asymmetric or
    non-finite input raises ValueError.
    """
    A = np.asarray(A, dtype=float)
    if A.shape == (4, 4):
        r0, r1, r2, r3 = A.tolist()
        lower = (r1[0], r2[0], r3[0], r2[1], r3[1], r3[2])
        # A zero below the diagonal may differ in sign from its mirror, and
        # eigh reads only the lower triangle: leave those to the array path.
        if (lower == (r0[1], r0[2], r0[3], r1[2], r1[3], r2[3]) and 0.0 not in lower
                and math.isfinite(r0[0] + r1[1] + r2[2] + r3[3] + sum(lower))):
            return A
    elif A.shape[-2:] != (4, 4):
        raise ValueError(f"expected trailing shape (4, 4), got {A.shape}")
    # d is all zeros exactly when A is symmetric and finite (inf - inf and NaN
    # give NaN). A - d keeps A's values and gives each zero the sign that
    # 0.5 * (A + A^T) would.
    d = A - np.swapaxes(A, -1, -2)
    if not d.any():
        return A - d
    scale = np.maximum(np.abs(A).max(axis=(-2, -1)), 1.0)
    if np.any(np.abs(d).max(axis=(-2, -1)) > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    S = 0.5 * (A + np.swapaxes(A, -1, -2))
    if not np.all(np.isfinite(S)):
        raise ValueError("matrix has non-finite entries")
    return S


def symeig4(A):
    """Eigendecompose symmetric 4x4 matrices with batched LAPACK eigh.

    Accepts (..., 4, 4). Each matrix is decomposed on its own, so the
    result for one matrix does not depend on what else shares the batch.
    Every eigenvector column is signed by so3.canonicalize_quat, the one
    quaternion sign rule. Raises ValueError on asymmetric or non-finite input.
    """
    lams, V = np.linalg.eigh(_lapack_input(A))
    return EigenDecomp4(lams, np.swapaxes(canonicalize_quat(np.swapaxes(V, -1, -2)), -1, -2))


def qcqp_forward(A, gap_tol=DEFAULT_GAP_TOL, decomp=None):
    """Batched QCQP readout of (..., 4, 4) matrices: (q*, decomp, valid).

    q* is a copy of column 0 of decomp.vectors, the minimum eigenvector in
    canonical sign, and decomp the symeig4(A) it came from (pass it in when
    already computed). valid is False where the minimum eigenvalue is not
    simple, lambda2 - lambda1 < gap_tol * max(1, ||A||_F); q* there is arbitrary.
    """
    A = np.asarray(A, dtype=float)
    if decomp is None:
        decomp = symeig4(A)
    if A.shape == (4, 4):
        # The sum np.linalg.norm(..., axis=-1) takes, so valid keeps its bits.
        x = A.reshape(16)
        fro = math.sqrt(np.add.reduce(x * x))
        lams = decomp.lambdas
        valid = np.bool_(float(lams[1]) - float(lams[0]) >= gap_tol * max(1.0, fro))
    else:
        fro = np.linalg.norm(A.reshape(A.shape[:-2] + (16,)), axis=-1)
        valid = decomp.eigengap >= gap_tol * np.maximum(1.0, fro)
    return decomp.vectors[..., :, 0].copy(), decomp, valid


def _degenerate_error(valid, decomp):
    """The DegenerateEigenspace for qcqp_forward's valid where it is not all True.

    This is the one message for a non-simple minimum eigenvalue; it names the
    smallest failing gap against the gate. Callers test valid themselves.
    """
    gap = float(np.min(decomp.eigengap[~valid]))
    where = f" in {np.count_nonzero(~valid)} of {valid.size} matrices" if valid.ndim else ""
    return DegenerateEigenspace(
        f"minimum eigenvalue is not simple{where} "
        f"(gap {gap:.3e} < {DEFAULT_GAP_TOL:.1e} * max(1, ||A||_F))")


def qcqp_vjp(decomp, q, grad_q):
    """Vector-Jacobian product of the QCQP layer, batched.

    Maps upstream gradients grad_q (..., 4) at the readout q* to
    grad_A = (pinv(lambda1 I - A) grad_q) q*^T, shape (..., 4, 4), with
    pinv(lambda1 I - A) = sum_{i>=2} v_i v_i^T / (lambda1 - lambda_i).
    Only meaningful where qcqp_forward reports valid, but a zero grad_q gives a zero
    grad_A on every row: a gap too small to invert (all fail the gate) weighs -1.
    """
    lams, V = decomp.lambdas, decomp.vectors
    denom = lams[..., :1] - lams[..., 1:]
    denom = np.where(denom > -np.finfo(float).tiny, -1.0, denom)
    weights = np.concatenate([np.zeros_like(denom[..., :1]), 1.0 / denom], axis=-1)
    coeffs = np.einsum("...jk,...j->...k", V, grad_q) * weights
    Mg = np.einsum("...ik,...k->...i", V, coeffs)
    return Mg[..., :, None] * q[..., None, :]


def qcqp_solve(A):
    """Minimize q^T A q over unit quaternions for a single symmetric A.

    Returns (q_star, decomp): q_star in canonical sign and the symeig4(A) it
    came from. Raises DegenerateEigenspace when
    lambda2 - lambda1 < DEFAULT_GAP_TOL * max(1, ||A||_F).
    """
    if np.shape(A) != (4, 4):
        raise ValueError(f"expected a single (4, 4) matrix, got {np.shape(A)}")
    q, dec, valid = qcqp_forward(A)
    if not valid:
        raise _degenerate_error(valid, dec)
    return q, dec


def qcqp_jacobian_theta(A, decomp=None):
    """(..., 4, 10) Jacobian dq*/dtheta of the canonical-sign readout.

    qcqp_vjp applied to the rows of I, pulled back through theta_to_A: the
    gradient training runs, as one matrix per A. Raises DegenerateEigenspace
    unless every minimum eigenvalue is simple.
    """
    q, dec, valid = qcqp_forward(A, decomp=decomp)
    if not valid.all():
        raise _degenerate_error(valid, dec)
    rows = EigenDecomp4(dec.lambdas[..., None, :], dec.vectors[..., None, :, :])
    return theta_to_A_adjoint(qcqp_vjp(rows, q[..., None, :], np.eye(4)))


def smooth_section(q):
    """Map a unit quaternion to the projector I - q q^T.

    The output has eigenvalues {0, 1, 1, 1} with minimum eigenspace
    span(q), so qcqp_solve recovers +/-q; invariant under q -> -q.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1] != 4:
        raise ValueError(f"quaternion must have trailing dimension 4, got {q.shape}")
    outer = q[..., :, None] * q[..., None, :]
    return np.eye(4) - outer
