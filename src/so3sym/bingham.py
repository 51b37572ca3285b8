"""Bingham belief extraction and dispersion-based OOD thresholding.

A symmetric 4x4 matrix A encodes an antipodally symmetric belief over
unit quaternions: the mode is the minimum eigenvector of A and the
nonpositive dispersion coefficients are recovered from the eigenvalue
gaps, d_i = lambda1 - lambda_{5-i}. Adding c*I to A leaves the belief
unchanged.

The dispersion trace 3*lambda1 - lambda2 - lambda3 - lambda4 (= sum of
dispersions) serves as an uncertainty score: strongly negative means a
concentrated, confident belief; values near zero flag inputs far from
the training distribution. Thresholding it at a training-set quantile
("dispersion thresholding") rejects out-of-distribution inputs.
"""

from dataclasses import dataclass

import numpy as np

from .symrep import _dispersion_trace, _lapack_input, qcqp_solve


@dataclass(frozen=True)
class BinghamBelief:
    """Orthogonal axes matrix and dispersion coefficients.

    axes: 4x4 orthogonal; columns 0..2 are dispersion axes matching
          dispersions[0..2], column 3 is the mode. Every column is a
          quaternion signed by so3.canonicalize_quat (w > 0, or where w == 0
          the first nonzero of x, y, z positive), as symeig4 signs them.
    dispersions: (d1, d2, d3) with d1 <= d2 <= d3 <= 0.
    """

    axes: np.ndarray
    dispersions: np.ndarray

    @property
    def mode(self):
        return self.axes[:, 3]


def belief_from_A(A):
    """Diagonalize -A into a Bingham belief.

    Requires a simple minimum eigenvalue of A so the mode is unique;
    raises DegenerateEigenspace otherwise (the qcqp_solve gate).
    """
    _, dec = qcqp_solve(A)
    lams = dec.lambdas
    return BinghamBelief(axes=dec.vectors[:, ::-1].copy(), dispersions=lams[0] - lams[:0:-1])


def log_density_unnorm(belief, x):
    """Log of the unnormalized Bingham density, sum_i d_i (e_i . x)^2, with e_i the dispersion
    axes, over the last axis of x: a scalar for one quaternion, shape (N,) for (N, 4).

    Zero at the mode (and its antipode), <= 0 everywhere on the sphere.
    """
    x = np.asarray(x, dtype=float)
    proj = x @ belief.axes[:, :3]
    return np.sum(belief.dispersions * proj * proj, axis=-1)


def dispersion_trace(A):
    """Uncertainty score 3*lambda1 - lambda2 - lambda3 - lambda4 (<= 0).

    Equals the sum of the belief's dispersion coefficients; invariant
    under A -> A + c*I. Broadcasts over leading batch dimensions. Needs
    eigenvalues only, so it agrees with symeig4(A).dispersion_trace to
    rounding, not bit for bit.
    """
    return _dispersion_trace(np.linalg.eigvalsh(_lapack_input(A)))


def _quantile(values, q):
    """np.quantile(values, q) (method "linear") of a nonempty 1-D float array, bit for bit.

    q is in [0, 1], or an array of such. The virtual index is (n - 1) q; past the
    last index numpy reads the last value and measures the weight from index -1.
    The partition takes numpy's own kth set, so even a tie of -0.0 and 0.0 resolves
    as numpy's does (a plain sort can swap them). The lerp interpolates down from the
    upper neighbour where the weight is >= 0.5, as numpy's does. np.quantile itself
    imports numpy.ma on first use (through np.unique), which training never needs.
    """
    n = len(values)
    idx = (n - 1) * np.asarray(q, dtype=float)
    i = np.where(idx >= n - 1, -1, np.floor(idx)).astype(np.intp)
    j = np.where(i < 0, i, i + 1)
    s = np.partition(values, sorted({0, -1, *i.ravel().tolist(), *j.ravel().tolist()}))
    if np.isnan(s[-1]):  # numpy's answer for a sample holding nan
        return np.full(np.shape(q), np.nan)
    a, b, t = s[i], s[j], idx - i
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def dt_fit(train_traces, q):
    """Threshold = q-quantile (linear interpolation) of the training traces."""
    traces = np.asarray(train_traces, dtype=float).ravel()
    if traces.size == 0:
        raise ValueError("dt_fit requires a nonempty list of traces")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile q must be in (0, 1], got {q}")
    return float(_quantile(traces, q))


def dt_classify(trace, threshold):
    """Keep (return True) iff trace <= threshold; boundary inclusive."""
    return np.asarray(trace, dtype=float) <= threshold
