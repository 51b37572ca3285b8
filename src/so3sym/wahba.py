"""Closed-form Wahba solver and the synthetic correspondence generator.

Given weighted vector pairs (u_i, v_i, sigma_i), the rotation minimizing
sum_i ||v_i - R u_i||^2 / sigma_i^2 is the minimum eigenvector of the
4x4 data matrix

    A = sum_i (1/sigma_i^2) [ (||u_i||^2 + ||v_i||^2) I + 2 Ml(v_i_hat) Mr(u_i_hat) ],

where hats homogenize 3-vectors into pure quaternions and Ml/Mr are the
left/right quaternion product matrices. For unit q, q^T A q equals the
residual sum exactly, so the QCQP layer solves the problem in closed form.

Ml(v_hat) Mr(u_hat) is bilinear in (v, u), so the sum only needs the 3x3
weighted profile matrix B = sum_i w_i v_i u_i^T and the scalar
s = sum_i w_i (||u_i||^2 + ||v_i||^2), with w_i = 1/sigma_i^2:

    A = s I + 2 sum_ab B_ab Ml(e_a_hat) Mr(e_b_hat),

a fixed linear map of B. This is s I - 2 K with K Davenport's q-method
matrix of B (Davenport 1968; Markley & Mortari 2000), read in the active
rotation convention used here. Building A is O(N) vector work plus one
(9,) @ (9, 16) product.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .so3 import canonicalize_quat, quat_left_matrix, quat_right_matrix, quat_to_rot
from .symrep import qcqp_solve


def pair_fault(u, v, sigma):
    """(i, reason) for pair i, the first to break the first rule the data matrix needs, or None.
    The rules, in order: u, v and sigma finite; sigma > 0; |u|^2 + |v|^2 finite; w = 1/sigma^2
    non-zero (sigma^2 overflows above ~1.34e154, and 1/inf is 0) and finite; and 64 s^2 finite
    for s = sum w (|u|^2 + |v|^2), which bounds the 16 entries of the matrix its readout squares."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = 1.0 / (sigma * sigma)
        sq = np.sum(u * u + v * v, axis=-1)
        rules = [(np.isfinite(u).all(-1) & np.isfinite(v).all(-1) & np.isfinite(sigma),
                  "u, v and sigma must be finite"),
                 (sigma > 0, "sigma must be > 0, got {}"),
                 (np.isfinite(sq), "|u|^2 + |v|^2 overflows; scale u and v down"),
                 (w > 0, "sigma {} is too large: sigma^2 overflows"),
                 (w < math.inf, "sigma {} is too small: weight 1/sigma^2 is not finite")]
        for ok, reason in rules:
            if not ok.all():
                i = int(np.argmin(ok))
                return i, reason.format(float(sigma[i]))
        s = float(w @ sq)
        if not 64.0 * s * s < math.inf:
            # w @ sq decides; the running sum (which may round apart) rises, so it names the crossing.
            i = min(np.count_nonzero(64.0 * np.cumsum(w * sq) ** 2 < math.inf), len(w) - 1)
            return i, f"data-matrix scale sum w (|u|^2 + |v|^2) = {s:.3g} overflows; scale sigma up"
    return None


@dataclass(frozen=True)
class Correspondences:
    """Weighted vector-pair set that pair_fault admits: u, v (N, 3), sigma (N,) and w = 1/sigma^2."""

    u: np.ndarray
    v: np.ndarray
    sigma: np.ndarray
    w: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float).reshape(-1, 3)
        v = np.asarray(self.v, dtype=float).reshape(-1, 3)
        sigma = np.asarray(self.sigma, dtype=float).ravel()
        if not (len(u) == len(v) == len(sigma)):
            raise ValueError(f"length mismatch: u {len(u)}, v {len(v)}, sigma {len(sigma)}")
        fault = pair_fault(u, v, sigma)
        if fault:
            raise ValueError("pair {}: {}".format(*fault))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "w", 1.0 / (sigma * sigma))

    def __len__(self):
        return len(self.u)


@dataclass(frozen=True)
class SyntheticConfig:
    """Generative model settings: v_i = R_hat u_i + eps, eps ~ N(0, sigma^2 I).

    num_matches: pairs per instance; u_i uniform on the unit sphere.
    sigma: noise standard deviation (>= 0).
    phi_max: rotation-angle cap in radians; angles drawn U[0, phi_max).
    seed: seed of the instance's random stream, rng_for(seed).
    """

    num_matches: int
    sigma: float
    phi_max: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.phi_max <= np.pi:
            raise ValueError(f"phi_max must be in (0, pi], got {self.phi_max}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.num_matches < 1:
            raise ValueError(f"num_matches must be >= 1, got {self.num_matches}")


def rng_for(seed, *path):
    """Seeded PCG64 stream; extra integers split independent substreams.

    Stream rule: rng_for(seed, trial, batch) and rng_for(seed, trial, batch')
    are statistically independent for batch != batch'.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(p) for p in path)))


# Row 3a+b is Ml(e_a_hat) @ Mr(e_b_hat), flattened: A's bilinear part is B.ravel() @ this.
_PROFILE_TO_A = (quat_left_matrix(np.eye(3, 4))[:, None]
                 @ quat_right_matrix(np.eye(3, 4))[None, :]).reshape(9, 16)
_EYE4 = np.eye(4)


def build_data_matrix(c):
    """Assemble the 4x4 Wahba data matrix; empty input gives zeros. It is exactly symmetric
    as built: columns 4i+j and 4j+i of _PROFILE_TO_A are equal, so A[i, j] = A[j, i] bitwise."""
    w = c.w[:, None]
    wu, wv = w * c.u, w * c.v
    B = wv.T @ c.u
    s = np.vdot(wu, c.u) + np.vdot(wv, c.v)
    return s * _EYE4 + 2.0 * (B.reshape(9) @ _PROFILE_TO_A).reshape(4, 4)


def solve_wahba(c):
    """Optimal unit quaternion (canonical sign) for the correspondence set.

    Raises DegenerateEigenspace when the observations do not pin down a
    unique rotation (e.g. all u collinear).
    """
    q, _ = qcqp_solve(build_data_matrix(c))
    return q


def sample_unit_sphere(n, rng):
    """n points uniform on S^2 via normalized 3-D Gaussians."""
    x = rng.standard_normal((n, 3))
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def sample_rotations(n, phi_max, rng):
    """(R, q): n rotations (n, 3, 3) and their canonical-sign quaternions (n, 4).

    Each turns by an angle U[0, phi_max) about a Gaussian-random axis; rng
    draws the n axes, then the n angles. R is quat_to_rot(q), bit for bit.
    """
    a = sample_unit_sphere(n, rng)
    phi = rng.uniform(0.0, phi_max, n)
    q = np.empty((n, 4))
    q[:, :3] = np.sin(0.5 * phi)[:, None] * a
    q[:, 3] = np.cos(0.5 * phi)
    q = canonicalize_quat(q)
    return quat_to_rot(q), q


@np.errstate(over="ignore")  # noise that overflows fails Correspondences' checks, without warnings first
def sample_synthetic(cfg):
    """Draw (R_hat, correspondences) from the generative model.

    Deterministic for a fixed cfg.seed. Per-pair sigma is cfg.sigma, or 1.0
    in the noiseless case (weights must stay positive; uniform weights do
    not change the optimum).
    """
    rng = rng_for(cfg.seed)
    (R_hat,), _ = sample_rotations(1, cfg.phi_max, rng)
    u = sample_unit_sphere(cfg.num_matches, rng)
    v = u @ R_hat.T
    if cfg.sigma > 0:
        v = v + cfg.sigma * rng.standard_normal(v.shape)
    sigma = np.full(cfg.num_matches, cfg.sigma if cfg.sigma > 0 else 1.0)
    return R_hat, Correspondences(u=u, v=v, sigma=sigma)


# Test-time corruptions of a correspondence set; nn.sample_batch applies them.
CORRUPTIONS = ("none", "noise", "shuffle", "zero")


CSV_FIELDS = ["ux", "uy", "uz", "vx", "vy", "vz", "sigma"]


class InputError(ValueError):
    """Bad outside input (file, line or config key), named in the message; the CLI exits 2."""

    @classmethod
    def at(cls, path, line, problem):
        """The error for a fault on `line` of the file at `path`."""
        return cls(f"{path}: line {line}: {problem}")


def _read_csv_table(path, headers):
    """(header, data, lines) of a CSV file: data holds one row of finite floats per data line,
    one per header field, and lines[i] is the file line of data[i].

    Blank lines and lines starting with `#` are skipped; the first other line is the header,
    which must be one of `headers`. Every fault raises InputError naming the file and line.
    """
    header, rows, lines = None, [], []
    with open(path, newline="") as fh:
        try:
            for line, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if header is None:
                    header = [f.strip() for f in row]
                    if header not in headers:
                        expected = " or ".join(map(",".join, headers))
                        raise InputError.at(path, line, f"expected header {expected}, got {header!r}")
                    continue
                if len(row) != len(header):
                    raise InputError.at(path, line, f"expected {len(header)} columns, got {len(row)}")
                try:
                    vals = [float(f) for f in row]
                except ValueError as exc:
                    raise InputError.at(path, line, exc) from None
                if not all(map(math.isfinite, vals)):
                    name, x = next((n, x) for n, x in zip(header, vals) if not math.isfinite(x))
                    raise InputError.at(path, line, f"{name} must be finite, got {x}")
                rows.append(vals)
                lines.append(line)
        except (csv.Error, UnicodeDecodeError) as exc:
            raise InputError(f"{path}: not a CSV text file: {exc}") from None
    if header is None:
        raise InputError.at(path, 1, "missing header row")
    return header, np.array(rows, dtype=float).reshape(-1, len(header)), lines


def read_correspondences_csv(path):
    """Parse a correspondence CSV (header ux,uy,uz,vx,vy,vz,sigma)."""
    _, data, lines = _read_csv_table(path, [CSV_FIELDS])
    u, v, sigma = data[:, 0:3], data[:, 3:6], data[:, 6]
    fault = pair_fault(u, v, sigma)
    if fault:
        raise InputError.at(path, lines[fault[0]], fault[1])
    return Correspondences(u=u, v=v, sigma=sigma)


def write_correspondences_csv(path, c):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_FIELDS)
        for i in range(len(c)):
            writer.writerow([repr(float(x)) for x in (*c.u[i], *c.v[i], c.sigma[i])])
