"""Shared test oracles, kept independent of the library code paths they check."""

import io
import json
import zipfile

import numpy as np

from so3sym import nn, so3


def random_rotations(n, rng):
    """Uniform rotations via normalized Gaussian quaternions."""
    q = so3.random_quats(n, rng)
    return so3.quat_to_rot(q), q


def rodrigues_reference(phi):
    """exp of axis-angle phi by Rodrigues' formula I + a K + b K^2, K the cross-product matrix
    of phi, a = sin(t)/t and b = (1 - cos t)/t^2 at t = |phi|, with their second-order Taylor
    series below t = 1e-7."""
    phi = np.asarray(phi, dtype=float)
    x, y, z = phi[..., 0], phi[..., 1], phi[..., 2]
    zero = np.zeros_like(x)
    K = np.stack([np.stack(r, axis=-1) for r in [[zero, -z, y], [z, zero, -x], [-y, x, zero]]], axis=-2)
    t = np.linalg.norm(phi, axis=-1)
    small = t < 1e-7
    ts = np.where(small, 1.0, t)
    a = np.where(small, 1.0 - t * t / 6.0, np.sin(ts) / ts)
    b = np.where(small, 0.5 - t * t / 24.0, (1.0 - np.cos(ts)) / (ts * ts))
    return np.eye(3) + a[..., None, None] * K + b[..., None, None] * (K @ K)


def is_rotation(R, tol=1e-10):
    """Check R^T R = I and det R = 1 within tol (Frobenius)."""
    R = np.asarray(R, dtype=float)
    if R.shape[-2:] != (3, 3):
        return False
    err = np.linalg.norm((np.swapaxes(R, -1, -2) @ R - np.eye(3)).reshape(R.shape[:-2] + (9,)), axis=-1)
    return bool(np.all(err <= tol) and np.all(np.abs(np.linalg.det(R) - 1.0) <= tol))


def pinv4_sym(M, rank_tol=1e-12):
    """Moore-Penrose pseudo-inverse of symmetric 4x4 matrices, from np.linalg.eigh.

    Eigenvalues with |lambda| <= rank_tol * max|lambda| are treated as zero.
    """
    lams, V = np.linalg.eigh(np.asarray(M, dtype=float))
    cutoff = rank_tol * np.abs(lams).max(axis=-1, keepdims=True)
    inv = np.where(np.abs(lams) > cutoff, 1.0 / np.where(lams == 0.0, 1.0, lams), 0.0)
    return (V * inv[..., None, :]) @ np.swapaxes(V, -1, -2)


def hamilton_reference(q1, q2):
    """Hamilton product evaluated component by component (scalar-last)."""
    x1, y1, z1, w1 = q1
    x2, y2, z2, w2 = q2
    return np.array([
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
    ])


def kabsch(u, v, sigma=None):
    """Orthogonal-Procrustes rotation minimizing sum ||v - R u||^2 / sigma^2."""
    w = np.ones(len(u)) if sigma is None else 1.0 / np.asarray(sigma) ** 2
    B = np.einsum("n,ni,nj->ij", w, v, u)
    U, _, Vt = np.linalg.svd(B)
    d = np.sign(np.linalg.det(U @ Vt))
    return U @ np.diag([1.0, 1.0, d]) @ Vt


def charpoly_coeffs(A):
    """Coefficients of det(lambda I - A) by Faddeev-LeVerrier, batched.

    Returns (B, 5): p(lambda) = l^4 + c1 l^3 + c2 l^2 + c3 l + c4.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 2:
        A = A[None]
    B = A.shape[0]
    eye = np.broadcast_to(np.eye(4), A.shape)
    coeffs = np.empty((B, 5))
    coeffs[:, 0] = 1.0
    M = np.zeros_like(A)
    c = np.ones(B)
    for k in range(1, 5):
        M = A @ (M + c[:, None, None] * eye)
        c = -np.trace(M, axis1=-2, axis2=-1) / k
        coeffs[:, k] = c
    return coeffs


def _polyval(coeffs, x):
    out = np.zeros_like(x)
    for k in range(coeffs.shape[-1]):
        out = out * x + coeffs[..., k]
    return out


def _polyder(coeffs):
    n = coeffs.shape[-1] - 1
    powers = np.arange(n, 0, -1)
    return coeffs[..., :-1] * powers


def _bisect(coeffs, lo, hi, iters=120):
    """Per-row bisection for a root of the polynomial in [lo, hi]."""
    flo = _polyval(coeffs, lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = _polyval(coeffs, mid)
        same = np.sign(fm) == np.sign(flo)
        lo = np.where(same, mid, lo)
        flo = np.where(same, fm, flo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def eig4_bisection_oracle(A):
    """Eigenvalues of symmetric 4x4 matrices by characteristic-polynomial
    bisection: critical points of p bracket its roots, recursively down to
    the quadratic p'' solved in closed form. Batched; returns (B, 4) ascending.
    """
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    if single:
        A = A[None]
    p = charpoly_coeffs(A)
    dp = _polyder(p)          # cubic
    ddp = _polyder(dp)        # quadratic: 12 l^2 + 6 c1 l + 2 c2
    a, b, c = ddp[:, 0], ddp[:, 1], ddp[:, 2]
    disc = np.sqrt(np.maximum(b * b - 4 * a * c, 0.0))
    r1 = (-b - disc) / (2 * a)
    r2 = (-b + disc) / (2 * a)
    bound = 1.0 + np.linalg.norm(A.reshape(len(A), 16), axis=-1)
    lo, hi = -bound, bound
    s1 = _bisect(dp, lo, r1)
    s2 = _bisect(dp, r1, r2)
    s3 = _bisect(dp, r2, hi)
    roots = np.stack([
        _bisect(p, lo, s1),
        _bisect(p, s1, s2),
        _bisect(p, s2, s3),
        _bisect(p, s3, hi),
    ], axis=-1)
    roots = np.sort(roots, axis=-1)
    return roots[0] if single else roots


def super_fibonacci(n):
    """n low-discrepancy points on S^3 (deterministic spiral lattice)."""
    phi = np.sqrt(2.0)
    psi = 1.533751168755204288118041
    i = np.arange(n) + 0.5
    s = i / n
    r = np.sqrt(s)
    R = np.sqrt(1.0 - s)
    alpha = 2 * np.pi * i / phi
    beta = 2 * np.pi * i / psi
    return np.stack([r * np.sin(alpha), r * np.cos(alpha),
                     R * np.sin(beta), R * np.cos(beta)], axis=-1)


# Measured covering radius of the 1e5-point grid is ~4.8 deg (rotation-angle
# metric); 6 deg gives slack for the argmin displacement of smooth costs.
GRID_RESOLUTION_RAD = np.deg2rad(6.0)


def chordal_cost_at(q_candidates, quats, weights=None):
    """Brute-force weighted chordal cost via rotation matrices (no shortcuts)."""
    w = np.ones(len(quats)) if weights is None else np.asarray(weights, dtype=float)
    R_c = so3.quat_to_rot(np.asarray(q_candidates))
    R_i = so3.quat_to_rot(np.asarray(quats))
    diff = R_c[:, None, :, :] - R_i[None, :, :, :]
    return np.einsum("n,cnij->c", w, diff * diff)


def symeig4_reference(A):
    """symeig4 as first written: tolerance check, symmetrize, eigh, take_along_axis sign.

    The sign step is the quaternion rule: each column's first nonzero entry in the
    order w, x, y, z is positive. The lean readout must match it bit for bit wherever
    it accepts the input.
    """
    A = np.asarray(A, dtype=float)
    scale = np.maximum(np.abs(A).max(axis=(-2, -1)), 1.0)
    skew = np.abs(A - np.swapaxes(A, -1, -2)).max(axis=(-2, -1))
    if np.any(skew > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    lams, V = np.linalg.eigh(A)
    wxyz = V[..., [3, 0, 1, 2], :]
    idx = np.argmax(wxyz != 0.0, axis=-2)
    picked = np.take_along_axis(wxyz, idx[..., None, :], axis=-2)[..., 0, :]
    return lams, V * np.where(picked < 0, -1.0, 1.0)[..., None, :]


def qcqp_forward_reference(A, gap_tol=1e-8):
    """(q, lambdas, vectors, valid) of qcqp_forward as first written, on symeig4_reference."""
    A = np.asarray(A, dtype=float)
    lams, V = symeig4_reference(A)
    fro = np.linalg.norm(A.reshape(A.shape[:-2] + (16,)), axis=-1)
    valid = lams[..., 1] - lams[..., 0] >= gap_tol * np.maximum(1.0, fro)
    return so3.canonicalize_quat(V[..., :, 0]), lams, V, valid


# Dense-net, Adam and sampling oracles: the out-of-place formulas the lean versions in nn
# replaced. The lean versions must give the same bits as these (sample_batch: within 1 ulp),
# and the oracles check their own forms against the textbook ones within the bounds stated.

# |a - b| <= ULPS_OF_ONE * eps for two orders of a 3-term dot product whose terms sum to at
# most 1 in magnitude (a unit row of R against a unit u): each order rounds within eps of it.
ULPS_OF_ONE = 2
# Adam's folded step and the textbook one differ in about ten roundings of half an ulp each;
# 3.5e7 random steps (gradients 1e-15 to 1e6, 59 steps each) reached 6 ulps.
ADAM_STEP_ULPS = 8


def forward_reference(net, x):
    """nn.forward with a fresh array per activation; cache[l] is (input, pre-activation).

    Every layer but the last is leaky-ReLU with slope 0.01; the last is linear.
    """
    a = np.asarray(x, dtype=float)
    cache = []
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T
        z += b
        cache.append((a, z))
        a = np.maximum(z, 0.01 * z) if l < len(net.weights) - 1 else z
    return a, cache


def backward_reference(net, cache, grad_raw):
    """nn.backward on a forward_reference cache, masking on the pre-activation."""
    g = np.asarray(grad_raw, dtype=float)
    grads = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        a_prev, z = cache[l]
        if l < len(net.weights) - 1:
            g = np.where(z > 0, g, 0.01 * g)
        grads[l] = (g.T @ a_prev, g.sum(axis=0))
        g = g @ net.weights[l]
    return grads


def adam_step_reference(state, params, grads):
    """Adam that rebinds state.m and state.v to new arrays, stepping in Kingma & Ba's efficient
    order: p - lr_t m / (sqrt(v) + eps_t), lr_t = lr sqrt(1 - b2^t) / (1 - b1^t), eps_t = eps
    sqrt(1 - b2^t). Each step is checked within ADAM_STEP_ULPS of the textbook bias-corrected
    step lr mhat / (sqrt(vhat) + eps)."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    lr_t = state.lr * np.sqrt(1 - b2 ** t) / (1 - b1 ** t)
    eps_t = state.eps * np.sqrt(1 - b2 ** t)
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        step = state.m[i] * lr_t / (np.sqrt(state.v[i]) + eps_t)
        mhat = state.m[i] / (1 - b1 ** t)
        vhat = state.v[i] / (1 - b2 ** t)
        np.testing.assert_array_max_ulp(step, state.lr * mhat / (np.sqrt(vhat) + state.eps),
                                        maxulp=ADAM_STEP_ULPS)
        out.append(p - step)
    return out


def sample_batch_reference(cfg, rng, n, corruption="none"):
    """nn.sample_batch with out-of-place noise, shuffle, normalisation and blanking.

    R_gt is quat_to_rot(q_gt) of the half-angle quaternion; the u block is
    reference_vectors(m); v = R u is checked within ULPS_OF_ONE ulps of 1 of einsum's sum.
    """
    from so3sym import nn
    m = cfg.matches_per_rotation
    a = rng.standard_normal((n, 3))
    a /= np.linalg.norm(a, axis=-1, keepdims=True)
    phi = rng.uniform(0.0, np.deg2rad(cfg.phi_max_deg), n)
    q_gt = np.concatenate([np.sin(0.5 * phi)[:, None] * a, np.cos(0.5 * phi)[:, None]], axis=-1)
    q_gt = so3.canonicalize_quat(q_gt)
    R_gt = so3.quat_to_rot(q_gt)
    ref = nn.reference_vectors(m)
    u = np.broadcast_to(ref, (n, m, 3))
    v = ref @ np.swapaxes(R_gt, -1, -2)
    assert np.abs(v - np.einsum("nij,nmj->nmi", R_gt, u)).max() <= ULPS_OF_ONE * np.finfo(float).eps
    sigma = cfg.sigma * (100.0 if corruption == "noise" else 1.0)
    if sigma > 0:
        v = v + sigma * rng.standard_normal(v.shape)
    if corruption == "shuffle":
        v = rng.permuted(v, axis=1)
    v = v / np.maximum(np.linalg.norm(v, axis=-1, keepdims=True), 1e-12)
    if corruption == "zero":
        blank = rng.random((n, m)) < 0.5
        u = np.where(blank[..., None], 0.0, u)
        v = np.where(blank[..., None], 0.0, v)
    x = np.concatenate([u, v], axis=-1).reshape(n, 6 * m)
    return x, q_gt, R_gt


def write_model(path, net, head, cfg, **meta):
    """Write a so3sym-model-v1 file (a path or a binary file) as the README describes it,
    without nn.save_model; `meta` replaces entries, such as activations or config."""
    meta = {"format": "so3sym-model-v1", "head": head,
            "activations": ["leaky_relu"] * (len(net.weights) - 1) + ["linear"],
            "config": vars(cfg), **meta}
    arrays = {f"{k}{l}": a for l, W_b in enumerate(zip(net.weights, net.biases)) for k, a in zip("Wb", W_b)}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def write_model_with_bare_header(path, net, head, cfg, member, shape):
    """write_model, then replace the npz member (e.g. "W0") by a lone float64 .npy header
    declaring shape: the file holds none of the data it declares, so reading it fails."""
    buf = io.BytesIO()
    write_model(buf, net, head, cfg)
    with zipfile.ZipFile(buf) as src, zipfile.ZipFile(path, "w") as out:
        for name in src.namelist():
            if name != f"{member}.npy":
                out.writestr(name, src.read(name))
        with out.open(f"{member}.npy", "w") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": tuple(shape)})


def zero_initial_nets(monkeypatch):
    """Make every net that training builds start with all weights and biases zero: the heads
    quat, 6d and A then read a zero input, which each reports degenerate for every sample."""
    init_net = nn.init_net

    def zero_net(dims, rng):
        net = init_net(dims, rng)
        for p in net.params():
            p[...] = 0.0
        return net
    monkeypatch.setattr(nn, "init_net", zero_net)
