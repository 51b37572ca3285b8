"""Dense rotation regressor with hand-written reverse-mode gradients.

The network maps flattened correspondence pairs (u_i, v_i) to a raw head
input, which one of three interchangeable heads turns into a rotation:

- "quat": normalize a 4-vector onto the unit sphere;
- "6d":   Gram-Schmidt two 3-vectors into a rotation matrix;
- "A":    fill a symmetric 4x4 matrix from a 10-vector and extract its
          minimum eigenvector through the differentiable QCQP layer
          (this head also exposes a dispersion trace per sample).

Losses (squared quaternion, chordal, angular distances), Adam, and the
synthetic training protocol live here as well. Everything works on batches:
`forward` takes (B, d_0) rows, and heads and losses have one batched
implementation each (`head_forward`, `head_backward`, `loss_eval`).
`head_forward` reports degenerate samples in a `valid` mask instead of
raising. Everything is plain numpy and deterministic for a fixed seed.
"""

import functools
import itertools
import json
import math
import numbers
import zipfile
import zlib
from dataclasses import dataclass, asdict
from typing import ClassVar

import numpy as np

from . import so3
from .bingham import _quantile, dispersion_trace, dt_classify, dt_fit
from .symrep import qcqp_forward, qcqp_vjp, theta_to_A, theta_to_A_adjoint
from .wahba import CORRUPTIONS, InputError, rng_for, sample_rotations

HEAD_DIMS = {"quat": 4, "6d": 6, "A": 10}
HEADS = tuple(HEAD_DIMS)
LOSSES = ("quat", "chord", "ang")

LEAKY_SLOPE = 0.01

# Rows per block of the in-place leaky ReLU and its backward mask. Each pass holds one scratch
# block of _ROW_BLOCK x width floats instead of a second full-size activation: 128 KiB at the
# default 128-wide layer, which stays in cache and, unlike a fresh 2000-row temporary, does
# not page-fault on every call. A 100-row training batch is still one block. Blocking keeps
# every bit, since both passes are elementwise.
_ROW_BLOCK = 128

# Inclusive (lo, hi) of the integer config keys; hidden_widths bounds each entry, and
# MAX_HIDDEN_LAYERS their count. The upper bounds keep a typo from asking for gigabytes: with
# one key at its bound and the others at their defaults, a one-epoch run peaks under 200 MB
# (several keys at their bounds still can ask for more). train holds one net at a time, so
# trials costs no memory. A training step holds every layer's output for backward, plus one
# row block (_ROW_BLOCK) for the leaky ReLU and its mask; scoring (test sets, dt-eval) holds
# no cache, only two adjacent layers at a time. Measured peaks: trials 1000 with epochs 0,
# 42 MB; hidden_widths [128] * 32 with epochs 1, 63 MB, and with epochs 0, head A and 30
# trials, 54 MB.
SIZE_BOUNDS = {"epochs": (0, 10_000), "trials": (1, 1000), "batch_rotations": (1, 10_000),
               "matches_per_rotation": (1, 1000), "test_rotations": (1, 10_000),
               "batches_per_epoch": (1, 1000), "hidden_widths": (1, 1024)}
MAX_HIDDEN_LAYERS = 32

# Largest sigma a config may set. sample_batch's "noise" corruption adds 100 sigma z, with
# |z| < 14 from numpy's normal sampler (the Ziggurat tail stops at 3.66 + 36.8 / 3.66 for a
# 53-bit uniform), and normalising sums three squares: 3 (1400 sigma)^2 ~ 6e206 at 1e100, far
# below the float64 maximum 1.8e308. Past ~5e150 the squares overflow and v turns to zeros.
MAX_SIGMA = 1e100

DT_REFERENCE = 1000  # in-distribution samples dt_evaluate fits its threshold to by default

# Substream tags hung off (seed, trial) for independent draws.
_STREAM_INIT = 0
_STREAM_LR = 1
_STREAM_TEST = 2
_STREAM_TRAIN = 3


# ---------------------------------------------------------------------------
# Dense network


@dataclass
class DenseNet:
    """Fully-connected net; weights[l] is (d_out, d_in). Hidden layers are leaky-ReLU, the last linear."""

    weights: list
    biases: list

    def params(self):
        return [p for W_b in zip(self.weights, self.biases) for p in W_b]


def layer_dims(cfg, head):
    """Widths of the net train builds for head: the input, each hidden layer, the head's output."""
    return [6 * cfg.matches_per_rotation, *cfg.hidden_widths, HEAD_DIMS[head]]


def init_net(dims, rng):
    """Uniform fan-in initialization of a DenseNet with layer widths dims."""
    weights, biases = [], []
    for d_in, d_out in zip(dims, dims[1:]):
        s = 1.0 / np.sqrt(d_in)
        weights.append(rng.uniform(-s, s, size=(d_out, d_in)))
        biases.append(rng.uniform(-s, s, size=d_out))
    return DenseNet(weights, biases)


def _row_blocks(z):
    """(rows, scratch) for each _ROW_BLOCK-row slice of a 2-D z; every scratch is a view of one
    buffer, shaped like z[rows]."""
    buf = np.empty((min(len(z), _ROW_BLOCK), z.shape[1]))
    for i in range(0, len(z), _ROW_BLOCK):
        yield slice(i, i + _ROW_BLOCK), buf[:len(z) - i]


def _leaky_relu_(z):
    """z = max(z, LEAKY_SLOPE z) in place, a row block at a time."""
    for rows, s in _row_blocks(z):
        r = z[rows]
        np.multiply(r, LEAKY_SLOPE, out=s)
        np.maximum(r, s, out=r)


def _layer(a, W, b, hidden):
    """One dense layer on a (B, d_in) batch: a @ W.T + b, leaky-ReLU'd in place if hidden."""
    z = a @ W.T
    z += b
    if hidden:
        _leaky_relu_(z)
    return z


def _net_input(net, x):
    a = np.asarray(x, dtype=float)
    d_0 = net.weights[0].shape[1]
    if a.ndim != 2 or a.shape[1] != d_0:
        raise ValueError(f"input shape {a.shape} is not (B, {d_0})")
    return a


def forward(net, x):
    """Run the net on a (B, d_0) batch; returns (raw, cache) with what backward needs."""
    a = _net_input(net, x)
    last = len(net.weights) - 1
    cache = []
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = _layer(a, W, b, l < last)
        cache.append((a, z))
        a = z
    return a, cache


def _infer(net, x, where):
    """forward(net, x)[0] without the cache, for scoring; a non-finite output raises
    FloatingPointError naming `where`.

    x is rebound to each layer's output in turn, so the pass holds at most two adjacent
    layers: a batch the caller hands over without keeping it goes once layer 0 has run.
    """
    x = _net_input(net, x)
    last = len(net.weights) - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        x = _layer(x, W, b, l < last)
    return _check_finite(x, where)


def backward(net, cache, grad_raw):
    """Backpropagate grad wrt raw output; returns [(dW, db), ...] per layer.

    cache[l] is (input, output) of layer l as forward left it: the output after
    the activation, not the pre-activation. With a positive slope, output > 0
    exactly where the pre-activation is > 0 (signed zeros and NaN included), so
    the leaky-ReLU mask reads the output. grad_raw is not written.
    """
    g = np.asarray(grad_raw, dtype=float)
    grads = [None] * len(net.weights)
    for l in range(len(net.weights) - 1, -1, -1):
        a_prev, a = cache[l]
        if l < len(net.weights) - 1:  # g is a fresh product here, so scaling it in place is safe
            _leaky_mask_(g, a)
        grads[l] = (g.T @ a_prev, g.sum(axis=0))
        if l:  # the gradient wrt the net input is never used
            g = g @ net.weights[l]
    return grads


def _leaky_mask_(g, a):
    """g *= where(a > 0, 1.0, LEAKY_SLOPE) in place, a row block at a time.

    The factor is max(a > 0, LEAKY_SLOPE): the comparison writes exactly 1.0 or 0.0 into the
    scratch block, so the maximum is exactly 1.0 or LEAKY_SLOPE.
    """
    for rows, s in _row_blocks(g):
        np.greater(a[rows], 0.0, out=s)
        np.maximum(s, LEAKY_SLOPE, out=s)
        g[rows] *= s


# ---------------------------------------------------------------------------
# Representation heads


def _grad_R_to_grad_q(q, grad_R):
    """Pull a gradient wrt quat_to_rot(q) back to q (ambient polynomial derivative).

    For q = (v, w), quat_to_rot is (1 - 2|v|^2) I + 2 v v^T + 2 w [v]x. With
    G = grad_R, S = G + G^T and d = vee(G - G^T), the pullback is
    grad_v = 2 S v - 4 tr(G) v + 2 w d and grad_w = 2 v . d.
    """
    x, y, z, w = (q[..., i] for i in range(4))
    g = grad_R
    s01, s02, s12 = g[..., 0, 1] + g[..., 1, 0], g[..., 0, 2] + g[..., 2, 0], g[..., 1, 2] + g[..., 2, 1]
    d0, d1, d2 = g[..., 2, 1] - g[..., 1, 2], g[..., 0, 2] - g[..., 2, 0], g[..., 1, 0] - g[..., 0, 1]
    g00, g11, g22 = g[..., 0, 0], g[..., 1, 1], g[..., 2, 2]
    out = np.empty(q.shape)
    out[..., 0] = 2.0 * (y * s01 + z * s02 + w * d0) - 4.0 * x * (g11 + g22)
    out[..., 1] = 2.0 * (x * s01 + z * s12 + w * d1) - 4.0 * y * (g00 + g22)
    out[..., 2] = 2.0 * (x * s02 + y * s12 + w * d2) - 4.0 * z * (g00 + g11)
    out[..., 3] = 2.0 * (x * d0 + y * d1 + z * d2)
    return out


def _unit(v):
    """(v / n, n, valid) over the last axis: valid is n >= 1e-9, and n is 1.0 where it is not."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    valid = n[..., 0] >= 1e-9
    n[~valid] = 1.0
    return v / n, n, valid


def _unit_backward(u, n, g):
    # d(v/||v||) = (I - u u^T) / ||v||, with u and the safe norm n from _unit
    return (g - u * np.sum(u * g, axis=-1, keepdims=True)) / n


def head_forward(head, raw):
    """Head readout of a (B, d) batch: (q, R, aux, valid).

    The quat and A heads differ only in how raw becomes a unit q (normalization, or
    the QCQP minimum eigenvector of theta_to_A(raw)); both read R = quat_to_rot(q).
    The 6d head builds R itself, and its q is None: no loss or backward it runs reads
    it. aux is the forward state head_backward reads: the quat head's safe norm, the
    6d head's Gram-Schmidt frame, or the A head's EigenDecomp4, whose dispersion_trace
    is the OOD score. valid is False where the input is degenerate; q and R are the
    identity there. ValueError on an unknown head or a width not d.
    """
    if head not in HEAD_DIMS:
        raise ValueError(f"unknown head {head!r}")
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != HEAD_DIMS[head]:
        raise ValueError(f"head {head!r} expects (B, {HEAD_DIMS[head]}) input, got {raw.shape}")
    if head == "6d":
        # Gram-Schmidt: R's columns are b1 = a1/n1, b2 = u2/n2 with u2 = a2 - p b1 and
        # p = b1 . a2, and b1 x b2; aux = (a2, b1, b2, n1, n2, p) is what head_backward reads.
        # valid is False where n1 or n2 is below 1e-9; R is the identity there.
        a1, a2 = raw[:, :3], raw[:, 3:]
        b1, n1, valid1 = _unit(a1)
        p = np.sum(b1 * a2, axis=-1, keepdims=True)
        b2, n2, valid2 = _unit(a2 - p * b1)
        valid = valid1 & valid2
        R = np.stack([b1, b2, np.cross(b1, b2)], axis=-1)
        return None, np.where(valid[:, None, None], R, np.eye(3)), (a2, b1, b2, n1, n2, p), valid
    q, aux, valid = _unit(raw) if head == "quat" else qcqp_forward(theta_to_A(raw))
    q = np.where(valid[..., None], q, np.array([0.0, 0.0, 0.0, 1.0]))
    return q, so3.quat_to_rot(q), aux, valid


def head_backward(head, q, aux, grad_q, grad_R):
    """Gradient wrt raw from upstream gradients wrt q and/or R, at head_forward's q and aux.

    The 6d head reads grad_R only. Only meaningful where head_forward reports valid, but every
    head maps a zero upstream to a zero gradient on every row, degenerate ones included.
    """
    if grad_R is not None and head != "6d":
        extra = _grad_R_to_grad_q(q, grad_R)
        grad_q = extra if grad_q is None else grad_q + extra
    if head == "quat":
        return _unit_backward(q, aux, grad_q)
    if head == "6d":
        a2, b1, b2, n1, n2, p = aux
        g1 = grad_R[..., :, 0]
        g2 = grad_R[..., :, 1]
        g3 = grad_R[..., :, 2]
        # b3 = b1 x b2: <g3, db1 x b2> = <b2 x g3, db1>, <g3, b1 x db2> = <g3 x b1, db2>
        gb1 = g1 + np.cross(b2, g3)
        gb2 = g2 + np.cross(g3, b1)
        gu2 = _unit_backward(b2, n2, gb2)
        # u2 = a2 - (b1.a2) b1
        ga2 = gu2 - b1 * np.sum(b1 * gu2, axis=-1, keepdims=True)
        gb1 = gb1 - a2 * np.sum(b1 * gu2, axis=-1, keepdims=True) - p * gu2
        ga1 = _unit_backward(b1, n1, gb1)
        return np.concatenate([ga1, ga2], axis=-1)
    if head == "A":
        return theta_to_A_adjoint(qcqp_vjp(aux, q, grad_q))
    raise ValueError(f"unknown head {head!r}")


# ---------------------------------------------------------------------------
# Losses


def loss_eval(kind, q, R, q_gt, R_gt):
    """Per-sample losses of a batch and their upstream gradients (loss, grad_q, grad_R)."""
    if kind == "quat":
        dot = np.sum(q * q_gt, axis=-1)
        s = np.where(dot < 0, -1.0, 1.0)[..., None]
        diff = q - s * q_gt
        loss = np.sum(diff * diff, axis=-1)
        return loss, 2.0 * diff, None
    if kind == "chord":
        diff = R - R_gt
        loss = np.sum(diff * diff, axis=(-2, -1))
        return loss, None, 2.0 * diff
    if kind == "ang":
        theta = so3.d_ang(R, R_gt)
        loss = theta * theta
        # -(theta/sin(theta)) R_gt, with the magnitude clamped approaching pi
        # (tangentially this is the chordal direction) and the zero subgradient
        # at the endpoints where Log is non-differentiable.
        sin_floor = np.sin(np.pi - 1e-6)
        factor = -theta / np.maximum(np.sin(theta), sin_floor)
        factor = np.where((theta < 1e-12) | (theta > np.pi - 1e-12), 0.0, factor)
        return loss, None, factor[..., None, None] * R_gt
    raise ValueError(f"unknown loss {kind!r}")


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    lr: float
    step: int = 0
    m: list = None
    v: list = None
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8


def adam_init(params, lr):
    return AdamState(lr=lr, step=0, m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(state, params, grads):
    """One bias-corrected Adam update; mutates state and updates params in place.

    The bias corrections are folded into the step size and epsilon, as in Kingma & Ba
    (2015, section 2): p - lr_t m / (sqrt(v) + eps_t), with lr_t = lr sqrt(1 - b2^t) / (1 - b1^t)
    and eps_t = eps sqrt(1 - b2^t). That is lr mhat / (sqrt(vhat) + eps) up to rounding.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    root = math.sqrt(1 - b2 ** t)
    lr_t = state.lr * root / (1 - b1 ** t)
    eps_t = state.eps * root
    for p, g, m, v in zip(params, grads, state.m, state.v):
        # m = b1 m + (1 - b1) g and v = b2 v + ((1 - b2) g) g, in place
        s = np.multiply(g, 1 - b1)
        m *= b1
        m += s
        np.multiply(g, 1 - b2, out=s)
        s *= g
        v *= b2
        v += s
        # p -= lr_t m / (sqrt(v) + eps_t), with s as the denominator
        np.sqrt(v, out=s)
        s += eps_t
        step = np.multiply(m, lr_t)
        step /= s
        p -= step


# ---------------------------------------------------------------------------
# Training protocol


@dataclass
class TrainConfig:
    """Synthetic rotation-regression experiment settings.

    lr = None samples a per-trial rate log-uniformly from lr_range.
    head may be one of HEADS, a list of them, or "all".
    An epoch is batches_per_epoch mini-batches of batch_rotations freshly
    sampled rotations; the test set is fixed per trial.
    """

    seed: int = 0
    lr: float = None
    epochs: int = 50
    batch_rotations: int = 100
    matches_per_rotation: int = 10
    phi_max_deg: float = 180.0
    sigma: float = 0.01
    head: object = "all"
    loss: str = "chord"
    hidden_widths: tuple = (128, 128)
    trials: int = 10
    test_rotations: int = 300
    lr_range: tuple = (1e-4, 1e-3)
    batches_per_epoch: int = 5

    def __post_init__(self):
        """Check the type and range of every setting; errors name the key."""
        def require(key, ok, what):
            if not ok:
                raise InputError(f"{key} must be {what}, got {getattr(self, key)!r}")

        def number(x, kind=numbers.Real):  # bool is an int, but not a number here
            return isinstance(x, kind) and not isinstance(x, bool)

        def integer(x, lo, hi=np.inf):
            return number(x, numbers.Integral) and lo <= x <= hi

        require("seed", integer(self.seed, 0), "an integer >= 0")
        for key, (lo, hi) in SIZE_BOUNDS.items():
            if key != "hidden_widths":
                require(key, integer(getattr(self, key), lo, hi), f"an integer in [{lo}, {hi}]")
        widths, lo_hi = self.hidden_widths, self.lr_range
        lo, hi = SIZE_BOUNDS["hidden_widths"]
        if isinstance(widths, (list, tuple)) and len(widths) > MAX_HIDDEN_LAYERS:
            raise InputError(f"hidden_widths must have at most {MAX_HIDDEN_LAYERS} entries, "
                             f"got {len(widths)}")
        require("hidden_widths", isinstance(widths, (list, tuple))
                and all(integer(w, lo, hi) for w in widths), f"a list of integers in [{lo}, {hi}]")
        require("lr", self.lr is None or number(self.lr) and 0.0 <= self.lr < np.inf,
                "null or finite and >= 0")
        require("lr_range", isinstance(lo_hi, (list, tuple)) and len(lo_hi) == 2
                and all(map(number, lo_hi)) and 0.0 < lo_hi[0] <= lo_hi[1] < np.inf,
                "a finite [lo, hi] with 0 < lo <= hi")
        require("phi_max_deg", number(self.phi_max_deg) and 0.0 < self.phi_max_deg <= 180.0,
                "in (0, 180]")
        require("sigma", number(self.sigma) and 0.0 <= self.sigma <= MAX_SIGMA,
                f"in [0, {MAX_SIGMA:g}]")
        require("loss", self.loss in LOSSES, f"one of {LOSSES}")
        self.heads()

    def heads(self):
        """The heads to train, in order; InputError on a bad or repeated head or head/loss pair."""
        h = self.head
        h = list(HEADS) if h == "all" else [h] if isinstance(h, str) else h
        if not (isinstance(h, (list, tuple)) and h and all(name in HEADS for name in h)
                and len(set(h)) == len(h)):
            raise InputError(f"head must be 'all', one of {HEADS} or a non-empty list of them "
                             f"without repeats, got {self.head!r}")
        for name in h:
            _check_head_loss(name, self.loss)
        return list(h)

    @classmethod
    def from_dict(cls, d, **defaults):
        """Config from a JSON object; keys it lacks take `defaults`, then the field defaults."""
        if not isinstance(d, dict):
            raise InputError(f"config must be a JSON object, got {type(d).__name__}")
        d = {**defaults, **d}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        for key in ("hidden_widths", "lr_range"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        return cls(**d)

    @classmethod
    def from_json(cls, path, **defaults):
        """from_dict of a JSON file; any fault raises InputError naming the file."""
        with open(path) as fh:
            try:
                return cls.from_dict(json.load(fh), **defaults)
            except (ValueError, RecursionError) as exc:  # InputError, not JSON text, nested too deep
                raise InputError(f"{path}: {exc}") from None


def _check_head_loss(head, loss):
    """Raise InputError when `loss` cannot train `head`."""
    if loss == "quat" and head == "6d":
        raise InputError("loss 'quat' is not differentiable through head '6d'; use chord or ang")


@dataclass(frozen=True)
class EpochRow:
    trial: int
    seed: int
    lr: float
    epoch: int
    split: str
    head: str
    mean_deg: float
    median_deg: float
    p10_deg: float
    p90_deg: float


@dataclass
class TrialResult:
    head: str
    trial: int
    rows: list
    net: DenseNet
    degenerate_count: int


def reference_vectors(m):
    """m fixed, well-spread unit directions (Fibonacci sphere lattice).

    The regression task observes rotated-and-noised images of these fixed
    reference directions; keeping them fixed makes the input manifold small
    enough that all heads train to low error within the short protocol.
    """
    i = np.arange(m) + 0.5
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * i / m
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(golden * i), r * np.sin(golden * i), z], axis=-1)


@functools.lru_cache(maxsize=None)
def _fixed_reference_vectors(m):
    """reference_vectors(m), computed once per m and shared read-only."""
    u = reference_vectors(m)
    u.flags.writeable = False
    return u


def sample_batch(cfg, rng, n_rotations, corruption="none"):
    """(x, q_gt, R_gt): flattened pairs, quaternion and matrix targets.

    v_i = R u_i + sigma * eps, unit-normalized afterwards (observations are
    directions, so corruption cannot signal itself through amplitude).
    Corruptions model test-time OOD inputs: "noise" inflates sigma 100x,
    "shuffle" permutes the v_i against the u_i (whole vectors, one permutation
    per rotation), "zero" blanks a random half of the pairs. Row k of x is
    (u_1, v_1, ..., u_m, v_m) of rotation k.
    """
    if corruption not in CORRUPTIONS:
        raise ValueError(f"unknown corruption {corruption!r}; choose from {CORRUPTIONS}")
    n = n_rotations
    m = cfg.matches_per_rotation
    R_gt, q_gt = sample_rotations(n, np.deg2rad(cfg.phi_max_deg), rng)
    ref = _fixed_reference_vectors(m)
    # R u of the whole batch is one (3n, 3) @ (3, m) GEMM, not a 3x3 product per rotation;
    # v gets its own contiguous buffer, so noise, norm and divide walk it unstrided, and it
    # is written into x once, at the end.
    Ru = (R_gt.reshape(3 * n, 3) @ ref.T).reshape(n, 3, m).transpose(0, 2, 1)
    sigma = cfg.sigma * (100.0 if corruption == "noise" else 1.0)
    if sigma > 0:
        v = rng.standard_normal((n, m, 3))
        v *= sigma
        v += Ru
    else:
        v = Ru.copy()
    del Ru
    if corruption == "shuffle":
        order = rng.permuted(np.broadcast_to(np.arange(m), (n, m)), axis=1)
        v = np.take_along_axis(v, order[..., None], axis=1)
    # |v|^2 summed in np.linalg.norm's order, so to its bits, without its slow reduce
    # over an axis of length 3.
    norm = np.square(v[..., :1]) + np.square(v[..., 1:2])
    norm += np.square(v[..., 2:])
    v /= np.maximum(np.sqrt(norm, out=norm), 1e-12, out=norm)
    del norm
    x = np.empty((n, m, 6))
    x[..., :3] = ref
    x[..., 3:] = v
    if corruption == "zero":
        x[rng.random((n, m)) < 0.5] = 0.0
    return x.reshape(n, 6 * m), q_gt, R_gt


def _stats_row(trial, seed, lr, epoch, split, head, errs_deg):
    errs = np.asarray(errs_deg, dtype=float)
    if errs.size == 0:
        mean = med = p10 = p90 = float("nan")
    else:
        mean = float(np.mean(errs))
        p10, med, p90 = (float(p) for p in _quantile(errs, (0.1, 0.5, 0.9)))
    return EpochRow(trial, seed, lr, epoch, split, head,
                    mean_deg=mean, median_deg=med, p10_deg=p10, p90_deg=p90)


def _check_finite(raw, where):
    """raw; a non-finite entry raises FloatingPointError naming `where`."""
    if not np.isfinite(raw).all():
        raise FloatingPointError(f"{where}: network output is not finite")
    return raw


def evaluate(net, head, x, R_gt, where):
    """Angular errors in degrees over the valid samples of a batch; a non-finite net output raises."""
    _, R, _, valid = head_forward(head, _infer(net, x, where))
    return np.rad2deg(so3.d_ang(R, R_gt))[valid]


def _train_step(net, state, head, loss, batch, where):
    """One Adam step on the mean loss over the valid samples of an (x, q_gt, R_gt) batch (none
    valid: no step); returns (errors_deg, degenerate), the valid samples' angular errors in degrees
    before the step and the count of the others. A non-finite net output raises naming `where`."""
    x, q_gt, R_gt = batch
    raw, cache = forward(net, x)
    q, R, aux, valid = head_forward(head, _check_finite(raw, where))
    n_valid = int(valid.sum())
    if n_valid:
        _, gq, gR = loss_eval(loss, q, R, q_gt, R_gt)
        # Mean over valid samples: a degenerate one's zero upstream stays zero in head_backward.
        scale = (valid / n_valid)
        if gq is not None:
            gq = gq * scale[..., None]
        if gR is not None:
            gR = gR * scale[..., None, None]
        grad_raw = head_backward(head, q, aux, gq, gR)
        grads = backward(net, cache, grad_raw)
        adam_step(state, net.params(), [g for dW_db in grads for g in dW_db])
    return np.rad2deg(so3.d_ang(R, R_gt))[valid], valid.size - n_valid


@np.errstate(over="ignore", invalid="ignore")  # divergence raises below, without warnings first
def train_single(cfg, head, trial=0):
    """Train one head for one trial; returns a TrialResult. Divergence raises FloatingPointError.

    Epoch 0 scores the untrained net on one training batch and on the test set. Each later epoch
    runs _train_step on its batches_per_epoch batches. Each epoch gives a train row, then a test
    row."""
    _check_head_loss(head, cfg.loss)
    lr = cfg.lr
    if lr is None:
        lo, hi = cfg.lr_range
        lr = float(10.0 ** rng_for(cfg.seed, trial, _STREAM_LR).uniform(np.log10(lo), np.log10(hi)))
    net = init_net(layer_dims(cfg, head), rng_for(cfg.seed, trial, _STREAM_INIT))
    test_x, _, test_R = sample_batch(cfg, rng_for(cfg.seed, trial, _STREAM_TEST), cfg.test_rotations)
    state = adam_init(net.params(), lr)
    rows, degenerate = [], 0
    for epoch in range(cfg.epochs + 1):
        at = f"training diverged at head {head}, trial {trial}, epoch {epoch}"
        epoch_errs = []
        for batch in range(cfg.batches_per_epoch if epoch else 1):
            rng = rng_for(cfg.seed, trial, _STREAM_TRAIN, epoch, batch)
            data = sample_batch(cfg, rng, cfg.batch_rotations)
            where = f"{at}, batch {batch}"
            if epoch:
                errs, n_degenerate = _train_step(net, state, head, cfg.loss, data, where)
            else:  # scored only, by the cache-free pass
                errs, n_degenerate = evaluate(net, head, data[0], data[2], where), 0
            epoch_errs.append(errs)
            degenerate += n_degenerate
        rows.append(_stats_row(trial, cfg.seed, lr, epoch, "train", head, np.concatenate(epoch_errs)))
        rows.append(_stats_row(trial, cfg.seed, lr, epoch, "test", head,
                               evaluate(net, head, test_x, test_R, f"{at}, test set")))
    return TrialResult(head=head, trial=trial, rows=rows, net=net, degenerate_count=degenerate)


def train_experiment(cfg):
    """Yield each trial's TrialResult as the trial ends: trials 0 .. cfg.trials - 1 of each head
    in cfg.heads() in turn. A yielded trial is not kept, so its net goes once the caller drops it."""
    for head in cfg.heads():
        for trial in range(cfg.trials):
            yield train_single(cfg, head, trial)


# ---------------------------------------------------------------------------
# Dispersion-thresholding evaluation


@dataclass
class DTReport:
    """Outcome of dispersion thresholding on a clean/corrupted test mix.

    precision is the fraction of corrupted samples that were rejected, or
    None when it is undefined (q >= 1, which disables thresholding, or no
    corrupted samples).
    """

    q: float
    corruption: str
    threshold: float
    traces: np.ndarray
    errors_deg: np.ndarray
    kept: np.ndarray
    corrupted: np.ndarray
    mean_trace_clean: float
    mean_trace_corrupted: float

    @property
    def kept_fraction(self):
        return float(np.mean(self.kept))

    @property
    def precision(self):
        n_corr = int(self.corrupted.sum())
        if self.q >= 1 or n_corr == 0:
            return None
        return float((self.corrupted & ~self.kept).sum() / n_corr)

    @property
    def mean_error_full(self):
        return float(np.mean(self.errors_deg))

    @property
    def mean_error_kept(self):
        if not self.kept.any():
            return float("nan")
        return float(np.mean(self.errors_deg[self.kept]))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite output raises below, without warnings first
def dt_evaluate(net, cfg, q, corruption, rng, n_mix, n_reference=DT_REFERENCE):
    """Threshold dispersion traces at the q-quantile and score a 50/50 mix.

    The threshold comes from n_reference fresh in-distribution samples
    (the training set is dynamically resampled, so these share its
    distribution); their rotations are never read, so their traces come from
    eigenvalues alone (bingham.dispersion_trace). Half the n_mix test samples
    are corrupted; q >= 1 disables rejection entirely (every sample kept,
    precision undefined). A non-finite net output raises FloatingPointError
    naming the block.
    """
    if corruption not in CORRUPTIONS:
        raise ValueError(f"unknown corruption {corruption!r}; choose from {CORRUPTIONS}")
    n_corrupt = 0 if corruption == "none" else n_mix // 2
    n_clean = n_mix - n_corrupt
    # Reference, clean and corrupted blocks, drawn from rng in this order.
    # The reference batch goes straight into the pass, so it is freed once layer 0 has run.
    raw = _infer(net, sample_batch(cfg, rng, n_reference)[0], "dt-eval reference block")
    threshold = dt_fit(dispersion_trace(theta_to_A(raw)), min(q, 1.0))
    blocks = [(n_clean, "none", "clean")]
    if n_corrupt:
        blocks.append((n_corrupt, corruption, "corrupted"))
    traces, errors = [], []
    for n, kind, name in blocks:
        x, _, R_gt = sample_batch(cfg, rng, n, corruption=kind)
        raw = _infer(net, x, f"dt-eval {name} block")
        del x  # not held while the next block is drawn
        _, R, dec, _ = head_forward("A", raw)
        traces.append(dec.dispersion_trace)
        errors.append(np.rad2deg(so3.d_ang(R, R_gt)))
    mix = np.concatenate(traces)
    kept = dt_classify(mix, threshold) if q < 1.0 else np.ones(n_mix, dtype=bool)
    return DTReport(q=q, corruption=corruption, threshold=threshold, traces=mix,
                    errors_deg=np.concatenate(errors), kept=kept,
                    corrupted=np.arange(n_mix) >= n_clean,
                    mean_trace_clean=float(np.mean(traces[0])),
                    mean_trace_corrupted=float(np.mean(traces[1])) if n_corrupt else float("nan"))


# ---------------------------------------------------------------------------
# Last-layer structure


def last_layer_decompose(W, b, gamma):
    """Split the final linear layer into symmetric-matrix bases.

    Returns ({A(w_i)}, A(b), sum_i A(w_i) gamma_i + A(b)); the combination
    equals theta_to_A(W @ gamma + b) exactly by linearity.
    """
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if W.ndim != 2 or W.shape[0] != 10:
        raise ValueError(f"W must be (10, N), got {W.shape}")
    if b.shape != (10,):
        raise ValueError(f"b must be a 10-vector, got {b.shape}")
    if gamma.shape != (W.shape[1],):
        raise ValueError(f"gamma must have length {W.shape[1]}, got {gamma.shape}")
    bases = theta_to_A(W.T)
    bias_A = theta_to_A(b)
    return list(bases), bias_A, np.tensordot(gamma, bases, axes=1) + bias_A


# ---------------------------------------------------------------------------
# Model persistence (format v1: npz with a JSON meta entry)

MODEL_FORMAT = "so3sym-model-v1"


def _activations(n_layers):
    """The activation names a model file lists: leaky_relu per hidden layer, then linear."""
    return ["leaky_relu"] * (n_layers - 1) + ["linear"]


def save_model(path, net, head, config):
    meta = {"format": MODEL_FORMAT, "head": head, "activations": _activations(len(net.weights)),
            "config": asdict(config)}
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"W{l}"] = W
        arrays[f"b{l}"] = b
    np.savez(path, **arrays)


def _check_model(shapes, head, cfg, activations):
    """Raise ValueError unless the (W_l, b_l) shapes are the ones layer_dims(cfg, head) gives
    and activations lists the one pattern train writes."""
    if head not in HEADS:
        raise ValueError(f"head {head!r} is not one of {HEADS}")
    dims = layer_dims(cfg, head)
    given = f"the config and head {head!r} give layer widths {dims}"
    if len(shapes) != len(dims) - 1:
        raise ValueError(f"{len(shapes)} layers, but {given}")
    for l, (W, b) in enumerate(shapes):
        if W != (dims[l + 1], dims[l]) or b != (dims[l + 1],):
            raise ValueError(f"W{l} {W} and b{l} {b} are not ({dims[l + 1]}, {dims[l]}) "
                             f"and ({dims[l + 1]},): {given}")
    want = _activations(len(dims) - 1)
    if activations != want:
        raise ValueError(f"activations must be {want}, got {activations!r}")


def _npy_header(data, key):
    """(shape, dtype) of npz member key, read from its .npy header alone."""
    fmt = np.lib.format
    with data.zip.open(f"{key}.npy") as fh:
        # A 3.0 header is a 2.0 header in utf-8, the same bytes for a numeric dtype.
        version = fmt.read_magic(fh)
        read = fmt.read_array_header_1_0 if version == (1, 0) else fmt.read_array_header_2_0
        shape, _, dtype = read(fh)
    return shape, dtype


def load_model(path):
    """Returns (net, head, config_dict); raises InputError naming the file unless it is a
    finite real model whose config is valid and whose layers are the ones train builds.
    Shapes and dtypes are checked from the .npy headers before any array data is read."""
    try:
        with open(path, "rb") as fh, np.load(fh) as data:  # np.load(path) leaks it on a bad zip
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("format") != MODEL_FORMAT:
                raise ValueError(f"format is {meta.get('format')!r}")
            n = next(l for l in itertools.count() if f"W{l}" not in data)
            headers = [(_npy_header(data, f"W{l}"), _npy_header(data, f"b{l}")) for l in range(n)]
            kinds = sorted({dt.name for pair in headers for _, dt in pair
                            if not np.issubdtype(dt, np.floating)})
            if kinds:
                raise ValueError(f"weights are {', '.join(kinds)}, not real floating point")
            _check_model([(W[0], b[0]) for W, b in headers], meta["head"],
                         TrainConfig.from_dict(meta["config"]), meta["activations"])
            weights = [data[f"W{l}"] for l in range(n)]
            biases = [data[f"b{l}"] for l in range(n)]
        if not all(np.isfinite(a).all() for a in weights + biases):
            raise ValueError("weights are not finite")
        return DenseNet(weights, biases), meta["head"], meta["config"]
    # RuntimeError is zipfile's encrypted member, and the base of RecursionError (meta nested
    # too deep) and of NotImplementedError (an unknown compression method).
    except (ValueError, KeyError, TypeError, AttributeError, EOFError, RuntimeError,
            zlib.error, zipfile.BadZipFile) as exc:
        raise InputError(f"{path}: not a {MODEL_FORMAT} file: {exc}") from None
