import inspect
import weakref

import numpy as np
import pytest

from so3sym import bingham, nn, so3, symrep

from util import (adam_step_reference, backward_reference, forward_reference, is_rotation,
                  random_rotations, sample_batch_reference, write_model, write_model_with_bare_header,
                  zero_initial_nets)


# -- dense net ----------------------------------------------------------------


def test_forward_zero_weights_propagates_bias():
    net = nn.init_net([4, 3, 2], np.random.default_rng(0))
    for W in net.weights:
        W[:] = 0.0
    raw, _ = nn.forward(net, np.zeros((1, 4)))
    raw = raw[0]
    hidden = np.where(net.biases[0] > 0, net.biases[0], nn.LEAKY_SLOPE * net.biases[0])
    assert np.allclose(raw, net.weights[1] @ hidden + net.biases[1])
    assert np.allclose(raw, net.biases[1])


def test_forward_linear_net_is_matrix_product():
    # Non-negative inputs, weights and biases make every hidden pre-activation positive, where
    # the leaky-ReLU is the identity; the linear last layer passes negative outputs as they are.
    rng = np.random.default_rng(1)
    net = nn.init_net([5, 4, 3], rng)
    net.weights[0], net.biases[0] = np.abs(net.weights[0]), np.abs(net.biases[0])
    x = np.abs(rng.standard_normal((7, 5)))
    raw, _ = nn.forward(net, x)
    expect = (x @ net.weights[0].T + net.biases[0]) @ net.weights[1].T + net.biases[1]
    assert np.allclose(raw, expect) and (raw < 0).any()


def test_forward_batch_row_equivalence():
    rng = np.random.default_rng(2)
    net = nn.init_net([6, 8, 8, 4], rng)
    x = rng.standard_normal((5, 6))
    raw_batch, _ = nn.forward(net, x)
    for i in range(5):
        raw_one, _ = nn.forward(net, x[i:i + 1])
        # no cross-sample coupling; BLAS kernels may differ in the last ulp
        assert np.allclose(raw_one[0], raw_batch[i], rtol=0, atol=1e-14)


def test_forward_dim_mismatch():
    net = nn.init_net([6, 8, 4], np.random.default_rng(3))
    for x in (np.zeros((2, 5)), np.zeros(6)):  # wrong width; not a batch
        with pytest.raises(ValueError, match=r"is not \(B, 6\)"):
            nn.forward(net, x)


# -- heads ----------------------------------------------------------------------


def test_quat_head_normalizes():
    q, R, aux, valid = nn.head_forward("quat", [[0.0, 0.0, 0.0, 2.0]])
    assert np.allclose(R[0], np.eye(3))
    assert np.allclose(q[0], [0, 0, 0, 1])
    assert valid.tolist() == [True] and aux.tolist() == [[2.0]]


def test_quat_head_zero_is_invalid():
    _, R, _, valid = nn.head_forward("quat", [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    assert valid.tolist() == [False, True]
    assert np.array_equal(R[0], np.eye(3))


@pytest.mark.parametrize("head, tail", [("quat", [0, 0, 0]), ("6d", [0, 0, 0, 1, 0])])
def test_heads_draw_the_degenerate_line_at_norm_1e_9(head, tail):
    # One rule for both heads: a norm of exactly 1e-9 is valid, the next float down is not.
    rows = [[x] + tail for x in (1e-9, np.nextafter(1e-9, 0))]
    assert nn.head_forward(head, rows)[-1].tolist() == [True, False]


def test_sym_head_at_section_point():
    rng = np.random.default_rng(4)
    q = so3.random_quats(1, rng)
    raw = symrep.A_to_theta(symrep.smooth_section(q))
    _, R, dec, valid = nn.head_forward("A", raw)
    assert valid.all()
    assert so3.d_ang(R[0], so3.quat_to_rot(q[0])) < 1e-9
    assert np.isclose(dec.dispersion_trace[0], -3.0)


def test_sym_head_degenerate_is_invalid():
    _, R, _, valid = nn.head_forward("A", symrep.A_to_theta(np.eye(4))[None])
    assert valid.tolist() == [False]
    assert np.array_equal(R[0], np.eye(3))


@pytest.mark.parametrize("head, row", [("quat", np.zeros(4)), ("A", symrep.A_to_theta(np.eye(4)))])
def test_quaternion_heads_fall_back_to_the_identity_bitwise(head, row):
    q, R, _, valid = nn.head_forward(head, row[None])
    assert valid.tolist() == [False]
    assert np.array_equal(q[0], [0.0, 0.0, 0.0, 1.0]) and not np.signbit(q).any()
    assert np.array_equal(R[0], np.eye(3)) and not np.signbit(R).any()


def test_sixd_head_identity():
    _, R, _, valid = nn.head_forward("6d", [[1.0, 0, 0, 0, 1.0, 0]])
    assert valid.all() and np.allclose(R[0], np.eye(3))


def test_sixd_head_to_rot():
    _, R, _, valid = nn.head_forward("6d", [[1, 0, 0, 0, 1, 0]])
    assert valid and np.allclose(R, np.eye(3))
    rng = np.random.default_rng(14)
    s = rng.standard_normal((500, 6))
    _, R, _, valid = nn.head_forward("6d", s)
    assert valid.all() and is_rotation(R, tol=1e-9)
    # scale invariance in both inputs
    scaled = s * np.concatenate([np.full(3, 2.7), np.full(3, 0.3)])
    assert np.abs(nn.head_forward("6d", scaled)[1] - R).max() < 1e-12


def test_sixd_head_degenerate():
    # a1 near zero; a2 in span(a1)
    _, _, _, valid = nn.head_forward("6d", [[0, 0, 0, 0, 1, 0], [1, 0, 0, 2, 0, 0]])
    assert valid.tolist() == [False, False]


def test_sixd_head_matches_and_masks():
    rng = np.random.default_rng(15)
    s = rng.standard_normal((50, 6))
    s[3] = [0, 0, 0, 0, 1, 0]
    s[7] = [1, 0, 0, 2, 0, 0]
    _, R, _, valid = nn.head_forward("6d", s)
    assert valid.sum() == 48 and not valid[3] and not valid[7]
    assert np.array_equal(R[~valid], np.broadcast_to(np.eye(3), (2, 3, 3)))
    assert np.array_equal(R[valid], nn.head_forward("6d", s[valid])[1])


def valid_raws(head, rng, n):
    """n standard-normal head inputs that head_forward accepts, drawn as one batch."""
    raw = rng.standard_normal((2 * n, nn.HEAD_DIMS[head]))
    raw = raw[nn.head_forward(head, raw)[-1]][:n]
    assert len(raw) == n
    return raw


def fd_through_head(head, raw, f, h):
    """(B, d) central differences of f(q, R) -> per-sample values, wrt each raw entry.

    Every perturbed input goes through head_forward in one batch, and must be valid.
    q (None for the 6d head) is sign-aligned to the unperturbed readout and, like R,
    has the axes (B, 2, d): sample, sign of the step, perturbed entry.
    """
    B, d = raw.shape
    steps = h * np.stack([np.eye(d), -np.eye(d)])
    q, R, _, valid = nn.head_forward(head, (raw[:, None, None, :] + steps).reshape(-1, d))
    assert valid.all()
    R = R.reshape(B, 2, d, 3, 3)
    if q is not None:
        q0 = nn.head_forward(head, raw)[0]
        q = q.reshape(B, 2, d, 4)
        q = q * np.where(np.sum(q * q0[:, None, None], axis=-1) >= 0, 1.0, -1.0)[..., None]
    vals = f(q, R)
    return (vals[:, 0] - vals[:, 1]) / (2 * h)


def rel_max_error(ana, fd):
    """Per-sample max |ana - fd|, relative to max(1, max |ana|)."""
    return np.abs(ana - fd).max(axis=-1) / np.maximum(1.0, np.abs(ana).max(axis=-1))


@pytest.mark.parametrize("head", ["quat", "6d", "A"])
def test_head_backward_finite_differences(head):
    rng = np.random.default_rng(5)
    n = 100
    raw = valid_raws(head, rng, n)
    up_q = rng.standard_normal((n, 4)) if head != "6d" else None
    up_R = rng.standard_normal((n, 3, 3))
    q, _, aux, _ = nn.head_forward(head, raw)
    ana = nn.head_backward(head, q, aux, up_q, up_R)

    def f(q, R):
        v = np.sum(up_R[:, None, None] * R, axis=(-2, -1))
        return v if up_q is None else v + np.sum(up_q[:, None, None] * q, axis=-1)

    assert np.all(rel_max_error(ana, fd_through_head(head, raw, f, 1e-5)) < 1e-4)


def test_quat_head_gradient_is_tangential():
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((1, 4))
    q, _, aux, _ = nn.head_forward("quat", raw)
    g = nn.head_backward("quat", q, aux, rng.standard_normal((1, 4)), None)
    assert abs(np.dot(g[0], raw[0] / np.linalg.norm(raw[0]))) < 1e-12


def test_sixd_head_scale_directions_are_null():
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((1, 6))
    _, _, frame, _ = nn.head_forward("6d", raw)
    g = nn.head_backward("6d", None, frame, None, rng.standard_normal((1, 3, 3)))[0]
    # output is invariant to scaling of a1 and of a2 separately
    assert abs(np.dot(g[:3], raw[0, :3])) < 1e-12
    assert abs(np.dot(g[3:], raw[0, 3:])) < 1e-12


def test_sym_head_shift_invariance():
    rng = np.random.default_rng(8)
    raw = rng.standard_normal(10)
    theta_eye = symrep.A_to_theta(np.eye(4))
    _, R, _, valid = nn.head_forward("A", np.stack([raw, raw + 5.0 * theta_eye]))
    assert valid.all()
    assert so3.d_ang(R[0], R[1]) < 1e-9


# -- losses ---------------------------------------------------------------------


def test_losses_zero_at_target():
    rng = np.random.default_rng(10)
    R, q = random_rotations(5, rng)
    for kind in nn.LOSSES:
        val, _, _ = nn.loss_eval(kind, q, R, q, R)
        assert np.abs(val).max() < 1e-12


def test_chord_loss_half_turn():
    R = np.diag([1.0, -1.0, -1.0])[None]
    val, _, _ = nn.loss_eval("chord", so3.rot_to_quat(R), R, np.array([[0, 0, 0, 1.0]]), np.eye(3)[None])
    assert np.isclose(val[0], 8.0)


def test_loss_identity_chord_quat():
    rng = np.random.default_rng(11)
    Ra, qa = random_rotations(100, rng)
    Rb, qb = random_rotations(100, rng)
    l_chord, _, _ = nn.loss_eval("chord", qa, Ra, qb, Rb)
    l_quat, _, _ = nn.loss_eval("quat", qa, Ra, qb, Rb)
    assert np.abs(l_chord - 2 * l_quat * (4 - l_quat)).max() < 1e-9


def test_ang_loss_zero_subgradient_at_endpoints():
    R = np.stack([np.eye(3), np.diag([1.0, -1.0, -1.0])])
    _, _, grad_R = nn.loss_eval("ang", so3.rot_to_quat(R), R, np.array([[0, 0, 0, 1.0]] * 2),
                                np.stack([np.eye(3)] * 2))
    assert np.array_equal(grad_R, np.zeros((2, 3, 3)))


@pytest.mark.parametrize("kind,head", [("quat", "quat"), ("quat", "A"),
                                       ("chord", "quat"), ("chord", "6d"), ("chord", "A"),
                                       ("ang", "quat"), ("ang", "6d"), ("ang", "A")])
def test_loss_gradients_through_heads(kind, head):
    rng = np.random.default_rng(12)
    n = 30
    raw = valid_raws(head, rng, 3 * n)
    R_gt, q_gt = random_rotations(3 * n, rng)
    if kind == "ang":  # keep clear of the pi branch
        keep = so3.d_ang(nn.head_forward(head, raw)[1], R_gt) <= 3.0
        raw, R_gt, q_gt = raw[keep], R_gt[keep], q_gt[keep]
    raw, R_gt, q_gt = raw[:n], R_gt[:n], q_gt[:n]
    assert len(raw) == n
    q, R, aux, _ = nn.head_forward(head, raw)
    _, gq, gR = nn.loss_eval(kind, q, R, q_gt, R_gt)
    ana = nn.head_backward(head, q, aux, gq, gR)
    fd = fd_through_head(head, raw, lambda q, R: nn.loss_eval(
        kind, q, R, q_gt[:, None, None], R_gt[:, None, None])[0], 1e-6)
    assert np.all(rel_max_error(ana, fd) < 1e-4)


# -- Adam -------------------------------------------------------------------------


def test_adam_zero_gradient_is_identity():
    p = [np.array([1.0, -2.0, 3.0])]
    state = nn.adam_init(p, lr=0.1)
    out = nn.adam_step(state, p, [np.zeros(3)])
    assert np.array_equal(out[0], p[0])


def test_adam_first_step_oracle():
    # Bias correction makes the first update -lr * g / (|g| + eps).
    p = [np.array([1.0, -2.0])]
    g = [np.array([2.0, 0.5])]
    state = nn.adam_init(p, lr=0.1)
    out = nn.adam_step(state, p, g)
    expect = p[0] - 0.1 * g[0] / (np.abs(g[0]) + 1e-8)
    assert np.allclose(out[0], expect, atol=1e-15)


def test_adam_determinism():
    def run():
        rng = np.random.default_rng(13)
        p = [rng.standard_normal((3, 3)), rng.standard_normal(3)]
        state = nn.adam_init(p, lr=1e-2)
        for _ in range(10):
            g = [rng.standard_normal((3, 3)), rng.standard_normal(3)]
            p = nn.adam_step(state, p, g)
        return p
    a, b = run(), run()
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# -- end-to-end gradients ----------------------------------------------------------


@pytest.mark.parametrize("head", ["quat", "6d", "A"])
def test_end_to_end_gradcheck_tiny_net(head):
    rng = np.random.default_rng(14)
    net = nn.init_net([12, 2, nn.HEAD_DIMS[head]], rng)
    x = rng.standard_normal((3, 12))
    R_gt, q_gt = random_rotations(3, rng)

    def total_loss():
        raw, _ = nn.forward(net, x)
        q, R, _, valid = nn.head_forward(head, raw)
        assert valid.all()
        loss, _, _ = nn.loss_eval("chord", q, R, q_gt, R_gt)
        return float(np.mean(loss))

    raw, cache = nn.forward(net, x)
    q, R, aux, valid = nn.head_forward(head, raw)
    loss, gq, gR = nn.loss_eval("chord", q, R, q_gt, R_gt)
    scale = np.full(3, 1.0 / 3.0)
    gR = gR * scale[:, None, None]
    grad_raw = nn.head_backward(head, q, aux, None, gR)
    grads = nn.backward(net, cache, grad_raw)
    analytic = []
    for dW, db in grads:
        analytic.extend([dW, db])

    params = net.params()
    gmax = max(np.abs(g).max() for g in analytic)
    h = 1e-6
    for pi, p in enumerate(params):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = total_loss()
            p[idx] = orig - h
            down = total_loss()
            p[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - analytic[pi][idx]) / max(1.0, gmax) < 1e-4


# -- training protocol ----------------------------------------------------------


def small_cfg(**over):
    base = dict(seed=21, lr=1e-3, epochs=8, batch_rotations=40, matches_per_rotation=10,
                phi_max_deg=10.0, sigma=0.01, head="A", loss="chord",
                hidden_widths=(64, 64), trials=1, test_rotations=120)
    base.update(over)
    return nn.TrainConfig(**base)


@pytest.mark.parametrize("key, value", [
    ("trials", 0), ("batch_rotations", 0), ("matches_per_rotation", 0), ("test_rotations", 0),
    ("batches_per_epoch", 0), ("epochs", -1), ("hidden_widths", (64, 0)), ("lr", -1e-3),
    ("lr", float("nan")), ("lr", float("inf")), ("lr_range", (1e-3, 1e-4)),
    ("lr_range", (0.0, 1e-3)), ("lr_range", (1e-3,)), ("phi_max_deg", 0.0),
    ("phi_max_deg", 180.5), ("sigma", -0.01), ("loss", "l2"), ("head", "hexarot"),
    ("hidden_widths", (1024,) * 10_000),
])
def test_train_config_range_checked(key, value):
    with pytest.raises(ValueError, match=key):
        small_cfg(**{key: value})


def test_sigma_bound_keeps_the_noisiest_batch_finite():
    bad = r"^sigma must be in \[0, 1e\+100\], got 1\.0000000000000002e\+100$"
    with pytest.raises(nn.InputError, match=bad):
        small_cfg(sigma=float(np.nextafter(nn.MAX_SIGMA, np.inf)))
    cfg = small_cfg(sigma=nn.MAX_SIGMA)
    with np.errstate(all="raise"):
        x, _, _ = nn.sample_batch(cfg, np.random.default_rng(0), 2000, "noise")
    v = x.reshape(2000, -1, 6)[..., 3:]
    assert np.abs(np.linalg.norm(v, axis=-1) - 1.0).max() < 1e-15


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", 1.0), ("epochs", 1.5), ("trials", True), ("hidden_widths", "ab"),
    ("hidden_widths", (64, 2.0)), ("lr", "x"), ("lr_range", "ab"), ("sigma", "x"),
    ("phi_max_deg", None), ("head", []), ("head", 5),
])
def test_train_config_types_checked(key, value):
    with pytest.raises(nn.InputError, match=key):
        small_cfg(**{key: value})


@pytest.mark.parametrize("key", list(nn.SIZE_BOUNDS))
def test_train_config_size_keys_have_upper_bounds(key):
    _, hi = nn.SIZE_BOUNDS[key]
    value = (lambda x: (64, x)) if key == "hidden_widths" else (lambda x: x)
    assert small_cfg(**{key: value(hi)})
    with pytest.raises(nn.InputError, match=rf"{key} must be .*, {hi}\]"):
        small_cfg(**{key: value(hi + 1)})


def test_train_config_bounds_the_number_of_hidden_layers():
    assert small_cfg(hidden_widths=(8,) * 32)
    with pytest.raises(nn.InputError, match="hidden_widths must have at most 32 entries, got 33"):
        small_cfg(hidden_widths=(8,) * 33)


def test_train_config_rejects_quat_loss_with_sixd_head():
    with pytest.raises(nn.InputError, match="loss 'quat'.*head '6d'"):
        small_cfg(head="all", loss="quat")
    assert small_cfg(head=["quat", "A"], loss="quat").heads() == ["quat", "A"]


@pytest.mark.parametrize("bad", [[1, 2], "cfg", None])
def test_train_config_from_dict_needs_an_object(bad):
    with pytest.raises(nn.InputError, match="JSON object"):
        nn.TrainConfig.from_dict(bad)


def test_train_config_from_dict_defaults_yield_to_keys():
    assert nn.TrainConfig.from_dict({"seed": 4}, seed=9).seed == 4
    assert nn.TrainConfig.from_dict({}, seed=9).seed == 9


def test_training_divergence_raises_naming_where():
    with pytest.raises(FloatingPointError, match="head quat, trial 0, epoch 1, batch 1"):
        nn.train_single(small_cfg(lr=1e308, head="quat"), "quat")


def test_train_lr_zero_is_flat():
    res = nn.train_single(small_cfg(lr=0.0, epochs=4), "A")
    test_rows = [r for r in res.rows if r.split == "test"]
    assert all(np.isclose(r.median_deg, test_rows[0].median_deg) for r in test_rows)


@pytest.fixture(scope="module")
def smoke_trials():
    cfg = small_cfg(head="all", epochs=10)
    return {t.head: t for t in nn.train_experiment(cfg)}


def test_train_experiment_streams_and_frees_dropped_nets():
    trials = nn.train_experiment(small_cfg(head=["quat", "A"], epochs=1, trials=2))
    assert inspect.isgenerator(trials)
    first = next(trials)
    gone = weakref.ref(first.net)
    del first
    assert gone() is None
    rest = [(t.head, t.trial) for t in trials]
    assert rest == [("quat", 1), ("A", 0), ("A", 1)]


def test_train_smoke_improves_10x(smoke_trials):
    for head, trial in smoke_trials.items():
        test_rows = [r for r in trial.rows if r.split == "test"]
        assert test_rows[-1].median_deg * 10.0 <= test_rows[0].median_deg, head


def test_percentiles_ordered(smoke_trials):
    for trial in smoke_trials.values():
        for r in trial.rows:
            assert r.p10_deg <= r.median_deg <= r.p90_deg


def test_train_determinism():
    r1 = nn.train_single(small_cfg(epochs=3), "A")
    r2 = nn.train_single(small_cfg(epochs=3), "A")
    assert r1.rows == r2.rows
    for a, b in zip(r1.net.params(), r2.net.params()):
        assert np.array_equal(a, b)


def test_trained_norm_metric_tracks_trace(smoke_trials):
    # Rank correlation between ||raw|| and |dispersion trace| on a test batch.
    trial = smoke_trials["A"]
    cfg = small_cfg()
    x, _, _ = nn.sample_batch(cfg, np.random.default_rng(3), 200)
    raw, _ = nn.forward(trial.net, x)
    traces = nn.head_forward("A", raw)[2].dispersion_trace
    norms = np.linalg.norm(raw, axis=-1)
    rank = lambda a: np.argsort(np.argsort(a))
    rho = np.corrcoef(rank(norms), rank(np.abs(traces)))[0, 1]
    assert rho > 0.5


def test_degenerate_batch_samples_are_masked():
    raws = np.stack([symrep.A_to_theta(np.eye(4)),
                     symrep.A_to_theta(np.diag([0.0, 1.0, 2.0, 3.0]))])
    q, R, dec, valid = nn.head_forward("A", raws)
    assert not valid[0] and valid[1]
    assert np.allclose(q[1], [1, 0, 0, 0])


@pytest.mark.parametrize("head", ["A", "quat"])
@pytest.mark.parametrize("epochs", [0, 2])
def test_all_degenerate_training_counts_later_epochs_and_never_steps(monkeypatch, head, epochs):
    """Epoch 0 scores one batch and counts none of it; each batch of a later epoch counts all
    its samples degenerate and, with none valid, skips its step."""
    zero_initial_nets(monkeypatch)
    steps = []
    monkeypatch.setattr(nn, "adam_step", lambda state, params, grads: steps.append(grads) or params)
    cfg = small_cfg(head=head, epochs=epochs, batches_per_epoch=3, batch_rotations=7,
                    test_rotations=5)
    trial = nn.train_single(cfg, head)
    assert trial.degenerate_count == epochs * cfg.batches_per_epoch * cfg.batch_rotations
    assert steps == [] and all(not p.any() for p in trial.net.params())
    assert [(r.epoch, r.split) for r in trial.rows] == [
        (e, split) for e in range(epochs + 1) for split in ("train", "test")]
    assert all(np.isnan([r.mean_deg, r.median_deg, r.p10_deg, r.p90_deg]).all() for r in trial.rows)


def test_quat_loss_rejected_for_sixd_head():
    with pytest.raises(ValueError):
        nn.train_single(small_cfg(loss="quat"), "6d")


def test_sample_batch_shapes_and_determinism():
    cfg = small_cfg()
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    x1, q1, R1 = nn.sample_batch(cfg, rng1, 17)
    x2, q2, R2 = nn.sample_batch(cfg, rng2, 17)
    assert x1.shape == (17, 60) and q1.shape == (17, 4) and R1.shape == (17, 3, 3)
    assert np.array_equal(x1, x2) and np.array_equal(R1, R2)
    angles = np.linalg.norm(so3.log_map(R1), axis=-1)
    assert np.all(angles <= np.deg2rad(cfg.phi_max_deg))


def test_sample_batch_corruptions():
    cfg = small_cfg()
    rng = np.random.default_rng(6)
    for kind in nn.CORRUPTIONS:
        x, _, _ = nn.sample_batch(cfg, rng, 8, corruption=kind)
        assert x.shape == (8, 60)
        assert np.all(np.isfinite(x))
    with pytest.raises(ValueError):
        nn.sample_batch(cfg, rng, 4, corruption="fog")


# -- last layer and persistence ---------------------------------------------------


def test_last_layer_decompose_gamma_zero():
    rng = np.random.default_rng(15)
    W = rng.standard_normal((10, 4))
    b = rng.standard_normal(10)
    bases, bias_A, combined = nn.last_layer_decompose(W, b, np.zeros(4))
    assert len(bases) == 4
    assert np.array_equal(combined, bias_A)


def test_last_layer_decompose_single_column():
    rng = np.random.default_rng(16)
    W = rng.standard_normal((10, 1))
    b = rng.standard_normal(10)
    _, _, combined = nn.last_layer_decompose(W, b, np.ones(1))
    assert np.allclose(combined, symrep.theta_to_A(W[:, 0]) + symrep.theta_to_A(b))


def test_last_layer_decompose_linearity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = rng.integers(1, 8)
        W = rng.standard_normal((10, n))
        b = rng.standard_normal(10)
        gamma = rng.standard_normal(n)
        _, _, combined = nn.last_layer_decompose(W, b, gamma)
        assert np.abs(combined - symrep.theta_to_A(W @ gamma + b)).max() < 1e-12


def test_last_layer_decompose_validation():
    with pytest.raises(ValueError):
        nn.last_layer_decompose(np.zeros((9, 3)), np.zeros(10), np.zeros(3))
    with pytest.raises(ValueError):
        nn.last_layer_decompose(np.zeros((10, 3)), np.zeros(10), np.zeros(2))


def test_model_save_load_roundtrip(tmp_path):
    cfg = small_cfg(epochs=1)
    trial = nn.train_single(cfg, "A")
    path = tmp_path / "model.npz"
    nn.save_model(path, trial.net, "A", cfg)
    net, head, cfg_dict = nn.load_model(path)
    assert head == "A"
    for a, b in zip(net.params(), trial.net.params()):
        assert np.array_equal(a, b)
    assert nn.TrainConfig.from_dict(cfg_dict) == cfg


def test_load_model_rejects_non_model_files(tmp_path):
    net = nn.init_net([60, 8, 10], np.random.default_rng(0))
    net.weights[0][0, 0] = np.inf
    nn.save_model(tmp_path / "inf.npz", net, "A", small_cfg(hidden_widths=(8,)))
    net.weights[0] = net.weights[0].astype(complex)
    net.weights[0][0, 0] = 1j
    nn.save_model(tmp_path / "complex.npz", net, "A", small_cfg(hidden_widths=(8,)))
    (tmp_path / "text.npz").write_text("not a model")
    np.savez(tmp_path / "other.npz", meta=np.frombuffer(b'{"format": "x"}', dtype=np.uint8))
    for name, why in [("inf.npz", "not finite"), ("complex.npz", "complex128, not real floating point"),
                      ("text.npz", "pickled"), ("other.npz", "format")]:
        with pytest.raises(nn.InputError, match=f"{name}: not a so3sym-model-v1 file: .*{why}"):
            nn.load_model(tmp_path / name)


# Each model has layers in_dim -> 8 -> out_dim; its config has matches_per_rotation 10 and the
# given hidden_widths, so layer_dims gives [60, *hidden, 4 | 6 | 10].
@pytest.mark.parametrize("in_dim, out_dim, head, hidden, activations, why", [
    (30, 10, "A", (8,), None, r"W0 \(8, 30\) and b0 \(8,\) are not \(8, 60\) and \(8,\): "
     r"the config and head 'A' give layer widths \[60, 8, 10\]"),
    (60, 4, "A", (8,), None, r"W1 \(4, 8\) and b1 \(4,\) are not \(10, 8\) and \(10,\)"),
    (60, 10, "A", (64, 64), None, r"2 layers, but the config and head 'A' give layer widths \[60, 64, 64, 10\]"),
    (60, 4, "quat", (8,), ["leaky_relu"], r"activations must be \['leaky_relu', 'linear'\], got \['leaky_relu'\]"),
    (60, 4, "quat", (8,), ["relu", "linear"], r"activations must be .* got \['relu', 'linear'\]"),
    (60, 4, "quat", (8,), ["linear", "linear"], r"activations must be .* got \['linear', 'linear'\]"),
    (60, 4, "B", (8,), None, "head 'B' is not one of"),
], ids=["input-width", "output-width", "hidden-widths", "activation-count", "activation-unknown",
        "activation-pattern", "head-unknown"])
def test_load_model_checks_layers_against_config(tmp_path, in_dim, out_dim, head, hidden, activations, why):
    net = nn.init_net([in_dim, 8, out_dim], np.random.default_rng(0))
    meta = {} if activations is None else {"activations": activations}
    write_model(tmp_path / "m.npz", net, head, small_cfg(hidden_widths=hidden), **meta)
    with pytest.raises(nn.InputError, match=f"m.npz: .*{why}"):
        nn.load_model(tmp_path / "m.npz")


def test_load_model_checks_layer_chain(tmp_path):
    net = nn.init_net([60, 8, 8, 10], np.random.default_rng(0))
    net.weights[1] = net.weights[1][:, :5]
    nn.save_model(tmp_path / "m.npz", net, "A", small_cfg(hidden_widths=(8, 8)))
    with pytest.raises(nn.InputError, match=r"W1 \(8, 5\) and b1 \(8,\) are not \(8, 8\) and \(8,\)"):
        nn.load_model(tmp_path / "m.npz")
    net = nn.init_net([60, 8, 10], np.random.default_rng(0))
    net.biases[0] = net.biases[0][:7]
    nn.save_model(tmp_path / "m.npz", net, "A", small_cfg(hidden_widths=(8,)))
    with pytest.raises(nn.InputError, match=r"b0 \(7,\) are not \(8, 60\) and \(8,\)"):
        nn.load_model(tmp_path / "m.npz")


def test_load_model_checks_shapes_before_reading_data(tmp_path):
    """W0's header declares 100 MB the file does not hold: the header alone must reject it."""
    net = nn.init_net([60, 8, 10], np.random.default_rng(0))
    write_model_with_bare_header(tmp_path / "m.npz", net, "A", small_cfg(hidden_widths=(8,)),
                                 "W0", (12_500_000, 1))
    with pytest.raises(nn.InputError, match=r"m.npz: not a so3sym-model-v1 file: "
                       r"W0 \(12500000, 1\) and b0 \(8,\) are not \(8, 60\) and \(8,\)"):
        nn.load_model(tmp_path / "m.npz")


def test_dt_evaluate_report():
    cfg = small_cfg(epochs=6, phi_max_deg=180.0)
    trial = nn.train_single(cfg, "A")
    rng = np.random.default_rng(8)
    rep = nn.dt_evaluate(trial.net, cfg, 0.75, "noise", rng, n_mix=100)
    assert rep.kept.shape == (100,)
    assert rep.corrupted.sum() == 50
    assert 0.0 <= rep.kept_fraction <= 1.0
    assert rep.precision is None or 0.0 <= rep.precision <= 1.0
    # q >= 1 disables rejection
    rep_all = nn.dt_evaluate(trial.net, cfg, 1.0, "noise", np.random.default_rng(8), n_mix=100)
    assert rep_all.kept_fraction == 1.0
    assert rep_all.precision is None


def test_dt_evaluate_threshold_reads_reference_eigenvalues_alone():
    cfg = small_cfg(epochs=2, phi_max_deg=180.0)
    net = nn.train_single(cfg, "A").net
    rep = nn.dt_evaluate(net, cfg, 0.6, "noise", np.random.default_rng(10), n_mix=40, n_reference=300)
    x, _, _ = nn.sample_batch(cfg, np.random.default_rng(10), 300)  # the first block drawn
    raw, _ = nn.forward(net, x)
    traces = bingham.dispersion_trace(symrep.theta_to_A(raw))
    assert rep.threshold == bingham.dt_fit(traces, 0.6)


def test_dt_evaluate_names_a_non_finite_reference_block():
    cfg = small_cfg(hidden_widths=(8,))
    net = nn.init_net(nn.layer_dims(cfg, "A"), np.random.default_rng(0))
    net.weights = [1e200 * W for W in net.weights]
    with pytest.raises(FloatingPointError,
                       match="^dt-eval reference block: network output is not finite$"):
        nn.dt_evaluate(net, cfg, 0.75, "noise", np.random.default_rng(0), n_mix=10)


def test_dt_report_precision_is_zero_when_nothing_is_rejected():
    def report(q, corrupted):
        return nn.DTReport(q=q, corruption="noise", threshold=0.0, traces=np.zeros(4),
                           errors_deg=np.zeros(4), kept=np.ones(4, dtype=bool),
                           corrupted=np.array(corrupted), mean_trace_clean=0.0,
                           mean_trace_corrupted=0.0)

    assert report(0.75, [False, False, True, True]).precision == 0.0
    assert report(1.0, [False, False, True, True]).precision is None
    assert report(0.75, [False] * 4).precision is None


def test_dt_report_mean_error_kept_is_nan_when_nothing_is_kept():
    rep = nn.DTReport(q=0.75, corruption="noise", threshold=0.0, traces=np.zeros(4),
                      errors_deg=np.ones(4), kept=np.zeros(4, dtype=bool),
                      corrupted=np.array([False, False, True, True]), mean_trace_clean=0.0,
                      mean_trace_corrupted=0.0)
    assert np.isnan(rep.mean_error_kept) and rep.mean_error_full == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: nn.loss_eval("bogus", None, None, None, None), "^unknown loss 'bogus'$"),
    (lambda: nn.adam_step(nn.adam_init([np.zeros(2)], 0.1), [np.zeros(2)], []),
     "^params/grads/state length mismatch$"),
    (lambda: nn.dt_evaluate(None, None, 0.75, "bogus", None, 10),
     r"^unknown corruption 'bogus'; choose from \('none', "),
    (lambda: nn.last_layer_decompose(np.zeros((10, 3)), np.zeros(9), np.zeros(3)),
     r"^b must be a 10-vector, got \(9,\)$"),
], ids=["loss_eval", "adam_step", "dt_evaluate", "last_layer_decompose"])
def test_bad_argument_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_dt_evaluate_clean_calibration():
    cfg = small_cfg(epochs=4)
    trial = nn.train_single(cfg, "A")
    rep = nn.dt_evaluate(trial.net, cfg, 0.75, "none", np.random.default_rng(9), n_mix=400)
    assert abs(rep.kept_fraction - 0.75) < 0.08


# -- hot-path kernels against their reference forms -----------------------------


def _rot_jacobian_tensor_reference(q):
    """d quat_to_rot / d q as (..., 3, 3, 4), written out entry by entry."""
    x, y, z, w = (q[..., i] for i in range(4))
    o = np.zeros_like(x)
    dx = [[o, 2 * y, 2 * z], [2 * y, -4 * x, -2 * w], [2 * z, 2 * w, -4 * x]]
    dy = [[-4 * y, 2 * x, 2 * w], [2 * x, o, 2 * z], [-2 * w, 2 * z, -4 * y]]
    dz = [[-4 * z, -2 * w, 2 * x], [2 * w, -4 * z, 2 * y], [2 * x, 2 * y, o]]
    dw = [[o, -2 * z, 2 * y], [2 * z, o, -2 * x], [-2 * y, 2 * x, o]]
    parts = [np.stack([np.stack(r, axis=-1) for r in d], axis=-2) for d in (dx, dy, dz, dw)]
    return np.stack(parts, axis=-1)


@pytest.mark.parametrize("shape", [(), (40,), (3, 5)])
def test_grad_R_to_grad_q_matches_tensor_oracle_and_fd(shape):
    rng = np.random.default_rng(31)
    q = rng.standard_normal(shape + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    G = rng.standard_normal(shape + (3, 3))
    got = nn._grad_R_to_grad_q(q, G)
    oracle = np.einsum("...ijk,...ij->...k", _rot_jacobian_tensor_reference(q), G)
    assert got.shape == shape + (4,)
    assert np.abs(got - oracle).max() <= 1e-14 * max(1.0, np.abs(oracle).max())
    h = 1e-6
    fd = np.zeros_like(got)
    for k in range(4):
        e = np.zeros(4)
        e[k] = h
        dR = (so3.quat_to_rot(q + e) - so3.quat_to_rot(q - e)) / (2 * h)
        fd[..., k] = np.sum(dR * G, axis=(-2, -1))
    assert np.abs(got - fd).max() <= 1e-8


@pytest.mark.parametrize("phi_max_deg", [180.0, 90.0, 5.0])
@pytest.mark.parametrize("corruption", nn.CORRUPTIONS)
def test_sample_batch_q_gt_matches_rot_to_quat(phi_max_deg, corruption):
    cfg = nn.TrainConfig(phi_max_deg=phi_max_deg)
    _, q_gt, R_gt = nn.sample_batch(cfg, np.random.default_rng(32), 500, corruption=corruption)
    assert np.abs(q_gt - so3.rot_to_quat(R_gt)).max() <= 1e-12


def test_sample_batch_leaves_reference_vectors_intact():
    cfg = nn.TrainConfig(matches_per_rotation=7)
    x, _, _ = nn.sample_batch(cfg, np.random.default_rng(33), 4, corruption="zero")
    u = nn.reference_vectors(7)
    u[:] = 0.0  # the public function hands out a fresh, writable array
    x2, _, _ = nn.sample_batch(cfg, np.random.default_rng(33), 4, corruption="zero")
    assert np.array_equal(x, x2)
    x3, _, _ = nn.sample_batch(cfg, np.random.default_rng(34), 4)
    assert np.array_equal(x3.reshape(4, 7, 6)[..., :3], np.broadcast_to(nn.reference_vectors(7), (4, 7, 3)))


def test_leaky_relu_matches_where_reference():
    # Zero weights make the hidden pre-activations the biases (a matmul never yields -0.0, so
    # -0.0 comes out +0.0; the backward mask is checked on -0.0 below).
    rng = np.random.default_rng(35)
    net = nn.init_net([3, 8, 4], rng)
    net.weights[0][:] = 0.0
    net.biases[0][:] = [2.5, -3.0, 0.0, -0.0, 1e-300, -1e-300, 7.0, -0.25]
    a_prev = rng.standard_normal((1, 3))
    raw, cache = nn.forward(net, a_prev)
    z = forward_reference(net, a_prev)[1][0][1]
    assert np.array_equal(z[0], net.biases[0])
    ref = np.where(z > 0, z, nn.LEAKY_SLOPE * z)
    got = cache[0][1]
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))

    g = rng.standard_normal(raw.shape)
    (dW, db), _ = nn.backward(net, cache, g)
    g_ref = (g @ net.weights[1]) * np.where(z > 0, 1.0, nn.LEAKY_SLOPE)
    assert np.array_equal(dW, g_ref.T @ a_prev)
    assert np.array_equal(db, g_ref.sum(axis=0))


def test_unknown_head_raises_value_error():
    with pytest.raises(ValueError, match="unknown head 'foo'"):
        nn.head_forward("foo", [[1.0]])
    with pytest.raises(ValueError, match="unknown head 'foo'"):
        nn.head_backward("foo", None, None, [[1.0]], None)
    for raw in (np.zeros((2, 10)), np.zeros(4)):  # a width for another head; not a batch
        with pytest.raises(ValueError, match=r"head 'quat' expects \(B, 4\) input"):
            nn.head_forward("quat", raw)


def test_sixd_training_skips_rot_to_quat(monkeypatch):
    calls = []
    original = so3.rot_to_quat

    def counted(R):
        calls.append(np.shape(R))
        return original(R)

    monkeypatch.setattr(so3, "rot_to_quat", counted)
    nn.train_single(small_cfg(head="6d", epochs=2), "6d")
    assert calls == []
    q, _, _, valid = nn.head_forward("6d", [[1.0, 0.2, -0.3, 0.1, 1.0, 0.4]])
    assert q is None and valid.all() and calls == []


# -- lean hot path against the out-of-place oracles ---------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _leaky_net_with_zero_preactivations():
    """A leaky net on a batch where some pre-activations are exactly +0.0."""
    rng = np.random.default_rng(40)
    net = nn.init_net([12, 16, 8, 10], rng)
    net.weights[0][:3] = 0.0  # units 0-2 of layer 0: pre-activation = bias
    net.biases[0][:2] = 0.0
    net.biases[0][2] = -0.0
    x = rng.standard_normal((9, 12))
    x[0] = 0.0
    x[1] = -0.0
    return net, x


def test_forward_and_backward_equal_out_of_place_oracle():
    net, x = _leaky_net_with_zero_preactivations()
    raw, cache = nn.forward(net, x)
    raw_ref, cache_ref = forward_reference(net, x)
    assert _same_bits(raw, raw_ref)
    assert any((z == 0).any() for _, z in cache_ref)
    outs_ref = [a for a, _ in cache_ref[1:]] + [raw_ref]  # each layer's output is the next one's input
    for (a_in, a_out), (a_in_ref, _), a_out_ref in zip(cache, cache_ref, outs_ref):
        assert _same_bits(a_in, a_in_ref)
        assert _same_bits(a_out, a_out_ref)  # the cache holds outputs
    g = np.random.default_rng(41).standard_normal(raw.shape)
    g_before = g.copy()
    grads = nn.backward(net, cache, g)
    assert _same_bits(g, g_before)  # grad_raw is not written
    for (dW, db), (dW_ref, db_ref) in zip(grads, backward_reference(net, cache_ref, g)):
        assert _same_bits(dW, dW_ref) and _same_bits(db, db_ref)
    raw1, cache1 = nn.forward(net, x[2:3])
    assert _same_bits(raw1, forward_reference(net, x[2:3])[0])
    for (dW, db), (dW_ref, db_ref) in zip(nn.backward(net, cache1, g[2:3]),
                                          backward_reference(net, forward_reference(net, x[2:3])[1], g[2:3])):
        assert _same_bits(dW, dW_ref) and _same_bits(db, db_ref)


def test_backward_mask_from_outputs_equals_mask_from_preactivations():
    # A matmul never yields -0.0, so these pre-activations are set by hand.
    z = np.array([[2.5, -3.0, 0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, np.nan, -np.inf, np.inf]])
    rng = np.random.default_rng(42)
    net = nn.init_net([3, z.shape[1], 4, 2], rng)
    x = rng.standard_normal((1, 3))
    a1 = np.maximum(z, 0.01 * z)
    z2 = rng.standard_normal((1, 4))
    z2[0, :2] = [0.0, -0.0]
    a2 = np.maximum(z2, 0.01 * z2)
    z3 = rng.standard_normal((1, 2))
    g = rng.standard_normal((1, 2))
    with np.errstate(invalid="ignore"):
        got = nn.backward(net, [(x, a1), (a1, a2), (a2, z3)], g)
        ref = backward_reference(net, [(x, z), (a1, z2), (a2, z3)], g)
    for (dW, db), (dW_ref, db_ref) in zip(got, ref):
        assert _same_bits(dW, dW_ref) and _same_bits(db, db_ref)


def test_adam_step_equals_out_of_place_oracle_and_leaves_inputs_alone():
    rng = np.random.default_rng(43)
    params = [rng.standard_normal((5, 3)), rng.standard_normal(5)]
    state = nn.adam_init(params, lr=3e-3)
    state_ref = nn.adam_init(params, lr=3e-3)
    params_ref = params
    for step in range(10):
        grads = [rng.standard_normal(p.shape) * (0.0 if step == 3 else 10.0 ** -step) for p in params]
        before = [a.copy() for a in params + grads]
        out = nn.adam_step(state, params, grads)
        out_ref = adam_step_reference(state_ref, params_ref, grads)
        assert all(_same_bits(a, b) for a, b in zip(params + grads, before))
        assert all(not np.shares_memory(o, a) for o in out for a in params + grads + state.m + state.v)
        for a, b in zip(out + state.m + state.v, out_ref + state_ref.m + state_ref.v):
            assert _same_bits(a, b)
        params, params_ref = out, out_ref
    assert state.step == state_ref.step == 10


@pytest.mark.parametrize("corruption", nn.CORRUPTIONS)
@pytest.mark.parametrize("m", [1, 10, 50])
@pytest.mark.parametrize("n", [1, 100, 2000])
def test_sample_batch_within_an_ulp_of_einsum_oracle(n, m, corruption):
    cfg = nn.TrainConfig(matches_per_rotation=m)
    rng, rng_ref = np.random.default_rng([n, m, 44]), np.random.default_rng([n, m, 44])
    x, q_gt, R_gt = nn.sample_batch(cfg, rng, n, corruption)
    x_ref, q_ref, R_ref = sample_batch_reference(cfg, rng_ref, n, corruption)
    np.testing.assert_array_max_ulp(x, x_ref, maxulp=1)
    assert _same_bits(q_gt, q_ref) and _same_bits(R_gt, R_ref)
    assert rng.random() == rng_ref.random()  # the same draws, in the same order
