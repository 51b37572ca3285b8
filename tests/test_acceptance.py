"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The learning-trend and OOD criteria share one trained sweep via fixtures.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from so3sym import averaging, nn, so3, symrep, wahba
from so3sym.cli import run_grad_check
from so3sym.wahba import Correspondences, SyntheticConfig, rng_for

from util import (
    GRID_RESOLUTION_RAD,
    chordal_cost_at,
    eig4_bisection_oracle,
    kabsch,
    super_fibonacci,
)


def report(num, name, passed, detail):
    print(f"\n[acceptance {num}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


# -- 1: gradient fidelity ------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    rep = run_grad_check(count=1000, seed=20240, tolerance=1e-5)
    elapsed = time.perf_counter() - t0
    ok = rep["passed"] and elapsed < 10.0
    report(1, "gradient fidelity",
           ok, f"max rel err {rep['max_rel_error']:.2e} <= 1e-5, {elapsed:.1f}s < 10s")


# -- 2: smooth-section roundtrip -------------------------------------------------


def test_criterion_2_section_roundtrip():
    rng = rng_for(20241)
    q_uniform = so3.random_quats(10_000, rng)
    axis = rng.standard_normal((100, 3))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    theta = np.pi - rng.uniform(0.0, np.deg2rad(0.01), 100)
    near_pi = so3.rot_to_quat(so3.exp_map(theta[:, None] * axis))
    q_all = np.concatenate([q_uniform, near_pi])

    dec = symrep.symeig4(symrep.smooth_section(q_all))
    q_back = so3.canonicalize_quat(dec.vectors[..., :, 0])
    err = so3.d_ang(so3.quat_to_rot(q_back), so3.quat_to_rot(q_all))
    gaps = dec.eigengap
    ok = err.max() <= 1e-9 and np.all(gaps > 0.999)
    report(2, "smooth-section roundtrip",
           ok, f"max d_ang {err.max():.2e} rad <= 1e-9 over {len(q_all)} rotations incl. 100 near 180 deg")


# -- 3: Wahba cost identity and recovery ----------------------------------------


def test_criterion_3_wahba():
    rng = rng_for(20242)
    worst_rel = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        corr = Correspondences(u=rng.standard_normal((n, 3)),
                               v=rng.standard_normal((n, 3)),
                               sigma=rng.uniform(0.5, 2.0, n))
        A = wahba.build_data_matrix(corr)
        q = so3.random_quats(1, rng)[0]
        uh = np.concatenate([corr.u, np.zeros((n, 1))], axis=-1)
        vh = np.concatenate([corr.v, np.zeros((n, 1))], axis=-1)
        rotated = so3.hamilton(so3.hamilton(np.broadcast_to(q, (n, 4)), uh),
                               np.broadcast_to(so3.quat_conj(q), (n, 4)))
        residual = float(np.sum((vh - rotated) ** 2 / corr.sigma[:, None] ** 2))
        worst_rel = max(worst_rel, abs(q @ A @ q - residual) / max(1.0, abs(residual)))

    recovery = 0.0
    for seed in range(20):
        cfg = SyntheticConfig(num_matches=100, sigma=0.0, phi_max=np.pi, seed=seed)
        R_hat, corr = wahba.sample_synthetic(cfg)
        q = wahba.solve_wahba(corr)
        recovery = max(recovery, np.rad2deg(so3.d_ang(so3.quat_to_rot(q), R_hat)))

    oracle_gap = 0.0
    for seed in range(20):
        cfg = SyntheticConfig(num_matches=100, sigma=0.01, phi_max=np.pi, seed=seed)
        _, corr = wahba.sample_synthetic(cfg)
        q = wahba.solve_wahba(corr)
        R_ref = kabsch(corr.u, corr.v, corr.sigma)
        oracle_gap = max(oracle_gap, np.rad2deg(so3.d_ang(so3.quat_to_rot(q), R_ref)))

    ok = worst_rel <= 1e-10 and recovery <= 1e-6 and oracle_gap <= 1e-6
    report(3, "Wahba cost identity + recovery",
           ok, f"cost rel {worst_rel:.2e} <= 1e-10, noiseless {recovery:.2e} deg <= 1e-6, "
               f"Procrustes gap {oracle_gap:.2e} deg <= 1e-6")


# -- 4: eigensolver certification -------------------------------------------------


def test_criterion_4_eigensolver():
    rng = rng_for(20243)
    A = rng.standard_normal((10_000, 4, 4))
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    lam = symrep.symeig4(A).lambdas
    lam_ref = eig4_bisection_oracle(A)
    fro = np.linalg.norm(A.reshape(-1, 16), axis=-1)
    rel = np.abs(lam - lam_ref).max(axis=-1) / fro
    ok = rel.max() <= 1e-11
    report(4, "eigensolver vs bisection oracle",
           ok, f"max |lambda - oracle|/||A|| = {rel.max():.2e} <= 1e-11 over 10^4 matrices")


# -- 5 and 6: learning trend and DT OOD (shared trained sweep) --------------------

SWEEP = dict(lr=None, epochs=50, batch_rotations=100, matches_per_rotation=10,
             sigma=0.01, loss="chord", hidden_widths=(128, 128),
             trials=10, test_rotations=500, lr_range=(1e-4, 1e-3))


def run_sweep(phi_max_deg):
    """Train the sweep at phi_max_deg. Keeps each trial's final test row per head, and the
    A-head nets criterion 6 scores; every other net goes as its trial ends."""
    cfg = nn.TrainConfig(seed=2024, phi_max_deg=phi_max_deg, head="all", **SWEEP)
    t0 = time.perf_counter()
    final, a_nets = {}, {}
    for t in nn.train_experiment(cfg):
        final.setdefault(t.trial, {})[t.head] = [r for r in t.rows if r.split == "test"][-1]
        if t.head == "A":
            a_nets[t.trial] = t.net
    return SimpleNamespace(cfg=cfg, final=final, a_nets=a_nets,
                           elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def sweep_180():
    return run_sweep(180.0)


@pytest.fixture(scope="module")
def sweep_90():
    return run_sweep(90.0)


def test_criterion_5_learning_trend(sweep_180, sweep_90):
    hard = sweep_180.final
    ok_hard = 0
    for heads in hard.values():
        cond = (heads["A"].median_deg < heads["quat"].median_deg
                and heads["6d"].median_deg < heads["quat"].median_deg
                and heads["quat"].p90_deg >= 2.0 * heads["A"].p90_deg)
        ok_hard += cond
    # The worst trial's continuous margins under the count: quat p90 / A p90 (needs >= 2),
    # and A and 6d median / quat median (need < 1).
    p90_ratio = min(h["quat"].p90_deg / h["A"].p90_deg for h in hard.values())
    a_ratio = max(h["A"].median_deg / h["quat"].median_deg for h in hard.values())
    sixd_ratio = max(h["6d"].median_deg / h["quat"].median_deg for h in hard.values())

    easy = sweep_90.final
    ok_easy = 0
    balance = 0.0  # the worst trial's max / min head median (needs < 2)
    for heads in easy.values():
        meds = [h.median_deg for h in heads.values()]
        ok_easy += max(meds) < 2.0 * min(meds)
        balance = max(balance, max(meds) / min(meds))

    elapsed = sweep_180.elapsed + sweep_90.elapsed
    ok = ok_hard >= 8 and ok_easy >= 8 and elapsed < 15 * 60
    report(5, "learning trend (180/90 deg)",
           ok, f"180deg trials passing medians+2x-p90: {ok_hard}/10 (need >=8; worst quat/A p90 "
               f"{p90_ratio:.3g}, worst A/quat median {a_ratio:.3g}, worst 6d/quat median "
               f"{sixd_ratio:.3g}), 90deg balanced trials: {ok_easy}/10 (need >=8; worst max/min "
               f"median {balance:.3g}), training {elapsed:.0f}s < 900s")


def test_criterion_6_dispersion_thresholding(sweep_180):
    assert len(sweep_180.a_nets) == 10
    cfg = sweep_180.cfg
    order_ok = precision_ok = kept_ok = 0
    precisions, trace_gaps, kept_ratios = [], [], []
    for trial, net in sweep_180.a_nets.items():
        rep = nn.dt_evaluate(net, cfg, q=0.75, corruption="noise",
                             rng=rng_for(cfg.seed, trial, 606), n_mix=200)
        order_ok += rep.mean_trace_corrupted > rep.mean_trace_clean
        trace_gaps.append(rep.mean_trace_corrupted - rep.mean_trace_clean)
        prec = rep.precision if rep.precision is not None else 0.0
        precisions.append(prec)
        precision_ok += prec > 0.60
        kept_ok += rep.mean_error_kept <= rep.mean_error_full
        kept_ratios.append(rep.mean_error_kept / rep.mean_error_full)
    ok = order_ok >= 9 and precision_ok >= 9 and kept_ok >= 9
    # The worst trial's continuous margins follow each count.
    report(6, "dispersion-threshold OOD",
           ok, f"trace order {order_ok}/10 (worst corrupted - clean mean trace "
               f"{min(trace_gaps):.3g}), precision>60% {precision_ok}/10 "
               f"(median precision {100 * np.median(precisions):.0f}%, worst "
               f"{100 * min(precisions):.0f}%), kept-error<=full {kept_ok}/10 (worst kept/full "
               f"{max(kept_ratios):.3g}); all need >=9")


# -- 7: rotation averaging vs brute force ----------------------------------------


def test_criterion_7_chordal_averaging():
    rng = rng_for(20247)
    grid = super_fibonacci(100_000)
    worst = 0.0
    for _ in range(20):
        quats = so3.random_quats(5, rng)
        mean = averaging.chordal_mean(quats)
        costs = chordal_cost_at(grid, quats)
        best = grid[np.argmin(costs)]
        assert chordal_cost_at(mean[None], quats)[0] <= costs.min() + 1e-9
        worst = max(worst, float(so3.d_ang(so3.quat_to_rot(mean), so3.quat_to_rot(best))))
    ok = worst <= GRID_RESOLUTION_RAD
    report(7, "chordal averaging vs brute force",
           ok, f"max angle to 1e5-sample grid argmin {np.rad2deg(worst):.2f} deg "
               f"<= {np.rad2deg(GRID_RESOLUTION_RAD):.1f} deg over 20 instances")


# -- 8: last-layer linearity -------------------------------------------------------


def test_criterion_8_last_layer_linearity():
    rng = rng_for(20248)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 12))
        W = rng.standard_normal((10, n))
        b = rng.standard_normal(10)
        gamma = rng.standard_normal(n)
        _, _, combined = nn.last_layer_decompose(W, b, gamma)
        worst = max(worst, float(np.abs(combined - symrep.theta_to_A(W @ gamma + b)).max()))
    ok = worst <= 1e-12
    report(8, "last-layer linearity",
           ok, f"max |combined - A(W gamma + b)| = {worst:.2e} <= 1e-12 over 100 instances")
