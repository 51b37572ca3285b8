"""Command-line front end.

Subcommands: grad-check (Jacobian finite-difference suite), wahba
(closed-form solve of a correspondence file or a synthetic instance),
train (learning comparison across representation heads; CSV + SVG),
dt-eval (dispersion-threshold OOD evaluation of a trained model), and
avg (rotation averaging of a quaternion file).

Exit codes: 0 success, 1 check failure or degenerate problem, 2 input error.
All randomness derives from --seed; runs are bit-deterministic.
"""

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import nn, svgplot
from .averaging import chordal_mean, quat_mean
from .so3 import canonicalize_quat, d_ang, d_chord, d_quat, quat_to_rot
from .symrep import (A_to_theta, DegenerateEigenspace, EigenDecomp4, qcqp_forward,
                     qcqp_jacobian_theta, theta_to_A)
from .wahba import (
    CorrespondenceParseError,
    SyntheticConfig,
    build_data_matrix,
    parse_csv_floats,
    read_correspondences_csv,
    rng_for,
    sample_synthetic,
)

RESULTS_SCHEMA = "# so3sym-results v1"
DT_SCHEMA = "# so3sym-dt v1"


def _fmt(x):
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# grad-check


def run_grad_check(count=1000, seed=0, tolerance=1e-5, step=1e-5,
                   min_rel_gap=1e-2, self_test=False):
    """Finite-difference certification of the analytic QCQP Jacobian.

    Draws random symmetric matrices with eigengap >= min_rel_gap *
    max(1, ||A||_F), compares the analytic dq*/dtheta (qcqp_jacobian_theta,
    the VJP training runs applied to the identity) against central
    differences with perturbed eigenvectors sign-aligned to the base.
    With self_test=True the analytic Jacobian is sign-flipped first; the
    check must then fail (negative control). Returns a report dict.
    """
    rng = rng_for(seed, 101)
    # Keep the filter's readout and decomposition of every kept matrix: symeig4
    # is per-matrix deterministic, so they equal a fresh decomposition of A.
    parts = []
    while sum(len(p[0]) for p in parts) < count:
        batch = rng.standard_normal((max(64, count), 4, 4))
        batch = 0.5 * (batch + np.swapaxes(batch, -1, -2))
        q, dec, keep = qcqp_forward(batch, gap_tol=min_rel_gap)
        parts.append((batch[keep], q[keep], dec.lambdas[keep], dec.vectors[keep]))
    A, q0, lam0, vec0 = (np.concatenate(col)[:count] for col in zip(*parts))
    dec0 = EigenDecomp4(lam0, vec0)

    J = qcqp_jacobian_theta(A, dec0)
    if self_test:
        J = -J

    J_fd = np.zeros_like(J)
    theta0 = A_to_theta(A)
    for k in range(10):
        for sgn in (+1.0, -1.0):
            th = theta0.copy()
            th[:, k] += sgn * step
            qk, _, _ = qcqp_forward(theta_to_A(th))
            align = np.where(np.sum(qk * q0, axis=-1) < 0, -1.0, 1.0)
            J_fd[:, :, k] += sgn * (qk * align[:, None]) / (2.0 * step)

    denom = np.maximum(1.0, np.abs(J).max(axis=(1, 2)))
    rel = np.abs(J - J_fd).max(axis=(1, 2)) / denom
    max_rel = float(rel.max())
    passed = max_rel <= tolerance
    return {"count": count, "seed": seed, "tolerance": tolerance, "step": step,
            "min_rel_gap": min_rel_gap, "max_rel_error": max_rel,
            "self_test": self_test, "passed": passed}


def cmd_grad_check(args):
    report = run_grad_check(count=args.count, seed=args.seed, tolerance=args.tolerance,
                            self_test=args.self_test)
    print(f"samples: {report['count']}")
    print(f"seed: {report['seed']}")
    print(f"max_rel_error: {report['max_rel_error']:.6e}")
    print(f"tolerance: {report['tolerance']:.1e}")
    if args.self_test:
        # Negative control: the corrupted Jacobian must breach the tolerance.
        ok = not report["passed"]
        print(f"self_test: {'OK (corrupted Jacobian rejected)' if ok else 'FAILED (corruption not detected)'}")
        return 0 if ok else 1
    print(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# wahba


def cmd_wahba(args):
    if args.synthetic == (args.input is not None):
        print("error: provide exactly one of INPUT.csv or --synthetic", file=sys.stderr)
        return 2
    R_true = None
    if args.synthetic:
        try:
            cfg = SyntheticConfig(num_matches=args.n, sigma=args.sigma,
                                  phi_max=np.deg2rad(args.phi_max_deg), seed=args.seed)
        except ValueError as exc:
            print(f"error: invalid --sigma or --phi-max-deg: {exc}", file=sys.stderr)
            return 2
        R_true, corr = sample_synthetic(cfg)
    else:
        try:
            corr = read_correspondences_csv(args.input)
        except CorrespondenceParseError as exc:
            print(f"error: {args.input}: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    q, dec, valid = qcqp_forward(build_data_matrix(corr))
    if not valid:
        print(f"error: degenerate problem: minimum eigenvalue is not simple "
              f"(gap {dec.eigengap:.3e})", file=sys.stderr)
        return 1
    print(f"pairs: {len(corr)}")
    print(f"q_star: {_fmt(q[0])} {_fmt(q[1])} {_fmt(q[2])} {_fmt(q[3])}")
    print(f"eigengap: {_fmt(dec.eigengap)}")
    print(f"dispersion_trace: {_fmt(dec.dispersion_trace)}")
    if R_true is not None:
        err = np.rad2deg(d_ang(quat_to_rot(q), R_true))
        print(f"angular_error_deg: {_fmt(err)}")
    return 0


# ---------------------------------------------------------------------------
# train


def _write_rows_csv(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write(RESULTS_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "lr", "epoch", "split", "head",
                         "mean_deg", "median_deg", "p10_deg", "p90_deg"])
        for r in rows:
            writer.writerow([r.trial, r.seed, repr(r.lr), r.epoch, r.split, r.head,
                             repr(r.mean_deg), repr(r.median_deg),
                             repr(r.p10_deg), repr(r.p90_deg)])


def cmd_train(args):
    try:
        with open(args.config) as fh:
            raw_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
        return 2
    if "seed" not in raw_cfg:
        raw_cfg["seed"] = args.seed
    try:
        cfg = nn.TrainConfig.from_dict(raw_cfg)
    except (TypeError, ValueError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    result = nn.train_experiment(cfg)
    rows = sorted(result.rows(), key=lambda r: (r.head, r.trial, r.epoch, r.split))

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "results.csv")
    _write_rows_csv(csv_path, rows)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    svg_path = os.path.join(args.out, "learning_curves.svg")
    svgplot.render_learning_curves(rows, svg_path)
    print(f"wrote {svg_path}")

    if args.save_model:
        for t in result.trials:
            path = os.path.join(args.out, f"model_{t.head}_t{t.trial}.npz")
            nn.save_model(path, t.net, t.head, cfg)
            print(f"wrote {path}")
    degen = sum(t.degenerate_count for t in result.trials)
    if degen:
        print(f"degenerate training samples skipped: {degen}")
    return 0


# ---------------------------------------------------------------------------
# dt-eval


def cmd_dt_eval(args):
    try:
        net, head, cfg_dict = nn.load_model(args.model)
        cfg = nn.TrainConfig.from_dict(cfg_dict)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load model {args.model}: {exc}", file=sys.stderr)
        return 2
    if head != "A":
        print(f"error: dispersion thresholding requires a symmetric-matrix head model, got {head!r}",
              file=sys.stderr)
        return 2
    rng = rng_for(args.seed, 404)
    report = nn.dt_evaluate(net, cfg, args.q, args.corruption, rng, n_mix=args.mix)

    prec = "---" if report.precision is None else f"{100.0 * report.precision:.1f}"
    corr_trace = ("---" if np.isnan(report.mean_trace_corrupted)
                  else _fmt(report.mean_trace_corrupted))
    print(f"corruption: {report.corruption}")
    print(f"q: {_fmt(report.q)}")
    print(f"threshold: {_fmt(report.threshold)}")
    print(f"kept_pct: {100.0 * report.kept_fraction:.1f}")
    print(f"precision_pct: {prec}")
    print(f"mean_error_full_deg: {_fmt(report.mean_error_full)}")
    print(f"mean_error_kept_deg: {_fmt(report.mean_error_kept)}")
    print(f"mean_trace_clean: {_fmt(report.mean_trace_clean)}")
    print(f"mean_trace_corrupted: {corr_trace}")

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "dt_rows.csv")
    with open(path, "w", newline="") as fh:
        fh.write(DT_SCHEMA + "\n")
        writer = csv.writer(fh)
        writer.writerow(["index", "trace", "kept", "corrupted", "err_deg"])
        for i in range(len(report.traces)):
            writer.writerow([i, repr(float(report.traces[i])), int(report.kept[i]),
                             int(report.corrupted[i]), repr(float(report.errors_deg[i]))])
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# avg


def read_quaternions_csv(path):
    """Parse a quaternion CSV (header x,y,z,w with optional weight column)."""
    quats, weights = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = None
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [f.strip() for f in row]
                if header not in (["x", "y", "z", "w"], ["x", "y", "z", "w", "weight"]):
                    raise CorrespondenceParseError(
                        lineno, f"expected header x,y,z,w[,weight], got {','.join(header)}")
                continue
            vals = parse_csv_floats(lineno, row, header)
            n = float(np.linalg.norm(vals[:4]))
            if abs(n - 1.0) > 1e-6:
                raise CorrespondenceParseError(lineno, f"quaternion norm {n:.6g} is not 1")
            quats.append(vals[:4])
            if len(vals) == 5:
                if vals[4] < 0:
                    raise CorrespondenceParseError(lineno, f"weight must be >= 0, got {vals[4]}")
                weights.append(vals[4])
        if header is None:
            raise CorrespondenceParseError(1, "missing header row")
    return np.array(quats, dtype=float).reshape(-1, 4), (np.array(weights) if weights else None)


def cmd_avg(args):
    try:
        quats, weights = read_quaternions_csv(args.input)
    except CorrespondenceParseError as exc:
        print(f"error: {args.input}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(quats) == 0:
        print(f"error: {args.input}: no quaternions", file=sys.stderr)
        return 2
    if args.method == "quat" and weights is not None:
        print("error: weights are only supported by the chordal method", file=sys.stderr)
        return 2
    try:
        if args.method == "chordal":
            mean = chordal_mean(quats, weights)
            w = np.ones(len(quats)) if weights is None else weights
            cost = float(np.sum(w * d_chord(quat_to_rot(mean), quat_to_rot(quats)) ** 2))
        else:
            mean = quat_mean(quats)
            cost = float(np.sum(d_quat(mean, quats) ** 2))
    except (DegenerateEigenspace, ValueError) as exc:
        print(f"error: degenerate mean: {exc}", file=sys.stderr)
        return 1
    mean = canonicalize_quat(mean)
    print(f"count: {len(quats)}")
    print(f"method: {args.method}")
    print(f"mean: {_fmt(mean[0])} {_fmt(mean[1])} {_fmt(mean[2])} {_fmt(mean[3])}")
    print(f"residual_cost: {_fmt(cost)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text):
    """argparse type for counts: an integer >= 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text):
    """argparse type for --seed: an integer >= 0."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _positive_float(text):
    """argparse type for a finite number > 0 (argparse itself rejects non-numbers)."""
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return x


def _nonnegative_float(text):
    """argparse type for a finite number >= 0 (argparse itself rejects non-numbers)."""
    x = float(text)
    if not (math.isfinite(x) and x >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return x


def build_parser():
    p = argparse.ArgumentParser(
        prog="so3sym",
        description="Symmetric-matrix rotation representation: solver, training, and OOD tools")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="global RNG seed (default 0)")
    p.add_argument("--out", default=".", help="output directory for generated files")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grad-check", help="finite-difference check of the QCQP layer Jacobian")
    g.add_argument("--count", type=_positive_int, default=1000, help="number of random matrices")
    g.add_argument("--tolerance", type=_positive_float, default=1e-5, help="max relative error allowed")
    g.add_argument("--self-test", action="store_true",
                   help="negative control: verify a corrupted Jacobian is rejected")
    g.set_defaults(func=cmd_grad_check)

    w = sub.add_parser("wahba", help="solve a Wahba problem from CSV or synthetic data")
    w.add_argument("input", nargs="?", default=None,
                   help="correspondence CSV (header ux,uy,uz,vx,vy,vz,sigma)")
    w.add_argument("--synthetic", action="store_true", help="generate a synthetic instance")
    w.add_argument("--n", type=_positive_int, default=100, help="synthetic pair count")
    w.add_argument("--sigma", type=_nonnegative_float, default=0.01, help="synthetic noise std-dev")
    w.add_argument("--phi-max-deg", type=_positive_float, default=180.0, help="synthetic max angle")
    w.set_defaults(func=cmd_wahba)

    t = sub.add_parser("train", help="train rotation regressors per representation head")
    t.add_argument("config", help="JSON config path")
    t.add_argument("--save-model", action="store_true", help="save trained models (.npz)")
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("dt-eval", help="dispersion-threshold OOD evaluation of a trained model")
    d.add_argument("model", help="model .npz path (symmetric-matrix head)")
    d.add_argument("--corruption", choices=nn.CORRUPTIONS, default="noise")
    d.add_argument("--q", type=_positive_float, default=0.75,
                   help="training quantile for the threshold (> 0; >= 1 keeps everything)")
    d.add_argument("--mix", type=_positive_int, default=200, help="test mix size (50%% corrupted)")
    d.set_defaults(func=cmd_dt_eval)

    a = sub.add_parser("avg", help="average a CSV of unit quaternions")
    a.add_argument("input", help="quaternion CSV (header x,y,z,w[,weight])")
    a.add_argument("--method", choices=["chordal", "quat"], default="chordal")
    a.set_defaults(func=cmd_avg)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
