"""Command-line front end.

Subcommands: grad-check (Jacobian finite-difference suite), wahba
(closed-form solve of a correspondence file or a synthetic instance),
train (learning comparison across representation heads; CSV + SVG),
dt-eval (dispersion-threshold OOD evaluation of a trained model), and
avg (rotation averaging of a quaternion file).

Exit codes: 0 success, 1 check failure, degenerate problem or diverged
training, 2 input error. `main` alone maps errors to them.
All randomness derives from --seed; runs are bit-deterministic.

`nn` and `svgplot` are imported inside the commands that use them, so a
fresh wahba, avg or grad-check process starts without the training stack.
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import math
import os
import sys
import tempfile

import numpy as np

from .averaging import chordal_mean, quat_mean, weight_fault
from .so3 import d_ang, d_chord, d_quat, quat_to_rot
from .symrep import (A_to_theta, DegenerateEigenspace, EigenDecomp4, qcqp_forward,
                     qcqp_jacobian_theta, qcqp_solve)
from .wahba import (
    CORRUPTIONS,
    InputError,
    SyntheticConfig,
    _read_csv_table,
    build_data_matrix,
    read_correspondences_csv,
    rng_for,
    sample_synthetic,
)

RESULTS_SCHEMA = "# so3sym-results v1"
DT_SCHEMA = "# so3sym-dt v1"

# grad-check draws matrices whose eigengap is at least this times max(1, ||A||_F).
GRAD_CHECK_MIN_REL_GAP = 1e-2

# dt-eval draws (nn.DT_REFERENCE reference + --mix) samples, each as wide as the model's input
# plus its layer widths; this bound on their product keeps a run under 200 MB of memory, both
# with the default config and with matches_per_rotation 1000. The samples are scored a block at
# a time (reference, clean, corrupted), and a block's pass holds its input and two adjacent
# layers; the reference input goes once the first layer has run, before the mix is drawn. At
# the bound the runs peak at 137 MB (default config) and 127 MB (matches_per_rotation 1000).
DT_EVAL_BUDGET = 15_000_000


def _fmt(x):
    return f"{float(x):.12g}"


# ---------------------------------------------------------------------------
# grad-check


def run_grad_check(count=1000, seed=0, tolerance=1e-5, self_test=False):
    """Finite-difference certification of the analytic QCQP Jacobian.

    Draws random symmetric matrices with eigengap >= GRAD_CHECK_MIN_REL_GAP *
    max(1, ||A||_F), compares the analytic dq*/dtheta (qcqp_jacobian_theta,
    the VJP training runs applied to the identity) against central
    differences of step 1e-5 with perturbed eigenvectors sign-aligned to the base.
    With self_test=True the analytic Jacobian is sign-flipped first; the
    check must then fail (negative control). Returns a report dict.
    """
    rng = rng_for(seed, 101)
    step = 1e-5
    # Keep the filter's decomposition of every kept matrix: symeig4 is per-matrix
    # deterministic, so it equals a fresh decomposition of A. A refill draws only
    # the shortfall; the draws are sequential, so the kept matrices are those that
    # whole max(64, count) batches would give.
    parts, kept = [], 0
    while kept < count:
        batch = rng.standard_normal((max(64, count - kept), 4, 4))
        batch = 0.5 * (batch + np.swapaxes(batch, -1, -2))
        _, dec, keep = qcqp_forward(batch, gap_tol=GRAD_CHECK_MIN_REL_GAP)
        parts.append((batch[keep], dec.lambdas[keep], dec.vectors[keep]))
        kept += np.count_nonzero(keep)
    A, lam0, vec0 = (np.concatenate(col)[:count] for col in zip(*parts))
    dec0 = EigenDecomp4(lam0, vec0)
    q0 = vec0[..., 0]  # qcqp_forward's q*: column 0 of the decomposition

    J = qcqp_jacobian_theta(A, dec0)
    if self_test:
        J = -J

    J_fd = np.zeros_like(J)
    theta0 = A_to_theta(A)
    # theta_to_A(theta0 +- step e_k), bit for bit: theta entry k is A[i, j] and A[j, i].
    for k, (i, j) in enumerate(zip(*np.triu_indices(4))):
        Ak = A.copy()
        for sgn in (+1.0, -1.0):
            Ak[:, i, j] = Ak[:, j, i] = theta0[:, k] + sgn * step
            qk, _, _ = qcqp_forward(Ak)
            align = np.where(np.sum(qk * q0, axis=-1) < 0, -1.0, 1.0)
            J_fd[:, :, k] += sgn * (qk * align[:, None]) / (2.0 * step)

    denom = np.maximum(1.0, np.abs(J).max(axis=(1, 2)))
    rel = np.abs(J - J_fd).max(axis=(1, 2)) / denom
    max_rel = float(rel.max())
    passed = max_rel <= tolerance
    return {"count": count, "seed": seed, "tolerance": tolerance, "step": step,
            "min_rel_gap": GRAD_CHECK_MIN_REL_GAP, "max_rel_error": max_rel,
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
        raise InputError("provide exactly one of INPUT.csv or --synthetic")
    R_true = None
    if args.synthetic:
        try:
            R_true, corr = sample_synthetic(SyntheticConfig(
                num_matches=args.n, sigma=args.sigma, phi_max=np.deg2rad(args.phi_max_deg), seed=args.seed))
        except ValueError:  # below 1 the weights 1/sigma^2 overflow, above it the noise's squares
            raise InputError(f"--sigma {args.sigma!r} is too {'small' if args.sigma < 1 else 'large'}: "
                             f"the data matrix of {args.n} synthetic pairs overflows") from None
    else:
        corr = read_correspondences_csv(args.input)
        if len(corr) == 0:
            raise InputError(f"{args.input}: no correspondences")
    q, dec = qcqp_solve(build_data_matrix(corr))
    print(f"pairs: {len(corr)}")
    print(f"q_star: {' '.join(map(_fmt, q))}")
    print(f"eigengap: {_fmt(dec.eigengap)}")
    print(f"dispersion_trace: {_fmt(dec.dispersion_trace)}")
    if R_true is not None:
        err = np.rad2deg(d_ang(quat_to_rot(q), R_true))
        print(f"angular_error_deg: {_fmt(err)}")
    return 0


# ---------------------------------------------------------------------------
# train


@contextlib.contextmanager
def _replacing(path):
    """Yield a temporary path to write path's new contents to, and move it onto path when the
    block ends without error, so a reader of path sees the old file or the whole new one.

    The temporary has path's own name (np.savez appends no .npz), inside a directory that
    mkdtemp makes beside path, on path's file system, for this call alone. The temporary and
    its directory go whether the block succeeds or raises; nothing else is removed.
    """
    tmp_dir = tempfile.mkdtemp(prefix=".so3sym-", dir=os.path.dirname(path))
    tmp = os.path.join(tmp_dir, os.path.basename(path))
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
        os.rmdir(tmp_dir)


def _write_csv(path, schema, header, rows):
    """A CSV file, replaced atomically: the schema comment line, the header, then the rows."""
    with _replacing(path) as tmp, open(tmp, "w", newline="") as fh:
        fh.write(schema + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_train(args):
    from . import nn, svgplot

    cfg = nn.TrainConfig.from_json(args.config, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    # Each trial's model is written as the trial ends, so a later divergence keeps it.
    rows, saved, degen = [], [], 0
    for t in nn.train_experiment(cfg):
        rows += t.rows
        degen += t.degenerate_count
        if args.save_model:
            path = os.path.join(args.out, f"model_{t.head}_t{t.trial}.npz")
            with _replacing(path) as tmp:
                nn.save_model(tmp, t.net, t.head, cfg)
            saved.append(path)
        del t  # drop the net before the next trial builds its own
    rows.sort(key=lambda r: (r.head, r.trial, r.epoch, r.split))

    csv_path = os.path.join(args.out, "results.csv")
    # csv writes an int or float with str, which is its repr: the fields as they are, in order.
    _write_csv(csv_path, RESULTS_SCHEMA, [f.name for f in dataclasses.fields(nn.EpochRow)],
               map(dataclasses.astuple, rows))
    print(f"wrote {csv_path} ({len(rows)} rows)")
    svg_path = os.path.join(args.out, "learning_curves.svg")
    with _replacing(svg_path) as tmp:
        svgplot.render_learning_curves(rows, tmp)
    print(f"wrote {svg_path}")

    for path in saved:
        print(f"wrote {path}")
    if degen:
        print(f"degenerate training samples skipped: {degen}")
    return 0


# ---------------------------------------------------------------------------
# dt-eval


def cmd_dt_eval(args):
    from . import nn

    if args.corruption != "none" and args.mix < 2:
        raise InputError(f"--mix {args.mix} holds no corrupted sample (a mix of n corrupts n // 2); "
                         f"--corruption {args.corruption} needs --mix 2 or more")
    net, head, cfg_dict = nn.load_model(args.model)
    cfg = nn.TrainConfig.from_dict(cfg_dict)
    if head != "A":
        raise InputError(f"{args.model}: dispersion thresholding requires a symmetric-matrix "
                         f"head model, got {head!r}")
    width = sum(nn.layer_dims(cfg, head))
    most = DT_EVAL_BUDGET // width - nn.DT_REFERENCE
    if args.mix > most:
        raise InputError(f"--mix {args.mix} is over {max(most, 0)} for a model of per-sample width "
                         f"{width} (input plus layer widths): ({nn.DT_REFERENCE} reference + mix) "
                         f"x width must stay within {DT_EVAL_BUDGET}")
    os.makedirs(args.out, exist_ok=True)
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

    path = os.path.join(args.out, "dt_rows.csv")
    rows = [[i, repr(float(t)), int(k), int(c), repr(float(e))] for i, (t, k, c, e)
            in enumerate(zip(report.traces, report.kept, report.corrupted, report.errors_deg))]
    _write_csv(path, DT_SCHEMA, ["index", "trace", "kept", "corrupted", "err_deg"], rows)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# avg


QUAT_HEADERS = (["x", "y", "z", "w"], ["x", "y", "z", "w", "weight"])


def read_quaternions_csv(path):
    """Parse a quaternion CSV (header x,y,z,w with optional weight column). Each quaternion
    has norm 1 to within 1e-6 and weight_fault admits the weights, or the error names the line."""
    header, data, lines = _read_csv_table(path, QUAT_HEADERS)
    for row, line in zip(data, lines):
        n = math.hypot(*row[:4])
        if abs(n - 1.0) > 1e-6:
            raise InputError.at(path, line, f"quaternion norm {n:.6g} is not 1")
    weights = data[:, 4].copy() if len(header) == 5 and len(data) else None
    fault = weights is not None and weight_fault(weights)
    if fault:
        raise InputError.at(path, lines[fault[0]], fault[1])
    return np.ascontiguousarray(data[:, :4]), weights


def cmd_avg(args):
    quats, weights = read_quaternions_csv(args.input)
    if len(quats) == 0:
        raise InputError(f"{args.input}: no quaternions")
    if args.method == "quat" and weights is not None:
        raise InputError("weights are only supported by the chordal method")
    if args.method == "chordal":
        mean = chordal_mean(quats, weights)
        w = np.ones(len(quats)) if weights is None else weights
        cost = float(np.sum(w * d_chord(quat_to_rot(mean), quat_to_rot(quats)) ** 2))
    else:
        mean = quat_mean(quats)
        cost = float(np.sum(d_quat(mean, quats) ** 2))
    print(f"count: {len(quats)}")
    print(f"method: {args.method}")
    print(f"mean: {' '.join(map(_fmt, mean))}")
    print(f"residual_cost: {_fmt(cost)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _bounded(kind, lo, hi=math.inf, lo_open=False):
    """argparse type: a finite int or float (`kind`) >= lo, or > lo when lo_open, and <= hi."""
    what = (f"{'an integer' if kind is int else 'a finite number'} {'>' if lo_open else '>='} {lo:g}"
            + (f" and <= {hi}" if hi < math.inf else ""))

    def parse(text):
        x = kind(text)  # argparse reports its ValueError as "invalid <kind> value"
        if not ((lo < x if lo_open else lo <= x) and x <= hi and x != math.inf):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return x
    parse.__name__ = kind.__name__
    return parse


@functools.cache  # parse_args leaves the parser as it was, so one per process serves every main
def build_parser():
    # The upper bounds of --count, --n and --mix follow nn.SIZE_BOUNDS: one flag at its bound,
    # with the rest at their defaults, peaks under 200 MB, so a typo cannot ask for gigabytes.
    # dt-eval also bounds --mix by the model's width (DT_EVAL_BUDGET).
    p = argparse.ArgumentParser(
        prog="so3sym",
        description="Symmetric-matrix rotation representation: solver, training, and OOD tools")
    p.add_argument("--seed", type=_bounded(int, 0), default=0, help="global RNG seed (default 0)")
    p.add_argument("--out", default=".", help="output directory for generated files")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grad-check", help="finite-difference check of the QCQP layer Jacobian")
    g.add_argument("--count", type=_bounded(int, 1, 40_000), default=1000,
                   help="number of random matrices (at most 40000)")
    g.add_argument("--tolerance", type=_bounded(float, 0, lo_open=True), default=1e-5,
                   help="max relative error allowed")
    g.add_argument("--self-test", action="store_true",
                   help="negative control: verify a corrupted Jacobian is rejected")
    g.set_defaults(func=cmd_grad_check)

    w = sub.add_parser("wahba", help="solve a Wahba problem from CSV or synthetic data")
    w.add_argument("input", nargs="?", default=None,
                   help="correspondence CSV (header ux,uy,uz,vx,vy,vz,sigma)")
    w.add_argument("--synthetic", action="store_true", help="generate a synthetic instance")
    w.add_argument("--n", type=_bounded(int, 1, 1_000_000), default=100,
                   help="synthetic pair count (at most 1000000)")
    w.add_argument("--sigma", type=_bounded(float, 0), default=0.01, help="synthetic noise std-dev")
    w.add_argument("--phi-max-deg", type=_bounded(float, 0, 180, lo_open=True), default=180.0,
                   help="synthetic max angle in degrees, in (0, 180]")
    w.set_defaults(func=cmd_wahba)

    t = sub.add_parser("train", help="train rotation regressors per representation head")
    t.add_argument("config", help="JSON config path")
    t.add_argument("--save-model", action="store_true", help="save trained models (.npz)")
    t.set_defaults(func=cmd_train)

    d = sub.add_parser("dt-eval", help="dispersion-threshold OOD evaluation of a trained model")
    d.add_argument("model", help="model .npz path (symmetric-matrix head)")
    d.add_argument("--corruption", choices=CORRUPTIONS, default="noise")
    d.add_argument("--q", type=_bounded(float, 0, lo_open=True), default=0.75,
                   help="training quantile for the threshold (> 0; >= 1 keeps everything)")
    d.add_argument("--mix", type=_bounded(int, 1, 50_000), default=200,
                   help="test mix size, 50%% corrupted (at most 50000)")
    d.set_defaults(func=cmd_dt_eval)

    a = sub.add_parser("avg", help="average a CSV of unit quaternions")
    a.add_argument("input", help="quaternion CSV (header x,y,z,w[,weight])")
    a.add_argument("--method", choices=["chordal", "quat"], default="chordal")
    a.set_defaults(func=cmd_avg)
    return p


def main(argv=None):
    """Run one command; the only place that turns an error into an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateEigenspace as exc:
        print(f"error: degenerate problem: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
