#!/usr/bin/env python3
"""so3sym benchmark: the train and solve workloads.

    python3 benchmarks/run.py --workload {train,solve,all} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Each workload is a closed loop driven by one client in one process. It
builds every input from --seed before timing starts, runs one untimed
warm-up cycle, repeats whole cycles until --seconds have passed, and
checks every output against an oracle written here. The package is
imported from ../src and called only through public names, from outside:
nothing in it is edited.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with every public so3sym function wrapped (see
tracer.py) and prints per-layer metrics per workload cycle. Detail lines
come first; the last line is one JSON object with the keys correct,
attempted, failed and metrics. README.md in this directory explains the
workloads, the statistics and which layer should move which metric.
"""

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

sys.path.insert(0, str(SRC))
try:
    import so3sym
    from so3sym import averaging, bingham, cli, nn, symrep, wahba
except ImportError:  # reported by main() with exit code 2
    so3sym = None

HEADS = ("quat", "6d", "A")
CORRUPTIONS = ("noise", "shuffle", "zero")
DT_QUANTILE = 0.75
# Reference work that gated timings are paired with (see reference_kernel()
# and CliRunner.reference()), and its time on the measuring host in its fast
# state (2-vCPU x86_64 VM, Python 3.11, numpy 2.4.6).
KERNEL_STEPS = 150
KERNEL_REF_S = 0.0011
SETUP_KERNEL_REPS = 9
REF_PROCESS_CODE = "import numpy"
REF_PROCESS_S = 0.18

SIZES = {
    "full": dict(setup_reps=9, epochs=1, trials=3, pairs=(10, 100, 1000), quats=(10, 1000),
                 instances=8, rounds=10, reference=2000, mix=2000, bulk=2000, gradcheck=1000,
                 import_reps=5),
    "tiny": dict(setup_reps=1, epochs=1, trials=1, pairs=(10, 100), quats=(10,),
                 instances=2, rounds=2, reference=100, mix=100, bulk=100, gradcheck=50,
                 import_reps=1),
}

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "cli_ms": "ms", "peak_rss_mb": "MB"}

# Per-layer metrics of a traced run, each per workload cycle.
PER_LAYER = {
    "symrep.symeig4.calls": "count",
    "symrep.symeig4.calls_b1": "count",
    "symrep.symeig4.calls_b2_999": "count",
    "symrep.symeig4.calls_b1000_up": "count",
    "symrep.symeig4.matrices": "count",
    "symrep.symeig4.matrices_per_call": "count",
    "symrep.symeig4.calls_per_op": "count",
    "symrep.symeig4.self_ms": "ms",
    "symrep.qcqp_solve.self_ms": "ms",
    "symrep.theta_to_A.self_ms": "ms",
    "bingham.dispersion_trace.calls": "count",
    "bingham.dispersion_trace.self_ms": "ms",
    "bingham.belief_from_A.self_ms": "ms",
    "wahba.solve_wahba.self_ms": "ms",
    "wahba.build_data_matrix.self_ms": "ms",
    "wahba.build_data_matrix.pairs": "count",
    "averaging.inertia_matrix.self_ms": "ms",
    "averaging.inertia_matrix.quats": "count",
    "averaging.chordal_mean.self_ms": "ms",
    "wahba.read_correspondences_csv.self_ms": "ms",
    "wahba.read_correspondences_csv.rows": "count",
    "cli.read_quaternions_csv.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.import_ms": "ms",
    "nn.sample_batch.self_ms": "ms",
    "nn.forward.self_ms": "ms",
    "nn.forward.rows": "count",
    "nn.backward.self_ms": "ms",
    "nn.adam_step.self_ms": "ms",
    "nn.adam_step.calls": "count",
    "nn.evaluate.self_ms": "ms",
    "wahba.rng_for.calls": "count",
    "nn.train_single.self_ms": "ms",
    "svgplot.render_learning_curves.self_ms": "ms",
    "so3.rot_to_quat.self_ms": "ms",
    "so3.quat_to_rot.self_ms": "ms",
    "so3.d_ang.self_ms": "ms",
    "cli.run_grad_check.self_ms": "ms",
    "nn.dt_evaluate.self_ms": "ms",
    "nn.degenerate_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.cycles": "count",
}

ISOLATION = ("nothing pinned or isolated, no cache dropping, BLAS thread "
             "variables not set by the benchmark")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def median(xs):
    return statistics.median(xs)


_KERNEL_INPUT = np.random.default_rng(0).standard_normal((4, 4))


def reference_kernel(reps=1):
    """Median time of `reps` runs of a fixed piece of work: small numpy calls on a 4x4 matrix and plain Python.

    The host's speed changes within seconds, by up to 2x. The package's code
    and this kernel slow down together, so their ratio varies far less than
    either; the package never runs the kernel, so a change to the package
    moves only the numerator. Each gated in-process timing is paired with
    this kernel timed right before and right after it (see Record.op).
    """
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        x, v, counts = _KERNEL_INPUT, np.zeros(4), {}
        for i in range(KERNEL_STEPS):
            x = 0.5 * (x + x.T)
            x = x / (np.linalg.norm(x) + 1.0)
            v = v + np.sqrt(v + 1.0)
            for j in range(20):
                counts[j] = counts.get(j, 0) + i
        times.append(time.perf_counter() - start)
    return median(times)


def tail(xs):
    """(label, value): highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if len(xs) * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", float(np.percentile(xs, p))
    return "max", max(xs)


def timing(xs):
    """Detail-line form of a latency sample: median, sample count and tail."""
    label, value = tail(xs)
    return (1e3 * median(xs), "ms", len(xs), f"{label} {1e3 * value:.6g} ms")


def digest(*blobs):
    h = hashlib.sha256()
    for b in blobs:
        h.update(b)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Oracles: independent of the package, numpy only.


def quat_to_rot(q):
    x, y, z, w = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


def axis_angle_to_rot(axis, angle):
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * K @ K


def kabsch(u, v, w):
    """Rotation maximizing sum_i w_i v_i . R u_i, by SVD."""
    U, _, Vt = np.linalg.svd((w[:, None] * v).T @ u)
    d = np.sign(np.linalg.det(U @ Vt))
    return U @ np.diag([1.0, 1.0, d]) @ Vt


def is_canonical(q):
    """Sign rule of the package: w > 0, else the first nonzero of x, y, z > 0."""
    for c in (q[3], q[0], q[1], q[2]):
        if c != 0.0:
            return c > 0.0
    return False


def trace_ok(A, traces):
    """traces == 3*l1 - l2 - l3 - l4 from eigvalsh, within 1e-9 * max(1, ||A||_F)."""
    lam = np.linalg.eigvalsh(A)
    ref = 3.0 * lam[..., 0] - lam[..., 1:].sum(axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(A, axis=(-2, -1)))
    return bool(np.all(np.abs(np.asarray(traces) - ref) <= 1e-9 * scale))


def parse_fields(stdout):
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def learned(results_csv):
    """Every trial's last-epoch test median is below its epoch-0 median."""
    rows = [r for r in csv.reader(io.StringIO(results_csv.decode()))
            if r and not r[0].startswith("#")]
    col = {name: i for i, name in enumerate(rows[0])}
    medians = defaultdict(dict)
    for r in rows[1:]:
        if r[col["split"]] == "test":
            medians[(r[col["head"]], r[col["trial"]])][int(r[col["epoch"]])] = float(r[col["median_deg"]])
    return bool(medians) and all(m[max(m)] < m[0] for m in medians.values())


# ---------------------------------------------------------------------------
# Measurement records


class Tally:
    """Operations attempted and failed (an operation fails any output check)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Record:
    """Timings of one measured phase, by operation kind.

    A paired record also keeps, per kind, each operation's time divided by
    the mean of its reference timed right before and right after it
    (`ratios`), and those reference times (`refs`). In-process operations
    are paired with reference_kernel(kernel_reps).
    """

    def __init__(self, tally, paired=False, kernel_reps=1):
        self.tally = tally
        self.paired = paired
        self.kernel_reps = kernel_reps
        self.times = defaultdict(list)
        self.ratios = defaultdict(list)
        self.refs = defaultdict(list)
        self.cycles = 0
        self.wall_s = 0.0

    def op(self, kinds, what, fn, check, reference=None):
        """Time fn(), then count it as one operation that passes iff check(result)."""
        if self.paired:
            reference = reference or functools.partial(reference_kernel, self.kernel_reps)
            before = reference()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is a failed one, not a crash
            result, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - start
        if self.paired:
            ref = 0.5 * (before + reference())
        for kind in kinds:
            self.times[kind].append(elapsed)
            if self.paired:
                self.ratios[kind].append(elapsed / ref)
                self.refs[kind].append(ref)
        if error is None:
            try:
                ok = bool(check(result))
            except Exception as exc:  # a malformed output fails its check
                ok, error = False, exc
        else:
            ok = False
        self.tally.check(ok, what if error is None else f"{what}: {error!r}")
        return elapsed

    def cycle_s(self, kinds, per_kind=None):
        """Time of one cycle's operations of the given kinds, from each kind's median.

        per_kind defaults to the raw times; pass self.ratios for the paired ones.
        """
        per_kind = self.times if per_kind is None else per_kind
        return sum(n * median(per_kind[k]) for k, n in kinds.items())

    def cli_s(self, kinds, per_kind=None):
        """Median time (or ratio) of the given CLI commands' processes, pooled."""
        per_kind = self.times if per_kind is None else per_kind
        return median([x for k in kinds for x in per_kind[k]])

    def ref_ms(self, kinds):
        """Detail-line form of the reference times paired with the given kinds."""
        refs = [r for k in kinds for r in self.refs[k]]
        return 1e3 * median(refs), "ms", len(refs)


class CliRunner:
    """Runs fresh ``so3sym`` CLI processes; through cliprobe.py when traced."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = child_env()
        self.traced = False
        self.stats = defaultdict(lambda: defaultdict(int))
        self.layers = set()
        self._n = 0

    def run(self, rec, kind, what, args, check):
        if self.traced:
            trace_path = self.workdir / f"cli_trace_{self._n}.json"
            self._n += 1
            cmd = [sys.executable, str(BENCH / "cliprobe.py"), str(trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "so3sym.cli", *args]

        def fn():
            return subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=120)

        elapsed = rec.op((kind,), what, fn, lambda p: p.returncode == 0 and check(p.stdout),
                         reference=self.reference)
        if self.traced and trace_path.exists():
            stats, layers = tracer.load_summary(trace_path)
            tracer.merge(self.stats, stats)
            self.layers |= layers
            trace_path.unlink()
        return elapsed

    def reference(self):
        """Time a fresh interpreter that imports numpy and nothing of the package.

        Process start and the numpy import are most of a CLI process's time,
        and the host's drift moves them differently from in-process work;
        CLI timings are paired with this process, not with reference_kernel().
        """
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", REF_PROCESS_CODE], cwd=self.workdir, env=self.env,
                       check=True, timeout=60)
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Workloads. setup(d) builds every input under d and returns a fingerprint
# that must repeat across setup repetitions; cycle(rec) runs one cycle.
# op_kinds gives how many in-process operations of each kind one cycle runs;
# cli_kinds names the fresh CLI processes, one of each per cycle.


class Train:
    """`so3sym train` in-process, one config per head, then scoring with a trained A head."""

    def __init__(self, seed, size, workdir, runner, tally):
        self.seed, self.size, self.dir, self.runner, self.tally = seed, size, workdir, runner, tally
        self.count = 0
        # Training rotations one `so3sym train` call processes at the default batching.
        defaults = nn.TrainConfig()
        self.rotations = (size["trials"] * size["epochs"] * defaults.batches_per_epoch
                          * defaults.batch_rotations)
        self.op_kinds = {**{f"train.{h}": 1 for h in HEADS}, "score": 1, "gradcheck": 1}
        self.cli_kinds = ("cli.train",)
        self.kernel_reps = 3  # operations of 0.05-0.3 s; more reference samples steady their ratios

    def setup(self, d):
        d.mkdir()
        configs = {h: write_json(d / f"train_{h}.json",
                                 {"seed": self.seed, "head": h, "epochs": self.size["epochs"],
                                  "trials": self.size["trials"]}) for h in HEADS}
        configs["cli"] = write_json(d / "train_cli.json",
                                    {"seed": self.seed, "head": "all", "epochs": 1, "trials": 1})
        # The A head's command saves its models; the ones saved here are scored in every cycle.
        self.args = {key: ["train", str(cfg), *(["--save-model"] if key == "A" else [])]
                     for key, cfg in configs.items()}
        self.reference = {}
        for key, args in self.args.items():
            out = d / f"out_{key}"
            rc = quiet(cli.main, ["--out", str(out), *args])
            self.reference[key] = (out / "results.csv").read_bytes() if rc == 0 else b""
            self.tally.check(rc == 0 and learned(self.reference[key]), f"setup train {key} learns")
        self.model = d / "out_A" / "model_A_t0.npz"
        self.net, _, cfg = nn.load_model(self.model)
        self.cfg = nn.TrainConfig.from_dict(cfg)
        rng = np.random.default_rng([self.seed, 3])
        self.bulk = {c: nn.sample_batch(self.cfg, rng, self.size["bulk"], corruption=c)[0]
                     for c in CORRUPTIONS}
        return digest(*self.reference.values(), *(p.tobytes() for p in self.net.params()),
                      *(x.tobytes() for x in self.bulk.values()))

    def _same(self, out, key):
        return (out / "results.csv").read_bytes() == self.reference[key]

    def _score(self, corruption, rng):
        report = nn.dt_evaluate(self.net, self.cfg, DT_QUANTILE, corruption, rng,
                                n_mix=self.size["mix"], n_reference=self.size["reference"])
        raw, _ = nn.forward(self.net, self.bulk[corruption])
        A = symrep.theta_to_A(raw)
        return report, A, bingham.dispersion_trace(A)

    def _score_ok(self, out):
        report, A, traces = out
        n = self.size["mix"]
        return (len(report.traces) == n and int(report.corrupted.sum()) == n // 2
                and bool(np.all(np.isfinite(report.traces)))
                and bool(np.all(report.kept == (report.traces <= report.threshold)))
                and trace_ok(A, traces))

    def cycle(self, rec):
        self.count += 1
        for h in HEADS:
            out = self.dir / f"run_{h}"
            out.mkdir(exist_ok=True)
            (out / "results.csv").unlink(missing_ok=True)
            args = ["--out", str(out), *self.args[h]]
            rec.op((f"train.{h}",), f"train {h} rerun identical",
                   lambda: quiet(cli.main, args), lambda rc: rc == 0 and self._same(out, h))
        c = CORRUPTIONS[self.count % len(CORRUPTIONS)]
        rng = np.random.default_rng([self.seed, self.count])
        rec.op(("score",), f"score {c}", lambda: self._score(c, rng), self._score_ok)
        count = self.size["gradcheck"]
        rec.op(("gradcheck",), "grad-check passes",
               lambda: cli.run_grad_check(count=count, seed=self.seed + self.count),
               lambda r: r["passed"] and r["count"] == count)

        out = self.dir / "run_cli"
        (out / "results.csv").unlink(missing_ok=True)
        self.runner.run(rec, "cli.train", "cli train matches in-process",
                        ["--out", str(out), *self.args["cli"]],
                        lambda stdout: self._same(out, "cli"))

    def details(self, rec):
        samples = self.size["reference"] + self.size["mix"] + self.size["bulk"]
        d = {f"train_rot_per_s.{h}": (self.rotations / median(rec.times[f"train.{h}"]), "1/s",
                                      len(rec.times[f"train.{h}"]))
             for h in HEADS}
        d["score_per_s"] = (samples / median(rec.times["score"]), "1/s", len(rec.times["score"]))
        d["gradcheck_per_s"] = (self.size["gradcheck"] / median(rec.times["gradcheck"]), "1/s",
                                len(rec.times["gradcheck"]))
        for kind in self.op_kinds:
            d[f"{kind}_ms"] = timing(rec.times[kind])
        d["cli_train_ms"] = timing(rec.times["cli.train"])
        return d


class Solve:
    """Single-problem requests in-process, interleaved with fresh CLI runs."""

    def __init__(self, seed, size, workdir, runner, tally):
        self.seed, self.size, self.dir, self.runner, self.tally = seed, size, workdir, runner, tally
        self.next = 0
        rounds = size["rounds"]
        self.op_kinds = {**{f"wahba.{n}": rounds for n in size["pairs"]},
                         **{f"mean.{k}": rounds for k in size["quats"]}}
        self.cli_kinds = ("cli.wahba", "cli.avg")
        self.kernel_reps = 1  # operations of 1-10 ms

    def setup(self, d):
        d.mkdir()
        rng = np.random.default_rng([self.seed, 1])
        n_inst = self.size["instances"]
        self.problems = {n: [self._wahba_problem(rng, n) for _ in range(n_inst)]
                         for n in self.size["pairs"]}
        self.quatsets = {k: [self._quat_set(rng, k) for _ in range(n_inst)]
                         for k in self.size["quats"]}

        corr, _ = self.problems[max(self.problems)][0]
        self.pairs_csv = d / "pairs.csv"
        with open(self.pairs_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["ux", "uy", "uz", "vx", "vy", "vz", "sigma"])
            w.writerows([repr(float(x)) for x in (*corr.u[i], *corr.v[i], corr.sigma[i])]
                        for i in range(len(corr)))
        quats, _ = self.quatsets[max(self.quatsets)][0]
        self.quats_csv = d / "quats.csv"
        with open(self.quats_csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y", "z", "w"])
            w.writerows([repr(float(x)) for x in q] for q in quats)

        # In-process answers for the CSV inputs, which the CLI runs must reproduce.
        self.cli_q = wahba.solve_wahba(corr)
        self.cli_mean = averaging.chordal_mean(quats)
        self.tally.check(self._wahba_ok(self.cli_q, self.problems[max(self.problems)][0][1])
                         and self._mean_ok(self.cli_mean, self.quatsets[max(self.quatsets)][0][1]),
                         "setup in-process answers match oracles")
        return digest(self.pairs_csv.read_bytes(), self.quats_csv.read_bytes(),
                      self.cli_q.tobytes(), self.cli_mean.tobytes())

    @staticmethod
    def _wahba_problem(rng, n):
        axis = rng.standard_normal(3)
        R = axis_angle_to_rot(axis / np.linalg.norm(axis), rng.uniform(0.0, np.pi))
        u = rng.standard_normal((n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sigma = rng.uniform(0.005, 0.05, n)
        v = u @ R.T + sigma[:, None] * rng.standard_normal((n, 3))
        return wahba.Correspondences(u=u, v=v, sigma=sigma), kabsch(u, v, 1.0 / sigma ** 2)

    @staticmethod
    def _quat_set(rng, k):
        center = rng.standard_normal(4)
        q = center / np.linalg.norm(center) + 0.3 * rng.standard_normal((k, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q *= np.where(rng.random(k) < 0.5, -1.0, 1.0)[:, None]
        return q, np.linalg.eigh(q.T @ q)[1][:, -1]

    @staticmethod
    def _wahba_ok(q, R_oracle):
        return is_canonical(q) and np.abs(quat_to_rot(q) - R_oracle).max() <= 1e-8

    @staticmethod
    def _request_ok(out, R_oracle):
        q, A, tr, belief = out
        return (Solve._wahba_ok(q, R_oracle) and trace_ok(A, tr)
                and abs(abs(belief.mode @ q) - 1.0) <= 1e-9
                and abs(belief.dispersions.sum() - tr) <= 1e-9 * max(1.0, np.linalg.norm(A)))

    @staticmethod
    def _mean_ok(m, top):
        return is_canonical(m) and abs(abs(m @ top) - 1.0) <= 1e-9

    @staticmethod
    def _request(corr):
        q = wahba.solve_wahba(corr)
        A = wahba.build_data_matrix(corr)
        return q, A, bingham.dispersion_trace(A), bingham.belief_from_A(A)

    def cycle(self, rec):
        n_inst = self.size["instances"]
        for _ in range(self.size["rounds"]):
            i = self.next % n_inst
            self.next += 1
            for n, probs in self.problems.items():
                corr, R_oracle = probs[i]
                rec.op(("request", f"wahba.{n}"), f"wahba n={n}", lambda: self._request(corr),
                       lambda out: self._request_ok(out, R_oracle))
            for k, sets in self.quatsets.items():
                quats, top = sets[i]
                rec.op(("request", f"mean.{k}"), f"chordal mean k={k}",
                       lambda: averaging.chordal_mean(quats), lambda m: self._mean_ok(m, top))
        self.runner.run(rec, "cli.wahba", "cli wahba matches in-process",
                        ["wahba", str(self.pairs_csv)],
                        lambda out: self._printed_close(out, "q_star", self.cli_q))
        self.runner.run(rec, "cli.avg", "cli avg matches in-process",
                        ["avg", str(self.quats_csv)],
                        lambda out: self._printed_close(out, "mean", self.cli_mean))

    @staticmethod
    def _printed_close(stdout, key, expected):
        printed = np.array([float(x) for x in parse_fields(stdout)[key].split()])
        return printed.shape == expected.shape and np.abs(printed - expected).max() <= 1e-9

    def details(self, rec):
        requests = rec.times["request"]
        label, value = tail(requests)
        d = {"solve_p50_ms": (1e3 * median(requests), "ms", len(requests)),
             "solve_tail_ms": (1e3 * value, "ms", len(requests), label),
             "solves_per_s": (len(requests) / sum(requests), "1/s", len(requests))}
        for kind in self.op_kinds:
            d[f"solve_p50_ms.{kind}"] = timing(rec.times[kind])
        d["cli_wahba_ms"] = timing(rec.times["cli.wahba"])
        d["cli_avg_ms"] = timing(rec.times["cli.avg"])
        return d


WORKLOADS = {"train": Train, "solve": Solve}


# ---------------------------------------------------------------------------
# Running a workload


def measure(workload, rec, seconds, between=None, count=0):
    """Run whole cycles for `seconds` (at least one).

    `between()` is called `count` times, spread evenly over the run; its
    time is not counted in the run's.
    """
    start = time.perf_counter()
    paused, done = 0.0, 0
    while True:
        workload.cycle(rec)
        rec.cycles += 1
        elapsed = time.perf_counter() - start - paused
        if elapsed >= seconds:
            break
        if done < count and elapsed >= seconds * (done + 1) / (count + 1):
            t = time.perf_counter()
            between()
            paused += time.perf_counter() - t
            done += 1
    rec.wall_s = time.perf_counter() - start - paused


def import_ms(workdir, reps):
    """Fresh interpreter importing so3sym.cli minus a bare interpreter start."""
    env = child_env()
    runs = {"import so3sym.cli": [], "pass": []}
    for _ in range(reps):
        for code, times in runs.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=workdir, env=env, check=True,
                           timeout=60)
            times.append(time.perf_counter() - start)
    return 1e3 * (median(runs["import so3sym.cli"]) - median(runs["pass"]))


def layer_metrics(workload, traced, plain, inproc, child, layers, import_cost):
    total = defaultdict(lambda: defaultdict(int))
    tracer.merge(total, inproc)
    tracer.merge(total, child)
    cycles = traced.cycles
    ops = sum(len(traced.times[k]) for k in workload.op_kinds)
    eig = total["symrep.symeig4"]
    a_samples = total["nn.train_single"]["a_head_samples"]
    special = {
        "symrep.symeig4.matrices_per_call": eig["matrices"] / eig["calls"] if eig["calls"] else 0.0,
        "symrep.symeig4.calls_per_op": inproc["symrep.symeig4"]["calls"] / ops,
        "cli.import_ms": import_cost,
        "nn.degenerate_frac": (total["nn.train_single"]["a_head_degenerate"] / a_samples
                               if a_samples else 0.0),
        "trace.overhead_frac": (traced.wall_s / traced.cycles) / (plain.wall_s / plain.cycles) - 1.0,
        "trace.cycles": cycles,
    }
    out, absent = {}, []
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        layer, stat = name.rsplit(".", 1)
        if layer not in layers:
            absent.append(layer)
        value = total[layer]["self_ns"] / 1e6 if stat == "self_ms" else total[layer][stat]
        out[name] = value / cycles
    return out, absent


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            sha = proc.stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_thread_env": {v: os.environ.get(v, "unset") for v in threads},
            "git_sha": sha, "isolation": ISOLATION}


def run_all(args):
    rc = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace),
                               "--size", args.size])
        rc = max(rc, proc.returncode)
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny shrinks every input for the smoke test")
    args = p.parse_args(argv)
    if so3sym is None or not Path(so3sym.__file__).resolve().is_relative_to(SRC):
        print(f"error: so3sym sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    size = SIZES[args.size]
    workdir = RUN_DIR / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    runner = CliRunner(workdir)
    workload = WORKLOADS[args.workload](args.seed, size, workdir, runner, tally)

    setup_s, setup_ratio, prints = [], [], set()

    def set_up():
        before = reference_kernel(SETUP_KERNEL_REPS)
        start = time.perf_counter()
        prints.add(workload.setup(workdir / f"setup{len(setup_s)}"))
        setup_s.append(time.perf_counter() - start)
        setup_ratio.append(setup_s[-1] / (0.5 * (before + reference_kernel(SETUP_KERNEL_REPS))))

    reference_kernel()
    set_up()
    workload.cycle(Record(tally))  # warm-up: compiled modules, file cache, lazy numpy state

    env = environment()
    print("env: " + json.dumps(env))
    if args.trace:
        import_cost = import_ms(workdir, size["import_reps"])
        plain = Record(tally)
        measure(workload, plain, args.seconds / 2)
        t = tracer.Tracer(so3sym)
        t.install()
        runner.traced = True
        traced = Record(tally)
        try:
            measure(workload, traced, args.seconds / 2)
        finally:
            t.uninstall()
            runner.traced = False
        t.dump(workdir / "trace.json")
        metrics, absent = layer_metrics(workload, traced, plain, t.summary(), runner.stats,
                                        t.layers | runner.layers, import_cost)
        units = PER_LAYER
        details = {}
        for layer in sorted(set(absent)):
            print(f"{layer}: absent (not a public so3sym function)")
    else:
        rec = Record(tally, paired=True, kernel_reps=workload.kernel_reps)
        # The other setup repetitions are spread over the run, so that setup_s
        # samples the host's states as the timed cycles do.
        measure(workload, rec, args.seconds, set_up, size["setup_reps"] - 1)
        n_ops = sum(workload.op_kinds.values())
        # Gated timings: medians of paired ratios, read at the reference speed.
        metrics = {
            "setup_s": median(setup_ratio) * KERNEL_REF_S,
            "work_per_s": n_ops / (rec.cycle_s(workload.op_kinds, rec.ratios) * KERNEL_REF_S),
            "cli_ms": 1e3 * rec.cli_s(workload.cli_kinds, rec.ratios) * REF_PROCESS_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = {
            "setup_s": median(setup_s),
            "work_per_s": n_ops / rec.cycle_s(workload.op_kinds),
            "cli_ms": 1e3 * rec.cli_s(workload.cli_kinds),
        }
        units = END_TO_END
        details = workload.details(rec)
        write_json(workdir / "samples.json", {"times": rec.times, "ratios": rec.ratios,
                                              "refs": rec.refs, "setup_s": setup_s,
                                              "setup_ratio": setup_ratio})
        details["cycles"] = (rec.cycles, "count")
        details["reference_kernel_ms"] = rec.ref_ms(workload.op_kinds)
        details["reference_process_ms"] = rec.ref_ms(workload.cli_kinds)
        for name, value in raw.items():
            details[f"{name}.raw"] = (value, END_TO_END[name])
        details["setup_s.raw"] += (len(setup_s),)
        details["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")

    tally.check(len(prints) == 1, "setup repetitions build identical inputs")
    details["failed_frac"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    for name, value in details.items():
        print(f"{name}: " + " ".join(str(v) for v in value))
    for what in tally.failures:
        print(f"FAILED: {what}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units}}
    write_json(workdir / "result.json", {"workload": args.workload, "seed": args.seed,
                                         "trace": args.trace, "env": env, "details": details,
                                         **result})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
