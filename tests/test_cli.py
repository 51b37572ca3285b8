import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from so3sym import averaging, bingham, cli, nn, so3, svgplot, symrep, wahba
from so3sym.wahba import SyntheticConfig

from util import kabsch, write_model, write_model_with_bare_header, zero_initial_nets


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


REPO = Path(__file__).resolve().parent.parent
# The one DegenerateEigenspace message, as main prints it.
DEGENERATE_MESSAGE = r"error: degenerate problem: minimum eigenvalue is not simple \(gap .* < 1\.0e-08 \* max\(1, \|\|A\|\|_F\)\)"


def parse_kv(stdout):
    vals = {}
    for line in stdout.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            vals[k] = v
    return vals


# -- grad-check -------------------------------------------------------------


def test_grad_check_passes(capsys):
    code, out, _ = run(capsys, "--seed", 7, "grad-check", "--count", 60)
    assert code == 0
    assert "result: PASS" in out


def test_grad_check_self_test_negative_control(capsys):
    code, out, _ = run(capsys, "--seed", 7, "grad-check", "--count", 20, "--self-test")
    assert code == 0
    assert "corrupted Jacobian rejected" in out


def test_grad_check_deterministic_report(capsys):
    _, out1, _ = run(capsys, "--seed", 3, "grad-check", "--count", 30)
    _, out2, _ = run(capsys, "--seed", 3, "grad-check", "--count", 30)
    assert out1 == out2


@pytest.mark.parametrize("argv, flag", [
    (["grad-check", "--count", "0"], "--count"),
    (["grad-check", "--count", "-3"], "--count"),
    (["wahba", "--synthetic", "--n", "0"], "--n"),
    (["wahba", "--synthetic", "--sigma", "-1"], "--sigma"),
    (["wahba", "--synthetic", "--phi-max-deg", "0"], "--phi-max-deg"),
    (["dt-eval", "model.npz", "--q", "0"], "--q"),
    (["dt-eval", "model.npz", "--mix", "0"], "--mix"),
    (["wahba", "--synthetic", "--sigma", "1e-80"], "--sigma 1e-80"),
    (["wahba", "--synthetic", "--sigma", "1e-200"], "--sigma 1e-200"),
    (["wahba", "--synthetic", "--sigma", "1e154"], "--sigma 1e+154"),
    (["wahba", "--synthetic", "--sigma", "1e200"], "--sigma 1e+200"),
], ids=["count-0", "count-neg", "n-0", "sigma-neg", "phi-max-0", "q-0", "mix-0", "sigma-1e-80",
        "sigma-1e-200", "sigma-1e154", "sigma-1e200"])
def test_out_of_range_flag_exits_2(capsys, argv, flag):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 2
    assert flag in capsys.readouterr().err


_PAIRS = "ux,uy,uz,vx,vy,vz,sigma\n1,0,0,1,0,0,1\n"
_HUGE_PAIR = "1e160,0,0,1e160,0,0,{}\n"  # |u|^2 + |v|^2 overflows; no sigma can help
_QUATS = "x,y,z,w,weight\n0,0,0,1,1\n"  # a weight summing past ~3e153 overflows the inertia matrix


@pytest.mark.parametrize("cmd, text, message", [
    ("wahba", _PAIRS + "0,1,0,0,1,0,nan\n", "sigma must be finite"),
    ("wahba", _PAIRS + "0,1,0,0,1,0,inf\n", "sigma must be finite"),
    ("wahba", _PAIRS + "0,nan,0,0,1,0,1\n", "uy must be finite"),
    ("avg", "x,y,z,w\n0,0,0,1\nnan,0,0,1\n", "x must be finite"),
    ("avg", _QUATS + "0,0,0,1,nan\n", "weight must be finite"),
    ("avg", _QUATS + "0,0,0,1,inf\n", "weight must be finite"),
    ("avg", _QUATS + "0,0,0,1,-1\n", "weight must be >= 0"),
], ids=["sigma-nan", "sigma-inf", "coord-nan", "quat-nan", "weight-nan", "weight-inf", "weight-neg"])
def test_bad_csv_value_exits_2(tmp_path, capsys, cmd, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    code, _, err = run(capsys, cmd, path)
    assert code == 2
    assert f"line 3: {message}" in err


@pytest.mark.parametrize("cmd, text", [
    ("wahba", _PAIRS + "0,1,0,0,1,0,1e-170\n"),
    ("wahba", _PAIRS + "0,1,0,0,1,0,1e-160\n"),
], ids=["sigma-underflow", "sigma-overflow"])
def test_csv_sigma_with_infinite_weight_exits_2(tmp_path, capsys, cmd, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    code, _, err = run(capsys, cmd, path)
    assert code == 2
    assert "line 3: sigma" in err and "not finite" in err


@pytest.mark.parametrize("argv, flag", [
    (["wahba", "--synthetic", "--sigma", "nan"], "--sigma"),
    (["wahba", "--synthetic", "--sigma", "inf"], "--sigma"),
    (["wahba", "--synthetic", "--phi-max-deg", "nan"], "--phi-max-deg"),
    (["grad-check", "--count", "5", "--tolerance", "nan"], "--tolerance"),
    (["grad-check", "--count", "5", "--tolerance", "-1"], "--tolerance"),
    (["grad-check", "--count", "5", "--tolerance", "inf"], "--tolerance"),
    (["--seed", "-1", "wahba", "--synthetic"], "--seed"),
    (["--seed", "-1", "grad-check", "--count", "5"], "--seed"),
    (["dt-eval", "model.npz", "--q", "nan"], "--q"),
    (["dt-eval", "model.npz", "--q", "inf"], "--q"),
], ids=["sigma-nan", "sigma-inf", "phi-max-nan", "tolerance-nan", "tolerance-neg",
        "tolerance-inf", "seed-neg-wahba", "seed-neg-grad-check", "q-nan", "q-inf"])
def test_non_finite_or_negative_flag_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def _pickled_npz():
    buf = io.BytesIO()
    np.savez(buf, meta=np.array([{"format": nn.MODEL_FORMAT}], dtype=object))
    return buf.getvalue()


# The config of a model with layers 60 -> 8 -> 10: layer_dims gives [60, 8, 10] for head A.
_CFG_8 = nn.TrainConfig(hidden_widths=(8,))


def _model_npz(in_dim=60, out_dim=10, dtype=float, **meta):
    """Bytes of an A-head model with layers in_dim -> 8 -> out_dim and the config _CFG_8, its
    W0 cast to dtype; `meta` replaces entries of the file's meta (activations, config)."""
    net = nn.init_net([in_dim, 8, out_dim], np.random.default_rng(0))
    net.weights[0] = net.weights[0].astype(dtype)
    buf = io.BytesIO()
    write_model(buf, net, "A", _CFG_8, **meta)
    return buf.getvalue()


def _bare_header_model_npz():
    """Bytes of a 60 -> 8 -> 10 model whose W0 is a lone header declaring (12 500 000, 1)."""
    buf = io.BytesIO()
    write_model_with_bare_header(buf, nn.init_net([60, 8, 10], np.random.default_rng(0)), "A",
                                 _CFG_8, "W0", (12_500_000, 1))
    return buf.getvalue()


def _overflowing_model_npz():
    """Bytes of a finite A-head model whose weights, 1e200 times too large, overflow its output."""
    net = nn.init_net([60, 8, 10], np.random.default_rng(0))
    net.weights = [1e200 * W for W in net.weights]
    buf = io.BytesIO()
    nn.save_model(buf, net, "A", _CFG_8)
    return buf.getvalue()


def _m1000_model_npz():
    """Bytes of an untrained A-head model with matches_per_rotation 1000: each sample is
    6000 + 128 + 128 + 10 = 6266 wide, which bounds dt-eval --mix at 1393."""
    net = nn.init_net([6000, 128, 128, 10], np.random.default_rng(0))
    buf = io.BytesIO()
    nn.save_model(buf, net, "A", nn.TrainConfig(matches_per_rotation=1000, epochs=0, trials=1,
                                                 head="A"))
    return buf.getvalue()


def _damaged_zip_npz(kind):
    """Bytes of a model whose zip holds damage that np.load cannot decode: "method" sets the first
    central-directory entry's compression method to 99, "encrypted" sets that entry's
    encryption flag, "deflate" gives a compressed model's first member a deflate block of the
    reserved type."""
    buf = io.BytesIO()
    if kind in ("method", "encrypted"):
        write_model(buf, nn.init_net([60, 8, 10], np.random.default_rng(0)), "A", _CFG_8)
        data = bytearray(buf.getvalue())
        at = data.index(b"PK\x01\x02")
        if kind == "method":
            data[at + 10] = 99
        else:
            data[at + 8] |= 1
    else:
        np.savez_compressed(buf, meta=np.frombuffer(b'{"format": "so3sym-model-v1"}', np.uint8))
        data = bytearray(buf.getvalue())
        name_len, extra_len = np.frombuffer(bytes(data[26:30]), "<u2")
        data[30 + name_len + extra_len] = 0b111  # final block, type 3: reserved
    return bytes(data)


_NESTED = "[" * 100_000 + "]" * 100_000  # deeper than the JSON decoder's recursion limit


def _nested_meta_npz():
    """Bytes of an npz whose meta entry is a JSON array nested 100 000 deep."""
    buf = io.BytesIO()
    np.savez(buf, meta=np.frombuffer(_NESTED.encode(), np.uint8))
    return buf.getvalue()


_TRAIN = ["--out", "{d}/out", "train", "{d}/cfg.json"]
_DT_EVAL = ["--out", "{d}", "dt-eval", "{d}/m.npz"]
_OVERFLOW = _PAIRS + "0,1,0,0,1,0,1e-154\n"  # weight 1e308: finite, but the data matrix overflows


# files written to the test's directory "{d}", argv, exit code, text the error line must hold
@pytest.mark.parametrize("files, argv, code, named", [
    ({"cfg.json": '{"seed": -1}'}, _TRAIN, 2, "seed"),
    ({"cfg.json": '{"epochs": 1.5}'}, _TRAIN, 2, "epochs"),
    ({"cfg.json": '{"trials": 1.5}'}, _TRAIN, 2, "trials"),
    ({"cfg.json": "[1, 2]"}, _TRAIN, 2, "cfg.json"),
    ({"cfg.json": '{"head": []}'}, _TRAIN, 2, "head"),
    ({"cfg.json": '{"head": "all", "loss": "quat"}'}, _TRAIN, 2, "loss 'quat'"),
    ({"cfg.json": '{"head": ["quat", "quat"], "epochs": 1, "trials": 1, "hidden_widths": [16], '
                  '"test_rotations": 20}'}, _TRAIN, 2, "head"),
    ({"cfg.json": '{"hidden_widths": "ab"}'}, _TRAIN, 2, "hidden_widths"),
    ({"cfg.json": '{"sigma": "x"}'}, _TRAIN, 2, "sigma"),
    ({"cfg.json": '{"lr": 1e308, "head": "quat", "trials": 1}'}, _TRAIN, 1, "head quat"),
    ({"cfg.json": '{"lr": 1e308, "head": "6d", "trials": 1}'}, _TRAIN, 1, "head 6d"),
    ({"cfg.json": '{"lr": 1e308, "head": "A", "trials": 1}'}, _TRAIN, 1, "head A"),
    ({"cfg.json": '{"head": "quat", "epochs": 0, "trials": 1}', "taken": ""},
     ["--out", "{d}/taken", "train", "{d}/cfg.json"], 2, "taken"),
    ({"pairs.csv": _OVERFLOW}, ["wahba", "{d}/pairs.csv"], 2, "pairs.csv"),
    ({"pairs.csv": b"\xff\xfe\x00 not text"}, ["wahba", "{d}/pairs.csv"], 2, "pairs.csv"),
    ({"m.npz": "PK\x03\x04 not a zip"}, _DT_EVAL, 2, "m.npz"),
    ({"m.npz": ""}, _DT_EVAL, 2, "m.npz"),
    ({"m.npz": _pickled_npz()}, _DT_EVAL, 2, "m.npz"),
    ({"m.npz": _model_npz(in_dim=30)}, _DT_EVAL, 2, "m.npz"),
    ({"m.npz": _model_npz(out_dim=4)}, _DT_EVAL, 2, "m.npz"),
    ({"m.npz": _model_npz(activations=["relu", "linear"])}, _DT_EVAL, 2, "m.npz"),
    ({"m.npz": _model_npz(config=vars(nn.TrainConfig()))}, _DT_EVAL, 2,
     "m.npz: not a so3sym-model-v1 file: 2 layers, but the config and head 'A' give layer widths "
     "[60, 128, 128, 10]"),
    ({"m.npz": _model_npz(activations=["linear", "linear"])}, _DT_EVAL, 2,
     "m.npz: not a so3sym-model-v1 file: activations must be ['leaky_relu', 'linear']"),
    ({"m.npz": _model_npz(dtype=complex)}, _DT_EVAL, 2,
     "m.npz: not a so3sym-model-v1 file: weights are complex128, not real floating point"),
    ({"m.npz": _bare_header_model_npz()}, _DT_EVAL, 2,
     "m.npz: not a so3sym-model-v1 file: W0 (12500000, 1) and b0 (8,) are not (8, 60) and (8,)"),
    ({"pairs.csv": "ux,uy,uz,vx,vy,vz,sigma\n"}, ["wahba", "{d}/pairs.csv"], 2,
     "pairs.csv: no correspondences"),
    ({}, ["wahba", "--synthetic", "--phi-max-deg", "200"], 2, "argument --phi-max-deg: "
     "must be a finite number > 0 and <= 180, got '200'"),
    ({"cfg.json": '{"matches_per_rotation": 1000000000}'}, _TRAIN, 2, "matches_per_rotation"),
    ({"cfg.json": '{"hidden_widths": [128, 100000]}'}, _TRAIN, 2, "hidden_widths"),
    ({"q.csv": _QUATS + "1,0,0,0,1e160\n"}, ["avg", "{d}/q.csv"], 2, "q.csv: line 3: weights"),
    ({"q.csv": _QUATS + "1,0,0,0,1e308\n"}, ["avg", "{d}/q.csv"], 2, "q.csv: line 3: weights"),
    ({"m.npz": _overflowing_model_npz()}, _DT_EVAL, 1,
     "error: dt-eval reference block: network output is not finite"),
    ({}, ["grad-check", "--count", "1000000000000000"], 2,
     "argument --count: must be an integer >= 1 and <= 40000"),
    ({}, ["wahba", "--synthetic", "--n", "1000000000000000"], 2,
     "argument --n: must be an integer >= 1 and <= 1000000"),
    ({}, ["dt-eval", "{d}/m.npz", "--mix", "1000000000"], 2,
     "argument --mix: must be an integer >= 1 and <= 50000"),
    ({"cfg.json": json.dumps({"hidden_widths": [1] * 33, "head": "quat", "epochs": 0, "trials": 1,
                              "test_rotations": 5})}, _TRAIN, 2,
     "hidden_widths must have at most 32 entries, got 33"),
    ({"m.npz": _m1000_model_npz()}, _DT_EVAL + ["--mix", "1394"], 2,
     "--mix 1394 is over 1393 for a model of per-sample width 6266"),
    ({"m.npz": _model_npz()}, _DT_EVAL + ["--mix", "1", "--corruption", "noise"], 2,
     "--mix 1 holds no corrupted sample"),
    ({}, ["wahba", "--synthetic", "--sigma", "1e-200"], 2,
     "error: --sigma 1e-200 is too small: the data matrix of 100 synthetic pairs overflows"),
    ({}, ["wahba", "--synthetic", "--sigma", "1e200"], 2,
     "error: --sigma 1e+200 is too large: the data matrix of 100 synthetic pairs overflows"),
    ({"pairs.csv": _PAIRS + _HUGE_PAIR.format(1)}, ["wahba", "{d}/pairs.csv"], 2,
     "pairs.csv: line 3: |u|^2 + |v|^2 overflows; scale u and v down"),
    ({"pairs.csv": _PAIRS + _HUGE_PAIR.format(1e200)}, ["wahba", "{d}/pairs.csv"], 2,
     "pairs.csv: line 3: |u|^2 + |v|^2 overflows; scale u and v down"),
    ({"q.csv": "x,y,z,w\n"}, ["avg", "{d}/q.csv"], 2, "q.csv: no quaternions"),
    ({"pairs.csv": "# a comment only\n"}, ["wahba", "{d}/pairs.csv"], 2, "line 1: missing header row"),
    ({"pairs.csv": "ux,uy,uz,vx,vy,vz,sigma\n1,0,0,1,0,0,0\n"}, ["wahba", "{d}/pairs.csv"], 2,
     "line 2: sigma must be > 0"),
    ({"pairs.csv": "ux,uy,uz,vx,vy,vz,sigma\n1,0,0,1,0,0,-1\n"}, ["wahba", "{d}/pairs.csv"], 2,
     "line 2: sigma must be > 0"),
    ({"cfg.json": '{"epoch": 3}'}, _TRAIN, 2, "unknown config keys: ['epoch']"),
    ({"m.npz": _damaged_zip_npz("method")}, _DT_EVAL, 2, "m.npz: not a so3sym-model-v1 file"),
    ({"m.npz": _damaged_zip_npz("deflate")}, _DT_EVAL, 2, "m.npz: not a so3sym-model-v1 file"),
    ({"m.npz": _damaged_zip_npz("encrypted")}, _DT_EVAL, 2,
     "m.npz: not a so3sym-model-v1 file: File 'meta.npy' is encrypted, password required"),
    ({"cfg.json": _NESTED}, _TRAIN, 2, "cfg.json: maximum recursion depth exceeded"),
    ({"m.npz": _nested_meta_npz()}, _DT_EVAL, 2,
     "m.npz: not a so3sym-model-v1 file: maximum recursion depth exceeded"),
    ({"q.csv": 'x,y,z,"w\n-"\n0,0,0,1\n'}, ["avg", "{d}/q.csv"], 2,
     "q.csv: line 1: expected header x,y,z,w or x,y,z,w,weight, got ['x', 'y', 'z', 'w\\n-']"),
    ({"pairs.csv": _PAIRS + "0,1,0,0,1,0,1e155\n"}, ["wahba", "{d}/pairs.csv"], 2,
     "pairs.csv: line 3: sigma 1e+155 is too large: sigma^2 overflows"),
    ({"cfg.json": '{"sigma": 1e200, "epochs": 1, "trials": 1}'}, _TRAIN, 2,
     "cfg.json: sigma must be in [0, 1e+100], got 1e+200"),
    ({"cfg.json": '{"sigma": 1e308, "epochs": 1, "trials": 1}'}, _TRAIN, 2,
     "cfg.json: sigma must be in [0, 1e+100], got 1e+308"),
], ids=["seed-neg", "epochs-float", "trials-float", "config-list", "head-empty", "quat-loss-6d",
        "head-repeated", "widths-text", "sigma-text", "diverge-quat", "diverge-6d", "diverge-A",
        "out-is-file", "weight-overflow", "csv-binary", "npz-not-zip", "npz-empty", "npz-pickled",
        "model-input-width", "model-output-width", "model-activation", "model-hidden-mismatch",
        "model-activation-pattern", "model-complex", "model-oversized-header", "wahba-empty", "phi-max-200",
        "matches-over-bound", "width-over-bound", "avg-weight-1e160", "avg-weight-1e308",
        "dt-eval-output-overflow", "count-over-bound", "n-over-bound", "mix-over-bound",
        "layers-over-bound", "mix-over-model-bound", "mix-without-corrupted", "synthetic-sigma-small",
        "synthetic-sigma-large", "pair-overflow-sigma-1", "pair-overflow-sigma-1e200", "avg-empty",
        "wahba-comment-only", "sigma-zero", "sigma-negative", "config-unknown-key",
        "npz-compression-method", "npz-bad-deflate", "npz-encrypted-flag", "config-nested",
        "model-meta-nested", "header-quoted-newline", "sigma-square-overflow", "train-sigma-1e200",
        "train-sigma-1e308"])
def test_bad_input_gives_one_error_line(tmp_path, capsys, files, argv, code, named):
    for name, content in files.items():
        (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = cli.main([a.replace("{d}", str(tmp_path)) for a in argv])
        except SystemExit as exc:  # argparse rejects the flag value itself, after its usage lines
            got = exc.code
    lines = capsys.readouterr().err.splitlines()
    assert got == code
    assert [l for l in lines if "error:" in l] == lines[-1:]
    assert lines[-1].startswith("error: ") or "error: argument --" in lines[-1]
    assert named in lines[-1]
    assert "Traceback" not in "\n".join(lines) and not caught


_LOADED = """
import json, sys
from so3sym import cli
codes = [cli.main(["avg", "tests/golden/quats.csv"])]
loaded = sorted(m for m in sys.argv[2:] if m in sys.modules)
codes.append(cli.main(["--out", sys.argv[1], "train", sys.argv[1] + "/cfg.json"]))
print(json.dumps([codes, loaded, "so3sym.nn" in sys.modules]))
"""


def test_solve_commands_leave_training_stack_unloaded(tmp_path):
    """A fresh `avg` process loads neither nn, svgplot nor urllib; `train` then loads nn."""
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"head": "quat", "epochs": 0, "trials": 1, "hidden_widths": [4], "test_rotations": 5}))
    heavy = ["so3sym.nn", "so3sym.svgplot", "urllib.request", "http.client", "xml.sax"]
    proc = subprocess.run([sys.executable, "-c", _LOADED, str(tmp_path), *heavy], cwd=REPO,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], [], True]


_MA_FREE = """
import json, sys
import numpy
bare = "numpy.ma" in sys.modules
from so3sym import cli
d = sys.argv[1]
codes = [cli.main(["--out", d, "train", d + "/cfg.json", "--save-model"]),
         cli.main(["--out", d, "dt-eval", d + "/model_A_t0.npz"])]
print(json.dumps([bare, codes, "numpy.ma" in sys.modules]))
"""


def test_train_and_dt_eval_leave_numpy_ma_unloaded(tmp_path):
    """np.percentile, np.median and np.quantile import numpy.ma; train and dt-eval call none."""
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"head": "all", "epochs": 1, "trials": 2, "hidden_widths": [4], "test_rotations": 5}))
    proc = subprocess.run([sys.executable, "-c", _MA_FREE, str(tmp_path)], cwd=REPO,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True, check=True)
    bare, codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    if bare:
        pytest.skip("a bare `import numpy` already loads numpy.ma")
    assert codes == [0, 0] and not loaded


# -- wahba --------------------------------------------------------------------


def test_wahba_synthetic_noiseless(capsys):
    code, out, _ = run(capsys, "--seed", 3, "wahba", "--synthetic", "--n", 100, "--sigma", 0)
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["angular_error_deg"]) <= 1e-6
    assert float(vals["eigengap"]) > 0


def test_wahba_synthetic_matches_procrustes(capsys):
    code, out, _ = run(capsys, "--seed", 12, "wahba", "--synthetic", "--n", 100, "--sigma", 0.01)
    assert code == 0
    q = np.array([float(t) for t in parse_kv(out)["q_star"].split()])
    cfg = SyntheticConfig(num_matches=100, sigma=0.01, phi_max=np.pi, seed=12)
    _, corr = wahba.sample_synthetic(cfg)
    R_ref = kabsch(corr.u, corr.v, corr.sigma)
    assert np.rad2deg(so3.d_ang(so3.quat_to_rot(q), R_ref)) <= 1e-6


def test_wahba_csv_input(tmp_path, capsys):
    cfg = SyntheticConfig(num_matches=50, sigma=0.005, phi_max=2.0, seed=5)
    R_hat, corr = wahba.sample_synthetic(cfg)
    path = tmp_path / "c.csv"
    wahba.write_correspondences_csv(path, corr)
    code, out, _ = run(capsys, "wahba", path)
    assert code == 0
    q = np.array([float(t) for t in parse_kv(out)["q_star"].split()])
    assert np.rad2deg(so3.d_ang(so3.quat_to_rot(q), R_hat)) < 1.0


def test_wahba_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("ux,uy,uz,vx,vy,vz,sigma\n1,0,0,zap,0,0,1\n")
    code, _, err = run(capsys, "wahba", path)
    assert code == 2
    assert "line 2" in err


def test_wahba_degenerate_single_pair(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("ux,uy,uz,vx,vy,vz,sigma\n1,0,0,1,0,0,0.5\n")
    code, _, err = run(capsys, "wahba", path)
    assert code == 1
    assert re.search(DEGENERATE_MESSAGE, err)


def test_wahba_decomposes_once(monkeypatch, capsys):
    calls = []
    original = symrep.symeig4

    def counted(A):
        calls.append(np.shape(A))
        return original(A)

    # Rebind every module-level name that holds the solver, not just symrep's.
    for mod in (symrep, bingham, wahba, averaging, nn, cli):
        if getattr(mod, "symeig4", None) is original:
            monkeypatch.setattr(mod, "symeig4", counted)
    assert cli.main(["wahba", "--synthetic"]) == 0
    assert "dispersion_trace: " in capsys.readouterr().out
    assert calls == [(4, 4)]


def test_grad_check_decomposes_each_matrix_once(monkeypatch):
    calls = []
    original = symrep.symeig4

    def counted(A):
        calls.append(np.shape(A))
        return original(A)

    monkeypatch.setattr(symrep, "symeig4", counted)
    report = cli.run_grad_check(count=50, seed=3)
    assert report["passed"]
    # The sampling filter decomposes 64-matrix batches; the base matrices are
    # not decomposed again, so only the 20 finite-difference probes remain.
    assert set(calls[:-20]) == {(64, 4, 4)}
    assert calls[-20:] == [(50, 4, 4)] * 20


def test_grad_check_refill_draws_only_its_shortfall(monkeypatch):
    calls, kept = [], []
    original_eig, original_forward = symrep.symeig4, cli.qcqp_forward

    def counted(A):
        calls.append(np.shape(A))
        return original_eig(A)

    def captured(A, **kwargs):
        out = original_forward(A, **kwargs)
        if kwargs:  # the sampling filter
            kept.append(A[out[2]])
        return out

    monkeypatch.setattr(symrep, "symeig4", counted)
    monkeypatch.setattr(cli, "qcqp_forward", captured)
    count = 1000
    assert cli.run_grad_check(count=count, seed=0)["passed"]
    # The first batch keeps 999 of its 1000 matrices, so the refill is one 64-matrix batch.
    assert len(kept[0]) == count - 1
    assert calls[:-20] == [(count, 4, 4), (64, 4, 4)]
    # The kept matrices are those that whole max(64, count) batches give.
    rng, whole = cli.rng_for(0, 101), []
    while sum(map(len, whole)) < count:
        batch = rng.standard_normal((max(64, count), 4, 4))
        batch = 0.5 * (batch + np.swapaxes(batch, -1, -2))
        _, _, keep = original_forward(batch, gap_tol=cli.GRAD_CHECK_MIN_REL_GAP)
        whole.append(batch[keep])
    got, want = np.concatenate(kept)[:count], np.concatenate(whole)[:count]
    assert got.tobytes() == want.tobytes()


def test_grad_check_probes_are_theta_to_A_of_each_perturbed_theta(monkeypatch):
    kept, probes = [], []
    original = cli.qcqp_forward

    def captured(A, **kwargs):
        out = original(A, **kwargs)
        if kwargs:  # the sampling filter
            kept.append(A[out[2]])
        else:  # a finite-difference probe; run_grad_check writes its next probe into A
            probes.append(A.copy())
        return out

    monkeypatch.setattr(cli, "qcqp_forward", captured)
    cli.run_grad_check(count=50, seed=3)
    theta = symrep.A_to_theta(np.concatenate(kept)[:50])
    step = 1e-5
    expected = []
    for k in range(10):
        for sgn in (+1.0, -1.0):
            th = theta.copy()
            th[:, k] += sgn * step
            expected.append(symrep.theta_to_A(th))
    assert len(probes) == 20
    for got, want in zip(probes, expected):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_wahba_requires_one_source(tmp_path, capsys):
    code, _, err = run(capsys, "wahba")
    assert code == 2
    path = tmp_path / "c.csv"
    path.write_text("ux,uy,uz,vx,vy,vz,sigma\n")
    code, _, err = run(capsys, "wahba", path, "--synthetic")
    assert code == 2


# -- train ---------------------------------------------------------------------


def write_cfg(tmp_path, **over):
    cfg = dict(seed=9, lr=1e-3, epochs=2, batch_rotations=20, matches_per_rotation=10,
               phi_max_deg=90.0, sigma=0.01, head=["quat", "A"], loss="chord",
               hidden_widths=[32], trials=1, test_rotations=60)
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "--out", out_dir, "train", cfg)
    assert code == 0
    csv_text = (out_dir / "results.csv").read_text()
    assert csv_text.startswith("# so3sym-results v1\n")
    tree = ET.parse(out_dir / "learning_curves.svg")
    ids = {e.get("id") for e in tree.iter() if e.get("id")}
    assert ids == {"band-quat", "median-quat", "band-A", "median-A"}


def test_train_epochs_zero_baseline_only(tmp_path, capsys):
    cfg = write_cfg(tmp_path, epochs=0, head="A")
    out_dir = tmp_path / "out0"
    code, _, _ = run(capsys, "--out", out_dir, "train", cfg)
    assert code == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    rows = [l.split(",") for l in lines[2:]]
    assert rows and all(r[3] == "0" for r in rows)


def test_train_reports_degenerate_training_samples(tmp_path, capsys, monkeypatch):
    """With every sample degenerate, the line counts the training batches of epochs 1 and 2
    (the epoch-0 batch is scored, not counted), and each statistic is nan."""
    zero_initial_nets(monkeypatch)
    cfg = write_cfg(tmp_path, head="A", epochs=2, trials=2, batches_per_epoch=3, batch_rotations=20)
    code, out, _ = run(capsys, "--out", tmp_path / "out", "train", cfg)
    assert code == 0
    # 2 trials x 2 epochs x 3 batches x 20 rotations
    assert out.splitlines()[-1] == "degenerate training samples skipped: 240"
    rows = [l.split(",") for l in (tmp_path / "out" / "results.csv").read_text().splitlines()[2:]]
    assert len(rows) == 2 * 2 * 3 and all(r[6:] == ["nan"] * 4 for r in rows)


def test_main_calls_in_one_process_each_read_their_own_arguments(tmp_path, capsys):
    """main parses with one parser per process; a flag one call sets does not reach the next."""
    cfg = tmp_path / "cfg.json"  # no seed key, so --seed fills it in
    cfg.write_text(json.dumps({"epochs": 0, "head": "quat", "trials": 1, "hidden_widths": [4],
                               "test_rotations": 5}))
    assert cli.build_parser() is cli.build_parser()
    for flags, seed, out in [(["--seed", 4], "4", "a"), ([], "0", "b"), (["--seed", 6], "6", "c")]:
        code, stdout, _ = run(capsys, *flags, "--out", tmp_path / out, "train", cfg)
        assert code == 0
        assert stdout.splitlines()[0] == f"wrote {tmp_path / out / 'results.csv'} (2 rows)"
        rows = [l.split(",") for l in (tmp_path / out / "results.csv").read_text().splitlines()[2:]]
        assert {r[1] for r in rows} == {seed}


def test_train_rerun_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    run(capsys, "--out", d1, "train", cfg)
    run(capsys, "--out", d2, "train", cfg)
    assert (d1 / "results.csv").read_bytes() == (d2 / "results.csv").read_bytes()
    assert (d1 / "learning_curves.svg").read_bytes() == (d2 / "learning_curves.svg").read_bytes()


def test_train_divergence_keeps_finished_models_only(tmp_path, capsys, monkeypatch):
    """A run that diverges on trial 1 keeps trial 0's model as a full run writes it, and writes
    neither results.csv nor the SVG."""
    cfg = write_cfg(tmp_path, head="A", trials=2)
    assert run(capsys, "--out", tmp_path / "full", "train", cfg, "--save-model")[0] == 0
    train_single = nn.train_single

    def diverge_on_trial_1(cfg, head, trial=0):
        if trial == 1:
            raise FloatingPointError(f"training diverged at head {head}, trial {trial}")
        return train_single(cfg, head, trial)

    monkeypatch.setattr(nn, "train_single", diverge_on_trial_1)
    out_dir = tmp_path / "out"
    code, out, err = run(capsys, "--out", out_dir, "train", cfg, "--save-model")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: training diverged at head A, trial 1"]
    assert sorted(p.name for p in out_dir.iterdir()) == ["model_A_t0.npz"]
    assert ((out_dir / "model_A_t0.npz").read_bytes()
            == (tmp_path / "full" / "model_A_t0.npz").read_bytes())


def _spill(fh):
    """Write part of a file to the open fh, then fail as a full disk does."""
    fh.write("partial")
    raise OSError(errno.ENOSPC, "No space left on device")


def _spill_to(path):
    with open(path, "w") as fh:
        _spill(fh)


@pytest.mark.parametrize("name, module, attr, writer", [
    ("results.csv", csv, "writer", _spill),
    ("learning_curves.svg", svgplot, "render_learning_curves", lambda rows, path: _spill_to(path)),
    ("model_A_t0.npz", np, "savez", lambda path, **arrays: _spill_to(path)),
    ("dt_rows.csv", csv, "writer", _spill),
], ids=["results.csv", "svg", "npz", "dt_rows.csv"])
def test_a_write_that_fails_mid_file_keeps_the_previous_file(tmp_path, capsys, monkeypatch,
                                                              name, module, attr, writer):
    """Outputs are written beside their final name and moved onto it: a writer that fails part
    way leaves the previous file with its bytes, and no temporary, in a used --out."""
    cfg, out_dir = write_cfg(tmp_path, head="A"), tmp_path / "out"
    model = out_dir / "model_A_t0.npz"
    assert run(capsys, "--out", out_dir, "train", cfg, "--save-model")[0] == 0
    assert run(capsys, "--out", out_dir, "dt-eval", model)[0] == 0
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert sorted(before) == ["dt_rows.csv", "learning_curves.svg", "model_A_t0.npz", "results.csv"]
    monkeypatch.setattr(module, attr, writer)
    argv = ["dt-eval", model] if name == "dt_rows.csv" else ["train", cfg, "--save-model"]
    code, _, err = run(capsys, "--seed", 1, "--out", out_dir, *argv)
    assert code == 2 and err.splitlines()[-1] == "error: [Errno 28] No space left on device"
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(before)
    assert (out_dir / name).read_bytes() == before[name]


# The peak resident set of this process alone, in KiB. ru_maxrss would not do: Linux carries
# it over from the parent at fork, so a child of a large pytest process reports the parent's.
_PEAK = """
import sys
from so3sym import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, next(l.split()[1] for l in fh if l.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_train_holds_one_net_at_a_time(tmp_path):
    """30 trials of a 32-layer net: holding every trained net (about 4.3 MB each, and 167 MB at
    peak) would breach 100 MB; one at a time peaks at about 52 MB."""
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"hidden_widths": [128] * 32, "epochs": 0, "head": "A",
                               "trials": 30}))
    proc = subprocess.run([sys.executable, "-c", _PEAK, "--out", str(tmp_path / "out"), "train",
                           str(cfg), "--save-model"], cwd=REPO,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")},
                          capture_output=True, text=True, check=True)
    code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0 and len(list((tmp_path / "out").glob("model_A_t*.npz"))) == 30
    assert peak_kib / 1024 <= 100


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_dt_eval_at_the_wide_model_mix_bound_holds_one_batch_at_a_time(tmp_path):
    """--mix 1393, the largest cli.DT_EVAL_BUDGET admits for matches_per_rotation 1000. The
    1000-row reference batch (48 MB) is freed once the net's first layer has run, so it is not
    held while the mix blocks are drawn: the run peaks at about 127 MB, where holding it peaked
    at about 160 MB. The budget promises 200 MB."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({"matches_per_rotation": 1000, "epochs": 0, "trials": 1,
                               "head": "A"}))
    subprocess.run([sys.executable, "-m", "so3sym.cli", "--out", str(tmp_path / "m"), "train",
                    str(cfg), "--save-model"], cwd=REPO, env=env, capture_output=True, check=True)
    proc = subprocess.run([sys.executable, "-c", _PEAK, "--out", str(tmp_path / "dt"), "dt-eval",
                           str(tmp_path / "m" / "model_A_t0.npz"), "--mix", "1393"], cwd=REPO,
                          env=env, capture_output=True, text=True, check=True)
    code, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0 and len((tmp_path / "dt" / "dt_rows.csv").read_text().splitlines()) == 2 + 1393
    assert peak_kib / 1024 <= 200
    assert peak_kib / 1024 <= 145


@pytest.mark.parametrize("key, value", [("trials", 0), ("lr", -1), ("batch_rotations", 0)])
def test_train_out_of_range_config_exits_2(tmp_path, capsys, key, value):
    code, _, err = run(capsys, "--out", tmp_path / "out", "train", write_cfg(tmp_path, **{key: value}))
    assert code == 2
    assert key in err
    assert not (tmp_path / "out").exists()


def test_train_invalid_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"head": "hexarot"}))
    code, _, err = run(capsys, "--out", tmp_path, "train", path)
    assert code == 2


# -- dt-eval ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    cfg = write_cfg(tmp, head="all", epochs=5, batch_rotations=40, phi_max_deg=180.0,
                    hidden_widths=[64, 64])
    out_dir = tmp / "out"
    code = cli.main(["--out", str(out_dir), "train", str(cfg), "--save-model"])
    assert code == 0
    return out_dir


def test_dt_eval_q1_keeps_everything(trained_model, capsys):
    code, out, _ = run(capsys, "--seed", 5, "--out", trained_model, "dt-eval",
                       trained_model / "model_A_t0.npz", "--q", 1.0)
    assert code == 0
    vals = parse_kv(out)
    assert vals["kept_pct"] == "100.0"
    assert vals["precision_pct"] == "---"


def test_dt_eval_clean_calibration(trained_model, capsys):
    code, out, _ = run(capsys, "--seed", 5, "--out", trained_model, "dt-eval",
                       trained_model / "model_A_t0.npz", "--corruption", "none",
                       "--q", 0.75, "--mix", 400)
    assert code == 0
    vals = parse_kv(out)
    assert abs(float(vals["kept_pct"]) - 75.0) < 8.0
    assert vals["mean_trace_corrupted"] == "---"


def test_dt_eval_noise_improves_kept_error(trained_model, capsys):
    code, out, _ = run(capsys, "--seed", 5, "--out", trained_model, "dt-eval",
                       trained_model / "model_A_t0.npz", "--corruption", "noise", "--q", 0.75)
    assert code == 0
    vals = parse_kv(out)
    assert float(vals["mean_error_kept_deg"]) <= float(vals["mean_error_full_deg"])
    rows_path = trained_model / "dt_rows.csv"
    assert rows_path.read_text().startswith("# so3sym-dt v1\n")


def test_dt_eval_out_of_range_saved_config_exits_2(tmp_path, capsys):
    net = nn.init_net([60, 8, 10], np.random.default_rng(0))
    write_model(tmp_path / "m.npz", net, "A", _CFG_8, config=dict(vars(_CFG_8), lr=-1.0))
    code, _, err = run(capsys, "--out", tmp_path, "dt-eval", tmp_path / "m.npz")
    assert code == 2
    assert "lr must be" in err


def test_dt_eval_refuses_non_sym_model(trained_model, capsys):
    code, _, err = run(capsys, "--out", trained_model, "dt-eval",
                       trained_model / "model_quat_t0.npz")
    assert code == 2
    assert "symmetric-matrix head" in err


# -- avg ----------------------------------------------------------------------------


def write_quats(path, quats, weights=None):
    lines = ["x,y,z,w" + (",weight" if weights is not None else "")]
    for i, q in enumerate(quats):
        row = ",".join(repr(float(v)) for v in q)
        if weights is not None:
            row += f",{weights[i]!r}"
        lines.append(row)
    path.write_text("\n".join(lines) + "\n")


def test_avg_single_quaternion(tmp_path, capsys):
    rng = np.random.default_rng(0)
    q = so3.canonicalize_quat(so3.random_quats(1, rng)[0])
    path = tmp_path / "q.csv"
    write_quats(path, [q])
    code, out, _ = run(capsys, "avg", path)
    assert code == 0
    mean = np.array([float(t) for t in parse_kv(out)["mean"].split()])
    assert np.abs(mean - q).max() < 1e-9


def test_avg_antipodal_duplicates_match_dedup(tmp_path, capsys):
    rng = np.random.default_rng(1)
    q = so3.random_quats(3, rng)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_quats(p1, np.concatenate([q, -q]))
    write_quats(p2, q)
    _, out1, _ = run(capsys, "avg", p1)
    _, out2, _ = run(capsys, "avg", p2)
    m1 = np.array([float(t) for t in parse_kv(out1)["mean"].split()])
    m2 = np.array([float(t) for t in parse_kv(out2)["mean"].split()])
    assert np.abs(m1 - m2).max() < 1e-9


def test_avg_five_quat_fixture_matches_brute_force(tmp_path, capsys):
    from util import chordal_cost_at, super_fibonacci
    rng = np.random.default_rng(2)
    q = so3.random_quats(5, rng)
    path = tmp_path / "five.csv"
    write_quats(path, q)
    code, out, _ = run(capsys, "avg", path, "--method", "chordal")
    assert code == 0
    mean = np.array([float(t) for t in parse_kv(out)["mean"].split()])
    grid = super_fibonacci(20_000)
    costs = chordal_cost_at(grid, q)
    assert chordal_cost_at(mean[None], q)[0] <= costs.min() + 1e-9


def test_avg_quat_method(tmp_path, capsys):
    rng = np.random.default_rng(3)
    base = so3.random_quats(1, rng)[0]
    q = base + 0.1 * rng.standard_normal((4, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    path = tmp_path / "q.csv"
    write_quats(path, q)
    code, out, _ = run(capsys, "avg", path, "--method", "quat")
    assert code == 0
    assert float(parse_kv(out)["residual_cost"]) >= 0


def test_avg_weights_rejected_for_quat_method(tmp_path, capsys):
    rng = np.random.default_rng(4)
    path = tmp_path / "q.csv"
    write_quats(path, so3.random_quats(2, rng), weights=[1.0, 2.0])
    code, _, err = run(capsys, "avg", path, "--method", "quat")
    assert code == 2


def test_avg_large_accepted_weights_average_like_small_ones(tmp_path, capsys):
    rng = np.random.default_rng(5)
    q, w = so3.random_quats(4, rng), [1.0, 2.0, 3.0, 4.0]
    small, big = tmp_path / "small.csv", tmp_path / "big.csv"
    write_quats(small, q, weights=w)
    write_quats(big, q, weights=[1e152 * x for x in w])  # sum 1e153, just under the bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means = []
        for path in (small, big):
            code, out, _ = run(capsys, "avg", path)
            assert code == 0
            means.append(np.array([float(t) for t in parse_kv(out)["mean"].split()]))
    assert np.abs(means[0] - means[1]).max() < 1e-12


def test_avg_degenerate(tmp_path, capsys):
    path = tmp_path / "q.csv"
    write_quats(path, [[0.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    code, _, err = run(capsys, "avg", path)
    assert code == 1
    assert re.search(DEGENERATE_MESSAGE, err)


def test_avg_malformed(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("x,y,z,w\n0,0,0,2\n")
    code, _, err = run(capsys, "avg", path)
    assert code == 2
    assert "line 2" in err


def _rejections(tmp_path, capsys, cmd, header, rows, library):
    """(index, reason) from library(rows) and (line, reason) from the command on the same rows
    as a CSV file, whose first data row is line 2."""
    with pytest.raises(ValueError) as exc:
        library(np.array(rows, dtype=float))
    index, reason = re.fullmatch(r"\w+ (\d+): (.*)", str(exc.value)).groups()
    path = tmp_path / f"{cmd}.csv"
    path.write_text("\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n")
    code, _, err = run(capsys, cmd, path)
    assert code == 2
    line, cli_reason = re.fullmatch(rf"error: {re.escape(str(path))}: line (\d+): (.*)\n", err).groups()
    return (int(index), reason), (int(line) - 2, cli_reason)


@pytest.mark.parametrize("weights", [
    [1.0, -1.0, 2.0], [1.0, 1e160, 1.0], [1.0, 2e153, 2e153, 1.0], [2e153, 2e153, -1.0],
    [1.0, -0.5, 1e308],
], ids=["negative", "huge", "sum-crosses", "crossing-before-negative", "negative-before-huge"])
def test_inertia_matrix_and_avg_reject_a_weight_column_alike(tmp_path, capsys, weights):
    quats = np.eye(4)[np.arange(len(weights)) % 4]
    rows = [[*q, w] for q, w in zip(quats.tolist(), weights)]
    lib, cli_ = _rejections(tmp_path, capsys, "avg", "x,y,z,w,weight", rows,
                            lambda a: averaging.inertia_matrix(a[:, :4], a[:, 4]))
    assert lib == cli_


@pytest.mark.parametrize("sigmas", [
    [1.0, 0.0, 1.0], [1.0, -1.0], [1.0, 1e155], [1.0, 1e-170], [1.0, 1.0, 1e-154],
    [1e-154, 1e155],
], ids=["zero", "negative", "square-overflow", "weight-overflow", "scale-overflow",
        "scale-before-square"])
def test_correspondences_and_wahba_reject_a_sigma_column_alike(tmp_path, capsys, sigmas):
    e = np.eye(3)[np.arange(len(sigmas)) % 3]
    rows = [[*u, *u, s] for u, s in zip(e.tolist(), sigmas)]
    lib, cli_ = _rejections(tmp_path, capsys, "wahba", ",".join(wahba.CSV_FIELDS), rows,
                            lambda a: wahba.Correspondences(u=a[:, :3], v=a[:, 3:6], sigma=a[:, 6]))
    assert lib == cli_
