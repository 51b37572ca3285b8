"""Seeded input fuzzer: mutated CSVs, train configs and model files through cli.main.

Every case runs in process with warnings turned into errors. It must exit 0, 1 or 2 with
no exception escaping, and a non-zero exit must print exactly one stderr line. The seeds,
round counts and mutators are fixed here, so a failure names a case that reproduces.
"""

import io
import json
import random
import warnings
from pathlib import Path

import numpy as np
import pytest

from so3sym import cli, nn

GOLDEN = Path(__file__).resolve().parent / "golden"

# A CSV field is replaced by one of these.
FIELDS = ["0", "-0", "1e308", "1e-320", "nan", "inf", "1e154", "1e155", "", '"', "\x00"]

# A tiny train run; a key set away from it takes a value valid for that key or an odd one
# ("extra" is not a config key, so it is never valid).
# Every valid value here keeps the run well under a second.
TINY = {"epochs": 1, "trials": 1, "head": "A", "hidden_widths": [4], "batch_rotations": 4,
        "matches_per_rotation": 2, "test_rotations": 4, "batches_per_epoch": 1}
VALID = {"seed": [0, 2**64], "lr": [None, 0, 1e-320, 10.0, 1e308], "epochs": [0],
         "batch_rotations": [1, 7], "matches_per_rotation": [1, 3], "phi_max_deg": [1e-320, 180],
         "sigma": [0, 1e-320, 1e154, 1e308], "head": ["quat", "6d", "all", ["A", "quat"]],
         "loss": ["quat", "ang"], "hidden_widths": [[], [1], [3, 2]], "trials": [2],
         "test_rotations": [1, 2], "lr_range": [[1e-320, 1e-320], [1.0, 1e308]],
         "batches_per_epoch": [2], "extra": []}
ODD = [None, True, 0, -1, 1.5, -0.0, 1e-320, 1e308, float("nan"), float("inf"), 2**64, "", "x",
       [], [0], [1, 0], [1e308, 1e308], ["quat", "quat"], {}, {"a": 1}, [[1]]]

# The model a byte flip damages: an A head on the tiny config, small enough to score quickly.
MODEL_CFG = nn.TrainConfig(**{**TINY, "hidden_widths": (4,)})


def _run(argv, capsys, case):
    """cli.main(argv) with warnings as errors; assert the exit contract and return the code."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = cli.main([str(a) for a in argv])
        except Exception as exc:  # the contract: none escapes
            pytest.fail(f"{case}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err.splitlines()
    assert code in (0, 1, 2), f"{case}: exit {code}"
    assert code == 0 or len(err) == 1, f"{case}: exit {code} with stderr {err}"
    return code


def _mutate_csv(text, rng):
    """text with one line changed: a field replaced or dropped, or the line duplicated or cut."""
    lines = text.split("\n")
    i = rng.randrange(len(lines) - 1)  # the last element is the text after the final newline
    kind = rng.choice(["replace", "replace", "drop", "duplicate", "truncate"])
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
    else:
        fields = lines[i].split(",")
        j = rng.randrange(len(fields))
        if kind == "replace":
            fields[j] = rng.choice(FIELDS)
        else:
            del fields[j]
        lines[i] = ",".join(fields)
    return "\n".join(lines), f"{kind} line {i + 1}"


@pytest.mark.parametrize("name, command", [
    ("pairs.csv", ["wahba"]),
    ("quats.csv", ["avg"]),
    ("quats.csv", ["avg", "--method", "quat"]),
    ("quats_weighted.csv", ["avg"]),
])
def test_mutated_csv(tmp_path, capsys, name, command):
    text = (GOLDEN / name).read_text()
    rng = random.Random(f"csv {name} {command}")
    codes = set()
    for k in range(80):
        mutated, what = _mutate_csv(text, rng)
        if rng.random() < 0.3:
            mutated, more = _mutate_csv(mutated, rng)
            what += f", then {more}"
        path = tmp_path / f"{k}.csv"
        path.write_text(mutated)
        codes.add(_run(command + [path], capsys, f"{name} round {k}: {what}: {mutated!r}"))
    assert {0, 2} <= codes, "the mutators should reach both good and bad input"


def test_odd_train_configs(tmp_path, capsys):
    rng = random.Random("train configs")
    codes = set()
    for k in range(150):
        cfg = dict(TINY)
        for key in rng.sample(sorted(VALID), rng.choice([1, 2])):
            cfg[key] = rng.choice(VALID[key] if VALID[key] and rng.random() < 0.5 else ODD)
        path = tmp_path / f"{k}.json"
        path.write_text(json.dumps(cfg))
        codes.add(_run(["--out", tmp_path / f"out{k}", "train", path], capsys,
                       f"config round {k}: {json.dumps(cfg)}"))
    assert codes == {0, 1, 2}, "the odd values should reach success, divergence and bad input"


def _model_bytes(compressed):
    """A saved model: nn.save_model's file, or the same members written by np.savez_compressed."""
    net = nn.init_net(nn.layer_dims(MODEL_CFG, "A"), np.random.default_rng(0))
    buf = io.BytesIO()
    nn.save_model(buf, net, "A", MODEL_CFG)
    if compressed:
        with np.load(io.BytesIO(buf.getvalue())) as data:
            members = {k: data[k] for k in data.files}
        buf = io.BytesIO()
        np.savez_compressed(buf, **members)
    return buf.getvalue()


@pytest.mark.parametrize("compressed", [False, True], ids=["savez", "savez_compressed"])
def test_flipped_model_bytes(tmp_path, capsys, compressed):
    model = _model_bytes(compressed)
    path = tmp_path / "m.npz"
    path.write_bytes(model)
    assert _run(["--out", tmp_path, "dt-eval", path, "--mix", "20"], capsys, "undamaged") == 0
    rng = random.Random(f"model {compressed}")
    codes = set()
    for k in range(200):
        data = bytearray(model)
        flips = [(rng.randrange(len(data)), rng.randrange(1, 256)) for _ in range(rng.choice([1, 2, 3]))]
        for at, mask in flips:
            data[at] ^= mask
        path.write_bytes(bytes(data))
        codes.add(_run(["--out", tmp_path, "dt-eval", path, "--mix", "20"], capsys,
                       f"model round {k}: byte xor masks {flips}"))
    assert {0, 2} <= codes, "the flips should hit both the weights and the file's structure"
