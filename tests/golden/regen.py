"""Golden outputs of the so3sym CLI, and the script that regenerates them.

Each case runs `so3sym.cli.main` in-process, one command after another, in
a fresh output directory. Its last command's stdout is kept in
`<name>.out` next to this file, with the output directory written as
"{out}"; each file a case names is kept as `<name>.<file>`.
`tests/test_golden.py` reruns the cases and compares: text must match
exactly, numbers within REL_TOL relative. Lines split into fields at
whitespace and at commas, so CSV numbers compare within the tolerance too.

Regenerate (only when an output change is intended, and say so in
CHANGES.md with the largest drift):

    python tests/golden/regen.py
"""

import contextlib
import functools
import io
import re
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
REL_TOL = 1e-12

# name -> (commands, files kept); "{golden}" is this directory, "{out}" the case's output directory.
CASES = {
    "wahba_synthetic_seed3": ([["--seed", "3", "wahba", "--synthetic"]], ()),
    "wahba_pairs": ([["wahba", "{golden}/pairs.csv"]], ()),
    "avg_chordal_weighted": ([["avg", "{golden}/quats_weighted.csv"]], ()),
    "avg_quat": ([["avg", "--method", "quat", "{golden}/quats.csv"]], ()),
    "grad_check_50": ([["grad-check", "--count", "50"]], ()),
    "train_all_chord": ([["--out", "{out}", "train", "{golden}/train_all_chord.json"]],
                        ("results.csv", "learning_curves.svg")),
    "train_quat_loss": ([["--out", "{out}", "train", "{golden}/train_quat_loss.json"]],
                        ("results.csv",)),
    "dt_eval_noise": ([["--out", "{out}", "train", "{golden}/train_dt_model.json", "--save-model"],
                       ["--seed", "5", "--out", "{out}", "dt-eval", "{out}/model_A_t0.npz"]],
                      ("dt_rows.csv",)),
}


@functools.lru_cache(maxsize=None)
def run_case(name):
    """(exit code of the first failing or the last command, {"out" or file name: text})."""
    from so3sym import cli

    commands, files = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        for argv in commands:
            argv = [a.replace("{golden}", str(GOLDEN)).replace("{out}", tmp) for a in argv]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            if code != 0:
                break
        products = {"out": out.getvalue().replace(tmp, "{out}")}
        for f in files if code == 0 else ():
            products[f] = (Path(tmp) / f).read_text()
    return code, products


def capture(name):
    """(exit code, stdout) of one case."""
    code, products = run_case(name)
    return code, products["out"]


def _close(a, b):
    if a == b:
        return True
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


_FIELD_SEP = re.compile(r",|\s+")


def mismatch(expected, actual):
    """First differing line as a message, or None when the outputs agree."""
    exp, act = expected.splitlines(), actual.splitlines()
    if len(exp) != len(act):
        return f"{len(act)} lines, expected {len(exp)}"
    for i, (e, a) in enumerate(zip(exp, act), start=1):
        te, ta = _FIELD_SEP.split(e.strip()), _FIELD_SEP.split(a.strip())
        if len(te) != len(ta) or not all(map(_close, te, ta)):
            return f"line {i}: {a!r}, expected {e!r}"
    return None


def main():
    for name in CASES:
        code, products = run_case(name)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        for product, text in products.items():
            (GOLDEN / f"{name}.{product}").write_text(text)
            print(f"wrote {name}.{product}")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    main()
