"""Golden stdout of the so3sym CLI, and the script that regenerates it.

Each case runs `so3sym.cli.main` in-process on a checked-in input and keeps
its stdout in `<name>.out` next to this file. `tests/test_golden.py` reruns
the cases and compares: text must match exactly, numbers within REL_TOL
relative.

Regenerate (only when an output change is intended, and say so in
CHANGES.md with the largest drift):

    python tests/golden/regen.py
"""

import contextlib
import io
import math
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
REL_TOL = 1e-12

# name -> argv; "{golden}" is replaced by this directory.
CASES = {
    "wahba_synthetic_seed3": ["--seed", "3", "wahba", "--synthetic"],
    "wahba_pairs": ["wahba", "{golden}/pairs.csv"],
    "avg_chordal_weighted": ["avg", "{golden}/quats_weighted.csv"],
    "avg_quat": ["avg", "--method", "quat", "{golden}/quats.csv"],
    "grad_check_50": ["grad-check", "--count", "50"],
}


def capture(name):
    """(exit code, stdout) of one case."""
    from so3sym import cli

    argv = [a.replace("{golden}", str(GOLDEN)) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _close(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def mismatch(expected, actual):
    """First differing line as a message, or None when the outputs agree."""
    exp, act = expected.splitlines(), actual.splitlines()
    if len(exp) != len(act):
        return f"{len(act)} lines, expected {len(exp)}"
    for i, (e, a) in enumerate(zip(exp, act), start=1):
        te, ta = e.split(), a.split()
        if len(te) != len(ta) or not all(map(_close, te, ta)):
            return f"line {i}: {a!r}, expected {e!r}"
    return None


def main():
    for name in CASES:
        code, out = capture(name)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.out").write_text(out)
        print(f"wrote {name}.out")


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    main()
