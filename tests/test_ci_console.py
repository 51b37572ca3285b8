"""Run the "Console entry point" step of the CI workflow offline.

The step is read from .github/workflows/tests.yml as text (CI installs only pytest, so there
is no YAML parser to lean on) and run under `bash -e` from the repo root, with `so3sym` and
`python` on PATH running this interpreter on src/, and RUNNER_TEMP in a temporary directory.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Console entry point"


def step_script(text, name):
    """The `run: |` block of the workflow step called name, dedented."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.strip() == f"- name: {name}")
    key = lines[start + 1]
    assert key.strip() == "run: |", f"step {name!r} has no `run: |` block"
    indent = len(key) - len(key.lstrip())
    body = []
    for line in lines[start + 2:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        body.append(line)
    return textwrap.dedent("\n".join(body)) + "\n"


def test_console_step_passes(tmp_path):
    script = step_script(WORKFLOW.read_text(), STEP)
    assert script.count("so3sym ") >= 10
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, cmd in [("so3sym", "-m so3sym.cli "), ("python", "")]:
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {cmd}"$@"\n')
        shim.chmod(0o755)
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": str(ROOT / "src"), "RUNNER_TEMP": str(runner_temp)}
    proc = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"exit {proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
