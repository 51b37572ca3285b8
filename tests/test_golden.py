"""CLI stdout against the checked-in goldens (regenerate with tests/golden/regen.py)."""

import pytest

from golden.regen import CASES, GOLDEN, capture, mismatch


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = capture(name)
    assert code == 0
    problem = mismatch((GOLDEN / f"{name}.out").read_text(), out)
    assert problem is None, f"{name}: {problem}"


def test_golden_compare_tolerance():
    assert mismatch("x: 1.0 2\n", "x: 1.0000000000001 2\n") is None
    assert mismatch("x: 1.0\n", "x: 1.00000000001\n") is not None
    assert mismatch("x: 0\n", "x: 1e-300\n") is not None
    assert mismatch("result: PASS\n", "result: FAIL\n") is not None
    assert mismatch("a\n", "a\nb\n") is not None
