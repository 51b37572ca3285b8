"""CLI stdout against the checked-in goldens (regenerate with tests/golden/regen.py)."""

import pytest

from golden.regen import CASES, GOLDEN, capture, mismatch, run_case


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


@pytest.mark.parametrize("name, product", sorted((name, f) for name, (_, files) in CASES.items()
                                                 for f in files))
def test_cli_file_matches_golden(name, product):
    code, products = run_case(name)
    assert code == 0
    problem = mismatch((GOLDEN / f"{name}.{product}").read_text(), products[product])
    assert problem is None, f"{name}.{product}: {problem}"


def test_golden_compare_splits_csv_fields():
    assert mismatch("0,a,1.0\n", "0,a,1.0000000000001\n") is None
    assert mismatch("0,a,1.0\n", "0,a,1.00000000001\n") is not None
    assert mismatch("0,a,1.0\n", "0,b,1.0\n") is not None
    assert mismatch("0,,1\n", "0,1\n") is not None
    assert mismatch("nan,x\n", "nan,x\n") is None
