import numpy as np
import pytest

from so3sym import bingham, so3, symrep
from so3sym.symrep import DegenerateEigenspace


def rand_sym_with_gap(rng):
    while True:
        A = rng.standard_normal((4, 4))
        A = 0.5 * (A + A.T)
        if symrep.symeig4(A).eigengap > 1e-2 * np.linalg.norm(A):
            return A


def test_belief_from_section():
    rng = np.random.default_rng(0)
    q = so3.random_quats(1, rng)[0]
    belief = bingham.belief_from_A(symrep.smooth_section(q))
    assert min(np.linalg.norm(belief.mode - q), np.linalg.norm(belief.mode + q)) < 1e-10
    assert np.allclose(belief.dispersions, [-1, -1, -1])


def test_belief_invariants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        belief = bingham.belief_from_A(rand_sym_with_gap(rng))
        assert np.abs(belief.axes.T @ belief.axes - np.eye(4)).max() < 1e-10
        d = belief.dispersions
        assert d[0] <= d[1] <= d[2] <= 0
        assert np.isclose(np.linalg.norm(belief.mode), 1.0)


def test_belief_mode_is_the_readout_bit_for_bit():
    """axes[:, 3] is qcqp_solve's q*, also where w == 0 and the sign falls back to x or y."""
    rng = np.random.default_rng(5)
    pure = rng.standard_normal((100, 4))
    pure[:, 3] = 0.0
    pure[::2, 0] = 0.0
    pure /= np.linalg.norm(pure, axis=-1, keepdims=True)
    for A in [rand_sym_with_gap(rng) for _ in range(100)] + list(symrep.smooth_section(pure)):
        q, _ = symrep.qcqp_solve(A)
        assert bingham.belief_from_A(A).axes[:, 3].tobytes() == q.tobytes()


def test_belief_shift_invariance():
    rng = np.random.default_rng(2)
    A = rand_sym_with_gap(rng)
    b0 = bingham.belief_from_A(A)
    for c in (-2.5, 0.1, 42.0):
        bc = bingham.belief_from_A(A + c * np.eye(4))
        assert np.abs(bc.dispersions - b0.dispersions).max() < 1e-9
        assert np.abs(np.abs(np.sum(bc.axes * b0.axes, axis=0)) - 1).max() < 1e-9


def test_belief_scaling():
    rng = np.random.default_rng(3)
    A = rand_sym_with_gap(rng)
    b0 = bingham.belief_from_A(A)
    b3 = bingham.belief_from_A(3.0 * A)
    assert np.abs(b3.dispersions - 3.0 * b0.dispersions).max() < 1e-9
    assert min(np.linalg.norm(b3.mode - b0.mode), np.linalg.norm(b3.mode + b0.mode)) < 1e-10


def test_belief_degenerate_raises():
    with pytest.raises(DegenerateEigenspace, match=r"^minimum eigenvalue is not simple \(gap 0\.000e\+00 < 1\.0e-08"):
        bingham.belief_from_A(np.eye(4))


def test_log_density_at_mode_and_axes():
    rng = np.random.default_rng(4)
    belief = bingham.belief_from_A(rand_sym_with_gap(rng))
    assert abs(bingham.log_density_unnorm(belief, belief.mode)) < 1e-12
    assert abs(bingham.log_density_unnorm(belief, -belief.mode)) < 1e-12
    for i in range(3):
        val = bingham.log_density_unnorm(belief, belief.axes[:, i])
        assert np.isclose(val, belief.dispersions[i], atol=1e-10)


def test_log_density_is_per_sample_over_a_batch():
    rng = np.random.default_rng(6)
    belief = bingham.belief_from_A(rand_sym_with_gap(rng))
    x = so3.random_quats(3, rng)
    vals = bingham.log_density_unnorm(belief, x)
    assert vals.shape == (3,)
    assert np.array_equal(vals, [bingham.log_density_unnorm(belief, xi) for xi in x])
    assert np.ndim(bingham.log_density_unnorm(belief, x[0])) == 0


def test_log_density_mode_is_argmax():
    rng = np.random.default_rng(5)
    belief = bingham.belief_from_A(rand_sym_with_gap(rng))
    x = so3.random_quats(10_000, rng)
    vals = np.array([bingham.log_density_unnorm(belief, xi) for xi in x[:2000]])
    assert np.all(vals <= 1e-12)


def test_dispersion_trace_golden():
    assert bingham.dispersion_trace(np.zeros((4, 4))) == 0
    rng = np.random.default_rng(6)
    q = so3.random_quats(1, rng)[0]
    assert np.isclose(bingham.dispersion_trace(symrep.smooth_section(q)), -3.0)


def test_dispersion_trace_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.standard_normal((4, 4))
        A = 0.5 * (A + A.T)
        c = rng.standard_normal()
        assert np.isclose(bingham.dispersion_trace(A + c * np.eye(4)),
                          bingham.dispersion_trace(A), atol=1e-10)


def test_dispersion_trace_equals_dispersion_sum():
    rng = np.random.default_rng(8)
    A = rand_sym_with_gap(rng)
    belief = bingham.belief_from_A(A)
    assert abs(bingham.dispersion_trace(A) - belief.dispersions.sum()) < 1e-10



@pytest.mark.parametrize("shape", [(), (100,), (3, 5)], ids=str)
def test_dispersion_trace_matches_eigendecomp(shape):
    rng = np.random.default_rng(9)
    A = rng.standard_normal(shape + (4, 4)) * 10.0 ** rng.integers(-3, 4, shape + (1, 1))
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    fro = np.linalg.norm(A, axis=(-2, -1))
    err = np.abs(bingham.dispersion_trace(A) - symrep.symeig4(A).dispersion_trace)
    assert np.all(err <= 1e-12 * np.maximum(1.0, fro))

def test_dt_fit_golden():
    assert bingham.dt_fit([-4, -3, -2, -1], 1.0) == -1  # max
    assert bingham.dt_fit([-4, -3, -2, -1], 0.5) == -2.5
    # linear interpolation at q = 0.75: position 2.25 between -2 and -1
    assert np.isclose(bingham.dt_fit([-4, -3, -2, -1], 0.75), -1.75)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_quantile_equals_numpy_bit_for_bit():
    """bingham._quantile is np.quantile(method="linear"), ties and signed zeros included."""
    rng = np.random.default_rng(11)
    qs = np.array([1e-9, 0.25, 0.75, 0.9, 1.0])
    for n in [*range(1, 61), 300, 2000]:
        for x in (rng.standard_normal(n), np.round(rng.standard_normal(n), 1),
                  rng.integers(0, 3, n).astype(float), rng.choice([-0.0, 0.0, 1.0], n)):
            assert _bits(bingham._quantile(x, qs)) == _bits(np.quantile(x, qs)), (n, x)
            for q in qs:
                assert _bits(bingham._quantile(x, float(q))) == _bits(np.quantile(x, float(q)))
            # The p10/p50/p90 of nn's per-epoch rows.
            assert (_bits(bingham._quantile(x, (0.1, 0.5, 0.9)))
                    == _bits(np.percentile(x, [10, 50, 90])))


def test_quantile_of_a_sample_with_nan_is_nan():
    assert np.isnan(bingham._quantile(np.array([1.0, np.nan, 2.0]), 0.5))
    assert np.isnan(bingham._quantile(np.array([np.nan]), (0.1, 0.9))).all()


def test_dt_fit_errors():
    with pytest.raises(ValueError):
        bingham.dt_fit([], 0.5)
    with pytest.raises(ValueError):
        bingham.dt_fit([-1.0], 0.0)


def test_dt_classify_boundary_and_keep():
    assert bingham.dt_classify(-2.0, -2.0)
    assert bingham.dt_classify(-10.0, -2.0)
    assert not bingham.dt_classify(-1.0, -2.0)


def test_dt_kept_fraction_matches_quantile():
    rng = np.random.default_rng(9)
    traces = -np.abs(rng.standard_normal(500))
    for q in (0.25, 0.5, 0.75, 1.0):
        thr = bingham.dt_fit(traces, q)
        kept = bingham.dt_classify(traces, thr)
        assert abs(kept.mean() - q) <= 1.0 / len(traces) + 1e-12


def test_dt_monotone_in_q():
    rng = np.random.default_rng(10)
    for _ in range(20):
        traces = rng.standard_normal(100)
        kept_sets = []
        for q in (0.2, 0.5, 0.8, 1.0):
            thr = bingham.dt_fit(traces, q)
            kept_sets.append(frozenset(np.nonzero(bingham.dt_classify(traces, thr))[0]))
        for small, big in zip(kept_sets, kept_sets[1:]):
            assert small <= big
