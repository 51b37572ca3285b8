import html

import numpy as np

from so3sym import svgplot


def _bits(x):
    return np.float64(x).tobytes()


def test_median_equals_numpy_bit_for_bit():
    """svgplot._median is np.median: the middle value or the mean of the middle pair."""
    rng = np.random.default_rng(12)
    for n in [*range(1, 61), 300, 2000]:
        for x in (rng.standard_normal(n) * 10.0 ** rng.uniform(-5, 5, n),
                  np.round(rng.standard_normal(n), 1), rng.choice([-0.0, 0.0, 2.5], n)):
            assert _bits(svgplot._median(list(x))) == _bits(np.median(x)), (n, x)


def test_median_with_nan_is_nan():
    assert np.isnan(svgplot._median([1.0, float("nan"), 2.0]))


def test_escape_matches_html_escape():
    for text in ["Test angular error", "a & b < c > d", "\"quoted\" 'text'", "&amp;"]:
        assert svgplot._escape(text) == html.escape(text, quote=False)
