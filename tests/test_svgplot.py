import html
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from so3sym import svgplot
from so3sym.bingham import _quantile
from so3sym.nn import EpochRow

SVG = "{http://www.w3.org/2000/svg}"


def test_escape_matches_html_escape():
    for text in ["Test angular error", "a & b < c > d", "\"quoted\" 'text'", "&amp;"]:
        assert svgplot._escape(text) == html.escape(text, quote=False)


def _row(head, epoch, median, split="test"):
    return EpochRow(0, 0, 1e-3, epoch, split, head, median, median, 0.5 * median, 1.5 * median)


def _median_xs(path, head):
    """The x of each point of the median polyline drawn for head."""
    line = ET.parse(path).getroot().find(f"{SVG}polyline[@id='median-{head}']")
    return [float(p.split(",")[0]) for p in line.get("points").split()]


def test_shuffled_rows_render_as_a_per_head_epoch_scan(tmp_path):
    """Grouping in one pass gives the bytes of scanning every row per (head, epoch)."""
    rng = np.random.default_rng(5)
    rows = [EpochRow(t, t, 1e-3, e, split, h, *rng.uniform(1, 60, 4))
            for h in ("quat", "6d", "A") for t in range(7) for e in range(40) for split in ("train", "test")]
    random.Random(5).shuffle(rows)
    test = [r for r in rows if r.split == "test"]
    # The reference medians come from a full scan per (head, epoch); one row per point then
    # renders them unchanged, since the median of a single value is that value.
    reference = []
    for h in sorted({r.head for r in test}):
        for e in sorted({r.epoch for r in test}):
            sub = np.array([(r.median_deg, r.p10_deg, r.p90_deg)
                            for r in test if r.head == h and r.epoch == e])
            med, p10, p90 = (float(_quantile(col, 0.5)) for col in sub.T)
            reference.append(EpochRow(0, 0, 1e-3, e, "test", h, 0.0, med, p10, p90))
    svgplot.render_learning_curves(rows, tmp_path / "one_pass.svg")
    svgplot.render_learning_curves(reference, tmp_path / "scan.svg")
    assert (tmp_path / "one_pass.svg").read_bytes() == (tmp_path / "scan.svg").read_bytes()


def test_each_head_is_drawn_at_its_own_epochs(tmp_path):
    """A head missing a middle epoch keeps its later points at their own epochs' x."""
    rows = [_row("A", e, 10.0 - e) for e in (0, 1, 2, 3)] + [_row("quat", e, 20.0 - e) for e in (0, 1, 3)]
    svgplot.render_learning_curves(rows, tmp_path / "gap.svg")
    a_xs = _median_xs(tmp_path / "gap.svg", "A")
    quat_xs = _median_xs(tmp_path / "gap.svg", "quat")
    assert a_xs == [64.0, 229.33, 394.67, 560.0]
    assert quat_xs == [a_xs[0], a_xs[1], a_xs[3]]


def test_no_test_rows_is_an_error(tmp_path):
    with pytest.raises(ValueError, match="no rows with split 'test'"):
        svgplot.render_learning_curves([_row("A", 0, 1.0, split="train")], tmp_path / "empty.svg")
