"""Checks of the benchmark's own arithmetic: self time and percentiles.

Run with ``python3 -m pytest perfbench``.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import percentile, tail_percentile  # noqa: E402
from layers import Recorder, Span, self_times  # noqa: E402


def test_self_time_subtracts_children_once():
    spans = [
        Span("master", "full", 0.0, 10.0),
        Span("core", "full", 1.0, 4.0, parent=0),
        Span("hw", "full", 2.0, 3.0, parent=1),
        Span("bus", "full", 5.0, 6.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_and_clips_overhanging_children():
    spans = [
        Span("master", "", 0.0, 10.0),
        Span("cfsm", "", 1.0, 5.0, parent=0),
        Span("cache", "", 3.0, 7.0, parent=0),
        Span("bus", "", 9.0, 12.0, parent=0),
    ]
    # Children cover [1, 7] and [9, 10] of the parent: 7 of 10 seconds.
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_recorder_nests_spans_and_sums_by_label():
    recorder = Recorder()
    recorder.label = "caching"
    with recorder.span("master"):
        with recorder.span("core"):
            with recorder.span("sw"):
                pass
        with recorder.span("core"):
            pass
    assert [span.parent for span in recorder.spans] == [-1, 0, 1, 0]
    totals = recorder.totals()
    assert totals["caching.core.calls"] == 2
    own = sum(value for key, value in totals.items() if key.endswith("self_s"))
    outer = recorder.spans[0]
    assert own == pytest.approx(outer.end - outer.start)
    assert recorder.covered_seconds() == pytest.approx(own)


def test_percentile_interpolates_linearly():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == pytest.approx(50.5)
    assert percentile(values, 95.0) == pytest.approx(95.05)
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


@pytest.mark.parametrize("count, expected", [
    (19, None),      # the median would have 9.5 samples beyond it
    (20, 50.0),
    (99, 50.0),      # p90 would leave 9.9
    (100, 90.0),
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
