"""Tests for the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import math
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from bench_stats import (nan_equal, poisson_offsets, self_time,  # noqa: E402
                         tail_percentile, union_length)
from bench_trace import Tracer  # noqa: E402


# -- the highest percentile with at least ten samples beyond it ----------
@pytest.mark.parametrize("n, q", [(1000, 99), (1040, 99), (250, 96),
                                  (251, 96), (300, 96), (20, 50)])
def test_tail_percentile_leaves_ten_samples_beyond(n, q):
    values = list(range(1, n + 1))  # value k has n - k samples above it
    got_q, value = tail_percentile(reversed(values))
    assert got_q == q
    beyond = sum(v > value for v in values)
    assert beyond >= 10
    # The next whole percentile up would leave fewer than ten.
    assert n - math.ceil((q + 1) * n / 100) < 10


def test_tail_percentile_exact_values():
    assert tail_percentile(range(1, 1001)) == (99, 990.0)
    assert tail_percentile(range(1, 251)) == (96, 240.0)


def test_tail_percentile_small_samples_fall_back_to_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0)
    assert tail_percentile(range(19)) == (100, 18.0)
    with pytest.raises(ValueError):
        tail_percentile([])


# -- NaN-aware exact equality, as MetricSummary.__eq__ -------------------
def test_nan_equal_treats_nan_as_equal_where_dict_eq_does_not():
    a = {"f1": float("nan"), "auc_roc": 91.25}
    b = {"f1": float("nan"), "auc_roc": 91.25}
    assert a != b  # the unsound comparison
    assert nan_equal(a, b)


def test_nan_equal_is_exact():
    assert not nan_equal({"auc": 91.25}, {"auc": np.nextafter(91.25, 100)})
    assert not nan_equal({"f1": float("nan")}, {"f1": 0.0})
    assert not nan_equal({"f1": 1.0}, {"f1": 1.0, "fpr": 0.0})
    assert nan_equal([1.0, {"x": float("nan")}], [1.0, {"x": float("nan")}])


def test_nan_equal_matches_metric_summary_semantics():
    from repro.metrics import MetricSummary

    nan = float("nan")
    pairs = [(MetricSummary(nan, nan), MetricSummary(nan, nan)),
             (MetricSummary(1.0, 0.5), MetricSummary(1.0, 0.5)),
             (MetricSummary(1.0, nan), MetricSummary(1.0, 0.0)),
             (MetricSummary(0.0, 0.0), MetricSummary(-0.0, 0.0))]
    for a, b in pairs:
        assert nan_equal({"m": a}, {"m": b}) == (a == b)


# -- the open-loop schedule ---------------------------------------------
def test_poisson_schedule_is_seeded_and_increasing():
    a = poisson_offsets(2000.0, 5000, np.random.default_rng(3))
    b = poisson_offsets(2000.0, 5000, np.random.default_rng(3))
    c = poisson_offsets(2000.0, 5000, np.random.default_rng(4))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0) and a[0] > 0


def test_poisson_schedule_keeps_its_rate():
    offsets = poisson_offsets(100.0, 20000, np.random.default_rng(0))
    assert 20000 / offsets[-1] == pytest.approx(100.0, rel=0.03)
    gaps = np.diff(offsets)
    # Exponential gaps: the standard deviation equals the mean.
    assert gaps.std() == pytest.approx(gaps.mean(), rel=0.05)


def test_poisson_schedule_rejects_bad_input():
    with pytest.raises(ValueError):
        poisson_offsets(0.0, 10, np.random.default_rng(0))


# -- span self-time arithmetic ------------------------------------------
def test_union_length_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], lo=2, hi=5) == 3
    assert union_length([(3, 1)]) == 0
    assert union_length([]) == 0


def test_self_time_subtracts_covered_part_once():
    # Two overlapping children cover [2, 7]; one sticks out past the end.
    assert self_time(0.0, 10.0, [(2, 5), (4, 7), (9, 12)]) == 10 - 5 - 1
    assert self_time(0.0, 10.0, []) == 10
    assert self_time(0.0, 10.0, [(0, 10), (3, 4)]) == 0


def test_tracer_self_seconds_and_restore():
    import types

    module = types.ModuleType("fake_layer")
    sys.modules["fake_layer"] = module
    calls = []

    def inner():
        calls.append("inner")

    def outer():
        module.inner()
        module.inner()

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.wrap("fake_layer:inner", "layer.inner")
    tracer.wrap("fake_layer:outer", "layer.outer")
    module.outer()
    tracer.restore()
    assert module.inner is inner and module.outer is outer
    (root,) = tracer.named("layer.outer")
    kids = tracer.named("layer.inner")
    assert len(kids) == 2 and all(k.parent == root.id for k in kids)
    expected = root.seconds - sum(k.seconds for k in kids)
    assert tracer.self_seconds("layer.outer") == pytest.approx(expected)
    assert tracer.self_seconds(
        "layer.outer", exclude=("layer.inner",)) == pytest.approx(
            root.seconds)
    del sys.modules["fake_layer"]
