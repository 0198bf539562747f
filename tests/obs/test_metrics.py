"""Property tests for the streaming-metrics primitives.

Three pinned contracts from ``repro.obs.metrics``:

* **merge equals concatenation** -- folding ``snap(a)`` and ``snap(b)``
  into one histogram with :meth:`LogHistogram.merge` gives exactly the histogram of recording stream ``a + b`` (integer bucket
  counts; only the float ``sum`` is compared with tolerance, since float
  addition is not associative);
* **quantile error bound** -- the bucket-edge quantile estimate ``r``
  brackets the exact sample quantile ``t`` (same rank convention) as
  ``t <= r <= t * growth``, one bucket width;
* **deterministic window expiry** -- a :class:`WindowedHistogram` driven
  by an injected fake clock expires slices as a pure function of that
  clock; no assertion in this file reads the real time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_GROWTH,
    LogHistogram,
    MetricsRegistry,
    WindowedHistogram,
    fraction_above,
    histogram_quantile,
    summarize_histogram,
    validate_histogram,
)

# Positive, well inside float range: outside the zero bucket, inside the
# log-bucket arithmetic's comfortable range.
values = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
value_lists = st.lists(values, min_size=0, max_size=200)


def _record_all(vals, growth=DEFAULT_GROWTH):
    h = LogHistogram(growth=growth)
    for v in vals:
        h.record(v)
    return h


def merge_histogram(a, b):
    """Fold two snapshots into a fresh histogram; its snapshot."""
    out = LogHistogram(growth=a.get("growth", DEFAULT_GROWTH))
    out.merge(a)
    out.merge(b)
    return out.snapshot()


def _exact_quantile(vals, p):
    """The sample quantile under the repo's rank convention."""
    ordered = sorted(vals)
    rank = min(len(ordered) - 1, max(0, round(p * (len(ordered) - 1))))
    return ordered[rank]


class TestMergeEqualsConcatenation:
    @settings(max_examples=100, deadline=None)
    @given(a=value_lists, b=value_lists)
    def test_merge_matches_concatenated_recording(self, a, b):
        merged = merge_histogram(
            _record_all(a).snapshot(), _record_all(b).snapshot()
        )
        concat = _record_all(a + b).snapshot()
        assert merged["count"] == concat["count"]
        assert merged["zero"] == concat["zero"]
        assert merged["buckets"] == concat["buckets"]
        assert merged["min"] == concat["min"]
        assert merged["max"] == concat["max"]
        assert math.isclose(
            merged["sum"], concat["sum"], rel_tol=1e-9, abs_tol=1e-12
        )
        assert validate_histogram(merged) == []

    @settings(max_examples=50, deadline=None)
    @given(a=value_lists, b=value_lists, c=value_lists)
    def test_merge_is_associative_on_counts(self, a, b, c):
        sa, sb, sc = (_record_all(x).snapshot() for x in (a, b, c))
        left = merge_histogram(merge_histogram(sa, sb), sc)
        right = merge_histogram(sa, merge_histogram(sb, sc))
        assert left["buckets"] == right["buckets"]
        assert left["count"] == right["count"]

    def test_growth_mismatch_rejected(self):
        import pytest

        a = LogHistogram(growth=2.0).snapshot()
        b = LogHistogram(growth=4.0).snapshot()
        with pytest.raises(ValueError):
            merge_histogram(a, b)


class TestQuantileBound:
    @settings(max_examples=150, deadline=None)
    @given(
        vals=st.lists(values, min_size=1, max_size=200),
        p=st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0]),
    )
    def test_estimate_within_one_bucket_of_exact(self, vals, p):
        snap = _record_all(vals).snapshot()
        estimate = histogram_quantile(snap, p)
        exact = _exact_quantile(vals, p)
        growth = snap["growth"]
        # Upper edge of the ranked sample's bucket: never below the exact
        # sample, never more than one bucket width above it (tiny float
        # slack for log/pow rounding at bucket edges).
        assert estimate >= exact * (1 - 1e-9)
        assert estimate <= exact * growth * (1 + 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(vals=st.lists(values, min_size=1, max_size=100))
    def test_extremes_clamped_to_observed_range(self, vals):
        snap = _record_all(vals).snapshot()
        assert histogram_quantile(snap, 1.0) <= snap["max"] * (1 + 1e-12)
        assert histogram_quantile(snap, 0.0) >= 0.0

    def test_empty_histogram_quantile_is_zero(self):
        assert histogram_quantile(LogHistogram().snapshot(), 0.99) == 0.0

    def test_zero_bucket_samples_rank_as_zero(self):
        h = LogHistogram()
        for _ in range(9):
            h.record(0.0)
        h.record(1.0)
        snap = h.snapshot()
        assert histogram_quantile(snap, 0.5) == 0.0
        assert histogram_quantile(snap, 1.0) >= 1.0

    @settings(max_examples=50, deadline=None)
    @given(vals=st.lists(values, min_size=1, max_size=100), threshold=values)
    def test_fraction_above_is_conservative(self, vals, threshold):
        snap = _record_all(vals).snapshot()
        est = fraction_above(snap, threshold)
        exact = sum(1 for v in vals if v > threshold) / len(vals)
        # Bucket resolution only ever rounds the violation fraction *up*.
        assert est >= exact - 1e-12
        assert est <= 1.0


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class TestWindowExpiry:
    def test_expiry_is_deterministic_in_the_injected_clock(self):
        clock = FakeClock(5.0)
        w = WindowedHistogram(window_s=60.0, slices=6, clock=clock)
        w.record(1.0)  # slice 0 (width 10s)
        clock.now = 59.0
        w.record(2.0)  # slice 5
        assert w.snapshot()["count"] == 2
        clock.now = 60.0  # slice 6: slice 0 is now exactly 6 slices old
        assert w.snapshot()["count"] == 1
        clock.now = 109.9  # slice 10: slice 5 still inside (10 - 5 < 6)
        assert w.snapshot()["count"] == 1
        clock.now = 110.0  # slice 11: everything expired
        assert w.snapshot()["count"] == 0

    def test_slice_reuse_after_wraparound(self):
        clock = FakeClock(0.0)
        w = WindowedHistogram(window_s=6.0, slices=3, clock=clock)
        w.record(1.0)  # slice 0
        clock.now = 6.0  # slice 3 reuses ring position 0
        w.record(2.0)
        snap = w.snapshot()
        assert snap["count"] == 1
        assert snap["max"] == 2.0

    @settings(max_examples=80, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
                values,
            ),
            min_size=0,
            max_size=60,
        ),
        probe=st.floats(min_value=0.0, max_value=600.0, allow_nan=False),
    )
    def test_snapshot_counts_exactly_the_live_slices(self, events, probe):
        events = sorted(events)
        probe = max(probe, events[-1][0] if events else 0.0)
        clock = FakeClock()
        w = WindowedHistogram(window_s=60.0, slices=6, clock=clock)
        for t, v in events:
            clock.now = t
            w.record(v)
        clock.now = probe
        width = w.slice_width
        now_idx = int(probe / width)
        expected = sum(
            1 for t, _ in events if now_idx - int(t / width) < w.slices
        )
        assert w.snapshot()["count"] == expected


class TestInstruments:
    def test_registry_records_and_snapshots(self):
        clock = FakeClock(0.0)
        reg = MetricsRegistry(enabled=True, clock=clock)
        for v in (0.1, 0.2, 0.4):
            reg.observe("serve.latency", v, tier="computed")
        snap = reg.snapshot()
        key = "serve.latency{tier=computed}"
        assert snap["histograms"][key]["total"]["count"] == 3
        assert snap["histograms"][key]["window"]["count"] == 3
        assert validate_histogram(snap["histograms"][key]["total"]) == []

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.observe("m", 1.0)
        assert len(reg) == 0

    def test_summary_fields(self):
        snap = _record_all([0.1] * 99 + [5.0]).snapshot()
        s = summarize_histogram(snap)
        assert s["count"] == 100
        assert s["p50"] < s["p999"] <= s["max"] == 5.0
        assert s["mean"] > 0

    def test_validate_histogram_catches_count_drift(self):
        snap = _record_all([1.0, 2.0]).snapshot()
        snap["count"] = 5
        assert any("sum to" in e for e in validate_histogram(snap))
