"""Unit tests for the nested-span tracer."""

import pickle
from math import ceil

from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.obs.metrics import SPAN_BUCKETS
from repro.obs.trace import SpanStat

#: the widest ratio between adjacent span bucket bounds (~1.34 after
#: 3-significant-digit rounding), plus float slack
BUCKET_RATIO = max(b2 / b1 for b1, b2 in zip(SPAN_BUCKETS, SPAN_BUCKETS[1:]))
TOLERANCE = BUCKET_RATIO * (1 + 1e-9)

#: durations inside the bucketed range (1 us .. 1000 s), in ns
durations_ns = st.integers(min_value=1_000, max_value=10**12)


def nearest_rank_ns(values: list[int], q: int) -> int:
    ordered = sorted(values)
    rank = max(1, ceil(q / 100 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def assert_quantiles_bounded(stat: SpanStat, values: list[int]) -> None:
    """Each percentile lies in [min, max] and within one bucket ratio
    of the exact nearest-rank percentile."""
    lo_ms, hi_ms = min(values) / 1e6, max(values) / 1e6
    for q in (50, 95, 99):
        estimate = getattr(stat, f"p{q}_ms")
        exact = nearest_rank_ns(values, q) / 1e6
        assert lo_ms <= estimate <= hi_ms
        assert estimate <= exact * TOLERANCE
        assert exact <= estimate * TOLERANCE


class TestTracer:
    def test_span_accumulates(self):
        t = Tracer()
        for _ in range(3):
            with t.span("fbf.filter"):
                pass
        stat = t.spans["fbf.filter"]
        assert stat.calls == 3
        assert stat.total_ns >= 0
        assert stat.mean_ns == stat.total_ns / 3

    def test_nested_paths_join_with_slash(self):
        t = Tracer()
        with t.span("run.FPDL"):
            with t.span("fbf.filter"):
                pass
            with t.span("verify"):
                pass
        assert set(t.spans) == {
            "run.FPDL", "run.FPDL/fbf.filter", "run.FPDL/verify",
        }

    def test_stack_unwinds_on_exception(self):
        t = Tracer()
        try:
            with t.span("outer"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with t.span("after"):
            pass
        assert "after" in t.spans  # not "outer/after"

    def test_merge(self):
        a, b = Tracer(), Tracer()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        with b.span("y"):
            pass
        a.merge(b)
        assert a.spans["x"].calls == 2
        assert a.spans["y"].calls == 1

    def test_as_dict(self):
        t = Tracer()
        with t.span("x"):
            pass
        d = t.as_dict()
        assert d["x"]["calls"] == 1
        assert d["x"]["total_ms"] >= 0.0
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            assert d["x"][key] >= 0.0


class TestLatencySummaries:
    def test_percentiles_over_known_samples(self):
        values = [1_000_000 * v for v in range(1, 101)]  # 1..100 ms
        stat = SpanStat("q")
        for ns in values:
            stat.record(ns)
        assert stat.calls == 100
        assert_quantiles_bounded(stat, values)
        assert stat.p50_ms <= stat.p95_ms <= stat.p99_ms
        assert stat.mean_ms == 50.5
        assert (stat.min_ns, stat.max_ns) == (1_000_000, 100_000_000)
        summary = stat.summary()
        assert summary["count"] == 100
        assert summary["p95_ms"] == stat.p95_ms

    def test_empty_stat_reports_zeroes(self):
        stat = SpanStat("q")
        assert stat.summary() == {
            "count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
            "p95_ms": 0.0, "p99_ms": 0.0,
        }

    @given(st.integers(min_value=0, max_value=10**14))
    def test_one_call_reports_its_exact_duration(self, ns):
        # Even below the first bucket bound or in the overflow bucket:
        # the clamp to [min, max] pins every quantile to the one value.
        stat = SpanStat("q")
        stat.record(ns)
        assert stat.p50_ms == stat.p95_ms == stat.p99_ms == ns / 1e6

    def test_merge_combines_samples_bounded(self):
        a, b = Tracer(), Tracer()
        with a.span("x"):
            pass
        with b.span("x"):
            pass
        a.merge(b)
        stat = a.spans["x"]
        assert stat.calls == 2
        assert stat.hist.count == sum(stat.hist.counts) == 2
        assert len(stat.hist.counts) == len(SPAN_BUCKETS) + 1
        assert stat.min_ns + stat.max_ns == stat.total_ns


class TestMerge:
    def test_merge_nested_span_paths(self):
        a, b = Tracer(), Tracer()
        with a.span("join"):
            with a.span("fbf.filter"):
                pass
        with b.span("join"):
            with b.span("fbf.filter"):
                pass
            with b.span("verify"):
                pass
        a.merge(b)
        assert a.spans["join"].calls == 2
        assert a.spans["join/fbf.filter"].calls == 2
        assert a.spans["join/verify"].calls == 1
        # Nested paths stay distinct from same-named top-level spans.
        assert "fbf.filter" not in a.spans

    def test_merge_empty_window_into_empty(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        mine.absorb(theirs)
        assert mine.calls == 0
        assert mine.hist.count == 0
        assert mine.summary()["p99_ms"] == 0.0

    def test_merge_single_sample_each_side(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        mine.record(10)
        theirs.record(30)
        mine.absorb(theirs)
        assert mine.calls == 2
        assert (mine.min_ns, mine.max_ns) == (10, 30)
        assert mine.hist.count == 2
        assert mine.total_ns == 40
        assert mine.mean_ns == 20.0

    def test_merge_into_empty_copies_other_window(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        for ns in (5, 7, 9):
            theirs.record(ns)
        mine.absorb(theirs)
        assert mine.calls == 3
        assert (mine.min_ns, mine.max_ns) == (5, 9)
        assert mine.hist.counts == theirs.hist.counts
        # A copy, not an alias: later records must not leak back.
        mine.record(1)
        assert theirs.hist.count == 3
        assert theirs.min_ns == 5

    def test_merge_keeps_percentiles_in_range(self):
        mine, theirs = SpanStat("q"), SpanStat("q")
        values = [1_000 * (ns + 1) for ns in range(2048)]
        for ns in values:
            mine.record(ns)
            theirs.record(ns)
        mine.absorb(theirs)
        assert mine.calls == 4096
        assert_quantiles_bounded(mine, values + values)
        assert mine.p50_ms <= mine.p95_ms <= mine.p99_ms

    @given(
        st.lists(durations_ns, min_size=1, max_size=200),
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_merge_equals_one_tracer_recording_every_call(
        self, values, n_tracers, data
    ):
        owners = data.draw(
            st.lists(
                st.integers(0, n_tracers - 1),
                min_size=len(values),
                max_size=len(values),
            )
        )
        tracers = [Tracer() for _ in range(n_tracers)]
        whole = SpanStat("q")
        for ns, owner in zip(values, owners):
            spans = tracers[owner].spans
            spans.setdefault("q", SpanStat("q")).record(ns)
            whole.record(ns)
        # A worker collector reaches the parent pickled.
        tracers[-1] = pickle.loads(pickle.dumps(tracers[-1]))
        merged = Tracer()
        for tracer in tracers:
            merged.merge(tracer)
        stat = merged.spans["q"]
        assert stat.hist.counts == whole.hist.counts
        assert stat.hist.count == stat.calls == whole.calls == len(values)
        assert stat.total_ns == whole.total_ns == sum(values)
        assert (stat.min_ns, stat.max_ns) == (min(values), max(values))
        assert_quantiles_bounded(stat, values)
